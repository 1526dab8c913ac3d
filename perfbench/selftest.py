#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at tiny budgets (--tiny) and
asserts that:

 1. every metric BENCHMARK.json names prints with its unit: the
    end_to_end metrics untraced, the per_layer metrics traced;
 2. the output check passes on two seeds (correct, 0 failed);
 3. the check fails on a corrupted reference: a temp copy of the golden
    file whose one.hermes.mcf line has one digit flipped;
 4. outside a full checkout (only BENCHMARK.json and perfbench/) the
    benchmark exits non-zero without printing a result.

Exits 0 when all hold, 1 otherwise. Temp files live under
.bench_build/perfbench/selftest and are removed at the end.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TMP = os.path.join(ROOT, ".bench_build", "perfbench", "selftest")
SEEDS = (1, 2)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench",
                                                        "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result(workload, seed, trace, extra=()):
    out = run(["--workload", workload, "--seed", str(seed), "--seconds",
               "1", "--trace", str(trace), "--tiny"] + list(extra))
    if out.returncode != 0:
        raise RuntimeError("%s seed %d trace %d exited %d:\n%s"
                           % (workload, seed, trace, out.returncode,
                              out.stderr[-3000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def flipped_golden():
    """A temp copy of the golden file with one.hermes.mcf corrupted."""
    lines = []
    with open(os.path.join(ROOT, "tests", "golden",
                           "fingerprints.txt")) as f:
        for line in f:
            if line.startswith("one.hermes.mcf "):
                key, hexval = line.split()
                flipped = "%x" % (int(hexval[-1], 16) ^ 1)
                line = "%s %s%s\n" % (key, hexval[:-1], flipped)
            lines.append(line)
    path = os.path.join(TMP, "fingerprints.txt")
    with open(path, "w") as f:
        f.writelines(lines)
    return path


def bare_copy():
    """A directory holding only BENCHMARK.json and perfbench/."""
    bare = os.path.join(TMP, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return bare


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    shutil.rmtree(TMP, ignore_errors=True)
    os.makedirs(TMP)
    failures = []

    def expect(ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                r = result(workload, seed, trace)
                want = {m["name"]: m["unit"] for m in spec[group]}
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                label = "%s seed %d trace %d" % (workload, seed, trace)
                expect(got == want,
                       "%s prints every %s metric with its unit"
                       % (label, group))
                expect(r["correct"] and r["failed"] == 0
                       and r["attempted"] >= 1,
                       "%s passes its output check (%d attempted, %d "
                       "failed)" % (label, r["attempted"], r["failed"]))

    r = result("single_core", SEEDS[0], 0, ("--golden", flipped_golden()))
    expect(not r["correct"] and r["failed"] == 1,
           "a flipped one.hermes.mcf golden fails the check (%d failed)"
           % r["failed"])

    out = run(["--workload", "single_core", "--seed", "1", "--seconds",
               "1", "--trace", "0"], cwd=bare_copy())
    expect(out.returncode != 0 and not out.stdout.strip(),
           "outside a checkout it exits %d with no result"
           % out.returncode)

    shutil.rmtree(TMP, ignore_errors=True)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
