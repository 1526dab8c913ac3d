#!/usr/bin/env bash
# Interleaved A/B timing of this checkout against an older revision,
# with the benchmark in perfbench/ (docs/performance.md, "Measuring
# changes honestly").
#
# Usage:
#   tools/perf_ab.sh BASE_REF [WORKLOAD] [PAIRS] [SECONDS]
#
#   BASE_REF  the parent: any git revision (HEAD, HEAD~1, a sha, a tag)
#   WORKLOAD  a BENCHMARK.json workload (default single_core)
#   PAIRS     runs per side (default 4)
#   SECONDS   --seconds of each run (default BENCHMARK.json run_seconds)
#
# BASE_REF is exported with `git archive` into .bench_build/ab/<sha>
# (kept, so a later call rebuilds incrementally). Pair i runs
# `perfbench/run.py --trace 0 --seed i` once in that tree and once in
# this checkout, working tree as it stands; odd pairs run the parent
# first, even pairs the change, so a drift in host speed lands on both
# sides alike. The table gives each end-to-end metric as the ratio
# change / parent, per pair and as the median over pairs. Each run's
# stderr is kept next to the export, in .bench_build/ab/logs.
#
# Exit status: 0 when every run reports "correct": true, 1 when one
# does not (or produces no result), 2 on a usage error.

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
ab_root="$repo_root/.bench_build/ab"

usage() {
    sed -n '6,12p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

[ $# -ge 1 ] && [ $# -le 4 ] || usage
base_ref="$1"
workload="${2:-single_core}"
pairs="${3:-4}"
seconds="${4:-$(python3 -c 'import json, sys
print(json.load(open(sys.argv[1]))["run_seconds"])' \
    "$repo_root/BENCHMARK.json")}"

python3 - "$repo_root/BENCHMARK.json" "$workload" "$pairs" "$seconds" <<'EOF' || usage
import json, math, sys
bench = json.load(open(sys.argv[1]))
names = [w["name"] for w in bench["workloads"]]
if sys.argv[2] not in names:
    sys.exit("perf_ab: unknown workload '%s' (one of %s)"
             % (sys.argv[2], ", ".join(names)))
if not sys.argv[3].isdigit() or int(sys.argv[3]) < 1:
    sys.exit("perf_ab: PAIRS must be a positive integer")
try:
    s = float(sys.argv[4])
except ValueError:
    s = float("nan")
if not math.isfinite(s) or s <= 0:
    sys.exit("perf_ab: SECONDS must be a positive number")
EOF

sha="$(git -C "$repo_root" rev-parse --verify --quiet "${base_ref}^{commit}")" \
    || { echo "perf_ab: '$base_ref' names no commit" >&2; exit 2; }
base_dir="$ab_root/$sha"
logs="$ab_root/logs"
mkdir -p "$logs"
staging=""
results="$(mktemp "$ab_root/results.XXXXXX")"
trap 'rm -rf "$results" ${staging:+"$staging"}' EXIT
if [ ! -d "$base_dir" ]; then
    # Export into a fresh directory, then rename: an interrupted export
    # never passes for a finished one.
    staging="$(mktemp -d "$ab_root/export.XXXXXX")"
    git -C "$repo_root" archive "$sha" | tar -x -C "$staging"
    mv "$staging" "$base_dir"
    staging=""
fi

# run SIDE TREE PAIR: one benchmark run; appends "SIDE PAIR <json>".
run() {
    local side="$1" tree="$2" pair="$3"
    local log="$logs/$workload.$side.$pair.log"
    echo "perf_ab: pair $pair/$pairs, $side" >&2
    local out
    if ! out="$(python3 "$tree/perfbench/run.py" --workload "$workload" \
                 --seed "$pair" --seconds "$seconds" --trace 0 \
                 2>"$log" | tail -n 1)" || [ -z "$out" ]; then
        echo "perf_ab: the $side run of pair $pair gave no result" \
             "(see $log)" >&2
        exit 1
    fi
    echo "$side $pair $out" >>"$results"
}

for ((pair = 1; pair <= pairs; ++pair)); do
    if ((pair % 2 == 1)); then
        run parent "$base_dir" "$pair"
        run change "$repo_root" "$pair"
    else
        run change "$repo_root" "$pair"
        run parent "$base_dir" "$pair"
    fi
done

python3 - "$repo_root/BENCHMARK.json" "$results" "$workload" \
    "$base_ref" "$sha" "$seconds" <<'EOF'
import json, statistics, sys

bench = json.load(open(sys.argv[1]))
metrics = bench["end_to_end"]
workload, ref, sha, seconds = sys.argv[3:7]
runs = {}
for line in open(sys.argv[2]):
    side, pair, doc = line.split(" ", 2)
    try:
        runs[(side, int(pair))] = json.loads(doc)
    except ValueError:  # a last line that is no result
        runs[(side, int(pair))] = {}
pairs = sorted({p for _, p in runs})

bad = ["%s run of pair %d" % (side, p) for (side, p), r in
       sorted(runs.items()) if r.get("correct") is not True]

def value(side, p, name):
    m = runs[(side, p)].get("metrics", {}).get(name)
    return None if m is None else m["value"]

print("perf_ab: %s, %d pair(s) x %s s; parent %s (%s) vs this checkout"
      % (workload, len(pairs), seconds, ref, sha[:12]))
print("ratio = change / parent; %s" % "; ".join(
    "%s: %s is better" % (m["name"], m["better"]) for m in metrics))
width = max(12, max(len(m["name"]) for m in metrics) + 2)
print("%-6s%-8s" % ("pair", "first") +
      "".join("%*s" % (width, m["name"]) for m in metrics))
ratios = {m["name"]: [] for m in metrics}
for p in pairs:
    row = "%-6d%-8s" % (p, "parent" if p % 2 == 1 else "change")
    for m in metrics:
        a, b = value("parent", p, m["name"]), value("change", p, m["name"])
        if a is None or b is None or a == 0:
            row += "%*s" % (width, "-")
            continue
        ratios[m["name"]].append(b / a)
        row += "%*.4f" % (width, b / a)
    print(row)
row = "%-14s" % "median"
for m in metrics:
    r = ratios[m["name"]]
    row += "%*s" % (width, "%.4f" % statistics.median(r) if r else "-")
print(row)
# Each side's own values: median, and the spread between its quartiles
# (a gain should clear the parent's).
for side in ("parent", "change"):
    med, iqr = "%-14s" % (side + " median"), "%-14s" % (side + " IQR")
    for m in metrics:
        v = [x for x in (value(side, p, m["name"]) for p in pairs)
             if x is not None]
        med += "%*s" % (width, "%.4g" % statistics.median(v) if v else "-")
        if len(v) >= 2:
            q = statistics.quantiles(v, n=4)
            iqr += "%*s" % (width, "%.4g" % (q[2] - q[0]))
        else:
            iqr += "%*s" % (width, "-")
    print(med)
    print(iqr)
if bad:
    print("perf_ab: not correct: " + ", ".join(bad), file=sys.stderr)
    sys.exit(1)
EOF
