#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload single_core|eight_core|sweep_stores \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (and the simulator library it links) in Release mode under
.bench_build/perfbench; later calls rebuild incrementally. The
benchmark binary then replaces this process, so its last line of
standard output is the JSON result. See perfbench/README.md.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")

# What the benchmark builds and checks against; absent outside a full
# checkout, where the benchmark must fail fast without a result.
REQUIRED = ["CMakeLists.txt", "src/sim/simulator.hh",
            "tests/golden/fingerprints.txt"]


def build():
    """Configure once, then build the benchmark target (serialized)."""
    tmp = os.path.join(BUILD, "cctmp")
    os.makedirs(tmp, exist_ok=True)
    # The compiler's scratch files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, env=env)
        subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                        "-j", jobs], check=True, stdout=sys.stderr, env=env)
    return os.path.join(BUILD, "perfbench")


def main():
    missing = [p for p in REQUIRED
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print("perfbench: not a simulator checkout (missing %s)"
              % ", ".join(missing), file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
