#!/usr/bin/env python3
"""Build and run the EBBIOT wall-clock benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet_ebbiot --seed 1 \
        --seconds 30 --trace 0 --ebbiot-rate R --ebms-rate R [--smoke]

Configures and builds perfbench/ (which builds the library from src/)
into .bench_build/perfbench on first use, then runs the benchmark binary
with the given arguments from the repository root.  Traced runs write
their spans to .bench_trace/.
Build output goes to stderr; the binary's last stdout line is the JSON
result.  Exits non-zero, without a result, when the build fails.
"""
import fcntl
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"


def build() -> bool:
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr,
                                      stderr=sys.stderr, cwd=ROOT)
            except OSError as err:
                print(f"perfbench: cannot run {step[0]}: {err}",
                      file=sys.stderr)
                return False
            if done.returncode != 0:
                print("perfbench: build failed", file=sys.stderr)
                return False
    return True


def main() -> int:
    if not build():
        return 1
    sys.stdout.flush()
    return subprocess.run([str(BUILD / "perfbench")] + sys.argv[1:],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
