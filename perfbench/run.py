#!/usr/bin/env python3
"""Builds the benchmark driver from source, then runs one workload.

    python3 perfbench/run.py --workload lp-large-groups --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The build goes to .bench_build/
(configure once, then incremental); run artifacts (snapshots, span dumps)
go to .bench_out/. Build output is sent to stderr so that the last line of
stdout stays the driver's JSON result. Every flag is passed through to the
driver; see perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    source = os.path.join(root, "perfbench")
    build = os.path.join(root, ".bench_build")
    if not os.path.isfile(os.path.join(source, "CMakeLists.txt")):
        print("run.py: run from the checkout root (no perfbench/CMakeLists.txt)", file=sys.stderr)
        return 2
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        # Configured once; later builds re-run configure only when a
        # CMakeLists.txt changed.
        steps.append(["cmake", "-S", source, "-B", build, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] +
                     (["-G", "Ninja"] if _has("ninja") else []))
    steps.append(["cmake", "--build", build, "--target", "perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(step), file=sys.stderr)
            return 1
    driver = os.path.join(build, "perfbench")
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    # The driver never outlives this call: run() waits for it, and the
    # driver itself reaps every server process it starts.
    return subprocess.run([driver, "--out-dir", out_dir] + sys.argv[1:]).returncode


def _has(program: str) -> bool:
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep) if d)


if __name__ == "__main__":
    sys.exit(main())
