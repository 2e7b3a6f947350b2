#!/usr/bin/env python3
"""Build the NetCov benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source tree. The harness is built with dune into
the tree's own _build directory, then run with the arguments unchanged;
its last line of output is the result (see perfbench/README.md). Exits
non-zero without a result when the tree cannot be built.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/harness.exe"


def main():
    env = dict(os.environ)
    # Keep every build artifact inside the tree.
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, TARGET],
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    # The domain count is fixed by the benchmark, also for pools the
    # program sizes itself.
    env["NETCOV_DOMAINS"] = "2"
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "harness.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env,
                          stdin=subprocess.DEVNULL).returncode


if __name__ == "__main__":
    sys.exit(main())
