#!/usr/bin/env python3
"""Build the e2ebench package from source, then run it.

Usage (from the repository root):

    python3 e2ebench/run.py --workload hot_small --seed 1 --seconds 20 --trace 0

Every argument is passed through to the e2ebench binary (see main.cpp).
The build lives in .bench_build/e2ebench under the repository root; build
output goes to standard error so the binary's last line of standard
output stays the result JSON.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BUILD_JOBS = "4"


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("e2ebench: no greenfpga sources next to %s; nothing to build" % HERE)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "e2ebench", "-j", BUILD_JOBS],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except subprocess.CalledProcessError as error:
        sys.exit("e2ebench: build failed (%s)" % error)
    binary = os.path.join(BUILD, "e2ebench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
