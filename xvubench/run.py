#!/usr/bin/env python3
"""Builds xvubench from this checkout and runs one workload.

Run from the repository root:

    python3 xvubench/run.py --workload ops_w1_c10k --seed 1 --seconds 30 --trace 0

The library under test and xvubench are compiled from the checkout's own
sources with CMake (Release) into .bench_build/; compiler output goes to
stderr. xvubench then replaces this process, so the last line of stdout
is the run's JSON result. Exits non-zero without a result when the build
fails, e.g. in a directory that lacks the library sources.
"""

import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def run_tree(cmd):
    """Runs `cmd` in its own process group; if this process is interrupted
    or terminated, kills the whole group (make and compilers included) and
    waits for it before re-raising."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:  # until the group is gone
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        raise
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)


def build():
    run_tree(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    run_tree(["cmake", "--build", BUILD, "-j", jobs])


def main():
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"xvubench: build failed: {err}", file=sys.stderr)
        return 2
    driver = os.path.join(BUILD, "xvubench")
    sys.stdout.flush()
    os.execv(driver, [driver] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
