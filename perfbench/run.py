#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The library is compiled from src/ into
.bench_build/ (configured on the first run, incremental afterwards);
build output goes to stderr. The benchmark's stdout is passed through:
its last line is the JSON result. The exit code is the benchmark's, or
nonzero without a result when the build fails.
"""
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
# A run must end within 180 s; leave room for start-up and teardown.
RUN_TIMEOUT_S = 170


def build():
    jobs = str(os.cpu_count() or 1)
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, check=True)


def main():
    # SIGTERM unwinds like Ctrl-C, so the child is always stopped and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        build()
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    child = subprocess.Popen([str(BUILD / "perfbench")] + sys.argv[1:],
                             cwd=ROOT)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
