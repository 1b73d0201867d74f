#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload pipeline|serve_hot|serve_cold|stream \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the repository root. The first run configures and builds the
library and the benchmark under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs only check that the build is current.
Build output goes to stderr, so the last stdout line is the result JSON
object: {"correct", "attempted", "failed", "metrics"}. Exits non-zero, with
no result line, when the build or the run fails.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no library sources next to the benchmark")
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", "4"],
                   check=True, stdout=sys.stderr)


def main(argv):
    out = build_dir()
    try:
        build(out)
    except subprocess.CalledProcessError as err:
        sys.exit(f"perfbench: build failed ({err})")
    try:
        proc = subprocess.run([str(out / "perfbench")] + argv, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(ROOT / ".bench_run", ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        sys.exit(f"perfbench: exit code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.exit("perfbench: the last output line is not a result")
    if set(result) != RESULT_KEYS:
        sys.exit("perfbench: malformed result line")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
