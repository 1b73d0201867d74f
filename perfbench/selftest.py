#!/usr/bin/env python3
"""Self-test of the benchmark at its tiny size.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json twice untraced and once traced with
--size tiny, and asserts that
  * every end-to-end (untraced) and per-layer (traced) metric is printed,
    with the unit BENCHMARK.json names, and nothing else;
  * ok_pct is 100 and the run reports no failed op;
  * the exact metrics are identical across the two untraced runs.
Exits non-zero on the first violation.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT = ("tahc_pair_acc", "search_test_mae", "stream_mae_ratio")
SEED = 7


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "2", "--trace",
         str(trace), "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def check_metrics(workload, result, specs):
    want = {m["name"]: m["unit"] for m in specs}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise AssertionError(f"{workload}: missing {missing}, extra {extra}, "
                             f"wrong units {wrong}")
    if not result["correct"] or result["failed"] != 0:
        raise AssertionError(f"{workload}: {result['failed']} failed ops")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        first = run(workload, 0)
        second = run(workload, 0)
        traced = run(workload, 1)
        for result in (first, second):
            check_metrics(workload, result, bench["end_to_end"])
            ok = result["metrics"]["ok_pct"]["value"]
            if ok != 100:
                raise AssertionError(f"{workload}: ok_pct {ok}")
        check_metrics(workload, traced, bench["per_layer"])
        for name in EXACT:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                raise AssertionError(f"{workload}: {name} {a} != {b}")
        print(f"{workload}: ok", flush=True)


if __name__ == "__main__":
    main()
