#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

Runs every workload end to end, untraced and traced, and checks that each
run is correct and prints exactly the metrics BENCHMARK.json names. Then
plants a wrong output and a steady-state allocation in every workload and
checks that the run reports them as failures and that each moves
success_ratio past its BENCHMARK.json bound. Exits 1 on any miss.

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, plant="none"):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--tiny", "--plant", plant]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        return None, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1]), ""


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            failures.append(what)

    # success_ratio reads 1 on a correct run, so the gate flags a run whose
    # success_ratio is more than `bound` below 1.
    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "success_ratio")
    workloads = [w["name"] for w in spec["workloads"]]

    for workload in workloads:
        for trace in (0, 1):
            res, err = run(workload, trace)
            what = f"{workload} trace={trace}"
            if res is None:
                expect(False, f"{what}: run failed: {err}")
                continue
            expect(res["correct"] and res["failed"] == 0
                   and res["attempted"] >= 1, f"{what}: correct, no failures")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == expected[trace], f"{what}: metric names and units")
            if trace == 0:
                expect(all(v["value"] > 0 for v in res["metrics"].values()),
                       f"{what}: no end-to-end metric reads 0")
            else:
                expect(res["metrics"]["runtime.steady_allocs"]["value"] == 0,
                       f"{what}: runtime.steady_allocs == 0")
        for plant in ("wrong-output", "steady-alloc"):
            res, err = run(workload, 0, plant)
            expect(res is not None and not res["correct"]
                   and res["failed"] >= 1
                   and 1 - res["metrics"]["success_ratio"]["value"] > bound,
                   f"{workload}: planted {plant} moves success_ratio past "
                   f"its bound {bound}")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
