"""Smoke check of the benchmark: every workload at toy size, untraced and
traced, must pass its checks and emit exactly the metrics BENCHMARK.json
names, each with its unit; a job fed a wrong oracle must be reported as
failed. Takes about a minute.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys

import run
import workloads as wl

TOY = {
    "sweep-wide": {
        "equiv": [("mult", 4), ("multiple", 5), ("wp-f2", 3)],
        "cli": [("anbncn", 4)],
        "decide": 40,
    },
    "sweep-deep": {"equiv": [("upow", 8), ("oddpow", 8), ("composite", 10)], "cli": [], "decide": 30},
    "dedup-crosscheck": {"max_len": 2, "decide": 30},
    "cayley": {
        # the smallest sizes at which the Heisenberg exponent and the probe
        # crossing checks hold
        "growth": [("f2", 3), ("heis", 10), ("sanov", 2), ("z3", 3)],
        "probe": 12,
        "lemma": 4,
        "decide": 30,
        "decide_len": 3,
    },
    "pool": ("mult", 4),
}


def expect(cond, what):
    if not cond:
        sys.exit(f"smoke: FAIL: {what}")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expect([w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS), "workloads match BENCHMARK.json")
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            result, info = run.measure(workload, 7, 0.1, trace, sizes=TOY)
            where = f"{workload} --trace {trace}"
            expect(result["correct"] and result["failed"] == 0, f"{where}: checks failed: {info['errors']}")
            expect(result["attempted"] >= 1, f"{where}: nothing attempted")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted[trace], f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted[trace]))}")
            for name, m in result["metrics"].items():
                expect(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), f"{where}: {name} = {m['value']!r}")
            print(f"smoke: ok {where}: attempted={result['attempted']}")

    # a wrong output must count as a failure, not as a fast run
    real_setup = wl.setup

    def wrong_setup():
        st = real_setup()
        st.oracles["mult"] = dataclasses.replace(st.oracles["mult"], member=lambda word: True)
        return st

    wl.setup = wrong_setup
    try:
        result, _ = run.measure("sweep-wide", 7, 0.1, 0, sizes=TOY)
    finally:
        wl.setup = real_setup
    expect(not result["correct"] and result["failed"] > 0, "a wrong oracle was not reported as failed")
    print("smoke: ok wrong outputs are reported as failed")


if __name__ == "__main__":
    main()
