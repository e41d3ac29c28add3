#!/usr/bin/env python3
"""Short-budget smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json for one op, untraced and traced,
and checks that each run is correct, that it reports exactly the metric
names and units BENCHMARK.json declares, and that the traced
composition reproduced System's simulated results (trace.fidelity) with
less than 10% of the ROI host time unattributed. Exits non-zero on the
first failure. Takes about a minute once the benchmark is built.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# mp-sweep's traced composition covers a few short two-core jobs whose
# ROI is dominated by the untimed issue loop; the unattributed-share
# bound applies to the single-system workloads.
LEDGER_WORKLOADS = {"canneal-amnt", "kvstore-amnt", "gups-sharded"}


def run(workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            res = run(workload, trace)
            label = f"{workload} --trace {trace}"
            assert set(res) == {"correct", "attempted", "failed",
                                "metrics"}, (label, sorted(res))
            assert res["correct"] and res["failed"] == 0, (label, res)
            assert res["attempted"] >= 1, (label, res)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == declared[trace], (label, got)
            for name, m in res["metrics"].items():
                assert isinstance(m["value"], (int, float)), (label, name)
            if trace == 0:
                for name, m in res["metrics"].items():
                    assert m["value"] > 0, (label, name, m)
            else:
                metrics = res["metrics"]
                assert metrics["trace.fidelity"]["value"] == 1, label
                if workload in LEDGER_WORKLOADS:
                    share = metrics["trace.unattributed_share"]["value"]
                    assert 0 <= share < 0.10, (label, share)
            print(f"ok  {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
