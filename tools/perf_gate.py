#!/usr/bin/env python3
"""Same-run parent/change host-speed gate over the repository benchmark.

    python3 tools/perf_gate.py BASE_REV

Run from the root of the change's checkout. Checks BASE_REV out into a
temporary git worktree, then runs `python3 perfbench/run.py --trace 0`
from both trees in PAIRS pairs on every workload of BENCHMARK.json,
alternating which side runs first. Each pair gives one change/parent
ratio of sim_minstr_per_cpu_s. A workload fails when the geometric mean
of its ratios, with the TRIM lowest and TRIM highest dropped, is below
BOUND. Any run that is not correct, or that lost ops, fails too. Exit 0
on pass, 1 on a failed check, 2 on a bad argument or when the base
cannot be checked out.

The two runs of a pair follow each other on one host, so host drift
moves both; nothing is compared with numbers recorded elsewhere. That
is why BOUND can be much tighter than the 25% bound BENCHMARK.json
sets for the same metric, which compares runs made at different times.
"""

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
METRIC = "sim_minstr_per_cpu_s"
SEED = 1
# The rate of one run spreads about 10% on a shared 4-core host, and
# that spread hardly shrinks with longer runs, so the gate takes many
# short pairs. run.py --seconds per workload, 1 when not listed; one
# gups-sharded or mp-sweep op already takes a second or more.
SECONDS = {"canneal-amnt": 2, "kvstore-amnt": 2}
PAIRS = 24
# Trimming two pairs from each end absorbs an outlier pair or two.
TRIM = 2
# Between 1.0 (A/A) and the ~0.87 rate ratio of a 15% rise in op CPU
# time.
BOUND = 0.92


def workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def verdict(results):
    """(passed, message) lines for {workload: [(parent, change), ...]}.

    Each side is run.py's result object, or None when run.py gave none.
    One summary line per workload plus one line per bad run; the
    change passes when every line passed.
    """
    lines = []
    for workload, pairs in results.items():
        logs = []
        for i, pair in enumerate(pairs, 1):
            bad = [f"{workload}: pair {i}: the {side} run " +
                   ("printed no result" if res is None else
                    f"is not correct ({res['failed']} of "
                    f"{res['attempted']} ops failed)")
                   for side, res in zip(("parent", "change"), pair)
                   if res is None or not res["correct"] or res["failed"]]
            lines += [(False, msg) for msg in bad]
            if not bad:
                parent, change = (r["metrics"][METRIC]["value"]
                                  for r in pair)
                logs.append(math.log(change / parent))
        if len(logs) > 2 * TRIM:
            kept = sorted(logs)[TRIM:len(logs) - TRIM]
            ratio = math.exp(statistics.mean(kept))
            losses = sum(x < 0 for x in logs)
            lines.append((ratio >= BOUND,
                          f"{workload}: change/parent {METRIC} "
                          f"{ratio:.3f} (trimmed geometric mean), change "
                          f"slower in {losses}/{len(logs)} pairs"))
    return lines


def run_side(tree, workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS.get(workload, 1)), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def measure(base_tree):
    results = {w: [] for w in workloads()}
    for i in range(PAIRS):
        for workload in results:
            if i % 2 == 0:
                parent = run_side(base_tree, workload)
                change = run_side(ROOT, workload)
            else:
                change = run_side(ROOT, workload)
                parent = run_side(base_tree, workload)
            results[workload].append((parent, change))
            rates = [r["metrics"][METRIC]["value"] if r else 0.0
                     for r in (parent, change)]
            print(f"pair {i + 1:2d} {workload:13s} parent {rates[0]:7.3f}"
                  f"  change {rates[1]:7.3f}", flush=True)
    return results


def main():
    if len(sys.argv) != 2:
        print("usage: " + __doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    try:
        base = subprocess.run(
            ["git", "rev-parse", "--verify", sys.argv[1] + "^{commit}"],
            cwd=ROOT, check=True, stdout=subprocess.PIPE,
            text=True).stdout.strip()
    except subprocess.CalledProcessError:
        print(f"perf_gate: {sys.argv[1]} is not a commit", file=sys.stderr)
        return 2
    scratch = tempfile.mkdtemp(prefix="perf_gate.")
    base_tree = os.path.join(scratch, "base")
    try:
        if subprocess.run(["git", "worktree", "add", "--detach", base_tree,
                           base], cwd=ROOT).returncode != 0:
            return 2
        lines = verdict(measure(base_tree))
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base_tree],
                       cwd=ROOT)
        shutil.rmtree(scratch, ignore_errors=True)
    for passed, msg in lines:
        print(f"{'ok  ' if passed else 'FAIL'} {msg}")
    failed = not all(passed for passed, _ in lines)
    print(f"perf_gate: {'FAIL' if failed else 'pass'} against {base}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
