#!/usr/bin/env python3
"""Repository benchmark: host speed of the secure-memory simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the simulator library
from src/ plus perfbench/driver.cc) into .bench_build/, generates the
workload's inputs from --seed outside every metric, launches the driver
once per op for about --seconds seconds, checks its outputs, and prints
one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured
untraced; --trace 1 reports the per-layer metrics from a separate traced
run. perfbench/README.md describes the workloads and every metric.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("canneal-amnt", "kvstore-amnt", "gups-sharded", "mp-sweep")
BUILD_TIMEOUT_S = 840
RUN_LIMIT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configure and build the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no simulator sources at src/; nothing to build")
        return None
    out = build_dir()
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", out, "-j", jobs]]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out, *gen,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S, env=env)
            if proc.returncode != 0:
                log(proc.stdout[-4000:])
                log("perfbench: build failed: " + " ".join(cmd))
                return None
    except (OSError, subprocess.TimeoutExpired) as exc:
        log(f"perfbench: build failed: {exc}")
        return None
    return os.path.join(out, "perfbench_driver")


def driver_env():
    # AMNT_* knobs (shards, threads, tracing, recording) change what the
    # simulator does; the benchmark runs it at its defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("AMNT_")}


def run_driver(args, timeout):
    """Run the driver; returns (exit code, parsed JSON lines)."""
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout, env=driver_env())
    except subprocess.TimeoutExpired as exc:
        log(f"perfbench: driver timed out: {exc}")
        return -1, []
    if proc.stderr:
        log(proc.stderr[-4000:])
    lines = []
    for line in proc.stdout.splitlines():
        line = line.strip()
        if line.startswith("{"):
            lines.append(json.loads(line))
    return proc.returncode, lines


def gups_trace(driver, seed):
    """The seed's GUPS trace, recorded once per build directory."""
    inputs = os.path.join(build_dir(), "inputs")
    os.makedirs(inputs, exist_ok=True)
    path = os.path.join(inputs, f"gups-{seed}.trc")
    if not os.path.isfile(path):
        tmp = f"{path}.{os.getpid()}.tmp"
        code, _ = run_driver([driver, "record", "--seed", str(seed),
                              "--out", tmp], RUN_LIMIT_S)
        if code != 0 or not os.path.isfile(tmp):
            raise RuntimeError("recording the GUPS trace failed")
        os.replace(tmp, path)
    return path


def measure(driver, args):
    """Launch one driver process per op for about args.seconds.

    A fresh process per op gives each op its own peak RSS and the same
    cold start a single simulation pays. Returns (exit code, lines) per
    process.
    """
    cmd = [driver, "trace" if args.trace else "run",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.workload == "gups-sharded":
        cmd += ["--trace-file", gups_trace(driver, args.seed)]
        # One CPU for the driver's main thread and its two drain lanes.
        # Left to the scheduler, the CPU cost of their handoffs depended
        # on where it placed them: per-op spread of the ROI rate 6.6%
        # unpinned, 2.5% pinned, at the same median.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    start = time.monotonic()

    def launch(argv):
        left = RUN_LIMIT_S - (time.monotonic() - start)
        return run_driver(argv, max(left, 1))

    procs = []
    if args.workload == "mp-sweep" and not args.trace:
        procs.append(launch([driver, "setup", *cmd[2:]]))
    ops, last = 0, 0.0
    while ops == 0 or time.monotonic() - start + last <= args.seconds:
        t = time.monotonic()
        # Traced processes alternate which op pays the cold start.
        order = ["--traced-first", str(ops % 2)] if args.trace else []
        procs.append(launch(cmd + order))
        last = time.monotonic() - t
        ops += 1
    return procs


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def median(values):
    return statistics.median(values) if values else 0.0


# ------------------------------------------------------------ end to end

def end_to_end(workload, procs, expected):
    """Metrics and op accounting of an untraced run."""
    ops, rss, setups = [], [], []
    attempted = failed = 0
    for code, lines in procs:
        op = next((d for d in lines if "digest" in d), None)
        if code != 0:  # aborted
            attempted += 1
            failed += 1
            continue
        setups += [d["job_setup_s"] for d in lines if "job_setup_s" in d]
        if op is not None:
            ops.append(op)
            rss += [d["peak_rss_mb"] for d in lines if "peak_rss_mb" in d]
    # The first op's digest stands in for a missing reference: every op
    # of one seed simulates the same thing.
    want = expected or (ops[0]["digest"] if ops else None)
    for d in ops:
        jobs = d.get("jobs", 1)
        attempted += jobs
        if (d["digest"] != want or d["violations"] != 0
                or not d["recovered"]):
            failed += jobs
    # CPU seconds, not wall: see cpuSeconds() in driver.cc.
    if workload == "mp-sweep":
        rate = [d["instructions"] / d["cpu_s"] / 1e6 for d in ops]
    else:
        setups = [d["setup_cpu_s"] for d in ops]
        rate = [d["instructions"] / d["roi_cpu_s"] / 1e6 for d in ops]
    metrics = {
        "sim_minstr_per_cpu_s": (median(rate), "Minstr/s"),
        "op_cpu_s": (median([d["cpu_s"] for d in ops]), "s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median(rss), "MB"),
    }
    digests = sorted({d["digest"] for d in ops})
    return metrics, max(attempted, 1), failed, digests


# ------------------------------------------------------------- per layer

def dump_sum(dump, pattern):
    rx = re.compile(pattern)
    return sum(value for key, value in dump.items() if rx.search(key))


def delta(traced, pattern):
    return (dump_sum(traced["post_dump"], pattern)
            - dump_sum(traced["pre_dump"], pattern))


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(procs, expected):
    aborted = sum(1 for code, _ in procs if code != 0)
    lines = [d for code, ls in procs if code == 0 for d in ls]
    traced = [d for d in lines if "traced" in d]
    ops = [d for d in lines if "digest" in d]
    sweeps = [d for d in lines if "sweep_digest" in d]
    crypto = {k: [d[k] for d in lines if k in d]
              for k in ("mac_ns_per_block_w1", "mac_ns_per_block_w8",
                        "pad_ns_per_block_w8")}

    want = expected or (ops[0]["digest"] if ops else
                        sweeps[0]["sweep_digest"] if sweeps else None)
    failed = attempted = aborted
    attempted += len(traced) + len(ops) + sum(d["jobs"] for d in sweeps)
    for d in ops:
        if d["digest"] != want or d["violations"] or not d["recovered"]:
            failed += 1
    for d in sweeps:
        if d["sweep_digest"] != want or d["violations"]:
            failed += d["jobs"]
    fidelity = bool(traced) and all(d["fidelity"] for d in traced)
    for d in traced:
        if not d["fidelity"] or d["violations"] or not d["recovered"]:
            failed += 1

    # Simulated counts repeat exactly across ops of one label, so they
    # come from each label's first op; host times sum over every op.
    first = list({d["traced"]: d for d in reversed(traced)}.values())

    def total(key):
        return sum(d[key] for d in traced)

    def dsum(pattern):
        return sum(delta(d, pattern) for d in first)

    def weighted(key, count_key):
        return ratio(sum(d[key] * d[count_key] for d in traced),
                     total(count_key))

    roi_ns = total("roi_s") * 1e9
    cache_self = total("access_ns") - total("mem_in_access_ns")
    attributed = (total("next_ns") + total("translate_ns")
                  + total("access_ns") + total("flush_write_ns")
                  + total("shard_sync_ns"))
    data_reads = dsum(r"^mee\..*\.data_reads$")
    data_writes = dsum(r"^mee\..*\.data_writes$")
    recovery = " ".join(d["recovery"] for d in first)
    blocks_read = sum(int(x) for x in re.findall(r"\bread=(\d+)", recovery))

    def miss_rate(level):
        misses = dsum(rf"^cache\.{level}(\.\d+)?\.misses$")
        hits = dsum(rf"^cache\.{level}(\.\d+)?\.hits$")
        return ratio(misses, hits + misses)

    m = {
        "sim.next_ns": (ratio(total("next_ns"), total("next_calls")), "ns"),
        "sim.loop_share": (ratio(total("next_ns"), roi_ns), "ratio"),
        "os.translate_ns": (ratio(total("translate_ns"),
                                  total("translate_calls")), "ns"),
        "os.translate_share": (ratio(total("translate_ns"), roi_ns),
                               "ratio"),
        "os.page_faults": (sum(d["page_faults"] for d in first), "count"),
        "os.age_s": (ratio(total("age_s"), len(traced)), "s"),
        "cache.access_self_ns": (ratio(cache_self, total("access_calls")),
                                 "ns"),
        "cache.share": (ratio(cache_self, roi_ns), "ratio"),
        "cache.l1_miss_rate": (miss_rate("l1d"), "ratio"),
        "cache.l2_miss_rate": (miss_rate("l2"), "ratio"),
        "cache.llc_miss_rate": (miss_rate("l3"), "ratio"),
        "mee.data_reads": (data_reads, "count"),
        "mee.data_writes": (data_writes, "count"),
        "mee.read_ns_p50": (weighted("mee_read_p50", "mee_reads"), "ns"),
        "mee.read_ns_p99": (weighted("mee_read_p99", "mee_reads"), "ns"),
        "mee.read_share": (ratio(total("mee_read_ns"), roi_ns), "ratio"),
        "mee.mcache_hit_rate": (ratio(
            dsum(r"^mee\.(shard\d+\.)?mcache\.hits$"),
            dsum(r"^mee\.(shard\d+\.)?mcache\.(hits|misses)$")), "ratio"),
        "mee.meta_fetches_per_read": (ratio(
            dsum(r"^mee\..*\.meta_fetches$"), data_reads), "ratio"),
        "mee.write_ns_p50": (weighted("mee_write_p50", "mee_writes"), "ns"),
        "mee.write_ns_p99": (weighted("mee_write_p99", "mee_writes"), "ns"),
        "mee.write_share": (ratio(total("mee_write_ns")
                                  + total("flush_write_ns"), roi_ns),
                            "ratio"),
        "mee.flush_write_share": (ratio(total("flush_write_ns"), roi_ns),
                                  "ratio"),
        "mee.persist_writes_per_write": (ratio(
            dsum(r"^mee\..*\.persist_writes$"), data_writes), "ratio"),
        "mee.persist_chain_depth_p99": (max(
            (v["p99"] for d in first for k, v in d["post_dump"].items()
             if k.endswith("persist_chain_depth")), default=0.0), "count"),
        "core.subtree_hit_rate": (ratio(
            dsum(r"\.subtree_hits$"),
            dsum(r"\.subtree_(hits|misses)$")), "ratio"),
        "core.subtree_movements": (dsum(r"\.subtree_movements$"), "count"),
        "mee.recover_s": (ratio(total("recover_s"), len(traced)), "s"),
        "mee.recover_blocks_read": (blocks_read, "count"),
        "crypto.mac_ns_per_block_w1": (median(crypto["mac_ns_per_block_w1"]),
                                       "ns"),
        "crypto.mac_ns_per_block_w8": (median(crypto["mac_ns_per_block_w8"]),
                                       "ns"),
        "crypto.pad_ns_per_block_w8": (median(crypto["pad_ns_per_block_w8"]),
                                       "ns"),
        "mem.nvm_reads_per_access": (ratio(dsum(r"^nvm\.(shard\d+\.)?reads$"),
                                           data_reads + data_writes),
                                     "ratio"),
        "mem.nvm_writes_per_access": (ratio(
            dsum(r"^nvm\.(shard\d+\.)?writes$"), data_reads + data_writes),
            "ratio"),
        "mem.blocks_touched": (sum(
            dump_sum(d["post_dump"], r"^nvm\..*blocks_touched$")
            for d in first), "count"),
        "shard.write_ns": (ratio(total("shard_write_ns"),
                                 total("shard_writes")), "ns"),
        "shard.flush_s": (ratio(total("shard_sync_ns") / 1e9, len(traced)),
                          "s"),
        "shard.share": (ratio(total("shard_read_ns") + total("shard_write_ns")
                              + total("shard_sync_ns"), roi_ns), "ratio"),
        "shard.epochs_committed": (dsum(r"^shard\.epoch\.epochs_committed$"),
                                   "count"),
        "shard.coalesced_frac": (ratio(dsum(r"^shard\.coalesced_ops$"),
                                       dsum(r"^shard\.epoch\.ops_buffered$")),
                                 "ratio"),
        "sweep.parallel_eff": (ratio(
            sum(d["job_wall_sum_s"] for d in sweeps),
            sum(d["workers"] * d["wall_s"] for d in sweeps)), "ratio"),
        "sweep.setup_share": (ratio(
            sum(d["job_setup_sum_s"] for d in sweeps),
            sum(d["job_wall_sum_s"] for d in sweeps)), "ratio"),
        "trace.unattributed_share": (1.0 - ratio(attributed, roi_ns)
                                     if traced else 0.0, "ratio"),
        "trace.overhead": (ratio(total("wall_s"), total("untraced_wall_s"))
                           - 1.0 if traced else 0.0, "ratio"),
        "trace.fidelity": (1 if fidelity else 0, "count"),
    }
    digests = sorted({d["digest"] for d in ops}
                     | {d["sweep_digest"] for d in sweeps})
    return m, max(attempted, 1), failed, digests


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's digest as the seed's reference")
    args = ap.parse_args()

    driver = build()
    if driver is None:
        return 2
    expected = load_reference().get(args.workload, {}).get(str(args.seed))
    procs = measure(driver, args)
    if not any(lines for _, lines in procs):
        log("perfbench: the driver printed nothing")
        return 3
    if args.trace:
        metrics, attempted, failed, digests = per_layer(procs, expected)
    else:
        metrics, attempted, failed, digests = end_to_end(args.workload,
                                                         procs, expected)
    if args.write_reference:
        if len(digests) != 1 or failed:
            log("perfbench: not writing a reference from a failed run")
            return 4
        reference = load_reference()
        reference.setdefault(args.workload, {})[str(args.seed)] = digests[0]
        reference = {w: dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
                     for w, seeds in sorted(reference.items())}
        with open(REFERENCE, "w") as f:
            json.dump(reference, f, indent=2)
            f.write("\n")

    print(json.dumps({"digests": digests, "reference": expected}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
