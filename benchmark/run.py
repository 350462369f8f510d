#!/usr/bin/env python3
"""Heron perf ledger: builds the `ledger` binary, runs it in fresh, pinned
child processes, checks outputs and prints every metric by name and unit.

  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
      one workload, the contract in BENCHMARK.json: the last stdout line is
      {"correct":…, "attempted":…, "failed":…, "metrics":{…}}
  python3 benchmark/run.py --all [--seed N] [--repeats R] [--out FILE]
      every workload, both trace modes and the isolated drivers; prints the
      full table and writes a result set that check_repeat.py compares
  python3 benchmark/run.py --selftest
  python3 benchmark/run.py --scan-streams [--workload W]
      finds the request streams EXCLUDED must list (see below)

Metric names, units and directions are read from BENCHMARK.json. Two clocks,
named by every unit: `virt_*` units are simulated time and repeat exactly for
a seed; plain `s`/`us`/`ns`/`MiB` are the host's; the rest are counts.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    CONTRACT = json.load(f)
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
CHILD_TIMEOUT_S = 100

# Request streams. The ledger binary's `--seed` names one request stream;
# run.py's `--seed` picks a workload's streams from the fixed pool
# 0..POOL-1. On about 1 % of TPC-C streams the seed program stops answering
# (README, "Request streams"), and the benchmark must run inputs on which no
# operation fails, so the streams that fail at the seed commit are listed
# here once (`--scan-streams` finds them) and never picked. Nothing is
# retried at run time: an unanswered request on any other stream is a failure.
POOL = 96
EXCLUDED = {"tpcc_mix": [14], "failover": [60]}
# Streams pooled into one run's virtual end-to-end metrics: what fits the
# time budget (null_coord costs ≈ 9 s a stream), and enough on failover that
# a run almost always meets both of the program's recovery modes.
STREAMS = {"null_coord": 2, "failover": 4}

# What one run of one stream must reproduce bit for bit.
FINGERPRINT = ["schedule_hash", "events", "virtual_ns", "attempted", "failed",
               "tps", "latency_p50_us", "latency_p99_us"]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clock(unit):
    """Which clock a unit belongs to: virtual and count metrics must repeat
    exactly for a seed; host metrics are medians over fresh processes."""
    if unit.startswith("virt_") or unit.endswith("/virt_s"):
        return "virtual"
    return "host" if unit in {"s", "ms", "us", "ns", "MiB", "%", "switches/event"} else "count"


def streams(workload, seed):
    allowed = [s for s in range(POOL) if s not in EXCLUDED.get(workload, ())]
    n = STREAMS.get(workload, 3)
    return [allowed[(seed * n + k) % len(allowed)] for k in range(n)]


def build():
    """Builds the benchmark package (and, through path dependencies, the
    program) from source; returns the binary's path."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    started = time.monotonic()
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        raise BenchError("cargo build failed")
    log(f"[build] {time.monotonic() - started:.1f} s")
    return os.path.join(target, "release", "ledger")


def pin_to_one_core():
    # The kernel runs one simulated process at a time; a second core only
    # adds cross-core wake-ups (and a 3x run-to-run spread on this box).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def child(binary, args):
    """One fresh pinned process, run from the repository root (it writes
    traces to benchmark/out/); returns its JSON object plus wall time, and
    peak RSS and voluntary context switches from its rusage."""
    started = time.monotonic()
    proc = subprocess.Popen([binary] + [str(a) for a in args], stdout=subprocess.PIPE,
                            cwd=ROOT, preexec_fn=pin_to_one_core)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"ledger {' '.join(map(str, args))}: exit {proc.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    result["_wall_s"] = time.monotonic() - started
    result["_rss_mib"] = usage.ru_maxrss / 1024.0
    result["_nvcsw"] = usage.ru_nvcsw
    return result


def percentile(ascending, q):
    """Nearest rank, as the ledger binary computes it."""
    return ascending[min(len(ascending), max(1, math.ceil(q * len(ascending)))) - 1]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def rows(measured, catalogue):
    """Result-set rows: median and quartiles of each metric's values."""
    out = {}
    for spec in catalogue:
        q1, q2, q3 = quartiles(measured[spec["name"]])
        out[spec["name"]] = {"value": q2, "q1": q1, "q3": q3, "n": len(measured[spec["name"]]),
                             "unit": spec["unit"], "clock": clock(spec["unit"])}
    return out


def run_main(binary, workload, stream_ids, variants, floor, seconds, cap, problems):
    """Runs the workload's main phase in fresh processes: one child per
    variant (extra arguments: [] = untraced) for each stream in turn, round
    and round, until `floor` children have run and `seconds` of wall time
    are spent (at most `cap` children). A stream that comes round again,
    traced or not, must reproduce its first run."""
    runs, spent = [], 0.0
    while len(runs) < floor or (spent < seconds and len(runs) < cap):
        stream = stream_ids[len(runs) // len(variants) % len(stream_ids)]
        for extra in variants:
            r = child(binary, ["main", "--workload", workload, "--seed", stream] + extra)
            spent += r["_wall_s"]
            r["_stream"], r["_traced"] = stream, bool(extra)
            first = next((x for x in runs if x["_stream"] == stream), r)
            for k in FINGERPRINT:
                if r[k] != first[k]:
                    problems.append(f"stream {stream}: {k} did not repeat: {first[k]} vs {r[k]}")
            if first is r:
                problems.extend(f"stream {stream}: {p}" for p in r["problems"])
                if r.get("open.generator_lateness_us", 0) != 0:
                    problems.append(f"stream {stream}: the open-loop generator ran late")
            runs.append(r)
    log(f"[{workload}] streams {stream_ids}: {len(runs)} main-phase runs, {spent:.1f} s")
    return runs


def measure_end_to_end(binary, workload, seed, seconds=0, repeats=0):
    """Tracing off. The virtual metrics pool the seed's request streams
    (percentiles over all their measured requests together: steadier across
    seeds than one stream, and still exact for a seed); the host metrics are
    medians over every run."""
    problems = []
    ids = streams(workload, seed)
    runs = run_main(binary, workload, ids, [[]], max(repeats, len(ids)), seconds, 3 * len(ids), problems)
    firsts = runs[:len(ids)]
    pooled = sorted(ns for r in firsts for ns in r["latencies_ns"])
    m = {
        "tps": [sum(r["steady_completions"] for r in firsts) * 1e9 / sum(r["steady_ns"] for r in firsts)],
        "latency_p50_us": [percentile(pooled, 0.50) / 1e3],
        "latency_p99_us": [percentile(pooled, 0.99) / 1e3],
        "replicas_in_sync_share": [sum(r["replicas_in_sync"] for r in firsts)
                                   / sum(r["replicas_live"] for r in firsts)],
        "host_us_per_req": [r["host_us_per_req"] for r in runs],
        "host_peak_rss_mb": [r["_rss_mib"] for r in runs],
        "setup_s": [r["setup_s"] for r in runs],
    }
    return m, sum(r["attempted"] for r in firsts), sum(r["failed"] for r in firsts), problems


def measure_isolated(binary, seed, runs):
    """The isolated drivers (kernel, verbs, multicast, store, TPC-C without
    the simulator). They do not depend on the workload."""
    results = [child(binary, ["iso", "--seed", seed, "--trace", 1]) for _ in range(runs)]
    return {spec["name"]: [r[spec["name"]] for r in results]
            for spec in CONTRACT["per_layer"] if spec["name"] in results[0]}


def measure_layers(binary, workload, seed, seconds=0, pairs=2):
    """Per-layer numbers of the seed's first request stream: untraced and
    traced runs alternate and must produce the same schedule
    (trace.overhead_pct is the median over adjacent pairs, so machine drift
    hits both sides alike); then the fault-free open-loop rate ladder."""
    problems = []
    stream = streams(workload, seed)[0]
    runs = run_main(binary, workload, [stream], [[], ["--trace", 1]], 2 * pairs, seconds, 8, problems)
    plain = [r for r in runs if not r["_traced"]]
    traced = [r for r in runs if r["_traced"]]
    t = traced[0]  # carries every always-on counter too
    attempted, failed = t["attempted"], t["failed"]
    m = {spec["name"]: [t[spec["name"]]] for spec in CONTRACT["per_layer"] if spec["name"] in t}
    m["sim.host_ns_per_event"] = [r["sim.host_ns_per_event"] for r in plain]
    m["sim.ctx_switches_per_event"] = [r["_nvcsw"] / r["events"] for r in plain]
    m["trace.overhead_pct"] = [(on["host_us_per_req"] / off["host_us_per_req"] - 1.0) * 100.0
                               for off, on in zip(plain, traced)]
    if t.get("absent"):
        log(f"[{workload}] names the program did not emit (reported as 0): {t['absent']}")

    ladder = child(binary, ["open", "--workload", workload, "--seed", stream])
    log(f"[{workload}] ladder: {ladder['ladder']}")
    m["max_rate_tps"] = [ladder["max_rate_tps"]]
    for tag in ["lo", "hi"]:
        rung = f"r{ladder[tag + '_rate']}."
        m[f"open_p99_us_{tag}"] = [ladder[rung + "latency_p99_us"]]
        attempted += ladder[rung + "attempted"]
        failed += ladder[rung + "failed"]
        problems.extend(f"{tag} rate: {p}" for p in ladder[rung + "problems"])
        if ladder[rung + "open.generator_lateness_us"] != 0:
            problems.append(f"{tag} rate: the open-loop generator ran late")
    m["failed_share"] = [failed / attempted]
    return m, attempted, failed, problems


def contract_run(binary, args):
    if args.trace:
        catalogue = CONTRACT["per_layer"]
        m, attempted, failed, problems = measure_layers(binary, args.workload, args.seed, seconds=args.seconds)
        m.update(measure_isolated(binary, args.seed, 1))
        # A metric that does not exist on this workload (no crash, no
        # pool, …) reads 0.
        for spec in catalogue:
            m.setdefault(spec["name"], [0.0])
    else:
        catalogue = CONTRACT["end_to_end"]
        m, attempted, failed, problems = measure_end_to_end(binary, args.workload, args.seed, seconds=args.seconds)
    for p in problems:
        log(f"PROBLEM: {p}")
    metrics = {}
    for spec in catalogue:
        value = quartiles(m[spec["name"]])[1]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']:34} {value:>16.6g} {spec['unit']:14} ({clock(spec['unit'])})")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


def print_section(title, section):
    print(f"\n== {title}")
    for p in section.get("problems", []):
        print(f"   PROBLEM: {p}")
    for name, row in section["metrics"].items():
        spread = f"[{row['q1']:.6g} .. {row['q3']:.6g}] n={row['n']}" if row["n"] > 1 else ""
        print(f"   {name:34} {row['value']:>14.6g} {row['unit']:14} {row['clock']:8} {spread}")


def ledger_run(binary, args):
    started = time.monotonic()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    result = {
        "meta": {"machine": platform.platform(), "processor": platform.machine(), "nproc": os.cpu_count(),
                 "commit": commit or "unknown", "seed": args.seed, "repeats": args.repeats,
                 "date": time.strftime("%Y-%m-%d %H:%M:%S")},
        "workloads": {},
    }
    catalogue = CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    bad = 0
    for w in WORKLOADS:
        t0 = time.monotonic()
        m, attempted, failed, problems = measure_end_to_end(binary, w, args.seed, repeats=args.repeats)
        layers, more_attempted, more_failed, more = measure_layers(binary, w, args.seed)
        m.update(layers)
        attempted, failed, problems = attempted + more_attempted, failed + more_failed, problems + more
        section = {"metrics": rows(m, [spec for spec in catalogue if spec["name"] in m]),
                   "attempted": attempted, "failed": failed, "problems": problems,
                   "wall_s": time.monotonic() - t0}
        result["workloads"][w] = section
        bad += len(problems)
        print_section(f"{w}: {attempted} attempted, {failed} failed, {len(problems)} problems, "
                      f"{section['wall_s']:.1f} s wall", section)
    t0 = time.monotonic()
    m = measure_isolated(binary, args.seed, 3)
    result["isolated"] = {"metrics": rows(m, [spec for spec in catalogue if spec["name"] in m]),
                          "wall_s": time.monotonic() - t0}
    print_section(f"isolated drivers: {result['isolated']['wall_s']:.1f} s wall", result["isolated"])
    print(f"\ntotal {time.monotonic() - started:.1f} s wall")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if bad == 0 else 1


def scan_streams(binary, workloads):
    """Prints, per workload, the streams of the pool on which this commit's
    program leaves a request unanswered or fails an output check in the main
    phase or at the low or high open-loop rate: the value for EXCLUDED."""
    for w in workloads:
        bad = []
        for s in range(POOL):
            try:
                r = child(binary, ["main", "--workload", w, "--seed", s])
                o = child(binary, ["open", "--workload", w, "--seed", s])
                found = r["problems"] + [p for tag in ["lo", "hi"] for p in o[f"r{o[tag + '_rate']}.problems"]]
            except BenchError as e:
                found = [str(e)]
            if found:
                log(f"[{w}] stream {s}: {found}")
                bad.append(s)
        print(f'"{w}": {bad},', flush=True)
    return 0


def selftest(binary):
    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            raise BenchError(f"selftest: {what}")

    # 1. order statistics, both languages
    check(child(binary, ["selftest"])["percentiles_ok"], "percentiles match known distributions")
    uniform = list(range(1, 1001))
    check([percentile(uniform, q) for q in [0.0, 0.5, 0.99, 1.0]] == [1, 500, 990, 1000]
          and percentile([10] * 98 + [5000, 9000], 0.99) == 5000, "nearest-rank percentiles in run.py")
    check(quartiles(list(range(1, 12))) == (3.0, 6.0, 9.0), "quartiles of 1..11 are 3, 6, 9")
    check(quartiles([5.0]) == (5.0, 5.0, 5.0), "quartiles of one value")
    check(all(len(set(streams(w, seed))) == STREAMS.get(w, 3) and not set(streams(w, seed)) & set(EXCLUDED.get(w, ()))
              for w in WORKLOADS for seed in range(200)), "every seed gets distinct, allowed streams")

    # 2. open loop: the generator is never late, and a rung one session
    #    cannot serve is reported as a growing backlog, not as a pass
    short = ["--workload", "null_order", "--seed", 7, "--short", 1]
    o = child(binary, ["open"] + short)
    lo, hi = f"r{o['lo_rate']}.", f"r{o['hi_rate']}."
    check(o[lo + "open.generator_lateness_us"] == 0 and o[hi + "open.generator_lateness_us"] == 0,
          "open-loop generator lateness is 0 in virtual time")
    check(not o[lo + "open.backlog_growing"], "the low rate keeps up with 32 sessions")
    starved = child(binary, ["open"] + short + ["--sessions", 1])
    check(starved["max_rate_tps"] == 0 and starved["ladder"][0].endswith("backlog growing"),
          f"1 session is reported as backlog growing ({starved['ladder'][0]})")

    # 3. a closed loop cut off at its virtual deadline reports its pending
    #    requests as failed instead of hanging
    cut = child(binary, ["main"] + short + ["--deadline-us", 1000])
    check(cut["failed"] == 16 and cut["virtual_ns"] == 1_000_000 and cut["problems"],
          f"a run past its deadline reports pending requests as failed ({cut['failed']} of {cut['attempted']})")

    # 4. sensitivity: double the fabric delays. The verb round trip and
    #    null_order's latency at the low open-loop rate must move (at
    #    closed-loop saturation it would not: that latency is queueing on
    #    the ordering leader's CPU); TPC-C execution must not.
    slow = child(binary, ["open"] + short + ["--rtt-mult", 2])
    base_iso = child(binary, ["iso", "--seed", 7])
    slow_iso = child(binary, ["iso", "--seed", 7, "--rtt-mult", 2])
    rtt = slow_iso["rdma.write_rtt_ns"] / base_iso["rdma.write_rtt_ns"]
    p50 = slow[lo + "latency_p50_us"] / o[lo + "latency_p50_us"]
    check(rtt > 1.8, f"rdma.write_rtt_ns moves with the latency model (x{rtt:.2f})")
    check(p50 > 1.1, f"null_order latency_p50_us at the low rate moves with it (x{p50:.2f})")
    same = all(slow_iso[k] == base_iso[k] for k in ["tpcc.compute_us_mean", "tpcc.reads_per_txn",
                                                    "tpcc.writes_per_txn", "tpcc.multi_partition_share"])
    host = slow_iso["tpcc.execute_host_ns"] / base_iso["tpcc.execute_host_ns"]
    check(same and 0.5 < host < 2.0, f"tpcc counts identical, tpcc.execute_host_ns unmoved (x{host:.2f})")
    print("selftest passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--out")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--scan-streams", action="store_true")
    args = ap.parse_args()
    try:
        binary = build()
        if args.selftest:
            return selftest(binary)
        if args.scan_streams:
            return scan_streams(binary, [args.workload] if args.workload else WORKLOADS)
        if args.all:
            return ledger_run(binary, args)
        if not args.workload:
            ap.error("give --workload, --all, --selftest or --scan-streams")
        return contract_run(binary, args)
    except BenchError as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
