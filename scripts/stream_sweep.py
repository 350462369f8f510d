#!/usr/bin/env python3
"""Every request stream of one workload, run once in two checkouts.

    scripts/stream_sweep.py <parent-checkout> <change-checkout> --workload W

Builds each checkout's ledger with its own `benchmark/run.py`, then runs
`ledger main --workload W --seed S` once a side on every stream S of the pool
that the change's `run.py` does not list in `EXCLUDED`, each in a fresh child
pinned the way `run.py` pins its children. It prints:

* per stream, both sides' end-to-end virtual metrics (`tps`,
  `latency_p50_us`, `latency_p99_us`), `failed`, `replicas_in_sync` of
  `replicas_live`, and `heron.transfers_started`;
* per metric, how many streams the change moved higher, lower or left
  equal, and both sides' median over the streams;
* per side, the state transfers started over all streams and the streams
  that started any, so a fault-free workload's transfers are read off the
  sweep;
* per `run.py --seed` group (the streams one contract run pools), the pooled
  value of each virtual end-to-end metric, computed by `run.py`'s own
  `measure_end_to_end` over the runs above.

Virtual metrics repeat exactly per stream, so one run a side is the whole
answer and the host's load does not matter. Pooling and the stream pool are
`run.py`'s rules, imported from the change checkout's copy as
`ledger_pairs.py` imports them. Nothing under either `benchmark/` is edited;
cargo itself may rewrite a stale tracked `benchmark/Cargo.lock` (`git
checkout` it afterwards). Exit 1 when a run fails or reports a problem.
"""
import argparse
import importlib.util
import os
import statistics
import sys

METRICS = ["tps", "latency_p50_us", "latency_p99_us"]
TRANSFERS = "heron.transfers_started"
POOLED = METRICS + ["replicas_in_sync_share"]


def load_run(checkout, name):
    """The checkout's own `benchmark/run.py`, as a module."""
    spec = importlib.util.spec_from_file_location(name, os.path.join(checkout, "benchmark", "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build(run):
    """`run.py`'s build, into its checkout's own `benchmark/target` whatever
    `CARGO_TARGET_DIR` says: one shared target would give both sides one
    binary."""
    saved = os.environ.pop("CARGO_TARGET_DIR", None)
    try:
        return run.build()
    finally:
        if saved is not None:
            os.environ["CARGO_TARGET_DIR"] = saved


def pooled(run, workload, seed, results):
    """`run.py`'s pooled virtual metrics for `seed`, from runs already made."""
    saved = run.child
    run.child = lambda _binary, args: dict(results[int(args[args.index("--seed") + 1])])
    try:
        m, _, failed, _ = run.measure_end_to_end(None, workload, seed)
    finally:
        run.child = saved
    return {name: m[name][0] for name in POOLED}, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    args = ap.parse_args()
    sys.dont_write_bytecode = True  # no __pycache__ under the checkouts' benchmark/
    checkouts = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    runs = {side: load_run(path, f"run_{side}") for side, path in checkouts.items()}
    rule = runs["change"]
    if args.workload not in rule.WORKLOADS:
        ap.error(f"--workload: not in BENCHMARK.json: {args.workload}")
    binaries = {side: build(runs[side]) for side in checkouts}
    allowed = [s for s in range(rule.POOL) if s not in rule.EXCLUDED.get(args.workload, ())]
    results = {"parent": {}, "change": {}}
    bad = 0
    print(f"== {args.workload}: {len(allowed)} streams, excluded {rule.EXCLUDED.get(args.workload, [])}")
    print(f"{'stream':>6}  " + "  ".join(f"{m + ' parent -> change':>34}" for m in METRICS)
          + "  failed  in_sync  transfers", flush=True)
    for stream in allowed:
        r = {}
        for side in ("parent", "change"):
            try:
                r[side] = runs[side].child(binaries[side], ["main", "--workload", args.workload, "--seed", stream])
            except runs[side].BenchError as e:
                sys.exit(f"{side} stream {stream}: {e}")
            results[side][stream] = r[side]
            for problem in r[side]["problems"]:
                print(f"   {side} stream {stream}: PROBLEM {problem}")
                bad += 1
            bad += r[side]["failed"] > 0
        cells = [f"{r['parent'][m]:>15.6g} -> {r['change'][m]:<15.6g}" for m in METRICS]
        sync = "  ".join(f"{r[s]['replicas_in_sync']}/{r[s]['replicas_live']}" for s in ("parent", "change"))
        transfers = "/".join(str(r[s][TRANSFERS]) for s in ("parent", "change"))
        print(f"{stream:>6}  " + "  ".join(cells)
              + f"  {r['parent']['failed']}/{r['change']['failed']}  {sync}  {transfers}", flush=True)

    print("\nper metric over the streams: change higher / lower / equal; median parent -> change")
    for m in METRICS + ["failed", "replicas_in_sync", TRANSFERS]:
        pairs = [(results["parent"][s][m], results["change"][s][m]) for s in allowed]
        higher = sum(c > p for p, c in pairs)
        lower = sum(c < p for p, c in pairs)
        medians = [statistics.median(x[i] for x in pairs) for i in (0, 1)]
        print(f"   {m:22} higher {higher:3}  lower {lower:3}  equal {len(pairs) - higher - lower:3}"
              f"   median {medians[0]:.6g} -> {medians[1]:.6g}")

    print("\nstate transfers started over the streams")
    for side in ("parent", "change"):
        started = {s: results[side][s][TRANSFERS] for s in allowed if results[side][s][TRANSFERS]}
        print(f"   {side:6} {sum(started.values()):4} on {len(started):3} streams {sorted(started.items())}")

    n = rule.STREAMS.get(args.workload, 3)
    seeds = range(-(-len(allowed) // n))
    print(f"\npooled per run.py --seed ({n} streams each): parent -> change")
    for seed in seeds:
        streams = rule.streams(args.workload, seed)
        (p, pf), (c, cf) = (pooled(rule, args.workload, seed, results[side]) for side in ("parent", "change"))
        cells = "  ".join(f"{m} {p[m]:.6g} -> {c[m]:.6g} ({(c[m] / p[m] - 1) * 100 if p[m] else 0:+.1f} %)"
                          for m in POOLED)
        print(f"   seed {seed:3} streams {streams}: {cells}  failed {pf} -> {cf}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
