#!/usr/bin/env python3
"""The ledger's pair protocol, as a script: interleaved parent/change runs.

    scripts/ledger_pairs.py <parent-checkout> <change-checkout>
        [--workload W]... [--pairs 10] [--seed S] [--trace 0|1]
        [--expect-identical [--moved NAME[:worse][,NAME[:worse]...]]]

Pair k runs each checkout's own, unmodified `benchmark/run.py --workload W
--seed S+k --trace T` (one contract run a side, built from that checkout's
source, at `run.py`'s own run length: the protocol has one), the parent first
on even k and the change first on odd k. Use seeds nobody looked at while
writing the change. Per workload it prints every pair, then for each host
metric both medians with quartiles, the pairs the change won, and `gain` /
`WORSE` where one side wins >= 9/10 of the pairs and the medians differ by
more than the parent's own inter-quartile distance (choosing-metrics,
section 8); anything less is noise, not a result. Each end-to-end virtual
metric gets the same row, marked `PAST BOUND` where the change's median is
worse than the parent's by more than its `BENCHMARK.json` bound: the rule a
workload that must not get worse is judged by. A row of fewer than
`VERDICT_PAIRS` pairs gets no verdict at all, only "no verdict (n pairs)":
with one pair the quartile distance is 0 and one win is every pair.

Which clock a unit is on and how quartiles are taken are `run.py`'s rules,
imported from the change checkout's copy rather than restated here.
Virtual and count metrics must repeat exactly per seed, so with
`--expect-identical` (a change that claims to move no event) any such metric,
`attempted` or `failed` differing between the two sides of a pair fails the
run. A change that says which counts it moves lists them with `--moved`: a
listed metric may differ, on any pair, only in its `better` direction; one
listed as `NAME:worse` is a declared trade, and may differ only in the other
direction. Everything unlisted must still be identical. Exit 1 on any of
that, or when any contract run is incorrect.

Nothing under either `benchmark/` is edited by this script; cargo itself may
rewrite a stale tracked `benchmark/Cargo.lock` (`git checkout` it afterwards).
"""
import argparse
import importlib.util
import json
import os
import subprocess
import sys

# The fewest pairs a host row needs before it gets a `gain` / `WORSE` verdict.
VERDICT_PAIRS = 10


def contract_run(checkout, workload, seed, trace):
    """One `run.py` contract run; returns its closing JSON object."""
    cmd = [sys.executable, os.path.join(checkout, "benchmark", "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"{' '.join(cmd)}: exit {proc.returncode}, no result line")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", help="repeatable; default: every workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=42, help="pair k runs seed S+k")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--expect-identical", action="store_true")
    ap.add_argument("--moved", default="", metavar="NAME[:worse][,...]",
                    help="with --expect-identical: metrics that may differ, only for the better "
                         "(NAME) or, a declared trade, only for the worse (NAME:worse)")
    args = ap.parse_args()
    # metric -> the only way it may move: True for the better, False for the worse
    moved = {}
    for item in filter(None, args.moved.split(",")):
        name, _, way = item.partition(":")
        if way not in ("", "worse"):
            ap.error(f"--moved {item}: the only qualifier is ':worse'")
        moved[name] = way == ""
    if moved and not args.expect_identical:
        ap.error("--moved only qualifies --expect-identical")
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    sys.dont_write_bytecode = True  # no __pycache__ under the checkout's benchmark/
    spec = importlib.util.spec_from_file_location(
        "ledger_run", os.path.join(sides["change"], "benchmark", "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    contract = run.CONTRACT
    better = {m["name"]: m["better"] for m in contract["end_to_end"] + contract["per_layer"]}
    bound = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    if moved.keys() - set(better):
        ap.error(f"--moved: not in BENCHMARK.json: {', '.join(sorted(moved.keys() - set(better)))}")
    bad = 0
    for workload in args.workload or [w["name"] for w in contract["workloads"]]:
        print(f"== {workload}: {args.pairs} pairs, seeds {args.seed}..{args.seed + args.pairs - 1}, "
              f"--trace {args.trace}")
        host = {}  # metric -> [(parent, change)] per pair
        virt = {}  # end-to-end virtual metric -> [(parent, change)] per pair
        for k in range(args.pairs):
            seed = args.seed + k
            order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            r = {side: contract_run(sides[side], workload, seed, args.trace) for side in order}
            shown = []
            for side in ("parent", "change"):
                if not r[side]["correct"] or r[side]["failed"]:
                    print(f"   seed {seed}: {side} run incorrect ({r[side]['failed']} failed)")
                    bad += 1
            for name, row in r["parent"]["metrics"].items():
                p, c = row["value"], r["change"]["metrics"][name]["value"]
                if run.clock(row["unit"]) != "host" and name in bound:
                    virt.setdefault(name, []).append((p, c))
                if run.clock(row["unit"]) == "host":
                    host.setdefault(name, []).append((p, c))
                    if name == "host_us_per_req" or args.trace:
                        shown.append(f"{name} {p:.6g} -> {c:.6g}")
                elif name in moved:
                    shown.append(f"{name} {p:.6g} -> {c:.6g}")
                    worse = c < p if better[name] == "higher" else c > p
                    if p != c and worse == moved[name]:
                        way = "worse" if worse else "better"
                        print(f"   seed {seed}: {name} moved for the {way}: parent {p!r}, change {c!r}")
                        bad += 1
                elif p != c and args.expect_identical:
                    print(f"   seed {seed}: {name} differs: parent {p!r}, change {c!r}")
                    bad += 1
            for key in ("attempted", "failed"):
                if r["parent"][key] != r["change"][key] and args.expect_identical:
                    print(f"   seed {seed}: {key} differs: {r['parent'][key]} vs {r['change'][key]}")
                    bad += 1
            print(f"   pair {k} seed {seed} ({order[0]} first): " + "; ".join(shown), flush=True)
        for name, pairs in list(host.items()) + list(virt.items()):
            sign = -1.0 if better[name] == "higher" else 1.0
            won = sum(sign * c < sign * p for p, c in pairs)
            lost = sum(sign * c > sign * p for p, c in pairs)
            (p1, p2, p3), (c1, c2, c3) = (run.quartiles([x[i] for x in pairs]) for i in (0, 1))
            clear = abs(p2 - c2) > p3 - p1
            if name in virt:
                verdict = "PAST BOUND" if sign * (c2 - p2) > bound[name] * abs(p2) else ""
            else:
                verdict = (f"no verdict ({len(pairs)} pairs)" if len(pairs) < VERDICT_PAIRS else
                           "gain" if clear and won >= 0.9 * len(pairs) else
                           "WORSE" if clear and lost >= 0.9 * len(pairs) else "")
            delta = f"{(c2 / p2 - 1) * 100:+.1f} %" if p2 else "n/a"
            print(f"   {name:34} parent {p2:.6g} [{p1:.6g} .. {p3:.6g}]  change {c2:.6g} "
                  f"[{c1:.6g} .. {c3:.6g}]  {delta}  won {won}/{len(pairs)} lost {lost}  {verdict}")
    if args.expect_identical and not bad:
        gains = sorted(name for name, up in moved.items() if up)
        trades = sorted(name for name, up in moved.items() if not up)
        print("every virtual and count metric, attempted and failed: identical on every pair"
              + (f", except {', '.join(gains)}: nowhere worse" if gains else "")
              + (f"; traded {', '.join(trades)}: nowhere better" if trades else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
