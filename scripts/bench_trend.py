#!/usr/bin/env python3
"""Bench trend gate: diff fresh bench_results/BENCH_*.json against the
committed baseline and fail on a >20% geomean regression.

For each tracked figure the script extracts its throughput-style metrics
(higher is better) or latency-style metrics (lower is better), forms the
per-metric improvement ratio current/baseline (inverted for latency), and
takes the geometric mean per figure. A figure whose geomean falls below
1 - threshold fails the gate.

Comparisons are skipped (with a note, not a failure) when a side is
missing, the baseline commit predates the figure, the quick-mode flags
differ (quick and full runs are not comparable), or the metric shapes
diverge — the gate only judges apples-to-apples pairs.

Usage:
    python3 scripts/bench_trend.py [--dir bench_results] [--ref HEAD]
                                   [--threshold 0.20]
"""

import argparse
import json
import math
import os
import subprocess
import sys


def metrics_psmr(doc):
    """P-SMR sweep: every per-width throughput, higher is better."""
    vals = []
    for sweep in doc.get("sweeps", []):
        vals.extend(sweep.get("tps", []))
    return [("tps", v, True) for v in vals]


def metrics_recovery(doc):
    """Recovery ladder: per-tail recovery time, lower is better."""
    return [
        ("recovery_ns[tail=%s]" % row.get("tail_requests"), row["recovery_ns"], False)
        for row in doc.get("rows", [])
        if row.get("recovery_ns")
    ]


def metrics_fig4(doc):
    """Fig. 4: every throughput bar, higher is better (they are virtual-time
    numbers, so any movement is a behaviour change), and the simulator
    events the whole figure cost, lower is better."""
    out = [
        ("throughput[%s][%d]" % (series, i), v, True)
        for series, vals in sorted(doc.get("throughput", {}).items())
        for i, v in enumerate(vals)
    ]
    if doc.get("events_executed"):
        out.append(("events_executed", doc["events_executed"], False))
    return out


FIGURES = {
    "BENCH_fig4.json": metrics_fig4,
    "BENCH_psmr.json": metrics_psmr,
    "BENCH_recovery.json": metrics_recovery,
}


def load_current(path):
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def load_baseline(ref, repo_path):
    try:
        blob = subprocess.run(
            ["git", "show", "%s:%s" % (ref, repo_path)],
            capture_output=True,
            check=True,
        ).stdout
    except (subprocess.CalledProcessError, OSError):
        return None
    try:
        return json.loads(blob)
    except ValueError:
        return None


def compare(name, cur, base, extract):
    """Returns (verdict, detail, geomean-or-None); verdict in
    {"ok", "regressed", "skipped"}."""
    if cur is None:
        return "skipped", "no fresh results", None
    if base is None:
        return "skipped", "no committed baseline", None
    if cur.get("quick") != base.get("quick"):
        return (
            "skipped",
            "quick-mode mismatch (current quick=%s, baseline quick=%s)"
            % (cur.get("quick"), base.get("quick")),
            None,
        )
    cur_m, base_m = extract(cur), extract(base)
    if not cur_m or not base_m:
        return "skipped", "no comparable metrics", None
    if [m[0] for m in cur_m] != [m[0] for m in base_m]:
        return "skipped", "metric shapes diverged", None
    ratios = []
    for (label, cv, higher), (_, bv, _) in zip(cur_m, base_m):
        if cv <= 0 or bv <= 0:
            continue
        ratios.append(cv / bv if higher else bv / cv)
    if not ratios:
        return "skipped", "no positive metric pairs", None
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    detail = "geomean ratio %.4f over %d metrics" % (geomean, len(ratios))
    return "ok", detail, geomean


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dir", default="bench_results", help="results directory")
    ap.add_argument("--ref", default="HEAD", help="git ref holding the baseline")
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="max tolerated geomean regression (0.20 = 20%%)",
    )
    args = ap.parse_args()

    floor = 1.0 - args.threshold
    failed = False
    print("bench trend vs %s (fail below geomean %.2f):" % (args.ref, floor))
    for name, extract in sorted(FIGURES.items()):
        repo_path = "%s/%s" % (args.dir, name)
        verdict, detail, geomean = compare(
            name, load_current(repo_path), load_baseline(args.ref, repo_path), extract
        )
        if verdict == "ok" and geomean < floor:
            verdict = "regressed"
            failed = True
        print("  %-22s %-9s %s" % (name, verdict.upper(), detail))
    if failed:
        print("bench trend: FAIL — geomean regression beyond %.0f%%" % (args.threshold * 100))
        return 1
    print("bench trend: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
