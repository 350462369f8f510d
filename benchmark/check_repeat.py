#!/usr/bin/env python3
"""Compares two result sets written by `run.py --all --out FILE` with the
same seed, metric by metric: virtual-clock metrics and counts must be equal
(so `failed_share` is held to 0 difference); host-clock metrics must agree
within their bound (HOST_BOUND for end-to-end metrics, HOST_LAYER_BOUND for
per-layer ones, PERCENT_POINTS for a metric that is itself a percentage).

  python3 benchmark/check_repeat.py A.json B.json [--markdown]

One row per (workload or `isolated`, metric) with both medians and quartiles
and a verdict: `same`, `unresolved: spread > bound` (the runs of one side
differ among themselves by more than the bound, so the pair shows nothing),
or `differs`. Exits 1 if any row differs."""

import json
import sys

# Same-seed bounds of the host end-to-end metrics. (BENCHMARK.json's bounds
# are wider: they must also cover the spread across seeds.)
HOST_BOUND = {"host_us_per_req": 0.10, "host_peak_rss_mb": 0.05, "setup_s": 0.15}
# Per-layer host metrics have no bound in BENCHMARK.json; they are single
# isolated-driver timings, so allow what two idle runs of this box show.
HOST_LAYER_BOUND = 0.25
PERCENT_POINTS = 10.0


def spread(row):
    return (row["q3"] - row["q1"]) / row["value"] if row["value"] else 0.0


def verdict(a, b, bound):
    if a["clock"] != "host":
        return "same" if a["value"] == b["value"] else "differs"
    if a["value"] == b["value"]:
        return "same"
    if a["unit"] == "%":
        # Already a relative difference of two host numbers: compare in
        # percentage points.
        if abs(a["value"] - b["value"]) <= PERCENT_POINTS:
            return "same"
        wide = max(a["q3"] - a["q1"], b["q3"] - b["q1"]) > PERCENT_POINTS
        return "unresolved: spread > bound" if wide else "differs"
    base = min(abs(a["value"]), abs(b["value"]))
    if base and abs(a["value"] - b["value"]) / base <= bound:
        return "same"
    if max(spread(a), spread(b)) > bound:
        return "unresolved: spread > bound"
    return "differs"


def main():
    paths = [p for p in sys.argv[1:] if not p.startswith("--")]
    markdown = "--markdown" in sys.argv
    if len(paths) != 2:
        sys.exit(__doc__)
    a_set, b_set = (json.load(open(p)) for p in paths)

    def fmt(row):
        if row["n"] > 1 and row["q1"] != row["q3"]:
            return f"{row['value']:.6g} [{row['q1']:.6g}..{row['q3']:.6g}]"
        return f"{row['value']:.6g}"

    rows, differs, unresolved_e2e = [], 0, 0
    sections = [(w, a_set["workloads"][w], b_set["workloads"][w]) for w in a_set["workloads"]]
    sections.append(("isolated", a_set["isolated"], b_set["isolated"]))
    for w, a, b in sections:
        ma, mb = a["metrics"], b["metrics"]
        for name in ma:
            if name not in mb:
                rows.append((w, name, fmt(ma[name]), "-", ma[name]["unit"], "differs: missing in B"))
                differs += 1
                continue
            v = verdict(ma[name], mb[name], HOST_BOUND.get(name, HOST_LAYER_BOUND))
            differs += v == "differs"
            unresolved_e2e += v.startswith("unresolved") and name in HOST_BOUND
            rows.append((w, name, fmt(ma[name]), fmt(mb[name]), ma[name]["unit"], v))

    head = ("workload", "metric", "A median [q1..q3]", "B median [q1..q3]", "unit", "verdict")
    if markdown:
        print("| " + " | ".join(head) + " |")
        print("|" + "---|" * len(head))
        for r in rows:
            print("| " + " | ".join(r) + " |")
    else:
        widths = [max(len(str(r[i])) for r in rows + [head]) for i in range(len(head))]
        for r in [head] + rows:
            print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    print(f"\n{len(rows)} rows: {differs} differ, {unresolved_e2e} end-to-end rows unresolved")
    sys.exit(1 if differs else 0)


if __name__ == "__main__":
    main()
