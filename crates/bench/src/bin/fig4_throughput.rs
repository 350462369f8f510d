//! **Figure 4** — maximum throughput of (1) the ordering layer alone,
//! (2) Heron with null requests, (3) Heron running TPC-C, and (4) TPC-C
//! with local-only transactions, as partitions scale 1 → 16.
//!
//! The paper's observations this must reproduce:
//! * the ordering layer scales close to linearly;
//! * Heron-null and TPCC do not improve from 1→2 partitions (coordination
//!   appears), then scale: the paper reports TPCC factors of 1.52× /
//!   2.65× / 3.98× for 4/8/16 WH relative to 2 WH;
//! * local-only TPCC scales linearly.
//!
//! After the main table, a batching ablation compares the unbatched system
//! (`max_batch = 1`, the paper's design) against end-to-end batching
//! (group commit + doorbell-coalesced verbs) on the Heron-null workload at
//! the largest scales: virtual-time throughput must rise AND the
//! simulator must execute fewer events (≈ wall-clock), both recorded in
//! `bench_results/BENCH_fig4.json`.
//!
//! Before writing, the binary checks two of the claims above and exits
//! non-zero naming the point that breaks one: TPC-C throughput rises with
//! each partition count, and Local TPC-C stays within 5 % of the
//! 1-partition throughput × partitions. The file holds virtual-time
//! numbers only (stdout also prints wall time), so every run of a mode
//! writes the same bytes; `scripts/gates.sh` pins the full-mode file.
//!
//! `cargo run -p heron-bench --release --bin fig4_throughput [--quick]`

use heron_bench::{
    assert_claims, banner, quick_mode, run_heron, write_results, Json, LoadSummary, RunConfig,
    Workload,
};
use heron_core::HeronConfig;

fn main() {
    let quick = quick_mode();
    banner(
        "Figure 4: throughput scalability (requests/s)",
        "§V-C1, Fig. 4 — Ramcast / Heron / Tpcc / Local Tpcc, 1..16 partitions",
    );
    let partitions = if quick {
        vec![1usize, 2, 4]
    } else {
        vec![1usize, 2, 4, 8, 16]
    };
    let workloads = [
        ("Ramcast (ordering only)", Workload::NullLocal),
        ("Heron (null requests)", Workload::Null),
        ("Tpcc", Workload::Tpcc),
        ("Local Tpcc", Workload::TpccLocal),
    ];

    print!("{:<26}", "workload \\ partitions");
    for p in &partitions {
        print!("{:>12}", format!("{p}WH"));
    }
    println!();
    let mut table: Vec<Vec<LoadSummary>> = Vec::new();
    for (label, wl) in workloads {
        print!("{label:<26}");
        let mut row = Vec::new();
        for &p in &partitions {
            let summary = run_heron(&RunConfig::new(HeronConfig::new(p, 3), wl).quick(quick));
            print!("{:>12.0}", summary.tps);
            row.push(summary);
            use std::io::Write;
            std::io::stdout().flush().ok();
        }
        table.push(row);
        println!();
    }

    println!("\nscaling factors relative to 2 partitions (paper, TPCC: 1.52x / 2.65x / 3.98x):");
    for ((label, _), row) in workloads.iter().zip(&table) {
        if row.len() < 3 {
            continue;
        }
        let base = row[1].tps;
        let factors: Vec<String> = row[2..]
            .iter()
            .map(|s| format!("{:.2}x", s.tps / base))
            .collect();
        println!("  {label:<26} {}", factors.join(" / "));
    }

    // ------------------------------------------------------------------
    // Batching ablation: unbatched vs end-to-end batching on Heron-null
    // at the two largest scales. The max_batch=1 column reuses the main
    // table's runs (they ARE the unbatched system).
    // ------------------------------------------------------------------
    println!("\n-- batching ablation: Heron (null requests), max_batch 1 vs 8 --");
    println!(
        "{:<6} {:>11} {:>12} {:>14} {:>10} {:>12} {:>10}",
        "WH", "max_batch", "tps", "sim events", "wall", "events/req", "comparison"
    );
    let heron_row = &table[1]; // Heron (null requests)
    let ablate_at: Vec<usize> = partitions.iter().copied().rev().take(2).rev().collect();
    // Fixed work: every client issues exactly this many requests, so both
    // systems execute an identical request set and the simulator-event and
    // wall-clock comparison is exact.
    let reqs_per_client: u64 = if quick { 60 } else { 250 };
    // (partitions, fixed-window unbatched/batched, fixed-work unbatched/batched)
    let mut ablation: Vec<(usize, LoadSummary, LoadSummary, LoadSummary, LoadSummary)> = Vec::new();
    for &p in &ablate_at {
        let idx = partitions.iter().position(|&x| x == p).expect("in list");
        let unbatched = heron_row[idx].clone();
        let cfg = |max_batch| {
            let heron = HeronConfig::new(p, 3).with_max_batch(max_batch);
            RunConfig::new(heron, Workload::Null).quick(quick)
        };
        let batched = run_heron(&cfg(8));
        let total_reqs = (cfg(1).clients as u64 * reqs_per_client) as f64;
        let u_work = run_heron(&cfg(1).with_requests(reqs_per_client));
        let b_work = run_heron(&cfg(8).with_requests(reqs_per_client));
        for (mb, s, basis, per_req) in [
            (1usize, &unbatched, "window", f64::NAN),
            (8, &batched, "window", f64::NAN),
            (1, &u_work, "work", u_work.events as f64 / total_reqs),
            (8, &b_work, "work", b_work.events as f64 / total_reqs),
        ] {
            println!(
                "{:<6} {:>11} {:>12.0} {:>14} {:>8.0}ms {:>12} {:>10}",
                p,
                mb,
                s.tps,
                s.events,
                s.wall_ms,
                if per_req.is_nan() {
                    "-".to_string()
                } else {
                    format!("{per_req:.1}")
                },
                format!("fixed {basis}"),
            );
        }
        ablation.push((p, unbatched, batched, u_work, b_work));
    }
    println!("batched vs unbatched:");
    for (p, u, b, uw, bw) in &ablation {
        println!(
            "  {p}WH: throughput {:.2}x (fixed window); identical request set: \
             {:.2}x fewer events, {:.2}x less wall-clock",
            b.tps / u.tps,
            uw.events as f64 / bw.events as f64,
            uw.wall_ms / bw.wall_ms,
        );
    }

    // The paper's scaling claims, before anything is written.
    let mut broken = Vec::new();
    let (tpcc, local) = (&table[2], &table[3]);
    for (i, pair) in partitions.windows(2).enumerate() {
        let (before, after) = (tpcc[i].tps, tpcc[i + 1].tps);
        if after <= before {
            broken.push(format!(
                "Tpcc does not rise from {}WH ({before:.0} tps) to {}WH ({after:.0} tps)",
                pair[0], pair[1]
            ));
        }
    }
    for (&p, s) in partitions.iter().zip(local) {
        let linear = local[0].tps * p as f64;
        if (s.tps / linear - 1.0).abs() > 0.05 {
            broken.push(format!(
                "Local Tpcc at {p}WH is {:.3}x of linear ({:.0} vs {linear:.0} tps), not within 5 %",
                s.tps / linear,
                s.tps
            ));
        }
    }
    assert_claims(&broken);

    // Machine-readable results: virtual time only.
    let mut out = Json::obj();
    out.set("figure", "fig4");
    out.set("quick", quick);
    out.set(
        "partitions",
        partitions.iter().map(|&p| p as u64).collect::<Vec<_>>(),
    );
    let mut tput = Json::obj();
    for ((label, _), row) in workloads.iter().zip(&table) {
        tput.set(label, row.iter().map(|s| s.tps).collect::<Vec<_>>());
    }
    out.set("throughput", tput);
    out.set(
        "events_executed",
        table.iter().flatten().map(|s| s.events).sum::<u64>(),
    );
    let mut rows = Vec::new();
    for (p, u, b, uw, bw) in &ablation {
        for (mb, basis, s) in [
            (1u64, "fixed_window", u),
            (8, "fixed_window", b),
            (1, "fixed_work", uw),
            (8, "fixed_work", bw),
        ] {
            let mut r = Json::obj();
            r.set("workload", "Heron (null requests)");
            r.set("partitions", *p);
            r.set("max_batch", mb);
            r.set("basis", basis);
            r.set("tps", s.tps);
            r.set("events", s.events);
            rows.push(r);
        }
        let mut r = Json::obj();
        r.set("workload", "Heron (null requests)");
        r.set("partitions", *p);
        r.set("speedup_tps", b.tps / u.tps);
        // < 1.0 means batching cut the simulator's work for an identical
        // request set (fewer doorbells → fewer landing events and wakes).
        r.set(
            "fixed_work_events_ratio",
            bw.events as f64 / uw.events as f64,
        );
        rows.push(r);
    }
    out.set("ablation", rows);
    write_results("BENCH_fig4.json", &out).expect("write bench_results/BENCH_fig4.json");
}
