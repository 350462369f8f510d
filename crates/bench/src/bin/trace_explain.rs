//! Virtual-time trace explainer: runs a fig7-shaped TPC-C schedule with
//! tracing on, exports the Perfetto trace, prints the top-k slowest
//! requests decomposed along their critical paths, and cross-checks the
//! trace-derived Fig. 6 attribution against the legacy breakdown
//! counters (DESIGN.md §11). That tracing leaves the schedule alone is
//! pinned in `tests/schedule_hash.rs`; what it costs is the ledger's
//! `trace.overhead_pct` (`benchmark/`).
//!
//! Usage:
//!
//! ```text
//! cargo run -p heron-bench --release --bin trace_explain [-- OPTIONS]
//!   --seed S    simulation seed (default 42)
//!   --quick     fewer requests per client
//!   --topk K    slowest requests to explain (default 5)
//! ```
//!
//! Artifact: `bench_results/trace_explain.json` (loads in
//! `ui.perfetto.dev`). Exit status is nonzero iff the trace attribution
//! diverges from the legacy counters by more than 1 %.

use heron_bench::harness::BreakdownSummary;
use heron_bench::{banner, quick_mode, run_heron, RunConfig, Workload};
use heron_core::critical_path::{attribute_where, critical_paths, Attribution};

fn arg_value(name: &str) -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// The fig7 shape — the TPC-C mix on 4 partitions — in fixed-work mode,
/// so the legacy breakdown counters cover exactly the requests the trace
/// covers and the two attributions are comparable sample-for-sample.
fn schedule(seed: u64, quick: bool) -> RunConfig {
    let mut cfg = RunConfig::new(4, 3, Workload::Tpcc)
        .quick(quick)
        .with_requests(if quick { 30 } else { 150 });
    cfg.seed = seed;
    cfg
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

/// `true` when the trace-derived mean matches the legacy counter within
/// 1 % (exact match expected: the phase spans open and close at the very
/// instants the counters sample).
fn within_1pct(trace_ns: u64, legacy_ns: u64) -> bool {
    trace_ns.abs_diff(legacy_ns) * 100 <= legacy_ns
}

fn check_attribution(label: &str, a: &Attribution, legacy: &BreakdownSummary) -> bool {
    let (lo, lc, le) = (
        legacy.ordering.as_nanos() as u64,
        legacy.coordination.as_nanos() as u64,
        legacy.execution.as_nanos() as u64,
    );
    println!(
        "{label:<8} trace  n={:<5} ordering {:>8.1} µs  coordination {:>8.1} µs  execution {:>8.1} µs",
        a.n,
        us(a.ordering_ns),
        us(a.coordination_ns),
        us(a.execution_ns),
    );
    println!(
        "{label:<8} legacy n={:<5} ordering {:>8.1} µs  coordination {:>8.1} µs  execution {:>8.1} µs",
        legacy.n,
        us(lo),
        us(lc),
        us(le),
    );
    let ok = a.n == legacy.n as u64
        && within_1pct(a.ordering_ns, lo)
        && within_1pct(a.coordination_ns, lc)
        && within_1pct(a.execution_ns, le);
    if !ok {
        println!("{label}: FAIL — trace attribution diverges from the legacy breakdown");
    }
    ok
}

fn main() {
    banner(
        "trace explain — critical-path analysis over the virtual-time trace",
        "Fig. 6/Fig. 7 latency anatomy, derived from causal spans",
    );
    let seed = arg_value("--seed").unwrap_or(42);
    let topk = arg_value("--topk").unwrap_or(5) as usize;
    let quick = quick_mode();

    let traced = run_heron(&schedule(seed, quick).with_tracing(true));
    let tracer = traced.tracer.as_ref().expect("tracing was enabled");
    let events = tracer.events();
    println!(
        "fig7-tpcc-4p seed {seed}: {:.0} tps, {} trace events, {} sim events",
        traced.tps,
        events.len(),
        traced.events
    );

    // Perfetto export.
    let dir = std::path::Path::new("bench_results");
    std::fs::create_dir_all(dir).expect("create bench_results/");
    let trace_path = dir.join("trace_explain.json");
    std::fs::write(&trace_path, tracer.export_chrome_json()).expect("write trace");
    println!(
        "perfetto trace written to {} (load in ui.perfetto.dev)",
        trace_path.display()
    );

    // Top-k critical paths.
    let paths = critical_paths(&events);
    println!("\ntop {} slowest requests:", topk.min(paths.len()));
    for (i, p) in paths.iter().take(topk).enumerate() {
        let segs: Vec<String> = p
            .segments
            .iter()
            .map(|s| format!("{} {:.1} µs", s.name, us(s.ns)))
            .collect();
        println!(
            "  #{:<2} uid {:<6} {}p {:>8.1} µs = {}",
            i + 1,
            p.corr,
            p.partitions,
            us(p.total_ns),
            segs.join(" | "),
        );
    }

    // Registry view: the same run, through named histograms and counters.
    println!("\nmetrics registry:");
    for (name, h) in &traced.hists {
        println!(
            "  {name:<22} n={:<6} p50 {:>8.1} µs  p99 {:>8.1} µs  p999 {:>8.1} µs",
            h.count,
            us(h.p50),
            us(h.p99),
            us(h.p999),
        );
    }
    for (name, v) in &traced.counters {
        println!("  {name:<22} {v}");
    }

    // Fig. 6 cross-check: trace-derived attribution vs legacy counters.
    println!("\nattribution cross-check (must agree within 1 %):");
    let single = attribute_where(&events, |p| p == 1);
    let multi = attribute_where(&events, |p| p > 1);
    let mut failed = !check_attribution("single", &single, &traced.single);
    failed |= !check_attribution("multi", &multi, &traced.multi);
    if multi.n == 0 {
        println!("FAIL: no multi-partition requests traced — schedule exercised nothing");
        failed = true;
    }

    if failed {
        println!("trace explain: FAIL");
        std::process::exit(1);
    }
    println!("trace explain: attribution matches the legacy breakdown");
}
