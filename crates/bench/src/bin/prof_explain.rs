//! Sim-Prof explainer: runs the fig7 TPC-C shape with profiling and
//! tracing on, prints per-resource utilization timelines and the
//! wait-state totals, decomposes the p999 tail exemplars into wait-state
//! segments (blamed along their span paths), exports a flamegraph-style
//! collapsed-stack file plus a Perfetto trace with counter tracks, and
//! bounds the wall overhead of profiling at 5 % (DESIGN.md §16). That the
//! profiler leaves the schedule alone is pinned in
//! `tests/schedule_hash.rs`.
//!
//! Usage:
//!
//! ```text
//! cargo run -p heron-bench --release --bin prof_explain [-- OPTIONS]
//!   --seed S    simulation seed (default 42)
//!   --quick     fewer requests / shorter windows
//!   --topk K    tail exemplars to explain (default 8)
//!   --gate      exit nonzero on any failed check (tier-1 mode)
//! ```
//!
//! Artifacts: `bench_results/prof_explain.json` (Perfetto, spans +
//! counter tracks), `bench_results/prof_waitstates.folded` (collapsed
//! stacks for flamegraph tooling), and
//! `bench_results/BENCH_prof_overhead.json`.

use heron_bench::harness::BreakdownSummary;
use heron_bench::{banner, quick_mode, run_heron, write_results, Json, RunConfig, Workload};
use heron_core::blame::blame_exemplars;
use heron_core::critical_path::{attribute_where, Attribution};

fn arg_value(name: &str) -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

fn within_1pct(a: u64, b: u64) -> bool {
    a.abs_diff(b) * 100 <= b
}

/// The profiled report run: the fig7 shape in fixed-work mode, so the
/// legacy breakdown counters cover exactly the traced requests.
fn report_shape(seed: u64, quick: bool) -> RunConfig {
    let mut cfg = RunConfig::new(4, 3, Workload::Tpcc)
        .quick(quick)
        .with_requests(if quick { 30 } else { 150 });
    cfg.seed = seed;
    cfg
}

fn check_attribution(label: &str, a: &Attribution, legacy: &BreakdownSummary) -> bool {
    let (lo, lc, le) = (
        legacy.ordering.as_nanos() as u64,
        legacy.coordination.as_nanos() as u64,
        legacy.execution.as_nanos() as u64,
    );
    let ok = a.n == legacy.n as u64
        && within_1pct(a.ordering_ns, lo)
        && within_1pct(a.coordination_ns, lc)
        && within_1pct(a.execution_ns, le);
    if !ok {
        println!(
            "{label}: FAIL — blamed aggregate diverges from the legacy breakdown \
             (trace n={} o={} c={} e={} vs legacy n={} o={lo} c={lc} e={le})",
            a.n, a.ordering_ns, a.coordination_ns, a.execution_ns, legacy.n
        );
    }
    ok
}

fn main() {
    banner(
        "prof explain — wait-state profiling, utilization timelines, p999 blame",
        "virtual-time Sim-Prof wait states over the fig7 TPC-C shape",
    );
    let seed = arg_value("--seed").unwrap_or(42);
    let topk = arg_value("--topk").unwrap_or(8) as usize;
    let quick = quick_mode();
    let gate = std::env::args().any(|a| a == "--gate");
    let mut failed = false;

    // ------------------------------------------------------------------
    // The profiled run: report + exemplar blame + Fig. 6 cross-check.
    // ------------------------------------------------------------------
    let profiled = run_heron(
        &report_shape(seed, quick)
            .with_tracing(true)
            .with_profiling(true),
    );
    let prof = profiled.prof.as_ref().expect("profiling was enabled");
    let tracer = profiled.tracer.as_ref().expect("tracing was enabled");
    let events = tracer.events();
    println!(
        "fig7-tpcc-4p seed {seed}: {:.0} tps, {} procs profiled, {} gauges, {} trace events",
        profiled.tps,
        prof.procs.len(),
        prof.gauges.len(),
        events.len()
    );

    // Wait-state totals over all processes.
    println!("\nwait-state totals (virtual time, all processes):");
    let totals = prof.totals();
    let grand: u64 = totals.iter().map(|t| t.ns).sum();
    for t in totals.iter().take(12) {
        println!(
            "  {:<24} {:>12.1} µs  ({:>5.1} %)  {:>8} transitions",
            t.state,
            us(t.ns),
            t.ns as f64 / grand.max(1) as f64 * 100.0,
            t.transitions
        );
    }

    // Resource utilization timelines.
    println!("\nresource utilization (bucket {} µs):", us(prof.bucket_ns));
    for g in &prof.gauges {
        println!(
            "  {:<24} mean {:>7.3}  max {:>5}  ({} buckets)",
            g.name,
            g.mean_overall,
            g.max,
            g.mean.len()
        );
    }
    if prof.gauges.is_empty() {
        println!("FAIL: no utilization gauges registered");
        failed = true;
    }

    // p999 exemplar table + blame decomposition. Every exemplar's
    // segments must sum exactly to its end-to-end latency.
    let blamed = blame_exemplars(&events, &profiled.exemplars);
    println!("\ntail exemplars (slowest tagged requests, blamed):");
    for (i, b) in blamed.iter().take(topk).enumerate() {
        let segs: Vec<String> = b
            .segments
            .iter()
            .map(|s| format!("{} {:.1} µs", s.name, us(s.ns)))
            .collect();
        println!(
            "  #{:<2} uid {:<6} {:>8.1} µs = {}",
            i + 1,
            b.uid,
            us(b.latency_ns),
            segs.join(" | "),
        );
    }
    if blamed.is_empty() {
        println!("FAIL: no tail exemplars retained");
        failed = true;
    }
    for b in &blamed {
        let sum: u64 = b.segments.iter().map(|s| s.ns).sum();
        if sum != b.total_ns || b.total_ns != b.latency_ns {
            println!(
                "FAIL: exemplar uid {} decomposition {} ns != latency {} ns (trace {} ns)",
                b.uid, sum, b.latency_ns, b.total_ns
            );
            failed = true;
        }
        if b.segments.iter().any(|s| s.name == "untraced") {
            println!("FAIL: exemplar uid {} missing from the trace", b.uid);
            failed = true;
        }
    }

    // Fig. 6 cross-check: the blame analyzer's substrate (the span
    // attribution) must still match the legacy counters within 1 %.
    let single = attribute_where(&events, |p| p == 1);
    let multi = attribute_where(&events, |p| p > 1);
    failed |= !check_attribution("single", &single, &profiled.single);
    failed |= !check_attribution("multi", &multi, &profiled.multi);
    if multi.n == 0 {
        println!("FAIL: no multi-partition requests traced");
        failed = true;
    }

    // Artifacts: collapsed stacks + Perfetto with counter tracks.
    let dir = std::path::Path::new("bench_results");
    std::fs::create_dir_all(dir).expect("create bench_results/");
    let folded = prof.collapsed_stacks();
    std::fs::write(dir.join("prof_waitstates.folded"), &folded).expect("write folded stacks");
    let perfetto = sim::trace::export_chrome_json_with_counters(
        &events,
        &tracer.track_names(),
        &prof.counter_tracks(),
    );
    std::fs::write(dir.join("prof_explain.json"), perfetto).expect("write perfetto trace");
    println!(
        "\nartifacts: bench_results/prof_explain.json (perfetto), \
         bench_results/prof_waitstates.folded ({} lines)",
        folded.lines().count()
    );

    // ------------------------------------------------------------------
    // Overhead: profiling on vs off. Wall time drifts between runs, so
    // the pairs interleave (off,on,off,on,…) and each side takes its min
    // — sequential blocks would fold machine drift into the comparison.
    // ------------------------------------------------------------------
    let (mut wall_off, mut wall_on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..6 {
        let off = run_heron(&report_shape(seed, quick)).wall_ms;
        let on = run_heron(&report_shape(seed, quick).with_profiling(true)).wall_ms;
        wall_off = wall_off.min(off);
        wall_on = wall_on.min(on);
    }
    let overhead_pct = (wall_on / wall_off - 1.0) * 100.0;
    println!(
        "\noverhead: off {wall_off:.2} ms, on {wall_on:.2} ms — {overhead_pct:+.2} % \
         (budget 5 %)"
    );
    if overhead_pct > 5.0 {
        println!("FAIL: profiling overhead exceeds the 5 % budget");
        failed = true;
    }

    let mut out = Json::obj();
    out.set("schedule", "fig7-tpcc-4p");
    out.set("seed", seed);
    out.set("quick", quick);
    out.set("wall_ms_off", wall_off);
    out.set("wall_ms_on", wall_on);
    out.set("wall_overhead_pct", overhead_pct);
    out.set("procs_profiled", prof.procs.len() as u64);
    out.set("gauges", prof.gauges.len() as u64);
    out.set("exemplars", blamed.len() as u64);
    write_results("BENCH_prof_overhead.json", &out).expect("write overhead results");

    if failed {
        println!("prof explain: FAIL");
        std::process::exit(1);
    }
    let _ = gate; // checks are always enforced; --gate is the tier-1 alias
    println!(
        "prof explain: exemplars sum exactly, attribution matches, overhead \
         within budget"
    );
}
