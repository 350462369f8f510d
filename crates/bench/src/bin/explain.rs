//! Where did the time go: runs a fig7-shaped TPC-C schedule with tracing
//! and profiling on and prints one report from that one run — the top-k
//! slowest requests along their paths (parks carved out of the stage they
//! interrupted, and the client's leader discovery when a group fell
//! silent), the check that every recorded latency has its path, the
//! Fig. 6 stage means, wait-state totals and resource utilization — and
//! exports a Perfetto trace with counter tracks plus flamegraph-style
//! collapsed stacks (DESIGN.md §11). That neither switch moves the
//! schedule is pinned in `tests/schedule_hash.rs`; what they cost in host
//! time is the ledger's `trace.overhead_pct` (`benchmark/`).
//!
//! ```text
//! cargo run -p heron-bench --release --bin explain [-- OPTIONS]
//!   --seed S    simulation seed (default 42)
//!   --quick     fewer requests per client
//!   --topk K    slowest requests to explain (default 5)
//! ```
//!
//! Artifacts: `bench_results/explain.json` (loads in `ui.perfetto.dev`)
//! and `bench_results/explain_waitstates.folded`. Exits nonzero iff a
//! request path does not sum to its latency, a recorded latency has no
//! path or a path no recorded latency, a request is untraced, or the
//! schedule traced no multi-partition request.

use heron_bench::{arg_value, banner, quick_mode, run_heron_on, RunConfig, Workload};
use heron_core::explain::{check_latencies, request_paths, Segment};
use heron_core::HeronConfig;
use rdma_sim::{Fabric, LatencyModel};

fn us(ns: u64) -> f64 {
    ns as f64 / 1_000.0
}

fn path(segments: &[Segment]) -> String {
    let segs: Vec<String> = segments
        .iter()
        .map(|s| format!("{} {:.1} µs", s.name, us(s.ns)))
        .collect();
    segs.join(" | ")
}

fn main() {
    banner(
        "explain — request paths, stages and wait states of one run",
        "Fig. 6/Fig. 7 latency anatomy, from one traced and profiled schedule",
    );
    let seed = arg_value("--seed").unwrap_or(42);
    let topk = arg_value("--topk").unwrap_or(5) as usize;
    let quick = quick_mode();
    let mut failed = false;

    // The fig7 shape — the TPC-C mix on 4 partitions — in fixed-work mode.
    let mut cfg = RunConfig::new(HeronConfig::new(4, 3), Workload::Tpcc)
        .quick(quick)
        .with_requests(if quick { 30 } else { 150 });
    cfg.seed = seed;
    let (run, prof, tracer) = {
        let simulation = sim::Simulation::new(seed);
        let profiler = simulation.enable_profiling();
        let tracer = simulation.enable_tracing();
        let run = run_heron_on(&cfg, &simulation, &Fabric::new(LatencyModel::connectx4()));
        (run, profiler.report(), tracer)
    };
    // Read after the simulation is dropped: its teardown unwinds the
    // processes parked when the last client stopped the run, closing the
    // spans they had open.
    let events = tracer.events();
    println!(
        "fig7-tpcc-4p seed {seed}: {:.0} tps, {} trace events, {} sim events, \
         {} procs profiled, {} gauges",
        run.tps,
        events.len(),
        run.events,
        prof.procs.len(),
        prof.gauges.len()
    );

    let paths = request_paths(&events);
    println!("\ntop {} slowest requests:", topk.min(paths.len()));
    for (i, p) in paths.iter().take(topk).enumerate() {
        println!(
            "  #{:<2} uid {:<6} {}p {:>8.1} µs = {}",
            i + 1,
            p.corr,
            p.partitions,
            us(p.total_ns),
            path(&p.segments),
        );
        // The client's leader discovery, when a group fell silent.
        for s in &p.suspects {
            println!(
                "        +{:.1} µs suspect: silent {:#b}, epoch {}, moved {:#b}",
                us(s.after_ns),
                s.silent,
                s.epoch,
                s.moved
            );
        }
    }
    if !paths.iter().any(|p| p.partitions > 1) {
        println!("FAIL: no multi-partition request traced — schedule exercised nothing");
        failed = true;
    }

    // Fixed-work mode: the summary holds every latency the clients
    // recorded, and each must be one request path's total, to the ns.
    let latencies: Vec<u64> = run
        .samples_us
        .iter()
        .map(|&us| (us * 1_000.0).round() as u64)
        .collect();
    let mismatches = check_latencies(&paths, &latencies);
    for m in &mismatches {
        println!("FAIL: {m:?}");
    }
    let untraced = paths
        .iter()
        .filter(|p| p.segments.iter().any(|s| s.name == "untraced"));
    for p in untraced {
        println!("FAIL: uid {} has no replica span in the trace", p.corr);
        failed = true;
    }
    failed |= !mismatches.is_empty();
    println!(
        "\nevery request: {} paths, {} recorded latencies, {} mismatches",
        paths.len(),
        latencies.len(),
        mismatches.len()
    );

    println!("\nstage means (Fig. 6, replica side):");
    println!("  single   {}", run.single);
    println!("  multi    {}", run.multi);

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

    let dir = std::path::Path::new("bench_results");
    std::fs::create_dir_all(dir).expect("create bench_results/");
    let folded = prof.collapsed_stacks();
    std::fs::write(dir.join("explain_waitstates.folded"), &folded).expect("write folded stacks");
    let perfetto = sim::trace::export_chrome_json_with_counters(
        &events,
        &tracer.track_names(),
        &prof.counter_tracks(),
    );
    std::fs::write(dir.join("explain.json"), perfetto).expect("write perfetto trace");
    println!(
        "\nartifacts: bench_results/explain.json (perfetto, load in ui.perfetto.dev), \
         bench_results/explain_waitstates.folded ({} lines)",
        folded.lines().count()
    );

    if failed {
        println!("explain: FAIL");
        std::process::exit(1);
    }
    println!("explain: every recorded latency is one traced path, summed exactly");
}
