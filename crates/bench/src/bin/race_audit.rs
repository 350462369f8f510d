//! Sim-TSan audit: sweeps the fig4/fig5/chaos schedule shapes with the
//! happens-before race detector and the Heron protocol lints enabled
//! (DESIGN.md §10). That the detector leaves the schedule alone is pinned
//! in `tests/schedule_hash.rs`.
//!
//! Usage:
//!
//! ```text
//! cargo run -p heron-bench --release --bin race_audit [-- OPTIONS]
//!   --seed S        base seed; schedule k runs with seed S+k (default 42)
//!   --quick         shorter measurement windows per schedule
//!   --selftest      break the dual-versioning victim guard and verify the
//!                   detector catches the resulting protocol violation
//! ```
//!
//! Exit status is nonzero iff any schedule reports a race or protocol
//! lint or (`--selftest`) the broken guard goes undetected. Every report
//! is printed in full.

use heron_bench::{arg_value, banner, quick_mode, run_heron_on, LoadSummary, RunConfig, Workload};
use heron_core::HeronConfig;
use rdma_sim::{Fabric, LatencyModel, RaceDetector, RaceKind};
use std::time::Duration;

/// The audited schedule shapes: the fig4 workload ladder, the fig5 scale
/// point, and a chaos schedule that crashes and recovers a replica under
/// load so state transfer runs with the detector watching.
fn schedules(base_seed: u64, quick: bool) -> Vec<(&'static str, RunConfig)> {
    // Schedule k: seed S+k, p partitions of 3 replicas, executor width.
    let shape = |k: u64, p: usize, width: usize, w: Workload| {
        let heron = HeronConfig::new(p, 3).with_executor_width(width);
        let mut cfg = RunConfig::new(heron, w).quick(quick);
        cfg.seed = base_seed + k;
        cfg
    };
    let (down, up) = if quick {
        (Duration::from_millis(2), Duration::from_millis(5))
    } else {
        (Duration::from_millis(4), Duration::from_millis(12))
    };
    vec![
        ("fig4-null-2p", shape(0, 2, 1, Workload::Null)),
        ("fig4-tpcc-local-2p", shape(1, 2, 1, Workload::TpccLocal)),
        ("fig4-tpcc-2p", shape(2, 2, 1, Workload::Tpcc)),
        ("fig5-tpcc-4p", shape(3, 4, 1, Workload::Tpcc)),
        (
            "chaos-tpcc-2p",
            shape(4, 2, 1, Workload::Tpcc).with_crash(down, up),
        ),
        // P-SMR: fig5-shaped parallel execution — pool workers share the
        // dual-version store and write disjoint coordination lanes; the
        // detector must see no races at any width, including under a
        // crash/recovery with workers in flight.
        (
            "psmr-tpcc-2p-w2",
            shape(5, 2, 2, Workload::Tpcc).with_warehouses_per_partition(8),
        ),
        (
            "psmr-tpcc-2p-w4",
            shape(6, 2, 4, Workload::Tpcc).with_warehouses_per_partition(8),
        ),
        (
            "psmr-tpcc-2p-w8",
            shape(7, 2, 8, Workload::Tpcc)
                .with_warehouses_per_partition(8)
                .with_crash(down, up),
        ),
    ]
}

fn main() {
    banner(
        "race audit — Sim-TSan happens-before sweep over the benchmark schedules",
        "one-sided memory model of §III; dual versioning of §III-C",
    );
    let base_seed = arg_value("--seed").unwrap_or(42);
    let quick = quick_mode();

    if std::env::args().any(|a| a == "--selftest") {
        selftest(base_seed, quick);
        return;
    }

    let mut failed = false;
    for (name, cfg) in schedules(base_seed, quick) {
        let (summary, detector) = audited(&cfg, &[]);
        let reports = detector.reports();
        let s = detector.stats();
        println!(
            "{name:<20} seed {:<6} {:>9.0} tps  {:>8} remote reads checked  \
             {:>10} cells  {:>7.1} MiB shadow  {:>4} in-flux  {} report(s)",
            cfg.seed,
            summary.tps,
            s.remote_reads_checked,
            s.cells_checked,
            s.shadow_bytes as f64 / (1 << 20) as f64,
            s.influx_windows,
            reports.len(),
        );
        if s.cells_checked == 0 {
            println!("  WARNING: no shadow cells checked — schedule exercised nothing");
            failed = true;
        }
        for report in &reports {
            println!("{report}");
            failed = true;
        }
        if s.reports_dropped > 0 {
            println!(
                "  ({} further report(s) dropped at the cap)",
                s.reports_dropped
            );
        }
    }

    if failed {
        println!("race audit: FAIL");
        std::process::exit(1);
    }
    println!("race audit: all schedules clean");
}

/// Runs `cfg` with the race detector on, on a fabric with `sabotaged`
/// guards left out; returns the summary and the detector.
fn audited(cfg: &RunConfig, sabotaged: &[&'static str]) -> (LoadSummary, RaceDetector) {
    let simulation = sim::Simulation::new(cfg.seed);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let detector = fabric.enable_race_detector();
    for &guard in sabotaged {
        fabric.sabotage(guard);
    }
    (run_heron_on(cfg, &simulation, &fabric), detector)
}

/// Breaks the dual-versioning victim guard (the store overwrites the
/// *active* version) and verifies the detector reports the violation as
/// the victim-guard protocol lint. Exits nonzero if it goes undetected.
fn selftest(base_seed: u64, quick: bool) {
    let mut cfg = RunConfig::new(HeronConfig::new(2, 3), Workload::Tpcc).quick(quick);
    cfg.seed = base_seed;
    println!("selftest: running TPC-C with the dual-versioning victim guard disabled");
    let (_, detector) = audited(&cfg, &[heron_core::SABOTAGE_DUAL_VERSION_GUARD]);
    let reports = detector.reports();
    let hits = reports
        .iter()
        .filter(|r| {
            r.kind == RaceKind::ProtocolLint
                && r.detail.contains("dual-version victim guard violated")
        })
        .count();
    if hits == 0 {
        println!(
            "selftest: FAIL — broken guard produced no victim-guard lint \
             ({} other report(s))",
            reports.len()
        );
        std::process::exit(1);
    }
    println!("{}", reports[0]);
    println!(
        "selftest: OK — {hits} victim-guard lint(s) caught \
         ({} remote reads checked)",
        detector.stats().remote_reads_checked
    );
}
