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

use heron_bench::{arg_value, banner, quick_mode, run_heron, run_heron_on, RunConfig, Workload};
use rdma_sim::RaceKind;
use std::time::Duration;

/// The audited schedule shapes: the fig4 workload ladder, the fig5 scale
/// point, and a chaos schedule that crashes and recovers a replica under
/// load so state transfer runs with the detector watching.
fn schedules(base_seed: u64, quick: bool) -> Vec<(&'static str, RunConfig)> {
    let shape = |k: u64, p: usize, w: Workload| {
        let mut cfg = RunConfig::new(p, 3, w)
            .quick(quick)
            .with_race_detector(true);
        cfg.seed = base_seed + k;
        cfg
    };
    let (down, up) = if quick {
        (Duration::from_millis(2), Duration::from_millis(5))
    } else {
        (Duration::from_millis(4), Duration::from_millis(12))
    };
    vec![
        ("fig4-null-2p", shape(0, 2, Workload::Null)),
        ("fig4-tpcc-local-2p", shape(1, 2, Workload::TpccLocal)),
        ("fig4-tpcc-2p", shape(2, 2, Workload::Tpcc)),
        ("fig5-tpcc-4p", shape(3, 4, Workload::Tpcc)),
        (
            "chaos-tpcc-2p",
            shape(4, 2, Workload::Tpcc).with_crash(down, up),
        ),
        // P-SMR: fig5-shaped parallel execution — pool workers share the
        // dual-version store and write disjoint coordination lanes; the
        // detector must see no races at any width, including under a
        // crash/recovery with workers in flight.
        (
            "psmr-tpcc-2p-w2",
            shape(5, 2, Workload::Tpcc)
                .with_warehouses_per_partition(8)
                .with_width(2),
        ),
        (
            "psmr-tpcc-2p-w4",
            shape(6, 2, Workload::Tpcc)
                .with_warehouses_per_partition(8)
                .with_width(4),
        ),
        (
            "psmr-tpcc-2p-w8",
            shape(7, 2, Workload::Tpcc)
                .with_warehouses_per_partition(8)
                .with_width(8)
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
        let summary = run_heron(&cfg);
        let audit = summary.audit.as_ref().expect("detector was enabled");
        let s = audit.stats;
        println!(
            "{name:<20} seed {:<6} {:>9.0} tps  {:>8} remote reads checked  \
             {:>10} cells  {:>7.1} MiB shadow  {:>4} in-flux  {} report(s)",
            cfg.seed,
            summary.tps,
            s.remote_reads_checked,
            s.cells_checked,
            s.shadow_bytes as f64 / (1 << 20) as f64,
            s.influx_windows,
            audit.reports.len(),
        );
        if s.cells_checked == 0 {
            println!("  WARNING: no shadow cells checked — schedule exercised nothing");
            failed = true;
        }
        for report in &audit.reports {
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

/// Breaks the dual-versioning victim guard (the store overwrites the
/// *active* version) and verifies the detector reports the violation as
/// the victim-guard protocol lint. Exits nonzero if it goes undetected.
fn selftest(base_seed: u64, quick: bool) {
    let mut cfg = RunConfig::new(2, 3, Workload::Tpcc)
        .quick(quick)
        .with_race_detector(true);
    cfg.seed = base_seed;
    let fabric = rdma_sim::Fabric::new(rdma_sim::LatencyModel::connectx4());
    fabric.sabotage(heron_core::SABOTAGE_DUAL_VERSION_GUARD);
    println!("selftest: running TPC-C with the dual-versioning victim guard disabled");
    let summary = run_heron_on(&cfg, &fabric);
    let audit = summary.audit.expect("detector was enabled");
    let hits = audit
        .reports
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
            audit.reports.len()
        );
        std::process::exit(1);
    }
    println!("{}", audit.reports[0]);
    println!(
        "selftest: OK — {hits} victim-guard lint(s) caught \
         ({} remote reads checked)",
        audit.stats.remote_reads_checked
    );
}
