//! Satellite of DESIGN.md §15: a recorded violating schedule replays to
//! the identical schedule hash *and* the identical detector report.

use heron_bench::chaos::{self, recovery_scenario_for_seed, Scenario, REBROKEN_HAS_WORK_SEEDS};
use rdma_sim::{Fabric, LatencyModel};
use sim::{
    Cond, ExploreConfig, ExploreReport, LivelockKind, Mailbox, ScheduleTrace, Simulation,
    StrategyKind, Violation,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A workload that violates under exploration: fan-out noise (so a random
/// walk records real deviations) plus a poller whose `wait_while`
/// predicate is always satisfied — the PR 8 zero-virtual-time shape.
fn poll_spin_workload(sim: &Simulation) {
    let cond = Cond::new();
    let round = Arc::new(AtomicU64::new(0));
    let (tx, rx) = Mailbox::<u64>::pair();
    for w in 0..3u64 {
        let cond = cond.clone();
        let round = round.clone();
        let tx = tx.clone();
        sim.spawn(format!("noise{w}"), move || {
            for r in 1..=8u64 {
                cond.wait_while(|| round.load(Ordering::SeqCst) < r);
                tx.send(w).unwrap();
            }
        });
    }
    sim.spawn("clock", move || {
        for _ in 0..8 {
            sim::sleep(Duration::from_nanos(100));
            round.fetch_add(1, Ordering::SeqCst);
            cond.notify_all();
        }
    });
    sim.spawn("sink", move || {
        for _ in 0..24 {
            rx.recv();
        }
    });
    sim.spawn("poller", || {
        sim::sleep(Duration::from_nanos(250));
        let cond = Cond::labeled("test.poll");
        loop {
            cond.wait_while(|| false);
        }
    });
}

fn run_poll_spin(strategy: StrategyKind) -> (u64, ExploreReport) {
    let sim = Simulation::new(3);
    let mut cfg = ExploreConfig::new(strategy);
    cfg.poll_spin_threshold = 64;
    sim.enable_exploration(cfg);
    poll_spin_workload(&sim);
    sim.run().expect("livelock guard stops the run cleanly");
    (
        sim.schedule_hash(),
        sim.explore_report().expect("exploration was enabled"),
    )
}

/// A random walk records a violating schedule with real deviations; the
/// encoded trace replays to the identical hash and the identical report.
#[test]
fn violating_random_walk_replays_identically() {
    let (hash, report) = run_poll_spin(StrategyKind::Random { seed: 9 });
    assert!(
        matches!(
            report.violations[..],
            [Violation::Livelock {
                kind: LivelockKind::PollSpin,
                ..
            }]
        ),
        "expected one poll-spin livelock: {:?}",
        report.violations
    );
    assert!(
        !report.trace.is_empty(),
        "random walk must record deviations on this workload"
    );
    // Round-trip through the wire encoding, as a regression pin would.
    let trace = ScheduleTrace::parse(&report.trace.encode()).expect("trace round-trips");
    let (h, rep) = run_poll_spin(StrategyKind::Replay { trace });
    assert_eq!(h, hash, "schedule hash must replay exactly");
    assert_eq!(rep, report, "detector report must replay exactly");
}

/// Runs `sc` under `strategy` on a fabric sabotaged with
/// [`amcast::SABOTAGE_HAS_WORK_GATE`]; returns the schedule hash and the
/// exploration report.
fn run_broken(sc: &Scenario, strategy: StrategyKind) -> (u64, ExploreReport) {
    let simulation = Simulation::new(sc.seed);
    simulation.enable_exploration(ExploreConfig::new(strategy));
    let fabric = Fabric::new(LatencyModel::connectx4());
    fabric.sabotage(amcast::SABOTAGE_HAS_WORK_GATE);
    chaos::run_on(sc, &simulation, &fabric, sc.config());
    let report = simulation
        .explore_report()
        .expect("exploration was enabled");
    (simulation.schedule_hash(), report)
}

/// The same property at the full-system level: the recovery scenario that
/// re-triggers the PR 8 `has_work` livelock (broken gate) replays its
/// recorded schedule to the identical hash and report.
#[test]
fn rebroken_has_work_schedule_replays_identically() {
    // The same short scan the suite's self-test uses: from the pinned first
    // quick recovery seed whose schedule revives a replica against an
    // advertised truncation horizon.
    let (first, _) = REBROKEN_HAS_WORK_SEEDS;
    let mut found = None;
    for seed in first..first + 8 {
        let sc = recovery_scenario_for_seed(seed, true);
        let (hash, rep) = run_broken(&sc, StrategyKind::Baseline);
        let poll_spin = rep.violations.iter().any(|v| {
            matches!(
                v,
                Violation::Livelock {
                    kind: LivelockKind::PollSpin,
                    label: "rdma.mem",
                    ..
                }
            )
        });
        if poll_spin {
            found = Some((sc, hash, rep));
            break;
        }
    }
    let (sc, hash, report) = found.expect("a recovery seed in the scan must trip the broken gate");
    let replay = StrategyKind::Replay {
        trace: report.trace.clone(),
    };
    let (h, rep) = run_broken(&sc, replay);
    assert_eq!(h, hash, "schedule hash must replay exactly");
    assert_eq!(rep, report, "detector report must replay exactly");
}
