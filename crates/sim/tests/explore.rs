//! Integration tests for `sim::explore`: baseline bit-identity, replayable
//! deviation traces, and the deadlock / livelock detectors.

use sim::{
    Cond, ExploreConfig, LivelockKind, Mailbox, ScheduleTrace, SimError, Simulation, StrategyKind,
    Violation,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A workload with plenty of same-instant ready sets: one notifier fans a
/// cond out to several workers every round, and the workers ping a shared
/// counter mailbox.
fn fanout_workload(sim: &Simulation) {
    let cond = Cond::new();
    let round = Arc::new(AtomicU64::new(0));
    let (tx, rx) = Mailbox::<u64>::pair();
    for w in 0..4u64 {
        let cond = cond.clone();
        let round = round.clone();
        let tx = tx.clone();
        sim.spawn(format!("worker{w}"), move || {
            for r in 1..=20u64 {
                cond.wait_while(|| round.load(Ordering::SeqCst) < r);
                tx.send(w).unwrap();
                sim::sleep(Duration::from_nanos(w % 3));
            }
        });
    }
    sim.spawn("notifier", move || {
        for _ in 0..20 {
            sim::sleep(Duration::from_nanos(100));
            round.fetch_add(1, Ordering::SeqCst);
            cond.notify_all();
        }
    });
    sim.spawn("sink", move || {
        for _ in 0..80 {
            rx.recv();
        }
    });
}

fn run_fanout(explore: Option<ExploreConfig>) -> (u64, u64) {
    let sim = Simulation::new(7);
    if let Some(cfg) = explore {
        sim.enable_exploration(cfg);
    }
    fanout_workload(&sim);
    sim.run().unwrap();
    (sim.schedule_hash(), sim.events_executed())
}

#[test]
fn baseline_exploration_is_bit_identical() {
    assert_eq!(
        run_fanout(Some(ExploreConfig::new(StrategyKind::Baseline))),
        run_fanout(None),
        "baseline exploration must not perturb the schedule"
    );
}

#[test]
fn random_walk_deviates_and_replays_bit_identically() {
    let baseline = run_fanout(None);
    let sim = Simulation::new(7);
    sim.enable_exploration(ExploreConfig::new(StrategyKind::Random { seed: 3 }));
    fanout_workload(&sim);
    sim.run().unwrap();
    let report = sim.explore_report().unwrap();
    assert!(report.clean(), "fanout workload must be violation-free");
    assert!(report.steps > 0, "workload must expose choice points");
    assert!(report.max_ready >= 2, "ready sets must be non-trivial");
    assert!(
        report.preemptions > 0,
        "random walk must deviate from baseline on this workload"
    );
    let explored = (sim.schedule_hash(), sim.events_executed());
    assert_ne!(explored.0, baseline.0, "deviating schedule, deviating hash");

    // The trace round-trips through its string encoding and replays to the
    // identical schedule.
    let encoded = report.trace.encode();
    let trace = ScheduleTrace::parse(&encoded).unwrap();
    assert_eq!(
        run_fanout(Some(ExploreConfig::new(StrategyKind::Replay { trace }))),
        explored,
        "trace replay must be bit-identical"
    );
}

#[test]
fn pct_is_deterministic_and_seed_sensitive() {
    let run = |seed| {
        let sim = Simulation::new(7);
        sim.enable_exploration(ExploreConfig::new(StrategyKind::Pct { seed, depth: 3 }));
        fanout_workload(&sim);
        sim.run().unwrap();
        (sim.schedule_hash(), sim.explore_report().unwrap().trace)
    };
    assert_eq!(run(1), run(1));
    let hashes: Vec<u64> = (0..4).map(|s| run(s).0).collect();
    assert!(
        hashes.windows(2).any(|w| w[0] != w[1]),
        "PCT seeds must explore different schedules: {hashes:?}"
    );
}

#[test]
fn cross_blocked_mailboxes_report_a_deadlock_cycle() {
    let sim = Simulation::new(1);
    sim.enable_exploration(ExploreConfig::new(StrategyKind::Baseline));
    let (tx_a, rx_a) = Mailbox::<u32>::pair();
    let (tx_b, rx_b) = Mailbox::<u32>::pair();
    // One successful round establishes notify history (alice has notified
    // bob's mailbox cond and vice versa), then both block forever.
    sim.spawn("alice", move || {
        tx_b.send(1).unwrap();
        assert_eq!(rx_a.recv(), 2);
        rx_a.recv(); // never sent
    });
    sim.spawn("bob", move || {
        assert_eq!(rx_b.recv(), 1);
        tx_a.send(2).unwrap();
        rx_b.recv(); // never sent
    });
    match sim.run() {
        Err(SimError::Deadlock { .. }) => {}
        other => panic!("expected deadlock, got {other:?}"),
    }
    let report = sim.explore_report().unwrap();
    let deadlock = report
        .violations
        .iter()
        .find_map(|v| match v {
            Violation::Deadlock { cycle, waits } => Some((cycle.clone(), waits.clone())),
            _ => None,
        })
        .expect("deadlock violation");
    let (cycle, waits) = deadlock;
    assert_eq!(waits.len(), 2, "both blocked waits reported: {waits:?}");
    assert!(waits.iter().all(|w| w.label == "mailbox" && !w.timed));
    assert!(
        cycle.iter().any(|n| n == "alice") && cycle.iter().any(|n| n == "bob"),
        "cycle must name both processes: {cycle:?}"
    );
}

#[test]
fn orphaned_wait_is_reported_without_a_cycle() {
    let sim = Simulation::new(1);
    sim.enable_exploration(ExploreConfig::new(StrategyKind::Baseline));
    sim.spawn("stuck", || {
        Cond::labeled("test.orphan").wait(); // nobody will ever notify
    });
    assert!(matches!(sim.run(), Err(SimError::Deadlock { .. })));
    let report = sim.explore_report().unwrap();
    match &report.violations[..] {
        [Violation::Deadlock { cycle, waits }] => {
            assert!(cycle.is_empty(), "no notifier history, no cycle");
            assert_eq!(waits.len(), 1);
            assert_eq!(waits[0].label, "test.orphan");
        }
        other => panic!("expected one deadlock, got {other:?}"),
    }
}

#[test]
fn yield_spin_trips_the_scheduler_livelock_guard() {
    let sim = Simulation::new(1);
    let mut cfg = ExploreConfig::new(StrategyKind::Baseline);
    cfg.dispatch_spin_threshold = 64;
    sim.enable_exploration(cfg);
    sim.spawn("spinner", || loop {
        sim::yield_now();
    });
    sim.run().unwrap(); // detector stops the run instead of spinning forever
    let report = sim.explore_report().unwrap();
    match &report.violations[..] {
        [Violation::Livelock {
            proc_name, kind, ..
        }] => {
            assert_eq!(proc_name, "spinner");
            assert_eq!(*kind, LivelockKind::SchedulerSpin);
        }
        other => panic!("expected one livelock, got {other:?}"),
    }
}

#[test]
fn unblocked_poll_spin_trips_the_poll_guard() {
    let sim = Simulation::new(1);
    let mut cfg = ExploreConfig::new(StrategyKind::Baseline);
    cfg.poll_spin_threshold = 64;
    sim.enable_exploration(cfg);
    sim.spawn("poller", || {
        let cond = Cond::labeled("test.poll");
        // The predicate is always already satisfied, so the wait never
        // blocks and the loop burns zero virtual time — the scheduler
        // never even sees it (the PR 8 `has_work` shape).
        loop {
            cond.wait_while(|| false);
        }
    });
    sim.run().unwrap();
    let report = sim.explore_report().unwrap();
    match &report.violations[..] {
        [Violation::Livelock {
            proc_name,
            kind,
            label,
            ..
        }] => {
            assert_eq!(proc_name, "poller");
            assert_eq!(*kind, LivelockKind::PollSpin);
            assert_eq!(*label, "test.poll");
        }
        other => panic!("expected one livelock, got {other:?}"),
    }
}

#[test]
fn progress_hook_suppresses_the_livelock_guards() {
    // Same yield spin, but each iteration reports protocol progress — the
    // guard must stay quiet (a busy same-instant cascade is not a livelock
    // when watermarks move).
    let sim = Simulation::new(1);
    let mut cfg = ExploreConfig::new(StrategyKind::Baseline);
    cfg.dispatch_spin_threshold = 64;
    sim.enable_exploration(cfg);
    sim.spawn("worker", || {
        for _ in 0..1000 {
            sim::note_progress();
            sim::yield_now();
        }
    });
    sim.run().unwrap();
    let report = sim.explore_report().unwrap();
    assert!(report.clean(), "progress must clear the spin watch");
    assert!(report.progress >= 1000);
}
