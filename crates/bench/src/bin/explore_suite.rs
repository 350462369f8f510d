//! Sim-Check: systematic schedule exploration over the benchmark shapes
//! (DESIGN.md §15). Sweeps the fig4 / chaos / recovery schedule shapes
//! under the random-walk, PCT and bounded-preemption strategies with the
//! deadlock and livelock detectors armed, and shrinks any violating
//! schedule to a minimal replayable deviation trace.
//!
//! Usage:
//!
//! ```text
//! cargo run -p heron-bench --release --bin explore_suite [-- OPTIONS]
//!   --seed S        base seed for shapes and strategies (default 42)
//!   --quick         smaller shapes and a smaller schedule budget
//!   --gate          tier-1 mode: every shape clean under Baseline with the
//!                   detectors armed, plus a fixed-seed random/PCT budget
//!   --selftest      prove the detectors catch an injected deadlock, an
//!                   injected livelock, and the re-broken PR 8 `has_work`
//!                   livelock — each shrunk to a replayable minimal trace
//! ```
//!
//! Exit status is nonzero iff any explored schedule reports a violation
//! (or stalls) or a self-test bug goes undetected. That Baseline
//! exploration leaves the schedule alone is pinned in
//! `tests/schedule_hash.rs`.

use heron_bench::chaos::{
    self, recovery_scenario_for_seed, scenario_for_seed, RunResult, Scenario,
};
use heron_bench::{arg_value, banner, quick_mode, run_heron_on, RunConfig, Workload};
use heron_core::HeronConfig;
use rdma_sim::{Fabric, LatencyModel};
use sim::{
    shrink_trace, Cond, ExploreConfig, ExploreReport, LivelockKind, Mailbox, ScheduleTrace,
    Simulation, StrategyKind, Violation,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

// ----------------------------------------------------------------------
// Shapes: the schedule families the suite explores.
// ----------------------------------------------------------------------

enum Shape {
    /// A fig4-style load run (window mode, no checker).
    Fig4(Box<RunConfig>),
    /// A chaos / recovery scenario through the consistency checker.
    Chaos(Scenario),
}

fn shapes(base_seed: u64, quick: bool) -> Vec<(&'static str, Shape)> {
    let mut fig4 = RunConfig::new(HeronConfig::new(2, 3), Workload::Tpcc);
    fig4.seed = base_seed;
    // Exploration multiplies per-pop work; a short window still crosses
    // thousands of choice points per run.
    fig4.warmup = Duration::from_millis(1);
    fig4.window = Duration::from_millis(if quick { 3 } else { 6 });
    vec![
        ("fig4-tpcc-2p", Shape::Fig4(Box::new(fig4))),
        (
            "chaos-2x3",
            Shape::Chaos(scenario_for_seed(base_seed, quick)),
        ),
        (
            "recovery-1x3",
            Shape::Chaos(recovery_scenario_for_seed(base_seed, quick)),
        ),
    ]
}

/// Runs one shape under one exploration strategy on `fabric` (fresh, or
/// sabotaged by a self-test). Returns `(completed cleanly, schedule hash,
/// exploration report)`.
fn explore_on(
    shape: &Shape,
    strategy: StrategyKind,
    fabric: &Fabric,
) -> (bool, u64, ExploreReport) {
    let seed = match shape {
        Shape::Fig4(rc) => rc.seed,
        Shape::Chaos(sc) => sc.seed,
    };
    let simulation = Simulation::new(seed);
    simulation.enable_exploration(ExploreConfig::new(strategy));
    let ok = match shape {
        Shape::Fig4(rc) => {
            run_heron_on(rc, &simulation, fabric);
            true
        }
        Shape::Chaos(sc) => matches!(
            chaos::run_on(sc, &simulation, fabric, sc.config()),
            RunResult::Pass { .. }
        ),
    };
    let report = simulation
        .explore_report()
        .expect("exploration was enabled");
    (ok, simulation.schedule_hash(), report)
}

/// [`explore_on`] a fresh fabric, without the hash.
fn run_shape(shape: &Shape, strategy: StrategyKind) -> (bool, ExploreReport) {
    let (ok, _, report) = explore_on(shape, strategy, &Fabric::new(LatencyModel::connectx4()));
    (ok, report)
}

// ----------------------------------------------------------------------
// Sweep mode: fig4/chaos/recovery × {random walk, PCT, preemption sweep}.
// ----------------------------------------------------------------------

fn sweep(base_seed: u64, quick: bool) {
    let (walks, preemption_budget) = if quick { (2u64, 3usize) } else { (4, 8) };
    let mut failed = false;
    let mut total_runs = 0u64;
    let wall = std::time::Instant::now();
    for (name, shape) in shapes(base_seed, quick) {
        // Baseline pass: proves the shape is clean unexplored and logs the
        // choice points the bounded-preemption sweep forces below.
        let (ok, report) = run_shape(&shape, StrategyKind::Baseline);
        total_runs += 1;
        let mut strategies: Vec<(String, StrategyKind)> = Vec::new();
        for k in 0..walks {
            strategies.push((
                format!("random#{k}"),
                StrategyKind::Random {
                    seed: base_seed + k,
                },
            ));
            strategies.push((
                format!("pct#{k}"),
                StrategyKind::Pct {
                    seed: base_seed + k,
                    depth: 3,
                },
            ));
        }
        // Bounded preemption: force exactly one non-baseline choice at
        // evenly spaced recorded choice points (d = 1 of the preemption-
        // bounding hierarchy; PCT above covers larger d randomly).
        let stride = (report.choice_points.len() / preemption_budget.max(1)).max(1);
        for (i, cp) in report
            .choice_points
            .iter()
            .step_by(stride)
            .take(preemption_budget)
            .enumerate()
        {
            strategies.push((
                format!("preempt#{i}@{}", cp.step),
                StrategyKind::Scripted {
                    decisions: vec![(cp.step, 1)],
                },
            ));
        }
        failed |= !check_clean(name, "baseline", ok, &report);
        for (label, strategy) in strategies {
            let (ok, rep) = run_shape(&shape, strategy);
            total_runs += 1;
            if !check_clean(name, &label, ok, &rep) {
                failed = true;
                shrink_and_report(&shape, &rep);
            }
        }
        println!(
            "{name:<14} explored: {} schedule(s), max ready set {}, max wait graph {}",
            1 + walks * 2 + preemption_budget as u64,
            report.max_ready,
            report.max_wait_graph,
        );
    }
    let secs = wall.elapsed().as_secs_f64();
    println!(
        "explore suite: {total_runs} schedules in {secs:.1}s ({:.2} schedules/sec)",
        total_runs as f64 / secs
    );
    if failed {
        println!("explore suite: FAIL");
        std::process::exit(1);
    }
    println!("explore suite: all explored schedules clean");
}

/// Prints and classifies one explored run; `true` when clean.
fn check_clean(shape: &str, strategy: &str, ok: bool, report: &ExploreReport) -> bool {
    if !report.clean() {
        println!("{shape} [{strategy}]: VIOLATION under exploration:");
        for v in &report.violations {
            println!("  {v}");
        }
        println!("  deviation trace: {}", report.trace);
        return false;
    }
    if !ok {
        println!(
            "{shape} [{strategy}]: run did not complete cleanly under exploration \
             (no detector verdict — liveness suspect)"
        );
        return false;
    }
    true
}

/// Shrinks a violating schedule against its shape and prints the minimal
/// replayable trace.
fn shrink_and_report(shape: &Shape, report: &ExploreReport) {
    let still_fails = |t: &ScheduleTrace| {
        let (_, rep) = run_shape(shape, StrategyKind::Replay { trace: t.clone() });
        !rep.clean()
    };
    let minimal = shrink_trace(&report.trace, still_fails);
    println!(
        "  shrunk {} deviation(s) -> {} deviation(s); replay with trace: {}",
        report.trace.len(),
        minimal.len(),
        minimal
    );
}

// ----------------------------------------------------------------------
// Gate mode (tier-1): detectors clean on Baseline + fixed-seed budget.
// ----------------------------------------------------------------------

fn gate(base_seed: u64, quick: bool) {
    let mut failed = false;
    // Every shape in the kernel's native order, detectors armed: no
    // deadlock, no livelock, and the run completes.
    for (name, shape) in shapes(base_seed, quick) {
        let (ok, rep) = run_shape(&shape, StrategyKind::Baseline);
        if check_clean(name, "baseline", ok, &rep) {
            println!(
                "{name:<14} baseline: clean ({} choice point(s), max ready set {})",
                rep.steps, rep.max_ready
            );
        } else {
            failed = true;
        }
    }
    // Fixed-seed exploration budget: a handful of random/PCT schedules per
    // chaos shape must stay violation-free and pass the checker.
    let budget: Vec<(&str, Scenario, StrategyKind)> = vec![
        (
            "chaos-2x3",
            scenario_for_seed(base_seed, quick),
            StrategyKind::Random {
                seed: base_seed + 1,
            },
        ),
        (
            "chaos-2x3",
            scenario_for_seed(base_seed, quick),
            StrategyKind::Pct {
                seed: base_seed + 1,
                depth: 3,
            },
        ),
        (
            "recovery-1x3",
            recovery_scenario_for_seed(base_seed, quick),
            StrategyKind::Random {
                seed: base_seed + 2,
            },
        ),
    ];
    for (name, sc, strategy) in budget {
        let (ok, rep) = run_shape(&Shape::Chaos(sc), strategy.clone());
        if !check_clean(name, &format!("{strategy:?}"), ok, &rep) {
            failed = true;
        } else {
            println!(
                "{name:<14} {strategy:?}: clean ({} step(s), {} preemption(s))",
                rep.steps, rep.preemptions
            );
        }
    }
    if failed {
        println!("explore gate: FAIL");
        std::process::exit(1);
    }
    println!("explore gate: PASS");
}

// ----------------------------------------------------------------------
// Self-test: injected deadlock, injected livelock, re-broken PR 8 gate.
// ----------------------------------------------------------------------

/// Concurrency noise so strategies have real choice points to deviate on:
/// three workers fan out of a cond every round and ping a sink mailbox.
/// Every noise process terminates.
fn spawn_noise(sim: &Simulation) {
    let cond = Cond::new();
    let round = Arc::new(AtomicU64::new(0));
    let (tx, rx) = Mailbox::<u64>::pair();
    for w in 0..3u64 {
        let cond = cond.clone();
        let round = round.clone();
        let tx = tx.clone();
        sim.spawn(format!("noise{w}"), move || {
            for r in 1..=10u64 {
                cond.wait_while(|| round.load(Ordering::SeqCst) < r);
                tx.send(w).unwrap();
                sim::sleep(Duration::from_nanos(w % 3));
            }
        });
    }
    sim.spawn("noise-clock", move || {
        for _ in 0..10 {
            sim::sleep(Duration::from_nanos(100));
            round.fetch_add(1, Ordering::SeqCst);
            cond.notify_all();
        }
    });
    sim.spawn("noise-sink", move || {
        for _ in 0..30 {
            rx.recv();
        }
    });
}

/// Injected bug #1: a cross-mailbox deadlock (one good round for notify
/// history, then both processes recv forever).
fn injected_deadlock(sim: &Simulation) {
    spawn_noise(sim);
    let (tx_a, rx_a) = Mailbox::<u32>::pair();
    let (tx_b, rx_b) = Mailbox::<u32>::pair();
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
}

/// Injected bug #2: a zero-virtual-time yield spin that starts mid-run.
fn injected_livelock(sim: &Simulation) {
    spawn_noise(sim);
    sim.spawn("spinner", || {
        sim::sleep(Duration::from_nanos(300));
        loop {
            sim::yield_now();
        }
    });
}

/// Runs an injected-bug workload under `strategy`; the run either ends in
/// detected quiescence (deadlock) or is stopped by a livelock guard.
fn run_injected(build: fn(&Simulation), strategy: StrategyKind) -> (u64, ExploreReport) {
    let sim = Simulation::new(11);
    let mut cfg = ExploreConfig::new(strategy);
    cfg.dispatch_spin_threshold = 256;
    sim.enable_exploration(cfg);
    build(&sim);
    let _ = sim.run(); // a detected deadlock surfaces as Err; that's the point
    (
        sim.schedule_hash(),
        sim.explore_report().expect("exploration was enabled"),
    )
}

/// Shrinks the violating trace of an injected bug and proves the minimal
/// trace replays to the bug. Returns `false` if it does not.
fn prove_injected(
    name: &str,
    build: fn(&Simulation),
    matches_bug: impl Fn(&Violation) -> bool,
) -> bool {
    let (_, report) = run_injected(build, StrategyKind::Random { seed: 5 });
    let Some(v) = report.violations.iter().find(|v| matches_bug(v)) else {
        println!("selftest [{name}]: FAIL — injected bug not detected: {report:?}");
        return false;
    };
    println!("selftest [{name}]: caught: {v}");
    let minimal = shrink_trace(&report.trace, |t| {
        let (_, rep) = run_injected(build, StrategyKind::Replay { trace: t.clone() });
        rep.violations.iter().any(&matches_bug)
    });
    println!(
        "selftest [{name}]: shrunk {} -> {} deviation(s); minimal trace: {}",
        report.trace.len(),
        minimal.len(),
        minimal
    );
    let (hash, rep) = run_injected(build, StrategyKind::Replay { trace: minimal });
    if !rep.violations.iter().any(&matches_bug) {
        println!("selftest [{name}]: FAIL — minimal trace lost the bug on replay");
        return false;
    }
    println!("selftest [{name}]: minimal trace replays to the bug (hash {hash:#018x})");
    true
}

/// Whether a report carries the PR 8 poll-spin (an ordering-layer process
/// spinning on its node's memory cond with zero progress).
fn has_poll_spin(report: &ExploreReport) -> bool {
    report.violations.iter().any(|v| {
        matches!(
            v,
            Violation::Livelock {
                kind: LivelockKind::PollSpin,
                label: "rdma.mem",
                ..
            }
        )
    })
}

/// Injected bug #3: the PR 8 `has_work` livelock, re-introduced by
/// dropping the `await_epoch` gate on the truncation-horizon check. Scans
/// `scan` recovery-scenario seeds from `base_seed` for a schedule where a
/// revived replica sees an advertised log floor past its applied position
/// before its first heartbeat — the exact shape PR 8 shipped and fixed.
fn prove_rebroken_has_work(base_seed: u64, quick: bool, scan: u64) -> bool {
    // One recovery scenario with the gate broken, under `strategy`.
    let run_broken = |sc: &Scenario, strategy: StrategyKind| {
        let fabric = Fabric::new(LatencyModel::connectx4());
        fabric.sabotage(amcast::SABOTAGE_HAS_WORK_GATE);
        let (_, hash, rep) = explore_on(&Shape::Chaos(sc.clone()), strategy, &fabric);
        (hash, rep)
    };
    let mut found: Option<(u64, Scenario, ExploreReport)> = None;
    for s in 0..scan {
        let sc = recovery_scenario_for_seed(base_seed + s, quick);
        let (_, rep) = run_broken(&sc, StrategyKind::Baseline);
        if has_poll_spin(&rep) {
            found = Some((base_seed + s, sc, rep));
            break;
        }
    }
    let Some((seed, sc, report)) = found else {
        println!(
            "selftest [has-work]: FAIL — broken gate produced no poll-spin livelock in \
             {scan} recovery seeds from {base_seed}"
        );
        return false;
    };
    let v = report
        .violations
        .iter()
        .find(|v| matches!(v, Violation::Livelock { .. }))
        .expect("poll-spin present");
    println!("selftest [has-work]: seed {seed} caught: {v}");
    let minimal = shrink_trace(&report.trace, |t| {
        has_poll_spin(&run_broken(&sc, StrategyKind::Replay { trace: t.clone() }).1)
    });
    println!(
        "selftest [has-work]: shrunk {} -> {} deviation(s); minimal trace: {}",
        report.trace.len(),
        minimal.len(),
        minimal
    );
    let (hash, rep) = run_broken(&sc, StrategyKind::Replay { trace: minimal });
    if !has_poll_spin(&rep) {
        println!("selftest [has-work]: FAIL — minimal trace lost the bug on replay");
        return false;
    }
    println!("selftest [has-work]: minimal trace replays to the bug (hash {hash:#018x})");
    // The shipped (gated) code must stay quiet on the very same schedule.
    let (ok, rep) = run_shape(&Shape::Chaos(sc), StrategyKind::Baseline);
    if !rep.clean() || !ok {
        println!("selftest [has-work]: FAIL — fixed gate still flagged on seed {seed}");
        return false;
    }
    println!("selftest [has-work]: fixed gate runs the same seed clean");
    true
}

/// `base_seed` starts the `has_work` scan; by default it starts at the
/// mode's pinned first hit ([`chaos::REBROKEN_HAS_WORK_SEEDS`]).
fn selftest(base_seed: Option<u64>, quick: bool) {
    let (quick_seed, full_seed) = chaos::REBROKEN_HAS_WORK_SEEDS;
    let base_seed = base_seed.unwrap_or(if quick { quick_seed } else { full_seed });
    let scan = 8;
    let mut ok = true;
    ok &= prove_injected("deadlock", injected_deadlock, |v| {
        matches!(v, Violation::Deadlock { cycle, .. }
            if cycle.iter().any(|n| n == "alice") && cycle.iter().any(|n| n == "bob"))
    });
    ok &= prove_injected("livelock", injected_livelock, |v| {
        matches!(
            v,
            Violation::Livelock {
                kind: LivelockKind::SchedulerSpin,
                proc_name,
                ..
            } if proc_name == "spinner"
        )
    });
    ok &= prove_rebroken_has_work(base_seed, quick, scan);
    if !ok {
        println!("explore selftest: FAIL");
        std::process::exit(1);
    }
    println!("explore selftest: all three injected bugs caught and shrunk");
}

fn main() {
    banner(
        "explore suite — systematic schedule exploration with deadlock/livelock detection",
        "determinism substrate of §IV; PCT after Burckhardt et al., ASPLOS'10",
    );
    let quick = quick_mode();
    if std::env::args().any(|a| a == "--selftest") {
        selftest(arg_value("--seed"), quick);
        return;
    }
    let base_seed = arg_value("--seed").unwrap_or(42);
    if std::env::args().any(|a| a == "--gate") {
        gate(base_seed, quick);
        return;
    }
    sweep(base_seed, quick);
}
