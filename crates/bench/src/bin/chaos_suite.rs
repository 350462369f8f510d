//! Chaos suite runner: N seeded schedules × generated fault plans through
//! the SMR consistency checker.
//!
//! Usage:
//!
//! ```text
//! cargo run -p heron-bench --release --bin chaos_suite [-- OPTIONS]
//!   --schedules N   number of seeded schedules to run (default 8)
//!   --seed S        base seed; schedule k runs with seed S+k (default 9000)
//!   --quick         shorter workloads per schedule
//!   --selftest      corrupt one applied command and verify the checker
//!                   catches it and the shrinker minimizes it
//! ```
//!
//! Exit status is nonzero iff any schedule fails (non-linearizable
//! history, store divergence, or stall). A failure is shrunk to a minimal
//! reproduction and the failing seed is printed for replay.

use heron_bench::chaos::{
    parallel_scenario_for_seed, pool_recovery_scenario_for_seed, recovery_scenario_for_seed, run,
    scenario_for_seed, shrink, RunResult,
};
use heron_bench::{arg_value, banner, quick_mode};

fn main() {
    banner(
        "chaos suite — fault-injected schedules through the consistency checker",
        "fault model of §IV; correctness argument of §III",
    );
    let schedules = arg_value("--schedules").unwrap_or(8);
    let base_seed = arg_value("--seed").unwrap_or(9000);
    let quick = quick_mode();

    if std::env::args().any(|a| a == "--selftest") {
        selftest(base_seed, quick);
        return;
    }

    let mut failures = Vec::new();
    // Width-1 scenarios, then the same seeds through a width-4 executor
    // pool (crash mid-batch / state transfer with workers in flight), then
    // the durable-recovery ladder (power loss + checkpoint/WAL rebuild) and
    // its pool rung (a width-4 replica cold-restarting; one schedule, on
    // the seed after the window).
    let scenarios = (0..schedules)
        .map(|k| scenario_for_seed(base_seed + k, quick))
        .chain((0..schedules).map(|k| parallel_scenario_for_seed(base_seed + k, quick)))
        .chain((0..schedules).map(|k| recovery_scenario_for_seed(base_seed + k, quick)))
        .chain([pool_recovery_scenario_for_seed(
            base_seed + schedules,
            quick,
        )]);
    for sc in scenarios {
        let seed = sc.seed;
        let width = sc.width;
        let kind = if sc.durability_us.is_some() {
            "recovery"
        } else if sc.width > 1 {
            "parallel"
        } else {
            "inline"
        };
        let (result, hash) = run(&sc);
        match &result {
            RunResult::Pass { ops } => {
                println!(
                    "seed {seed} ({kind}, width {width}): PASS — {ops} ops, schedule {hash:#018x}, \
                     {} fault clauses {:?}",
                    sc.clauses.len(),
                    sc.clauses
                );
            }
            RunResult::Stalled { pending } => {
                println!(
                    "seed {seed} ({kind}, width {width}): STALL — {pending} operations never completed"
                );
                failures.push((sc, result));
            }
            RunResult::Failed(v) => {
                println!("seed {seed} ({kind}, width {width}): FAIL — {v}");
                failures.push((sc, result));
            }
        }
    }

    if failures.is_empty() {
        println!(
            "chaos suite: all {schedules} schedules passed \
             (width 1 + width-4 pool + durable recovery)"
        );
        return;
    }

    for (sc, _) in &failures {
        println!(
            "\nshrinking failing seed {} to a minimal reproduction...",
            sc.seed
        );
        let (min, result) = shrink(sc);
        println!(
            "FAILING SEED {} — minimal reproduction: {} clients × {} requests, clauses {:?}",
            min.seed, min.clients, min.requests, min.clauses
        );
        match result {
            RunResult::Failed(v) => println!("  {v}"),
            RunResult::Stalled { pending } => println!("  stall: {pending} operations pending"),
            RunResult::Pass { .. } => unreachable!("shrink keeps only failing scenarios"),
        }
        println!(
            "  replay: cargo run -p heron-bench --release --bin chaos_suite -- \
             --seed {} --schedules 1{}",
            min.seed,
            if quick_mode() { " --quick" } else { "" }
        );
    }
    std::process::exit(1);
}

/// Corrupts one applied command after a clean run and verifies the checker
/// reports it (with the seed) and the shrinker strips the scenario to its
/// minimum. Exits nonzero if the checker misses the corruption.
fn selftest(base_seed: u64, quick: bool) {
    let mut sc = scenario_for_seed(base_seed, quick);
    sc.corrupt = Some((0, 1, 0));
    println!("selftest: corrupting object 0 at partition 0 replica 1 (seed {base_seed})");
    let (result, _) = run(&sc);
    if !result.failed() {
        println!("selftest: FAIL — checker did not detect the corruption");
        std::process::exit(1);
    }
    let (min, result) = shrink(&sc);
    match result {
        RunResult::Failed(v) => {
            println!("selftest: corruption detected — {v}");
            println!(
                "selftest: shrunk to {} clients × {} requests, {} clauses",
                min.clients,
                min.requests,
                min.clauses.len()
            );
            println!("selftest: OK");
        }
        other => {
            println!("selftest: FAIL — expected a violation after shrinking, got {other:?}");
            std::process::exit(1);
        }
    }
}
