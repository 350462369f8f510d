//! System-level guards for the targeted wake-up model (DESIGN.md §12): a
//! landing write dispatches only the processes polling the bytes it
//! touched.

use heron_bench::{run_heron, RunConfig, Workload};
use std::time::Duration;

/// Fault-free null requests never involve the service process: no address
/// queries, no state transfer. It polls its inbox and the staging ring, so
/// it must sleep through the whole run — under the node-wide condition it
/// was dispatched (and re-blocked) on every write that landed on its node,
/// tens of thousands of times.
#[test]
fn idle_service_processes_sleep_through_a_fault_free_run() {
    let summary = run_heron(
        &RunConfig::new(2, 3, Workload::Null)
            .quick(true)
            .with_profiling(true),
    );
    assert!(summary.tps > 0.0);
    let prof = summary.prof.expect("profiling was on");
    let services: Vec<_> = prof
        .procs
        .iter()
        .filter(|p| p.name.starts_with("heron-svc-"))
        .collect();
    assert_eq!(services.len(), 6, "one service process per replica");
    for p in services {
        let dispatches = p
            .states
            .iter()
            .find(|s| s.state == "running")
            .map_or(0, |s| s.transitions);
        assert!(
            dispatches <= 8,
            "{} was dispatched {dispatches} times in a run that never needs it",
            p.name
        );
    }
}

/// Crash → recover under load: the recovered replica lags, requests a
/// state transfer, and its service process must apply the chunks — which
/// it only learns about through its subscription to the staging ring. A
/// lost wake-up would leave the transfer started but never completed.
#[test]
fn recovered_replica_completes_its_state_transfer() {
    let summary = run_heron(
        &RunConfig::new(2, 3, Workload::Tpcc)
            .quick(true)
            .with_crash(Duration::from_millis(2), Duration::from_millis(4)),
    );
    assert!(summary.transfers_started >= 1, "the victim must lag");
    assert!(
        summary.transfers_completed >= 1,
        "{} transfers started, none completed",
        summary.transfers_started
    );
}
