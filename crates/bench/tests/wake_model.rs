//! System-level guards for the targeted wake-up model (DESIGN.md §12): a
//! landing write dispatches only the processes polling the bytes it
//! touched.

use heron_bench::syncapp::run_transfer;
use heron_bench::{run_heron_on, RunConfig, Workload};
use heron_core::{HeronConfig, StorageKind, TRANSFER_SLOTS, TRANSFER_TIMEOUT};

/// Fault-free null requests never involve the service process: no address
/// queries, no state transfer. It waits on its inbox alone, so it must
/// sleep through the whole run — under the node-wide condition it
/// was dispatched (and re-blocked) on every write that landed on its node,
/// tens of thousands of times.
#[test]
fn idle_service_processes_sleep_through_a_fault_free_run() {
    let cfg = RunConfig::new(HeronConfig::new(2, 3), Workload::Null).quick(true);
    let simulation = sim::Simulation::new(cfg.seed);
    let tracer = simulation.enable_tracing();
    let fabric = rdma_sim::Fabric::new(rdma_sim::LatencyModel::connectx4());
    let summary = run_heron_on(&cfg, &simulation, &fabric);
    assert!(summary.tps > 0.0);
    let prof = tracer.report();
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

/// Crash → recover: the recovered replica lags and requests a state
/// transfer larger than its staging ring, so the responder streams it under
/// flow control — a chunk one ring beyond the requester's `applied` word
/// waits until the requester applied the chunk in that slot. The
/// requester's driver applies the chunks itself and learns that one landed
/// only through its poller's subscription to the staging ring. A lost
/// wake-up leaves it asleep until its re-arm timeout while the responder
/// waits on a full ring, once per ring's worth of chunks.
#[test]
fn recovered_replica_completes_its_state_transfer() {
    let cfg = HeronConfig::new(2, 3);
    let ring = (TRANSFER_SLOTS * cfg.transfer_chunk) as u64;
    // 40 objects of a 16 416 B slot each: 640 KiB, 2.5 rings.
    let (bytes, took) = run_transfer(StorageKind::Serialized, 40, 8_192, |_| {});
    assert!(bytes > 2 * ring, "{bytes} B fit in a {ring} B ring");
    assert!(
        took < TRANSFER_TIMEOUT,
        "a {bytes} B transfer took {took:?}: the requester slept through landed chunks"
    );
}
