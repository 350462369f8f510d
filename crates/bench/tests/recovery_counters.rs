//! Recovery-counter accounting (DESIGN.md §14): `Metrics::replayed_frames`
//! must equal the WAL-tail frames actually fed through the delivery path on a
//! cold restart — not the tail length at entry, which over-counts when a
//! second power cut interrupts the replay loop.

use heron_bench::chaos::{self, Bank};
use heron_core::{HeronCluster, HeronConfig, PartitionId};
use rdma_sim::{Fabric, LatencyModel};
use sim::SimTime;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// One clean power cycle with no checkpoint on disk: the cold restart
/// replays the entire WAL, so `replayed_frames` must equal the victim's
/// WAL frame count exactly.
#[test]
fn recover_replayed_matches_wal_tail() {
    const ACCOUNTS: u64 = 6;
    let simulation = sim::Simulation::new(9);
    let fabric = Fabric::new(LatencyModel::connectx4());
    // Untraced: the counters are plain fields, recorded whatever the
    // tracing knob says.
    let cfg = HeronConfig::new(1, 3).with_durability(
        sim::storage::Storage::new(sim::storage::DiskConfig::nvme()),
        // The periodic checkpointer never fires: restart bound stays 0
        // and the whole WAL is the tail.
        Duration::from_secs(3600),
    );
    let cluster = HeronCluster::build(&fabric, cfg, Arc::new(Bank::new(1, ACCOUNTS)));
    cluster.spawn(&simulation);

    let mut client = cluster.client("rc");
    let victim = cluster.replica_node(PartitionId(0), 2).id();
    let chaos_fabric = fabric.clone();
    simulation.spawn("rc-driver", move || {
        for i in 0..20u64 {
            let from = i % ACCOUNTS;
            let to = (from + 1 + i % (ACCOUNTS - 1)) % ACCOUNTS;
            client.execute(&chaos::enc_transfer(from, to, 1 + i % 9));
        }
        // Quiesce so every delivery is journaled before the power cut.
        sim::sleep(Duration::from_millis(2));
        chaos_fabric.power_loss(victim);
        sim::sleep(Duration::from_millis(1));
        chaos_fabric.recover(victim);
        // Let the revived replica notice the power cycle (its next poll
        // timeout) and finish the replay.
        sim::sleep(Duration::from_millis(30));
        sim::stop();
    });
    simulation
        .run_until(SimTime::from_secs(30))
        .expect("power-cycle run completes");

    let frames = cluster.wal_frames(PartitionId(0), 2) as u64;
    assert!(frames > 0, "the workload must have journaled deliveries");
    let metrics = cluster.metrics();
    assert_eq!(
        metrics.cold_restarts.load(Ordering::Relaxed),
        1,
        "exactly one cold restart"
    );
    assert_eq!(
        metrics.replayed_frames.load(Ordering::Relaxed),
        frames,
        "replayed count must equal the WAL tail fed through delivery"
    );
}
