//! Log-growth guard (DESIGN.md §14): with checkpointing on, the durable
//! amcast WAL is *bounded* by the truncation horizon — it must not grow
//! with run length. A long run at a short checkpoint interval samples it
//! continuously; unbounded growth here is the regression that turns
//! "durable" into "leaks disk". (Heron keeps no update log beside the
//! store: state transfer reads what changed from the store's version
//! stamps, so there is no second log to bound.)

use heron_bench::chaos::{self, Bank, BankSpec};
use heron_core::checker::Checker;
use heron_core::{HeronCluster, HeronConfig, PartitionId};
use rdma_sim::{Fabric, LatencyModel};
use sim::SimTime;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn wal_and_log_stay_bounded_under_truncation() {
    const ACCOUNTS: u64 = 6;
    const REQUESTS: u64 = 120; // long enough for many checkpoint cycles
    const INTERVAL_US: u64 = 250;

    let simulation = sim::Simulation::new(13);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let cfg = HeronConfig::new(1, 3).with_durability(
        sim::storage::Storage::new(sim::storage::DiskConfig::nvme()),
        Duration::from_micros(INTERVAL_US),
    );
    let cluster = HeronCluster::build(&fabric, cfg, Arc::new(Bank::new(1, ACCOUNTS)));
    cluster.spawn(&simulation);

    let stop = Arc::new(AtomicBool::new(false));
    let max_wal = Arc::new(AtomicUsize::new(0));
    let (c2, stop2, mw) = (cluster.clone(), stop.clone(), max_wal.clone());
    simulation.spawn("growth-sampler", move || {
        while !stop2.load(Ordering::SeqCst) {
            sim::sleep(Duration::from_micros(100));
            for i in 0..3 {
                mw.fetch_max(c2.wal_frames(PartitionId(0), i), Ordering::SeqCst);
            }
        }
    });

    let checker = Checker::new(13);
    let mut client = checker.client(&cluster, "growth");
    let stop3 = stop.clone();
    simulation.spawn("growth-client", move || {
        for i in 0..REQUESTS {
            let from = (13 + i * 7) % ACCOUNTS;
            let to = (from + 1 + i % (ACCOUNTS - 1)) % ACCOUNTS;
            if from == to {
                client.execute(&chaos::enc_read(from));
            } else {
                client.execute(&chaos::enc_transfer(from, to, 1 + i % 9));
            }
        }
        sim::sleep(Duration::from_millis(2));
        stop3.store(true, Ordering::SeqCst);
        sim::stop();
    });
    simulation
        .run_until(SimTime::from_secs(60))
        .expect("long durable run completes");
    checker
        .check(&cluster, &BankSpec::new(ACCOUNTS))
        .expect("history linearizable under continuous truncation");

    // Bounded: the retained suffix is what arrived since the last couple
    // of checkpoint cycles, far below the full run length. The workload
    // delivers ~REQUESTS entries per replica; demand a hard ceiling at
    // half of it (in practice the horizon keeps it to a handful).
    let wal = max_wal.load(Ordering::SeqCst);
    assert!(wal > 0, "sampler must observe a live WAL");
    assert!(
        wal < REQUESTS as usize / 2,
        "WAL grew with run length: peaked at {wal} frames over {REQUESTS} requests"
    );

    // The truncation machinery itself must have done the bounding.
    let metrics = cluster.metrics();
    assert!(
        metrics.checkpoints.load(Ordering::Relaxed) >= 3,
        "expected several periodic checkpoints"
    );
    assert!(
        metrics.wal_truncated_frames.load(Ordering::Relaxed) > 0,
        "WAL truncation never ran"
    );
}
