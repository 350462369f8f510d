//! Crash a replica mid-workload and watch Heron's state-transfer protocol
//! bring it back (paper §III, Algorithm 3 + §V-E).
//!
//! One replica of partition 0 is crashed while TPC-C traffic continues —
//! majorities keep the system available. After recovery, the replica
//! detects that the fast majority moved on (its remote reads find only
//! versions newer than its current request), raises a state-transfer
//! request in its group's `statesync` memory, and a peer streams the
//! missing state back in 32 KiB RDMA writes.
//!
//! Run with: `cargo run --release --example lagger_recovery`

use heron::core::{HeronCluster, HeronConfig, PartitionId};
use heron::rdma::{Fabric, LatencyModel};
use heron::tpcc::{ids, TpccApp, TpccScale};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

const WAREHOUSES: u16 = 2;

fn main() {
    let simulation = sim::Simulation::new(99);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let app = Arc::new(TpccApp::new(TpccScale::small(), WAREHOUSES));
    let cluster = HeronCluster::build(
        &fabric,
        HeronConfig::new(WAREHOUSES as usize, 3),
        app.clone(),
    );
    cluster.spawn(&simulation);

    let victim = (PartitionId(0), 2usize);
    let c2 = cluster.clone();
    let metrics = cluster.metrics();
    let mut client = cluster.client("driver");
    simulation.spawn("driver", move || {
        let mut gen = app.generator(1);
        let run =
            |client: &mut heron::core::HeronClient, gen: &mut heron::tpcc::TpccGen, n: u32| {
                for i in 0..n {
                    let home = (i % WAREHOUSES as u32 + 1) as u16;
                    client.execute(&gen.next(home).encode());
                }
            };

        println!("[{}] phase 1: healthy cluster, 50 transactions", sim::now());
        run(&mut client, &mut gen, 50);

        println!("[{}] crashing replica p0/r2", sim::now());
        c2.crash_replica(victim.0, victim.1);
        run(&mut client, &mut gen, 150);
        println!(
            "[{}] 150 transactions completed while p0/r2 was down (majority quorums)",
            sim::now()
        );

        println!("[{}] recovering replica p0/r2", sim::now());
        c2.recover_replica(victim.0, victim.1);
        run(&mut client, &mut gen, 150);
        sim::sleep(Duration::from_millis(100));

        // Verify convergence: the recovered replica matches its peers.
        let scale = TpccScale::small();
        let mut checked = 0;
        for d in 1..=scale.districts {
            let expect = c2.peek(PartitionId(0), 0, ids::district(1, d)).unwrap();
            assert_eq!(
                c2.peek(PartitionId(0), 2, ids::district(1, d)).unwrap(),
                expect,
                "district {d} diverged on the recovered replica"
            );
            checked += 1;
        }
        for i in 1..=scale.items {
            let expect = c2.peek(PartitionId(0), 0, ids::stock(1, i)).unwrap();
            assert_eq!(
                c2.peek(PartitionId(0), 2, ids::stock(1, i)).unwrap(),
                expect,
                "stock {i} diverged on the recovered replica"
            );
            checked += 1;
        }
        println!(
            "[{}] recovered replica verified identical on {checked} rows",
            sim::now()
        );
        let transfers = metrics.transfers.lock();
        println!(
            "state transfers: {} started, {} completed",
            metrics.transfers_started.load(Ordering::Relaxed),
            transfers.len(),
        );
        for (i, t) in transfers.iter().enumerate() {
            println!(
                "  transfer #{i}: {:>8} bytes ({} native) in {:?}",
                t.bytes,
                t.native_bytes,
                Duration::from_nanos(t.duration_ns)
            );
        }
        assert!(
            metrics.transfers_started.load(Ordering::Relaxed) >= 1,
            "recovery must exercise the state-transfer protocol"
        );
        sim::stop();
    });
    simulation.run().expect("simulation completes");
    println!("\nrecovery demo finished OK");
}
