//! The §III-D2 *active-only* execution mode: one partition executes a
//! multi-partition request and remotely writes the passive partitions'
//! objects. Must produce exactly the same replicated state as the default
//! all-involved mode.

use heron_core::{ExecutionMode, HeronCluster, HeronConfig, PartitionId};
use rdma_sim::{Fabric, LatencyModel};
use std::sync::Arc;
use std::time::Duration;
use tpcc::{ids, TpccApp, TpccScale, Transaction};

/// `(schedule_hash, events, virtual_ns)` of a finished run.
type Fingerprint = (u64, u64, u64);

fn run_tpcc(mode: ExecutionMode, seed: u64) -> (HeronCluster, Fingerprint) {
    let warehouses = 2u16;
    let simulation = sim::Simulation::new(seed);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let app = Arc::new(TpccApp::new(TpccScale::small(), warehouses));
    let cfg = HeronConfig::new(warehouses as usize, 3).with_execution_mode(mode);
    let cluster = HeronCluster::build(&fabric, cfg, app.clone());
    cluster.spawn(&simulation);
    let mut client = cluster.client("c");
    simulation.spawn("client", move || {
        let mut gen = app.generator(17);
        for i in 0..80u64 {
            client.execute(&gen.next((i % 2 + 1) as u16).encode());
        }
        // A guaranteed multi-partition NewOrder and Payment.
        client.execute(
            &Transaction::NewOrder {
                w: 1,
                d: 1,
                c: 1,
                lines: vec![
                    tpcc::OrderLineReq {
                        i_id: 3,
                        supply_w: 2,
                        qty: 4,
                    },
                    tpcc::OrderLineReq {
                        i_id: 9,
                        supply_w: 1,
                        qty: 2,
                    },
                ],
            }
            .encode(),
        );
        client.execute(
            &Transaction::Payment {
                w: 2,
                d: 1,
                c_w: 1,
                c_d: 2,
                c: 3,
                amount: 55_00,
            }
            .encode(),
        );
        sim::sleep(Duration::from_millis(5));
        sim::stop();
    });
    simulation.run().unwrap();
    let fingerprint = (
        simulation.schedule_hash(),
        simulation.events_executed(),
        simulation.now().as_nanos(),
    );
    (cluster, fingerprint)
}

#[test]
fn active_only_produces_the_same_state_as_all_involved() {
    let (a, _) = run_tpcc(ExecutionMode::AllInvolved, 91);
    let (b, (hash, events, virtual_ns)) = run_tpcc(ExecutionMode::ActiveOnly, 91);
    // The mode's one pinned cell (every other shape's live in
    // `bench/tests/schedule_hash.rs`): a move means active-only behaviour
    // changed — re-pin only if the PR meant to, and record the old triple
    // in EXPERIMENTS.md.
    assert_eq!(
        (format!("{hash:#018x}"), events, virtual_ns),
        ("0x245e101d5424577d".to_string(), 7783, 7_124_376),
        "active-only (schedule_hash, events, virtual_ns) left the pin"
    );
    let scale = TpccScale::small();
    for w in 1..=2u16 {
        let p = PartitionId(w - 1);
        for d in 1..=scale.districts {
            assert_eq!(
                a.peek(p, 0, ids::district(w, d)).unwrap(),
                b.peek(p, 0, ids::district(w, d)).unwrap(),
                "district w{w}d{d} differs between execution modes"
            );
        }
        for i in 1..=scale.items {
            assert_eq!(
                a.peek(p, 0, ids::stock(w, i)).unwrap(),
                b.peek(p, 0, ids::stock(w, i)).unwrap(),
                "stock w{w}i{i} differs between execution modes"
            );
        }
        for d in 1..=scale.districts {
            for c in 1..=scale.customers {
                assert_eq!(
                    a.peek(p, 0, ids::customer(w, d, c)).unwrap(),
                    b.peek(p, 0, ids::customer(w, d, c)).unwrap(),
                    "customer w{w}d{d}c{c} differs between execution modes"
                );
            }
        }
    }
}

#[test]
fn active_only_replicas_converge() {
    let (cluster, _) = run_tpcc(ExecutionMode::ActiveOnly, 92);
    let scale = TpccScale::small();
    for w in 1..=2u16 {
        let p = PartitionId(w - 1);
        for d in 1..=scale.districts {
            let expect = cluster.peek(p, 0, ids::district(w, d)).unwrap();
            for r in 1..3 {
                assert_eq!(
                    cluster.peek(p, r, ids::district(w, d)).unwrap(),
                    expect,
                    "district w{w}d{d} diverged at replica {r} (active-only)"
                );
            }
        }
        for i in 1..=scale.items {
            let expect = cluster.peek(p, 0, ids::stock(w, i)).unwrap();
            for r in 1..3 {
                assert_eq!(
                    cluster.peek(p, r, ids::stock(w, i)).unwrap(),
                    expect,
                    "stock w{w}i{i} diverged at replica {r} (active-only)"
                );
            }
        }
    }
}
