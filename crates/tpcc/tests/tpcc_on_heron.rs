//! TPC-C running on a full Heron deployment: cross-replica consistency of
//! the database invariants under the paper's workload mix.

use heron_core::{Checker, HeronCluster, HeronConfig, PartitionId};
use rdma_sim::{Fabric, LatencyModel};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tpcc::{ids, CustomerRow, DistrictRow, StockRow, TpccApp, TpccScale, Transaction};

fn build(
    seed: u64,
    warehouses: u16,
    replicas: usize,
) -> (sim::Simulation, HeronCluster, Arc<TpccApp>) {
    let simulation = sim::Simulation::new(seed);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let app = Arc::new(TpccApp::new(TpccScale::small(), warehouses));
    let cfg = HeronConfig::new(warehouses as usize, replicas);
    let cluster = HeronCluster::build(&fabric, cfg, app.clone());
    cluster.spawn(&simulation);
    (simulation, cluster, app)
}

fn district_row(cluster: &HeronCluster, p: u16, r: usize, w: u16, d: u8) -> DistrictRow {
    DistrictRow::from_bytes(
        &cluster
            .peek(PartitionId(p), r, ids::district(w, d))
            .unwrap(),
    )
}

#[test]
fn new_order_executes_and_is_visible_via_order_status() {
    let (simulation, cluster, app) = build(31, 2, 3);
    let mut client = cluster.client("c");
    let app2 = app.clone();
    simulation.spawn("client", move || {
        let mut g = app2.generator(1);
        let no = g.new_order(1);
        let (d, c) = match &no {
            Transaction::NewOrder { d, c, .. } => (*d, *c),
            _ => unreachable!(),
        };
        let resp = client.execute(&no.encode());
        let o_id = u32::from_le_bytes(resp[..4].try_into().unwrap());
        assert!(o_id >= 1, "order id assigned");
        // OrderStatus for the same customer sees the new order.
        let st = client.execute(&Transaction::OrderStatus { w: 1, d, c }.encode());
        let last_o = u32::from_le_bytes(st[8..12].try_into().unwrap());
        assert_eq!(last_o, o_id);
        sim::stop();
    });
    simulation.run().unwrap();
}

#[test]
fn remote_new_order_updates_remote_stock_on_all_replicas() {
    let (simulation, cluster, _app) = build(32, 2, 3);
    let c2 = cluster.clone();
    let mut client = cluster.client("c");
    simulation.spawn("client", move || {
        // A NewOrder at warehouse 1 with one line supplied by warehouse 2.
        let txn = Transaction::NewOrder {
            w: 1,
            d: 1,
            c: 1,
            lines: vec![
                tpcc::OrderLineReq {
                    i_id: 5,
                    supply_w: 1,
                    qty: 3,
                },
                tpcc::OrderLineReq {
                    i_id: 7,
                    supply_w: 2,
                    qty: 4,
                },
            ],
        };
        let before = StockRow::from_bytes(&c2.peek(PartitionId(1), 0, ids::stock(2, 7)).unwrap());
        client.execute(&txn.encode());
        sim::sleep(Duration::from_millis(2));
        for r in 0..3 {
            let after =
                StockRow::from_bytes(&c2.peek(PartitionId(1), r, ids::stock(2, 7)).unwrap());
            assert_eq!(after.ytd, before.ytd + 4, "replica {r} stock ytd");
            assert_eq!(after.order_cnt, before.order_cnt + 1);
            assert_eq!(after.remote_cnt, before.remote_cnt + 1);
        }
        // Warehouse 1's replicas never host warehouse 2's stock.
        assert!(c2.peek(PartitionId(0), 0, ids::stock(2, 7)).is_none());
        sim::stop();
    });
    simulation.run().unwrap();
}

#[test]
fn payments_preserve_money_invariants() {
    let (simulation, cluster, app) = build(33, 2, 3);
    let c2 = cluster.clone();
    let mut client = cluster.client("c");
    let app2 = app.clone();
    simulation.spawn("client", move || {
        let mut g = app2.generator(2);
        let mut issued: u64 = 0;
        for i in 0..40 {
            let home = (i % 2) + 1;
            let t = g.payment(home as u16);
            if let Transaction::Payment { amount, .. } = &t {
                issued += *amount as u64;
            }
            client.execute(&t.encode());
        }
        sim::sleep(Duration::from_millis(2));
        // Σ district.ytd across all districts equals all issued payments.
        let scale = TpccScale::small();
        let mut ytd = 0u64;
        for w in 1..=2u16 {
            for d in 1..=scale.districts {
                ytd += district_row(&c2, w - 1, 0, w, d).ytd;
            }
        }
        assert_eq!(ytd, issued, "district YTD must equal issued payments");
        sim::stop();
    });
    simulation.run().unwrap();
}

#[test]
fn full_mix_keeps_replicas_identical() {
    let (simulation, cluster, app) = build(34, 3, 3);
    let c2 = cluster.clone();
    let mut client = cluster.client("c");
    let app2 = app.clone();
    simulation.spawn("client", move || {
        let mut g = app2.generator(3);
        for i in 0..120u32 {
            let home = (i % 3 + 1) as u16;
            client.execute(&g.next(home).encode());
        }
        sim::sleep(Duration::from_millis(3));
        let scale = TpccScale::small();
        for w in 1..=3u16 {
            let p = w - 1;
            for d in 1..=scale.districts {
                let d0 = district_row(&c2, p, 0, w, d);
                for r in 1..3 {
                    assert_eq!(district_row(&c2, p, r, w, d), d0, "district w{w}d{d} r{r}");
                }
                for c in 1..=scale.customers {
                    let c0 = c2.peek(PartitionId(p), 0, ids::customer(w, d, c)).unwrap();
                    for r in 1..3 {
                        assert_eq!(
                            c2.peek(PartitionId(p), r, ids::customer(w, d, c)).unwrap(),
                            c0,
                            "customer w{w}d{d}c{c} r{r}"
                        );
                    }
                }
            }
            for i in 1..=scale.items {
                let s0 = c2.peek(PartitionId(p), 0, ids::stock(w, i)).unwrap();
                for r in 1..3 {
                    assert_eq!(
                        c2.peek(PartitionId(p), r, ids::stock(w, i)).unwrap(),
                        s0,
                        "stock w{w}i{i} r{r}"
                    );
                }
            }
        }
        sim::stop();
    });
    simulation.run().unwrap();
}

#[test]
fn delivery_credits_customer_balance() {
    let (simulation, cluster, _app) = build(35, 1, 3);
    let c2 = cluster.clone();
    let mut client = cluster.client("c");
    simulation.spawn("client", move || {
        // The small scale pre-loads undelivered orders; deliver them.
        let resp = client.execute(&Transaction::Delivery { w: 1, carrier: 5 }.encode());
        let delivered = u32::from_le_bytes(resp[..4].try_into().unwrap());
        assert!(delivered >= 1, "initial undelivered orders exist");
        sim::sleep(Duration::from_millis(1));
        // The delivered districts advanced their pointers consistently.
        let scale = TpccScale::small();
        let mut advanced = 0;
        for d in 1..=scale.districts {
            let row = district_row(&c2, 0, 0, 1, d);
            if row.oldest_undelivered > scale.initial_orders - scale.initial_undelivered() + 1 {
                advanced += 1;
            }
        }
        assert_eq!(advanced, delivered);
        // Some customer received credit.
        let mut credited = false;
        'outer: for d in 1..=scale.districts {
            for c in 1..=scale.customers {
                let row = CustomerRow::from_bytes(
                    &c2.peek(PartitionId(0), 0, ids::customer(1, d, c)).unwrap(),
                );
                if row.delivery_cnt > 0 {
                    credited = true;
                    break 'outer;
                }
            }
        }
        assert!(credited);
        sim::stop();
    });
    simulation.run().unwrap();
}

#[test]
fn stock_level_counts_low_stock() {
    let (simulation, cluster, _app) = build(36, 1, 3);
    let mut client = cluster.client("c");
    simulation.spawn("client", move || {
        // Threshold above max initial quantity: every recently-sold item
        // counts as low.
        let all = client.execute(
            &Transaction::StockLevel {
                w: 1,
                d: 1,
                threshold: 1_000,
            }
            .encode(),
        );
        let all = u32::from_le_bytes(all[..4].try_into().unwrap());
        assert!(all > 0, "recent orders reference items");
        // Threshold zero: nothing is low.
        let none = client.execute(
            &Transaction::StockLevel {
                w: 1,
                d: 1,
                threshold: 0,
            }
            .encode(),
        );
        assert_eq!(u32::from_le_bytes(none[..4].try_into().unwrap()), 0);
        sim::stop();
    });
    simulation.run().unwrap();
}

/// A width-4 pool at one warehouse a partition, under a NewOrder-heavy
/// stream with a StockLevel in every five requests: NewOrders of one
/// warehouse run side by side unless they share an item or a district,
/// and a StockLevel holds its warehouse's stock whole. Every stock row
/// ends identical across replicas, every store's write-order monitor stays
/// clean and the checker's agreement check passes.
#[test]
fn a_width_4_pool_keeps_stock_identical_at_one_warehouse_a_partition() {
    const CLIENTS: u64 = 8;
    // The clients need a few milliseconds; a run still waiting here has
    // lost a request.
    const DEADLINE: sim::SimTime = sim::SimTime::from_millis(200);
    let (seed, warehouses, replicas) = (37, 2u16, 3);
    let simulation = sim::Simulation::new(seed);
    let fabric = Fabric::new(LatencyModel::connectx4());
    // Ten districts and 200 items: two NewOrders often share neither.
    let scale = TpccScale {
        districts: 10,
        items: 200,
        ..TpccScale::small()
    };
    let app = Arc::new(TpccApp::new(scale, warehouses));
    let cfg = HeronConfig::new(warehouses as usize, replicas).with_executor_width(4);
    let cluster = HeronCluster::build(&fabric, cfg, app.clone());
    cluster.spawn(&simulation);
    let checker = Checker::new(seed);
    let done = Arc::new(AtomicU64::new(0));
    for c in 0..CLIENTS {
        let mut client = checker.client(&cluster, format!("c{c}"));
        let (app, done) = (app.clone(), done.clone());
        simulation.spawn(format!("client{c}"), move || {
            let mut gen = app.generator(c + 40);
            gen.remote_line_pct = 5;
            for i in 0..15u64 {
                let home = ((c + i) % warehouses as u64 + 1) as u16;
                let txn = match i % 5 {
                    4 => gen.stock_level(home),
                    _ => gen.new_order(home),
                };
                client.execute(&txn.encode());
            }
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    let c2 = cluster.clone();
    simulation.spawn("checker", move || {
        while done.load(Ordering::SeqCst) < CLIENTS {
            let finished = done.load(Ordering::SeqCst);
            assert!(
                sim::now() < DEADLINE,
                "{finished} of {CLIENTS} clients finished"
            );
            sim::sleep(Duration::from_millis(1));
        }
        sim::sleep(Duration::from_millis(3));
        for w in 1..=warehouses {
            let p = PartitionId(w - 1);
            for i in 1..=scale.items {
                let s0 = c2.peek(p, 0, ids::stock(w, i)).unwrap();
                for r in 1..replicas {
                    let s = c2.peek(p, r, ids::stock(w, i)).unwrap();
                    assert_eq!(s, s0, "stock w{w}i{i} r{r}");
                }
            }
        }
        if let Err(v) = checker.check_replicas(&c2) {
            panic!("{v}");
        }
        sim::stop();
    });
    simulation.run().unwrap();
    assert_eq!(
        cluster.metrics().latencies.lock().len(),
        15 * CLIENTS as usize
    );
}
