//! **Figure 7** — latency of each TPC-C transaction type with a single
//! closed-loop client, split into single-partition latency and the
//! additional multi-partition cost (NewOrder and Payment only — the other
//! three are always local).
//!
//! The paper's observations this must reproduce: OrderStatus and Delivery
//! are light and local (16.5 / 17.6 µs); StockLevel is local but heavy
//! (it deserializes many Stock rows); NewOrder/Payment pay extra when
//! multi-partition.
//!
//! `cargo run -p heron-bench --release --bin fig7_txn_latency [--quick]`

use heron_bench::{banner, quick_mode};
use heron_core::{quantile, HeronCluster, HeronConfig};
use rdma_sim::{Fabric, LatencyModel};
use std::sync::Arc;
use std::time::Duration;
use tpcc::{TpccApp, TpccScale, Transaction};

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    NewOrder { remote: bool },
    Payment { remote: bool },
    OrderStatus,
    Delivery,
    StockLevel,
}

fn run(kind: Kind, requests: u32) -> (Duration, Vec<f64>) {
    let warehouses = 2u16;
    let simulation = sim::Simulation::new(11);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let app = Arc::new(TpccApp::new(TpccScale::bench(), warehouses));
    let cluster = HeronCluster::build(
        &fabric,
        HeronConfig::new(warehouses as usize, 3),
        app.clone(),
    );
    cluster.spawn(&simulation);
    let mut client = cluster.client("c");
    let app2 = app.clone();
    simulation.spawn("client", move || {
        let mut gen = app2.generator(3);
        for _ in 0..requests {
            let txn = match kind {
                Kind::NewOrder { remote } => {
                    if remote {
                        gen.new_order_spanning(1, 2)
                    } else {
                        let mut g = gen.clone();
                        g.local_only = true;
                        let t = g.new_order(1);
                        gen = g;
                        t
                    }
                }
                Kind::Payment { remote } => {
                    let mut t;
                    loop {
                        t = gen.payment(1);
                        let multi = t.is_multi_partition();
                        if multi == remote {
                            break;
                        }
                    }
                    t
                }
                Kind::OrderStatus => gen.order_status(1),
                Kind::Delivery => gen.delivery(1),
                Kind::StockLevel => gen.stock_level(1),
            };
            let _: Transaction = Transaction::decode(&txn.encode()).expect("well-formed");
            client.execute(&txn.encode());
        }
        sim::stop();
    });
    simulation.run().expect("run completes");
    let metrics = cluster.metrics();
    let mut samples: Vec<f64> = metrics
        .latencies
        .lock()
        .iter()
        .map(|&ns| ns as f64 / 1_000.0)
        .collect();
    samples.sort_by(f64::total_cmp);
    (metrics.mean_latency(), samples)
}

fn main() {
    let quick = quick_mode();
    let requests = if quick { 200 } else { 1_500 };
    banner(
        "Figure 7: TPC-C transaction latency, one client (µs)",
        "§V-D2, Fig. 7 — paper: OrderStatus 16.5 µs, Delivery 17.6 µs; StockLevel heavy; NewOrder/Payment pay a multi-partition surcharge",
    );
    let cases: Vec<(&str, Kind, Option<Kind>)> = vec![
        (
            "NewOrder",
            Kind::NewOrder { remote: false },
            Some(Kind::NewOrder { remote: true }),
        ),
        (
            "Payment",
            Kind::Payment { remote: false },
            Some(Kind::Payment { remote: true }),
        ),
        ("OrderStatus", Kind::OrderStatus, None),
        ("Delivery", Kind::Delivery, None),
        ("StockLevel", Kind::StockLevel, None),
    ];
    println!(
        "{:<14} {:>14} {:>16} {:>12}",
        "transaction", "single (µs)", "multi (µs)", "surcharge"
    );
    let mut cdfs: Vec<(String, Vec<f64>)> = Vec::new();
    for (label, single, multi) in cases {
        let (s_mean, s_samples) = run(single, requests);
        cdfs.push((label.to_string(), s_samples));
        match multi {
            Some(m) => {
                let (m_mean, m_samples) = run(m, requests);
                println!(
                    "{:<14} {:>14.2?} {:>16.2?} {:>11.2?}",
                    label,
                    s_mean,
                    m_mean,
                    m_mean.saturating_sub(s_mean)
                );
                cdfs.push((format!("{label}(multi)"), m_samples));
            }
            None => println!("{:<14} {:>14.2?} {:>16} {:>12}", label, s_mean, "-", "-"),
        }
    }
    println!("\nlatency CDF (µs):");
    let qs = [0.10, 0.50, 0.90, 0.95, 0.99, 1.00];
    print!("{:<18}", "transaction");
    for q in qs {
        print!("{:>8}", format!("p{:.0}", q * 100.0));
    }
    println!();
    for (label, samples) in &cdfs {
        print!("{label:<18}");
        for q in qs {
            print!("{:>8.1}", quantile(samples, q));
        }
        println!();
    }
}
