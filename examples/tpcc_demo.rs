//! TPC-C on Heron: the paper's evaluation workload, live.
//!
//! Runs the standard transaction mix (NewOrder 45 %, Payment 43 %,
//! Delivery/OrderStatus/StockLevel 4 % each) against a 4-warehouse
//! deployment with several closed-loop clients, then prints the kind of
//! numbers the paper reports: throughput, mean/percentile latency, and the
//! ordering/coordination/execution breakdown for single- and
//! multi-partition requests.
//!
//! Run with: `cargo run --release --example tpcc_demo`

use heron::core::{HeronCluster, HeronConfig};
use heron::rdma::{Fabric, LatencyModel};
use heron::tpcc::{TpccApp, TpccScale};
use std::sync::Arc;
use std::time::Duration;

const WAREHOUSES: u16 = 4;
const CLIENTS: usize = 8;
const MEASURE_MS: u64 = 50;

fn main() {
    let simulation = sim::Simulation::new(1);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let app = Arc::new(TpccApp::new(TpccScale::bench(), WAREHOUSES));
    let cluster = HeronCluster::build(
        &fabric,
        HeronConfig::new(WAREHOUSES as usize, 3).with_max_clients(CLIENTS + 2),
        app.clone(),
    );
    cluster.spawn(&simulation);

    println!(
        "TPC-C: {WAREHOUSES} warehouses × 3 replicas, {CLIENTS} closed-loop clients, \
         {} items / {} customers per district",
        app.scale().items,
        app.scale().customers
    );

    for c in 0..CLIENTS {
        let mut client = cluster.client(format!("c{c}"));
        let app = app.clone();
        simulation.spawn(format!("client-{c}"), move || {
            let mut gen = app.generator(c as u64 + 1);
            let home = (c as u16 % WAREHOUSES) + 1;
            loop {
                client.execute(&gen.next(home).encode());
            }
        });
    }

    let metrics = cluster.metrics();
    simulation.spawn("reporter", move || {
        // Warm-up, then measure a fixed virtual window.
        sim::sleep(Duration::from_millis(5));
        let start = metrics.latencies.lock().len();
        sim::sleep(Duration::from_millis(MEASURE_MS));
        let finished = metrics.latencies.lock().len() - start;
        let tps = finished as f64 / (MEASURE_MS as f64 / 1e3);

        println!("\n== results over {MEASURE_MS} ms of virtual time ==");
        println!("throughput : {tps:>10.0} txn/s");
        println!("mean       : {:>10.2?}", metrics.mean_latency());
        println!("median     : {:>10.2?}", metrics.latency_quantile(0.5));
        println!("p95        : {:>10.2?}", metrics.latency_quantile(0.95));
        println!("p99        : {:>10.2?}", metrics.latency_quantile(0.99));

        let single = metrics.mean_breakdown(|b| b.partitions == 1);
        let multi = metrics.mean_breakdown(|b| b.partitions > 1);
        for (label, s) in [("single-partition", single), ("multi-partition", multi)] {
            if s.n == 0 {
                continue;
            }
            println!("{label:17}: {s}");
        }
        sim::stop();
    });
    simulation.run().expect("simulation completes");
}
