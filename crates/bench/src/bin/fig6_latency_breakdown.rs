//! **Figure 6** — latency breakdown of TPC-C NewOrder with a single
//! closed-loop client: how much of the end-to-end latency is ordering,
//! coordination, and execution — for the standard TPCC workload and for
//! modified NewOrders that touch exactly 1–4 partitions — plus the CDF.
//!
//! The paper's observations this must reproduce: coordination costs only
//! ~2–3 µs regardless of the partition count; ordering and execution grow
//! slowly with partitions; total ≈ 35 µs for the TPCC workload.
//!
//! `cargo run -p heron-bench --release --bin fig6_latency_breakdown [--quick]`

use heron_bench::{banner, quick_mode};
use heron_core::{quantile, HeronCluster, HeronConfig, StageMeans};
use rdma_sim::{Fabric, LatencyModel};
use std::sync::Arc;
use std::time::Duration;
use tpcc::{TpccApp, TpccScale};

/// Runs one single-client workload; returns (stage means on the home
/// partition, mean-total, sorted latency samples in µs).
fn run(
    label: &str,
    span: Option<u16>, // None = standard TPCC NewOrder mix
    requests: u32,
    max_batch: usize,
) -> (StageMeans, Duration, Vec<f64>) {
    let warehouses = 4u16;
    let simulation = sim::Simulation::new(7);
    let fabric = Fabric::new(LatencyModel::connectx4());
    let app = Arc::new(TpccApp::new(TpccScale::bench(), warehouses));
    let cluster = HeronCluster::build(
        &fabric,
        HeronConfig::new(warehouses as usize, 3).with_max_batch(max_batch),
        app.clone(),
    );
    cluster.spawn(&simulation);
    let mut client = cluster.client(label);
    let app2 = app.clone();
    simulation.spawn("client", move || {
        let mut gen = app2.generator(9);
        for _ in 0..requests {
            let txn = match span {
                None => gen.new_order(1),
                Some(k) => gen.new_order_spanning(1, k),
            };
            client.execute(&txn.encode());
        }
        sim::stop();
    });
    simulation.run().expect("run completes");
    let metrics = cluster.metrics();
    // The client-perceived path runs through the *home* partition (it
    // executes the full request and finishes last); decompose that path,
    // as the paper does.
    let stages = metrics.mean_breakdown(|b| b.at_partition == 0);
    let mut samples: Vec<f64> = metrics
        .latencies
        .lock()
        .iter()
        .map(|&ns| ns as f64 / 1_000.0)
        .collect();
    samples.sort_by(f64::total_cmp);
    (stages, metrics.mean_latency(), samples)
}

fn main() {
    let quick = quick_mode();
    let requests = if quick { 300 } else { 2_000 };
    banner(
        "Figure 6: NewOrder latency breakdown, one client (µs)",
        "§V-D1, Fig. 6 — paper: TPCC total 35.4 µs = ordering 18 + execution 16 + coordination ~2; coordination ≤ 3 µs in all workloads",
    );
    let mut cdfs: Vec<(String, Vec<f64>)> = Vec::new();
    // `max_batch` only helps under concurrency; with a single closed-loop
    // client the batched row must match the unbatched one — a latency
    // no-regression check for the batching machinery.
    let configs: Vec<(String, Option<u16>, usize)> = vec![
        ("Tpcc".into(), None, 1),
        ("Tpcc b8".into(), None, 8),
        ("1WH".into(), Some(1), 1),
        ("2WH".into(), Some(2), 1),
        ("3WH".into(), Some(3), 1),
        ("4WH".into(), Some(4), 1),
    ];
    let mut rows = Vec::new();
    for (label, span, max_batch) in configs {
        let (stages, total, samples) = run(&label, span, requests, max_batch);
        rows.push((label.clone(), stages, total));
        cdfs.push((label, samples));
    }
    // The pool's dispatch wait is a stage of its own; zero (and not
    // shown) on this figure's width-1 deployments.
    let dispatch = rows.iter().any(|(_, s, _)| !s.dispatch.is_zero());
    print!("{:<10} {:>10}", "workload", "ordering");
    if dispatch {
        print!(" {:>10}", "dispatch");
    }
    println!(
        " {:>14} {:>11} {:>10}",
        "coordination", "execution", "total"
    );
    for (label, s, total) in rows {
        print!("{:<10} {:>10.2?}", label, s.ordering);
        if dispatch {
            print!(" {:>10.2?}", s.dispatch);
        }
        println!(
            " {:>14.2?} {:>11.2?} {:>10.2?}",
            s.coordination, s.execution, total
        );
    }
    println!("\nlatency CDF (µs):");
    print!("{:<10}", "workload");
    let qs = [0.10, 0.25, 0.50, 0.75, 0.82, 0.90, 0.95, 0.99, 1.00];
    for q in qs {
        print!("{:>8}", format!("p{:.0}", q * 100.0));
    }
    println!();
    for (label, samples) in &cdfs {
        print!("{label:<10}");
        for q in qs {
            print!("{:>8.1}", quantile(samples, q));
        }
        println!();
    }
}
