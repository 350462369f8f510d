//! **Figure 5** — Heron vs DynaStar: peak TPC-C throughput and latency as
//! warehouses scale.
//!
//! The paper's claims this must reproduce: Heron outperforms DynaStar's
//! throughput by an order of magnitude (17× at 1WH up to 27× at 16WH) and
//! DynaStar's latency is 43.9×–72× Heron's. Before writing, the binary
//! checks the order of magnitude at every point — Heron's throughput
//! ≥ 10× DynaStar's, DynaStar's mean latency ≥ 10× Heron's — and exits
//! non-zero naming the point that breaks it. The file holds virtual-time
//! numbers only, so every run of a mode writes the same bytes;
//! `scripts/gates.sh` pins the full-mode file.
//!
//! `cargo run -p heron-bench --release --bin fig5_vs_dynastar [--quick]`

use heron_bench::{assert_claims, banner, fig5_point, quick_mode, write_results, Json};

fn main() {
    let quick = quick_mode();
    banner(
        "Figure 5: Heron vs DynaStar on TPC-C",
        "§V-C2, Fig. 5 — throughput (top) and latency (bottom)",
    );
    let partitions = if quick {
        vec![1usize, 2]
    } else {
        vec![1usize, 2, 4, 8, 16]
    };
    println!(
        "{:<6} {:>14} {:>14} {:>8} | {:>12} {:>12} {:>8}",
        "WH", "Heron tps", "DynaStar tps", "ratio", "Heron lat", "DynaStar lat", "ratio"
    );
    let mut heron_tps = Vec::new();
    let mut dynastar_tps = Vec::new();
    let mut heron_lat_us = Vec::new();
    let mut dynastar_lat_us = Vec::new();
    let mut events_total = 0u64;
    let mut broken = Vec::new();
    for &p in &partitions {
        let (h, d) = fig5_point(p, quick);
        println!(
            "{:<6} {:>14.0} {:>14.0} {:>7.1}x | {:>12.2?} {:>12.2?} {:>7.1}x",
            p,
            h.tps,
            d.tps,
            h.tps / d.tps,
            h.mean,
            d.mean,
            d.mean.as_secs_f64() / h.mean.as_secs_f64(),
        );
        if h.tps < 10.0 * d.tps {
            broken.push(format!(
                "{p}WH: Heron's {:.0} tps is not 10x DynaStar's {:.0} tps",
                h.tps, d.tps
            ));
        }
        if d.mean < 10 * h.mean {
            broken.push(format!(
                "{p}WH: DynaStar's mean latency {:.2?} is not 10x Heron's {:.2?}",
                d.mean, h.mean
            ));
        }
        heron_tps.push(h.tps);
        dynastar_tps.push(d.tps);
        heron_lat_us.push(h.mean.as_secs_f64() * 1e6);
        dynastar_lat_us.push(d.mean.as_secs_f64() * 1e6);
        events_total += h.events + d.events;
    }
    println!("\npaper: throughput ratio 17x (1WH) .. 27x (16WH); latency ratio 43.9x–72x");
    assert_claims(&broken);

    let mut out = Json::obj();
    out.set("figure", "fig5");
    out.set("quick", quick);
    out.set(
        "partitions",
        partitions.iter().map(|&p| p as u64).collect::<Vec<_>>(),
    );
    let mut tput = Json::obj();
    tput.set("Heron (Tpcc)", heron_tps);
    tput.set("DynaStar (Tpcc)", dynastar_tps);
    out.set("throughput", tput);
    let mut lat = Json::obj();
    lat.set("Heron mean (us)", heron_lat_us);
    lat.set("DynaStar mean (us)", dynastar_lat_us);
    out.set("latency", lat);
    out.set("events_executed", events_total);
    write_results("BENCH_fig5.json", &out).expect("write bench_results/BENCH_fig5.json");
}
