//! **P-SMR scaling** — TPC-C fixed-work throughput as the per-replica
//! executor pool widens, at several conflict levels.
//!
//! Each partition hosts `wpp` warehouses; the conflict-key dispatcher can
//! only overlap commands that do not conflict, so `wpp` is the conflict
//! knob: 1 warehouse per partition keeps the paper's deployment (high
//! conflict — a partition's NewOrders meet on its 10 districts and on the
//! stock rows they share, and a StockLevel waits for every NewOrder of
//! its warehouse before it), 8 warehouses per partition gives the pool 80
//! district classes and 8 stock tables to exploit (low conflict).
//!
//! `cargo run -p heron-bench --release --bin psmr_scaling [-- --quick]`
//! (`--quick`: a smaller fixed workload).
//!
//! Before writing, every run checks the pool's scaling claims and exits
//! non-zero naming the one that fails: the width-8 low-conflict speedup
//! is ≥ 2.5× and the geomean width-8 speedup across conflict levels
//! ≥ 1.5× (2.0× and 1.2× in quick mode, where startup weighs more).
//! Results land in `bench_results/BENCH_psmr.json`, virtual time only;
//! `scripts/gates.sh` pins the `--quick` file.

use heron_bench::{
    assert_claims, banner, quick_mode, run_heron, write_results, Json, RunConfig, Workload,
};
use heron_core::HeronConfig;

const WIDTHS: [usize; 4] = [1, 2, 4, 8];
const WPPS: [u16; 3] = [1, 2, 8];

fn main() {
    let quick = quick_mode();
    banner(
        "P-SMR scaling: executor-pool width x conflict rate on TPC-C",
        "dependency-aware dispatch; fixed work per cell",
    );
    let requests: u64 = if quick { 30 } else { 120 };
    // `dispatch`: the mean delivery → pickup wait in the pool, the stage
    // widening the pool shrinks (none at width 1).
    println!(
        "{:<22} {:>8} {:>12} {:>10} {:>10} {:>10}",
        "conflict level", "width", "tps", "speedup", "mean lat", "dispatch"
    );

    let mut out = Json::obj();
    out.set("figure", "psmr");
    out.set("quick", quick);
    out.set(
        "widths",
        WIDTHS.iter().map(|&w| w as u64).collect::<Vec<_>>(),
    );
    let mut sweeps = Vec::new();
    // speedup at width 8 per conflict level, low conflict last.
    let mut top_speedups = Vec::new();
    for &wpp in &WPPS {
        let label = match wpp {
            1 => "high (1 wh/part)",
            2 => "medium (2 wh/part)",
            _ => "low (8 wh/part)",
        };
        let mut tps = Vec::new();
        let mut speedups = Vec::new();
        let mut base = 0.0f64;
        for &width in &WIDTHS {
            // Batched ordering (PR 1) lifts the delivery ceiling well above
            // a single lane's capacity — unbatched, the amcast groups
            // saturate near 100k/s each and every width ≥ 2 measures the
            // same ordering-bound plateau instead of execution scaling.
            let heron = HeronConfig::new(2, 3)
                .with_executor_width(width)
                .with_max_batch(8);
            let mut cfg = RunConfig::new(heron, Workload::Tpcc)
                .with_warehouses_per_partition(wpp)
                .with_requests(requests);
            // The pool needs enough outstanding requests to fill its
            // workers; closed-loop clients carry one request each, and the
            // width-1 baseline must be queue-bound (not client-bound) for
            // the width sweep to measure execution capacity.
            cfg.clients = 96;
            let s = run_heron(&cfg);
            if width == 1 {
                base = s.tps;
            }
            let speedup = s.tps / base;
            let dispatch = match s.all.dispatch {
                d if d.is_zero() => "-".to_string(),
                d => format!("{d:.2?}"),
            };
            println!(
                "{:<22} {:>8} {:>12.0} {:>9.2}x {:>10.2?} {:>10}",
                label, width, s.tps, speedup, s.mean, dispatch
            );
            tps.push(s.tps);
            speedups.push(speedup);
        }
        top_speedups.push(*speedups.last().expect("width sweep nonempty"));
        let mut sweep = Json::obj();
        sweep.set("conflict", label);
        sweep.set("warehouses_per_partition", wpp as u64);
        sweep.set("tps", tps);
        sweep.set("speedup", speedups);
        sweeps.push(sweep);
    }
    let low_conflict_speedup = *top_speedups.last().expect("conflict sweep nonempty");
    let geomean =
        (top_speedups.iter().map(|s| s.ln()).sum::<f64>() / top_speedups.len() as f64).exp();
    println!(
        "\nwidth-8 speedup: low conflict {low_conflict_speedup:.2}x, \
         geomean across conflict levels {geomean:.2}x"
    );

    // Quick mode shrinks the fixed workload, so startup (bootstrap, cold
    // caches) weighs more; the floors are relaxed accordingly.
    let (need_low, need_geo) = if quick { (2.0, 1.2) } else { (2.5, 1.5) };
    let mut broken = Vec::new();
    if low_conflict_speedup < need_low {
        broken.push(format!(
            "width-8 low-conflict speedup {low_conflict_speedup:.2}x < {need_low}x"
        ));
    }
    if geomean < need_geo {
        broken.push(format!(
            "width-8 geomean speedup {geomean:.2}x < {need_geo}x"
        ));
    }
    assert_claims(&broken);

    out.set("requests_per_client", requests);
    out.set("sweeps", Json::Arr(sweeps));
    out.set("width8_low_conflict_speedup", low_conflict_speedup);
    out.set("width8_geomean_speedup", geomean);
    write_results("BENCH_psmr.json", &out).expect("write bench_results/BENCH_psmr.json");
}
