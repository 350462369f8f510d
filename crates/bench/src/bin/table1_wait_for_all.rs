//! **Table I** — the cost of tentatively "waiting for all" replicas during
//! Phase 4 coordination: fraction of delayed transactions and the average
//! extra delay, per partition, for {2, 4} partitions × {3, 5} replicas,
//! plus each configuration's max throughput and average latency.
//!
//! The paper's observations this must reproduce: few transactions are
//! delayed (≤ 8 %), the delay is a small fraction of transaction latency,
//! the delayed fraction *increases* with the partition id while the
//! average delay *decreases* (coordination entries are written smallest
//! partition first), and 5 replicas cost throughput vs 3.
//!
//! `cargo run -p heron-bench --release --bin table1_wait_for_all [--quick]`

use heron_bench::{banner, quick_mode, run_heron, RunConfig, Workload};
use heron_core::HeronConfig;

fn main() {
    let quick = quick_mode();
    banner(
        "Table I: transaction delay when waiting for all replicas",
        "§V-E1, Table I — paper: ≤8% delayed, µs-scale delays; delayed%% grows and delay shrinks with partition id",
    );
    for &partitions in &[2usize, 4] {
        for &replicas in &[3usize, 5] {
            let heron = HeronConfig::new(partitions, replicas);
            let cfg = RunConfig::new(heron, Workload::Tpcc).quick(quick);
            let s = run_heron(&cfg);
            println!(
                "\n{partitions} partitions, {replicas} replicas per partition — \
                 max throughput {:.0} tps, average latency {:.2?}",
                s.tps, s.mean
            );
            println!(
                "  {:<14} {:>22} {:>16}",
                "partition id", "delayed transactions", "average delay"
            );
            for (p, (frac, avg)) in s.delays.iter().enumerate() {
                println!("  #{:<13} {:>21.1}% {:>16.2?}", p + 1, frac * 100.0, avg);
            }
        }
    }
    println!(
        "\npaper (3 replicas): 2P = 53,340 tps / 35.7 µs; 4P = 92,808 tps / 41.3 µs.\n\
         paper (5 replicas): 2P = 42,658 tps / 45 µs;  4P = 73,724 tps / 52.2 µs."
    );
}
