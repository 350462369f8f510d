//! Ablations for the design choices the paper calls out:
//!
//! 1. **State-transfer chunk size** — §V-E2 footnote: data is streamed
//!    with "payloads of 32KBs, which has better performance than smaller
//!    payload sizes for the same amount of data". Sweep the chunk size and
//!    reproduce the knee.
//! 2. **Phase-4 cut-off delay δ** — the roadmap question of §V-A-3: "How
//!    to determine the efficient cut-off time for coordination?" Sweep δ
//!    and measure throughput, latency, and how many laggers (state
//!    transfers) the system suffers. Larger δ trades latency for fewer
//!    laggers; the paper's heuristic is that "a small fraction of the time
//!    needed to execute a multi-partition request is enough".
//! 3. **End-to-end batching cap** — the ordering layer's group commit and
//!    doorbell-coalesced verbs, swept over `max_batch` on null requests.
//!
//! `cargo run -p heron-bench --release --bin ablation_sweeps [--quick]`

use heron_bench::syncapp::run_transfer;
use heron_bench::{banner, quick_mode, run_heron, RunConfig, Workload};
use heron_core::StorageKind;
use std::time::Duration;

fn chunk_size_sweep() {
    println!("\n-- ablation 1: state-transfer chunk size (~640 KB serialized payload) --");
    println!("{:<12} {:>14} {:>14}", "chunk", "bytes moved", "latency");
    // 512-byte values → ≈1.2 KiB dual-version slots, so even 2 KiB chunks
    // hold a record.
    for chunk_kib in [2usize, 4, 8, 16, 32, 64, 128] {
        let (bytes, latency) = run_transfer(StorageKind::Serialized, 546, 512, |cfg| {
            cfg.transfer_chunk = chunk_kib * 1024;
        });
        println!(
            "{:<12} {:>14} {:>14.2?}",
            format!("{chunk_kib} KiB"),
            bytes,
            latency
        );
    }
    println!("paper: 32 KiB outperforms smaller payloads for the same data volume");
}

fn cutoff_sweep(quick: bool) {
    println!("\n-- ablation 2: Phase-4 wait-for-all cut-off δ (TPCC, 2 partitions) --");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>16}",
        "δ", "tps", "mean lat", "p99 lat", "state transfers"
    );
    for delta_us in [0u64, 2, 5, 10, 20, 50] {
        let mut cfg = RunConfig::new(2, 3, Workload::Tpcc).quick(quick);
        cfg.wait_for_all = if delta_us == 0 {
            Some(None) // heuristic disabled
        } else {
            Some(Some(Duration::from_micros(delta_us)))
        };
        let s = run_heron(&cfg);
        println!(
            "{:<10} {:>12.0} {:>12.2?} {:>12.2?} {:>16}",
            if delta_us == 0 {
                "off".to_string()
            } else {
                format!("{delta_us} µs")
            },
            s.tps,
            s.mean,
            s.p99,
            s.transfers_started,
        );
    }
    println!(
        "paper: waiting a small fraction of a multi-partition request's execution time \
         is enough to practically avoid laggers"
    );
}

fn batching_sweep(quick: bool) {
    println!("\n-- ablation 3: end-to-end batching cap (Heron null requests, 4 partitions) --");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>14} {:>10}",
        "max_batch", "tps", "mean lat", "p99 lat", "sim events", "wall"
    );
    let mut base_tps = 0.0;
    for max_batch in [1usize, 2, 4, 8, 16, 32, 64] {
        let s = run_heron(
            &RunConfig::new(4, 3, Workload::Null)
                .quick(quick)
                .with_max_batch(max_batch),
        );
        if max_batch == 1 {
            base_tps = s.tps;
        }
        println!(
            "{:<10} {:>12.0} {:>12.2?} {:>12.2?} {:>14} {:>8.0}ms  ({:.2}x)",
            max_batch,
            s.tps,
            s.mean,
            s.p99,
            s.events,
            s.wall_ms,
            s.tps / base_tps,
        );
    }
    println!(
        "group commit amortizes the leader's per-message ordering CPU and doorbells;\n\
         gains saturate once the window covers the queue the clients can build"
    );
}

fn main() {
    let quick = quick_mode();
    banner(
        "Ablations: transfer chunk size, wait-for-all cut-off, batching",
        "§V-E2 (32 KiB payloads), §V-A question 3 (cut-off time)",
    );
    chunk_size_sweep();
    cutoff_sweep(quick);
    batching_sweep(quick);
}
