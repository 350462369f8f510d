//! Benchmark harness reproducing every table and figure of the Heron
//! paper's evaluation (§V).
//!
//! One binary per experiment (see `DESIGN.md` §4 for the index):
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig4_throughput` | Fig. 4 — RamCast / Heron-null / TPCC / local TPCC scalability |
//! | `fig5_vs_dynastar` | Fig. 5 — Heron vs DynaStar throughput & latency |
//! | `fig6_latency_breakdown` | Fig. 6 — ordering/coordination/execution breakdown + CDF |
//! | `fig7_txn_latency` | Fig. 7 — per-transaction-type latency + CDF |
//! | `table1_wait_for_all` | Table I — delayed transactions under wait-for-all |
//! | `fig8_state_transfer` | Fig. 8 — state-transfer latency & full-warehouse recovery |
//! | `ablation_sweeps` | transfer chunk size (§V-E2), Phase-4 cut-off δ (§V-A), end-to-end batching cap |
//! | `chaos_suite` | fault model of §IV — seeded fault plans through the consistency checker |
//! | `race_audit` | Sim-TSan sweep — happens-before race & protocol-lint audit over the fig4/fig5/chaos schedules (DESIGN.md §10) |
//! | `explain` | one traced + profiled run — Perfetto export with counter tracks, top-k request paths, every latency matched to its path, Fig. 6 stage means, wait states, gauges, folded stacks (DESIGN.md §11) |
//! | `explore_suite` | Sim-Check — schedule exploration (random / PCT / preemption-bounded) with deadlock & livelock detection over the fig4/chaos/recovery shapes (DESIGN.md §15) |
//!
//! Run them with `cargo run -p heron-bench --release --bin <name>`; pass
//! `--quick` for a shorter, coarser run. Host-time costs of the
//! implementation itself are measured by the ledger's isolated drivers
//! (`benchmark/`).
#![forbid(unsafe_code)]

pub mod chaos;
pub mod harness;
pub mod null;
pub mod report;
pub mod sched_workloads;
pub mod syncapp;

pub use harness::{fig5_point, run_heron, run_heron_on, LoadSummary, RunConfig, Workload};
pub use null::NullApp;
pub use report::{assert_claims, write_results, Json};

/// `true` when `--quick` was passed: benchmarks shrink their measurement
/// windows for a fast smoke run.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The numeric value following the flag `name` on the command line
/// (`--seed 42`), if any.
pub fn arg_value(name: &str) -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

/// Prints a standard experiment header.
pub fn banner(title: &str, paper: &str) {
    println!("{}", "=".repeat(76));
    println!("{title}");
    println!("paper reference: {paper}");
    println!("{}", "=".repeat(76));
}
