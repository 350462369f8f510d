#!/usr/bin/env bash
# Tier-1 verification: release build + full test suite, fully offline.
# Every dependency is a vendored shim under shims/ (see README), so this
# must pass with no network access from a fresh checkout.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
# `cargo test` is also where the schedule-identity proof lives, once:
# crates/bench/tests/schedule_hash.rs runs six shapes with no diagnostic
# switch, with the race detector / tracing / profiling / Baseline
# exploration each alone and with all four together, and pins every cell
# to the committed (schedule_hash, events, virtual_ns). No gate below
# re-proves "on == off"; each keeps what only it can do.
cargo test -q --offline --workspace
# The coroutine shim is a path dependency, not a workspace member; its
# tests (create / resume / suspend, panics, the guard page) run here.
cargo test -q --offline -p coro

# Lint gate: formatting and clippy, warnings denied, and the unsafe fence:
# every library crate root but shims/coro carries #![forbid(unsafe_code)]
# and the keyword appears nowhere else.
cargo fmt --check
cargo clippy --workspace --all-targets --offline -- -D warnings
scripts/unsafe_fence.sh

# The two host-time ratio gates below (switch cost, profiling overhead)
# compare wall times a few per cent apart. The simulator itself is one
# thread since PR 14, and `sched_bench --gate` passes unpinned; the 5 %
# profiling-overhead budget still flips on a shared 2-core box (readings
# in EXPERIMENTS.md, "Processes as coroutines"), pinned or not, and
# pinning narrows it. Pin both to one core where `taskset` and a second
# core exist; run them as they are otherwise.
pin() {
  if taskset -c 1 true 2>/dev/null; then taskset -c 1 "$@"; else "$@"; fi
}

# Chaos gate: seeded fault plans through the SMR consistency checker
# (DESIGN.md §9). Fixed seed window so failures replay exactly; on a
# non-linearizable history or a stall the suite exits non-zero and prints
# the failing seed plus its shrunken minimal reproduction.
if ! cargo run -q --release --offline -p heron-bench --bin chaos_suite -- \
    --quick --seed 9000 --schedules 8; then
  echo "tier1: chaos suite FAILED — replay with:" >&2
  echo "  cargo run --release -p heron-bench --bin chaos_suite -- --quick --seed <failing seed> --schedules 1" >&2
  exit 1
fi

# Checker self-test: corrupt one applied command and require the checker to
# report the violation (proves the gate can actually fail).
cargo run -q --release --offline -p heron-bench --bin chaos_suite -- \
    --quick --selftest

# Race gate: Sim-TSan happens-before audit over the fig4/fig5/chaos
# schedule shapes at fixed seeds (DESIGN.md §10). Any race or protocol
# lint exits non-zero with the full report. (That the detector leaves the
# schedule alone: `cargo test`, schedule_hash.rs.)
if ! cargo run -q --release --offline -p heron-bench --bin race_audit -- \
    --quick --seed 42; then
  echo "tier1: race audit FAILED — replay with:" >&2
  echo "  cargo run --release -p heron-bench --bin race_audit -- --quick --seed 42" >&2
  exit 1
fi

# Detector self-test: disable the dual-versioning victim guard and require
# the race detector to catch the resulting protocol violation.
cargo run -q --release --offline -p heron-bench --bin race_audit -- \
    --quick --selftest

# Trace gate: virtual-time tracing explainer (DESIGN.md §11). Exports the
# Perfetto trace and checks the critical-path analyzer's Fig. 6
# attribution against the legacy breakdown counters (≤ 1 % divergence).
# (Tracing on/off schedule identity: `cargo test`, schedule_hash.rs; what
# tracing costs: the ledger's trace.overhead_pct.)
if ! cargo run -q --release --offline -p heron-bench --bin trace_explain -- \
    --quick --seed 42; then
  echo "tier1: trace explain FAILED — replay with:" >&2
  echo "  cargo run --release -p heron-bench --bin trace_explain -- --quick --seed 42" >&2
  exit 1
fi

# Perf gate: a short fixed-work scheduler run (DESIGN.md §12). Fails if
# switch_cost_ratio — host ns per event of the cross-process ping-pong over
# host ns per event of one process sleeping — rises above the ceiling
# committed in bench_results/BENCH_scheduler.json, i.e. waking another
# process got >20 % dearer relative to the rest of the kernel. Gating on a
# ratio, not absolute events/sec, keeps the gate stable across machines.
# (The schedules the six workloads execute are pinned in `cargo test`,
# sched_workloads.rs; the wheel-vs-heap proof is sim's queue.rs unit test.)
if ! pin cargo run -q --release --offline -p heron-bench --bin sched_bench -- \
    --gate --quick; then
  echo "tier1: scheduler perf gate FAILED — remeasure with:" >&2
  echo "  cargo run --release -p heron-bench --bin sched_bench -- --quick" >&2
  exit 1
fi

# P-SMR gate: executor-pool scaling (DESIGN.md §13). Sweeps width ∈
# {1,2,4,8} × conflict level on TPC-C fixed work; fails if the width-8
# speedups drop below the quick-mode floors or if any cell stalls. (The
# per-width process roster, the delivery-order property at widths 1 and 4
# and the pool chaos scenarios run in `cargo test` above via
# schedule_hash.rs / psmr_order.rs / chaos.rs.)
if ! cargo run -q --release --offline -p heron-bench --bin psmr_scaling -- \
    --gate --quick; then
  echo "tier1: P-SMR scaling gate FAILED — remeasure with:" >&2
  echo "  cargo run --release -p heron-bench --bin psmr_scaling -- --quick" >&2
  exit 1
fi

# Exploration gate: Sim-Check schedule exploration (DESIGN.md §15). Runs
# the fig4 + chaos + recovery shapes under Baseline with the detectors
# armed, then a fixed-seed random/PCT budget; all must stay free of
# deadlock/livelock findings. (Exploration-off == Baseline schedule
# identity: `cargo test`, schedule_hash.rs.)
if ! cargo run -q --release --offline -p heron-bench --bin explore_suite -- \
    --gate --quick --seed 42; then
  echo "tier1: exploration gate FAILED — replay with:" >&2
  echo "  cargo run --release -p heron-bench --bin explore_suite -- --gate --quick --seed 42" >&2
  exit 1
fi

# Detector self-test: inject a deadlock, a livelock, and the re-broken
# PR 8 has_work gate; require each to be caught and shrunk to a minimal
# replayable trace (proves the exploration gate can actually fail).
cargo run -q --release --offline -p heron-bench --bin explore_suite -- \
    --quick --selftest

# Profiling gate: Sim-Prof wait-state profiler (DESIGN.md §16). Requires
# every p999 exemplar's wait-state decomposition to sum exactly to its
# end-to-end latency and the blamed aggregate to match the legacy Fig. 6
# breakdown within 1 %, and bounds the profiling wall overhead at 5 %.
# (Profiler on/off schedule identity on the fig4 + chaos + psmr-w4
# shapes: `cargo test`, schedule_hash.rs.)
if ! pin cargo run -q --release --offline -p heron-bench --bin prof_explain -- \
    --gate --quick --seed 42; then
  echo "tier1: profiling gate FAILED — replay with:" >&2
  echo "  cargo run --release -p heron-bench --bin prof_explain -- --gate --quick --seed 42" >&2
  exit 1
fi

# Bench trend gate: fresh BENCH_*.json vs the committed baselines; a >20 %
# geomean regression on the fig4 / psmr / recovery / scheduler figures fails.
# (Skips figure pairs that are not apples-to-apples, e.g. quick vs full.)
python3 scripts/bench_trend.py

# Recovery gate: durable checkpoints + cold restart (DESIGN.md §14). Runs
# the fixed-seed durable-recovery chaos scenarios through the checker,
# and requires cold-restart cost to scale with the WAL tail (checkpoint +
# tail replay, never full history). (With checkpointing disabled the
# durability subsystem must be schedule-invisible: `cargo test`,
# schedule_hash.rs pins the hash BENCH_recovery.json used to carry.)
if ! cargo run -q --release --offline -p heron-bench --bin recovery_bench -- \
    --gate --quick; then
  echo "tier1: recovery gate FAILED — remeasure with:" >&2
  echo "  cargo run --release -p heron-bench --bin recovery_bench -- --quick" >&2
  exit 1
fi
