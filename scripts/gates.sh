#!/usr/bin/env bash
# The gate list, once: every fixed-seed gate and detector self-test that
# runs on top of the release build. `scripts/tier1.sh` ends by running it
# and CI's `gates` job runs nothing else.
set -euo pipefail
cd "$(dirname "$0")/.."

# No stanza here compares two wall clocks: what a switch, tracing or
# profiling costs in host time is judged on the ledger's interleaved pairs
# (`sim.kernel_handoff_ns_per_event` over `sim.kernel_timer_ns_per_event`,
# `trace.overhead_pct`; benchmark/, scripts/ledger_pairs.py).

# Chaos gate: seeded fault plans through the SMR consistency checker
# (DESIGN.md §9). Fixed seed window so failures replay exactly; on a
# non-linearizable history or a stall the suite exits non-zero and prints
# the failing seed plus its shrunken minimal reproduction.
if ! cargo run -q --release --offline -p heron-bench --bin chaos_suite -- \
    --quick --seed 9000 --schedules 8; then
  echo "gates: chaos suite FAILED — replay with:" >&2
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
  echo "gates: race audit FAILED — replay with:" >&2
  echo "  cargo run --release -p heron-bench --bin race_audit -- --quick --seed 42" >&2
  exit 1
fi

# Detector self-test: disable the dual-versioning victim guard and require
# the race detector to catch the resulting protocol violation.
cargo run -q --release --offline -p heron-bench --bin race_audit -- \
    --quick --selftest

# Explain gate: one traced + profiled fig7-shaped run (DESIGN.md §11).
# Exports the Perfetto trace with counter tracks and the folded wait-state
# stacks, and requires every p999 exemplar's path (parks carved out of the
# stage they interrupted) to sum exactly to its end-to-end latency and be
# found in the trace. All virtual time: deterministic per seed. (Span sums
# == Breakdown rows, at width 1 and 4: `cargo test`, trace_observability.rs;
# switch on/off schedule identity: schedule_hash.rs; host cost: the ledger.)
if ! cargo run -q --release --offline -p heron-bench --bin explain -- \
    --quick --seed 42; then
  echo "gates: explain FAILED — replay with:" >&2
  echo "  cargo run --release -p heron-bench --bin explain -- --quick --seed 42" >&2
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
  echo "gates: P-SMR scaling gate FAILED — remeasure with:" >&2
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
  echo "gates: exploration gate FAILED — replay with:" >&2
  echo "  cargo run --release -p heron-bench --bin explore_suite -- --gate --quick --seed 42" >&2
  exit 1
fi

# Detector self-test: inject a deadlock, a livelock, and the re-broken
# PR 8 has_work gate; require each to be caught and shrunk to a minimal
# replayable trace (proves the exploration gate can actually fail).
cargo run -q --release --offline -p heron-bench --bin explore_suite -- \
    --quick --selftest

# Bench trend gate: fresh BENCH_*.json vs the committed baselines; a >20 %
# geomean regression on the fig4 / psmr / recovery figures (virtual time)
# fails.
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
  echo "gates: recovery gate FAILED — remeasure with:" >&2
  echo "  cargo run --release -p heron-bench --bin recovery_bench -- --quick" >&2
  exit 1
fi
