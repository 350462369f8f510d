#!/usr/bin/env bash
# The gate list, once: every fixed-seed gate and detector self-test that
# runs on top of the release build. `scripts/tier1.sh` ends by running it
# and CI's `gates` job runs nothing else.
#
# Every gate runs, whatever the ones before it did: a gate that fails or
# is killed must not hide the verdicts of those after it. The table at the
# end has one line per gate — verdict, exit status, the peak resident
# memory of the gate's binary, and the command that replays it — and the
# script exits 1 if any gate failed. The peak is informational: no gate
# passes or fails on it.
#
# Each gate's stdout is also kept, in target/gates/<gate>.out (emptied
# at the start of every run). Every gate prints virtual time only, so a
# change that means to leave behaviour alone shows it as an empty
#   diff -r <parent-checkout>/target/gates <change-checkout>/target/gates
# after running this script in both checkouts, with no exception:
#   scripts/gates_diff.sh <parent-checkout> <change-checkout>
# runs both and the diff.
#
# A figure gate's output is a diff: it regenerates one committed
# bench_results/BENCH_<gate>.json in target/gates/<gate>/ and prints
# `diff -u` of the committed file against the fresh one, so an empty
# .out is a pass. The committed file is never written, and no git history
# is read. To re-pin a figure a change meant to move, copy the fresh file
# from target/gates/<gate>/bench_results/ over the committed one.
set -uo pipefail
cd "$(dirname "$0")/.."

# No stanza here compares two wall clocks: what a switch, tracing or
# profiling costs in host time is judged on the ledger's interleaved pairs
# (`sim.kernel_handoff_ns_per_event` over `sim.kernel_timer_ns_per_event`,
# `trace.overhead_pct`; benchmark/, scripts/ledger_pairs.py). Nor does one
# compare two builds: whether a change moved any chaos verdict against its
# parent is scripts/ladder_diff.sh's question.

verdicts=()
failed=0
outs=target/gates
rm -rf "$outs"
mkdir -p "$outs"
# Where `bench` leaves its binary's peak resident set. Kept outside $outs,
# whose files hold virtual time only.
peak=$(mktemp)
trap 'rm -f "$peak"' EXIT

# gate NAME cmd…: runs the command, keeps its stdout in $outs/NAME.out,
# records its verdict, peak memory and replay line.
gate() {
  local name=$1
  shift
  echo "== gate: $name"
  : >"$peak"
  "$@" | tee "$outs/$name.out"
  local status=${PIPESTATUS[0]}
  local verdict=pass
  if [ "$status" -ne 0 ]; then
    verdict=FAIL
    # 137 = SIGKILL: on this box, the kernel's out-of-memory killer.
    [ "$status" -eq 137 ] && verdict=KILLED
    failed=1
  fi
  local mib
  mib=$(cat "$peak")
  verdicts+=("$(printf '%-18s %-6s %3d %8s  %s' "$name" "$verdict" "$status" "${mib:--}" "$*")")
}

# The bench binaries are built once and run directly, so that a gate's
# status is its own (a killed child of `cargo run` reads as cargo's 101).
cargo build -q --release --offline -p heron-bench --bins || exit 1
release=$(cd "${CARGO_TARGET_DIR:-target}/release" && pwd)
# bench BIN ARGS…: runs BIN with its exit status passed on (a signal as
# 128 + its number, as bash reports it), and writes its peak resident set
# in MiB — the child's ru_maxrss — to $peak.
bench() {
  local bin=$1
  shift
  python3 -c '
import os, subprocess, sys
child = subprocess.Popen(sys.argv[2:])
_, status, usage = os.wait4(child.pid, 0)
with open(sys.argv[1], "w") as peak:
    peak.write(f"{usage.ru_maxrss / 1024:.0f}")
code = os.waitstatus_to_exitcode(status)
sys.exit(128 - code if code < 0 else code)
' "$peak" "$release/$bin" "$@"
}

# figure NAME BIN ARGS…: the gate NAME runs BIN with ARGS — the mode its
# committed bench_results/BENCH_NAME.json was made in — inside
# $outs/NAME, and passes if the file it writes there is byte for byte the
# committed one. The binary's own stdout (wall time included) goes to
# stderr, for people; the gate's output is the diff. Each binary checks
# its paper claims before it writes, and exits non-zero naming the point
# that fails.
figure() {
  gate "$1" regenerate "$@"
}
regenerate() {
  local name=$1 bin=$2
  shift 2
  local file=bench_results/BENCH_$name.json
  mkdir -p "$outs/$name"
  (cd "$outs/$name" && bench "$bin" "$@" >&2) &&
    diff -u --label "$file" --label "$outs/$name/$file" "$file" "$outs/$name/$file"
}

# Chaos gate: seeded fault plans through the SMR consistency checker
# (DESIGN.md §9). Fixed seed window so failures replay exactly; on a
# non-linearizable history or a stall the suite exits non-zero and prints
# the failing seed plus its shrunken minimal reproduction (replay one seed
# with `--seed <failing seed> --schedules 1`). The window is the whole
# quick ladder: seeds 9000–9059 of each scenario kind, 181 scenarios.
gate chaos bench chaos_suite --quick --seed 9000 --schedules 60

# Checker self-test: corrupt one applied command and require the checker to
# report the violation (proves the gate can actually fail).
gate chaos-selftest bench chaos_suite --quick --selftest

# Race gate: Sim-TSan happens-before audit over the fig4/fig5/chaos
# schedule shapes at fixed seeds (DESIGN.md §10). Any race or protocol
# lint exits non-zero with the full report. (That the detector leaves the
# schedule alone: `cargo test`, schedule_hash.rs.)
gate race bench race_audit --quick --seed 42

# Detector self-test: disable the dual-versioning victim guard and require
# the race detector to catch the resulting protocol violation.
gate race-selftest bench race_audit --quick --selftest

# Explain gate: one traced + profiled fig7-shaped run (DESIGN.md §11).
# Exports the Perfetto trace with counter tracks and the folded wait-state
# stacks, and requires every recorded client latency to be exactly one
# traced request path (parks carved out of the stage they interrupted)
# whose segments sum to it. All virtual time: deterministic per seed. (Span sums
# == Breakdown rows, at width 1 and 4: `cargo test`, trace_observability.rs;
# switch on/off schedule identity: schedule_hash.rs; host cost: the ledger.)
gate explain bench explain --quick --seed 42

# Exploration gate: Sim-Check schedule exploration (DESIGN.md §15). Runs
# the fig4 + chaos + recovery shapes under Baseline with the detectors
# armed, then a fixed-seed random/PCT budget; all must stay free of
# deadlock/livelock findings. (Exploration-off == Baseline schedule
# identity: `cargo test`, schedule_hash.rs.)
gate explore bench explore_suite --gate --quick --seed 42

# Detector self-test: inject a deadlock, a livelock, and the re-broken
# PR 8 has_work gate; require each to be caught and shrunk to a minimal
# replayable trace (proves the exploration gate can actually fail).
gate explore-selftest bench explore_suite --quick --selftest

# Figure gates (DESIGN.md §4). Figure 4, throughput scalability, in full
# mode: ordering alone, Heron on null requests, TPC-C and Local TPC-C at
# 1, 2, 4, 8 and 16 partitions, plus the batching ablation at 8 and 16;
# claims: TPC-C throughput rises with each partition count, Local TPC-C
# stays within 5 % of linear. ≈ 40 s at a 3.3 GiB peak on a 2-core
# x86-64 VM.
figure fig4 fig4_throughput

# Figure 5, Heron vs DynaStar on TPC-C at 1–16 warehouses (full mode);
# claims: at every point Heron's throughput is ≥ 10× DynaStar's and
# DynaStar's mean latency ≥ 10× Heron's.
figure fig5 fig5_vs_dynastar

# P-SMR scaling: executor-pool width {1,2,4,8} × conflict level on TPC-C
# fixed work (DESIGN.md §13); claims: the width-8 speedup floors, and no
# cell stalls. (The per-width process roster, the delivery-order property
# at widths 1 and 4 and the pool chaos scenarios run in `cargo test` via
# schedule_hash.rs / psmr_order.rs / chaos.rs.)
figure psmr psmr_scaling --quick

# Recovery: durable checkpoints + cold restart (DESIGN.md §14). Runs the
# fixed-seed durable-recovery chaos scenarios through the checker, and
# requires cold-restart cost to scale with the WAL tail (checkpoint +
# tail replay, never full history) before it writes the sweep. (With
# checkpointing disabled the durability subsystem must be
# schedule-invisible: `cargo test`, schedule_hash.rs.)
figure recovery recovery_bench

echo
echo "gates: verdict per gate (replay: \`bench BIN ARGS\` is \`cargo run --release -p heron-bench --bin BIN -- ARGS\`;"
echo "       \`regenerate NAME BIN ARGS\` is that run in target/gates/NAME, then diff -u of bench_results/BENCH_NAME.json)"
printf '   %-18s %-6s %3s %8s  %s\n' gate verdict "\$?" "peak MiB" command
printf '   %s\n' "${verdicts[@]}"
exit "$failed"
