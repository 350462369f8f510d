#!/usr/bin/env bash
# Compares the chaos ladder's verdicts between two checkouts: builds
# `chaos_suite` in each, runs `--seed 9000 --schedules 60` in quick and in
# full mode, and keeps one line per scenario — seed, kind, width and
# PASS/FAIL/STALL — with schedule hashes, fault clauses and violation text
# stripped. A change that must not alter what any check decides (it may
# move a schedule) shows no difference here.
#
#   scripts/ladder_diff.sh <parent-checkout> <change-checkout>
#
# Prints the differing lines (`-` parent, `+` change) and exits 1 on any
# difference, 0 when every verdict is equal. Failing scenarios are shrunk
# by `chaos_suite` itself, so a ladder with failures takes longer.
set -euo pipefail

[ $# -eq 2 ] || { echo "usage: $0 <parent-checkout> <change-checkout>" >&2; exit 2; }
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

for co in "$parent" "$change"; do
  cargo build -q --release --offline --manifest-path "$co/Cargo.toml" -p heron-bench --bin chaos_suite
done

# verdicts <checkout> <mode flag or empty>: one sorted line per scenario.
verdicts() {
  local bin=$1/target/release/chaos_suite
  # The suite exits 1 when a scenario fails; the verdict lines say which.
  { "$bin" --seed 9000 --schedules 60 ${2:+"$2"} || true; } |
    sed -nE 's/^seed ([0-9]+) \(([a-z]+), width ([0-9]+)\): (PASS|FAIL|STALL).*/\1 \2 \3 \4/p' |
    sort
}

status=0
for mode in --quick ""; do
  name=${mode:-full}
  name=${name#--}
  verdicts "$parent" "$mode" >"$out/parent-$name"
  verdicts "$change" "$mode" >"$out/change-$name"
  fails=$(grep -cv ' PASS$' "$out/parent-$name" || true)
  echo "== $name: $(wc -l <"$out/parent-$name") scenarios, $fails not passing at the parent"
  # diff's own status decides: under pipefail a `diff | grep` pipeline
  # fails both when the verdicts differ and when grep finds nothing.
  if diff -U0 "$out/parent-$name" "$out/change-$name" >"$out/diff-$name"; then
    echo "   every verdict equal"
  else
    grep -E '^[-+][0-9]' "$out/diff-$name"
    status=1
  fi
done
exit $status
