#!/usr/bin/env bash
# Compares the gates' outputs between two checkouts: runs scripts/gates.sh
# in each (it builds what it runs) and prints `diff -r` of their
# target/gates directories. Every gate prints virtual time only, so a
# change that must leave behaviour alone — a refactor, a host-time
# optimisation — shows no difference here: not in a figure's BENCH file,
# nor in the explain, race, chaos or explore outputs.
#
#   scripts/gates_diff.sh <parent-checkout> <change-checkout>
#
# Prints the differences and exits 1 on any, 0 when the two directories
# are equal. A gate that fails in either checkout does not stop the other
# gates; its output is compared like any other. Each side takes as long as
# scripts/gates.sh (≈ 3 min on 2 cores from a warm build).
set -euo pipefail

[ $# -eq 2 ] || { echo "usage: $0 <parent-checkout> <change-checkout>" >&2; exit 2; }
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)

for co in "$parent" "$change"; do
  echo "== gates in $co"
  # gates.sh exits 1 when a gate failed; its outputs say which, and are
  # compared all the same.
  "$co/scripts/gates.sh" >/dev/null 2>&1 || echo "   (a gate failed in $co)"
done

if diff -r "$parent/target/gates" "$change/target/gates"; then
  echo "== every gate output equal"
else
  exit 1
fi
