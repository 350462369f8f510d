#!/usr/bin/env bash
# Pure fence: the modules that hold a protocol's rules as a value — amcast's
# Skeen sequencer and heron-core's delivery books — touch nothing but their
# own fields, so their property tests drive the rules with no simulation.
# Above its first #[cfg(test)], no code line of either file (comment lines
# are not read) may name the simulator (`sim::`), the fabric (`rdma_sim`),
# a `Mailbox`, the replica's shared state (`ReplicaShared`) or the `trace`.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
for file in crates/amcast/src/sequencer.rs crates/heron-core/src/books.rs; do
  hits=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit }
              !/^[[:space:]]*\/\// { printf "%s:%d: %s\n", FILENAME, FNR, $0 }' "$file" |
    grep -E '(^|[^[:alnum:]_])(sim::|(rdma_sim|Mailbox|ReplicaShared|trace)([^[:alnum:]_]|$))' || true)
  if [ -n "$hits" ]; then
    echo "pure fence: $file names the simulator, the fabric or shared state:" >&2
    echo "$hits" >&2
    fail=1
  fi
done

[ "$fail" -eq 0 ] && echo "pure fence: ok"
exit "$fail"
