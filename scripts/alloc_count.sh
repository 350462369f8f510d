#!/usr/bin/env bash
# Heap allocations per request of a ledger workload: builds the
# benchmark's `ledger` binary into a target directory of its own, runs
# `ledger main` on one request stream twice under the scripts/alloc_count.c
# counter — in full and with `--short 1` — and prints
#
#   (full run's allocations − short run's) ÷ (full run's attempted − short run's)
#
# with the malloc, calloc and realloc counts behind it. Both runs build the
# same deployment, so the difference leaves construction and teardown out
# and counts what the extra requests cost.
#
#   scripts/alloc_count.sh <workload> <stream>
#
# e.g. `scripts/alloc_count.sh null_order 3`. The counts repeat exactly
# for one tree, stream and workload: the simulation is deterministic.
#
# Building the benchmark package rewrites the tracked benchmark/Cargo.lock
# when the program's dependencies changed: `git checkout
# benchmark/Cargo.lock` afterwards.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -eq 2 ] || { echo "usage: $0 <workload> <stream>" >&2; exit 2; }
workload=$1 stream=$2

dir=$PWD/target/alloc-count
mkdir -p "$dir"
gcc -O2 -shared -fPIC -o "$dir/alloc_count.so" scripts/alloc_count.c
CARGO_TARGET_DIR=$dir cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
ledger=$dir/release/ledger

rm -rf "$dir/counts"
mkdir -p "$dir/counts"
for run in full short; do
  short=0
  [ "$run" = short ] && short=1
  ALLOC_COUNT_OUT=$dir/counts/$run LD_PRELOAD=$dir/alloc_count.so \
    "$ledger" main --workload "$workload" --seed "$stream" --short "$short" >"$dir/counts/$run.json"
done

python3 - "$dir/counts" "$workload" "$stream" <<'PY'
import glob, json, os, sys

counts_dir, workload, stream = sys.argv[1:]

def run(name):
    """A run's attempted requests and its allocations by function."""
    with open(os.path.join(counts_dir, name + ".json")) as f:
        attempted = json.load(f)["attempted"]
    files = glob.glob(os.path.join(counts_dir, name + ".*[0-9]"))
    if len(files) != 1:
        sys.exit(f"{name}: expected one count file, found {len(files)}")
    with open(files[0]) as f:
        allocs = {fn: int(n) for fn, n in (line.split() for line in f)}
    return attempted, allocs

(full_req, full), (short_req, short) = run("full"), run("short")
requests = full_req - short_req
if requests <= 0:
    sys.exit(f"the full run attempted {full_req} requests, the short one {short_req}")
per = {fn: (full[fn] - short[fn]) / requests for fn in full}
print(f"{workload} stream {stream}: {requests} requests "
      f"({full_req} full - {short_req} short)")
for fn, n in per.items():
    print(f"  {fn:8} {n:10.1f} per request")
print(f"  {'all':8} {sum(per.values()):10.1f} per request")
PY
