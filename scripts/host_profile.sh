#!/usr/bin/env bash
# Where a ledger workload's host time goes, without `perf`: builds the
# benchmark's `ledger` binary with frame pointers into a target directory
# of its own, runs `ledger main` once per request stream under the
# scripts/sampler.c SIGPROF sampler (one process at a time, pinned to one
# core), and prints each function's share of the samples — self (the
# innermost frame) and inclusive (anywhere on the stack) — by `nm` symbol.
# A sample whose innermost frame is in a shared library (libc's copies and
# allocator) counts under the library's name in those tables, and again in
# a third one under its innermost frame inside the binary: the return
# address into the binary the sampler found on the stack (see sampler.c),
# else the first one the frame-pointer walk reached. (libc's own symbols
# are not read: its dynamic symbol table names internal functions after
# the nearest exported one.)
#
#   scripts/host_profile.sh <workload> <first-stream> <last-stream>
#
# e.g. `scripts/host_profile.sh null_coord 1 16`. A stream gives a few
# hundred samples; sum a dozen or more for a stable table. Samples with
# cluster construction or the end-of-run digest on the stack (`bootstrap`,
# `HeronCluster::build`, `state_digest`) are dropped, so the table covers
# the run window. Raw samples stay in target/host-profile/samples/ until
# the next run.
#
# Building the benchmark package rewrites the tracked benchmark/Cargo.lock
# when the program's dependencies changed: `git checkout
# benchmark/Cargo.lock` afterwards.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -eq 3 ] || { echo "usage: $0 <workload> <first-stream> <last-stream>" >&2; exit 2; }
workload=$1 first=$2 last=$3

dir=$PWD/target/host-profile
mkdir -p "$dir"
gcc -O2 -shared -fPIC -o "$dir/sampler.so" scripts/sampler.c
CARGO_TARGET_DIR=$dir RUSTFLAGS="-C force-frame-pointers=yes" \
  cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
ledger=$dir/release/ledger

rm -rf "$dir/samples"
mkdir -p "$dir/samples"
core=$(($(nproc) - 1))
for stream in $(seq "$first" "$last"); do
  SAMPLER_OUT=$dir/samples/s$stream LD_PRELOAD=$dir/sampler.so \
    taskset -c "$core" "$ledger" main --workload "$workload" --seed "$stream" >/dev/null
done

python3 - "$ledger" "$dir/samples" <<'EOF'
import bisect, collections, glob, os, re, subprocess, sys

ledger, samples_dir = sys.argv[1], sys.argv[2]
exe = os.path.realpath(ledger)
EXCLUDE = re.compile(r"bootstrap|HeronCluster::build|state_digest")
TOP = 25

# Function symbols of the binary, by address.
addrs, names = [], []
nm = subprocess.run(["nm", "-C", "-n", "--defined-only", exe], capture_output=True, text=True, check=True)
for line in nm.stdout.splitlines():
    parts = line.split(maxsplit=2)
    if len(parts) == 3 and parts[1] in "tTwW":
        addrs.append(int(parts[0], 16))
        names.append(re.sub(r"::h[0-9a-f]{16}$", "", parts[2]))

def reader(path):
    """One process's samples, each symbolized innermost first."""
    maps, samples, section = [], [], None
    with open(path) as f:
        for line in f:
            if line == "maps\n" or line.startswith("samples "):
                section = line.split()[0]
                continue
            if section == "maps":
                fields = line.split()
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                maps.append((lo, hi, fields[5] if len(fields) > 5 else "[anon]"))
            elif line.strip():
                samples.append([int(x, 16) for x in line.split()])
    maps.sort()
    starts = [lo for lo, _, _ in maps]
    base = min(lo for lo, _, path in maps if path == exe)
    def symbol(addr):
        m = bisect.bisect_right(starts, addr) - 1
        if m < 0 or addr >= maps[m][1]:
            return "[unmapped]"
        if maps[m][2] != exe:
            return "[" + os.path.basename(maps[m][2]) + "]"
        i = bisect.bisect_right(addrs, addr - base) - 1
        return names[i] if i >= 0 else "[ledger]"
    # A return address points after its call: look up the call itself.
    return [[symbol(a if i == 0 else a - 1) for i, a in enumerate(s)] for s in samples]

def in_binary(name):
    return not name.startswith("[") or name == "[ledger]"

total = kept = 0
self_n, incl_n, lib_n = collections.Counter(), collections.Counter(), collections.Counter()
for path in sorted(glob.glob(os.path.join(samples_dir, "*"))):
    for stack in reader(path):
        total += 1
        if any(EXCLUDE.search(s) for s in stack):
            continue
        kept += 1
        self_n[stack[0]] += 1
        incl_n.update(set(stack))
        if not in_binary(stack[0]):
            caller = next((s for s in stack[1:] if in_binary(s)), "[no frame in the binary]")
            lib_n[f"{stack[0]} <- {caller}"] += 1

print(f"{kept} samples in the run window, of {total}")
for title, counts in (("self", self_n), ("inclusive", incl_n), ("library", lib_n)):
    print(f"\n{title:>9}  samples  symbol")
    for name, n in counts.most_common(TOP):
        print(f"{100 * n / max(kept, 1):8.1f}%  {n:7}  {name}")
EOF
