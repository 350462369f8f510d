#!/usr/bin/env bash
# Tier-1 verification: release build + full test suite, fully offline.
# Every dependency is a vendored shim under shims/ (see README), so this
# must pass with no network access from a fresh checkout.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
# `cargo test` is also where the schedule-identity proof lives, once:
# crates/bench/tests/schedule_hash.rs runs seven shapes with no diagnostic
# switch, with the race detector / tracing (wait states and gauges
# included) / Baseline exploration each alone and with all three together,
# and pins every cell to the committed (schedule_hash, events, virtual_ns).
# No gate below re-proves "on == off"; each keeps what only it can do.
cargo test -q --offline --workspace
# The coroutine shim is a path dependency, not a workspace member; its
# tests (create / resume / suspend, panics, the guard page) run here.
cargo test -q --offline -p coro

# Lint gate: formatting, clippy and rustdoc, warnings denied (a doc link
# to a deleted or private item fails here, not only in a reader's browser),
# the unsafe fence: every library crate root but shims/coro carries
# #![forbid(unsafe_code)] and the keyword appears nowhere else, the config
# fence: every configuration field is set by some code, and the pure fence:
# the modules that hold a protocol's rules as a value (amcast's sequencer,
# heron-core's books) name no simulator, fabric, mailbox, shared state or
# trace.
cargo fmt --check
cargo clippy --workspace --all-targets --offline -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace
scripts/unsafe_fence.sh
scripts/config_fence.sh
scripts/pure_fence.sh

# Everything else — the chaos, race, explain and exploration gates with
# their self-tests, and the figure gates that regenerate fig4, fig5, psmr
# and recovery's committed BENCH files and diff them byte for byte — is one
# list, which CI's `gates` job runs too. Every gate prints virtual time
# only: two checkouts' target/gates directories differ exactly when
# behaviour did, with no exception.
scripts/gates.sh
