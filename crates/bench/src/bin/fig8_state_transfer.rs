//! **Figure 8** — state-transfer latency: the protocol alone (no data),
//! then 64 KB / 640 KB / 6.4 MB of state, for serialized and
//! non-serialized (native) tables — plus the paper's derived full-TPC-C-
//! warehouse recovery time.
//!
//! The paper's observations this must reproduce: the bare protocol costs a
//! few µs (two RDMA writes); latency grows proportionally with data size;
//! (de)serialization makes native-table transfer markedly slower; a full
//! warehouse (≈105 MB serialized + ≈32 MB native) recovers in ≈ 0.1 s.
//!
//! Method: one replica of partition 0 is crashed while a controlled
//! amount of partition-0 state is overwritten; a multi-partition request
//! whose remote read can no longer be served consistently turns the
//! recovered replica into a lagger, which triggers Algorithm 3. The
//! full-warehouse number is derived from the measured per-byte rates, as
//! the paper does (§V-E2).
//!
//! `cargo run -p heron-bench --release --bin fig8_state_transfer [--quick]`

use heron_bench::banner;
use heron_bench::syncapp::run_transfer as run_transfer_cfg;
use heron_core::{Slot, StorageKind};
use std::time::Duration;
use tpcc::TpccScale;

/// Runs one transfer scenario with default Heron config; returns
/// `(payload bytes, duration)`.
fn run_transfer(kind: StorageKind, objects: u32, value_len: u32) -> (u64, Duration) {
    run_transfer_cfg(kind, objects, value_len, |_| {})
}

fn main() {
    banner(
        "Figure 8: state-transfer latency",
        "§V-E2, Fig. 8 — paper: protocol-only = 2 RDMA writes; 64 KB serialized ≈ 26 µs; \
         latency ∝ size; (de)serialization degrades native transfers; full warehouse ≈ 109.4 ms",
    );
    // Value of 8192 B → a 16 416 B dual-version slot, 16 432 B of transfer
    // payload per object with its record header.
    let value_len = 8_192u32;
    println!("{:<26} {:>14} {:>14}", "scenario", "bytes moved", "latency");
    let (b, d) = run_transfer(StorageKind::Serialized, 0, value_len);
    println!("{:<26} {:>14} {:>14.2?}", "Protocol (no data)", b, d);
    let mut rates: Vec<(StorageKind, f64)> = Vec::new();
    for (label, kind) in [
        ("serialized", StorageKind::Serialized),
        ("non-serialized", StorageKind::Native),
    ] {
        for objects in [4u32, 40, 400] {
            let (b, d) = run_transfer(kind, objects, value_len);
            println!(
                "{:<26} {:>14} {:>14.2?}",
                format!("{} KB {label}", objects * 16),
                b,
                d
            );
            if objects == 400 {
                rates.push((kind, b as f64 / d.as_secs_f64()));
            }
        }
    }
    // Full-warehouse recovery, derived from the measured rates exactly as
    // the paper derives its 109.4 ms (§V-E2).
    // The serialized tables (Stock, Customer) are their rows' slots; the
    // native tables are the rest of what the store holds for a warehouse.
    let scale = TpccScale::full();
    let slot = |row: usize| Slot::size_for_cap(Slot::cap_for(row)) as u64;
    let serialized_bytes = scale.items as u64 * slot(tpcc::StockRow::SIZE)
        + scale.districts as u64 * scale.customers as u64 * slot(tpcc::CustomerRow::SIZE);
    let native_bytes = scale.stored_bytes_per_warehouse() - serialized_bytes;
    let ser_rate = rates
        .iter()
        .find(|(k, _)| *k == StorageKind::Serialized)
        .map(|(_, r)| *r)
        .unwrap_or(1.0);
    let nat_rate = rates
        .iter()
        .find(|(k, _)| *k == StorageKind::Native)
        .map(|(_, r)| *r)
        .unwrap_or(1.0);
    let t_ser = serialized_bytes as f64 / ser_rate;
    let t_nat = native_bytes as f64 / nat_rate;
    println!(
        "\nfull TPC-C warehouse (derived from measured rates, as the paper does):\n\
           serialized tables : {:>7.1} MB @ {:>6.1} MB/s → {:>7.1} ms   (paper: 105.3 MB → 36.9 ms)\n\
           native tables     : {:>7.1} MB @ {:>6.1} MB/s → {:>7.1} ms   (paper: 32.4 MB → 72.5 ms)\n\
           total recovery    : {:>7.1} ms                              (paper: 109.4 ms)",
        serialized_bytes as f64 / 1e6,
        ser_rate / 1e6,
        t_ser * 1e3,
        native_bytes as f64 / 1e6,
        nat_rate / 1e6,
        t_nat * 1e3,
        (t_ser + t_nat) * 1e3,
    );
}
