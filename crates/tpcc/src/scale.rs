//! Dataset sizing.

use heron_core::Slot;

/// Table cardinalities per warehouse.
///
/// The paper runs the standard scale (10 districts, 3 000 customers per
/// district, 100 000 stocked items — §IV-A) and reports ≈137 MB of data
/// per warehouse; [`TpccScale::full`] reproduces that scale, which the
/// store holds in ≈159 MB ([`TpccScale::stored_bytes_per_warehouse`]).
/// Benchmarks that sweep many configurations use the reduced
/// [`TpccScale::bench`], which preserves all ratios that matter to the
/// protocol (number of rows touched per transaction is unchanged — only
/// table sizes shrink).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpccScale {
    /// Districts per warehouse.
    pub districts: u8,
    /// Customers per district.
    pub customers: u32,
    /// Items (and stock rows per warehouse).
    pub items: u32,
    /// Pre-loaded orders per district.
    pub initial_orders: u32,
    /// Seed for deterministic data generation.
    pub seed: u64,
}

impl TpccScale {
    /// The TPC-C standard scale the paper evaluates.
    pub const fn full() -> Self {
        TpccScale {
            districts: 10,
            customers: 3_000,
            items: 100_000,
            initial_orders: 3_000,
            seed: 0xC0FFEE,
        }
    }

    /// Reduced scale for multi-configuration benchmark sweeps.
    pub const fn bench() -> Self {
        TpccScale {
            districts: 10,
            customers: 120,
            items: 2_000,
            initial_orders: 60,
            seed: 0xC0FFEE,
        }
    }

    /// Tiny scale for unit/integration tests.
    pub const fn small() -> Self {
        TpccScale {
            districts: 2,
            customers: 12,
            items: 50,
            initial_orders: 6,
            seed: 0xC0FFEE,
        }
    }

    /// Of the pre-loaded orders, how many (per district) are still
    /// undelivered at time zero (the spec loads the newest 30 % without a
    /// carrier, giving Delivery work to do).
    pub fn initial_undelivered(&self) -> u32 {
        self.initial_orders * 3 / 10
    }

    /// Bytes of registered memory the store allocates for one warehouse's
    /// own rows (the replicated Warehouse and Item tables excluded): per
    /// row, one slot of two versions, each a 16-byte header plus the row
    /// rounded up to a word. The paper's 137.69 MB per warehouse is two
    /// copies of the rows, too. Counted on warehouse 1: each warehouse
    /// draws its own 5–15 lines per pre-loaded order, so the others differ
    /// by a fraction of a percent.
    pub fn stored_bytes_per_warehouse(&self) -> u64 {
        let mut bytes = 0;
        crate::app::warehouse_rows(self, 1, |_, row| {
            bytes += Slot::size_for_cap(Slot::cap_for(row.len())) as u64;
        });
        bytes
    }
}

impl Default for TpccScale {
    fn default() -> Self {
        Self::bench()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_matches_papers_data_volume() {
        // The paper reports 137.69 MB per warehouse (105.3 serialized +
        // 32.39 non-serialized). Our fixed-width rows, as the store holds
        // them, land in the same range.
        let mb = TpccScale::full().stored_bytes_per_warehouse() as f64 / 1e6;
        assert!(
            (100.0..200.0).contains(&mb),
            "full warehouse ≈ {mb:.1} MB, expected the paper's ballpark (137.69 MB)"
        );
    }

    #[test]
    fn stored_bytes_are_what_the_store_allocates_for_one_warehouse() {
        use crate::ids::{self, Table};
        use crate::TpccApp;
        use heron_core::{PartitionId, StateMachine, VersionedStore};
        use rdma_sim::{Fabric, LatencyModel};
        for scale in [TpccScale::small(), TpccScale::bench()] {
            let fabric = Fabric::new(LatencyModel::zero());
            let node = fabric.add_node("wh");
            let store = VersionedStore::new(node.clone());
            let before = node.alloc_bytes(0);
            for (oid, row) in TpccApp::new(scale, 1).bootstrap(PartitionId(0)) {
                if !matches!(ids::table_of(oid), Some(Table::Warehouse | Table::Item)) {
                    store.bootstrap(oid, &row);
                }
            }
            let allocated = node.alloc_bytes(0).0 - before.0;
            assert_eq!(allocated, scale.stored_bytes_per_warehouse(), "{scale:?}");
        }
    }

    #[test]
    fn undelivered_fraction() {
        assert_eq!(TpccScale::full().initial_undelivered(), 900);
        assert!(TpccScale::small().initial_undelivered() >= 1);
    }
}
