//! TPC-C for Heron: the paper's evaluation workload (§IV-A).
//!
//! A complete TPC-C implementation on the partitioned-SMR programming
//! model:
//!
//! * one **warehouse per partition**;
//! * **Warehouse** and **Item** replicated read-only in every partition;
//! * **Customer** and **Stock** stored serialized in RDMA-registered
//!   memory, because remote partitions read them during execution
//!   (Payment and NewOrder respectively);
//! * all five transactions with the paper's mix — NewOrder 45 %,
//!   Payment 43 %, Delivery 4 %, OrderStatus 4 %, StockLevel 4 % — and
//!   the spec's cross-warehouse probabilities (1 % remote NewOrder lines,
//!   15 % remote Payment customers → ≈10 % multi-partition requests).
//!
//! # Example
//!
//! ```
//! use tpcc::{TpccApp, TpccScale, Transaction};
//!
//! let app = TpccApp::new(TpccScale::small(), 4);
//! let mut gen = app.generator(42);
//! let txn = gen.next(1);
//! let bytes = txn.encode();
//! assert_eq!(Transaction::decode(&bytes), Some(txn));
//! ```
#![forbid(unsafe_code)]
// A `for` over a `HashMap`/`HashSet` runs in `RandomState` order, which
// differs per process: anything it posts, or reports first, stops replaying.
#![deny(clippy::iter_over_hash_type)]

mod app;
mod gen;
pub mod ids;
mod rows;
mod scale;
mod ser;
mod txn;

pub use app::TpccApp;
pub use gen::TpccGen;
pub use rows::{
    CustomerRow, DistrictRow, HistoryRow, ItemRow, NewOrderRow, OrderLineRow, OrderRow, StockRow,
    WarehouseRow,
};
pub use scale::TpccScale;
pub use txn::{OrderLineReq, Transaction};
