//! Simulated RDMA fabric: nodes with registered memory, reliable-connection
//! queue pairs, and one-sided verbs.
//!
//! This crate stands in for the paper's Mellanox ConnectX-4 NICs and jVerbs
//! bindings. It exposes the verb-level API Heron uses (§II-C of the paper):
//!
//! * **one-sided** `read` / `write` / `post_write` (unsignaled) /
//!   `compare_and_swap` — they bypass the remote CPU entirely: the remote
//!   process is never scheduled, memory is mutated by the fabric at the
//!   modeled arrival time;
//! * **two-sided** `send` / `recv` — involve the remote CPU (the receiver
//!   must call [`Node::recv`]); Heron only uses these for the object-address
//!   query RPC;
//! * **RDMA exceptions** — one-sided signaled ops against a crashed node
//!   fail with [`RdmaError::RemoteFailure`], which is how Heron replicas
//!   detect peer failures (Algorithm 2, line 20 of the paper).
//!
//! All latencies come from a configurable [`LatencyModel`] and are charged
//! against the virtual clock of the [`sim`] crate, so protocol behaviour is
//! deterministic and independent of the host machine.
//!
//! # Example
//!
//! ```
//! use rdma_sim::{Fabric, LatencyModel};
//!
//! let simulation = sim::Simulation::new(7);
//! let fabric = Fabric::new(LatencyModel::connectx4());
//! let server = fabric.add_node("server");
//! let client = fabric.add_node("client");
//! let addr = server.alloc_bytes(64);
//!
//! let (server2, client2) = (server.clone(), client.clone());
//! simulation.spawn("client", move || {
//!     let qp = client2.connect(&server2);
//!     qp.write_word(addr, 0xFEED).unwrap();
//!     assert_eq!(qp.read_word(addr).unwrap(), 0xFEED);
//! });
//! simulation.run().unwrap();
//! ```
#![forbid(unsafe_code)]
// A `for` over a `HashMap`/`HashSet` runs in `RandomState` order, which
// differs per process: anything it posts, or reports first, stops replaying.
#![deny(clippy::iter_over_hash_type)]

mod boot;
mod error;
mod fabric;
mod faults;
mod latency;
mod qp;
pub mod tsan;

pub use boot::Boot;
pub use error::{RdmaError, RdmaResult};
pub use fabric::{
    Addr, Fabric, FabricStats, LaneMarks, MemView, Message, Node, NodeId, Poller, Ring,
};
pub use faults::FaultPlan;
pub use latency::LatencyModel;
pub use qp::{QueuePair, WriteBatch};
pub use tsan::{
    AccessSite, ConflictInfo, DetectorStats, RaceDetector, RaceKind, RaceReport, RegionKind,
};
