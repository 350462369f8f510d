//! **Heron**: scalable state machine replication on shared memory.
//!
//! A reproduction of *"Heron: Scalable State Machine Replication on Shared
//! Memory"* (Eslahi-Kelorazi, Le, Pedone — DSN 2023). Heron shards the
//! application state across partitions (scalability) and coordinates
//! linearizable execution over one-sided RDMA (microsecond latency):
//!
//! * requests are ordered within and across partitions by an RDMA-based
//!   **atomic multicast** (the [`amcast`] crate);
//! * **single-partition requests** execute as in classic SMR;
//! * **multi-partition requests** execute at *every* involved partition:
//!   a Phase-2 barrier (one-sided writes + majority wait) guarantees peers
//!   have caught up, remote objects are read with one-sided RDMA reads
//!   under a **dual-versioning** scheme that tolerates concurrent writers,
//!   local objects only are written, and a Phase-4 barrier stops anyone
//!   from racing ahead;
//! * replicas left behind by the majority quorums (**laggers**) recover
//!   with a state-transfer protocol that streams 32 KiB RDMA writes.
//!
//! Everything runs on the deterministic virtual-time fabric of the [`sim`]
//! and [`rdma_sim`] crates, so latencies are modeled (calibrated to the
//! paper's ConnectX-4 testbed) and every run is reproducible.
//!
//! # Example
//!
//! A replicated counter on two partitions:
//!
//! ```
//! use heron_core::{
//!     Execution, HeronCluster, HeronConfig, LocalReader, ObjectId, PartitionId, Placement,
//!     ReadSet, StateMachine,
//! };
//! use bytes::Bytes;
//! use rdma_sim::{Fabric, LatencyModel};
//! use std::sync::Arc;
//!
//! struct Counters;
//! impl StateMachine for Counters {
//!     fn placement(&self, oid: ObjectId) -> Placement {
//!         Placement::Partition(PartitionId((oid.0 % 2) as u16))
//!     }
//!     fn destinations(&self, req: &[u8]) -> Vec<PartitionId> {
//!         vec![PartitionId(req[0] as u16 % 2)]
//!     }
//!     fn read_set(&self, req: &[u8]) -> Vec<ObjectId> {
//!         vec![ObjectId(req[0] as u64)]
//!     }
//!     fn execute(
//!         &self,
//!         _p: PartitionId,
//!         req: &[u8],
//!         reads: &ReadSet,
//!         _local: &dyn LocalReader,
//!     ) -> Execution {
//!         let oid = ObjectId(req[0] as u64);
//!         let v = reads.get(oid).map(|b| b[0]).unwrap_or(0);
//!         Execution {
//!             writes: vec![(oid, Bytes::copy_from_slice(&[v + 1]))],
//!             response: Bytes::copy_from_slice(&[v + 1]),
//!             compute: std::time::Duration::from_micros(1),
//!         }
//!     }
//!     fn bootstrap(&self, p: PartitionId) -> Vec<(ObjectId, Bytes)> {
//!         (0..4u64)
//!             .filter(|o| o % 2 == p.0 as u64)
//!             .map(|o| (ObjectId(o), Bytes::copy_from_slice(&[0])))
//!             .collect()
//!     }
//! }
//!
//! let simulation = sim::Simulation::new(1);
//! let fabric = Fabric::new(LatencyModel::connectx4());
//! let cluster = HeronCluster::build(&fabric, HeronConfig::new(2, 3), Arc::new(Counters));
//! cluster.spawn(&simulation);
//! let mut client = cluster.client("c0");
//! simulation.spawn("client", move || {
//!     assert_eq!(client.execute(&[0])[0], 1);
//!     assert_eq!(client.execute(&[0])[0], 2);
//!     assert_eq!(client.execute(&[1])[0], 1);
//! });
//! simulation.run_until(sim::SimTime::from_millis(50)).unwrap();
//! ```
#![forbid(unsafe_code)]
// A `for` over a `HashMap`/`HashSet` runs in `RandomState` order, which
// differs per process: anything it posts, or reports first, stops replaying.
#![deny(clippy::iter_over_hash_type)]

mod app;
pub mod checker;
pub mod checkpoint;
mod client;
mod cluster;
mod config;
mod executor;
pub mod explain;
mod layout;
mod metrics;
mod replica;
mod server;
mod store;
mod types;

pub use app::{Execution, LocalReader, ReadSet, StateMachine};
pub use checker::{CheckedClient, Checker, OpRecord, SequentialSpec, Violation};
pub use checkpoint::CheckpointMeta;
pub use client::HeronClient;
pub use cluster::HeronCluster;
pub use config::{DurabilityConfig, HeronConfig};
pub use layout::ENV_HDR;
pub use metrics::{quantile, Breakdown, DelayCounters, Metrics, StageMeans, TransferRecord};
pub use replica::{TRANSFER_SLOTS, TRANSFER_TIMEOUT};
pub use store::{Slot, VersionedStore, SABOTAGE_DUAL_VERSION_GUARD};
pub use types::{ObjectId, PartitionId, Placement, StorageKind};

// Re-exported for applications that need ordering-layer types.
pub use amcast::Timestamp;
