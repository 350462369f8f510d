//! **Heron** — scalable state machine replication on shared memory.
//!
//! A comprehensive Rust reproduction of *"Heron: Scalable State Machine
//! Replication on Shared Memory"* (Eslahi-Kelorazi, Le, Pedone — DSN
//! 2023): a partitioned SMR system that scales throughput with the number
//! of partitions and coordinates linearizable multi-partition execution
//! over one-sided RDMA in microseconds.
//!
//! This umbrella crate re-exports the whole stack:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `heron-core` | Heron itself: dual-versioned store, Phase 2/4 coordination, execution engine, state transfer, clients |
//! | [`multicast`] | `amcast` | RDMA-based genuine atomic multicast (RamCast-style) |
//! | [`rdma`] | `rdma-sim` | the simulated fabric (one-sided verbs, RC queue pairs, two-sided sends); Heron runs it at RDMA latencies, the baseline at kernel-TCP ones |
//! | [`simulator`] | `sim` | deterministic virtual-time simulation runtime |
//! | [`tpcc`] | `tpcc` | the TPC-C workload of the paper's evaluation |
//! | [`baseline`] | `dynastar` | the DynaStar message-passing baseline of Fig. 5 |
//!
//! See `examples/quickstart.rs` for a first program, `DESIGN.md` for the
//! architecture and the paper-to-code map, and `EXPERIMENTS.md` for the
//! reproduction of every table and figure.
//!
//! # Quick start
//!
//! ```
//! use heron::core::{HeronCluster, HeronConfig};
//! use heron::rdma::{Fabric, LatencyModel};
//! use heron::simulator::Simulation;
//! use heron::tpcc::{TpccApp, TpccScale};
//! use std::sync::Arc;
//!
//! let simulation = Simulation::new(7);
//! let fabric = Fabric::new(LatencyModel::connectx4());
//! let app = Arc::new(TpccApp::new(TpccScale::small(), 2));
//! let cluster = HeronCluster::build(&fabric, HeronConfig::new(2, 3), app.clone());
//! cluster.spawn(&simulation);
//!
//! let mut client = cluster.client("quick");
//! simulation.spawn("client", move || {
//!     let mut gen = app.generator(1);
//!     for _ in 0..5 {
//!         client.execute(&gen.next(1).encode());
//!     }
//!     sim::stop();
//! });
//! simulation.run().unwrap();
//! assert_eq!(cluster.metrics().latencies.lock().len(), 5);
//! ```
#![forbid(unsafe_code)]

/// Heron core: the paper's contribution.
pub use heron_core as core;

/// RDMA-based atomic multicast (the ordering layer, paper §II-B).
pub use amcast as multicast;

/// Simulated RDMA fabric.
pub use rdma_sim as rdma;

/// Deterministic virtual-time simulator.
pub use sim as simulator;

/// TPC-C workload.
pub use tpcc;

/// DynaStar baseline.
pub use dynastar as baseline;
