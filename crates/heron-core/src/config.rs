//! Heron deployment configuration.

use amcast::McastConfig;
use sim::storage::Storage;
use std::time::Duration;

/// Durable-checkpoint configuration. Present only when the deployment has
/// a simulated persistent storage device: each replica then appends the
/// ordering layer's delivery log to a per-replica WAL, periodically
/// persists an application checkpoint stamped with the executor's commit
/// watermark and the ordering epoch, and truncates the WAL behind that
/// horizon. A fully crashed partition
/// rebuilds from checkpoint + WAL tail instead of live peer memory.
///
/// Absent (`HeronConfig::durability == None`, the default), no storage
/// device is touched, no checkpointer process is spawned and schedules
/// are bit-identical to a build without this subsystem.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// The shared storage device; each replica carves out its own
    /// namespaces (`heron-p{p}r{i}` for checkpoints, `mcast-g{g}r{i}`
    /// for the ordering WAL).
    pub storage: Storage,
    /// Period of the per-replica checkpointer process. Each round waits
    /// for a quiescent executor boundary, persists a checkpoint and
    /// truncates the logs behind it.
    pub checkpoint_interval: Duration,
}

impl DurabilityConfig {
    /// Checkpointing on `storage` every `interval`.
    pub fn new(storage: Storage, interval: Duration) -> Self {
        DurabilityConfig {
            storage,
            checkpoint_interval: interval,
        }
    }
}

/// Configuration of a Heron deployment.
#[derive(Debug, Clone)]
pub struct HeronConfig {
    /// Number of partitions (shards).
    pub partitions: usize,
    /// Replicas per partition, `n = 2f + 1`.
    pub replicas_per_partition: usize,
    /// Maximum number of clients.
    pub max_clients: usize,
    /// Extra delay δ a replica tentatively waits for *all* replicas after
    /// reaching a majority in Phase 4 (paper §V-E1, Table I). `None`
    /// disables the heuristic.
    pub wait_for_all: Option<Duration>,
    /// State-transfer chunk size (paper: 32 KiB payloads perform best).
    pub transfer_chunk: usize,
    /// Execution lanes per replica (P-SMR). Every replica has one delivery
    /// driver process. At `1` (the default) the driver executes each
    /// command itself, in delivery order, on its inline lane — the paper's
    /// executor, with no worker processes. Widths above 1 spawn that many
    /// virtual-time worker processes, to which the same driver hands
    /// commands: those with overlapping
    /// [`crate::StateMachine::conflict_keys`] chain in delivery order,
    /// independent ones run concurrently.
    pub executor_width: usize,
    /// Enables virtual-time tracing: causal spans across the client, the
    /// ordering layer, the RDMA verbs and the executor phases, exportable
    /// as Perfetto JSON, with the per-process wait states and utilization
    /// gauges beside them (see `sim::trace`, `sim::prof`). Off by default;
    /// when off every trace hook is one `OnceCell` flag test and schedules
    /// are bit-identical either way. `Metrics` records the same either way,
    /// and [`sim::Simulation::enable_tracing`] on the simulation the
    /// cluster is spawned into records the same events.
    pub tracing: bool,
    /// Durable checkpointing (see [`DurabilityConfig`]). `None` (the
    /// default) runs the original all-in-memory system bit-for-bit.
    pub durability: Option<DurabilityConfig>,
    /// Ordering-layer configuration.
    pub mcast: McastConfig,
}

impl HeronConfig {
    /// A deployment of `partitions` × `replicas_per_partition` with
    /// defaults calibrated to the paper's testbed.
    pub fn new(partitions: usize, replicas_per_partition: usize) -> Self {
        let mcast = McastConfig::new(partitions, replicas_per_partition);
        HeronConfig {
            partitions,
            replicas_per_partition,
            max_clients: 64,
            wait_for_all: Some(Duration::from_micros(20)),
            transfer_chunk: 32 * 1024,
            executor_width: 1,
            tracing: false,
            durability: None,
            mcast,
        }
    }

    /// Enables durable checkpointing (see [`DurabilityConfig`]).
    #[must_use]
    pub fn with_durability(mut self, storage: Storage, interval: Duration) -> Self {
        self.durability = Some(DurabilityConfig::new(storage, interval));
        self
    }

    /// Enables (or disables) virtual-time tracing (see
    /// [`HeronConfig::tracing`]).
    #[must_use]
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Sets the number of execution lanes per replica (see
    /// [`HeronConfig::executor_width`]).
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn with_executor_width(mut self, width: usize) -> Self {
        assert!(width >= 1, "executor_width must be at least 1");
        self.executor_width = width;
        self
    }

    /// Sets the maximum number of clients (and sizes the ordering layer's
    /// submission rings to match).
    #[must_use]
    pub fn with_max_clients(mut self, n: usize) -> Self {
        self.max_clients = n;
        self.mcast.max_clients = n;
        self
    }

    /// Sets the wait-for-all delay δ (or disables it with `None`).
    #[must_use]
    pub fn with_wait_for_all(mut self, delta: Option<Duration>) -> Self {
        self.wait_for_all = delta;
        self
    }

    /// Sets the ordering layer's group-commit size
    /// ([`McastConfig::max_batch`]; `1`, the default, is the paper's
    /// design). The execution layer has no batching setting of its own:
    /// each barrier entry is one write per peer.
    #[must_use]
    pub fn with_max_batch(mut self, n: usize) -> Self {
        self.mcast = self.mcast.with_max_batch(n);
        self
    }

    /// Majority size per partition.
    pub fn majority(&self) -> usize {
        self.replicas_per_partition / 2 + 1
    }

    /// Panics unless the fields that mirror the ordering layer's sizes
    /// agree with [`HeronConfig::mcast`]. The setters keep them in step; a
    /// direct field write does not, and would surface much later as a ring
    /// overrun or a truncated envelope.
    pub(crate) fn assert_mirrors_mcast(&self) {
        assert_eq!(
            self.partitions, self.mcast.groups,
            "partitions != mcast.groups: size both with HeronConfig::new"
        );
        assert_eq!(
            self.replicas_per_partition, self.mcast.replicas_per_group,
            "replicas_per_partition != mcast.replicas_per_group: size both with HeronConfig::new"
        );
        assert_eq!(
            self.max_clients, self.mcast.max_clients,
            "max_clients != mcast.max_clients: set both with HeronConfig::with_max_clients"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let cfg = HeronConfig::new(4, 3);
        assert_eq!(cfg.mcast.groups, 4);
        assert_eq!(cfg.mcast.replicas_per_group, 3);
        assert_eq!(cfg.majority(), 2);
    }

    #[test]
    fn with_max_clients_propagates_to_mcast() {
        let cfg = HeronConfig::new(1, 3).with_max_clients(100);
        assert_eq!(cfg.max_clients, 100);
        assert_eq!(cfg.mcast.max_clients, 100);
    }

    #[test]
    fn with_max_batch_propagates_to_mcast() {
        let cfg = HeronConfig::new(2, 3).with_max_batch(16);
        assert_eq!(cfg.mcast.max_batch, 16);
        assert_eq!(HeronConfig::new(2, 3).mcast.max_batch, 1);
    }
}
