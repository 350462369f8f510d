//! Deployment wiring: nodes, shared replica state, clients, and spawning.
//!
//! Each replica runs a delivery driver (plus its pool workers above width
//! 1), which executes commands and runs both sides of state transfer —
//! a lagger's driver installs the chunks it asked for itself; a service
//! process, which answers object-address queries; and, with durability, a
//! checkpointer. [`ReplicaShared`] is what they share.

use crate::app::StateMachine;
use crate::books::Keys;
use crate::config::HeronConfig;
use crate::layout::{ReplicaLayout, CHUNK_HDR, COORD_ENTRY, SYNC_ENTRY};
use crate::metrics::Metrics;
use crate::replica::TRANSFER_SLOTS;
use crate::server::Service;
use crate::store::VersionedStore;
use crate::types::{ObjectId, PartitionId};
use amcast::{GroupId, Mcast};
use parking_lot::Mutex;
use rdma_sim::{Addr, Fabric, Node, NodeId, Poller, QueuePair, Ring};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// State shared between a replica's processes.
pub(crate) struct ReplicaShared {
    pub cluster: Rc<ClusterInner>,
    pub partition: PartitionId,
    pub idx: usize,
    pub node: Node,
    pub store: VersionedStore,
    pub layout: ReplicaLayout,
    /// What this replica's executing processes poll
    /// ([`ReplicaLayout::exec_ranges`]).
    pub exec_ranges: [(Addr, usize); 2],
    /// Wait point of the replica's delivery driver: the delivery mailbox's
    /// condition, subscribed to `exec_ranges` and the transfer staging
    /// ring (the driver applies the state transfers it requests). Pool
    /// workers subscribe their own, without the ring.
    pub poller: Poller,
    /// Wait point of the service process: the node inbox's condition. It
    /// subscribes no memory; as a poller, `recover` rings it.
    pub svc_poller: Poller,
    /// Wait point of the checkpointer. Its quiescence predicate reads no
    /// node memory, only the watermarks below, so whoever advances
    /// `completed_req` notifies it ([`Self::set_completed`]).
    pub quiesce: sim::Cond,
    /// `last_req` of Algorithm 1 (raw timestamp; set at delivery).
    pub last_req: AtomicU64,
    /// Raw timestamp of the last request whose write phase finished.
    pub completed_req: AtomicU64,
    /// Cached remote slot addresses: `(oid, node) → (addr, cap)` —
    /// the paper's `object_map`.
    pub object_map: Mutex<HashMap<(ObjectId, NodeId), (Addr, usize)>>,
    /// Address queries answered so far: `oid → nodes heard from` (the
    /// majority-wait of Algorithm 2, lines 11–13).
    pub addr_heard: Mutex<HashMap<ObjectId, Vec<NodeId>>>,
    /// The replica's durable namespace (`heron-p{p}r{i}`), when the
    /// deployment has a [`crate::DurabilityConfig`].
    pub disk: Option<sim::storage::Disk>,
    /// Debug trace of request handling: `(ts_raw, event)` where event is
    /// `e`xecuted (dispatched) or state-`t`ransferred-to.
    pub exec_trace: Mutex<Vec<(u64, char)>>,
    /// The trace's per-key order monitor ([`Self::note_dispatch`]).
    pub key_order: Mutex<KeyOrder>,
    /// Queue pairs to every replica node, `qps[h * n + q]`.
    qps: Vec<QueuePair>,
    /// Where this replica's replies go, by client id: the queue pair to
    /// the client's node and this replica's slot in its response area.
    /// Filled on the first reply to a client; volatile, like `object_map`.
    pub reply_routes: Mutex<HashMap<u64, (QueuePair, Addr)>>,
}

impl ReplicaShared {
    /// Our queue pair to replica `q` of partition `h`.
    pub(crate) fn peer_qp(&self, h: PartitionId, q: usize) -> &QueuePair {
        &self.qps[h.0 as usize * self.cluster.cfg.replicas_per_partition + q]
    }

    /// The node hosting replica `q` of partition `h`.
    pub(crate) fn peer(&self, h: PartitionId, q: usize) -> &Node {
        &self.cluster.nodes[h.0 as usize][q]
    }

    /// Writes `bytes` at `addr` on replica `q` of partition `h`: one
    /// unsignaled RDMA write, or a local write when that replica is us.
    pub(crate) fn write_to(&self, h: PartitionId, q: usize, addr: Addr, bytes: &[u8]) {
        if self.peer(h, q).id() == self.node.id() {
            let _ = self.node.local_write(addr, bytes);
        } else {
            let _ = self.peer_qp(h, q).post_write(addr, bytes.to_vec());
        }
    }

    /// Records the dispatch of command `ts_raw` with conflict keys `keys`
    /// in the execution trace, and checks it where it happens
    /// ([`KeyOrder::note`]). The inline lane passes no keys; its trace is
    /// checked whole.
    pub(crate) fn note_dispatch(&self, ts_raw: u64, keys: &Keys) {
        self.exec_trace.lock().push((ts_raw, 'e'));
        if !keys.is_empty() {
            let completed = self.completed_req.load(Ordering::SeqCst);
            self.key_order.lock().note(ts_raw, keys, completed);
        }
    }

    /// Records that every request up to `ts_raw` finished its write phase
    /// and tells the checkpointer, which waits for exactly this boundary.
    pub(crate) fn set_completed(&self, ts_raw: u64) {
        self.completed_req.store(ts_raw, Ordering::SeqCst);
        self.quiesce.notify_all();
    }

    /// Rings the local doorbell: every executing process of this replica
    /// polls the word, so this is how the service process hands them news
    /// that lives outside node memory (`addr_heard`).
    pub(crate) fn ring_doorbell(&self) {
        let v = self.node.local_read_word(self.layout.doorbell).unwrap_or(0);
        let _ = self
            .node
            .local_write_word(self.layout.doorbell, v.wrapping_add(1));
    }
}

/// What a replica's dispatches did per conflict key: the newest
/// timestamps dispatched with each key, and the first dispatch found at
/// or below the one it must follow, as raw `(key, ts, newest)`.
/// Conflicting commands must start in timestamp order (DESIGN.md §13).
#[derive(Default)]
pub(crate) struct KeyOrder {
    newest: HashMap<u64, Held>,
    /// Keys left in `newest` by its last pruning.
    kept: usize,
    violation: Option<(u64, u64, u64)>,
}

/// The newest start that held a key either way, and the newest that held
/// it exclusive.
#[derive(Default)]
struct Held {
    any: u64,
    exclusive: u64,
}

impl KeyOrder {
    /// Command `ts_raw` started holding `keys`. An exclusive start must
    /// come after every earlier holder of the key, a shared start after
    /// every earlier exclusive holder: a start at or below the newest one
    /// it must follow is the first violation.
    ///
    /// Every start comes above the watermark `completed`, so a key whose
    /// newest start is at or below it orders nothing more: once the map
    /// doubled since it was last pruned, such keys are dropped. It holds
    /// the keys of recent commands, not every key ever dispatched (every
    /// stock row, for TPC-C).
    fn note(&mut self, ts_raw: u64, keys: &Keys, completed: u64) {
        if self.newest.len() >= 2 * self.kept.max(64) {
            self.newest.retain(|_, held| held.any > completed);
            self.kept = self.newest.len();
        }
        for (key, exclusive) in keys.held() {
            let held = self.newest.entry(key).or_default();
            let last = if exclusive { held.any } else { held.exclusive };
            if last >= ts_raw {
                self.violation.get_or_insert((key, ts_raw, last));
            }
            held.any = held.any.max(ts_raw);
            if exclusive {
                held.exclusive = held.exclusive.max(ts_raw);
            }
        }
    }
}

pub(crate) struct ClientInfo {
    pub node: NodeId,
    pub resp_base: Addr,
}

pub(crate) struct ClusterInner {
    pub cfg: HeronConfig,
    pub fabric: Fabric,
    pub app: Arc<dyn StateMachine>,
    pub mcast: Mcast,
    pub nodes: Vec<Vec<Node>>,
    pub metrics: Arc<Metrics>,
    pub clients: Mutex<HashMap<u64, ClientInfo>>,
    pub client_counter: Cell<u64>,
    /// The Sim-TSan race detector, when the fabric has it enabled
    /// (protocol lints consult it on their slow paths).
    pub detector: Option<rdma_sim::RaceDetector>,
    /// The trace handle, when [`HeronConfig::tracing`] is set. Populated at
    /// [`HeronCluster::spawn`] time (tracing is enabled on the simulation,
    /// which `build` never sees).
    pub tracer: Mutex<Option<sim::trace::Tracer>>,
}

/// A Heron deployment: partitioned, replicated state machine on shared
/// memory.
///
/// # Example
///
/// See the crate-level documentation and `examples/quickstart.rs`.
#[derive(Clone)]
pub struct HeronCluster {
    pub(crate) inner: Rc<ClusterInner>,
    pub(crate) replicas: Rc<Vec<Vec<Rc<ReplicaShared>>>>,
}

impl fmt::Debug for HeronCluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HeronCluster")
            .field("partitions", &self.inner.cfg.partitions)
            .field(
                "replicas_per_partition",
                &self.inner.cfg.replicas_per_partition,
            )
            .finish()
    }
}

impl HeronCluster {
    /// Builds a deployment on `fabric`: creates the replica nodes, lays out
    /// the ordering and coordination memory, and bootstraps every
    /// partition's store from the application. When `fabric` has the race
    /// detector enabled ([`Fabric::enable_race_detector`], before this
    /// call), every region is annotated with its protocol role and the
    /// protocol lints run.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.partitions`, `replicas_per_partition` or
    /// `max_clients` were written out of step with `cfg.mcast` (the
    /// message names the setter that keeps them together).
    pub fn build(fabric: &Fabric, cfg: HeronConfig, app: Arc<dyn StateMachine>) -> Self {
        cfg.assert_mirrors_mcast();
        let nodes: Vec<Vec<Node>> = (0..cfg.partitions)
            .map(|p| {
                (0..cfg.replicas_per_partition)
                    .map(|i| fabric.add_node(format!("heron-p{p}r{i}")))
                    .collect()
            })
            .collect();
        let mcast = Mcast::build(fabric, nodes.clone(), cfg.mcast.clone());
        if let Some(dur) = &cfg.durability {
            // The ordering layer shares the storage device: each of its
            // replicas journals delivered entries to a per-replica WAL
            // that the checkpointer truncates behind the checkpoint
            // horizon.
            mcast.attach_wal(&dur.storage);
        }
        let detector = fabric.race_detector();
        let metrics = Arc::new(Metrics::new(cfg.partitions));
        let inner = Rc::new(ClusterInner {
            cfg,
            fabric: fabric.clone(),
            app,
            mcast,
            nodes,
            metrics,
            clients: Mutex::new(HashMap::new()),
            client_counter: Cell::new(1),
            detector,
            tracer: Mutex::new(None),
        });
        let cfg = &inner.cfg;
        let n = cfg.replicas_per_partition;
        let mut replicas = Vec::with_capacity(cfg.partitions);
        for p in 0..cfg.partitions {
            // A partition's rows are generated once and installed into
            // each of its replicas' stores.
            let rows = inner.app.bootstrap(PartitionId(p as u16));
            let mut row = Vec::with_capacity(n);
            for i in 0..n {
                let node = inner.nodes[p][i].clone();
                // One coordination lane per pool worker: every writer
                // (partition, replica, lane) owns a private entry, so
                // concurrent workers never overwrite each other's barrier
                // state. Width 1 is byte-identical to the pre-pool layout.
                let chunk_slot = CHUNK_HDR + cfg.transfer_chunk;
                let layout = ReplicaLayout {
                    coord: node.alloc_bytes(cfg.partitions * n * cfg.executor_width * COORD_ENTRY),
                    coord_width: cfg.executor_width,
                    statesync: node.alloc_bytes(n * SYNC_ENTRY),
                    ring: Ring {
                        base: node.alloc_bytes(TRANSFER_SLOTS * chunk_slot),
                        slots: TRANSFER_SLOTS,
                        entry: chunk_slot,
                    },
                    applied: node.alloc_words(1),
                    doorbell: node.alloc_words(1),
                    progress: node.alloc_words(cfg.partitions * n),
                };
                if let Some(det) = &inner.detector {
                    use rdma_sim::RegionKind::{Staging, Sync};
                    let tag = |what: &str| format!("heron-p{p}r{i}:{what}");
                    det.annotate(
                        &node,
                        layout.coord,
                        cfg.partitions * n * cfg.executor_width * COORD_ENTRY,
                        Sync,
                        tag("coord"),
                    );
                    det.annotate(
                        &node,
                        layout.statesync,
                        n * SYNC_ENTRY,
                        Sync,
                        tag("statesync"),
                    );
                    det.annotate(
                        &node,
                        layout.ring.base,
                        layout.ring.size(),
                        Staging,
                        tag("ring"),
                    );
                    det.annotate(&node, layout.applied, 8, Sync, tag("applied"));
                    det.annotate(&node, layout.doorbell, 8, Sync, tag("doorbell"));
                    det.annotate(
                        &node,
                        layout.progress,
                        cfg.partitions * n * 8,
                        Sync,
                        tag("progress"),
                    );
                }
                let deliveries = inner.mcast.deliveries(GroupId(p as u16), i);
                let exec_ranges = layout.exec_ranges(cfg.partitions * n);
                let [coord_sync, words] = exec_ranges;
                let driver_ranges = [coord_sync, layout.ring_range(), words];
                let poller = node.poller(deliveries.cond().clone(), &driver_ranges);
                let svc_poller = node.poller(node.inbox_cond(), &[]);
                let store = VersionedStore::new(node.clone());
                for (oid, value) in &rows {
                    store.bootstrap(*oid, value);
                }
                let qps = inner
                    .nodes
                    .iter()
                    .flatten()
                    .map(|peer| node.connect(peer))
                    .collect();
                row.push(Rc::new(ReplicaShared {
                    cluster: Rc::clone(&inner),
                    partition: PartitionId(p as u16),
                    idx: i,
                    node,
                    store,
                    layout,
                    exec_ranges,
                    poller,
                    svc_poller,
                    quiesce: sim::Cond::labeled("ckpt.quiesce"),
                    last_req: AtomicU64::new(0),
                    completed_req: AtomicU64::new(0),
                    object_map: Mutex::new(HashMap::new()),
                    addr_heard: Mutex::new(HashMap::new()),
                    disk: inner
                        .cfg
                        .durability
                        .as_ref()
                        .map(|d| d.storage.disk(format!("heron-p{p}r{i}"))),
                    exec_trace: Mutex::new(Vec::new()),
                    key_order: Mutex::new(KeyOrder::default()),
                    qps,
                    reply_routes: Mutex::new(HashMap::new()),
                }));
            }
            replicas.push(row);
        }
        HeronCluster {
            inner,
            replicas: Rc::new(replicas),
        }
    }

    /// Spawns all protocol processes (ordering replicas, Heron executors,
    /// and service processes) into the simulation. Each replica's are its
    /// node's boot ([`Node::boot`]): a power loss kills them, and the
    /// recovery after it starts fresh ones, which rebuild from the disk.
    pub fn spawn(&self, simulation: &sim::Simulation) {
        if self.inner.cfg.tracing {
            *self.inner.tracer.lock() = Some(simulation.enable_tracing());
        }
        self.inner.mcast.spawn_replicas(simulation);
        for (p, row) in self.replicas.iter().enumerate() {
            for (i, shared) in row.iter().enumerate() {
                // Weak: the node holds its boot, and the replica holds the
                // node.
                let replica = Rc::downgrade(shared);
                shared.node.boot(simulation, move |boot| {
                    if let Some(shared) = replica.upgrade() {
                        boot_replica(boot, shared, p, i);
                    }
                });
            }
        }
    }

    /// Attaches a new client on its own fabric node.
    pub fn client(&self, name: impl Into<String>) -> crate::client::HeronClient {
        crate::client::HeronClient::attach(self, name.into())
    }

    /// Cluster-wide metrics handle.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.inner.metrics)
    }

    /// The trace handle, when enabled via [`HeronConfig::tracing`] —
    /// available once the cluster was [`HeronCluster::spawn`]ed.
    pub fn tracer(&self) -> Option<sim::trace::Tracer> {
        self.inner.tracer.lock().clone()
    }

    /// The configuration in force.
    pub fn config(&self) -> &HeronConfig {
        &self.inner.cfg
    }

    /// The fabric node of replica `(p, i)`.
    pub fn replica_node(&self, p: PartitionId, i: usize) -> Node {
        self.inner.nodes[p.0 as usize][i].clone()
    }

    /// Crashes replica `(p, i)`: its verbs fail and writes to it are
    /// dropped until [`HeronCluster::recover_replica`].
    pub fn crash_replica(&self, p: PartitionId, i: usize) {
        self.inner
            .fabric
            .crash(self.inner.nodes[p.0 as usize][i].id());
    }

    /// Recovers a crashed replica. It will detect the deliveries it missed
    /// and run the state-transfer protocol to catch up. After a power loss
    /// it boots; call this from a simulated process.
    pub fn recover_replica(&self, p: PartitionId, i: usize) {
        self.inner
            .fabric
            .recover(self.inner.nodes[p.0 as usize][i].id());
    }

    /// Cuts power to replica `(p, i)`: beyond a crash, its processes die and
    /// its registered memory (store slots, coordination regions, ordering
    /// rings) is wiped. On [`HeronCluster::recover_replica`] the node boots
    /// fresh ones: the executor rebuilds from its durable checkpoint plus
    /// the ordering WAL tail — or, without durability, re-bootstraps and
    /// relies on a full state transfer.
    pub fn power_loss_replica(&self, p: PartitionId, i: usize) {
        self.inner
            .fabric
            .power_loss(self.inner.nodes[p.0 as usize][i].id());
    }

    /// Forces one checkpoint round at replica `(p, i)` right now (must be
    /// called from inside the simulation — the disk I/O is charged to the
    /// calling process). Returns the checkpoint metadata, or `None` if the
    /// round was skipped (no durability, replica dead or busy).
    pub fn checkpoint_replica(
        &self,
        p: PartitionId,
        i: usize,
    ) -> Option<crate::checkpoint::CheckpointMeta> {
        crate::checkpoint::checkpoint_replica(&self.replicas[p.0 as usize][i])
    }

    /// The durable checkpoint currently on replica `(p, i)`'s disk, if
    /// any. Free of modeled I/O when called from the host thread
    /// (offline inspection).
    pub fn checkpoint_meta(
        &self,
        p: PartitionId,
        i: usize,
    ) -> Option<crate::checkpoint::CheckpointMeta> {
        let disk = self.replicas[p.0 as usize][i].disk.as_ref()?;
        let file = disk.get(crate::checkpoint::CKPT_FILE)?;
        Some(crate::checkpoint::decode_file(&file).0)
    }

    /// The state digest of replica `(p, i)`
    /// ([`crate::checkpoint::state_digest`] of its live store).
    pub fn state_digest(&self, p: PartitionId, i: usize) -> u64 {
        crate::checkpoint::state_digest(&self.replicas[p.0 as usize][i].store)
    }

    /// A checkpoint image of replica `(p, i)`'s live store
    /// ([`crate::checkpoint::encode_state`]). Host-thread diagnostic for
    /// the checkpoint round-trip property tests — it is the caller's job
    /// to ensure the replica is quiescent.
    pub fn snapshot_image(&self, p: PartitionId, i: usize) -> Vec<u8> {
        crate::checkpoint::encode_state(&self.replicas[p.0 as usize][i].store)
    }

    /// I/O counters of replica `(p, i)`'s durable namespace (`None`
    /// without durability).
    pub fn disk_stats(&self, p: PartitionId, i: usize) -> Option<sim::storage::DiskStats> {
        self.replicas[p.0 as usize][i]
            .disk
            .as_ref()
            .map(|d| d.stats())
    }

    /// Number of frames in the ordering WAL of replica `(p, i)` (0 without
    /// durability) — the log-growth guard's probe.
    pub fn wal_frames(&self, p: PartitionId, i: usize) -> usize {
        self.inner.mcast.wal_frames(GroupId(p.0), i)
    }

    /// Direct read of a committed value at a given replica, for tests and
    /// examples (latest version in its store).
    pub fn peek(&self, p: PartitionId, i: usize, oid: ObjectId) -> Option<bytes::Bytes> {
        self.replicas[p.0 as usize][i]
            .store
            .get(oid)
            .map(|(_, v)| v)
    }

    /// Direct read of a committed value *with* its version timestamp
    /// (diagnostics): the latest version of `oid` at replica `(p, i)`.
    pub fn peek_versioned(
        &self,
        p: PartitionId,
        i: usize,
        oid: ObjectId,
    ) -> Option<(u64, bytes::Bytes)> {
        self.replicas[p.0 as usize][i]
            .store
            .get(oid)
            .map(|(t, v)| (t.raw(), v))
    }

    /// The first write replica `(p, i)`'s store caught stamped
    /// below its object's newest version, as raw `(oid, ts, newest)`
    /// ([`VersionedStore::order_violation`]). `None` while writes to every
    /// object landed in timestamp order.
    pub fn store_order_violation(&self, p: PartitionId, i: usize) -> Option<(ObjectId, u64, u64)> {
        self.replicas[p.0 as usize][i]
            .store
            .order_violation()
            .map(|(oid, ts, newest)| (oid, ts.raw(), newest.raw()))
    }

    /// The first dispatch on replica `(p, i)` of a command `ts` after a
    /// command `newest ≥ ts` that shares conflict key `key` with it, as
    /// raw `(key, ts, newest)`. Pool dispatches only: the inline lane
    /// declares no keys. `None` while conflicting commands started in
    /// timestamp order.
    pub fn key_order_violation(&self, p: PartitionId, i: usize) -> Option<(u64, u64, u64)> {
        self.replicas[p.0 as usize][i].key_order.lock().violation
    }

    /// The object ids hosted by replica `(p, i)`'s store, sorted
    /// (diagnostics).
    pub fn object_ids(&self, p: PartitionId, i: usize) -> Vec<ObjectId> {
        self.replicas[p.0 as usize][i].store.object_ids()
    }

    /// Deliberately corrupts the stored value of `oid` at one replica,
    /// bypassing the protocol (both versions' payload bytes are flipped;
    /// timestamps stay intact). This exists for the consistency checker's
    /// self-test: a checker that cannot catch this corruption is broken.
    pub fn corrupt_value(&self, p: PartitionId, i: usize, oid: ObjectId) {
        self.replicas[p.0 as usize][i].store.corrupt(oid);
    }

    /// The raw `last_req` timestamp of a replica (diagnostics).
    pub fn last_req(&self, p: PartitionId, i: usize) -> u64 {
        self.replicas[p.0 as usize][i]
            .last_req
            .load(Ordering::SeqCst)
    }

    /// The request-handling trace of a replica (diagnostics):
    /// `(ts_raw, 'e'|'t')` for executed / transferred-to. Skipped requests
    /// leave no entry (they are counted in `Metrics::skipped_requests`).
    pub fn exec_trace(&self, p: PartitionId, i: usize) -> Vec<(u64, char)> {
        self.replicas[p.0 as usize][i].exec_trace.lock().clone()
    }

    /// The raw `completed_req` timestamp of a replica (diagnostics).
    pub fn completed_req(&self, p: PartitionId, i: usize) -> u64 {
        self.replicas[p.0 as usize][i]
            .completed_req
            .load(Ordering::SeqCst)
    }
}

/// Starts replica `(p, i)`'s processes on its node, in the roster's order:
/// the delivery driver and its workers, the service and, with durability,
/// the checkpointer.
fn boot_replica(boot: &rdma_sim::Boot<'_>, shared: Rc<ReplicaShared>, p: usize, i: usize) {
    let deliveries = shared.cluster.mcast.deliveries(GroupId(p as u16), i);
    crate::executor::spawn_driver(boot, Rc::clone(&shared), deliveries, p, i);
    let svc = Rc::clone(&shared);
    boot.spawn(format!("heron-svc-p{p}r{i}"), move || {
        Service::new(svc).run()
    });
    if shared.cluster.cfg.durability.is_some() {
        // Spawned after the executor and service so the process roster is
        // a strict extension of the durability-off deployment.
        boot.spawn(format!("heron-ckpt-p{p}r{i}"), move || {
            crate::checkpoint::run_checkpointer(shared)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Starts `(ts, exclusive, shared)` in order; the first violation.
    fn starts(order: &[(u64, &[u64], &[u64])]) -> Option<(u64, u64, u64)> {
        let mut monitor = KeyOrder::default();
        for &(ts, exclusive, shared) in order {
            monitor.note(ts, &Keys::new(exclusive.into(), shared.into()), 0);
        }
        monitor.violation
    }

    /// Shared holders pass each other; nothing passes an exclusive holder,
    /// and an exclusive holder passes no holder.
    #[test]
    fn the_monitor_orders_starts_by_mode() {
        assert_eq!(starts(&[(20, &[], &[7]), (10, &[], &[7])]), None);
        assert_eq!(
            starts(&[(10, &[], &[7]), (30, &[7], &[]), (40, &[], &[7])]),
            None
        );
        let shared_past_exclusive = [(20, &[7][..], &[][..]), (10, &[], &[7])];
        assert_eq!(starts(&shared_past_exclusive), Some((7, 10, 20)));
        let exclusive_past_shared = [(20, &[][..], &[7][..]), (10, &[7], &[])];
        assert_eq!(starts(&exclusive_past_shared), Some((7, 10, 20)));
    }

    /// The monitor forgets only keys whose newest start is at or below the
    /// watermark: an order still owed above it is checked.
    #[test]
    fn the_monitor_forgets_keys_below_the_watermark_only() {
        let mut monitor = KeyOrder::default();
        let held = |key| Keys::new(vec![key], vec![]);
        monitor.note(3000, &held(5), 0);
        for key in 1000..1200 {
            monitor.note(key, &held(key), 2000);
        }
        let kept = monitor.newest.len();
        assert!(kept < 100, "{kept} keys kept");
        monitor.note(2500, &held(5), 2000);
        assert_eq!(monitor.violation, Some((5, 2500, 3000)));
    }
}
