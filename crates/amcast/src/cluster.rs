//! Cluster construction and per-replica handles.

use crate::client::McastClient;
use crate::config::McastConfig;
use crate::layout::{NodeLayout, Sizes, WORD};
use crate::replica::McastReplica;
use crate::timestamp::{GroupId, MsgId, Timestamp};
use crate::DestMask;
use bytes::Bytes;
use rdma_sim::{Fabric, Node, Poller};
use sim::{Cond, Mailbox};
use std::cell::{Cell, OnceCell};
use std::fmt;
use std::rc::Rc;

/// A message handed to the application by atomic multicast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivered {
    /// Unique message id.
    pub id: MsgId,
    /// The unique monotone delivery timestamp.
    pub ts: Timestamp,
    /// Destination groups of the message.
    pub dests: DestMask,
    /// Application payload.
    pub payload: Bytes,
}

/// Events on a replica's delivery stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeliveryEvent {
    /// A message was delivered in order.
    Deliver(Delivered),
    /// This replica fell so far behind that log entries were overwritten
    /// before it applied them: sequence numbers `from..=to` were skipped.
    /// The application must recover state out of band (in Heron: the state
    /// transfer protocol).
    Gap {
        /// First missed sequence number.
        from: u64,
        /// Last missed sequence number.
        to: u64,
    },
}

pub(crate) struct McastInner {
    pub(crate) cfg: McastConfig,
    pub(crate) sizes: Sizes,
    pub(crate) fabric: Fabric,
    /// Replica nodes, `nodes[group][index]`.
    pub(crate) nodes: Vec<Vec<Node>>,
    /// Ring addresses on each replica node, by [`Self::global_idx`].
    pub(crate) layouts: Vec<NodeLayout>,
    /// Each replica process's wait point, `pollers[group][index]`: rung by
    /// writes into its node's [`NodeLayout`] span and by nothing else.
    pub(crate) pollers: Vec<Vec<Poller>>,
    /// Delivery mailboxes, `deliveries[group][index]`.
    pub(crate) deliveries: Vec<Vec<Mailbox<DeliveryEvent>>>,
    /// Durable storage for per-replica write-ahead logs. Unset unless
    /// [`Mcast::attach_wal`] is called: without it the deployment performs
    /// no I/O and executes bit-identical schedules.
    pub(crate) wal: OnceCell<sim::storage::Storage>,
    uid_counter: Cell<u32>,
    client_counter: Cell<u32>,
}

impl McastInner {
    pub(crate) fn global_idx(&self, group: GroupId, idx: usize) -> usize {
        group.0 as usize * self.cfg.replicas_per_group + idx
    }
}

/// Handle to an atomic multicast deployment.
///
/// Build it over an existing [`Fabric`] and a set of replica nodes, spawn
/// the replica processes, then attach clients.
#[derive(Clone)]
pub struct Mcast {
    pub(crate) inner: Rc<McastInner>,
}

impl fmt::Debug for Mcast {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mcast")
            .field("groups", &self.inner.cfg.groups)
            .field("replicas_per_group", &self.inner.cfg.replicas_per_group)
            .finish()
    }
}

impl Mcast {
    /// Lays out the multicast rings on the given replica nodes.
    ///
    /// `nodes[g][i]` is the node hosting replica `i` of group `g`. The
    /// caller may colocate other state (Heron does) on the same nodes;
    /// regions are allocated from each node's registered memory. When
    /// `fabric` has the race detector enabled, every region is annotated
    /// as synchronization memory.
    ///
    /// # Panics
    ///
    /// Panics if the node grid does not match `cfg.groups` ×
    /// `cfg.replicas_per_group`.
    pub fn build(fabric: &Fabric, nodes: Vec<Vec<Node>>, cfg: McastConfig) -> Self {
        assert_eq!(nodes.len(), cfg.groups, "node grid: wrong group count");
        // The field is public; a round of zero would sequence nothing.
        assert!(cfg.max_batch >= 1, "max_batch must be at least 1");
        for g in &nodes {
            assert_eq!(
                g.len(),
                cfg.replicas_per_group,
                "node grid: wrong replica count"
            );
        }
        let sizes = Sizes::from_config(&cfg);
        let mut layouts = Vec::with_capacity(cfg.total_replicas());
        let mut pollers = Vec::with_capacity(nodes.len());
        for group in &nodes {
            let mut row = Vec::with_capacity(group.len());
            for node in group {
                let layout = NodeLayout {
                    sub: node.alloc_bytes(sizes.sub_region()),
                    ctrl: node.alloc_bytes(sizes.ctrl_region()),
                    fwd: node.alloc_bytes(sizes.fwd_region()),
                    log: node.alloc_bytes(sizes.log_region()),
                    log_spill: node.alloc_bytes(sizes.spill_region()),
                    log_seq: node.alloc_words(1),
                    acks: node.alloc_bytes(cfg.replicas_per_group * WORD),
                    heartbeat: node.alloc_words(1),
                    log_floor: node.alloc_words(1),
                    boot_gen: node.alloc_words(1),
                };
                // The regions are allocated back to back, so the replica
                // polls one span: `sub` up to and including `boot_gen`.
                let span = (layout.boot_gen.0 - layout.sub.0) as usize + WORD;
                row.push(node.poller(Cond::new(), &[(layout.sub, span)]));
                layouts.push(layout);
            }
            pollers.push(row);
        }
        // A delivery mailbox's condition is its consumer's wait point: the
        // application process (e.g. a Heron executor) subscribes it to the
        // memory it polls — `node.poller(deliveries.cond().clone(), …)` —
        // and then waits in one place for deliveries and landing writes.
        let deliveries = nodes
            .iter()
            .map(|group| group.iter().map(|_| Mailbox::new()).collect())
            .collect();
        let mcast = Mcast {
            inner: Rc::new(McastInner {
                cfg,
                sizes,
                fabric: fabric.clone(),
                nodes,
                layouts,
                pollers,
                deliveries,
                wal: OnceCell::new(),
                uid_counter: Cell::new(1),
                client_counter: Cell::new(0),
            }),
        };
        if let Some(detector) = fabric.race_detector() {
            mcast.annotate_sync_regions(&detector);
        }
        mcast
    }

    /// The configuration this deployment was built with.
    pub fn config(&self) -> &McastConfig {
        &self.inner.cfg
    }

    /// Attaches durable storage: every replica write-ahead-logs its
    /// deliveries into namespace `mcast-g{g}r{i}` and can rebuild its
    /// protocol state from the WAL after a power loss wipes its registered
    /// memory. Must be called before [`Mcast::spawn_replicas`].
    ///
    /// Without an attached WAL the deployment performs no storage I/O and
    /// its schedule is bit-identical to builds that predate durability.
    ///
    /// # Panics
    ///
    /// Panics if storage was already attached.
    pub fn attach_wal(&self, storage: &sim::storage::Storage) {
        assert!(
            self.inner.wal.set(storage.clone()).is_ok(),
            "WAL storage already attached"
        );
    }

    /// The durable namespace name of replica `(group, idx)`.
    pub(crate) fn wal_namespace(group: GroupId, idx: usize) -> String {
        format!("mcast-g{}r{}", group.0, idx)
    }

    /// The durable WAL namespace of replica `(group, idx)`, if storage is
    /// attached.
    pub fn wal_disk(&self, group: GroupId, idx: usize) -> Option<sim::storage::Disk> {
        self.inner
            .wal
            .get()
            .map(|s| s.disk(Self::wal_namespace(group, idx)))
    }

    /// Truncates replica `(group, idx)`'s WAL behind a checkpoint horizon:
    /// drops every frame with delivery timestamp `<= ts_bound` (raw
    /// [`Timestamp`] encoding) and persists the floor record: the dropped
    /// prefix's sequence position, timestamp bound and epoch. Returns
    /// `(dropped, remaining)` frame counts; `(0, remaining)` when nothing
    /// falls behind the bound or no storage is attached. The compaction
    /// I/O is charged to the calling process.
    pub fn truncate_wal(&self, group: GroupId, idx: usize, ts_bound: u64) -> (usize, usize) {
        let Some(disk) = self.wal_disk(group, idx) else {
            return (0, 0);
        };
        let frames = crate::wal::read_frames(&disk);
        let old = crate::wal::read_floor(&disk);
        let mut floor = crate::wal::Floor {
            ts_bound: old.ts_bound.max(ts_bound),
            ..old
        };
        let mut kept = Vec::new();
        let mut dropped_uids = Vec::new();
        // Every byte of the snapshot we filtered: the frame codec
        // round-trips exactly, so re-encoding measures what we consumed.
        // The charged reads above yield, and the replica's delivery path
        // keeps appending while we sleep — the rewrite below must replace
        // only this prefix, or a frame delivered mid-compaction would be
        // silently clobbered (and lost to any later cold restart).
        let mut snapshot_len = 0usize;
        for f in frames {
            snapshot_len += crate::layout::LOG_HDR + f.payload.len();
            if f.ts_raw <= ts_bound {
                floor.seq = floor.seq.max(f.seq + 1);
                floor.epoch = floor.epoch.max(f.epoch);
                dropped_uids.push(f.uid);
            } else {
                kept.push(f);
            }
        }
        let dropped = dropped_uids.len();
        if dropped == 0 {
            return (0, kept.len());
        }
        // The payloads go, but the delivered-uid knowledge must stay
        // durable: a reloaded replica that forgot a uid would re-sequence
        // a client resubmission as a fresh (duplicate) delivery.
        crate::wal::append_seen(&disk, &dropped_uids);
        let mut buf = Vec::new();
        for f in &kept {
            buf.extend_from_slice(&crate::layout::encode_log(
                f.seq, f.uid, f.mask, f.ts_raw, f.epoch, &f.payload,
            ));
        }
        disk.replace_prefix(crate::wal::WAL_FILE, snapshot_len, &buf);
        crate::wal::write_floor(&disk, floor);
        (dropped, kept.len())
    }

    /// The delivered tail of replica `(group, idx)`'s WAL: every frame
    /// with delivery timestamp strictly greater than `after_ts_raw`, in
    /// delivery order, as application-level deliveries. A cold-restarting
    /// application replays this when no live peer can serve a state
    /// transfer. The read is charged to the calling process.
    pub fn wal_tail(&self, group: GroupId, idx: usize, after_ts_raw: u64) -> Vec<Delivered> {
        let Some(disk) = self.wal_disk(group, idx) else {
            return Vec::new();
        };
        crate::wal::read_frames(&disk)
            .into_iter()
            .filter(|f| f.ts_raw > after_ts_raw)
            .map(|f| Delivered {
                id: MsgId(f.uid),
                ts: Timestamp::from_raw(f.ts_raw),
                dests: f.mask,
                payload: Bytes::from(f.payload),
            })
            .collect()
    }

    /// Number of frames currently in replica `(group, idx)`'s WAL (0 when
    /// no storage is attached). The log-growth guard tests use this to
    /// prove truncation keeps the durable log bounded.
    pub fn wal_frames(&self, group: GroupId, idx: usize) -> usize {
        self.wal_disk(group, idx)
            .map(|d| crate::wal::read_frames(&d).len())
            .unwrap_or(0)
    }

    /// The epoch currently advertised to replica `(group, idx)` by its
    /// leader's heartbeat word (0 before any heartbeat lands, and on the
    /// leader itself, which never writes its own word). Checkpoints are
    /// stamped with this regime marker.
    pub fn current_epoch(&self, group: GroupId, idx: usize) -> u64 {
        let layout = self.inner.layouts[self.inner.global_idx(group, idx)];
        self.inner.nodes[group.0 as usize][idx]
            .local_read_word(layout.heartbeat)
            .unwrap_or(0)
            >> 32
    }

    /// The ordering layer's regions on replica `(group, idx)`'s node, by
    /// name, address and length: the submission lanes (`sub`), control
    /// lanes (`ctrl`) and forward rings (`fwd`), the log and its spill ring
    /// (`log`, `log-spill`), and the `log-seq`, `acks`, `heartbeat`,
    /// `log-floor` and `boot-gen` words. [`rdma_sim::Node::resident_pages`]
    /// counts what runs commit of each.
    pub fn regions(
        &self,
        group: GroupId,
        idx: usize,
    ) -> [(&'static str, rdma_sim::Addr, usize); 10] {
        let sizes = &self.inner.sizes;
        let layout = &self.inner.layouts[self.inner.global_idx(group, idx)];
        [
            ("sub", layout.sub, sizes.sub_region()),
            ("ctrl", layout.ctrl, sizes.ctrl_region()),
            ("fwd", layout.fwd, sizes.fwd_region()),
            ("log", layout.log, sizes.log_region()),
            ("log-spill", layout.log_spill, sizes.spill_region()),
            ("log-seq", layout.log_seq, WORD),
            (
                "acks",
                layout.acks,
                self.inner.cfg.replicas_per_group * WORD,
            ),
            ("heartbeat", layout.heartbeat, WORD),
            ("log-floor", layout.log_floor, WORD),
            ("boot-gen", layout.boot_gen, WORD),
        ]
    }

    /// Annotates every ordering-layer memory region ([`Self::regions`]) as
    /// [`rdma_sim::RegionKind::Sync`] for the race detector: the
    /// submission rings, control lanes and forward rings, log and spill
    /// ring, acks and heartbeats are synchronization memory by design —
    /// unsynchronized one-sided access to them *is* the protocol's
    /// coordination, so reads acquire, writes release, and the generic
    /// data-race checks do not apply.
    fn annotate_sync_regions(&self, detector: &rdma_sim::RaceDetector) {
        for (g, group) in self.inner.nodes.iter().enumerate() {
            for (i, node) in group.iter().enumerate() {
                for (what, addr, len) in self.regions(GroupId(g as u16), i) {
                    detector.annotate(
                        node,
                        addr,
                        len,
                        rdma_sim::RegionKind::Sync,
                        format!("mcast-g{g}r{i}:{what}"),
                    );
                }
            }
        }
    }

    /// The fabric this deployment runs on (e.g. for operation counters).
    pub fn fabric(&self) -> &Fabric {
        &self.inner.fabric
    }

    /// The node hosting replica `idx` of `group`.
    pub fn node(&self, group: GroupId, idx: usize) -> Node {
        self.inner.nodes[group.0 as usize][idx].clone()
    }

    /// The ordered delivery stream of replica `(group, idx)`.
    pub fn deliveries(&self, group: GroupId, idx: usize) -> Mailbox<DeliveryEvent> {
        self.inner.deliveries[group.0 as usize][idx].clone()
    }

    /// Spawns every replica process into the simulation, each as part of
    /// its node's boot ([`Node::boot`]): a power loss kills it, and the
    /// recovery after it starts a fresh one, which reloads from the WAL.
    pub fn spawn_replicas(&self, simulation: &sim::Simulation) {
        for g in 0..self.inner.cfg.groups {
            for i in 0..self.inner.cfg.replicas_per_group {
                let group = GroupId(g as u16);
                // Weak: the node holds its boot, and the deployment holds
                // the node.
                let mcast = Rc::downgrade(&self.inner);
                self.node(group, i).boot(simulation, move |boot| {
                    if let Some(inner) = mcast.upgrade() {
                        let replica = McastReplica::new(inner, group, i);
                        boot.spawn(format!("mcast-g{g}r{i}"), move || replica.run());
                    }
                });
            }
        }
    }

    /// Attaches a client that multicasts from `node`.
    ///
    /// # Panics
    ///
    /// Panics if more than `cfg.max_clients` clients attach.
    pub fn client(&self, node: &Node) -> McastClient {
        let counter = &self.inner.client_counter;
        let idx = counter.replace(counter.get() + 1) as usize;
        assert!(
            idx < self.inner.cfg.max_clients,
            "too many multicast clients; raise McastConfig::max_clients"
        );
        McastClient::new(Rc::clone(&self.inner), node.clone(), idx)
    }

    /// Allocates a fresh globally-unique message id.
    pub(crate) fn alloc_uid(inner: &McastInner) -> MsgId {
        let uid = inner.uid_counter.replace(inner.uid_counter.get() + 1);
        assert!(
            uid < (1 << 22),
            "message uid space exhausted (2^22 messages)"
        );
        MsgId(uid)
    }
}

#[cfg(test)]
impl Mcast {
    /// The replica protocol driver for `(group, idx)`, for unit tests to
    /// drive by hand: [`Mcast::spawn_replicas`] is what starts replicas.
    pub(crate) fn replica(&self, group: GroupId, idx: usize) -> McastReplica {
        McastReplica::new(Rc::clone(&self.inner), group, idx)
    }
}
