//! The multicast replica process: Skeen ordering, intra-group replication,
//! delivery, and leader change.

use crate::cluster::{Delivered, DeliveryEvent, McastInner};
use crate::layout::{
    decode_ctrl_header, decode_log_header, decode_sub_header, encode_ctrl, encode_log, stamp_of,
    CtrlKind, Lane, NodeLayout, ScanMarks, LOG_HDR, SUB_HDR,
};
use crate::timestamp::{GroupId, MsgId, Timestamp};
use crate::{mask_groups, DestMask, IdMap, IdSet};
use bytes::Bytes;
use rdma_sim::{Addr, MemView, Node, Poller, QueuePair};
use sim::SimTime;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Duration;

/// Which replica index leads a group in the given epoch.
pub(crate) fn leader_for_epoch(epoch: u64, n: usize) -> usize {
    (epoch % n as u64) as usize
}

struct Pending {
    payload: Option<Vec<u8>>,
    mask: DestMask,
    myprop: Option<u64>,
}

struct State {
    epoch: u64,
    is_leader: bool,
    /// The lanes we read, in scan order: every client's submission lane,
    /// then every other replica's control lane.
    lanes: Vec<Lane>,
    /// Which of `lanes` a landing wrote since the lane was last read idle
    /// at its cursor: the only lanes the wake predicate and the scan read.
    marks: ScanMarks,
    /// Our control lane on every replica node, by global replica index.
    ctrl_out: Vec<Lane>,
    applied_seq: u64,
    // Protocol knowledge shared by leader and followers (followers keep it
    // so a takeover can adopt the old leader's proposals).
    props: IdMap<u32, IdMap<u16, u64>>,
    finals: IdMap<u32, u64>,
    /// Uids sequenced into the group log (ordering-level dedup).
    done: IdSet<u32>,
    /// Uids handed to the application (integrity-level dedup).
    delivered: IdSet<u32>,
    max_ts_seen: u64,
    // Leader state.
    clock: u64,
    pending: IdMap<u32, Pending>,
    finalized: BTreeSet<(u64, u32)>,
    /// Messages ordered so far in the current group-commit window; the
    /// first message of a window pays the full [`ORDERING_CPU`], the rest
    /// pay the marginal batched cost.
    ordering_window: usize,
    next_seq: u64,
    acks_cache: Vec<u64>,
    last_hb_sent: SimTime,
    hb_counter: u64,
    // Follower state.
    last_hb_val: u64,
    last_hb_change: SimTime,
    election_target: u64,
    /// A recovered replica may hold a stale, never-committed tail in its
    /// own log (entries it appended as a pre-crash leader, or that a since
    /// deposed leader wrote while it was down). Until the current regime is
    /// known, applying the local log is unsafe: `await_epoch` blocks
    /// applies until the regime is learned, through either exit:
    ///
    /// * a *fresh* heartbeat reveals the live leader's epoch
    ///   (`follower_check_leader`), or
    /// * this replica itself wins a takeover — after adopting a majority
    ///   log any suspect tail is superseded, so assuming leadership clears
    ///   the gate.
    ///
    /// Both exits raise `entry_epoch_floor` to the learned epoch (it only
    /// ever ratchets up), and applies then refuse entries stamped by older
    /// regimes — the live leader's retransmission path overwrites them
    /// re-stamped with its own epoch.
    await_epoch: bool,
    entry_epoch_floor: u64,
    /// First sequence number this replica's rebuilt in-memory log speaks
    /// for after a WAL reload (earlier entries were truncated behind a
    /// checkpoint horizon). Zero on replicas that never reloaded: their
    /// ring still holds whatever the ring window holds.
    log_floor: u64,
}

/// One multicast replica's protocol driver: the body of the replica
/// process [`crate::Mcast::spawn_replicas`] starts on the replica's node
/// (the one way to start one), and starts again each time the node boots
/// after a power loss. It loops forever, delivering messages into the
/// replica's delivery mailbox.
pub struct McastReplica {
    inner: Rc<McastInner>,
    group: GroupId,
    idx: usize,
    node: Node,
    /// Our wait point: rung by writes into `layout`'s span and by
    /// recovery — the memory inputs of [`Self::has_work`] and the liveness
    /// the crashed-idle loop waits for.
    poller: Poller,
    my_global: usize,
    layout: NodeLayout,
    /// Our copy of the group log, as [`Lane::payload_at`] and
    /// [`Lane::writes`] place its entries.
    log: Lane,
    /// Queue pairs to every replica node, by global replica index.
    qps: Vec<QueuePair>,
    /// This replica's durable WAL namespace, when storage is attached
    /// (before the replica was constructed — see [`crate::Mcast::attach_wal`]).
    wal_disk: Option<sim::storage::Disk>,
    /// Self-test only ([`SABOTAGE_HAS_WORK_GATE`]), resolved once here.
    ungated_has_work: bool,
}

/// The [`rdma_sim::Fabric::sabotage`] name of `has_work`'s `await_epoch`
/// gate on the truncation-horizon check. Built without it a recovering
/// follower re-introduces the PR 8 zero-virtual-time livelock, which
/// `explore_suite --selftest` requires the livelock detector to catch.
pub const SABOTAGE_HAS_WORK_GATE: &str = "amcast.has_work_gate";

/// Leader heartbeat period.
const HEARTBEAT_INTERVAL: Duration = Duration::from_micros(200);
/// A follower suspects the leader after this much heartbeat silence.
const LEADER_TIMEOUT: Duration = Duration::from_millis(2);
/// CPU time the leader spends per message it orders.
pub const ORDERING_CPU: Duration = Duration::from_nanos(6_500);
/// Marginal leader CPU for the 2nd..Nth message ordered within one
/// group-commit window (header parsing and bookkeeping amortize once the
/// per-batch costs — cache misses, verb posting, doorbells — are paid). A
/// window of `max_batch = 1` has no such message.
const ORDERING_CPU_BATCHED: Duration = Duration::from_nanos(850);
/// CPU time a follower spends applying one log entry.
const FOLLOWER_CPU: Duration = Duration::from_nanos(800);

impl std::fmt::Debug for McastReplica {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("McastReplica")
            .field("group", &self.group)
            .field("idx", &self.idx)
            .finish()
    }
}

impl McastReplica {
    pub(crate) fn new(inner: Rc<McastInner>, group: GroupId, idx: usize) -> Self {
        let node = inner.nodes[group.0 as usize][idx].clone();
        let poller = inner.pollers[group.0 as usize][idx].clone();
        let my_global = inner.global_idx(group, idx);
        let layout = inner.layouts[my_global];
        let log = inner.sizes.log_end(layout);
        let qps = inner
            .nodes
            .iter()
            .flatten()
            .map(|peer| node.connect(peer))
            .collect();
        let wal_disk = inner
            .wal
            .get()
            .map(|s| s.disk(crate::Mcast::wal_namespace(group, idx)));
        McastReplica {
            ungated_has_work: node.sabotaged(SABOTAGE_HAS_WORK_GATE),
            inner,
            group,
            idx,
            node,
            poller,
            my_global,
            layout,
            log,
            qps,
            wal_disk,
        }
    }

    fn n(&self) -> usize {
        self.inner.cfg.replicas_per_group
    }

    fn majority(&self) -> usize {
        self.inner.cfg.majority()
    }

    /// Queue pair to the node hosting global replica index `global`.
    fn qp(&self, global: usize) -> &QueuePair {
        &self.qps[global]
    }

    fn peer_node(&self, global: usize) -> &Node {
        let n = self.inner.cfg.replicas_per_group;
        &self.inner.nodes[global / n][global % n]
    }

    /// Runs the replica protocol loop forever, from the state the replica
    /// boots with: nothing seen on the first boot, the WAL after a power
    /// loss. A crash pauses the loop; the recovery after it is noticed by
    /// the node's incarnation.
    ///
    /// # Panics
    ///
    /// Panics on ring overruns (a sign the deployment is undersized) and if
    /// called outside a simulated process.
    pub fn run(self) {
        let mut st = self.boot_state();
        let mut incarnation = self.node.incarnation();
        // Sequencer backlog timeline for the profiler (inert when off):
        // proposals awaiting finalization plus finalized-but-undelivered
        // messages held by the group-commit window.
        let backlog = if sim::prof::enabled() {
            sim::prof::gauge(format!("amcast.backlog.g{}r{}", self.group.0, self.idx))
        } else {
            sim::prof::Gauge::disabled()
        };
        let mut backlog_last = 0u64;
        loop {
            if !self.node.is_alive() {
                // Crashed; idle until recovered.
                self.poller
                    .poll_until_timeout(|| self.node.is_alive(), LEADER_TIMEOUT);
                continue;
            }
            if self.node.incarnation() != incarnation {
                // We were crashed and revived (possibly entirely while
                // parked).
                incarnation = self.node.incarnation();
                self.rejoin(&mut st);
            }
            self.do_work(&mut st);
            if backlog.is_enabled() {
                // Only a changed value moves the step function; skipping
                // the no-op updates keeps the clock reads off the hot loop.
                let v = (st.pending.len() + st.finalized.len()) as u64;
                if v != backlog_last {
                    backlog.set(v);
                    backlog_last = v;
                }
            }
            let deadline = if st.is_leader {
                st.last_hb_sent + HEARTBEAT_INTERVAL
            } else {
                st.last_hb_change + LEADER_TIMEOUT
            };
            let now = sim::now();
            let timeout = deadline
                .checked_sub(now)
                .unwrap_or(std::time::Duration::from_nanos(1));
            let this = &self;
            let st_ref = &st;
            self.poller
                .poll_until_timeout(|| this.has_work(st_ref), timeout);
        }
    }

    /// Protocol state of a replica that boots: fresh cursors, and its
    /// lanes registered for marks, every one set. On a node whose power
    /// was cut it is rebuilt from the disk ([`Self::reload`]) and rejoins;
    /// otherwise the replica has seen nothing yet.
    fn boot_state(&self) -> State {
        let sizes = &self.inner.sizes;
        let writers = (0..sizes.total_replicas).filter(|&w| w != self.my_global);
        let mut st = State {
            epoch: 0,
            is_leader: self.idx == leader_for_epoch(0, self.n()),
            lanes: (0..sizes.max_clients)
                .map(|c| Lane::new(sizes.sub_lane(self.layout, c), SUB_HDR))
                .chain(writers.map(|w| sizes.ctrl_end(self.layout, w)))
                .collect(),
            marks: ScanMarks::register(&self.node, sizes, self.layout, self.my_global),
            ctrl_out: self
                .inner
                .layouts
                .iter()
                .map(|peer| sizes.ctrl_end(*peer, self.my_global))
                .collect(),
            applied_seq: 0,
            props: IdMap::default(),
            finals: IdMap::default(),
            done: IdSet::default(),
            delivered: IdSet::default(),
            max_ts_seen: 0,
            clock: 0,
            pending: IdMap::default(),
            finalized: BTreeSet::new(),
            ordering_window: 0,
            next_seq: 0,
            acks_cache: vec![0; self.n()],
            last_hb_sent: SimTime::ZERO,
            hb_counter: 0,
            last_hb_val: 0,
            last_hb_change: sim::now(),
            election_target: 0,
            await_epoch: false,
            entry_epoch_floor: 0,
            log_floor: 0,
        };
        if self.node.power_cycles() > 0 {
            self.reload(&mut st);
            self.rejoin(&mut st);
            // Our stamps restart at 1, but every peer's cursor for our
            // control lane stays above those our last life wrote there.
            st.ctrl_out.iter_mut().for_each(|lane| lane.lost = true);
        }
        st
    }

    // ------------------------------------------------------------------
    // Work detection (cheap local-memory scans).
    // ------------------------------------------------------------------

    fn has_work(&self, st: &State) -> bool {
        let sizes = &self.inner.sizes;
        // One borrow for the whole predicate: it runs on every wake-up.
        self.node.with_mem(|m| {
            let word = |addr| m.word(addr).unwrap_or(0);
            // New submissions or control messages? Only a marked lane can
            // hold one; a marked lane read idle is unmarked.
            let lane_ready = st.marks.marked().any(|i| {
                let ready = st.lanes[i].ready(m);
                if !ready {
                    st.marks.clear(i);
                }
                ready
            });
            debug_assert_eq!(
                lane_ready,
                st.lanes.iter().any(|lane| lane.ready(m)),
                "the lane marks missed a landing"
            );
            if lane_ready {
                true
            } else if st.is_leader {
                // New acks?
                (0..self.n())
                    .filter(|&i| i != self.idx)
                    .any(|i| word(sizes.ack_slot(self.layout, i)) != st.acks_cache[i])
            } else {
                // A log entry or a truncation horizon `follower_apply_log`
                // will act on — it asks the same two questions, so nothing
                // it refuses reads as work here — or the heartbeat moved.
                // (`ungated_has_work` asks about the floor as if the regime
                // were known, which the consumer does not: the spin the
                // livelock-detector self-test must catch.)
                self.log_head(m, st).is_some()
                    || self.floor_ahead(m, st, !self.ungated_has_work).is_some()
                    || word(self.layout.heartbeat) != st.last_hb_val
            }
        })
    }

    /// The stamp of the log entry a follower acts on next: what
    /// `applied_seq`'s slot holds, if that is the entry itself or a later
    /// one (the leader lapped us) written by an accepted regime. `None`
    /// while the regime is unknown (`await_epoch`), and for an entry from a
    /// regime older than the one we rejoined under: that is our own
    /// pre-crash tail, never confirmed by a majority, and the live leader
    /// retransmits the true entry for the slot re-stamped with its epoch.
    fn log_head(&self, m: &MemView<'_>, st: &State) -> Option<u64> {
        if st.await_epoch {
            return None;
        }
        let addr = self.log.ring.slot(st.applied_seq + 1);
        let (stamp, .., epoch, _) = decode_log_header(m.bytes(addr, LOG_HDR).ok()?);
        (stamp > st.applied_seq && epoch >= st.entry_epoch_floor).then_some(stamp)
    }

    /// The truncation horizon a leader advertised past our position: its
    /// durable log was truncated there, so the prefix below can never be
    /// retransmitted. `gated`, it is `None` while the regime is unknown —
    /// how `follower_apply_log` asks, and the wake predicate with it.
    fn floor_ahead(&self, m: &MemView<'_>, st: &State, gated: bool) -> Option<u64> {
        if gated && st.await_epoch {
            return None;
        }
        let floor = m.word(self.layout.log_floor).unwrap_or(0);
        (floor > st.applied_seq).then_some(floor)
    }

    // ------------------------------------------------------------------
    // Main work pump.
    // ------------------------------------------------------------------

    fn do_work(&self, st: &mut State) {
        st.ordering_window = 0;
        self.scan_lanes(st);
        if st.is_leader {
            // Step down if a successor took over while we were out.
            let hb = self
                .node
                .local_read_word(self.layout.heartbeat)
                .unwrap_or(0);
            if hb >> 32 > st.epoch {
                st.epoch = hb >> 32;
                st.election_target = st.election_target.max(st.epoch);
                st.is_leader = self.idx == leader_for_epoch(st.epoch, self.n());
                st.last_hb_val = hb;
                st.last_hb_change = sim::now();
                st.pending.clear();
                st.finalized.clear();
                return;
            }
            self.leader_sequence_ready(st);
            self.leader_commit_deliver(st);
            if self.maybe_heartbeat(st) {
                self.leader_retransmit(st);
            }
        } else {
            self.follower_apply_log(st);
            self.follower_check_leader(st);
        }
    }

    /// The one way back after a failure: run after a crash, and after a
    /// power cut once the WAL is reloaded. It forgets the volatile
    /// sequencing state — in-flight proposals and finals, which client
    /// retries re-learn, and a pre-crash leader's bookkeeping: a takeover
    /// may have replaced its unreplicated log tail, and stale decisions
    /// would sequence retried messages at obsolete timestamps — keeping
    /// only what was delivered. For the same reason our own log tail beyond
    /// `applied_seq` is suspect: a replica with peers leads nothing and
    /// applies none of it until a fresh heartbeat reveals the current
    /// regime (`follower_apply_log` then requires entries stamped by it or
    /// a newer one), while a single-replica group's log is the whole
    /// committed log, so it leads at once. The timeout window starts
    /// afresh: a heartbeat gap that is our own fault starts no election.
    /// Every lane is lost: writes posted while we were out were dropped,
    /// or our rings were wiped.
    fn rejoin(&self, st: &mut State) {
        st.pending.clear();
        st.finalized.clear();
        st.props.clear();
        st.finals.clear();
        st.done = st.delivered.clone();
        let alone = self.n() == 1;
        (st.is_leader, st.await_epoch) = (alone, !alone);
        st.last_hb_change = sim::now();
        st.last_hb_val = self
            .node
            .local_read_word(self.layout.heartbeat)
            .unwrap_or(0);
        st.lanes.iter_mut().for_each(|lane| lane.lost = true);
        st.marks.mark_all();
    }

    /// Rebuilds protocol state on a node whose power was cut: its
    /// registered memory (rings, log, acks, heartbeat) was wiped, and the
    /// process that ran here died with it. The durable WAL holds every
    /// entry we delivered (appended before each upcall), and the floor
    /// record holds the sequence position, timestamp bound and epoch of
    /// any truncated prefix: together they restore the delivered set, the
    /// log position, the clock, the epoch we last delivered in and the
    /// in-memory tail of the group log.
    /// Without attached storage the replica rejoins empty-handed and relies
    /// on retransmission, state transfer and client retries.
    fn reload(&self, st: &mut State) {
        // Mark this boot as reloaded before anything else: elections read
        // this word and refuse to conclude while an alive member's boot
        // generation lags its power-cycle count (its WAL — possibly the
        // longest surviving log — is not in the ring yet). Without a WAL
        // there is nothing to reload, so the non-durable path marks too.
        let _ = self
            .node
            .local_write_word(self.layout.boot_gen, self.node.power_cycles());
        // Boot-readiness watermark advanced: progress for the explorer's
        // zero-virtual-time livelock guards.
        sim::note_progress();
        let Some(disk) = &self.wal_disk else {
            return;
        };
        let floor = crate::wal::read_floor(disk);
        let frames = crate::wal::read_frames(disk);
        for uid in crate::wal::read_seen(disk) {
            st.delivered.insert(uid);
        }
        // A truncated prefix still bounds the clock and the epoch: a WAL
        // emptied by truncation must not restart either from zero.
        let mut end = floor.seq;
        let mut max_clock = Timestamp::from_raw(floor.ts_bound).clock();
        st.epoch = floor.epoch;
        for f in &frames {
            st.delivered.insert(f.uid);
            end = end.max(f.seq + 1);
            max_clock = max_clock.max(Timestamp::from_raw(f.ts_raw).clock());
            st.epoch = st.epoch.max(f.epoch);
        }
        st.election_target = st.epoch;
        st.done = st.delivered.clone();
        st.applied_seq = end;
        st.next_seq = end;
        st.log_floor = floor.seq;
        st.max_ts_seen = max_clock;
        st.clock = max_clock;
        // Rebuild the ring tail so takeovers and retransmissions can read
        // our log again. Only the last window's worth fits; anything older
        // is served from checkpoints at the application layer.
        let window_start = end.saturating_sub(self.inner.sizes.log_slots as u64);
        for f in &frames {
            if f.seq < window_start {
                continue;
            }
            let buf = encode_log(f.seq, f.uid, f.mask, f.ts_raw, f.epoch, &f.payload);
            for (addr, bytes) in self.log.writes(f.seq + 1, &buf) {
                let _ = self.node.local_write(addr, bytes);
            }
        }
        let _ = self.node.local_write_word(self.layout.log_seq, end);
        // Post our reloaded position into every live peer's ack array so a
        // surviving leader's retransmission path sees where we really are
        // (the ack word otherwise only advances on apply progress).
        for i in 0..self.n() {
            if i == self.idx {
                continue;
            }
            let target = self.inner.global_idx(self.group, i);
            if !self.peer_node(target).is_alive() {
                continue;
            }
            let slot = self
                .inner
                .sizes
                .ack_slot(self.inner.layouts[target], self.idx);
            let _ = self.qp(target).post_write_word(slot, st.applied_seq);
        }
    }

    /// Consumes every ready entry, lane by lane. One borrow walks the
    /// marked lanes up to the next ready entry and copies it out; handling
    /// it sleeps, so the view is dropped first and the walk resumes at the
    /// same lane with a fresh one — every lane is read at the instant a
    /// borrow per lane would read it, and an unmarked lane holds what it
    /// held when it was last read idle. A lane read idle is unmarked.
    fn scan_lanes(&self, st: &mut State) {
        let clients = self.inner.sizes.max_clients;
        let mut i = 0;
        while let Some((kind, uid, a, b, payload)) = self.node.with_mem(|m| {
            while let Some(lane) = st.marks.next(i) {
                i = lane;
                let Some((slot, hdr)) = st.lanes[i].take(m) else {
                    st.marks.clear(i);
                    i += 1;
                    continue;
                };
                let (kind, uid, a, b, len) = if i < clients {
                    let (_, uid, mask, len) = decode_sub_header(hdr);
                    (CtrlKind::FwdSub, uid, mask, 0, len)
                } else {
                    let (_, kind, uid, a, b, len) = decode_ctrl_header(hdr);
                    (kind.expect("corrupt control entry kind"), uid, a, b, len)
                };
                let at = st.lanes[i].payload_at(stamp_of(hdr), slot, len);
                let payload = m.bytes(at, len).expect("entry payload in range").to_vec();
                return Some((kind, uid, a, b, payload));
            }
            None
        }) {
            match kind {
                CtrlKind::Proposal => self.handle_proposal(st, uid, a as u16, b),
                CtrlKind::Final => self.handle_final(st, uid, b),
                // A client's submission reads as a forward to ourselves. A
                // non-leader drops a peer's forward; the client's retry
                // will find the real leader.
                CtrlKind::FwdSub => {
                    if i < clients || st.is_leader {
                        self.handle_submission(st, uid, a, payload);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Skeen ordering (leader).
    // ------------------------------------------------------------------

    fn handle_submission(&self, st: &mut State, uid: u32, mask: DestMask, payload: Vec<u8>) {
        if st.done.contains(&uid) {
            return; // duplicate of an already-sequenced message
        }
        if !st.is_leader {
            // Forward to the current leader of our group — unless our epoch
            // names us, as a rejoining replica's stale one may: nobody
            // reads our own lane, and the client's retry finds the leader.
            let leader = leader_for_epoch(st.epoch, self.n());
            if leader != self.idx {
                let target = self.inner.global_idx(self.group, leader);
                self.forward(st, target, uid, mask, payload);
            }
            return;
        }
        sim::trace::instant("mcast.ingest", u64::from(uid));
        self.charge_ordering(st);
        {
            let pend = st.pending.entry(uid).or_insert(Pending {
                payload: None,
                mask,
                myprop: None,
            });
            pend.payload = Some(payload);
            pend.mask = mask;
        }
        let myprop = st.pending[&uid].myprop;
        match myprop {
            Some(prop) => {
                // Re-broadcast our proposal: makes client retries
                // idempotent and repairs proposals lost to a remote
                // leader change.
                self.broadcast_proposal(st, uid, mask, prop);
            }
            None => {
                if !st.finals.contains_key(&uid) {
                    st.clock += 1;
                    let prop = st.clock;
                    st.pending.get_mut(&uid).expect("just inserted").myprop = Some(prop);
                    st.props.entry(uid).or_default().insert(self.group.0, prop);
                    self.broadcast_proposal(st, uid, mask, prop);
                }
            }
        }
        self.try_finalize(st, uid);
    }

    /// Charges leader CPU for ordering one message: the first message of
    /// each group-commit window of `max_batch` pays the full
    /// [`ORDERING_CPU`], the following ones only the marginal
    /// [`ORDERING_CPU_BATCHED`]. A window of one resets on every message, so
    /// every message pays the full cost.
    fn charge_ordering(&self, st: &mut State) {
        if st.ordering_window == 0 {
            sim::sleep(ORDERING_CPU);
        } else {
            sim::sleep(ORDERING_CPU_BATCHED);
        }
        st.ordering_window += 1;
        if st.ordering_window >= self.inner.cfg.max_batch {
            st.ordering_window = 0;
        }
    }

    /// Sends our clock proposal to every replica of every destination group
    /// (own followers included, so a successor leader can adopt it).
    fn broadcast_proposal(&self, st: &mut State, uid: u32, mask: DestMask, prop: u64) {
        for g in mask_groups(mask) {
            for i in 0..self.n() {
                let target = self.inner.global_idx(g, i);
                if target == self.my_global {
                    continue;
                }
                let from = u64::from(self.group.0);
                let (slot, buf) = self.ctrl_entry(st, target, CtrlKind::Proposal, uid, from, prop);
                let _ = self.qp(target).post_write(slot, buf);
            }
        }
    }

    fn handle_proposal(&self, st: &mut State, uid: u32, from_group: u16, clock: u64) {
        if st.done.contains(&uid) {
            return;
        }
        let entry = st
            .props
            .entry(uid)
            .or_default()
            .entry(from_group)
            .or_insert(0);
        *entry = (*entry).max(clock);
        st.max_ts_seen = st.max_ts_seen.max(clock);
        if st.is_leader {
            // We might not have the submission yet; try_finalize handles it.
            self.try_finalize(st, uid);
        }
    }

    fn handle_final(&self, st: &mut State, uid: u32, clock: u64) {
        if st.done.contains(&uid) {
            return;
        }
        let f = st.finals.entry(uid).or_insert(clock);
        *f = (*f).max(clock);
        st.max_ts_seen = st.max_ts_seen.max(clock);
        if st.is_leader {
            st.clock = st.clock.max(clock);
            self.try_finalize(st, uid);
        }
    }

    /// Fixes `uid`'s final timestamp once every destination group has
    /// proposed. Emits no control traffic: finals are announced lazily by
    /// `leader_sequence_ready`.
    fn try_finalize(&self, st: &mut State, uid: u32) {
        let Some(pend) = st.pending.get(&uid) else {
            return;
        };
        if pend.payload.is_none() {
            return;
        }
        if st.finalized.iter().any(|&(_, u)| u == uid) {
            return;
        }
        let final_clock = if let Some(&f) = st.finals.get(&uid) {
            f
        } else {
            // All destination groups must have proposed.
            let props = match st.props.get(&uid) {
                Some(p) => p,
                None => return,
            };
            let groups = mask_groups(pend.mask);
            if !groups.clone().all(|g| props.contains_key(&g.0)) {
                return;
            }
            groups
                .map(|g| props[&g.0])
                .max()
                .expect("at least one destination")
        };
        st.finals.insert(uid, final_clock);
        st.clock = st.clock.max(final_clock);
        let ts = Timestamp::new(final_clock, MsgId(uid));
        st.max_ts_seen = st.max_ts_seen.max(final_clock);
        st.finalized.insert((ts.raw(), uid));
        // Timestamp agreement reached: every destination group proposed and
        // the final timestamp (max of proposals) is now fixed.
        sim::trace::instant_args("mcast.final", u64::from(uid), &[("ts", ts.raw())]);
    }

    /// Sequences every finalized message the Skeen delivery condition
    /// releases: a finalized message can be sequenced once no pending
    /// message we have proposed for (but not finalized) could receive a
    /// smaller final timestamp.
    ///
    /// Group commit is the size of a round: ready messages are drained in
    /// rounds of up to `max_batch`; a round's finals go out behind one
    /// doorbell per destination replica and its log entries behind one
    /// doorbell per follower, with one `log_seq` publication. Messages are
    /// popped in the same order whatever the size, so delivery order and
    /// timestamps do not depend on it — only the verb count and leader CPU
    /// do. A round of one is a write per doorbell.
    fn leader_sequence_ready(&self, st: &mut State) {
        let max_batch = self.inner.cfg.max_batch;
        loop {
            // Collect one round of ready messages. Popping a message never
            // unblocks another (the blocked predicate only consults
            // non-finalized pending proposals), so checking per pop is
            // checking per message.
            let mut round: Vec<(u64, u32, DestMask, Vec<u8>)> = Vec::new();
            while round.len() < max_batch {
                let Some(&(ts_raw, uid)) = st.finalized.iter().next() else {
                    break;
                };
                let blocked = st.pending.iter().any(|(u, p)| {
                    if st.finals.contains_key(u) {
                        return false; // already finalized; ordered via the set
                    }
                    match p.myprop {
                        // A pending proposal below ts could still finalize
                        // under ts.
                        Some(prop) => Timestamp::new(prop, MsgId(*u)).raw() < ts_raw,
                        // No own proposal yet: our future proposal will exceed
                        // the current clock, hence exceed ts.
                        None => false,
                    }
                });
                if blocked {
                    break;
                }
                st.finalized.remove(&(ts_raw, uid));
                let pend = st.pending.remove(&uid).expect("finalized implies pending");
                let payload = pend.payload.expect("finalized implies payload");
                round.push((ts_raw, uid, pend.mask, payload));
            }
            if round.is_empty() {
                return;
            }

            // Announce the final timestamps to all destination replicas:
            // redundant in steady state (each leader computes the same max)
            // but lets successor leaders adopt in-flight decisions. One
            // doorbell per replica, smallest group first, then by replica
            // index; a replica's entries in round order.
            let addressed = round.iter().fold(0, |mask, (_, _, m, _)| mask | m);
            for g in mask_groups(addressed) {
                for i in 0..self.n() {
                    let target = self.inner.global_idx(g, i);
                    if target == self.my_global {
                        continue;
                    }
                    let mut batch = self.qp(target).write_batch();
                    for (_, uid, mask, _) in &round {
                        if mask & (1 << g.0) == 0 {
                            continue;
                        }
                        let (from, clock) = (u64::from(self.group.0), st.finals[uid]);
                        let (slot, buf) =
                            self.ctrl_entry(st, target, CtrlKind::Final, *uid, from, clock);
                        batch.push(slot, buf);
                    }
                    let _ = batch.post();
                }
            }

            // Log append: write every entry locally, publish log_seq once
            // for the whole round, then one doorbell per follower carrying
            // all of the round's entries.
            let mut entries: Vec<(u64, Vec<u8>)> = Vec::with_capacity(round.len());
            for (ts_raw, uid, mask, payload) in &round {
                let seq = st.next_seq;
                st.next_seq += 1;
                st.done.insert(*uid);
                st.props.remove(uid);
                sim::trace::instant_args("mcast.sequenced", u64::from(*uid), &[("seq", seq)]);
                let entry = encode_log(seq, *uid, *mask, *ts_raw, st.epoch, payload);
                for (addr, bytes) in self.log.writes(seq + 1, &entry) {
                    self.node
                        .local_write(addr, bytes)
                        .expect("own log slot in range");
                }
                entries.push((seq, entry));
            }
            self.node
                .local_write_word(self.layout.log_seq, st.next_seq)
                .expect("own log_seq word");
            for i in 0..self.n() {
                if i == self.idx {
                    continue;
                }
                let target = self.inner.global_idx(self.group, i);
                let peer_log = self.inner.sizes.log_end(self.inner.layouts[target]);
                let mut batch = self.qp(target).write_batch();
                for (seq, entry) in &entries {
                    for (addr, bytes) in peer_log.writes(seq + 1, entry) {
                        batch.push(addr, bytes.to_vec());
                    }
                }
                let _ = batch.post();
            }
        }
    }

    /// Delivers log entries once a majority of the group stores them.
    fn leader_commit_deliver(&self, st: &mut State) {
        let mut stored: Vec<u64> = Vec::with_capacity(self.n());
        for i in 0..self.n() {
            if i == self.idx {
                stored.push(st.next_seq);
            } else {
                let v = self
                    .node
                    .local_read_word(self.inner.sizes.ack_slot(self.layout, i))
                    .unwrap_or(0);
                st.acks_cache[i] = v;
                stored.push(v);
            }
        }
        stored.sort_unstable_by(|a, b| b.cmp(a));
        let committed = stored[self.majority() - 1];
        // A slot that does not hold its entry (`read_own_log` checks the
        // stamp) ends the round.
        while st.applied_seq < committed {
            let Some(entry) = self.read_own_log(st.applied_seq) else {
                break;
            };
            st.applied_seq += 1;
            self.deliver(st, entry);
        }
    }

    /// Our own ring's entry for `seq`, header and payload read at one
    /// instant, or `None` when the slot's stamp is not `seq + 1`: a wiped
    /// slot, a truncated prefix, or one the ring has since lapped.
    fn read_own_log(&self, seq: u64) -> Option<crate::layout::LogEntry> {
        let slot = self.log.ring.slot(seq + 1);
        self.node.with_mem(|m| {
            let hdr = m.bytes(slot, LOG_HDR).expect("log header in range");
            let (stamp, uid, mask, ts_raw, _epoch, len) = decode_log_header(hdr);
            if stamp != seq + 1 {
                return None;
            }
            let payload = m
                .bytes(self.log.payload_at(stamp, slot, len), len)
                .expect("log payload in range")
                .to_vec();
            Some(crate::layout::LogEntry {
                seq,
                uid,
                mask,
                ts_raw,
                payload,
            })
        })
    }

    fn deliver(&self, st: &mut State, entry: crate::layout::LogEntry) {
        if !st.delivered.insert(entry.uid) {
            return; // integrity: never deliver the same message twice
        }
        st.done.insert(entry.uid);
        st.props.remove(&entry.uid);
        st.finals.remove(&entry.uid);
        st.pending.remove(&entry.uid);
        st.max_ts_seen = st
            .max_ts_seen
            .max(Timestamp::from_raw(entry.ts_raw).clock());
        // Delivery watermark advanced: progress for the explorer's
        // zero-virtual-time livelock guards.
        sim::note_progress();
        sim::trace::instant_args(
            "mcast.deliver",
            u64::from(entry.uid),
            &[("ts", entry.ts_raw), ("seq", entry.seq)],
        );
        // Durability: log the delivery before the upcall, so the set of
        // messages ever handed to the application survives power loss.
        // The append charges this process the modeled write + fsync cost.
        if let Some(disk) = &self.wal_disk {
            disk.append(
                crate::wal::WAL_FILE,
                &encode_log(
                    entry.seq,
                    entry.uid,
                    entry.mask,
                    entry.ts_raw,
                    st.epoch,
                    &entry.payload,
                ),
            );
        }
        // A dead consumer (its process was killed) cannot take deliveries;
        // dropping the event mirrors losing an upcall to a crashed replica.
        let _ = self.inner.deliveries[self.group.0 as usize][self.idx].send(
            DeliveryEvent::Deliver(Delivered {
                id: MsgId(entry.uid),
                ts: Timestamp::from_raw(entry.ts_raw),
                dests: entry.mask,
                payload: Bytes::from(entry.payload),
            }),
        );
    }

    /// Returns `true` if a heartbeat round was sent.
    fn maybe_heartbeat(&self, st: &mut State) -> bool {
        let now = sim::now();
        if now < st.last_hb_sent + HEARTBEAT_INTERVAL && st.hb_counter > 0 {
            return false;
        }
        st.hb_counter += 1;
        st.last_hb_sent = now;
        let value = (st.epoch << 32) | (st.hb_counter & 0xFFFF_FFFF);
        for i in 0..self.n() {
            if i == self.idx {
                continue;
            }
            let target = self.inner.global_idx(self.group, i);
            let hb = self.inner.layouts[target].heartbeat;
            let _ = self.qp(target).post_write_word(hb, value);
        }
        true
    }

    /// Re-sends log entries to followers whose acks are behind — the
    /// catch-up path for followers that missed unsignaled writes while
    /// crashed. Bounded per round; paced by the heartbeat cadence.
    fn leader_retransmit(&self, st: &mut State) {
        const BATCH: u64 = 64;
        for i in 0..self.n() {
            if i == self.idx {
                continue;
            }
            let behind = st.acks_cache[i];
            if behind >= st.next_seq {
                continue;
            }
            let target = self.inner.global_idx(self.group, i);
            if !self.peer_node(target).is_alive() {
                continue;
            }
            // Entries older than the log window are gone; the follower
            // will observe a gap. Entries below our reload floor were
            // truncated behind a checkpoint and are not in the rebuilt
            // ring at all.
            let window_lo = st
                .next_seq
                .saturating_sub(self.inner.sizes.log_slots as u64 / 2);
            let from = behind.max(window_lo).max(st.log_floor);
            let to = st.next_seq.min(from + BATCH);
            // Group commit ships a round behind one doorbell; without it
            // every entry rings its own.
            let writes_per_doorbell = if self.inner.cfg.max_batch > 1 {
                BATCH
            } else {
                1
            };
            // A follower behind our truncation horizon never sees a lap gap
            // in its wiped ring: it needs the floor advertised.
            let advertise_floor = st.log_floor > behind;
            self.ship_log(
                target,
                from..to,
                st.epoch,
                writes_per_doorbell,
                advertise_floor,
            );
        }
    }

    /// Ships our log entries `seqs` into `target`'s ring, re-stamped with
    /// `epoch` — the regime that vouches for them, so a recovered peer may
    /// apply them — `writes_per_doorbell` at a time; each doorbell's
    /// entries are read from our ring at the instant it is rung. With
    /// `advertise_floor`, first tells the peer that `seqs.start` is the
    /// oldest entry it will ever get from us: it surfaces a gap up to
    /// there, and the application recovers the prefix via state transfer.
    fn ship_log(
        &self,
        target: usize,
        seqs: std::ops::Range<u64>,
        epoch: u64,
        writes_per_doorbell: u64,
        advertise_floor: bool,
    ) {
        let peer_layout = self.inner.layouts[target];
        let peer_log = self.inner.sizes.log_end(peer_layout);
        let qp = self.qp(target);
        if advertise_floor {
            let _ = qp.post_write_word(peer_layout.log_floor, seqs.start);
        }
        let mut next = seqs.start;
        while next < seqs.end {
            let doorbell = next..seqs.end.min(next + writes_per_doorbell);
            next = doorbell.end;
            let mut batch = qp.write_batch();
            for seq in doorbell {
                let Some(entry) = self.read_own_log(seq) else {
                    // Our ring does not hold the entry: ship what we read,
                    // no more.
                    let _ = batch.post();
                    return;
                };
                let buf = encode_log(
                    seq,
                    entry.uid,
                    entry.mask,
                    entry.ts_raw,
                    epoch,
                    &entry.payload,
                );
                for (addr, bytes) in peer_log.writes(seq + 1, &buf) {
                    batch.push(addr, bytes.to_vec());
                }
            }
            let _ = batch.post();
        }
    }

    // ------------------------------------------------------------------
    // Follower side.
    // ------------------------------------------------------------------

    /// Consumes what [`Self::floor_ahead`] and [`Self::log_head`] offer —
    /// the two questions the wake predicate asks of the log.
    fn follower_apply_log(&self, st: &mut State) {
        let gaps = &self.inner.deliveries[self.group.0 as usize][self.idx];
        // Surface the gap below an advertised floor (the application
        // recovers from a checkpoint) and resume from the floor. Asked once
        // a pump, before the entries.
        if let Some(floor) = self.node.with_mem(|m| self.floor_ahead(m, st, true)) {
            let _ = gaps.send(DeliveryEvent::Gap {
                from: st.applied_seq,
                to: floor - 1,
            });
            st.applied_seq = floor;
            st.log_floor = st.log_floor.max(floor);
        }
        let mut progressed = false;
        while let Some(stamp) = self.node.with_mem(|m| self.log_head(m, st)) {
            let seq = st.applied_seq;
            if stamp > seq + 1 {
                // The leader lapped us: entries were overwritten before we
                // applied them. Surface the gap; the application recovers
                // out of band (Heron: state transfer).
                let _ = gaps.send(DeliveryEvent::Gap {
                    from: seq,
                    to: stamp - 2, // the slot now holds seq stamp-1
                });
                st.applied_seq = stamp - 1;
                continue;
            }
            // Copied at the instant the header was read, before the CPU
            // charge: a power cut during it zeroes the slot, and the entry
            // delivered (and appended to the WAL) is the one stamp-checked.
            let entry = self.read_own_log(seq).expect("log_head read its stamp");
            sim::sleep(FOLLOWER_CPU);
            st.applied_seq += 1;
            progressed = true;
            self.deliver(st, entry);
        }
        if progressed {
            self.node
                .local_write_word(self.layout.log_seq, st.applied_seq)
                .expect("own log_seq word");
            let leader = leader_for_epoch(st.epoch, self.n());
            let target = self.inner.global_idx(self.group, leader);
            let slot = self
                .inner
                .sizes
                .ack_slot(self.inner.layouts[target], self.idx);
            let _ = self.qp(target).post_write_word(slot, st.applied_seq);
        }
    }

    fn follower_check_leader(&self, st: &mut State) {
        let hb = self
            .node
            .local_read_word(self.layout.heartbeat)
            .unwrap_or(0);
        let now = sim::now();
        if hb != st.last_hb_val {
            st.last_hb_val = hb;
            st.last_hb_change = now;
            let seen_epoch = hb >> 32;
            if st.await_epoch {
                // First heartbeat since we recovered: only a live leader
                // heartbeats, so its epoch is the current regime. Entries
                // written by older regimes (our suspect tail) stay refused.
                st.await_epoch = false;
                st.entry_epoch_floor = st.entry_epoch_floor.max(seen_epoch);
            }
            if seen_epoch > st.epoch {
                st.epoch = seen_epoch;
                st.election_target = st.election_target.max(seen_epoch);
                st.is_leader = self.idx == leader_for_epoch(st.epoch, self.n());
            }
            return;
        }
        if self.n() == 1 {
            return;
        }
        if now
            .checked_sub(st.last_hb_change)
            .map(|d| d >= LEADER_TIMEOUT)
            != Some(true)
        {
            return;
        }
        // Heartbeat silence: advance the election target.
        let target = st.epoch.max(st.election_target) + 1;
        st.election_target = target;
        st.last_hb_change = now; // restart the timeout window
        if leader_for_epoch(target, self.n()) == self.idx {
            self.try_takeover(st, target);
        }
    }

    /// Epoch takeover: adopt the longest majority log, backfill peers, and
    /// become leader.
    fn try_takeover(&self, st: &mut State, target: u64) {
        // 1. Read peers' log positions.
        let mut alive = 1usize;
        let mut longest: (u64, Option<usize>) = (st.applied_seq, None);
        // In replica-index order: step 4 posts its backfill writes in this
        // order, and the order of posts is part of the schedule.
        let mut peer_seq: Vec<(usize, u64)> = Vec::new();
        for i in 0..self.n() {
            if i == self.idx {
                continue;
            }
            let target_g = self.inner.global_idx(self.group, i);
            let peer_layout = self.inner.layouts[target_g];
            let qp = self.qp(target_g);
            if let Ok(seq) = qp.read_word(peer_layout.log_seq) {
                // An alive peer whose boot generation lags its power-cycle
                // count is back up but has not reloaded its WAL into the
                // ring yet: its log_seq word still reads as wiped. Electing
                // now could adopt a log shorter than its durable one and
                // re-sequence entries it will later replay — wait instead.
                let gen = qp.read_word(peer_layout.boot_gen).unwrap_or(0);
                if gen != self.peer_node(target_g).power_cycles() {
                    return; // recovering peer not ready; retry next timeout
                }
                alive += 1;
                peer_seq.push((i, seq));
                if seq > longest.0 {
                    longest = (seq, Some(i));
                }
            }
        }
        if alive < self.majority() {
            return; // cannot take over without a majority; retry later
        }
        // 2. Fetch entries we are missing from the longest log.
        if let Some(holder) = longest.1 {
            let target_g = self.inner.global_idx(self.group, holder);
            let holder_log = self.inner.sizes.log_end(self.inner.layouts[target_g]);
            let qp = self.qp(target_g);
            for seq in st.applied_seq..longest.0 {
                let slot = holder_log.ring.slot(seq + 1);
                let Ok(hdr) = qp.read(slot, LOG_HDR) else {
                    return; // holder died mid-transfer; retry next timeout
                };
                let (stamp, _, _, _, _, len) = decode_log_header(&hdr);
                if stamp != seq + 1 {
                    return; // holder's slot was overwritten; retry
                }
                let Ok(payload) = qp.read(holder_log.payload_at(stamp, slot, len), len) else {
                    return;
                };
                let mut entry = hdr;
                entry.extend_from_slice(&payload);
                for (addr, bytes) in self.log.writes(stamp, &entry) {
                    self.node
                        .local_write(addr, bytes)
                        .expect("own log slot in range");
                }
            }
        }
        // 3. Apply everything we now hold (delivers locally, in order).
        let adopt_to = longest.0;
        while st.applied_seq < adopt_to {
            let Some(entry) = self.read_own_log(st.applied_seq) else {
                return; // our slot lost its entry; retry next timeout
            };
            st.applied_seq += 1;
            self.deliver(st, entry);
        }
        self.node
            .local_write_word(self.layout.log_seq, st.applied_seq)
            .expect("own log_seq word");
        // 4. Backfill shorter peers so the group converges.
        for &(i, seq) in &peer_seq {
            if seq >= adopt_to {
                continue;
            }
            let target_g = self.inner.global_idx(self.group, i);
            // A prefix of the adopted log may be gone from our ring: WAL
            // compaction truncated it, or a power loss wiped it and the
            // reload found it already behind the checkpoint floor. Those
            // entries exist only inside checkpoints now — advance the
            // peer's floor word so it surfaces a gap and the application
            // recovers the prefix via state transfer, then backfill the
            // entries we do hold.
            let mut from = seq;
            while from < adopt_to && self.read_own_log(from).is_none() {
                from += 1;
            }
            // Backfilled under the new epoch so recovered peers accept.
            self.ship_log(target_g, from..adopt_to, target, 1, from > seq);
        }
        // 5. Assume leadership. We adopted a majority log, so any suspect
        // recovered tail was superseded; our own appends carry `target`.
        st.await_epoch = false;
        st.entry_epoch_floor = st.entry_epoch_floor.max(target);
        st.epoch = target;
        st.is_leader = true;
        st.next_seq = adopt_to;
        st.clock = st.clock.max(st.max_ts_seen) + 16;
        st.pending.clear();
        st.finalized.clear();
        for i in 0..self.n() {
            let _ = self
                .node
                .local_write_word(self.inner.sizes.ack_slot(self.layout, i), 0);
        }
        st.acks_cache = vec![0; self.n()];
        // Adopt the old leader's surviving proposals/finals for messages
        // not yet sequenced; payloads arrive again via client retries.
        let uids: Vec<u32> = st
            .props
            .keys()
            .chain(st.finals.keys())
            .copied()
            .filter(|u| !st.done.contains(u))
            .collect();
        for uid in uids {
            let myprop = st
                .props
                .get(&uid)
                .and_then(|m| m.get(&self.group.0))
                .copied();
            st.pending.entry(uid).or_insert(Pending {
                payload: None,
                mask: 0,
                myprop,
            });
        }
        st.hb_counter = 0;
        self.maybe_heartbeat(st);
    }

    // ------------------------------------------------------------------
    // Control-lane writer.
    // ------------------------------------------------------------------

    /// Forwards a submission to our control lane on `target`: the header
    /// in the lane, the payload in the same stamp's slot of our forward
    /// ring there, both behind one doorbell, so they land at one instant.
    fn forward(&self, st: &mut State, target: usize, uid: u32, mask: DestMask, payload: Vec<u8>) {
        let lane = self.ctrl_out(st, target);
        let (stamp, _) = lane.claim();
        let entry = encode_ctrl(stamp, CtrlKind::FwdSub, uid, mask, 0, &payload);
        let mut batch = self.qp(target).write_batch();
        for (addr, bytes) in lane.writes(stamp, &entry) {
            batch.push(addr, bytes.to_vec());
        }
        let _ = batch.post();
    }

    /// Takes the next stamp of our control lane on `target` and encodes the
    /// header-only entry for it: the slot and its bytes, for the caller to
    /// post alone or queue behind a doorbell with others. Stamps are
    /// consumed in call order, so consecutive entries land in consecutive
    /// ring slots however they are posted.
    fn ctrl_entry(
        &self,
        st: &mut State,
        target: usize,
        kind: CtrlKind,
        uid: u32,
        a: DestMask,
        b: u64,
    ) -> (Addr, Vec<u8>) {
        let (stamp, slot) = self.ctrl_out(st, target).claim();
        (slot, encode_ctrl(stamp, kind, uid, a, b, &[]))
    }

    /// Our control lane on `target`, ready to claim a stamp. A writer
    /// booted after a power cut lost its stamps, while the lane where it
    /// lives still holds those its last life wrote and the peer's cursor
    /// is above them: at the first post to it, one RDMA read of the lane
    /// there says where to resume ([`Lane::resume`]). A peer that does not
    /// answer leaves the lane lost; a post to it is dropped anyway.
    fn ctrl_out<'s>(&self, st: &'s mut State, target: usize) -> &'s mut Lane {
        let lane = &mut st.ctrl_out[target];
        if lane.lost {
            if let Ok(ring) = self.qp(target).read(lane.ring.base, lane.ring.size()) {
                lane.resume(&ring);
            }
        }
        lane
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{encode_sub, CTRL_HDR};
    use crate::{Mcast, McastConfig};
    use proptest::prelude::*;
    use rdma_sim::{Fabric, LatencyModel};

    /// `has_work`, stated over one `local_read_word` per probe.
    fn has_work_word_by_word(r: &McastReplica, st: &State) -> bool {
        let sizes = &r.inner.sizes;
        let word = |addr| r.node.local_read_word(addr).unwrap_or(0);
        // The slot under a lane's cursor holds that stamp or a later one —
        // any slot, if the lane is lost.
        let lane_hit = st.lanes.iter().any(|l| {
            let mut slots = if l.lost {
                1..=l.ring.slots as u64
            } else {
                l.next..=l.next
            };
            slots.any(|s| word(l.ring.slot(s)) >= l.next)
        });
        let role = if st.is_leader {
            (0..r.n())
                .filter(|&i| i != r.idx)
                .any(|i| word(sizes.ack_slot(r.layout, i)) != st.acks_cache[i])
        } else {
            let entry = r.log.ring.slot(st.applied_seq + 1);
            let epoch = entry.offset(4 * crate::layout::WORD as u64);
            (!st.await_epoch && word(entry) > st.applied_seq && word(epoch) >= st.entry_epoch_floor)
                || ((!st.await_epoch || r.ungated_has_work)
                    && word(r.layout.log_floor) > st.applied_seq)
                || word(r.layout.heartbeat) != st.last_hb_val
        };
        lane_hit || role
    }

    /// Runs `body` as a simulated process over a 2 × 3 deployment whose
    /// rings are small enough to wrap: three submission and control slots,
    /// four log slots, payloads of up to eight bytes.
    fn in_small_cluster<T: 'static>(
        sabotaged: bool,
        body: impl FnOnce(&Mcast) -> T + 'static,
    ) -> T {
        let mut cfg = McastConfig::new(2, 3).with_max_clients(2);
        (
            cfg.sub_slots,
            cfg.ctrl_slots,
            cfg.log_slots,
            cfg.max_payload,
        ) = (3, 3, 4, 8);
        let simulation = sim::Simulation::new(1);
        let fabric = Fabric::new(LatencyModel::connectx4());
        if sabotaged {
            fabric.sabotage(SABOTAGE_HAS_WORK_GATE);
        }
        let nodes: Vec<Vec<_>> = (0..2)
            .map(|g| {
                (0..3)
                    .map(|i| fabric.add_node(format!("g{g}r{i}")))
                    .collect()
            })
            .collect();
        let mcast = Mcast::build(&fabric, nodes, cfg);
        let out = Rc::new(std::cell::RefCell::new(None));
        let seen = Rc::clone(&out);
        simulation.spawn("probe", move || {
            *seen.borrow_mut() = Some(body(&mcast));
        });
        simulation.run().unwrap();
        let got = out.take();
        got.expect("the probe ran")
    }

    /// Runs `body` over replica `idx` of group 1 in [`in_small_cluster`]'s
    /// deployment, with a freshly booted `State`.
    fn with_replica<T: 'static>(
        sabotaged: bool,
        idx: usize,
        body: impl FnOnce(&McastReplica, State) -> T + 'static,
    ) -> T {
        in_small_cluster(sabotaged, move |mcast| {
            let r = mcast.replica(GroupId(1), idx);
            let st = r.boot_state();
            body(&r, st)
        })
    }

    /// Pumps while the predicate asks for it; whether it stopped asking.
    /// Nobody else writes this node's memory, so a predicate still true
    /// after more pumps than a lane has slots counts something the
    /// consumer refuses: the process would spin without ever blocking.
    fn drains(r: &McastReplica, st: &mut State) -> bool {
        for _ in 0..8 {
            if !r.has_work(st) {
                return true;
            }
            r.do_work(st);
        }
        false
    }

    /// One randomised replica: cursors, lost lanes and gates in `st`, a
    /// few well-formed entries and words scattered over its lanes, log,
    /// acks and control words, landing partly before and partly after a
    /// wake that unmarks the lanes it reads idle. Returns `has_work`, the oracle's answer,
    /// whether a lane that wake unmarked was marked again by a later
    /// landing, and — for a follower whose gate is intact — whether pumping
    /// drains the predicate.
    fn random_case(rng: &mut proptest::TestRng) -> (bool, bool, bool, Option<bool>) {
        let sabotaged = any::<bool>().generate(rng);
        let idx = (0usize..3).generate(rng);
        let small = 0u64..5;
        let cursors = prop::collection::vec((1u64..5, any::<bool>()), 2 + 5).generate(rng);
        let gates = prop::collection::vec(any::<bool>(), 2).generate(rng);
        let scalars = prop::collection::vec(small.clone(), 5).generate(rng);
        let writes =
            prop::collection::vec((0usize..6, 0usize..6, 1u64..7, small), 0..4).generate(rng);
        let wake_after = (0usize..4).generate(rng);
        with_replica(sabotaged, idx, move |r, mut st| {
            for (lane, (cursor, lost)) in st.lanes.iter_mut().zip(cursors) {
                (lane.next, lane.lost) = (cursor, lost);
            }
            (st.is_leader, st.await_epoch) = (gates[0], gates[1]);
            (st.applied_seq, st.entry_epoch_floor, st.last_hb_val) =
                (scalars[0], scalars[1], scalars[2]);
            st.acks_cache = vec![scalars[3], scalars[4], scalars[3]];
            // Memory starts out agreeing with the cached words …
            let sizes = r.inner.sizes;
            let put = |addr, value| r.node.local_write_word(addr, value).unwrap();
            put(r.layout.heartbeat, st.last_hb_val);
            for (i, ack) in st.acks_cache.iter().enumerate() {
                put(sizes.ack_slot(r.layout, i), *ack);
            }
            // … then a few entries land and a few words move, some of them
            // after a wake.
            let land = |&(region, lane, stamp, x): &(usize, usize, u64, u64)| {
                let (uid, payload) = (x as u32, vec![7; x as usize]);
                let entry = |addr, buf: Vec<u8>| r.node.local_write(addr, &buf).unwrap();
                match region {
                    0 => entry(
                        sizes.sub_lane(r.layout, lane % 2).slot(stamp),
                        encode_sub(stamp, uid, 0b10, &payload),
                    ),
                    // A control entry is a header; a forward's payload is
                    // in the writer's forward ring, landed first.
                    1 => {
                        let kind =
                            [CtrlKind::Proposal, CtrlKind::Final, CtrlKind::FwdSub][lane % 3];
                        let end = sizes.ctrl_end(r.layout, lane);
                        let carried = if kind == CtrlKind::FwdSub {
                            &payload[..]
                        } else {
                            &[]
                        };
                        let buf = encode_ctrl(stamp, kind, uid, 1, x, carried);
                        // The payload lands first.
                        let mut writes: Vec<_> = end.writes(stamp, &buf).collect();
                        writes.reverse();
                        writes
                            .into_iter()
                            .for_each(|(at, bytes)| entry(at, bytes.to_vec()));
                    }
                    2 => put(sizes.ack_slot(r.layout, lane % 3), x),
                    // A log entry at or past our position, stamped by
                    // regime `x`.
                    3 => {
                        let seq = st.applied_seq + lane as u64;
                        let buf = encode_log(seq, uid, 0b10, stamp, x, &payload);
                        for (at, bytes) in r.log.writes(seq + 1, &buf) {
                            entry(at, bytes.to_vec());
                        }
                    }
                    4 => put(r.layout.log_floor, x),
                    _ => put(r.layout.heartbeat, x),
                }
            };
            let (early, late) = writes.split_at(wake_after.min(writes.len()));
            early.iter().for_each(land);
            r.has_work(&st);
            let kept: Vec<usize> = st.marks.marked().collect();
            late.iter().for_each(land);
            let relanded = st.marks.marked().any(|lane| !kept.contains(&lane));
            let answers = (r.has_work(&st), has_work_word_by_word(r, &st));
            let pumped = !(st.is_leader || sabotaged);
            (
                answers.0,
                answers.1,
                relanded,
                pumped.then(|| drains(r, &mut st)),
            )
        })
    }

    #[test]
    fn has_work_agrees_with_a_word_by_word_oracle() {
        let mut rng = proptest::TestRng::deterministic("amcast::has_work");
        let mut outcomes = [0usize; 2];
        let (mut pumped, mut relanded) = (0, 0);
        for case in 0..400 {
            let (got, oracle, remarked, drained) = random_case(&mut rng);
            assert_eq!(got, oracle, "case {case}");
            outcomes[usize::from(got)] += 1;
            relanded += usize::from(remarked);
            // A pump leaves nothing its predicate counts.
            assert_ne!(drained, Some(false), "case {case}");
            pumped += usize::from(got && drained.is_some());
        }
        // Both answers are exercised, not one of them 400 times, lanes the
        // wake unmarked took landings, and the pumps had something to
        // consume.
        assert!(outcomes.iter().all(|&n| n >= 80), "{outcomes:?}");
        assert!(relanded >= 40, "{relanded}");
        assert!(pumped >= 20, "{pumped}");
    }

    /// The property above can fail: a recovering follower (`await_epoch`)
    /// under a raised floor is refused by `follower_apply_log`, so a
    /// predicate that drops the gate counts it for ever.
    #[test]
    fn a_predicate_that_drops_the_gate_never_drains() {
        for sabotaged in [false, true] {
            let drained = with_replica(sabotaged, 1, |r, mut st| {
                st.await_epoch = true;
                let floor = st.applied_seq + 3;
                r.node.local_write_word(r.layout.log_floor, floor).unwrap();
                drains(r, &mut st)
            });
            assert_eq!(drained, !sabotaged);
        }
    }

    /// A lane read idle is unmarked, and only a landing or a rejoin marks
    /// it again: entries that landed where the cursor was not looking are
    /// found by the lost lane a rejoin leaves, so the lane must be read
    /// again.
    #[test]
    fn a_rejoin_marks_its_lost_lanes() {
        let (before, after) = with_replica(false, 1, |r, mut st| {
            let lane = st.lanes[0];
            st.lanes[0].next = 4;
            for stamp in [5, 6] {
                let entry = encode_sub(stamp, stamp as u32, 0b10, &[]);
                r.node.local_write(lane.ring.slot(stamp), &entry).unwrap();
            }
            let before = r.has_work(&st);
            assert_eq!(st.marks.next(0), None, "every lane read idle");
            r.rejoin(&mut st);
            assert!(st.lanes.iter().all(|lane| lane.lost));
            (before, r.has_work(&st))
        });
        assert_eq!((before, after), (false, true));
    }

    /// The writer posted 4 and 5 while we were down, and both were dropped;
    /// after the rejoin, 6 lands in a slot the cursor at 4 is not looking
    /// at. The lost lane reads it at once, not when the writer laps the
    /// ring.
    #[test]
    fn a_rejoined_lane_reads_past_a_hole_left_while_it_was_down() {
        let (ready, next) = with_replica(false, 1, |r, mut st| {
            st.lanes[0].next = 4;
            r.rejoin(&mut st);
            let entry = encode_sub(6, 6, 0b10, &[]);
            r.node
                .local_write(st.lanes[0].ring.slot(6), &entry)
                .unwrap();
            let ready = r.has_work(&st);
            r.scan_lanes(&mut st);
            (ready, st.lanes[0].next)
        });
        assert_eq!((ready, next), (true, 7));
    }

    /// After a rejoin, replica 0 of group 1 is a follower whose epoch (0)
    /// names itself as leader: a submission it takes in is dropped, not
    /// posted into its own control lane, which nobody reads. Replica 1
    /// forwards to replica 0: a header and a payload.
    #[test]
    fn a_replica_never_forwards_to_itself() {
        let posted = in_small_cluster(false, |mcast| {
            let stats = mcast.fabric().stats();
            let writes = || {
                stats
                    .posted_writes
                    .load(std::sync::atomic::Ordering::Relaxed)
            };
            (0..2)
                .map(|idx| {
                    let r = mcast.replica(GroupId(1), idx);
                    let mut st = r.boot_state();
                    r.rejoin(&mut st);
                    assert!(!st.is_leader && leader_for_epoch(st.epoch, r.n()) == 0);
                    let before = writes();
                    r.handle_submission(&mut st, 9, 0b10, payload_of(9));
                    writes() - before
                })
                .collect::<Vec<_>>()
        });
        assert_eq!(posted, [0, 2]);
    }

    /// Replica 1 of group 1 forwards `uids` to its leader, replica 0, in
    /// order, each carrying a payload of its own; the leader reads after
    /// every forward in `reads`' positions. The payloads the leader took
    /// in, by uid.
    fn forward_then_read(uids: &[u32], reads: &[usize]) -> Vec<(u32, Vec<u8>)> {
        let (uids, reads) = (uids.to_vec(), reads.to_vec());
        in_small_cluster(false, move |mcast| {
            let (writer, leader) = (mcast.replica(GroupId(1), 1), mcast.replica(GroupId(1), 0));
            let (mut out, mut st) = (writer.boot_state(), leader.boot_state());
            let read = |st: &mut State| {
                sim::sleep(Duration::from_micros(20));
                leader.scan_lanes(st);
            };
            for (i, &uid) in uids.iter().enumerate() {
                writer.forward(&mut out, leader.my_global, uid, 0b10, payload_of(uid));
                if reads.contains(&i) {
                    read(&mut st);
                }
            }
            read(&mut st);
            let mut got: Vec<(u32, Vec<u8>)> = st
                .pending
                .iter()
                .map(|(uid, p)| {
                    (
                        *uid,
                        p.payload.clone().expect("a forward carries its payload"),
                    )
                })
                .collect();
            got.sort();
            got
        })
    }

    /// Five forwards reach the leader, then the writer's node loses power
    /// and boots; seven more follow. The booted writer resumes its lane
    /// above the five stamps its last life wrote, where the leader's cursor
    /// waits, so the leader takes all twelve: stamps restarted at 1 would
    /// read as an old lap until they passed the cursor.
    #[test]
    fn a_writer_booted_after_a_power_cut_resumes_above_its_old_stamps() {
        let taken = in_small_cluster(false, |mcast| {
            let (writer, leader) = (mcast.replica(GroupId(1), 1), mcast.replica(GroupId(1), 0));
            let mut st = leader.boot_state();
            let mut send = |out: &mut State, uids: std::ops::Range<u32>| {
                for uid in uids {
                    writer.forward(out, leader.my_global, uid, 0b10, payload_of(uid));
                    sim::sleep(Duration::from_micros(20));
                    leader.scan_lanes(&mut st);
                }
            };
            send(&mut writer.boot_state(), 1..6);
            let (fabric, id) = (mcast.fabric(), writer.node.id());
            fabric.power_loss(id);
            fabric.recover(id);
            send(&mut writer.boot_state(), 6..13);
            let mut uids: Vec<u32> = st.pending.keys().copied().collect();
            uids.sort_unstable();
            uids
        });
        assert_eq!(taken, (1..13).collect::<Vec<u32>>());
    }

    fn payload_of(uid: u32) -> Vec<u8> {
        vec![uid as u8; 1 + uid as usize % 8]
    }

    /// Stamps `s` and `s + ctrl_slots` share a control slot and a forward
    /// ring slot: the payload read for an entry is its own stamp's, whether
    /// the reader keeps up or the writer lapped it.
    #[test]
    fn a_forward_payload_is_read_from_the_slot_of_its_own_stamp() {
        let expect = |uids: &[u32]| -> Vec<(u32, Vec<u8>)> {
            uids.iter().map(|&uid| (uid, payload_of(uid))).collect()
        };
        // Read after every forward: stamp 4 reuses stamp 1's slots.
        let uids = [11, 12, 13, 14, 15];
        assert_eq!(forward_then_read(&uids, &[0, 1, 2, 3]), expect(&uids));
        // Read once, after stamps 1 to 5 landed in three slots: the cursor
        // at 1 finds stamp 4, jumps to it and reads 4 and 5 — stamps 1 and
        // 2 were overwritten before the reader looked.
        assert_eq!(forward_then_read(&uids, &[]), expect(&[14, 15]));
    }

    /// A forward is one doorbell of two writes, its header and its payload,
    /// with the bytes of the single entry it used to be; both land at one
    /// instant, so a reader that sees either sees both.
    #[test]
    fn a_forward_is_one_doorbell_and_lands_at_one_instant() {
        let (counts, landed) = in_small_cluster(false, |mcast| {
            let (writer, leader) = (mcast.replica(GroupId(1), 1), mcast.replica(GroupId(1), 0));
            let mut out = writer.boot_state();
            let end = out.ctrl_out[leader.my_global];
            let slot = end.ring.slot(end.next);
            let payload = payload_of(7);
            let at = end.payload_at(end.next, slot, payload.len());
            let poller = leader
                .node
                .poller(sim::Cond::new(), &[(slot, CTRL_HDR), (at, payload.len())]);
            let node = leader.node.clone();
            let landed = Rc::new(std::cell::Cell::new(None));
            let found = Rc::clone(&landed);
            sim::spawn("watcher", move || {
                let seen = || {
                    let hdr = node.local_read_word(slot).unwrap() != 0;
                    (hdr, node.local_read(at, 8).unwrap() == payload_of(7))
                };
                poller.poll_until(|| seen() != (false, false));
                found.set(Some(seen()));
            });
            let stats = mcast.fabric().stats();
            let count = || {
                let get =
                    |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
                [
                    get(&stats.doorbells),
                    get(&stats.posted_writes),
                    get(&stats.bytes_written),
                ]
            };
            let before = count();
            writer.forward(&mut out, leader.my_global, 7, 0b10, payload);
            let counts: Vec<u64> = count().iter().zip(before).map(|(a, b)| a - b).collect();
            sim::sleep(Duration::from_micros(20));
            (counts, landed.get())
        });
        assert_eq!(counts, [1, 2, (CTRL_HDR + payload_of(7).len()) as u64]);
        assert_eq!(landed, Some((true, true)));
    }
}
