//! The multicast replica process: the I/O around Skeen's ordering rules
//! (the [`Sequencer`]), intra-group replication, delivery, and leader
//! change.

use crate::cluster::{Delivered, DeliveryEvent, McastInner};
use crate::layout::{
    decode_ctrl_header, decode_log_header, decode_sub_header, encode_ctrl, encode_log, stamp_of,
    CtrlKind, Lane, NodeLayout, ScanMarks, LOG_HDR, SUB_HDR,
};
use crate::sequencer::Sequencer;
use crate::timestamp::{GroupId, MsgId, Timestamp};
use crate::{mask_groups, DestMask, IdSet};
use bytes::Bytes;
use rdma_sim::{Addr, MemView, Node, Poller, QueuePair, WriteBatch};
use sim::SimTime;
use std::rc::Rc;
use std::time::Duration;

/// Which replica index leads a group of `n` replicas in the given epoch.
pub fn leader_for_epoch(epoch: u64, n: usize) -> usize {
    (epoch % n as u64) as usize
}

/// One multicast replica: its wiring, its protocol state and the protocol
/// driver over them. The replica process [`crate::Mcast::spawn_replicas`]
/// starts on the replica's node (the one way to start one), and starts
/// again each time the node boots after a power loss, boots it and runs it
/// forever, delivering messages into the replica's delivery mailbox.
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
    /// Skeen's ordering state and rules.
    seq: Sequencer,
    /// Uids handed to the application (integrity-level dedup).
    delivered: IdSet<u32>,
    /// Messages ordered so far in the current group-commit window; the
    /// first message of a window pays the full [`ORDERING_CPU`], the rest
    /// pay the marginal batched cost.
    ordering_window: usize,
    // Leader state.
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

/// The [`rdma_sim::Fabric::sabotage`] name of `has_work`'s `await_epoch`
/// gate on the truncation-horizon check. Built without it a recovering
/// follower re-introduces the PR 8 zero-virtual-time livelock, which
/// `explore_suite --selftest` requires the livelock detector to catch.
pub const SABOTAGE_HAS_WORK_GATE: &str = "amcast.has_work_gate";

/// Leader heartbeat period.
const HEARTBEAT_INTERVAL: Duration = Duration::from_micros(200);
/// A follower suspects the leader after this much heartbeat silence, and
/// a client suspects a group it has not heard from for as long
/// ([`crate::McastClient::locate`]).
pub const LEADER_TIMEOUT: Duration = Duration::from_millis(2);
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
    /// Boots replica `idx` of `group`, in its process: fresh cursors, its
    /// lanes registered for marks, every one set, and its heartbeat timeout
    /// window starting now. On a node whose power was cut it is rebuilt
    /// from the disk ([`Self::reload`]) and rejoins; otherwise it has seen
    /// nothing yet.
    pub(crate) fn boot(inner: Rc<McastInner>, group: GroupId, idx: usize) -> Self {
        let node = inner.nodes[group.0 as usize][idx].clone();
        let poller = inner.pollers[group.0 as usize][idx].clone();
        let my_global = inner.global_idx(group, idx);
        let (sizes, layout) = (inner.sizes, inner.layouts[my_global]);
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
        let writers = (0..sizes.total_replicas).filter(|&w| w != my_global);
        let n = inner.cfg.replicas_per_group;
        let mut r = McastReplica {
            ungated_has_work: node.sabotaged(SABOTAGE_HAS_WORK_GATE),
            log: sizes.log_end(layout),
            epoch: 0,
            is_leader: idx == leader_for_epoch(0, n),
            lanes: (0..sizes.max_clients)
                .map(|c| Lane::new(sizes.sub_lane(layout, c), SUB_HDR))
                .chain(writers.map(|w| sizes.ctrl_end(layout, w)))
                .collect(),
            marks: ScanMarks::register(&node, &sizes, layout, my_global),
            ctrl_out: inner
                .layouts
                .iter()
                .map(|peer| sizes.ctrl_end(*peer, my_global))
                .collect(),
            applied_seq: 0,
            seq: Sequencer::new(group.0),
            delivered: IdSet::default(),
            ordering_window: 0,
            next_seq: 0,
            acks_cache: vec![0; n],
            last_hb_sent: SimTime::ZERO,
            hb_counter: 0,
            last_hb_val: 0,
            last_hb_change: sim::now(),
            election_target: 0,
            await_epoch: false,
            entry_epoch_floor: 0,
            log_floor: 0,
            inner,
            group,
            idx,
            node,
            poller,
            my_global,
            layout,
            qps,
            wal_disk,
        };
        if r.node.power_cycles() > 0 {
            r.reload();
            r.rejoin();
        }
        r
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

    /// The replicas of `group` but us, in index order: each one's index in
    /// the group and its global index. Borrows nothing, so a walk may post.
    fn peers(&self, group: GroupId) -> impl Iterator<Item = (usize, usize)> {
        let (first, me) = (self.inner.global_idx(group, 0), self.my_global);
        (0..self.n())
            .map(move |i| (i, first + i))
            .filter(move |&(_, global)| global != me)
    }

    /// Runs the replica protocol loop forever, from the state it booted
    /// with. A crash pauses the loop; the recovery after it is noticed by
    /// the node's incarnation.
    ///
    /// # Panics
    ///
    /// Panics on ring overruns (a sign the deployment is undersized) and if
    /// called outside a simulated process.
    pub fn run(mut self) {
        let mut incarnation = self.node.incarnation();
        // Sequencer backlog timeline (inert when tracing is off):
        // proposals awaiting finalization plus finalized-but-undelivered
        // messages held by the group-commit window.
        let backlog = sim::prof::gauge(format!("amcast.backlog.g{}r{}", self.group.0, self.idx));
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
                self.rejoin();
            }
            self.do_work();
            backlog.set(self.seq.backlog() as u64);
            let deadline = if self.is_leader {
                self.last_hb_sent + HEARTBEAT_INTERVAL
            } else {
                self.last_hb_change + LEADER_TIMEOUT
            };
            let now = sim::now();
            let timeout = deadline
                .checked_sub(now)
                .unwrap_or(std::time::Duration::from_nanos(1));
            let this = &self;
            self.poller.poll_until_timeout(|| this.has_work(), timeout);
        }
    }

    // ------------------------------------------------------------------
    // Work detection (cheap local-memory scans).
    // ------------------------------------------------------------------

    fn has_work(&self) -> bool {
        let sizes = &self.inner.sizes;
        // One borrow for the whole predicate: it runs on every wake-up.
        self.node.with_mem(|m| {
            let word = |addr| m.word(addr).unwrap_or(0);
            // New submissions or control messages? Only a marked lane can
            // hold one; a marked lane read idle is unmarked.
            let lane_ready = self.marks.marked().any(|i| {
                let ready = self.lanes[i].ready(m);
                if !ready {
                    self.marks.clear(i);
                }
                ready
            });
            debug_assert_eq!(
                lane_ready,
                self.lanes.iter().any(|lane| lane.ready(m)),
                "the lane marks missed a landing"
            );
            if lane_ready {
                true
            } else if self.is_leader {
                // New acks?
                self.peers(self.group)
                    .any(|(i, _)| word(sizes.ack_slot(self.layout, i)) != self.acks_cache[i])
            } else {
                // A log entry or a truncation horizon `follower_apply_log`
                // will act on — it asks the same two questions, so nothing
                // it refuses reads as work here — or the heartbeat moved.
                // (`ungated_has_work` asks about the floor as if the regime
                // were known, which the consumer does not: the spin the
                // livelock-detector self-test must catch.)
                self.log_head(m).is_some()
                    || self.floor_ahead(m, !self.ungated_has_work).is_some()
                    || word(self.layout.heartbeat) != self.last_hb_val
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
    fn log_head(&self, m: &MemView<'_>) -> Option<u64> {
        if self.await_epoch {
            return None;
        }
        let addr = self.log.ring.slot(self.applied_seq + 1);
        let (stamp, .., epoch, _) = decode_log_header(m.bytes(addr, LOG_HDR).ok()?);
        (stamp > self.applied_seq && epoch >= self.entry_epoch_floor).then_some(stamp)
    }

    /// The truncation horizon a leader advertised past our position: its
    /// durable log was truncated there, so the prefix below can never be
    /// retransmitted. `gated`, it is `None` while the regime is unknown —
    /// how `follower_apply_log` asks, and the wake predicate with it.
    fn floor_ahead(&self, m: &MemView<'_>, gated: bool) -> Option<u64> {
        if gated && self.await_epoch {
            return None;
        }
        let floor = m.word(self.layout.log_floor).unwrap_or(0);
        (floor > self.applied_seq).then_some(floor)
    }

    // ------------------------------------------------------------------
    // Main work pump.
    // ------------------------------------------------------------------

    fn do_work(&mut self) {
        self.ordering_window = 0;
        self.scan_lanes();
        if self.is_leader {
            // Step down if a successor took over while we were out.
            let hb = self.heartbeat();
            if hb >> 32 > self.epoch {
                self.adopt_epoch(hb >> 32);
                (self.last_hb_val, self.last_hb_change) = (hb, sim::now());
                return;
            }
            self.leader_sequence_ready();
            self.leader_commit_deliver();
            if self.maybe_heartbeat() {
                self.leader_retransmit();
            }
        } else {
            self.follower_apply_log();
            self.follower_check_leader();
        }
    }

    /// The heartbeat word our leader writes: its epoch above its counter.
    fn heartbeat(&self) -> u64 {
        self.node
            .local_read_word(self.layout.heartbeat)
            .unwrap_or(0)
    }

    /// Follows `epoch`, newer than ours: its leader, and an election target
    /// no lower. Whatever we held as a leader goes; a follower holds none.
    fn adopt_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.election_target = self.election_target.max(epoch);
        self.is_leader = self.idx == leader_for_epoch(epoch, self.n());
        self.seq.step_down();
    }

    /// The one way back after a failure: run after a crash, and after a
    /// power cut once the WAL is reloaded. The sequencer forgets what is
    /// volatile ([`Sequencer::forget`]) — in-flight proposals and finals,
    /// which client retries re-learn, and a pre-crash leader's
    /// bookkeeping, which a takeover may have superseded — keeping only
    /// what was delivered. For the same reason our own log tail beyond `applied_seq` is
    /// suspect: a replica with peers leads nothing and applies none of it
    /// until a fresh heartbeat reveals the current regime
    /// (`follower_apply_log` then requires entries stamped by it or a newer
    /// one), while a single-replica group's log is the whole committed log,
    /// so it leads at once. The timeout window starts afresh: a heartbeat
    /// gap that is our own fault starts no election.
    /// Every lane is lost: writes posted while we were out were dropped,
    /// or our rings were wiped. So is every control lane we write: stamps
    /// claimed while we were down never landed (a crash), or our counters
    /// restarted at 1 (a power cut), while each peer's cursor waits right
    /// above what did land, so the first post resumes there.
    fn rejoin(&mut self) {
        self.seq.forget(&self.delivered);
        let alone = self.n() == 1;
        (self.is_leader, self.await_epoch) = (alone, !alone);
        self.last_hb_change = sim::now();
        self.last_hb_val = self.heartbeat();
        self.lanes.iter_mut().for_each(|lane| lane.lost = true);
        self.ctrl_out.iter_mut().for_each(|lane| lane.lost = true);
        self.marks.mark_all();
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
    fn reload(&mut self) {
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
            self.delivered.insert(uid);
        }
        // A truncated prefix still bounds the clock and the epoch: a WAL
        // emptied by truncation must not restart either from zero.
        let mut end = floor.seq;
        let mut max_clock = Timestamp::from_raw(floor.ts_bound).clock();
        self.epoch = floor.epoch;
        for f in &frames {
            self.delivered.insert(f.uid);
            end = end.max(f.seq + 1);
            max_clock = max_clock.max(Timestamp::from_raw(f.ts_raw).clock());
            self.epoch = self.epoch.max(f.epoch);
        }
        self.election_target = self.epoch;
        (self.applied_seq, self.next_seq, self.log_floor) = (end, end, floor.seq);
        self.seq.resume(max_clock);
        // Rebuild the ring tail so takeovers and retransmissions can read
        // our log again. Only the last window's worth fits; anything older
        // is served from checkpoints at the application layer.
        let window_start = end.saturating_sub(self.inner.sizes.log_slots as u64);
        for f in frames.iter().filter(|f| f.seq >= window_start) {
            let buf = encode_log(f.seq, f.uid, f.mask, f.ts_raw, f.epoch, &f.payload);
            self.place(&self.log, f.seq + 1, &buf, None);
        }
        let _ = self.node.local_write_word(self.layout.log_seq, end);
        // Post our reloaded position into every live peer's ack array so a
        // surviving leader's retransmission path sees where we really are
        // (the ack word otherwise only advances on apply progress).
        for (_, target) in self.peers(self.group) {
            if self.peer_node(target).is_alive() {
                self.post_ack(target);
            }
        }
    }

    /// Posts our log position into our slot of `target`'s ack array.
    fn post_ack(&self, target: usize) {
        let slot = self
            .inner
            .sizes
            .ack_slot(self.inner.layouts[target], self.idx);
        let _ = self.qp(target).post_write_word(slot, self.applied_seq);
    }

    /// Consumes every ready entry, lane by lane. One borrow walks the
    /// marked lanes up to the next ready entry and copies it out; handling
    /// it sleeps, so the view is dropped first and the walk resumes at the
    /// same lane with a fresh one — every lane is read at the instant a
    /// borrow per lane would read it, and an unmarked lane holds what it
    /// held when it was last read idle. A lane read idle is unmarked.
    fn scan_lanes(&mut self) {
        let clients = self.inner.sizes.max_clients;
        let mut i = 0;
        while let Some((kind, uid, a, b, payload)) = self.node.with_mem(|m| {
            while let Some(lane) = self.marks.next(i) {
                i = lane;
                let Some((slot, hdr)) = self.lanes[i].take(m) else {
                    self.marks.clear(i);
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
                let at = self.lanes[i].payload_at(stamp_of(hdr), slot, len);
                let payload = m.bytes(at, len).expect("entry payload in range").to_vec();
                return Some((kind, uid, a, b, payload));
            }
            None
        }) {
            match kind {
                CtrlKind::Proposal => {
                    let ts = self.seq.on_proposal(uid, a as u16, b, self.is_leader);
                    trace_final(uid, ts);
                }
                CtrlKind::Final => trace_final(uid, self.seq.on_final(uid, b, self.is_leader)),
                // A client's submission reads as a forward to ourselves. A
                // non-leader drops a peer's forward; the client's retry
                // will find the real leader.
                CtrlKind::FwdSub => {
                    if i < clients || self.is_leader {
                        self.handle_submission(uid, a, payload);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Skeen ordering (leader): the I/O around the sequencer's rules.
    // ------------------------------------------------------------------

    fn handle_submission(&mut self, uid: u32, mask: DestMask, payload: Vec<u8>) {
        if self.seq.is_done(uid) {
            return; // duplicate of an already-sequenced message
        }
        if !self.is_leader {
            // Forward to the current leader of our group — unless our epoch
            // names us, as a rejoining replica's stale one may: nobody
            // reads our own lane, and the client's retry finds the leader.
            let leader = leader_for_epoch(self.epoch, self.n());
            if leader != self.idx {
                let target = self.inner.global_idx(self.group, leader);
                self.forward(target, uid, mask, payload);
            }
            return;
        }
        sim::trace::instant("mcast.ingest", u64::from(uid));
        self.charge_ordering();
        let (propose, ts) = self.seq.on_submission(uid, mask, payload);
        if let Some(prop) = propose {
            self.broadcast_proposal(uid, mask, prop);
        }
        trace_final(uid, ts);
    }

    /// Charges leader CPU for ordering one message: the first message of
    /// each group-commit window of `max_batch` pays the full
    /// [`ORDERING_CPU`], the following ones only the marginal
    /// [`ORDERING_CPU_BATCHED`]. A window of one resets on every message, so
    /// every message pays the full cost.
    fn charge_ordering(&mut self) {
        if self.ordering_window == 0 {
            sim::sleep(ORDERING_CPU);
        } else {
            sim::sleep(ORDERING_CPU_BATCHED);
        }
        self.ordering_window += 1;
        if self.ordering_window >= self.inner.cfg.max_batch {
            self.ordering_window = 0;
        }
    }

    /// Sends our clock proposal to every replica of every destination group
    /// (own followers included, so a successor leader can adopt it).
    fn broadcast_proposal(&mut self, uid: u32, mask: DestMask, prop: u64) {
        let from = u64::from(self.group.0);
        for g in mask_groups(mask) {
            for (_, target) in self.peers(g) {
                let (slot, buf) = self.ctrl_entry(target, CtrlKind::Proposal, uid, from, prop);
                let _ = self.qp(target).post_write(slot, buf);
            }
        }
    }

    /// Sequences every message the sequencer releases, round by round.
    ///
    /// Group commit is the size of a round: ready messages are drained in
    /// rounds of up to `max_batch`; a round's finals go out behind one
    /// doorbell per destination replica and its log entries behind one
    /// doorbell per follower, with one `log_seq` publication. Messages are
    /// popped in the same order whatever the size, so delivery order and
    /// timestamps do not depend on it — only the verb count and leader CPU
    /// do. A round of one is a write per doorbell.
    fn leader_sequence_ready(&mut self) {
        loop {
            let round = self.seq.round(self.inner.cfg.max_batch);
            if round.is_empty() {
                return;
            }
            // Announce the final timestamps to all destination replicas:
            // redundant in steady state (each leader computes the same max)
            // but lets successor leaders adopt in-flight decisions. One
            // doorbell per replica, smallest group first, then by replica
            // index; a replica's entries in round order.
            let from = u64::from(self.group.0);
            for g in mask_groups(round.iter().fold(0, |mask, r| mask | r.mask)) {
                for (_, target) in self.peers(g) {
                    let mut batch = self.qp(target).write_batch();
                    for r in round.iter().filter(|r| r.mask & (1 << g.0) != 0) {
                        let (kind, clock) = (CtrlKind::Final, r.announced);
                        let (slot, buf) = self.ctrl_entry(target, kind, r.uid, from, clock);
                        batch.push(slot, buf);
                    }
                    let _ = batch.post();
                }
            }
            // Log append: write every entry locally, publish log_seq once
            // for the whole round, then one doorbell per follower carrying
            // all of the round's entries.
            let mut entries: Vec<(u64, Vec<u8>)> = Vec::with_capacity(round.len());
            for r in round {
                let seq = self.next_seq;
                self.next_seq += 1;
                sim::trace::instant_args("mcast.sequenced", u64::from(r.uid), &[("seq", seq)]);
                let entry = encode_log(seq, r.uid, r.mask, r.ts_raw, self.epoch, &r.payload);
                self.place(&self.log, seq + 1, &entry, None);
                entries.push((seq, entry));
            }
            self.node
                .local_write_word(self.layout.log_seq, self.next_seq)
                .expect("own log_seq word");
            for (_, target) in self.peers(self.group) {
                let peer_log = self.inner.sizes.log_end(self.inner.layouts[target]);
                let mut batch = self.qp(target).write_batch();
                for (seq, entry) in &entries {
                    self.place(&peer_log, seq + 1, entry, Some(&mut batch));
                }
                let _ = batch.post();
            }
        }
    }

    /// Delivers log entries once a majority of the group stores them.
    fn leader_commit_deliver(&mut self) {
        let mut stored: Vec<u64> = Vec::with_capacity(self.n());
        stored.push(self.next_seq);
        for (i, _) in self.peers(self.group) {
            let ack = self.inner.sizes.ack_slot(self.layout, i);
            self.acks_cache[i] = self.node.local_read_word(ack).unwrap_or(0);
            stored.push(self.acks_cache[i]);
        }
        stored.sort_unstable_by(|a, b| b.cmp(a));
        self.apply_own_log(stored[self.majority() - 1]);
    }

    /// Delivers our own log's entries in order up to `to`. A slot that
    /// does not hold its entry (`read_own_log` checks the stamp) ends the
    /// walk there: then it returns `false`.
    fn apply_own_log(&mut self, to: u64) -> bool {
        while self.applied_seq < to {
            let Some(entry) = self.read_own_log(self.applied_seq) else {
                return false;
            };
            self.applied_seq += 1;
            self.deliver(entry);
        }
        true
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

    fn deliver(&mut self, entry: crate::layout::LogEntry) {
        if !self.delivered.insert(entry.uid) {
            return; // integrity: never deliver the same message twice
        }
        self.seq.delivered(entry.uid, entry.ts_raw);
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
                    self.epoch,
                    &entry.payload,
                ),
            );
        }
        self.upcall(DeliveryEvent::Deliver(Delivered {
            id: MsgId(entry.uid),
            ts: Timestamp::from_raw(entry.ts_raw),
            dests: entry.mask,
            payload: Bytes::from(entry.payload),
        }));
    }

    /// Hands `event` to our delivery stream. A dead consumer (its process
    /// was killed) cannot take it; dropping the event mirrors losing an
    /// upcall to a crashed replica.
    fn upcall(&self, event: DeliveryEvent) {
        let _ = self.inner.deliveries[self.group.0 as usize][self.idx].send(event);
    }

    /// Returns `true` if a heartbeat round was sent.
    fn maybe_heartbeat(&mut self) -> bool {
        let now = sim::now();
        if now < self.last_hb_sent + HEARTBEAT_INTERVAL && self.hb_counter > 0 {
            return false;
        }
        self.hb_counter += 1;
        self.last_hb_sent = now;
        let value = (self.epoch << 32) | (self.hb_counter & 0xFFFF_FFFF);
        for (_, target) in self.peers(self.group) {
            let hb = self.inner.layouts[target].heartbeat;
            let _ = self.qp(target).post_write_word(hb, value);
        }
        true
    }

    /// Re-sends log entries to followers whose acks are behind — the
    /// catch-up path for followers that missed unsignaled writes while
    /// crashed. Bounded per round; paced by the heartbeat cadence.
    fn leader_retransmit(&self) {
        const BATCH: u64 = 64;
        for (i, target) in self.peers(self.group) {
            let behind = self.acks_cache[i];
            if behind >= self.next_seq || !self.peer_node(target).is_alive() {
                continue;
            }
            // Entries older than the log window are gone; the follower
            // will observe a gap. Entries below our reload floor were
            // truncated behind a checkpoint and are not in the rebuilt
            // ring at all.
            let window_lo = self
                .next_seq
                .saturating_sub(self.inner.sizes.log_slots as u64 / 2);
            let from = behind.max(window_lo).max(self.log_floor);
            let to = self.next_seq.min(from + BATCH);
            // Group commit ships a round behind one doorbell; without it
            // every entry rings its own.
            let writes_per_doorbell = if self.inner.cfg.max_batch > 1 {
                BATCH
            } else {
                1
            };
            // A follower behind our truncation horizon never sees a lap gap
            // in its wiped ring: it needs the floor advertised.
            let advertise_floor = self.log_floor > behind;
            self.ship_log(
                target,
                from..to,
                self.epoch,
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
                let Some(e) = self.read_own_log(seq) else {
                    // Our ring does not hold the entry: ship what we read,
                    // no more.
                    let _ = batch.post();
                    return;
                };
                let buf = encode_log(seq, e.uid, e.mask, e.ts_raw, epoch, &e.payload);
                self.place(&peer_log, seq + 1, &buf, Some(&mut batch));
            }
            let _ = batch.post();
        }
    }

    // ------------------------------------------------------------------
    // Follower side.
    // ------------------------------------------------------------------

    /// Consumes what [`Self::floor_ahead`] and [`Self::log_head`] offer —
    /// the two questions the wake predicate asks of the log.
    fn follower_apply_log(&mut self) {
        // Surface the gap below an advertised floor (the application
        // recovers from a checkpoint) and resume from the floor. Asked once
        // a pump, before the entries.
        if let Some(floor) = self.node.with_mem(|m| self.floor_ahead(m, true)) {
            self.upcall(DeliveryEvent::Gap {
                from: self.applied_seq,
                to: floor - 1,
            });
            self.applied_seq = floor;
            self.log_floor = self.log_floor.max(floor);
        }
        let mut progressed = false;
        while let Some(stamp) = self.node.with_mem(|m| self.log_head(m)) {
            let seq = self.applied_seq;
            if stamp > seq + 1 {
                // The leader lapped us: entries were overwritten before we
                // applied them. Surface the gap; the application recovers
                // out of band (Heron: state transfer).
                self.upcall(DeliveryEvent::Gap {
                    from: seq,
                    to: stamp - 2, // the slot now holds seq stamp-1
                });
                self.applied_seq = stamp - 1;
                continue;
            }
            // Copied at the instant the header was read, before the CPU
            // charge: a power cut during it zeroes the slot, and the entry
            // delivered (and appended to the WAL) is the one stamp-checked.
            let entry = self.read_own_log(seq).expect("log_head read its stamp");
            sim::sleep(FOLLOWER_CPU);
            self.applied_seq += 1;
            progressed = true;
            self.deliver(entry);
        }
        if progressed {
            self.node
                .local_write_word(self.layout.log_seq, self.applied_seq)
                .expect("own log_seq word");
            let leader = leader_for_epoch(self.epoch, self.n());
            self.post_ack(self.inner.global_idx(self.group, leader));
        }
    }

    fn follower_check_leader(&mut self) {
        let hb = self.heartbeat();
        let now = sim::now();
        if hb != self.last_hb_val {
            (self.last_hb_val, self.last_hb_change) = (hb, now);
            let seen_epoch = hb >> 32;
            if self.await_epoch {
                // First heartbeat since we recovered: only a live leader
                // heartbeats, so its epoch is the current regime. Entries
                // written by older regimes (our suspect tail) stay refused.
                self.await_epoch = false;
                self.entry_epoch_floor = self.entry_epoch_floor.max(seen_epoch);
            }
            if seen_epoch > self.epoch {
                self.adopt_epoch(seen_epoch);
            }
            return;
        }
        if self.n() == 1 {
            return;
        }
        if now
            .checked_sub(self.last_hb_change)
            .map(|d| d >= LEADER_TIMEOUT)
            != Some(true)
        {
            return;
        }
        // Heartbeat silence: advance the election target.
        let target = self.epoch.max(self.election_target) + 1;
        self.election_target = target;
        self.last_hb_change = now; // restart the timeout window
        if leader_for_epoch(target, self.n()) == self.idx {
            self.try_takeover(target);
        }
    }

    /// Epoch takeover: adopt the longest majority log, backfill peers, and
    /// become leader.
    fn try_takeover(&mut self, target: u64) {
        // 1. Read peers' log positions.
        let mut alive = 1usize;
        let mut longest: (u64, Option<usize>) = (self.applied_seq, None);
        // In replica-index order: step 4 posts its backfill writes in this
        // order, and the order of posts is part of the schedule.
        let mut peer_seq: Vec<(usize, u64)> = Vec::new();
        for (_, global) in self.peers(self.group) {
            let peer_layout = self.inner.layouts[global];
            let qp = self.qp(global);
            if let Ok(seq) = qp.read_word(peer_layout.log_seq) {
                // An alive peer whose boot generation lags its power-cycle
                // count is back up but has not reloaded its WAL into the
                // ring yet: its log_seq word still reads as wiped. Electing
                // now could adopt a log shorter than its durable one and
                // re-sequence entries it will later replay — wait instead.
                let gen = qp.read_word(peer_layout.boot_gen).unwrap_or(0);
                if gen != self.peer_node(global).power_cycles() {
                    return; // recovering peer not ready; retry next timeout
                }
                alive += 1;
                peer_seq.push((global, seq));
                if seq > longest.0 {
                    longest = (seq, Some(global));
                }
            }
        }
        if alive < self.majority() {
            return; // cannot take over without a majority; retry later
        }
        // 2. Fetch entries we are missing from the longest log.
        if let Some(holder) = longest.1 {
            let holder_log = self.inner.sizes.log_end(self.inner.layouts[holder]);
            let qp = self.qp(holder);
            for seq in self.applied_seq..longest.0 {
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
                self.place(&self.log, stamp, &entry, None);
            }
        }
        // 3. Apply everything we now hold (delivers locally, in order); a
        // slot that lost its entry ends the attempt: retry next timeout.
        let adopt_to = longest.0;
        if !self.apply_own_log(adopt_to) {
            return;
        }
        self.node
            .local_write_word(self.layout.log_seq, self.applied_seq)
            .expect("own log_seq word");
        // 4. Backfill shorter peers so the group converges.
        for &(global, seq) in &peer_seq {
            if seq >= adopt_to {
                continue;
            }
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
            self.ship_log(global, from..adopt_to, target, 1, from > seq);
        }
        // 5. Assume leadership. We adopted a majority log, so any suspect
        // recovered tail was superseded; our own appends carry `target`.
        self.await_epoch = false;
        self.entry_epoch_floor = self.entry_epoch_floor.max(target);
        self.adopt_epoch(target);
        self.next_seq = adopt_to;
        self.seq.take_over();
        for i in 0..self.n() {
            let ack = self.inner.sizes.ack_slot(self.layout, i);
            let _ = self.node.local_write_word(ack, 0);
        }
        self.acks_cache = vec![0; self.n()];
        self.hb_counter = 0;
        self.maybe_heartbeat();
    }

    // ------------------------------------------------------------------
    // Writers.
    // ------------------------------------------------------------------

    /// Puts the encoded `entry` stamped `stamp` in place in `lane`
    /// ([`Lane::writes`]): queued on `batch`, for the node that batch posts
    /// to, or written into our own memory.
    fn place(&self, lane: &Lane, stamp: u64, entry: &[u8], batch: Option<&mut WriteBatch>) {
        let writes = lane.writes(stamp, entry);
        match batch {
            Some(batch) => writes.for_each(|(addr, bytes)| batch.push(addr, bytes.to_vec())),
            None => writes.for_each(|(addr, bytes)| {
                self.node
                    .local_write(addr, bytes)
                    .expect("own ring slot in range");
            }),
        }
    }

    /// Forwards a submission to our control lane on `target`: the header
    /// in the lane, the payload in the same stamp's slot of our forward
    /// ring there, both behind one doorbell, so they land at one instant.
    fn forward(&mut self, target: usize, uid: u32, mask: DestMask, payload: Vec<u8>) {
        let (stamp, _) = self.ctrl_out(target).claim();
        let entry = encode_ctrl(stamp, CtrlKind::FwdSub, uid, mask, 0, &payload);
        let mut batch = self.qp(target).write_batch();
        self.place(&self.ctrl_out[target], stamp, &entry, Some(&mut batch));
        let _ = batch.post();
    }

    /// Takes the next stamp of our control lane on `target` and encodes the
    /// header-only entry for it: the slot and its bytes, for the caller to
    /// post alone or queue behind a doorbell with others. Stamps are
    /// consumed in call order, so consecutive entries land in consecutive
    /// ring slots however they are posted.
    fn ctrl_entry(
        &mut self,
        target: usize,
        kind: CtrlKind,
        uid: u32,
        a: DestMask,
        b: u64,
    ) -> (Addr, Vec<u8>) {
        let (stamp, slot) = self.ctrl_out(target).claim();
        (slot, encode_ctrl(stamp, kind, uid, a, b, &[]))
    }

    /// Our control lane on `target`, ready to claim a stamp. A writer that
    /// rejoined lost its place: a crash dropped the stamps it claimed while
    /// down, a power cut restarted its counter, and the peer's cursor
    /// waits right above the stamps that landed: at the first post to it,
    /// one RDMA read of the lane there says where to resume
    /// ([`Lane::resume`]). A peer that does not answer leaves the lane
    /// lost; a post to it is dropped anyway.
    fn ctrl_out(&mut self, target: usize) -> &mut Lane {
        let lane = &mut self.ctrl_out[target];
        if lane.lost {
            if let Ok(ring) = self.qps[target].read(lane.ring.base, lane.ring.size()) {
                lane.resume(&ring);
            }
        }
        lane
    }
}

/// Timestamp agreement reached, when `ts` is some: every destination group
/// proposed and `uid`'s final timestamp (max of proposals) is now fixed.
fn trace_final(uid: u32, ts: Option<Timestamp>) {
    if let Some(ts) = ts {
        sim::trace::instant_args("mcast.final", u64::from(uid), &[("ts", ts.raw())]);
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
    fn has_work_word_by_word(r: &McastReplica) -> bool {
        let sizes = &r.inner.sizes;
        let word = |addr| r.node.local_read_word(addr).unwrap_or(0);
        // The slot under a lane's cursor holds that stamp or a later one —
        // any slot, if the lane is lost.
        let lane_hit = r.lanes.iter().any(|l| {
            let mut slots = if l.lost {
                1..=l.ring.slots as u64
            } else {
                l.next..=l.next
            };
            slots.any(|s| word(l.ring.slot(s)) >= l.next)
        });
        let role = if r.is_leader {
            (0..r.n())
                .filter(|&i| i != r.idx)
                .any(|i| word(sizes.ack_slot(r.layout, i)) != r.acks_cache[i])
        } else {
            let entry = r.log.ring.slot(r.applied_seq + 1);
            let epoch = entry.offset(4 * crate::layout::WORD as u64);
            (!r.await_epoch && word(entry) > r.applied_seq && word(epoch) >= r.entry_epoch_floor)
                || ((!r.await_epoch || r.ungated_has_work)
                    && word(r.layout.log_floor) > r.applied_seq)
                || word(r.layout.heartbeat) != r.last_hb_val
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
    /// deployment, freshly booted.
    fn with_replica<T: 'static>(
        sabotaged: bool,
        idx: usize,
        body: impl FnOnce(&mut McastReplica) -> T + 'static,
    ) -> T {
        in_small_cluster(sabotaged, move |mcast| {
            body(&mut mcast.replica(GroupId(1), idx))
        })
    }

    /// Pumps while the predicate asks for it; whether it stopped asking.
    /// Nobody else writes this node's memory, so a predicate still true
    /// after more pumps than a lane has slots counts something the
    /// consumer refuses: the process would spin without ever blocking.
    fn drains(r: &mut McastReplica) -> bool {
        for _ in 0..8 {
            if !r.has_work() {
                return true;
            }
            r.do_work();
        }
        false
    }

    /// One randomised replica: cursors, lost lanes and gates, a
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
        with_replica(sabotaged, idx, move |r| {
            for (lane, (cursor, lost)) in r.lanes.iter_mut().zip(cursors) {
                (lane.next, lane.lost) = (cursor, lost);
            }
            (r.is_leader, r.await_epoch) = (gates[0], gates[1]);
            (r.applied_seq, r.entry_epoch_floor, r.last_hb_val) =
                (scalars[0], scalars[1], scalars[2]);
            r.acks_cache = vec![scalars[3], scalars[4], scalars[3]];
            // Memory starts out agreeing with the cached words …
            let sizes = r.inner.sizes;
            let put = |addr, value| r.node.local_write_word(addr, value).unwrap();
            put(r.layout.heartbeat, r.last_hb_val);
            for (i, ack) in r.acks_cache.iter().enumerate() {
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
                        let seq = r.applied_seq + lane as u64;
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
            r.has_work();
            let kept: Vec<usize> = r.marks.marked().collect();
            late.iter().for_each(land);
            let relanded = r.marks.marked().any(|lane| !kept.contains(&lane));
            let answers = (r.has_work(), has_work_word_by_word(r));
            let pumped = !(r.is_leader || sabotaged);
            (answers.0, answers.1, relanded, pumped.then(|| drains(r)))
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
            let drained = with_replica(sabotaged, 1, |r| {
                r.await_epoch = true;
                let floor = r.applied_seq + 3;
                r.node.local_write_word(r.layout.log_floor, floor).unwrap();
                drains(r)
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
        let (before, after) = with_replica(false, 1, |r| {
            let lane = r.lanes[0];
            r.lanes[0].next = 4;
            for stamp in [5, 6] {
                let entry = encode_sub(stamp, stamp as u32, 0b10, &[]);
                r.node.local_write(lane.ring.slot(stamp), &entry).unwrap();
            }
            let before = r.has_work();
            assert_eq!(r.marks.next(0), None, "every lane read idle");
            r.rejoin();
            assert!(r.lanes.iter().all(|lane| lane.lost));
            (before, r.has_work())
        });
        assert_eq!((before, after), (false, true));
    }

    /// The writer posted 4 and 5 while we were down, and both were dropped;
    /// after the rejoin, 6 lands in a slot the cursor at 4 is not looking
    /// at. The lost lane reads it at once, not when the writer laps the
    /// ring.
    #[test]
    fn a_rejoined_lane_reads_past_a_hole_left_while_it_was_down() {
        let (ready, next) = with_replica(false, 1, |r| {
            r.lanes[0].next = 4;
            r.rejoin();
            let entry = encode_sub(6, 6, 0b10, &[]);
            r.node.local_write(r.lanes[0].ring.slot(6), &entry).unwrap();
            let ready = r.has_work();
            r.scan_lanes();
            (ready, r.lanes[0].next)
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
                    let mut r = mcast.replica(GroupId(1), idx);
                    r.rejoin();
                    assert!(!r.is_leader && leader_for_epoch(r.epoch, r.n()) == 0);
                    let before = writes();
                    r.handle_submission(9, 0b10, payload_of(9));
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
            let (mut writer, mut leader) =
                (mcast.replica(GroupId(1), 1), mcast.replica(GroupId(1), 0));
            let target = leader.my_global;
            let mut read = || {
                sim::sleep(Duration::from_micros(20));
                leader.scan_lanes();
            };
            for (i, &uid) in uids.iter().enumerate() {
                writer.forward(target, uid, 0b10, payload_of(uid));
                if reads.contains(&i) {
                    read();
                }
            }
            read();
            let pending = leader.seq.pending().into_iter();
            pending
                .map(|(uid, p)| (uid, p.expect("a forward carries its payload")))
                .collect()
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
            let mut leader = mcast.replica(GroupId(1), 0);
            let target = leader.my_global;
            let mut send = |writer: &mut McastReplica, uids: std::ops::Range<u32>| {
                for uid in uids {
                    writer.forward(target, uid, 0b10, payload_of(uid));
                    sim::sleep(Duration::from_micros(20));
                    leader.scan_lanes();
                }
            };
            let mut writer = mcast.replica(GroupId(1), 1);
            send(&mut writer, 1..6);
            let (fabric, id) = (mcast.fabric(), writer.node.id());
            fabric.power_loss(id);
            fabric.recover(id);
            send(&mut mcast.replica(GroupId(1), 1), 6..13);
            let pending = leader.seq.pending().into_iter();
            pending.map(|(uid, _)| uid).collect::<Vec<u32>>()
        });
        assert_eq!(taken, (1..13).collect::<Vec<u32>>());
    }

    /// Five forwards reach the leader; then the writer's node crashes, and
    /// the two forwards it tries while down claim stamps 6 and 7 and are
    /// dropped. After the rejoin the writer resumes right above stamp 5,
    /// where the leader's cursor waits, so the leader takes every forward
    /// after the crash: stamps kept at 8 would leave a hole the cursor
    /// waits at until the writer laps the lane.
    #[test]
    fn a_writer_back_from_a_crash_resumes_above_the_stamps_that_landed() {
        let taken = in_small_cluster(false, |mcast| {
            let (mut writer, mut leader) =
                (mcast.replica(GroupId(1), 1), mcast.replica(GroupId(1), 0));
            let target = leader.my_global;
            let mut send = |writer: &mut McastReplica, uids: std::ops::Range<u32>| {
                for uid in uids {
                    writer.forward(target, uid, 0b10, payload_of(uid));
                    sim::sleep(Duration::from_micros(20));
                    leader.scan_lanes();
                }
            };
            send(&mut writer, 1..6);
            let (fabric, id) = (mcast.fabric(), writer.node.id());
            fabric.crash(id);
            send(&mut writer, 6..8);
            fabric.recover(id);
            writer.rejoin();
            send(&mut writer, 8..13);
            let pending = leader.seq.pending().into_iter();
            pending.map(|(uid, _)| uid).collect::<Vec<u32>>()
        });
        assert_eq!(taken, [1, 2, 3, 4, 5, 8, 9, 10, 11, 12]);
    }

    /// Group 1's leader hears group 0's final for uid 1 (clock 5) before
    /// uid 1 itself, as a new leader does when its predecessor crashed
    /// holding the submission. Uid 2, for group 1 alone, finalizes at 6
    /// meanwhile, and waits: when uid 1's retry lands, the log holds 1
    /// then 2, the order group 0 delivers them in. Sequencing 2 first
    /// would order the pair one way in each group.
    #[test]
    fn a_decision_without_its_payload_holds_its_place() {
        let order = with_replica(false, 0, |r| {
            r.seq.on_final(1, 5, r.is_leader);
            r.handle_submission(2, 0b10, payload_of(2));
            r.leader_sequence_ready();
            let waited = r.next_seq;
            r.handle_submission(1, 0b11, payload_of(1));
            r.leader_sequence_ready();
            let logged: Vec<u32> = (0..r.next_seq)
                .map(|seq| r.read_own_log(seq).expect("sequenced").uid)
                .collect();
            (waited, logged)
        });
        assert_eq!(order, (0, vec![1, 2]));
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
            let (mut writer, leader) = (mcast.replica(GroupId(1), 1), mcast.replica(GroupId(1), 0));
            let end = writer.ctrl_out[leader.my_global];
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
            writer.forward(leader.my_global, 7, 0b10, payload);
            let counts: Vec<u64> = count().iter().zip(before).map(|(a, b)| a - b).collect();
            sim::sleep(Duration::from_micros(20));
            (counts, landed.get())
        });
        assert_eq!(counts, [1, 2, (CTRL_HDR + payload_of(7).len()) as u64]);
        assert_eq!(landed, Some((true, true)));
    }
}
