//! The request-execution engine and the replica's delivery driver.
//!
//! [`ExecCore`] holds the per-command execution path of Algorithms 1 and 2
//! (Phase 2/4 barriers, the reading phase with dual-version remote reads,
//! compute + writing phase, and the client reply), bound to one
//! coordination *lane* (a private `(ts, phase)` entry per writer replica,
//! see [`crate::layout::ReplicaLayout::coord_slot`]).
//!
//! Each replica has exactly one [`Driver`] process — Algorithm 1's
//! delivery loop — split in two. Its [`Books`] are the core: one value
//! holding the queue, the in-flight lanes, the `done` map behind the
//! `completed_req` watermark, `last_req`, `last_replied`, the Gap hold,
//! the responder rotation and a cold restart's replay tail, with the rules
//! over them and nothing else (no memory, verb, mailbox or clock). The
//! driver is the shell: it receives deliveries and worker events, reads
//! the statesync entries and the clock, feeds them to the books and acts
//! on what they return — dispatch a job to a lane or skip it, post a
//! reply, run a transfer for the stalls and hand out the verdicts, serve a
//! request — and it writes the books' watermarks to the replica's shared
//! words, which the checkpointer waits on, in one place (`mirror`).
//!
//! The books keep the four rules P-SMR's pool needs (Marandi et al.,
//! "Rethinking State-Machine Replication for Parallelism"; DESIGN.md §13):
//! a job goes when its conflict keys ([`crate::StateMachine::conflict_keys`],
//! held exclusive, and [`crate::StateMachine::shared_keys`], held shared)
//! conflict with no in-flight and no earlier queued job's, and a
//! multi-partition job never overtakes an earlier queued one; `done` gets
//! its entry at admission; a responder serves only at an exact boundary;
//! and an install never replaces a newer slot (the store's rule,
//! [`crate::store::VersionedStore::apply_raw_slot`]). So a conflicting
//! predecessor always *finishes* on this replica before its successor
//! starts anywhere on it — which is what makes the relaxed barrier reads
//! in [`coord_quorum`] safe.
//!
//! What varies with [`crate::HeronConfig::executor_width`] is only where a
//! command runs once the books dispatch it:
//!
//! * **width 1 — the inline lane.** There are no worker processes: the
//!   driver runs [`ExecCore::run_command`] itself on lane 0, which is in
//!   flight while it runs — a pool of one lane, whose stall is a park the
//!   driver resolves on the spot. One process per replica, commands
//!   strictly in delivery order — the paper's executor.
//! * **width N > 1 — the pool.** The driver hands the job to a free
//!   [`Worker`], which reports completion (and the client reply) back.
//!
//! Either way a command runs one way ([`ExecCore::run_command`]: one
//! reading phase → compute → writing phase, in Phase 2/4 barriers when it
//! is multi-partition) and finishes one way ([`Driver::finish`]: reply,
//! lane freed, watermark).
//!
//! Workers never run the state-transfer protocol themselves: when one
//! starves on a Phase-2 barrier or observes it is lagging (Algorithm 2,
//! lines 23–25), it **parks**; dispatch pauses, and once every in-flight
//! command parked the driver runs the requester side of Algorithm 3 and
//! tells each parked lane whether the adopted snapshot covered its command
//! (abandon, the client will retry) or not (retry in place). A Gap's
//! held-back delivery is resolved the same way, as a stall that never
//! heals. `completed_req` is a prefix watermark: the largest timestamp
//! such that every admitted command up to it has finished its write phase.

use crate::app::{LocalReader, ReadSet};
use crate::books::{Books, Dispatch, Keys, Mirror, Stall, StallOutcome};
use crate::cluster::ReplicaShared;
use crate::layout::{decode_envelope, encode_coord, encode_response, resp_slot, COORD_ENTRY};
use crate::metrics::{Breakdown, Metrics};
use crate::replica::{
    coord_matching, coord_quorum, pending_sync_requests, publish_progress, respond_transfer,
    state_transfer_abortable, sync_request, TRANSFER_INSTALL, TRANSFER_TIMEOUT,
};
use crate::types::{ObjectId, PartitionId, Placement};
use amcast::{mask_groups, Delivered, DeliveryEvent, Timestamp};
use bytes::Bytes;
use rand::Rng;
use sim::{Mailbox, SimTime};
use std::collections::hash_map::Entry;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// The executing replica has fallen behind the fast majority and cannot
/// read consistent remote values; it must state-transfer (Algorithm 2,
/// lines 23–25).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Lagging;

/// A finished command's client reply, on its way to [`Driver::finish`].
pub(crate) struct Reply {
    client_id: u64,
    seq: u64,
    response: Bytes,
}

/// The stage clock: the one measurement behind Fig. 6. Opening a stage
/// opens its span; [`Stage::close`] reads the clock once, ends the span at
/// that instant and returns the duration for the [`Breakdown`] row, so
/// counters and spans agree by construction. A stage dropped unclosed (a
/// transfer covered the command) ends its span and contributes no row.
struct Stage {
    t0: SimTime,
    span: sim::trace::SpanGuard,
}

impl Stage {
    fn open(name: &'static str, uid: u64) -> Stage {
        Stage {
            t0: sim::now(),
            span: sim::trace::span(name, uid),
        }
    }

    fn close(self) -> u64 {
        let now = sim::now();
        self.span.end_at(now.as_nanos());
        (now - self.t0).as_nanos() as u64
    }
}

/// The per-command execution path of Algorithms 1 and 2, bound to one
/// coordination lane of one replica.
pub(crate) struct ExecCore {
    pub(crate) shared: Rc<ReplicaShared>,
    /// Coordination lane this engine writes its `(ts, phase)` entries on:
    /// 0 for the driver's inline lane, the worker index in the pool.
    pub(crate) lane: usize,
    /// The running process's wait point, subscribed to
    /// [`ReplicaShared::exec_ranges`]: the replica's
    /// [`ReplicaShared::poller`] on the inline lane, the worker's own in
    /// the pool (a barrier entry wakes the workers waiting in a barrier,
    /// not the idle ones).
    pub(crate) poller: rdma_sim::Poller,
}

impl ExecCore {
    fn cfg(&self) -> &crate::HeronConfig {
        &self.shared.cluster.cfg
    }

    fn n(&self) -> usize {
        self.cfg().replicas_per_partition
    }

    /// Executes one delivered command end to end: decode, Algorithm 2
    /// ([`Self::execute`]) — inside the Phase 2 and Phase 4 barriers of
    /// Algorithm 1 when the command is multi-partition, bare otherwise
    /// (lines 5–7, classic SMR) — and the Breakdown sample. `recv_ns` is
    /// the virtual time the command was taken off the delivery stream
    /// (equals "now" on the inline lane; earlier than "now" by the queue
    /// wait in the pool — surfaced as the `execute.parallel` phase).
    /// `resolve` is asked what to do each time the command cannot make
    /// progress: the inline lane runs Algorithm 3 on the spot, a pool
    /// worker parks and lets the driver run it after quiescing the pool.
    ///
    /// Returns the client reply (line 17) for [`Driver::finish`] to post,
    /// with the command's still-open `exec.request` span — a reply posted
    /// by the process that ran the command nests under it —, or `None` if
    /// the command was abandoned because a state transfer covered it.
    pub(crate) fn run_command(
        &self,
        d: &Delivered,
        recv_ns: u64,
        resolve: &mut dyn FnMut(Timestamp, Stall) -> StallOutcome,
    ) -> Option<(Reply, sim::trace::SpanGuard)> {
        let shared = &self.shared;
        let ts = d.ts;
        let (client_id, seq, submit_ns, payload) = decode_envelope(&d.payload);
        let dests: Vec<PartitionId> = mask_groups(d.dests).map(PartitionId::from).collect();
        let ordering_ns = recv_ns.saturating_sub(submit_ns);
        let parallel_ns = sim::now().as_nanos().saturating_sub(recv_ns);
        // Whole-request span on this executor, correlated on the message
        // uid so one request stitches across partitions; the stages nest
        // under it. Ordering and the dispatch wait ride as args: neither
        // happens on this process (dispatch waits of concurrent commands
        // overlap across workers and would not nest as spans).
        let uid = u64::from(d.id.0);
        let request_span = sim::trace::span_args(
            "exec.request",
            uid,
            &[
                ("ts", ts.raw()),
                ("partition", u64::from(shared.partition.0)),
                ("partitions", dests.len() as u64),
                ("ordering_ns", ordering_ns),
                ("parallel_ns", parallel_ns),
            ],
        );
        let coordinated = dests.len() > 1;

        // Lines 8–10: Phase 2 — barrier on a majority of every involved
        // partition.
        let mut phase2 = coordinated.then(|| {
            let stage = Stage::open("exec.phase2", uid);
            self.write_coord(&dests, ts, 1);
            stage
        });
        let mut coordination_ns = 0;
        let mut executing = None;
        // The one stall-retry loop: the step the command is at — the
        // Phase-2 wait, then lines 11–13 — is retried after every stall
        // whose transfer did not cover the command.
        let response = loop {
            let stall = if phase2.is_some() && !self.wait_coord_timeout(&dests, ts, 1) {
                // The barrier starved: the peers' coordination writes were
                // lost while we were crashed (they ran this request long
                // ago). Recover through state transfer instead of waiting
                // forever.
                Stall::Phase2Starved {
                    dests: dests.clone(),
                }
            } else {
                if let Some(stage) = phase2.take() {
                    coordination_ns = stage.close();
                }
                executing.get_or_insert_with(|| Stage::open("exec.execute", uid));
                // If we have lagged behind the fast majority,
                // state-transfer; a transfer whose snapshot already
                // includes this request covers it (it will be skipped via
                // last_req), otherwise we caught up to a point *before*
                // this request and must still execute it.
                match self.execute(payload, ts, &dests) {
                    Ok(done) => break done,
                    Err(Lagging) => Stall::Lagging,
                }
            };
            if resolve(ts, stall) == StallOutcome::Covered {
                return None;
            }
        };
        let execution_ns = executing.expect("opened before executing").close();

        if coordinated {
            // Lines 14–16: Phase 4 — same barrier, with the optional
            // wait-for-all delay (paper §V-E1).
            let stage = Stage::open("exec.phase4", uid);
            // Protocol lint (regression guard): the Phase-4 entry — which
            // tells peers our writing phase is done — must never be posted
            // before the Phase-2 quorum was observed. Coordination entries
            // are monotone, so once the barrier above passed this stays
            // satisfied; a hit means a code change skipped or reordered
            // the Phase-2 wait.
            if let Some(det) = shared.cluster.detector.as_ref() {
                if !coord_quorum(shared, &dests, ts, 1).0 {
                    let coord_len = (self.cfg().partitions
                        * self.n()
                        * shared.layout.coord_width
                        * COORD_ENTRY) as u64;
                    det.report_lint(
                        "Phase-4 entry before Phase-2 quorum",
                        &shared.node,
                        "coord",
                        (shared.layout.coord.0, shared.layout.coord.0 + coord_len),
                        None,
                        format!(
                            "posting the Phase-4 entry for ts {} \
                             while the Phase-2 majority barrier is not satisfied",
                            ts.raw()
                        ),
                    );
                }
            }
            self.write_coord(&dests, ts, 2);
            self.wait_coord(&dests, ts, 2, self.cfg().wait_for_all);
            coordination_ns += stage.close();
        }

        sim::trace::instant("exec.reply", uid);
        shared.cluster.metrics.record_breakdown(Breakdown {
            ordering_ns,
            parallel_ns,
            coordination_ns,
            execution_ns,
            partitions: dests.len() as u16,
            at_partition: shared.partition.0,
        });
        let reply = Reply {
            client_id,
            seq,
            response,
        };
        Some((reply, request_span))
    }

    // ------------------------------------------------------------------
    // Algorithm 1: coordination.
    // ------------------------------------------------------------------

    /// Writes our coordination entry `(r.tmp, phase)` to every replica of
    /// every involved partition: smallest partition first, then by replica
    /// index — the order behind Table I's per-partition asymmetry. One
    /// unsignaled write, one doorbell, per remote replica.
    fn write_coord(&self, dests: &[PartitionId], ts: Timestamp, phase: u64) {
        let shared = &self.shared;
        let n = self.n();
        // All replica nodes share one allocation schedule, so our lane's
        // slot is at the same address on every replica.
        let (partition, idx) = (shared.partition.0 as usize, shared.idx);
        let slot = shared.layout.coord_slot(partition, idx, self.lane, n);
        let entry = encode_coord(ts.raw(), phase);
        let mut sorted = dests.to_vec();
        sorted.sort_unstable();
        for h in sorted {
            for q in 0..n {
                shared.write_to(h, q, slot, &entry);
            }
        }
    }

    /// Like [`ExecCore::wait_coord`] but gives up after
    /// [`TRANSFER_TIMEOUT`]; returns whether the majority barrier was
    /// reached.
    fn wait_coord_timeout(&self, dests: &[PartitionId], ts: Timestamp, phase: u64) -> bool {
        self.poller.poll_until_timeout(
            || coord_quorum(&self.shared, dests, ts, phase).0,
            TRANSFER_TIMEOUT,
        )
    }

    /// Blocks until a majority of every involved partition has coordinated
    /// (Algorithm 1, lines 10/16). With `delta` set, additionally waits up
    /// to δ for *all* replicas, recording Table I's delay statistics.
    fn wait_coord(
        &self,
        dests: &[PartitionId],
        ts: Timestamp,
        phase: u64,
        delta: Option<Duration>,
    ) {
        let shared = &self.shared;
        self.poller
            .poll_until(|| coord_quorum(shared, dests, ts, phase).0);
        if let Some(delta) = delta {
            let stats = &shared.cluster.metrics.delays[shared.partition.0 as usize];
            stats.total.fetch_add(1, Ordering::Relaxed);
            if coord_quorum(shared, dests, ts, phase).1 {
                return; // everyone already coordinated
            }
            stats.delayed.fetch_add(1, Ordering::Relaxed);
            let t0 = sim::now();
            self.poller
                .poll_until_timeout(|| coord_quorum(shared, dests, ts, phase).1, delta);
            let waited = (sim::now() - t0).as_nanos() as u64;
            stats.delay_sum_ns.fetch_add(waited, Ordering::Relaxed);
        }
    }

    // ------------------------------------------------------------------
    // Algorithm 2: execution.
    // ------------------------------------------------------------------

    /// Algorithm 2 for this replica's share of command `ts`: reading
    /// phase, compute, writing phase. Every involved partition executes the
    /// command and writes only its own objects (§III-A Phase 3); another
    /// partition's writes in the application's output are its to make.
    fn execute(
        &self,
        payload: &[u8],
        ts: Timestamp,
        dests: &[PartitionId],
    ) -> Result<Bytes, Lagging> {
        let shared = &self.shared;
        let app = &shared.cluster.app;
        let own = shared.partition;

        // The reading phase: local objects from our store, remote objects
        // via one-sided reads against replicas that coordinated in Phase 2.
        // Each run of local objects between two remote reads is one store
        // batch, read at the instant the first of them would have been.
        let mut reads = ReadSet::new();
        let read_set = app.read_set_at(own, payload);
        let mut run = Vec::with_capacity(read_set.len());
        for oid in read_set {
            if reads.get(oid).is_some() || run.contains(&oid) {
                continue; // read set lists it twice
            }
            match app.placement(oid) {
                Placement::Partition(h) if h != own => {
                    debug_assert!(
                        dests.contains(&h),
                        "read set touches partition {h} the request was not multicast to"
                    );
                    self.read_local(&mut run, &mut reads);
                    reads.insert(oid, self.remote_read_slot(oid, h, ts)?);
                }
                _ => run.push(oid),
            }
        }
        self.read_local(&mut run, &mut reads);

        // Compute, against the state before the command.
        let exec = app.execute(own, payload, &reads, &StoreReader { shared });
        if !exec.compute.is_zero() {
            sim::sleep(exec.compute);
        }

        // The writing phase: our own objects, as one store batch under the
        // dual-versioning rule.
        let mut own_writes = Vec::with_capacity(exec.writes.len());
        for (oid, value) in &exec.writes {
            match app.placement(*oid) {
                Placement::Replicated => {
                    panic!("application attempted to write replicated object {oid}")
                }
                Placement::Partition(h) if h == own => own_writes.push((*oid, &value[..])),
                Placement::Partition(_) => {}
            }
        }
        shared.store.set_many(&own_writes, ts);
        Ok(exec.response)
    }

    /// Reads `run` — replicated or own-partition objects — from our store
    /// as one batch into `reads`, and empties it.
    fn read_local(&self, run: &mut Vec<ObjectId>, reads: &mut ReadSet) {
        let hits = self.shared.store.get_many(run);
        for (oid, hit) in run.drain(..).zip(hits) {
            let (_, value) = hit.unwrap_or_else(|| panic!("local object {oid} missing"));
            reads.insert(oid, value);
        }
    }

    /// One remote read, with address discovery and failover (Algorithm 2,
    /// lines 8–27): the whole dual-version slot image is read, and its
    /// version old enough for `ts` returned (none: we are [`Lagging`]).
    fn remote_read_slot(
        &self,
        oid: ObjectId,
        h: PartitionId,
        ts: Timestamp,
    ) -> Result<Bytes, Lagging> {
        let shared = &self.shared;
        loop {
            // Refresh the set of consistent candidates: replicas of h whose
            // coordination entry matches r.tmp (they executed everything
            // before r and have not moved past it).
            let candidates: Vec<usize> = coord_matching(shared, h, ts)
                .into_iter()
                .filter(|&q| shared.peer(h, q).is_alive())
                .collect();
            if candidates.is_empty() {
                // Everyone readable has moved past r: we are the lagger.
                return Err(Lagging);
            }
            // Address discovery for candidates we don't know yet.
            let known: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&q| {
                    let node = shared.peer(h, q);
                    shared.object_map.lock().contains_key(&(oid, node.id()))
                })
                .collect();
            if known.is_empty() {
                self.query_addresses(oid, h);
                continue;
            }
            // Line 15: pick a random coordinated replica.
            let pick = known[sim::with_rng(|r| r.gen_range(0..known.len()))];
            let target = shared.peer(h, pick);
            let (addr, cap) = *shared
                .object_map
                .lock()
                .get(&(oid, target.id()))
                .expect("known candidate has a cached address");
            let slot = crate::store::Slot { addr, cap };
            let t_issue = sim::now().as_nanos();
            match shared.peer_qp(h, pick).read(addr, slot.size()) {
                Err(_) => {
                    // RDMA exception: the process failed; try another
                    // (lines 20–21). Drop the stale address mapping.
                    shared.object_map.lock().remove(&(oid, target.id()));
                    continue;
                }
                Ok(raw) => {
                    let Some((which, chosen_ts, value)) = slot.read_for(&raw, ts) else {
                        return Err(Lagging); // lines 23–25
                    };
                    self.audit_remote_slot_read(target, oid, slot, which, chosen_ts, ts, t_issue);
                    return Ok(Bytes::copy_from_slice(value));
                }
            }
        }
    }

    /// Protocol lint: adjudicates a completed remote slot read against the
    /// race detector's shadow state. The raw read of a dual-version slot
    /// is exempt from the generic check (it legitimately snapshots the
    /// version a concurrent writer is overwriting), so after decoding we
    /// check only the byte range of the version the reader actually
    /// *chose*: if its last writer has no happens-before edge to us, the
    /// dual-versioning discipline failed to protect this read.
    ///
    /// Two benign cases are filtered out:
    /// * writes that landed *after* we issued the read (`t_issue`) — the
    ///   in-flux window; our snapshot predates them and the shadow marks
    ///   surface them through the `influx_windows` statistic instead;
    /// * state-transfer installs, recognised by their op label
    ///   ([`TRANSFER_INSTALL`]): a lagger's driver rewrites whole slots
    ///   that a Phase-2-starved reader may still legitimately target; the
    ///   reader's snapshot of committed versions stays valid — see
    ///   DESIGN.md §10. Not the process name: at width 1 the installing
    ///   driver also executes commands, and those writes are checked.
    #[allow(clippy::too_many_arguments)]
    fn audit_remote_slot_read(
        &self,
        target: &rdma_sim::Node,
        oid: ObjectId,
        slot: crate::store::Slot,
        which: usize,
        chosen_ts: Timestamp,
        r_ts: Timestamp,
        t_issue: u64,
    ) {
        let Some(det) = self.shared.cluster.detector.as_ref() else {
            return;
        };
        let one = (crate::store::VERSION_HDR + slot.cap) as u64;
        let start = slot.addr.offset(which as u64 * one);
        let Some(conflict) = det.audit_remote_read(target, start, one as usize) else {
            return;
        };
        if conflict.writer.time_ns > t_issue || conflict.writer.op == TRANSFER_INSTALL {
            return;
        }
        det.report_lint(
            "remote read targeted the active version slot",
            target,
            format!("slot:{oid}"),
            conflict.range,
            Some(conflict.writer),
            format!(
                "the version chosen by the remote reader (ts {} for request ts {}) \
                 was written with no happens-before edge to the reader; on real \
                 hardware the one-sided read could have returned torn bytes",
                chosen_ts.raw(),
                r_ts.raw(),
            ),
        );
    }

    /// Algorithm 2 lines 8–13: ask every replica of `h` for the object's
    /// address and wait until a majority answered.
    fn query_addresses(&self, oid: ObjectId, h: PartitionId) {
        let shared = &self.shared;
        let majority = self.cfg().majority();
        shared.addr_heard.lock().remove(&oid);
        for q in 0..self.n() {
            let target = shared.peer(h, q);
            if target.id() == shared.node.id() {
                continue;
            }
            let msg = crate::layout::encode_rpc(&crate::layout::Rpc::AddrQuery { oid });
            let _ = shared.peer_qp(h, q).send(msg);
        }
        // Replies are absorbed by the service process, which fills
        // object_map/addr_heard and rings the doorbell — the polled word
        // that stands for `addr_heard`, which is not node memory.
        self.poller.poll_until_timeout(
            || {
                shared
                    .addr_heard
                    .lock()
                    .get(&oid)
                    .map(|nodes| nodes.len() >= majority)
                    .unwrap_or(false)
            },
            Duration::from_millis(1),
        );
    }
}

/// Posts `response` into the client's response slot for this replica —
/// one unsignaled RDMA write, posted by the driver ([`Driver::finish`]).
fn post_reply(shared: &Rc<ReplicaShared>, client_id: u64, seq: u64, response: &[u8]) {
    // Copied out: the post sleeps, and no lock is held across a sleep.
    let (qp, slot) = match shared.reply_routes.lock().entry(client_id) {
        Entry::Occupied(route) => route.get().clone(),
        Entry::Vacant(route) => {
            let cfg = &shared.cluster.cfg;
            let clients = shared.cluster.clients.lock();
            let Some(client) = clients.get(&client_id) else {
                return; // client vanished (e.g. test ended)
            };
            let slot = resp_slot(
                client.resp_base,
                shared.partition.0 as usize,
                shared.idx,
                cfg.replicas_per_partition,
            );
            let client_node = shared.cluster.fabric.node(client.node);
            route
                .insert((shared.node.connect(&client_node), slot))
                .clone()
        }
    };
    let _ = qp.post_write(slot, encode_response(seq, response));
}

/// [`LocalReader`] backed by the executing replica's store.
struct StoreReader<'a> {
    shared: &'a ReplicaShared,
}

impl StoreReader<'_> {
    /// Whether `oid` is readable here: replicated or own-partition.
    fn is_local(&self, oid: ObjectId) -> bool {
        match self.shared.cluster.app.placement(oid) {
            Placement::Replicated => true,
            Placement::Partition(h) => h == self.shared.partition,
        }
    }
}

impl LocalReader for StoreReader<'_> {
    fn read(&self, oid: ObjectId) -> Option<Bytes> {
        if !self.is_local(oid) {
            return None;
        }
        self.shared.store.get(oid).map(|(_, v)| v)
    }

    fn read_many(&self, oids: &[ObjectId]) -> Vec<Option<Bytes>> {
        let local: Vec<ObjectId> = oids
            .iter()
            .copied()
            .filter(|&oid| self.is_local(oid))
            .collect();
        let mut hits = self.shared.store.get_many(&local).into_iter();
        oids.iter()
            .map(|&oid| {
                let hit = if self.is_local(oid) {
                    hits.next().expect("one hit per local object")
                } else {
                    None
                };
                hit.map(|(_, v)| v)
            })
            .collect()
    }
}

// ----------------------------------------------------------------------
// The delivery driver — the shell around the books — and its workers.
// ----------------------------------------------------------------------

/// Driver → worker: a lane's one inbox. A parked worker takes its verdict
/// from it too: a parked lane is never dispatched to.
pub(crate) enum ToWorker {
    Run { d: Delivered, recv_ns: u64 },
    Verdict(StallOutcome),
}

/// Worker → driver notifications.
pub(crate) enum WorkerEvent {
    /// The worker finished its command; `reply` is what
    /// [`ExecCore::run_command`] returned, for [`Driver::finish`].
    Done {
        worker: usize,
        ts: u64,
        reply: Option<Reply>,
    },
    /// The worker is parked waiting for a [`StallOutcome`].
    Parked {
        worker: usize,
        ts: u64,
        reason: Stall,
    },
}

/// A cold restart's WAL-tail replay in progress, until it is closed: once
/// its replayed commands all finished, or when a power cut kills the
/// driver mid-replay.
struct Replay {
    metrics: Arc<Metrics>,
    /// When the restart began (before the checkpoint read).
    t0: SimTime,
    _span: sim::trace::SpanGuard,
}

impl Replay {
    /// Books the restart, whose replay fed `fed` frames through admission.
    /// A power cut mid-replay abandons the rest, and the next cold restart
    /// replays (and counts) them again.
    fn close(self, fed: u64) {
        let metrics = &self.metrics;
        metrics.cold_restarts.fetch_add(1, Ordering::Relaxed);
        metrics.replayed_frames.fetch_add(fed, Ordering::Relaxed);
        let took = (sim::now() - self.t0).as_nanos() as u64;
        metrics.recovery_ns.fetch_add(took, Ordering::Relaxed);
    }
}

/// Mirrors the books' watermarks into the replica's shared words, for the
/// checkpointer ([`ReplicaShared::set_completed`] wakes it) and
/// diagnostics, and publishes the completed prefix to the peers: the one
/// place they are written.
fn mirror(shared: &Rc<ReplicaShared>, books: &Books, moved: Mirror) {
    shared.last_req.store(books.last_req(), Ordering::SeqCst);
    if moved >= Mirror::Completed {
        shared.set_completed(books.completed());
    }
    if moved == Mirror::Publish {
        publish_progress(shared);
    }
}

/// Requester side of Algorithm 3 for what the books say is stalled, until
/// nothing is: a transfer for the stalls, then each parked lane's verdict.
/// Returns whether a transfer ran.
///
/// The transfer is abortable on barrier-heal, and only when every stall is
/// a Phase-2 starvation whose barrier has healed (a lagging command
/// genuinely needs the transfer): delivery at a slow majority can trail
/// ours by whole leader-election timeouts, and every replica of OUR
/// partition may be stalled right here — in which case nobody serves
/// transfers and waiting unconditionally deadlocks the partition (and,
/// transitively, every partition coordinating with it).
fn transfer_for_stalls(
    shared: &Rc<ReplicaShared>,
    books: &mut Books,
    mut verdict: impl FnMut(usize, StallOutcome),
) -> bool {
    let mut ran = false;
    while let Some(stalls) = books.stalled() {
        ran = true;
        let healed = || {
            stalls.iter().all(|(ts, reason)| match reason {
                Stall::Phase2Starved { dests } => {
                    coord_quorum(shared, dests, Timestamp::from_raw(*ts), 1).0
                }
                Stall::Lagging => false,
            })
        };
        let from = books.completed();
        let rid = state_transfer_abortable(shared, from, &healed, &mut |rid| {
            let moved = books.install(rid);
            mirror(shared, books, moved);
        });
        books.resolve(rid, &mut verdict);
    }
    ran
}

/// A replica's delivery driver (Algorithm 1's loop): the shell around its
/// [`Books`]. It takes the inputs — the delivery stream, worker events,
/// the statesync entries, the clock — feeds them to the books and does
/// what they return: runs or sends jobs, posts replies, runs both sides
/// of the state-transfer protocol and the cold restart, and mirrors the
/// watermarks.
pub(crate) struct Driver {
    shared: Rc<ReplicaShared>,
    deliveries: Mailbox<DeliveryEvent>,
    /// Width 1: the engine the driver runs commands on itself (lane 0).
    /// `None` with a pool, whose workers hold the lanes.
    inline: Option<ExecCore>,
    events: Mailbox<WorkerEvent>,
    /// Each worker's inbox, by lane.
    lanes: Vec<Mailbox<ToWorker>>,
    books: Books,
    /// The transfer requests pending in our statesync entries, `(requester
    /// idx, from_tmp)`, as last read.
    pending: Vec<(usize, u64)>,
    /// The last cold restart's replay, until every replayed command
    /// finished.
    replay: Option<Replay>,
}

/// One pass of the delivery driver: its steps, in this order, each of
/// which returns whether it acted.
const PASS: [fn(&mut Driver) -> bool; 6] = [
    Driver::drain_events,
    Driver::serve_transfers,
    Driver::admit,
    Driver::resolve_stalls,
    Driver::dispatch,
    Driver::end_replay,
];

/// Liveness is read before each of the first this many steps of [`PASS`]:
/// first, and after each step that can yield before one that acts on the
/// node — posting replies, a serve's stream.
const CRASH_CHECKS: usize = 3;

impl Driver {
    /// Runs the driver loop forever: a pass over the steps, and when no
    /// step acted, [`Self::idle_wait`] until an input arrives. A driver
    /// booted on a node whose power was cut runs the cold restart first.
    pub(crate) fn run(mut self) {
        if self.shared.node.power_cycles() > 0 {
            self.cold_restart();
        }
        // Executors-per-replica occupancy timeline (inert when tracing is
        // off or there is no pool): how many workers hold a command.
        let busy = if self.inline.is_none() {
            let (p, i) = (self.shared.partition.0, self.shared.idx);
            sim::prof::gauge(format!("pool.busy.p{p}r{i}"))
        } else {
            sim::prof::Gauge::disabled()
        };
        loop {
            busy.set(self.books.in_flight() as u64);
            if !self.pass() {
                self.idle_wait();
            }
        }
    }

    /// One pass over [`PASS`]; returns whether any step acted. A crash is
    /// sat out where liveness is read ([`CRASH_CHECKS`]): nothing is acted
    /// on until the node comes back, and then the pass starts over. A
    /// command caught mid-flight keeps going against failing verbs; the
    /// deliveries we miss surface later as a Gap or as failed remote reads.
    /// (A power cut needs no check: it kills the driver.)
    fn pass(&mut self) -> bool {
        let mut acted = false;
        for (k, step) in PASS.into_iter().enumerate() {
            if k < CRASH_CHECKS && !self.shared.node.is_alive() {
                self.sit_out_crash();
                return true;
            }
            acted |= step(self);
        }
        acted
    }

    /// Waits until the crashed node is back, 1 ms at a time: a crash
    /// rings nothing, a recovery rings [`ReplicaShared::poller`].
    fn sit_out_crash(&self) {
        let alive = || self.shared.node.is_alive();
        while !alive() {
            (self.shared.poller).poll_until_timeout(alive, Duration::from_millis(1));
        }
    }

    /// Blocks until an input a step acts on arrives: a worker event, a
    /// delivery for admission (from the live stream, or from a replay tail
    /// ahead of it), a transfer request not seen yet — the other steps act
    /// on the books alone, which only a step changes. The timeout, 10 ms
    /// at most, is the next future rotation turn among the requests this
    /// pass read: never busy-wait on a request that is not yet our turn (a
    /// past-due serve still pending here waits for a worker event).
    fn idle_wait(&self) {
        let shared = &*self.shared;
        let turn = self.books.next_turn(&self.pending, sim::now().as_nanos());
        let timeout = Duration::from_nanos(turn.unwrap_or(u64::MAX)).min(Duration::from_millis(10));
        let input = || !self.events.is_empty() || self.books.waiting(!self.deliveries.is_empty());
        let unseen = |k| self.books.unseen(&k);
        // `events` was built on the poller's condition (`spawn_driver`) and
        // `deliveries` owns it, so both mailboxes ring this wait directly;
        // transfer requests land in the subscribed statesync entries.
        (shared.poller).poll_until_timeout(
            || {
                input()
                    || shared
                        .node
                        .with_mem(|m| pending_sync_requests(shared, m).any(unseen))
            },
            timeout,
        );
    }

    // The steps.

    /// Absorbs worker notifications: completions are finished, parks
    /// booked.
    fn drain_events(&mut self) -> bool {
        let mut acted = false;
        while let Some(ev) = self.events.try_recv() {
            acted = true;
            match ev {
                WorkerEvent::Done { worker, ts, reply } => self.finish(worker, ts, reply),
                WorkerEvent::Parked { worker, ts, reason } => self.books.park(worker, ts, reason),
            }
        }
        acted
    }

    /// Responder side of Algorithm 3 (lines 7–22): walks the requesters in
    /// order, reading each one's statesync entry when the walk reaches it,
    /// and feeds each pending request to the books, which note its first
    /// sight and say whether its turn came — so a request is first seen
    /// after the serves before it streamed. Then the books forget the
    /// requests no longer pending. Returns whether anything moved.
    fn serve_transfers(&mut self) -> bool {
        let shared = Rc::clone(&self.shared);
        let n = shared.cluster.cfg.replicas_per_partition;
        let mut moved = false;
        self.pending.clear();
        for p in (0..n).filter(|&p| p != shared.idx) {
            let Some(from) = shared.node.with_mem(|m| sync_request(&shared, m, p)) else {
                continue;
            };
            self.pending.push((p, from));
            moved |= self.books.unseen(&(p, from));
            if self.books.sight((p, from), sim::now().as_nanos()) {
                respond_transfer(&shared, p, from, self.books.completed());
                moved = true;
            }
        }
        self.books.forget_gone(&self.pending) || moved
    }

    /// Takes one delivery, if one is waiting (Algorithm 1, lines 3–4, and
    /// queue admission): from the replay tail ahead of the live stream.
    /// One that a transfer covered is skipped.
    fn admit(&mut self) -> bool {
        let (app, deliveries) = (&self.shared.cluster.app, &self.deliveries);
        let keys = |d: &Delivered| {
            let request = decode_envelope(&d.payload).3;
            Keys::new(app.conflict_keys(request), app.shared_keys(request))
        };
        let now = sim::now().as_nanos();
        match self.books.admit(now, || deliveries.try_recv(), keys) {
            None => return false,
            Some(true) => mirror(&self.shared, &self.books, Mirror::LastReq),
            Some(false) => self.skipped(),
        }
        true
    }

    /// Runs a transfer for the pool's parks, once every in-flight command
    /// parked, or for a Gap's held-back delivery, once everything before it
    /// drained: its stall never heals, so no transfer is withdrawn, and
    /// transfers repeat until a snapshot covers it.
    fn resolve_stalls(&mut self) -> bool {
        let lanes = &self.lanes;
        transfer_for_stalls(&self.shared, &mut self.books, |lane, outcome| {
            let _ = lanes[lane].send(ToWorker::Verdict(outcome));
        })
    }

    /// Dispatches what the books let go, while they let something go:
    /// skips what a transfer covered, hands the rest to a worker or, at
    /// width 1, runs it right here.
    fn dispatch(&mut self) -> bool {
        let mut acted = false;
        loop {
            let (shared, pending) = (&*self.shared, &mut self.pending);
            let next = self.books.dispatch(sim::now().as_nanos(), || {
                pending.clear();
                (shared.node).with_mem(|m| pending.extend(pending_sync_requests(shared, m)));
                pending
            });
            let (lane, d, recv_ns) = match next {
                None => return acted,
                Some(Dispatch::Skip(moved)) => {
                    self.skipped();
                    if let Some(moved) = moved {
                        mirror(&self.shared, &self.books, moved);
                    }
                    acted = true;
                    continue;
                }
                Some(Dispatch::Run { lane, d, recv_ns }) => (lane, d, recv_ns),
            };
            acted = true;
            // 'e' is pushed at dispatch: the checker reads the trace as
            // the dispatch order, which keeps conflicting commands in
            // timestamp order (and, at width 1, every command).
            self.shared.note_dispatch(d.ts.raw(), self.books.keys(lane));
            let Some(core) = &self.inline else {
                let _ = self.lanes[lane].send(ToWorker::Run { d, recv_ns });
                continue;
            };
            // No worker lanes: run the command right here, where a pool
            // would hand it over; a stall parks the lane and runs
            // Algorithm 3's requester side on the spot. (Routing width 1
            // through one worker instead costs three mailbox hops per
            // command per replica: +14…29 % host time per request,
            // EXPERIMENTS.md "One delivery driver".)
            let (shared, books) = (&self.shared, &mut self.books);
            let done = core.run_command(&d, recv_ns, &mut |at, stall| {
                books.park(lane, at.raw(), stall);
                let mut verdict = StallOutcome::Retry;
                transfer_for_stalls(shared, books, |_, outcome| verdict = outcome);
                verdict
            });
            // The reply write nests under the request span.
            let (reply, _request_span) = done.unzip();
            self.finish(lane, d.ts.raw(), reply);
        }
    }

    /// Ends a cold restart's replay once its commands all finished, which
    /// books the restart.
    fn end_replay(&mut self) -> bool {
        let ended = self.books.end_replay();
        if let Some(replay) = self.replay.take_if(|_| ended) {
            replay.close(self.books.replayed());
        }
        ended
    }

    // What the steps share.

    /// Finishes command `ts`, which ran on `lane` — the one way, whether
    /// the inline lane just returned from it or a worker's `Done` event
    /// reports it: post the reply if the books say so (`None`: a state
    /// transfer covered the command), then mirror the watermark. The driver
    /// is the single writer of each client's response slot on this replica.
    fn finish(&mut self, lane: usize, ts: u64, reply: Option<Reply>) {
        let key = reply.as_ref().map(|r| (r.client_id, r.seq));
        let (post, moved) = self.books.finish(lane, ts, key);
        if let Some(r) = reply.filter(|_| post) {
            post_reply(&self.shared, r.client_id, r.seq, &r.response);
        }
        if let Some(moved) = moved {
            mirror(&self.shared, &self.books, moved);
        }
    }

    /// Counts a delivery skipped because a state transfer covered it.
    fn skipped(&self) {
        let metrics = &self.shared.cluster.metrics;
        metrics.skipped_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Cold restart, the first thing a driver booted after a power loss
    /// does: rebuild the store from the durable checkpoint, restart the
    /// books at the checkpoint bound, and queue the ordering WAL tail for
    /// replay through the normal admission path ([`Self::admit`] feeds it
    /// ahead of live deliveries). Equivalent to a state transfer whose
    /// responder is the disk — the execution trace restarts with a `('t',
    /// bound)` entry and replayed commands append fresh `'e'` entries past
    /// it.
    ///
    /// Without durability there is no checkpoint and no WAL: the store is
    /// re-bootstrapped to time zero and the next delivery waits for a
    /// live-peer transfer covering everything.
    fn cold_restart(&mut self) {
        let shared = Rc::clone(&self.shared);
        let t0 = sim::now();
        // What the replica's processes shared died with them. (This
        // driver's books are fresh; commands admitted but not dispatched
        // before the cut are in the WAL like every other delivery, and come
        // back through the replay.)
        shared.exec_trace.lock().clear();
        *shared.key_order.lock() = Default::default();
        shared.object_map.lock().clear();
        shared.addr_heard.lock().clear();
        shared.reply_routes.lock().clear();
        // Rebuild the store image: checkpoint if one exists, time-zero
        // bootstrap otherwise. The checkpoint read pays modeled disk
        // latency — the first component of recovery time.
        let restored = crate::checkpoint::load_checkpoint(&shared);
        let bound = match &restored {
            Some(meta) => meta.bound,
            None => {
                for (oid, value) in shared.cluster.app.bootstrap(shared.partition) {
                    shared.store.bootstrap(oid, &value);
                }
                0
            }
        };
        // The watermarks move only once the store is rebuilt: the
        // checkpointer snapshots nothing before (`run_checkpointer`).
        if bound > 0 {
            shared.exec_trace.lock().push((bound, 't'));
        }
        let moved = self.books.restart(bound, shared.disk.is_some());
        mirror(&shared, &self.books, moved);
        // The WAL tail past the bound replays through the normal delivery
        // path — the second component of recovery time. Deliveries the
        // ordering replica re-sends (or that were already sitting in our
        // mailbox) re-appear with timestamps the replay has covered and
        // are skipped by `last_req`.
        let group = amcast::GroupId(shared.partition.0);
        let tail = shared.cluster.mcast.wal_tail(group, shared.idx, bound);
        let args = [("bound", bound), ("tail", tail.len() as u64)];
        let span = sim::trace::span_args("recover.cold", bound, &args);
        self.books.replay(tail);
        let metrics = Arc::clone(&shared.cluster.metrics);
        self.replay = Some(Replay {
            metrics,
            t0,
            _span: span,
        });
    }
}

impl Drop for Driver {
    /// A power cut killed the driver: a replay it was running closes on
    /// the frames it fed.
    fn drop(&mut self) {
        if let Some(replay) = self.replay.take() {
            replay.close(self.books.replayed());
        }
    }
}

/// A pool worker: executes the jobs its driver hands it on its own
/// coordination lane, parking on stalls.
pub(crate) struct Worker {
    shared: Rc<ReplicaShared>,
    index: usize,
    inbox: Mailbox<ToWorker>,
    events: Mailbox<WorkerEvent>,
}

impl Worker {
    /// Runs the worker loop forever, on an engine whose poller the worker
    /// registers itself: it goes with the worker when a power cut kills it.
    pub(crate) fn run(self) {
        let core = ExecCore {
            shared: Rc::clone(&self.shared),
            lane: self.index,
            poller: (self.shared.node).poller(sim::Cond::new(), &self.shared.exec_ranges),
        };
        loop {
            let ToWorker::Run { d, recv_ns } = self.inbox.recv() else {
                panic!("a verdict for worker {} with nothing parked", self.index);
            };
            let done = core.run_command(&d, recv_ns, &mut |ts, stall| self.park(ts, stall));
            // The request span ends here, on the process that ran the
            // command; the driver posts the reply.
            let reply = done.map(|(reply, _request_span)| reply);
            let (worker, ts) = (self.index, d.ts.raw());
            let _ = self.events.send(WorkerEvent::Done { worker, ts, reply });
        }
    }

    /// Parks the stalled command `ts` and awaits the driver's verdict.
    fn park(&self, ts: Timestamp, reason: Stall) -> StallOutcome {
        // The park's whole duration is observable: a `pool.park` span nested
        // under the stalled command's span (`explain::request_paths` carves
        // it out of that stage), and a parked wait-state for the profiler.
        let lagging = matches!(reason, Stall::Lagging);
        let label = if lagging { "lagging" } else { "phase2_starved" };
        let (worker, ts) = (self.index, ts.raw());
        let args = [
            ("ts", ts),
            ("worker", worker as u64),
            ("lagging", u64::from(lagging)),
        ];
        let _span = sim::trace::span_args("pool.park", 0, &args);
        let _wait = sim::prof::parked_scope(label);
        let _ = self.events.send(WorkerEvent::Parked { worker, ts, reason });
        let ToWorker::Verdict(outcome) = self.inbox.recv() else {
            panic!("a job for parked worker {worker}");
        };
        outcome
    }
}

/// Spawns one replica's delivery driver as `heron-exec-p{p}r{i}` and,
/// above width 1, its `width` workers as `heron-exec-p{p}r{i}w{k}`. Width 1
/// has no worker: the driver is its own (inline) lane 0.
pub(crate) fn spawn_driver(
    boot: &rdma_sim::Boot<'_>,
    shared: Rc<ReplicaShared>,
    deliveries: Mailbox<DeliveryEvent>,
    p: usize,
    i: usize,
) {
    let cfg = &shared.cluster.cfg;
    let width = cfg.executor_width;
    // Worker events ring the driver's own wait point: its idle wait
    // watches this mailbox next to the delivery stream and polled memory.
    let events: Mailbox<WorkerEvent> = Mailbox::with_cond(shared.poller.cond().clone());
    let workers = if width > 1 { width } else { 0 };
    let lanes: Vec<Mailbox<ToWorker>> = (0..workers).map(|_| Mailbox::new()).collect();
    let poller = shared.poller.clone();
    let driver = Driver {
        books: Books::new(width, shared.idx, cfg.replicas_per_partition),
        inline: (workers == 0).then(|| ExecCore {
            shared: Rc::clone(&shared),
            lane: 0,
            poller,
        }),
        shared: Rc::clone(&shared),
        deliveries,
        events: events.clone(),
        lanes: lanes.clone(),
        pending: Vec::new(),
        replay: None,
    };
    boot.spawn(format!("heron-exec-p{p}r{i}"), move || driver.run());
    for (index, inbox) in lanes.into_iter().enumerate() {
        let (shared, events) = (Rc::clone(&shared), events.clone());
        let worker = Worker {
            shared,
            index,
            inbox,
            events,
        };
        boot.spawn(format!("heron-exec-p{p}r{i}w{index}"), move || worker.run());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::trace::EventKind;

    /// The stage clock's one promise: the span ends at the instant the
    /// returned duration was measured to, so Σ spans == Σ `Breakdown` rows.
    #[test]
    fn stage_clock_ends_its_span_at_the_instant_it_returns() {
        let simulation = sim::Simulation::new(1);
        let tracer = simulation.enable_tracing();
        simulation.spawn("p", || {
            sim::sleep(Duration::from_nanos(100));
            let stage = Stage::open("exec.execute", 7);
            sim::sleep(Duration::from_nanos(1_234));
            assert_eq!(stage.close(), 1_234);
            sim::sleep(Duration::from_nanos(50)); // a drop here would read 1 284
        });
        simulation.run().unwrap();
        let at = |kind| {
            let events = tracer.events();
            let e = events.iter().find(|e| e.kind == kind).expect("recorded");
            (e.name, e.corr, e.t_ns)
        };
        assert_eq!(at(EventKind::Begin), ("exec.execute", 7, 100));
        assert_eq!(at(EventKind::End), ("exec.execute", 7, 1_334));
    }
}
