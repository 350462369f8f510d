//! The request-execution engine and the replica's delivery driver.
//!
//! [`ExecCore`] holds the per-command execution path of Algorithms 1 and 2
//! (Phase 2/4 barriers, the reading phase with dual-version remote reads,
//! compute + writing phase, and the client reply), bound to one
//! coordination *lane* (a private `(ts, phase)` entry per writer replica,
//! see [`crate::layout::ReplicaLayout::coord_slot`]).
//!
//! Each replica has exactly one [`Driver`] process — Algorithm 1's
//! delivery loop. It owns the delivery stream, admission (`last_req`
//! skips, Gap hold-back), both sides of Algorithm 3, the cold restart a
//! driver booted after a power loss runs first, and the `completed_req`
//! watermark. What varies with [`crate::HeronConfig::executor_width`] is
//! only where a command runs once it reaches the front of the queue:
//!
//! * **width 1 — the inline lane.** There are no worker processes: the
//!   driver runs [`ExecCore::run_command`] itself on lane 0 and resolves a
//!   stall by running Algorithm 3's requester side on the spot. One
//!   process per replica, commands strictly in delivery order — the
//!   paper's executor.
//! * **width N > 1 — the pool** (Marandi et al., "Rethinking
//!   State-Machine Replication for Parallelism"). The driver computes each
//!   command's conflict key-set ([`crate::StateMachine::conflict_keys`])
//!   and hands a free [`Worker`] the first queued command whose keys are
//!   disjoint from every in-flight command's and every earlier queued
//!   command's — a multi-partition command never overtaking an earlier
//!   queued multi-partition one ([`Driver::next_job`]). So a conflicting
//!   predecessor always *finishes* on this replica before its successor
//!   starts anywhere on it — which is what makes the relaxed barrier reads
//!   in [`coord_quorum`] safe. Workers report completion (and the client
//!   reply) back to the driver.
//!
//! Either way a command runs one way ([`ExecCore::run_command`]: one
//! reading phase → compute → writing phase, in Phase 2/4 barriers when it
//! is multi-partition) and finishes one way ([`Driver::finish`]: reply,
//! lane freed, watermark).
//!
//! Workers never run the state-transfer protocol themselves: when one
//! starves on a Phase-2 barrier or observes it is lagging (Algorithm 2,
//! lines 23–25), it **parks** and the driver resolves the stall — it
//! quiesces (stops dispatching, waits for running workers to finish or
//! park), runs the requester-side transfer of Algorithm 3 once nothing is
//! mid-command, and then tells each parked worker whether the adopted
//! snapshot covered its command (abandon, the client will retry) or not
//! (retry in place). Responder-side serves wait for an exact boundary —
//! nothing in flight and nothing finished above the watermark — so the
//! snapshot bound `completed_req` is exact. `completed_req` itself is a
//! prefix watermark: the largest timestamp such that every admitted
//! command up to it has finished its write phase.
//!
//! Dependency tracking is last-writer-in-delivery-order over the conflict
//! keys: because a command never overtakes an earlier queued command it
//! conflicts with, it waits exactly until every earlier conflicting
//! command completed — equivalent to chaining along the last-writer
//! dependency graph of the delivered prefix, without materializing the
//! graph.

use crate::app::{LocalReader, ReadSet};
use crate::cluster::ReplicaShared;
use crate::layout::{decode_envelope, encode_coord, encode_response, resp_slot, COORD_ENTRY};
use crate::metrics::{Breakdown, Metrics};
use crate::replica::{
    coord_matching, coord_quorum, pending_sync_requests, publish_progress, respond_transfer,
    state_transfer_abortable, TRANSFER_INSTALL, TRANSFER_TIMEOUT,
};
use crate::types::{ObjectId, PartitionId, Placement};
use amcast::{mask_groups, Delivered, DeliveryEvent, Timestamp};
use bytes::Bytes;
use rand::Rng;
use sim::{Mailbox, SimTime};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Bound::{Excluded, Unbounded};
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// The executing replica has fallen behind the fast majority and cannot
/// read consistent remote values; it must state-transfer (Algorithm 2,
/// lines 23–25).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Lagging;

/// Why a command stalled mid-flight.
#[derive(Debug, Clone)]
pub(crate) enum Stall {
    /// The Phase-2 majority barrier starved past the transfer timeout.
    Phase2Starved {
        /// The barrier's involved partitions, for the heal check.
        dests: Vec<PartitionId>,
    },
    /// A remote read found no version old enough (Algorithm 2, lines
    /// 23–25).
    Lagging,
}

/// How a stalled command resumes after the stall was handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StallOutcome {
    /// A state transfer adopted a snapshot that already includes this
    /// command: abandon it without replying (the client's retry will be
    /// skipped or re-executed consistently).
    Covered,
    /// Not covered: retry the stalled step.
    Retry,
}

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
        let entry = encode_coord(ts.raw(), phase);
        let mut sorted = dests.to_vec();
        sorted.sort_unstable();
        for h in sorted {
            for q in 0..n {
                let target = shared.peer(h, q);
                // All replica nodes share one allocation schedule, so any
                // replica's layout equals ours.
                let slot_on_target =
                    shared
                        .layout
                        .coord_slot(shared.partition.0 as usize, shared.idx, self.lane, n);
                if target.id() == shared.node.id() {
                    let _ = shared.node.local_write(slot_on_target, &entry);
                } else {
                    let _ = shared
                        .peer_qp(h, q)
                        .post_write(slot_on_target, entry.to_vec());
                }
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
// The delivery driver, its inline lane (width 1) and its workers (width > 1).
// ----------------------------------------------------------------------

/// A delivered command on its way from admission to a lane.
pub(crate) struct Job {
    d: Delivered,
    /// Virtual time the driver took the delivery off the stream; the gap
    /// to a worker's pickup is the `execute.parallel` dispatch wait.
    recv_ns: u64,
    /// Sorted, deduplicated conflict key-set (empty on the inline lane,
    /// which never has anything in flight to conflict with). Moves to the
    /// command's [`InFlight`] entry at dispatch; the worker never reads it.
    keys: Vec<u64>,
}

impl Job {
    fn ts(&self) -> u64 {
        self.d.ts.raw()
    }

    /// Addressed to more than one partition.
    fn multi_partition(&self) -> bool {
        self.d.dests.count_ones() > 1
    }
}

/// Whether two sorted key-sets share a key.
fn overlap(a: &[u64], b: &[u64]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Driver → worker: a lane's one inbox. A parked worker takes its verdict
/// from it too: a parked lane is never dispatched to.
pub(crate) enum ToWorker {
    Run(Job),
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

/// One in-flight command, from dispatch until its `Done` event.
struct InFlight {
    ts: u64,
    keys: Vec<u64>,
    parked: Option<Stall>,
}

/// A cold restart's WAL-tail replay in progress. Dropping it closes the
/// books on the restart: its replayed commands all finished, or a power
/// cut killed the driver mid-replay.
struct Replay {
    metrics: Arc<Metrics>,
    /// When the restart began (before the checkpoint read).
    t0: SimTime,
    /// Frames not yet fed through admission.
    tail: VecDeque<Delivered>,
    /// Length of `tail` at entry. What counts as replayed is the part
    /// actually fed, not this: a power cut mid-replay abandons the rest,
    /// and the next cold restart replays (and counts) those frames again.
    frames: usize,
    _span: sim::trace::SpanGuard,
}

impl Drop for Replay {
    fn drop(&mut self) {
        let metrics = &self.metrics;
        metrics.cold_restarts.fetch_add(1, Ordering::Relaxed);
        let fed = (self.frames - self.tail.len()) as u64;
        metrics.replayed_frames.fetch_add(fed, Ordering::Relaxed);
        let took = (sim::now() - self.t0).as_nanos() as u64;
        metrics.recovery_ns.fetch_add(took, Ordering::Relaxed);
    }
}

/// Requester side of Algorithm 3 on behalf of stalled commands `(ts,
/// reason)`: returns the adopted snapshot bound, or `None` if the transfer
/// was withdrawn.
///
/// The transfer is abortable on barrier-heal, and only when every stall is
/// a Phase-2 starvation whose barrier has healed (a lagging command
/// genuinely needs the transfer): delivery at a slow majority can trail
/// ours by whole leader-election timeouts, and every replica of OUR
/// partition may be stalled right here — in which case nobody serves
/// transfers and waiting unconditionally deadlocks the partition (and,
/// transitively, every partition coordinating with it).
fn transfer_for_stalls(shared: &Rc<ReplicaShared>, stalls: &[(u64, &Stall)]) -> Option<u64> {
    let healed = || {
        stalls.iter().all(|(ts, reason)| match reason {
            Stall::Phase2Starved { dests } => {
                coord_quorum(shared, dests, Timestamp::from_raw(*ts), 1).0
            }
            Stall::Lagging => false,
        })
    };
    state_transfer_abortable(shared, &healed)
}

/// Whether a transfer that adopted snapshot bound `rid` covered the
/// stalled command `ts`.
fn stall_outcome(rid: Option<u64>, ts: u64) -> StallOutcome {
    if rid.is_some_and(|r| r >= ts) {
        StallOutcome::Covered
    } else {
        StallOutcome::Retry
    }
}

/// A replica's delivery driver (Algorithm 1's loop): owns the delivery
/// stream, admission and conflict-gated dispatch, runs both sides of the
/// state-transfer protocol and the cold restart, and maintains the
/// `completed_req` watermark.
pub(crate) struct Driver {
    shared: Rc<ReplicaShared>,
    deliveries: Mailbox<DeliveryEvent>,
    /// Width 1: the engine the driver runs commands on itself (lane 0).
    /// `None` with a pool, whose workers hold the lanes.
    inline: Option<ExecCore>,
    events: Mailbox<WorkerEvent>,
    /// Each worker's inbox, by lane.
    lanes: Vec<Mailbox<ToWorker>>,
    /// Admitted, not yet dispatched, in delivery (timestamp) order.
    queue: VecDeque<Job>,
    /// In-flight commands by worker index (deterministic iteration); every
    /// other lane is idle ([`Self::free_lane`]). Always empty on the inline
    /// lane, which runs a command to completion before the loop looks at
    /// anything else.
    inflight: BTreeMap<usize, InFlight>,
    /// Admitted timestamps → finished?, entered at admission and pruned
    /// from the front as the prefix completes; the largest pruned entry is
    /// the `completed_req` watermark. Entered at admission, not dispatch:
    /// a command dispatched past a queued one must not let the watermark
    /// cover the queued one.
    done: BTreeMap<u64, bool>,
    /// First time we observed each pending state-transfer request
    /// (requester idx, from_tmp) — drives the deterministic responder
    /// rotation of Algorithm 3.
    seen_requests: HashMap<(usize, u64), SimTime>,
    /// Set by an ordering-layer Gap: requests were missed wholesale (log
    /// overrun while crashed/lagging) and their timestamps are unknown, so
    /// nothing may execute until a state transfer covers everything up to
    /// the next delivery.
    needs_full_sync: bool,
    /// The first delivery after a Gap, held back until everything before
    /// it drained and the covering transfer completed.
    pending_gap: Option<Delivered>,
    /// Highest client seq this replica has posted a response for, per
    /// client (see [`Self::finish`]).
    last_replied: HashMap<u64, u64>,
    /// The WAL-tail replay of the last cold restart, until every replayed
    /// command finished. Live deliveries wait behind it.
    replay: Option<Replay>,
}

/// A step of Algorithm 1's loop.
enum Step {
    /// Sits out a crash, if the node is down: nothing is acted on until it
    /// comes back, and then the pass starts over. A command caught
    /// mid-flight keeps going against failing verbs; the deliveries we miss
    /// surface later as a Gap or as failed remote reads. (A power cut needs
    /// no step: it kills the driver.)
    Crash,
    /// A guard — no side effects — and the action it gates.
    Act(fn(&Driver) -> bool, fn(&mut Driver)),
}
use Step::{Act, Crash};

/// One pass of the delivery driver: every step whose guard holds acts, in
/// this order. Liveness is re-read first and after each step that can
/// yield before one that acts on the node — posting replies, a serve's
/// stream.
const PASS: [Step; 10] = [
    Crash,
    Act(Driver::events_waiting, Driver::drain_events),
    Crash,
    Act(Driver::requests_moved, Driver::serve_transfers),
    Crash,
    Act(Driver::delivery_waiting, Driver::admit),
    Act(Driver::all_parked, Driver::resolve_parks),
    Act(Driver::gap_resolvable, Driver::resolve_gap),
    Act(Driver::dispatchable, Driver::try_dispatch),
    Act(Driver::replay_done, |d| d.replay = None),
];

impl Driver {
    fn cfg(&self) -> &crate::HeronConfig {
        &self.shared.cluster.cfg
    }

    fn n(&self) -> usize {
        self.cfg().replicas_per_partition
    }

    /// The lowest lane not in flight, if any. The inline lane is never in
    /// flight, so at width 1 this is always lane 0.
    fn free_lane(&self) -> Option<usize> {
        (0..self.cfg().executor_width).find(|lane| !self.inflight.contains_key(lane))
    }

    /// Runs the driver loop forever: a pass over the steps, and when no
    /// step acted, [`Self::idle_wait`] until one of their guards holds. A
    /// driver booted on a node whose power was cut runs the cold restart
    /// first.
    pub(crate) fn run(mut self) {
        if self.shared.node.power_cycles() > 0 {
            self.cold_restart();
        }
        // Executors-per-replica occupancy timeline (inert when tracing is
        // off or there is no pool): how many workers hold a command.
        let busy = if self.inline.is_none() {
            sim::prof::gauge(format!(
                "pool.busy.p{}r{}",
                self.shared.partition.0, self.shared.idx
            ))
        } else {
            sim::prof::Gauge::disabled()
        };
        loop {
            busy.set(self.inflight.len() as u64);
            if !self.pass() {
                self.idle_wait();
            }
        }
    }

    /// One pass over [`PASS`]: runs each step whose guard holds, in
    /// order; returns whether any did. A crash sat out ends the pass, so
    /// the next one starts over.
    fn pass(&mut self) -> bool {
        let mut acted = false;
        for step in PASS {
            match step {
                Crash if !self.shared.node.is_alive() => {
                    self.sit_out_crash();
                    return true;
                }
                Act(guard, action) if guard(self) => {
                    action(self);
                    acted = true;
                }
                _ => {}
            }
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

    // The guards [`Self::idle_wait`] waits on: each reads an input — a
    // mailbox or polled memory. The other guards read only the
    // driver's own state, which nothing but an action changes.

    /// A worker reported.
    fn events_waiting(&self) -> bool {
        !self.events.is_empty()
    }

    /// A delivery for admission: from the live stream, or from a cold
    /// restart's replay tail, which feeds ahead of it; none while a Gap's
    /// held-back delivery waits for its covering transfer.
    fn delivery_waiting(&self) -> bool {
        match (&self.pending_gap, &self.replay) {
            (Some(_), _) => false,
            (None, Some(replay)) => !replay.tail.is_empty(),
            (None, None) => !self.deliveries.is_empty(),
        }
    }

    /// A pending transfer request not seen yet: its rotation counts from
    /// its first sight.
    fn request_unseen(&self) -> bool {
        (self.pending_requests().iter()).any(|k| !self.seen_requests.contains_key(k))
    }

    // The other guards.

    /// A transfer request first seen, one whose rotation turn came at an
    /// exact boundary ([`Self::at_boundary`]), or one someone else
    /// completed.
    fn requests_moved(&self) -> bool {
        self.request_unseen() || self.serve_turn() && self.at_boundary() || self.request_gone()
    }

    /// `completed_req` is an exact request boundary: nothing is in flight
    /// and no command finished above it. Then every admitted command up to
    /// it finished, none above it ran, and no store stamp passes it — a
    /// responder's snapshot bound. At width 1 it always holds between
    /// passes.
    fn at_boundary(&self) -> bool {
        self.inflight.is_empty() && self.highest_finished().is_none()
    }

    /// The highest command finished above the watermark — out of order,
    /// past a hole — if any.
    fn highest_finished(&self) -> Option<u64> {
        let completed = self.shared.completed_req.load(Ordering::SeqCst);
        let above = (Excluded(completed), Unbounded);
        let mut finished = self.done.range(above).filter(|(_, &fin)| fin);
        finished.next_back().map(|(&ts, _)| ts)
    }

    /// Every in-flight command parked (dispatch pauses on the first park,
    /// so runners drain).
    fn all_parked(&self) -> bool {
        !self.inflight.is_empty() && self.inflight.values().all(|f| f.parked.is_some())
    }

    /// A Gap's held-back delivery, with everything before it drained.
    fn gap_resolvable(&self) -> bool {
        self.pending_gap.is_some() && self.drained()
    }

    /// A cold restart's replayed commands all finished.
    fn replay_done(&self) -> bool {
        self.replay.as_ref().is_some_and(|r| r.tail.is_empty()) && self.drained()
    }

    /// Nothing queued and nothing in flight.
    fn drained(&self) -> bool {
        self.queue.is_empty() && self.inflight.is_empty()
    }

    /// The transfer requests pending in our statesync entries, `(requester
    /// idx, from_tmp)`, in requester order.
    fn pending_requests(&self) -> Vec<(usize, u64)> {
        let shared = &*self.shared;
        shared
            .node
            .with_mem(|m| pending_sync_requests(shared, m).collect())
    }

    /// A seen request's rotation turn has come. Without a seen request,
    /// this and [`Self::request_gone`] skip the statesync read: both run
    /// on every pass.
    fn serve_turn(&self) -> bool {
        let now = sim::now();
        !self.seen_requests.is_empty()
            && (self.pending_requests().iter())
                .any(|k| self.serve_due(k).is_some_and(|due| due <= now))
    }

    /// A request we saw is no longer pending: someone completed it.
    fn request_gone(&self) -> bool {
        (self.seen_requests.keys()).any(|k| !self.pending_requests().contains(k))
    }

    /// A queued command can go ([`Self::next_job`]). Paused while a parked
    /// worker waits for the pool to drain — resolving it needs a quiesced
    /// pool, and feeding it new work would starve it.
    fn dispatchable(&self) -> bool {
        !self.inflight.values().any(|f| f.parked.is_some()) && self.next_job().is_some()
    }

    /// The queue index of the command to dispatch next, if a lane is free:
    /// the front if a transfer covered it (it is skipped), else the first
    /// command whose conflict keys are disjoint from every in-flight
    /// command's and every earlier queued command's, and which, if it is
    /// multi-partition, has no multi-partition command queued before it.
    ///
    /// The last rule is what keeps the pool deadlock-free: the lowest
    /// unfinished multi-partition command finds only single-partition work
    /// ahead of it at every partition it involves, and that work finishes.
    /// At width 1 nothing is in flight and the front is always eligible.
    ///
    /// While a due serve waits for an exact boundary, only a hole below the
    /// highest finished command may go; with none, the pool drains.
    fn next_job(&self) -> Option<usize> {
        self.free_lane()?;
        let front = self.queue.front()?;
        if self.covered(&front.d) {
            return Some(0);
        }
        let limit = if self.serve_turn() && !self.at_boundary() {
            self.highest_finished()?
        } else {
            u64::MAX
        };
        let queue = &self.queue;
        (0..queue.len())
            .take_while(|&i| queue[i].ts() < limit)
            .find(|&i| !self.blocked(i))
    }

    /// Whether queued command `i` must wait: it conflicts with an in-flight
    /// or an earlier queued command, or it is multi-partition behind a
    /// multi-partition one.
    fn blocked(&self, i: usize) -> bool {
        let q = &self.queue[i];
        let mut earlier = self.queue.range(..i);
        (self.inflight.values()).any(|f| overlap(&f.keys, &q.keys))
            || earlier
                .any(|e| overlap(&e.keys, &q.keys) || q.multi_partition() && e.multi_partition())
    }

    /// A transfer that completed after `d` was queued covers it (its
    /// effects are in the adopted snapshot); executing it against newer
    /// state would be wrong. The watermark can only reach a queued
    /// timestamp via a transfer: every admitted command has an entry in
    /// `done`, which holds the watermark below it.
    fn covered(&self, d: &Delivered) -> bool {
        d.ts.raw() <= self.shared.completed_req.load(Ordering::SeqCst)
    }

    /// Finishes command `ts`, which ran on `lane` — the one way, whether
    /// the inline lane just returned from it or a worker's `Done` event
    /// reports it: post the reply (`None`: a state transfer covered the
    /// command), free the lane, advance the `completed_req` watermark.
    ///
    /// Each replica owns ONE response slot per client and the driver is
    /// its single writer: two workers finishing different requests of the
    /// same client concurrently would otherwise race unordered writes into
    /// it. They can also finish out of delivery order, so a reply whose seq
    /// is not above the highest already posted for its client is skipped —
    /// it would overwrite a fresher one and regress the slot's seq word.
    /// Skipping is safe: the slot's newer seq already satisfies the
    /// client's `>= seq` answered check, and a closed-loop client never
    /// re-reads an older seq.
    fn finish(&mut self, lane: usize, ts: u64, reply: Option<Reply>) {
        if let Some(reply) = reply {
            let last = self.last_replied.get(&reply.client_id);
            if last.is_none_or(|&l| reply.seq > l) {
                self.last_replied.insert(reply.client_id, reply.seq);
                post_reply(&self.shared, reply.client_id, reply.seq, &reply.response);
            }
        }
        self.inflight.remove(&lane);
        if let Some(fin) = self.done.get_mut(&ts) {
            *fin = true;
        }
        self.advance_watermark();
    }

    /// Advances the prefix watermark over the finished front of `done`:
    /// `completed_req` may only cover timestamps with no unfinished
    /// admitted command below them (a responder's snapshot bound must have
    /// no holes).
    fn advance_watermark(&mut self) {
        let mut watermark = None;
        while let Some(first) = self.done.first_entry().filter(|e| *e.get()) {
            watermark = Some(first.remove_entry().0);
        }
        if let Some(t) = watermark {
            let cur = self.shared.completed_req.load(Ordering::SeqCst);
            self.shared.set_completed(cur.max(t));
            if t > cur {
                publish_progress(&self.shared);
            }
        }
    }

    /// Absorbs worker notifications: completions are finished; parks are
    /// recorded for [`Self::resolve_parks`].
    fn drain_events(&mut self) {
        while let Some(ev) = self.events.try_recv() {
            match ev {
                WorkerEvent::Done { worker, ts, reply } => self.finish(worker, ts, reply),
                WorkerEvent::Parked { worker, ts, reason } => {
                    if let Some(f) = self.inflight.get_mut(&worker) {
                        debug_assert_eq!(f.ts, ts, "park for a command the worker does not hold");
                        f.parked = Some(reason);
                    }
                }
            }
        }
    }

    /// Takes one delivery [`Self::delivery_waiting`] found.
    fn admit(&mut self) {
        let next = match &mut self.replay {
            Some(replay) => replay.tail.pop_front().map(DeliveryEvent::Deliver),
            None => self.deliveries.try_recv(),
        };
        match next.expect("a delivery is waiting") {
            DeliveryEvent::Deliver(d) => self.on_deliver(d),
            DeliveryEvent::Gap { .. } => self.needs_full_sync = true,
        }
    }

    /// Counts a delivery skipped because a state transfer covered it.
    fn skip(&self) {
        let metrics = &self.shared.cluster.metrics;
        metrics.skipped_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Algorithm 1 lines 3–4 plus queue admission.
    fn on_deliver(&mut self, d: Delivered) {
        let shared = &self.shared;
        let ts = d.ts;
        // Lines 3–4: skip requests already covered by a state transfer.
        if ts.raw() <= shared.last_req.load(Ordering::SeqCst) {
            self.skip();
            return;
        }
        shared.last_req.store(ts.raw(), Ordering::SeqCst);
        if self.needs_full_sync {
            // Everything missed has a smaller timestamp than this delivery;
            // hold it until everything before it drained and a transfer
            // covers it.
            self.needs_full_sync = false;
            self.pending_gap = Some(d);
            return;
        }
        let keys = if self.inline.is_some() {
            Vec::new()
        } else {
            let (_, _, _, payload) = decode_envelope(&d.payload);
            let mut k = shared.cluster.app.conflict_keys(payload);
            k.sort_unstable();
            k.dedup();
            k
        };
        self.done.insert(ts.raw(), false);
        self.queue.push_back(Job {
            d,
            recv_ns: sim::now().as_nanos(),
            keys,
        });
    }

    /// Dispatches [`Self::next_job`] while there is one.
    fn try_dispatch(&mut self) {
        while let Some(i) = self.next_job() {
            let mut job = self.queue.remove(i).expect("a ready job");
            let ts = job.ts();
            if self.covered(&job.d) {
                self.skip();
                // Already below the watermark: drop the entry rather than
                // finish it, so the watermark moves (and wakes the
                // checkpointer) only over finished commands behind it.
                self.done.remove(&ts);
                self.advance_watermark();
                continue;
            }
            let lane = self.free_lane().expect("a free lane");
            // 'e' is pushed at dispatch: the checker reads the trace as
            // the dispatch order, which keeps conflicting commands in
            // timestamp order (and, at width 1, every command).
            self.shared.note_dispatch(ts, &job.keys);
            if let Some(core) = &self.inline {
                // No worker lanes: run the command right here, where a pool
                // would hand it over, resolving a stall by running
                // Algorithm 3's requester side on the spot. Nothing else
                // happens on this replica until it finishes, so it is never
                // "in flight" as far as serves and parks are concerned.
                // (Routing width 1 through one worker instead costs three
                // mailbox hops per command per replica: +14…29 % host time
                // per request, EXPERIMENTS.md "One delivery driver".)
                let shared = &self.shared;
                let done = core.run_command(&job.d, job.recv_ns, &mut |at, stall| {
                    let rid = transfer_for_stalls(shared, &[(at.raw(), &stall)]);
                    stall_outcome(rid, at.raw())
                });
                // The reply write nests under the request span.
                let (reply, _request_span) = done.unzip();
                self.finish(lane, ts, reply);
                continue;
            }
            self.inflight.insert(
                lane,
                InFlight {
                    ts,
                    keys: std::mem::take(&mut job.keys),
                    parked: None,
                },
            );
            let _ = self.lanes[lane].send(ToWorker::Run(job));
        }
    }

    /// Requester-side stall resolution: once every in-flight worker is
    /// parked (dispatch pauses on the first park, so runners drain), the
    /// pool is quiesced-except-parked — parked workers sit at safe points
    /// with no partial writes — and the driver runs Algorithm 3's
    /// requester side on their behalf, then hands each its outcome.
    fn resolve_parks(&mut self) {
        let stalls: Vec<(u64, &Stall)> = self
            .inflight
            .values()
            .map(|f| (f.ts, f.parked.as_ref().expect("all parked")))
            .collect();
        let rid = transfer_for_stalls(&self.shared, &stalls);
        for (worker, f) in self.inflight.iter_mut() {
            f.parked = None;
            let _ = self.lanes[*worker].send(ToWorker::Verdict(stall_outcome(rid, f.ts)));
        }
    }

    /// Completes a Gap recovery once everything before it drained:
    /// transfer until a snapshot covers the held-back delivery, then skip
    /// it. The delivery stalls as [`Stall::Lagging`], which never heals,
    /// so no transfer is withdrawn.
    fn resolve_gap(&mut self) {
        let gap = self.pending_gap.take().expect("a held-back delivery");
        let ts = gap.ts.raw();
        let transfer = || transfer_for_stalls(&self.shared, &[(ts, &Stall::Lagging)]);
        while stall_outcome(transfer(), ts) == StallOutcome::Retry {}
    }

    /// Responder side of Algorithm 3 (lines 7–22): forgets the requests
    /// no longer pending, notes each pending one's first sight and serves
    /// those whose rotation turn has reached us, at an exact boundary
    /// ([`Self::at_boundary`]). One walk in requester order: a request is
    /// first seen when the walk reaches it, after the serves before it
    /// streamed.
    fn serve_transfers(&mut self) {
        let pending = self.pending_requests();
        self.seen_requests.retain(|k, _| pending.contains(k));
        let shared = Rc::clone(&self.shared);
        for p in 0..self.n() {
            if p == shared.idx {
                continue;
            }
            let slot = shared.layout.sync_slot(p);
            if shared.node.local_read_word(slot.offset(8)).unwrap_or(0) != 1 {
                continue;
            }
            let from = shared.node.local_read_word(slot).unwrap_or(0);
            self.seen_requests.entry((p, from)).or_insert_with(sim::now);
            if self.at_boundary() && self.serve_due(&(p, from)) <= Some(sim::now()) {
                respond_transfer(&shared, p, from);
                self.seen_requests.remove(&(p, from));
            }
        }
    }

    /// When our turn comes to serve the transfer request `(requester,
    /// from_tmp)`, or `None` while it is unseen: the rotation counts from
    /// the instant [`Self::serve_transfers`] first saw the request.
    /// Deterministic rotation: requester+1 serves immediately, the
    /// next waits one timeout, and so on (Algorithm 3, line 10 + lines
    /// 19–22).
    fn serve_due(&self, request: &(usize, u64)) -> Option<SimTime> {
        let first_seen = *self.seen_requests.get(request)?;
        let my_rank = (self.shared.idx + self.n() - request.0 - 1) % self.n();
        Some(first_seen + TRANSFER_TIMEOUT * my_rank as u32)
    }

    /// Cold restart, the first thing a driver booted after a power loss
    /// does: rebuild the store from the durable checkpoint, reset the
    /// replica's volatile protocol state to the checkpoint bound, and
    /// queue the ordering WAL tail for replay through the normal admission
    /// path ([`Self::run`] feeds it ahead of live deliveries). Equivalent
    /// to a state transfer whose responder is the disk — the execution
    /// trace restarts with a `('t', bound)` entry and replayed commands
    /// append fresh `'e'` entries past it.
    ///
    /// Without durability there is no checkpoint and no WAL: the store is
    /// re-bootstrapped to time zero and `needs_full_sync` forces the next
    /// delivery to wait for a live-peer transfer covering everything.
    fn cold_restart(&mut self) {
        let shared = Rc::clone(&self.shared);
        let t0 = sim::now();
        // What the replica's processes shared died with them. (This
        // driver's own state is fresh; commands admitted but not
        // dispatched before the cut are in the WAL like every other
        // delivery, and come back through the replay.)
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
        shared.last_req.store(bound, Ordering::SeqCst);
        shared.set_completed(bound);
        if bound > 0 {
            shared.exec_trace.lock().push((bound, 't'));
        }
        publish_progress(&shared);
        // With durability the WAL speaks for everything delivered past the
        // bound (bound 0 = since genesis, before the first checkpoint), so
        // replay alone restores us. Without it, nothing does: hold
        // execution until a live-peer transfer covers the next delivery.
        self.needs_full_sync = shared.disk.is_none();
        // The WAL tail past the bound replays through the normal delivery
        // path — the second component of recovery time. Deliveries the
        // ordering replica re-sends (or that were already sitting in our
        // mailbox) re-appear with timestamps the replay has covered and
        // are skipped by the `last_req` watermark.
        let group = amcast::GroupId(shared.partition.0);
        let tail = shared.cluster.mcast.wal_tail(group, shared.idx, bound);
        let span = sim::trace::span_args(
            "recover.cold",
            bound,
            &[("bound", bound), ("tail", tail.len() as u64)],
        );
        self.replay = Some(Replay {
            metrics: Arc::clone(&shared.cluster.metrics),
            t0,
            frames: tail.len(),
            tail: tail.into(),
            _span: span,
        });
    }

    /// Blocks until a guard [`Self::pass`] acts on holds. It waits on
    /// the guards that read an input — the rest can only turn true through
    /// an action — and on the deadlines of the time-driven one, a seen
    /// request's rotation turn ([`Self::serve_due`]): never busy-wait on a
    /// request that is not yet our turn.
    fn idle_wait(&self) {
        let now = sim::now();
        // Only future turns shorten the wait. A past-due serve still pending
        // here waits for the in-flight commands (with none in flight, a
        // hole below a finished command is always dispatchable), and its
        // wake signal is a worker event; a zero timeout would return
        // without yielding and freeze the cooperative scheduler.
        let timeout = (self.pending_requests().iter())
            .filter_map(|k| self.serve_due(k)?.checked_sub(now))
            .filter(|until_due| !until_due.is_zero())
            .fold(Duration::from_millis(10), Duration::min);
        // `events` was built on the poller's condition (`spawn_driver`) and
        // `deliveries` owns it, so both mailboxes ring this wait directly;
        // transfer requests land in the subscribed statesync entries.
        self.shared.poller.poll_until_timeout(
            || self.events_waiting() || self.delivery_waiting() || self.request_unseen(),
            timeout,
        );
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
            let ToWorker::Run(job) = self.inbox.recv() else {
                panic!("a verdict for worker {} with nothing parked", self.index);
            };
            let done = core.run_command(&job.d, job.recv_ns, &mut |ts, stall| self.park(ts, stall));
            // The request span ends here, on the process that ran the
            // command; the driver posts the reply.
            let reply = done.map(|(reply, _request_span)| reply);
            let _ = self.events.send(WorkerEvent::Done {
                worker: self.index,
                ts: job.d.ts.raw(),
                reply,
            });
        }
    }

    /// Parks the stalled command `ts` and awaits the driver's verdict.
    fn park(&self, ts: Timestamp, reason: Stall) -> StallOutcome {
        // The park's whole duration is observable: a `pool.park` span nested
        // under the stalled command's span (`explain::request_paths` carves
        // it out of that stage), and a parked wait-state for the profiler.
        let lagging = matches!(reason, Stall::Lagging);
        let label = if lagging { "lagging" } else { "phase2_starved" };
        let _span = sim::trace::span_args(
            "pool.park",
            0,
            &[
                ("ts", ts.raw()),
                ("worker", self.index as u64),
                ("lagging", u64::from(lagging)),
            ],
        );
        let _wait = sim::prof::parked_scope(label);
        let _ = self.events.send(WorkerEvent::Parked {
            worker: self.index,
            ts: ts.raw(),
            reason,
        });
        let ToWorker::Verdict(outcome) = self.inbox.recv() else {
            panic!("a job for parked worker {}", self.index);
        };
        outcome
    }
}

/// One replica's delivery driver and, above width 1, its `width` workers.
/// Width 1 has no worker: the driver is its own (inline) lane 0.
fn build_driver(
    shared: Rc<ReplicaShared>,
    deliveries: Mailbox<DeliveryEvent>,
) -> (Driver, Vec<Worker>) {
    let width = shared.cluster.cfg.executor_width;
    let workers = if width > 1 { width } else { 0 };
    // Worker events ring the driver's own wait point: its idle wait
    // watches this mailbox next to the delivery stream and polled memory.
    let events: Mailbox<WorkerEvent> = Mailbox::with_cond(shared.poller.cond().clone());
    let lanes: Vec<Mailbox<ToWorker>> = (0..workers).map(|_| Mailbox::new()).collect();
    let driver = Driver {
        shared: Rc::clone(&shared),
        deliveries,
        inline: (workers == 0).then(|| ExecCore {
            shared: Rc::clone(&shared),
            lane: 0,
            poller: shared.poller.clone(),
        }),
        events: events.clone(),
        lanes: lanes.clone(),
        queue: VecDeque::new(),
        inflight: BTreeMap::new(),
        done: BTreeMap::new(),
        seen_requests: HashMap::new(),
        needs_full_sync: false,
        pending_gap: None,
        last_replied: HashMap::new(),
        replay: None,
    };
    let workers = (0..workers)
        .map(|k| Worker {
            shared: Rc::clone(&shared),
            index: k,
            inbox: lanes[k].clone(),
            events: events.clone(),
        })
        .collect();
    (driver, workers)
}

/// Spawns one replica's delivery driver as `heron-exec-p{p}r{i}` and its
/// workers, if any, as `heron-exec-p{p}r{i}w{k}`.
pub(crate) fn spawn_driver(
    boot: &rdma_sim::Boot<'_>,
    shared: Rc<ReplicaShared>,
    deliveries: Mailbox<DeliveryEvent>,
    p: usize,
    i: usize,
) {
    let (driver, workers) = build_driver(shared, deliveries);
    boot.spawn(format!("heron-exec-p{p}r{i}"), move || driver.run());
    for (k, worker) in workers.into_iter().enumerate() {
        boot.spawn(format!("heron-exec-p{p}r{i}w{k}"), move || worker.run());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::Execution;
    use crate::{HeronCluster, HeronConfig, StateMachine};
    use rdma_sim::{Fabric, LatencyModel};
    use sim::trace::EventKind;

    /// One partition, no objects: enough of an application to build a
    /// cluster around a [`Driver`].
    struct Stateless;

    impl StateMachine for Stateless {
        fn placement(&self, _oid: ObjectId) -> Placement {
            Placement::Partition(PartitionId(0))
        }
        fn destinations(&self, _request: &[u8]) -> Vec<PartitionId> {
            vec![PartitionId(0)]
        }
        fn read_set(&self, _request: &[u8]) -> Vec<ObjectId> {
            vec![]
        }
        fn execute(
            &self,
            _partition: PartitionId,
            _request: &[u8],
            _reads: &ReadSet,
            _local: &dyn LocalReader,
        ) -> Execution {
            Execution::default()
        }
        fn bootstrap(&self, _partition: PartitionId) -> Vec<(ObjectId, Bytes)> {
            vec![]
        }
    }

    /// Runs `check` inside a simulation, on replica (0, 0)'s driver of an
    /// unspawned 1 × 3 cluster of the given width.
    fn with_driver(width: usize, check: impl FnOnce(&HeronCluster, &mut Driver) + 'static) {
        let simulation = sim::Simulation::new(1);
        let fabric = Fabric::new(LatencyModel::connectx4());
        let cfg = HeronConfig::new(1, 3).with_executor_width(width);
        let cluster = HeronCluster::build(&fabric, cfg, std::sync::Arc::new(Stateless));
        simulation.spawn("driver", move || {
            let shared = Rc::clone(&cluster.replicas[0][0]);
            let (mut driver, _workers) = build_driver(shared, Mailbox::new());
            check(&cluster, &mut driver);
        });
        simulation.run().unwrap();
    }

    /// What admission and `try_dispatch` do to the driver's books when
    /// `ts`, with conflict keys `keys`, goes straight to a lane: a worker's
    /// lane is in flight until it finishes, the inline lane never is.
    fn dispatch(driver: &mut Driver, ts: u64, keys: &[u64]) -> usize {
        let lane = driver.free_lane().expect("a free lane");
        driver.done.insert(ts, false);
        if driver.inline.is_none() {
            let f = InFlight {
                ts,
                keys: keys.to_vec(),
                parked: None,
            };
            driver.inflight.insert(lane, f);
        }
        lane
    }

    /// Admits `ts` to the queue as [`Driver::on_deliver`] does, with
    /// conflict keys `keys` (sorted), addressed to `partitions` partitions.
    fn admit(driver: &mut Driver, ts: u64, keys: &[u64], partitions: u32) {
        let d = Delivered {
            id: amcast::MsgId(ts as u32),
            ts: Timestamp::from_raw(ts),
            dests: (1 << partitions) - 1,
            payload: Bytes::new(),
        };
        driver.done.insert(ts, false);
        let keys = keys.to_vec();
        driver.queue.push_back(Job {
            d,
            recv_ns: 0,
            keys,
        });
    }

    /// The timestamp [`Driver::next_job`] picks.
    fn next_ts(driver: &Driver) -> Option<u64> {
        driver.next_job().map(|i| driver.queue[i].ts())
    }

    /// Dispatches what [`Driver::try_dispatch`] will, and returns the
    /// timestamps it put in flight, by lane.
    fn dispatch_ready(driver: &mut Driver) -> Vec<(usize, u64)> {
        let before: Vec<usize> = driver.inflight.keys().copied().collect();
        driver.try_dispatch();
        (driver.inflight.iter())
            .filter(|(lane, _)| !before.contains(lane))
            .map(|(&lane, f)| (lane, f.ts))
            .collect()
    }

    fn completed(driver: &Driver) -> u64 {
        driver.shared.completed_req.load(Ordering::SeqCst)
    }

    /// The front conflicts with a running command; the command behind it
    /// conflicts with neither and goes first.
    #[test]
    fn an_independent_job_overtakes_a_blocked_front() {
        with_driver(4, |_, driver| {
            dispatch(driver, 5, &[1]);
            admit(driver, 10, &[1], 1);
            admit(driver, 20, &[2], 1);
            assert_eq!(next_ts(driver), Some(20));
            assert_eq!(dispatch_ready(driver), [(1, 20)]);
            assert_eq!(next_ts(driver), None, "10 still waits for 5");
        });
    }

    /// A command that conflicts with an earlier queued one waits behind
    /// it, even when nothing in flight conflicts with it.
    #[test]
    fn a_job_never_overtakes_an_earlier_queued_job_it_conflicts_with() {
        with_driver(4, |_, driver| {
            dispatch(driver, 5, &[1]);
            admit(driver, 10, &[1, 2], 1);
            admit(driver, 20, &[2], 1);
            admit(driver, 30, &[3], 1);
            assert_eq!(dispatch_ready(driver), [(1, 30)]);
            driver.finish(0, 5, None);
            assert_eq!(dispatch_ready(driver), [(0, 10)], "20 waits for 10");
            driver.finish(0, 10, None);
            assert_eq!(dispatch_ready(driver), [(0, 20)]);
        });
    }

    /// Multi-partition commands start in delivery order among themselves,
    /// independent or not; a single-partition command may pass them.
    #[test]
    fn a_multi_partition_job_never_overtakes_an_earlier_queued_one() {
        with_driver(4, |_, driver| {
            dispatch(driver, 5, &[1]);
            admit(driver, 10, &[1], 2);
            admit(driver, 20, &[2], 2);
            admit(driver, 30, &[3], 1);
            assert_eq!(dispatch_ready(driver), [(1, 30)]);
            driver.finish(0, 5, None);
            let started = dispatch_ready(driver);
            assert_eq!(started, [(0, 10), (2, 20)], "10, then 20 behind it");
        });
    }

    /// A command dispatched past a queued one finishes first; the
    /// watermark stops below the queued one until it finishes too.
    #[test]
    fn the_watermark_never_covers_an_admitted_job_not_yet_dispatched() {
        with_driver(4, |_, driver| {
            dispatch(driver, 5, &[1]);
            admit(driver, 10, &[1], 1);
            admit(driver, 20, &[2], 1);
            assert_eq!(dispatch_ready(driver), [(1, 20)]);
            driver.finish(1, 20, None);
            assert_eq!(completed(driver), 0, "5 is still running");
            driver.finish(0, 5, None);
            assert_eq!(completed(driver), 5, "10 is admitted, not dispatched");
            assert_eq!(dispatch_ready(driver), [(0, 10)]);
            driver.finish(0, 10, None);
            assert_eq!(completed(driver), 20);
            assert!(driver.done.is_empty());
        });
    }

    /// A responder serves only at an exact boundary. While a finished
    /// command sits above the watermark it refuses, and dispatch only fills
    /// the holes below that command.
    #[test]
    fn a_serve_waits_while_a_finished_command_sits_above_the_watermark() {
        with_driver(4, |_, driver| {
            dispatch(driver, 5, &[1]);
            admit(driver, 10, &[1], 1);
            admit(driver, 20, &[2], 1);
            assert_eq!(dispatch_ready(driver), [(1, 20)]);
            driver.finish(1, 20, None);
            driver.finish(0, 5, None);
            // Replica 2 asks for a transfer; replica 0 is first in its
            // rotation, so the serve is due at once.
            let (node, sync) = (&driver.shared.node, driver.shared.layout.sync_slot(2));
            node.local_write_word(sync, 5).unwrap();
            node.local_write_word(sync.offset(8), 1).unwrap();
            driver.seen_requests.insert((2, 5), sim::now());
            assert!(driver.serve_turn());
            assert!(driver.inflight.is_empty());
            assert_eq!(completed(driver), 5);
            assert!(!driver.at_boundary(), "20 finished above the watermark");
            assert!(!driver.requests_moved(), "no serve past a hole");
            admit(driver, 30, &[3], 1);
            assert_eq!(dispatch_ready(driver), [(0, 10)], "only the hole");
            driver.finish(0, 10, None);
            assert_eq!(completed(driver), 20);
            assert!(driver.at_boundary() && driver.requests_moved());
            assert_eq!(next_ts(driver), Some(30), "at the boundary, no limit");
        });
    }

    /// `completed_req` is a responder's snapshot bound: completions
    /// arriving out of dispatch order never let it cover a timestamp that
    /// is still running.
    #[test]
    fn finish_never_lets_the_watermark_cover_an_unfinished_command() {
        with_driver(4, |_, driver| {
            let lanes = [10, 20, 30].map(|ts| dispatch(driver, ts, &[]));
            assert_eq!(lanes, [0, 1, 2], "the lowest free lane is picked");
            assert_eq!(driver.free_lane(), Some(3));
            driver.finish(lanes[1], 20, None);
            assert_eq!(completed(driver), 0, "10 is still running");
            driver.finish(lanes[2], 30, None);
            assert_eq!(completed(driver), 0, "10 is still running");
            driver.finish(lanes[0], 10, None);
            assert_eq!(completed(driver), 30, "the whole prefix finished");
            assert!(driver.inflight.is_empty(), "every lane came back");
            assert_eq!(driver.free_lane(), Some(0));
            assert!(driver.done.is_empty());
        });
    }

    /// Completions in dispatch order — the only order the inline lane
    /// produces — advance the watermark one command at a time.
    #[test]
    fn finish_in_dispatch_order_advances_the_watermark_per_command() {
        with_driver(1, |_, driver| {
            for ts in [10, 20, 30] {
                let lane = dispatch(driver, ts, &[]);
                assert_eq!(lane, 0, "the inline lane");
                assert!(driver.inflight.is_empty(), "never in flight");
                driver.finish(lane, ts, None);
                assert_eq!(driver.shared.completed_req.load(Ordering::SeqCst), ts);
            }
        });
    }

    /// Both lanes share the reply guard: a reply whose seq is not above the
    /// highest already posted for its client is not posted, at width 1
    /// either (it would regress the seq word of the client's one response
    /// slot for this replica).
    #[test]
    fn finish_does_not_post_a_stale_reply_on_the_inline_lane() {
        with_driver(1, |cluster, driver| {
            let client = cluster.client("c");
            let (client_node, slot) = {
                let clients = cluster.inner.clients.lock();
                let info = &clients[&client.id()];
                let slot = resp_slot(info.resp_base, 0, 0, 3);
                (cluster.inner.fabric.node(info.node), slot)
            };
            let posted = |seq, body: &'static [u8]| {
                Some(Reply {
                    client_id: client.id(),
                    seq,
                    response: Bytes::from_static(body),
                })
            };
            for (ts, seq, body, expect) in [
                (10, 5, b"new".as_slice(), 5),
                (20, 4, b"old".as_slice(), 5),
                (30, 6, b"newer".as_slice(), 6),
            ] {
                let lane = dispatch(driver, ts, &[]);
                driver.finish(lane, ts, posted(seq, body));
                sim::sleep(Duration::from_micros(10)); // the write lands
                let seq_word = client_node.local_read_word(slot).unwrap();
                assert_eq!(seq_word, expect, "after the reply to seq {seq}");
            }
        });
    }

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
