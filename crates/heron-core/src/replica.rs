//! The state-transfer protocol of Algorithm 3, and the coordination-memory
//! reads of Algorithm 1, as free functions.
//!
//! Nothing here owns a process. The replica's one delivery driver
//! ([`crate::executor::Driver`]) runs both sides of the transfer protocol
//! from its loop — the requester side for its own inline lane or on its
//! parked workers' behalf, the responder side whenever nothing is in
//! flight — and every [`crate::executor::ExecCore`] lane reads barrier
//! state through [`coord_quorum`].

use crate::cluster::ReplicaShared;
use crate::layout::{encode_chunk_header, encode_record, encode_sync, CHUNK_HDR};
use crate::metrics::TransferRecord;
use crate::types::{ObjectId, PartitionId, StorageKind};
use amcast::Timestamp;
use rdma_sim::MemView;
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

// ----------------------------------------------------------------------
// Algorithm 3: state transfer.
// ----------------------------------------------------------------------

/// Requester side: ask the group for our missing state and wait until
/// a responder completes it. Returns the responder's snapshot bound
/// (raw timestamp): every request up to and including it is reflected
/// in our state afterwards.
pub(crate) fn state_transfer(shared: &Arc<ReplicaShared>) -> u64 {
    state_transfer_abortable(shared, &|| false).expect("non-abortable transfer always completes")
}

/// [`state_transfer`] with an escape hatch: between responder
/// re-arms, if `abort()` reports that the condition we fell back from
/// has healed (e.g. a coordination barrier's entries arrived late
/// rather than never), the request is withdrawn and `None` returned.
///
/// Without this, a whole partition can deadlock: every executor that
/// misses a barrier by a hair falls into the transfer fallback, and
/// since responders only serve from the executor main loop, replicas
/// stuck in the fallback can never serve each other.
///
/// Withdrawal only happens while the request is provably untouched —
/// our own status word is still 1 (armed, unclaimed; responders claim
/// with a remote CAS on it, and the read-then-reset below is atomic in
/// the cooperative simulation) and no chunk of this transfer has been
/// applied — so a partially-applied snapshot can never be abandoned.
pub(crate) fn state_transfer_abortable(
    shared: &Arc<ReplicaShared>,
    abort: &dyn Fn() -> bool,
) -> Option<u64> {
    let cfg = &shared.cluster.cfg;
    let n = cfg.replicas_per_partition;
    let metrics = &shared.cluster.metrics;
    metrics.transfers_started.fetch_add(1, Ordering::Relaxed);
    let t0 = sim::now();
    let my_sync = shared.layout.sync_slot(shared.idx);
    'retry: loop {
        let from = shared.completed_req.load(Ordering::SeqCst);
        {
            let mut prog = shared.transfer.lock();
            prog.expected = 1;
            prog.bytes = 0;
            prog.native_bytes = 0;
            prog.stream_bound = None;
        }
        // Zero the staging ring stamps so stale chunks are not
        // re-applied.
        for k in 1..=cfg.transfer_slots as u64 {
            let _ = shared.node.local_write_word(shared.layout.ring_slot(k), 0);
        }
        let _ = shared.node.local_write_word(shared.layout.applied, 0);
        // Lines 2–4: write (from, status=1) into our entry on every
        // group member.
        let entry = encode_sync(from, 1);
        loop {
            for q in 0..n {
                shared.write_to(shared.partition, q, my_sync, &entry);
            }
            // Line 5: wait for a responder to flip status back to 0
            // (the low bits; the high bits carry the chunk count).
            let done = shared.poller.poll_until_timeout(
                || {
                    shared
                        .node
                        .local_read_word(my_sync.offset(8))
                        .map(|st| st & 3 == 0)
                        .unwrap_or(false)
                },
                cfg.transfer_timeout,
            );
            if done {
                break;
            }
            if abort() {
                let status = shared.node.local_read_word(my_sync.offset(8)).unwrap_or(0);
                let untouched = {
                    let prog = shared.transfer.lock();
                    prog.stream_bound.is_none() && prog.bytes == 0
                };
                if status == 1 && untouched {
                    // Withdraw: reset our own status word first (kills
                    // any in-flight responder claim — the CAS on it
                    // will now fail), then clear our entry on every
                    // peer so their serve loops stop raising it.
                    let _ = shared.node.local_write(my_sync, &encode_sync(0, 0));
                    shared.transfer.lock().expected = 0;
                    let clear = encode_sync(0, 0);
                    for q in 0..n {
                        let target = shared.peer(shared.partition, q);
                        if target.id() != shared.node.id() {
                            let _ = shared
                                .peer_qp(shared.partition, q)
                                .post_write(my_sync, clear.to_vec());
                        }
                    }
                    return None;
                }
            }
            // Timeout: the selected responder may have failed; re-arm
            // (the rotation on the responder side picks the next one).
        }
        // Every chunk landed before the status flip (FIFO), but the
        // service process still needs time to *apply* them — wait for
        // it. A timeout here means a racing responder's stale chunk
        // clobbered one of ours: redo the transfer.
        let chunks = shared
            .node
            .local_read_word(my_sync.offset(8))
            .expect("own sync word")
            >> 2;
        // `expected` is the service process's counter, not node memory:
        // its wake source is the `applied` word the service writes right
        // after every bump.
        let applied = shared.poller.poll_until_timeout(
            || shared.transfer.lock().expected > chunks,
            cfg.transfer_timeout,
        );
        if !applied {
            continue 'retry;
        }
        // Race-detector edge: read the applied watermark — the service
        // process's last instrumented write — so every chunk it applied
        // happens-before our subsequent execution and coordination
        // writes (and, transitively, before any remote reader that
        // observes our next coordination entry). Free when the
        // detector is off: a local read costs no virtual time.
        let _ = shared.node.local_read_word(shared.layout.applied);
        // Line 6: adopt the responder's request id — but only if it
        // matches the stream we actually applied. A mismatch means two
        // responders raced (one was slow, the rotation fired) and we
        // may hold a mix of their snapshots; redo the transfer from
        // our current position.
        let rid = shared.node.local_read_word(my_sync).expect("own sync word");
        let stream = {
            let mut prog = shared.transfer.lock();
            prog.expected = 0; // disarm: late chunks are dropped
            prog.stream_bound
        };
        if let Some(bound) = stream {
            if bound != rid {
                continue 'retry;
            }
        }
        shared.exec_trace.lock().push((rid, 't'));
        let cur = shared.last_req.load(Ordering::SeqCst);
        shared.last_req.store(cur.max(rid), Ordering::SeqCst);
        let curc = shared.completed_req.load(Ordering::SeqCst);
        shared.set_completed(curc.max(rid));
        publish_progress(shared);
        let prog = shared.transfer.lock();
        metrics.transfers.lock().push(TransferRecord {
            bytes: prog.bytes,
            duration_ns: (sim::now() - t0).as_nanos() as u64,
            native_bytes: prog.native_bytes,
        });
        return Some(rid);
    }
}

/// Streams the replica's state since `from` to the requester in 32 KiB
/// chunks, then clears the status entry everywhere (Algorithm 3,
/// lines 11–18).
pub(crate) fn respond_transfer(shared: &Arc<ReplicaShared>, requester: usize, from: u64) {
    let cfg = &shared.cluster.cfg;
    let n = cfg.replicas_per_partition;
    // Claim the transfer with a remote CAS on the requester's status
    // word (1 → 2): exactly one responder streams at a time, even if
    // the rotation timeout fires while a slow responder is mid-stream.
    let target = shared.peer(shared.partition, requester);
    let status_addr = shared.layout.sync_slot(requester).offset(8);
    let qp = shared.peer_qp(shared.partition, requester);
    match qp.compare_and_swap(status_addr, 1, 2) {
        Ok(1) => {}
        _ => return, // claimed by someone else, completed, or crashed
    }
    // Snapshot at a request boundary. `in_write_phase` counts lanes
    // currently inside a writing phase; the driver only serves once nothing
    // is in flight, so it already stands at such a boundary.
    debug_assert_eq!(shared.in_write_phase.load(Ordering::SeqCst), 0);
    let bound = shared.completed_req.load(Ordering::SeqCst);
    // Line 12: the update log bounds what must be synchronized — unless
    // the checkpointer truncated it past the requester's position, in
    // which case the log no longer covers the deficit and we ship full
    // state (transfer-from-checkpoint's live-peer analogue). The floor
    // read and the log scan have no yield between them, and the
    // checkpointer raises the floor before shrinking the log, so a
    // truncated log is never mistaken for a complete diff.
    let floor = shared.log_floor.load(Ordering::SeqCst);
    let oids: BTreeSet<ObjectId> = if from < floor {
        shared.store.object_ids().into_iter().collect()
    } else {
        shared
            .log
            .lock()
            .iter()
            .filter(|(ts, _)| *ts > from)
            .map(|(_, oid)| *oid)
            .collect()
    };
    let app = &shared.cluster.app;
    let chunk_cap = cfg.transfer_chunk;
    let mut chunk_body: Vec<u8> = Vec::with_capacity(chunk_cap);
    let mut stamp = 1u64;
    // Flushes one chunk. Returns `false` — abandoning the serve — if
    // the requester stops applying (its staging ring was poisoned by a
    // stale chunk of an earlier aborted transfer, or it crashed). The
    // requester's retry loop re-arms the request and the rotation will
    // serve it again; never spin on a wedged receiver, or the whole
    // partition loses this replica.
    let flush = |body: &mut Vec<u8>, stamp: &mut u64| -> bool {
        if body.is_empty() {
            return true;
        }
        // Flow control: never run more than the ring size ahead of the
        // requester's applied counter.
        if *stamp > cfg.transfer_slots as u64 {
            let deadline = sim::now() + cfg.transfer_timeout;
            let watermark = loop {
                let Ok(applied) = qp.read_word(shared.layout.applied) else {
                    return false; // requester crashed
                };
                if *stamp <= applied + cfg.transfer_slots as u64 {
                    break applied;
                }
                if sim::now() >= deadline {
                    return false; // no progress: abandon this serve
                }
            };
            // Protocol lint (regression guard): posting past the
            // applied watermark would overwrite a staged chunk the
            // requester's service has not consumed yet — it would land
            // inside the requester's live read window. The wait above
            // makes this unreachable; the lint keeps its own
            // comparison so it trips immediately if a change ever
            // breaks the flow-control condition.
            if let Some(det) = shared.cluster.detector.as_ref() {
                if *stamp > watermark + cfg.transfer_slots as u64 {
                    let slot = shared.layout.ring_slot(*stamp);
                    det.report_lint(
                        "state-transfer chunk overlaps a live read window",
                        target,
                        "ring",
                        (slot.0, slot.0 + (CHUNK_HDR + chunk_cap) as u64),
                        None,
                        format!(
                            "chunk {} posted while the requester had only applied \
                             {} of a {}-slot staging ring",
                            *stamp, watermark, cfg.transfer_slots
                        ),
                    );
                }
            }
        }
        let mut buf = Vec::with_capacity(CHUNK_HDR + body.len());
        buf.extend_from_slice(&encode_chunk_header(*stamp, body.len(), bound));
        buf.extend_from_slice(body);
        let _ = qp.post_write(shared.layout.ring_slot(*stamp), buf);
        *stamp += 1;
        body.clear();
        true
    };
    for oid in oids {
        let Some(slot) = shared.store.slot(oid) else {
            continue;
        };
        let raw = shared.store.raw_slot_bytes(slot);
        // Native objects must be serialized before shipping
        // (paper §V-E2, second scenario).
        if app.storage_kind(oid) == StorageKind::Native {
            sim::sleep_ns(raw.len() as u64 * cfg.ser_ns_per_kib / 1024);
        }
        let record = encode_record(oid, &raw);
        if chunk_body.len() + record.len() > chunk_cap && !flush(&mut chunk_body, &mut stamp) {
            return;
        }
        assert!(
            record.len() <= chunk_cap,
            "object slot larger than a transfer chunk; raise transfer_chunk"
        );
        chunk_body.extend_from_slice(&record);
    }
    if !flush(&mut chunk_body, &mut stamp) {
        return;
    }
    // Lines 16–17: announce completion to the whole group. FIFO RC
    // delivery guarantees the requester sees every chunk before the
    // status flip; the chunk count rides in the status word's high
    // bits so the requester can wait until its service process has
    // *applied* them all (application costs time for natively-stored
    // objects).
    let chunks = stamp - 1;
    let entry = encode_sync(bound, chunks << 2);
    let sync = shared.layout.sync_slot(requester);
    for q in 0..n {
        shared.write_to(shared.partition, q, sync, &entry);
    }
}

/// What our coordination memory shows of replica `q` of partition `h` for
/// the request at `ts`: `(matches, counts)`.
///
/// With an executor pool each replica owns `coord_width` lanes — one
/// `(tmp, phase)` entry per worker. A peer *matches* if any of its lanes
/// holds `(ts, ≥phase)` (the worker executing `r` has coordinated and not
/// moved past it — that lane's predecessors all completed, and
/// conflict-ordered dispatch guarantees no conflicting successor has
/// started on any lane).
///
/// A peer without a matching lane still *counts* towards a barrier on
/// evidence it already finished `r`, and the evidence differs by width. At
/// width 1 execution is in delivery order, so a lane beyond `ts` implies `r`
/// completed there — the paper's single-entry condition, bit for bit. At
/// width > 1 that inference is unsound: a later non-conflicting command
/// can be dispatched to another worker and coordinate while `r` is still
/// running (or parked) — counting its lane would let a Phase-4 barrier
/// pass with no replica of the peer partition having executed `r`, after
/// which the peers recycle their lanes and `r`'s own remote reads find no
/// candidates (the all-`Lagging` livelock). Instead the pool publishes a
/// hole-free completed-prefix watermark ([`publish_progress`]) into every
/// replica's progress region, and a peer counts only when its watermark
/// reaches `ts` — which also covers a peer whose command was superseded
/// by a state transfer and never wrote a lane entry at all.
fn peer_coordinated(
    shared: &ReplicaShared,
    m: &MemView<'_>,
    h: PartitionId,
    q: usize,
    ts: Timestamp,
    phase: u64,
) -> (bool, bool) {
    let n = shared.cluster.cfg.replicas_per_partition;
    let width = shared.layout.coord_width;
    let word = |addr| m.word(addr).unwrap_or(0);
    let mut lane_match = false;
    let mut lane_beyond = false;
    for lane in 0..width {
        let slot = shared.layout.coord_slot(h.0 as usize, q, lane, n);
        let tmp = word(slot);
        let ph = word(slot.offset(8));
        if tmp == ts.raw() && ph >= phase {
            lane_match = true;
        } else if tmp > ts.raw() {
            lane_beyond = true;
        }
    }
    let finished_evidence = if width == 1 {
        lane_beyond
    } else {
        word(shared.layout.progress_slot(h.0 as usize, q, n)) >= ts.raw()
    };
    (lane_match, lane_match || finished_evidence)
}

/// The Phase 2/4 barrier over the replica's own coordination memory:
/// whether `(a majority, everyone)` of every partition in `dests` counts
/// as coordinated at `(ts, phase)` (see [`peer_coordinated`]). A free
/// function so the barrier can be re-checked from inside the
/// state-transfer fallback without re-borrowing the executor; one borrow
/// and no allocation, because every barrier wake-up re-evaluates it.
pub(crate) fn coord_quorum(
    shared: &ReplicaShared,
    dests: &[PartitionId],
    ts: Timestamp,
    phase: u64,
) -> (bool, bool) {
    let n = shared.cluster.cfg.replicas_per_partition;
    let majority = shared.cluster.cfg.majority();
    shared.node.with_mem(|m| {
        let mut all_majority = true;
        let mut all_everyone = true;
        for &h in dests {
            let ok = (0..n)
                .filter(|&q| peer_coordinated(shared, m, h, q, ts, phase).1)
                .count();
            all_majority &= ok >= majority;
            all_everyone &= ok == n;
        }
        (all_majority, all_everyone)
    })
}

/// The replicas of `h` holding a lane at `ts` (Phase 2 or later): they
/// executed everything before the request and have not moved past it, so a
/// remote read may target them.
pub(crate) fn coord_matching(shared: &ReplicaShared, h: PartitionId, ts: Timestamp) -> Vec<usize> {
    let n = shared.cluster.cfg.replicas_per_partition;
    shared.node.with_mem(|m| {
        (0..n)
            .filter(|&q| peer_coordinated(shared, m, h, q, ts, 1).0)
            .collect()
    })
}

/// Publishes this replica's hole-free completed prefix (`completed_req`)
/// into the progress region of every replica of every partition — the
/// finished-evidence [`peer_coordinated`] consults at width > 1. Nothing is
/// posted at width 1: the single in-order lane already carries the same
/// information, and the paper's single-entry schedule must stay
/// bit-identical.
///
/// Only the driver process publishes (worker completions funnel through
/// its watermark, and state transfers run on it), so the posted values
/// are monotonic per QP.
pub(crate) fn publish_progress(shared: &Arc<ReplicaShared>) {
    // Completed-prefix watermark advanced: progress for the explorer's
    // zero-virtual-time livelock guards (regardless of whether the value
    // is also published to peers below).
    sim::note_progress();
    if shared.layout.coord_width == 1 {
        return;
    }
    let n = shared.cluster.cfg.replicas_per_partition;
    let slot = shared
        .layout
        .progress_slot(shared.partition.0 as usize, shared.idx, n);
    let buf = shared.completed_req.load(Ordering::SeqCst).to_le_bytes();
    for h in 0..shared.cluster.cfg.partitions {
        for q in 0..n {
            shared.write_to(PartitionId(h as u16), q, slot, &buf);
        }
    }
}

/// The `(requester idx, from_tmp)` of every state-transfer request
/// currently raised in this replica's statesync memory, read through `m`.
pub(crate) fn pending_sync_requests<'a>(
    shared: &'a ReplicaShared,
    m: &'a MemView<'a>,
) -> impl Iterator<Item = (usize, u64)> + 'a {
    let n = shared.cluster.cfg.replicas_per_partition;
    (0..n).filter(|&p| p != shared.idx).filter_map(move |p| {
        let slot = shared.layout.sync_slot(p);
        let status = m.word(slot.offset(8)).unwrap_or(0);
        (status == 1).then(|| (p, m.word(slot).unwrap_or(0)))
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{Execution, HeronCluster, HeronConfig, LocalReader, ReadSet, StateMachine};
    use proptest::prelude::*;
    use rdma_sim::{Fabric, LatencyModel};

    /// Hosts nothing: for tests that only need a replica's registered memory.
    pub(crate) struct NoObjects;

    impl StateMachine for NoObjects {
        fn placement(&self, _: ObjectId) -> crate::Placement {
            crate::Placement::Replicated
        }
        fn destinations(&self, _: &[u8]) -> Vec<PartitionId> {
            vec![PartitionId(0)]
        }
        fn read_set(&self, _: &[u8]) -> Vec<ObjectId> {
            Vec::new()
        }
        fn execute(&self, _: PartitionId, _: &[u8], _: &ReadSet, _: &dyn LocalReader) -> Execution {
            Execution::default()
        }
        fn bootstrap(&self, _: PartitionId) -> Vec<(ObjectId, bytes::Bytes)> {
            Vec::new()
        }
    }

    const PARTITIONS: usize = 3;
    const N: usize = 3;

    /// The barrier rule, one `local_read_word` per probe: does replica `q`
    /// of `h` hold a lane at `(ts, ≥ phase)`, and failing that, is there
    /// evidence it finished `ts` — a lane beyond it at width 1, its
    /// progress watermark at width > 1?
    fn peer_word_by_word(
        s: &ReplicaShared,
        h: usize,
        q: usize,
        ts: u64,
        phase: u64,
    ) -> (bool, bool) {
        let word = |addr| s.node.local_read_word(addr).unwrap();
        let width = s.layout.coord_width;
        let lanes: Vec<(u64, u64)> = (0..width)
            .map(|lane| s.layout.coord_slot(h, q, lane, N))
            .map(|slot| (word(slot), word(slot.offset(8))))
            .collect();
        let matches = lanes.iter().any(|&(tmp, ph)| tmp == ts && ph >= phase);
        let finished = if width == 1 {
            lanes.iter().any(|&(tmp, _)| tmp > ts)
        } else {
            word(s.layout.progress_slot(h, q, N)) >= ts
        };
        (matches, matches || finished)
    }

    #[test]
    fn barrier_reads_agree_with_a_word_by_word_oracle() {
        let mut rng = proptest::TestRng::deterministic("heron::coord_quorum");
        for width in [1, 4] {
            let mut cfg = HeronConfig::new(PARTITIONS, N).with_executor_width(width);
            (cfg.mcast.log_slots, cfg.mcast.ctrl_slots) = (16, 16);
            let fabric = Fabric::new(LatencyModel::connectx4());
            let cluster = HeronCluster::build(&fabric, cfg, Arc::new(NoObjects));
            let s = &*cluster.replicas[1][2];
            let mut verdicts = [0usize; 4];
            for _ in 0..300 {
                // Every lane and watermark around `ts`, every phase word
                // around `phase`.
                let ts = (2u64..6).generate(&mut rng);
                let phase = (1u64..=2).generate(&mut rng);
                for h in 0..PARTITIONS {
                    for q in 0..N {
                        for lane in 0..width {
                            let slot = s.layout.coord_slot(h, q, lane, N);
                            let entry = (ts - 2..ts + 2, 0u64..3).generate(&mut rng);
                            s.node.local_write_word(slot, entry.0).unwrap();
                            s.node.local_write_word(slot.offset(8), entry.1).unwrap();
                        }
                        let mark = (ts - 2..ts + 2).generate(&mut rng);
                        let slot = s.layout.progress_slot(h, q, N);
                        s.node.local_write_word(slot, mark).unwrap();
                    }
                }
                let dests: Vec<PartitionId> = (0..PARTITIONS)
                    .filter(|_| any::<bool>().generate(&mut rng))
                    .map(|h| PartitionId(h as u16))
                    .collect();
                let counted = |h: &PartitionId| {
                    (0..N)
                        .filter(|&q| peer_word_by_word(s, h.0 as usize, q, ts, phase).1)
                        .count()
                };
                let oracle = (
                    dests.iter().all(|h| counted(h) >= s.cluster.cfg.majority()),
                    dests.iter().all(|h| counted(h) == N),
                );
                let ts = Timestamp::from_raw(ts);
                assert_eq!(coord_quorum(s, &dests, ts, phase), oracle);
                verdicts[usize::from(oracle.0) + usize::from(oracle.1)] += 1;
                for h in 0..PARTITIONS {
                    // Only lane matches are read candidates, never a peer
                    // that merely counts.
                    let candidates: Vec<usize> = (0..N)
                        .filter(|&q| peer_word_by_word(s, h, q, ts.raw(), 1).0)
                        .collect();
                    assert_eq!(coord_matching(s, PartitionId(h as u16), ts), candidates);
                    verdicts[3] += candidates.len();
                }
            }
            // Nobody, a majority and everyone were all reached, and some
            // candidate sets were non-empty.
            assert!(verdicts.iter().all(|&v| v >= 20), "{width}: {verdicts:?}");
        }
    }
}
