//! The state-transfer protocol of Algorithm 3, and the coordination-memory
//! reads of Algorithm 1, as free functions.
//!
//! Nothing here owns a process. The replica's one delivery driver
//! ([`crate::executor::Driver`]) runs both sides of the transfer protocol
//! from its loop — the requester side for its own inline lane or on its
//! parked workers' behalf, installing the chunks it asked for itself, the
//! responder side at an exact request boundary — and every
//! [`crate::executor::ExecCore`] lane reads barrier
//! state through [`coord_quorum`].

use crate::cluster::ReplicaShared;
use crate::layout::{
    decode_chunk_header, decode_records, encode_chunk_header, encode_record, encode_sync, CHUNK_HDR,
};
use crate::metrics::TransferRecord;
use crate::types::{PartitionId, StorageKind};
use amcast::Timestamp;
use rdma_sim::{Addr, MemView};
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::time::Duration;

// ----------------------------------------------------------------------
// Algorithm 3: state transfer.
// ----------------------------------------------------------------------

/// Staging-ring slots on each replica for inbound state transfer.
pub const TRANSFER_SLOTS: usize = 8;
/// A replica that asked for state transfer re-issues the request if not
/// served within this timeout (Algorithm 3's `timeout`); the responder
/// rotation waits one per rank.
pub const TRANSFER_TIMEOUT: Duration = Duration::from_millis(5);
/// Serialization cost per KiB when state transfer ships a
/// [`StorageKind::Native`] object (sender side). ≈2.24 ns/byte each way:
/// with serialize/wire/deserialize pipelined across responder and
/// requester, this reproduces the paper's ≈450 MB/s native-table transfer
/// rate (§V-E2).
const SER_NS_PER_KIB: u64 = 2_290;
/// Deserialization cost per KiB on the receiving lagger.
const DESER_NS_PER_KIB: u64 = 2_290;

/// Requester side: ask the group for our missing state since `from` (our
/// `completed_req`) and wait until a responder completes it. Returns the
/// responder's snapshot bound (raw timestamp): every request up to and
/// including it is reflected in our state afterwards. `adopt` is told the
/// bound the moment it is adopted, before the transfer's record is closed:
/// the caller moves its watermarks there.
///
/// With an escape hatch: between responder re-arms, if `abort()` reports
/// that the condition we fell back from has healed (e.g. a coordination
/// barrier's entries arrived late rather than never), the request is
/// withdrawn and `None` returned. A caller that must not withdraw passes
/// an `abort` that never fires.
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
///
/// The caller is the replica's delivery driver, and it installs the
/// state itself: while it waits for the status flip it applies every
/// chunk of the stream as it lands ([`apply_staged`]).
pub(crate) fn state_transfer_abortable(
    shared: &Rc<ReplicaShared>,
    from: u64,
    abort: &dyn Fn() -> bool,
    adopt: &mut dyn FnMut(u64),
) -> Option<u64> {
    let cfg = &shared.cluster.cfg;
    let n = cfg.replicas_per_partition;
    let metrics = &shared.cluster.metrics;
    metrics.transfers_started.fetch_add(1, Ordering::Relaxed);
    let t0 = sim::now();
    let my_sync = shared.layout.sync_slot(shared.idx);
    let status = || shared.node.local_read_word(my_sync.offset(8));
    // A responder flips the status back to 0 (the low bits; the high bits
    // carry the chunk count).
    let flipped = || status().is_ok_and(|st| st & 3 == 0);
    loop {
        // The stream this attempt installs: the next chunk stamp, the
        // responder snapshot it belongs to (named by its first chunk),
        // and the bytes applied so far.
        let (mut next, mut stream) = (1u64, None);
        let (mut bytes, mut native_bytes) = (0u64, 0u64);
        // Zero the staging ring stamps so stale chunks are not
        // re-applied.
        for k in 1..=TRANSFER_SLOTS as u64 {
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
            // Line 5: wait for a responder to flip status back to 0,
            // applying its chunks as they land. Every chunk of a stream
            // lands before its flip (RC delivers a queue pair's writes in
            // order), and the flip is read right after the last staged
            // chunk was applied, so a flip seen here finds the stream
            // drained.
            let deadline = sim::now() + TRANSFER_TIMEOUT;
            let done = loop {
                let (b, nb) = apply_staged(shared, &mut next, &mut stream);
                bytes += b;
                native_bytes += nb;
                if flipped() {
                    break true;
                }
                let Some(left) = deadline.checked_sub(sim::now()).filter(|d| !d.is_zero()) else {
                    break false;
                };
                shared.poller.poll_until_timeout(
                    || flipped() || staged_chunk(shared, next, stream).is_some(),
                    left,
                );
            };
            if done {
                break;
            }
            if abort() && status() == Ok(1) && next == 1 {
                // Withdraw: reset our own status word first (kills any
                // in-flight responder claim — the CAS on it will now
                // fail), then clear our entry on every peer so their
                // serve loops stop raising it.
                let _ = shared.node.local_write(my_sync, &encode_sync(0, 0));
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
            // Timeout: the selected responder may have failed; re-arm
            // (the rotation on the responder side picks the next one).
        }
        // Line 6: adopt the responder's request id — but only if we
        // applied every chunk of its stream. A chunk still missing means a
        // racing stream's chunk overwrote its staging slot; another bound
        // means two responders raced (one was slow, the rotation fired)
        // and we may hold a mix of their snapshots. Either way, redo the
        // transfer from our current position.
        let word = |at| shared.node.local_read_word(at).expect("own sync word");
        let (rid, chunks) = (word(my_sync), word(my_sync.offset(8)) >> 2);
        if next <= chunks || stream.is_some_and(|bound| bound != rid) {
            continue;
        }
        shared.exec_trace.lock().push((rid, 't'));
        adopt(rid);
        metrics.transfers.lock().push(TransferRecord {
            bytes,
            duration_ns: (sim::now() - t0).as_nanos() as u64,
            native_bytes,
        });
        return Some(rid);
    }
}

/// The race detector's op label for a state-transfer install, which the
/// remote-read lint counts as benign (see
/// [`crate::executor::ExecCore`]'s `audit_remote_slot_read`).
pub(crate) const TRANSFER_INSTALL: &str = "transfer-install";

/// Applies, in stamp order from `*next`, every staged chunk of the stream
/// this transfer installs — the first chunk applied names it in `*stream`
/// — leaving alone each slot a command above the snapshot's bound already
/// wrote here ([`crate::store::VersionedStore::apply_raw_slot`]), charging the modeled deserialization cost of natively-stored objects
/// (paper §V-E2). After each chunk, bumps the `applied` word the responder
/// reads for flow control. Returns the `(bytes, native bytes)` applied.
fn apply_staged(shared: &ReplicaShared, next: &mut u64, stream: &mut Option<u64>) -> (u64, u64) {
    let (mut bytes, mut native_bytes) = (0, 0);
    while let Some((slot, nbytes, bound)) = staged_chunk(shared, *next, *stream) {
        stream.get_or_insert(bound);
        let body = shared
            .node
            .local_read(slot.offset(CHUNK_HDR as u64), nbytes)
            .expect("chunk body in range");
        let mut native = 0u64;
        for (oid, raw) in decode_records(&body) {
            if shared.cluster.app.storage_kind(oid) == StorageKind::Native {
                native += raw.len() as u64;
            }
            shared.store.apply_raw_slot(oid, raw, TRANSFER_INSTALL);
        }
        if native > 0 {
            sim::sleep_ns(native * DESER_NS_PER_KIB / 1024);
        }
        bytes += nbytes as u64;
        native_bytes += native;
        let _ = shared.node.local_write_word(shared.layout.applied, *next);
        *next += 1;
    }
    (bytes, native_bytes)
}

/// The chunk stamped `next`, if it is staged and of `stream` (any stream
/// while `None`): `(slot, nbytes, bound)`. Both the requester's wait and
/// [`apply_staged`] ask this, so what the one counts as work the other
/// consumes.
///
/// Stream coherence: if two responders raced, only the stream the first
/// chunk came from is applied. A chunk of the other stream is left in its
/// slot until the owning responder rewrites it — it is not work, or the
/// requester would spin on it in zero virtual time and the rewriter would
/// never be scheduled.
fn staged_chunk(
    shared: &ReplicaShared,
    next: u64,
    stream: Option<u64>,
) -> Option<(Addr, usize, u64)> {
    let slot = shared.layout.ring_slot(next);
    let (stamp, nbytes, bound) = shared
        .node
        .with_mem(|m| m.bytes(slot, CHUNK_HDR).map(decode_chunk_header))
        .ok()?;
    (stamp == next && stream.is_none_or(|b| b == bound)).then_some((slot, nbytes, bound))
}

/// Streams the replica's state since `from` to the requester in 32 KiB
/// chunks, as of snapshot `bound` (our `completed_req`), then clears the
/// status entry everywhere (Algorithm 3, lines 11–18).
pub(crate) fn respond_transfer(
    shared: &Rc<ReplicaShared>,
    requester: usize,
    from: u64,
    bound: u64,
) {
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
    // Snapshot at a request boundary: the driver only serves with nothing
    // in flight and nothing finished above the watermark, so it already
    // stands at one.
    // Line 12: every object written after `from` — the store stamps each
    // object with its newest write, and nothing ran above the watermark,
    // so no stamp passes `bound`.
    let changed = shared.store.changed_since(Timestamp::from_raw(from));
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
        if *stamp > TRANSFER_SLOTS as u64 {
            let deadline = sim::now() + TRANSFER_TIMEOUT;
            let watermark = loop {
                let Ok(applied) = qp.read_word(shared.layout.applied) else {
                    return false; // requester crashed
                };
                if *stamp <= applied + TRANSFER_SLOTS as u64 {
                    break applied;
                }
                if sim::now() >= deadline {
                    return false; // no progress: abandon this serve
                }
            };
            // Protocol lint (regression guard): posting past the
            // applied watermark would overwrite a staged chunk the
            // requester has not applied yet — it would land
            // inside the requester's live read window. The wait above
            // makes this unreachable; the lint keeps its own
            // comparison so it trips immediately if a change ever
            // breaks the flow-control condition.
            if let Some(det) = shared.cluster.detector.as_ref() {
                if *stamp > watermark + TRANSFER_SLOTS as u64 {
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
                            *stamp, watermark, TRANSFER_SLOTS
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
    for (oid, slot) in changed {
        let raw = shared.store.raw_slot_bytes(slot);
        // Native objects must be serialized before shipping
        // (paper §V-E2, second scenario).
        if app.storage_kind(oid) == StorageKind::Native {
            sim::sleep_ns(raw.len() as u64 * SER_NS_PER_KIB / 1024);
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
    // bits so the requester can tell whether it applied them all (a
    // racing stream may have overwritten one in its staging slot).
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
/// executed everything before the request that conflicts with it — a pool
/// may still be running, or not yet have started, earlier independent
/// commands — and no conflicting command after it, so a remote read may
/// target them.
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
pub(crate) fn publish_progress(shared: &Rc<ReplicaShared>) {
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

/// The `from_tmp` of requester `p`'s state-transfer request, if one is
/// raised (status 1) in this replica's statesync memory, read through `m`.
pub(crate) fn sync_request(shared: &ReplicaShared, m: &MemView<'_>, p: usize) -> Option<u64> {
    let slot = shared.layout.sync_slot(p);
    (m.word(slot.offset(8)).unwrap_or(0) == 1).then(|| m.word(slot).unwrap_or(0))
}

/// The `(requester idx, from_tmp)` of every state-transfer request
/// currently raised in this replica's statesync memory, read through `m`.
pub(crate) fn pending_sync_requests<'a>(
    shared: &'a ReplicaShared,
    m: &'a MemView<'a>,
) -> impl Iterator<Item = (usize, u64)> + 'a {
    let n = shared.cluster.cfg.replicas_per_partition;
    let others = (0..n).filter(|&p| p != shared.idx);
    others.filter_map(move |p| Some((p, sync_request(shared, m, p)?)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::SYNC_ENTRY;
    use crate::{
        Execution, HeronCluster, HeronConfig, LocalReader, ObjectId, ReadSet, StateMachine,
    };
    use parking_lot::Mutex;
    use proptest::prelude::*;
    use rdma_sim::{Fabric, LatencyModel};
    use std::sync::Arc;

    /// Hosts nothing: for tests that only need a replica's registered memory.
    struct NoObjects;

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

    /// A pool lagger finished command 30 above a hole; the responder's
    /// snapshot stops at 20. Installing it must not revert what 30 wrote,
    /// and must install what the lagger lacks. Both sides run the real
    /// protocol, replica 0 serving replica 2 of a width-4 partition.
    #[test]
    fn a_transfer_never_reverts_a_command_the_lagger_finished_above_its_bound() {
        let simulation = sim::Simulation::new(1);
        let fabric = Fabric::new(LatencyModel::connectx4());
        let cfg = HeronConfig::new(1, N).with_executor_width(4);
        let cluster = HeronCluster::build(&fabric, cfg, Arc::new(NoObjects));
        let (x, y) = (ObjectId(1), ObjectId(2));
        let ts = Timestamp::from_raw;
        let (responder, lagger) = (Rc::clone(&cluster.replicas[0][0]), &cluster.replicas[0][2]);
        for s in [&responder, lagger] {
            s.store.bootstrap(x, b"x0");
            s.store.bootstrap(y, b"y0");
        }
        // The responder ran 10 (writes y) and 20 (writes x): its watermark
        // is 20.
        responder.store.set(y, b"y10", ts(10));
        responder.store.set(x, b"x20", ts(20));
        // The lagger ran 20 and then 30, which conflicts with it, while 10
        // waits: its watermark stays below 10, at 5.
        lagger.store.set(x, b"x20", ts(20));
        lagger.store.set(x, b"x30", ts(30));
        let adopted = Arc::new(Mutex::new(None));
        let (requester, out) = (Rc::clone(lagger), Arc::clone(&adopted));
        simulation.spawn("heron-exec-p0r2", move || {
            let mut told = None;
            let rid = state_transfer_abortable(&requester, 5, &|| false, &mut |r| told = Some(r));
            assert_eq!(rid, told, "the bound returned is the one adopted");
            *out.lock() = rid;
        });
        simulation.spawn("heron-exec-p0r0", move || {
            let request = || {
                let s = &*responder;
                s.node.with_mem(|m| pending_sync_requests(s, m).next())
            };
            let watch = responder
                .node
                .poller(sim::Cond::new(), &responder.exec_ranges);
            watch.poll_until(|| request().is_some());
            let (requester, from) = request().expect("a pending request");
            assert_eq!((requester, from), (2, 5));
            respond_transfer(&responder, requester, from, 20);
        });
        simulation.run().unwrap();
        assert_eq!(*adopted.lock(), Some(20), "the responder's bound");
        let got = |oid| lagger.store.get(oid).map(|(t, v)| (t.raw(), v));
        assert_eq!(got(y), Some((10, bytes::Bytes::from_static(b"y10"))));
        assert_eq!(
            got(x),
            Some((30, bytes::Bytes::from_static(b"x30"))),
            "the install reverted command 30"
        );
    }

    /// Two responders can race (the rotation fires while a slow one is
    /// mid-stream): a chunk of the stream we are not applying stays staged,
    /// unconsumed and uncounted, until the owning stream rewrites its slot.
    #[test]
    fn a_chunk_from_another_stream_is_neither_work_nor_applied() {
        let fabric = Fabric::new(LatencyModel::connectx4());
        let cluster = HeronCluster::build(&fabric, HeronConfig::new(1, 3), Arc::new(NoObjects));
        let shared = &cluster.replicas[0][0];
        let (expected, ours, theirs) = (3u64, 70u64, 90u64);
        let (mut next, mut stream) = (expected, Some(ours));
        let stage = |bound: u64| {
            let header = encode_chunk_header(expected, 0, bound);
            let slot = shared.layout.ring_slot(expected);
            shared.node.local_write(slot, &header).unwrap();
        };
        stage(theirs);
        assert!(staged_chunk(shared, next, stream).is_none());
        assert_eq!(apply_staged(shared, &mut next, &mut stream), (0, 0));
        assert_eq!(next, expected);
        stage(ours);
        assert!(staged_chunk(shared, next, stream).is_some());
        apply_staged(shared, &mut next, &mut stream);
        assert_eq!((next, stream), (expected + 1, Some(ours)));
        let applied = shared.node.local_read_word(shared.layout.applied);
        assert_eq!(applied, Ok(expected));
        assert!(staged_chunk(shared, next, stream).is_none());
    }

    /// A racing stream overwrote the chunk the requester needed next, then
    /// the stream it was applying flipped the status: that chunk can never
    /// arrive, so the requester re-arms at the flip, not a
    /// [`TRANSFER_TIMEOUT`] later. The responders are played by writing
    /// straight into the requester's memory; no peer process runs.
    #[test]
    fn a_transfer_missing_an_overwritten_chunk_rearms_at_the_flip() {
        let simulation = sim::Simulation::new(1);
        let fabric = Fabric::new(LatencyModel::connectx4());
        let cluster = HeronCluster::build(&fabric, HeronConfig::new(1, 3), Arc::new(NoObjects));
        let shared = Rc::clone(&cluster.replicas[0][0]);
        let (ours, theirs) = (70u64, 90u64);
        let adopted = Arc::new(Mutex::new(None));
        let rearm = Arc::new(Mutex::new(None));
        let (requester, out) = (Rc::clone(&shared), Arc::clone(&adopted));
        simulation.spawn("heron-exec-p0r0", move || {
            let rid = state_transfer_abortable(&requester, 0, &|| false, &mut |_| {});
            *out.lock() = Some((rid.expect("never withdrawn"), sim::now()));
        });
        let out = Arc::clone(&rearm);
        simulation.spawn("responders", move || {
            let entry = shared.layout.sync_slot(0);
            let watch = shared.node.poller(sim::Cond::new(), &[(entry, SYNC_ENTRY)]);
            let armed = || shared.node.local_read_word(entry.offset(8)) == Ok(1);
            let chunk = |stamp: u64, bound: u64| {
                let header = encode_chunk_header(stamp, 0, bound);
                let slot = shared.layout.ring_slot(stamp);
                shared.node.local_write(slot, &header).unwrap();
            };
            watch.poll_until(armed);
            // Let the requester finish posting its request and wait.
            sim::sleep(std::time::Duration::from_micros(10));
            chunk(1, ours);
            chunk(2, ours);
            chunk(2, theirs);
            let flip = sim::now();
            shared
                .node
                .local_write(entry, &encode_sync(ours, 2 << 2))
                .unwrap();
            watch.poll_until(armed);
            *out.lock() = Some((flip, sim::now()));
            // The second attempt's responder ships nothing.
            shared
                .node
                .local_write(entry, &encode_sync(ours, 0))
                .unwrap();
        });
        simulation.run().unwrap();
        let (flip, rearmed) = rearm.lock().expect("the requester re-armed");
        assert_eq!(
            rearmed,
            flip,
            "re-armed {:?} after the flip",
            rearmed - flip
        );
        let (rid, done) = adopted.lock().expect("the transfer completed");
        assert_eq!(rid, ours);
        assert!(done - flip < TRANSFER_TIMEOUT);
    }
}
