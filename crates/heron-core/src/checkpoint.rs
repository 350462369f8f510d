//! Durable checkpoints and cold-restart recovery.
//!
//! With [`crate::DurabilityConfig`] set, every replica runs a periodic
//! *checkpointer* process: at a quiescent executor boundary it serializes
//! the partition's store ([`encode_state`]), stamps the image with the
//! executor's commit watermark and the ordering epoch, persists it to the
//! replica's durable namespace, and truncates the ordering layer's WAL
//! behind that horizon — so the WAL does not grow without bound.
//!
//! A replica that loses power (registered memory wiped) rebuilds from the
//! checkpoint plus the WAL tail: it installs the image
//! ([`install_state`]), resets its watermarks to the
//! checkpoint bound, and replays every WAL frame past the bound through
//! the normal delivery path. Recovery therefore costs real (virtual)
//! time — the checkpoint read and the replayed tail — which the
//! `recovery_bench` benchmark measures against tail length and checkpoint
//! interval.
//!
//! # Consistency with the cross-replica checker
//!
//! The snapshot image is the raw dual-version slot bytes of every
//! hosted object: exactly what state transfer ships and what the
//! consistency checker compares byte-for-byte across replicas. A restart
//! behaves like a state transfer whose responder is the disk — it resets
//! the execution trace and records a `('t', bound)` entry, so the
//! checker's settled-coverage rule treats the pre-checkpoint prefix as
//! transferred-to, and replayed commands append fresh `'e'` entries past
//! the bound.

use crate::cluster::ReplicaShared;
use crate::layout::{decode_records, encode_record};
use crate::store::VersionedStore;
use crate::types::ObjectId;
use amcast::GroupId;
use std::rc::Rc;
use std::sync::atomic::Ordering;

/// The checkpoint file name inside a replica's durable namespace.
pub const CKPT_FILE: &str = "ckpt";

/// Checkpoint file magic ("HRNCKPT1"), doubling as a format version.
const CKPT_MAGIC: u64 = 0x4852_4e43_4b50_5431;

/// Fixed header: magic, bound, epoch, image length.
const CKPT_HDR: usize = 4 * 8;

/// The metadata a checkpoint is stamped with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMeta {
    /// Commit watermark (raw timestamp): the image reflects exactly the
    /// commands with timestamps `<= bound`.
    pub bound: u64,
    /// Ordering-layer epoch in force when the checkpoint was taken.
    pub epoch: u64,
    /// Application image size in bytes.
    pub image_bytes: usize,
}

/// Serializes a store into the checkpoint image format: one raw
/// dual-version slot record per hosted object, in id order (both versions
/// and their timestamps — what the consistency checker compares across
/// replicas, and what concurrent remote readers address). Byte-exact —
/// [`install_state`] reproduces the store bit for bit.
pub fn encode_state(store: &VersionedStore) -> Vec<u8> {
    let mut buf = Vec::new();
    for (oid, raw) in raw_slots(store) {
        buf.extend_from_slice(&encode_record(oid, &raw));
    }
    buf
}

/// Every hosted object's raw dual-version slot image, in id order.
fn raw_slots(store: &VersionedStore) -> impl Iterator<Item = (ObjectId, Vec<u8>)> + '_ {
    let hosted = store.object_ids().into_iter();
    hosted.filter_map(|oid| Some((oid, store.raw_slot_bytes(store.slot(oid)?))))
}

/// Installs an [`encode_state`] image into a (possibly wiped) store,
/// allocating the slots a wipe took.
pub fn install_state(image: &[u8], store: &VersionedStore) {
    for (oid, raw) in decode_records(image) {
        store.apply_raw_slot(oid, raw, "checkpoint-install");
    }
}

/// FNV-1a digest of every hosted object's raw slot image, in id order:
/// equal state ⇒ equal digest. The checkpoint property tests rely on
/// `digest(install(snapshot(s))) == digest(s)` at any commit prefix.
pub fn state_digest(store: &VersionedStore) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    };
    for (oid, raw) in raw_slots(store) {
        eat(&oid.0.to_le_bytes());
        eat(&(raw.len() as u64).to_le_bytes());
        eat(&raw);
    }
    h
}

/// Frames an application image into the durable checkpoint file format.
fn encode_file(bound: u64, epoch: u64, image: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(CKPT_HDR + image.len());
    buf.extend_from_slice(&CKPT_MAGIC.to_le_bytes());
    buf.extend_from_slice(&bound.to_le_bytes());
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(&(image.len() as u64).to_le_bytes());
    buf.extend_from_slice(image);
    buf
}

/// Splits a checkpoint file into its metadata and application image.
///
/// # Panics
///
/// Panics on a malformed file: the storage model never tears writes, so
/// corruption here is a codec bug, not a simulated fault.
pub(crate) fn decode_file(file: &[u8]) -> (CheckpointMeta, &[u8]) {
    assert!(file.len() >= CKPT_HDR, "checkpoint file too short");
    let word = |i: usize| u64::from_le_bytes(file[i * 8..(i + 1) * 8].try_into().expect("word"));
    assert_eq!(word(0), CKPT_MAGIC, "bad checkpoint magic");
    let (bound, epoch, len) = (word(1), word(2), word(3) as usize);
    assert_eq!(file.len(), CKPT_HDR + len, "checkpoint length mismatch");
    (
        CheckpointMeta {
            bound,
            epoch,
            image_bytes: len,
        },
        &file[CKPT_HDR..],
    )
}

/// One checkpointer round: persist a checkpoint at a quiescent boundary
/// and truncate the logs behind it. Returns the metadata of the
/// checkpoint taken, or `None` if the round was skipped (replica dead or
/// busy). A power cut kills the checkpointer wherever it is: one inside
/// the write and fsync that follow `disk.put` leaves the new checkpoint
/// in place and the WAL untruncated.
pub(crate) fn checkpoint_replica(shared: &Rc<ReplicaShared>) -> Option<CheckpointMeta> {
    let disk = shared.disk.as_ref()?;
    let node = &shared.node;
    if !node.is_alive() {
        return None;
    }
    let cfg = &shared.cluster.cfg;
    let interval = cfg.durability.as_ref()?.checkpoint_interval;
    // A consistent snapshot needs a quiescent request boundary: every
    // admitted command finished (`last_req == completed_req`). That also
    // rules out a writing phase and an inbound state transfer mutating
    // slots underneath us — both run only on behalf of an admitted,
    // unfinished command. The executor passes through such a boundary
    // between any two commands; if the replica stays busy for a whole
    // interval, skip the round rather than snapshot a torn state.
    let quiescent =
        || shared.last_req.load(Ordering::SeqCst) == shared.completed_req.load(Ordering::SeqCst);
    let quiet = {
        // The profiler attributes this wait to the checkpointer's quiesce
        // park rather than a generic condition wait.
        let _wait = sim::prof::parked_scope("ckpt_quiesce");
        // Neither input is node memory: `set_completed` notifies, and
        // that is the first instant the boundary can hold.
        shared.quiesce.wait_while_timeout(|| !quiescent(), interval)
    };
    if !quiet || !node.is_alive() {
        return None;
    }
    // From here to the `disk.put` below runs without yielding (snapshot
    // collection is pure memory work), so the image is exactly the state
    // at `bound`.
    let bound = shared.completed_req.load(Ordering::SeqCst);
    let group = GroupId(shared.partition.0);
    let epoch = shared.cluster.mcast.current_epoch(group, shared.idx);
    let _span = sim::trace::span_args("ckpt.round", bound, &[("bound", bound), ("epoch", epoch)]);
    let image = encode_state(&shared.store);
    let meta = CheckpointMeta {
        bound,
        epoch,
        image_bytes: image.len(),
    };
    // `put` installs the new file atomically at call time, then charges
    // the write + fsync latency — a power loss during the charge leaves
    // the (consistent) new checkpoint in place, never a torn one.
    disk.put(CKPT_FILE, &encode_file(bound, epoch, &image));
    if !node.is_alive() {
        // Crashed while the file was flushing: the checkpoint is durable
        // and consistent; leave the WAL to the next round.
        return None;
    }
    // Checkpoint bound raised: progress for the explorer's
    // zero-virtual-time livelock guards.
    sim::note_progress();
    // Truncate the ordering WAL behind it (compaction I/O charged here).
    let (dropped, _remaining) = shared.cluster.mcast.truncate_wal(group, shared.idx, bound);
    sim::trace::instant("ckpt.truncate", bound);
    let metrics = &shared.cluster.metrics;
    metrics.checkpoints.fetch_add(1, Ordering::Relaxed);
    metrics
        .wal_truncated_frames
        .fetch_add(dropped as u64, Ordering::Relaxed);
    Some(meta)
}

/// The periodic checkpointer process body (`heron-ckpt-p{p}r{i}`), spawned
/// only when [`crate::DurabilityConfig`] is set: one
/// [`checkpoint_replica`] round per interval, skipping rounds whose
/// watermark has not advanced since the last durable checkpoint.
pub(crate) fn run_checkpointer(shared: Rc<ReplicaShared>) {
    let interval = shared
        .cluster
        .cfg
        .durability
        .as_ref()
        .expect("checkpointer spawned without durability")
        .checkpoint_interval;
    // On a node whose power was cut, the watermarks are what the last
    // life left while the store is zeros, until the delivery driver's cold
    // restart rebuilds it and moves them: no round runs before.
    let mut last_bound = shared.completed_req.load(Ordering::SeqCst);
    loop {
        sim::sleep(interval);
        if shared.completed_req.load(Ordering::SeqCst) == last_bound {
            continue;
        }
        if let Some(meta) = checkpoint_replica(&shared) {
            last_bound = meta.bound;
        }
    }
}

/// Reads and installs the replica's durable checkpoint (the read latency
/// is charged to the caller — this is the bulk of cold-restart time).
/// Returns the checkpoint's metadata, or `None` if no checkpoint was ever
/// taken.
pub(crate) fn load_checkpoint(shared: &Rc<ReplicaShared>) -> Option<CheckpointMeta> {
    let disk = shared.disk.as_ref()?;
    let file = disk.get(CKPT_FILE)?;
    let (meta, image) = decode_file(&file);
    install_state(image, &shared.store);
    Some(meta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amcast::{MsgId, Timestamp};
    use rdma_sim::{Fabric, LatencyModel};

    fn ts(clock: u64) -> Timestamp {
        Timestamp::new(clock, MsgId(clock as u32))
    }

    fn store_with_state() -> (Fabric, VersionedStore) {
        let fabric = Fabric::new(LatencyModel::zero());
        let s = VersionedStore::new(fabric.add_node("n"));
        s.bootstrap(ObjectId(1), b"alpha");
        s.bootstrap(ObjectId(2), b"beta");
        s.set(ObjectId(1), b"alpha-2", ts(10));
        s.set(ObjectId(2), b"beta-2", ts(11));
        s.set(ObjectId(1), b"alpha-3", ts(12));
        (fabric, s)
    }

    #[test]
    fn state_round_trips_bit_exactly() {
        let (fabric, s) = store_with_state();
        let image = encode_state(&s);
        let fresh = VersionedStore::new(fabric.add_node("m"));
        install_state(&image, &fresh);
        assert_eq!(state_digest(&s), state_digest(&fresh));
        // Not just the digest: both versions of every slot byte-match.
        for oid in s.object_ids() {
            let a = s.raw_slot_bytes(s.slot(oid).unwrap());
            let b = fresh.raw_slot_bytes(fresh.slot(oid).unwrap());
            assert_eq!(a, b, "slot image of {oid}");
        }
    }

    #[test]
    fn digest_is_state_sensitive() {
        let (_fabric, s) = store_with_state();
        let before = state_digest(&s);
        s.set(ObjectId(2), b"beta-3", ts(13));
        assert_ne!(before, state_digest(&s));
    }

    #[test]
    fn file_framing_round_trips() {
        let file = encode_file(42, 7, b"image-bytes");
        let (meta, image) = decode_file(&file);
        assert_eq!(
            meta,
            CheckpointMeta {
                bound: 42,
                epoch: 7,
                image_bytes: 11
            }
        );
        assert_eq!(image, b"image-bytes");
    }

    #[test]
    #[should_panic(expected = "bad checkpoint magic")]
    fn bad_magic_is_a_codec_bug() {
        decode_file(&[0u8; CKPT_HDR]);
    }
}
