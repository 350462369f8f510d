//! Per-replica durable write-ahead log of delivered entries.
//!
//! When a [`sim::storage::Storage`] device is attached to a deployment
//! ([`crate::Mcast::attach_wal`]), every replica appends the wire image of
//! each entry it delivers (the [`crate::layout::encode_log`] frame) to its
//! own WAL namespace *before* the application upcall. The set of messages
//! a replica has handed to its application therefore survives power loss,
//! and a reloading replica can rebuild its protocol state — delivered
//! set, log position, and the in-memory tail of the group log — from the
//! durable frames alone.
//!
//! A checkpointer truncates the WAL behind the application's checkpoint
//! horizon and persists a *floor record*: the first sequence number the
//! truncated WAL still speaks for, the timestamp bound it was truncated
//! at, and the highest epoch of a dropped frame. The floor keeps the
//! group's sequence position, clock and epoch durable even when
//! truncation empties the tail.
//!
//! In a group of more than three, a follower acknowledges an entry before
//! it may deliver it (it waits for the leader's commit point), so the
//! acknowledged-but-undelivered tail is kept durable apart from the WAL:
//! the *held* file, replaced whole before each acknowledgement. A reload
//! puts its frames past the WAL's end back in the ring as stored, not
//! delivered.

use crate::layout::{decode_log_header, LOG_HDR};
use crate::DestMask;
use sim::storage::Disk;

/// The WAL file name inside a replica's namespace.
pub(crate) const WAL_FILE: &str = "wal";
/// The floor record file name.
pub(crate) const FLOOR_FILE: &str = "floor";
/// Compact digest of delivered-then-truncated message uids (4 bytes per
/// message). Truncation drops a frame's payload but must not drop the
/// knowledge that its message was delivered: a reloaded replica that
/// forgot a uid would re-sequence a client resubmission under a fresh
/// timestamp — a duplicate delivery the application cannot screen out
/// with its timestamp watermark.
pub(crate) const SEEN_FILE: &str = "seen";
/// A follower's stored-but-undelivered tail, in a group of more than three.
pub(crate) const HELD_FILE: &str = "held";

/// One durable log frame: the decoded byte image of a sequenced entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WalFrame {
    pub seq: u64,
    pub uid: u32,
    pub mask: DestMask,
    pub ts_raw: u64,
    pub epoch: u64,
    pub payload: Vec<u8>,
}

/// Parses a concatenation of `encode_log` frames.
///
/// # Panics
///
/// Panics on a malformed WAL (zero stamp, truncated frame, trailing
/// bytes): the storage model never tears writes, so corruption here is a
/// codec bug, not a simulated fault.
pub(crate) fn parse(bytes: &[u8]) -> Vec<WalFrame> {
    let mut frames = Vec::new();
    let mut at = 0usize;
    while at + LOG_HDR <= bytes.len() {
        let (stamp, uid, mask, ts_raw, epoch, len) = decode_log_header(&bytes[at..at + LOG_HDR]);
        assert!(stamp > 0, "corrupt WAL frame at byte {at}");
        let start = at + LOG_HDR;
        assert!(
            start + len <= bytes.len(),
            "truncated WAL frame at byte {at}"
        );
        frames.push(WalFrame {
            seq: stamp - 1,
            uid,
            mask,
            ts_raw,
            epoch,
            payload: bytes[start..start + len].to_vec(),
        });
        at = start + len;
    }
    assert_eq!(at, bytes.len(), "trailing garbage in WAL");
    frames
}

/// Reads and parses every frame of the WAL (charges the read to the
/// calling process).
pub(crate) fn read_frames(disk: &Disk) -> Vec<WalFrame> {
    disk.get(WAL_FILE).map(|b| parse(&b)).unwrap_or_default()
}

/// Reads and parses the held file's frames.
pub(crate) fn read_held(disk: &Disk) -> Vec<WalFrame> {
    disk.get(HELD_FILE).map(|b| parse(&b)).unwrap_or_default()
}

/// The floor record: what a truncated prefix of the WAL still speaks for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Floor {
    /// First sequence number the truncated WAL still speaks for.
    pub seq: u64,
    /// Raw timestamp bound the WAL was truncated at: every dropped frame
    /// was delivered at or below it.
    pub ts_bound: u64,
    /// Highest epoch a dropped frame was delivered in.
    pub epoch: u64,
}

/// Reads the floor record. A missing record means the WAL speaks for the
/// log from sequence number zero.
pub(crate) fn read_floor(disk: &Disk) -> Floor {
    match disk.get(FLOOR_FILE) {
        Some(b) if b.len() == 16 => {
            let word = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().expect("floor word"));
            Floor {
                seq: word(0) & 0xFFFF_FFFF,
                ts_bound: word(8),
                epoch: word(0) >> 32,
            }
        }
        _ => Floor::default(),
    }
}

/// Durably replaces the floor record. The epoch rides in the high half of
/// the sequence word, as it does in the heartbeat word.
pub(crate) fn write_floor(disk: &Disk, floor: Floor) {
    assert!(
        floor.seq >> 32 == 0 && floor.epoch >> 32 == 0,
        "floor record overflow: {floor:?}"
    );
    let mut b = Vec::with_capacity(16);
    b.extend_from_slice(&(floor.epoch << 32 | floor.seq).to_le_bytes());
    b.extend_from_slice(&floor.ts_bound.to_le_bytes());
    disk.put(FLOOR_FILE, &b);
}

/// Reads the delivered-then-truncated uid digest.
pub(crate) fn read_seen(disk: &Disk) -> Vec<u32> {
    match disk.get(SEEN_FILE) {
        Some(b) => b
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("uid word")))
            .collect(),
        None => Vec::new(),
    }
}

/// Durably appends uids to the delivered-then-truncated digest.
pub(crate) fn append_seen(disk: &Disk, uids: &[u32]) {
    if uids.is_empty() {
        return;
    }
    let mut b = Vec::with_capacity(uids.len() * 4);
    for u in uids {
        b.extend_from_slice(&u.to_le_bytes());
    }
    disk.append(SEEN_FILE, &b);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::encode_log;
    use sim::storage::Storage;

    #[test]
    fn frames_concatenate_and_parse_back() {
        let storage = Storage::default();
        let disk = storage.disk("r0");
        disk.append(WAL_FILE, &encode_log(0, 7, 0b1, 100, 0, b"first"));
        disk.append(WAL_FILE, &encode_log(1, 9, 0b11, 200, 1, b""));
        disk.append(WAL_FILE, &encode_log(2, 11, 0b1, 300, 1, b"third!"));
        let frames = read_frames(&disk);
        assert_eq!(frames.len(), 3);
        assert_eq!(
            (frames[0].seq, frames[0].uid, frames[0].ts_raw),
            (0, 7, 100)
        );
        assert_eq!(frames[1].payload, b"");
        assert_eq!(frames[2].payload, b"third!");
        assert_eq!(frames[2].epoch, 1);
    }

    #[test]
    fn floor_record_round_trips_and_defaults_to_zero() {
        let storage = Storage::default();
        let disk = storage.disk("r0");
        assert_eq!(read_floor(&disk), Floor::default());
        let floor = Floor {
            seq: 42,
            ts_bound: 99_000,
            epoch: 7,
        };
        write_floor(&disk, floor);
        assert_eq!(read_floor(&disk), floor);
    }

    #[test]
    fn seen_digest_accumulates() {
        let storage = Storage::default();
        let disk = storage.disk("r0");
        assert!(read_seen(&disk).is_empty());
        append_seen(&disk, &[3, 7]);
        append_seen(&disk, &[]);
        append_seen(&disk, &[11]);
        assert_eq!(read_seen(&disk), vec![3, 7, 11]);
    }

    #[test]
    fn empty_wal_parses_to_no_frames() {
        assert!(parse(&[]).is_empty());
        let storage = Storage::default();
        assert!(read_frames(&storage.disk("r0")).is_empty());
    }
}
