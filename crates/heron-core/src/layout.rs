//! RDMA memory layout of Heron's coordination structures, and wire codecs.
//!
//! Every replica node hosts (paper §III-B):
//!
//! * **coordination memory** `coord_mem[h][q]` — one 16-byte entry
//!   (`[timestamp, phase]`) per replica `q` of partition `h`, written by
//!   that replica with a single unsignaled RDMA write during Phases 2/4;
//! * **state-transfer memory** `statesync_mem[p]` — one `[req_tmp,
//!   status]` entry per group member `p`, the signalling array of
//!   Algorithm 3;
//! * a **transfer staging ring** where a responder streams 32 KiB state
//!   chunks, plus an `applied` counter word the requester bumps per chunk
//!   it applies and the responder reads for flow control;
//! * a **doorbell** word the colocated service process bumps to wake the
//!   executing processes, which poll it along with their other words.
//!
//! Clients host a **response region** with one `[seq, len, data]` slot per
//! partition; replicas answer with a single unsignaled write.

use crate::types::ObjectId;
use rdma_sim::{Addr, Ring};

pub(crate) const WORD: usize = 8;

/// Coordination entry: `[tmp_raw, phase]`.
pub(crate) const COORD_ENTRY: usize = 2 * WORD;
/// State-transfer entry: `[req_tmp_raw, status]`.
pub(crate) const SYNC_ENTRY: usize = 2 * WORD;
/// Transfer chunk header: `[stamp, nbytes, bound]`. `bound` identifies the
/// responder's snapshot (its `completed_req` at serve time) and acts as a
/// stream id: if two responders ever race (rotation after a timeout), the
/// requester applies only one coherent stream.
pub(crate) const CHUNK_HDR: usize = 3 * WORD;
/// Response slot header: `[seq, len]`.
pub(crate) const RESP_HDR: usize = 2 * WORD;
/// Maximum response payload: a client's response slot per replica holds
/// [`RESP_HDR`] plus this many bytes.
pub(crate) const MAX_RESPONSE: usize = 256;
/// Bytes of the envelope a client wraps every request in before it
/// multicasts it: `[client_id, seq, submit_ns]`.
pub const ENV_HDR: usize = 3 * WORD;
/// Transfer record header: `[oid, len]`.
pub(crate) const REC_HDR: usize = 2 * WORD;

/// Byte addresses of Heron's regions on one replica node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplicaLayout {
    pub coord: Addr,
    pub statesync: Addr,
    /// The transfer staging ring: [`CHUNK_HDR`] + one chunk per slot,
    /// stamped by the responder with the chunk's 1-based number.
    pub ring: Ring,
    pub applied: Addr,
    pub doorbell: Addr,
    /// Completed-prefix watermarks: one word per replica of every
    /// partition, written by that replica with a one-sided write whenever
    /// its hole-free completed prefix advances. Only consulted when
    /// `coord_width > 1` — with a pool, a coordination lane moving beyond
    /// `ts` no longer implies `ts` finished there (a later non-conflicting
    /// command may coordinate first), so barrier checks need this explicit
    /// evidence instead.
    pub progress: Addr,
    /// Executor-pool width the coordination region was sized for: each
    /// writer replica owns `coord_width` *lanes* (one per pool worker),
    /// each a [`COORD_ENTRY`]. At width 1 the region is byte-identical to
    /// the pre-pool layout.
    pub coord_width: usize,
}

impl ReplicaLayout {
    /// Entry written by worker `lane` of replica `q` of partition `h`
    /// (with `n` replicas per partition). Each lane has a single writer
    /// process, and only multi-partition commands write entries, which a
    /// replica dispatches in timestamp order even when other commands
    /// overtake each other: its lanes' timestamps are strictly increasing
    /// — the monotonicity [`coord_slot`] readers rely on, preserved per
    /// lane rather than per replica.
    ///
    /// [`coord_slot`]: Self::coord_slot
    pub fn coord_slot(&self, h: usize, q: usize, lane: usize, n: usize) -> Addr {
        debug_assert!(lane < self.coord_width);
        self.coord
            .offset((((h * n + q) * self.coord_width + lane) * COORD_ENTRY) as u64)
    }

    /// State-transfer entry of requester `p`.
    pub fn sync_slot(&self, p: usize) -> Addr {
        self.statesync.offset((p * SYNC_ENTRY) as u64)
    }

    /// Staging slot for transfer chunk `stamp` (1-based).
    pub fn ring_slot(&self, stamp: u64) -> Addr {
        self.ring.slot(stamp)
    }

    /// Completed-prefix watermark published by replica `q` of partition
    /// `h` (with `n` replicas per partition).
    pub fn progress_slot(&self, h: usize, q: usize, n: usize) -> Addr {
        self.progress.offset(((h * n + q) * WORD) as u64)
    }

    /// What the executing processes (delivery driver, pool workers)
    /// poll: coordination lanes and statesync entries, then —
    /// past the staging ring — `applied`, the doorbell and the
    /// `progress_words` watermarks. The regions are allocated back to
    /// back in field order, which is what makes these two spans.
    pub fn exec_ranges(&self, progress_words: usize) -> [(Addr, usize); 2] {
        let after_ring = (self.progress.0 - self.applied.0) as usize + progress_words * WORD;
        [
            (self.coord, (self.ring.base.0 - self.coord.0) as usize),
            (self.applied, after_ring),
        ]
    }

    /// The transfer staging ring, polled by the delivery driver, which
    /// applies the chunks of the transfers it requests.
    pub fn ring_range(&self) -> (Addr, usize) {
        (self.ring.base, self.ring.size())
    }
}

/// Response slot of replica `r` of partition `p` in a client's response
/// region. Each replica owns a distinct slot, so a replica catching up on
/// old requests can never clobber a fresher replica's response.
pub(crate) fn resp_slot(base: Addr, p: usize, r: usize, n: usize) -> Addr {
    base.offset(((p * n + r) * (RESP_HDR + MAX_RESPONSE)) as u64)
}

// ---------------------------------------------------------------------
// Codecs.
// ---------------------------------------------------------------------

fn word(bytes: &[u8], idx: usize) -> u64 {
    u64::from_le_bytes(bytes[idx * 8..idx * 8 + 8].try_into().expect("word"))
}

/// Encodes a coordination entry.
pub(crate) fn encode_coord(tmp_raw: u64, phase: u64) -> [u8; COORD_ENTRY] {
    let mut buf = [0u8; COORD_ENTRY];
    buf[..8].copy_from_slice(&tmp_raw.to_le_bytes());
    buf[8..].copy_from_slice(&phase.to_le_bytes());
    buf
}

/// Encodes a transfer chunk header.
pub(crate) fn encode_chunk_header(stamp: u64, nbytes: usize, bound: u64) -> [u8; CHUNK_HDR] {
    let mut buf = [0u8; CHUNK_HDR];
    buf[..8].copy_from_slice(&stamp.to_le_bytes());
    buf[8..16].copy_from_slice(&(nbytes as u64).to_le_bytes());
    buf[16..].copy_from_slice(&bound.to_le_bytes());
    buf
}

/// Decodes a transfer chunk header into `(stamp, nbytes, bound)`.
pub(crate) fn decode_chunk_header(hdr: &[u8]) -> (u64, usize, u64) {
    (word(hdr, 0), word(hdr, 1) as usize, word(hdr, 2))
}

/// Encodes a state-transfer entry.
pub(crate) fn encode_sync(req_tmp_raw: u64, status: u64) -> [u8; SYNC_ENTRY] {
    let mut buf = [0u8; SYNC_ENTRY];
    buf[..8].copy_from_slice(&req_tmp_raw.to_le_bytes());
    buf[8..].copy_from_slice(&status.to_le_bytes());
    buf
}

/// Request envelope: `[client_id, seq, submit_ns, payload]`.
pub(crate) fn encode_envelope(client_id: u64, seq: u64, submit_ns: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(ENV_HDR + payload.len());
    buf.extend_from_slice(&client_id.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&submit_ns.to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Decodes a request envelope into `(client_id, seq, submit_ns, payload)`.
pub(crate) fn decode_envelope(buf: &[u8]) -> (u64, u64, u64, &[u8]) {
    (word(buf, 0), word(buf, 1), word(buf, 2), &buf[ENV_HDR..])
}

/// Response slot image: `[seq, len, data]`.
pub(crate) fn encode_response(seq: u64, data: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(RESP_HDR + data.len());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&(data.len() as u64).to_le_bytes());
    buf.extend_from_slice(data);
    buf
}

// Address-query RPC (two-sided, Algorithm 2 lines 8–13).

const RPC_ADDR_QUERY: u64 = 1;
const RPC_ADDR_REPLY: u64 = 2;

/// Messages exchanged over the two-sided channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rpc {
    /// "At which address do you store `oid`?"
    AddrQuery { oid: ObjectId },
    /// The answer; `slot = None` when the object is unknown to the
    /// responder.
    AddrReply {
        oid: ObjectId,
        slot: Option<(Addr, usize)>,
    },
}

pub(crate) fn encode_rpc(rpc: &Rpc) -> Vec<u8> {
    let mut buf = Vec::with_capacity(5 * WORD);
    match rpc {
        Rpc::AddrQuery { oid } => {
            buf.extend_from_slice(&RPC_ADDR_QUERY.to_le_bytes());
            buf.extend_from_slice(&oid.0.to_le_bytes());
        }
        Rpc::AddrReply { oid, slot } => {
            buf.extend_from_slice(&RPC_ADDR_REPLY.to_le_bytes());
            buf.extend_from_slice(&oid.0.to_le_bytes());
            match slot {
                Some((addr, cap)) => {
                    buf.extend_from_slice(&1u64.to_le_bytes());
                    buf.extend_from_slice(&addr.0.to_le_bytes());
                    buf.extend_from_slice(&(*cap as u64).to_le_bytes());
                }
                None => buf.extend_from_slice(&0u64.to_le_bytes()),
            }
        }
    }
    buf
}

pub(crate) fn decode_rpc(buf: &[u8]) -> Option<Rpc> {
    match word(buf, 0) {
        RPC_ADDR_QUERY => Some(Rpc::AddrQuery {
            oid: ObjectId(word(buf, 1)),
        }),
        RPC_ADDR_REPLY => {
            let oid = ObjectId(word(buf, 1));
            let slot = if word(buf, 2) == 1 {
                Some((Addr(word(buf, 3)), word(buf, 4) as usize))
            } else {
                None
            };
            Some(Rpc::AddrReply { oid, slot })
        }
        _ => None,
    }
}

/// Builds transfer records `[oid, len, raw-slot-bytes]` into chunk bodies.
pub(crate) fn encode_record(oid: ObjectId, raw_slot: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(REC_HDR + raw_slot.len());
    buf.extend_from_slice(&oid.0.to_le_bytes());
    buf.extend_from_slice(&(raw_slot.len() as u64).to_le_bytes());
    buf.extend_from_slice(raw_slot);
    buf
}

/// Iterates over the records in a chunk body.
pub(crate) fn decode_records(body: &[u8]) -> impl Iterator<Item = (ObjectId, &[u8])> {
    let mut off = 0usize;
    std::iter::from_fn(move || {
        if off + REC_HDR > body.len() {
            return None;
        }
        let oid = ObjectId(u64::from_le_bytes(
            body[off..off + 8].try_into().expect("oid word"),
        ));
        let len =
            u64::from_le_bytes(body[off + 8..off + 16].try_into().expect("len word")) as usize;
        let start = off + REC_HDR;
        if start + len > body.len() {
            return None;
        }
        off = start + len;
        Some((oid, &body[start..start + len]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// For layouts whose staging ring the test never touches.
    const NO_RING: Ring = Ring {
        base: Addr(0),
        slots: 1,
        entry: CHUNK_HDR,
    };

    #[test]
    fn envelope_round_trips() {
        let buf = encode_envelope(7, 42, 12345, b"req");
        let (c, s, t, p) = decode_envelope(&buf);
        assert_eq!((c, s, t, p), (7, 42, 12345, b"req".as_ref()));
    }

    #[test]
    fn chunk_header_round_trips() {
        let buf = encode_chunk_header(9, 32 * 1024, 0xABCD);
        assert_eq!(decode_chunk_header(&buf), (9, 32 * 1024, 0xABCD));
    }

    #[test]
    fn rpc_round_trips() {
        for rpc in [
            Rpc::AddrQuery { oid: ObjectId(9) },
            Rpc::AddrReply {
                oid: ObjectId(9),
                slot: Some((Addr(0x100), 64)),
            },
            Rpc::AddrReply {
                oid: ObjectId(9),
                slot: None,
            },
        ] {
            assert_eq!(decode_rpc(&encode_rpc(&rpc)), Some(rpc));
        }
    }

    #[test]
    fn unknown_rpc_is_none() {
        let mut buf = encode_rpc(&Rpc::AddrQuery { oid: ObjectId(1) });
        buf[0] = 99;
        assert_eq!(decode_rpc(&buf), None);
    }

    #[test]
    fn records_pack_and_iterate() {
        let mut body = Vec::new();
        body.extend_from_slice(&encode_record(ObjectId(1), b"aaaa"));
        body.extend_from_slice(&encode_record(ObjectId(2), b"bb"));
        let recs: Vec<_> = decode_records(&body).collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0], (ObjectId(1), b"aaaa".as_ref()));
        assert_eq!(recs[1], (ObjectId(2), b"bb".as_ref()));
    }

    #[test]
    fn coord_slots_are_disjoint() {
        let l = ReplicaLayout {
            coord: Addr(0),
            statesync: Addr(0),
            ring: NO_RING,
            applied: Addr(0),
            doorbell: Addr(0),
            progress: Addr(0),
            coord_width: 1,
        };
        let a = l.coord_slot(0, 0, 0, 3);
        let b = l.coord_slot(0, 1, 0, 3);
        let c = l.coord_slot(1, 0, 0, 3);
        assert_eq!(b.0 - a.0, COORD_ENTRY as u64);
        assert_eq!(c.0 - a.0, (3 * COORD_ENTRY) as u64);
    }

    #[test]
    fn coord_lanes_are_disjoint_and_width1_matches_legacy() {
        let wide = ReplicaLayout {
            coord: Addr(0),
            statesync: Addr(0),
            ring: NO_RING,
            applied: Addr(0),
            doorbell: Addr(0),
            progress: Addr(0),
            coord_width: 4,
        };
        // Lanes of one writer are adjacent entries; the next writer's
        // lane 0 starts after all of the previous writer's lanes.
        let a = wide.coord_slot(0, 0, 0, 3);
        assert_eq!(wide.coord_slot(0, 0, 1, 3).0 - a.0, COORD_ENTRY as u64);
        assert_eq!(
            wide.coord_slot(0, 1, 0, 3).0 - a.0,
            (4 * COORD_ENTRY) as u64
        );
        // Width 1 reproduces the pre-pool offsets exactly.
        let narrow = ReplicaLayout {
            coord_width: 1,
            ..wide
        };
        assert_eq!(narrow.coord_slot(1, 2, 0, 3).0, (5 * COORD_ENTRY) as u64);
    }

    #[test]
    fn ring_slots_wrap() {
        let l = ReplicaLayout {
            coord: Addr(0),
            statesync: Addr(0),
            ring: Ring {
                base: Addr(0x1000),
                slots: 4,
                entry: CHUNK_HDR + 1024,
            },
            applied: Addr(0),
            doorbell: Addr(0),
            progress: Addr(0),
            coord_width: 1,
        };
        let s1 = l.ring_slot(1);
        assert_eq!(s1, l.ring_slot(5));
        assert_eq!(l.ring_slot(2).0 - s1.0, (CHUNK_HDR + 1024) as u64);
        assert_eq!(l.ring_range(), (Addr(0x1000), 4 * (CHUNK_HDR + 1024)));
    }
}
