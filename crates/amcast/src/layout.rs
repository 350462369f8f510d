//! RDMA memory layout of the multicast rings, and entry codecs.
//!
//! Every replica node hosts:
//!
//! * a **submission ring** with a dedicated lane per client (clients write
//!   messages here with one unsignaled RDMA write);
//! * a **control ring** with a dedicated lane per writer node (leaders
//!   write proposals/finals; followers forward submissions to the leader);
//! * the group **log** (the leader replicates sequenced entries here), plus
//!   a `log_seq` word advertising the highest contiguous entry stored;
//! * an **ack array** (one word per group member; followers post their
//!   applied sequence number into the leader's array);
//! * a **heartbeat word** (the leader posts `epoch << 32 | counter`);
//! * a **log-floor word** (a leader whose durable log was truncated below
//!   a follower's position posts the first sequence number it can still
//!   serve; everything before it must be recovered out of band).
//!
//! Lanes use *stamp* sequencing instead of locks: each writer stamps its
//! entries with a private counter starting at 1 and writes slot
//! `(stamp - 1) % slots`; the reader consumes a slot exactly when its stamp
//! equals the reader's expected counter. RC FIFO delivery makes this safe
//! without any atomic read-modify-write on the critical path.

use crate::config::McastConfig;
use crate::DestMask;
use rdma_sim::Addr;

pub(crate) const WORD: usize = 8;

/// Round a byte count up to whole words.
pub(crate) const fn round8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

pub(crate) const SUB_HDR: usize = 4 * WORD; // stamp, uid, mask, len
pub(crate) const CTRL_HDR: usize = 6 * WORD; // stamp, kind, uid, a, b, len
pub(crate) const LOG_HDR: usize = 6 * WORD; // stamp, uid, mask, ts, epoch, len

/// Byte addresses of the multicast regions on one replica node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeLayout {
    pub sub: Addr,
    pub ctrl: Addr,
    pub log: Addr,
    pub log_seq: Addr,
    pub acks: Addr,
    pub heartbeat: Addr,
    pub log_floor: Addr,
    /// Boot-generation word: a recovering replica publishes its power-cycle
    /// count here once its WAL is reloaded. Elections treat an alive peer
    /// whose word lags its cycle count as not-yet-ready and wait, so a
    /// takeover never adopts a log shorter than a surviving WAL.
    pub boot_gen: Addr,
}

/// Size calculations shared by writers and readers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sizes {
    pub sub_entry: usize,
    pub ctrl_entry: usize,
    pub log_entry: usize,
    pub sub_slots: usize,
    pub ctrl_slots: usize,
    pub log_slots: usize,
    pub max_clients: usize,
    pub total_replicas: usize,
    pub replicas_per_group: usize,
}

impl Sizes {
    pub fn from_config(cfg: &McastConfig) -> Self {
        Sizes {
            sub_entry: SUB_HDR + round8(cfg.max_payload),
            ctrl_entry: CTRL_HDR + round8(cfg.max_payload),
            log_entry: LOG_HDR + round8(cfg.max_payload),
            sub_slots: cfg.sub_slots,
            ctrl_slots: cfg.ctrl_slots,
            log_slots: cfg.log_slots,
            max_clients: cfg.max_clients,
            total_replicas: cfg.total_replicas(),
            replicas_per_group: cfg.replicas_per_group,
        }
    }

    pub fn sub_region(&self) -> usize {
        self.max_clients * self.sub_slots * self.sub_entry
    }

    pub fn ctrl_region(&self) -> usize {
        self.total_replicas * self.ctrl_slots * self.ctrl_entry
    }

    pub fn log_region(&self) -> usize {
        self.log_slots * self.log_entry
    }

    /// Address of a client's submission slot for a given stamp.
    pub fn sub_slot(&self, base: NodeLayout, client: usize, stamp: u64) -> Addr {
        debug_assert!(client < self.max_clients);
        let lane = base.sub.0 as usize + client * self.sub_slots * self.sub_entry;
        let slot = ((stamp - 1) as usize) % self.sub_slots;
        Addr((lane + slot * self.sub_entry) as u64)
    }

    /// Address of a writer node's control slot for a given stamp.
    pub fn ctrl_slot(&self, base: NodeLayout, writer: usize, stamp: u64) -> Addr {
        debug_assert!(writer < self.total_replicas);
        let lane = base.ctrl.0 as usize + writer * self.ctrl_slots * self.ctrl_entry;
        let slot = ((stamp - 1) as usize) % self.ctrl_slots;
        Addr((lane + slot * self.ctrl_entry) as u64)
    }

    /// Address of the log slot holding sequence number `seq`.
    pub fn log_slot(&self, base: NodeLayout, seq: u64) -> Addr {
        let slot = (seq as usize) % self.log_slots;
        Addr(base.log.0 + (slot * self.log_entry) as u64)
    }

    /// Address of group member `idx`'s word in the ack array.
    pub fn ack_slot(&self, base: NodeLayout, idx: usize) -> Addr {
        debug_assert!(idx < self.replicas_per_group);
        Addr(base.acks.0 + (idx * WORD) as u64)
    }
}

// ---------------------------------------------------------------------
// Entry codecs. Entries are written with a single RDMA write whose first
// word is the stamp, so a reader that observes the stamp observes the whole
// entry (writes land atomically at one virtual instant).
// ---------------------------------------------------------------------

fn put_word(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn get_word(bytes: &[u8], idx: usize) -> u64 {
    u64::from_le_bytes(bytes[idx * 8..idx * 8 + 8].try_into().expect("word"))
}

/// The stamp word every entry header starts with: all a reader needs of an
/// idle slot.
pub(crate) fn stamp_of(hdr: &[u8]) -> u64 {
    get_word(hdr, 0)
}

pub(crate) fn encode_sub(stamp: u64, uid: u32, mask: DestMask, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(SUB_HDR + payload.len());
    put_word(&mut buf, stamp);
    put_word(&mut buf, u64::from(uid));
    put_word(&mut buf, mask);
    put_word(&mut buf, payload.len() as u64);
    buf.extend_from_slice(payload);
    buf
}

pub(crate) fn decode_sub_header(hdr: &[u8]) -> (u64, u32, DestMask, usize) {
    (
        get_word(hdr, 0),
        get_word(hdr, 1) as u32,
        get_word(hdr, 2),
        get_word(hdr, 3) as usize,
    )
}

/// Control entry kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CtrlKind {
    /// `a` = proposing group, `b` = proposed clock.
    Proposal,
    /// `a` = announcing group, `b` = final clock.
    Final,
    /// Forwarded submission: `a` = destination mask, payload attached.
    FwdSub,
}

impl CtrlKind {
    fn to_word(self) -> u64 {
        match self {
            CtrlKind::Proposal => 1,
            CtrlKind::Final => 2,
            CtrlKind::FwdSub => 3,
        }
    }

    fn from_word(w: u64) -> Option<Self> {
        match w {
            1 => Some(CtrlKind::Proposal),
            2 => Some(CtrlKind::Final),
            3 => Some(CtrlKind::FwdSub),
            _ => None,
        }
    }
}

pub(crate) fn encode_ctrl(
    stamp: u64,
    kind: CtrlKind,
    uid: u32,
    a: u64,
    b: u64,
    payload: &[u8],
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(CTRL_HDR + payload.len());
    put_word(&mut buf, stamp);
    put_word(&mut buf, kind.to_word());
    put_word(&mut buf, u64::from(uid));
    put_word(&mut buf, a);
    put_word(&mut buf, b);
    put_word(&mut buf, payload.len() as u64);
    buf.extend_from_slice(payload);
    buf
}

pub(crate) fn decode_ctrl_header(hdr: &[u8]) -> (u64, Option<CtrlKind>, u32, u64, u64, usize) {
    (
        get_word(hdr, 0),
        CtrlKind::from_word(get_word(hdr, 1)),
        get_word(hdr, 2) as u32,
        get_word(hdr, 3),
        get_word(hdr, 4),
        get_word(hdr, 5) as usize,
    )
}

/// A decoded log entry. `stamp == seq + 1` for the entry holding sequence
/// number `seq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LogEntry {
    pub seq: u64,
    pub uid: u32,
    pub mask: DestMask,
    pub ts_raw: u64,
    pub payload: Vec<u8>,
}

/// Encodes a log entry. `epoch` is the epoch of the leader *writing* the
/// entry into the destination slot (re-stamped on retransmission and
/// backfill): a recovered replica uses it to distinguish entries confirmed
/// by the current regime from the stale tail of its own pre-crash log.
pub(crate) fn encode_log(
    seq: u64,
    uid: u32,
    mask: DestMask,
    ts_raw: u64,
    epoch: u64,
    payload: &[u8],
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(LOG_HDR + payload.len());
    put_word(&mut buf, seq + 1);
    put_word(&mut buf, u64::from(uid));
    put_word(&mut buf, mask);
    put_word(&mut buf, ts_raw);
    put_word(&mut buf, epoch);
    put_word(&mut buf, payload.len() as u64);
    buf.extend_from_slice(payload);
    buf
}

pub(crate) fn decode_log_header(hdr: &[u8]) -> (u64, u32, DestMask, u64, u64, usize) {
    (
        get_word(hdr, 0),
        get_word(hdr, 1) as u32,
        get_word(hdr, 2),
        get_word(hdr, 3),
        get_word(hdr, 4),
        get_word(hdr, 5) as usize,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_entry_round_trips() {
        let payload = b"hello multicast";
        let buf = encode_sub(42, 7, 0b101, payload);
        let (stamp, uid, mask, len) = decode_sub_header(&buf[..SUB_HDR]);
        assert_eq!((stamp, uid, mask, len), (42, 7, 0b101, payload.len()));
        assert_eq!(&buf[SUB_HDR..], payload);
    }

    #[test]
    fn ctrl_entry_round_trips_all_kinds() {
        for kind in [CtrlKind::Proposal, CtrlKind::Final, CtrlKind::FwdSub] {
            let buf = encode_ctrl(1, kind, 9, 3, 77, b"p");
            let (stamp, k, uid, a, b, len) = decode_ctrl_header(&buf[..CTRL_HDR]);
            assert_eq!((stamp, k, uid, a, b, len), (1, Some(kind), 9, 3, 77, 1));
        }
    }

    #[test]
    fn unknown_ctrl_kind_is_none() {
        let buf = encode_ctrl(1, CtrlKind::Proposal, 0, 0, 0, b"");
        let mut bad = buf.clone();
        bad[8..16].copy_from_slice(&99u64.to_le_bytes());
        let (_, k, ..) = decode_ctrl_header(&bad[..CTRL_HDR]);
        assert_eq!(k, None);
    }

    #[test]
    fn log_entry_round_trips() {
        let buf = encode_log(5, 11, 0b11, 0xABCD, 3, b"payload!");
        let (stamp, uid, mask, ts, epoch, len) = decode_log_header(&buf[..LOG_HDR]);
        assert_eq!(
            (stamp, uid, mask, ts, epoch, len),
            (6, 11, 0b11, 0xABCD, 3, 8)
        );
    }

    #[test]
    fn slot_addresses_tile_without_overlap() {
        let cfg = McastConfig::new(2, 3).with_max_clients(4);
        let sizes = Sizes::from_config(&cfg);
        let base = NodeLayout {
            sub: Addr(0),
            ctrl: Addr(sizes.sub_region() as u64),
            log: Addr((sizes.sub_region() + sizes.ctrl_region()) as u64),
            log_seq: Addr(0),
            acks: Addr(0),
            heartbeat: Addr(0),
            log_floor: Addr(0),
            boot_gen: Addr(0),
        };
        // Consecutive stamps in a lane advance by one entry and wrap.
        let s1 = sizes.sub_slot(base, 1, 1);
        let s2 = sizes.sub_slot(base, 1, 2);
        assert_eq!(s2.0 - s1.0, sizes.sub_entry as u64);
        let wrap = sizes.sub_slot(base, 1, 1 + sizes.sub_slots as u64);
        assert_eq!(wrap, s1);
        // Different clients use disjoint lanes.
        let other = sizes.sub_slot(base, 2, 1);
        assert!(other.0 >= s1.0 + (sizes.sub_slots * sizes.sub_entry) as u64);
    }

    #[test]
    fn round8_rounds_up() {
        assert_eq!(round8(0), 0);
        assert_eq!(round8(1), 8);
        assert_eq!(round8(8), 8);
        assert_eq!(round8(9), 16);
    }
}
