//! RDMA memory layout of the multicast rings, and entry codecs.
//!
//! Every replica node hosts:
//!
//! * a **submission ring** with a dedicated lane per client (clients write
//!   messages here with one unsignaled RDMA write);
//! * a **control ring** with a dedicated lane per writer node (leaders
//!   write proposals/finals; followers forward submissions to the leader).
//!   A control slot holds a header and nothing else: a forwarded
//!   submission's payload goes to the **forward ring**, which gives every
//!   writer one payload slot per slot of its control lane. The writer posts
//!   the header and the payload to the slots of one stamp behind one
//!   doorbell, so both land at one instant and the lane alone orders them;
//! * the group **log** (the leader replicates sequenced entries here), plus
//!   a `log_seq` word advertising the highest contiguous entry stored. A
//!   log slot is [`LOG_SLOT`] bytes whatever `max_payload` is: a header
//!   and [`LOG_INLINE`] bytes of room behind it, which every request of
//!   the benchmark workloads fits. A longer payload spills to the log's
//!   **spill ring**, one `max_payload` slot per log slot, and the leader
//!   posts the header and the payload behind one doorbell, as a forward's;
//! * an **ack array** (one word per group member; followers post their
//!   applied sequence number into the leader's array);
//! * a **heartbeat word** (the leader posts `epoch << 32 | counter`);
//! * a **log-floor word** (a leader whose durable log was truncated below
//!   a follower's position posts the first sequence number it can still
//!   serve; everything before it must be recovered out of band).
//!
//! Lanes use *stamp* sequencing instead of locks: each writer stamps its
//! entries with a private counter starting at 1 and writes the slot
//! [`Ring::slot`] gives that stamp; the reader consumes a slot exactly when
//! its stamp equals the reader's expected counter ([`Lane`] is that rule,
//! for both ends). RC FIFO delivery makes this safe without any atomic
//! read-modify-write on the critical path. Where an entry's payload sits is
//! [`Lane::payload_at`], asked by the writer and the reader alike: behind
//! its header if it fits the slot's room, else in the lane's side ring, in
//! the slot of its stamp. A submission slot has room for any payload; a
//! control slot has none, so a forwarded payload is in the forward ring; a
//! log slot has room for [`LOG_INLINE`] bytes. [`Lane::writes`] is the
//! writer's half of the rule: the one or two writes that put an entry in
//! place.

use crate::config::McastConfig;
use crate::DestMask;
use rdma_sim::{Addr, LaneMarks, MemView, Node, Ring};

pub(crate) const WORD: usize = 8;

/// Round a byte count up to whole words.
pub(crate) const fn round8(n: usize) -> usize {
    n.div_ceil(8) * 8
}

pub(crate) const SUB_HDR: usize = 4 * WORD; // stamp, uid, mask, len
pub(crate) const CTRL_HDR: usize = 6 * WORD; // stamp, kind, uid, a, b, len
pub(crate) const LOG_HDR: usize = 6 * WORD; // stamp, uid, mask, ts, epoch, len

/// Bytes per log slot: a log entry's header and the room its payload has
/// behind it. A slot is sized for the entries runs write, not for the
/// largest payload a deployment admits: its pages are registered memory a
/// follower commits for every entry it stores.
pub const LOG_SLOT: usize = 256;

/// The largest payload a log slot holds behind its header; a longer one
/// spills to the log's spill ring.
pub const LOG_INLINE: usize = LOG_SLOT - LOG_HDR;

/// Byte addresses of the multicast regions on one replica node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeLayout {
    pub sub: Addr,
    pub ctrl: Addr,
    /// Forwarded payloads: one ring per writer, beside its control lane.
    pub fwd: Addr,
    pub log: Addr,
    /// Payloads too long for their log slot: one slot per log slot.
    pub log_spill: Addr,
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
    /// A side-ring slot (forward ring, spill ring): one whole payload.
    pub payload_entry: usize,
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
            ctrl_entry: CTRL_HDR,
            payload_entry: round8(cfg.max_payload),
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

    pub fn fwd_region(&self) -> usize {
        self.total_replicas * self.ctrl_slots * self.payload_entry
    }

    pub fn log_region(&self) -> usize {
        self.log_slots * LOG_SLOT
    }

    pub fn spill_region(&self) -> usize {
        self.log_slots * self.payload_entry
    }

    /// Client `client`'s submission lane on the node laid out as `base`.
    pub fn sub_lane(&self, base: NodeLayout, client: usize) -> Ring {
        debug_assert!(client < self.max_clients);
        nth_ring(base.sub, client, self.sub_slots, self.sub_entry)
    }

    /// Writer node `writer`'s control lane on the node laid out as `base`.
    pub fn ctrl_lane(&self, base: NodeLayout, writer: usize) -> Ring {
        debug_assert!(writer < self.total_replicas);
        nth_ring(base.ctrl, writer, self.ctrl_slots, self.ctrl_entry)
    }

    /// Writer node `writer`'s forward ring on the node laid out as `base`:
    /// the payload of the forward its control lane holds in the slot of the
    /// same stamp.
    pub fn fwd_ring(&self, base: NodeLayout, writer: usize) -> Ring {
        debug_assert!(writer < self.total_replicas);
        nth_ring(base.fwd, writer, self.ctrl_slots, self.payload_entry)
    }

    /// Writer node `writer`'s control lane on the node laid out as `base`,
    /// as one end of it sees it: headers in the lane, forwarded payloads in
    /// the writer's forward ring.
    pub fn ctrl_end(&self, base: NodeLayout, writer: usize) -> Lane {
        Lane {
            payloads: Some(self.fwd_ring(base, writer)),
            ..Lane::new(self.ctrl_lane(base, writer), CTRL_HDR)
        }
    }

    /// The group log on the node laid out as `base`: a ring its leader
    /// stamps with `seq + 1`, whose payloads too long for a slot are in
    /// the spill ring's slot of the same stamp.
    pub fn log_end(&self, base: NodeLayout) -> Lane {
        Lane {
            payloads: Some(nth_ring(
                base.log_spill,
                0,
                self.log_slots,
                self.payload_entry,
            )),
            ..Lane::new(nth_ring(base.log, 0, self.log_slots, LOG_SLOT), LOG_HDR)
        }
    }

    /// Address of group member `idx`'s word in the ack array.
    pub fn ack_slot(&self, base: NodeLayout, idx: usize) -> Addr {
        debug_assert!(idx < self.replicas_per_group);
        Addr(base.acks.0 + (idx * WORD) as u64)
    }
}

/// The `idx`-th of the equal rings laid back to back from `region`.
fn nth_ring(region: Addr, idx: usize, slots: usize, entry: usize) -> Ring {
    Ring {
        base: region.offset((idx * slots * entry) as u64),
        slots,
        entry,
    }
}

/// One end of a single-writer lane: its ring, the header every entry
/// leads with, where payloads sit, and the next stamp this end writes (the
/// writer's end) or consumes (the reader's cursor). The group log is one
/// too ([`Sizes::log_end`]): its leader writes the stamp `seq + 1`.
///
/// What the reader finds under its cursor is the whole protocol: a stamp
/// *below* the cursor is an earlier lap — nothing new; the cursor's own
/// stamp is the next entry; a stamp *beyond* it means the writer lapped the
/// ring, so the cursor jumps to what is there and the senders' retry paths
/// recover the rest.
///
/// A reader that was out — crashed, or booted after a power cut — no longer
/// knows what its cursor's slot says: writes posted while it was down were
/// dropped, or its rings were wiped, and the next entry can land anywhere.
/// Its lanes are *lost* until they next yield an entry: a lost lane reads
/// every slot, and the oldest stamp at or past the cursor is where it
/// resumes.
///
/// A writer booted after a power cut has the twin problem: its counter
/// restarted, while each reader's cursor stayed above the stamps its last
/// life wrote. Its lanes are lost too, until it reads one where it lives
/// and resumes above every stamp there ([`Lane::resume`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lane {
    pub ring: Ring,
    pub hdr: usize,
    /// The side ring of payloads too long for the room behind a header:
    /// the payload of such an entry stamped `s` is in this ring's slot for
    /// `s`. `None`: every payload fits its slot.
    pub payloads: Option<Ring>,
    pub next: u64,
    /// The reader does not know where in the ring its next entry lands;
    /// the writer does not know which stamps its last life wrote.
    pub lost: bool,
}

impl Lane {
    pub fn new(ring: Ring, hdr: usize) -> Self {
        Lane {
            ring,
            hdr,
            payloads: None,
            next: 1,
            lost: false,
        }
    }

    /// The payload bytes a slot holds behind its header.
    pub fn room(&self) -> usize {
        self.ring.entry - self.hdr
    }

    /// Where the `len`-byte payload of the entry stamped `stamp` sits, its
    /// header being at `slot`: behind the header if it fits the slot's
    /// room, else in the side ring's slot for `stamp`. A slot is shared by
    /// the stamps of every lap, and so is its side slot: what lands there
    /// is one stamp's entry.
    pub fn payload_at(&self, stamp: u64, slot: Addr, len: usize) -> Addr {
        match self.payloads {
            Some(ring) if len > self.room() => ring.slot(stamp),
            _ => {
                debug_assert!(len <= self.room(), "a payload longer than its slot");
                slot.offset(self.hdr as u64)
            }
        }
    }

    /// Writer: the writes that put `entry` — a header, then its payload —
    /// in the slot of `stamp`, for one doorbell: the entry whole when its
    /// payload fits behind the header, else the header, then the payload
    /// in its side slot. A doorbell's writes land at one instant, so a
    /// reader that sees the stamp sees the payload.
    pub fn writes<'e>(
        &self,
        stamp: u64,
        entry: &'e [u8],
    ) -> impl Iterator<Item = (Addr, &'e [u8])> {
        let slot = self.ring.slot(stamp);
        let (hdr, payload) = entry.split_at(self.hdr);
        let at = self.payload_at(stamp, slot, payload.len());
        let spilled = at != slot.offset(self.hdr as u64);
        let first = if spilled { hdr } else { entry };
        std::iter::once((slot, first)).chain(spilled.then_some((at, payload)))
    }

    /// Writer: takes the next stamp; the stamp and the slot its entry goes
    /// to. Stamps are consumed in call order, so consecutive entries land
    /// in consecutive slots however they are posted.
    pub fn claim(&mut self) -> (u64, Addr) {
        let stamp = self.next;
        self.next += 1;
        (stamp, self.ring.slot(stamp))
    }

    /// Writer: resumes a lost lane above every stamp it holds, `ring` being
    /// the lane's bytes read where it lives.
    pub fn resume(&mut self, ring: &[u8]) {
        let last = ring.chunks(self.ring.entry).map(stamp_of).max();
        self.next = self.next.max(last.unwrap_or(0) + 1);
        self.lost = false;
    }

    /// Reader: whether the slot under the cursor holds the cursor's entry
    /// or a later one — any slot, if the lane is lost.
    pub fn ready(&self, m: &MemView<'_>) -> bool {
        if self.lost {
            return self.stamps_ahead(m).next().is_some();
        }
        m.word(self.ring.slot(self.next)).unwrap_or(0) >= self.next
    }

    /// Reader: the stamps at or past the cursor anywhere in the ring, in
    /// slot order: what a lost lane can resume from.
    fn stamps_ahead<'m>(&self, m: &'m MemView<'_>) -> impl Iterator<Item = u64> + 'm {
        let (ring, next) = (self.ring, self.next);
        (1..=ring.slots as u64)
            .map(move |s| m.word(ring.slot(s)).unwrap_or(0))
            .filter(move |&stamp| stamp >= next)
    }

    /// Reader: consumes the entry under the cursor, jumping to it first if
    /// it is a later one — or, on a lost lane, to the oldest stamp at or
    /// past the cursor, which finds the lane; its slot and its header
    /// ([`Self::payload_at`] says where its payload is).
    pub fn take<'m>(&mut self, m: &'m MemView<'_>) -> Option<(Addr, &'m [u8])> {
        if self.lost {
            self.next = self.stamps_ahead(m).min()?;
            self.lost = false;
        }
        loop {
            let addr = self.ring.slot(self.next);
            let hdr = m.bytes(addr, self.hdr).ok()?;
            let stamp = stamp_of(hdr);
            if stamp < self.next {
                return None;
            }
            if stamp == self.next {
                self.next += 1;
                return Some((addr, hdr));
            }
            self.next = stamp;
        }
    }
}

/// Which of a replica's lanes a landing wrote since the replica last found
/// them idle at their cursors ([`LaneMarks`], one array per region),
/// indexed in scan order: client `c`'s submission lane is lane `c`, then
/// come the control lanes of every replica but `me`, by global index.
#[derive(Debug)]
pub(crate) struct ScanMarks {
    sub: LaneMarks,
    ctrl: LaneMarks,
    /// Our global replica index: nobody writes our own control lane on our
    /// node, so the scan has no lane for it.
    me: usize,
}

impl ScanMarks {
    /// Registers the submission and control regions of the node laid out
    /// as `base`, the node of global replica `me`.
    pub fn register(node: &Node, sizes: &Sizes, base: NodeLayout, me: usize) -> Self {
        let region = |at, lane: Ring, lanes| node.lane_marks(at, lane.size(), lanes);
        ScanMarks {
            sub: region(base.sub, sizes.sub_lane(base, 0), sizes.max_clients),
            ctrl: region(base.ctrl, sizes.ctrl_lane(base, 0), sizes.total_replicas),
            me,
        }
    }

    /// The first marked lane at or after `from`.
    pub fn next(&self, from: usize) -> Option<usize> {
        let clients = self.sub.lanes();
        if let Some(lane) = self.sub.next_marked(from) {
            return Some(lane);
        }
        let skip = from.saturating_sub(clients);
        let mut writer = skip + usize::from(skip >= self.me);
        loop {
            writer = self.ctrl.next_marked(writer)?;
            if writer != self.me {
                return Some(clients + writer - usize::from(writer > self.me));
            }
            writer += 1;
        }
    }

    /// The marked lanes, in ascending order, each found when the iterator
    /// reaches it.
    pub fn marked(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.next(0), |&lane| self.next(lane + 1))
    }

    /// Clears `lane`'s mark: the scan found it idle at its cursor.
    pub fn clear(&self, lane: usize) {
        let clients = self.sub.lanes();
        match lane.checked_sub(clients) {
            None => self.sub.clear(lane),
            Some(skip) => self.ctrl.clear(skip + usize::from(skip >= self.me)),
        }
    }

    /// Marks every lane: a rejoining replica's lanes are all lost.
    pub fn mark_all(&self) {
        self.sub.mark_all();
        self.ctrl.mark_all();
    }
}

// ---------------------------------------------------------------------
// Entry codecs. An entry is its header, whose first word is the stamp,
// then its payload. It is written with a single RDMA write, or — a header
// and a payload in a side ring ([`Lane::writes`]) — with two writes behind
// one doorbell, so a reader that observes the stamp observes the whole
// entry (a doorbell's writes land atomically at one virtual instant).
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
    /// Forwarded submission: `a` = destination mask; the payload is in the
    /// writer's forward ring ([`Sizes::fwd_ring`]).
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

/// Encodes a control entry. Only a forward carries a payload, and a
/// control slot has no room for one: it lands in the forward ring.
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
            assert_eq!(buf.len(), CTRL_HDR + 1);
            let (stamp, k, uid, a, b, len) = decode_ctrl_header(&buf);
            assert_eq!((stamp, k, uid, a, b, len), (1, Some(kind), 9, 3, 77, 1));
        }
    }

    #[test]
    fn unknown_ctrl_kind_is_none() {
        let buf = encode_ctrl(1, CtrlKind::Proposal, 0, 0, 0, &[]);
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
        let ctrl = sizes.sub_region();
        let fwd = ctrl + sizes.ctrl_region();
        let log = fwd + sizes.fwd_region();
        let spill = log + sizes.log_region();
        let base = NodeLayout {
            sub: Addr(0),
            ctrl: Addr(ctrl as u64),
            fwd: Addr(fwd as u64),
            log: Addr(log as u64),
            log_spill: Addr(spill as u64),
            log_seq: Addr((spill + sizes.spill_region()) as u64),
            acks: Addr(0),
            heartbeat: Addr(0),
            log_floor: Addr(0),
            boot_gen: Addr(0),
        };
        // Consecutive stamps in a lane advance by one entry and wrap: stamp
        // `s` and `s + slots` share a slot.
        let lane = sizes.sub_lane(base, 1);
        let s1 = lane.slot(1);
        assert_eq!(lane.slot(2).0 - s1.0, sizes.sub_entry as u64);
        assert_eq!(lane.slot(1 + sizes.sub_slots as u64), s1);
        // Different clients use disjoint lanes.
        let other = sizes.sub_lane(base, 2).slot(1);
        assert!(other.0 >= s1.0 + lane.size() as u64);
        // A control slot is a header; a forward ring slot holds a payload,
        // one per control slot, and it wraps with its lane.
        assert_eq!(sizes.ctrl_entry, CTRL_HDR);
        assert_eq!(sizes.payload_entry, round8(cfg.max_payload));
        let slots = sizes.ctrl_slots as u64;
        for writer in 0..sizes.total_replicas {
            let end = sizes.ctrl_end(base, writer);
            let payloads = end.payloads.expect("a control lane has a forward ring");
            assert_eq!(payloads, sizes.fwd_ring(base, writer));
            assert_eq!(payloads.slots, end.ring.slots);
            assert_eq!(end.room(), 0);
            // Writer by writer, lanes and rings follow each other with no
            // gap and no overlap.
            assert_eq!(end.ring.base.0, (ctrl + writer * end.ring.size()) as u64);
            assert_eq!(payloads.base.0, (fwd + writer * payloads.size()) as u64);
            for stamp in [1, 2, slots, slots + 1, 3 * slots + 2] {
                let slot = end.ring.slot(stamp);
                let at = end.payload_at(stamp, slot, 1);
                assert_eq!(at, payloads.slot(stamp));
                let lap = stamp + slots;
                assert_eq!(at, end.payload_at(lap, end.ring.slot(lap), 1));
            }
        }
        // The regions tile: the last lane ends where the forward rings
        // start, the last forward ring where the log starts.
        let last = sizes.ctrl_end(base, sizes.total_replicas - 1);
        assert_eq!(last.ring.base.0 + last.ring.size() as u64, fwd as u64);
        let payloads = last.payloads.expect("a forward ring");
        assert_eq!(payloads.base.0 + payloads.size() as u64, log as u64);
        // A submission slot has room for any payload, behind its header.
        let sub = Lane::new(lane, SUB_HDR);
        assert_eq!(sub.room(), round8(cfg.max_payload));
        let at = sub.payload_at(2, lane.slot(2), cfg.max_payload);
        assert_eq!(at, lane.slot(2).offset(SUB_HDR as u64));
        // The log is the ring its leader stamps with `seq + 1`, one
        // `LOG_SLOT` a sequence number; the spill ring follows it, one
        // payload slot per log slot, and ends where `log_seq` starts.
        let log_end = sizes.log_end(base);
        assert_eq!(log_end.room(), LOG_INLINE);
        assert_eq!(log_end.ring.slot(1), base.log);
        let wrap = log_end.ring.slot(sizes.log_slots as u64 + 2);
        assert_eq!(wrap, base.log.offset(LOG_SLOT as u64));
        assert_eq!(
            log_end.ring.base.0 + log_end.ring.size() as u64,
            spill as u64
        );
        let side = log_end.payloads.expect("a spill ring");
        assert_eq!(
            (side.slots, side.entry),
            (sizes.log_slots, sizes.payload_entry)
        );
        assert_eq!(side.base.0 + side.size() as u64, base.log_seq.0);
        // A payload that fits stays behind its header; one byte more spills
        // to the slot of its own stamp, on every lap.
        for seq in [0, 1, sizes.log_slots as u64 - 1, sizes.log_slots as u64 + 3] {
            let (stamp, slot) = (seq + 1, log_end.ring.slot(seq + 1));
            let inline = log_end.payload_at(stamp, slot, LOG_INLINE);
            assert_eq!(inline, slot.offset(LOG_HDR as u64));
            assert_eq!(
                log_end.payload_at(stamp, slot, LOG_INLINE + 1),
                side.slot(stamp)
            );
        }
    }

    /// An entry goes in place whole while its payload fits the slot, and as
    /// a header and a payload in the side slot of its stamp once it does
    /// not; the bytes are the entry's either way.
    #[test]
    fn an_entry_is_one_write_or_a_header_and_a_spilled_payload() {
        let sizes = Sizes::from_config(&McastConfig::new(1, 3));
        let base = NodeLayout {
            sub: Addr(0),
            ctrl: Addr(0),
            fwd: Addr(0),
            log: Addr(0),
            log_spill: Addr(sizes.log_region() as u64),
            log_seq: Addr(0),
            acks: Addr(0),
            heartbeat: Addr(0),
            log_floor: Addr(0),
            boot_gen: Addr(0),
        };
        let log = sizes.log_end(base);
        let spill = log.payloads.expect("a spill ring");
        for len in [0, LOG_INLINE, LOG_INLINE + 1, 512] {
            let entry = encode_log(6, 1, 0b1, 7, 0, &vec![9; len]);
            let writes: Vec<(Addr, &[u8])> = log.writes(7, &entry).collect();
            let slot = log.ring.slot(7);
            if len <= LOG_INLINE {
                assert_eq!(writes, [(slot, &entry[..])]);
            } else {
                let (hdr, payload) = entry.split_at(LOG_HDR);
                assert_eq!(writes, [(slot, hdr), (spill.slot(7), payload)]);
            }
        }
        // A control entry with a payload is always two writes; one without
        // is its header.
        let end = sizes.ctrl_end(base, 1);
        let fwd = encode_ctrl(3, CtrlKind::FwdSub, 1, 1, 0, b"x");
        assert_eq!(end.writes(3, &fwd).count(), 2);
        let prop = encode_ctrl(3, CtrlKind::Proposal, 1, 1, 0, &[]);
        assert_eq!(end.writes(3, &prop).count(), 1);
    }

    #[test]
    fn a_lost_writer_resumes_above_every_stamp_its_lane_holds() {
        let (node, mut writer) = lane_on_a_node();
        for stamp in [4, 5, 3] {
            land(&node, &writer, stamp);
        }
        writer.lost = true;
        let ring = node
            .local_read(writer.ring.base, writer.ring.size())
            .unwrap();
        writer.resume(&ring);
        assert_eq!((writer.next, writer.lost), (6, false));
        // An empty lane, or one below the counter, moves nothing back.
        writer.resume(&vec![0; writer.ring.size()]);
        assert_eq!(writer.next, 6);
    }

    /// A three-slot lane of submission entries on a node of its own.
    fn lane_on_a_node() -> (rdma_sim::Node, Lane) {
        let node = rdma_sim::Fabric::new(rdma_sim::LatencyModel::connectx4()).add_node("n");
        let entry = SUB_HDR + 8;
        let ring = Ring {
            base: node.alloc_bytes(3 * entry),
            slots: 3,
            entry,
        };
        (node, Lane::new(ring, SUB_HDR))
    }

    fn land(node: &rdma_sim::Node, lane: &Lane, stamp: u64) {
        let buf = encode_sub(stamp, stamp as u32, 1, &[]);
        node.local_write(lane.ring.slot(stamp), &buf).unwrap();
    }

    /// The uids `take` yields until the lane reads idle.
    fn drain(node: &rdma_sim::Node, lane: &mut Lane) -> Vec<u32> {
        node.with_mem(|m| {
            std::iter::from_fn(|| lane.take(m).map(|(_, hdr)| decode_sub_header(hdr).1)).collect()
        })
    }

    #[test]
    fn a_writer_and_a_reader_agree_on_every_lap() {
        let (node, mut reader) = lane_on_a_node();
        let mut writer = reader;
        for lap in 0..3 {
            for _ in 0..3 {
                let (stamp, slot) = writer.claim();
                assert_eq!(slot, reader.ring.slot(stamp));
                land(&node, &writer, stamp);
            }
            assert!(node.with_mem(|m| reader.ready(m)));
            let stamps: Vec<u32> = (3 * lap + 1..=3 * lap + 3).collect();
            assert_eq!(drain(&node, &mut reader), stamps);
            // What is left is the lap just read: below the cursor, idle.
            assert!(!node.with_mem(|m| reader.ready(m)));
        }
    }

    #[test]
    fn a_cursor_that_finds_a_later_stamp_jumps_to_it_and_consumes_it() {
        let (node, mut lane) = lane_on_a_node();
        // The writer lapped us: 2 and 3 were overwritten by 5 and 6 while
        // the cursor stood at 2.
        lane.next = 2;
        for stamp in [4, 5, 6] {
            land(&node, &lane, stamp);
        }
        assert!(node.with_mem(|m| lane.ready(m)));
        assert_eq!(drain(&node, &mut lane), [5, 6]);
        assert_eq!(lane.next, 7);
    }

    #[test]
    fn a_lost_lane_resumes_at_the_oldest_stamp_at_or_past_its_cursor() {
        let (node, mut lane) = lane_on_a_node();
        // Out under the cursor; 5 and 6 landed since, 4 never did.
        lane.next = 4;
        land(&node, &lane, 6);
        land(&node, &lane, 5);
        assert!(
            !node.with_mem(|m| lane.ready(m)),
            "the cursor's slot is old"
        );
        lane.lost = true;
        assert!(node.with_mem(|m| lane.ready(m)));
        assert_eq!(drain(&node, &mut lane), [5, 6]);
        assert!(!lane.lost, "found again");
        // The cursor's slot holds a later lap (5), but 3 is older: a lost
        // lane reads it first, where a found one jumps to 5.
        lane.next = 2;
        land(&node, &lane, 3);
        land(&node, &lane, 4);
        land(&node, &lane, 5);
        lane.lost = true;
        assert_eq!(drain(&node, &mut lane), [3, 4, 5]);
        // Nothing at or past the cursor: not ready, and still lost.
        lane.lost = true;
        assert!(!node.with_mem(|m| lane.ready(m)));
        assert!(drain(&node, &mut lane).is_empty());
        assert!(lane.lost);
        assert_eq!(lane.next, 6);
    }

    #[test]
    fn round8_rounds_up() {
        assert_eq!(round8(0), 0);
        assert_eq!(round8(1), 8);
        assert_eq!(round8(8), 8);
        assert_eq!(round8(9), 16);
    }
}
