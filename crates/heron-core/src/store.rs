//! The dual-versioned object store.
//!
//! Every object occupies a fixed slot in RDMA-registered memory holding
//! **two** versions, each tagged with the timestamp of the request that
//! created it (paper §III-A):
//!
//! ```text
//! [ tmp_a | len_a | data_a (cap) | tmp_b | len_b | data_b (cap) ]
//! ```
//!
//! * `get` returns the version with the larger timestamp (what a replica
//!   reads locally, since it executes requests in delivery order);
//! * `set(v, tmp)` overwrites the version with the *smaller* timestamp —
//!   so a concurrent remote reader working on an earlier request can still
//!   find the version it needs;
//! * a remote reader fetches the whole slot with one RDMA read and picks
//!   the version with the largest timestamp smaller than its request's
//!   (Algorithm 2, line 22, [`Slot::read_for`]); if none exists, the reader
//!   has lagged behind and must state-transfer.
//!
//! Local reads and writes go to the store in batches (`get_many`,
//! `set_many`; `get` and `set` are batches of one), so the cache misses of
//! a transaction's many slots overlap instead of queueing.

use crate::types::ObjectId;
use amcast::{IdMap, Timestamp};
use bytes::Bytes;
use parking_lot::Mutex;
use rdma_sim::{Addr, MemView, Node, RaceDetector, RegionKind};
use std::fmt;

/// Per-version header: timestamp word + length word.
pub(crate) const VERSION_HDR: usize = 16;

/// Location and capacity of one object's slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Byte address of the slot in the owning node's registered memory.
    pub addr: Addr,
    /// Capacity of each version's data area, in bytes.
    pub cap: usize,
}

impl Slot {
    /// Total slot size in bytes (two versions).
    pub const fn size(&self) -> usize {
        2 * (VERSION_HDR + self.cap)
    }

    /// Computes the slot size for a given per-version capacity.
    pub const fn size_for_cap(cap: usize) -> usize {
        2 * (VERSION_HDR + cap)
    }

    /// The per-version capacity of a slot allocated for a first value of
    /// `len` bytes: `len` rounded up to a word, and nothing more. Slots
    /// never move, so no later value of the object may be longer.
    pub const fn cap_for(len: usize) -> usize {
        len.div_ceil(8) * 8
    }

    /// The version a request with timestamp `r_tmp` may consistently read
    /// from `raw`, an image of this slot as one RDMA read fetches it: the
    /// one with the largest timestamp strictly smaller than `r_tmp`
    /// (Algorithm 2, line 22), `a` on a tie. Returns `(which, timestamp,
    /// value)`, `which` being 0 for version `a` and 1 for `b`, with the
    /// value borrowed from `raw`. `None` means the reader lags behind.
    ///
    /// # Panics
    ///
    /// Panics if `raw` is shorter than the slot layout implies or a length
    /// word exceeds the capacity.
    pub fn read_for<'a>(
        &self,
        raw: &'a [u8],
        r_tmp: Timestamp,
    ) -> Option<(usize, Timestamp, &'a [u8])> {
        let mut best: Option<(usize, Timestamp, &[u8])> = None;
        for (which, (t, v)) in borrow_versions(raw, self.cap).into_iter().enumerate() {
            if t < r_tmp && best.is_none_or(|(_, bt, _)| t > bt) {
                best = Some((which, t, v));
            }
        }
        best
    }
}

/// The local-read rule over versions `a` and `b`: the larger timestamp,
/// `a` on a tie.
fn latest_of<V>([a, b]: [(Timestamp, V); 2]) -> (Timestamp, V) {
    if a.0 >= b.0 {
        a
    } else {
        b
    }
}

/// Both versions of a raw slot image, `(timestamp, value)` each, in place.
///
/// # Panics
///
/// Panics if `raw` is shorter than the slot layout implies or a length
/// word exceeds `cap`.
fn borrow_versions(raw: &[u8], cap: usize) -> [(Timestamp, &[u8]); 2] {
    let one = VERSION_HDR + cap;
    [&raw[..one], &raw[one..2 * one]].map(|chunk| {
        let tmp = u64::from_le_bytes(chunk[0..8].try_into().expect("tmp word"));
        let len = u64::from_le_bytes(chunk[8..16].try_into().expect("len word")) as usize;
        assert!(len <= cap, "corrupt slot: length exceeds capacity");
        (
            Timestamp::from_raw(tmp),
            &chunk[VERSION_HDR..VERSION_HDR + len],
        )
    })
}

/// Both versions of `slot`, borrowed from a view of local memory.
fn versions_in<'a>(m: &'a MemView<'_>, slot: Slot) -> [(Timestamp, &'a [u8]); 2] {
    let raw = m
        .bytes(slot.addr, slot.size())
        .expect("slot within registered memory");
    borrow_versions(raw, slot.cap)
}

/// How many objects of a batch are resolved before any is copied or
/// written. The scratch for them lives on the stack, so a one-object batch
/// allocates nothing; sixteen header misses in flight at once is about as
/// many as a core keeps.
const BATCH_CHUNK: usize = 16;

struct StoreInner {
    /// The slot index. Nothing iterates it in hash order.
    slots: IdMap<ObjectId, Slot>,
    /// The first write stamped below its object's newest version, as
    /// `(oid, ts, newest)`.
    order_violation: Option<(ObjectId, Timestamp, Timestamp)>,
}

impl StoreInner {
    /// The write-order monitor: writes to one object land in timestamp
    /// order, so a write at `ts` never finds a newer version in place.
    /// Keeps the first violation. (An install never lands over a newer
    /// version: [`VersionedStore::apply_raw_slot`] leaves such a slot
    /// alone.)
    fn check_order(&mut self, oid: ObjectId, ts: Timestamp, newest: Timestamp) {
        if ts < newest && self.order_violation.is_none() {
            self.order_violation = Some((oid, ts, newest));
        }
    }
}

/// A replica's dual-versioned object store, backed by its node's
/// RDMA-registered memory.
///
/// The unit of work is a batch of objects ([`VersionedStore::get_many`],
/// [`VersionedStore::set_many`]): one pass over the slot index under one
/// lock, and one view of local memory in which every object's version
/// headers are read before any value is copied, so their cache misses
/// overlap instead of waiting on each other. [`VersionedStore::get`] and
/// [`VersionedStore::set`] are the batches of one.
pub struct VersionedStore {
    node: Node,
    inner: Mutex<StoreInner>,
    /// The race detector of the node's fabric, when enabled: slots are then
    /// annotated [`RegionKind::DualSlot`] as they are allocated and
    /// [`VersionedStore::set_many`] lints the victim rule.
    detector: Option<RaceDetector>,
    /// Self-test only ([`SABOTAGE_DUAL_VERSION_GUARD`]), resolved once at
    /// construction: pick the *larger*-timestamp version as the victim,
    /// violating the dual-versioning rule remote readers rely on.
    break_victim_guard: bool,
}

/// The [`rdma_sim::Fabric::sabotage`] name of [`VersionedStore::set`]'s
/// victim rule. Built without it the store overwrites the version with the
/// *larger* timestamp, which `race_audit --selftest` requires the race
/// detector to report as a protocol violation.
pub const SABOTAGE_DUAL_VERSION_GUARD: &str = "heron.dual_version_guard";

impl fmt::Debug for VersionedStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VersionedStore")
            .field("objects", &self.inner.lock().slots.len())
            .finish()
    }
}

impl VersionedStore {
    /// Creates an empty store on `node`, instrumented for the race
    /// detector when `node`'s fabric has it enabled.
    pub fn new(node: Node) -> Self {
        VersionedStore {
            break_victim_guard: node.sabotaged(SABOTAGE_DUAL_VERSION_GUARD),
            detector: node.race_detector(),
            node,
            inner: Mutex::new(StoreInner {
                slots: IdMap::default(),
                order_violation: None,
            }),
        }
    }

    fn annotate_slot(&self, oid: ObjectId, slot: Slot) {
        if let Some(det) = &self.detector {
            det.annotate(
                &self.node,
                slot.addr,
                slot.size(),
                RegionKind::DualSlot,
                format!("slot:{oid}"),
            );
        }
    }

    /// Number of objects hosted.
    pub fn len(&self) -> usize {
        self.inner.lock().slots.len()
    }

    /// Whether the store hosts no objects.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slot of `oid`, if hosted here. Remote partitions learn slot
    /// addresses through the object-address query protocol.
    pub fn slot(&self, oid: ObjectId) -> Option<Slot> {
        self.inner.lock().slots.get(&oid).copied()
    }

    /// Ensures a slot exists for `oid` with at least `cap` bytes per
    /// version, allocating registered memory on first use. Returns the
    /// slot.
    pub fn ensure_slot(&self, oid: ObjectId, cap: usize) -> Slot {
        self.slot_in(&mut self.inner.lock(), oid, cap)
    }

    /// [`VersionedStore::ensure_slot`] under a lock the caller holds.
    fn slot_in(&self, inner: &mut StoreInner, oid: ObjectId, cap: usize) -> Slot {
        if let Some(&slot) = inner.slots.get(&oid) {
            assert!(
                slot.cap >= cap,
                "value for {oid} outgrew its slot ({} > {}); slots cannot move",
                cap,
                slot.cap
            );
            return slot;
        }
        let cap = Slot::cap_for(cap);
        let slot = Slot {
            addr: self.node.alloc_bytes(Slot::size_for_cap(cap)),
            cap,
        };
        inner.slots.insert(oid, slot);
        self.annotate_slot(oid, slot);
        slot
    }

    /// Installs the initial version of an object (timestamp zero).
    pub fn bootstrap(&self, oid: ObjectId, value: &[u8]) {
        let slot = self.ensure_slot(oid, value.len());
        let mut buf = Vec::new();
        self.write_version(&mut buf, slot, 0, Timestamp::ZERO, value);
        // The second version also starts at zero with the same value, so
        // the dual-version invariants hold from the first write.
        self.write_version(&mut buf, slot, 1, Timestamp::ZERO, value);
    }

    /// Local read: the version with the larger timestamp (`object_list.get`
    /// in the paper).
    ///
    /// Returns `None` if the object is not hosted here.
    pub fn get(&self, oid: ObjectId) -> Option<(Timestamp, Bytes)> {
        let mut hit = None;
        self.latest_each(&[oid], |latest| hit = latest);
        hit
    }

    /// [`VersionedStore::get`] of every object in `oids`, in order (a
    /// repeated id is read twice), as one batch.
    pub fn get_many(&self, oids: &[ObjectId]) -> Vec<Option<(Timestamp, Bytes)>> {
        let mut hits = Vec::with_capacity(oids.len());
        self.latest_each(oids, |latest| hits.push(latest));
        hits
    }

    /// The batch read behind `get` and `get_many`: hands `emit` each
    /// object's latest version, in order. Every winner of a chunk is
    /// resolved in place — slot, then both headers — before the first is
    /// copied out.
    fn latest_each(&self, oids: &[ObjectId], mut emit: impl FnMut(Option<(Timestamp, Bytes)>)) {
        if oids.is_empty() {
            return;
        }
        let inner = self.inner.lock();
        self.node.with_mem(|m| {
            for chunk in oids.chunks(BATCH_CHUNK) {
                let mut slots = [None; BATCH_CHUNK];
                for (slot, oid) in slots.iter_mut().zip(chunk) {
                    *slot = inner.slots.get(oid).copied();
                }
                let mut won = [None; BATCH_CHUNK];
                for (won, slot) in won.iter_mut().zip(&slots[..chunk.len()]) {
                    *won = slot.map(|slot| latest_of(versions_in(m, slot)));
                }
                for won in &won[..chunk.len()] {
                    emit(won.map(|(t, v)| (t, Bytes::copy_from_slice(v))));
                }
            }
        });
    }

    /// Local write for request timestamp `tmp`: overwrites the version with
    /// the smaller timestamp (`object_list.set` in the paper).
    ///
    /// # Panics
    ///
    /// Panics if the value outgrows the object's slot.
    pub fn set(&self, oid: ObjectId, value: &[u8], tmp: Timestamp) {
        self.set_many(&[(oid, value)], tmp);
    }

    /// [`VersionedStore::set`] of every `(oid, value)` in `writes`, in
    /// order, as one batch: the same slots at the same addresses, the same
    /// victims and the same bytes as one `set` after another. An object
    /// written twice picks its second victim as the first write left the
    /// slot.
    ///
    /// # Panics
    ///
    /// Panics if a value outgrows its object's slot.
    pub fn set_many(&self, writes: &[(ObjectId, &[u8])], tmp: Timestamp) {
        if writes.is_empty() {
            return;
        }
        let mut inner = self.inner.lock();
        let mut buf = Vec::new();
        for chunk in writes.chunks(BATCH_CHUNK) {
            // Resolved (or allocated) in write order, so a fresh slot gets
            // the address one `set` after another would give it.
            let mut slots = [Slot {
                addr: Addr(0),
                cap: 0,
            }; BATCH_CHUNK];
            for (slot, (oid, value)) in slots.iter_mut().zip(chunk) {
                *slot = self.slot_in(&mut inner, *oid, value.len());
            }
            let slots = &slots[..chunk.len()];
            let mut stamps = [[Timestamp::ZERO; 2]; BATCH_CHUNK];
            self.node.with_mem(|m| {
                for (stamps, slot) in stamps.iter_mut().zip(slots) {
                    *stamps = versions_in(m, *slot).map(|(t, _)| t);
                }
            });
            for (i, ((oid, value), slot)) in chunk.iter().zip(slots).enumerate() {
                // A slot this chunk wrote already: its stamps as that
                // write left them, not as the view found them.
                if let Some(prev) = slots[..i].iter().rposition(|s| s.addr == slot.addr) {
                    stamps[i] = stamps[prev];
                }
                inner.check_order(*oid, tmp, stamps[i][0].max(stamps[i][1]));
                let victim = self.victim(*oid, *slot, stamps[i], tmp);
                stamps[i][victim] = tmp;
                self.write_version(&mut buf, *slot, victim, tmp, value);
            }
        }
    }

    /// The version `set(oid, _, tmp)` overwrites, given the slot's two
    /// stamps — and the race detector's lint when that is the wrong one.
    fn victim(
        &self,
        oid: ObjectId,
        slot: Slot,
        [a_ts, b_ts]: [Timestamp; 2],
        tmp: Timestamp,
    ) -> usize {
        let min_is_a = a_ts <= b_ts;
        // The dual-versioning guard (paper §III-A): overwrite the version
        // with the SMALLER timestamp, so a concurrent remote reader
        // working on an earlier request can still find the version it
        // needs. `break_victim_guard` inverts the choice for the race
        // detector's self-test.
        let victim = if min_is_a != self.break_victim_guard {
            0
        } else {
            1
        };
        if let Some(det) = &self.detector {
            let (victim_ts, survivor_ts) = if victim == 0 {
                (a_ts, b_ts)
            } else {
                (b_ts, a_ts)
            };
            if victim_ts > survivor_ts {
                let one = VERSION_HDR + slot.cap;
                let start = slot.addr.offset((victim * one) as u64);
                det.report_lint(
                    "dual-version victim guard violated",
                    &self.node,
                    format!("slot:{oid}"),
                    (start.0, start.0 + one as u64),
                    det.last_writer(&self.node, start, one),
                    format!(
                        "set({oid}, tmp={}) overwrote the ACTIVE version (ts {}) while \
                         the older version (ts {}) survived; a concurrent remote reader \
                         picking the largest version below its own timestamp now races \
                         this write on the very bytes it targets",
                        tmp.raw(),
                        victim_ts.raw(),
                        survivor_ts.raw(),
                    ),
                );
            }
        }
        victim
    }

    /// All hosted object ids, sorted (diagnostics / consistency checker).
    pub fn object_ids(&self) -> Vec<ObjectId> {
        let mut v: Vec<ObjectId> = self.inner.lock().slots.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Every hosted object whose newest version is stamped after `from`,
    /// with its slot, in id order — what a state-transfer responder ships
    /// to a requester that completed `from` (Algorithm 3, line 12). Read
    /// under one lock and one memory view.
    pub fn changed_since(&self, from: Timestamp) -> Vec<(ObjectId, Slot)> {
        let inner = self.inner.lock();
        let mut all: Vec<(ObjectId, Slot)> = inner.slots.iter().map(|(&o, &s)| (o, s)).collect();
        all.sort_unstable_by_key(|&(oid, _)| oid);
        self.node.with_mem(|m| {
            all.retain(|&(_, slot)| latest_of(versions_in(m, slot)).0 > from);
        });
        all
    }

    /// The first write the write-order monitor caught stamped below its
    /// object's newest version, as `(oid, ts, newest)`.
    pub fn order_violation(&self) -> Option<(ObjectId, Timestamp, Timestamp)> {
        self.inner.lock().order_violation
    }

    /// Flips the first payload byte of **both** versions of `oid`'s slot,
    /// leaving timestamps and lengths intact — a deliberate corruption used
    /// by the consistency checker's self-test to prove the cross-replica
    /// checks fire. Has no visible effect on zero-length values.
    ///
    /// # Panics
    ///
    /// Panics if the object is not hosted here.
    pub fn corrupt(&self, oid: ObjectId) {
        let slot = self.slot(oid).expect("object hosted here");
        let mut raw = self.raw_slot_bytes(slot);
        let one = VERSION_HDR + slot.cap;
        raw[VERSION_HDR] ^= 0xFF;
        raw[one + VERSION_HDR] ^= 0xFF;
        self.apply_raw_slot(oid, &raw, "local-write");
    }

    /// Raw slot bytes — what state transfer ships to a lagger.
    pub fn raw_slot_bytes(&self, slot: Slot) -> Vec<u8> {
        self.node.with_mem(|m| {
            m.bytes(slot.addr, slot.size())
                .expect("slot within registered memory")
                .to_vec()
        })
    }

    /// Overwrites the whole slot image (a state-transfer or checkpoint
    /// install), unless the slot's newest version here is newer than the
    /// image's: then the slot is left alone. A pool can finish a command
    /// above a transfer's snapshot bound before the transfer lands, and
    /// that command ran after every earlier command it conflicts with had
    /// finished here, so its version already includes the image's
    /// (DESIGN.md §13). Allocates the slot if the object is new to this
    /// replica. `op` labels the write for the race detector's reports
    /// (`"local-write"` unless the install has a name of its own).
    pub fn apply_raw_slot(&self, oid: ObjectId, raw: &[u8], op: &'static str) {
        let cap = (raw.len() - 2 * VERSION_HDR) / 2;
        let mut inner = self.inner.lock();
        let slot = match inner.slots.get(&oid) {
            Some(&slot) => {
                let newest = self.node.with_mem(|m| latest_of(versions_in(m, slot)).0);
                if latest_of(borrow_versions(raw, cap)).0 < newest {
                    return;
                }
                slot
            }
            None => {
                let slot = Slot {
                    addr: self.node.alloc_bytes(raw.len()),
                    cap,
                };
                inner.slots.insert(oid, slot);
                self.annotate_slot(oid, slot);
                slot
            }
        };
        drop(inner);
        assert_eq!(
            slot.cap, cap,
            "state-transfer slot shape mismatch for {oid}"
        );
        self.node
            .write_instrumented(slot.addr, raw, op)
            .expect("slot within registered memory");
    }

    /// Writes version `which` of `slot`, header and value, through `buf`
    /// (one write, as the detector and the pollers see it).
    fn write_version(
        &self,
        buf: &mut Vec<u8>,
        slot: Slot,
        which: usize,
        tmp: Timestamp,
        value: &[u8],
    ) {
        let base = slot.addr.offset((which * (VERSION_HDR + slot.cap)) as u64);
        buf.clear();
        buf.reserve(VERSION_HDR + value.len());
        buf.extend_from_slice(&tmp.raw().to_le_bytes());
        buf.extend_from_slice(&(value.len() as u64).to_le_bytes());
        buf.extend_from_slice(value);
        self.node
            .local_write(base, buf)
            .expect("slot within registered memory");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amcast::MsgId;
    use rdma_sim::{Fabric, LatencyModel};

    fn ts(clock: u64) -> Timestamp {
        Timestamp::new(clock, MsgId(clock as u32))
    }

    fn store() -> VersionedStore {
        let fabric = Fabric::new(LatencyModel::zero());
        VersionedStore::new(fabric.add_node("n"))
    }

    #[test]
    fn bootstrap_then_get() {
        let s = store();
        s.bootstrap(ObjectId(1), b"initial");
        let (t, v) = s.get(ObjectId(1)).unwrap();
        assert_eq!(t, Timestamp::ZERO);
        assert_eq!(v.as_ref(), b"initial");
        assert!(s.get(ObjectId(2)).is_none());
    }

    #[test]
    fn set_overwrites_older_version_and_keeps_previous() {
        let s = store();
        s.bootstrap(ObjectId(1), b"v0");
        s.set(ObjectId(1), b"v1", ts(10));
        // Latest is v1; the slot still holds a version readable by a
        // request between 0 and 10.
        let (t, v) = s.get(ObjectId(1)).unwrap();
        assert_eq!((t, v.as_ref()), (ts(10), b"v1".as_ref()));
        let slot = s.slot(ObjectId(1)).unwrap();
        let raw = s.raw_slot_bytes(slot);
        let (_, t5, v5) = slot.read_for(&raw, ts(5)).unwrap();
        assert_eq!((t5, v5), (Timestamp::ZERO, b"v0".as_ref()));
        // After a second write, version v0 is gone: v1 and v2 remain.
        s.set(ObjectId(1), b"v2", ts(20));
        let raw = s.raw_slot_bytes(slot);
        assert_eq!(slot.read_for(&raw, ts(15)).unwrap().2, b"v1");
        assert_eq!(slot.read_for(&raw, ts(25)).unwrap().2, b"v2");
        // A reader needing something before v1 has lagged behind.
        assert!(slot.read_for(&raw, ts(10)).is_none());
    }

    #[test]
    fn read_for_boundary_is_strict() {
        let s = store();
        s.bootstrap(ObjectId(1), b"v0");
        s.set(ObjectId(1), b"v1", ts(10));
        let slot = s.slot(ObjectId(1)).unwrap();
        let raw = s.raw_slot_bytes(slot);
        // A request at exactly ts(10) must NOT see its own-timestamp write.
        let (_, t, _) = slot.read_for(&raw, ts(10)).unwrap();
        assert_eq!(t, Timestamp::ZERO);
    }

    #[test]
    fn dynamic_objects_allocate_slots() {
        let s = store();
        s.set(ObjectId(99), b"created", ts(3));
        let (t, v) = s.get(ObjectId(99)).unwrap();
        assert_eq!((t, v.as_ref()), (ts(3), b"created".as_ref()));
    }

    #[test]
    fn raw_slot_round_trips_between_stores() {
        let fabric = Fabric::new(LatencyModel::zero());
        let s1 = VersionedStore::new(fabric.add_node("a"));
        let s2 = VersionedStore::new(fabric.add_node("b"));
        s1.bootstrap(ObjectId(7), b"hello");
        s1.set(ObjectId(7), b"world", ts(4));
        let raw = s1.raw_slot_bytes(s1.slot(ObjectId(7)).unwrap());
        s2.apply_raw_slot(ObjectId(7), &raw, "local-write");
        let (t, v) = s2.get(ObjectId(7)).unwrap();
        assert_eq!((t, v.as_ref()), (ts(4), b"world".as_ref()));
    }

    #[test]
    fn a_write_below_the_newest_version_is_recorded() {
        let s = store();
        s.bootstrap(ObjectId(1), b"v0");
        s.set(ObjectId(1), b"v5", ts(5));
        s.set(ObjectId(1), b"v5", ts(5));
        assert_eq!(s.order_violation(), None, "a repeated stamp is in order");
        s.set(ObjectId(1), b"v3", ts(3));
        s.set(ObjectId(1), b"v2", ts(2));
        assert_eq!(s.order_violation(), Some((ObjectId(1), ts(3), ts(5))));
    }

    /// An install leaves a slot whose newest version is newer than the
    /// image's alone, and installs an older or equal one whole.
    #[test]
    fn an_install_never_replaces_a_newer_slot() {
        let fabric = Fabric::new(LatencyModel::zero());
        let image = VersionedStore::new(fabric.add_node("image"));
        image.bootstrap(ObjectId(7), b"x");
        image.set(ObjectId(7), b"y", ts(4));
        let raw = image.raw_slot_bytes(image.slot(ObjectId(7)).unwrap());
        for (local, installs) in [(9, false), (4, true), (2, true)] {
            let s = VersionedStore::new(fabric.add_node("local"));
            s.bootstrap(ObjectId(7), b"x");
            s.set(ObjectId(7), b"z", ts(local));
            let before = s.raw_slot_bytes(s.slot(ObjectId(7)).unwrap());
            s.apply_raw_slot(ObjectId(7), &raw, "local-write");
            let after = s.raw_slot_bytes(s.slot(ObjectId(7)).unwrap());
            let expect = if installs { &raw } else { &before };
            assert_eq!(&after, expect, "local version at ts {local}");
            assert_eq!(s.order_violation(), None, "local version at ts {local}");
        }
    }

    #[test]
    fn changed_since_lists_objects_stamped_after_the_bound_in_id_order() {
        let s = store();
        for oid in [9, 2, 5, 7] {
            s.bootstrap(ObjectId(oid), b"v0");
        }
        s.set_many(&[(ObjectId(9), b"a"), (ObjectId(5), b"b")], ts(3));
        s.set(ObjectId(2), b"c", ts(6));
        let ids = |from| -> Vec<ObjectId> {
            s.changed_since(from)
                .into_iter()
                .map(|(oid, _)| oid)
                .collect()
        };
        assert_eq!(
            ids(Timestamp::ZERO),
            [ObjectId(2), ObjectId(5), ObjectId(9)]
        );
        assert_eq!(ids(ts(3)), [ObjectId(2)]);
        assert_eq!(ids(ts(6)), []);
        assert_eq!(s.changed_since(ts(3))[0].1, s.slot(ObjectId(2)).unwrap());
    }

    #[test]
    #[should_panic(expected = "outgrew")]
    fn oversized_values_panic() {
        let s = store();
        s.bootstrap(ObjectId(1), b"tiny");
        s.set(ObjectId(1), &vec![0u8; 4096], ts(1));
    }

    #[test]
    fn a_value_of_exactly_cap_bytes_round_trips() {
        let s = store();
        s.bootstrap(ObjectId(1), b"tiny");
        let cap = s.slot(ObjectId(1)).unwrap().cap;
        let full: Vec<u8> = (0..cap).map(|i| i as u8).collect();
        s.set(ObjectId(1), &full, ts(1));
        assert_eq!(s.get(ObjectId(1)).unwrap(), (ts(1), Bytes::from(full)));
        // The other version still reads back whole, too.
        let slot = s.slot(ObjectId(1)).unwrap();
        let raw = s.raw_slot_bytes(slot);
        assert_eq!(slot.read_for(&raw, ts(1)).unwrap().2, b"tiny");
    }

    #[test]
    #[should_panic(expected = "corrupt slot: length exceeds capacity")]
    fn get_refuses_a_corrupt_length_word() {
        let fabric = Fabric::new(LatencyModel::zero());
        let node = fabric.add_node("n");
        let s = VersionedStore::new(node.clone());
        s.bootstrap(ObjectId(1), b"v0");
        s.set(ObjectId(1), b"v1", ts(1));
        // The length word of the version `get` does NOT pick.
        let slot = s.slot(ObjectId(1)).unwrap();
        let loser = slot.addr.offset((VERSION_HDR + slot.cap) as u64 + 8);
        node.local_write_word(loser, slot.cap as u64 + 1).unwrap();
        s.get(ObjectId(1));
    }

    #[test]
    fn a_value_that_fills_the_last_word_fits() {
        let s = store();
        s.bootstrap(ObjectId(1), b"five!");
        assert_eq!(
            s.slot(ObjectId(1)).unwrap().cap,
            8,
            "5 bytes round up to a word"
        );
        s.set(ObjectId(1), &[7u8; 8], ts(1));
        assert_eq!(
            s.get(ObjectId(1)).unwrap(),
            (ts(1), Bytes::from(vec![7u8; 8]))
        );
    }

    #[test]
    #[should_panic(expected = "outgrew its slot (16 > 8)")]
    fn a_value_one_word_longer_panics() {
        let s = store();
        s.bootstrap(ObjectId(1), b"five!");
        s.set(ObjectId(1), &[7u8; 16], ts(1));
    }
}
