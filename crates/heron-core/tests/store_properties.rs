//! Property-based tests of the dual-versioned store against a reference
//! model: Heron's consistency hinges on `read_for` returning exactly the
//! latest write before a request's timestamp whenever that write is one of
//! the two most recent ones. The batch calls are checked against the
//! one-object calls they generalise.

use amcast::MsgId;
use heron_core::{ObjectId, Timestamp, VersionedStore};
use proptest::prelude::*;
use rdma_sim::{Fabric, LatencyModel};
use std::collections::{BTreeMap, BTreeSet};

fn ts(clock: u64) -> Timestamp {
    Timestamp::new(clock + 1, MsgId((clock % (1 << 22)) as u32))
}

/// Fits the drawn writes to slots of exact size: a slot's capacity is its
/// first value's length rounded up to a word, and slots never move, so
/// each object's first value is made as long as the longest drawn for it.
/// Returns those lengths, for the bootstrap values of ids below `hosted`,
/// and pads the first write of every other id, which allocates its slot.
fn fit(writes: Vec<(u64, &mut Vec<u8>)>, hosted: u64) -> BTreeMap<u64, usize> {
    let mut longest = BTreeMap::new();
    for (oid, value) in &writes {
        let len = longest.entry(*oid).or_insert(0);
        *len = value.len().max(*len);
    }
    let mut created = BTreeSet::new();
    for (oid, value) in writes {
        if oid >= hosted && created.insert(oid) {
            value.resize(longest[&oid], 0);
        }
    }
    longest
}

/// A bootstrap value as long as the longest value drawn for `oid`.
fn init(longest: &BTreeMap<u64, usize>, oid: u64) -> Vec<u8> {
    b"init"
        .iter()
        .copied()
        .cycle()
        .take(longest.get(&oid).copied().unwrap_or(0))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `get` always returns the most recent write; `read_for(t)` returns
    /// the latest write before `t` whenever that write is among the two
    /// most recent, and `None` (the lagger signal) when the reader is more
    /// than two versions behind.
    #[test]
    fn dual_versioning_matches_reference_model(
        writes in prop::collection::vec((0u64..4, prop::collection::vec(any::<u8>(), 1..32)), 1..40),
        probes in prop::collection::vec((0u64..4, 0u64..50), 1..20),
    ) {
        let fabric = Fabric::new(LatencyModel::zero());
        let store = VersionedStore::new(fabric.add_node("prop"));
        // Reference: full version history per object.
        let mut model: BTreeMap<u64, Vec<(u64, Vec<u8>)>> = BTreeMap::new();
        let mut writes = writes;
        let longest = fit(writes.iter_mut().map(|(oid, value)| (*oid, value)).collect(), 4);
        for oid in 0..4u64 {
            let init = init(&longest, oid);
            store.bootstrap(ObjectId(oid), &init);
            model.entry(oid).or_default().push((0, init));
        }
        for (clock, (oid, value)) in writes.iter().enumerate() {
            let clock = clock as u64 + 1;
            store.set(ObjectId(*oid), value, ts(clock - 1));
            model.get_mut(oid).unwrap().push((ts(clock - 1).raw(), value.clone()));
        }
        for (oid, probe_clock) in probes {
            let history = &model[&oid];
            let slot = store.slot(ObjectId(oid)).unwrap();
            let raw = store.raw_slot_bytes(slot);

            // get() = most recent version.
            let (_, latest) = history.last().unwrap();
            let (_, got) = store.get(ObjectId(oid)).unwrap();
            prop_assert_eq!(got.as_ref(), &latest[..]);

            // read_for(t): latest write strictly before t …
            let t = ts(probe_clock).raw();
            let expected = history.iter().rev().find(|(w, _)| *w < t);
            let last_two: Vec<u64> = history.iter().rev().take(2).map(|(w, _)| *w).collect();
            match slot.read_for(&raw, Timestamp::from_raw(t)) {
                Some((_, vt, v)) => {
                    // … must be exactly the model's answer when served.
                    let (et, ev) = expected.expect("store returned a version the model lacks");
                    prop_assert_eq!(vt.raw(), *et);
                    prop_assert_eq!(v, &ev[..]);
                    // And it can only be served from the two newest.
                    prop_assert!(last_two.contains(&vt.raw()));
                }
                None => {
                    // The lagger signal: the needed version was evicted
                    // (both stored versions are ≥ t) — i.e. the reader is
                    // at least two writes behind.
                    prop_assert!(last_two.iter().all(|w| *w >= t));
                }
            }
        }
    }

    /// Raw slot bytes round-trip between stores (the state-transfer
    /// payload path) and preserve both versions.
    #[test]
    fn raw_slots_round_trip(
        v1 in prop::collection::vec(any::<u8>(), 1..64),
        v2 in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let fabric = Fabric::new(LatencyModel::zero());
        let a = VersionedStore::new(fabric.add_node("a"));
        let b = VersionedStore::new(fabric.add_node("b"));
        let mut v1 = v1;
        v1.resize(v1.len().max(v2.len()), 0);
        a.bootstrap(ObjectId(1), &v1);
        a.set(ObjectId(1), &v2, ts(5));
        let raw = a.raw_slot_bytes(a.slot(ObjectId(1)).unwrap());
        b.apply_raw_slot(ObjectId(1), &raw, "local-write");
        let va = a.raw_slot_bytes(a.slot(ObjectId(1)).unwrap());
        let vb = b.raw_slot_bytes(b.slot(ObjectId(1)).unwrap());
        prop_assert_eq!(va, vb);
    }

    /// `get_many` is `get` of each id in turn — hosted or not, repeated or
    /// not, across the stack-sized chunks a batch is read in.
    #[test]
    fn get_many_is_get_of_each(
        writes in prop::collection::vec((0u64..12, 0u64..30, prop::collection::vec(any::<u8>(), 0..32)), 0..40),
        oids in prop::collection::vec(0u64..16, 0..40),
    ) {
        let fabric = Fabric::new(LatencyModel::zero());
        let store = VersionedStore::new(fabric.add_node("prop"));
        let mut writes = writes;
        let longest = fit(writes.iter_mut().map(|(oid, _, value)| (*oid, value)).collect(), 8);
        for oid in 0..8u64 {
            store.bootstrap(ObjectId(oid), &init(&longest, oid));
        }
        // Ids 8..12 exist only once written, 12..16 never.
        for (oid, clock, value) in &writes {
            store.set(ObjectId(*oid), value, ts(*clock));
        }
        let oids: Vec<ObjectId> = oids.into_iter().map(ObjectId).collect();
        let one_by_one: Vec<_> = oids.iter().map(|&oid| store.get(oid)).collect();
        prop_assert_eq!(store.get_many(&oids), one_by_one);
    }

    /// `set_many` leaves a store exactly as one `set` after another leaves
    /// its twin: the same slots at the same addresses, byte-identical slot
    /// images — including fresh slots, and an id written twice in one
    /// batch, whose second write must find the first one landed.
    #[test]
    fn set_many_is_set_of_each(
        before in prop::collection::vec((0u64..12, 0u64..30, prop::collection::vec(any::<u8>(), 0..32)), 0..20),
        batch in prop::collection::vec((0u64..16, prop::collection::vec(any::<u8>(), 0..32)), 0..40),
        clock in 0u64..40,
    ) {
        let fabric = Fabric::new(LatencyModel::zero());
        let (batched, sequential) = (
            VersionedStore::new(fabric.add_node("batched")),
            VersionedStore::new(fabric.add_node("sequential")),
        );
        let (mut before, mut batch) = (before, batch);
        let longest = fit(
            before
                .iter_mut()
                .map(|(oid, _, value)| (*oid, value))
                .chain(batch.iter_mut().map(|(oid, value)| (*oid, value)))
                .collect(),
            8,
        );
        for store in [&batched, &sequential] {
            for oid in 0..8u64 {
                store.bootstrap(ObjectId(oid), &init(&longest, oid));
            }
            for (oid, clock, value) in &before {
                store.set(ObjectId(*oid), value, ts(*clock));
            }
        }
        let tmp = ts(clock);
        let writes: Vec<(ObjectId, &[u8])> =
            batch.iter().map(|(oid, value)| (ObjectId(*oid), &value[..])).collect();
        batched.set_many(&writes, tmp);
        for &(oid, value) in &writes {
            sequential.set(oid, value, tmp);
        }
        prop_assert_eq!(batched.object_ids(), sequential.object_ids());
        for oid in batched.object_ids() {
            let slot = batched.slot(oid).unwrap();
            prop_assert_eq!(Some(slot), sequential.slot(oid));
            prop_assert_eq!(batched.raw_slot_bytes(slot), sequential.raw_slot_bytes(slot));
        }
    }
}
