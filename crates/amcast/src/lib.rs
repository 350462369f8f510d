//! RDMA-based genuine atomic multicast (RamCast-style).
//!
//! This crate provides the ordering layer Heron relies on (paper §II-B):
//! messages are multicast to one or more *groups* (each a set of `n = 2f+1`
//! replicas) and delivered with:
//!
//! * **validity** — a message multicast by a correct client that keeps
//!   retrying is eventually delivered by all correct destination replicas;
//! * **integrity** — delivered at most once, only by destinations, only if
//!   multicast;
//! * **uniform agreement** — delivery by any process implies eventual
//!   delivery by all correct destination processes;
//! * **uniform prefix / acyclic order** — deliveries are consistent with a
//!   single acyclic relation across groups;
//! * **unique monotone timestamps** — every delivery carries a
//!   [`Timestamp`] such that `m ≺ m'` implies `m.ts < m'.ts`; Heron keys
//!   its coordination memory and object versions on this value.
//!
//! # Protocol
//!
//! The implementation follows RamCast's structure: a Skeen-style timestamp
//! agreement between the *leaders* of the destination groups, carried
//! entirely over one-sided RDMA writes into pre-registered rings, plus
//! majority replication inside each group before delivery.
//!
//! 1. A client writes the message into its dedicated submission-ring slots
//!    on the (believed) leader of every destination group — one unsignaled
//!    RDMA write per group.
//! 2. Each destination leader assigns a local clock proposal and writes it
//!    to the replicas of every destination group (own followers included,
//!    so a new leader can adopt the old leader's proposals).
//! 3. The final timestamp is the maximum proposal; a leader sequences the
//!    message into its group log once every pending message that could
//!    precede it is resolved (Skeen's delivery condition).
//! 4. Log entries are replicated to followers with one-sided writes;
//!    delivery happens after a majority of the group stores the entry
//!    (uniform agreement). Followers deliver from their log copy in
//!    sequence order.
//!
//! Leader failure is handled with heartbeats and an epoch-based takeover:
//! the next replica in line reads a majority of follower logs, adopts the
//! longest, backfills peers, and continues. Messages already sequenced and
//! majority-replicated survive; in-flight submissions are recovered by
//! client retry (see `DESIGN.md` for the scope of this guarantee).
#![forbid(unsafe_code)]
// A `for` over a `HashMap`/`HashSet` runs in `RandomState` order, which
// differs per process: anything it posts, or reports first, stops replaying.
#![deny(clippy::iter_over_hash_type)]

mod client;
mod cluster;
mod config;
mod hash;
mod layout;
mod replica;
mod timestamp;
mod wal;

pub use client::McastClient;
pub use cluster::{Delivered, DeliveryEvent, Mcast};
pub use config::McastConfig;
pub use hash::{IdHasher, IdMap, IdSet};
pub use layout::{LOG_INLINE, LOG_SLOT};
pub use replica::{McastReplica, ORDERING_CPU, SABOTAGE_HAS_WORK_GATE};
pub use timestamp::{GroupId, MsgId, Timestamp};

/// Bitmask of destination groups (bit `g` set = group `g` is a
/// destination). Limits a deployment to 64 groups, far beyond the paper's
/// 16 partitions.
pub type DestMask = u64;

/// Builds a destination mask from a list of group ids.
///
/// # Panics
///
/// Panics if any group id is ≥ 64.
pub fn dest_mask(dests: &[GroupId]) -> DestMask {
    let mut mask = 0u64;
    for d in dests {
        assert!(d.0 < 64, "group id out of range for destination mask");
        mask |= 1 << d.0;
    }
    mask
}

/// Expands a destination mask back into group ids, in increasing order:
/// the set bits, lowest first, without allocating.
pub fn mask_groups(mask: DestMask) -> impl Iterator<Item = GroupId> + Clone {
    let mut rest = mask;
    std::iter::from_fn(move || {
        let g = rest.trailing_zeros();
        (rest != 0).then(|| {
            rest &= rest - 1;
            GroupId(g as u16)
        })
    })
}

#[cfg(test)]
mod mask_tests {
    use super::*;

    #[test]
    fn mask_round_trips() {
        let groups = [GroupId(0), GroupId(3), GroupId(17)];
        let mask = dest_mask(&groups);
        assert_eq!(mask, 1 | (1 << 3) | (1 << 17));
        assert_eq!(mask_groups(mask).collect::<Vec<_>>(), groups);
        assert_eq!(mask_groups(0).count(), 0);
        let all: Vec<u16> = mask_groups(u64::MAX).map(|g| g.0).collect();
        assert_eq!(all, (0..64).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mask_rejects_large_groups() {
        dest_mask(&[GroupId(64)]);
    }
}
