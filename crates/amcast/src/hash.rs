//! The hasher of maps keyed by ids: message uids here, object ids in the
//! store built on top.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// One folded 64 × 64 → 128-bit multiply per integer written, whose high
/// half mixes every bit of it into the bucket index — a fraction of
/// SipHash's work. Ids come from the program, not from an adversary, and
/// nothing iterates these maps in an order that matters.
#[derive(Debug, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u16(&mut self, x: u16) {
        self.write_u64(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_u64(&mut self, x: u64) {
        let p = u128::from(self.0 ^ x) * 0x9E37_79B9_7F4A_7C15;
        self.0 = p as u64 ^ (p >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed by ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of ids, hashed with [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn an_id_hashes_as_its_widened_word() {
        let build = BuildHasherDefault::<IdHasher>::default();
        for id in [0u32, 1, 7, u32::MAX] {
            assert_eq!(build.hash_one(id), build.hash_one(u64::from(id)));
            assert_eq!(
                build.hash_one(id as u16),
                build.hash_one(u64::from(id as u16))
            );
        }
        // Neighbouring ids land far apart.
        let (a, b) = (build.hash_one(1u32), build.hash_one(2u32));
        assert!((a ^ b).count_ones() > 8, "{a:x} {b:x}");
    }
}
