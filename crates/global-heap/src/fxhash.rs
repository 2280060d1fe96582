//! A vendored FxHash-style hasher for the heap's hot lookup tables.
//!
//! Every `Demand` emission probes [`crate::ArrivalSet`], every global
//! access under the caching baseline probes [`crate::SoftCache`], and
//! every aligned thread under replication samples into an affinity count —
//! all keyed by the 8-byte [`crate::GPtr`].
//! The default `std` hasher (SipHash-1-3) is keyed and DoS-resistant,
//! qualities a deterministic simulator does not need but pays for on every
//! probe. This is the classic multiply-rotate word hasher (as used by
//! rustc's `FxHashMap`): a few cycles per word and — unlike `RandomState` —
//! the same function in every process.
//!
//! `dpa-core` imports these types from here, so the whole runtime shares
//! one definition.
//!
//! Note that *iteration order* of a `HashMap` is still arbitrary under any
//! hasher; code that iterates these maps must keep sorting (as
//! `AffinityTable::summary` and the snapshot paths do).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed by [`FxHasher`]. Construct with `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed by [`FxHasher`]. Construct with `FxHashSet::default()`.
pub type FxHashSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate word hasher (FxHash). Fast, deterministic, not keyed.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(tail) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_one<T: Hash>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(hash_one(&42u64), hash_one(&42u64));
        assert_ne!(hash_one(&1u64), hash_one(&2u64));
        assert_ne!(hash_one(&(1u16, 2u16)), hash_one(&(2u16, 1u16)));
    }

    #[test]
    fn byte_tails_do_not_collide_with_padding() {
        // b"ab" vs b"ab\0" must differ despite the zero-padded tail word.
        assert_ne!(hash_one(&b"ab".as_slice()), hash_one(&b"ab\0".as_slice()));
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&500], 1000);
        let s: FxHashSet<u32> = (0..100).collect();
        assert!(s.contains(&99) && !s.contains(&100));
    }
}
