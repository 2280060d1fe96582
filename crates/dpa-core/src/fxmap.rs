//! Fast deterministic hashing for the runtime's hot maps.
//!
//! One definition serves the whole stack: the multiply-rotate FxHash
//! hasher lives in [`global_heap::fxhash`] (the lowest crate that needs
//! it — its arrival set and software cache are probed on every access)
//! and is re-exported here for the runtime's own tables (the M mapping
//! interner, the in-flight set, the per-pointer reply accounts).
//!
//! Note that *iteration order* of a `HashMap` is still arbitrary under any
//! hasher; code that iterates these maps must keep sorting (the runtime
//! already does, e.g. the affinity report drains its map through
//! `proc_dpa`'s one sorted `fan_out`) or iterate a dense-id side table
//! instead (as the SoA `PointerMap` does).

pub use global_heap::fxhash::{FxHashMap, FxHashSet, FxHasher};

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{Hash, Hasher};

    #[test]
    fn reexport_is_the_shared_definition() {
        // Same hasher type, same function: a value hashes identically
        // through either path.
        let mut a = FxHasher::default();
        let mut b = global_heap::fxhash::FxHasher::default();
        0xDEAD_BEEFu64.hash(&mut a);
        0xDEAD_BEEFu64.hash(&mut b);
        assert_eq!(a.finish(), b.finish());
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        m.insert(1, 2);
        assert_eq!(m[&1], 2);
        let s: FxHashSet<u32> = (0..10).collect();
        assert!(s.contains(&9));
    }
}
