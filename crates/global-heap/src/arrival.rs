//! The per-node arrival set: which remote objects have been fetched so far
//! in the current phase.
//!
//! DPA renames fetched objects into local storage so every thread that
//! needs an object after its arrival finds it locally — this is the data
//! half of "threads using the same objects execute together". The arrival
//! set models that renamed storage: membership means "a local copy exists
//! and may be read"; byte accounting tracks the memory DPA trades for
//! latency tolerance.
//!
//! Across phase barriers the set gains two more duties: carried and
//! broadcast copies are [`preload`](ArrivalSet::preload)ed with the
//! generation they hold, and a changed object's copy is
//! [`invalidate`](ArrivalSet::invalidate)d so the next dereference
//! refetches it instead of reading stale storage.

use crate::fxhash::FxHashMap;
use crate::gptr::GPtr;
use std::collections::hash_map::Entry;

/// Tracks remote objects that have arrived at one node during a phase.
#[derive(Clone, Debug, Default)]
pub struct ArrivalSet {
    /// `ptr -> (payload bytes held, generation stamp)`. Fx-hashed:
    /// [`contains`](ArrivalSet::contains) runs once per `Demand` emission,
    /// squarely on the simulation hot path. The generation stamp is the
    /// object's version at fetch time; differential (multi-timestep) runs
    /// carry entries across phase barriers and use the stamp to detect —
    /// and invalidate — copies whose object has since changed.
    set: FxHashMap<GPtr, (u32, u32)>,
    bytes: u64,
    peak_bytes: u64,
    inserts: u64,
    invalidations: u64,
}

impl ArrivalSet {
    /// An empty set.
    pub fn new() -> ArrivalSet {
        ArrivalSet::default()
    }

    /// Make room for `additional` more copies at once — a carry about to
    /// be preloaded — rather than growing the table step by step.
    pub fn reserve(&mut self, additional: usize) {
        self.set.reserve(additional);
    }

    /// Record the arrival of `ptr` carrying `size` payload bytes.
    /// Returns `false` (and changes nothing) if it was already present —
    /// which indicates a redundant fetch upstream. Single-phase callers
    /// that never version objects stamp generation 0.
    pub fn insert(&mut self, ptr: GPtr, size: u32) -> bool {
        self.insert_gen(ptr, size, 0)
    }

    /// [`insert`](ArrivalSet::insert) with an explicit generation stamp.
    pub fn insert_gen(&mut self, ptr: GPtr, size: u32, gen: u32) -> bool {
        debug_assert!(!ptr.is_null());
        match self.set.entry(ptr) {
            // Keep the first copy's accounting: a duplicate delivery does
            // not grow renamed storage.
            Entry::Occupied(_) => false,
            Entry::Vacant(v) => {
                v.insert((size, gen));
                self.inserts += 1;
                self.bytes += size as u64;
                self.peak_bytes = self.peak_bytes.max(self.bytes);
                true
            }
        }
    }

    /// Seed a copy that is *already* held when the phase starts (carried
    /// from an earlier phase). Counts bytes but not `total_inserts`,
    /// so per-phase fetch conservation checks stay meaningful.
    pub fn preload(&mut self, ptr: GPtr, size: u32) {
        self.preload_gen(ptr, size, 0);
    }

    /// [`preload`](ArrivalSet::preload) with an explicit generation stamp
    /// (a differential carry seeds entries with the generation they were
    /// originally fetched at, so a stale carry stays detectable).
    pub fn preload_gen(&mut self, ptr: GPtr, size: u32, gen: u32) {
        debug_assert!(!ptr.is_null());
        if let Entry::Vacant(v) = self.set.entry(ptr) {
            v.insert((size, gen));
            self.bytes += size as u64;
            self.peak_bytes = self.peak_bytes.max(self.bytes);
        }
    }

    /// The generation stamp of the copy held for `ptr`, if any.
    #[inline]
    pub fn generation(&self, ptr: GPtr) -> Option<u32> {
        self.set.get(&ptr).map(|&(_, gen)| gen)
    }

    /// Every held entry as `(ptr, size, generation)`, in dense-hash order.
    /// The differential driver drains this at a phase barrier to build the
    /// next phase's carry; order-sensitive consumers must sort.
    pub fn entries(&self) -> impl Iterator<Item = (GPtr, u32, u32)> + '_ {
        self.set.iter().map(|(&p, &(size, gen))| (p, size, gen))
    }

    /// Drop the copy of `ptr` (ownership changed or the copy went stale).
    /// Returns `true` if a copy was actually held; afterwards
    /// [`contains`](ArrivalSet::contains) is `false` and a later
    /// [`insert`](ArrivalSet::insert) of the same pointer is fresh again.
    pub fn invalidate(&mut self, ptr: GPtr) -> bool {
        match self.set.remove(&ptr) {
            Some((size, _)) => {
                self.bytes -= size as u64;
                self.invalidations += 1;
                true
            }
            None => false,
        }
    }

    /// `true` if `ptr` has arrived (i.e. a local copy is readable).
    #[inline]
    pub fn contains(&self, ptr: GPtr) -> bool {
        self.set.contains_key(&ptr)
    }

    /// Number of distinct objects currently held.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// `true` when nothing has arrived.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Bytes currently held in renamed storage.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// High-water mark of renamed storage over the phase, in bytes. The
    /// paper's thread-statistics table reports this memory cost.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Total distinct arrivals over the phase (survives `clear`).
    pub fn total_inserts(&self) -> u64 {
        self.inserts
    }

    /// Total copies dropped via [`invalidate`](ArrivalSet::invalidate).
    pub fn total_invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Drop all held objects (phase boundary), keeping lifetime counters.
    pub fn clear(&mut self) {
        self.set.clear();
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gptr::ObjClass;

    fn p(i: u64) -> GPtr {
        GPtr::new(1, ObjClass(0), i)
    }

    #[test]
    fn insert_and_query() {
        let mut a = ArrivalSet::new();
        assert!(!a.contains(p(1)));
        assert!(a.insert(p(1), 96));
        assert!(a.contains(p(1)));
        assert_eq!(a.len(), 1);
        assert_eq!(a.bytes(), 96);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut a = ArrivalSet::new();
        assert!(a.insert(p(1), 96));
        assert!(!a.insert(p(1), 96));
        assert_eq!(a.bytes(), 96);
        assert_eq!(a.total_inserts(), 1);
    }

    #[test]
    fn peak_survives_clear() {
        let mut a = ArrivalSet::new();
        a.insert(p(1), 100);
        a.insert(p(2), 100);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.bytes(), 0);
        assert_eq!(a.peak_bytes(), 200);
        a.insert(p(3), 50);
        assert_eq!(a.peak_bytes(), 200);
        assert_eq!(a.total_inserts(), 3);
    }

    #[test]
    fn invalidate_drops_copy_and_bytes() {
        let mut a = ArrivalSet::new();
        a.insert(p(1), 96);
        a.insert(p(2), 32);
        assert!(a.invalidate(p(1)));
        assert!(!a.contains(p(1)), "invalidated copy must not be readable");
        assert_eq!(a.bytes(), 32, "bytes of the dropped copy are released");
        assert_eq!(a.len(), 1);
        assert!(!a.invalidate(p(1)), "second invalidate is a no-op");
        assert_eq!(a.total_invalidations(), 1);
    }

    /// Regression: after an ownership change invalidates a copy, a refetch
    /// must be treated as *fresh* — historically a set-based implementation
    /// that only tracked membership would refuse the re-insert and the node
    /// would keep serving the stale (dropped) copy.
    #[test]
    fn stale_read_refetch_is_fresh_after_invalidate() {
        let mut a = ArrivalSet::new();
        assert!(a.insert(p(7), 64));
        assert!(a.invalidate(p(7)));
        assert!(
            a.insert(p(7), 64),
            "refetch after invalidation must be a fresh arrival"
        );
        assert!(a.contains(p(7)));
        assert_eq!(a.bytes(), 64);
        assert_eq!(a.total_inserts(), 2);
    }

    #[test]
    fn generation_stamps_round_trip() {
        let mut a = ArrivalSet::new();
        assert_eq!(a.generation(p(1)), None);
        assert!(a.insert_gen(p(1), 64, 3));
        assert_eq!(a.generation(p(1)), Some(3));
        // A duplicate delivery keeps the first copy's stamp.
        assert!(!a.insert_gen(p(1), 64, 9));
        assert_eq!(a.generation(p(1)), Some(3));
        // Unstamped inserts are generation 0.
        assert!(a.insert(p(2), 32));
        assert_eq!(a.generation(p(2)), Some(0));
        // Preload with a stamp (the differential carry path).
        a.preload_gen(p(3), 16, 7);
        assert_eq!(a.generation(p(3)), Some(7));
        // Entries expose (ptr, size, gen) for the barrier drain.
        let mut got: Vec<_> = a.entries().collect();
        got.sort_by_key(|&(ptr, _, _)| ptr.bits());
        assert_eq!(got, vec![(p(1), 64, 3), (p(2), 32, 0), (p(3), 16, 7)]);
        // Invalidate → refetch re-stamps.
        assert!(a.invalidate(p(1)));
        assert!(a.insert_gen(p(1), 64, 4));
        assert_eq!(a.generation(p(1)), Some(4));
    }

    #[test]
    fn preload_counts_bytes_not_inserts() {
        let mut a = ArrivalSet::new();
        a.preload(p(3), 100);
        assert!(a.contains(p(3)));
        assert_eq!(a.bytes(), 100);
        assert_eq!(a.total_inserts(), 0, "preload is not a phase fetch");
        assert!(!a.insert(p(3), 100), "preloaded copy already satisfies reads");
        a.preload(p(3), 100);
        assert_eq!(a.bytes(), 100, "re-preload is idempotent");
    }
}
