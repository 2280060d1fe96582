//! **D** — the table of outstanding remote requests, as a table of its own.
//!
//! A pointer enters D when a request for it is handed to the communication
//! scheduler and leaves when its reply installs the object. Membership
//! suppresses duplicate requests (many threads aligned under one pointer
//! cause exactly one fetch), and the peak size is the "max outstanding
//! requests" column of the paper's statistics table.
//!
//! **No driver uses it.** A request is outstanding exactly while threads
//! wait under its pointer, so [`crate::DpaProc`] reads D off M's key set
//! ([`crate::mapping`]). The type stays only because the benchmark of
//! record links it (its `dpa-core.pending_insert_complete_ns` drive) and
//! `tests/properties.rs` checks it against a set model; it goes when the
//! benchmark is decoupled from the runtime's internals (ROADMAP item 1's
//! "Decouple" list).
//!
//! # Layout
//!
//! It is that key set alone: a [`PointerMap`] holding one (empty) thread
//! per outstanding pointer. A pointer is interned at its first request
//! into a permanent dense id; insert/complete/contains are one Fx-hash
//! probe, and [`iter`](PendingRequests::iter) walks the ids in
//! first-request order, which is deterministic for a fixed request
//! history, unlike a std `HashSet`'s per-process seeded order.

use crate::PointerMap;
use global_heap::GPtr;

/// Outstanding remote requests for one node: the key set of a mapping
/// with one thread per request.
#[derive(Clone, Debug, Default)]
pub struct PendingRequests {
    map: PointerMap<()>,
}

impl PendingRequests {
    /// An empty table.
    pub fn new() -> PendingRequests {
        PendingRequests::default()
    }

    /// Mark `ptr` requested. Returns `false` if it was already outstanding
    /// (the duplicate must not generate a second message).
    pub fn insert(&mut self, ptr: GPtr) -> bool {
        let (id, _) = self.map.arrivals_mut().intern(ptr);
        self.map.arrivals().chain(id).len == 0 && self.map.align_id(id, ())
    }

    /// Clear `ptr` on reply arrival. Returns `false` for an unexpected
    /// reply (a protocol bug upstream or duplicated delivery).
    pub fn complete(&mut self, ptr: GPtr) -> bool {
        let outstanding = self.len();
        self.map.release_into(ptr, &mut Vec::new());
        self.len() < outstanding
    }

    /// `true` if a request for `ptr` is in flight (or buffered).
    pub fn contains(&self, ptr: GPtr) -> bool {
        self.map.waiters(ptr) > 0
    }

    /// Iterate over the outstanding pointers in dense-id (first-request)
    /// order — deterministic for a fixed request history, independent of
    /// any hash seed. Used by the stall reporter to name exactly which
    /// fetches never completed.
    pub fn iter(&self) -> impl Iterator<Item = &GPtr> {
        self.map.arrivals().waiting()
    }

    /// Distinct pointers ever requested (dense-id space size). Interning
    /// is permanent: an id survives completion.
    pub fn interned(&self) -> usize {
        self.map.interned()
    }

    /// The `n` smallest outstanding pointers, rendered. Sorted by pointer
    /// value so that snapshots and stall reports are byte-identical for
    /// the same *set* of outstanding requests, regardless of the order in
    /// which they were issued.
    pub fn sorted_sample(&self, n: usize) -> Vec<String> {
        self.map.sorted_sample(n)
    }

    /// Requests currently outstanding.
    pub fn len(&self) -> usize {
        self.map.keys()
    }

    /// `true` when nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Max simultaneous outstanding requests over the phase.
    pub fn peak(&self) -> u64 {
        self.map.peak_keys()
    }

    /// Total requests issued over the phase (re-requesting a completed
    /// pointer counts again; simultaneous duplicates do not).
    pub fn total(&self) -> u64 {
        self.map.first_alignments()
    }

    /// Patch the table across a phase barrier instead of rebuilding it:
    /// nothing stays outstanding and per-phase statistics zero, but the
    /// interner survives, so requests for pointers the node fetched in
    /// earlier phases reuse their ids instead of growing the table.
    pub fn reset_for_phase(&mut self) {
        self.map.reset_for_phase();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use global_heap::ObjClass;

    fn p(i: u64) -> GPtr {
        GPtr::new(1, ObjClass(0), i)
    }

    #[test]
    fn duplicate_suppression() {
        let mut d = PendingRequests::new();
        assert!(d.insert(p(1)));
        assert!(!d.insert(p(1)));
        assert!(d.contains(p(1)));
        assert_eq!(d.len(), 1);
        assert_eq!(d.total(), 1);
    }

    #[test]
    fn complete_clears() {
        let mut d = PendingRequests::new();
        d.insert(p(1));
        assert!(d.complete(p(1)));
        assert!(!d.complete(p(1)), "double completion must be visible");
        assert!(d.is_empty());
    }

    #[test]
    fn sorted_sample_is_deterministic() {
        let mut d = PendingRequests::new();
        for i in [9, 3, 7, 1, 5] {
            d.insert(p(i));
        }
        let sample = d.sorted_sample(3);
        assert_eq!(
            sample,
            vec![p(1).to_string(), p(3).to_string(), p(5).to_string()]
        );
        assert_eq!(d.sorted_sample(10).len(), 5);
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut d = PendingRequests::new();
        d.insert(p(1));
        d.insert(p(2));
        d.insert(p(3));
        d.complete(p(2));
        d.insert(p(4));
        assert_eq!(d.peak(), 3);
        assert_eq!(d.len(), 3);
        assert_eq!(d.total(), 4);
    }

    #[test]
    fn reinsert_after_complete_is_fresh() {
        let mut d = PendingRequests::new();
        assert!(d.insert(p(1)));
        assert!(d.complete(p(1)));
        assert!(d.insert(p(1)), "a completed pointer may be requested again");
        assert_eq!(d.total(), 2, "re-request counts as a new fetch");
        assert_eq!(d.interned(), 1, "but the dense id is reused");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn iter_is_dense_id_order() {
        let mut d = PendingRequests::new();
        for i in [9, 3, 7] {
            d.insert(p(i));
        }
        d.complete(p(3));
        let seen: Vec<GPtr> = d.iter().copied().collect();
        assert_eq!(
            seen,
            vec![p(9), p(7)],
            "first-request order, minus completed"
        );
    }

    #[test]
    fn reset_for_phase_keeps_interner_zeroes_stats() {
        let mut d = PendingRequests::new();
        d.insert(p(1));
        d.insert(p(2));
        d.complete(p(1));
        d.reset_for_phase();
        assert!(d.is_empty());
        assert!(!d.contains(p(2)), "outstanding flags drop at the barrier");
        assert_eq!(d.peak(), 0);
        assert_eq!(d.total(), 0);
        assert_eq!(d.interned(), 2, "the interner survives the barrier");
        assert!(d.insert(p(2)), "re-request is fresh");
        assert_eq!(d.interned(), 2, "and reuses the dense id");
    }

    /// Regression for the latent ordering trap: two tables holding the same
    /// *set* of outstanding requests must render identical samples and
    /// (sorted) iterations even when the requests were issued in different
    /// orders. A std `HashSet` backing made this hold only by luck of the
    /// per-process seed.
    #[test]
    fn snapshot_is_insertion_order_independent() {
        let mut a = PendingRequests::new();
        let mut b = PendingRequests::new();
        for i in [5, 1, 9, 4, 8] {
            a.insert(p(i));
        }
        for i in [8, 4, 9, 1, 5] {
            b.insert(p(i));
        }
        a.complete(p(4));
        b.complete(p(4));
        assert_eq!(a.sorted_sample(4), b.sorted_sample(4));
        assert_eq!(a.sorted_sample(16), b.sorted_sample(16));
        let mut ia: Vec<GPtr> = a.iter().copied().collect();
        let mut ib: Vec<GPtr> = b.iter().copied().collect();
        ia.sort_unstable();
        ib.sort_unstable();
        assert_eq!(ia, ib);
    }
}
