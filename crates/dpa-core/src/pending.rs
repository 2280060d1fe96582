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
//! benchmark is decoupled from the runtime's internals (ROADMAP 1(c)).
//!
//! # Layout
//!
//! Like the M mapping, the table is structure-of-arrays over dense object
//! ids: pointers are interned once (at their first request) into a `u32`
//! id indexing flat `ptrs`/`present` side tables. Insert/complete/contains
//! are one Fx-hash probe plus a flag flip — no tombstone churn — and
//! [`iter`](PendingRequests::iter) walks the dense side table in id
//! (first-request) order, which is deterministic for a fixed request
//! history, unlike a std `HashSet`'s per-process seeded order.

use global_heap::{FxHashMap, GPtr};

/// Outstanding remote requests for one node. SoA: dense-id interner + flat
/// presence flags.
#[derive(Clone, Debug, Default)]
pub struct PendingRequests {
    /// Pointer → dense id, assigned at first request and stable for the
    /// table's lifetime.
    ids: FxHashMap<GPtr, u32>,
    /// Dense id → pointer (interner inverse; iterated for reports).
    ptrs: Vec<GPtr>,
    /// Dense id → currently outstanding?
    present: Vec<bool>,
    /// Number of `true` flags (= `len()`).
    live: usize,
    peak: u64,
    total: u64,
}

impl PendingRequests {
    /// An empty table.
    pub fn new() -> PendingRequests {
        PendingRequests::default()
    }

    /// Mark `ptr` requested. Returns `false` if it was already outstanding
    /// (the duplicate must not generate a second message).
    pub fn insert(&mut self, ptr: GPtr) -> bool {
        debug_assert!(!ptr.is_null());
        let id = match self.ids.get(&ptr) {
            Some(&id) => {
                if self.present[id as usize] {
                    return false;
                }
                id
            }
            None => {
                let id = u32::try_from(self.ptrs.len()).expect("pending-table id overflow");
                self.ids.insert(ptr, id);
                self.ptrs.push(ptr);
                self.present.push(false);
                id
            }
        };
        self.present[id as usize] = true;
        self.live += 1;
        self.total += 1;
        self.peak = self.peak.max(self.live as u64);
        true
    }

    /// Clear `ptr` on reply arrival. Returns `false` for an unexpected
    /// reply (a protocol bug upstream or duplicated delivery).
    pub fn complete(&mut self, ptr: GPtr) -> bool {
        match self.ids.get(&ptr) {
            Some(&id) if self.present[id as usize] => {
                self.present[id as usize] = false;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// `true` if a request for `ptr` is in flight (or buffered).
    pub fn contains(&self, ptr: GPtr) -> bool {
        match self.ids.get(&ptr) {
            Some(&id) => self.present[id as usize],
            None => false,
        }
    }

    /// Iterate over the outstanding pointers in dense-id (first-request)
    /// order — deterministic for a fixed request history, independent of
    /// any hash seed. Used by the stall reporter to name exactly which
    /// fetches never completed.
    pub fn iter(&self) -> impl Iterator<Item = &GPtr> {
        self.ptrs
            .iter()
            .zip(self.present.iter())
            .filter_map(|(p, &live)| live.then_some(p))
    }

    /// Distinct pointers ever requested (dense-id space size). Interning
    /// is permanent: an id survives completion.
    pub fn interned(&self) -> usize {
        self.ptrs.len()
    }

    /// The `n` smallest outstanding pointers, rendered. Sorted by pointer
    /// value so that snapshots and stall reports are byte-identical for
    /// the same *set* of outstanding requests, regardless of the order in
    /// which they were issued.
    pub fn sorted_sample(&self, n: usize) -> Vec<String> {
        let mut all: Vec<&GPtr> = self.iter().collect();
        all.sort_unstable();
        all.into_iter().take(n).map(|p| p.to_string()).collect()
    }

    /// Requests currently outstanding.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Max simultaneous outstanding requests over the phase.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Total requests issued over the phase (re-requesting a completed
    /// pointer counts again; simultaneous duplicates do not).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Patch the table across a phase barrier instead of rebuilding it:
    /// presence flags drop and per-phase statistics zero, but the interner
    /// survives, so requests for pointers the node fetched in earlier
    /// phases flip an existing flag instead of growing the table.
    pub fn reset_for_phase(&mut self) {
        for f in &mut self.present {
            *f = false;
        }
        self.live = 0;
        self.peak = 0;
        self.total = 0;
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
        assert_eq!(sample, vec![p(1).to_string(), p(3).to_string(), p(5).to_string()]);
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
        assert_eq!(seen, vec![p(9), p(7)], "first-request order, minus completed");
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
