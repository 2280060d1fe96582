//! **M** — the explicit pointer → dependent-threads mapping.
//!
//! This table is the heart of DPA: "an explicit mapping from pointers to
//! dependent threads is updated at thread creation and is used to
//! dynamically schedule both threads and communication". A thread that
//! needs object `p` is *aligned* under `p`; when `p` arrives, every thread
//! aligned under it is released in one batch — the dynamic analogue of
//! tiling's iteration grouping.
//!
//! # Layout
//!
//! The table is structure-of-arrays over **dense object ids**: each
//! pointer is interned once, at its first alignment, into a `u32` id that
//! indexes flat side tables (`ptrs`, `waiters`). The hash map is consulted
//! only to intern/look up the id; the waiter lists themselves live in a
//! dense slab whose per-id vectors are *retained* across release/align
//! cycles — a pointer that aligns threads again after a release reuses its
//! old list's capacity, so steady-state alignment never touches the
//! allocator. [`PointerMap::release_into`] drains a list straight into the
//! caller's run stack without allocating at all.

use crate::fxmap::FxHashMap;
use global_heap::GPtr;

/// Pointer → dependent threads, with high-water-mark accounting for the
/// paper's thread-statistics table. SoA: dense-id interner + flat waiter
/// slab.
#[derive(Clone, Debug)]
pub struct PointerMap<W> {
    /// Pointer → dense id, assigned at first alignment and stable for the
    /// map's lifetime.
    ids: FxHashMap<GPtr, u32>,
    /// Dense id → pointer (the interner's inverse, for diagnostics and
    /// id-order iteration).
    ptrs: Vec<GPtr>,
    /// Dense id → threads currently aligned under that pointer. Vectors
    /// are retained (cleared, not dropped) across release cycles.
    waiters: Vec<Vec<W>>,
    /// Number of ids with a nonempty waiter list (= `keys()`).
    nonempty: usize,
    live_threads: u64,
    peak_threads: u64,
    peak_keys: u64,
    total_aligned: u64,
}

impl<W> Default for PointerMap<W> {
    fn default() -> Self {
        PointerMap {
            ids: FxHashMap::default(),
            ptrs: Vec::new(),
            waiters: Vec::new(),
            nonempty: 0,
            live_threads: 0,
            peak_threads: 0,
            peak_keys: 0,
            total_aligned: 0,
        }
    }
}

impl<W> PointerMap<W> {
    /// An empty mapping.
    pub fn new() -> PointerMap<W> {
        PointerMap::default()
    }

    /// Intern `ptr`, returning its dense id (assigning the next one on
    /// first sight).
    #[inline]
    fn intern(&mut self, ptr: GPtr) -> u32 {
        if let Some(&id) = self.ids.get(&ptr) {
            return id;
        }
        let id = u32::try_from(self.ptrs.len()).expect("pointer-map id overflow");
        self.ids.insert(ptr, id);
        self.ptrs.push(ptr);
        self.waiters.push(Vec::new());
        id
    }

    /// Align `thread` under `ptr`. Returns `true` when this is the first
    /// thread aligned under `ptr` — the caller must then ensure a request
    /// for `ptr` is (or will be) outstanding.
    pub fn align(&mut self, ptr: GPtr, thread: W) -> bool {
        debug_assert!(!ptr.is_null());
        self.total_aligned += 1;
        self.live_threads += 1;
        self.peak_threads = self.peak_threads.max(self.live_threads);
        let id = self.intern(ptr);
        let list = &mut self.waiters[id as usize];
        list.push(thread);
        let first = list.len() == 1;
        if first {
            self.nonempty += 1;
            self.peak_keys = self.peak_keys.max(self.nonempty as u64);
        }
        first
    }

    /// Release every thread aligned under `ptr` (its data has arrived).
    /// Returns an empty vec if none were waiting.
    ///
    /// Allocates the returned vector; the hot path uses
    /// [`release_into`](PointerMap::release_into) instead.
    pub fn release(&mut self, ptr: GPtr) -> Vec<W> {
        let mut out = Vec::new();
        self.release_into(ptr, &mut out);
        out
    }

    /// Release every thread aligned under `ptr`, appending them (in
    /// alignment order) to `out`. The slot's storage is retained for the
    /// pointer's next alignment, so neither side allocates.
    pub fn release_into(&mut self, ptr: GPtr, out: &mut Vec<W>) {
        if let Some(list) = self.released(ptr) {
            out.append(list);
        }
    }

    /// [`release_into`](PointerMap::release_into) for a run queue that
    /// holds more than M does: each released thread passes through `ready`
    /// on its way to `out`, which is where it learns what only the arrival
    /// of its object could tell it.
    pub fn release_with<U>(&mut self, ptr: GPtr, out: &mut Vec<U>, ready: impl FnMut(W) -> U) {
        if let Some(list) = self.released(ptr) {
            out.extend(list.drain(..).map(ready));
        }
    }

    /// The nonempty waiter list of `ptr`, already counted as released: the
    /// caller empties it.
    fn released(&mut self, ptr: GPtr) -> Option<&mut Vec<W>> {
        let &id = self.ids.get(&ptr)?;
        let list = &mut self.waiters[id as usize];
        if list.is_empty() {
            return None;
        }
        self.live_threads -= list.len() as u64;
        self.nonempty -= 1;
        Some(list)
    }

    /// Threads currently aligned (waiting) across all pointers.
    pub fn live_threads(&self) -> u64 {
        self.live_threads
    }

    /// Distinct pointers with waiters.
    pub fn keys(&self) -> usize {
        self.nonempty
    }

    /// `true` when no thread is waiting.
    pub fn is_empty(&self) -> bool {
        self.nonempty == 0
    }

    /// Number of threads waiting on `ptr` right now.
    pub fn waiters(&self, ptr: GPtr) -> usize {
        match self.ids.get(&ptr) {
            Some(&id) => self.waiters[id as usize].len(),
            None => 0,
        }
    }

    /// Distinct pointers ever interned (dense-id space size). Interning is
    /// permanent: a pointer's id survives release cycles.
    pub fn interned(&self) -> usize {
        self.ptrs.len()
    }

    /// Max simultaneous aligned threads over the phase.
    pub fn peak_threads(&self) -> u64 {
        self.peak_threads
    }

    /// Max simultaneous distinct pointers with waiters over the phase.
    pub fn peak_keys(&self) -> u64 {
        self.peak_keys
    }

    /// Total align operations over the phase.
    pub fn total_aligned(&self) -> u64 {
        self.total_aligned
    }

    /// Patch the mapping across a phase barrier instead of rebuilding it:
    /// waiter lists are cleared (their capacity retained) and the per-phase
    /// statistics are zeroed, but the interner — pointer → dense id — and
    /// the warmed list slab survive. The next phase's alignments over a
    /// mostly-unchanged pointer set then reuse ids and capacities and never
    /// touch the allocator; only genuinely new pointers intern fresh slots.
    pub fn reset_for_phase(&mut self) {
        for list in &mut self.waiters {
            list.clear();
        }
        self.nonempty = 0;
        self.live_threads = 0;
        self.peak_threads = 0;
        self.peak_keys = 0;
        self.total_aligned = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use global_heap::ObjClass;

    fn p(i: u64) -> GPtr {
        GPtr::new(3, ObjClass(0), i)
    }

    #[test]
    fn first_alignment_reports_true() {
        let mut m: PointerMap<u32> = PointerMap::new();
        assert!(m.align(p(1), 100));
        assert!(!m.align(p(1), 101));
        assert!(m.align(p(2), 200));
        assert_eq!(m.waiters(p(1)), 2);
        assert_eq!(m.keys(), 2);
    }

    #[test]
    fn release_returns_all_in_alignment_order() {
        let mut m: PointerMap<u32> = PointerMap::new();
        m.align(p(1), 1);
        m.align(p(1), 2);
        m.align(p(1), 3);
        assert_eq!(m.release(p(1)), vec![1, 2, 3]);
        assert!(m.is_empty());
        assert_eq!(m.release(p(1)), Vec::<u32>::new());
    }

    #[test]
    fn peaks_track_high_water() {
        let mut m: PointerMap<u32> = PointerMap::new();
        m.align(p(1), 1);
        m.align(p(2), 2);
        m.align(p(2), 3);
        assert_eq!(m.peak_threads(), 3);
        assert_eq!(m.peak_keys(), 2);
        m.release(p(1));
        m.release(p(2));
        assert_eq!(m.live_threads(), 0);
        assert_eq!(m.peak_threads(), 3);
        assert_eq!(m.total_aligned(), 3);
    }

    #[test]
    fn no_thread_is_lost() {
        // Conservation: aligned == released + still-live, under any
        // interleaving.
        let mut m: PointerMap<u64> = PointerMap::new();
        let mut released = 0u64;
        for i in 0..500u64 {
            m.align(p(i % 17), i);
            if i % 5 == 0 {
                released += m.release(p(i % 13)).len() as u64;
            }
        }
        assert_eq!(500, released + m.live_threads());
    }

    #[test]
    fn ids_are_interned_once_and_reused() {
        let mut m: PointerMap<u32> = PointerMap::new();
        m.align(p(1), 1);
        m.align(p(2), 2);
        assert_eq!(m.interned(), 2);
        m.release(p(1));
        assert_eq!(m.interned(), 2, "release keeps the id");
        m.align(p(1), 3);
        assert_eq!(m.interned(), 2, "re-align reuses the id");
        assert_eq!(m.keys(), 2);
        m.align(p(9), 4);
        assert_eq!(m.interned(), 3);
    }

    #[test]
    fn reset_for_phase_keeps_interner_zeroes_stats() {
        let mut m: PointerMap<u32> = PointerMap::new();
        m.align(p(1), 1);
        m.align(p(2), 2);
        m.release(p(1));
        m.reset_for_phase();
        assert!(m.is_empty());
        assert_eq!(m.live_threads(), 0);
        assert_eq!(m.peak_threads(), 0);
        assert_eq!(m.peak_keys(), 0);
        assert_eq!(m.total_aligned(), 0);
        assert_eq!(m.interned(), 2, "the interner survives the barrier");
        // Waiters left behind (e.g. a carried entry covering them) are
        // dropped; a fresh phase starts clean.
        assert_eq!(m.waiters(p(2)), 0);
        assert!(m.align(p(1), 9), "re-align is first again");
        assert_eq!(m.interned(), 2, "re-align reuses the dense id");
    }

    #[test]
    fn release_with_converts_in_alignment_order_and_counts_like_release_into() {
        let mut m: PointerMap<u32> = PointerMap::new();
        for i in 0..5 {
            m.align(p(7), i);
        }
        m.align(p(8), 50);
        let mut ready = vec![(0u8, 999u32)];
        m.release_with(p(7), &mut ready, |w| (1, w));
        assert_eq!(ready, [(0, 999), (1, 0), (1, 1), (1, 2), (1, 3), (1, 4)]);
        assert_eq!((m.keys(), m.live_threads(), m.waiters(p(7))), (1, 1, 0));
        m.release_with(p(7), &mut ready, |w| (2, w));
        assert_eq!(ready.len(), 6, "nothing waits under a released pointer");
    }

    #[test]
    fn release_into_appends_and_keeps_capacity() {
        let mut m: PointerMap<u32> = PointerMap::new();
        for i in 0..16 {
            m.align(p(7), i);
        }
        let mut stack = vec![999u32];
        m.release_into(p(7), &mut stack);
        assert_eq!(stack.len(), 17);
        assert_eq!(stack[0], 999, "appends after existing entries");
        assert_eq!(&stack[1..4], &[0, 1, 2]);
        assert!(m.is_empty());
        assert_eq!(m.live_threads(), 0);
        // The slot's storage survives for the next alignment burst.
        m.align(p(7), 1);
        assert_eq!(m.waiters(p(7)), 1);
        assert_eq!(m.keys(), 1);
    }
}
