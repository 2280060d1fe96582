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
//! indexes flat side tables (`ptrs`, `chains`). The hash map is consulted
//! only to intern/look up the id. The waiting threads of *every* pointer
//! live in one record slab per map: a pointer's id names a
//! `(head, tail, len)` chain, each record carries the index of the next
//! one aligned under the same pointer (tail append, so a release walks
//! them in alignment order), and a released record goes on a free list
//! threaded through the vacated records themselves. The slab's high-water
//! mark is therefore the most threads that ever waited at once
//! (`peak_threads`), not the number ever aligned — within a phase a
//! pointer is fetched once, so a private list per pointer would be grown
//! and then only kept — and once the slab has met that peak, aligning and
//! releasing never touch the allocator.
//! [`PointerMap::release_into`] moves a chain straight into the caller's
//! run stack.
//!
//! # M is also D
//!
//! The paper's second table, **D** (outstanding requests), is M's key set:
//! a pointer's first alignment is what opens its request, and the arrival
//! that completes the request releases the whole chain in the same step.
//! So "a request for `p` is outstanding" is exactly "a thread waits under
//! `p`", and the request statistics are read off M: requests issued are
//! its first alignments, the outstanding peak is
//! [`peak_keys`](PointerMap::peak_keys), and a stall report names the
//! smallest pointers with waiters.

use crate::fxmap::FxHashMap;
use global_heap::GPtr;
use std::num::NonZeroU32;

/// The index of a slab record, kept off by one: the zero it can never be
/// is what tells a [`Slot::Live`] from a [`Slot::Free`], so a record costs
/// its thread plus four bytes and no tag.
#[derive(Clone, Copy, Debug)]
struct Link(NonZeroU32);

impl Link {
    fn to(index: usize) -> Link {
        let off_by_one = u32::try_from(index + 1).ok().and_then(NonZeroU32::new);
        Link(off_by_one.expect("pointer-map slab overflow"))
    }

    #[inline]
    fn index(self) -> usize {
        (self.0.get() - 1) as usize
    }
}

/// One slab record.
#[derive(Clone, Debug)]
enum Slot<W> {
    /// A waiting thread and the record aligned under the same pointer
    /// after it. The last record of a chain names itself: a chain is
    /// walked by its length, so there is no end marker to spend a value
    /// on.
    Live { next: Link, thread: W },
    /// A vacated record and the one vacated before it.
    Free { next: Option<Link> },
}

/// The threads aligned under one interned pointer: the slab indices of the
/// first and last of them (meaningless while `len` is zero) and how many
/// there are.
#[derive(Clone, Copy, Debug, Default)]
struct Chain {
    head: u32,
    tail: u32,
    len: u32,
}

/// Pointer → dependent threads, with high-water-mark accounting for the
/// paper's thread-statistics table. SoA: dense-id interner + one record
/// slab.
#[derive(Clone, Debug)]
pub struct PointerMap<W> {
    /// Pointer → dense id, assigned at first alignment and stable for the
    /// map's lifetime.
    ids: FxHashMap<GPtr, u32>,
    /// Dense id → pointer (the interner's inverse, for diagnostics and
    /// id-order iteration).
    ptrs: Vec<GPtr>,
    /// Dense id → the threads currently aligned under that pointer.
    chains: Vec<Chain>,
    /// Every waiting thread of every pointer, chained by index.
    slab: Vec<Slot<W>>,
    /// The most recently vacated record.
    free: Option<Link>,
    /// Number of ids with a nonempty chain (= `keys()`).
    nonempty: usize,
    live_threads: u64,
    peak_threads: u64,
    peak_keys: u64,
    total_aligned: u64,
    /// Alignments that found no thread waiting under their pointer.
    first_alignments: u64,
}

impl<W> Default for PointerMap<W> {
    fn default() -> Self {
        PointerMap {
            ids: FxHashMap::default(),
            ptrs: Vec::new(),
            chains: Vec::new(),
            slab: Vec::new(),
            free: None,
            nonempty: 0,
            live_threads: 0,
            peak_threads: 0,
            peak_keys: 0,
            total_aligned: 0,
            first_alignments: 0,
        }
    }
}

impl<W> PointerMap<W> {
    /// Bytes of slab one waiting thread occupies.
    pub const RECORD_BYTES: usize = std::mem::size_of::<Slot<W>>();

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
        self.chains.push(Chain::default());
        id
    }

    /// Store `thread` in a record of its own — a vacated one if there is
    /// one — that names itself as its successor.
    #[inline]
    fn record(&mut self, thread: W) -> Link {
        match self.free {
            Some(at) => {
                let live = Slot::Live { next: at, thread };
                let Slot::Free { next } = std::mem::replace(&mut self.slab[at.index()], live) else {
                    unreachable!("the free list names a live record")
                };
                self.free = next;
                at
            }
            None => {
                let at = Link::to(self.slab.len());
                self.slab.push(Slot::Live { next: at, thread });
                at
            }
        }
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
        let at = self.record(thread);
        let chain = &mut self.chains[id as usize];
        let first = chain.len == 0;
        if first {
            chain.head = at.index() as u32;
            self.first_alignments += 1;
            self.nonempty += 1;
            self.peak_keys = self.peak_keys.max(self.nonempty as u64);
        } else {
            let Slot::Live { next, .. } = &mut self.slab[chain.tail as usize] else {
                unreachable!("a chain ends in a vacated record")
            };
            *next = at;
        }
        chain.tail = at.index() as u32;
        chain.len += 1;
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
    /// alignment order) to `out`. Their records go on the free list for
    /// the next alignments, whichever pointer those are under.
    pub fn release_into(&mut self, ptr: GPtr, out: &mut Vec<W>) {
        self.release_with(ptr, out, |thread| thread);
    }

    /// [`release_into`](PointerMap::release_into) for a run queue that
    /// holds more than M does: each released thread passes through `ready`
    /// on its way to `out`, which is where it learns what only the arrival
    /// of its object could tell it.
    pub fn release_with<U>(&mut self, ptr: GPtr, out: &mut Vec<U>, ready: impl FnMut(W) -> U) {
        if let Some(id) = self.waiting(ptr) {
            self.release_chain(id, out, ready);
        }
    }

    /// The chain id of `ptr` while threads wait under it, `None` when none
    /// do: one probe, after which [`release_chain`](Self::release_chain)
    /// needs none.
    #[inline]
    pub(crate) fn waiting(&self, ptr: GPtr) -> Option<u32> {
        let &id = self.ids.get(&ptr)?;
        (self.chains[id as usize].len > 0).then_some(id)
    }

    /// [`release_with`](Self::release_with) for the chain id
    /// [`waiting`](Self::waiting) returned.
    pub(crate) fn release_chain<U>(
        &mut self,
        id: u32,
        out: &mut Vec<U>,
        mut ready: impl FnMut(W) -> U,
    ) {
        let chain = &mut self.chains[id as usize];
        debug_assert!(chain.len > 0, "releasing a chain nothing waits on");
        let (mut at, len) = (Link::to(chain.head as usize), chain.len as usize);
        chain.len = 0;
        self.live_threads -= len as u64;
        self.nonempty -= 1;
        out.reserve(len);
        for _ in 0..len {
            let vacated = std::mem::replace(&mut self.slab[at.index()], Slot::Free { next: self.free });
            let Slot::Live { next, thread } = vacated else {
                unreachable!("a chain runs through a vacated record")
            };
            self.free = Some(at);
            out.push(ready(thread));
            at = next;
        }
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
            Some(&id) => self.chains[id as usize].len as usize,
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

    /// Alignments over the phase that were the first under their pointer
    /// ([`align`](Self::align) returned `true`): the requests issued.
    pub(crate) fn first_alignments(&self) -> u64 {
        self.first_alignments
    }

    /// The `n` smallest pointers with waiters, rendered. Sorted by pointer
    /// value, so a snapshot or stall report depends on the *set* of
    /// outstanding requests and not on the order they were issued in.
    pub(crate) fn sorted_sample(&self, n: usize) -> Vec<String> {
        let mut waiting: Vec<GPtr> = (self.ptrs.iter().zip(&self.chains))
            .filter_map(|(&p, chain)| (chain.len > 0).then_some(p))
            .collect();
        waiting.sort_unstable();
        waiting.iter().take(n).map(|p| p.to_string()).collect()
    }

    /// Patch the mapping across a phase barrier instead of rebuilding it:
    /// every chain is emptied, the slab is truncated (its capacity kept)
    /// and the per-phase statistics are zeroed, but the interner — pointer
    /// → dense id — survives. The next phase's alignments over a
    /// mostly-unchanged pointer set then reuse ids and slab capacity and
    /// never touch the allocator; only genuinely new pointers intern fresh
    /// ids.
    pub fn reset_for_phase(&mut self) {
        for chain in &mut self.chains {
            chain.len = 0;
        }
        self.slab.clear();
        self.free = None;
        self.nonempty = 0;
        self.live_threads = 0;
        self.peak_threads = 0;
        self.peak_keys = 0;
        self.total_aligned = 0;
        self.first_alignments = 0;
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
        assert_eq!(m.first_alignments(), 0);
        assert_eq!(m.interned(), 2, "the interner survives the barrier");
        // Waiters left behind (e.g. a carried entry covering them) are
        // dropped; a fresh phase starts clean.
        assert_eq!(m.waiters(p(2)), 0);
        assert!(m.align(p(1), 9), "re-align is first again");
        assert_eq!(m.interned(), 2, "re-align reuses the dense id");
    }

    /// What D answered, M answers: one request per first alignment (a
    /// pointer released and aligned again counts again), the outstanding
    /// set as the keys with waiters, rendered in pointer order whatever
    /// order the requests were issued in.
    #[test]
    fn the_request_table_is_the_key_set() {
        let (mut a, mut b) = (PointerMap::<u32>::new(), PointerMap::<u32>::new());
        for i in [5, 1, 9, 4, 8, 1, 9] {
            a.align(p(i), 0);
        }
        for i in [8, 4, 9, 1, 5, 5] {
            b.align(p(i), 0);
        }
        assert_eq!((a.first_alignments(), b.first_alignments()), (5, 5));
        a.release(p(4));
        b.release(p(4));
        let first_three = [p(1), p(5), p(8)].map(|q| q.to_string());
        assert_eq!(a.sorted_sample(3), first_three);
        assert_eq!(a.sorted_sample(16), b.sorted_sample(16));
        assert_eq!(a.sorted_sample(16).len(), a.keys());
        assert!(a.waiting(p(4)).is_none() && a.waiting(p(77)).is_none());
        let id = a.waiting(p(9)).expect("two threads wait under p(9)");
        let mut out = Vec::new();
        a.release_chain(id, &mut out, |w| w);
        assert_eq!((out.len(), a.waiting(p(9)), a.keys()), (2, None, 3));
        assert!(a.align(p(4), 0), "a completed pointer is requested again");
        assert_eq!((a.first_alignments(), a.peak_keys()), (6, 5));
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
        // The vacated records serve the next alignment burst, under
        // whichever pointer it comes.
        m.align(p(7), 1);
        m.align(p(8), 2);
        assert_eq!((m.waiters(p(7)), m.waiters(p(8)), m.keys()), (1, 1, 2));
        assert_eq!(m.slab.len(), 16);
    }

    #[test]
    fn the_slab_grows_to_the_peak_not_to_the_total() {
        // Sixty-four pointers, eight threads each, at most two pointers
        // waiting at a time: interleaved chains, every record reused.
        let mut m: PointerMap<u64> = PointerMap::new();
        let mut out = Vec::new();
        for round in 0..64u64 {
            for t in 0..8 {
                m.align(p(round), 100 * round + t);
                m.align(p(round + 1000), 100 * round + 50 + t);
            }
            out.clear();
            m.release_into(p(round), &mut out);
            assert_eq!(out, (0..8).map(|t| 100 * round + t).collect::<Vec<_>>());
            out.clear();
            m.release_into(p(round + 1000), &mut out);
            assert_eq!(out, (0..8).map(|t| 100 * round + 50 + t).collect::<Vec<_>>());
        }
        assert_eq!(m.total_aligned(), 1024);
        assert_eq!(m.peak_threads(), 16);
        assert_eq!(m.slab.len() as u64, m.peak_threads());
        m.reset_for_phase();
        assert!(m.slab.is_empty() && m.slab.capacity() >= 16, "truncated, capacity kept");
        assert!(m.free.is_none());
    }

    /// The record is the thread plus a four-byte link: the live/free tag
    /// hides in the link's forbidden zero. (`bh_dist.rs` pins the record of
    /// the thread `bh16` keeps a few hundred thousand of.)
    #[test]
    fn a_record_is_its_thread_and_four_bytes() {
        assert_eq!(PointerMap::<u64>::RECORD_BYTES, 16);
        assert_eq!(PointerMap::<(u32, [u32; 2])>::RECORD_BYTES, 16);
        assert_eq!(PointerMap::<(u32, u32)>::RECORD_BYTES, 12);
        assert_eq!(std::mem::size_of::<Chain>(), 12);
    }
}
