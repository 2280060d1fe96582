//! The per-node pointer directory: renamed storage, and the one table
//! per pointer the runtime keys everything else by.
//!
//! DPA renames fetched objects into local storage so every thread that
//! needs an object after its arrival finds it locally — this is the data
//! half of "threads using the same objects execute together". Membership
//! means "a local copy exists and may be read"; byte accounting tracks the
//! memory DPA trades for latency tolerance. Across phase barriers, carried
//! and broadcast copies are [`preload_gen`](ArrivalSet::preload_gen)ed
//! with the generation they hold, and a changed object's copy is
//! [`invalidate`](ArrivalSet::invalidate)d so the next dereference
//! refetches it.
//!
//! The same pointers key the mapping M (pointer → waiting threads) and the
//! wire half of D (requests sent, reply not yet in), so this is their
//! table too. A pointer is interned at first sight into a permanent dense
//! id; its hash value is `(id, generation held)` — a 16-byte entry — so
//! "is a copy here, and which?" and "which id do I align under?" are one
//! probe. The id indexes a record of the pointer, the held size, the
//! on-the-wire bit and the [`Chain`] of M's waiting threads (indices into
//! the slab of `dpa_core::PointerMap`, which owns this directory).

use crate::fxhash::FxHashMap;
use crate::gptr::GPtr;

/// The generation in the hash value of a pointer with no copy held.
const NOT_HELD: u32 = u32::MAX;

/// The on-the-wire bit, on top of a record's held size.
const ON_WIRE: u32 = 1 << 31;

/// The threads waiting under one pointer: the first and last of them as
/// indices into M's slab (meaningless while `len` is zero), and how many.
#[derive(Clone, Copy, Debug, Default)]
pub struct Chain {
    /// Slab index of the first waiting thread.
    pub head: u32,
    /// Slab index of the last waiting thread.
    pub tail: u32,
    /// Number of waiting threads.
    pub len: u32,
}

/// What the directory keeps per dense id.
#[derive(Clone, Copy, Debug)]
struct Record {
    ptr: GPtr,
    chain: Chain,
    /// Bytes of the held copy (stale while none is held) | [`ON_WIRE`].
    size: u32,
}

/// Remote objects held at one node, and the pointers it waits on or has
/// requests out for.
#[derive(Clone, Debug, Default)]
pub struct ArrivalSet {
    /// `ptr -> (dense id, generation of the held copy or NOT_HELD)`.
    /// Fx-hashed: every `Demand` emission probes it.
    ids: FxHashMap<GPtr, (u32, u32)>,
    /// Dense id → record.
    recs: Vec<Record>,
    in_flight: usize,
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

    /// The hash value of `ptr`, interned on first sight. Takes the fields
    /// it needs, so the caller may touch the others while it holds it.
    #[inline]
    fn slot<'a>(
        ids: &'a mut FxHashMap<GPtr, (u32, u32)>,
        recs: &mut Vec<Record>,
        ptr: GPtr,
    ) -> &'a mut (u32, u32) {
        debug_assert!(!ptr.is_null());
        ids.entry(ptr).or_insert_with(|| {
            let id = u32::try_from(recs.len()).expect("pointer directory id overflow");
            let (chain, size) = (Chain::default(), 0);
            recs.push(Record { ptr, chain, size });
            (id, NOT_HELD)
        })
    }

    /// Hold a copy of `size` bytes in record `id`, whose hash value the
    /// caller has just stamped.
    #[inline]
    fn take(&mut self, id: u32, size: u32) {
        debug_assert!(size < ON_WIRE, "object of {size} bytes");
        let rec = &mut self.recs[id as usize];
        rec.size = (rec.size & ON_WIRE) | size;
        self.bytes += size as u64;
        self.peak_bytes = self.peak_bytes.max(self.bytes);
    }

    /// Record the arrival of `ptr` carrying `size` payload bytes.
    /// Returns `false` (and changes nothing) if it was already present —
    /// which indicates a redundant fetch upstream. Single-phase callers
    /// that never version objects stamp generation 0.
    pub fn insert(&mut self, ptr: GPtr, size: u32) -> bool {
        let fresh = self.preload_gen(ptr, size, 0);
        self.inserts += u64::from(fresh);
        fresh
    }

    /// Seed a copy that is *already* held when the phase starts (carried
    /// or broadcast) with the generation it holds. Counts bytes but not
    /// `total_inserts`, so per-phase fetch conservation checks stay
    /// meaningful. One probe; a held copy keeps its own stamp (`false`).
    pub fn preload_gen(&mut self, ptr: GPtr, size: u32, gen: u32) -> bool {
        debug_assert!(gen != NOT_HELD);
        let v = Self::slot(&mut self.ids, &mut self.recs, ptr);
        if v.1 != NOT_HELD {
            return false;
        }
        v.1 = gen;
        let id = v.0;
        self.take(id, size);
        true
    }

    /// Intern `ptr` — one probe — and return its id and the generation of
    /// the copy held, if any.
    #[inline]
    pub fn intern(&mut self, ptr: GPtr) -> (u32, Option<u32>) {
        let &mut (id, gen) = Self::slot(&mut self.ids, &mut self.recs, ptr);
        (id, (gen != NOT_HELD).then_some(gen))
    }

    /// [`intern`](ArrivalSet::intern) without interning.
    #[inline]
    pub fn find(&self, ptr: GPtr) -> Option<(u32, Option<u32>)> {
        let &(id, gen) = self.ids.get(&ptr)?;
        Some((id, (gen != NOT_HELD).then_some(gen)))
    }

    /// A copy of `ptr` (`size` bytes at `gen`) reached this node — one
    /// probe. `None` if `ptr` was never interned, else its id and the
    /// generation held afterwards. The copy is taken in (an insert) only
    /// when threads wait under `ptr` and none is held. A `reply` off the
    /// wire, even a duplicate, retires the pointer's request in flight
    /// when it finds a copy held.
    #[inline]
    pub fn arrive(
        &mut self,
        ptr: GPtr,
        size: u32,
        gen: u32,
        reply: bool,
    ) -> Option<(u32, Option<u32>)> {
        debug_assert!(gen != NOT_HELD);
        let v = self.ids.get_mut(&ptr)?;
        let (id, mut held) = *v;
        if held == NOT_HELD {
            if self.recs[id as usize].chain.len == 0 {
                return Some((id, None));
            }
            (v.1, held) = (gen, gen);
            self.take(id, size);
            self.inserts += 1;
        }
        if reply {
            let size = &mut self.recs[id as usize].size;
            self.in_flight -= usize::from(*size & ON_WIRE != 0);
            *size &= !ON_WIRE;
        }
        Some((id, Some(held)))
    }

    /// The generation stamp of the copy held for `ptr`, if any.
    #[inline]
    pub fn generation(&self, ptr: GPtr) -> Option<u32> {
        self.find(ptr)?.1
    }

    /// Every held entry as `(ptr, size, generation)`, in hash order.
    pub fn entries(&self) -> impl Iterator<Item = (GPtr, u32, u32)> + '_ {
        (self.ids.iter())
            .filter(|&(_, &(_, gen))| gen != NOT_HELD)
            .map(|(&p, &(id, gen))| (p, self.recs[id as usize].size & !ON_WIRE, gen))
    }

    /// Drop the copy of `ptr` (it went stale). Returns `true` if a copy
    /// was held; a later [`insert`](ArrivalSet::insert) is fresh again.
    pub fn invalidate(&mut self, ptr: GPtr) -> bool {
        match self.ids.get_mut(&ptr) {
            Some(v) if v.1 != NOT_HELD => {
                v.1 = NOT_HELD;
                self.bytes -= (self.recs[v.0 as usize].size & !ON_WIRE) as u64;
                self.invalidations += 1;
                true
            }
            _ => false,
        }
    }

    /// `true` if `ptr` has arrived (i.e. a local copy is readable).
    #[inline]
    pub fn contains(&self, ptr: GPtr) -> bool {
        self.generation(ptr).is_some()
    }

    /// Number of distinct objects currently held (a walk of the table).
    pub fn len(&self) -> usize {
        self.entries().count()
    }

    /// `true` when nothing has arrived.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// Drop all held objects, keeping ids and lifetime counters.
    pub fn clear(&mut self) {
        self.ids.values_mut().for_each(|v| v.1 = NOT_HELD);
        self.bytes = 0;
    }

    /// Put a request for `ptr` on the wire. A bit: `false` if it was set.
    pub fn set_in_flight(&mut self, ptr: GPtr) -> bool {
        let id = Self::slot(&mut self.ids, &mut self.recs, ptr).0;
        let size = &mut self.recs[id as usize].size;
        let fresh = *size & ON_WIRE == 0;
        *size |= ON_WIRE;
        self.in_flight += usize::from(fresh);
        fresh
    }

    /// Pointers with a request on the wire.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Distinct pointers ever interned (the dense-id space).
    pub fn interned(&self) -> usize {
        self.recs.len()
    }

    /// The pointers threads wait under, in id (first-sight) order.
    pub fn waiting(&self) -> impl Iterator<Item = &GPtr> {
        (self.recs.iter())
            .filter(|rec| rec.chain.len > 0)
            .map(|rec| &rec.ptr)
    }

    /// The chain of M's threads waiting under `id`.
    #[inline]
    pub fn chain(&self, id: u32) -> &Chain {
        &self.recs[id as usize].chain
    }

    /// [`chain`](ArrivalSet::chain), for M to link and release.
    #[inline]
    pub fn chain_mut(&mut self, id: u32) -> &mut Chain {
        &mut self.recs[id as usize].chain
    }

    /// Carry the set across a phase barrier: the copies held, their bytes
    /// and every id stay; chains, on-the-wire bits and the per-phase
    /// counters restart (the peak from what is held).
    pub fn reset_for_phase(&mut self) {
        for rec in &mut self.recs {
            rec.chain.len = 0;
            rec.size &= !ON_WIRE;
        }
        (self.in_flight, self.inserts, self.invalidations) = (0, 0, 0);
        self.peak_bytes = self.bytes;
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
        assert!(a.preload_gen(p(1), 64, 3));
        assert_eq!(a.generation(p(1)), Some(3));
        // A duplicate delivery keeps the first copy's stamp.
        assert!(!a.preload_gen(p(1), 64, 9));
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
        assert!(a.preload_gen(p(1), 64, 4));
        assert_eq!(a.generation(p(1)), Some(4));
    }

    #[test]
    fn preload_counts_bytes_not_inserts() {
        let mut a = ArrivalSet::new();
        a.preload_gen(p(3), 100, 0);
        assert!(a.contains(p(3)));
        assert_eq!(a.bytes(), 100);
        assert_eq!(a.total_inserts(), 0, "preload is not a phase fetch");
        assert!(
            !a.insert(p(3), 100),
            "preloaded copy already satisfies reads"
        );
        a.preload_gen(p(3), 100, 0);
        assert_eq!(a.bytes(), 100, "re-preload is idempotent");
    }

    /// One probe answers a demand: the id to align under, or the
    /// generation held. Ids are permanent, so invalidating and refetching
    /// a copy reuses its record.
    #[test]
    fn intern_returns_the_id_and_the_held_generation() {
        let mut a = ArrivalSet::new();
        assert_eq!(a.find(p(1)), None);
        assert_eq!(a.intern(p(1)), (0, None));
        assert_eq!(a.intern(p(2)), (1, None));
        assert!(a.preload_gen(p(1), 64, 5));
        assert_eq!(a.intern(p(1)), (0, Some(5)));
        assert!(a.invalidate(p(1)));
        assert_eq!(a.find(p(1)), Some((0, None)));
        assert!(a.preload_gen(p(1), 64, 6));
        assert_eq!(
            (a.intern(p(1)), a.find(p(2))),
            ((0, Some(6)), Some((1, None)))
        );
        assert_eq!(a.interned(), 2);
        assert_eq!(a.len(), 1);
    }

    /// An arriving copy is taken in only for waiters; a reply, even a
    /// duplicate, retires the request on the wire for a pointer it finds
    /// held, and a broadcast or an unasked copy leaves the bit alone.
    #[test]
    fn arrive_takes_a_copy_for_waiters_and_a_reply_retires_the_wire_bit() {
        let mut a = ArrivalSet::new();
        assert_eq!(a.arrive(p(1), 64, 3, true), None, "never interned");
        let (id, _) = a.intern(p(1));
        a.set_in_flight(p(1));
        a.set_in_flight(p(1));
        assert_eq!(a.in_flight(), 1, "a bit, not a count");
        assert_eq!(a.arrive(p(1), 64, 3, true), Some((id, None)), "unasked");
        assert_eq!((a.len(), a.in_flight()), (0, 1));
        a.chain_mut(id).len = 2;
        assert_eq!(a.arrive(p(1), 64, 3, false), Some((id, Some(3))));
        assert_eq!((a.bytes(), a.total_inserts(), a.in_flight()), (64, 1, 1));
        assert_eq!(a.arrive(p(1), 80, 9, true), Some((id, Some(3))));
        assert_eq!((a.bytes(), a.total_inserts(), a.in_flight()), (64, 1, 0));
        a.chain_mut(id).len = 0;
        a.set_in_flight(p(1));
        assert_eq!(a.arrive(p(1), 64, 4, true), Some((id, Some(3))), "dup");
        assert_eq!(a.in_flight(), 0);
        let got: Vec<_> = a.entries().collect();
        assert_eq!(got, vec![(p(1), 64, 3)], "the wire bit is not size");
    }

    /// Across a barrier the copies, their bytes and every id stay; chains,
    /// wire bits and the per-phase counters restart.
    #[test]
    fn reset_for_phase_keeps_the_copies() {
        let mut a = ArrivalSet::new();
        a.preload_gen(p(1), 64, 2);
        a.insert(p(2), 32);
        assert!(a.invalidate(p(2)));
        let (id, _) = a.intern(p(3));
        a.chain_mut(id).len = 4;
        a.set_in_flight(p(3));
        a.reset_for_phase();
        assert_eq!((a.len(), a.bytes(), a.peak_bytes()), (1, 64, 64));
        assert_eq!((a.total_inserts(), a.total_invalidations()), (0, 0));
        assert_eq!((a.in_flight(), a.chain(id).len, a.interned()), (0, 0, 3));
        assert_eq!(a.generation(p(1)), Some(2));
    }
}
