//! Owner-side replica directory: the replicating alignment policy.
//!
//! Caching pulls one copy to each consumer, one request at a time, and
//! loses on a read-mostly hub with *many* consumers (the crossover
//! `fig_graph` records). Replication is the counter: the owner promotes
//! such a pointer to *replicated*, broadcasts a generation-stamped copy to
//! the consumer set, and subsequent remote reads hit the local replica
//! with zero messages. Writes never move: they funnel through the owner
//! (single-writer semantics are untouched), are counted per window, and
//! demote the pointer when the mix stops being read-mostly.
//!
//! The directory itself is pure bookkeeping — which pointers are
//! replicated, to whom, at which generation, and how write-heavy the
//! current window is. The protocol (broadcast, install, invalidation via
//! `PhaseDelta` gating) lives in the runtime; the promotion *policy*
//! (affinity fan-out, read totals, no dominant consumer) lives in the
//! driver, which feeds decisions in here. Every export is sorted so the
//! directory never introduces schedule nondeterminism.

use crate::fxhash::FxHashMap;
use crate::gptr::GPtr;

/// One replicated pointer's bookkeeping at its owner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaEntry {
    /// Generation the owner stamps on the next broadcast. Updated by the
    /// driver at each phase boundary (generations are pure functions of
    /// the phase, so owner and consumers always agree on what "current"
    /// means).
    pub gen: u32,
    /// Consumer nodes holding (or about to receive) the replica; sorted,
    /// never contains the owner.
    pub consumers: Vec<u16>,
    /// Writes funneled through the owner in the current window.
    pub writes_in_window: u64,
    /// Whether the next phase start must (re-)broadcast the payload —
    /// set on promotion and whenever the generation moves. A replica
    /// whose generation is unchanged is carried by the consumer and
    /// validated by the differential all-clear, so re-broadcasting it
    /// would be pure waste.
    pub needs_broadcast: bool,
}

/// The owner-side directory of replicated pointers.
#[derive(Debug, Clone, Default)]
pub struct ReplicaDirectory {
    entries: FxHashMap<GPtr, ReplicaEntry>,
    promotions: u64,
    demotions: u64,
}

impl ReplicaDirectory {
    /// Fresh, empty directory.
    pub fn new() -> ReplicaDirectory {
        ReplicaDirectory::default()
    }

    /// Promote `ptr` to replicated at `gen` for `consumers`. Returns
    /// `false` (and changes nothing) if it is already replicated or the
    /// consumer set is empty. The consumer list is sorted and deduped.
    pub fn promote(&mut self, ptr: GPtr, gen: u32, mut consumers: Vec<u16>) -> bool {
        consumers.sort_unstable();
        consumers.dedup();
        debug_assert!(
            !consumers.iter().any(|&c| c == ptr.node()),
            "owner {} in its own consumer set for {ptr}",
            ptr.node()
        );
        if consumers.is_empty() || self.entries.contains_key(&ptr) {
            return false;
        }
        self.entries.insert(
            ptr,
            ReplicaEntry {
                gen,
                consumers,
                writes_in_window: 0,
                needs_broadcast: true,
            },
        );
        self.promotions += 1;
        true
    }

    /// Drop `ptr` from the directory. Returns `true` if it was replicated.
    pub fn demote(&mut self, ptr: GPtr) -> bool {
        let hit = self.entries.remove(&ptr).is_some();
        if hit {
            self.demotions += 1;
        }
        hit
    }

    /// `true` when `ptr` is currently replicated.
    pub fn is_replicated(&self, ptr: GPtr) -> bool {
        self.entries.contains_key(&ptr)
    }

    /// Record one write funneled through the owner; returns the window's
    /// new count when the pointer is replicated, `None` otherwise.
    pub fn note_write(&mut self, ptr: GPtr) -> Option<u64> {
        self.entries.get_mut(&ptr).map(|e| {
            e.writes_in_window += 1;
            e.writes_in_window
        })
    }

    /// Advance `ptr`'s generation; flags a re-broadcast when it moved.
    pub fn set_gen(&mut self, ptr: GPtr, gen: u32) {
        if let Some(e) = self.entries.get_mut(&ptr) {
            if e.gen != gen {
                e.gen = gen;
                e.needs_broadcast = true;
            }
        }
    }

    /// Demote every entry whose window saw more than `threshold` writes
    /// and zero all windows. Returns the demoted pointers, sorted — the
    /// read-mostly contract: a pointer that stops being read-mostly
    /// stops being replicated.
    pub fn end_window(&mut self, threshold: u64) -> Vec<GPtr> {
        let mut demoted: Vec<GPtr> = self
            .entries
            .iter()
            .filter(|(_, e)| e.writes_in_window > threshold)
            .map(|(p, _)| *p)
            .collect();
        demoted.sort_unstable_by_key(|p| p.bits());
        for p in &demoted {
            self.entries.remove(p);
            self.demotions += 1;
        }
        for e in self.entries.values_mut() {
            e.writes_in_window = 0;
        }
        demoted
    }

    /// Take the entries whose payload must go out at the next phase
    /// start: `(ptr, gen, consumers)`, sorted by pointer bits. Clears
    /// each taken entry's `needs_broadcast` flag.
    pub fn take_broadcasts(&mut self) -> Vec<(GPtr, u32, Vec<u16>)> {
        let mut out: Vec<(GPtr, u32, Vec<u16>)> = self
            .entries
            .iter_mut()
            .filter(|(_, e)| e.needs_broadcast)
            .map(|(p, e)| {
                e.needs_broadcast = false;
                (*p, e.gen, e.consumers.clone())
            })
            .collect();
        out.sort_unstable_by_key(|(p, _, _)| p.bits());
        out
    }

    /// All replicated pointers, sorted by bits.
    pub fn ptrs(&self) -> Vec<GPtr> {
        let mut v: Vec<GPtr> = self.entries.keys().copied().collect();
        v.sort_unstable_by_key(|p| p.bits());
        v
    }

    /// Snapshot export: `(ptr bits, gen)` sorted — what the
    /// `ReplicaCoherence` oracle matches consumer-held replicas against.
    pub fn export(&self) -> Vec<(u64, u32)> {
        let mut v: Vec<(u64, u32)> = self
            .entries
            .iter()
            .map(|(p, e)| (p.bits(), e.gen))
            .collect();
        v.sort_unstable();
        v
    }

    /// The entry for `ptr`, if replicated.
    pub fn entry(&self, ptr: GPtr) -> Option<&ReplicaEntry> {
        self.entries.get(&ptr)
    }

    /// Number of replicated pointers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is replicated.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime promotion count.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Lifetime demotion count.
    pub fn demotions(&self) -> u64 {
        self.demotions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gptr::ObjClass;

    fn p(node: u16, idx: u64) -> GPtr {
        GPtr::new(node, ObjClass(0), idx)
    }

    #[test]
    fn promote_sorts_dedups_and_is_idempotent() {
        let mut d = ReplicaDirectory::new();
        assert!(d.promote(p(0, 1), 3, vec![5, 2, 5, 1]));
        assert!(!d.promote(p(0, 1), 4, vec![7]), "second promote is a no-op");
        assert!(!d.promote(p(0, 2), 0, vec![]), "empty consumer set refused");
        let e = d.entry(p(0, 1)).unwrap();
        assert_eq!(e.consumers, vec![1, 2, 5]);
        assert_eq!(e.gen, 3);
        assert!(e.needs_broadcast);
        assert_eq!((d.len(), d.promotions()), (1, 1));
    }

    #[test]
    fn broadcast_flag_follows_generation() {
        let mut d = ReplicaDirectory::new();
        d.promote(p(0, 2), 1, vec![1]);
        d.promote(p(0, 1), 1, vec![2]);
        let b = d.take_broadcasts();
        assert_eq!(b.len(), 2);
        assert!(b[0].0.bits() < b[1].0.bits(), "broadcasts sorted by ptr");
        assert!(d.take_broadcasts().is_empty(), "flags cleared by take");
        // Unchanged generation: still nothing to send.
        d.set_gen(p(0, 1), 1);
        assert!(d.take_broadcasts().is_empty());
        // Moved generation: exactly that entry re-broadcasts.
        d.set_gen(p(0, 1), 2);
        let b = d.take_broadcasts();
        assert_eq!(b, vec![(p(0, 1), 2, vec![2])]);
    }

    #[test]
    fn write_window_demotes_past_threshold() {
        let mut d = ReplicaDirectory::new();
        d.promote(p(0, 1), 0, vec![1, 2]);
        d.promote(p(0, 2), 0, vec![1, 3]);
        assert_eq!(d.note_write(p(0, 1)), Some(1));
        assert_eq!(d.note_write(p(0, 1)), Some(2));
        assert_eq!(d.note_write(p(0, 2)), Some(1));
        assert_eq!(d.note_write(p(0, 9)), None, "unreplicated writes untracked");
        // threshold 1: ptr 1 (2 writes) demotes, ptr 2 (1 write) survives.
        assert_eq!(d.end_window(1), vec![p(0, 1)]);
        assert!(!d.is_replicated(p(0, 1)));
        assert!(d.is_replicated(p(0, 2)));
        assert_eq!(
            d.entry(p(0, 2)).unwrap().writes_in_window,
            0,
            "window reset"
        );
        assert_eq!(d.demotions(), 1);
        // Explicit demotion also counts.
        assert!(d.demote(p(0, 2)));
        assert!(!d.demote(p(0, 2)));
        assert_eq!(d.demotions(), 2);
        assert!(d.is_empty());
    }

    #[test]
    fn exports_are_sorted() {
        let mut d = ReplicaDirectory::new();
        d.promote(p(0, 7), 4, vec![1]);
        d.promote(p(0, 3), 2, vec![1]);
        assert_eq!(d.export(), vec![(p(0, 3).bits(), 2), (p(0, 7).bits(), 4)]);
        assert_eq!(d.ptrs(), vec![p(0, 3), p(0, 7)]);
    }
}
