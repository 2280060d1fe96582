//! Owner-side affinity: how often each remote node dereferenced each of
//! this node's objects, the signal the replication promotion policy reads.
//!
//! Requesters sample the counts from their `PointerMap` (one count per
//! aligned thread, not per message) and ship them to each object's birth
//! home in `Affinity` messages at phase end. The table is carried across
//! phase barriers, so counts accumulate over the whole run. It is pure
//! bookkeeping — deterministic given the sequence of calls — which is
//! what keeps replicating runs replayable under the DST harness.

use crate::fxhash::FxHashMap;
use crate::gptr::GPtr;

/// Per-node `(object, requester) -> remote dereference count`, for the
/// objects born on this node.
#[derive(Clone, Debug, Default)]
pub struct AffinityTable {
    counts: FxHashMap<(GPtr, u16), u64>,
}

impl AffinityTable {
    /// An empty table.
    pub fn new() -> AffinityTable {
        AffinityTable::default()
    }

    /// Accumulate at node `me` `n` remote dereferences of `ptr` by node
    /// `from`. Only an object's birth home accumulates signal: a report
    /// for an object born elsewhere (only a scripted peer sends one) would
    /// let this node promote an object that is not its own, and is
    /// dropped.
    pub fn record(&mut self, ptr: GPtr, from: u16, n: u64, me: u16) {
        if n == 0 || ptr.node() != me {
            return;
        }
        *self.counts.entry((ptr, from)).or_insert(0) += n;
    }

    /// The rows grouped per object: `(ptr, [(requester, count)])`, objects
    /// sorted by pointer bits, rows sorted by requester — the fan-out
    /// signal the promotion policy reads (a hub shows many requesters,
    /// none dominant).
    pub fn summary(&self) -> Vec<(GPtr, Vec<(u16, u64)>)> {
        let mut per_ptr: FxHashMap<GPtr, Vec<(u16, u64)>> = FxHashMap::default();
        for (&(ptr, from), &count) in &self.counts {
            per_ptr.entry(ptr).or_default().push((from, count));
        }
        let mut out: Vec<(GPtr, Vec<(u16, u64)>)> = per_ptr.into_iter().collect();
        for (_, rows) in &mut out {
            rows.sort_unstable();
        }
        out.sort_unstable_by_key(|(p, _)| p.bits());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gptr::ObjClass;

    fn p(node: u16, i: u64) -> GPtr {
        GPtr::new(node, ObjClass(0), i)
    }

    #[test]
    fn only_the_birth_home_accumulates_signal() {
        // Reports landing at a node the object was not born on must not
        // accumulate — node 2 has nothing to promote.
        let mut t = AffinityTable::new();
        t.record(p(0, 7), 3, 50, 2);
        t.record(p(2, 7), 3, 0, 2);
        assert!(t.summary().is_empty());
    }

    #[test]
    fn affinity_summary_groups_and_sorts() {
        let mut t = AffinityTable::new();
        t.record(p(0, 5), 3, 7, 0);
        t.record(p(0, 5), 1, 9, 0);
        t.record(p(0, 2), 2, 4, 0);
        t.record(p(0, 2), 2, 1, 0);
        let s = t.summary();
        assert_eq!(
            s,
            vec![(p(0, 2), vec![(2, 5)]), (p(0, 5), vec![(1, 9), (3, 7)]),]
        );
    }
}
