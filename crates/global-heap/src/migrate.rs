//! Locality-driven object migration: the data-side dual of DPA's
//! thread-side alignment.
//!
//! DPA's M mapping aligns *threads* with the objects they dereference; the
//! dual optimization moves hot *objects* to the node whose threads
//! dereference them most. A [`GPtr`] bakes the birth home into its bits, so
//! re-homing cannot rewrite pointers — instead every node keeps a small
//! [`MigrationTable`] of deviations from the birth mapping:
//!
//! * **adopted** — objects this node now serves (it received the payload
//!   in the inter-phase hand-off);
//! * **departed** — forwarding stubs at the birth home: requests for these
//!   objects are forwarded one hop to the new home. An adopted object is
//!   never migrated again, so a request chases at most one stub;
//! * **overrides** — homes a consumer has *learned* (a reply for `p`
//!   arriving from a node other than `p.node()` reveals the new home), so
//!   later requests skip the forwarding hop;
//! * **affinity** — the owner-side per-`(object, requester)` remote
//!   dereference counts that drive the policy. Requesters sample these
//!   counts from their `PointerMap` (one count per aligned thread, not per
//!   message) and ship them to the believed home in `Affinity` messages.
//!
//! The table is pure bookkeeping — deterministic given the sequence of
//! calls — which is what lets migration runs stay replayable under the DST
//! harness.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::gptr::GPtr;

/// Per-node migration state: deviations from the birth-home mapping plus
/// the affinity counts that drive the migration policy. All tables are
/// Fx-hashed — `home_of` runs once per request under migration.
#[derive(Clone, Debug, Default)]
pub struct MigrationTable {
    /// Objects this node has adopted and now serves: `ptr -> payload size`.
    adopted: FxHashMap<GPtr, u32>,
    /// Forwarding stubs for objects born here that have moved: `ptr -> new
    /// home`.
    departed: FxHashMap<GPtr, u16>,
    /// Learned re-homings of remote objects: `ptr -> observed home`.
    overrides: FxHashMap<GPtr, u16>,
    /// Owner-side affinity: `(ptr, requester) -> remote dereference count`.
    affinity: FxHashMap<(GPtr, u16), u64>,
    /// Objects pinned against re-homing — the replication directory's
    /// pointers: a replicated object's directory lives at its birth home,
    /// so migrating it would orphan every replica. Demotion unpins (the
    /// driver rebuilds the pin set from the directory each boundary).
    pinned: FxHashSet<GPtr>,
    migrations_in: u64,
    migrations_out: u64,
    overrides_learned: u64,
}

/// A migration decision: ship `ptr` to `to`, justified by `count` observed
/// remote dereferences from that node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Migration {
    /// The object to move.
    pub ptr: GPtr,
    /// The dominant consumer that becomes the new home.
    pub to: u16,
    /// Remote dereference count that justified the move.
    pub count: u64,
}

impl MigrationTable {
    /// An empty table (everything at its birth home).
    pub fn new() -> MigrationTable {
        MigrationTable::default()
    }

    /// Where node `me` should send requests for `ptr`: itself if it adopted
    /// the object, the stub target if the object departed from here, a
    /// learned override if one exists, else the birth home in the pointer
    /// bits. A table with nothing re-homed answers without probing, inline
    /// at the caller.
    #[inline]
    pub fn home_of(&self, ptr: GPtr, me: u16) -> u16 {
        if self.adopted.is_empty() && self.departed.is_empty() && self.overrides.is_empty() {
            return ptr.node();
        }
        self.probe_home(ptr, me)
    }

    /// [`home_of`](Self::home_of) once something is re-homed.
    fn probe_home(&self, ptr: GPtr, me: u16) -> u16 {
        if self.adopted.contains_key(&ptr) {
            return me;
        }
        if let Some(&to) = self.departed.get(&ptr) {
            return to;
        }
        if let Some(&home) = self.overrides.get(&ptr) {
            return home;
        }
        ptr.node()
    }

    /// `true` if this node adopted `ptr` and serves reads for it.
    #[inline]
    pub fn is_adopted(&self, ptr: GPtr) -> bool {
        self.adopted.contains_key(&ptr)
    }

    /// `true` if `ptr` was born here but has been shipped away.
    #[inline]
    pub fn is_departed(&self, ptr: GPtr) -> bool {
        self.departed.contains_key(&ptr)
    }

    /// The forwarding-stub target for a departed object, if any.
    pub fn forward_target(&self, ptr: GPtr) -> Option<u16> {
        self.departed.get(&ptr).copied()
    }

    /// Install `ptr` (with `size` payload bytes) as adopted by this node.
    /// Idempotent: returns `false` if it was already adopted. An adopted
    /// object is never `depart`ed again, so forwarding chains stay at
    /// length ≤ 1.
    pub fn adopt(&mut self, ptr: GPtr, size: u32) -> bool {
        debug_assert!(
            !self.departed.contains_key(&ptr),
            "object adopted at a node it departed from"
        );
        let fresh = self.adopted.insert(ptr, size).is_none();
        if fresh {
            self.migrations_in += 1;
            // The node now *is* the home; any learned override is obsolete.
            self.overrides.remove(&ptr);
            // Drop any affinity rows recorded here before the adoption,
            // which `record_affinity`'s adopted-check could not catch.
            // Leaving the rows would let a later pick re-migrate an
            // adopted object — a 2-hop chain.
            self.affinity.retain(|(p, _), _| *p != ptr);
        }
        fresh
    }

    /// Install a forwarding stub: `ptr` (born here) now lives at `to`.
    /// Returns `false` if a stub already exists. Drops the object's
    /// affinity rows — it is no longer this node's to give away.
    pub fn depart(&mut self, ptr: GPtr, to: u16) -> bool {
        debug_assert!(
            !self.adopted.contains_key(&ptr),
            "adopted objects are never re-migrated (forwarding chain bound)"
        );
        let fresh = self.departed.insert(ptr, to).is_none();
        if fresh {
            self.migrations_out += 1;
            self.affinity.retain(|(p, _), _| *p != ptr);
        }
        fresh
    }

    /// Record that a reply (or forward) for `ptr` came from `home`,
    /// revealing a re-homing. No-op for the birth home itself or for
    /// objects this node adopted. Returns `true` when the override was new
    /// or changed.
    pub fn learn_override(&mut self, ptr: GPtr, home: u16) -> bool {
        if home == ptr.node() || self.adopted.contains_key(&ptr) {
            return false;
        }
        let changed = self.overrides.insert(ptr, home) != Some(home);
        if changed {
            self.overrides_learned += 1;
        }
        changed
    }

    /// Owner-side: accumulate at node `me` `n` remote dereferences of
    /// `ptr` by node `from`. Only the *birth home* of an object it still
    /// holds accumulates signal — everything else is dropped:
    ///
    /// * objects born elsewhere (`ptr.node() != me`) — a consumer that
    ///   learned an override reports to the adopter, and a scripted peer
    ///   can report to a node that never held the object at all.
    ///   Recording it would let that node "migrate" an object that is not
    ///   its to give away;
    /// * already-departed objects (the stub target gathers its own
    ///   signal);
    /// * *adopted* objects — consumers that learned the new home report
    ///   here, but an adopted object never migrates again
    ///   (forwarding-chain bound), so the signal must not accumulate into
    ///   a pick.
    pub fn record_affinity(&mut self, ptr: GPtr, from: u16, n: u64, me: u16) {
        if n == 0
            || ptr.node() != me
            || self.departed.contains_key(&ptr)
            || self.adopted.contains_key(&ptr)
        {
            return;
        }
        *self.affinity.entry((ptr, from)).or_insert(0) += n;
    }

    /// The migration policy: for each object with affinity signal, find its
    /// dominant consumer (highest count, ties to the lowest node id) and
    /// propose a move when the count reaches `threshold`. At most `budget`
    /// proposals are returned, highest counts first; ties break on pointer
    /// bits so the outcome is deterministic regardless of hash-map
    /// iteration order. The caller commits each proposal with
    /// [`MigrationTable::depart`].
    pub fn pick_migrations(&self, threshold: u64, budget: usize) -> Vec<Migration> {
        if budget == 0 || threshold == 0 {
            return Vec::new();
        }
        let mut per_ptr: FxHashMap<GPtr, (u64, u16)> = FxHashMap::default();
        for (&(ptr, from), &count) in &self.affinity {
            let entry = per_ptr.entry(ptr).or_insert((0, u16::MAX));
            if count > entry.0 || (count == entry.0 && from < entry.1) {
                *entry = (count, from);
            }
        }
        let mut picks: Vec<Migration> = per_ptr
            .into_iter()
            .filter(|&(ptr, (count, _))| count >= threshold && !self.pinned.contains(&ptr))
            .map(|(ptr, (count, to))| Migration { ptr, to, count })
            .collect();
        picks.sort_by(|a, b| {
            b.count
                .cmp(&a.count)
                .then(a.ptr.bits().cmp(&b.ptr.bits()))
        });
        picks.truncate(budget);
        picks
    }

    /// Replace the pin set: `ptrs` are exempt from [`pick_migrations`]
    /// until the next call. The driver rebuilds this from the replica
    /// directory at every phase boundary, so a demoted pointer is
    /// automatically eligible for migration again.
    ///
    /// [`pick_migrations`]: MigrationTable::pick_migrations
    pub fn set_pins(&mut self, ptrs: &[GPtr]) {
        self.pinned.clear();
        self.pinned.extend(ptrs.iter().copied());
    }

    /// `true` when `ptr` is pinned against re-homing.
    pub fn is_pinned(&self, ptr: GPtr) -> bool {
        self.pinned.contains(&ptr)
    }

    /// Owner-side affinity rows grouped per object:
    /// `(ptr, [(requester, count)])`, objects sorted by pointer bits, rows
    /// sorted by requester — the fan-out signal the replication promotion
    /// policy reads (a hub shows many requesters, none dominant).
    pub fn affinity_summary(&self) -> Vec<(GPtr, Vec<(u16, u64)>)> {
        let mut per_ptr: FxHashMap<GPtr, Vec<(u16, u64)>> = FxHashMap::default();
        for (&(ptr, from), &count) in &self.affinity {
            per_ptr.entry(ptr).or_default().push((from, count));
        }
        let mut out: Vec<(GPtr, Vec<(u16, u64)>)> = per_ptr.into_iter().collect();
        for (_, rows) in &mut out {
            rows.sort_unstable();
        }
        out.sort_unstable_by_key(|(p, _)| p.bits());
        out
    }

    /// Number of objects adopted here.
    pub fn adopted_len(&self) -> usize {
        self.adopted.len()
    }

    /// Number of forwarding stubs installed here.
    pub fn departed_len(&self) -> usize {
        self.departed.len()
    }

    /// Objects adopted here as `(pointer bits, size)`, sorted — for
    /// snapshots and cross-phase hand-off.
    pub fn adopted_entries(&self) -> Vec<(u64, u32)> {
        let mut v: Vec<(u64, u32)> = self.adopted.iter().map(|(p, &s)| (p.bits(), s)).collect();
        v.sort_unstable();
        v
    }

    /// Forwarding stubs as `(pointer bits, new home)`, sorted — for the
    /// object-conservation oracle.
    pub fn departed_entries(&self) -> Vec<(u64, u16)> {
        let mut v: Vec<(u64, u16)> = self.departed.iter().map(|(p, &t)| (p.bits(), t)).collect();
        v.sort_unstable();
        v
    }

    /// Total objects ever adopted (`adopt` returning fresh).
    pub fn migrations_in(&self) -> u64 {
        self.migrations_in
    }

    /// Total objects ever departed (`depart` returning fresh).
    pub fn migrations_out(&self) -> u64 {
        self.migrations_out
    }

    /// Total override learn/update events.
    pub fn overrides_learned(&self) -> u64 {
        self.overrides_learned
    }

    /// `true` when the table records no deviation from birth homes.
    pub fn is_empty(&self) -> bool {
        self.adopted.is_empty() && self.departed.is_empty() && self.overrides.is_empty()
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
    fn home_defaults_to_birth_node() {
        let t = MigrationTable::new();
        assert_eq!(t.home_of(p(3, 7), 0), 3);
        assert!(t.is_empty());
    }

    #[test]
    fn depart_installs_stub_and_adopt_rehomes() {
        let mut owner = MigrationTable::new();
        let mut consumer = MigrationTable::new();
        let obj = p(0, 42);
        assert!(owner.depart(obj, 2));
        assert!(!owner.depart(obj, 2), "second stub install is a no-op");
        assert_eq!(owner.home_of(obj, 0), 2, "birth home forwards");
        assert_eq!(owner.forward_target(obj), Some(2));

        assert!(consumer.adopt(obj, 96));
        assert!(!consumer.adopt(obj, 96), "a second adopt is a no-op");
        assert_eq!(consumer.home_of(obj, 2), 2, "adoptee serves locally");
        assert_eq!(consumer.adopted_entries(), vec![(obj.bits(), 96)]);
        assert_eq!(owner.migrations_out(), 1);
        assert_eq!(consumer.migrations_in(), 1);
    }

    #[test]
    fn affinity_that_outran_the_shipment_cannot_remigrate_the_adoptee() {
        // Affinity rows recorded for an object before this node adopts it
        // must die at adoption, or a later pick would depart an adopted
        // object and build a 2-hop forwarding chain.
        let mut t = MigrationTable::new();
        let obj = p(0, 9);
        t.record_affinity(obj, 3, 10, 0);
        assert!(!t.pick_migrations(2, 8).is_empty(), "signal is live pre-adopt");
        assert!(t.adopt(obj, 64));
        assert!(
            t.pick_migrations(2, 8).is_empty(),
            "adoption must clear raced-in affinity rows"
        );
        t.record_affinity(obj, 3, 10, 0);
        assert!(
            t.pick_migrations(2, 8).is_empty(),
            "post-adoption reports are dropped at record time"
        );
    }

    #[test]
    fn only_the_birth_home_accumulates_signal() {
        // Reports landing at a node the object was not born on must not
        // accumulate — node 2 has nothing to give away, and "departing" it
        // would stub an object it does not hold.
        let mut t = MigrationTable::new();
        let obj = p(0, 7);
        t.record_affinity(obj, 3, 50, 2);
        assert!(t.pick_migrations(1, 8).is_empty());
        assert!(t.affinity_summary().is_empty());
    }

    #[test]
    fn override_learned_from_reply_source() {
        let mut t = MigrationTable::new();
        let obj = p(0, 5);
        assert!(!t.learn_override(obj, 0), "birth home is not an override");
        assert!(t.learn_override(obj, 3));
        assert_eq!(t.home_of(obj, 1), 3);
        assert!(!t.learn_override(obj, 3), "same home again is a no-op");
        assert_eq!(t.overrides_learned(), 1);
    }

    #[test]
    fn adoption_clears_stale_override() {
        let mut t = MigrationTable::new();
        let obj = p(0, 5);
        t.learn_override(obj, 3);
        t.adopt(obj, 64);
        assert_eq!(t.home_of(obj, 2), 2);
        assert!(t.overrides.is_empty());
    }

    #[test]
    fn affinity_drives_dominant_consumer_pick() {
        let mut t = MigrationTable::new();
        let a = p(0, 1);
        let b = p(0, 2);
        t.record_affinity(a, 1, 5, 0);
        t.record_affinity(a, 2, 9, 0);
        t.record_affinity(b, 3, 9, 0);
        t.record_affinity(b, 1, 9, 0); // tie on count: lowest node id wins
        let picks = t.pick_migrations(6, 8);
        assert_eq!(picks.len(), 2);
        assert_eq!(picks[0], Migration { ptr: a, to: 2, count: 9 });
        assert_eq!(picks[1], Migration { ptr: b, to: 1, count: 9 });
    }

    #[test]
    fn threshold_and_budget_bound_the_picks() {
        let mut t = MigrationTable::new();
        for i in 0..10 {
            t.record_affinity(p(0, i), 1, 2 + i, 0);
        }
        assert!(t.pick_migrations(100, 8).is_empty(), "below threshold");
        assert!(t.pick_migrations(0, 8).is_empty(), "threshold 0 = disabled");
        let picks = t.pick_migrations(2, 3);
        assert_eq!(picks.len(), 3, "budget caps the batch");
        assert!(picks[0].count >= picks[1].count && picks[1].count >= picks[2].count);
    }

    #[test]
    fn departed_objects_stop_accumulating_affinity() {
        let mut t = MigrationTable::new();
        let obj = p(0, 9);
        t.record_affinity(obj, 1, 4, 0);
        t.depart(obj, 1);
        t.record_affinity(obj, 2, 50, 0);
        assert!(
            t.pick_migrations(1, 8).is_empty(),
            "a departed object must never be picked again"
        );
    }

    #[test]
    fn adopted_objects_never_accumulate_affinity() {
        // Consumers with learned overrides report affinity straight to the
        // adoptee; that signal must not make the object migrate a second
        // time (the forwarding chain is bounded at one hop).
        let mut t = MigrationTable::new();
        let obj = p(0, 9);
        t.adopt(obj, 64);
        t.record_affinity(obj, 2, 50, 0);
        assert!(t.pick_migrations(1, 8).is_empty());
        assert!(t.affinity_summary().is_empty());
    }

    #[test]
    fn pinned_objects_are_never_picked_until_unpinned() {
        let mut t = MigrationTable::new();
        let hot = p(0, 1);
        let cold = p(0, 2);
        t.record_affinity(hot, 1, 50, 0);
        t.record_affinity(cold, 2, 50, 0);
        t.set_pins(&[hot]);
        assert!(t.is_pinned(hot) && !t.is_pinned(cold));
        let picks = t.pick_migrations(1, 8);
        assert_eq!(picks.len(), 1, "pinned object skipped, signal intact");
        assert_eq!(picks[0].ptr, cold);
        // Demotion: the driver rebuilds the pin set without the pointer,
        // and the accumulated signal immediately re-enables migration.
        t.set_pins(&[]);
        assert!(!t.is_pinned(hot));
        assert_eq!(t.pick_migrations(1, 8).len(), 2);
    }

    #[test]
    fn affinity_summary_groups_and_sorts() {
        let mut t = MigrationTable::new();
        t.record_affinity(p(0, 5), 3, 7, 0);
        t.record_affinity(p(0, 5), 1, 9, 0);
        t.record_affinity(p(0, 2), 2, 4, 0);
        let s = t.affinity_summary();
        assert_eq!(
            s,
            vec![
                (p(0, 2), vec![(2, 4)]),
                (p(0, 5), vec![(1, 9), (3, 7)]),
            ]
        );
    }

    #[test]
    fn snapshot_entries_are_sorted() {
        let mut t = MigrationTable::new();
        t.adopt(p(1, 9), 10);
        t.adopt(p(1, 2), 20);
        t.depart(p(0, 7), 3);
        t.depart(p(0, 1), 2);
        let a = t.adopted_entries();
        let d = t.departed_entries();
        assert!(a.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(d.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(t.adopted_len(), 2);
        assert_eq!(t.departed_len(), 2);
    }
}
