//! The re-homing table of the deleted object-migration mode.
//!
//! Objects stay at their birth homes: nothing in the workspace re-homes
//! one (DESIGN.md §6 records why). The table survives only because the
//! frozen benchmark drives its lookup as the `migration_home_of_ns`
//! layer metric; ROADMAP item 1's "Decouple" list deletes it together
//! with that drive. A
//! [`GPtr`] bakes the birth home into its bits, so the table keeps the
//! deviations from that mapping: objects this node adopted, forwarding
//! stubs for objects that left, and homes learned from reply traffic.

use crate::fxhash::FxHashMap;
use crate::gptr::GPtr;

/// Deviations from the birth-home mapping, Fx-hashed. Kept for ROADMAP
/// item 1's "Decouple" list (the benchmark's `migration_home_of_ns`
/// drive).
#[derive(Clone, Debug, Default)]
pub struct MigrationTable {
    /// Objects this node has adopted and now serves: `ptr -> payload size`.
    adopted: FxHashMap<GPtr, u32>,
    /// Forwarding stubs for objects born here that have moved: `ptr -> new
    /// home`.
    departed: FxHashMap<GPtr, u16>,
    /// Learned re-homings of remote objects: `ptr -> observed home`.
    overrides: FxHashMap<GPtr, u16>,
}

impl MigrationTable {
    /// An empty table (everything at its birth home). Kept for ROADMAP
    /// item 1's "Decouple" list.
    pub fn new() -> MigrationTable {
        MigrationTable::default()
    }

    /// Where node `me` should send requests for `ptr`: itself if it adopted
    /// the object, the stub target if the object departed from here, a
    /// learned override if one exists, else the birth home in the pointer
    /// bits. A table with nothing re-homed answers without probing. Kept
    /// for ROADMAP item 1's "Decouple" list.
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

    /// Install `ptr` (with `size` payload bytes) as adopted by this node,
    /// dropping any learned override for it. Returns `false` if it was
    /// already adopted. Kept for ROADMAP item 1's "Decouple" list.
    pub fn adopt(&mut self, ptr: GPtr, size: u32) -> bool {
        let fresh = self.adopted.insert(ptr, size).is_none();
        if fresh {
            self.overrides.remove(&ptr);
        }
        fresh
    }

    /// Install a forwarding stub: `ptr` (born here) now lives at `to`.
    /// Returns `false` if a stub already exists. Kept for ROADMAP item 1's
    /// "Decouple" list.
    pub fn depart(&mut self, ptr: GPtr, to: u16) -> bool {
        self.departed.insert(ptr, to).is_none()
    }

    /// Record that a reply for `ptr` came from `home`. No-op for the birth
    /// home itself or for objects this node adopted. Returns `true` when
    /// the override was new or changed. Kept for ROADMAP item 1's
    /// "Decouple" list.
    pub fn learn_override(&mut self, ptr: GPtr, home: u16) -> bool {
        if home == ptr.node() || self.adopted.contains_key(&ptr) {
            return false;
        }
        self.overrides.insert(ptr, home) != Some(home)
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
    }

    #[test]
    fn depart_installs_stub_and_adopt_rehomes() {
        let mut owner = MigrationTable::new();
        let mut consumer = MigrationTable::new();
        let obj = p(0, 42);
        assert!(owner.depart(obj, 2));
        assert!(!owner.depart(obj, 2), "second stub install is a no-op");
        assert_eq!(owner.home_of(obj, 0), 2, "birth home forwards");

        assert!(consumer.adopt(obj, 96));
        assert!(!consumer.adopt(obj, 96), "a second adopt is a no-op");
        assert_eq!(consumer.home_of(obj, 2), 2, "adoptee serves locally");
    }

    #[test]
    fn override_learned_from_reply_source() {
        let mut t = MigrationTable::new();
        let obj = p(0, 5);
        assert!(!t.learn_override(obj, 0), "birth home is not an override");
        assert!(t.learn_override(obj, 3));
        assert_eq!(t.home_of(obj, 1), 3);
        assert!(!t.learn_override(obj, 3), "same home again is a no-op");
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
}
