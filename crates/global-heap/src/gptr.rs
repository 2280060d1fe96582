//! Packed global pointers and object-class metadata.
//!
//! A global pointer names an object anywhere in the machine:
//! `(owner node, object class, index within the owner's arena of that
//! class)`. It packs into 8 bytes — the unit both request messages and the
//! runtime's pointer→threads mapping key on.
//!
//! The owner field is the object's *birth* home, fixed for the pointer's
//! lifetime. Objects never leave it, so [`GPtr::node`] is where every
//! request for the object goes.

use std::fmt;

/// An application-defined object class (e.g. `CELL`, `BODY`, `FMM_NODE`).
///
/// Classes determine transfer sizes via [`ClassTable`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ObjClass(pub u8);

/// A packed global pointer: `owner:16 | class:8 | index:40`.
///
/// `GPtr::NULL` is the distinguished null pointer (all-ones), used the way
/// the paper's codes use null child pointers in tree nodes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GPtr(u64);

impl GPtr {
    /// The null global pointer.
    pub const NULL: GPtr = GPtr(u64::MAX);

    /// Bytes a pointer occupies in a message payload.
    pub const WIRE_BYTES: u32 = 8;

    const INDEX_BITS: u32 = 40;
    const INDEX_MASK: u64 = (1 << Self::INDEX_BITS) - 1;

    /// Construct a pointer to object `index` of `class` owned by `node`.
    #[inline]
    pub fn new(node: u16, class: ObjClass, index: u64) -> GPtr {
        debug_assert!(index < Self::INDEX_MASK, "index {index} overflows GPtr");
        GPtr(((node as u64) << 48) | ((class.0 as u64) << Self::INDEX_BITS) | index)
    }

    /// `true` for the null pointer.
    #[inline]
    pub fn is_null(self) -> bool {
        self == Self::NULL
    }

    /// The owning node — the *birth* home baked into the pointer bits, and
    /// the node every request for the object goes to.
    #[inline]
    pub fn node(self) -> u16 {
        debug_assert!(!self.is_null());
        (self.0 >> 48) as u16
    }

    /// The object class.
    #[inline]
    pub fn class(self) -> ObjClass {
        debug_assert!(!self.is_null());
        ObjClass(((self.0 >> Self::INDEX_BITS) & 0xFF) as u8)
    }

    /// The index within the owner's arena for this class.
    #[inline]
    pub fn index(self) -> u64 {
        debug_assert!(!self.is_null());
        self.0 & Self::INDEX_MASK
    }

    /// The raw packed representation (for hashing / wire encoding).
    #[inline]
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Rebuild from a raw packed representation.
    #[inline]
    pub fn from_bits(bits: u64) -> GPtr {
        GPtr(bits)
    }

    /// `true` when the object is owned by `node` (false for null).
    #[inline]
    pub fn is_local_to(self, node: u16) -> bool {
        !self.is_null() && self.node() == node
    }
}

impl fmt::Debug for GPtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "GPtr::NULL")
        } else {
            write!(
                f,
                "GPtr(n{}, c{}, #{})",
                self.node(),
                self.class().0,
                self.index()
            )
        }
    }
}

impl fmt::Display for GPtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Sizes (and names) of the object classes an application transfers.
///
/// The reply path consults this to compute message payload bytes: an
/// aggregated reply carrying objects `p1..pk` is
/// `Σ size(class(pi)) + k·8` bytes (each object is prefixed by its pointer).
#[derive(Clone, Debug, Default)]
pub struct ClassTable {
    entries: Vec<(&'static str, u32)>,
}

impl ClassTable {
    /// An empty table.
    pub fn new() -> ClassTable {
        ClassTable::default()
    }

    /// Register a class with its transfer size in bytes; returns its id.
    pub fn register(&mut self, name: &'static str, size_bytes: u32) -> ObjClass {
        assert!(self.entries.len() < 256, "at most 256 object classes");
        let id = ObjClass(self.entries.len() as u8);
        self.entries.push((name, size_bytes));
        id
    }

    /// Transfer size of `class` in bytes.
    #[inline]
    pub fn size(&self, class: ObjClass) -> u32 {
        self.entries[class.0 as usize].1
    }

    /// Human-readable class name.
    pub fn name(&self, class: ObjClass) -> &'static str {
        self.entries[class.0 as usize].0
    }

    /// Number of registered classes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no classes are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Payload bytes of a reply carrying each object in `ptrs` (object data
    /// plus an 8-byte pointer tag per object).
    pub fn reply_bytes(&self, ptrs: &[GPtr]) -> u32 {
        ptrs.iter()
            .map(|p| self.size(p.class()) + GPtr::WIRE_BYTES)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip() {
        let p = GPtr::new(513, ObjClass(7), 123_456_789);
        assert_eq!(p.node(), 513);
        assert_eq!(p.class(), ObjClass(7));
        assert_eq!(p.index(), 123_456_789);
        assert_eq!(GPtr::from_bits(p.bits()), p);
    }

    #[test]
    fn null_is_distinct() {
        let p = GPtr::new(u16::MAX - 1, ObjClass(255), (1 << 40) - 2);
        assert!(!p.is_null());
        assert!(GPtr::NULL.is_null());
        assert_ne!(p, GPtr::NULL);
    }

    #[test]
    fn locality() {
        let p = GPtr::new(3, ObjClass(0), 0);
        assert!(p.is_local_to(3));
        assert!(!p.is_local_to(4));
        assert!(!GPtr::NULL.is_local_to(3));
    }

    #[test]
    fn class_table_sizes() {
        let mut t = ClassTable::new();
        let cell = t.register("cell", 96);
        let body = t.register("body", 48);
        assert_eq!(t.size(cell), 96);
        assert_eq!(t.name(body), "body");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn reply_bytes_accumulate() {
        let mut t = ClassTable::new();
        let cell = t.register("cell", 96);
        let body = t.register("body", 48);
        let ptrs = [
            GPtr::new(0, cell, 1),
            GPtr::new(1, body, 2),
            GPtr::new(2, cell, 3),
        ];
        assert_eq!(t.reply_bytes(&ptrs), 96 + 48 + 96 + 3 * 8);
        assert_eq!(t.reply_bytes(&[]), 0);
    }

    #[test]
    fn ordering_is_total() {
        let a = GPtr::new(0, ObjClass(0), 1);
        let b = GPtr::new(0, ObjClass(0), 2);
        let c = GPtr::new(1, ObjClass(0), 0);
        assert!(a < b && b < c && c < GPtr::NULL);
    }
}
