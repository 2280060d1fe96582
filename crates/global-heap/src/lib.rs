//! # global-heap — PGAS-style global object space
//!
//! The paper's applications operate on *global pointer-based data
//! structures*: octree cells and bodies distributed across node memories,
//! referenced by global pointers and read remotely during the force phase.
//! This crate provides that substrate:
//!
//! * [`gptr::GPtr`] — a packed global pointer `(owner node, object class,
//!   index)`, 8 bytes on the wire;
//! * [`gptr::ClassTable`] — per-class object sizes, driving reply byte
//!   counts;
//! * [`arrival::ArrivalSet`] — the per-node set of remote objects fetched so
//!   far in the current phase (DPA's tile buffer / renamed storage);
//! * [`cache::SoftCache`] — the software-caching baseline the paper
//!   compares against: a hashed cache probed on *every* global access, with
//!   blocking misses;
//! * [`affinity::AffinityTable`] — the owner-side per-`(object,
//!   requester)` remote dereference counts the replication promotion
//!   policy reads;
//! * [`replicate::ReplicaDirectory`] — the owner-side directory behind the
//!   read-mostly replication mode: which pointers are multi-homed, to whom,
//!   at which generation, and how write-heavy the current window is;
//! * [`migrate::MigrationTable`] — the re-homing table of the deleted
//!   object-migration mode, kept only for the frozen benchmark (ROADMAP
//!   item 1's "Decouple" list).
//!
//! Object *payloads* live in the owning application's typed arenas; since
//! the force phases only read remote data, a "fetch" moves simulated bytes
//! and grants access, without copying host memory. Debug assertions in the
//! applications enforce that no object is read before it has arrived, which
//! keeps the timing model honest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affinity;
pub mod arrival;
pub mod cache;
pub mod fxhash;
pub mod gptr;
pub mod migrate;
pub mod replicate;

pub use affinity::AffinityTable;
pub use arrival::ArrivalSet;
pub use cache::{CacheStats, EvictPolicy, SoftCache};
pub use fxhash::{FxHashMap, FxHashSet, FxHasher};
pub use gptr::{ClassTable, GPtr, ObjClass};
pub use migrate::MigrationTable;
pub use replicate::{ReplicaDirectory, ReplicaEntry};
