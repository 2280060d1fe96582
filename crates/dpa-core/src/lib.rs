//! # dpa-core — the Dynamic Pointer Alignment runtime
//!
//! The paper's primary contribution (Zhang & Chien, PPoPP'97): generalize
//! loop tiling and communication optimizations — message pipelining and
//! aggregation — to pointer-based data structures, where neither precise
//! aliasing nor the iteration space is known at compile time.
//!
//! **How it works.** The compiler half (see the `dpa-compiler` crate)
//! decomposes a computation into non-blocking threads, each labeled with
//! the global pointer it will dereference. This crate is the runtime half:
//!
//! * an explicit mapping **M** from pointers to dependent threads
//!   ([`mapping::PointerMap`]), updated at thread creation;
//! * the outstanding-request table **D**, which is M's key set: a request
//!   is outstanding exactly while threads wait under its pointer;
//! * a scheduler ([`proc_dpa::DpaProc`]) that k-bounds the top-level loop
//!   (*strip-mining*), runs ready threads, and — when an object arrives —
//!   releases every thread aligned under it in one batch (*tiling*) —
//!   with the data-side extensions (migration, differential carry,
//!   replication) as optional states in `proc_dpa`'s private submodules;
//! * a communication scheduler that issues requests eagerly so transfers
//!   overlap local work (*pipelining*) and batches requests per
//!   destination (*aggregation*, via `fastmsg`'s coalescing buffers).
//!
//! The baselines the paper compares against live here too
//! ([`proc_caching::CachingProc`]): software caching (hash probe per
//! access, blocking misses) and naive blocking. All drivers execute the
//! *same* application decomposition ([`work::PtrApp`]), so every variant
//! provably computes identical results; only scheduling and communication
//! differ — exactly the paper's experimental design.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boundary;
pub mod config;
pub mod driver;
pub mod fxmap;
pub mod invariant;
mod live;
pub mod mapping;
pub mod msg;
mod owner;
pub mod pending;
pub mod proc_caching;
pub mod proc_dpa;
pub mod synth;
pub mod work;

pub use config::{ConfigError, CostModel, DpaConfig, Policy, Variant};
pub use driver::{run_phase, run_phase_dst, run_phase_traced, run_phases, DstOptions};
// The frozen `benchmark/` crate links the multi-phase driver under its two
// former names and is their only user; a later benchmark PR drops them.
#[doc(hidden)]
pub use driver::{run_phases as run_phase_differential, run_phases as run_phase_migrating};
pub use fxmap::{FxHashMap, FxHashSet};
pub use invariant::{check_completed, check_conservation, NodeSnapshot, Violation};
pub use mapping::PointerMap;
pub use msg::DpaMsg;
// Not API: exported for `tests/properties.rs` and `bench`'s `alloc_facts`,
// which drive the dedup on its own.
#[doc(hidden)]
pub use msg::SeqChannel;
pub use pending::PendingRequests;
pub use proc_caching::CachingProc;
pub use proc_dpa::{DpaProc, PhaseCarry};
pub use work::{DiffPlan, Emit, PtrApp, Tagged, WorkEnv};
