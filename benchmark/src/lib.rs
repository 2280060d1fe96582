//! # dpa-benchmark — the repo's benchmark of record
//!
//! Measures the system the way its users meet it: *how fast does the
//! simulator run a paper-scale phase on this host* (host time, memory,
//! allocator traffic) and *what does the modelled T3D machine do*
//! (simulated time and traffic, which must not move when only host speed
//! changes) — on five named workloads, and attributes host time to the
//! layers `sim-net`, `dpa-core`, `fastmsg`, `global-heap`, `nbody`, `apps`
//! and `dpa-serve` from the outside. See `README.md` beside this crate.

#![warn(missing_docs)]

pub mod alloc;
pub mod drives;
pub mod harness;
pub mod json;
pub mod layers;
pub mod report;
pub mod serve;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;
