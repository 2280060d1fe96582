//! # dpa — Dynamic Pointer Alignment
//!
//! Facade crate re-exporting the whole DPA workspace: a Rust reproduction of
//! *"Dynamic Pointer Alignment: Tiling and Communication Optimizations for
//! Parallel Pointer-based Computations"* (Zhang & Chien, PPoPP 1997).
//!
//! See `README.md` for a tour and `DESIGN.md` for the system inventory.

pub use apps;
pub use dpa_core as runtime;
pub use dpa_serve as serve;
pub use fastmsg;
pub use global_heap;
pub use nbody;
pub use sim_net;
