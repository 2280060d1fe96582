//! # fastmsg — Fast-Messages-style messaging layer
//!
//! The paper's implementation runs over Illinois Fast Messages (FM) on the
//! Cray T3D: user-level active messages whose cost is dominated by software
//! per-message overhead. This crate reproduces the pieces of that layer that
//! DPA's *communication scheduling* needs:
//!
//! * [`agg::Coalescer`] — per-destination coalescing buffers that batch many
//!   small requests into one packet (message **aggregation**);
//! * [`packet`] — MTU segmentation for long replies (FM's streamed
//!   messages), so bulk transfers pay per-packet overhead honestly;
//! * [`arena`] — the allocation-recycling pool ([`arena::VecPool`]) that
//!   keeps event and payload buffers out of the global allocator on the
//!   simulation hot path.
//!
//! All of it is pure data-structure logic layered on `sim-net`'s cost
//! model; nothing here performs real I/O.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod arena;
pub mod packet;

pub use agg::{ByteCoalescer, Coalescer, FlushReason, Forced};
pub use arena::VecPool;
pub use packet::{packets_for, segment_sizes, Mtu};
