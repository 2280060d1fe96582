//! # sim-net — deterministic distributed-machine simulator
//!
//! A discrete-event simulator of a distributed-memory multiprocessor in the
//! mold of the Cray T3D used by the DPA paper (Zhang & Chien, PPoPP'97):
//! `P` nodes, each a scalar CPU with private memory, connected by an
//! interconnect modeled with LogGP-style costs (per-message send/receive
//! software overheads, wire latency, per-byte gap).
//!
//! The simulator substitutes for the paper's physical 64-node T3D: the
//! effects DPA exploits — latency tolerance by overlap, per-message-overhead
//! amortization by aggregation, data reuse by thread tiling — are functions
//! of this cost model and of scheduling order, not of physical torus
//! geometry, so the *shapes* of the paper's results (who wins, by what
//! factor, where crossovers fall) are reproducible on one host, exactly and
//! deterministically.
//!
//! ## Layering
//!
//! * [`time`] — integer-nanosecond clocks.
//! * [`network`] — the LogGP cost model ([`network::NetConfig`]).
//! * [`wheel`] — the calendar-queue event queue (plus the shadow heap).
//! * [`machine`] — event queue, per-node clocks, [`machine::Proc`] behaviors.
//! * [`stats`] — local / overhead / idle breakdown per node, user counters.
//! * [`rng`] — dependency-free deterministic RNG for fault schedules.
//! * [`fault`] — fault plans (drop / duplicate / delay / pause) with
//!   per-channel decision streams, reproducible independent of schedule.
//!
//! Higher layers: `fastmsg` (active messages + aggregation), `global-heap`
//! (PGAS object store), `dpa-core` (the paper's runtime), `apps`
//! (Barnes-Hut and FMM force phases).
//!
//! ## Example
//!
//! ```
//! use sim_net::{Machine, NetConfig, NodeId, Proc, Ctx};
//!
//! struct Hello { got: bool }
//! impl Proc for Hello {
//!     type Msg = u64;
//!     fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
//!         if ctx.me() == NodeId(0) { ctx.send(NodeId(1), 42); }
//!     }
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _src: NodeId, msg: u64) {
//!         assert_eq!(msg, 42);
//!         ctx.charge_local(1_000); // pretend to compute for 1us
//!         self.got = true;
//!     }
//! }
//!
//! let mut m = Machine::new(vec![Hello { got: false }, Hello { got: false }],
//!                          NetConfig::default());
//! let report = m.run();
//! assert!(report.completed);
//! assert!(report.makespan().as_ns() > 1_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod machine;
pub mod network;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;
pub mod wheel;

pub use fault::{FaultAction, FaultInjector, FaultPlan, NodePause};
pub use machine::{Ctx, Machine, NodeId, Proc, RunReport, StallInfo};
pub use wheel::{EventKey, QueueKind, TimingWheel, WheelItem};
pub use network::{MsgSize, NetConfig};
pub use rng::Rng;
pub use stats::{ChargeKind, NodeStats, RunStats};
pub use time::{Dur, Time};
pub use trace::{Span, Trace};
