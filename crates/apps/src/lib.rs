//! # apps — the paper's evaluation applications, distributed over DPA
//!
//! The force-computation phases of SPLASH-2 **Barnes-Hut** and **FMM**,
//! expressed as pointer-labeled non-blocking threads over the global
//! object space and executed by any `dpa-core` variant (DPA, caching,
//! blocking, sequential):
//!
//! * [`bh_dist`] — Morton/costzones body partitioning, distributed octree
//!   walk with inline-allocated leaves;
//! * [`fmm_dist`] — uniform-tree FMM: subtree partitioning at level K,
//!   the M2L sub-phase (remote multipole reads), and the downward/eval/
//!   P2P sub-phase (remote particle-list reads);
//! * [`afmm_dist`] — the **adaptive** FMM (SPLASH-2's actual algorithm):
//!   grain-subtree partitioning of the variable-depth tree and the
//!   U/V/W/X list phases;
//! * [`relax`] — a push-style weighted graph relaxation exercising the
//!   remote-reduction extension (the paper's stated future work);
//! * [`graph_dist`] — semi-naive transitive closure over a mutable
//!   power-law edge graph: hot hubs, outsized hub records, structural
//!   per-phase deltas — the skew-adversarial workload family;
//! * [`setops_dist`] — batch-parallel ordered-set operations (insert /
//!   delete / range) over a distributed sorted map with power-law-hot
//!   range queries;
//! * [`driver`] — one runner per app family ([`driver::run_bh`],
//!   [`driver::run_fmm`], …), each returning the same [`driver::Run`].
//!
//! Every variant runs the same decomposition, so forces agree across
//! variants to floating-point reassociation tolerance — verified in this
//! crate's tests against the sequential oracles in `nbody`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod afmm_dist;
pub mod bh_dist;
pub mod driver;
pub mod error;
pub mod fmm_dist;
pub mod graph_dist;
pub mod relax;
pub mod setops_dist;

pub use afmm_dist::{AEvalWork, AfmmEvalApp, AfmmGatherApp, AfmmWorld, GatherWork};
pub use error::WorldError;
pub use bh_dist::{BhApp, BhCost, BhVisit, BhWorld, OwnerPolicy};
pub use driver::{
    run_afmm, run_bh, run_fmm, run_graph, run_relax, run_setops, run_synth, Digest, Phases, Run,
};
pub use fmm_dist::{EvalWork, FmmCost, FmmEvalApp, FmmM2lApp, FmmWorld, M2lWork};
pub use graph_dist::{GraphApp, GraphCost, GraphParams, GraphWorld, Visit};
pub use relax::{Push, RelaxApp, RelaxCost, RelaxWorld, Vertex};
pub use setops_dist::{key_stamp, Probe, SetOp, SetopsApp, SetopsParams, SetopsWorld};
