//! # apps — the paper's evaluation applications, distributed over DPA
//!
//! The force-computation phases of SPLASH-2 **Barnes-Hut** and **FMM**,
//! expressed as pointer-labeled non-blocking threads over the global
//! object space and executed by any `dpa-core` variant (DPA, caching,
//! blocking, sequential):
//!
//! * [`bh_dist`] — Morton/costzones body partitioning, distributed octree
//!   walk with inline-allocated leaves;
//! * [`fmm_phase`] — the FMM force phase on either tree: one gather app
//!   (M2L and P2L, remote multipole and particle-list reads) and one eval
//!   app (downward L2L, evaluation, near field), generic over the tree;
//! * [`fmm_dist`] — the uniform tree: subtree partitioning at level K;
//! * [`afmm_dist`] — the **adaptive** tree (SPLASH-2's actual algorithm):
//!   grain-subtree partitioning of the variable-depth tree and its
//!   U/V/W/X lists;
//! * [`owned_fields`] — the fields both FMM eval sub-phases compute, a
//!   slot per owned particle, and the dense view the drivers read;
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
pub mod fmm_phase;
pub mod graph_dist;
pub mod owned_fields;
pub mod relax;
pub mod setops_dist;

pub use afmm_dist::{AfmmEvalApp, AfmmGatherApp, AfmmWorld};
pub use bh_dist::{BhApp, BhCost, BhVisit, BhWorld, OwnerPolicy};
pub use driver::{
    run_afmm, run_bh, run_fmm, run_graph, run_relax, run_setops, run_synth, Digest, Phases, Run,
};
pub use error::WorldError;
pub use fmm_dist::{FmmCost, FmmEvalApp, FmmM2lApp, FmmWorld};
pub use fmm_phase::{EvalApp, EvalWork, FmmTree, GatherApp, GatherWork};
pub use graph_dist::{GraphApp, GraphCost, GraphParams, GraphWorld, Visit};
pub use relax::{Push, RelaxApp, RelaxCost, RelaxWorld, Vertex};
pub use setops_dist::{key_stamp, Probe, SetOp, SetopsApp, SetopsParams, SetopsWorld};
