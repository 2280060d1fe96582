//! The FMM force phase on either tree: the interface both FMM worlds
//! implement ([`FmmTree`]) and the one gather and one eval app that run on
//! it.
//!
//! Both trees split the phase the same way, into two barrier-separated
//! sub-phases:
//!
//! 1. **Gather** ([`GatherApp`]) — per target box: M2L of each V-list
//!    source's multipole (remote multipole reads) and P2L of each X-list
//!    source's particles (remote particle-list reads) into the box's local
//!    expansion.
//! 2. **Evaluate** ([`EvalApp`]) — per owned leaf: the memoized L2L chain
//!    down to it (local), its local expansion at its particles, each
//!    W-list source's multipole at them (remote multipole reads), and
//!    direct P2P against each U-list source's particles (remote
//!    particle-list reads).
//!
//! The uniform tree has no X or W lists, and its U list is the leaf and
//! its neighbours.

use crate::fmm_dist::FmmCost;
use crate::owned_fields::{OwnedFields, ParticleSlots};
use dpa_core::{PtrApp, WorkEnv};
use global_heap::{GPtr, ObjClass};
use nbody::afmm::p2l_into;
use nbody::cx::{Binomials, Cx};
use nbody::fmm::{
    eval_local_field, eval_multipole_field, l2l_into, m2l_shifted_into, p2p_field, Local, M2lShift,
    Multipole,
};
use std::collections::HashMap;
use std::sync::Arc;

/// The four interaction lists of a tree box.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum List {
    /// Well-separated boxes at the box's level: M2L sources.
    V,
    /// Leaves whose W list holds the box: P2L sources.
    X,
    /// Boxes whose multipole is evaluated at a leaf's particles.
    W,
    /// Leaves interacting directly with a leaf: P2P sources.
    U,
}

/// What the FMM apps read of a tree. Boxes are `u32` ids, which also
/// index each box's multipole and particle-list objects on the global
/// heap.
pub trait FmmTree: Send + Sync {
    /// Terms of every expansion.
    fn terms(&self) -> usize;
    /// Cost model.
    fn cost(&self) -> &FmmCost;
    /// Owner and per-owner slot of every particle's field.
    fn slots(&self) -> &Arc<ParticleSlots>;
    /// The multipole and particle-list object classes.
    fn classes(&self) -> [ObjClass; 2];
    /// The node that owns box `b`'s objects.
    fn owner(&self, b: u32) -> u16;
    /// The boxes whose local expansions `node` gathers, in iteration order.
    fn targets(&self, node: u16) -> Vec<u32>;
    /// The leaves whose particles `node` evaluates, in iteration order.
    fn leaves(&self, node: u16) -> Vec<u32>;
    /// Calls `f` with each source on `b`'s `list` that holds particles, in
    /// demand order.
    fn for_each_source(&self, b: u32, list: List, f: impl FnMut(u32));
    /// Centre of box `b`.
    fn center(&self, b: u32) -> Cx;
    /// The box whose final local expansion shifts into `b`'s, if any.
    fn parent(&self, b: u32) -> Option<u32>;
    /// Particle ids of leaf `b`.
    fn particles(&self, b: u32) -> &[u32];
    /// Position and charge of particle `i`.
    fn point(&self, i: u32) -> (Cx, f64);
    /// Box `b`'s multipole expansion.
    fn multipole(&self, b: u32) -> &Multipole;
    /// The binomial table sized for the tree's translations.
    fn binomials(&self) -> &Binomials;

    /// `acc +=` the M2L of `src`'s multipole about `tgt`'s centre.
    fn m2l_into(&self, src: u32, tgt: u32, acc: &mut [Cx]) {
        let shift = M2lShift::new(self.center(src) - self.center(tgt), self.terms());
        m2l_shifted_into(self.multipole(src), &shift, self.binomials(), acc);
    }

    /// Global pointer to box `b`'s multipole expansion.
    #[inline]
    fn mpole_ptr(&self, b: u32) -> GPtr {
        GPtr::new(self.owner(b), self.classes()[0], b as u64)
    }

    /// Global pointer to leaf `b`'s particle list.
    #[inline]
    fn plist_ptr(&self, b: u32) -> GPtr {
        GPtr::new(self.owner(b), self.classes()[1], b as u64)
    }

    /// Transfer size of the object `ptr` names: `terms + 1` complex
    /// coefficients, or 24 B a particle, plus a 16-byte header.
    fn object_size(&self, ptr: GPtr) -> u32 {
        if ptr.class() == self.classes()[0] {
            mpole_bytes(self.terms())
        } else {
            24 * self.particles(ptr.index() as u32).len() as u32 + 16
        }
    }
}

/// Bytes of a multipole object at `p` terms: `p + 1` complex coefficients
/// plus a header.
pub(crate) fn mpole_bytes(p: usize) -> u32 {
    16 * (p as u32 + 1) + 16
}

/// The owner of each partition unit, given the units' particle counts in
/// spatial order. Midpoint rule: a unit belongs to the node whose ideal
/// 1/P-of-the-particles segment contains the unit's cumulative midpoint.
/// Robust to count jitter (equal-weight units map exactly one per node
/// when counts allow), monotone in order, and balanced for clustered
/// inputs.
pub(crate) fn midpoint_owners(counts: &[u32], nodes: u16) -> Vec<u16> {
    let total = counts.iter().map(|&c| c as u64).sum::<u64>().max(1);
    let mut cum = 0u64;
    counts
        .iter()
        .map(|&c| {
            let mid = 2 * cum + c as u64; // midpoint × 2 to stay in integers
            cum += c as u64;
            let owner = ((mid * nodes as u64) / (2 * total)).min(nodes as u64 - 1);
            u16::try_from(owner).expect("invariant: owner < nodes, which is u16")
        })
        .collect()
}

/// Mix two interaction ids into one well-spread 64-bit word
/// (splitmix64-style finalizer); summed commutatively into the
/// interaction checksums so they are independent of execution order.
#[inline]
fn mix_pair(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Set in a thread's `src` when the source is on an X list (gather) or a W
/// list (eval), the two lists only the adaptive tree fills.
const XW: u32 = 1 << 31;

/// Fill `out` with the positions and charges of leaf `b`'s particles.
fn load_points(world: &impl FmmTree, b: u32, out: &mut Vec<(Cx, f64)>) {
    out.clear();
    out.extend(world.particles(b).iter().map(|&i| world.point(i)));
}

/// A gather thread: fold one V or X source into a target's local
/// expansion.
#[derive(Clone, Copy, Debug)]
pub struct GatherWork {
    /// The iteration that created the thread: its target's place in the
    /// node's target list.
    pub target: u32,
    /// Source box, its top bit set for an X-list (P2L) source.
    pub src: u32,
}

/// The local-expansion contributions one node gathers: a row of
/// `terms + 1` coefficients per target box, side by side in one slab in
/// iteration order. A gather thread carries its target's iteration, so
/// reaching its accumulator is an index, and the slab is the phase's one
/// allocation.
pub struct M2lLocals {
    /// Target box per row.
    targets: Vec<u32>,
    /// Rows at least one source was folded into.
    touched: Vec<bool>,
    coeffs: Vec<Cx>,
    /// Coefficients a row.
    row: usize,
}

impl M2lLocals {
    fn new(targets: Vec<u32>, terms: usize) -> M2lLocals {
        M2lLocals {
            touched: vec![false; targets.len()],
            coeffs: vec![Cx::ZERO; targets.len() * (terms + 1)],
            targets,
            row: terms + 1,
        }
    }

    /// The accumulator of the target created by iteration `iter`.
    fn row_mut(&mut self, iter: usize) -> &mut [Cx] {
        self.touched[iter] = true;
        &mut self.coeffs[iter * self.row..(iter + 1) * self.row]
    }

    /// The contributions as [`EvalApp::new`] takes them across the
    /// barrier: one expansion per box that received a source, by box id.
    /// Named for how the phase drivers (and the benchmark of record, which
    /// cannot change) take a finished node's partials:
    /// `app.locals.clone()`.
    #[allow(clippy::should_implement_trait)]
    pub fn clone(&self) -> HashMap<u32, Local> {
        let rows = self.coeffs.chunks_exact(self.row);
        (self.targets.iter().zip(&self.touched).zip(rows))
            .filter(|((_, &touched), _)| touched)
            .map(|((&b, _), row)| {
                (
                    b,
                    Local {
                        coeffs: row.to_vec(),
                    },
                )
            })
            .collect()
    }
}

/// Sub-phase 1: V-list M2L and X-list P2L over a node's target boxes.
pub struct GatherApp<T> {
    world: Arc<T>,
    /// Accumulated local-expansion contributions per target box.
    pub locals: M2lLocals,
    /// The X-list source's `(position, charge)` list of the P2L in hand.
    sources: Vec<(Cx, f64)>,
    /// M2L translations performed.
    pub m2l_count: u64,
    /// Integer checksum of the translations performed: the commutative
    /// `wrapping_add` of a hash per (target, src) pair, so it is
    /// bit-identical regardless of execution order, strip size, object
    /// placement — the determinism oracle for this sub-phase.
    pub interaction_hash: u64,
}

impl<T: FmmTree> GatherApp<T> {
    /// The gather app for node `me`.
    pub fn new(world: Arc<T>, me: u16) -> GatherApp<T> {
        GatherApp {
            locals: M2lLocals::new(world.targets(me), world.terms()),
            world,
            sources: Vec::new(),
            m2l_count: 0,
            interaction_hash: 0,
        }
    }
}

impl<T: FmmTree> PtrApp for GatherApp<T> {
    type Work = GatherWork;

    fn num_iterations(&self) -> usize {
        self.locals.targets.len()
    }

    fn start_iteration(&mut self, iter: usize, env: &mut WorkEnv<'_, GatherWork>) {
        let (world, target) = (&*self.world, iter as u32);
        let b = self.locals.targets[iter];
        world.for_each_source(b, List::V, |src| {
            env.demand(world.mpole_ptr(src), GatherWork { target, src })
        });
        world.for_each_source(b, List::X, |src| {
            env.demand(
                world.plist_ptr(src),
                GatherWork {
                    target,
                    src: src | XW,
                },
            )
        });
    }

    fn run_work(&mut self, w: GatherWork, env: &mut WorkEnv<'_, GatherWork>) {
        let world = &*self.world;
        let (cost, p) = (world.cost(), world.terms());
        let tgt = self.locals.targets[w.target as usize];
        let src = w.src & !XW;
        self.interaction_hash = self
            .interaction_hash
            .wrapping_add(mix_pair(tgt as u64, w.src as u64));
        let acc = self.locals.row_mut(w.target as usize);
        if w.src & XW == 0 {
            env.assert_readable(world.mpole_ptr(src));
            world.m2l_into(src, tgt, acc);
            self.m2l_count += 1;
            env.charge(cost.m2l_ns(p));
        } else {
            env.assert_readable(world.plist_ptr(src));
            load_points(world, src, &mut self.sources);
            p2l_into(acc, &self.sources, world.center(tgt));
            let n = self.sources.len() as u64;
            env.charge(cost.eval_term_ns * p as u64 * n + cost.work_fixed_ns);
        }
    }

    fn object_size(&self, ptr: GPtr) -> u32 {
        self.world.object_size(ptr)
    }
}

/// An eval thread.
#[derive(Clone, Copy, Debug)]
pub enum EvalWork {
    /// Finalize the local expansion of a leaf and evaluate it at the
    /// leaf's particles; emits the W and U demands.
    Eval(u32),
    /// Leaf `target`'s particles against one W source's multipole (top bit
    /// of `src` set) or one U source's particles (direct P2P).
    Near {
        /// Target leaf (owned by the executing node).
        target: u32,
        /// Source box whose multipole or particle list is read (possibly
        /// remote).
        src: u32,
    },
}

/// Sub-phase 2: downward L2L chain, far-field evaluation, W-list
/// multipoles and U-list direct near field.
pub struct EvalApp<T> {
    world: Arc<T>,
    leaves: Vec<u32>,
    /// Gather-phase accumulations (moved in at the barrier).
    m2l_partial: HashMap<u32, Local>,
    /// Memoized final local expansions.
    finals: HashMap<u32, Local>,
    /// The U-list source's `(position, charge)` list of the P2P in hand.
    sources: Vec<(Cx, f64)>,
    /// Computed complex fields of the owned particles.
    pub fields: OwnedFields,
    /// P2P pair interactions performed.
    pub p2p_pairs: u64,
    /// Integer checksum of the evaluations and near-field pairs performed
    /// (commutative; evaluation entries carry a tag bit to keep the kinds
    /// distinct). Bit-identical regardless of execution order, strip
    /// size, or placement.
    pub interaction_hash: u64,
}

impl<T: FmmTree> EvalApp<T> {
    /// The eval app for node `me`; `m2l_partial` comes from the node's
    /// gather app.
    pub fn new(world: Arc<T>, me: u16, m2l_partial: HashMap<u32, Local>) -> EvalApp<T> {
        EvalApp {
            fields: OwnedFields::new(world.slots().clone(), me),
            leaves: world.leaves(me),
            world,
            m2l_partial,
            finals: HashMap::new(),
            sources: Vec::new(),
            p2p_pairs: 0,
            interaction_hash: 0,
        }
    }

    /// Make `finals` hold the final local expansion of `b` (memoized),
    /// charging each fresh L2L. The box's gathered partial is read exactly
    /// once, here, so it is moved out and becomes the accumulator.
    fn finalize(&mut self, b: u32, env: &mut WorkEnv<'_, EvalWork>) {
        if self.finals.contains_key(&b) {
            return;
        }
        let p = self.world.terms();
        let mut result = self
            .m2l_partial
            .remove(&b)
            .unwrap_or_else(|| Local::zero(p));
        if let Some(parent) = self.world.parent(b) {
            self.finalize(parent, env);
            let world = &*self.world;
            l2l_into(
                &self.finals[&parent],
                world.center(b) - world.center(parent),
                world.binomials(),
                &mut result,
            );
            env.charge(world.cost().l2l_ns(p));
        }
        self.finals.insert(b, result);
    }
}

impl<T: FmmTree> PtrApp for EvalApp<T> {
    type Work = EvalWork;

    fn num_iterations(&self) -> usize {
        self.leaves.len()
    }

    fn start_iteration(&mut self, iter: usize, env: &mut WorkEnv<'_, EvalWork>) {
        env.local(EvalWork::Eval(self.leaves[iter]));
    }

    fn run_work(&mut self, w: EvalWork, env: &mut WorkEnv<'_, EvalWork>) {
        let p = self.world.terms();
        match w {
            EvalWork::Eval(leaf) => {
                // Tag bit distinguishes evaluation entries from pairs.
                self.interaction_hash = self
                    .interaction_hash
                    .wrapping_add(mix_pair(leaf as u64 | (1 << 32), leaf as u64));
                self.finalize(leaf, env);
                let world = &*self.world;
                let (local, center) = (&self.finals[&leaf], world.center(leaf));
                for &i in world.particles(leaf) {
                    *self.fields.at_mut(i) += eval_local_field(local, world.point(i).0, center);
                    env.charge(world.cost().eval_ns(p));
                }
                world.for_each_source(leaf, List::W, |src| {
                    let work = EvalWork::Near {
                        target: leaf,
                        src: src | XW,
                    };
                    env.demand(world.mpole_ptr(src), work)
                });
                world.for_each_source(leaf, List::U, |src| {
                    env.demand(world.plist_ptr(src), EvalWork::Near { target: leaf, src })
                });
            }
            EvalWork::Near { target, src } => {
                self.interaction_hash = self
                    .interaction_hash
                    .wrapping_add(mix_pair(target as u64, src as u64));
                let world = &*self.world;
                let cost = world.cost();
                if src & XW != 0 {
                    let src = src & !XW;
                    env.assert_readable(world.mpole_ptr(src));
                    let (m, center) = (world.multipole(src), world.center(src));
                    for &i in world.particles(target) {
                        *self.fields.at_mut(i) += eval_multipole_field(m, world.point(i).0, center);
                        env.charge(cost.eval_ns(p));
                    }
                } else {
                    env.assert_readable(world.plist_ptr(src));
                    load_points(world, src, &mut self.sources);
                    let n = self.sources.len() as u64;
                    for &i in world.particles(target) {
                        *self.fields.at_mut(i) += p2p_field(world.point(i).0, &self.sources);
                        self.p2p_pairs += n;
                        env.charge(cost.p2p_pair_ns * n);
                    }
                }
            }
        }
    }

    fn object_size(&self, ptr: GPtr) -> u32 {
        self.world.object_size(ptr)
    }
}
