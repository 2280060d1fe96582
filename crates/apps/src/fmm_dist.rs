//! The distributed FMM force-computation phase.
//!
//! The quadtree is partitioned at level `K` (the coarsest level with at
//! least one box per node): level-`K` subtrees are assigned to nodes in
//! Morton order, weighted by particle counts; deeper boxes inherit their
//! subtree's owner. Setup (tree build + upward pass) is untimed, matching
//! the paper's timing of the force-computation phase only.
//!
//! The timed phase runs in two barrier-separated sub-phases, mirroring
//! SPLASH-2 FMM's phase structure:
//!
//! 1. **M2L** ([`FmmM2lApp`]) — for every owned box, convert the multipole
//!    expansions of its interaction list into local-expansion
//!    contributions. Interaction-list multipoles are the remote reads
//!    (~500-byte objects at 29 terms); each node also computes the
//!    (deduplicated) M2L of its subtree roots' few top-level ancestors.
//! 2. **Downward + evaluate + P2P** ([`FmmEvalApp`]) — L2L-chain final
//!    local expansions down each owned subtree (memoized, all local),
//!    evaluate fields at owned particles, and do direct P2P against the
//!    ≤9 neighbor leaves, whose particle lists may be remote.
//!
//! Both sub-phases run under any [`dpa_core::Variant`]; forces agree with
//! the sequential [`nbody::fmm::FmmSolver`] to floating-point tolerance.

use dpa_core::{PtrApp, WorkEnv};
use global_heap::{ClassTable, GPtr, ObjClass};
use nbody::cx::Cx;
use nbody::fmm::{eval_local_field, l2l_into, FmmParams, FmmSolver, Local};
use nbody::quadtree::BoxId;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-operation costs of the FMM arithmetic, in ns (T3D-node scale),
/// parameterized by the term count so term sweeps behave sensibly.
#[derive(Clone, Copy, Debug)]
pub struct FmmCost {
    /// ns per (p+1)² unit of an M2L translation.
    pub m2l_unit_ns: u64,
    /// ns per (p+1)² unit of an L2L shift.
    pub l2l_unit_ns: u64,
    /// ns per term per particle of a local-expansion evaluation.
    pub eval_term_ns: u64,
    /// ns per particle-particle pair.
    pub p2p_pair_ns: u64,
    /// Fixed ns per work dispatch (loop setup etc.).
    pub work_fixed_ns: u64,
}

impl Default for FmmCost {
    fn default() -> Self {
        FmmCost {
            m2l_unit_ns: 100,
            l2l_unit_ns: 55,
            eval_term_ns: 120,
            p2p_pair_ns: 400,
            work_fixed_ns: 300,
        }
    }
}

impl FmmCost {
    /// Full M2L cost at `p` terms.
    pub fn m2l_ns(&self, p: usize) -> u64 {
        self.m2l_unit_ns * ((p + 1) * (p + 1)) as u64 + self.work_fixed_ns
    }

    /// Full L2L cost at `p` terms.
    pub fn l2l_ns(&self, p: usize) -> u64 {
        self.l2l_unit_ns * ((p + 1) * (p + 1)) as u64 + self.work_fixed_ns
    }

    /// Local-expansion evaluation cost for one particle at `p` terms.
    pub fn eval_ns(&self, p: usize) -> u64 {
        self.eval_term_ns * p as u64 + self.work_fixed_ns
    }
}

/// Immutable shared world for one FMM force phase.
pub struct FmmWorld {
    /// Sequential solver holding tree, particles, and the (untimed)
    /// upward-pass multipoles. `downward()` is *not* called on it here —
    /// the distributed phase does that work.
    pub solver: FmmSolver,
    /// Owner node per dense box index.
    pub box_owner: Vec<u16>,
    /// Subtree particle count per dense box index.
    pub box_count: Vec<u32>,
    /// Partition level K.
    pub part_level: u32,
    /// Cost model.
    pub cost: FmmCost,
    /// Object classes.
    pub classes: ClassTable,
    /// Multipole-expansion object class.
    pub mpole_class: ObjClass,
    /// Leaf particle-list object class.
    pub plist_class: ObjClass,
    /// Machine size.
    pub nodes: u16,
}

/// Bytes of a multipole object at `p` terms: (p+1) complex + header.
fn mpole_bytes(p: usize) -> u32 {
    16 * (p as u32 + 1) + 16
}

/// Bytes of a leaf particle list with `n` particles.
fn plist_bytes(n: u32) -> u32 {
    24 * n + 16
}

impl FmmWorld {
    /// Build the world: tree, upward pass, space partition.
    pub fn build(
        zs: Vec<Cx>,
        qs: Vec<f64>,
        nodes: u16,
        params: FmmParams,
        cost: FmmCost,
    ) -> Arc<FmmWorld> {
        Self::build_with_grain(zs, qs, nodes, params, cost, 0)
    }

    /// [`FmmWorld::build`] with `grain_extra` additional partition levels:
    /// subtrees are assigned at level `K + grain_extra`, trading a few
    /// more cross-subtree L2L ancestors for finer load-balance grains
    /// (useful on clustered inputs where level-K subtrees are indivisible
    /// hotspots).
    pub fn build_with_grain(
        zs: Vec<Cx>,
        qs: Vec<f64>,
        nodes: u16,
        params: FmmParams,
        cost: FmmCost,
        grain_extra: u32,
    ) -> Arc<FmmWorld> {
        assert!(nodes >= 1);
        let solver = FmmSolver::new(zs, qs, params);
        let levels = params.levels;
        let total = BoxId::total_boxes(levels);

        // Subtree particle counts, bottom-up.
        let mut box_count = vec![0u32; total];
        for b in solver.tree.leaves() {
            box_count[b.dense_index()] = solver.tree.particles_in(b).len() as u32;
        }
        for level in (0..levels).rev() {
            for b in solver.tree.boxes_at(level) {
                box_count[b.dense_index()] = b
                    .children
                    ()
                    .iter()
                    .map(|c| box_count[c.dense_index()])
                    .sum();
            }
        }

        // Partition level: coarsest with >= nodes boxes (at least 2),
        // plus any requested extra grain refinement.
        let mut part_level = 2u32;
        while (1usize << (2 * part_level)) < nodes as usize {
            part_level += 1;
        }
        assert!(
            part_level <= levels,
            "too many nodes ({nodes}) for tree depth {levels}"
        );
        part_level = (part_level + grain_extra).min(levels);

        // Level-K boxes in Morton order, split by cumulative particle count.
        let mut roots: Vec<BoxId> = (0..(1u32 << part_level))
            .flat_map(|y| {
                (0..(1u32 << part_level)).map(move |x| BoxId {
                    level: part_level,
                    x,
                    y,
                })
            })
            .collect();
        roots.sort_by_key(|b| nbody::morton::morton2(
            (b.x as f64 + 0.5) / (1u64 << part_level) as f64,
            (b.y as f64 + 0.5) / (1u64 << part_level) as f64,
        ));
        let total_particles: u64 = (solver.zs.len() as u64).max(1);
        let mut root_owner: HashMap<BoxId, u16> = HashMap::new();
        let mut cum = 0u64;
        for b in &roots {
            // Midpoint rule: a root belongs to the node whose ideal
            // 1/P-of-the-particles segment contains the root's cumulative
            // midpoint. Robust to count jitter (equal-weight roots map
            // exactly one per node when counts allow), monotone in Morton
            // order, and balanced for clustered inputs.
            let c = box_count[b.dense_index()] as u64;
            let mid = 2 * cum + c; // midpoint × 2 to stay in integers
            let owner = ((mid * nodes as u64) / (2 * total_particles)).min(nodes as u64 - 1);
            root_owner.insert(
                *b,
                u16::try_from(owner).expect("invariant: owner < nodes, which is u16"),
            );
            cum += c;
        }

        // Owner per box: level-K ancestor's owner (coarser levels: owner of
        // the first level-K descendant in Morton order = ancestor chain of
        // child 0).
        let mut box_owner = vec![0u16; total];
        #[allow(clippy::needless_range_loop)] // idx decodes to a BoxId
        for idx in 0..total {
            let b = BoxId::from_dense(idx);
            let anchor = if b.level >= part_level {
                b.ancestor_at(part_level)
            } else {
                // Descend to level K via first child.
                let mut d = b;
                while d.level < part_level {
                    d = d.children()[0];
                }
                d
            };
            box_owner[idx] = root_owner[&anchor];
        }

        let mut classes = ClassTable::new();
        let mpole_class = classes.register("fmm_multipole", mpole_bytes(params.terms));
        let plist_class = classes.register("fmm_plist", 16);

        Arc::new(FmmWorld {
            solver,
            box_owner,
            box_count,
            part_level,
            cost,
            classes,
            mpole_class,
            plist_class,
            nodes,
        })
    }

    /// FMM parameters in effect.
    pub fn params(&self) -> FmmParams {
        self.solver.params
    }

    /// `true` if the box's subtree holds any particle.
    #[inline]
    pub fn nonempty(&self, b: BoxId) -> bool {
        self.box_count[b.dense_index()] > 0
    }

    /// Global pointer to a box's multipole expansion.
    #[inline]
    pub fn mpole_ptr(&self, b: BoxId) -> GPtr {
        let idx = b.dense_index();
        GPtr::new(self.box_owner[idx], self.mpole_class, idx as u64)
    }

    /// Global pointer to a leaf's particle list.
    #[inline]
    pub fn plist_ptr(&self, b: BoxId) -> GPtr {
        debug_assert_eq!(b.level, self.solver.params.levels);
        let idx = b.dense_index();
        GPtr::new(self.box_owner[idx], self.plist_class, idx as u64)
    }

    /// Boxes at levels `K..=finest` owned by `node` with particles.
    pub fn owned_boxes(&self, node: u16) -> Vec<BoxId> {
        let mut out = Vec::new();
        for level in self.part_level..=self.solver.params.levels {
            for b in self.solver.tree.boxes_at(level) {
                if self.box_owner[b.dense_index()] == node && self.nonempty(b) {
                    out.push(b);
                }
            }
        }
        out
    }

    /// Owned nonempty leaves of `node`.
    pub fn owned_leaves(&self, node: u16) -> Vec<BoxId> {
        self.solver
            .tree
            .leaves()
            .filter(|b| self.box_owner[b.dense_index()] == node && self.nonempty(*b))
            .collect()
    }

    /// Deduplicated ancestors (levels 2..K) of `node`'s owned subtree
    /// roots — the top-level boxes whose M2L this node computes itself.
    pub fn owned_ancestors(&self, node: u16) -> Vec<BoxId> {
        let mut out = Vec::new();
        for b in self.solver.tree.boxes_at(self.part_level) {
            if self.box_owner[b.dense_index()] == node && self.nonempty(b) {
                for k in 2..self.part_level {
                    let a = b.ancestor_at(k);
                    if !out.contains(&a) {
                        out.push(a);
                    }
                }
            }
        }
        out
    }

    /// Resolve a dense index back to a box id.
    #[inline]
    pub fn box_of(&self, dense: usize) -> BoxId {
        BoxId::from_dense(dense)
    }

    /// The size in bytes of the object `ptr` names.
    pub fn object_size(&self, ptr: GPtr) -> u32 {
        if ptr.class() == self.mpole_class {
            mpole_bytes(self.solver.params.terms)
        } else {
            let b = self.box_of(ptr.index() as usize);
            plist_bytes(self.solver.tree.particles_in(b).len() as u32)
        }
    }
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

/// A phase-1 non-blocking thread: apply the multipole of `src` to the
/// local expansion of `target`.
#[derive(Clone, Copy, Debug)]
pub struct M2lWork {
    /// Target box (owned by the executing node): the iteration that
    /// created the thread, i.e. the box's place in the node's target list.
    pub target: u32,
    /// Source box whose multipole is read (possibly remote), as a dense
    /// index.
    pub src: u32,
}

/// The local-expansion contributions one node accumulates in phase 1: a
/// row of `terms + 1` coefficients per target box, side by side in one
/// slab in iteration order. An M2L thread carries its target's iteration,
/// so reaching its accumulator is an index, and the slab is the phase's
/// one allocation.
pub struct M2lLocals {
    /// Dense box index per row.
    boxes: Vec<u32>,
    /// Rows at least one M2L was added to.
    touched: Vec<bool>,
    coeffs: Vec<Cx>,
    /// Coefficients a row.
    row: usize,
}

impl M2lLocals {
    fn new(targets: &[BoxId], terms: usize) -> M2lLocals {
        M2lLocals {
            boxes: targets.iter().map(|b| b.dense_index() as u32).collect(),
            touched: vec![false; targets.len()],
            coeffs: vec![Cx::ZERO; targets.len() * (terms + 1)],
            row: terms + 1,
        }
    }

    /// The accumulator of the target created by iteration `iter`.
    fn row_mut(&mut self, iter: usize) -> &mut [Cx] {
        self.touched[iter] = true;
        &mut self.coeffs[iter * self.row..(iter + 1) * self.row]
    }

    /// The contributions as [`FmmEvalApp::new`] takes them across the
    /// barrier: one expansion per box that received an M2L, by dense
    /// index. Named for how the phase drivers (and the benchmark of
    /// record, which cannot change) take a finished node's partials:
    /// `app.locals.clone()`.
    #[allow(clippy::should_implement_trait)]
    pub fn clone(&self) -> HashMap<u32, Local> {
        let rows = self.coeffs.chunks_exact(self.row);
        (self.boxes.iter().zip(&self.touched).zip(rows))
            .filter(|((_, &touched), _)| touched)
            .map(|((&dense, _), row)| (dense, Local { coeffs: row.to_vec() }))
            .collect()
    }
}

/// Phase 1: M2L over interaction lists.
pub struct FmmM2lApp {
    world: Arc<FmmWorld>,
    targets: Vec<BoxId>,
    /// Accumulated local-expansion contributions per owned box.
    pub locals: M2lLocals,
    /// M2L translations performed.
    pub m2l_count: u64,
    /// Integer checksum of the M2L translations performed: the
    /// commutative `wrapping_add` of a hash per (target, src) pair, so it
    /// is bit-identical regardless of execution order, strip size, object
    /// placement — the determinism oracle for this phase.
    pub interaction_hash: u64,
}

impl FmmM2lApp {
    /// The phase-1 app for node `me`.
    pub fn new(world: Arc<FmmWorld>, me: u16) -> FmmM2lApp {
        let mut targets = world.owned_boxes(me);
        targets.extend(world.owned_ancestors(me));
        FmmM2lApp {
            locals: M2lLocals::new(&targets, world.solver.params.terms),
            world,
            targets,
            m2l_count: 0,
            interaction_hash: 0,
        }
    }
}

impl PtrApp for FmmM2lApp {
    type Work = M2lWork;

    fn num_iterations(&self) -> usize {
        self.targets.len()
    }

    fn start_iteration(&mut self, iter: usize, env: &mut WorkEnv<'_, M2lWork>) {
        for s in self.targets[iter].interaction_list() {
            if self.world.nonempty(s) {
                env.demand(
                    self.world.mpole_ptr(s),
                    M2lWork {
                        target: iter as u32,
                        src: s.dense_index() as u32,
                    },
                );
            }
        }
    }

    fn run_work(&mut self, w: M2lWork, env: &mut WorkEnv<'_, M2lWork>) {
        let world = &*self.world;
        let src = world.box_of(w.src as usize);
        let tgt = self.targets[w.target as usize];
        env.assert_readable(world.mpole_ptr(src));
        let p = world.solver.params.terms;
        world
            .solver
            .m2l_into_coeffs(src, tgt, self.locals.row_mut(w.target as usize));
        self.m2l_count += 1;
        self.interaction_hash = self
            .interaction_hash
            .wrapping_add(mix_pair(tgt.dense_index() as u64, w.src as u64));
        env.charge(world.cost.m2l_ns(p));
    }

    fn object_size(&self, ptr: GPtr) -> u32 {
        self.world.object_size(ptr)
    }
}

/// A phase-2 non-blocking thread.
#[derive(Clone, Copy, Debug)]
pub enum EvalWork {
    /// Finalize the local expansion of a leaf (dense index) and evaluate
    /// the far field at its particles; emits the P2P demands.
    Eval(u32),
    /// Direct interactions of leaf `target`'s particles against the
    /// particle list of `src` (≤9 neighbor leaves incl. self).
    P2p {
        /// Target leaf (owned by the executing node).
        target: u32,
        /// Source leaf whose particle list is read (possibly remote).
        src: u32,
    },
}

/// Phase 2: downward L2L chain, far-field evaluation, and near-field P2P.
pub struct FmmEvalApp {
    world: Arc<FmmWorld>,
    leaves: Vec<BoxId>,
    /// Phase-1 M2L accumulations (moved in at the barrier).
    m2l_partial: HashMap<u32, Local>,
    /// Memoized final local expansions.
    finals: HashMap<u32, Local>,
    /// The source leaf's `(position, charge)` list of the P2P in hand.
    sources: Vec<(Cx, f64)>,
    /// Computed complex fields, indexed by global particle id (only owned
    /// particles are filled).
    pub fields: Vec<Cx>,
    /// L2L shifts performed.
    pub l2l_count: u64,
    /// P2P pair interactions performed.
    pub p2p_pairs: u64,
    /// Integer checksum of the evaluations and P2P leaf pairs performed
    /// (commutative; evaluation entries carry a tag bit to keep the two
    /// kinds distinct). Bit-identical regardless of execution order,
    /// strip size, or placement.
    pub interaction_hash: u64,
}

impl FmmEvalApp {
    /// The phase-2 app for node `me`; `m2l_partial` comes from the node's
    /// phase-1 app.
    pub fn new(world: Arc<FmmWorld>, me: u16, m2l_partial: HashMap<u32, Local>) -> FmmEvalApp {
        let leaves = world.owned_leaves(me);
        let n = world.solver.zs.len();
        FmmEvalApp {
            world,
            leaves,
            m2l_partial,
            finals: HashMap::new(),
            sources: Vec::new(),
            fields: vec![Cx::ZERO; n],
            l2l_count: 0,
            p2p_pairs: 0,
            interaction_hash: 0,
        }
    }

    /// Make `finals` hold the final local expansion of `b` (memoized),
    /// charging each fresh L2L. The box's M2L partial is read exactly once,
    /// here, so it is moved out and becomes the accumulator; level-2 boxes
    /// take it as-is (levels 0/1 have empty interaction lists).
    fn finalize(&mut self, b: BoxId, env: &mut WorkEnv<'_, EvalWork>) {
        let key = b.dense_index() as u32;
        if self.finals.contains_key(&key) {
            return;
        }
        let p = self.world.solver.params.terms;
        let mut result = self
            .m2l_partial
            .remove(&key)
            .unwrap_or_else(|| Local::zero(p));
        if b.level > 2 {
            let parent = b.parent().expect("level > 2 has a parent");
            self.finalize(parent, env);
            l2l_into(
                &self.finals[&(parent.dense_index() as u32)],
                b.center() - parent.center(),
                self.world.solver.binomials(),
                &mut result,
            );
            self.l2l_count += 1;
            env.charge(self.world.cost.l2l_ns(p));
        }
        self.finals.insert(key, result);
    }
}

impl PtrApp for FmmEvalApp {
    type Work = EvalWork;

    fn num_iterations(&self) -> usize {
        self.leaves.len()
    }

    fn start_iteration(&mut self, iter: usize, env: &mut WorkEnv<'_, EvalWork>) {
        let leaf = self.leaves[iter];
        env.local(EvalWork::Eval(leaf.dense_index() as u32));
    }

    fn run_work(&mut self, w: EvalWork, env: &mut WorkEnv<'_, EvalWork>) {
        let p = self.world.solver.params.terms;
        match w {
            EvalWork::Eval(dense) => {
                let leaf = self.world.box_of(dense as usize);
                // Tag bit distinguishes evaluation entries from P2P pairs.
                self.interaction_hash = self
                    .interaction_hash
                    .wrapping_add(mix_pair(dense as u64 | (1 << 32), dense as u64));
                self.finalize(leaf, env);
                let world = &*self.world;
                let local = &self.finals[&dense];
                let center = leaf.center();
                for &i in world.solver.tree.particles_in(leaf) {
                    let z = world.solver.zs[i as usize];
                    self.fields[i as usize] += eval_local_field(local, z, center);
                    env.charge(world.cost.eval_ns(p));
                }
                // Near field: self plus neighbors.
                for nb in std::iter::once(leaf).chain(leaf.neighbors()) {
                    if world.nonempty(nb) {
                        env.demand(
                            world.plist_ptr(nb),
                            EvalWork::P2p {
                                target: dense,
                                src: nb.dense_index() as u32,
                            },
                        );
                    }
                }
            }
            EvalWork::P2p { target, src } => {
                let world = &*self.world;
                let tgt = world.box_of(target as usize);
                let sb = world.box_of(src as usize);
                env.assert_readable(world.plist_ptr(sb));
                self.interaction_hash = self
                    .interaction_hash
                    .wrapping_add(mix_pair(target as u64, src as u64));
                let sources = &mut self.sources;
                sources.clear();
                sources.extend(
                    world
                        .solver
                        .tree
                        .particles_in(sb)
                        .iter()
                        .map(|&i| (world.solver.zs[i as usize], world.solver.qs[i as usize])),
                );
                for &i in world.solver.tree.particles_in(tgt) {
                    let z = world.solver.zs[i as usize];
                    self.fields[i as usize] += nbody::fmm::p2p_field(z, sources);
                    self.p2p_pairs += sources.len() as u64;
                    env.charge(world.cost.p2p_pair_ns * sources.len() as u64);
                }
            }
        }
    }

    fn object_size(&self, ptr: GPtr) -> u32 {
        self.world.object_size(ptr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody::distrib::uniform_square;

    fn small_world(nodes: u16) -> Arc<FmmWorld> {
        let bodies = uniform_square(600, 77);
        let zs: Vec<Cx> = bodies.iter().map(|b| Cx::new(b.pos.x, b.pos.y)).collect();
        let qs: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
        FmmWorld::build(
            zs,
            qs,
            nodes,
            FmmParams {
                terms: 12,
                levels: 3,
            },
            FmmCost::default(),
        )
    }

    #[test]
    fn every_box_has_a_valid_owner() {
        let w = small_world(4);
        assert!(w.box_owner.iter().all(|&o| o < 4));
    }

    #[test]
    fn deep_boxes_inherit_subtree_owner() {
        let w = small_world(4);
        for b in w.solver.tree.leaves() {
            let anchor = b.ancestor_at(w.part_level);
            assert_eq!(
                w.box_owner[b.dense_index()],
                w.box_owner[anchor.dense_index()]
            );
        }
    }

    #[test]
    fn owned_boxes_cover_all_nonempty() {
        let w = small_world(4);
        let mut count = 0;
        for node in 0..4 {
            count += w.owned_boxes(node).len();
        }
        let expect = (w.part_level..=w.solver.params.levels)
            .flat_map(|l| w.solver.tree.boxes_at(l))
            .filter(|b| w.nonempty(*b))
            .count();
        assert_eq!(count, expect);
    }

    #[test]
    fn partition_balances_particles() {
        let w = small_world(4);
        let mut per_node = vec![0u64; 4];
        for b in w.solver.tree.leaves() {
            per_node[w.box_owner[b.dense_index()] as usize] +=
                w.solver.tree.particles_in(b).len() as u64;
        }
        let max = *per_node.iter().max().unwrap();
        let min = *per_node.iter().min().unwrap();
        assert!(
            max <= 4 * min.max(1),
            "partition too imbalanced: {per_node:?}"
        );
    }

    #[test]
    fn box_counts_sum_up() {
        let w = small_world(2);
        let root = BoxId {
            level: 0,
            x: 0,
            y: 0,
        };
        assert_eq!(w.box_count[root.dense_index()] as usize, w.solver.zs.len());
    }

    #[test]
    fn object_sizes_are_plausible() {
        let w = small_world(2);
        let leaf = w.owned_leaves(0)[0];
        let ms = w.object_size(w.mpole_ptr(leaf));
        assert_eq!(ms, 16 * 13 + 16);
        let ps = w.object_size(w.plist_ptr(leaf));
        assert!(ps >= 16);
    }

    #[test]
    fn cost_model_scales_with_terms() {
        let c = FmmCost::default();
        assert!(c.m2l_ns(29) > c.m2l_ns(8));
        assert!(c.l2l_ns(29) < c.m2l_ns(29));
        assert!(c.eval_ns(29) > c.eval_ns(4));
    }
}
