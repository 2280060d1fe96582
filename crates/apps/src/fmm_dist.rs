//! The distributed FMM force-computation phase on the uniform quadtree.
//!
//! The quadtree is partitioned at level `K` (the coarsest level with at
//! least one box per node): level-`K` subtrees are assigned to nodes in
//! Morton order, weighted by particle counts; deeper boxes inherit their
//! subtree's owner. Setup (tree build + upward pass) is untimed, matching
//! the paper's timing of the force-computation phase only.
//!
//! The timed phase runs in two barrier-separated sub-phases, mirroring
//! SPLASH-2 FMM's phase structure, with the apps of [`crate::fmm_phase`]:
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

use crate::error::WorldError;
use crate::fmm_phase::{midpoint_owners, mpole_bytes, EvalApp, FmmTree, GatherApp, List};
use crate::owned_fields::ParticleSlots;
use global_heap::{ClassTable, ObjClass};
use nbody::cx::{Binomials, Cx};
use nbody::fmm::{FmmParams, FmmSolver, Multipole};
use nbody::quadtree::BoxId;
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
    /// Owner and per-owner slot of every particle's field.
    pub slots: Arc<ParticleSlots>,
    /// Cost model.
    pub cost: FmmCost,
    /// Multipole-expansion object class.
    pub mpole_class: ObjClass,
    /// Leaf particle-list object class.
    pub plist_class: ObjClass,
    /// Machine size.
    pub nodes: u16,
}

/// Sub-phase 1 on the uniform tree: M2L over interaction lists.
pub type FmmM2lApp = GatherApp<FmmWorld>;

/// Sub-phase 2 on the uniform tree: downward L2L chain, far-field
/// evaluation, and near-field P2P.
pub type FmmEvalApp = EvalApp<FmmWorld>;

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
        Self::try_build(zs, qs, nodes, params, cost, grain_extra)
            .expect("invalid FmmWorld configuration")
    }

    /// Fallible [`FmmWorld::build_with_grain`]: rejects an empty machine,
    /// or a tree too shallow to give every node a level-K box, with a
    /// structured [`WorldError`] instead of panicking.
    pub fn try_build(
        zs: Vec<Cx>,
        qs: Vec<f64>,
        nodes: u16,
        params: FmmParams,
        cost: FmmCost,
        grain_extra: u32,
    ) -> Result<Arc<FmmWorld>, WorldError> {
        if nodes == 0 {
            return Err(WorldError::NoNodes);
        }
        let levels = params.levels;
        // Partition level: coarsest with >= nodes boxes (at least 2),
        // plus any requested extra grain refinement.
        let mut part_level = 2u32;
        while (1usize << (2 * part_level)) < nodes as usize {
            part_level += 1;
        }
        if part_level > levels {
            return Err(WorldError::TreeTooShallow {
                levels,
                part_level,
                nodes,
            });
        }
        part_level = (part_level + grain_extra).min(levels);
        let solver = FmmSolver::new(zs, qs, params);
        let total = BoxId::total_boxes(levels);

        // Subtree particle counts, bottom-up.
        let mut box_count = vec![0u32; total];
        for b in solver.tree.leaves() {
            box_count[b.dense_index()] = solver.tree.particles_in(b).len() as u32;
        }
        for level in (0..levels).rev() {
            for b in solver.tree.boxes_at(level) {
                box_count[b.dense_index()] = b
                    .children()
                    .iter()
                    .map(|c| box_count[c.dense_index()])
                    .sum();
            }
        }

        // Level-K boxes in Morton order, split by particle count.
        let mut roots: Vec<BoxId> = solver.tree.boxes_at(part_level).collect();
        roots.sort_by_key(|b| {
            nbody::morton::morton2(
                (b.x as f64 + 0.5) / (1u64 << part_level) as f64,
                (b.y as f64 + 0.5) / (1u64 << part_level) as f64,
            )
        });
        let counts: Vec<u32> = roots.iter().map(|b| box_count[b.dense_index()]).collect();
        let mut root_owner = vec![0u16; roots.len()];
        for (b, owner) in roots.iter().zip(midpoint_owners(&counts, nodes)) {
            root_owner[b.index_in_level()] = owner;
        }

        // Owner per box: its level-K ancestor's owner; above level K, the
        // owner of its first level-K descendant in Morton order (the
        // child-0 chain).
        let box_owner: Vec<u16> = (0..total)
            .map(|idx| {
                let b = BoxId::from_dense(idx);
                let anchor = if b.level >= part_level {
                    b.ancestor_at(part_level)
                } else {
                    let d = part_level - b.level;
                    BoxId {
                        level: part_level,
                        x: b.x << d,
                        y: b.y << d,
                    }
                };
                root_owner[anchor.index_in_level()]
            })
            .collect();
        let slots = Arc::new(ParticleSlots::new(
            solver.zs.len(),
            nodes,
            solver
                .tree
                .leaves()
                .map(|b| (box_owner[b.dense_index()], solver.tree.particles_in(b))),
        ));

        let mut classes = ClassTable::new();
        let mpole_class = classes.register("fmm_multipole", mpole_bytes(params.terms));
        let plist_class = classes.register("fmm_plist", 16);

        Ok(Arc::new(FmmWorld {
            solver,
            box_owner,
            box_count,
            part_level,
            slots,
            cost,
            mpole_class,
            plist_class,
            nodes,
        }))
    }

    /// `true` if the box's subtree holds any particle.
    #[inline]
    pub fn nonempty(&self, b: BoxId) -> bool {
        self.box_count[b.dense_index()] > 0
    }

    /// Dense indices of the boxes at levels `K..=finest` owned by `node`
    /// with particles.
    pub fn owned_boxes(&self, node: u16) -> Vec<u32> {
        (self.part_level..=self.solver.params.levels)
            .flat_map(|level| self.solver.tree.boxes_at(level))
            .filter(|&b| self.box_owner[b.dense_index()] == node && self.nonempty(b))
            .map(|b| b.dense_index() as u32)
            .collect()
    }

    /// Dense indices of the deduplicated ancestors (levels 2..K) of
    /// `node`'s owned subtree roots — the top-level boxes whose M2L this
    /// node computes itself.
    pub fn owned_ancestors(&self, node: u16) -> Vec<u32> {
        let mut out = Vec::new();
        for b in self.solver.tree.boxes_at(self.part_level) {
            if self.box_owner[b.dense_index()] == node && self.nonempty(b) {
                for k in 2..self.part_level {
                    let a = b.ancestor_at(k).dense_index() as u32;
                    if !out.contains(&a) {
                        out.push(a);
                    }
                }
            }
        }
        out
    }
}

impl FmmTree for FmmWorld {
    fn terms(&self) -> usize {
        self.solver.params.terms
    }

    fn cost(&self) -> &FmmCost {
        &self.cost
    }

    fn slots(&self) -> &Arc<ParticleSlots> {
        &self.slots
    }

    fn classes(&self) -> [ObjClass; 2] {
        [self.mpole_class, self.plist_class]
    }

    fn owner(&self, b: u32) -> u16 {
        self.box_owner[b as usize]
    }

    /// Owned boxes, then their ancestors down to level 2.
    fn targets(&self, node: u16) -> Vec<u32> {
        [self.owned_boxes(node), self.owned_ancestors(node)].concat()
    }

    fn leaves(&self, node: u16) -> Vec<u32> {
        (self.solver.tree.leaves())
            .filter(|&b| self.box_owner[b.dense_index()] == node && self.nonempty(b))
            .map(|b| b.dense_index() as u32)
            .collect()
    }

    /// V is the interaction list and U the leaf and its neighbours; X and
    /// W are empty.
    fn for_each_source(&self, b: u32, list: List, f: impl FnMut(u32)) {
        let b = BoxId::from_dense(b as usize);
        let nonempty = |s: &BoxId| self.nonempty(*s);
        let dense = |s: BoxId| s.dense_index() as u32;
        match list {
            List::V => b.interaction_list().filter(nonempty).map(dense).for_each(f),
            List::U => (std::iter::once(b).chain(b.neighbors()))
                .filter(nonempty)
                .map(dense)
                .for_each(f),
            List::X | List::W => {}
        }
    }

    fn center(&self, b: u32) -> Cx {
        BoxId::from_dense(b as usize).center()
    }

    /// Levels 0 and 1 have empty interaction lists, so a level-2 box's
    /// gathered partial is already final.
    fn parent(&self, b: u32) -> Option<u32> {
        let b = BoxId::from_dense(b as usize);
        (b.level > 2).then(|| b.parent().expect("level > 2 has a parent").dense_index() as u32)
    }

    fn particles(&self, b: u32) -> &[u32] {
        self.solver.tree.particles_in(BoxId::from_dense(b as usize))
    }

    fn point(&self, i: u32) -> (Cx, f64) {
        (self.solver.zs[i as usize], self.solver.qs[i as usize])
    }

    fn multipole(&self, b: u32) -> &Multipole {
        &self.solver.multipoles[b as usize]
    }

    fn binomials(&self) -> &Binomials {
        self.solver.binomials()
    }

    /// By the shift table the solver keeps per (level, box offset).
    fn m2l_into(&self, src: u32, tgt: u32, acc: &mut [Cx]) {
        let (src, tgt) = (
            BoxId::from_dense(src as usize),
            BoxId::from_dense(tgt as usize),
        );
        self.solver.m2l_into_coeffs(src, tgt, acc);
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
        let leaf = w.leaves(0)[0];
        let ms = w.object_size(w.mpole_ptr(leaf));
        assert_eq!(ms, 16 * 13 + 16);
        let ps = w.object_size(w.plist_ptr(leaf));
        assert!(ps >= 16);
    }

    #[test]
    fn try_build_rejects_bad_configs() {
        let bodies = uniform_square(100, 3);
        let zs: Vec<Cx> = bodies.iter().map(|b| Cx::new(b.pos.x, b.pos.y)).collect();
        let qs: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
        let build = |nodes, levels| {
            let params = FmmParams { terms: 4, levels };
            FmmWorld::try_build(zs.clone(), qs.clone(), nodes, params, FmmCost::default(), 0).err()
        };
        assert_eq!(build(0, 3), Some(WorldError::NoNodes));
        // 17 nodes need level 3 (64 boxes); a 2-level tree has 16.
        let shallow = WorldError::TreeTooShallow {
            levels: 2,
            part_level: 3,
            nodes: 17,
        };
        assert_eq!(build(17, 2), Some(shallow));
        assert_eq!(build(16, 2), None);
    }

    /// A suspended thread saves `(slot, work)`. The list kind rides in the
    /// top bit of `src`, so gather and eval threads stay at 8 and 12 B of
    /// work.
    #[test]
    fn thread_state_keeps_its_size() {
        use crate::fmm_phase::{EvalWork, GatherWork};
        use dpa_core::PtrApp;
        use std::mem::size_of;
        assert_eq!(size_of::<(u32, GatherWork)>(), 12);
        assert_eq!(size_of::<(u32, EvalWork)>(), 16);
        let w = small_world(1);
        assert_eq!(FmmM2lApp::new(w.clone(), 0).work_state_bytes(), 16);
        let eval = FmmEvalApp::new(w, 0, std::collections::HashMap::new());
        assert_eq!(eval.work_state_bytes(), 20);
    }

    #[test]
    fn cost_model_scales_with_terms() {
        let c = FmmCost::default();
        assert!(c.m2l_ns(29) > c.m2l_ns(8));
        assert!(c.l2l_ns(29) < c.m2l_ns(29));
        assert!(c.eval_ns(29) > c.eval_ns(4));
    }
}
