//! The distributed **adaptive** FMM force phase — the algorithm the
//! paper's SPLASH-2 FMM actually is (the uniform variant in
//! [`crate::fmm_dist`] keeps the paper's communication structure; this
//! one adds the adaptive tree and its U/V/W/X lists).
//!
//! Partitioning: the adaptive tree is cut into **grain subtrees** (the
//! shallowest nodes holding at most a target particle count); grains are
//! assigned to nodes in pre-order (Morton-like) by the particle-count
//! midpoint rule, so subtree-internal L2L chains stay node-local.
//! Ancestors above the grains are (re)computed by every node that owns a
//! descendant grain, exactly as the uniform variant handles its top
//! levels.
//!
//! The timed phase runs the same two barrier-separated sub-phases as the
//! uniform variant, with the same apps ([`crate::fmm_phase`]):
//!
//! 1. **Gather** ([`AfmmGatherApp`]) — per owned box: V-list M2L (remote
//!    multipole reads) and X-list P2L (remote particle-list reads);
//! 2. **Evaluate** ([`AfmmEvalApp`]) — per owned leaf: memoized L2L chain
//!    (local), local-expansion evaluation, W-list multipole evaluation
//!    (remote multipole reads), and U-list P2P (remote particle lists).

use crate::error::WorldError;
use crate::fmm_dist::FmmCost;
use crate::fmm_phase::{midpoint_owners, mpole_bytes, EvalApp, FmmTree, GatherApp, List};
use crate::owned_fields::ParticleSlots;
use global_heap::{ClassTable, ObjClass};
use nbody::afmm::{ANode, AfmmParams, AfmmSolver, NO_NODE};
use nbody::cx::{Binomials, Cx};
use nbody::fmm::Multipole;
use std::sync::Arc;

/// Immutable shared world for one adaptive-FMM force phase.
pub struct AfmmWorld {
    /// The sequential solver: adaptive tree + (untimed) upward-pass
    /// multipoles. `downward()` is *not* called here.
    pub solver: AfmmSolver,
    /// Owner node per tree node.
    pub owner: Vec<u16>,
    /// Grain subtree roots, in assignment order.
    pub grains: Vec<u32>,
    /// Subtree particle count per node.
    pub count: Vec<u32>,
    /// Owner and per-owner slot of every particle's field.
    pub slots: Arc<ParticleSlots>,
    /// Precomputed V, X, W and U lists per node, indexed by [`List`]
    /// (list construction belongs to the untimed tree-build phase, as in
    /// SPLASH-2; W and U are empty for internals).
    pub lists: [Vec<Vec<u32>>; 4],
    /// Cost model (shared with the uniform variant).
    pub cost: FmmCost,
    /// Multipole object class.
    pub mpole_class: ObjClass,
    /// Particle-list object class.
    pub plist_class: ObjClass,
    /// Machine size.
    pub nodes: u16,
}

/// Sub-phase 1 on the adaptive tree: V-list M2L and X-list P2L over owned
/// boxes.
pub type AfmmGatherApp = GatherApp<AfmmWorld>;

/// Sub-phase 2 on the adaptive tree: L2L chains, evaluation, W-multipole
/// and U-direct near field.
pub type AfmmEvalApp = EvalApp<AfmmWorld>;

impl AfmmWorld {
    /// Build the world: adaptive tree, upward pass, grain partition, and
    /// interaction lists.
    pub fn build(
        zs: Vec<Cx>,
        qs: Vec<f64>,
        nodes: u16,
        params: AfmmParams,
        cost: FmmCost,
    ) -> Arc<AfmmWorld> {
        Self::try_build(zs, qs, nodes, params, cost).expect("invalid AfmmWorld configuration")
    }

    /// Fallible [`AfmmWorld::build`]: rejects an empty machine with a
    /// structured [`WorldError`] instead of panicking.
    pub fn try_build(
        zs: Vec<Cx>,
        qs: Vec<f64>,
        nodes: u16,
        params: AfmmParams,
        cost: FmmCost,
    ) -> Result<Arc<AfmmWorld>, WorldError> {
        if nodes == 0 {
            return Err(WorldError::NoNodes);
        }
        let solver = AfmmSolver::new(zs, qs, params);
        let n_nodes = solver.nodes.len();

        // Subtree particle counts (children follow parents).
        let mut count = vec![0u32; n_nodes];
        for i in (0..n_nodes).rev() {
            count[i] = solver.nodes[i].particles.len() as u32;
            for &c in &solver.nodes[i].children {
                if c != NO_NODE {
                    count[i] += count[c as usize];
                }
            }
        }

        // Grain cut: shallowest nodes with <= target particles. Pre-order
        // walk keeps grains in spatial (Morton-like) order.
        let total = count[0].max(1);
        let target = (total / (nodes as u32 * 8)).max(1);
        let mut grains = Vec::new();
        let mut stack = vec![0usize];
        while let Some(i) = stack.pop() {
            if count[i] <= target || solver.nodes[i].is_leaf() {
                if count[i] > 0 {
                    grains.push(i as u32);
                }
            } else {
                // Reverse child order so the pop order is pre-order.
                for &c in solver.nodes[i].children.iter().rev() {
                    if c != NO_NODE {
                        stack.push(c as usize);
                    }
                }
            }
        }

        // Owner per tree node: its grain's owner (midpoint rule by
        // particle weight) below the cut; above it, the owner of the first
        // descendant grain.
        let counts: Vec<u32> = grains.iter().map(|&g| count[g as usize]).collect();
        let mut owner = vec![u16::MAX; n_nodes];
        for (&g, o) in grains.iter().zip(midpoint_owners(&counts, nodes)) {
            for i in subtree(&solver.nodes, g) {
                owner[i as usize] = o;
            }
        }
        for i in (0..n_nodes).rev() {
            if owner[i] == u16::MAX {
                // First child with an owner (internal above the cut).
                owner[i] = solver.nodes[i]
                    .children
                    .iter()
                    .filter(|&&c| c != NO_NODE)
                    .map(|&c| owner[c as usize])
                    .find(|&o| o != u16::MAX)
                    .unwrap_or(0);
            }
        }

        let slots = Arc::new(ParticleSlots::new(
            solver.zs.len(),
            nodes,
            solver
                .leaves()
                .map(|i| (owner[i], &solver.nodes[i].particles[..])),
        ));

        // Interaction lists (untimed tree-build product), in `List` order.
        let mut lists: [Vec<Vec<u32>>; 4] = Default::default();
        for i in 0..n_nodes {
            let leaf = solver.nodes[i].is_leaf();
            let built = [
                solver.v_list(i),
                solver.x_list(i),
                if leaf { solver.w_list(i) } else { Vec::new() },
                if leaf { solver.u_list(i) } else { Vec::new() },
            ];
            for (list, ids) in lists.iter_mut().zip(built) {
                list.push(ids.into_iter().map(|x| x as u32).collect());
            }
        }

        let mut classes = ClassTable::new();
        let mpole_class = classes.register("afmm_multipole", mpole_bytes(params.terms));
        let plist_class = classes.register("afmm_plist", 16);

        Ok(Arc::new(AfmmWorld {
            solver,
            owner,
            grains,
            count,
            slots,
            lists,
            cost,
            mpole_class,
            plist_class,
            nodes,
        }))
    }

    /// Grains owned by `node`.
    pub fn owned_grains(&self, node: u16) -> Vec<u32> {
        self.grains
            .iter()
            .copied()
            .filter(|&g| self.owner[g as usize] == node)
            .collect()
    }
}

/// The nodes of the subtree under `root`, `root` first, depth first.
fn subtree(nodes: &[ANode], root: u32) -> impl Iterator<Item = u32> + '_ {
    let mut stack = vec![root];
    std::iter::from_fn(move || {
        let i = stack.pop()?;
        let children = nodes[i as usize].children.iter().filter(|&&c| c != NO_NODE);
        stack.extend(children.map(|&c| c as u32));
        Some(i)
    })
}

impl FmmTree for AfmmWorld {
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
        self.owner[b as usize]
    }

    /// Every box in `node`'s grain subtrees, plus the (deduplicated)
    /// strict ancestors of its grains.
    fn targets(&self, node: u16) -> Vec<u32> {
        let mut out = Vec::new();
        for g in self.owned_grains(node) {
            out.extend(subtree(&self.solver.nodes, g).filter(|&i| self.count[i as usize] > 0));
            // Strict ancestors.
            let mut a = self.solver.nodes[g as usize].parent;
            while a != NO_NODE {
                if !out.contains(&(a as u32)) {
                    out.push(a as u32);
                }
                a = self.solver.nodes[a as usize].parent;
            }
        }
        out
    }

    /// Owned nonempty leaves.
    fn leaves(&self, node: u16) -> Vec<u32> {
        let nodes = &self.solver.nodes;
        let nonempty_leaf = |i: &u32| {
            let n = &nodes[*i as usize];
            n.is_leaf() && !n.particles.is_empty()
        };
        (self.owned_grains(node).into_iter())
            .flat_map(|g| subtree(nodes, g))
            .filter(nonempty_leaf)
            .collect()
    }

    fn for_each_source(&self, b: u32, list: List, f: impl FnMut(u32)) {
        (self.lists[list as usize][b as usize].iter().copied())
            .filter(|&s| self.count[s as usize] > 0)
            .for_each(f)
    }

    fn center(&self, b: u32) -> Cx {
        self.solver.nodes[b as usize].center()
    }

    fn parent(&self, b: u32) -> Option<u32> {
        let parent = self.solver.nodes[b as usize].parent;
        (parent != NO_NODE).then_some(parent as u32)
    }

    fn particles(&self, b: u32) -> &[u32] {
        &self.solver.nodes[b as usize].particles
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody::distrib::clustered_square;

    fn world(nodes: u16) -> Arc<AfmmWorld> {
        let bodies = clustered_square(700, 4, 99);
        let zs: Vec<Cx> = bodies.iter().map(|b| Cx::new(b.pos.x, b.pos.y)).collect();
        let qs: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
        AfmmWorld::build(
            zs,
            qs,
            nodes,
            AfmmParams {
                terms: 10,
                leaf_cap: 12,
                max_level: 10,
            },
            FmmCost::default(),
        )
    }

    #[test]
    fn grains_cover_all_particles_disjointly() {
        let w = world(4);
        let mut seen = vec![false; w.solver.zs.len()];
        for &g in &w.grains {
            for i in subtree(&w.solver.nodes, g) {
                for &pi in &w.solver.nodes[i as usize].particles {
                    assert!(!seen[pi as usize], "particle in two grains");
                    seen[pi as usize] = true;
                }
            }
        }
        assert!(seen.iter().all(|&x| x));
    }

    #[test]
    fn every_owner_is_valid_and_leaves_partition() {
        let w = world(4);
        assert!(w.owner.iter().all(|&o| o < 4));
        let mut total = 0;
        for node in 0..4 {
            total += w.leaves(node).len();
        }
        let nonempty_leaves = w
            .solver
            .leaves()
            .filter(|&i| !w.solver.nodes[i].particles.is_empty())
            .count();
        assert_eq!(total, nonempty_leaves);
    }

    #[test]
    fn grain_subtrees_keep_l2l_local() {
        // Within a grain subtree, every node shares its grain's owner.
        let w = world(4);
        for &g in &w.grains {
            let o = w.owner[g as usize];
            assert!(subtree(&w.solver.nodes, g).all(|i| w.owner[i as usize] == o));
        }
    }

    #[test]
    fn try_build_rejects_bad_configs() {
        let bodies = clustered_square(50, 2, 5);
        let zs: Vec<Cx> = bodies.iter().map(|b| Cx::new(b.pos.x, b.pos.y)).collect();
        let qs: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
        let build = |nodes| {
            let params = AfmmParams::default();
            AfmmWorld::try_build(zs.clone(), qs.clone(), nodes, params, FmmCost::default()).err()
        };
        assert_eq!(build(0), Some(WorldError::NoNodes));
        assert_eq!(build(3), None);
    }

    #[test]
    fn partition_balances_particles() {
        let w = world(4);
        let mut per_node = vec![0u64; 4];
        for node in 0..4u16 {
            for l in w.leaves(node) {
                per_node[node as usize] += w.solver.nodes[l as usize].particles.len() as u64;
            }
        }
        let max = *per_node.iter().max().unwrap();
        let min = *per_node.iter().min().unwrap();
        assert!(max <= 5 * min.max(1), "imbalanced: {per_node:?}");
    }
}
