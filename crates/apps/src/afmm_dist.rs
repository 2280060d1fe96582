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
//! The timed phase again runs as two barrier-separated sub-phases:
//!
//! 1. **Gather** ([`AfmmGatherApp`]) — per owned box: V-list M2L (remote
//!    multipole reads) and X-list P2L (remote particle-list reads);
//! 2. **Evaluate** ([`AfmmEvalApp`]) — per owned leaf: memoized L2L chain
//!    (local), local-expansion evaluation, W-list multipole evaluation
//!    (remote multipole reads), and U-list P2P (remote particle lists).

use crate::fmm_dist::FmmCost;
use crate::owned_fields::{OwnedFields, ParticleSlots};
use dpa_core::{PtrApp, WorkEnv};
use global_heap::{ClassTable, GPtr, ObjClass};
use nbody::afmm::{p2l_into, AfmmParams, AfmmSolver, NO_NODE};
use nbody::cx::Cx;
use nbody::fmm::{eval_local_field, eval_multipole_field, l2l_into, m2l_into, p2p_field, Local};
use std::collections::HashMap;
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
    /// Precomputed V list per node (list construction belongs to the
    /// untimed tree-build phase, as in SPLASH-2).
    pub v_lists: Vec<Vec<u32>>,
    /// Precomputed X list per node.
    pub x_lists: Vec<Vec<u32>>,
    /// Precomputed W list per leaf (empty for internals).
    pub w_lists: Vec<Vec<u32>>,
    /// Precomputed U list per leaf (empty for internals).
    pub u_lists: Vec<Vec<u32>>,
    /// Cost model (shared with the uniform variant).
    pub cost: FmmCost,
    /// Object classes.
    pub classes: ClassTable,
    /// Multipole object class.
    pub mpole_class: ObjClass,
    /// Particle-list object class.
    pub plist_class: ObjClass,
    /// Machine size.
    pub nodes: u16,
}

fn mpole_bytes(p: usize) -> u32 {
    16 * (p as u32 + 1) + 16
}

fn plist_bytes(n: u32) -> u32 {
    24 * n + 16
}

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
        assert!(nodes >= 1);
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

        // Midpoint-rule assignment of grains to nodes by particle weight.
        let mut grain_owner = HashMap::new();
        let mut cum = 0u64;
        for &g in &grains {
            let c = count[g as usize] as u64;
            let mid = 2 * cum + c;
            let owner = ((mid * nodes as u64) / (2 * total as u64)).min(nodes as u64 - 1);
            grain_owner.insert(
                g,
                u16::try_from(owner).expect("invariant: owner < nodes, which is u16"),
            );
            cum += c;
        }

        // Owner per tree node: grain ancestor's owner below the cut;
        // above it, the owner of the first descendant grain.
        let mut owner = vec![u16::MAX; n_nodes];
        for (&g, &o) in &grain_owner {
            // Whole subtree under the grain.
            let mut stack = vec![g as usize];
            while let Some(i) = stack.pop() {
                owner[i] = o;
                for &c in &solver.nodes[i].children {
                    if c != NO_NODE {
                        stack.push(c as usize);
                    }
                }
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

        // Interaction lists (untimed tree-build product).
        let mut v_lists = Vec::with_capacity(n_nodes);
        let mut x_lists = Vec::with_capacity(n_nodes);
        let mut w_lists = Vec::with_capacity(n_nodes);
        let mut u_lists = Vec::with_capacity(n_nodes);
        for i in 0..n_nodes {
            v_lists.push(solver.v_list(i).into_iter().map(|x| x as u32).collect());
            x_lists.push(solver.x_list(i).into_iter().map(|x| x as u32).collect());
            if solver.nodes[i].is_leaf() {
                w_lists.push(solver.w_list(i).into_iter().map(|x| x as u32).collect());
                u_lists.push(solver.u_list(i).into_iter().map(|x| x as u32).collect());
            } else {
                w_lists.push(Vec::new());
                u_lists.push(Vec::new());
            }
        }

        let mut classes = ClassTable::new();
        let mpole_class = classes.register("afmm_multipole", mpole_bytes(params.terms));
        let plist_class = classes.register("afmm_plist", 16);

        Arc::new(AfmmWorld {
            solver,
            owner,
            grains,
            count,
            slots,
            v_lists,
            x_lists,
            w_lists,
            u_lists,
            cost,
            classes,
            mpole_class,
            plist_class,
            nodes,
        })
    }

    /// Global pointer to a tree node's multipole expansion.
    #[inline]
    pub fn mpole_ptr(&self, i: u32) -> GPtr {
        GPtr::new(self.owner[i as usize], self.mpole_class, i as u64)
    }

    /// Global pointer to a leaf's particle list.
    #[inline]
    pub fn plist_ptr(&self, i: u32) -> GPtr {
        GPtr::new(self.owner[i as usize], self.plist_class, i as u64)
    }

    /// Grains owned by `node`.
    pub fn owned_grains(&self, node: u16) -> Vec<u32> {
        self.grains
            .iter()
            .copied()
            .filter(|&g| self.owner[g as usize] == node)
            .collect()
    }

    /// All boxes `node` computes local expansions for: every box in its
    /// grain subtrees, plus the (deduplicated) strict ancestors of its
    /// grains.
    pub fn owned_boxes(&self, node: u16) -> Vec<u32> {
        let mut out = Vec::new();
        for g in self.owned_grains(node) {
            let mut stack = vec![g as usize];
            while let Some(i) = stack.pop() {
                if self.count[i] > 0 {
                    out.push(i as u32);
                }
                for &c in &self.solver.nodes[i].children {
                    if c != NO_NODE {
                        stack.push(c as usize);
                    }
                }
            }
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

    /// Owned nonempty leaves of `node`.
    pub fn owned_leaves(&self, node: u16) -> Vec<u32> {
        let mut out = Vec::new();
        for g in self.owned_grains(node) {
            let mut stack = vec![g as usize];
            while let Some(i) = stack.pop() {
                if self.solver.nodes[i].is_leaf() {
                    if !self.solver.nodes[i].particles.is_empty() {
                        out.push(i as u32);
                    }
                } else {
                    for &c in &self.solver.nodes[i].children {
                        if c != NO_NODE {
                            stack.push(c as usize);
                        }
                    }
                }
            }
        }
        out
    }

    /// Transfer size of `ptr`.
    pub fn object_size(&self, ptr: GPtr) -> u32 {
        if ptr.class() == self.mpole_class {
            mpole_bytes(self.solver.params.terms)
        } else {
            plist_bytes(self.solver.nodes[ptr.index() as usize].particles.len() as u32)
        }
    }

    fn points_of(&self, i: u32) -> Vec<(Cx, f64)> {
        self.solver.nodes[i as usize]
            .particles
            .iter()
            .map(|&pi| (self.solver.zs[pi as usize], self.solver.qs[pi as usize]))
            .collect()
    }
}

/// Phase-1 work: fold one V or X source into a target's local expansion.
#[derive(Clone, Copy, Debug)]
pub enum GatherWork {
    /// M2L from `src`'s multipole into `target`.
    V {
        /// Target box.
        target: u32,
        /// Source box (multipole read).
        src: u32,
    },
    /// P2L from `src`'s particles into `target`.
    X {
        /// Target box.
        target: u32,
        /// Source leaf (particle-list read).
        src: u32,
    },
}

/// Phase 1: V-list M2L and X-list P2L over owned boxes.
pub struct AfmmGatherApp {
    world: Arc<AfmmWorld>,
    targets: Vec<u32>,
    /// Accumulated local-expansion contributions per owned box.
    pub locals: HashMap<u32, Local>,
    /// M2L translations performed.
    pub m2l_count: u64,
    /// P2L source particles processed.
    pub p2l_points: u64,
}

impl AfmmGatherApp {
    /// The phase-1 app for node `me`.
    pub fn new(world: Arc<AfmmWorld>, me: u16) -> AfmmGatherApp {
        let targets = world.owned_boxes(me);
        AfmmGatherApp {
            world,
            targets,
            locals: HashMap::new(),
            m2l_count: 0,
            p2l_points: 0,
        }
    }
}

impl PtrApp for AfmmGatherApp {
    type Work = GatherWork;

    fn num_iterations(&self) -> usize {
        self.targets.len()
    }

    fn start_iteration(&mut self, iter: usize, env: &mut WorkEnv<'_, GatherWork>) {
        let t = self.targets[iter];
        let world = &*self.world;
        for &v in &world.v_lists[t as usize] {
            if world.count[v as usize] > 0 {
                env.demand(world.mpole_ptr(v), GatherWork::V { target: t, src: v });
            }
        }
        for &x in &world.x_lists[t as usize] {
            if !world.solver.nodes[x as usize].particles.is_empty() {
                env.demand(world.plist_ptr(x), GatherWork::X { target: t, src: x });
            }
        }
    }

    fn run_work(&mut self, w: GatherWork, env: &mut WorkEnv<'_, GatherWork>) {
        let world = &*self.world;
        let p = world.solver.params.terms;
        match w {
            GatherWork::V { target, src } => {
                env.assert_readable(world.mpole_ptr(src));
                m2l_into(
                    &world.solver.multipoles[src as usize],
                    world.solver.nodes[src as usize].center()
                        - world.solver.nodes[target as usize].center(),
                    world.solver.binomials(),
                    self.locals.entry(target).or_insert_with(|| Local::zero(p)),
                );
                self.m2l_count += 1;
                env.charge(world.cost.m2l_ns(p));
            }
            GatherWork::X { target, src } => {
                env.assert_readable(world.plist_ptr(src));
                let pts = world.points_of(src);
                let acc = self.locals.entry(target).or_insert_with(|| Local::zero(p));
                p2l_into(acc, &pts, world.solver.nodes[target as usize].center());
                self.p2l_points += pts.len() as u64;
                env.charge(
                    world.cost.eval_term_ns * (p as u64) * pts.len() as u64
                        + world.cost.work_fixed_ns,
                );
            }
        }
    }

    fn object_size(&self, ptr: GPtr) -> u32 {
        self.world.object_size(ptr)
    }
}

/// Phase-2 work.
#[derive(Clone, Copy, Debug)]
pub enum AEvalWork {
    /// Finalize a leaf's local expansion and evaluate it; emits W/U work.
    Eval(u32),
    /// Evaluate `src`'s multipole at `leaf`'s particles (W list).
    W {
        /// Target leaf.
        leaf: u32,
        /// Source box (multipole read).
        src: u32,
    },
    /// Direct interactions against `src`'s particles (U list).
    U {
        /// Target leaf.
        leaf: u32,
        /// Source leaf (particle-list read).
        src: u32,
    },
}

/// Phase 2: L2L chains, evaluation, W-multipole and U-direct near field.
pub struct AfmmEvalApp {
    world: Arc<AfmmWorld>,
    leaves: Vec<u32>,
    m2l_partial: HashMap<u32, Local>,
    finals: HashMap<u32, Local>,
    /// Complex fields of the owned particles.
    pub fields: OwnedFields,
    /// L2L shifts performed.
    pub l2l_count: u64,
    /// P2P pairs computed.
    pub p2p_pairs: u64,
}

impl AfmmEvalApp {
    /// The phase-2 app for node `me`, consuming its phase-1 partials.
    pub fn new(world: Arc<AfmmWorld>, me: u16, m2l_partial: HashMap<u32, Local>) -> AfmmEvalApp {
        let leaves = world.owned_leaves(me);
        AfmmEvalApp {
            fields: OwnedFields::new(world.slots.clone(), me),
            world,
            leaves,
            m2l_partial,
            finals: HashMap::new(),
            l2l_count: 0,
            p2p_pairs: 0,
        }
    }

    /// Make `finals` hold the final local expansion of node `i`
    /// (memoized): its phase-1 partial, moved out, plus the L2L of its
    /// parent's.
    fn finalize(&mut self, i: u32, env: &mut WorkEnv<'_, AEvalWork>) {
        if self.finals.contains_key(&i) {
            return;
        }
        let p = self.world.solver.params.terms;
        let mut result = self
            .m2l_partial
            .remove(&i)
            .unwrap_or_else(|| Local::zero(p));
        let parent = self.world.solver.nodes[i as usize].parent;
        if parent != NO_NODE {
            self.finalize(parent as u32, env);
            let world = &*self.world;
            l2l_into(
                &self.finals[&(parent as u32)],
                world.solver.nodes[i as usize].center()
                    - world.solver.nodes[parent as usize].center(),
                world.solver.binomials(),
                &mut result,
            );
            self.l2l_count += 1;
            env.charge(world.cost.l2l_ns(p));
        }
        self.finals.insert(i, result);
    }
}

impl PtrApp for AfmmEvalApp {
    type Work = AEvalWork;

    fn num_iterations(&self) -> usize {
        self.leaves.len()
    }

    fn start_iteration(&mut self, iter: usize, env: &mut WorkEnv<'_, AEvalWork>) {
        env.local(AEvalWork::Eval(self.leaves[iter]));
    }

    fn run_work(&mut self, w: AEvalWork, env: &mut WorkEnv<'_, AEvalWork>) {
        // `finalize` memoizes into `self`; all that follows only reads the
        // world.
        if let AEvalWork::Eval(leaf) = w {
            self.finalize(leaf, env);
        }
        let world = &*self.world;
        let p = world.solver.params.terms;
        match w {
            AEvalWork::Eval(leaf) => {
                let local = &self.finals[&leaf];
                let center = world.solver.nodes[leaf as usize].center();
                for &pi in &world.solver.nodes[leaf as usize].particles {
                    let z = world.solver.zs[pi as usize];
                    *self.fields.at_mut(pi) += eval_local_field(local, z, center);
                    env.charge(world.cost.eval_ns(p));
                }
                for &wbox in &world.w_lists[leaf as usize] {
                    if world.count[wbox as usize] > 0 {
                        env.demand(world.mpole_ptr(wbox), AEvalWork::W { leaf, src: wbox });
                    }
                }
                for &u in &world.u_lists[leaf as usize] {
                    if !world.solver.nodes[u as usize].particles.is_empty() {
                        env.demand(world.plist_ptr(u), AEvalWork::U { leaf, src: u });
                    }
                }
            }
            AEvalWork::W { leaf, src } => {
                env.assert_readable(world.mpole_ptr(src));
                let center = world.solver.nodes[src as usize].center();
                for &pi in &world.solver.nodes[leaf as usize].particles {
                    let z = world.solver.zs[pi as usize];
                    *self.fields.at_mut(pi) +=
                        eval_multipole_field(&world.solver.multipoles[src as usize], z, center);
                    env.charge(world.cost.eval_term_ns * p as u64 + world.cost.work_fixed_ns);
                }
            }
            AEvalWork::U { leaf, src } => {
                env.assert_readable(world.plist_ptr(src));
                let sources = world.points_of(src);
                for &pi in &world.solver.nodes[leaf as usize].particles {
                    let z = world.solver.zs[pi as usize];
                    *self.fields.at_mut(pi) += p2p_field(z, &sources);
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
            let mut stack = vec![g as usize];
            while let Some(i) = stack.pop() {
                for &pi in &w.solver.nodes[i].particles {
                    assert!(!seen[pi as usize], "particle in two grains");
                    seen[pi as usize] = true;
                }
                for &c in &w.solver.nodes[i].children {
                    if c != NO_NODE {
                        stack.push(c as usize);
                    }
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
            total += w.owned_leaves(node).len();
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
            let mut stack = vec![g as usize];
            while let Some(i) = stack.pop() {
                assert_eq!(w.owner[i], o);
                for &c in &w.solver.nodes[i].children {
                    if c != NO_NODE {
                        stack.push(c as usize);
                    }
                }
            }
        }
    }

    #[test]
    fn partition_balances_particles() {
        let w = world(4);
        let mut per_node = vec![0u64; 4];
        for node in 0..4u16 {
            for l in w.owned_leaves(node) {
                per_node[node as usize] += w.solver.nodes[l as usize].particles.len() as u64;
            }
        }
        let max = *per_node.iter().max().unwrap();
        let min = *per_node.iter().min().unwrap();
        assert!(max <= 5 * min.max(1), "imbalanced: {per_node:?}");
    }
}
