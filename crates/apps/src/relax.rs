//! Push-style graph relaxation — the reduction extension in action.
//!
//! The paper optimizes remote *reads* and names reductions as the natural
//! next access pattern ("more precise aliasing information can enable
//! optimizations of more general access patterns, such as reductions").
//! This application exercises that extension: one sweep of a weighted
//! digraph in which every vertex pushes `x[u]·w[v]` along each out-edge
//! `(u,v)` — a PageRank/Jacobi-shaped kernel over a pointer-based graph.
//!
//! Each edge does one remote **read** (the target's record, to get its
//! weight) and one remote **reduction** (fold the contribution into the
//! target's accumulator). Under DPA both directions batch: requests
//! aggregate per owner, and so do updates; the baselines send one message
//! per miss and per update.

use crate::error::WorldError;
use dpa_core::{PtrApp, WorkEnv};
use global_heap::{ClassTable, GPtr, ObjClass};
use sim_net::Rng;
use std::sync::Arc;

/// Per-operation costs of the relaxation arithmetic, ns.
#[derive(Clone, Copy, Debug)]
pub struct RelaxCost {
    /// Per-edge multiply-accumulate + bookkeeping.
    pub edge_ns: u64,
    /// Per-vertex loop setup.
    pub vertex_ns: u64,
}

impl Default for RelaxCost {
    fn default() -> Self {
        RelaxCost {
            edge_ns: 900,
            vertex_ns: 400,
        }
    }
}

/// One vertex record: value, weight, and out-edges.
#[derive(Clone, Debug)]
pub struct Vertex {
    /// Current value (read-only during a sweep).
    pub x: f64,
    /// Weight applied to incoming contributions (read remotely per edge).
    pub w: f64,
    /// Out-neighbors (global vertex ids).
    pub out: Vec<u32>,
}

/// The shared, immutable graph world.
pub struct RelaxWorld {
    /// All vertices (global ids index this).
    pub vertices: Vec<Vertex>,
    /// `splits[i]..splits[i+1]` = node `i`'s vertices.
    pub splits: Vec<usize>,
    /// Cost model.
    pub cost: RelaxCost,
    /// Object classes (one: VERTEX).
    pub classes: ClassTable,
    /// The vertex object class.
    pub vclass: ObjClass,
    /// Machine size.
    pub nodes: u16,
}

impl RelaxWorld {
    /// Build a random graph: `n` vertices in `nodes` contiguous chunks,
    /// `degree` out-edges each, a `remote_fraction` of which point at
    /// vertices of other nodes. Deterministic in `seed`.
    pub fn build(
        n: usize,
        nodes: u16,
        degree: usize,
        remote_fraction: f64,
        seed: u64,
    ) -> Arc<RelaxWorld> {
        Self::try_build(n, nodes, degree, remote_fraction, seed)
            .expect("invalid RelaxWorld configuration")
    }

    /// Fallible [`RelaxWorld::build`]: rejects an empty machine or a graph
    /// smaller than the machine with a structured [`WorldError`].
    pub fn try_build(
        n: usize,
        nodes: u16,
        degree: usize,
        remote_fraction: f64,
        seed: u64,
    ) -> Result<Arc<RelaxWorld>, WorldError> {
        if nodes == 0 {
            return Err(WorldError::NoNodes);
        }
        if n == 0 {
            return Err(WorldError::Empty { what: "vertices" });
        }
        if n < nodes as usize {
            return Err(WorldError::TooFewElements {
                what: "vertices",
                have: n,
                nodes,
            });
        }
        let splits = nbody::morton::even_splits(n, nodes as usize);
        let owner_of = |v: usize| -> usize { splits.partition_point(|&s| s <= v) - 1 };
        let mut rng = Rng::new(seed);
        let mut vertices = Vec::with_capacity(n);
        for u in 0..n {
            let home = owner_of(u);
            let mut out = Vec::with_capacity(degree);
            for _ in 0..degree {
                let v = if nodes > 1 && rng.chance(remote_fraction) {
                    // Any vertex on another node.
                    loop {
                        let v = rng.below(n as u64) as usize;
                        if owner_of(v) != home {
                            break v;
                        }
                    }
                } else {
                    // A vertex on the same node.
                    let lo = splits[home];
                    let hi = splits[home + 1];
                    lo + rng.below((hi - lo) as u64) as usize
                };
                out.push(v as u32);
            }
            vertices.push(Vertex {
                x: 0.5 + rng.unit_f64(),
                w: 0.1 + rng.unit_f64(),
                out,
            });
        }
        let mut classes = ClassTable::new();
        let vclass = classes.register("relax_vertex", 32);
        Ok(Arc::new(RelaxWorld {
            vertices,
            splits,
            cost: RelaxCost::default(),
            classes,
            vclass,
            nodes,
        }))
    }

    /// Global pointer to vertex `v` (owned by its home node).
    #[inline]
    pub fn vptr(&self, v: u32) -> GPtr {
        let owner = u16::try_from(self.splits.partition_point(|&s| s <= v as usize) - 1)
            .expect("invariant: vertex owner < nodes, which is u16");
        GPtr::new(owner, self.vclass, v as u64)
    }

    /// Vertices owned by `node`.
    pub fn range(&self, node: u16) -> std::ops::Range<usize> {
        self.splits[node as usize]..self.splits[node as usize + 1]
    }

    /// Total edges.
    pub fn total_edges(&self) -> u64 {
        self.vertices.iter().map(|v| v.out.len() as u64).sum()
    }

    /// Host-side oracle: the accumulator every vertex must hold after one
    /// sweep: `next[v] = Σ_{(u,v)} x[u] · w[v]`.
    pub fn expected(&self) -> Vec<f64> {
        let mut next = vec![0.0; self.vertices.len()];
        for u in &self.vertices {
            for &v in &u.out {
                next[v as usize] += u.x * self.vertices[v as usize].w;
            }
        }
        next
    }
}

/// A relaxation work item: push along one edge.
#[derive(Clone, Copy, Debug)]
pub struct Push {
    /// Source vertex.
    pub u: u32,
    /// Target vertex (the labeled pointer).
    pub v: u32,
}

/// Per-node relaxation state.
pub struct RelaxApp {
    world: Arc<RelaxWorld>,
    me: u16,
    /// Accumulators (only this node's entries are filled).
    pub next: Vec<f64>,
    /// Edges pushed.
    pub pushes: u64,
}

impl RelaxApp {
    /// The app instance for node `me`.
    pub fn new(world: Arc<RelaxWorld>, me: u16) -> RelaxApp {
        let n = world.vertices.len();
        RelaxApp {
            world,
            me,
            next: vec![0.0; n],
            pushes: 0,
        }
    }
}

impl PtrApp for RelaxApp {
    type Work = Push;

    fn num_iterations(&self) -> usize {
        self.world.range(self.me).len()
    }

    fn start_iteration(&mut self, iter: usize, env: &mut WorkEnv<'_, Push>) {
        let u = (self.world.splits[self.me as usize] + iter) as u32;
        env.charge(self.world.cost.vertex_ns);
        let world = &*self.world;
        for &v in &world.vertices[u as usize].out {
            // Read the target's record (its weight), then push into it.
            env.demand(world.vptr(v), Push { u, v });
        }
    }

    fn run_work(&mut self, w: Push, env: &mut WorkEnv<'_, Push>) {
        let world = &*self.world;
        let ptr = world.vptr(w.v);
        env.assert_readable(ptr);
        let contribution = world.vertices[w.u as usize].x * world.vertices[w.v as usize].w;
        env.charge(world.cost.edge_ns);
        self.pushes += 1;
        env.accumulate(ptr, contribution);
    }

    fn object_size(&self, ptr: GPtr) -> u32 {
        self.world.classes.size(ptr.class())
    }

    fn apply_update(&mut self, ptr: GPtr, value: f64) {
        debug_assert_eq!(ptr.class(), self.world.vclass);
        self.next[ptr.index() as usize] += value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_is_deterministic_and_partitioned() {
        let a = RelaxWorld::build(200, 4, 6, 0.4, 7);
        let b = RelaxWorld::build(200, 4, 6, 0.4, 7);
        assert_eq!(a.expected(), b.expected());
        let covered: usize = (0..4).map(|n| a.range(n).len()).sum();
        assert_eq!(covered, 200);
        assert_eq!(a.total_edges(), 200 * 6);
    }

    #[test]
    fn vptr_owner_matches_split() {
        let w = RelaxWorld::build(100, 4, 3, 0.5, 1);
        for v in 0..100u32 {
            let p = w.vptr(v);
            assert!(w.range(p.node()).contains(&(v as usize)));
        }
    }

    #[test]
    fn try_build_rejects_bad_configs() {
        assert_eq!(
            RelaxWorld::try_build(100, 0, 3, 0.5, 1)
                .err()
                .expect("config must be rejected"),
            WorldError::NoNodes
        );
        assert_eq!(
            RelaxWorld::try_build(0, 4, 3, 0.5, 1)
                .err()
                .expect("config must be rejected"),
            WorldError::Empty { what: "vertices" }
        );
        assert_eq!(
            RelaxWorld::try_build(3, 4, 3, 0.5, 1)
                .err()
                .expect("config must be rejected"),
            WorldError::TooFewElements {
                what: "vertices",
                have: 3,
                nodes: 4
            }
        );
    }

    #[test]
    fn zero_remote_fraction_keeps_edges_home() {
        let w = RelaxWorld::build(120, 3, 5, 0.0, 2);
        for node in 0..3 {
            for u in w.range(node) {
                for &v in &w.vertices[u].out {
                    assert_eq!(w.vptr(v).node(), node);
                }
            }
        }
    }
}
