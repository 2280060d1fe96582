//! The distributed Barnes-Hut force-computation phase.
//!
//! Bodies are Morton-sorted and split into `P` contiguous, equal-count
//! chunks (a stand-in for SPLASH-2's costzones that preserves its spatial
//! locality). Octree cells are owned by the node whose body region
//! contains their center of mass, so each node's subtree is mostly local
//! and remote reads concentrate on other nodes' coarse summaries — the
//! paper's communication pattern.
//!
//! The top-level concurrent loop is "for each locally-owned body, walk the
//! tree"; a non-blocking thread visits exactly one cell (the pointer it is
//! labeled with), emitting child visits as new dependent threads. Leaves
//! carry their bodies inline (the paper's object inlining), so a fetched
//! leaf enables its body-body interactions with no further traffic.

use crate::error::WorldError;
use dpa_core::{DiffPlan, PtrApp, WorkEnv};
use global_heap::{ClassTable, GPtr, ObjClass};
use nbody::bh::{accepts_sq, BhParams};
use nbody::body::{point_accel, Body};
use nbody::morton::{even_splits, morton3};
use nbody::octree::{Octree, NO_CELL};
use nbody::vec3::Vec3;
use std::sync::Arc;

/// Per-operation costs of the Barnes-Hut walk, in ns (T3D-node scale).
#[derive(Clone, Copy, Debug)]
pub struct BhCost {
    /// Distance computation + opening test per visited cell.
    pub visit_ns: u64,
    /// One body–cell monopole interaction.
    pub cell_interact_ns: u64,
    /// One body–body interaction.
    pub body_interact_ns: u64,
}

impl Default for BhCost {
    fn default() -> Self {
        BhCost {
            visit_ns: 1_000,
            cell_interact_ns: 5_200,
            body_interact_ns: 4_600,
        }
    }
}

/// How octree cells are assigned to owner nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OwnerPolicy {
    /// SPLASH-like: a cell lives where the processor that built it lives —
    /// leaves with their first body's owner, internal cells with the owner
    /// of a deterministically-arbitrary child (parallel tree construction
    /// races make upper-cell placement effectively arbitrary). This is the
    /// paper's setting: data placement is only loosely aligned with the
    /// computation, which is exactly why *dynamic* alignment pays.
    Builder,
    /// Idealized: a cell is owned by the node whose body region contains
    /// its center of mass. Kept as an ablation; note that any policy whose
    /// owner is one of the cell's *visitors* yields the same total miss
    /// count (Σ over cells of visitors−1), so this ties with `Builder` —
    /// a finding the experiments report.
    CmRegion,
    /// Spatially-uncorrelated placement (hash of the cell id): what a
    /// naive allocator gives. The owner is usually not a visitor, so
    /// remote reads balloon — the ablation that shows how much placement
    /// quality matters to the *baselines* and how well DPA tolerates it.
    Scatter,
}

/// The hot record of one cell: everything a visit reads about the cell it
/// is labeled with, 48 bytes. A visit never touches [`BhWorld::tree`].
#[derive(Clone, Copy, Debug)]
struct CellRec {
    /// Center of mass — the monopole's source position.
    src: Vec3,
    mass: f64,
    /// `side()²`, the opening test's left-hand side.
    side2: f64,
    /// A leaf's first entry in `leaf_srcs`; an internal cell's first entry
    /// in `child_ptrs`.
    start: u32,
    /// How many entries follow `start`, with [`CellRec::LEAF`] set on a
    /// leaf (a leaf forced at the depth limit can exceed any `leaf_cap`,
    /// so the count keeps the other 31 bits).
    len: u32,
}

impl CellRec {
    const LEAF: u32 = 1 << 31;

    #[inline]
    fn is_leaf(&self) -> bool {
        self.len & Self::LEAF != 0
    }

    /// The cell's entries in `leaf_srcs` (leaf) or `child_ptrs` (internal).
    #[inline]
    fn entries(&self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + (self.len & !Self::LEAF) as usize
    }
}

/// One inline body of a leaf, as an interaction source.
#[derive(Clone, Copy, Debug)]
struct LeafSrc {
    pos: Vec3,
    mass: f64,
    /// Global body index: a body skips itself, and the id enters the hash.
    id: u32,
}

/// Immutable shared world for one force phase: bodies, tree, ownership.
pub struct BhWorld {
    /// Bodies, Morton-sorted.
    pub bodies: Vec<Body>,
    /// The octree over `bodies`.
    pub tree: Octree,
    /// Walk parameters.
    pub params: BhParams,
    /// Cost model of the walk arithmetic.
    pub cost: BhCost,
    /// `splits[i]..splits[i+1]` are node `i`'s bodies.
    pub splits: Vec<usize>,
    /// Owner node per cell id.
    pub cell_owner: Vec<u16>,
    /// Hot record per cell id.
    recs: Vec<CellRec>,
    /// Every internal cell's children as pointers (child id = `index()`),
    /// in octant order, contiguous per cell.
    child_ptrs: Vec<GPtr>,
    /// Every leaf's inline bodies in `Cell::bodies` order, contiguous per
    /// leaf.
    leaf_srcs: Vec<LeafSrc>,
    /// `params.theta²`, the opening test's right-hand factor.
    theta2: f64,
    /// Object classes (one: CELL).
    pub classes: ClassTable,
    /// Cell object class.
    pub cell_class: ObjClass,
    /// Machine size.
    pub nodes: u16,
}

/// Fixed per-cell header bytes on the wire: mass, cm, center, half,
/// nbodies + 8 child references.
const CELL_HEADER_BYTES: u32 = 8 * 8 + 8 * 4;
/// Bytes per inline body: position + mass.
const INLINE_BODY_BYTES: u32 = 32;

impl BhWorld {
    /// Build the world: sort bodies, build the tree, assign owners.
    pub fn build(
        bodies: Vec<Body>,
        nodes: u16,
        leaf_cap: usize,
        params: BhParams,
        cost: BhCost,
    ) -> Arc<BhWorld> {
        Self::build_with_policy(bodies, nodes, leaf_cap, params, cost, OwnerPolicy::Builder)
    }

    /// [`BhWorld::build`] with an explicit cell-ownership policy.
    pub fn build_with_policy(
        bodies: Vec<Body>,
        nodes: u16,
        leaf_cap: usize,
        params: BhParams,
        cost: BhCost,
        policy: OwnerPolicy,
    ) -> Arc<BhWorld> {
        Self::try_build_with_policy(bodies, nodes, leaf_cap, params, cost, policy)
            .expect("invalid BhWorld configuration")
    }

    /// Fallible [`BhWorld::build_with_policy`]: rejects an empty machine
    /// or body set with a structured [`WorldError`] instead of panicking.
    pub fn try_build_with_policy(
        mut bodies: Vec<Body>,
        nodes: u16,
        leaf_cap: usize,
        params: BhParams,
        cost: BhCost,
        policy: OwnerPolicy,
    ) -> Result<Arc<BhWorld>, WorldError> {
        if nodes == 0 {
            return Err(WorldError::NoNodes);
        }
        if bodies.is_empty() {
            return Err(WorldError::Empty { what: "bodies" });
        }
        // Morton sort for spatially-contiguous ownership.
        let mut lo = bodies[0].pos;
        let mut hi = bodies[0].pos;
        for b in &bodies {
            lo = lo.min(b.pos);
            hi = hi.max(b.pos);
        }
        let extent = (hi - lo).max_component().max(1e-12);
        bodies.sort_by_key(|b| morton3(b.pos, lo, extent));

        let tree = Octree::build(&bodies, leaf_cap);
        let splits = even_splits(bodies.len(), nodes as usize);

        // Owner of a body index: which contiguous chunk it falls into.
        let body_owner = |b: u32| -> u16 {
            u16::try_from(splits.partition_point(|&s| s <= b as usize) - 1)
                .expect("invariant: chunk index < nodes, which is u16")
        };

        let mut cell_owner = vec![0u16; tree.len()];
        match policy {
            OwnerPolicy::Scatter => {
                #[allow(clippy::needless_range_loop)] // id is also the hash input
                for id in 0..tree.len() {
                    let h = (id as u64)
                        .wrapping_mul(0xD6E8_FEB8_6659_FD93)
                        .rotate_left(29);
                    cell_owner[id] = u16::try_from(h % nodes as u64)
                        .expect("invariant: h % nodes < nodes, which is u16");
                }
            }
            OwnerPolicy::CmRegion => {
                // Owner of a position: which chunk its Morton rank falls in.
                let codes: Vec<u64> =
                    bodies.iter().map(|b| morton3(b.pos, lo, extent)).collect();
                for (id, cell) in tree.iter() {
                    let code = morton3(cell.cm, lo, extent);
                    let rank = codes.partition_point(|&c| c < code);
                    cell_owner[id as usize] =
                        body_owner(rank.min(bodies.len() - 1) as u32);
                }
            }
            OwnerPolicy::Builder => {
                // Children precede nothing: cells are stored parent-first,
                // so walk in reverse to resolve children before parents.
                #[allow(clippy::needless_range_loop)] // reverse index walk
                for id in (0..tree.len()).rev() {
                    let cell = &tree.cells[id];
                    cell_owner[id] = if cell.is_leaf() {
                        cell.bodies.first().map_or(0, |&b| body_owner(b))
                    } else {
                        let kids: Vec<i32> = cell
                            .children
                            .iter()
                            .copied()
                            .filter(|&c| c != NO_CELL)
                            .collect();
                        // Deterministically-arbitrary builder: whichever
                        // processor "got there first" in the parallel
                        // construction race.
                        let h = (id as u64)
                            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .rotate_left(31);
                        cell_owner[kids[(h % kids.len() as u64) as usize] as usize]
                    };
                }
            }
        }

        let mut classes = ClassTable::new();
        let cell_class = classes.register("bh_cell", CELL_HEADER_BYTES);

        // Pack what a visit reads: one record per cell, its children as
        // ready-made pointers, its inline bodies as ready-made sources.
        let mut recs = Vec::with_capacity(tree.len());
        let mut child_ptrs = Vec::with_capacity(tree.len() - 1);
        let mut leaf_srcs = Vec::with_capacity(bodies.len());
        for (_, cell) in tree.iter() {
            let (start, len) = if cell.is_leaf() {
                let start = leaf_srcs.len();
                leaf_srcs.extend(cell.bodies.iter().map(|&id| LeafSrc {
                    pos: bodies[id as usize].pos,
                    mass: bodies[id as usize].mass,
                    id,
                }));
                (start, cell.bodies.len() as u32 | CellRec::LEAF)
            } else {
                let start = child_ptrs.len();
                child_ptrs.extend(cell.children.iter().filter(|&&c| c != NO_CELL).map(
                    |&c| GPtr::new(cell_owner[c as usize], cell_class, c as u64),
                ));
                (start, (child_ptrs.len() - start) as u32)
            };
            recs.push(CellRec {
                src: cell.cm,
                mass: cell.mass,
                side2: cell.side() * cell.side(),
                start: u32::try_from(start).expect("invariant: body and cell ids are u32"),
                len,
            });
        }

        Ok(Arc::new(BhWorld {
            bodies,
            tree,
            params,
            cost,
            splits,
            cell_owner,
            recs,
            child_ptrs,
            leaf_srcs,
            theta2: params.theta * params.theta,
            classes,
            cell_class,
            nodes,
        }))
    }

    /// Wire size of cell `id`: header + inline leaf bodies.
    pub fn cell_bytes(&self, id: u32) -> u32 {
        let rec = &self.recs[id as usize];
        let inline = if rec.is_leaf() { rec.entries().len() as u32 } else { 0 };
        CELL_HEADER_BYTES + inline * INLINE_BODY_BYTES
    }

    /// Global pointer to cell `id`.
    #[inline]
    pub fn cell_ptr(&self, id: u32) -> GPtr {
        GPtr::new(self.cell_owner[id as usize], self.cell_class, id as u64)
    }

    /// Bodies owned by `node` as a global index range.
    pub fn body_range(&self, node: u16) -> std::ops::Range<usize> {
        self.splits[node as usize]..self.splits[node as usize + 1]
    }

    /// Fraction of cells whose owner differs from `node` (diagnostics).
    pub fn remote_cell_fraction(&self, node: u16) -> f64 {
        let remote = self.cell_owner.iter().filter(|&&o| o != node).count();
        remote as f64 / self.cell_owner.len() as f64
    }
}

/// A Barnes-Hut non-blocking thread: body `body` visits cell `cell`.
#[derive(Clone, Copy, Debug)]
pub struct BhVisit {
    /// Global body index (always local to the executing node).
    pub body: u32,
    /// Cell id being visited (the labeled pointer).
    pub cell: u32,
}

/// Per-node Barnes-Hut application state.
pub struct BhApp {
    world: Arc<BhWorld>,
    /// Global index of this node's first body.
    base: usize,
    /// This node's body positions (index = body − `base`), copied out of
    /// the world so a visit reads 24 bytes of a body, not its whole record.
    pos: Vec<Vec3>,
    /// Accelerations for locally-owned bodies (index = body − first own).
    pub accel: Vec<Vec3>,
    /// Monopole interactions performed.
    pub cell_interactions: u64,
    /// Body-body interactions performed.
    pub body_interactions: u64,
    /// Cells visited.
    pub cells_visited: u64,
    /// Integer checksum of the interactions performed: the commutative
    /// `wrapping_add` of a hash per (body, partner) pair, so it is
    /// bit-identical regardless of execution order, strip size, object
    /// placement, or migration — the determinism oracle for this phase.
    pub interaction_hash: u64,
    /// Differential-mode change schedule; `None` for single-phase runs.
    plan: Option<DiffPlan>,
}

/// Mix two interaction ids into one well-spread 64-bit word
/// (splitmix64-style finalizer).
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

impl BhApp {
    /// The app instance for node `me`.
    pub fn new(world: Arc<BhWorld>, me: u16) -> BhApp {
        let own = world.body_range(me);
        let pos: Vec<Vec3> = world.bodies[own.clone()].iter().map(|b| b.pos).collect();
        BhApp {
            base: own.start,
            accel: vec![Vec3::ZERO; pos.len()],
            pos,
            world,
            cell_interactions: 0,
            body_interactions: 0,
            cells_visited: 0,
            interaction_hash: 0,
            plan: None,
        }
    }

    /// Like [`BhApp::new`] but value-sensitive for multi-timestep runs:
    /// every cell visit folds [`DiffPlan::stamp`] at the generation
    /// actually read into `interaction_hash`, so a stale carried cache
    /// entry corrupts the digest against a from-scratch run.
    pub fn new_diff(world: Arc<BhWorld>, me: u16, plan: DiffPlan) -> BhApp {
        BhApp {
            plan: Some(plan),
            ..BhApp::new(world, me)
        }
    }
}

impl PtrApp for BhApp {
    type Work = BhVisit;

    fn num_iterations(&self) -> usize {
        self.pos.len()
    }

    fn start_iteration(&mut self, iter: usize, env: &mut WorkEnv<'_, BhVisit>) {
        let body = (self.base + iter) as u32;
        let root = self.world.tree.root();
        env.demand(
            self.world.cell_ptr(root),
            BhVisit { body, cell: root },
        );
    }

    fn run_work(&mut self, w: BhVisit, env: &mut WorkEnv<'_, BhVisit>) {
        let world = &*self.world;
        #[cfg(debug_assertions)]
        env.assert_readable(world.cell_ptr(w.cell));
        if let Some(plan) = self.plan {
            // The generation actually read: the renamed-storage stamp for
            // fetched/carried copies, the live generation for local reads.
            let ptr = world.cell_ptr(w.cell);
            let gen = env.label_generation().unwrap_or_else(|| plan.gen_of(ptr));
            self.interaction_hash = self
                .interaction_hash
                .wrapping_add(DiffPlan::stamp(ptr, gen));
        }
        let rec = &world.recs[w.cell as usize];
        let cost = world.cost;
        let own = w.body as usize - self.base;
        let pos = self.pos[own];
        self.cells_visited += 1;
        env.charge(cost.visit_ns);

        if rec.is_leaf() {
            let mut acc = Vec3::ZERO;
            for src in &world.leaf_srcs[rec.entries()] {
                if src.id != w.body {
                    acc += point_accel(pos, src.pos, src.mass, world.params.eps);
                    self.body_interactions += 1;
                    self.interaction_hash = self
                        .interaction_hash
                        .wrapping_add(mix_pair(w.body as u64, src.id as u64));
                    env.charge(cost.body_interact_ns);
                }
            }
            self.accel[own] += acc;
        } else if accepts_sq(pos, rec.src, rec.side2, world.theta2) {
            let a = point_accel(pos, rec.src, rec.mass, world.params.eps);
            self.accel[own] += a;
            self.cell_interactions += 1;
            // Tag bit 32 separates cell partners from body partners: body
            // and cell ids share the u32 range.
            self.interaction_hash = self
                .interaction_hash
                .wrapping_add(mix_pair(w.body as u64, w.cell as u64 | (1 << 32)));
            env.charge(cost.cell_interact_ns);
        } else {
            for &ptr in &world.child_ptrs[rec.entries()] {
                let cell = ptr.index() as u32;
                env.demand(ptr, BhVisit { body: w.body, cell });
            }
        }
    }

    fn object_size(&self, ptr: GPtr) -> u32 {
        self.world.cell_bytes(ptr.index() as u32)
    }

    fn object_generation(&self, ptr: GPtr) -> u32 {
        match self.plan {
            Some(plan) => plan.gen_of(ptr),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody::distrib::plummer;

    /// `bh16` keeps a few hundred thousand thread records in M and on the
    /// ready stack: four more bytes in both measured +1.7 MB of resident
    /// memory and −4 % events/s there. A ready thread is iteration, carried
    /// generation, body, cell; a waiting one (M's `(iteration, work)`) does
    /// without the generation and spends the four bytes on the link to the
    /// next thread aligned under its pointer. A further field must argue
    /// its case against `peak_rss_mb`.
    #[test]
    fn a_bh_thread_is_sixteen_bytes_ready_and_twelve_waiting() {
        assert_eq!(std::mem::size_of::<dpa_core::Tagged<BhVisit>>(), 16);
        assert_eq!(std::mem::size_of::<(u32, BhVisit)>(), 12);
        assert_eq!(dpa_core::PointerMap::<(u32, BhVisit)>::RECORD_BYTES, 16);
    }

    fn world(n: usize, nodes: u16) -> Arc<BhWorld> {
        BhWorld::build(
            plummer(n, 33),
            nodes,
            8,
            BhParams::default(),
            BhCost::default(),
        )
    }

    #[test]
    fn splits_partition_bodies() {
        let w = world(500, 4);
        let mut covered = 0;
        for node in 0..4 {
            covered += w.body_range(node).len();
        }
        assert_eq!(covered, 500);
    }

    #[test]
    fn cell_owners_valid() {
        let w = world(300, 4);
        assert_eq!(w.cell_owner.len(), w.tree.len());
        assert!(w.cell_owner.iter().all(|&o| o < 4));
    }

    #[test]
    fn ownership_is_spatially_local() {
        // Most cells of a node's own region should be owned by it: the
        // remote fraction per node must be well under uniform (3/4).
        let w = world(2000, 4);
        for node in 0..4 {
            let f = w.remote_cell_fraction(node);
            assert!(f < 0.95, "node {node} remote fraction {f}");
        }
        // And leaves holding a node's own bodies are mostly owned by it.
        let mut own = 0u32;
        let mut total = 0u32;
        for (id, cell) in w.tree.iter() {
            if cell.is_leaf() && !cell.bodies.is_empty() {
                let b = cell.bodies[0] as usize;
                let owner_of_body = u16::try_from(
                    w.splits
                        .windows(2)
                        .position(|win| b >= win[0] && b < win[1])
                        .expect("every body index falls inside a split window"),
                )
                .expect("invariant: split window index < nodes, which is u16");
                total += 1;
                if w.cell_owner[id as usize] == owner_of_body {
                    own += 1;
                }
            }
        }
        assert!(
            own * 2 > total,
            "most populated leaves should be owned by their bodies' node ({own}/{total})"
        );
    }

    #[test]
    fn leaf_bytes_include_inline_bodies() {
        let w = world(300, 2);
        for (id, cell) in w.tree.iter() {
            let expect =
                CELL_HEADER_BYTES + cell.bodies.len() as u32 * INLINE_BODY_BYTES;
            assert_eq!(w.cell_bytes(id), expect);
        }
    }

    #[test]
    fn try_build_rejects_bad_configs() {
        let err = BhWorld::try_build_with_policy(
            Vec::new(),
            4,
            8,
            BhParams::default(),
            BhCost::default(),
            OwnerPolicy::Builder,
        )
        .err()
        .expect("config must be rejected");
        assert_eq!(err, WorldError::Empty { what: "bodies" });
        let err = BhWorld::try_build_with_policy(
            plummer(10, 1),
            0,
            8,
            BhParams::default(),
            BhCost::default(),
            OwnerPolicy::Builder,
        )
        .err()
        .expect("config must be rejected");
        assert_eq!(err, WorldError::NoNodes);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]
        #[test]
        fn packed_records_equal_their_cells(
            n in 1usize..400,
            nodes in 1u16..9,
            shape in 0usize..6,
            seed in proptest::any::<u64>(),
        ) {
            use nbody::distrib::uniform_cube;
            let bodies = if shape % 2 == 0 { plummer(n, seed) } else { uniform_cube(n, seed) };
            let leaf_cap = [1, 4, 8][shape / 2];
            for policy in [OwnerPolicy::Builder, OwnerPolicy::CmRegion, OwnerPolicy::Scatter] {
                let w = BhWorld::build_with_policy(
                    bodies.clone(),
                    nodes,
                    leaf_cap,
                    BhParams::default(),
                    BhCost::default(),
                    policy,
                );
                assert_eq!(w.recs.len(), w.tree.len());
                assert_eq!(w.theta2.to_bits(), (w.params.theta * w.params.theta).to_bits());
                let (mut kids, mut srcs) = (0, 0);
                for (id, cell) in w.tree.iter() {
                    let rec = &w.recs[id as usize];
                    let bits = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
                    assert_eq!(bits(rec.src), bits(cell.cm), "cell {id}");
                    assert_eq!(rec.mass.to_bits(), cell.mass.to_bits(), "cell {id}");
                    assert_eq!(rec.side2.to_bits(), (cell.side() * cell.side()).to_bits());
                    assert_eq!(rec.is_leaf(), cell.is_leaf(), "cell {id}");
                    if cell.is_leaf() {
                        let got: Vec<_> = w.leaf_srcs[rec.entries()]
                            .iter()
                            .map(|s| (s.id, bits(s.pos), s.mass.to_bits()))
                            .collect();
                        let want: Vec<_> = cell
                            .bodies
                            .iter()
                            .map(|&b| (b, bits(w.bodies[b as usize].pos), w.bodies[b as usize].mass.to_bits()))
                            .collect();
                        assert_eq!(got, want, "leaf {id}");
                        srcs += got.len();
                    } else {
                        let want: Vec<GPtr> = cell
                            .children
                            .iter()
                            .filter(|&&c| c != NO_CELL)
                            .map(|&c| w.cell_ptr(c as u32))
                            .collect();
                        assert_eq!(&w.child_ptrs[rec.entries()], &want[..], "cell {id}");
                        kids += want.len();
                    }
                }
                // Nothing packed that no cell owns.
                assert_eq!((kids, srcs), (w.child_ptrs.len(), w.leaf_srcs.len()));
                assert_eq!((kids, srcs), (w.tree.len() - 1, n));
            }
        }
    }

    #[test]
    fn a_leaf_forced_at_the_depth_limit_keeps_every_body() {
        // Coincident bodies cannot be split: one leaf far over `leaf_cap`.
        let bodies = vec![Body::at(Vec3::new(0.1, 0.2, 0.3), 1.0); 300];
        let w = BhWorld::build(bodies, 2, 1, BhParams::default(), BhCost::default());
        let deepest = w.recs.iter().filter(|r| r.is_leaf()).map(|r| r.entries().len()).max();
        assert_eq!(deepest, Some(300));
    }

    #[test]
    fn cell_ptr_roundtrip() {
        let w = world(100, 3);
        let p = w.cell_ptr(5);
        assert_eq!(p.index(), 5);
        assert_eq!(p.node(), w.cell_owner[5]);
        assert_eq!(p.class(), w.cell_class);
    }
}
