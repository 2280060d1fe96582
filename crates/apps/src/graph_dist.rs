//! Pointer-chasing graph analytics: semi-naive transitive closure over a
//! mutable, skewed edge graph — the adversarial workload family.
//!
//! Every other workload in the repo is an n-body tree: octree locality,
//! balanced fan-out, read-mostly caches — exactly the regime the 1997
//! paper tuned for. This application is the opposite on purpose
//! (Graspan-style dataflow reachability): the PBDS is an edge graph with a
//! **power-law degree distribution** (configurable skew exponent), so a
//! handful of hub vertices are read by nearly every traversal while the
//! tail is touched once, and there is no spatial locality for placement to
//! exploit. Hubs additionally carry outsized records (their out-edge
//! lists), so a single hot key produces multi-MTU replies with fan-out to
//! every node — the stress case for owner-side reply aggregation and the
//! case read-mostly replication answers.
//!
//! The graph is *structurally mutable across phases*: at each phase
//! boundary a seeded subset of vertices is rewired (their out-edge lists
//! resampled), and [`GraphWorld::gen_at`] reports how many boundaries
//! rewired each vertex. That is what [`PtrApp::object_generation`] returns,
//! so a differential `run_phases` sees *structural* deltas — carried copies of
//! rewired vertices must be invalidated, not just `DiffPlan` value stamps.
//!
//! Each node runs one BFS per locally-owned root vertex. Expanding a
//! vertex requires its (potentially remote) record — one labeled demand
//! per `(root, vertex)` pair, marked visited at emission time so every
//! pair is expanded exactly once regardless of schedule. The checksum
//! folds [`DiffPlan::stamp`]`(ptr, generation-read)` with a wrapping add:
//! order-independent, but a stale carried entry (old generation) corrupts
//! it against the sequential oracle.

use crate::error::WorldError;
use dpa_core::{DiffPlan, PtrApp, WorkEnv};
use global_heap::{ClassTable, GPtr, ObjClass};
use sim_net::Rng;
use std::sync::Arc;

/// Per-operation costs of the traversal, ns.
#[derive(Clone, Copy, Debug)]
pub struct GraphCost {
    /// Per-vertex expansion (scan the out-list, test the visited set).
    pub expand_ns: u64,
    /// Per-edge bookkeeping inside an expansion.
    pub edge_ns: u64,
    /// Per-root setup.
    pub root_ns: u64,
}

impl Default for GraphCost {
    fn default() -> Self {
        GraphCost {
            expand_ns: 600,
            edge_ns: 150,
            root_ns: 400,
        }
    }
}

/// Generator + schedule parameters for [`GraphWorld`].
#[derive(Clone, Copy, Debug)]
pub struct GraphParams {
    /// Vertex count.
    pub n: usize,
    /// Machine size (contiguous even vertex partition).
    pub nodes: u16,
    /// Base out-degree of every vertex.
    pub degree: usize,
    /// Power-law skew exponent: edge targets are drawn with probability
    /// ∝ 1/(v+1)^skew, so vertex 0 is the hottest hub. 0.0 = uniform.
    pub skew: f64,
    /// Extra out-edges granted to low-id vertices, decaying with the same
    /// exponent: vertex v gets `hub_extra / (v+1)^skew` additional edges.
    /// This is what makes hub *records* big (multi-MTU replies).
    pub hub_extra: usize,
    /// Number of timestep phases the world carries adjacency for.
    pub phases: u32,
    /// Per-boundary structural-change probability, permille: at each phase
    /// boundary this fraction of vertices has its out-list resampled.
    pub rewire_permille: u32,
    /// Every `root_stride`-th owned vertex roots a traversal (≥ 1).
    pub root_stride: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Default for GraphParams {
    fn default() -> Self {
        GraphParams {
            n: 128,
            nodes: 4,
            degree: 3,
            skew: 1.6,
            hub_extra: 24,
            phases: 4,
            rewire_permille: 120,
            root_stride: 4,
            seed: 0x6EA9,
        }
    }
}

/// The shared graph world: per-phase adjacency snapshots plus the seeded
/// rewire schedule that produced them, as flat per-vertex tables — a visit
/// reads one pointer, one generation and one slice, and chases nothing.
pub struct GraphWorld {
    /// Parameters the world was built from.
    pub params: GraphParams,
    /// CSR row bounds, shared by every phase (a rewire resamples a list at
    /// its fixed length): `v`'s out-list is `offsets[v]..offsets[v + 1]`
    /// of each phase's `targets`.
    offsets: Vec<u32>,
    /// `targets[phase]` = that phase's out-lists, concatenated by vertex.
    targets: Vec<Vec<u32>>,
    /// `gens[phase][v]` = [`GraphWorld::gen_at`] for the carried phases.
    gens: Vec<Vec<u32>>,
    /// `vptrs[v]` = [`GraphWorld::vptr`].
    vptrs: Vec<GPtr>,
    /// `splits[i]..splits[i+1]` = node `i`'s vertices.
    pub splits: Vec<usize>,
    /// Cost model.
    pub cost: GraphCost,
    /// Object classes (one: VERTEX).
    pub classes: ClassTable,
    /// The vertex object class.
    pub vclass: ObjClass,
}

/// Splitmix-style hash used by the rewire schedule (pure in its inputs, so
/// every node and every engine agrees without communication).
#[inline]
fn mix(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
        .wrapping_add(c);
    z = (z ^ (z >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl GraphWorld {
    /// Build the world, panicking on invalid parameters.
    pub fn build(params: GraphParams) -> Arc<GraphWorld> {
        Self::try_build(params).expect("invalid GraphWorld configuration")
    }

    /// Fallible [`GraphWorld::build`]: rejects an empty machine, an empty
    /// graph, or a graph smaller than the machine.
    pub fn try_build(params: GraphParams) -> Result<Arc<GraphWorld>, WorldError> {
        if params.nodes == 0 {
            return Err(WorldError::NoNodes);
        }
        if params.n == 0 {
            return Err(WorldError::Empty { what: "vertices" });
        }
        if params.n < params.nodes as usize {
            return Err(WorldError::TooFewElements {
                what: "vertices",
                have: params.n,
                nodes: params.nodes,
            });
        }
        let n = params.n;
        let splits = nbody::morton::even_splits(n, params.nodes as usize);
        let sampler = Sampler::new(params);
        // Phase-0 adjacency from the master stream; later phases patch the
        // seeded rewire set, each rewired list from its own (seed, v, b)
        // stream so nothing depends on visit order.
        let phases = params.phases.max(1) as usize;
        let mut rng = Rng::new(params.seed);
        let mut offsets = Vec::with_capacity(n + 1);
        let mut base = Vec::new();
        for v in 0..n {
            offsets.push(base.len() as u32);
            sampler.sample_into(&mut rng, v, &mut base);
        }
        offsets.push(
            u32::try_from(base.len()).expect("invariant: edge count fits the u32 CSR offsets"),
        );
        let mut targets = Vec::with_capacity(phases);
        let mut gens = Vec::with_capacity(phases);
        targets.push(base);
        gens.push(vec![0u32; n]);
        for b in 1..phases {
            let (prev, prev_gens) = (&targets[b - 1], &gens[b - 1]);
            let mut next = Vec::with_capacity(prev.len());
            let mut next_gens = Vec::with_capacity(n);
            for v in 0..n {
                let rewired = Self::rewired(params.seed, params.rewire_permille, b as u32, v);
                if rewired {
                    let mut vr = Rng::new(mix(params.seed, v as u64, b as u64));
                    sampler.sample_into(&mut vr, v, &mut next);
                } else {
                    next.extend_from_slice(&prev[offsets[v] as usize..offsets[v + 1] as usize]);
                }
                next_gens.push(prev_gens[v] + u32::from(rewired));
            }
            targets.push(next);
            gens.push(next_gens);
        }
        let mut classes = ClassTable::new();
        let vclass = classes.register("graph_vertex", 48);
        let vptrs = (0..params.nodes)
            .flat_map(|node| {
                (splits[node as usize]..splits[node as usize + 1])
                    .map(move |v| GPtr::new(node, vclass, v as u64))
            })
            .collect();
        Ok(Arc::new(GraphWorld {
            params,
            offsets,
            targets,
            gens,
            vptrs,
            splits,
            cost: GraphCost::default(),
            classes,
            vclass,
        }))
    }

    /// `true` if boundary `b` (1-based) resamples vertex `v`'s out-list.
    #[inline]
    fn rewired(seed: u64, permille: u32, b: u32, v: usize) -> bool {
        mix(seed ^ 0x5712_0C7A, b as u64, v as u64) % 1000 < permille as u64
    }

    /// Structural generation of vertex `v` at `phase`: how many boundaries
    /// `1..=phase` rewired it. This is what the differential driver diffs.
    #[inline]
    pub fn gen_at(&self, phase: u32, v: u32) -> u32 {
        match self.gens.get(phase as usize) {
            Some(gens) => gens[v as usize],
            // Past the carried phases the adjacency stops changing but the
            // schedule does not.
            None => self.gen_by_schedule(phase, v),
        }
    }

    /// [`GraphWorld::gen_at`] from the rewire schedule itself.
    fn gen_by_schedule(&self, phase: u32, v: u32) -> u32 {
        (1..=phase)
            .filter(|&b| {
                Self::rewired(
                    self.params.seed,
                    self.params.rewire_permille,
                    b,
                    v as usize,
                )
            })
            .count() as u32
    }

    /// Out-neighbors of `v` during `phase`.
    #[inline]
    pub fn out(&self, phase: u32, v: u32) -> &[u32] {
        let targets = &self.targets[(phase as usize).min(self.targets.len() - 1)];
        &targets[self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize]
    }

    /// Global pointer to vertex `v` (owned by its home node).
    #[inline]
    pub fn vptr(&self, v: u32) -> GPtr {
        self.vptrs[v as usize]
    }

    /// Vertices owned by `node`.
    pub fn range(&self, node: u16) -> std::ops::Range<usize> {
        self.splits[node as usize]..self.splits[node as usize + 1]
    }

    /// Root vertices of `node`'s traversals (every `root_stride`-th owned
    /// vertex; always at least one).
    pub fn roots(&self, node: u16) -> Vec<u32> {
        self.range(node)
            .step_by(self.params.root_stride.max(1))
            .map(|v| v as u32)
            .collect()
    }

    /// Transfer size of vertex `v`'s record: header + its phase-0 out-list
    /// (sizes must be phase-stable, so the wire size uses the base list).
    /// The hub's list is `hub_extra` long, so hub replies span packets.
    pub fn vertex_bytes(&self, v: u32) -> u32 {
        16 + 4 * (self.offsets[v as usize + 1] - self.offsets[v as usize])
    }

    /// In-degree of every vertex during `phase` (test/diagnostic helper).
    pub fn in_degrees(&self, phase: u32) -> Vec<u32> {
        let mut d = vec![0u32; self.params.n];
        for &t in &self.targets[(phase as usize).min(self.targets.len() - 1)] {
            d[t as usize] += 1;
        }
        d
    }

    /// Host-side oracle: `(checksum, reached)` for `node`'s traversals at
    /// `phase` — a sequential BFS per root over the phase adjacency,
    /// folding the same order-independent stamp the app folds.
    pub fn expected(&self, phase: u32, node: u16) -> (u64, u64) {
        let mut sum = 0u64;
        let mut reached = 0u64;
        let mut stack: Vec<u32> = Vec::new();
        // One bitmap for every root: a traversal reaches tens of vertices
        // out of `n`, so it clears the words it set rather than the map.
        let mut visited = vec![0u64; self.params.n.div_ceil(64)];
        let mut touched: Vec<usize> = Vec::new();
        for root in self.roots(node) {
            visited[root as usize / 64] |= 1 << (root % 64);
            touched.push(root as usize / 64);
            stack.push(root);
            while let Some(v) = stack.pop() {
                sum = sum.wrapping_add(DiffPlan::stamp(self.vptr(v), self.gen_at(phase, v)));
                reached += 1;
                for &t in self.out(phase, v) {
                    let (w, bit) = (t as usize / 64, 1u64 << (t % 64));
                    if visited[w] & bit == 0 {
                        if visited[w] == 0 {
                            touched.push(w);
                        }
                        visited[w] |= bit;
                        stack.push(t);
                    }
                }
            }
            for w in touched.drain(..) {
                visited[w] = 0;
            }
        }
        (sum, reached)
    }
}

/// The seeded out-list generator: power-law targets, hub-weighted degrees.
struct Sampler {
    params: GraphParams,
    /// Cumulative power-law weights: target `v` with prob ∝ 1/(v+1)^skew.
    cum: Vec<f64>,
    total: f64,
}

impl Sampler {
    fn new(params: GraphParams) -> Sampler {
        let mut cum = Vec::with_capacity(params.n);
        let mut total = 0.0f64;
        for v in 0..params.n {
            total += ((v + 1) as f64).powf(-params.skew);
            cum.push(total);
        }
        Sampler { params, cum, total }
    }

    fn degree_of(&self, v: usize) -> usize {
        let p = &self.params;
        p.degree + (p.hub_extra as f64 * ((v + 1) as f64).powf(-p.skew)) as usize
    }

    /// Append a fresh out-list for `v` drawn from `rng` to `out`.
    fn sample_into(&self, rng: &mut Rng, v: usize, out: &mut Vec<u32>) {
        let n = self.params.n;
        for _ in 0..self.degree_of(v) {
            let r = rng.unit_f64() * self.total;
            let mut t = self.cum.partition_point(|&c| c < r).min(n - 1);
            if t == v {
                t = (t + 1) % n; // no self-loops
            }
            out.push(t as u32);
        }
    }
}

/// A traversal work item: expand vertex `v` for root slot `slot`.
#[derive(Clone, Copy, Debug)]
pub struct Visit {
    /// Index into this node's root list.
    pub slot: u32,
    /// The vertex to expand (the labeled pointer).
    pub v: u32,
}

/// The visited sets of one node's running traversals, as one open-addressed
/// table from `(root slot, bitmap word)` to the 64 visited bits of that
/// word, beside each traversal's count of visits demanded and not yet run.
///
/// Memory follows the traversals still running, not the root count or the
/// vertex count. A traversal whose count is back at 0 has no thread left
/// to run (the runtime runs every demanded thread exactly once), so its
/// words are never marked again: when the table passes half load, those
/// are dropped before the table may double. The runtime's strip bounds
/// how many traversals run at once, so the table keeps its first size.
struct VisitedSet {
    /// `(key, bits)`; `bits == 0` marks an empty slot (a stored word
    /// always has at least one bit set). Length is a power of two, or 0
    /// before the first mark.
    slots: Vec<(u64, u64)>,
    /// Occupied slots.
    live: usize,
    /// The key and slot index of the last mark: one expansion marks all of
    /// a vertex's out-neighbours for one root, and on a skewed graph most
    /// of those share a bitmap word, so the next mark usually skips the
    /// probe.
    last: (u64, usize),
    /// `pending[slot]` = visits of that traversal demanded and not yet
    /// run; one entry per root, so its length is the node's loop length.
    pending: Vec<u32>,
}

/// No `(slot, word)` packs to this: a word index is below `2^26`.
const NO_KEY: u64 = u64::MAX;

/// Slots of the first table: 16 KiB, a quarter of a typical L1 data
/// cache, and room at half load for 512 words — 64 for each of the 8
/// traversals `dpa_replicating(8)` runs at once. A closure on the skewed
/// graphs touches far fewer (EXPERIMENTS.md X23), so `graph_hub` never
/// doubles it; a wider strip or longer closures double it as often as
/// their running words need.
const FIRST_LEN: usize = 1024;

impl VisitedSet {
    /// An empty set for `roots` traversals that owns no table yet: the
    /// first mark allocates it. (`run_phases` builds the next phase's apps
    /// while the last phase's are still held, so a table allocated here
    /// would be held twice at every barrier.)
    fn new(roots: usize) -> VisitedSet {
        VisitedSet {
            slots: Vec::new(),
            live: 0,
            last: (NO_KEY, 0),
            pending: vec![0; roots],
        }
    }

    /// Where `key`'s probe starts: its Fibonacci hash (the multiply
    /// spreads the key over the product's **high** bits, so the index is
    /// taken from the top).
    #[inline]
    fn home(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - self.slots.len().ilog2())) as usize
    }

    /// Mark vertex `v` visited by traversal `slot`; `true` on first visit.
    #[inline(always)]
    fn mark(&mut self, slot: u32, v: u32) -> bool {
        let key = (slot as u64) << 32 | (v / 64) as u64;
        if self.last.0 != key {
            self.find(key);
        }
        let (bits, bit) = (&mut self.slots[self.last.1].1, 1u64 << (v % 64));
        let first = *bits & bit == 0;
        *bits |= bit;
        first
    }

    /// Traversal `slot` demanded `n` more visits.
    #[inline]
    fn demanded(&mut self, slot: u32, n: u32) {
        self.pending[slot as usize] += n;
    }

    /// One visit of traversal `slot` ran, its marks made.
    #[inline]
    fn ran(&mut self, slot: u32) {
        self.pending[slot as usize] -= 1;
    }

    /// Point `last` at `key`'s slot, claiming an empty one (whose zero
    /// bits `mark` makes nonzero at once) if the key is new. Out of line:
    /// `mark`'s memo check and bit test are what the expansion loop
    /// inlines.
    #[inline(never)]
    fn find(&mut self, key: u64) {
        // Keep the load at or below one half.
        if 2 * (self.live + 1) > self.slots.len() {
            self.make_room();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let (k, bits) = &mut self.slots[i];
            if *bits == 0 {
                *k = key;
                self.live += 1;
                break;
            }
            if *k == key {
                break;
            }
            i = (i + 1) & mask;
        }
        self.last = (key, i);
    }

    /// Make room for one more key: allocate the first table, or drop the
    /// finished traversals' words and double only if the running ones
    /// alone fill half the table.
    fn make_room(&mut self) {
        if self.slots.is_empty() {
            self.slots = vec![(0, 0); FIRST_LEN];
            return;
        }
        self.reclaim();
        if 2 * (self.live + 1) > self.slots.len() {
            let len = 2 * self.slots.len();
            let old = std::mem::replace(&mut self.slots, vec![(0, 0); len]);
            for (key, bits) in old.into_iter().filter(|&(_, bits)| bits != 0) {
                let i = self.vacancy(key);
                self.slots[i] = (key, bits);
            }
        }
    }

    /// Drop the words of finished traversals in place. Walking once round
    /// the table from just past an empty slot, take each entry out and put
    /// a running traversal's back at the first vacancy from its home. No
    /// probe run crosses that empty slot, so each entry's home lies behind
    /// it in the walk, every slot between is refilled before the walk
    /// leaves it, and the entry lands at or before where it stood.
    fn reclaim(&mut self) {
        let len = self.slots.len();
        let start = self
            .slots
            .iter()
            .position(|&(_, bits)| bits == 0)
            .expect("invariant: a table at most half full has an empty slot");
        for i in (start + 1..start + len).map(|i| i & (len - 1)) {
            let (key, bits) = std::mem::take(&mut self.slots[i]);
            if bits == 0 {
                continue;
            }
            if self.pending[(key >> 32) as usize] == 0 {
                self.live -= 1;
            } else {
                let j = self.vacancy(key);
                self.slots[j] = (key, bits);
            }
        }
        self.last = (NO_KEY, 0);
    }

    /// The first empty slot from `key`'s home on.
    fn vacancy(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        while self.slots[i].1 != 0 {
            i = (i + 1) & mask;
        }
        i
    }
}

/// Per-node traversal state for one phase.
pub struct GraphApp {
    world: Arc<GraphWorld>,
    /// The node this instance runs on.
    pub me: u16,
    /// The phase this instance executes (selects adjacency + generations).
    pub phase: u32,
    /// Visited `(root slot, vertex)` pairs of the running traversals; its
    /// table is allocated by the first iteration's mark, so an app built
    /// but not yet run holds only the per-root counts.
    visited: VisitedSet,
    /// Order-independent reachability digest (stamp fold).
    pub sum: u64,
    /// Total `(root, vertex)` expansions.
    pub reached: u64,
}

impl GraphApp {
    /// The app instance for node `me`, executing `phase`.
    pub fn new(world: Arc<GraphWorld>, me: u16, phase: u32) -> GraphApp {
        let roots = world
            .range(me)
            .len()
            .div_ceil(world.params.root_stride.max(1));
        GraphApp {
            visited: VisitedSet::new(roots),
            world,
            me,
            phase,
            sum: 0,
            reached: 0,
        }
    }

    /// Root vertex of iteration `iter`: [`GraphWorld::roots`]`(me)[iter]`.
    fn root(&self, iter: usize) -> u32 {
        (self.world.range(self.me).start + iter * self.world.params.root_stride.max(1)) as u32
    }
}

impl PtrApp for GraphApp {
    type Work = Visit;

    fn num_iterations(&self) -> usize {
        self.visited.pending.len()
    }

    fn start_iteration(&mut self, iter: usize, env: &mut WorkEnv<'_, Visit>) {
        let root = self.root(iter);
        env.charge(self.world.cost.root_ns);
        let slot = iter as u32;
        self.visited.mark(slot, root);
        self.visited.demanded(slot, 1);
        env.demand(self.world.vptr(root), Visit { slot, v: root });
    }

    fn run_work(&mut self, w: Visit, env: &mut WorkEnv<'_, Visit>) {
        let world = &*self.world;
        let ptr = world.vptr(w.v);
        env.assert_readable(ptr);
        // The generation actually read: the runtime's stamp for fetched
        // copies, our own current generation for local/caching reads. A
        // stale carried copy reports an old generation here and corrupts
        // the digest against the sequential oracle.
        let gen = env
            .label_generation()
            .unwrap_or_else(|| world.gen_at(self.phase, w.v));
        self.sum = self.sum.wrapping_add(DiffPlan::stamp(ptr, gen));
        self.reached += 1;
        let out = world.out(self.phase, w.v);
        env.charge(world.cost.expand_ns + world.cost.edge_ns * out.len() as u64);
        let mut demanded = 0;
        for &t in out {
            if self.visited.mark(w.slot, t) {
                env.demand(world.vptr(t), Visit { slot: w.slot, v: t });
                demanded += 1;
            }
        }
        // After the marks: a traversal at 0 may lose its words at the
        // next mark.
        self.visited.demanded(w.slot, demanded);
        self.visited.ran(w.slot);
    }

    fn object_size(&self, ptr: GPtr) -> u32 {
        self.world.vertex_bytes(ptr.index() as u32)
    }

    fn object_generation(&self, ptr: GPtr) -> u32 {
        self.world.gen_at(self.phase, ptr.index() as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    fn small() -> GraphParams {
        GraphParams {
            n: 96,
            nodes: 4,
            degree: 3,
            skew: 1.6,
            hub_extra: 16,
            phases: 3,
            rewire_permille: 150,
            root_stride: 8,
            seed: 42,
        }
    }

    /// The layout the CSR tables replaced — `adj[phase][v]`, one heap list
    /// per vertex per phase, each phase a patched clone of the one before
    /// — kept as the reference the flat build is checked against.
    fn nested_adjacency(params: GraphParams) -> Vec<Vec<Vec<u32>>> {
        let sampler = Sampler::new(params);
        let sample_list = |rng: &mut Rng, v: usize| {
            let mut out = Vec::new();
            sampler.sample_into(rng, v, &mut out);
            out
        };
        let mut rng = Rng::new(params.seed);
        let mut adj = vec![(0..params.n).map(|v| sample_list(&mut rng, v)).collect::<Vec<_>>()];
        for b in 1..params.phases.max(1) {
            let mut next = adj[b as usize - 1].clone();
            for (v, list) in next.iter_mut().enumerate() {
                if GraphWorld::rewired(params.seed, params.rewire_permille, b, v) {
                    let mut vr = Rng::new(mix(params.seed, v as u64, b as u64));
                    *list = sample_list(&mut vr, v);
                }
            }
            adj.push(next);
        }
        adj
    }

    #[test]
    fn flat_tables_equal_the_nested_layout_the_schedule_and_the_split_search() {
        let mut rng = Rng::new(0xC5A);
        for case in 0..24 {
            let nodes = 1 + rng.below(9) as u16;
            let params = GraphParams {
                n: nodes as usize + rng.below(300) as usize,
                nodes,
                degree: rng.below(5) as usize,
                skew: [0.0, 0.8, 1.6, 2.2][rng.below(4) as usize],
                hub_extra: rng.below(40) as usize,
                phases: rng.below(6) as u32,
                rewire_permille: [0, 120, 500, 1000][rng.below(4) as usize],
                root_stride: 1 + rng.below(8) as usize,
                seed: rng.below(1 << 40),
            };
            let w = GraphWorld::build(params);
            let adj = nested_adjacency(params);
            assert_eq!(adj.len(), params.phases.max(1) as usize, "case {case}");
            // Two phases past the carried ones: `out` clamps to the last
            // adjacency, `gen_at` falls back to the schedule.
            for phase in 0..params.phases + 2 {
                let lists = &adj[(phase as usize).min(adj.len() - 1)];
                for v in 0..params.n as u32 {
                    assert_eq!(w.out(phase, v), &lists[v as usize][..], "case {case}: out({phase}, {v})");
                    assert_eq!(
                        w.gen_at(phase, v),
                        w.gen_by_schedule(phase, v),
                        "case {case}: gen_at({phase}, {v})"
                    );
                }
            }
            for node in 0..nodes {
                let app = GraphApp::new(w.clone(), node, 0);
                let roots: Vec<u32> = (0..app.num_iterations()).map(|i| app.root(i)).collect();
                assert_eq!(roots, w.roots(node), "case {case}: node {node}'s roots");
            }
            for v in 0..params.n as u32 {
                let owner = w.splits.partition_point(|&s| s <= v as usize) - 1;
                assert_eq!(w.vptr(v), GPtr::new(owner as u16, w.vclass, v as u64), "case {case}");
                assert_eq!(w.vertex_bytes(v), 16 + 4 * adj[0][v as usize].len() as u32);
            }
        }
    }

    #[test]
    fn oracle_bitmap_reuse_equals_a_fresh_bitmap_per_root() {
        // Many roots over a well-connected graph: a word left set by one
        // traversal would cut the next one short.
        let params = GraphParams {
            n: 500,
            nodes: 2,
            degree: 4,
            skew: 0.4,
            root_stride: 1,
            phases: 2,
            ..small()
        };
        let w = GraphWorld::build(params);
        for phase in 0..2 {
            for node in 0..2 {
                let (mut sum, mut reached) = (0u64, 0u64);
                for root in w.roots(node) {
                    let mut seen = std::collections::HashSet::from([root]);
                    let mut stack = vec![root];
                    while let Some(v) = stack.pop() {
                        sum = sum.wrapping_add(DiffPlan::stamp(w.vptr(v), w.gen_at(phase, v)));
                        reached += 1;
                        stack.extend(w.out(phase, v).iter().copied().filter(|&t| seen.insert(t)));
                    }
                }
                assert_eq!(w.expected(phase, node), (sum, reached), "phase {phase} node {node}");
            }
        }
    }

    #[test]
    fn generator_is_deterministic_and_partitioned() {
        let a = GraphWorld::build(small());
        let b = GraphWorld::build(small());
        for ph in 0..3 {
            for v in 0..96 {
                assert_eq!(a.out(ph, v), b.out(ph, v));
            }
            for node in 0..4 {
                assert_eq!(a.expected(ph, node), b.expected(ph, node));
            }
        }
        let covered: usize = (0..4).map(|n| a.range(n).len()).sum();
        assert_eq!(covered, 96);
    }

    #[test]
    fn skew_concentrates_in_degree_on_the_hub() {
        let w = GraphWorld::build(small());
        let d = w.in_degrees(0);
        let max = *d.iter().max().unwrap();
        assert_eq!(d[0], max, "vertex 0 must be the hottest hub");
        let mean = d.iter().map(|&x| x as f64).sum::<f64>() / d.len() as f64;
        assert!(
            (d[0] as f64) > 4.0 * mean,
            "hub in-degree {} not skewed vs mean {mean:.1}",
            d[0]
        );
        // And the hub record is outsized: its reply spans several MTUs.
        assert!(w.vertex_bytes(0) > 3 * w.vertex_bytes(95));
    }

    #[test]
    fn vptr_owner_matches_split_and_hub_lives_on_node0() {
        let w = GraphWorld::build(small());
        for v in 0..96u32 {
            let p = w.vptr(v);
            assert!(w.range(p.node()).contains(&(v as usize)));
        }
        assert_eq!(w.vptr(0).node(), 0);
    }

    #[test]
    fn rewire_schedule_moves_generations_and_adjacency_together() {
        let w = GraphWorld::build(small());
        let mut moved = 0;
        for v in 0..96u32 {
            let (g1, g2) = (w.gen_at(1, v), w.gen_at(2, v));
            assert!(g2 >= g1, "generations are cumulative");
            if g1 > 0 {
                moved += 1;
            } else {
                assert_eq!(w.out(1, v), w.out(0, v), "unrewired vertex changed");
            }
        }
        assert!(moved > 0, "rewire plan selected nothing at 150 permille");
    }

    #[test]
    fn try_build_rejects_bad_configs() {
        let p = small();
        assert_eq!(
            GraphWorld::try_build(GraphParams { nodes: 0, ..p }).err().expect("config must be rejected"),
            WorldError::NoNodes
        );
        assert_eq!(
            GraphWorld::try_build(GraphParams { n: 0, ..p }).err().expect("config must be rejected"),
            WorldError::Empty { what: "vertices" }
        );
        assert_eq!(
            GraphWorld::try_build(GraphParams { n: 3, ..p }).err().expect("config must be rejected"),
            WorldError::TooFewElements {
                what: "vertices",
                have: 3,
                nodes: 4
            }
        );
    }

    /// Every stored key is reachable from its home without crossing an
    /// empty slot, and the load is at most one half; returns the stored
    /// `(key, bits)` and their mean distance from home.
    fn stored(set: &VisitedSet) -> (HashMap<u64, u64>, f64) {
        let mask = set.slots.len() - 1;
        let mut keys = HashMap::new();
        let mut displaced = 0;
        for (i, &(key, bits)) in set
            .slots
            .iter()
            .enumerate()
            .filter(|(_, &(_, bits))| bits != 0)
        {
            let home = set.home(key);
            let d = i.wrapping_sub(home) & mask;
            assert!(
                (0..d).all(|j| set.slots[(home + j) & mask].1 != 0),
                "key {key:#x} at {i} is cut off from its home {home}"
            );
            displaced += d;
            assert!(
                keys.insert(key, bits).is_none(),
                "key {key:#x} stored twice"
            );
        }
        assert_eq!(keys.len(), set.live);
        assert!(
            2 * set.live <= set.slots.len(),
            "{} keys in {} slots",
            set.live,
            set.slots.len()
        );
        let mean = displaced as f64 / keys.len().max(1) as f64;
        (keys, mean)
    }

    /// `VisitedSet` driven the way `GraphApp` and the runtime drive it —
    /// at most `strip` traversals started and unfinished, a root marked
    /// and demanded, every demanded visit run once in a random order,
    /// each first mark demanded, the visit counted as run after its
    /// marks — against one `HashSet` of visited vertices per traversal.
    /// After every reclaim the table holds exactly the running
    /// traversals' words with their bits, and no finished traversal's.
    #[test]
    fn visited_set_marks_like_a_set_of_pairs() {
        let mut rng = Rng::new(0x5E7);
        // Each traversal reaches into a window of its own; at strip 64
        // the running traversals' ~10 words each outgrow the first table.
        for (strip, window) in [(1usize, 200u64), (8, 200), (64, 600)] {
            let roots = 400;
            let mut set = VisitedSet::new(roots);
            assert_eq!(
                set.slots.capacity(),
                0,
                "strip {strip}: a table before any mark"
            );
            let base: Vec<u32> = (0..roots).map(|_| rng.below(1 << 20) as u32).collect();
            let mut model = vec![HashSet::new(); roots];
            let mut words = vec![HashMap::<u64, u64>::new(); roots];
            let mut pending = vec![0u32; roots];
            let mut ready: Vec<(u32, u32)> = Vec::new();
            let (mut started, mut running, mut steps, mut reclaims) = (0, 0, 0u64, 0);
            while started < roots || !ready.is_empty() {
                let (live_before, mut new_words) = (set.live, 0);
                let mut mark = |set: &mut VisitedSet, slot: u32, v: u32| {
                    let bits = words[slot as usize]
                        .entry((slot as u64) << 32 | (v / 64) as u64)
                        .or_insert(0);
                    new_words += usize::from(*bits == 0);
                    *bits |= 1 << (v % 64);
                    let first = model[slot as usize].insert(v);
                    assert_eq!(set.mark(slot, v), first, "strip {strip}: ({slot}, {v})");
                    first
                };
                let mut ended = None;
                if started < roots && running < strip && (ready.is_empty() || rng.below(2) == 0) {
                    let (slot, root) = (started as u32, base[started]);
                    assert!(mark(&mut set, slot, root));
                    set.demanded(slot, 1);
                    pending[started] += 1;
                    ready.push((slot, root));
                    (started, running) = (started + 1, running + 1);
                } else {
                    let (slot, _) = ready.swap_remove(rng.below(ready.len() as u64) as usize);
                    let mut n = 0;
                    for _ in 0..3 {
                        let t = base[slot as usize] + rng.below(window) as u32;
                        if mark(&mut set, slot, t) {
                            ready.push((slot, t));
                            n += 1;
                        }
                    }
                    set.demanded(slot, n);
                    set.ran(slot);
                    pending[slot as usize] += n;
                    pending[slot as usize] -= 1;
                    if pending[slot as usize] == 0 {
                        running -= 1;
                        ended = Some(slot);
                    }
                }
                steps += 1;
                // A reclaim in this step: fewer keys than were added. Every
                // 512 steps the table is checked, every 80th of those
                // after a reclaim of its own.
                let reclaimed = set.live < live_before + new_words;
                let reclaim_now = steps % 40_960 == 0;
                if !reclaimed && steps % 512 != 0 {
                    continue;
                }
                if reclaim_now {
                    set.reclaim();
                }
                reclaims += usize::from(reclaimed);
                assert_eq!(set.pending, pending, "strip {strip}: demand/run counts");
                let (keys, _) = stored(&set);
                for (&key, &bits) in &keys {
                    let slot = (key >> 32) as usize;
                    assert_eq!(
                        words[slot].get(&key),
                        Some(&bits),
                        "strip {strip}: bits of {key:#x}"
                    );
                    // A reclaim inside this step ran before its traversal's
                    // marks, so only that one may have finished since.
                    let may_keep = pending[slot] > 0
                        || !(reclaimed || reclaim_now)
                        || (!reclaim_now && ended == Some(slot as u32));
                    assert!(
                        may_keep,
                        "strip {strip}: finished traversal {slot} kept {key:#x} past a reclaim"
                    );
                }
                for slot in (0..roots).filter(|&s| pending[s] > 0) {
                    for (key, bits) in &words[slot] {
                        assert_eq!(
                            keys.get(key),
                            Some(bits),
                            "strip {strip}: running {slot} lost {key:#x}"
                        );
                    }
                }
            }
            assert_eq!(running, 0);
            assert!(reclaims > 0, "strip {strip}: never reclaimed");
            assert_eq!(
                set.slots.len() > FIRST_LEN,
                strip == 64,
                "strip {strip}: {} slots",
                set.slots.len()
            );
        }
    }

    #[test]
    fn visited_set_probes_stay_short_at_the_benchmark_shape() {
        // `graph_hub`'s node 0: 2,048 traversals over the 512 bitmap words
        // of a 32,768-vertex power-law graph, 8 running at once as under
        // `dpa_replicating(8)`, their visits run in a random order.
        let world = GraphWorld::build(GraphParams {
            n: 32_768,
            nodes: 16,
            degree: 3,
            skew: 1.6,
            hub_extra: 24,
            phases: 1,
            rewire_permille: 0,
            root_stride: 1,
            seed: 1997,
        });
        let roots = world.roots(0);
        assert_eq!(roots.len(), 2048);
        let mut set = VisitedSet::new(roots.len());
        let mut rng = Rng::new(0xB5);
        let mut ready: Vec<(u32, u32)> = Vec::new();
        let (mut started, mut running, mut reached) = (0, 0, 0u64);
        let (mut displacement, mut samples) = (0.0, 0);
        while started < roots.len() || !ready.is_empty() {
            if started < roots.len() && running < 8 && (ready.is_empty() || rng.below(2) == 0) {
                let slot = started as u32;
                set.mark(slot, roots[started]);
                set.demanded(slot, 1);
                ready.push((slot, roots[started]));
                (started, running) = (started + 1, running + 1);
                continue;
            }
            let (slot, v) = ready.swap_remove(rng.below(ready.len() as u64) as usize);
            reached += 1;
            let mut n = 0;
            for &t in world.out(0, v) {
                if set.mark(slot, t) {
                    ready.push((slot, t));
                    n += 1;
                }
            }
            set.demanded(slot, n);
            set.ran(slot);
            if set.pending[slot as usize] == 0 {
                running -= 1;
            }
            assert_eq!(set.slots.len(), FIRST_LEN, "the table left its first size");
            if reached % 256 == 0 {
                displacement += stored(&set).1;
                samples += 1;
            }
        }
        assert_eq!(reached, world.expected(0, 0).1);
        // A running traversal's small consecutive word indices and its
        // slot are spread by the Fibonacci multiply, at most half the
        // table is ever full, and finished traversals' words go at the
        // next reclaim.
        let mean = displacement / samples as f64;
        assert!(
            mean < 0.25,
            "mean displacement {mean:.2} slots over {samples} samples"
        );
    }

    #[test]
    fn app_memory_follows_live_traversals_not_roots_or_vertices() {
        // One dense bitmap per root would ask for 2^19 × 128 KiB = 64 GiB
        // per node here, a table sized for every root 16 << 19 slots.
        let world = GraphWorld::build(GraphParams {
            n: 1 << 20,
            nodes: 2,
            degree: 1,
            hub_extra: 0,
            phases: 1,
            root_stride: 1,
            ..small()
        });
        for node in 0..2 {
            let mut app = GraphApp::new(world.clone(), node, 0);
            assert_eq!(app.num_iterations(), 1 << 19);
            // The table comes with the first mark, not with the app.
            assert_eq!(app.visited.slots.capacity(), 0);
            assert!(app.visited.mark(0, app.root(0)));
            assert_eq!(app.visited.slots.len(), FIRST_LEN);
        }
    }

    #[test]
    fn oracle_reaches_at_least_the_roots() {
        let w = GraphWorld::build(small());
        for node in 0..4 {
            let (_, reached) = w.expected(0, node);
            assert!(reached >= w.roots(node).len() as u64);
        }
    }
}
