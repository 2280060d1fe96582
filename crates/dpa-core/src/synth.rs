//! A synthetic pointer-chasing workload for tests, examples, and
//! microbenchmarks.
//!
//! Each node owns `lists_per_node` linked lists whose records are
//! scattered across the machine with a configurable remote fraction — the
//! archetypal pointer-based computation the paper's introduction opens
//! with. Every variant (DPA, caching, blocking, sequential) must compute
//! the same per-node checksum, which makes this workload a sharp
//! equivalence oracle for the drivers.

use crate::work::{DiffPlan, PtrApp, WorkEnv};
use global_heap::{ClassTable, GPtr};
use sim_net::Rng;
use std::sync::Arc;

/// One list record: a payload value and the next pointer.
#[derive(Clone, Copy, Debug)]
pub struct SynthRecord {
    /// Payload folded into the checksum.
    pub value: u64,
    /// Next record, or [`GPtr::NULL`] at the tail.
    pub next: GPtr,
}

/// The shared, read-only world: all records plus the list heads.
#[derive(Clone, Debug)]
pub struct SynthWorld {
    /// Machine size the world was built for.
    pub nodes: u16,
    /// Lists owned by (i.e. iterated by) each node.
    pub lists_per_node: usize,
    /// Records per list.
    pub list_len: usize,
    /// ns of useful work charged per record visited (what
    /// [`SynthApp::new`] is given to run this world as built).
    pub work_ns: u64,
    /// `records[node][index]` — per-owner arenas.
    records: Vec<Vec<SynthRecord>>,
    /// `heads[node][list]` — first record of each list.
    heads: Vec<Vec<GPtr>>,
    classes: ClassTable,
}

/// Parameters for building a [`SynthWorld`].
#[derive(Clone, Copy, Debug)]
pub struct SynthParams {
    /// Machine size.
    pub nodes: u16,
    /// Lists per node (the top-level loop length).
    pub lists_per_node: usize,
    /// Records per list.
    pub list_len: usize,
    /// Probability that a record lives on a random *other* node.
    pub remote_fraction: f64,
    /// Probability that a list ends by linking into an earlier list of the
    /// same home node (a shared tail). Shared structure is what gives
    /// caching its hits and DPA its tiling: several iterations touch the
    /// same objects, as tree cells do in Barnes-Hut.
    pub shared_fraction: f64,
    /// Bytes transferred per record.
    pub record_bytes: u32,
    /// ns of useful work charged per record visited.
    pub work_ns: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SynthParams {
    fn default() -> Self {
        SynthParams {
            nodes: 4,
            lists_per_node: 8,
            list_len: 16,
            remote_fraction: 0.3,
            shared_fraction: 0.4,
            record_bytes: 32,
            work_ns: 500,
            seed: 0xD1A,
        }
    }
}

impl SynthWorld {
    /// Build a world from `params`. Deterministic in the seed.
    pub fn build(params: SynthParams) -> Arc<SynthWorld> {
        assert!(params.nodes >= 1);
        let mut classes = ClassTable::new();
        let class = classes.register("synth_record", params.record_bytes);
        let mut rng = Rng::new(params.seed);
        let n = params.nodes as usize;
        let mut records: Vec<Vec<SynthRecord>> = vec![Vec::new(); n];
        let mut heads: Vec<Vec<GPtr>> = vec![Vec::new(); n];

        #[allow(clippy::needless_range_loop)] // `home` indexes two arrays
        for home in 0..n {
            // Records reachable from this home's earlier lists; candidate
            // shared tails.
            let mut prior: Vec<GPtr> = Vec::new();
            for _ in 0..params.lists_per_node {
                // Build the list back to front so each record can point at
                // its successor. With probability `shared_fraction` the
                // list ends in a tail shared with an earlier list (a DAG,
                // never a cycle: links only target earlier records).
                let mut next = if !prior.is_empty() && rng.chance(params.shared_fraction) {
                    prior[rng.below(prior.len() as u64) as usize]
                } else {
                    GPtr::NULL
                };
                for _ in 0..params.list_len {
                    let owner = if params.nodes > 1 && rng.chance(params.remote_fraction) {
                        // A random node other than `home`.
                        let mut o = rng.below(params.nodes as u64 - 1) as usize;
                        if o >= home {
                            o += 1;
                        }
                        o
                    } else {
                        home
                    };
                    let idx = records[owner].len() as u64;
                    records[owner].push(SynthRecord {
                        value: rng.below(1 << 32),
                        next,
                    });
                    next = GPtr::new(owner as u16, class, idx);
                    prior.push(next);
                }
                heads[home].push(next);
            }
        }

        Arc::new(SynthWorld {
            nodes: params.nodes,
            lists_per_node: params.lists_per_node,
            list_len: params.list_len,
            work_ns: params.work_ns,
            records,
            heads,
            classes,
        })
    }

    /// The record `ptr` points at.
    #[inline]
    pub fn record(&self, ptr: GPtr) -> &SynthRecord {
        &self.records[ptr.node() as usize][ptr.index() as usize]
    }

    /// The head of `node`'s `list`-th list.
    pub fn head(&self, node: u16, list: usize) -> GPtr {
        self.heads[node as usize][list]
    }

    /// Ground truth for `node`: `(checksum, records visited)` — what any
    /// correct execution of that node's iterations must produce. Shared
    /// tails are counted once per traversal that reaches them, exactly as
    /// the runtime executes them.
    pub fn expected(&self, node: u16) -> (u64, u64) {
        let mut sum = 0u64;
        let mut visits = 0u64;
        for list in 0..self.lists_per_node {
            let mut p = self.head(node, list);
            while !p.is_null() {
                let r = self.record(p);
                sum = sum.wrapping_add(r.value);
                visits += 1;
                p = r.next;
            }
        }
        (sum, visits)
    }

    /// Ground-truth checksum for `node` (see [`SynthWorld::expected`]).
    pub fn expected_sum(&self, node: u16) -> u64 {
        self.expected(node).0
    }

    /// Ground-truth checksum for `node` under a differential plan: every
    /// record's contribution is its value plus [`DiffPlan::stamp`] at the
    /// record's *current* generation. A correct differential execution —
    /// one that invalidated every carried entry whose object changed —
    /// matches this exactly; a stale read cannot.
    pub fn expected_diff_sum(&self, node: u16, plan: DiffPlan) -> u64 {
        let mut sum = 0u64;
        for list in 0..self.lists_per_node {
            let mut p = self.head(node, list);
            while !p.is_null() {
                let r = self.record(p);
                sum = sum
                    .wrapping_add(r.value)
                    .wrapping_add(DiffPlan::stamp(p, plan.gen_of(p)));
                p = r.next;
            }
        }
        sum
    }

    /// Total records across all owners.
    pub fn total_records(&self) -> usize {
        self.records.iter().map(Vec::len).sum()
    }
}

/// Per-node application state: walks this node's lists, accumulating a
/// checksum.
pub struct SynthApp {
    world: Arc<SynthWorld>,
    me: u16,
    /// Checksum accumulated by completed work.
    pub sum: u64,
    /// Records visited.
    pub visited: u64,
    work_ns: u64,
    /// Differential-mode change schedule; `None` for single-phase runs.
    plan: Option<DiffPlan>,
}

/// A non-blocking thread of the synthetic walk: "visit the record at
/// `ptr`".
#[derive(Debug, Clone, Copy)]
pub struct Walk {
    /// Record to visit (the pointer this thread is labeled with).
    pub ptr: GPtr,
}

impl SynthApp {
    /// The app instance for node `me`.
    pub fn new(world: Arc<SynthWorld>, me: u16, work_ns: u64) -> SynthApp {
        SynthApp {
            world,
            me,
            sum: 0,
            visited: 0,
            work_ns,
            plan: None,
        }
    }

    /// Like [`SynthApp::new`] but value-sensitive for multi-timestep runs:
    /// each visit folds [`DiffPlan::stamp`] at the generation actually
    /// read into the checksum, making a stale carried cache entry corrupt
    /// the digest (see [`SynthWorld::expected_diff_sum`]).
    pub fn new_diff(world: Arc<SynthWorld>, me: u16, work_ns: u64, plan: DiffPlan) -> SynthApp {
        SynthApp {
            plan: Some(plan),
            ..SynthApp::new(world, me, work_ns)
        }
    }
}

impl PtrApp for SynthApp {
    type Work = Walk;

    fn num_iterations(&self) -> usize {
        self.world.lists_per_node
    }

    fn start_iteration(&mut self, iter: usize, env: &mut WorkEnv<'_, Walk>) {
        let head = self.world.head(self.me, iter);
        if !head.is_null() {
            env.demand(head, Walk { ptr: head });
        }
    }

    fn run_work(&mut self, work: Walk, env: &mut WorkEnv<'_, Walk>) {
        env.assert_readable(work.ptr);
        let rec = *self.world.record(work.ptr);
        env.charge(self.work_ns);
        let mut v = rec.value;
        if let Some(plan) = self.plan {
            // The generation actually read: the renamed-storage stamp for
            // fetched/carried copies, the live generation for local reads.
            // A stale carry surfaces here as an old stamp.
            let gen = env
                .label_generation()
                .unwrap_or_else(|| plan.gen_of(work.ptr));
            v = v.wrapping_add(DiffPlan::stamp(work.ptr, gen));
        }
        self.sum = self.sum.wrapping_add(v);
        self.visited += 1;
        if !rec.next.is_null() {
            env.demand(rec.next, Walk { ptr: rec.next });
        }
    }

    fn object_size(&self, ptr: GPtr) -> u32 {
        self.world.classes.size(ptr.class())
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

    #[test]
    fn world_is_deterministic() {
        let a = SynthWorld::build(SynthParams::default());
        let b = SynthWorld::build(SynthParams::default());
        for n in 0..a.nodes {
            assert_eq!(a.expected_sum(n), b.expected_sum(n));
        }
    }

    #[test]
    fn record_count_matches() {
        let p = SynthParams::default();
        let w = SynthWorld::build(p);
        assert_eq!(
            w.total_records(),
            p.nodes as usize * p.lists_per_node * p.list_len
        );
    }

    #[test]
    fn zero_remote_fraction_stays_home() {
        let w = SynthWorld::build(SynthParams {
            remote_fraction: 0.0,
            ..SynthParams::default()
        });
        for node in 0..w.nodes {
            for list in 0..w.lists_per_node {
                let mut p = w.head(node, list);
                while !p.is_null() {
                    assert_eq!(p.node(), node);
                    p = w.record(p).next;
                }
            }
        }
    }

    #[test]
    fn single_node_world() {
        let w = SynthWorld::build(SynthParams {
            nodes: 1,
            remote_fraction: 0.9, // irrelevant with one node
            ..SynthParams::default()
        });
        assert!(w.expected_sum(0) > 0);
    }
}
