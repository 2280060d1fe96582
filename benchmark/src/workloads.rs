//! The four simulated workloads: world + host oracle, and one *rep* (proc
//! construction + machine run + collect — exactly what `run_phase_*` does)
//! under the measured configuration, its baseline, or the traced wrappers.
//!
//! The same types serve `serve_mix` at job size (see [`crate::serve`]), so
//! the service's jobs and the stand-alone workloads run identical code.

use crate::trace::{run_phase_spanned, PhaseCalls, Recorder, SpanApp, HARNESS_TID};
use apps::bh_dist::{BhApp, BhCost, BhWorld};
use apps::fmm_dist::{FmmCost, FmmEvalApp, FmmM2lApp, FmmWorld};
use apps::graph_dist::{GraphApp, GraphParams, GraphWorld};
use apps::setops_dist::{key_stamp, SetOp, SetopsApp, SetopsParams, SetopsWorld};
use dpa_core::{
    run_phase_differential, run_phase_dst, run_phase_migrating, DpaConfig, DstOptions,
    NodeSnapshot, PtrApp,
};
use nbody::bh::{all_accels, BhParams, WalkResult};
use nbody::cx::Cx;
use nbody::distrib::{plummer, uniform_square};
use nbody::fmm::{FmmParams, FmmSolver, Local};
use nbody::quadtree::QuadTree;
use sim_net::{FaultPlan, NetConfig, QueueKind, RunReport};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Relative tolerance of floating-point results against the host oracle —
/// the figure the repo's own force-correctness tests use (reductions
/// reassociate across schedules, so bits may differ).
pub const FP_RTOL: f64 = 1e-9;

/// Generator seed of every world (`plummer`, `uniform_square`,
/// `GraphParams.seed`, `SetopsParams.seed`): the repo's paper-scale seed,
/// so the benchmark's worlds are the ones its figures use. A constant, not
/// `--seed`: reseeding moves `sim_makespan_ms` by 3 % (Plummer), 1 %
/// (ordered set) and 16 % (power-law graph) from world to world, and a
/// simulated metric that moves with the seed cannot be compared exactly.
pub const WORLD_SEED: u64 = 1997;

/// The engine every measured rep runs on, pinned explicitly: sequential,
/// timing wheel, the unperturbed schedule, no faults, no budget. Never
/// `DstOptions::default()`, which reads `DPA_SIM_THREADS`/`DPA_SIM_QUEUE`.
pub fn measured_opts() -> DstOptions {
    lane_opts(QueueKind::Wheel, 1)
}

/// [`measured_opts`] with the queue or engine swapped (the layer lanes).
pub fn lane_opts(queue: QueueKind, threads: usize) -> DstOptions {
    DstOptions {
        schedule_seed: None,
        faults: FaultPlan::none(),
        threads,
        queue,
        max_events: u64::MAX,
        wall_deadline: None,
    }
}

/// How a rep executes.
pub enum Mode<'a> {
    /// The measured configuration through the public driver, wrappers
    /// absent — the only mode end-to-end metrics are taken in.
    Plain(&'a DstOptions),
    /// The comparison configuration (software caching, or from-scratch
    /// phases for the graph), one untimed run.
    Baseline(&'a DstOptions),
    /// The measured configuration with [`crate::trace`]'s wrappers in
    /// place; sampled call stats accumulate into the `PhaseCalls`.
    Spanned(&'a DstOptions, &'a mut Recorder, &'a mut PhaseCalls),
}

/// Everything one rep produced.
#[derive(Debug)]
pub struct Rep {
    /// One report per phase or sub-phase.
    pub reports: Vec<RunReport>,
    /// Per-phase node snapshots, for `check_completed`.
    pub snaps: Vec<Vec<NodeSnapshot>>,
    /// Integer results: bit-identical across schedules, variants and reps.
    pub ints: Vec<u64>,
    /// Floating-point results, compared against the oracle at [`FP_RTOL`].
    pub floats: Vec<f64>,
}

impl Rep {
    /// Simulator events over all phases.
    pub fn events(&self) -> u64 {
        self.reports.iter().map(|r| r.events_processed).sum()
    }

    /// Simulated makespan summed over phases, ns.
    pub fn makespan_ns(&self) -> u64 {
        self.reports.iter().map(|r| r.makespan().as_ns()).sum()
    }

    /// Simulated messages over all phases.
    pub fn msgs(&self) -> u64 {
        self.reports.iter().map(|r| r.stats.total_msgs()).sum()
    }

    /// Simulated payload bytes over all phases.
    pub fn bytes(&self) -> u64 {
        self.reports.iter().map(|r| r.stats.total_bytes()).sum()
    }
}

/// A workload the harness can run and check.
pub trait SimWorkload: Send + Sync {
    /// One rep under `mode`.
    fn run(&self, mode: Mode<'_>) -> Rep;

    /// Compare a rep's results with the host oracle.
    fn check(&self, rep: &Rep) -> Result<(), String>;

    /// The paper's execution time for this workload at this machine size,
    /// simulated seconds, if Table 1 gives one.
    fn paper_seconds(&self) -> Option<f64> {
        None
    }

    /// Bits of the workload's hot pointer, where it has one (the graph's
    /// hub vertex), for the per-pointer reply accounting.
    fn hot_ptr(&self) -> Option<u64> {
        None
    }

    /// For workloads whose driver builds its own procs (so handlers cannot
    /// be wrapped in the real run): a single spanned phase of the same app
    /// and configuration, giving this workload's own non-app cost per event.
    fn spanned_proxy(
        &self,
        opts: &DstOptions,
        rec: &mut Recorder,
    ) -> Option<(RunReport, PhaseCalls)> {
        let _ = (opts, rec);
        None
    }
}

/// One single-phase run under `mode`; `dpa` is the measured configuration
/// (the baseline substitutes software caching).
fn phase<A: PtrApp>(
    mode: &mut Mode<'_>,
    nodes: u16,
    dpa: DpaConfig,
    mk: impl FnMut(u16) -> A,
    collect: impl FnMut(u16, &A),
) -> (RunReport, Vec<NodeSnapshot>) {
    match mode {
        Mode::Plain(opts) => run_phase_dst(nodes, NetConfig::default(), dpa, opts, mk, collect),
        Mode::Baseline(opts) => run_phase_dst(
            nodes,
            NetConfig::default(),
            DpaConfig::caching(),
            opts,
            mk,
            collect,
        ),
        Mode::Spanned(opts, rec, calls) => {
            let ((report, snaps, c), _) = rec.span("phase", |rec| {
                run_phase_spanned(rec, nodes, NetConfig::default(), dpa, opts, mk, collect)
            });
            calls.add(&c);
            (report, snaps)
        }
    }
}

/// Worst relative error between `got` and `want`, taken over consecutive
/// groups of `k` components as vectors (k = 3: accelerations; k = 2:
/// complex fields), with the repo's guard against tiny magnitudes.
fn worst_rel_err(got: &[f64], want: &[f64], k: usize) -> f64 {
    assert_eq!(got.len(), want.len(), "result length");
    got.chunks(k)
        .zip(want.chunks(k))
        .map(|(g, w)| {
            let diff: f64 = g.iter().zip(w).map(|(a, b)| (a - b) * (a - b)).sum();
            let size: f64 = w.iter().map(|x| x * x).sum();
            diff.sqrt() / size.sqrt().max(1e-12)
        })
        .fold(0.0, f64::max)
}

// ------------------------------------------------------------------ bh

/// Barnes-Hut force phase, `DpaConfig::dpa(strip)`.
pub struct Bh {
    world: Arc<BhWorld>,
    oracle: Vec<WalkResult>,
    strip: usize,
    paper_seconds: Option<f64>,
}

impl Bh {
    /// `bodies` Plummer bodies from `seed` on `nodes` nodes, plus the
    /// sequential tree walk of every body as the oracle.
    pub fn new(seed: u64, bodies: usize, nodes: u16, strip: usize) -> Bh {
        let world = BhWorld::build(
            plummer(bodies, seed),
            nodes,
            1,
            BhParams::default(),
            BhCost::default(),
        );
        let oracle = all_accels(&world.tree, &world.bodies, world.params);
        Bh {
            world,
            oracle,
            strip,
            // Table 1, P = 16: 8.59 s for four steps of 16,384 bodies.
            paper_seconds: (bodies == 16_384 && nodes == 16).then_some(8.59 / 4.0),
        }
    }
}

impl SimWorkload for Bh {
    fn run(&self, mut mode: Mode<'_>) -> Rep {
        let world = &self.world;
        let mut accel = vec![0.0f64; 3 * world.bodies.len()];
        let mut ints = vec![0u64; 3];
        let (report, snaps) = phase(
            &mut mode,
            world.nodes,
            DpaConfig::dpa(self.strip),
            |i| BhApp::new(world.clone(), i),
            |i, app: &BhApp| {
                let base = world.splits[i as usize];
                for (off, a) in app.accel.iter().enumerate() {
                    accel[3 * (base + off)..][..3].copy_from_slice(&[a.x, a.y, a.z]);
                }
                ints[0] = ints[0].wrapping_add(app.interaction_hash);
                ints[1] += app.cell_interactions;
                ints[2] += app.body_interactions;
            },
        );
        Rep {
            reports: vec![report],
            snaps: vec![snaps],
            ints,
            floats: accel,
        }
    }

    fn check(&self, rep: &Rep) -> Result<(), String> {
        let want: Vec<f64> = self
            .oracle
            .iter()
            .flat_map(|w| [w.acc.x, w.acc.y, w.acc.z])
            .collect();
        let worst = worst_rel_err(&rep.floats, &want, 3);
        if worst >= FP_RTOL {
            return Err(format!("accel vs all_accels: worst rel err {worst:e}"));
        }
        let cells: u64 = self.oracle.iter().map(|w| w.cell_interactions).sum();
        let bodies: u64 = self.oracle.iter().map(|w| w.body_interactions).sum();
        if (rep.ints[1], rep.ints[2]) != (cells, bodies) {
            return Err(format!(
                "interaction counts ({}, {}) vs sequential walk ({cells}, {bodies})",
                rep.ints[1], rep.ints[2]
            ));
        }
        Ok(())
    }

    fn paper_seconds(&self) -> Option<f64> {
        self.paper_seconds
    }
}

// ------------------------------------------------------------------ fmm

/// FMM force phase (M2L sub-phase, barrier, downward + eval),
/// `DpaConfig::dpa(strip)`.
pub struct Fmm {
    world: Arc<FmmWorld>,
    oracle: Vec<Cx>,
    strip: usize,
}

impl Fmm {
    /// `particles` uniform particles from `seed`, `terms`-term expansions,
    /// plus the sequential solver run to completion as the oracle.
    pub fn new(seed: u64, particles: usize, terms: usize, nodes: u16, strip: usize) -> Fmm {
        let bodies = uniform_square(particles, seed);
        let zs: Vec<Cx> = bodies.iter().map(|b| Cx::new(b.pos.x, b.pos.y)).collect();
        let qs: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
        let params = FmmParams {
            terms,
            levels: QuadTree::level_for(particles, 16),
        };
        let world = FmmWorld::build(zs.clone(), qs.clone(), nodes, params, FmmCost::default());
        let mut solver = FmmSolver::new(zs, qs, params);
        solver.downward();
        let oracle = solver.evaluate();
        Fmm {
            world,
            oracle,
            strip,
        }
    }
}

impl SimWorkload for Fmm {
    fn run(&self, mut mode: Mode<'_>) -> Rep {
        let world = &self.world;
        let cfg = DpaConfig::dpa(self.strip);
        let mut hash = 0u64;
        let mut partials: Vec<HashMap<u32, Local>> =
            (0..world.nodes).map(|_| HashMap::new()).collect();
        let (r1, s1) = phase(
            &mut mode,
            world.nodes,
            cfg.clone(),
            |i| FmmM2lApp::new(world.clone(), i),
            |i, app: &FmmM2lApp| {
                partials[i as usize] = app.locals.clone();
                hash = hash.wrapping_add(app.interaction_hash);
            },
        );
        let mut fields = vec![0.0f64; 2 * world.solver.zs.len()];
        if !r1.completed {
            // The eval sub-phase has no input; the stall is the result.
            return Rep {
                reports: vec![r1],
                snaps: vec![s1],
                ints: vec![hash],
                floats: fields,
            };
        }
        let mut partials = partials.into_iter();
        let (r2, s2) = phase(
            &mut mode,
            world.nodes,
            cfg,
            |i| {
                FmmEvalApp::new(
                    world.clone(),
                    i,
                    partials.next().expect("one partial map per node"),
                )
            },
            |_, app: &FmmEvalApp| {
                for (i, f) in app.fields.iter().enumerate() {
                    if f.norm2() != 0.0 {
                        fields[2 * i] += f.re;
                        fields[2 * i + 1] += f.im;
                    }
                }
                hash = hash.wrapping_add(app.interaction_hash);
            },
        );
        Rep {
            reports: vec![r1, r2],
            snaps: vec![s1, s2],
            ints: vec![hash],
            floats: fields,
        }
    }

    fn check(&self, rep: &Rep) -> Result<(), String> {
        let want: Vec<f64> = self.oracle.iter().flat_map(|f| [f.re, f.im]).collect();
        let worst = worst_rel_err(&rep.floats, &want, 2);
        if worst >= FP_RTOL {
            return Err(format!(
                "fields vs FmmSolver::evaluate: worst rel err {worst:e}"
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------- graph

/// Power-law transitive closure across phase barriers:
/// `DpaConfig::dpa_replicating(strip)` through `run_phase_differential`,
/// against from-scratch `run_phase_migrating` + `dpa(strip)`.
pub struct Graph {
    world: Arc<GraphWorld>,
    oracle: Vec<u64>,
    strip: usize,
}

impl Graph {
    /// The world for `params`, plus a sequential BFS per root per phase as
    /// the oracle.
    pub fn new(params: GraphParams, strip: usize) -> Graph {
        let world = GraphWorld::build(params);
        let mut oracle = Vec::with_capacity(2 * params.phases as usize * params.nodes as usize);
        for ph in 0..params.phases {
            for node in 0..params.nodes {
                let (sum, reached) = world.expected(ph, node);
                oracle.extend([sum, reached]);
            }
        }
        Graph {
            world,
            oracle,
            strip,
        }
    }
}

impl SimWorkload for Graph {
    fn run(&self, mode: Mode<'_>) -> Rep {
        let world = &self.world;
        let nodes = world.params.nodes;
        let phases = world.params.phases as usize;
        let mut ints = vec![0u64; 2 * phases * nodes as usize];
        let mut put = |ph: usize, i: u16, app: &GraphApp| {
            let at = 2 * (ph * nodes as usize + i as usize);
            ints[at] = app.sum;
            ints[at + 1] = app.reached;
        };
        let cfg = DpaConfig::dpa_replicating(self.strip);
        let (reports, snaps, _) = match mode {
            Mode::Plain(opts) => run_phase_differential(
                nodes,
                NetConfig::default(),
                cfg,
                opts,
                phases,
                |ph, i| GraphApp::new(world.clone(), i, ph as u32),
                put,
            ),
            Mode::Baseline(opts) => run_phase_migrating(
                nodes,
                NetConfig::default(),
                DpaConfig::dpa(self.strip),
                opts,
                phases,
                |ph, i| GraphApp::new(world.clone(), i, ph as u32),
                put,
            ),
            Mode::Spanned(opts, rec, calls) => {
                // The differential driver builds its own procs, so only the
                // app can be wrapped. Phase spans run from a phase's first
                // `mk` to its last `collect`; what lies between two of them
                // is the driver's boundary pass.
                let clock = &*rec;
                let started = Cell::new(0u64);
                let marks = RefCell::new(Vec::with_capacity(phases));
                let sum = RefCell::new(PhaseCalls::default());
                let out = run_phase_differential(
                    nodes,
                    NetConfig::default(),
                    cfg,
                    opts,
                    phases,
                    |ph, i| {
                        if i == 0 {
                            started.set(clock.now_ns());
                        }
                        SpanApp::new(GraphApp::new(world.clone(), i, ph as u32), i)
                    },
                    |ph, i, app: &SpanApp<GraphApp>| {
                        put(ph, i, &app.inner);
                        let mut sum = sum.borrow_mut();
                        for k in 0..3 {
                            sum.apps[k].add(&app.stats[k]);
                        }
                        if i + 1 == nodes {
                            marks.borrow_mut().push((started.get(), clock.now_ns()));
                        }
                    },
                );
                let marks = marks.into_inner();
                let rep_id = rec.rep;
                for (k, &(start, end)) in marks.iter().enumerate() {
                    rec.push_closed("phase", start, end, rep_id, HARNESS_TID);
                    if let Some(&(next, _)) = marks.get(k + 1) {
                        rec.push_closed("boundary", end, next, rep_id, HARNESS_TID);
                    }
                }
                calls.add(&sum.into_inner());
                out
            }
        };
        Rep {
            reports,
            snaps,
            ints,
            floats: Vec::new(),
        }
    }

    fn check(&self, rep: &Rep) -> Result<(), String> {
        match rep.ints.iter().zip(&self.oracle).position(|(a, b)| a != b) {
            None => Ok(()),
            Some(at) => Err(format!(
                "closure checksum[{at}] {:#x} vs GraphWorld::expected {:#x}",
                rep.ints[at], self.oracle[at]
            )),
        }
    }

    fn hot_ptr(&self) -> Option<u64> {
        Some(self.world.vptr(0).bits())
    }

    fn spanned_proxy(
        &self,
        opts: &DstOptions,
        rec: &mut Recorder,
    ) -> Option<(RunReport, PhaseCalls)> {
        let world = &self.world;
        let (report, _, calls) = run_phase_spanned(
            rec,
            world.params.nodes,
            NetConfig::default(),
            DpaConfig::dpa_replicating(self.strip),
            opts,
            |i| GraphApp::new(world.clone(), i, 0),
            |_, _| {},
        );
        Some((report, calls))
    }
}

// --------------------------------------------------------------- setops

/// Ordered-set batch: inserts/deletes ride the update path while range
/// queries demand whole buckets. `DpaConfig::dpa(strip)`.
pub struct Setops {
    world: Arc<SetopsWorld>,
    /// `(range_sum, final_digest)` per node.
    oracle: Vec<(u64, u64)>,
    strip: usize,
}

impl Setops {
    /// The world for `params` plus the host oracle.
    pub fn new(params: SetopsParams, strip: usize) -> Setops {
        let world = SetopsWorld::build(params);
        let oracle = setops_expected(&world);
        Setops {
            world,
            oracle,
            strip,
        }
    }
}

/// `SetopsWorld::expected` for every node at once. The crate's oracle
/// scans the whole machine's op list once per owned key, which is fine at
/// test size and hours at benchmark size; this one hashes the inserted and
/// deleted keys first. Same semantics (an inserted key is present, else a
/// deleted key is absent, else initial membership), held to the crate's
/// oracle by a test at a size both can run.
pub fn setops_expected(world: &SetopsWorld) -> Vec<(u64, u64)> {
    let nodes = world.params.nodes;
    let mut inserted: HashSet<u64> = HashSet::new();
    let mut deleted: HashSet<u64> = HashSet::new();
    for node in 0..nodes {
        for op in world.batch(node) {
            match *op {
                SetOp::Insert(k) => drop(inserted.insert(k)),
                SetOp::Delete(k) => drop(deleted.insert(k)),
                SetOp::Range(..) => {}
            }
        }
    }
    (0..nodes)
        .map(|node| {
            let mut range_sum = 0u64;
            for op in world.batch(node) {
                if let SetOp::Range(lo, hi) = *op {
                    for k in (lo..hi).filter(|&k| world.initially_present(k)) {
                        range_sum = range_sum.wrapping_add(key_stamp(k));
                    }
                }
            }
            let mut digest = 0u64;
            for b in world.bucket_range(node) {
                for k in world.key_range(b) {
                    let present = inserted.contains(&k)
                        || (!deleted.contains(&k) && world.initially_present(k));
                    if present {
                        digest = digest.wrapping_add(key_stamp(k));
                    }
                }
            }
            (range_sum, digest)
        })
        .collect()
}

impl SimWorkload for Setops {
    fn run(&self, mut mode: Mode<'_>) -> Rep {
        let world = &self.world;
        let nodes = world.params.nodes;
        let mut ints = vec![0u64; 3 * nodes as usize];
        let (report, snaps) = phase(
            &mut mode,
            nodes,
            DpaConfig::dpa(self.strip),
            |i| SetopsApp::new(world.clone(), i),
            |i, app: &SetopsApp| {
                ints[3 * i as usize..][..3].copy_from_slice(&[
                    app.range_sum,
                    app.final_digest(),
                    app.applied,
                ]);
            },
        );
        Rep {
            reports: vec![report],
            snaps: vec![snaps],
            ints,
            floats: Vec::new(),
        }
    }

    fn check(&self, rep: &Rep) -> Result<(), String> {
        for (node, &(range_sum, digest)) in self.oracle.iter().enumerate() {
            let got = (rep.ints[3 * node], rep.ints[3 * node + 1]);
            if got != (range_sum, digest) {
                return Err(format!(
                    "node {node}: (range_sum, digest) {got:x?} vs oracle {:x?}",
                    (range_sum, digest)
                ));
            }
        }
        Ok(())
    }
}

// ----------------------------------------------------------------- sizes

/// Problem-size profile: the frozen benchmark sizes, or the sub-10-second
/// sizes the contract test runs (same code, same metric names).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// The sizes of record.
    Full,
    /// Seconds-long sizes for `--smoke`.
    Smoke,
}

/// Simulated machine size of the four stand-alone workloads.
pub const NODES: u16 = 16;

/// Build stand-alone workload `name` (set-up: world build + host-oracle
/// precompute). `None` for a name that is not a sim workload.
pub fn build(name: &str, profile: Profile) -> Option<Box<dyn SimWorkload>> {
    let full = profile == Profile::Full;
    Some(match name {
        "bh16" => Box::new(Bh::new(
            WORLD_SEED,
            if full { 16_384 } else { 1_024 },
            NODES,
            50,
        )),
        "fmm16" => {
            let (particles, terms) = if full { (32_768, 29) } else { (2_048, 8) };
            Box::new(Fmm::new(WORLD_SEED, particles, terms, NODES, 50))
        }
        "graph_hub" => Box::new(Graph::new(
            GraphParams {
                n: if full { 32_768 } else { 1_024 },
                nodes: NODES,
                degree: 3,
                skew: 1.6,
                hub_extra: 24,
                phases: if full { 6 } else { 3 },
                rewire_permille: 120,
                root_stride: 1,
                seed: WORLD_SEED,
            },
            8,
        )),
        "setops_rw" => Box::new(Setops::new(
            SetopsParams {
                universe: if full { 2_097_152 } else { 65_536 },
                buckets: if full { 4_096 } else { 256 },
                nodes: NODES,
                ops_per_node: if full { 32_768 } else { 1_024 },
                fill_permille: 400,
                skew: 1.5,
                range_buckets: 4,
                seed: WORLD_SEED,
            },
            8,
        )),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setops_oracle_matches_the_crates_own() {
        let world = SetopsWorld::build(SetopsParams {
            universe: 4_096,
            buckets: 64,
            nodes: 4,
            ops_per_node: 96,
            seed: 7,
            ..SetopsParams::default()
        });
        let ours = setops_expected(&world);
        for node in 0..4u16 {
            assert_eq!(ours[node as usize], world.expected(node), "node {node}");
        }
    }

    #[test]
    fn rel_err_groups_components_as_vectors() {
        assert_eq!(worst_rel_err(&[1.0, 2.0, 2.0], &[1.0, 2.0, 2.0], 3), 0.0);
        let e = worst_rel_err(&[3.0, 0.0, 0.0, 1.0], &[3.0, 0.0, 0.0, 2.0], 2);
        assert!((e - 0.5).abs() < 1e-12, "{e}");
    }
}
