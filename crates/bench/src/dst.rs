//! Deterministic-simulation-testing machinery shared by the `dst` binary
//! and the committed-corpus regression tests.
//!
//! Every run is a pure function of `(workload, schedule seed, fault plan)`,
//! so any failure is replayable bit-for-bit. This module owns the pieces
//! the sweep and the replayers both need: the pre-built worlds, the digest
//! comparison rules, the per-run invariant checks, and the corpus case
//! file format (`workload = ... / seed = ... / plan = ...`).

use apps::bh_dist::{BhApp, BhWorld};
use apps::fmm_dist::{FmmEvalApp, FmmM2lApp, FmmWorld};
use apps::graph_dist::{GraphApp, GraphParams, GraphWorld};
use apps::relax::{RelaxApp, RelaxWorld};
use apps::setops_dist::{SetopsApp, SetopsParams, SetopsWorld};
use crate::{bh_world_sized, fmm_world_sized};
use dpa_core::invariant::{check_completed, check_conservation, NodeSnapshot};
use dpa_core::synth::{SynthApp, SynthParams, SynthWorld};
use dpa_core::{run_phase_dst, run_phases, DiffPlan, DpaConfig, DstOptions};
use nbody::fmm::Local;
use sim_net::{FaultPlan, NetConfig, NodePause, RunReport};
use std::collections::HashMap;
use std::sync::Arc;

/// Extra per-delivery jitter used whenever a schedule seed is set, ns.
pub const JITTER_NS: u64 = 2_000;
/// Relative tolerance for floating-point digests across schedules (the
/// reduction order differs, so bits may not).
pub const FP_RTOL: f64 = 1e-9;
/// Every fault-plan name the sweep explores.
pub const ALL_PLANS: &[&str] = &["none", "drop", "dup", "delay", "pause"];
/// The CI-sized subset of fault plans.
pub const SMOKE_PLANS: &[&str] = &["none", "drop"];
/// Every workload name the sweep explores. The `-mig` workloads run the
/// same apps multi-phase with locality-driven object migration enabled
/// (epoch affinity, departs, forwards, the boundary pass). The `-adapt`
/// workloads run under the adaptive strip controller
/// ([`dpa_core::stripctl`]) with bounds tight enough that every node
/// crosses several retune boundaries; `bh-adapt` is additionally
/// multi-phase so the controllers carry across barriers. The `-diff`
/// workloads run multi-timestep with **differential re-alignment**
/// ([`DpaConfig::differential`]): tables and cached arrivals carry across
/// barriers, patched by boundary deltas; `bh-diff` additionally enables
/// migration so delta routing composes with re-homing. The skew-adversarial
/// family: `graph` is semi-naive transitive closure over a mutable
/// power-law graph, run differentially — structural edge rewires advance
/// object generations at every barrier, so the carried hub entries are
/// invalidated by *topology* changes, not a value-change schedule;
/// `graph-mig` runs the same closure multi-phase with migration chasing
/// the hot hub (many consumers, no dominant one); `setops` is the
/// batch-parallel ordered-set workload with power-law-hot range queries.
/// The `-repl` workloads run under **read-mostly replication**
/// ([`DpaConfig::dpa_replicating`]): the hot hub is promoted at a phase
/// boundary, broadcast to its consumer set, and every fault-plan hazard
/// (dropped broadcast, duplicated broadcast, delayed delta) must leave
/// the digests bit-identical or produce a diagnosable stall — never a
/// stale read.
pub const WORKLOADS: &[&str] = &[
    "synth-dpa",
    "synth-caching",
    "bh",
    "fmm",
    "relax",
    "synth-mig",
    "bh-mig",
    "synth-adapt",
    "bh-adapt",
    "synth-diff",
    "bh-diff",
    "graph",
    "graph-mig",
    "graph-repl",
    "bh-repl",
    "setops",
];
/// Adaptive strip bounds for the `-adapt` workloads (deliberately tight:
/// the small DST worlds must still cross retune boundaries).
pub const ADAPT_BOUNDS: (usize, usize) = (2, 64);
/// Phases per migration workload run (tables carry across boundaries).
pub const MIG_PHASES: usize = 3;
/// Timesteps per differential workload run — enough boundaries that a
/// carried entry can go stale, be invalidated, and be carried again.
pub const DIFF_PHASES: usize = 4;

/// The change schedule shared by every `-diff` run: ~15% of objects mutate
/// per boundary, which exercises both the invalidation path and the
/// carried-entry fast path in every phase.
pub fn diff_plan() -> DiffPlan {
    DiffPlan {
        seed: 0xD1FF_F00D,
        change_permille: 150,
        phase: 0,
    }
}
/// Where failing cases are recorded, relative to the repository root.
pub const CORPUS_DIR: &str = "tests/dst_corpus";

// ---------------------------------------------------------------- digests

/// A workload's result, in comparable form.
#[derive(Clone, Debug)]
pub enum Digest {
    /// Integer checksums: must be bit-identical across schedules.
    Ints(Vec<u64>),
    /// Floating-point results: compared with [`FP_RTOL`].
    Floats(Vec<f64>),
}

impl Digest {
    /// `None` if equivalent, else a description of the first mismatch.
    pub fn diff(&self, other: &Digest) -> Option<String> {
        match (self, other) {
            (Digest::Ints(a), Digest::Ints(b)) => {
                if a.len() != b.len() {
                    return Some(format!("digest length {} vs {}", a.len(), b.len()));
                }
                a.iter().zip(b).position(|(x, y)| x != y).map(|i| {
                    format!("checksum[{i}]: {:#x} vs {:#x} (must be bit-identical)", a[i], b[i])
                })
            }
            (Digest::Floats(a), Digest::Floats(b)) => {
                if a.len() != b.len() {
                    return Some(format!("digest length {} vs {}", a.len(), b.len()));
                }
                a.iter().zip(b).position(|(x, y)| {
                    let scale = x.abs().max(y.abs()).max(1e-300);
                    (x - y).abs() / scale > FP_RTOL
                }).map(|i| format!("value[{i}]: {} vs {} (rtol {FP_RTOL})", a[i], b[i]))
            }
            _ => Some("digest kind mismatch".to_string()),
        }
    }
}

// ---------------------------------------------------------------- workloads

/// Pre-built worlds (deterministic; shared by every run).
pub struct Worlds {
    /// Synthetic pointer-chasing lists.
    pub synth: Arc<SynthWorld>,
    /// Small distributed Barnes-Hut instance.
    pub bh: Arc<BhWorld>,
    /// Small distributed FMM instance.
    pub fmm: Arc<FmmWorld>,
    /// Small graph-relaxation instance.
    pub relax: Arc<RelaxWorld>,
    /// Small power-law transitive-closure instance (hot hub on node 0).
    pub graph: Arc<GraphWorld>,
    /// Small distributed ordered-set instance (hot buckets on node 0).
    pub setops: Arc<SetopsWorld>,
}

impl Worlds {
    /// Build the standard DST worlds.
    pub fn build() -> Worlds {
        Worlds {
            synth: SynthWorld::build(SynthParams {
                nodes: 4,
                lists_per_node: 8,
                list_len: 14,
                remote_fraction: 0.5,
                shared_fraction: 0.4,
                ..SynthParams::default()
            }),
            bh: bh_world_sized(192, 4),
            fmm: fmm_world_sized(256, 8, 4),
            relax: RelaxWorld::build(96, 4, 4, 0.5, 0xDE7),
            graph: GraphWorld::build(GraphParams {
                n: 96,
                seed: 0x06EA_9D57,
                ..GraphParams::default()
            }),
            setops: SetopsWorld::build(SetopsParams {
                universe: 2048,
                ops_per_node: 32,
                seed: 0x05E7_0D57,
                ..SetopsParams::default()
            }),
        }
    }
}

/// Everything the checkers need from one run.
pub struct Outcome {
    /// Whether every node reached quiescence.
    pub completed: bool,
    /// Packets lost to fault injection.
    pub dropped: u64,
    /// The workload's comparable result.
    pub digest: Digest,
    /// Per-node runtime-state snapshots.
    pub snaps: Vec<NodeSnapshot>,
    /// Stall diagnoses ("" when none).
    pub stalls: String,
    /// Simulator events processed (summed over phases) — what the run
    /// service bills to the tenant's event budget.
    pub events: u64,
    /// `true` when (any phase of) the run was stopped by the
    /// [`DstOptions::max_events`] guard rather than reaching quiescence.
    pub budget_exhausted: bool,
    /// Simulated makespan in nanoseconds (summed over phases).
    pub makespan_ns: u64,
}

/// Every observable bit of an [`Outcome`], in comparable form — shared by
/// the engine- and queue-equivalence suites. Floating-point digests are
/// rendered by *bit pattern*, not tolerance: two configurations claiming
/// bit-identity must produce the same schedule, hence the same reduction
/// order, hence the same bits.
pub fn fingerprint(o: &Outcome) -> (bool, u64, String, String, String) {
    let digest = match &o.digest {
        Digest::Ints(v) => format!("ints:{v:x?}"),
        Digest::Floats(v) => {
            let bits: Vec<u64> = v.iter().map(|f| f.to_bits()).collect();
            format!("floats:{bits:x?}")
        }
    };
    (
        o.completed,
        o.dropped,
        digest,
        format!("{:?}", o.snaps),
        o.stalls.clone(),
    )
}

/// Network config for a run: jitter only when the schedule is perturbed.
pub fn net_for(opts: &DstOptions) -> NetConfig {
    NetConfig {
        jitter_ns: if opts.schedule_seed.is_some() { JITTER_NS } else { 0 },
        ..NetConfig::default()
    }
}

/// Collapse a multi-phase migration run into one [`Outcome`]. Snapshots of
/// all phases are concatenated — the invariant checkers accept repeated
/// per-node snapshots (carried tables make the same adoption visible in
/// every later phase).
fn mig_outcome(
    reports: Vec<RunReport>,
    snap_sets: Vec<Vec<NodeSnapshot>>,
    digest: Digest,
) -> Outcome {
    let stalls = reports
        .iter()
        .map(|r| r.stall_summary())
        .filter(|s| !s.is_empty())
        .collect::<Vec<_>>()
        .join("; ");
    Outcome {
        completed: reports.iter().all(|r| r.completed),
        dropped: reports.iter().map(|r| r.stats.dropped_packets).sum(),
        digest,
        snaps: snap_sets.into_iter().flatten().collect(),
        stalls,
        events: reports.iter().map(|r| r.events_processed).sum(),
        budget_exhausted: reports.iter().any(|r| r.budget_exhausted),
        makespan_ns: reports.iter().map(|r| r.makespan().as_ns()).sum(),
    }
}

/// [`Outcome`] of a single-phase run.
fn one_outcome(report: RunReport, snaps: Vec<NodeSnapshot>, digest: Digest) -> Outcome {
    Outcome {
        completed: report.completed,
        dropped: report.stats.dropped_packets,
        digest,
        stalls: report.stall_summary(),
        snaps,
        events: report.events_processed,
        budget_exhausted: report.budget_exhausted,
        makespan_ns: report.makespan().as_ns(),
    }
}

fn merge(
    report: &RunReport,
    mut snaps: Vec<NodeSnapshot>,
    extra: (RunReport, Vec<NodeSnapshot>),
    digest: Digest,
) -> Outcome {
    let (r2, s2) = extra;
    snaps.extend(s2);
    let stalls = [report.stall_summary(), r2.stall_summary()]
        .iter()
        .filter(|s| !s.is_empty())
        .cloned()
        .collect::<Vec<_>>()
        .join("; ");
    Outcome {
        completed: report.completed && r2.completed,
        dropped: report.stats.dropped_packets + r2.stats.dropped_packets,
        digest,
        snaps,
        stalls,
        events: report.events_processed + r2.events_processed,
        budget_exhausted: report.budget_exhausted || r2.budget_exhausted,
        makespan_ns: report.makespan().as_ns() + r2.makespan().as_ns(),
    }
}

/// Execute one `(workload, options)` run and collect its outcome.
///
/// Panics on an unknown workload name; use [`WORKLOADS`] to validate.
pub fn run_one(w: &Worlds, workload: &str, opts: &DstOptions) -> Outcome {
    run_one_mode(w, workload, opts, true)
}

/// [`run_one`] with the execution mode of the `-diff` workloads pinned:
/// `differential = true` runs them under their differential config (the
/// default, and what the sweep exercises); `false` runs the *same
/// multi-timestep workload* through the same [`run_phases`] with the carry
/// off, from scratch every phase — the comparator the equivalence suite
/// holds the differential digests bit-identical to. The flag is ignored
/// for every other workload.
pub fn run_one_mode(w: &Worlds, workload: &str, opts: &DstOptions, differential: bool) -> Outcome {
    let net = net_for(opts);
    // A `-diff`/`-repl` workload's config, or its from-scratch comparator:
    // plain DPA at the same strip, nothing carried.
    let mode = |carrying: DpaConfig, strip: usize| {
        if differential {
            carrying
        } else {
            DpaConfig::dpa(strip)
        }
    };
    match workload {
        "synth-diff" => {
            let world = w.synth.clone();
            let nodes = world.nodes;
            let plan = diff_plan();
            let mut sums = vec![0u64; DIFF_PHASES * nodes as usize];
            let mk = |ph: usize, i: u16| {
                SynthApp::new_diff(world.clone(), i, 500, plan.at_phase(ph as u32))
            };
            let collect = |ph: usize, i: u16, app: &SynthApp| {
                sums[ph * nodes as usize + i as usize] = app.sum;
            };
            let cfg = mode(DpaConfig::dpa_differential(4), 4);
            let (reports, snap_sets, _) =
                run_phases(nodes, net, cfg, opts, DIFF_PHASES, mk, collect);
            mig_outcome(reports, snap_sets, Digest::Ints(sums))
        }
        "bh-diff" => {
            let world = w.bh.clone();
            let nodes = world.nodes;
            let plan = diff_plan();
            let mut hashes = vec![0u64; DIFF_PHASES * nodes as usize];
            let mk = |ph: usize, i: u16| BhApp::new_diff(world.clone(), i, plan.at_phase(ph as u32));
            let collect = |ph: usize, i: u16, app: &BhApp| {
                hashes[ph * nodes as usize + i as usize] = app.interaction_hash;
            };
            // Differential composes with re-homing: same migration knobs as
            // `dpa_migrating`, plus the differential barrier protocol.
            let cfg = DpaConfig {
                differential,
                ..DpaConfig::dpa_migrating(8)
            };
            let (reports, snap_sets, _) =
                run_phases(nodes, net, cfg, opts, DIFF_PHASES, mk, collect);
            mig_outcome(reports, snap_sets, Digest::Ints(hashes))
        }
        "graph" => {
            // Transitive closure with *structural* deltas: edge rewires at
            // every barrier advance vertex generations, so the carried hub
            // entries go stale from topology changes — the differential
            // protocol must invalidate them or the closure checksum (which
            // folds the generation actually read) diverges.
            let world = w.graph.clone();
            let nodes = world.params.nodes;
            let mut sums = vec![0u64; 2 * DIFF_PHASES * nodes as usize];
            let mk = |ph: usize, i: u16| GraphApp::new(world.clone(), i, ph as u32);
            let collect = |ph: usize, i: u16, app: &GraphApp| {
                let at = 2 * (ph * nodes as usize + i as usize);
                sums[at] = app.sum;
                sums[at + 1] = app.reached;
            };
            let cfg = mode(DpaConfig::dpa_differential(8), 8);
            let (reports, snap_sets, _) =
                run_phases(nodes, net, cfg, opts, DIFF_PHASES, mk, collect);
            mig_outcome(reports, snap_sets, Digest::Ints(sums))
        }
        "graph-repl" => {
            // The closure under read-mostly replication: the hub crosses
            // the promotion bar at the first boundary (every non-owner
            // consumes it, none dominates), so later phases read it from
            // local replicas. A dropped broadcast must degrade to a demand
            // fetch or a delta-gate stall; a duplicated one must dedup on
            // `(sender, seq)` — either way the checksums cannot move.
            let world = w.graph.clone();
            let nodes = world.params.nodes;
            let mut sums = vec![0u64; 2 * DIFF_PHASES * nodes as usize];
            let mk = |ph: usize, i: u16| GraphApp::new(world.clone(), i, ph as u32);
            let collect = |ph: usize, i: u16, app: &GraphApp| {
                let at = 2 * (ph * nodes as usize + i as usize);
                sums[at] = app.sum;
                sums[at + 1] = app.reached;
            };
            let cfg = mode(DpaConfig::dpa_replicating(8), 8);
            let (reports, snap_sets, _) =
                run_phases(nodes, net, cfg, opts, DIFF_PHASES, mk, collect);
            mig_outcome(reports, snap_sets, Digest::Ints(sums))
        }
        "bh-repl" => {
            // Barnes-Hut under replication: the octree root and the hot
            // upper-level cells are the replication candidates, and the
            // value-change schedule (not topology) advances generations —
            // the complementary staleness source to `graph-repl`.
            let world = w.bh.clone();
            let nodes = world.nodes;
            let plan = diff_plan();
            let mut hashes = vec![0u64; DIFF_PHASES * nodes as usize];
            let mk = |ph: usize, i: u16| BhApp::new_diff(world.clone(), i, plan.at_phase(ph as u32));
            let collect = |ph: usize, i: u16, app: &BhApp| {
                hashes[ph * nodes as usize + i as usize] = app.interaction_hash;
            };
            let cfg = mode(DpaConfig::dpa_replicating(8), 8);
            let (reports, snap_sets, _) =
                run_phases(nodes, net, cfg, opts, DIFF_PHASES, mk, collect);
            mig_outcome(reports, snap_sets, Digest::Ints(hashes))
        }
        "graph-mig" => {
            // The closure under dominant-consumer migration: the hub has
            // *many* consumers and no dominant one, so the affinity pass
            // faces its adversarial case (any pick strands the rest on the
            // forwarding path).
            let world = w.graph.clone();
            let nodes = world.params.nodes;
            let mut sums = vec![0u64; 2 * MIG_PHASES * nodes as usize];
            let (reports, snap_sets, _) = run_phases(
                nodes,
                net,
                DpaConfig::dpa_migrating(8),
                opts,
                MIG_PHASES,
                |ph, i| GraphApp::new(world.clone(), i, ph as u32),
                |ph, i, app: &GraphApp| {
                    let at = 2 * (ph * nodes as usize + i as usize);
                    sums[at] = app.sum;
                    sums[at + 1] = app.reached;
                },
            );
            mig_outcome(reports, snap_sets, Digest::Ints(sums))
        }
        "setops" => {
            // Mixed insert/delete/range batches; range probes are
            // power-law-hot toward node 0's buckets, and the mutations
            // ride the remote-reduction path (exactly-once under dup).
            let world = w.setops.clone();
            let nodes = world.params.nodes;
            let mut sums = vec![0u64; 3 * nodes as usize];
            let (report, snaps) = run_phase_dst(
                nodes,
                net,
                DpaConfig::dpa(8),
                opts,
                |i| SetopsApp::new(world.clone(), i),
                |i, app: &SetopsApp| {
                    let at = 3 * i as usize;
                    sums[at] = app.range_sum;
                    sums[at + 1] = app.final_digest();
                    sums[at + 2] = app.applied;
                },
            );
            one_outcome(report, snaps, Digest::Ints(sums))
        }
        "synth-dpa" | "synth-caching" => {
            let cfg = if workload == "synth-dpa" {
                DpaConfig::dpa(4)
            } else {
                DpaConfig::caching()
            };
            let world = w.synth.clone();
            let mut sums = vec![0u64; world.nodes as usize];
            let (report, snaps) = run_phase_dst(
                world.nodes,
                net,
                cfg,
                opts,
                |i| SynthApp::new(world.clone(), i, 500),
                |i, app: &SynthApp| sums[i as usize] = app.sum,
            );
            one_outcome(report, snaps, Digest::Ints(sums))
        }
        "bh" => {
            let world = w.bh.clone();
            let n = world.bodies.len();
            let mut accel = vec![0.0f64; 3 * n];
            let (report, snaps) = run_phase_dst(
                world.nodes,
                net,
                DpaConfig::dpa(8),
                opts,
                |i| BhApp::new(world.clone(), i),
                |i, app: &BhApp| {
                    let base = world.splits[i as usize];
                    for (off, a) in app.accel.iter().enumerate() {
                        let at = 3 * (base + off);
                        accel[at] = a.x;
                        accel[at + 1] = a.y;
                        accel[at + 2] = a.z;
                    }
                },
            );
            one_outcome(report, snaps, Digest::Floats(accel))
        }
        "fmm" => {
            let world = w.fmm.clone();
            // Sub-phase 1: M2L gather.
            let mut partials: Vec<HashMap<u32, Local>> =
                (0..world.nodes).map(|_| HashMap::new()).collect();
            let (r1, s1) = run_phase_dst(
                world.nodes,
                net.clone(),
                DpaConfig::dpa(8),
                opts,
                |i| FmmM2lApp::new(world.clone(), i),
                |i, app: &FmmM2lApp| partials[i as usize] = app.locals.clone(),
            );
            if !r1.completed {
                // Phase 2 input is incomplete; report the phase-1 stall.
                return one_outcome(r1, s1, Digest::Floats(Vec::new()));
            }
            // Sub-phase 2: downward + evaluation.
            let n = world.solver.zs.len();
            let mut fields = vec![0.0f64; 2 * n];
            let mut partials_iter = partials.into_iter();
            let extra = run_phase_dst(
                world.nodes,
                net,
                DpaConfig::dpa(8),
                opts,
                |i| {
                    let part = partials_iter.next().expect("one partial per node");
                    FmmEvalApp::new(world.clone(), i, part)
                },
                |_, app: &FmmEvalApp| {
                    for (i, f) in app.fields.iter().enumerate() {
                        if f.norm2() != 0.0 {
                            fields[2 * i] += f.re;
                            fields[2 * i + 1] += f.im;
                        }
                    }
                },
            );
            merge(&r1, s1, extra, Digest::Floats(fields))
        }
        "relax" => {
            let world = w.relax.clone();
            let n = world.vertices.len();
            let mut next = vec![0.0f64; n];
            let (report, snaps) = run_phase_dst(
                world.nodes,
                net,
                DpaConfig::dpa(8),
                opts,
                |i| RelaxApp::new(world.clone(), i),
                |i, app: &RelaxApp| {
                    for v in world.range(i) {
                        next[v] = app.next[v];
                    }
                },
            );
            one_outcome(report, snaps, Digest::Floats(next))
        }
        "synth-mig" => {
            let world = w.synth.clone();
            let nodes = world.nodes;
            let mut sums = vec![0u64; MIG_PHASES * nodes as usize];
            let (reports, snap_sets, _) = run_phases(
                nodes,
                net,
                DpaConfig::dpa_migrating(4),
                opts,
                MIG_PHASES,
                |_, i| SynthApp::new(world.clone(), i, 500),
                |ph, i, app: &SynthApp| sums[ph * nodes as usize + i as usize] = app.sum,
            );
            mig_outcome(reports, snap_sets, Digest::Ints(sums))
        }
        "synth-adapt" => {
            let world = w.synth.clone();
            let cfg = DpaConfig::dpa_adaptive(ADAPT_BOUNDS.0, ADAPT_BOUNDS.1);
            let mut sums = vec![0u64; world.nodes as usize];
            let (report, snaps) = run_phase_dst(
                world.nodes,
                net,
                cfg,
                opts,
                |i| SynthApp::new(world.clone(), i, 500),
                |i, app: &SynthApp| sums[i as usize] = app.sum,
            );
            one_outcome(report, snaps, Digest::Ints(sums))
        }
        "bh-adapt" => {
            let world = w.bh.clone();
            let nodes = world.nodes;
            let cfg = DpaConfig::dpa_adaptive(ADAPT_BOUNDS.0, ADAPT_BOUNDS.1);
            let mut hashes = vec![0u64; MIG_PHASES * nodes as usize];
            let (reports, snap_sets, _) = run_phases(
                nodes,
                net,
                cfg,
                opts,
                MIG_PHASES,
                |_, i| BhApp::new(world.clone(), i),
                |ph, i, app: &BhApp| {
                    hashes[ph * nodes as usize + i as usize] = app.interaction_hash;
                },
            );
            mig_outcome(reports, snap_sets, Digest::Ints(hashes))
        }
        "bh-mig" => {
            let world = w.bh.clone();
            let nodes = world.nodes;
            let mut hashes = vec![0u64; MIG_PHASES * nodes as usize];
            let (reports, snap_sets, _) = run_phases(
                nodes,
                net,
                DpaConfig::dpa_migrating(8),
                opts,
                MIG_PHASES,
                |_, i| BhApp::new(world.clone(), i),
                |ph, i, app: &BhApp| {
                    hashes[ph * nodes as usize + i as usize] = app.interaction_hash;
                },
            );
            mig_outcome(reports, snap_sets, Digest::Ints(hashes))
        }
        other => panic!("unknown workload {other:?}"),
    }
}

// ---------------------------------------------------------------- plans

/// Build the named fault plan, derived deterministically from `seed`.
///
/// Panics on an unknown plan name; use [`ALL_PLANS`] to validate.
pub fn plan_for(name: &str, seed: u64) -> FaultPlan {
    let fs = seed ^ 0xFA17;
    match name {
        "none" => FaultPlan::none(),
        "drop" => FaultPlan::drop(fs, 0.02),
        "dup" => FaultPlan::duplicate(fs, 0.10),
        "delay" => FaultPlan::delay(fs, 0.30, 50_000),
        "pause" => {
            // Freeze two (seed-chosen) nodes in staggered windows: lossless,
            // but deliveries bunch up at the window edges and replay in a
            // burst — the adversarial schedule for epoch-driven migration.
            FaultPlan {
                pauses: vec![
                    NodePause {
                        node: (seed % 4) as u16,
                        from_ns: 25_000,
                        until_ns: 175_000,
                    },
                    NodePause {
                        node: ((seed >> 2) % 4) as u16,
                        from_ns: 210_000,
                        until_ns: 330_000,
                    },
                ],
                ..FaultPlan::default()
            }
        }
        other => panic!("unknown plan {other:?}"),
    }
}

/// Map a sweep seed to a schedule-perturbation seed.
pub fn schedule_seed(seed: u64) -> u64 {
    0x5EED ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Check one perturbed run against its baseline; returns violation strings.
pub fn check_run(plan_name: &str, baseline: &Digest, out: &Outcome) -> Vec<String> {
    let lossy = plan_name == "drop";
    let mut violations = Vec::new();
    if out.completed {
        for v in check_completed(&out.snaps, lossy) {
            violations.push(v.to_string());
        }
        // A completed run that dropped nothing must agree with the
        // baseline; with packets actually lost, only fire-and-forget
        // updates can be missing (anything else would have stalled), so
        // the digest legitimately differs and conservation (checked
        // above) is the oracle instead.
        if out.dropped == 0 {
            if let Some(d) = baseline.diff(&out.digest) {
                violations.push(format!("result diverged from baseline: {d}"));
            }
        }
    } else {
        for v in check_conservation(&out.snaps) {
            violations.push(v.to_string());
        }
        if !lossy {
            violations.push(format!(
                "stalled under lossless plan '{plan_name}': {}",
                out.stalls
            ));
        } else if out.stalls.is_empty() {
            violations.push("stalled without a stall diagnosis".to_string());
        }
    }
    violations
}

// ---------------------------------------------------------------- accounting

/// Machine-wide (request, reply, update) aggregation factors — wire
/// entries per message on each path — computed from run snapshots. A path
/// that sent no messages reports 0.
pub fn agg_factors(snaps: &[NodeSnapshot]) -> (f64, f64, f64) {
    let ratio = |entries: u64, msgs: u64| {
        if msgs == 0 { 0.0 } else { entries as f64 / msgs as f64 }
    };
    let sum = |f: &dyn Fn(&NodeSnapshot) -> u64| snaps.iter().map(f).sum::<u64>();
    (
        ratio(sum(&|s| s.req_sent), sum(&|s| s.request_msgs)),
        ratio(sum(&|s| s.reply_sent), sum(&|s| s.reply_msgs)),
        ratio(sum(&|s| s.upd_sent), sum(&|s| s.update_msgs)),
    )
}

// ---------------------------------------------------------------- corpus

/// Record a failing case as a replayable corpus file; returns its path.
pub fn corpus_write(workload: &str, seed: u64, plan: &str, violations: &[String]) -> String {
    let _ = std::fs::create_dir_all(CORPUS_DIR);
    let path = format!("{CORPUS_DIR}/{workload}-s{seed}-{plan}.case");
    let mut body = String::new();
    body.push_str("# dst failing case — replay with:\n");
    body.push_str(&format!(
        "#   cargo run --release -p bench --bin dst -- --replay {path}\n"
    ));
    body.push_str(&format!("workload = {workload}\nseed = {seed}\nplan = {plan}\n"));
    for v in violations {
        body.push_str(&format!("# violation: {v}\n"));
    }
    let _ = std::fs::write(&path, body);
    path
}

/// Re-run one recorded corpus case.
///
/// Returns 0 when the case no longer reproduces, 1 when it still violates
/// an invariant, 2 on a malformed case file. Honors `DPA_SIM_THREADS`
/// (via [`DstOptions::default`]); use [`replay_with_threads`] to pin the
/// engine explicitly.
pub fn replay(path: &str) -> i32 {
    replay_with_threads(path, sim_net::env_threads())
}

/// [`replay`] with an explicit simulator thread count — the DST smoke lane
/// for the parallel engine replays every committed corpus case with
/// `threads > 1` and must reach the same verdict as the sequential replay.
pub fn replay_with_threads(path: &str, threads: usize) -> i32 {
    let body = match std::fs::read_to_string(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: cannot read corpus case {path}: {e}");
            return 2;
        }
    };
    let mut fields: HashMap<String, String> = HashMap::new();
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((k, v)) = line.split_once('=') {
            fields.insert(k.trim().to_string(), v.trim().to_string());
        }
    }
    let Some(workload) = fields.get("workload") else {
        eprintln!("error: {path}: missing `workload = ...` line");
        return 2;
    };
    let seed: u64 = match fields.get("seed").map(|s| s.parse()) {
        Some(Ok(s)) => s,
        Some(Err(e)) => {
            eprintln!("error: {path}: bad seed: {e}");
            return 2;
        }
        None => {
            eprintln!("error: {path}: missing `seed = ...` line");
            return 2;
        }
    };
    // `workload = service` cases replay the run-service scheduler model
    // instead of a simulator run: the case names a scenario (a canned
    // (config, load profile) pair) plus the seed. Scheduler decisions are
    // engine-independent, so the threads knob is ignored here.
    if workload == "service" {
        let Some(name) = fields.get("scenario") else {
            eprintln!("error: {path}: missing `scenario = ...` line for a service case");
            return 2;
        };
        println!("replaying service scenario={name} seed={seed}");
        return match dpa_serve::replay_scenario(name, seed) {
            Err(e) => {
                eprintln!("error: {path}: {e}");
                2
            }
            Ok(v) if v.is_empty() => {
                println!("  no violations — case no longer reproduces");
                0
            }
            Ok(v) => {
                for violation in &v {
                    println!("  VIOLATION: {violation}");
                }
                1
            }
        };
    }
    if !WORKLOADS.contains(&workload.as_str()) {
        eprintln!("error: {path}: unknown workload {workload:?} (expected one of {WORKLOADS:?})");
        return 2;
    }
    let Some(plan) = fields.get("plan") else {
        eprintln!("error: {path}: missing `plan = ...` line");
        return 2;
    };
    if !ALL_PLANS.contains(&plan.as_str()) {
        eprintln!("error: {path}: unknown plan {plan:?} (expected one of {ALL_PLANS:?})");
        return 2;
    }

    println!("replaying {workload} seed={seed} plan={plan} threads={threads}");
    let w = Worlds::build();
    let baseline = run_one(
        &w,
        workload,
        &DstOptions {
            threads,
            ..DstOptions::default()
        },
    );
    let opts = DstOptions {
        schedule_seed: Some(schedule_seed(seed)),
        faults: plan_for(plan, seed),
        threads,
        ..DstOptions::default()
    };
    let out = run_one(&w, workload, &opts);
    println!(
        "  completed={} dropped={} stalls=[{}]",
        out.completed, out.dropped, out.stalls
    );
    let violations = check_run(plan, &baseline.digest, &out);
    if violations.is_empty() {
        println!("  no violations — case no longer reproduces");
        0
    } else {
        for v in &violations {
            println!("  VIOLATION: {v}");
        }
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_rules() {
        let a = Digest::Ints(vec![1, 2]);
        assert!(a.diff(&Digest::Ints(vec![1, 2])).is_none());
        assert!(a.diff(&Digest::Ints(vec![1, 3])).is_some());
        assert!(a.diff(&Digest::Floats(vec![1.0])).is_some());
        let f = Digest::Floats(vec![1.0]);
        assert!(f.diff(&Digest::Floats(vec![1.0 + 1e-12])).is_none());
        assert!(f.diff(&Digest::Floats(vec![1.0 + 1e-6])).is_some());
    }

    #[test]
    fn agg_factors_total_across_nodes() {
        let a = NodeSnapshot {
            req_sent: 30,
            request_msgs: 5,
            reply_sent: 12,
            reply_msgs: 4,
            ..NodeSnapshot::default()
        };
        let b = NodeSnapshot {
            req_sent: 10,
            request_msgs: 5,
            reply_sent: 4,
            reply_msgs: 4,
            ..NodeSnapshot::default()
        };
        let (req, reply, upd) = agg_factors(&[a, b]);
        assert!((req - 4.0).abs() < 1e-12);
        assert!((reply - 2.0).abs() < 1e-12);
        assert_eq!(upd, 0.0);
    }

    #[test]
    fn schedule_seed_is_injective_on_small_range() {
        let seeds: std::collections::HashSet<u64> = (0..64).map(schedule_seed).collect();
        assert_eq!(seeds.len(), 64);
    }
}
