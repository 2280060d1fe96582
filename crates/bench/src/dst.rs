//! Deterministic-simulation-testing machinery shared by the `dst`
//! subcommand, the run service and the committed-corpus regression tests.
//!
//! Every run is a pure function of `(workload, schedule seed, fault plan)`,
//! so any failure is replayable bit-for-bit. This module owns the pieces
//! the sweep and the replayers both need: the workload table (`name →
//! family, config, phases`, the single registry behind [`WORKLOADS`]), the
//! pre-built worlds, the per-run invariant checks, and the corpus case
//! file format (`workload = ... / seed = ... / plan = ...`).

use crate::{bh_world_sized, fmm_world_sized};
use apps::bh_dist::BhWorld;
use apps::driver::{run_bh, run_fmm, run_graph, run_relax, run_setops, run_synth, Phases, Run};
pub use apps::driver::{Digest, FP_RTOL};
use apps::fmm_dist::FmmWorld;
use apps::graph_dist::{GraphParams, GraphWorld};
use apps::relax::RelaxWorld;
use apps::setops_dist::{SetopsParams, SetopsWorld};
use dpa_core::invariant::{check_completed, check_conservation, NodeSnapshot};
use dpa_core::synth::{SynthParams, SynthWorld};
use dpa_core::{DiffPlan, DpaConfig, DstOptions};
use sim_net::{FaultPlan, NetConfig, NodePause};
use std::collections::HashMap;
use std::sync::Arc;

/// Extra per-delivery jitter used whenever a schedule seed is set, ns.
pub const JITTER_NS: u64 = 2_000;
/// Every fault-plan name the sweep explores.
pub const ALL_PLANS: &[&str] = &["none", "drop", "dup", "delay", "pause"];
/// The CI-sized subset of fault plans.
pub const SMOKE_PLANS: &[&str] = &["none", "drop"];
/// Phases per migration workload run (tables carry across boundaries).
pub const MIG_PHASES: usize = 3;
/// Timesteps per differential workload run — enough boundaries that a
/// carried entry can go stale, be invalidated, and be carried again.
pub const DIFF_PHASES: usize = 4;
/// The change schedule shared by every `-diff` run: ~15% of objects mutate
/// per boundary, which exercises both the invalidation path and the
/// carried-entry fast path in every phase.
pub const DIFF_PLAN: DiffPlan = DiffPlan {
    seed: 0xD1FF_F00D,
    change_permille: 150,
    phase: 0,
};
/// Where failing cases are recorded, relative to the repository root.
pub const CORPUS_DIR: &str = "tests/dst_corpus";

// ---------------------------------------------------------------- workloads

/// Which pre-built world, and with it which [`apps::driver`] runner, a
/// workload drives.
#[derive(Clone, Copy, Debug)]
enum Family {
    Synth,
    Bh,
    Fmm,
    Relax,
    Graph,
    Setops,
}

/// One row of the workload table: a name the sweep, the corpus and the
/// run service use for "this app family, under this configuration, for
/// this many phases".
struct Workload {
    name: &'static str,
    family: Family,
    cfg: fn() -> DpaConfig,
    /// Carrying workloads only: the *same multi-timestep workload* from
    /// scratch every phase, nothing carried — the comparator the
    /// equivalence suite holds the carrying digests bit-identical to.
    scratch: Option<fn() -> DpaConfig>,
    phases: Phases,
}

impl Workload {
    const fn single(name: &'static str, family: Family, cfg: fn() -> DpaConfig) -> Workload {
        Workload {
            name,
            family,
            cfg,
            scratch: None,
            phases: Phases::ONE,
        }
    }
}

/// Every workload the sweep explores. The `-mig` workloads run the same
/// apps multi-phase with locality-driven object migration enabled
/// (phase-end affinity reports, the boundary pass's re-homing, forwards).
/// The `-diff` workloads run
/// multi-timestep with **differential re-alignment**
/// ([`DpaConfig::differential`]): tables and cached arrivals carry across
/// barriers, patched by boundary deltas. The `-repl` workloads run under
/// **read-mostly replication** ([`DpaConfig::dpa_replicating`]): the hot
/// hub is promoted at a phase boundary, broadcast to its consumer set, and
/// every fault-plan hazard (dropped broadcast, duplicated broadcast,
/// delayed delta) must leave the digests bit-identical or produce a
/// diagnosable stall — never a stale read.
const TABLE: &[Workload] = &[
    Workload::single("synth-dpa", Family::Synth, || DpaConfig::dpa(4)),
    Workload::single("synth-caching", Family::Synth, DpaConfig::caching),
    Workload::single("bh", Family::Bh, || DpaConfig::dpa(8)),
    Workload::single("fmm", Family::Fmm, || DpaConfig::dpa(8)),
    Workload::single("relax", Family::Relax, || DpaConfig::dpa(8)),
    Workload {
        name: "synth-mig",
        family: Family::Synth,
        cfg: || DpaConfig::dpa_migrating(4),
        scratch: None,
        phases: Phases::steps(MIG_PHASES),
    },
    Workload {
        name: "bh-mig",
        family: Family::Bh,
        cfg: || DpaConfig::dpa_migrating(8),
        scratch: None,
        phases: Phases::steps(MIG_PHASES),
    },
    Workload {
        name: "synth-diff",
        family: Family::Synth,
        cfg: || DpaConfig::dpa_differential(4),
        scratch: Some(|| DpaConfig::dpa(4)),
        phases: Phases::changing(DIFF_PHASES, DIFF_PLAN),
    },
    // Differential composes with re-homing: same migration knobs as
    // `dpa_migrating`, plus the differential barrier protocol.
    Workload {
        name: "bh-diff",
        family: Family::Bh,
        cfg: || DpaConfig {
            differential: true,
            ..DpaConfig::dpa_migrating(8)
        },
        scratch: Some(|| DpaConfig::dpa_migrating(8)),
        phases: Phases::changing(DIFF_PHASES, DIFF_PLAN),
    },
    // Transitive closure with *structural* deltas: edge rewires at every
    // barrier advance vertex generations, so the carried hub entries go
    // stale from topology changes, not a value-change schedule — the
    // differential protocol must invalidate them or the closure checksum
    // (which folds the generation actually read) diverges.
    Workload {
        name: "graph",
        family: Family::Graph,
        cfg: || DpaConfig::dpa_differential(8),
        scratch: Some(|| DpaConfig::dpa(8)),
        phases: Phases::steps(DIFF_PHASES),
    },
    // The closure under dominant-consumer migration: the hub has *many*
    // consumers and no dominant one, so the affinity pass faces its
    // adversarial case (any pick strands the rest on the forwarding path).
    Workload {
        name: "graph-mig",
        family: Family::Graph,
        cfg: || DpaConfig::dpa_migrating(8),
        scratch: None,
        phases: Phases::steps(MIG_PHASES),
    },
    // The closure under read-mostly replication: the hub crosses the
    // promotion bar at the first boundary (every non-owner consumes it,
    // none dominates), so later phases read it from local replicas. A
    // dropped broadcast must degrade to a demand fetch or a delta-gate
    // stall; a duplicated one must dedup on `(sender, seq)` — either way
    // the checksums cannot move.
    Workload {
        name: "graph-repl",
        family: Family::Graph,
        cfg: || DpaConfig::dpa_replicating(8),
        scratch: Some(|| DpaConfig::dpa(8)),
        phases: Phases::steps(DIFF_PHASES),
    },
    // Barnes-Hut under replication: the octree root and the hot
    // upper-level cells are the replication candidates, and the
    // value-change schedule (not topology) advances generations — the
    // complementary staleness source to `graph-repl`.
    Workload {
        name: "bh-repl",
        family: Family::Bh,
        cfg: || DpaConfig::dpa_replicating(8),
        scratch: Some(|| DpaConfig::dpa(8)),
        phases: Phases::changing(DIFF_PHASES, DIFF_PLAN),
    },
    // Mixed insert/delete/range batches; range probes are power-law-hot
    // toward node 0's buckets, and the mutations ride the
    // remote-reduction path (exactly-once under dup).
    Workload::single("setops", Family::Setops, || DpaConfig::dpa(8)),
];

/// Every workload name the sweep explores, in table order.
pub const WORKLOADS: &[&str] = &{
    let mut names = [""; TABLE.len()];
    let mut i = 0;
    while i < TABLE.len() {
        names[i] = TABLE[i].name;
        i += 1;
    }
    names
};

/// A name that is not in the table it was looked up in.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownName {
    /// What kind of name: `"workload"` or `"plan"`.
    pub kind: &'static str,
    /// The name as given.
    pub name: String,
    /// The names that would have resolved.
    pub valid: &'static [&'static str],
}

impl std::fmt::Display for UnknownName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown {} {:?} (expected one of {:?})",
            self.kind, self.name, self.valid
        )
    }
}

impl std::error::Error for UnknownName {}

/// `name` as the table spells it, or why it is not a workload.
pub fn resolve(name: &str) -> Result<&'static str, UnknownName> {
    lookup(name).map(|row| row.name)
}

fn lookup(name: &str) -> Result<&'static Workload, UnknownName> {
    TABLE
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| UnknownName {
            kind: "workload",
            name: name.to_string(),
            valid: WORKLOADS,
        })
}

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
    /// Per-node runtime-state snapshots, all phases concatenated — the
    /// invariant checkers accept repeated per-node snapshots (carried
    /// tables make the same adoption visible in every later phase).
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

impl From<Run> for Outcome {
    fn from(run: Run) -> Outcome {
        let stalls: Vec<String> = run
            .reports
            .iter()
            .map(|r| r.stall_summary())
            .filter(|s| !s.is_empty())
            .collect();
        Outcome {
            completed: run.completed(),
            dropped: run.stats.dropped_packets,
            stalls: stalls.join("; "),
            events: run.reports.iter().map(|r| r.events_processed).sum(),
            budget_exhausted: run.reports.iter().any(|r| r.budget_exhausted),
            makespan_ns: run.makespan_ns(),
            digest: run.digest,
            snaps: run.snaps.into_iter().flatten().collect(),
        }
    }
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

/// Execute one `(workload, options)` run and collect its outcome.
pub fn run_one(w: &Worlds, workload: &str, opts: &DstOptions) -> Result<Outcome, UnknownName> {
    run_one_mode(w, workload, opts, true)
}

/// [`run_one`] with the execution mode of the carrying (`-diff`, `-repl`,
/// `graph`) workloads pinned: `differential = true` runs them under their
/// carrying config (the default, and what the sweep exercises); `false`
/// runs the table's from-scratch comparator. The flag is ignored for
/// every other workload.
pub fn run_one_mode(
    w: &Worlds,
    workload: &str,
    opts: &DstOptions,
    differential: bool,
) -> Result<Outcome, UnknownName> {
    let row = lookup(workload)?;
    let cfg = match row.scratch {
        Some(scratch) if !differential => scratch(),
        _ => (row.cfg)(),
    };
    let net = net_for(opts);
    let run = match row.family {
        Family::Synth => run_synth(&w.synth, cfg, net, opts, row.phases),
        Family::Bh => run_bh(&w.bh, cfg, net, opts, row.phases),
        Family::Fmm => run_fmm(&w.fmm, cfg, net, opts),
        Family::Relax => run_relax(&w.relax, cfg, net, opts),
        Family::Graph => run_graph(&w.graph, cfg, net, opts, row.phases.count),
        Family::Setops => run_setops(&w.setops, cfg, net, opts),
    };
    Ok(run.into())
}

// ---------------------------------------------------------------- plans

/// Build the named fault plan, derived deterministically from `seed`.
pub fn plan_for(name: &str, seed: u64) -> Result<FaultPlan, UnknownName> {
    let fs = seed ^ 0xFA17;
    Ok(match name {
        "none" => FaultPlan::none(),
        "drop" => FaultPlan::drop(fs, 0.02),
        "dup" => FaultPlan::duplicate(fs, 0.10),
        "delay" => FaultPlan::delay(fs, 0.30, 50_000),
        "pause" => {
            // Freeze two (seed-chosen) nodes in staggered windows: lossless,
            // but deliveries bunch up at the window edges and replay in a
            // burst — requests, forwards and affinity reports all at once.
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
        _ => {
            return Err(UnknownName {
                kind: "plan",
                name: name.to_string(),
                valid: ALL_PLANS,
            });
        }
    })
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
        "#   cargo run --release -p bench -- dst --replay {path}\n"
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
    let Some(plan) = fields.get("plan") else {
        eprintln!("error: {path}: missing `plan = ...` line");
        return 2;
    };
    match replay_run(workload, seed, plan, threads) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            2
        }
    }
}

/// The simulator half of [`replay_with_threads`]: baseline, perturbed
/// run, verdict. `Err` when the case names no known workload or plan.
fn replay_run(workload: &str, seed: u64, plan: &str, threads: usize) -> Result<i32, UnknownName> {
    let faults = plan_for(plan, seed)?;
    let w = Worlds::build();
    let baseline = run_one(
        &w,
        workload,
        &DstOptions {
            threads,
            ..DstOptions::default()
        },
    )?;
    println!("replaying {workload} seed={seed} plan={plan} threads={threads}");
    let opts = DstOptions {
        schedule_seed: Some(schedule_seed(seed)),
        faults,
        threads,
        ..DstOptions::default()
    };
    let out = run_one(&w, workload, &opts)?;
    println!(
        "  completed={} dropped={} stalls=[{}]",
        out.completed, out.dropped, out.stalls
    );
    let violations = check_run(plan, &baseline.digest, &out);
    if violations.is_empty() {
        println!("  no violations — case no longer reproduces");
        Ok(0)
    } else {
        for v in &violations {
            println!("  VIOLATION: {v}");
        }
        Ok(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn lookups_are_total() {
        let w = Worlds::build();
        let err = run_one(&w, "bh-typo", &DstOptions::default())
            .err()
            .expect("not a workload");
        assert_eq!((err.kind, err.valid), ("workload", WORKLOADS));
        assert!(err.to_string().contains("\"bh-typo\"") && err.to_string().contains("synth-dpa"));
        let err = plan_for("drip", 0).unwrap_err();
        assert_eq!((err.kind, err.valid), ("plan", ALL_PLANS));
        for plan in ALL_PLANS {
            assert!(plan_for(plan, 3).is_ok(), "{plan}");
        }
    }

    #[test]
    fn schedule_seed_is_injective_on_small_range() {
        let seeds: std::collections::HashSet<u64> = (0..64).map(schedule_seed).collect();
        assert_eq!(seeds.len(), 64);
    }
}
