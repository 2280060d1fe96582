//! `serve_mix`: the run service under a closed-loop job mix.
//!
//! The runner is the benchmark's own [`JobRunner`] over the same workload
//! types the stand-alone workloads use (no dependency on `crates/bench`),
//! honouring the per-job event budget and the tenant's wall budget. Every
//! finished job is audited against a per-kind canonical run — the cache
//! built during set-up.

use crate::workloads::{
    measured_opts, Bh, Fmm, Graph, Mode, Profile, Rep, Setops, SimWorkload, WORLD_SEED,
};
use apps::graph_dist::GraphParams;
use apps::setops_dist::SetopsParams;
use dpa_core::{check_completed, DstOptions};
use dpa_serve::{
    Admission, JobReport, JobRunner, JobSpec, LogEntry, Priority, SchedConfig, Scheduler, Service,
    ServiceReport, TenantId,
};
use sim_net::{FaultPlan, QueueKind, Rng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Simulated machine size of every job.
pub const JOB_NODES: u16 = 8;
/// Jobs the load generator keeps queued or running (closed loop).
pub const OUTSTANDING: usize = 4;
/// How often the generator looks for a free slot.
pub const POLL: Duration = Duration::from_micros(200);
/// Fault plans jobs draw from, uniformly.
pub const PLANS: [&str; 5] = ["none", "none", "none", "delay", "dup"];

/// The service configuration of record. One shard: on the reference
/// sandbox a second busy shard adds 20 % throughput (the two vCPUs share a
/// core or a noisy host) and makes jobs/s swing ±20 % from run to run; one
/// shard with the load generator on the other vCPU swings ±5 %.
pub fn sched_config() -> SchedConfig {
    SchedConfig {
        shards: 1,
        queue_cap: 32,
        ..SchedConfig::default()
    }
}

/// One job kind: a job-sized workload and its canonical run.
pub struct JobKind {
    /// Name jobs select it by (`JobSpec::workload`).
    pub name: &'static str,
    /// The workload.
    pub work: Box<dyn SimWorkload>,
    /// Canonical schedule, no faults, checked against the host oracle.
    pub canon: Rep,
}

/// The four job kinds.
pub struct Catalog {
    /// In the order jobs index them.
    pub kinds: Vec<JobKind>,
}

impl Catalog {
    /// Build the job-sized worlds and oracles, and run each once on the
    /// measured lane (the baseline cache jobs are audited against). Fails
    /// if a canonical run disagrees with its host oracle.
    pub fn build(profile: Profile) -> Result<Catalog, String> {
        let full = profile == Profile::Full;
        let opts = measured_opts();
        let works: Vec<(&'static str, Box<dyn SimWorkload>)> = vec![
            (
                "bh",
                Box::new(Bh::new(
                    WORLD_SEED,
                    if full { 2_048 } else { 256 },
                    JOB_NODES,
                    50,
                )),
            ),
            (
                "fmm",
                Box::new(Fmm::new(
                    WORLD_SEED,
                    if full { 4_096 } else { 512 },
                    if full { 12 } else { 6 },
                    JOB_NODES,
                    50,
                )),
            ),
            (
                "graph",
                Box::new(Graph::new(
                    GraphParams {
                        n: if full { 4_096 } else { 256 },
                        nodes: JOB_NODES,
                        phases: 3,
                        root_stride: 1,
                        seed: WORLD_SEED,
                        ..GraphParams::default()
                    },
                    8,
                )),
            ),
            (
                "setops",
                Box::new(Setops::new(
                    SetopsParams {
                        universe: if full { 262_144 } else { 16_384 },
                        buckets: if full { 1_024 } else { 128 },
                        nodes: JOB_NODES,
                        ops_per_node: if full { 4_096 } else { 256 },
                        seed: WORLD_SEED,
                        ..SetopsParams::default()
                    },
                    8,
                )),
            ),
        ];
        let mut kinds = Vec::with_capacity(works.len());
        for (name, work) in works {
            let canon = work.run(Mode::Plain(&opts));
            audit(&*work, &canon, None).map_err(|e| format!("canonical {name} run: {e}"))?;
            kinds.push(JobKind { name, work, canon });
        }
        Ok(Catalog { kinds })
    }
}

/// The checks every rep and every job must pass: completed, runtime state
/// drained (`check_completed`), results equal to the host oracle, and —
/// given a reference rep of the same workload — integer results identical
/// to it.
pub fn audit(work: &dyn SimWorkload, rep: &Rep, same_ints_as: Option<&Rep>) -> Result<(), String> {
    for (ph, r) in rep.reports.iter().enumerate() {
        if !r.completed {
            return Err(format!(
                "phase {ph} did not complete: {}",
                r.stall_summary()
            ));
        }
    }
    for (ph, snaps) in rep.snaps.iter().enumerate() {
        if let Some(v) = check_completed(snaps, false).first() {
            return Err(format!("phase {ph} violates a runtime invariant: {v}"));
        }
    }
    work.check(rep)?;
    if let Some(reference) = same_ints_as {
        if rep.ints != reference.ints {
            return Err("integer results differ from the reference run".into());
        }
    }
    Ok(())
}

/// The fault plan named `name`, seeded per job (the DST harness's rates).
fn plan_for(name: &str, seed: u64) -> Option<FaultPlan> {
    let fs = seed ^ 0xFA17;
    match name {
        "none" => Some(FaultPlan::none()),
        "dup" => Some(FaultPlan::duplicate(fs, 0.10)),
        "delay" => Some(FaultPlan::delay(fs, 0.30, 50_000)),
        _ => None,
    }
}

/// Executes service jobs as simulator runs and audits each one.
pub struct MixRunner {
    catalog: Arc<Catalog>,
}

impl MixRunner {
    /// A runner over `catalog`.
    pub fn new(catalog: Arc<Catalog>) -> MixRunner {
        MixRunner { catalog }
    }
}

impl JobRunner for MixRunner {
    fn run(&self, spec: &JobSpec, event_budget: u64, wall_budget_ns: Option<u64>) -> JobReport {
        let kind = self.catalog.kinds.iter().find(|k| k.name == spec.workload);
        let (Some(kind), Some(faults)) = (kind, plan_for(&spec.plan, spec.seed)) else {
            // An unknown name reached a shard: report it as a failed job.
            return JobReport {
                violations: 1,
                stall: format!(
                    "unknown workload {:?} or plan {:?}",
                    spec.workload, spec.plan
                ),
                ..JobReport::default()
            };
        };
        let opts = DstOptions {
            schedule_seed: Some(0x5EED ^ spec.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            faults,
            threads: 1,
            queue: QueueKind::Wheel,
            max_events: event_budget,
            wall_deadline: wall_budget_ns.map(|ns| Instant::now() + Duration::from_nanos(ns)),
        };
        let rep = kind.work.run(Mode::Plain(&opts));
        let budget_exhausted = rep.reports.iter().any(|r| r.budget_exhausted);
        // A reaped run stopped mid-flight; its state is legitimately
        // incomplete, so the structured flag is the whole report.
        let verdict = if budget_exhausted {
            Ok(())
        } else {
            audit(&*kind.work, &rep, Some(&kind.canon))
        };
        let sum =
            |f: fn(&dpa_core::NodeSnapshot) -> u64| rep.snaps.iter().flatten().map(f).sum::<u64>();
        JobReport {
            completed: rep.reports.iter().all(|r| r.completed),
            budget_exhausted,
            sim_events: rep.events(),
            sim_makespan_ns: rep.makespan_ns(),
            request_msgs: sum(|s| s.request_msgs),
            reply_msgs: sum(|s| s.reply_msgs),
            update_msgs: sum(|s| s.update_msgs),
            violations: verdict.is_err() as u64,
            // Filled in by the pool from the shard's clock.
            wall_ns: 0,
            stall: verdict.err().unwrap_or_default(),
        }
    }
}

/// The seeded job stream: tenants 0/1 submit 80 % interactive, 2/3 20 %;
/// one schedule seed per job; kind and fault plan come in seed-shuffled
/// rounds of the 20 (kind, plan) pairs — the marginals of independent
/// uniform draws, but every window of 20 jobs costs the same, so how many
/// jobs a run finishes does not depend on which kinds its seed favoured.
pub struct JobStream {
    rng: Rng,
    kinds: Vec<&'static str>,
    round: Vec<(usize, usize)>,
}

impl JobStream {
    /// The stream for `seed` over `catalog`'s kinds.
    pub fn new(seed: u64, catalog: &Catalog) -> JobStream {
        JobStream {
            rng: Rng::new(seed ^ 0x00D5_E4F3),
            kinds: catalog.kinds.iter().map(|k| k.name).collect(),
            round: Vec::new(),
        }
    }
}

impl Iterator for JobStream {
    type Item = JobSpec;

    fn next(&mut self) -> Option<JobSpec> {
        let rng = &mut self.rng;
        if self.round.is_empty() {
            let (kinds, plans) = (self.kinds.len(), PLANS.len());
            self.round = (0..kinds)
                .flat_map(|k| (0..plans).map(move |p| (k, p)))
                .collect();
            for i in (1..self.round.len()).rev() {
                self.round.swap(i, rng.below(i as u64 + 1) as usize);
            }
        }
        let (kind, plan) = self.round.pop().expect("a round was just dealt");
        let tenant = rng.below(4) as u16;
        let interactive = rng.chance(if tenant < 2 { 0.8 } else { 0.2 });
        Some(JobSpec {
            tenant: TenantId(tenant),
            priority: if interactive {
                Priority::Interactive
            } else {
                Priority::Batch
            },
            workload: self.kinds[kind].to_string(),
            seed: rng.next_u64() % 1_000_000,
            plan: PLANS[plan].to_string(),
            event_budget: 0,
        })
    }
}

/// What one closed-loop run produced.
pub struct ServeOutcome {
    /// The drained service's log, job records and ledger.
    pub report: ServiceReport,
    /// Every submission, in order (accepted or not).
    pub specs: Vec<JobSpec>,
    /// Submissions the service shed.
    pub rejected: u64,
    /// Host seconds from first submit to drained shutdown.
    pub wall_s: f64,
}

/// Drive `svc` closed-loop for `seconds`: the next job is submitted when
/// fewer than [`OUTSTANDING`] are queued or running; then drain.
pub fn closed_loop(svc: Service, stream: &mut JobStream, seconds: f64) -> ServeOutcome {
    let mut specs = Vec::new();
    let mut rejected = 0u64;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        let (qi, qb, busy) = svc.load();
        if qi + qb + busy >= OUTSTANDING {
            std::thread::sleep(POLL);
            continue;
        }
        let spec = stream.next().expect("the job stream is endless");
        if let Admission::Rejected { .. } = svc.submit(spec.clone()) {
            rejected += 1;
        }
        specs.push(spec);
    }
    let report = svc.shutdown();
    ServeOutcome {
        report,
        specs,
        rejected,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// Replay the run's own arrivals and completions, with their recorded
/// clocks, through a fresh pure [`Scheduler`]. Returns the host ns the
/// replay took, or an error if the replayed decision log differs from the
/// live one (the scheduler promises replay identity).
pub fn replay_scheduler(cfg: &SchedConfig, out: &ServeOutcome) -> Result<u64, String> {
    let reports: std::collections::BTreeMap<u64, &JobReport> = out
        .report
        .jobs
        .iter()
        .map(|j| (j.job.0, &j.report))
        .collect();
    let mut next = 0usize;
    let t0 = Instant::now();
    let mut s = Scheduler::new(cfg.clone());
    for e in &out.report.log {
        match e {
            LogEntry::Admit { now_ns, .. } | LogEntry::Reject { now_ns, .. } => {
                s.submit(*now_ns, &out.specs[next]);
                next += 1;
            }
            LogEntry::Finish {
                now_ns, job, shard, ..
            } => {
                let report = reports
                    .get(&job.0)
                    .ok_or_else(|| format!("job {} has no report", job.0))?;
                s.complete(*now_ns, *shard, report);
            }
            LogEntry::Place { .. } => {}
        }
    }
    let ns = t0.elapsed().as_nanos() as u64;
    if s.log() != out.report.log.as_slice() {
        return Err("replayed scheduler log differs from the live log".into());
    }
    Ok(ns)
}
