//! Seeded load generator and closed-loop scheduler model.
//!
//! [`gen_arrivals`] turns `(profile, seed)` into a deterministic arrival
//! stream; [`run_model`] drives a [`Scheduler`] with it under synthetic
//! service times, producing the decision log the invariant checkers
//! ([`check_conservation`], [`check_no_starvation`], [`check_depth_bound`])
//! audit. Everything is a pure function of its inputs, so the proptests
//! can assert replay identity and the corpus can pin scheduler bugs as
//! `service-*.case` files naming a [`SCENARIOS`] entry plus a seed.

use crate::sched::{LogEntry, SchedConfig, Scheduler};
use crate::types::{Admission, JobId, JobSpec, Priority, TenantId};
use sim_net::Rng;
use std::collections::BTreeMap;

/// Shape of a synthetic load: how many tenants, how fast they submit,
/// how long jobs run, and how often a job "goes bad" (stalls until its
/// event budget reaps it).
#[derive(Debug, Clone, PartialEq)]
pub struct LoadProfile {
    /// Distinct tenants, ids `0..tenants`.
    pub tenants: u16,
    /// Total submissions to generate.
    pub jobs: usize,
    /// Probability a job is interactive (vs batch).
    pub interactive_ratio: f64,
    /// Mean gap between arrivals; actual gaps are uniform in
    /// `0..=2*mean_gap_ns`.
    pub mean_gap_ns: u64,
    /// Shortest synthetic service time.
    pub service_min_ns: u64,
    /// Longest synthetic service time.
    pub service_max_ns: u64,
    /// Probability a job stalls and is reaped on budget exhaustion.
    pub fault_ratio: f64,
}

impl Default for LoadProfile {
    fn default() -> Self {
        LoadProfile {
            tenants: 4,
            jobs: 200,
            interactive_ratio: 0.6,
            mean_gap_ns: 400_000,
            service_min_ns: 200_000,
            service_max_ns: 3_000_000,
            fault_ratio: 0.0,
        }
    }
}

/// One generated submission: when it lands, what it asks for, and how the
/// model will pretend the run went.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Arrival time on the model clock.
    pub at_ns: u64,
    /// The request.
    pub spec: JobSpec,
    /// Synthetic shard-occupancy time if placed.
    pub service_ns: u64,
    /// Whether the synthetic run stalls (reported `budget_exhausted`).
    pub stall: bool,
}

/// Deterministically expand `(profile, seed)` into an arrival stream.
pub fn gen_arrivals(profile: &LoadProfile, seed: u64) -> Vec<Arrival> {
    assert!(profile.tenants >= 1 && profile.jobs >= 1);
    assert!(profile.service_min_ns <= profile.service_max_ns);
    let mut rng = Rng::new(seed ^ 0x5EE0_57AF_F1C0_FFEE);
    let mut at_ns = 0u64;
    let span = profile.service_max_ns - profile.service_min_ns;
    (0..profile.jobs)
        .map(|i| {
            at_ns += rng.below(2 * profile.mean_gap_ns + 1);
            let interactive = rng.chance(profile.interactive_ratio);
            let stall = rng.chance(profile.fault_ratio);
            Arrival {
                at_ns,
                spec: JobSpec {
                    tenant: TenantId(rng.below(profile.tenants as u64) as u16),
                    priority: if interactive {
                        Priority::Interactive
                    } else {
                        Priority::Batch
                    },
                    workload: format!("model-{i}"),
                    seed: rng.next_u64(),
                    plan: if stall { "drop" } else { "none" }.to_string(),
                    event_budget: 0,
                },
                // Floor of 1ns keeps per-shard completion keys strictly
                // increasing (one job per shard at a time).
                service_ns: (profile.service_min_ns + rng.below(span + 1)).max(1),
                stall,
            }
        })
        .collect()
}

/// Everything a model run produces, for the checkers and the proptests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelRun {
    /// The scheduler's full decision log.
    pub log: Vec<LogEntry>,
    /// Submissions admitted.
    pub accepted: usize,
    /// Submissions shed.
    pub rejected: usize,
    /// High-water queue depth per lane (`[interactive, batch]`).
    pub max_depth: [usize; 2],
    /// Jobs that finished (completed or reaped).
    pub finished: usize,
    /// Model clock when the last job finished.
    pub end_ns: u64,
}

/// Drive a fresh [`Scheduler`] with `arrivals` under synthetic service
/// times. A placed job occupies its shard for the arrival's `service_ns`
/// and finishes `completed` unless the arrival stalls, in which case it
/// finishes `budget_exhausted` (reaped). Completions are processed in
/// `(end time, shard)` order, before any arrival at the same instant —
/// a fixed, documented tiebreak so the run is replay-identical.
pub fn run_model(cfg: &SchedConfig, arrivals: &[Arrival]) -> ModelRun {
    let mut sched = Scheduler::new(cfg.clone());
    // Pending completions, keyed for deterministic pop order.
    let mut completions: BTreeMap<(u64, usize), (JobId, bool)> = BTreeMap::new();
    // JobId -> (service_ns, stall), captured at admission.
    let mut jobinfo: BTreeMap<u64, (u64, bool)> = BTreeMap::new();
    let mut cursor = 0usize;
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    let mut finished = 0usize;
    let mut max_depth = [0usize; 2];
    let mut end_ns = 0u64;

    // Absorb new Place entries since `cursor`: schedule their completions.
    fn sync(
        sched: &Scheduler,
        cursor: &mut usize,
        jobinfo: &BTreeMap<u64, (u64, bool)>,
        completions: &mut BTreeMap<(u64, usize), (JobId, bool)>,
    ) {
        let log = sched.log();
        for entry in &log[*cursor..] {
            if let LogEntry::Place {
                now_ns, job, shard, ..
            } = entry
            {
                let (service_ns, stall) = jobinfo[&job.0];
                let prev = completions.insert((now_ns + service_ns, *shard), (*job, stall));
                assert!(prev.is_none(), "two jobs on shard {shard} end at once");
            }
        }
        *cursor = log.len();
    }

    let fire = |sched: &mut Scheduler,
                completions: &mut BTreeMap<(u64, usize), (JobId, bool)>,
                cursor: &mut usize,
                jobinfo: &BTreeMap<u64, (u64, bool)>,
                upto_ns: u64,
                finished: &mut usize,
                end_ns: &mut u64| {
        while let Some((&(at, shard), &(job, stall))) = completions.iter().next() {
            if at > upto_ns {
                break;
            }
            completions.remove(&(at, shard));
            let report = synthetic_report(job, stall);
            sched.complete(at, shard, &report);
            *finished += 1;
            *end_ns = (*end_ns).max(at);
            sync(sched, cursor, jobinfo, completions);
        }
    };

    for a in arrivals {
        fire(
            &mut sched,
            &mut completions,
            &mut cursor,
            &jobinfo,
            a.at_ns,
            &mut finished,
            &mut end_ns,
        );
        match sched.submit(a.at_ns, &a.spec) {
            Admission::Accepted(job) => {
                accepted += 1;
                jobinfo.insert(job.0, (a.service_ns, a.stall));
            }
            Admission::Rejected { .. } => rejected += 1,
        }
        sync(&sched, &mut cursor, &jobinfo, &mut completions);
        for p in Priority::ALL {
            max_depth[p.lane()] = max_depth[p.lane()].max(sched.queue_depth(p));
        }
    }
    fire(
        &mut sched,
        &mut completions,
        &mut cursor,
        &jobinfo,
        u64::MAX,
        &mut finished,
        &mut end_ns,
    );
    // No idle assert here: a scheduler that leaks a queued or running job
    // leaves the machine non-idle at drain, and the conservation checker
    // reports exactly which jobs leaked — a structured verdict the corpus
    // replayer can print, where an assert would just abort.
    ModelRun {
        log: sched.take_log(),
        accepted,
        rejected,
        max_depth,
        finished,
        end_ns,
    }
}

/// The report the model synthesizes for a finished job: a clean
/// completion, or a budget-exhaustion stall for a stalling arrival.
fn synthetic_report(job: JobId, stall: bool) -> crate::types::JobReport {
    crate::types::JobReport {
        completed: !stall,
        budget_exhausted: stall,
        sim_events: 1_000 + job.0,
        sim_makespan_ns: 0,
        request_msgs: 10,
        reply_msgs: 10,
        update_msgs: 5,
        violations: 0,
        wall_ns: 1_000,
        stall: if stall {
            "budget_exhausted".into()
        } else {
            String::new()
        },
    }
}

// ------------------------------------------------------------- invariants

/// Conservation: every admitted job is placed exactly once and finished
/// exactly once — nothing is lost, duplicated, or conjured. Returns
/// violation strings (empty = clean). Mirror of the `ReplyPathLeak`
/// oracle style: phrased over the log, not the implementation.
pub fn check_conservation(log: &[LogEntry]) -> Vec<String> {
    let mut v = Vec::new();
    let mut admitted: BTreeMap<u64, u32> = BTreeMap::new();
    let mut placed: BTreeMap<u64, u32> = BTreeMap::new();
    let mut finished: BTreeMap<u64, u32> = BTreeMap::new();
    for e in log {
        match e {
            LogEntry::Admit { job, .. } => *admitted.entry(job.0).or_default() += 1,
            LogEntry::Place { job, .. } => *placed.entry(job.0).or_default() += 1,
            LogEntry::Finish { job, .. } => *finished.entry(job.0).or_default() += 1,
            LogEntry::Reject { .. } => {}
        }
    }
    for (&job, &n) in &admitted {
        if n != 1 {
            v.push(format!("job {job} admitted {n} times"));
        }
        match placed.get(&job) {
            // Only a placed job can be expected to finish.
            Some(1) => match finished.get(&job) {
                Some(1) => {}
                Some(n) => v.push(format!("job {job} finished {n} times")),
                None => v.push(format!(
                    "job {job} placed but never finished (leaked on shard)"
                )),
            },
            Some(n) => v.push(format!("job {job} placed {n} times")),
            None => v.push(format!(
                "job {job} admitted but never placed (leaked in queue)"
            )),
        }
    }
    for &job in placed.keys() {
        if !admitted.contains_key(&job) {
            v.push(format!("job {job} placed without admission"));
        }
    }
    for &job in finished.keys() {
        if !placed.contains_key(&job) {
            v.push(format!("job {job} finished without placement"));
        }
    }
    v
}

/// No-starvation: an interactive job is never placed while the batch head
/// is over-age *and* batch had headroom under its concurrency cap — the
/// aging rule must win that pick. Audited from the decision inputs frozen
/// into each [`LogEntry::Place`].
pub fn check_no_starvation(log: &[LogEntry], cfg: &SchedConfig) -> Vec<String> {
    let mut v = Vec::new();
    for e in log {
        if let LogEntry::Place {
            job,
            priority: Priority::Interactive,
            batch_head_age_ns,
            batch_running,
            batch_cap,
            ..
        } = e
        {
            if *batch_head_age_ns >= cfg.aging_ns && batch_running < batch_cap {
                v.push(format!(
                    "interactive job {} picked over a batch head aged {}ns \
                     (aging_ns={}, batch {}/{} running)",
                    job.0, batch_head_age_ns, cfg.aging_ns, batch_running, batch_cap
                ));
            }
        }
    }
    v
}

/// Bounded queues: no admission may record a lane depth beyond
/// `queue_cap`, and the effective batch cap frozen into placements must
/// respect the degradation floor of 1.
pub fn check_depth_bound(log: &[LogEntry], cfg: &SchedConfig) -> Vec<String> {
    let mut v = Vec::new();
    for e in log {
        match e {
            LogEntry::Admit { job, depth, .. } if *depth > cfg.queue_cap => {
                v.push(format!(
                    "job {} admitted at depth {depth} > cap {}",
                    job.0, cfg.queue_cap
                ));
            }
            LogEntry::Place { job, batch_cap, .. } if *batch_cap == 0 => {
                v.push(format!(
                    "job {} placed under batch_cap 0 (floor is 1)",
                    job.0
                ));
            }
            _ => {}
        }
    }
    v
}

// ---------------------------------------------------------------- corpus

/// Named `(config, profile)` pairs the `service-*.case` corpus can refer
/// to — a case names a scenario plus a seed instead of embedding knobs.
pub const SCENARIOS: &[&str] = &["burst", "starve", "degrade", "faulty"];

/// Resolve a [`SCENARIOS`] name.
pub fn scenario(name: &str) -> Option<(SchedConfig, LoadProfile)> {
    let cfg = SchedConfig::default();
    match name {
        // 10x-capacity burst: arrivals much faster than service drain.
        "burst" => Some((
            SchedConfig {
                queue_cap: 16,
                ..cfg
            },
            LoadProfile {
                jobs: 400,
                mean_gap_ns: 40_000,
                ..LoadProfile::default()
            },
        )),
        // Sustained interactive pressure over a trickle of batch jobs:
        // the aging rule is the only thing keeping batch alive.
        "starve" => Some((
            SchedConfig {
                interactive_weight: 50,
                batch_weight: 1,
                aging_ns: 2_000_000,
                ..cfg
            },
            LoadProfile {
                jobs: 600,
                interactive_ratio: 0.95,
                mean_gap_ns: 100_000,
                ..LoadProfile::default()
            },
        )),
        // Interactive floods past degrade_depth so the batch cap shrinks.
        "degrade" => Some((
            SchedConfig {
                degrade_depth: 2,
                queue_cap: 32,
                ..cfg
            },
            LoadProfile {
                jobs: 500,
                interactive_ratio: 0.8,
                mean_gap_ns: 60_000,
                ..LoadProfile::default()
            },
        )),
        // A slice of jobs stall and must be reaped, not leaked.
        "faulty" => Some((
            cfg,
            LoadProfile {
                jobs: 300,
                fault_ratio: 0.15,
                mean_gap_ns: 150_000,
                ..LoadProfile::default()
            },
        )),
        _ => None,
    }
}

/// Replay one scenario under `seed` and audit every invariant, including
/// replay identity (the run is executed twice and the logs compared).
/// Returns the violations found (empty = clean); `Err` for an unknown
/// scenario name.
pub fn replay_scenario(name: &str, seed: u64) -> Result<Vec<String>, String> {
    let (cfg, profile) = scenario(name)
        .ok_or_else(|| format!("unknown scenario {name:?} (expected one of {SCENARIOS:?})"))?;
    let arrivals = gen_arrivals(&profile, seed);
    let run = run_model(&cfg, &arrivals);
    let rerun = run_model(&cfg, &arrivals);
    let mut violations = Vec::new();
    if run != rerun {
        violations.push("replay diverged: same (config, arrivals) gave a different log".into());
    }
    violations.extend(check_conservation(&run.log));
    violations.extend(check_no_starvation(&run.log, &cfg));
    violations.extend(check_depth_bound(&run.log, &cfg));
    Ok(violations)
}
