//! Glue between the run service (`dpa-serve`) and the DST harness: the
//! [`DstJobRunner`] executes a service job as a real simulator run via
//! [`crate::dst::run_one`], and audits every completed run with the full
//! invariant-oracle battery ([`crate::dst::check_run`]) against a cached
//! per-workload baseline. The DST corpus is thereby both the service's
//! traffic source and its correctness oracle.

use crate::dst::{check_run, plan_for, run_one, schedule_seed, Digest, UnknownName, Worlds};
use dpa_core::DstOptions;
use dpa_serve::{JobReport, JobRunner, JobSpec};
use std::collections::HashMap;
use std::sync::Mutex;

/// A [`JobRunner`] that executes jobs as DST workload runs.
///
/// Each job's `(workload, seed, plan)` maps exactly onto the DST sweep's
/// axes; the per-job event budget becomes [`DstOptions::max_events`], so
/// a runaway run stops with a structured `budget_exhausted` stall the
/// service reaps. Baseline digests (canonical schedule, no faults) are
/// computed once per workload and cached, so oracle checks cost one extra
/// run per distinct workload, not per job.
///
/// A job naming no known workload or plan is reported as not completed,
/// the lookup error its stall reason; the shard lives on.
pub struct DstJobRunner {
    worlds: Worlds,
    baselines: Mutex<HashMap<String, Digest>>,
}

impl DstJobRunner {
    /// Build the standard DST worlds and an empty baseline cache.
    pub fn new() -> DstJobRunner {
        DstJobRunner {
            worlds: Worlds::build(),
            baselines: Mutex::new(HashMap::new()),
        }
    }

    /// The workload's canonical-schedule fault-free digest, cached.
    fn baseline(&self, workload: &str) -> Result<Digest, UnknownName> {
        if let Some(d) = self.baselines.lock().expect("baseline cache").get(workload) {
            return Ok(d.clone());
        }
        // Computed outside the lock: concurrent misses on the same
        // workload waste a run but never deadlock a shard.
        let out = run_one(
            &self.worlds,
            workload,
            &DstOptions {
                threads: 1,
                ..DstOptions::default()
            },
        )?;
        Ok(self
            .baselines
            .lock()
            .expect("baseline cache")
            .entry(workload.to_string())
            .or_insert(out.digest)
            .clone())
    }

    fn try_run(
        &self,
        spec: &JobSpec,
        event_budget: u64,
        wall_budget_ns: Option<u64>,
    ) -> Result<JobReport, UnknownName> {
        // The tenant's remaining wall budget becomes a hard deadline the
        // multi-phase drivers check at every phase boundary: a run that
        // outlives it finishes the phase in flight, then stops with the
        // same structured `budget_exhausted` stall as an event-budget
        // reap — the shard comes back, the overrun is billed.
        let wall_deadline = wall_budget_ns
            .map(|ns| std::time::Instant::now() + std::time::Duration::from_nanos(ns));
        let opts = DstOptions {
            schedule_seed: Some(schedule_seed(spec.seed)),
            faults: plan_for(&spec.plan, spec.seed)?,
            threads: 1,
            max_events: event_budget,
            wall_deadline,
            ..DstOptions::default()
        };
        let out = run_one(&self.worlds, &spec.workload, &opts)?;
        // A reaped run was stopped mid-flight: its state is legitimately
        // incomplete, so the oracles are not evaluated — the structured
        // budget_exhausted flag is the report.
        let violations = if out.budget_exhausted {
            0
        } else {
            let baseline = self.baseline(&spec.workload)?;
            check_run(&spec.plan, &baseline, &out).len() as u64
        };
        let sum = |f: &dyn Fn(&dpa_core::NodeSnapshot) -> u64| out.snaps.iter().map(f).sum::<u64>();
        Ok(JobReport {
            completed: out.completed,
            budget_exhausted: out.budget_exhausted,
            sim_events: out.events,
            sim_makespan_ns: out.makespan_ns,
            request_msgs: sum(&|s| s.request_msgs),
            reply_msgs: sum(&|s| s.reply_msgs),
            update_msgs: sum(&|s| s.update_msgs),
            violations,
            // Filled in by the pool from the shard's clock.
            wall_ns: 0,
            stall: out.stalls,
        })
    }
}

impl Default for DstJobRunner {
    fn default() -> Self {
        DstJobRunner::new()
    }
}

impl JobRunner for DstJobRunner {
    fn run(&self, spec: &JobSpec, event_budget: u64, wall_budget_ns: Option<u64>) -> JobReport {
        self.try_run(spec, event_budget, wall_budget_ns)
            .unwrap_or_else(|e| JobReport {
                stall: format!("rejected: {e}"),
                ..JobReport::default()
            })
    }
}
