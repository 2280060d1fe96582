//! Machine-reuse audit at the service level: a pooled shard runs jobs
//! back-to-back on reused simulator state (`Machine::reset` inside the
//! multi-phase drivers, pooled worlds in [`DstJobRunner`]), so every job
//! report must be bit-identical to the same spec run solo on a fresh
//! runner. Covers the reap path too: an under-budgeted job mid-sequence
//! must not perturb its successors.
//!
//! Honors `DPA_SIM_QUEUE` / `DPA_SIM_THREADS` via [`DstOptions::default`]
//! inside the runner, so CI's heap-queue and threaded lanes re-run the
//! same identity automatically.

use bench::service::DstJobRunner;
use dpa_serve::{
    Admission, JobReport, JobRunner, JobSpec, Priority, SchedConfig, Service, TenantId,
};

/// A mixed back-to-back sequence: single-phase, migrating (multi-phase
/// machine reuse), differential (reset + table carry), a lossy plan, a
/// repeat of an earlier spec, and one under-budgeted job in the middle.
fn sequence() -> Vec<JobSpec> {
    let spec = |workload: &str, seed: u64, plan: &str, event_budget: u64| JobSpec {
        tenant: TenantId(0),
        priority: Priority::Batch,
        workload: workload.to_string(),
        seed,
        plan: plan.to_string(),
        event_budget,
    };
    vec![
        spec("synth-dpa", 3, "none", 0),
        spec("synth-mig", 5, "none", 0),
        spec("synth-dpa", 11, "none", 400), // tiny budget: reaped mid-sequence
        spec("synth-diff", 9, "delay", 0),
        spec("synth-dpa", 3, "none", 0), // exact repeat of the first job
        spec("relax", 2, "dup", 0),
    ]
}

#[test]
fn pooled_shard_reports_match_fresh_runner_bitwise() {
    let cfg = SchedConfig {
        shards: 1,
        queue_cap: 64,
        tenant_outstanding_cap: 1_000,
        ..SchedConfig::default()
    };
    let seq = sequence();
    let svc = Service::start(cfg.clone(), DstJobRunner::new());
    for s in &seq {
        match svc.submit(s.clone()) {
            Admission::Accepted(_) => {}
            Admission::Rejected { reason } => panic!("unexpected shed: {reason:?}"),
        }
    }
    let report = svc.shutdown();
    assert_eq!(report.jobs.len(), seq.len());

    // JobIds are assigned in submission order, so record.job indexes seq.
    for rec in &report.jobs {
        let s = &seq[rec.job.0 as usize];
        let budget = if s.event_budget == 0 {
            cfg.job_event_budget
        } else {
            s.event_budget
        };
        // A fresh runner per job: no pooled worlds, no cached baselines.
        let solo = DstJobRunner::new().run(s, budget, None);
        let pooled = JobReport {
            wall_ns: 0, // wall clock is the one legitimately nondeterministic field
            ..rec.report.clone()
        };
        assert_eq!(
            pooled, solo,
            "job {:?} ({}/{}/seed {}) diverged on the pooled shard",
            rec.job, s.workload, s.plan, s.seed
        );
        if s.event_budget != 0 {
            assert!(pooled.budget_exhausted, "tiny-budget job must be reaped");
        }
    }
}

/// Determinism floor under the pooled worlds: the same runner instance
/// must produce identical reports for repeated runs of a multi-phase
/// (machine-reusing) workload — baseline caching and world sharing are
/// read-only after the first run.
#[test]
fn one_runner_repeats_multiphase_jobs_identically() {
    let runner = DstJobRunner::new();
    for workload in ["synth-mig", "synth-diff", "bh-mig"] {
        let s = JobSpec {
            tenant: TenantId(1),
            priority: Priority::Interactive,
            workload: workload.to_string(),
            seed: 13,
            plan: "delay".to_string(),
            event_budget: 0,
        };
        let budget = SchedConfig::default().job_event_budget;
        let first = runner.run(&s, budget, None);
        let second = runner.run(&s, budget, None);
        assert_eq!(first, second, "{workload}: repeat run diverged");
        assert_eq!(first.violations, 0, "{workload}: oracle violations");
    }
}
