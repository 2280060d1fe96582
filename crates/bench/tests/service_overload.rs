//! Overload integration test for the live run service: burst ~10x the
//! pool's queue capacity of mixed DST jobs (fault plans in the mix, plus
//! a deliberately under-budgeted job) at a 2-shard service and assert the
//! ISSUE-8 overload contract:
//!
//! - queue depth stays bounded (every admission records depth <= cap);
//! - overflow submissions shed with structured reasons, never a hang;
//! - every completed run passes the DST invariant-oracle battery;
//! - the budget-exhausted job is reaped and reported, not leaked;
//! - conservation holds over the decision log (no job lost on a shard).
//!
//! Also here: a paced all-workload mix under the conservation /
//! no-starvation / zero-violation assertions (`paced_mix_*`; the
//! throughput and latency of such a mix are the benchmark's `serve_mix`
//! workload), and the bad-job-name regression.

use bench::service::DstJobRunner;
use dpa_serve::{
    check_conservation, check_depth_bound, check_no_starvation, Admission, JobSpec, Priority,
    RejectReason, SchedConfig, Service, TenantId,
};
use sim_net::Rng;
use std::time::Duration;

/// Cheap single-phase workloads keep the burst fast; the full mix runs in
/// `paced_mix_full`.
const WORKLOADS: &[&str] = &["synth-dpa", "synth-caching", "relax"];
/// Lossless-heavy plan mix with real packet loss included.
const PLANS: &[&str] = &["none", "none", "drop", "delay"];

#[test]
fn burst_10x_sheds_structurally_and_leaks_nothing() {
    let cfg = SchedConfig {
        shards: 2,
        queue_cap: 8,
        // Tenant caps out of the way: this test is about queue shedding.
        tenant_outstanding_cap: 10_000,
        ..SchedConfig::default()
    };
    let burst = cfg.queue_cap * 10 * 2; // 10x capacity, both lanes
    let svc = Service::start(cfg.clone(), DstJobRunner::new());
    let mut rng = Rng::new(0x0_4E12_10AD);
    let mut accepted = 0u64;
    let mut shed = 0u64;
    let mut budget_job = None;
    for i in 0..burst {
        let spec = JobSpec {
            tenant: TenantId((i % 3) as u16),
            priority: if i % 2 == 0 {
                Priority::Interactive
            } else {
                Priority::Batch
            },
            workload: WORKLOADS[rng.below(WORKLOADS.len() as u64) as usize].to_string(),
            seed: rng.below(1_000),
            plan: PLANS[rng.below(PLANS.len() as u64) as usize].to_string(),
            // One job mid-burst gets a budget far below any real run, so
            // it must come back reaped (budget_exhausted), not hang a
            // shard or leak.
            event_budget: if i == burst / 2 { 50 } else { 0 },
        };
        match svc.submit(spec) {
            Admission::Accepted(job) => {
                accepted += 1;
                if i == burst / 2 {
                    budget_job = Some(job);
                }
            }
            Admission::Rejected { reason } => {
                shed += 1;
                assert!(
                    matches!(reason, RejectReason::QueueFull { .. }),
                    "burst overflow must shed on queue capacity, got {reason:?}"
                );
                if let RejectReason::QueueFull { depth, cap, .. } = reason {
                    assert!(depth <= cap, "rejected at depth {depth} beyond cap {cap}");
                }
            }
        }
        // The bounded queue can never grow past its cap, mid-burst included.
        let (qi, qb, busy) = svc.load();
        assert!(
            qi <= cfg.queue_cap && qb <= cfg.queue_cap,
            "depth {qi}/{qb} over cap"
        );
        assert!(busy <= cfg.shards);
    }
    assert!(shed > 0, "a 10x burst over a 2-shard pool must shed load");
    // The under-budgeted job is usually shed mid-burst (queue full). Make
    // the reap path deterministic: keep resubmitting it as the queue
    // drains until it lands.
    while budget_job.is_none() {
        let spec = JobSpec {
            tenant: TenantId(0),
            priority: Priority::Batch,
            workload: "synth-dpa".to_string(),
            seed: 7,
            plan: "none".to_string(),
            event_budget: 50,
        };
        match svc.submit(spec) {
            Admission::Accepted(job) => {
                accepted += 1;
                budget_job = Some(job);
            }
            Admission::Rejected { .. } => std::thread::sleep(std::time::Duration::from_millis(1)),
        }
    }

    let report = svc.shutdown();
    assert_eq!(
        report.jobs.len() as u64,
        accepted,
        "every accepted job reported"
    );

    // Structured log invariants: conservation and bounded depth.
    let conservation = check_conservation(&report.log);
    assert!(conservation.is_empty(), "{conservation:?}");
    let depth = check_depth_bound(&report.log, &cfg);
    assert!(depth.is_empty(), "{depth:?}");

    // Oracle battery clean on every completed run; stalls only under the
    // lossy plan or the budget guard.
    for j in &report.jobs {
        assert_eq!(
            j.report.violations, 0,
            "job {:?} ({:?}) flagged by the invariant oracles",
            j.job, j.report
        );
        if !j.report.completed && !j.report.budget_exhausted {
            assert!(
                !j.report.stall.is_empty(),
                "job {:?} stalled without a diagnosis",
                j.job
            );
        }
    }

    // The reaped job is reported, billed, and off the pool.
    let job = budget_job.expect("retry loop guarantees admission");
    let j = report
        .jobs
        .iter()
        .find(|j| j.job == job)
        .expect("under-budgeted job reported, not leaked");
    assert!(j.report.budget_exhausted, "50-event budget must exhaust");
    assert!(!j.report.completed);
    let reaped: u64 = report.ledger.iter().map(|(_, u)| u.reaped).sum();
    assert!(reaped >= 1, "ledger must account the reaped job");

    // Nothing left behind: ledger outstanding all zero.
    for (t, u) in &report.ledger {
        assert_eq!(u.outstanding, 0, "tenant {t:?} leaked outstanding jobs");
        assert_eq!(
            u.accepted,
            u.completed + u.reaped + u.stalled,
            "tenant {t:?} accounting does not balance"
        );
    }
}

/// Mid-run wall-budget enforcement: a tenant admitted with a sliver of
/// wall budget left must have its multi-phase run reaped at the next
/// phase boundary — shard reclaimed, overrun billed as `reaped`, nothing
/// leaked — and once the ledger records the overrun, further submissions
/// from that tenant shed at admission with `TenantWallBudget`.
#[test]
fn wall_budget_reaps_mid_run_and_bills_the_overrun() {
    let cfg = SchedConfig {
        shards: 1,
        // One nanosecond of wall budget: admission (spent 0 < 1) lets the
        // first job through, but any real multi-phase run outlives the
        // deadline before its first phase boundary, so the driver's
        // boundary check must reap it deterministically.
        tenant_wall_budget_ns: 1,
        ..SchedConfig::default()
    };
    let svc = Service::start(cfg, DstJobRunner::new());
    let spec = |seed: u64| JobSpec {
        tenant: TenantId(0),
        priority: Priority::Batch,
        // Multi-phase workload with replication on: the reap must compose
        // with broadcast state carried across boundaries, not just the
        // plain differential driver.
        workload: "graph-repl".to_string(),
        seed,
        plan: "none".to_string(),
        event_budget: 0,
    };
    let first = match svc.submit(spec(3)) {
        Admission::Accepted(job) => job,
        Admission::Rejected { reason } => panic!("first job must admit, got {reason:?}"),
    };
    // Keep submitting until the billed overrun vetoes admission. Jobs
    // accepted before the first bill lands are themselves reaped, so the
    // loop terminates as soon as one complete() runs.
    let mut accepted = 1u64;
    let mut vetoed = false;
    for _ in 0..10_000 {
        match svc.submit(spec(accepted)) {
            Admission::Accepted(_) => accepted += 1,
            Admission::Rejected { reason } => {
                if matches!(
                    reason,
                    RejectReason::QueueFull { .. } | RejectReason::TenantOutstanding { .. }
                ) {
                    // Back-pressure, not the veto under test: wait for the
                    // single shard to drain and bill.
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    continue;
                }
                assert!(
                    matches!(reason, RejectReason::TenantWallBudget { .. }),
                    "over-budget tenant must shed on wall budget, got {reason:?}"
                );
                vetoed = true;
                break;
            }
        }
    }
    assert!(vetoed, "billed wall overrun never vetoed admission");

    let report = svc.shutdown();
    let j = report
        .jobs
        .iter()
        .find(|j| j.job == first)
        .expect("reaped job reported, not leaked");
    assert!(
        j.report.budget_exhausted,
        "1ns wall budget must reap the run mid-flight"
    );
    assert!(!j.report.completed, "a reaped run is not a completed run");
    assert!(
        j.report.sim_events > 0,
        "phase 0 runs before the boundary check can reap"
    );
    assert!(j.report.wall_ns > 0, "the shard's clock bills the overrun");

    // Every accepted job was reaped (none could finish inside 1ns), all
    // billed to the tenant, nothing outstanding.
    let (_, u) = report
        .ledger
        .iter()
        .find(|(t, _)| *t == TenantId(0))
        .expect("tenant 0 has a ledger entry");
    assert_eq!(u.accepted, accepted, "ledger admissions match");
    assert_eq!(u.reaped, accepted, "every admitted job reaped and billed");
    assert_eq!(u.outstanding, 0, "reaped jobs must not leak as outstanding");
    assert!(u.wall_ns > 0, "wall time billed against the budget");
}

/// Degradation before shedding: with the interactive queue held over
/// `degrade_depth`, batch concurrency must shrink toward the floor of 1
/// while interactive admissions continue — observable as the effective
/// `batch_cap` frozen into placements.
#[test]
fn overload_shrinks_batch_concurrency_before_shedding_interactive() {
    use dpa_serve::{run_model, Arrival, LoadProfile};
    let cfg = SchedConfig {
        shards: 4,
        batch_shard_cap: 4,
        degrade_depth: 2,
        queue_cap: 64,
        ..SchedConfig::default()
    };
    // Synthetic stream: a batch warm-up, then an interactive flood.
    let profile = LoadProfile {
        jobs: 300,
        interactive_ratio: 0.9,
        mean_gap_ns: 30_000,
        service_min_ns: 500_000,
        service_max_ns: 2_000_000,
        ..LoadProfile::default()
    };
    let arrivals: Vec<Arrival> = dpa_serve::gen_arrivals(&profile, 0xDE6);
    let run = run_model(&cfg, &arrivals);
    let min_cap = run
        .log
        .iter()
        .filter_map(|e| match e {
            dpa_serve::LogEntry::Place { batch_cap, .. } => Some(*batch_cap),
            _ => None,
        })
        .min()
        .expect("placements exist");
    assert!(
        min_cap < cfg.batch_shard_cap,
        "interactive flood (max depth {}) never degraded batch concurrency",
        run.max_depth[0]
    );
    assert!(min_cap >= 1, "degradation floor is one shard");
}

/// A seeded stream of `jobs` DST jobs — mixed workloads, seeds, fault
/// plans (lossless-heavy so most jobs complete), four tenants across both
/// priority lanes — paced into a 4-shard service: conservation and
/// no-starvation must hold over the decision log, and every completed run
/// must pass the invariant-oracle battery.
fn paced_mix(jobs: usize, workloads: &[&str]) {
    const MIX_PLANS: &[&str] = &["none", "none", "none", "delay", "dup", "drop"];
    let cfg = SchedConfig {
        shards: 4,
        queue_cap: 32,
        ..SchedConfig::default()
    };
    let svc = Service::start(cfg.clone(), DstJobRunner::new());
    let mut rng = Rng::new(0xBE4C_5E4F);
    let mut accepted = 0usize;
    for i in 0..jobs {
        // Natural backpressure: hold submissions while the queues are
        // half full, so nothing the pacing admits should ever be shed.
        loop {
            let (qi, qb, _) = svc.load();
            if qi + qb < cfg.queue_cap / 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let tenant = TenantId(rng.below(4) as u16);
        // Tenants 0/1 skew interactive, 2/3 skew batch.
        let interactive = rng.chance(if tenant.0 < 2 { 0.8 } else { 0.2 });
        let spec = JobSpec {
            tenant,
            priority: if interactive {
                Priority::Interactive
            } else {
                Priority::Batch
            },
            workload: workloads[rng.below(workloads.len() as u64) as usize].to_string(),
            seed: rng.next_u64() % 1_000,
            plan: MIX_PLANS[rng.below(MIX_PLANS.len() as u64) as usize].to_string(),
            event_budget: 0,
        };
        match svc.submit(spec) {
            Admission::Accepted(_) => accepted += 1,
            Admission::Rejected { reason } => assert!(
                matches!(reason, RejectReason::QueueFull { .. }),
                "unexpected shed reason during paced load: {reason:?} (job {i})"
            ),
        }
    }
    let report = svc.shutdown();
    assert_eq!(report.jobs.len(), accepted, "every accepted job reported");
    let conservation = check_conservation(&report.log);
    assert!(conservation.is_empty(), "conservation: {conservation:?}");
    let starvation = check_no_starvation(&report.log, &cfg);
    assert!(starvation.is_empty(), "no-starvation: {starvation:?}");
    let oracle_violations: u64 = report.jobs.iter().map(|j| j.report.violations).sum();
    assert_eq!(
        oracle_violations, 0,
        "invariant oracles flagged completed runs"
    );
}

/// CI-sized: the cheap single-phase workloads (setops rides along so the
/// skew-adversarial family is always in the mix).
#[test]
fn paced_mix_smoke() {
    paced_mix(24, &["synth-dpa", "synth-caching", "relax", "setops"]);
}

/// Every DST workload — multi-phase, differential, and the graph family
/// included.
#[test]
#[ignore = "160-job all-workload profile; run with --ignored (nightly lane)"]
fn paced_mix_full() {
    paced_mix(160, bench::dst::WORKLOADS);
}

/// A job naming no known workload, or no known fault plan, is the
/// runner's to report — not a panic on the pool thread that loses the job
/// and takes `shutdown` down with it.
#[test]
fn bad_job_names_are_reported_and_the_shard_survives() {
    let svc = Service::start(
        SchedConfig {
            shards: 1,
            ..SchedConfig::default()
        },
        DstJobRunner::new(),
    );
    let spec = |workload: &str, plan: &str| JobSpec {
        tenant: TenantId(0),
        priority: Priority::Batch,
        workload: workload.to_string(),
        seed: 5,
        plan: plan.to_string(),
        event_budget: 0,
    };
    let jobs: Vec<_> = [
        spec("synth-dpa", "none"),
        spec("synth-dpq", "none"),
        spec("relax", "drip"),
        spec("relax", "dup"),
    ]
    .into_iter()
    .map(|s| match svc.submit(s) {
        Admission::Accepted(job) => job,
        Admission::Rejected { reason } => panic!("unexpected shed: {reason:?}"),
    })
    .collect();

    let report = svc.shutdown();
    assert_eq!(report.jobs.len(), 4, "all four jobs reported");
    let conservation = check_conservation(&report.log);
    assert!(conservation.is_empty(), "conservation: {conservation:?}");
    let of = |i: usize| {
        &report
            .jobs
            .iter()
            .find(|j| j.job == jobs[i])
            .expect("reported")
            .report
    };
    assert!(
        of(0).completed && of(3).completed,
        "the good jobs on either side ran"
    );
    for (i, kind, name) in [(1, "workload", "synth-dpq"), (2, "plan", "drip")] {
        let r = of(i);
        assert!(!r.completed && !r.budget_exhausted && r.sim_events == 0);
        assert!(
            r.stall.contains(&format!("unknown {kind} {name:?}"))
                && r.stall.contains("expected one of"),
            "stall reason names the bad {kind} and the valid set: {}",
            r.stall
        );
    }
    let (_, u) = &report.ledger[0];
    assert_eq!(
        (u.accepted, u.completed, u.stalled, u.outstanding),
        (4, 2, 2, 0)
    );
}
