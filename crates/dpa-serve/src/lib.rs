//! `dpa-serve` — the multi-tenant run service around the DPA runtime.
//!
//! The service scales as *jobs per second*, not nodes per job: it
//! accepts run requests (a DST workload + seed + fault plan on a tenant's
//! account), schedules them across a pool of sim shards, and answers
//! every submission synchronously — accepted with a [`JobId`] or shed
//! with a structured [`RejectReason`], never a hang.
//!
//! The crate splits policy from machinery:
//!
//! - [`sched`] — the pure scheduler: admission control, bounded per-lane
//!   queues, weighted interactive/batch pick with starvation aging, and
//!   graceful degradation (batch concurrency shrinks before interactive
//!   sheds). Deterministic and replay-identical by construction.
//! - [`ledger`] — per-tenant accounting: admission counters plus usage
//!   metered from the PR-2 per-path message stats, wall clock, and
//!   simulator events.
//! - [`model`] — the seeded load generator and closed-loop model the
//!   proptests and the `service-*.case` corpus drive, plus the invariant
//!   checkers (conservation, no-starvation, bounded depth).
//! - [`pool`] — the live service: one worker thread per shard around the
//!   pure scheduler, executing jobs through a caller-supplied
//!   [`JobRunner`] (the bench crate's runner wraps `bench::dst`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ledger;
pub mod model;
pub mod pool;
pub mod sched;
pub mod types;

pub use ledger::{TenantLedger, TenantUsage};
pub use model::{
    check_conservation, check_depth_bound, check_no_starvation, gen_arrivals, replay_scenario,
    run_model, scenario, Arrival, LoadProfile, ModelRun, SCENARIOS,
};
pub use pool::{JobRecord, JobRunner, Service, ServiceReport};
pub use sched::{LogEntry, SchedConfig, Scheduler};
pub use types::{Admission, JobId, JobReport, JobSpec, Priority, RejectReason, TenantId};

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(tenant: u16, priority: Priority) -> JobSpec {
        JobSpec {
            tenant: TenantId(tenant),
            priority,
            workload: "synth".into(),
            seed: 7,
            plan: "none".into(),
            event_budget: 0,
        }
    }

    #[test]
    fn accepts_and_places_until_saturation_then_queues() {
        let mut s = Scheduler::new(SchedConfig {
            shards: 2,
            queue_cap: 2,
            ..SchedConfig::default()
        });
        for i in 0..4 {
            assert!(matches!(
                s.submit(i, &spec(0, Priority::Interactive)),
                Admission::Accepted(_)
            ));
        }
        assert_eq!(s.busy_shards(), 2);
        assert_eq!(s.queue_depth(Priority::Interactive), 2);
        // Queue full now.
        let adm = s.submit(9, &spec(0, Priority::Interactive));
        assert!(matches!(
            adm,
            Admission::Rejected {
                reason: RejectReason::QueueFull {
                    depth: 2,
                    cap: 2,
                    ..
                }
            }
        ));
    }

    #[test]
    fn completion_refills_from_queue_and_bills_tenant() {
        let mut s = Scheduler::new(SchedConfig {
            shards: 1,
            ..SchedConfig::default()
        });
        s.submit(0, &spec(3, Priority::Batch));
        s.submit(1, &spec(3, Priority::Batch));
        assert_eq!(s.queue_depth(Priority::Batch), 1);
        let report = JobReport {
            completed: true,
            sim_events: 500,
            wall_ns: 42,
            ..JobReport::default()
        };
        let done = s.complete(10, 0, &report);
        assert_eq!(done, JobId(0));
        // The queued job took the freed shard.
        assert_eq!(s.busy_shards(), 1);
        assert_eq!(s.queue_depth(Priority::Batch), 0);
        let u = s.ledger().usage(TenantId(3));
        assert_eq!((u.accepted, u.completed, u.outstanding), (2, 1, 1));
        assert_eq!((u.sim_events, u.wall_ns), (500, 42));
    }

    #[test]
    fn tenant_outstanding_cap_sheds() {
        let mut s = Scheduler::new(SchedConfig {
            shards: 1,
            tenant_outstanding_cap: 2,
            ..SchedConfig::default()
        });
        s.submit(0, &spec(1, Priority::Interactive));
        s.submit(1, &spec(1, Priority::Interactive));
        assert!(matches!(
            s.submit(2, &spec(1, Priority::Interactive)),
            Admission::Rejected {
                reason: RejectReason::TenantOutstanding {
                    outstanding: 2,
                    cap: 2
                }
            }
        ));
        // A different tenant is unaffected.
        assert!(matches!(
            s.submit(3, &spec(2, Priority::Interactive)),
            Admission::Accepted(_)
        ));
    }

    #[test]
    fn tenant_event_budget_sheds_after_spend() {
        let mut s = Scheduler::new(SchedConfig {
            shards: 1,
            tenant_event_budget: 1_000,
            ..SchedConfig::default()
        });
        s.submit(0, &spec(0, Priority::Batch));
        let report = JobReport {
            completed: true,
            sim_events: 1_500,
            ..JobReport::default()
        };
        s.complete(5, 0, &report);
        assert!(matches!(
            s.submit(6, &spec(0, Priority::Batch)),
            Admission::Rejected {
                reason: RejectReason::TenantEventBudget {
                    spent: 1_500,
                    budget: 1_000
                }
            }
        ));
    }

    #[test]
    fn over_age_batch_head_beats_interactive() {
        let mut s = Scheduler::new(SchedConfig {
            shards: 1,
            aging_ns: 100,
            ..SchedConfig::default()
        });
        // Occupy the only shard, then queue one batch and one interactive.
        s.submit(0, &spec(0, Priority::Interactive));
        s.submit(1, &spec(0, Priority::Batch));
        s.submit(2, &spec(0, Priority::Interactive));
        // Complete far past the aging bound: the batch head must win.
        s.complete(
            500,
            0,
            &JobReport {
                completed: true,
                ..JobReport::default()
            },
        );
        let placed: Vec<_> = s
            .log()
            .iter()
            .filter_map(|e| match e {
                LogEntry::Place { job, priority, .. } => Some((*job, *priority)),
                _ => None,
            })
            .collect();
        assert_eq!(placed[1], (JobId(1), Priority::Batch));
    }

    #[test]
    fn degradation_shrinks_batch_cap_to_floor_one() {
        let cfg = SchedConfig {
            shards: 4,
            batch_shard_cap: 3,
            degrade_depth: 2,
            queue_cap: 64,
            ..SchedConfig::default()
        };
        let mut s = Scheduler::new(cfg);
        // Saturate all shards so everything else queues.
        for i in 0..4 {
            s.submit(i, &spec(0, Priority::Batch));
        }
        assert_eq!(s.effective_batch_cap(), 3);
        // Push interactive depth past degrade_depth.
        for i in 0..6 {
            s.submit(10 + i, &spec(1, Priority::Interactive));
        }
        // depth 6, excess 4 over degrade_depth 2 => 3 - 4 floored at 1.
        assert_eq!(s.effective_batch_cap(), 1);
    }

    #[test]
    fn drain_rejects_with_shutting_down() {
        let mut s = Scheduler::new(SchedConfig::default());
        s.drain();
        assert!(matches!(
            s.submit(0, &spec(0, Priority::Interactive)),
            Admission::Rejected {
                reason: RejectReason::ShuttingDown
            }
        ));
    }

    #[test]
    fn model_scenarios_replay_clean() {
        for name in SCENARIOS {
            let violations = replay_scenario(name, 0xD5A).expect("known scenario");
            assert!(violations.is_empty(), "{name}: {violations:?}");
        }
    }

    #[test]
    fn live_pool_runs_jobs_and_drains() {
        struct Sleepy;
        impl JobRunner for Sleepy {
            fn run(&self, spec: &JobSpec, _budget: u64, _wall: Option<u64>) -> JobReport {
                std::thread::sleep(std::time::Duration::from_micros(200));
                JobReport {
                    completed: true,
                    sim_events: spec.seed % 100,
                    ..JobReport::default()
                }
            }
        }
        let svc = Service::start(
            SchedConfig {
                shards: 2,
                ..SchedConfig::default()
            },
            Sleepy,
        );
        let mut accepted = 0;
        for i in 0..20u64 {
            let pri = if i % 3 == 0 {
                Priority::Batch
            } else {
                Priority::Interactive
            };
            if matches!(
                svc.submit(spec((i % 4) as u16, pri)),
                Admission::Accepted(_)
            ) {
                accepted += 1;
            }
        }
        let report = svc.shutdown();
        assert_eq!(report.jobs.len(), accepted);
        assert!(report.jobs.iter().all(|j| j.report.completed));
        assert!(check_conservation(&report.log).is_empty());
        let total: u64 = report.ledger.iter().map(|(_, u)| u.completed).sum();
        assert_eq!(total, accepted as u64);
    }
}
