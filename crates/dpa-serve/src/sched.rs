//! The shard-pool scheduler: a *pure, seed-free* state machine.
//!
//! Every decision — admit, reject, place, finish — is a deterministic
//! function of the configuration and the sequence of
//! [`Scheduler::submit`]/[`Scheduler::complete`] calls (each stamped with
//! a caller-supplied clock). There is no internal randomness, no hash-map
//! iteration, no wall clock: feed the same arrival stream twice and the
//! decision [`log`](Scheduler::log) is bit-identical. That is what makes
//! the scheduler proptest-able and corpus-replayable (see
//! [`crate::model`]).
//!
//! Policy, in decision order:
//! 1. **Admission control** — a draining service, a tenant over any
//!    budget, or a full lane queue sheds the job *immediately* with a
//!    structured [`RejectReason`]; a caller is never left hanging.
//! 2. **Degradation before shedding** — when the interactive queue grows
//!    past [`SchedConfig::degrade_depth`], the number of shards batch may
//!    occupy shrinks one per excess entry (floor 1), so overload squeezes
//!    batch concurrency *before* interactive submissions start bouncing
//!    off their queue cap.
//! 3. **Weighted pick with aging** — a free shard takes the lane chosen
//!    by smooth weighted round-robin
//!    ([`SchedConfig::interactive_weight`] :
//!    [`SchedConfig::batch_weight`]), except that a batch head older than
//!    [`SchedConfig::aging_ns`] is served first whenever batch is under
//!    its concurrency cap — the no-starvation guarantee the proptests
//!    pin.

use crate::ledger::TenantLedger;
use crate::types::{Admission, JobId, JobReport, JobSpec, Priority, RejectReason, TenantId};
use std::collections::VecDeque;

/// Scheduler knobs. Everything is explicit — the scheduler reads no
/// environment and rolls no dice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedConfig {
    /// Number of sim shards (the pool's concurrency).
    pub shards: usize,
    /// Per-lane bounded queue capacity; a submission to a full lane is
    /// shed with [`RejectReason::QueueFull`].
    pub queue_cap: usize,
    /// Weighted-pick share for the interactive lane.
    pub interactive_weight: u32,
    /// Weighted-pick share for the batch lane.
    pub batch_weight: u32,
    /// A batch head queued longer than this is served before any
    /// interactive job (while batch is under its concurrency cap).
    pub aging_ns: u64,
    /// Most shards batch may occupy when the service is healthy
    /// (clamped to `shards`).
    pub batch_shard_cap: usize,
    /// Interactive queue depth at which batch concurrency starts
    /// shrinking (one shard per excess entry, floor 1).
    pub degrade_depth: usize,
    /// Max queued + running jobs per tenant.
    pub tenant_outstanding_cap: u64,
    /// Lifetime simulated-event budget per tenant (`u64::MAX` = unmetered).
    pub tenant_event_budget: u64,
    /// Lifetime wall-clock budget per tenant (`u64::MAX` = unmetered).
    pub tenant_wall_budget_ns: u64,
    /// Default per-job event budget applied when a [`JobSpec`] asks for
    /// `0`; runs hitting it stop with a structured `budget_exhausted`
    /// stall and are reaped.
    pub job_event_budget: u64,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            shards: 4,
            queue_cap: 64,
            interactive_weight: 3,
            batch_weight: 1,
            aging_ns: 50_000_000,
            batch_shard_cap: 4,
            degrade_depth: 8,
            tenant_outstanding_cap: 32,
            tenant_event_budget: u64::MAX,
            tenant_wall_budget_ns: u64::MAX,
            job_event_budget: 20_000_000,
        }
    }
}

/// One decision, as recorded in the scheduler's append-only log. The log
/// *is* the scheduler's observable behavior: replay identity, conservation
/// and no-starvation are all phrased over it (see [`crate::model`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogEntry {
    /// A submission entered a lane queue.
    Admit {
        /// Caller clock at admission.
        now_ns: u64,
        /// Assigned job id.
        job: JobId,
        /// Billed tenant.
        tenant: TenantId,
        /// Lane admitted to.
        priority: Priority,
        /// Lane depth *after* the push.
        depth: usize,
    },
    /// A submission was shed.
    Reject {
        /// Caller clock at the decision.
        now_ns: u64,
        /// Tenant that was turned away.
        tenant: TenantId,
        /// Lane it asked for.
        priority: Priority,
        /// Structured reason.
        reason: RejectReason,
    },
    /// A queued job took a free shard. The three `batch_*` fields freeze
    /// the inputs of the pick decision so the no-starvation oracle can
    /// audit it after the fact.
    Place {
        /// Caller clock at placement.
        now_ns: u64,
        /// Placed job.
        job: JobId,
        /// Shard index it runs on.
        shard: usize,
        /// Its lane.
        priority: Priority,
        /// Time it spent queued.
        wait_ns: u64,
        /// Age of the batch head at the decision (0 when batch was empty).
        batch_head_age_ns: u64,
        /// Batch jobs running *before* this placement.
        batch_running: usize,
        /// Effective batch concurrency cap at the decision (post-degradation).
        batch_cap: usize,
    },
    /// A shard finished (or reaped) its job.
    Finish {
        /// Caller clock at completion.
        now_ns: u64,
        /// Finished job.
        job: JobId,
        /// Shard that ran it.
        shard: usize,
        /// Whether the run reached quiescence.
        completed: bool,
        /// Whether it was stopped on event-budget exhaustion.
        reaped: bool,
    },
}

#[derive(Debug, Clone)]
struct Queued {
    job: JobId,
    tenant: TenantId,
    admitted_ns: u64,
}

#[derive(Debug, Clone)]
struct Running {
    job: JobId,
    tenant: TenantId,
    priority: Priority,
}

/// The pure scheduler. See the [module docs](crate::sched) for the policy.
#[derive(Debug, Clone)]
pub struct Scheduler {
    cfg: SchedConfig,
    queues: [VecDeque<Queued>; 2],
    shards: Vec<Option<Running>>,
    /// Smooth-WRR credit per lane.
    credit: [i64; 2],
    batch_running: usize,
    ledger: TenantLedger,
    log: Vec<LogEntry>,
    next_job: u64,
    draining: bool,
}

impl Scheduler {
    /// Fresh scheduler over `cfg.shards` idle shards.
    pub fn new(cfg: SchedConfig) -> Scheduler {
        assert!(cfg.shards >= 1, "need at least one shard");
        assert!(cfg.queue_cap >= 1, "need a non-degenerate queue");
        assert!(
            cfg.interactive_weight >= 1 && cfg.batch_weight >= 1,
            "lane weights must be positive"
        );
        let shards = vec![None; cfg.shards];
        Scheduler {
            cfg,
            queues: [VecDeque::new(), VecDeque::new()],
            shards,
            credit: [0, 0],
            batch_running: 0,
            ledger: TenantLedger::new(),
            log: Vec::new(),
            next_job: 0,
            draining: false,
        }
    }

    /// Offer a job at caller time `now_ns`. Returns synchronously with an
    /// [`Admission`]; on acceptance the dispatch loop runs, so the job may
    /// already be placed (check [`Scheduler::log`]). `now_ns` must be
    /// monotone across calls.
    pub fn submit(&mut self, now_ns: u64, spec: &JobSpec) -> Admission {
        if let Some(reason) = self.admission_veto(spec) {
            self.ledger.note_reject(spec.tenant);
            self.log.push(LogEntry::Reject {
                now_ns,
                tenant: spec.tenant,
                priority: spec.priority,
                reason: reason.clone(),
            });
            return Admission::Rejected { reason };
        }
        let job = JobId(self.next_job);
        self.next_job += 1;
        let lane = spec.priority.lane();
        self.queues[lane].push_back(Queued {
            job,
            tenant: spec.tenant,
            admitted_ns: now_ns,
        });
        self.ledger.note_admit(spec.tenant);
        self.log.push(LogEntry::Admit {
            now_ns,
            job,
            tenant: spec.tenant,
            priority: spec.priority,
            depth: self.queues[lane].len(),
        });
        self.dispatch(now_ns);
        Admission::Accepted(job)
    }

    fn admission_veto(&self, spec: &JobSpec) -> Option<RejectReason> {
        if self.draining {
            return Some(RejectReason::ShuttingDown);
        }
        let u = self.ledger.usage(spec.tenant);
        if u.outstanding >= self.cfg.tenant_outstanding_cap {
            return Some(RejectReason::TenantOutstanding {
                outstanding: u.outstanding,
                cap: self.cfg.tenant_outstanding_cap,
            });
        }
        if u.sim_events >= self.cfg.tenant_event_budget {
            return Some(RejectReason::TenantEventBudget {
                spent: u.sim_events,
                budget: self.cfg.tenant_event_budget,
            });
        }
        if u.wall_ns >= self.cfg.tenant_wall_budget_ns {
            return Some(RejectReason::TenantWallBudget {
                spent_ns: u.wall_ns,
                budget_ns: self.cfg.tenant_wall_budget_ns,
            });
        }
        let lane = spec.priority.lane();
        if self.queues[lane].len() >= self.cfg.queue_cap {
            return Some(RejectReason::QueueFull {
                lane: spec.priority,
                depth: self.queues[lane].len(),
                cap: self.cfg.queue_cap,
            });
        }
        None
    }

    /// Report the job on `shard` finished at caller time `now_ns`, bill
    /// the tenant, and refill the shard from the queues. Returns the
    /// finished job's id. Panics if the shard is idle (a service bug, not
    /// a load condition).
    pub fn complete(&mut self, now_ns: u64, shard: usize, report: &JobReport) -> JobId {
        let running = self.shards[shard]
            .take()
            .unwrap_or_else(|| panic!("complete on idle shard {shard}"));
        if running.priority == Priority::Batch {
            self.batch_running -= 1;
        }
        self.ledger.note_finish(running.tenant, report);
        self.log.push(LogEntry::Finish {
            now_ns,
            job: running.job,
            shard,
            completed: report.completed,
            reaped: report.budget_exhausted,
        });
        self.dispatch(now_ns);
        running.job
    }

    /// Effective batch concurrency cap right now: the configured cap,
    /// shrunk one shard per interactive queue entry beyond
    /// `degrade_depth`, floored at 1 so aging can always drain batch.
    pub fn effective_batch_cap(&self) -> usize {
        let cap = self.cfg.batch_shard_cap.min(self.cfg.shards).max(1);
        let depth = self.queues[Priority::Interactive.lane()].len();
        if depth <= self.cfg.degrade_depth {
            cap
        } else {
            cap.saturating_sub(depth - self.cfg.degrade_depth).max(1)
        }
    }

    /// Fill free shards from the queues until neither lane is pickable.
    fn dispatch(&mut self, now_ns: u64) {
        while let Some(shard) = self.shards.iter().position(Option::is_none) {
            let cap = self.effective_batch_cap();
            let int_ready = !self.queues[0].is_empty();
            let bat_ready = !self.queues[1].is_empty() && self.batch_running < cap;
            let head_age = self.queues[1]
                .front()
                .map(|q| now_ns.saturating_sub(q.admitted_ns))
                .unwrap_or(0);
            let lane = match (int_ready, bat_ready) {
                (false, false) => break,
                (true, false) => 0,
                (false, true) => 1,
                // Aging first: an over-age batch head beats the weights.
                (true, true) if head_age >= self.cfg.aging_ns => 1,
                (true, true) => self.weighted_pick(),
            };
            let q = self.queues[lane]
                .pop_front()
                .expect("lane checked nonempty");
            let priority = Priority::ALL[lane];
            self.log.push(LogEntry::Place {
                now_ns,
                job: q.job,
                shard,
                priority,
                wait_ns: now_ns.saturating_sub(q.admitted_ns),
                batch_head_age_ns: head_age,
                batch_running: self.batch_running,
                batch_cap: cap,
            });
            if priority == Priority::Batch {
                self.batch_running += 1;
            }
            self.shards[shard] = Some(Running {
                job: q.job,
                tenant: q.tenant,
                priority,
            });
        }
    }

    /// Smooth weighted round-robin between the two (both-ready) lanes:
    /// each lane earns its weight, the richer lane is picked (interactive
    /// on ties) and pays the total. Deterministic, bounded credit.
    fn weighted_pick(&mut self) -> usize {
        let w = [
            self.cfg.interactive_weight as i64,
            self.cfg.batch_weight as i64,
        ];
        self.credit[0] += w[0];
        self.credit[1] += w[1];
        let lane = usize::from(self.credit[1] > self.credit[0]);
        self.credit[lane] -= w[0] + w[1];
        lane
    }

    /// Stop admitting: every further [`Scheduler::submit`] is shed with
    /// [`RejectReason::ShuttingDown`]. Queued and running jobs drain
    /// normally.
    pub fn drain(&mut self) {
        self.draining = true;
    }

    /// True when both queues are empty and every shard is idle.
    pub fn idle(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty) && self.shards.iter().all(Option::is_none)
    }

    /// Current queue depth of `priority`'s lane.
    pub fn queue_depth(&self, priority: Priority) -> usize {
        self.queues[priority.lane()].len()
    }

    /// Number of busy shards.
    pub fn busy_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.is_some()).count()
    }

    /// The per-job event budget a spec resolves to: its own, or the
    /// configured default when it asks for `0`.
    pub fn resolve_event_budget(&self, spec: &JobSpec) -> u64 {
        if spec.event_budget == 0 {
            self.cfg.job_event_budget
        } else {
            spec.event_budget
        }
    }

    /// The wall-clock budget (ns) the tenant has *left* when this spec is
    /// placed, or `None` when wall budgets are unconfigured. Admission
    /// vetoes a tenant already over budget; this closes the other half of
    /// the contract — a job admitted with a sliver of budget remaining
    /// carries that sliver into the run, where the phase-boundary check
    /// reaps it mid-flight instead of letting it run arbitrarily long on
    /// a budget that expired after admission.
    pub fn resolve_wall_budget(&self, spec: &JobSpec) -> Option<u64> {
        if self.cfg.tenant_wall_budget_ns == u64::MAX {
            return None;
        }
        let u = self.ledger.usage(spec.tenant);
        Some(self.cfg.tenant_wall_budget_ns.saturating_sub(u.wall_ns))
    }

    /// The configuration the scheduler was built with.
    pub fn config(&self) -> &SchedConfig {
        &self.cfg
    }

    /// The account book.
    pub fn ledger(&self) -> &TenantLedger {
        &self.ledger
    }

    /// The append-only decision log.
    pub fn log(&self) -> &[LogEntry] {
        &self.log
    }

    /// Take the decision log, leaving an empty one (for callers that
    /// stream it incrementally).
    pub fn take_log(&mut self) -> Vec<LogEntry> {
        std::mem::take(&mut self.log)
    }
}
