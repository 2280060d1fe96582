//! The live service: one OS worker thread per sim shard, wrapped around
//! the pure [`Scheduler`].
//!
//! All policy lives in the scheduler; this module only supplies the
//! machinery — a mutex-guarded scheduler, a condvar for the workers, a
//! monotonic epoch clock, and a [`JobRunner`] hook the caller implements
//! (the bench crate's runner drives `bench::dst::run_one`). Submission is
//! synchronous and never blocks on capacity: the scheduler answers
//! [`Admission::Rejected`] immediately when shedding.

use crate::ledger::TenantUsage;
use crate::sched::{LogEntry, SchedConfig, Scheduler};
use crate::types::{Admission, JobId, JobReport, JobSpec, Priority, TenantId};
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// How a shard executes one job. Implementations must be cheap to share
/// (`&self`) — every worker thread calls concurrently.
pub trait JobRunner: Send + Sync {
    /// Run `spec` to completion (or budget exhaustion) and report.
    /// `event_budget` is the resolved per-job cap the run must honor —
    /// a runaway job has to stop with `budget_exhausted`, not spin.
    /// `wall_budget_ns` is the tenant's remaining wall-clock budget at
    /// placement time (`None` when unconfigured): a run that outlives it
    /// must stop at the next phase boundary with `budget_exhausted` so
    /// the shard is reclaimed and the overrun billed, never silently
    /// absorbed.
    fn run(&self, spec: &JobSpec, event_budget: u64, wall_budget_ns: Option<u64>) -> JobReport;
}

/// One unit of work handed to a shard worker:
/// `(job, spec, event_budget, wall_budget_ns)`.
type WorkItem = (JobId, JobSpec, u64, Option<u64>);

struct State {
    sched: Scheduler,
    /// Specs of queued + running jobs.
    specs: BTreeMap<u64, JobSpec>,
    /// Work handed to each shard's worker, not yet picked up.
    work: Vec<Option<WorkItem>>,
    /// Log length already scanned for placements.
    cursor: usize,
    /// Reports of finished jobs.
    reports: BTreeMap<u64, JobReport>,
    stop: bool,
}

struct Inner {
    state: Mutex<State>,
    cv: Condvar,
    runner: Box<dyn JobRunner>,
    epoch: Instant,
}

impl Inner {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Hand every placement logged since `cursor` to its shard's worker.
    /// Called under the lock after any scheduler call that can place.
    fn sync_placements(&self, st: &mut State) {
        let mut assign = Vec::new();
        {
            let log = st.sched.log();
            for e in &log[st.cursor..] {
                if let LogEntry::Place { job, shard, .. } = e {
                    assign.push((*job, *shard));
                }
            }
            st.cursor = log.len();
        }
        for (job, shard) in assign {
            let spec = st.specs[&job.0].clone();
            let budget = st.sched.resolve_event_budget(&spec);
            let wall = st.sched.resolve_wall_budget(&spec);
            debug_assert!(st.work[shard].is_none(), "shard {shard} double-assigned");
            st.work[shard] = Some((job, spec, budget, wall));
        }
    }
}

/// One finished job with its end-to-end timings, derived from the
/// decision log at shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRecord {
    /// The job.
    pub job: JobId,
    /// Billed tenant.
    pub tenant: TenantId,
    /// Lane it ran in.
    pub priority: Priority,
    /// Admission-to-placement wait.
    pub wait_ns: u64,
    /// Admission-to-finish latency (the per-tenant SLO metric).
    pub latency_ns: u64,
    /// The shard's report.
    pub report: JobReport,
}

/// Everything a drained service hands back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceReport {
    /// The scheduler's full decision log.
    pub log: Vec<LogEntry>,
    /// One record per finished job, in job-id order.
    pub jobs: Vec<JobRecord>,
    /// Final per-tenant accounts, in tenant order.
    pub ledger: Vec<(TenantId, TenantUsage)>,
}

/// A running shard pool. Create with [`Service::start`], feed with
/// [`Service::submit`], and end with [`Service::shutdown`] (drains, then
/// joins the workers).
pub struct Service {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Service {
    /// Spin up `cfg.shards` worker threads around a fresh scheduler.
    pub fn start(cfg: SchedConfig, runner: impl JobRunner + 'static) -> Service {
        let shards = cfg.shards;
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                sched: Scheduler::new(cfg),
                specs: BTreeMap::new(),
                work: (0..shards).map(|_| None).collect(),
                cursor: 0,
                reports: BTreeMap::new(),
                stop: false,
            }),
            cv: Condvar::new(),
            runner: Box::new(runner),
            epoch: Instant::now(),
        });
        let workers = (0..shards)
            .map(|shard| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("dpa-shard-{shard}"))
                    .spawn(move || worker(inner, shard))
                    .expect("spawn shard worker")
            })
            .collect();
        Service { inner, workers }
    }

    /// Offer a job. Answers synchronously — accepted jobs run on the
    /// pool; shed jobs get a structured reason, never a hang.
    pub fn submit(&self, spec: JobSpec) -> Admission {
        let mut st = self.inner.state.lock().expect("service lock");
        let now = self.inner.now_ns();
        let adm = st.sched.submit(now, &spec);
        if let Admission::Accepted(job) = adm {
            st.specs.insert(job.0, spec);
        }
        self.inner.sync_placements(&mut st);
        drop(st);
        self.inner.cv.notify_all();
        adm
    }

    /// Snapshot of `(interactive depth, batch depth, busy shards)` — the
    /// overload tests poll this to assert boundedness while the burst is
    /// in flight.
    pub fn load(&self) -> (usize, usize, usize) {
        let st = self.inner.state.lock().expect("service lock");
        (
            st.sched.queue_depth(Priority::Interactive),
            st.sched.queue_depth(Priority::Batch),
            st.sched.busy_shards(),
        )
    }

    /// Stop admitting, drain every queued and running job, join the
    /// workers, and hand back the decision log, per-job records, and the
    /// final ledger.
    pub fn shutdown(self) -> ServiceReport {
        {
            let mut st = self.inner.state.lock().expect("service lock");
            st.sched.drain();
            while !st.sched.idle() {
                st = self.inner.cv.wait(st).expect("service lock");
            }
            st.stop = true;
        }
        self.inner.cv.notify_all();
        for w in self.workers {
            w.join().expect("shard worker panicked");
        }
        let mut st = self.inner.state.lock().expect("service lock");
        let log = st.sched.take_log();
        let jobs = job_records(&log, &st.reports);
        let ledger = st
            .sched
            .ledger()
            .iter()
            .map(|(t, u)| (t, u.clone()))
            .collect();
        ServiceReport { log, jobs, ledger }
    }
}

fn worker(inner: Arc<Inner>, shard: usize) {
    loop {
        let (job, spec, budget, wall) = {
            let mut st = inner.state.lock().expect("service lock");
            loop {
                if let Some(w) = st.work[shard].take() {
                    break w;
                }
                if st.stop {
                    return;
                }
                st = inner.cv.wait(st).expect("service lock");
            }
        };
        let t0 = Instant::now();
        let mut report = inner.runner.run(&spec, budget, wall);
        report.wall_ns = t0.elapsed().as_nanos() as u64;
        let mut st = inner.state.lock().expect("service lock");
        let now = inner.now_ns();
        st.sched.complete(now, shard, &report);
        st.reports.insert(job.0, report);
        st.specs.remove(&job.0);
        inner.sync_placements(&mut st);
        drop(st);
        inner.cv.notify_all();
    }
}

/// Join the decision log with the shard reports into per-job records.
fn job_records(log: &[LogEntry], reports: &BTreeMap<u64, JobReport>) -> Vec<JobRecord> {
    struct Times {
        tenant: TenantId,
        priority: Priority,
        admit_ns: u64,
        place_ns: u64,
        finish_ns: u64,
    }
    let mut times: BTreeMap<u64, Times> = BTreeMap::new();
    for e in log {
        match e {
            LogEntry::Admit {
                now_ns,
                job,
                tenant,
                priority,
                ..
            } => {
                times.insert(
                    job.0,
                    Times {
                        tenant: *tenant,
                        priority: *priority,
                        admit_ns: *now_ns,
                        place_ns: 0,
                        finish_ns: 0,
                    },
                );
            }
            LogEntry::Place { now_ns, job, .. } => {
                if let Some(t) = times.get_mut(&job.0) {
                    t.place_ns = *now_ns;
                }
            }
            LogEntry::Finish { now_ns, job, .. } => {
                if let Some(t) = times.get_mut(&job.0) {
                    t.finish_ns = *now_ns;
                }
            }
            LogEntry::Reject { .. } => {}
        }
    }
    times
        .into_iter()
        .filter_map(|(id, t)| {
            let report = reports.get(&id)?.clone();
            Some(JobRecord {
                job: JobId(id),
                tenant: t.tenant,
                priority: t.priority,
                wait_ns: t.place_ns.saturating_sub(t.admit_ns),
                latency_ns: t.finish_ns.saturating_sub(t.admit_ns),
                report,
            })
        })
        .collect()
}
