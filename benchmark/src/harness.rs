//! One benchmark run: one workload, one seed, one process.
//!
//! `--trace 0` measures the end-to-end metrics with every wrapper absent;
//! `--trace 1` is the separate traced run that produces the per-layer
//! numbers (see [`crate::layers`]). Either way the run sets up, warms up,
//! measures for the requested seconds, and checks every rep's outputs.

use crate::alloc;
use crate::json::Json;
use crate::serve::{self, Catalog, JobStream, MixRunner, ServeOutcome};
use crate::spec;
use crate::stats::{fast, median, percentile, FAST_PCT};
use crate::workloads::{self, measured_opts, Mode, Profile, Rep, SimWorkload};
use dpa_core::DstOptions;
use dpa_serve::{check_conservation, check_no_starvation, LogEntry, Service};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Parsed arguments of one run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload name (one of [`spec::WORKLOADS`]).
    pub workload: String,
    /// `--seed`: seeds `serve_mix`'s job stream. The simulated workloads
    /// have no random input left to seed (see [`workloads::WORLD_SEED`]).
    pub seed: u64,
    /// Host seconds the timed loop measures for.
    pub seconds: f64,
    /// `true`: the traced run (per-layer metrics).
    pub trace: bool,
    /// Problem sizes.
    pub profile: Profile,
}

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `name`; panics on a name that is not of record — the spec
    /// tables are the only place names are invented.
    pub fn set(&mut self, name: &str, value: f64) {
        let spec = spec::find(name).unwrap_or_else(|| panic!("metric {name:?} is not of record"));
        self.0.insert(spec.name, value);
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What a run reports: the contract's four keys, plus notes for humans.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Reps (or jobs) run.
    pub attempted: u64,
    /// Reps (or jobs) that did not complete, disagreed with the host
    /// oracle, left runtime state behind, differed from rep 0, or were shed.
    pub failed: u64,
    /// The metrics of the run's kind.
    pub metrics: Metrics,
    /// What failed, for stderr.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed`, and every metric
    /// of `table` with its unit. A per-layer metric the workload has no
    /// value for reads 0; a missing end-to-end metric is a bug.
    pub fn to_json(&self, table: &[spec::MetricSpec], per_layer: bool) -> Json {
        let metrics = table.iter().map(|m| {
            let value = match self.metrics.get(m.name) {
                Some(v) => v,
                None if per_layer => 0.0,
                None => panic!("end-to-end metric {} was not measured", m.name),
            };
            (
                m.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Set-ups per run; `setup_s` is their median.
fn setup_reps(profile: Profile) -> usize {
    match profile {
        Profile::Full => 7,
        Profile::Smoke => 2,
    }
}

/// Timed reps a run makes even when the clock has already run out.
const MIN_REPS: usize = 3;

/// This process's peak resident set, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Set up `profile`'s number of times, timing each; returns the last
/// set-up and the median time. Each earlier set-up is handed to `retire`
/// before the next begins, so peak memory is one world's.
fn timed_setups<T>(
    profile: Profile,
    mut build: impl FnMut() -> Result<T, String>,
    mut retire: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..setup_reps(profile) {
        if let Some(prev) = last.take() {
            retire(prev);
        }
        let t = Instant::now();
        last = Some(build()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&secs)))
}

/// Per-rep checks beyond [`serve::audit`]: the `RunReport`s equal rep 0's.
fn verify_rep(
    w: &dyn SimWorkload,
    rep: &Rep,
    rep0: Option<&Rep>,
    baseline: &Rep,
) -> Result<(), String> {
    serve::audit(w, rep, Some(baseline))?;
    match rep0 {
        Some(r0) if r0.reports != rep.reports => {
            Err("RunReport differs from rep 0 (determinism)".into())
        }
        _ => Ok(()),
    }
}

/// The simulated-machine metrics of `rep` against its `baseline`.
fn sim_metrics(m: &mut Metrics, reps: &[&Rep], baselines: &[&Rep]) {
    let sum = |f: fn(&Rep) -> u64, rs: &[&Rep]| rs.iter().map(|r| f(r)).sum::<u64>() as f64;
    m.set("sim_makespan_ms", sum(Rep::makespan_ns, reps) / 1e6);
    m.set("sim_msgs", sum(Rep::msgs, reps));
    m.set("sim_mbytes", sum(Rep::bytes, reps) / 1e6);
    m.set(
        "sim_speedup_vs_baseline",
        sum(Rep::makespan_ns, baselines) / sum(Rep::makespan_ns, reps),
    );
}

/// Shared state of a sim-workload run after set-up and warm-up.
pub struct SimRun {
    /// The workload.
    pub work: Box<dyn SimWorkload>,
    /// The measured lane: pinned engine, unperturbed schedule.
    pub opts: DstOptions,
    /// The baseline variant's run (integer results are the reference).
    pub baseline: Rep,
    /// The discarded warm-up rep: the determinism reference.
    pub rep0: Rep,
    /// Failures so far.
    pub notes: Vec<String>,
    /// Reps run so far.
    pub attempted: u64,
    /// Reps failed so far.
    pub failed: u64,
}

impl SimRun {
    /// Run the baseline once and one warm-up rep, checking both.
    pub fn start(work: Box<dyn SimWorkload>) -> SimRun {
        let opts = measured_opts();
        let baseline = work.run(Mode::Baseline(&opts));
        let mut run = SimRun {
            rep0: work.run(Mode::Plain(&opts)),
            work,
            opts,
            baseline,
            notes: Vec::new(),
            attempted: 1,
            failed: 0,
        };
        // The baseline is held to the host oracle too: it is the reference
        // every rep's integer results are compared with.
        if let Err(e) = serve::audit(&*run.work, &run.baseline, None) {
            run.notes.push(format!("baseline run: {e}"));
        }
        if let Err(e) = verify_rep(&*run.work, &run.rep0, None, &run.baseline) {
            run.failed += 1;
            run.notes.push(format!("warm-up rep: {e}"));
        }
        run
    }

    /// Check `rep` and count it.
    pub fn account(&mut self, what: &str, rep: &Rep) {
        self.attempted += 1;
        if let Err(e) = verify_rep(&*self.work, rep, Some(&self.rep0), &self.baseline) {
            self.failed += 1;
            self.notes.push(format!("{what}: {e}"));
        }
    }

    /// Plain reps until `seconds` have passed and `min_reps` are in;
    /// returns each rep's host wall time in seconds. Checks sit outside
    /// the timed region.
    pub fn timed_reps(&mut self, seconds: f64, min_reps: usize) -> Vec<f64> {
        let t0 = Instant::now();
        let mut walls = Vec::new();
        while walls.len() < min_reps || t0.elapsed().as_secs_f64() < seconds {
            let t = Instant::now();
            let rep = self.work.run(Mode::Plain(&self.opts));
            walls.push(t.elapsed().as_secs_f64());
            self.account(&format!("rep {}", walls.len()), &rep);
        }
        walls
    }
}

/// The end-to-end run of a simulated workload.
fn sim_end_to_end(args: &RunArgs) -> Result<Outcome, String> {
    let build = || {
        workloads::build(&args.workload, args.profile)
            .ok_or_else(|| format!("{} is not a simulated workload", args.workload))
    };
    let (work, setup_s) = timed_setups(args.profile, build, drop)?;
    let mut run = SimRun::start(work);

    // Allocator traffic of one untimed rep; repeats exactly.
    let (rep, allocs) = alloc::count(|| run.work.run(Mode::Plain(&run.opts)));
    run.account("allocator rep", &rep);
    drop(rep);

    let walls = run.timed_reps(args.seconds, MIN_REPS);
    let events = run.rep0.events() as f64;

    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    // One rep is this workload's job, submitted when the last one finishes:
    // all three are the rep wall under another name, the throughputs from
    // the fast-decile rep and the latency from the median its name says.
    m.set("events_per_s", events / fast(&walls));
    m.set("jobs_per_s", 1.0 / fast(&walls));
    m.set("job_latency_ms_p50", median(&walls) * 1e3);
    sim_metrics(&mut m, &[&run.rep0], &[&run.baseline]);
    m.set("allocs_per_kevent", allocs as f64 / (events / 1e3));
    m.set("peak_rss_mb", peak_rss_mb());
    Ok(Outcome {
        correct: run.notes.is_empty(),
        attempted: run.attempted,
        failed: run.failed,
        metrics: m,
        notes: run.notes,
    })
}

/// `serve_mix` after set-up: the catalog and a started service.
pub struct ServeSetup {
    /// The job kinds with their canonical runs.
    pub catalog: Arc<Catalog>,
    /// The running service.
    pub service: Service,
}

/// Set up `serve_mix`: worlds, oracles, canonical-run cache, `Service::start`.
pub fn serve_setup(profile: Profile) -> Result<ServeSetup, String> {
    let catalog = Arc::new(Catalog::build(profile)?);
    let service = Service::start(serve::sched_config(), MixRunner::new(catalog.clone()));
    Ok(ServeSetup { catalog, service })
}

/// Audit a drained closed-loop run; returns `(attempted, failed, notes)`.
pub fn audit_serve(out: &ServeOutcome) -> (u64, u64, Vec<String>) {
    let mut notes = Vec::new();
    let cfg = serve::sched_config();
    notes.extend(
        check_conservation(&out.report.log)
            .into_iter()
            .map(|v| format!("conservation: {v}")),
    );
    notes.extend(
        check_no_starvation(&out.report.log, &cfg)
            .into_iter()
            .map(|v| format!("starvation: {v}")),
    );
    let mut failed = out.rejected;
    if out.rejected > 0 {
        notes.push(format!(
            "{} submissions shed by a closed loop that never overfills",
            out.rejected
        ));
    }
    for j in &out.report.jobs {
        let r = &j.report;
        if !r.completed || r.budget_exhausted || r.violations > 0 {
            failed += 1;
            notes.push(format!("job {}: {}", j.job.0, r.stall));
        }
    }
    let finished = out.report.jobs.len() as u64;
    let accepted = out.specs.len() as u64 - out.rejected;
    if finished != accepted {
        failed += accepted.saturating_sub(finished);
        notes.push(format!("{accepted} jobs accepted but {finished} finished"));
    }
    (out.specs.len() as u64, failed, notes)
}

/// One finished job of a closed-loop run.
struct Finished {
    /// When it finished, ns on the service's clock.
    at_ns: u64,
    /// Simulator events it ran.
    events: u64,
    /// Admission-to-finish latency, ms.
    latency_ms: f64,
}

/// The finished jobs of `out` in the order they finished.
fn finished(out: &ServeOutcome) -> Vec<Finished> {
    let records: BTreeMap<u64, _> = out.report.jobs.iter().map(|j| (j.job.0, j)).collect();
    out.report
        .log
        .iter()
        .filter_map(|e| match e {
            LogEntry::Finish { now_ns, job, .. } => Some((*now_ns, records[&job.0])),
            _ => None,
        })
        .map(|(at_ns, j)| Finished {
            at_ns,
            events: j.report.sim_events,
            latency_ms: j.latency_ns as f64 / 1e6,
        })
        .collect()
}

/// `(jobs/s, simulator events/s, median latency in ms)` of the fast-decile
/// block of `block` consecutive completions. A block of one round of the job
/// stream holds the same mix give or take the few jobs the priority lanes
/// reorder, so a block is to `serve_mix` what a rep is to a simulated
/// workload, and the fast decile is there for the same reason: over ten
/// 20-second runs on a bad hour whole-run jobs/s spread 29 % (IQR over
/// median) and the median latency 21 %, the fast-decile block 15 % and 13 %.
/// A run too short for one block reports its whole-run figures over `wall_s`.
fn block_metrics(jobs: &[Finished], block: usize, wall_s: f64) -> (f64, f64, f64) {
    let events = |js: &[Finished]| js.iter().map(|j| j.events).sum::<u64>() as f64;
    let latency = |js: &[Finished]| median(&js.iter().map(|j| j.latency_ms).collect::<Vec<_>>());
    let (mut job_rates, mut event_rates, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    // A block runs from the completion before its first job to its last.
    for w in jobs.windows(block + 1).step_by(block) {
        let block_s = (w[block].at_ns - w[0].at_ns) as f64 / 1e9;
        job_rates.push(block as f64 / block_s);
        event_rates.push(events(&w[1..]) / block_s);
        latencies.push(latency(&w[1..]));
    }
    if job_rates.is_empty() {
        let latency = if jobs.is_empty() {
            f64::NAN
        } else {
            latency(jobs)
        };
        return (jobs.len() as f64 / wall_s, events(jobs) / wall_s, latency);
    }
    (
        percentile(&job_rates, 100.0 - FAST_PCT),
        percentile(&event_rates, 100.0 - FAST_PCT),
        fast(&latencies),
    )
}

/// The end-to-end run of `serve_mix`.
fn serve_end_to_end(args: &RunArgs) -> Result<Outcome, String> {
    let (ServeSetup { catalog, service }, setup_s) = timed_setups(
        args.profile,
        || serve_setup(args.profile),
        |prev| drop(prev.service.shutdown()),
    )?;

    // The simulated-machine and allocator metrics come from the four
    // canonical runs: a fixed sample of the mix, where the jobs a timed run
    // happens to finish are not.
    let opts = measured_opts();
    let canon: Vec<&Rep> = catalog.kinds.iter().map(|k| &k.canon).collect();
    let baselines: Vec<Rep> = catalog
        .kinds
        .iter()
        .map(|k| k.work.run(Mode::Baseline(&opts)))
        .collect();
    let mut notes = Vec::new();
    for (k, b) in catalog.kinds.iter().zip(&baselines) {
        if let Err(e) = serve::audit(&*k.work, b, Some(&k.canon)) {
            notes.push(format!("baseline {} run: {e}", k.name));
        }
    }
    // The service's worker is parked, so the count is this thread's alone.
    let (_, allocs) = alloc::count(|| {
        for k in &catalog.kinds {
            std::hint::black_box(k.work.run(Mode::Plain(&opts)));
        }
    });
    let canon_events: u64 = canon.iter().map(|r| r.events()).sum();

    let out = serve::closed_loop(
        service,
        &mut JobStream::new(args.seed, &catalog),
        args.seconds,
    );
    let (attempted, failed, audit_notes) = audit_serve(&out);
    notes.extend(audit_notes);

    let jobs = &out.report.jobs;
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    let round = catalog.kinds.len() * serve::PLANS.len();
    let (jobs_per_s, events_per_s, latency_ms) = block_metrics(&finished(&out), round, out.wall_s);
    m.set("events_per_s", events_per_s);
    m.set("jobs_per_s", jobs_per_s);
    m.set("job_latency_ms_p50", latency_ms);
    sim_metrics(&mut m, &canon, &baselines.iter().collect::<Vec<_>>());
    m.set(
        "allocs_per_kevent",
        allocs as f64 / (canon_events as f64 / 1e3),
    );
    m.set("peak_rss_mb", peak_rss_mb());
    Ok(Outcome {
        correct: notes.is_empty() && !jobs.is_empty(),
        attempted: attempted.max(1),
        failed,
        metrics: m,
        notes,
    })
}

/// Execute one run. `Err` means the run could not even set up (a
/// canonical job run disagreed with its host oracle): there is nothing to
/// measure, and the process exits non-zero without a result line.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    match (args.workload.as_str(), args.trace) {
        ("serve_mix", false) => serve_end_to_end(args),
        (_, false) => sim_end_to_end(args),
        (_, true) => crate::layers::traced_run(args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_metrics_take_the_fast_decile_block() {
        // One job of 10 events every ms with 4 ms latency, except that the
        // second block of 20 runs at half speed: 11 blocks, and the fast
        // decile is a full-speed one.
        let mut at_ns = 0;
        let jobs: Vec<Finished> = (0..=11 * 20)
            .map(|k| {
                let slow = (21..=40).contains(&k);
                at_ns += if slow { 2_000_000 } else { 1_000_000 };
                Finished {
                    at_ns,
                    events: 10,
                    latency_ms: if slow { 8.0 } else { 4.0 },
                }
            })
            .collect();
        let (jobs_per_s, events_per_s, latency_ms) = block_metrics(&jobs, 20, 1.0);
        assert!((jobs_per_s - 1_000.0).abs() < 1e-6, "{jobs_per_s}");
        assert!((events_per_s - 10_000.0).abs() < 1e-6, "{events_per_s}");
        assert_eq!(latency_ms, 4.0);
        // Too short for a block: the whole run over the wall given.
        assert_eq!(block_metrics(&jobs[..5], 20, 0.5), (10.0, 100.0, 4.0));
    }
}
