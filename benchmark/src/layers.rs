//! The traced run (`--trace 1`): per-layer numbers for one workload.
//!
//! Three kinds of number, all taken from outside the program under test:
//!
//! * **self time** — host time split `sim-net` / `dpa-core` / `apps` by the
//!   wrappers of [`crate::trace`];
//! * **deterministic counts** at the same boundaries, read from what a run
//!   already returns (`RunReport`, `NodeSnapshot`, `RunStats`);
//! * **layer drives** ([`crate::drives`]) and whole-rep *lanes* (shadow
//!   heap, two-thread engine).
//!
//! End-to-end metrics are never taken here; the gap between this run's
//! traced and untraced reps is reported as `harness.trace_overhead_pct`.

use crate::drives::{self, Sizes};
use crate::harness::{audit_serve, serve_setup, Metrics, Outcome, RunArgs, ServeSetup, SimRun};
use crate::json::Json;
use crate::report::out_dir;
use crate::serve::{self, JobStream};
use crate::spec;
use crate::stats::{fast, median, percentile, tail_pct, TAIL_MIN_BEYOND};
use crate::trace::{PhaseCalls, Recorder, APP_KINDS, HANDLER_KINDS, SHARD_TID};
use crate::workloads::{self, lane_opts, Mode, Profile, Rep};
use dpa_serve::LogEntry;
use sim_net::QueueKind;
use std::time::Instant;

/// Reps per lane (shadow heap, two threads).
const LANE_REPS: usize = 5;

fn drive_batches(profile: Profile) -> usize {
    match profile {
        Profile::Full => 21,
        Profile::Smoke => 3,
    }
}

// ------------------------------------------------------------ counters

/// Sum of the user counter `name` over every phase and node.
///
/// `RunStats.user` is keyed by strings the runtime invents in `on_finish`;
/// this function and [`user_max`] are the only places the benchmark spells
/// them, so a typed registry (ROADMAP item 5) breaks one place.
fn user_total(reps: &[&Rep], name: &str) -> u64 {
    reps.iter()
        .flat_map(|r| &r.reports)
        .map(|r| r.stats.user_total(name))
        .sum()
}

/// Largest per-node value of the user counter `name` over every phase.
fn user_max(reps: &[&Rep], name: &str) -> u64 {
    reps.iter()
        .flat_map(|r| &r.reports)
        .map(|r| r.stats.user_max(name))
        .max()
        .unwrap_or(0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The deterministic counts of `reps` (one rep, or the four canonical job
/// runs of `serve_mix`); `hub` is the hot pointer's bits where the
/// workload has one.
fn layer_counts(reps: &[&Rep], hub: Option<u64>, m: &mut Metrics) {
    let reports = || reps.iter().flat_map(|r| &r.reports);
    let snaps = || reps.iter().flat_map(|r| &r.snaps).flatten();
    let snap_sum = |f: fn(&dpa_core::NodeSnapshot) -> u64| snaps().map(f).sum::<u64>();

    m.set(
        "sim-net.events",
        reps.iter().map(|r| r.events()).sum::<u64>() as f64,
    );
    m.set(
        "sim-net.msgs",
        reps.iter().map(|r| r.msgs()).sum::<u64>() as f64,
    );
    let node_sum =
        |f: fn(&sim_net::NodeStats) -> u64| reports().map(|r| r.stats.sum(f)).sum::<u64>();
    let (local, overhead, idle) = (
        node_sum(|s| s.local.as_ns()),
        node_sum(|s| s.overhead.as_ns()),
        node_sum(|s| s.idle.as_ns()),
    );
    let total = local + overhead + idle;
    m.set("sim-net.local_share", ratio(local, total));
    m.set("sim-net.overhead_share", ratio(overhead, total));
    m.set("sim-net.idle_share", ratio(idle, total));

    let installed = snap_sum(|s| s.objects_installed);
    let aligned = user_total(reps, "threads_aligned");
    m.set(
        "dpa-core.requests_issued",
        snap_sum(|s| s.requests_issued) as f64,
    );
    m.set("dpa-core.objects_installed", installed as f64);
    m.set("dpa-core.threads_aligned", aligned as f64);
    // Threads released per object fetched: useful outcomes over fetches.
    m.set("dpa-core.tile_factor", ratio(aligned, installed));
    m.set(
        "dpa-core.peak_map_keys",
        user_max(reps, "peak_map_keys") as f64,
    );
    m.set(
        "dpa-core.peak_pending",
        user_max(reps, "peak_pending_requests") as f64,
    );
    // Only an adaptive strip reports one; fixed strips read 0.
    m.set("dpa-core.strip_final", user_max(reps, "strip_final") as f64);

    let (req_msgs, reply_msgs, upd_msgs) = (
        snap_sum(|s| s.request_msgs),
        snap_sum(|s| s.reply_msgs),
        snap_sum(|s| s.update_msgs),
    );
    m.set("fastmsg.request_msgs", req_msgs as f64);
    m.set("fastmsg.reply_msgs", reply_msgs as f64);
    m.set("fastmsg.update_msgs", upd_msgs as f64);
    m.set(
        "fastmsg.req_agg_factor",
        ratio(snap_sum(|s| s.req_sent), req_msgs),
    );
    m.set(
        "fastmsg.reply_agg_factor",
        ratio(snap_sum(|s| s.reply_sent), reply_msgs),
    );
    m.set(
        "fastmsg.upd_agg_factor",
        ratio(snap_sum(|s| s.upd_sent), upd_msgs),
    );

    m.set(
        "global-heap.carried_entries",
        user_total(reps, "carried_entries") as f64,
    );
    // 1 − (mean requests of the steady phases ÷ phase-0 requests): what the
    // carry saved. Only runs that carried anything have steady phases (the
    // FMM's two sub-phases are different computations, not timesteps).
    let carry_hit = reps
        .iter()
        .filter(|r| user_total(&[r], "carried_entries") > 0)
        .map(|r| {
            let per_phase: Vec<u64> = r
                .snaps
                .iter()
                .map(|ph| ph.iter().map(|s| s.requests_issued).sum())
                .collect();
            let steady = per_phase[1..].iter().sum::<u64>() as f64 / (per_phase.len() - 1) as f64;
            1.0 - steady / (per_phase[0] as f64).max(1.0)
        })
        .fold(0.0, f64::max);
    m.set("global-heap.carry_hit_share", carry_hit);
    m.set(
        "global-heap.delta_entries",
        snap_sum(|s| s.delta_entries_sent) as f64,
    );
    m.set(
        "global-heap.repl_entries",
        snap_sum(|s| s.repl_entries_sent) as f64,
    );
    let last_phase = || reps.iter().filter_map(|r| r.snaps.last()).flatten();
    m.set(
        "global-heap.replica_ptrs",
        last_phase().map(|s| s.replica_dir.len()).sum::<usize>() as f64,
    );
    m.set(
        "global-heap.migrations",
        last_phase().map(|s| s.adopted_ptrs.len()).sum::<usize>() as f64,
    );
    let hub_entries: u64 = hub.map_or(0, |hub| {
        snaps()
            .flat_map(|s| &s.reply_hot)
            .filter(|&&(p, _, _)| p == hub)
            .map(|&(_, pushed, _)| pushed)
            .sum()
    });
    // One request entry and one reply entry per served fetch of the hub.
    m.set(
        "global-heap.hub_req_reply_entries",
        2.0 * hub_entries as f64,
    );
}

/// Working-set sizes for the drives, from one rep's counters.
fn drive_sizes(reps: &[&Rep], profile: Profile) -> Sizes {
    let nodes = reps
        .iter()
        .filter_map(|r| r.snaps.first())
        .map(Vec::len)
        .max()
        .unwrap_or(1) as u64;
    let installed: u64 = reps
        .iter()
        .flat_map(|r| &r.snaps)
        .flatten()
        .map(|s| s.objects_installed)
        .sum();
    Sizes {
        events: reps.iter().map(|r| r.events()).max().unwrap_or(0),
        map_keys: user_max(reps, "peak_map_keys"),
        pending: user_max(reps, "peak_pending_requests"),
        installed: installed / nodes.max(1),
        batches: drive_batches(profile),
    }
}

// ----------------------------------------------------------- self time

/// Host ns split by layer.
struct SelfTimes {
    sim_net: f64,
    dpa_core: f64,
    apps: f64,
}

impl SelfTimes {
    fn scaled(self, k: f64) -> SelfTimes {
        SelfTimes {
            sim_net: self.sim_net * k,
            dpa_core: self.dpa_core * k,
            apps: self.apps * k,
        }
    }

    fn sum(&self) -> f64 {
        self.sim_net + self.dpa_core + self.apps
    }
}

/// Split `run_ns` (a `machine.run` span) by the sampled call stats taken
/// during it. The clock reads the sampler made are charged to no layer:
/// those around app calls sit wholly inside handlers, those around
/// handlers in `sim-net`'s remainder.
fn split_self(run_ns: f64, calls: &PhaseCalls, ns_per_tick: f64) -> SelfTimes {
    let handlers = calls.handler_ns(ns_per_tick);
    let apps = calls.app_ns(ns_per_tick);
    let outside = |stats: &[crate::trace::CallStat; 3]| {
        stats
            .iter()
            .map(|s| s.clock_ns_outside(ns_per_tick))
            .sum::<f64>()
    };
    // An app call's third read is inside its own interval but, like the
    // other two, inside the enclosing handler's: 3 reads = 1.5 x outside.
    SelfTimes {
        sim_net: (run_ns - handlers - outside(&calls.handlers)).max(0.0),
        dpa_core: (handlers - apps - 1.5 * outside(&calls.apps)).max(0.0),
        apps,
    }
}

/// The call stats as JSON, for the trace file.
fn calls_json(calls: &PhaseCalls, ns_per_tick: f64) -> Json {
    let kind = |names: [&str; 3], stats: &[crate::trace::CallStat; 3]| {
        Json::obj(names.iter().zip(stats).map(|(name, s)| {
            (
                *name,
                Json::obj([
                    ("calls", Json::Num(s.calls as f64)),
                    ("sampled", Json::Num(s.sampled as f64)),
                    ("estimated_ms", Json::Num(s.estimate_ns(ns_per_tick) / 1e6)),
                    (
                        "clock_read_ns",
                        Json::Num(ratio(s.null_ticks, s.sampled) * ns_per_tick),
                    ),
                ]),
            )
        }))
    };
    Json::obj([
        ("handlers", kind(HANDLER_KINDS, &calls.handlers)),
        ("app_calls", kind(APP_KINDS, &calls.apps)),
        ("ns_per_tick", Json::Num(ns_per_tick)),
    ])
}

fn write_trace(workload: &str, rec: &Recorder, m: &Metrics, extra: Json) -> Result<(), String> {
    let layers = Json::obj([
        (
            "metrics",
            Json::obj(
                spec::PER_LAYER
                    .iter()
                    .filter_map(|s| m.get(s.name).map(|v| (s.name, Json::Num(v)))),
            ),
        ),
        ("sampling", extra),
    ]);
    let path = out_dir().join(format!("trace-{workload}.json"));
    std::fs::write(&path, rec.to_chrome_json(workload, layers).to_line())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn rep_wall_metrics(m: &mut Metrics, walls_s: &[f64]) {
    let ms: Vec<f64> = walls_s.iter().map(|w| w * 1e3).collect();
    let tail = tail_pct(ms.len());
    m.set("harness.rep_wall_ms_p50", median(&ms));
    // What `events_per_s` is computed from in the end-to-end run.
    m.set("harness.rep_wall_ms_p10", fast(&ms));
    m.set("harness.rep_wall_ms_tail", percentile(&ms, tail as f64));
    m.set("harness.rep_wall_tail_pct", tail as f64);
    m.set("harness.rep_samples", ms.len() as f64);
}

// ---------------------------------------------------------- sim workloads

fn traced_sim(args: &RunArgs) -> Outcome {
    let mut rec = Recorder::new();
    let tick = rec.ns_per_tick;
    let (work, setup_ns) = rec.span("setup.world", |_| {
        workloads::build(&args.workload, args.profile).expect("a sim workload")
    });
    let mut run = SimRun::start(work);

    // Untraced reps first: the reference the traced reps are held against,
    // and enough of them that a percentile above the median qualifies.
    let walls = run.timed_reps(0.4 * args.seconds, 2 * TAIL_MIN_BEYOND + 1);

    // Traced reps.
    let mut calls = PhaseCalls::default();
    let mut traced_walls = Vec::new();
    let t0 = Instant::now();
    while traced_walls.len() < 2 || t0.elapsed().as_secs_f64() < 0.4 * args.seconds {
        rec.rep = traced_walls.len() as u32 + 1;
        let (rep, wall_ns) = rec.span("rep", |rec| {
            run.work.run(Mode::Spanned(&run.opts, rec, &mut calls))
        });
        traced_walls.push(wall_ns as f64 / 1e9);
        rec.span("verify", |rec| {
            run.account(&format!("traced rep {}", rec.rep), &rep)
        });
    }
    let n = traced_walls.len() as f64;

    // Lanes: the same rep on the shadow heap and (bh16, the paper's
    // workload) on the two-thread engine. Both must reproduce rep 0's
    // reports bit for bit, which `account` checks.
    let lane = |run: &mut SimRun, what: &str, queue: QueueKind, threads: usize| {
        let opts = lane_opts(queue, threads);
        let lane_walls: Vec<f64> = (0..LANE_REPS)
            .map(|k| {
                let t = Instant::now();
                let rep = run.work.run(Mode::Plain(&opts));
                let wall = t.elapsed().as_secs_f64();
                run.account(&format!("{what} lane rep {k}"), &rep);
                wall
            })
            .collect();
        median(&lane_walls) / median(&walls)
    };
    let heap_ratio = lane(&mut run, "shadow-heap", QueueKind::ShadowHeap, 1);
    let par2_ratio = if args.workload == "bh16" {
        lane(&mut run, "two-thread", QueueKind::Wheel, 2)
    } else {
        0.0
    };

    let mut m = Metrics::default();
    let events = run.rep0.events() as f64;
    let run_ns = rec.total_ns("machine.run") as f64 / n;
    let traced_wall_ms = median(&traced_walls) * 1e3;
    let (times, boundary_ms) = match run.work.spanned_proxy(&run.opts, &mut rec) {
        // The driver built its own procs: handlers were not wrapped in the
        // real reps (and no `machine.run` span exists but the proxy's).
        // Take this workload's own non-app cost per event from a single
        // spanned phase and scale it to the rep's events; what the rep's
        // wall then leaves over is the driver's boundary work.
        Some((report, proxy_calls)) => {
            let proxy_run_ns = rec.total_ns("machine.run") as f64;
            let per_event = 1.0 / report.events_processed.max(1) as f64;
            let times = SelfTimes {
                apps: calls.app_ns(tick) / n,
                ..split_self(proxy_run_ns, &proxy_calls, tick).scaled(events * per_event)
            };
            let rest = traced_wall_ms - times.sum() / 1e6;
            (times, rest.max(0.0))
        }
        None => {
            // The split is linear in the stats, so per-rep means come from
            // the totals over all traced reps.
            let times = split_self(run_ns * n, &calls, tick).scaled(1.0 / n);
            m.set("harness.machine_run_ms", run_ns / 1e6);
            m.set(
                "harness.self_sum_vs_run_pct",
                100.0 * (times.sum() / run_ns - 1.0),
            );
            (times, 0.0)
        }
    };
    m.set("sim-net.self_ms", times.sim_net / 1e6);
    m.set("sim-net.self_ns_per_event", times.sim_net / events);
    m.set("dpa-core.self_ms", times.dpa_core / 1e6);
    m.set("dpa-core.self_ns_per_event", times.dpa_core / events);
    m.set("dpa-core.boundary_ms", boundary_ms);
    let app_calls = calls.app_calls() as f64 / n;
    m.set("apps.self_ms", times.apps / 1e6);
    m.set("apps.self_ns_per_call", times.apps / app_calls.max(1.0));
    m.set("apps.calls", app_calls);
    m.set("apps.setup_world_ms", setup_ns as f64 / 1e6);
    m.set(
        "dpa-core.setup_procs_ms",
        rec.total_ns("setup.procs") as f64 / n / 1e6,
    );
    m.set("harness.verify_ms", rec.total_ns("verify") as f64 / n / 1e6);
    m.set(
        "harness.trace_overhead_pct",
        100.0 * (median(&traced_walls) / median(&walls) - 1.0),
    );
    rep_wall_metrics(&mut m, &walls);
    if let Some(paper_s) = run.work.paper_seconds() {
        let sim_s = run.rep0.makespan_ns() as f64 / 1e9;
        m.set(
            "harness.sim_abs_err_vs_paper_pct",
            100.0 * (sim_s - paper_s).abs() / paper_s,
        );
    }
    m.set("sim-net.heap_lane_ratio", heap_ratio);
    m.set("sim-net.par2_lane_ratio", par2_ratio);

    layer_counts(&[&run.rep0], run.work.hot_ptr(), &mut m);
    drives::run_all(drive_sizes(&[&run.rep0], args.profile), &mut m);

    if let Err(e) = write_trace(&args.workload, &rec, &m, calls_json(&calls, tick)) {
        run.notes.push(e);
    }
    Outcome {
        correct: run.notes.is_empty(),
        attempted: run.attempted,
        failed: run.failed,
        metrics: m,
        notes: run.notes,
    }
}

// -------------------------------------------------------------- serve_mix

fn traced_serve(args: &RunArgs) -> Result<Outcome, String> {
    let mut rec = Recorder::new();
    let (setup, setup_ns) = rec.span("setup.world", |_| serve_setup(args.profile));
    let ServeSetup { catalog, service } = setup?;
    // The service's clock started inside `Service::start`, just before the
    // set-up span closed; job spans are placed on the recorder's clock with
    // that offset.
    let service_epoch_ns = rec.now_ns();
    let out = serve::closed_loop(
        service,
        &mut JobStream::new(args.seed, &catalog),
        args.seconds,
    );
    let (attempted, failed, mut notes) = audit_serve(&out);

    let cfg = serve::sched_config();
    let mut placed = std::collections::BTreeMap::new();
    let mut busy_ns = 0u64;
    for e in &out.report.log {
        match e {
            LogEntry::Place { now_ns, job, .. } => drop(placed.insert(job.0, *now_ns)),
            LogEntry::Finish {
                now_ns, job, shard, ..
            } => {
                if let Some(start) = placed.remove(&job.0) {
                    busy_ns += now_ns - start;
                    rec.push_closed(
                        "job",
                        service_epoch_ns + start,
                        service_epoch_ns + now_ns,
                        job.0 as u32,
                        SHARD_TID + *shard as u32,
                    );
                }
            }
            LogEntry::Admit { .. } | LogEntry::Reject { .. } => {}
        }
    }

    let jobs = &out.report.jobs;
    let mut m = Metrics::default();
    m.set("apps.setup_world_ms", setup_ns as f64 / 1e6);
    m.set("dpa-serve.jobs", jobs.len() as f64);
    m.set("dpa-serve.decisions", out.report.log.len() as f64);
    m.set("dpa-serve.rejected", out.rejected as f64);
    m.set(
        "dpa-serve.reaped",
        out.report.ledger.iter().map(|(_, u)| u.reaped).sum::<u64>() as f64,
    );
    if !jobs.is_empty() {
        let ms = |f: fn(&dpa_serve::JobRecord) -> u64| {
            jobs.iter().map(|j| f(j) as f64 / 1e6).collect::<Vec<_>>()
        };
        m.set("dpa-serve.queue_wait_ms_p50", median(&ms(|j| j.wait_ns)));
        m.set("dpa-serve.run_ms_p50", median(&ms(|j| j.report.wall_ns)));
        let tail = tail_pct(jobs.len());
        m.set(
            "dpa-serve.latency_ms_tail",
            percentile(&ms(|j| j.latency_ns), tail as f64),
        );
        m.set("dpa-serve.latency_tail_pct", tail as f64);
    }
    m.set(
        "dpa-serve.shard_busy_share",
        busy_ns as f64 / (cfg.shards as f64 * out.wall_s * 1e9),
    );

    // The scheduler alone, replaying this run's arrivals and completions.
    let decisions = out.report.log.len().max(1) as f64;
    let mut replays = Vec::new();
    for _ in 0..drive_batches(args.profile) {
        match serve::replay_scheduler(&cfg, &out) {
            Ok(ns) => replays.push(ns as f64 / decisions),
            Err(e) => {
                notes.push(e);
                break;
            }
        }
    }
    if !replays.is_empty() {
        m.set("dpa-serve.sched_ns_per_decision", median(&replays));
    }

    let canon: Vec<&Rep> = catalog.kinds.iter().map(|k| &k.canon).collect();
    layer_counts(&canon, None, &mut m);
    drives::run_all(drive_sizes(&canon, args.profile), &mut m);

    if let Err(e) = write_trace(&args.workload, &rec, &m, Json::Null) {
        notes.push(e);
    }
    Ok(Outcome {
        correct: notes.is_empty() && !jobs.is_empty(),
        attempted: attempted.max(1),
        failed,
        metrics: m,
        notes,
    })
}

/// The traced run of `args.workload`.
pub fn traced_run(args: &RunArgs) -> Result<Outcome, String> {
    if args.workload == "serve_mix" {
        traced_serve(args)
    } else {
        Ok(traced_sim(args))
    }
}
