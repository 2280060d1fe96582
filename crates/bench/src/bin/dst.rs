//! Deterministic-simulation-testing sweep over the DPA runtime.
//!
//! FoundationDB-style testing for the simulator: every run is a pure
//! function of `(workload, schedule seed, fault plan)`, so any failure is
//! replayable bit-for-bit. The sweep explores
//!
//! * **schedules** — seeded tie-break permutation of equal-time events plus
//!   bounded message-delay jitter (`Machine::perturb_schedule`);
//! * **faults** — probabilistic drop / duplicate / delay plans plus
//!   scheduled node pauses (`sim_net::FaultPlan`), decided per-channel so
//!   a message's fate is independent of the interleaving;
//!
//! and checks, per run,
//!
//! * the runtime-state invariants of `dpa_core::invariant` (M/D drained,
//!   request/reply/update conservation, at-most-once reductions);
//! * result equivalence against the unperturbed baseline — bit-identical
//!   for the integer synth checksum, tight-tolerance for floating-point
//!   forces (reduction order varies across schedules);
//! * stall accountability: a run that fails to complete must carry a
//!   diagnosis naming the stuck node and its pending requests, and only
//!   plans that can lose packets may stall at all.
//!
//! The shared machinery (worlds, digests, checkers, corpus format) lives
//! in `bench::dst` so `cargo test` can replay every committed corpus case.
//! Failing cases are written to `tests/dst_corpus/` as replayable case
//! files; a JSON sweep report (with per-path aggregation factors) lands in
//! `results/dst_report.json`.
//!
//! Workloads cover the single-phase variants (synth DPA/caching, BH, FMM,
//! relax), the migration-enabled multi-phase variants (`synth-mig`,
//! `bh-mig`, driven through `run_phases`), and the adaptive-strip
//! variants (`synth-adapt`, `bh-adapt`, driven by the `dpa_core::stripctl`
//! feedback controller with tight bounds so retunes actually fire), so the
//! object-migration protocol — affinity, depart/adopt, forwards, orphans —
//! and the strip controller — bounded schedules, deterministic retunes,
//! cross-phase carry — are explored under every fault plan. The
//! differential variants (`synth-diff`, `bh-diff`, `graph`) run
//! `cfg.differential` against a from-scratch comparator, and the
//! skew-adversarial family (`graph`, `graph-mig`, `setops`) puts a
//! power-law hot hub with multi-MTU records and structural phase deltas —
//! plus ordered-set batches on the reduction path — under the same
//! oracles, including per-hot-key reply conservation.
//!
//! Usage:
//!   cargo run --release -p bench --bin dst            # 32 seeds x 5 plans
//!   cargo run --release -p bench --bin dst -- --quick # 8 seeds x 5 plans
//!   cargo run --release -p bench --bin dst -- --smoke # 8 seeds x 2 plans (CI)
//!   cargo run --release -p bench --bin dst -- --replay tests/dst_corpus/<case>

use bench::dst::{
    agg_factors, check_run, corpus_write, plan_for, replay, run_one, schedule_seed, Worlds,
    ALL_PLANS, SMOKE_PLANS, WORKLOADS,
};
use bench::{has_flag, json};
use dpa_core::invariant::{check_completed, check_conservation, NodeSnapshot};
use dpa_core::synth::SynthApp;
use dpa_core::{run_phase_dst, DpaConfig, DstOptions};
use sim_net::{FaultPlan, NetConfig};

// ---------------------------------------------------------------- demo

/// Deliberately lose a reply and show the deadlock detector naming the
/// stuck request. Returns a violation description if the detector failed.
fn demo_lost_reply(w: &Worlds) -> Option<String> {
    // Count the baseline's messages; the last one is a reply (requests
    // precede the replies that finish the phase), so dropping message #m
    // downward finds a lost-reply stall within a try or two.
    let baseline = {
        let world = w.synth.clone();
        let (report, _) = run_phase_dst(
            world.nodes,
            NetConfig::default(),
            DpaConfig::dpa(4),
            &DstOptions::default(),
            |i| SynthApp::new(world.clone(), i, 500),
            |_, _| {},
        );
        report
    };
    let total = baseline.stats.total_msgs();
    println!("\nlost-reply demo: baseline sends {total} messages");
    for n in (1..=total).rev() {
        let world = w.synth.clone();
        let opts = DstOptions {
            schedule_seed: None,
            faults: FaultPlan::drop_nth(n),
            ..DstOptions::default()
        };
        let (report, snaps) = run_phase_dst(
            world.nodes,
            NetConfig::default(),
            DpaConfig::dpa(4),
            &opts,
            |i| SynthApp::new(world.clone(), i, 500),
            |_, _| {},
        );
        if report.completed {
            continue;
        }
        println!("  dropping message #{n}/{total} stalls the phase; diagnosis:");
        for s in &report.stalls {
            println!("    {s}");
        }
        let named = report
            .stalls
            .iter()
            .any(|s| s.detail.as_deref().is_some_and(|d| d.contains("stuck on [GPtr(")));
        if !named {
            return Some(
                "lost-reply stall did not name the stuck pending request".to_string(),
            );
        }
        let conserved = check_conservation(&snaps);
        if !conserved.is_empty() {
            return Some(format!("conservation broken in stalled run: {}", conserved[0]));
        }
        return None;
    }
    Some("no single-message drop stalled the synth phase".to_string())
}

// ---------------------------------------------------------------- sweep

struct PlanRow {
    workload: String,
    plan: String,
    runs: u64,
    completed: u64,
    stalled: u64,
    violations: u64,
    /// Per-path aggregation factors over every snapshot in this row.
    agg: (f64, f64, f64),
}

const USAGE: &str = "usage: dst [--smoke | --quick | --workload <names> | --replay <case-file>]
  (default)          sweep 32 seeds x {none, drop, dup, delay} over every workload
  --quick            8 seeds x all 4 fault plans
  --smoke            8 seeds x {none, drop} (CI-sized)
  --workload <names> restrict the sweep to a comma-separated workload subset
  --replay <path>    re-run one recorded corpus case; exit 1 if it reproduces";

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = argv.iter().position(|a| a == "--replay") {
        let Some(path) = argv.get(pos + 1) else {
            eprintln!("error: --replay needs a corpus case path\n{USAGE}");
            std::process::exit(2);
        };
        std::process::exit(replay(path));
    }
    let mut workloads: Vec<&str> = WORKLOADS.to_vec();
    if let Some(pos) = argv.iter().position(|a| a == "--workload") {
        let Some(names) = argv.get(pos + 1).cloned() else {
            eprintln!("error: --workload needs a comma-separated name list\n{USAGE}");
            std::process::exit(2);
        };
        workloads = Vec::new();
        for name in names.split(',') {
            match WORKLOADS.iter().find(|&&w| w == name.trim()) {
                Some(&w) => workloads.push(w),
                None => {
                    eprintln!(
                        "error: unknown workload {name:?} (expected one of {WORKLOADS:?})"
                    );
                    std::process::exit(2);
                }
            }
        }
        argv.drain(pos..=pos + 1);
    }
    if let Some(bad) = argv.iter().find(|a| !matches!(a.as_str(), "--smoke" | "--quick")) {
        eprintln!("error: unknown argument {bad:?}\n{USAGE}");
        std::process::exit(2);
    }

    let smoke = has_flag("--smoke");
    let quick = has_flag("--quick") || smoke;
    let seeds: u64 = if quick { 8 } else { 32 };
    let plans = if smoke { SMOKE_PLANS } else { ALL_PLANS };

    let w = Worlds::build();
    let mut rows: Vec<PlanRow> = Vec::new();
    let mut failures: Vec<(String, u64, String, Vec<String>)> = Vec::new();

    for &workload in &workloads {
        let baseline = run_one(&w, workload, &DstOptions::default());
        assert!(
            baseline.completed,
            "{workload}: baseline run failed to complete: {}",
            baseline.stalls
        );
        let base_violations = check_completed(&baseline.snaps, false);
        assert!(
            base_violations.is_empty(),
            "{workload}: baseline violates invariants: {}",
            base_violations[0]
        );

        for &plan_name in plans {
            let mut row = PlanRow {
                workload: workload.to_string(),
                plan: plan_name.to_string(),
                runs: 0,
                completed: 0,
                stalled: 0,
                violations: 0,
                agg: (0.0, 0.0, 0.0),
            };
            let mut row_snaps: Vec<NodeSnapshot> = Vec::new();
            for seed in 0..seeds {
                let opts = DstOptions {
                    schedule_seed: Some(schedule_seed(seed)),
                    faults: plan_for(plan_name, seed),
                    ..DstOptions::default()
                };
                let out = run_one(&w, workload, &opts);
                row.runs += 1;
                if out.completed {
                    row.completed += 1;
                } else {
                    row.stalled += 1;
                }
                let violations = check_run(plan_name, &baseline.digest, &out);
                if !violations.is_empty() {
                    row.violations += violations.len() as u64;
                    let path = corpus_write(workload, seed, plan_name, &violations);
                    eprintln!("  [corpus case written: {path}]");
                    failures.push((workload.to_string(), seed, plan_name.to_string(), violations));
                }
                row_snaps.extend(out.snaps);
            }
            row.agg = agg_factors(&row_snaps);
            println!(
                "{:14} {:6} runs {:3}  completed {:3}  stalled {:3}  violations {}  \
                 agg req/reply/upd {:.2}/{:.2}/{:.2}",
                row.workload, row.plan, row.runs, row.completed, row.stalled, row.violations,
                row.agg.0, row.agg.1, row.agg.2
            );
            rows.push(row);
        }
    }

    let demo_failure = demo_lost_reply(&w);

    // JSON report.
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let body: Vec<String> = rows
            .iter()
            .map(|r| {
                format!(
                    "  {{\"workload\": {}, \"plan\": {}, \"seeds\": {}, \"runs\": {}, \
                     \"completed\": {}, \"stalled\": {}, \"violations\": {}, \
                     \"req_agg_factor\": {}, \"reply_agg_factor\": {}, \"upd_agg_factor\": {}}}",
                    json::string(&r.workload),
                    json::string(&r.plan),
                    seeds,
                    r.runs,
                    r.completed,
                    r.stalled,
                    r.violations,
                    json::number(r.agg.0),
                    json::number(r.agg.1),
                    json::number(r.agg.2)
                )
            })
            .collect();
        let path = dir.join("dst_report.json");
        let _ = std::fs::write(&path, format!("[\n{}\n]\n", body.join(",\n")));
        eprintln!("[wrote {}]", path.display());
    }

    let total_runs: u64 = rows.iter().map(|r| r.runs).sum();
    let total_violations: u64 = rows.iter().map(|r| r.violations).sum();
    println!(
        "\nswept {} workloads x {} plans x {seeds} seeds = {total_runs} runs; {total_violations} violations",
        workloads.len(),
        plans.len()
    );

    let mut exit = 0;
    for (workload, seed, plan, violations) in &failures {
        eprintln!("FAIL {workload} seed={seed} plan={plan}:");
        for v in violations {
            eprintln!("  {v}");
        }
        exit = 1;
    }
    if let Some(d) = demo_failure {
        eprintln!("FAIL lost-reply demo: {d}");
        exit = 1;
    } else {
        println!("lost-reply demo: stall detected and diagnosed (no hang)");
    }
    std::process::exit(exit);
}
