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
//! relax) and the multi-phase variants driven through `run_phases`: the
//! differential variants (`synth-diff`, `bh-diff`, `graph`) run
//! `cfg.differential` against a from-scratch comparator, the replicating
//! variants (`graph-repl`, `bh-repl`) add phase-end affinity reports,
//! boundary promotion and broadcasts, and the
//! skew-adversarial family (`graph`, `setops`) puts a
//! power-law hot hub with multi-MTU records and structural phase deltas —
//! plus ordered-set batches on the reduction path — under the same
//! oracles, including per-hot-key reply conservation.
//!
//! Usage:
//!   bench dst                    # 32 seeds x 5 plans
//!   bench dst --quick            # 8 seeds x 5 plans
//!   bench dst --smoke            # 8 seeds x 2 plans (CI)
//!   bench dst --workload a,b     # restrict the sweep to a workload subset
//!   bench dst --replay tests/dst_corpus/<case>
//!
//! Exit 0 on green, 1 on violations (or a replayed case that still
//! reproduces), 2 on a bad workload name or case file.

use apps::driver::{run_synth, Phases, Run};
use bench::cli::{Args, Scale};
use bench::dst::{
    agg_factors, check_run, corpus_write, plan_for, replay, resolve, run_one, schedule_seed, Worlds,
    ALL_PLANS, CORPUS_DIR, SMOKE_PLANS, WORKLOADS,
};
use bench::{json, write_result, RESULTS_DIR};
use dpa_core::invariant::{check_completed, check_conservation, NodeSnapshot};
use dpa_core::{DpaConfig, DstOptions};
use sim_net::{FaultPlan, NetConfig};
use std::io;
use std::path::Path;

// ---------------------------------------------------------------- demo

/// Deliberately lose a reply and show the deadlock detector naming the
/// stuck request. Returns a violation description if the detector failed.
fn demo_lost_reply(w: &Worlds) -> Option<String> {
    let synth = |faults: FaultPlan| -> Run {
        let opts = DstOptions {
            schedule_seed: None,
            faults,
            ..DstOptions::default()
        };
        run_synth(
            &w.synth,
            DpaConfig::dpa(4),
            NetConfig::default(),
            &opts,
            Phases::ONE,
        )
    };
    // Count the baseline's messages; the last one is a reply (requests
    // precede the replies that finish the phase), so dropping message #m
    // downward finds a lost-reply stall within a try or two.
    let total = synth(FaultPlan::default()).stats.total_msgs();
    println!("\nlost-reply demo: baseline sends {total} messages");
    for n in (1..=total).rev() {
        let run = synth(FaultPlan::drop_nth(n));
        let report = &run.reports[0];
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
        let conserved = check_conservation(&run.snaps[0]);
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

pub fn run(args: &Args) -> io::Result<i32> {
    if let Some(path) = args.value("--replay") {
        return Ok(replay(path));
    }
    let workloads: Vec<&str> = match args.value("--workload") {
        None => WORKLOADS.to_vec(),
        Some(names) => match names.split(',').map(|n| resolve(n.trim())).collect() {
            Ok(subset) => subset,
            Err(e) => {
                eprintln!("error: {e}");
                return Ok(2);
            }
        },
    };
    let seeds: u64 = if args.scale == Scale::Full { 32 } else { 8 };
    let plans = if args.scale == Scale::Smoke {
        SMOKE_PLANS
    } else {
        ALL_PLANS
    };

    let w = Worlds::build();
    let mut rows: Vec<PlanRow> = Vec::new();
    let mut failures: Vec<(String, u64, String, Vec<String>)> = Vec::new();

    for &workload in &workloads {
        let baseline = run_one(&w, workload, &DstOptions::default()).expect("name from WORKLOADS");
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
                    faults: plan_for(plan_name, seed).expect("name from ALL_PLANS"),
                    ..DstOptions::default()
                };
                let out = run_one(&w, workload, &opts).expect("name from WORKLOADS");
                row.runs += 1;
                if out.completed {
                    row.completed += 1;
                } else {
                    row.stalled += 1;
                }
                let violations = check_run(plan_name, &baseline.digest, &out);
                if !violations.is_empty() {
                    row.violations += violations.len() as u64;
                    let dir = Path::new(CORPUS_DIR);
                    if let Err(e) = corpus_write(dir, workload, seed, plan_name, &violations) {
                        eprintln!("  error: corpus case not written under {}: {e}", dir.display());
                    }
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
    let report = format!("[\n{}\n]\n", body.join(",\n"));
    write_result(Path::new(RESULTS_DIR), "dst_report.json", &report)?;

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
    Ok(exit)
}
