//! Differential-vs-from-scratch equivalence: `run_phases` under
//! `cfg.differential` must produce **bit-identical** integer checksums to
//! running the same multi-timestep workload from scratch every phase (the
//! same driver with the carry off), across the DST matrix of schedules and
//! fault plans.
//!
//! This is the correctness bar for differential re-alignment. The `-diff`
//! apps fold [`dpa_core::DiffPlan::stamp`] — a function of the pointer and
//! the *generation actually read* — into their checksums with a wrapping
//! add, so schedule and reduction order cannot change the digest but a
//! stale carried cache entry (a copy whose generation lags the object)
//! must. A differential run that ever reads a stale carry therefore
//! diverges from the from-scratch comparator here, in addition to
//! tripping the `StaleCacheEntry` oracle inside [`check_run`]. The
//! `-repl` workloads extend the same bar to read-mostly replication: a
//! replica installed by a broadcast is just another generation-stamped
//! copy, so a stale replica read diverges here exactly like a stale
//! carry would.
//!
//! Comparison rules per (workload, plan, seed):
//!
//! * the from-scratch run on the **unperturbed** schedule is the ground
//!   truth digest;
//! * the differential run under the perturbed schedule + fault plan is
//!   checked against it with the standard DST rules ([`check_run`]: exact
//!   digests when nothing dropped, conservation + stall-diagnosis oracles
//!   otherwise);
//! * under lossless plans the differential and from-scratch runs of the
//!   *same* perturbed schedule are additionally compared digest-to-digest.
//!
//! The default test runs a CI-sized subset; the `#[ignore]`d sweep — both
//! `-diff` workloads × all 5 fault plans × 8 seeds — is the nightly lane:
//!
//! ```sh
//! cargo test --release -p bench --test diff_equiv -- --ignored
//! ```

use bench::dst::{
    check_run, plan_for, run_one_mode, schedule_seed, Outcome, Worlds, ALL_PLANS, SMOKE_PLANS,
};
use dpa_core::DstOptions;

const DIFF_WORKLOADS: &[&str] = &["synth-diff", "bh-diff", "graph", "graph-repl", "bh-repl"];

fn opts(plan: &str, seed: u64) -> DstOptions {
    DstOptions {
        schedule_seed: Some(schedule_seed(seed)),
        faults: plan_for(plan, seed).unwrap(),
        ..DstOptions::default()
    }
}

fn digest_of(o: &Outcome) -> &bench::dst::Digest {
    &o.digest
}

/// One (workload, plan, seed) cell of the matrix. Returns the number of
/// digest comparisons performed.
fn check_cell(w: &Worlds, workload: &str, plan: &str, seed: u64, truth: &Outcome) -> usize {
    let o = opts(plan, seed);
    let diff = run_one_mode(w, workload, &o, true).unwrap();
    // Standard DST verdict for the differential run against the
    // from-scratch ground truth: bit-identical digests when nothing was
    // dropped, the invariant oracles otherwise (a dropped PhaseDelta must
    // stall with a diagnosis, never complete with a stale read).
    let violations = check_run(plan, digest_of(truth), &diff);
    assert!(
        violations.is_empty(),
        "differential run violated DST oracles: workload={workload} plan={plan} seed={seed}:\n  {}",
        violations.join("\n  ")
    );
    let mut compared = usize::from(diff.completed && diff.dropped == 0);
    // Lossless plans: the from-scratch run of the *same* perturbed
    // schedule must also complete, and the two digests must agree bit for
    // bit — equivalence of the two drivers, not just schedule-stability
    // of each.
    if plan != "drop" {
        let scratch = run_one_mode(w, workload, &o, false).unwrap();
        assert!(
            scratch.completed && diff.completed,
            "lossless plan did not complete: workload={workload} plan={plan} seed={seed} \
             (scratch={} diff={}; stalls: [{}] / [{}])",
            scratch.completed,
            diff.completed,
            scratch.stalls,
            diff.stalls
        );
        if let Some(d) = digest_of(&scratch).diff(digest_of(&diff)) {
            panic!(
                "differential digest diverged from from-scratch: \
                 workload={workload} plan={plan} seed={seed}: {d}"
            );
        }
        compared += 1;
    }
    compared
}

/// CI-sized subset: both `-diff` workloads × the smoke plans × 2 seeds,
/// plus the remaining lossless plans at one seed each.
#[test]
fn differential_matches_from_scratch_smoke() {
    let w = Worlds::build();
    let mut compared = 0;
    for &workload in DIFF_WORKLOADS {
        let truth = run_one_mode(&w, workload, &DstOptions::default(), false).unwrap();
        assert!(truth.completed, "{workload}: ground-truth run stalled");
        for &plan in SMOKE_PLANS {
            for seed in 1..3 {
                compared += check_cell(&w, workload, plan, seed, &truth);
            }
        }
        for &plan in &["dup", "delay", "pause"] {
            compared += check_cell(&w, workload, plan, 1, &truth);
        }
    }
    assert!(compared >= 14, "smoke subset shrank to {compared} comparisons");
}

/// The full matrix: both `-diff` workloads × all 5 fault plans × 8 seeds.
/// Minutes of work, so nightly-only.
#[test]
#[ignore = "full differential equivalence matrix; run with --ignored (nightly lane)"]
fn differential_matches_from_scratch_full() {
    let w = Worlds::build();
    let mut cells = 0;
    for &workload in DIFF_WORKLOADS {
        let truth = run_one_mode(&w, workload, &DstOptions::default(), false).unwrap();
        assert!(truth.completed, "{workload}: ground-truth run stalled");
        for &plan in ALL_PLANS {
            for seed in 0..8 {
                check_cell(&w, workload, plan, seed, &truth);
                cells += 1;
            }
        }
    }
    assert_eq!(
        cells,
        DIFF_WORKLOADS.len() * ALL_PLANS.len() * 8,
        "sweep shape changed"
    );
    println!("differential equivalence: {cells} cells, all bit-identical");
}
