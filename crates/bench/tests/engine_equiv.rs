//! Cross-engine equivalence: `Machine::run_parallel(k)` must be
//! **bit-identical** to `Machine::run()` on every DST workload, under
//! every fault plan, for every thread count.
//!
//! Equality is checked on the full observable outcome: completion flag,
//! dropped-packet count, the workload digest (integer checksums compared
//! exactly, floating-point results compared by *bit pattern* — not
//! tolerance: the engines must produce the same schedule, hence the same
//! reduction order, hence the same bits), the per-node invariant-oracle
//! snapshots, and the stall diagnoses.
//!
//! The default test runs a CI-sized subset. The `#[ignore]`d full sweep —
//! every workload × every fault plan × 8 seeds × k ∈ {2, 4, 8}, 1080
//! engine comparisons — runs in the nightly lane:
//!
//! ```sh
//! cargo test --release -p bench --test engine_equiv -- --ignored
//! ```

use bench::dst::{fingerprint, plan_for, run_one, schedule_seed, Worlds, ALL_PLANS, WORKLOADS};
use dpa_core::DstOptions;

fn opts(plan: &str, seed: u64, threads: usize) -> DstOptions {
    DstOptions {
        schedule_seed: Some(schedule_seed(seed)),
        faults: plan_for(plan, seed).unwrap(),
        threads,
        ..DstOptions::default()
    }
}

/// Run `workload` under `plan`/`seed` sequentially and at each parallel
/// width, asserting bit-identity. Returns the number of comparisons made.
fn check_case(w: &Worlds, workload: &str, plan: &str, seed: u64, widths: &[usize]) -> usize {
    let want = fingerprint(&run_one(w, workload, &opts(plan, seed, 1)).unwrap());
    for &k in widths {
        let got = fingerprint(&run_one(w, workload, &opts(plan, seed, k)).unwrap());
        assert_eq!(
            got, want,
            "parallel engine diverged: workload={workload} plan={plan} seed={seed} threads={k}"
        );
    }
    widths.len()
}

/// CI-sized subset: every workload × every plan at one seed with k=2,
/// plus wider fan-outs on the two cheapest workloads.
#[test]
fn engines_bit_identical_smoke() {
    let w = Worlds::build();
    let mut checked = 0;
    for &workload in WORKLOADS {
        for &plan in ALL_PLANS {
            checked += check_case(&w, workload, plan, 1, &[2]);
        }
    }
    for &workload in &["synth-dpa", "synth-caching"] {
        for seed in 0..4 {
            checked += check_case(&w, workload, "delay", seed, &[3, 4, 8]);
        }
    }
    assert!(checked >= 60, "smoke subset shrank to {checked} comparisons");
}

/// The full sweep: every workload × every fault plan × 8 seeds × k ∈
/// {2, 4, 8}. 1080 sequential-vs-parallel comparisons; minutes of work,
/// so nightly-only.
#[test]
#[ignore = "full 1080-case sweep; run with --ignored (nightly lane)"]
fn engines_bit_identical_full() {
    let w = Worlds::build();
    let mut checked = 0;
    for &workload in WORKLOADS {
        for &plan in ALL_PLANS {
            for seed in 0..8 {
                checked += check_case(&w, workload, plan, seed, &[2, 4, 8]);
            }
        }
    }
    assert_eq!(
        checked,
        WORKLOADS.len() * ALL_PLANS.len() * 8 * 3,
        "sweep shape changed"
    );
    println!("engine equivalence: {checked} comparisons, all bit-identical");
}
