//! Queue equivalence: the timing-wheel event queue must be
//! **bit-identical** to the shadow binary heap it replaced, on every DST
//! workload, under every fault plan.
//!
//! This is the differential-testing half of the wheel's safety case: the
//! heap is retained as [`QueueKind::ShadowHeap`] purely as an oracle, and
//! this suite drives both queues through the full DST surface — schedule
//! perturbation, jitter, drops, duplicates, delays, node pauses (whose
//! long wakeups exercise the wheel's overflow list) — comparing the full
//! observable outcome: completion flag, dropped-packet count, digest
//! (floats by bit pattern), per-node invariant snapshots, and stall
//! diagnoses.
//!
//! The default test runs a CI-sized subset, plus a committed-corpus replay
//! on the wheel. The `#[ignore]`d full matrix — every workload × every
//! fault plan × 8 seeds, 360 wheel-vs-heap comparisons — runs in the
//! nightly lane:
//!
//! ```sh
//! cargo test --release -p bench --test queue_equiv -- --ignored
//! ```

use bench::dst::{
    fingerprint, plan_for, replay, run_one, schedule_seed, Worlds, ALL_PLANS, CORPUS_DIR,
    WORKLOADS,
};
use dpa_core::DstOptions;
use sim_net::QueueKind;

fn opts(plan: &str, seed: u64, queue: QueueKind) -> DstOptions {
    DstOptions {
        schedule_seed: Some(schedule_seed(seed)),
        faults: plan_for(plan, seed).unwrap(),
        threads: 1,
        queue,
        max_events: u64::MAX,
        wall_deadline: None,
    }
}

/// Run `workload` under `plan`/`seed` on the shadow heap and on the wheel,
/// asserting bit-identity. Returns the number of comparisons made (1).
fn check_case(w: &Worlds, workload: &str, plan: &str, seed: u64) -> usize {
    let want = fingerprint(&run_one(w, workload, &opts(plan, seed, QueueKind::ShadowHeap)).unwrap());
    let got = fingerprint(&run_one(w, workload, &opts(plan, seed, QueueKind::Wheel)).unwrap());
    assert_eq!(
        got, want,
        "timing wheel diverged from shadow heap: workload={workload} plan={plan} seed={seed}"
    );
    1
}

/// CI-sized subset: every workload × every plan at one seed, plus extra
/// seeds of the two cheapest workloads under the plans that stress the
/// wheel hardest (`delay` reorders within the ring, `pause` forces
/// far-future wakeups through the overflow list).
#[test]
fn queues_bit_identical_smoke() {
    let w = Worlds::build();
    let mut checked = 0;
    for &workload in WORKLOADS {
        for &plan in ALL_PLANS {
            checked += check_case(&w, workload, plan, 1);
        }
    }
    for &workload in &["synth-dpa", "synth-caching"] {
        for &plan in &["delay", "pause"] {
            for seed in 2..6 {
                checked += check_case(&w, workload, plan, seed);
            }
        }
    }
    assert!(checked >= 60, "smoke subset shrank to {checked} comparisons");
}

/// Every committed DST corpus case must still replay cleanly on the wheel
/// (replay uses [`DstOptions::default`], whose queue defaults to the
/// wheel unless `DPA_SIM_QUEUE` overrides it).
#[test]
fn corpus_replays_clean_on_wheel() {
    let dir = match std::fs::read_dir(CORPUS_DIR) {
        Ok(d) => d,
        Err(_) => return, // no corpus committed yet
    };
    for entry in dir {
        let path = entry.expect("readable corpus dir").path();
        if path.extension().is_some_and(|e| e == "case") {
            let path = path.to_str().expect("utf-8 corpus path");
            assert_eq!(replay(path), 0, "corpus case {path} violates on the wheel");
        }
    }
}

/// The full matrix: every workload × every fault plan × 8 seeds. 360
/// wheel-vs-heap comparisons; minutes of work, so nightly-only.
#[test]
#[ignore = "full 360-case matrix; run with --ignored (nightly lane)"]
fn queues_bit_identical_full() {
    let w = Worlds::build();
    let mut checked = 0;
    for &workload in WORKLOADS {
        for &plan in ALL_PLANS {
            for seed in 0..8 {
                checked += check_case(&w, workload, plan, seed);
            }
        }
    }
    assert_eq!(
        checked,
        WORKLOADS.len() * ALL_PLANS.len() * 8,
        "matrix shape changed"
    );
    println!("queue equivalence: {checked} comparisons, all bit-identical");
}
