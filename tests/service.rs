//! Run-service scheduler test battery (`dpa::serve`): property tests over
//! the pure scheduler model — replay identity, conservation, bounded
//! queues, and the no-starvation aging guarantee. The scheduler is a pure
//! function of `(config, arrival stream)`, so every failure here is
//! replayable bit-for-bit (and pinnable as a
//! `tests/dst_corpus/service-*.case`).

use dpa::serve::{
    check_conservation, check_depth_bound, check_no_starvation, gen_arrivals, run_model,
    LoadProfile, LogEntry, Priority, SchedConfig, SCENARIOS,
};
use proptest::prelude::*;

/// Draw a scheduler config from small primitive knobs.
fn cfg_from(
    shards: usize,
    queue_cap: usize,
    iw: u32,
    bw: u32,
    aging_us: u64,
    batch_cap: usize,
    degrade_depth: usize,
) -> SchedConfig {
    SchedConfig {
        shards,
        queue_cap,
        interactive_weight: iw,
        batch_weight: bw,
        aging_ns: aging_us * 1_000,
        batch_shard_cap: batch_cap,
        degrade_depth,
        ..SchedConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Replay identity: the same `(config, arrival stream)` produces a
    /// bit-identical decision log — the discipline that makes scheduler
    /// bugs corpus-replayable.
    #[test]
    fn replay_identity(
        seed in any::<u64>(),
        shards in 1usize..6,
        queue_cap in 1usize..32,
        iw in 1u32..8,
        bw in 1u32..8,
        jobs in 1usize..300,
        gap_us in 0u64..800,
        fault_pm in 0u64..300,
    ) {
        let cfg = cfg_from(shards, queue_cap, iw, bw, 2_000, shards, queue_cap / 2);
        let profile = LoadProfile {
            jobs,
            mean_gap_ns: gap_us * 1_000,
            fault_ratio: fault_pm as f64 / 1_000.0,
            ..LoadProfile::default()
        };
        let arrivals = gen_arrivals(&profile, seed);
        let a = run_model(&cfg, &arrivals);
        let b = run_model(&cfg, &arrivals);
        prop_assert_eq!(a, b);
    }

    /// Conservation: every submission is accounted — accepted jobs are
    /// placed and finished exactly once, shed jobs are logged with a
    /// structured reason, and nothing is leaked in a queue or on a shard.
    #[test]
    fn conservation_under_arbitrary_load(
        seed in any::<u64>(),
        shards in 1usize..6,
        queue_cap in 1usize..24,
        jobs in 1usize..400,
        gap_us in 0u64..500,
        interactive_pm in 0u64..1001,
        fault_pm in 0u64..400,
    ) {
        let cfg = cfg_from(shards, queue_cap, 3, 1, 2_000, shards, queue_cap / 2);
        let profile = LoadProfile {
            jobs,
            mean_gap_ns: gap_us * 1_000,
            interactive_ratio: interactive_pm as f64 / 1_000.0,
            fault_ratio: fault_pm as f64 / 1_000.0,
            ..LoadProfile::default()
        };
        let arrivals = gen_arrivals(&profile, seed);
        let run = run_model(&cfg, &arrivals);
        let violations = check_conservation(&run.log);
        prop_assert!(violations.is_empty(), "{:?}", violations);
        prop_assert_eq!(run.accepted + run.rejected, arrivals.len());
        prop_assert_eq!(run.finished, run.accepted);
        // Bounded queues: nothing was ever admitted past the cap, and the
        // observed high-water depth respects it too.
        let depth = check_depth_bound(&run.log, &cfg);
        prop_assert!(depth.is_empty(), "{:?}", depth);
        prop_assert!(run.max_depth[0] <= cfg.queue_cap && run.max_depth[1] <= cfg.queue_cap);
    }

    /// No-starvation: under sustained interactive pressure the batch lane
    /// still drains — the aging rule wins every pick where the batch head
    /// is over-age and batch has concurrency headroom, and every batch
    /// job's wait is bounded by its queue position times one aging+service
    /// round.
    #[test]
    fn batch_never_starves_under_interactive_floods(
        seed in any::<u64>(),
        shards in 1usize..5,
        iw in 8u32..64,
        aging_us in 100u64..5_000,
        jobs in 50usize..400,
        degrade_depth in 0usize..12,
    ) {
        let cfg = cfg_from(shards, 64, iw, 1, aging_us, shards, degrade_depth);
        let profile = LoadProfile {
            jobs,
            interactive_ratio: 0.93,
            // Arrivals outpace service: the interactive queue stays hot.
            mean_gap_ns: 150_000,
            service_min_ns: 200_000,
            service_max_ns: 1_500_000,
            ..LoadProfile::default()
        };
        let arrivals = gen_arrivals(&profile, seed);
        let run = run_model(&cfg, &arrivals);
        let violations = check_no_starvation(&run.log, &cfg);
        prop_assert!(violations.is_empty(), "{:?}", violations);

        // Aging bound: a batch job admitted at depth d waits at most
        // (d + 2) rounds of (aging + 2 * max service). Generous, but it
        // is finite and load-independent — the difference between "slow"
        // and "starved".
        let round = cfg.aging_ns + 2 * profile.service_max_ns;
        let mut admit_depth = std::collections::HashMap::new();
        for e in &run.log {
            match e {
                LogEntry::Admit { job, priority: Priority::Batch, depth, .. } => {
                    admit_depth.insert(*job, *depth);
                }
                LogEntry::Place { job, priority: Priority::Batch, wait_ns, .. } => {
                    let d = admit_depth[job] as u64;
                    prop_assert!(
                        *wait_ns <= (d + 2) * round,
                        "batch job {:?} admitted at depth {} waited {}ns > bound {}ns",
                        job, d, wait_ns, (d + 2) * round
                    );
                }
                _ => {}
            }
        }
    }

    /// Every named corpus scenario replays clean for arbitrary seeds —
    /// the committed `service-*.case` files stay meaningful regressions,
    /// not flukes of one seed.
    #[test]
    fn scenarios_replay_clean(seed in any::<u64>()) {
        for name in SCENARIOS {
            let violations = dpa::serve::replay_scenario(name, seed).expect("known scenario");
            prop_assert!(violations.is_empty(), "{}: {:?}", name, violations);
        }
    }
}
