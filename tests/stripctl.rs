//! Strip-schedule test battery for the adaptive k-bound controller
//! (`dpa_core::stripctl`): model-style property tests over arbitrary
//! observation streams, plus the end-to-end checksum-invariance oracle —
//! adaptive strips must change schedules, never results.

use dpa::apps::bh_dist::{BhApp, BhCost, BhWorld};
use dpa::apps::driver::{run_bh, run_fmm, Phases};
use dpa::apps::fmm_dist::{FmmCost, FmmWorld};
use dpa::nbody::bh::BhParams;
use dpa::nbody::cx::Cx;
use dpa::nbody::distrib::{plummer, uniform_square};
use dpa::nbody::fmm::FmmParams;
use dpa::runtime::stripctl::{
    AdaptiveStrip, StripController, StripMode, StripObs, DEAD_BAND_MILLI, DITHER_SPAN_MILLI,
};
use dpa::runtime::{check_completed, run_phases, DpaConfig, DstOptions};
use dpa::sim_net::{NetConfig, Rng};
use proptest::prelude::*;

/// Draw a pseudo-random observation stream of `n` windows from `seed`.
/// Covers empty windows, pure-idle windows, and pressure spikes.
fn obs_stream(seed: u64, n: usize) -> Vec<StripObs> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| StripObs {
            local_ns: rng.below(2_000_000),
            overhead_ns: rng.below(500_000),
            idle_ns: rng.below(2_000_000),
            suspended_threads: if rng.chance(0.1) {
                rng.below(1 << 20)
            } else {
                rng.below(256)
            },
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under arbitrary stat streams the schedule never escapes `[min,
    /// max]`, moves are multiplicative (consecutive strips differ by at
    /// most a factor of two), and the log grows by exactly one entry per
    /// retune.
    #[test]
    fn schedule_within_bounds_under_arbitrary_streams(
        seed in any::<u64>(),
        min in 1usize..64,
        span_log2 in 0u32..7,
        target in 0u32..1000,
        node in 0u16..64,
        len in 1usize..200,
    ) {
        let params = AdaptiveStrip {
            min,
            max: min << span_log2,
            target_idle_milli: target,
        };
        let mut c = StripController::new(params, node, seed);
        for obs in obs_stream(seed ^ 0x0B5, len) {
            c.retune(&obs);
        }
        prop_assert_eq!(c.schedule().len(), len + 1);
        prop_assert_eq!(c.retunes(), len as u64);
        for w in c.schedule().windows(2) {
            let (a, b) = (w[0] as usize, w[1] as usize);
            prop_assert!(a >= params.min && a <= params.max, "strip {a} out of bounds");
            prop_assert!(b >= params.min && b <= params.max, "strip {b} out of bounds");
            let lo = a.min(b);
            let hi = a.max(b);
            // Shrink floors (odd a -> a/2), so the factor is 2 +/- rounding.
            prop_assert!(
                hi <= 2 * lo + 1,
                "non-multiplicative move {a} -> {b} (grow x2 / shrink /2 only)"
            );
        }
    }

    /// Same `(params, node, seed)` and the same stat stream produce a
    /// bit-identical strip schedule — the determinism the DST replays
    /// rely on. A different node id may dither differently but stays
    /// within bounds (checked above), and a genuinely different stream is
    /// allowed to diverge.
    #[test]
    fn same_seed_and_stream_replay_identically(
        seed in any::<u64>(),
        node in 0u16..64,
        len in 1usize..200,
    ) {
        let run = || {
            let mut c = StripController::new(AdaptiveStrip::default(), node, seed);
            for obs in obs_stream(seed, len) {
                c.retune(&obs);
            }
            (c.schedule().to_vec(), c.strip(), c.reversals_damped())
        };
        prop_assert_eq!(run(), run());
    }

    /// A stationary workload converges within 8 boundaries and then holds:
    /// multiplicative moves cross from the geometric-mean start to either
    /// bound in `log2(max/min) / 2` steps, so 8 covers any ratio up to
    /// 2^16.
    #[test]
    fn stationary_workloads_converge_within_8_strips(
        seed in any::<u64>(),
        min in 1usize..64,
        span_log2 in 0u32..9,
        node in 0u16..64,
        idle in 0u32..1000,
        threads in 0u64..512,
    ) {
        let params = AdaptiveStrip {
            min,
            max: min << span_log2,
            ..AdaptiveStrip::default()
        };
        let idle_ns = idle as u64 * 1_000;
        let obs = StripObs {
            local_ns: 1_000_000 - idle_ns,
            overhead_ns: 0,
            idle_ns,
            suspended_threads: threads,
        };
        let mut c = StripController::new(params, node, seed);
        for _ in 0..8 {
            c.retune(&obs);
        }
        let settled = c.strip();
        for i in 0..16 {
            prop_assert_eq!(
                c.retune(&obs),
                settled,
                "stationary stream moved the strip again at boundary 8+{}",
                i
            );
        }
    }

    /// Monotone response to injected idle: with the pressure signal fixed,
    /// a starving node never picks a smaller strip than a busier one.
    #[test]
    fn response_is_monotone_in_injected_idle(
        seed in any::<u64>(),
        node in 0u16..64,
        idle_a in 0u32..1000,
        idle_b in 0u32..1000,
        threads in 0u64..256,
    ) {
        let (lo, hi) = (idle_a.min(idle_b), idle_a.max(idle_b));
        let strip_after = |idle: u32| {
            let idle_ns = idle as u64 * 1_000;
            let mut c = StripController::new(AdaptiveStrip::default(), node, seed);
            c.retune(&StripObs {
                local_ns: 1_000_000 - idle_ns,
                overhead_ns: 0,
                idle_ns,
                suspended_threads: threads,
            })
        };
        prop_assert!(
            strip_after(lo) <= strip_after(hi),
            "more idle produced a smaller strip ({} vs {})",
            lo,
            hi
        );
    }

    /// The per-node dither stays inside its advertised span: whatever the
    /// seed, an idle reading outside `target ± (band + span)` always
    /// decides the same direction on every node, so nodes disagree only
    /// inside the dither margin.
    #[test]
    fn dither_only_shifts_the_dead_band(seed in any::<u64>(), node in 0u16..256) {
        let params = AdaptiveStrip::default();
        let margin = (DEAD_BAND_MILLI + DITHER_SPAN_MILLI) as u64;
        let surely_grow = params.target_idle_milli as u64 + margin + 1;
        let surely_shrink = (params.target_idle_milli as u64).saturating_sub(margin + 1);
        let one = |idle_milli: u64| {
            let mut c = StripController::new(params, node, seed);
            let start = c.strip();
            let idle_ns = idle_milli * 1_000;
            let next = c.retune(&StripObs {
                local_ns: 1_000_000 - idle_ns,
                overhead_ns: 0,
                idle_ns,
                suspended_threads: 0,
            });
            (start, next)
        };
        let (start, grown) = one(surely_grow);
        prop_assert_eq!(grown, (start * 2).min(params.max));
        let (start, shrunk) = one(surely_shrink);
        prop_assert_eq!(shrunk, (start / 2).max(params.min));
    }
}

/// Adaptive strips must be semantics-invisible: the multi-phase Barnes-Hut
/// interaction checksums are bit-identical across fixed strips {1, 50,
/// 300}, the adaptive controller, and the adaptive controller with
/// locality-driven object migration on — and the invariant checker (which
/// now audits the strip schedule against its bounds) stays clean.
#[test]
fn adaptive_strip_preserves_bh_checksums() {
    let phases = 3usize;
    let nodes = 4u16;
    let world = BhWorld::build(plummer(160, 71), nodes, 8, BhParams::default(), BhCost::default());
    let adaptive = StripMode::Adaptive(AdaptiveStrip {
        min: 2,
        max: 64,
        ..AdaptiveStrip::default()
    });
    let configs: Vec<(String, DpaConfig)> = vec![
        ("strip=1".into(), DpaConfig::dpa(1)),
        ("strip=50".into(), DpaConfig::dpa(50)),
        ("strip=300".into(), DpaConfig::dpa(300)),
        (
            "adaptive".into(),
            DpaConfig {
                strip_mode: adaptive,
                ..DpaConfig::dpa(1)
            },
        ),
        (
            "adaptive+mig".into(),
            DpaConfig {
                strip_mode: adaptive,
                ..DpaConfig::dpa_migrating(1)
            },
        ),
    ];
    let mut baseline: Option<Vec<u64>> = None;
    for (label, cfg) in configs {
        let mut hashes = vec![0u64; phases * nodes as usize];
        let (reports, snap_sets, _) = run_phases(
            nodes,
            NetConfig::default(),
            cfg,
            &DstOptions::default(),
            phases,
            |_, i| BhApp::new(world.clone(), i),
            |ph, i, app: &BhApp| hashes[ph * nodes as usize + i as usize] = app.interaction_hash,
        );
        assert!(reports.iter().all(|r| r.completed), "{label}: stalled");
        for snaps in &snap_sets {
            let v = check_completed(snaps, false);
            assert!(v.is_empty(), "{label}: {}", v[0]);
        }
        if label.starts_with("adaptive") {
            // The controller actually ran: some node crossed a boundary.
            let retuned = snap_sets
                .iter()
                .flatten()
                .any(|s| s.strip_schedule.len() > 1);
            assert!(retuned, "{label}: no strip boundary was ever crossed");
        }
        match &baseline {
            None => baseline = Some(hashes),
            Some(b) => assert_eq!(&hashes, b, "{label}: checksums diverged"),
        }
    }
}

/// Same oracle for FMM (both sub-phases, via the app driver): fixed strips
/// {1, 50, 300}, adaptive, adaptive+migration, and migrating-fixed all
/// produce the same combined interaction checksum.
#[test]
fn adaptive_strip_preserves_fmm_checksums() {
    let particles = 256usize;
    let bodies = uniform_square(particles, 1997);
    let zs: Vec<Cx> = bodies.iter().map(|b| Cx::new(b.pos.x, b.pos.y)).collect();
    let qs: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
    let levels = dpa::nbody::quadtree::QuadTree::level_for(particles, 16);
    let world = FmmWorld::build(zs, qs, 4, FmmParams { terms: 8, levels }, FmmCost::default());
    let adaptive = StripMode::Adaptive(AdaptiveStrip {
        min: 2,
        max: 64,
        ..AdaptiveStrip::default()
    });
    let configs: Vec<(String, DpaConfig)> = vec![
        ("strip=1".into(), DpaConfig::dpa(1)),
        ("strip=50".into(), DpaConfig::dpa(50)),
        ("strip=300".into(), DpaConfig::dpa(300)),
        (
            "adaptive".into(),
            DpaConfig {
                strip_mode: adaptive,
                ..DpaConfig::dpa(1)
            },
        ),
        (
            "adaptive+mig".into(),
            DpaConfig {
                strip_mode: adaptive,
                ..DpaConfig::dpa_migrating(1)
            },
        ),
        ("mig strip=50".into(), DpaConfig::dpa_migrating(50)),
    ];
    let mut baseline: Option<u64> = None;
    for (label, cfg) in configs {
        let hash = run_fmm(&world, cfg, NetConfig::default(), &DstOptions::default())
            .expect_completed()
            .counter("interaction_hash");
        match baseline {
            None => baseline = Some(hash),
            Some(b) => assert_eq!(hash, b, "{label}: checksum diverged"),
        }
    }
    // And BH through its single-phase runner, for the counter plumbing.
    let world = BhWorld::build(plummer(160, 71), 4, 8, BhParams::default(), BhCost::default());
    let hash_of = |cfg: DpaConfig| {
        run_bh(&world, cfg, NetConfig::default(), &DstOptions::default(), Phases::ONE)
            .expect_completed()
            .counter("interaction_hash")
    };
    let a = hash_of(DpaConfig::dpa(50));
    let b = hash_of(DpaConfig {
        strip_mode: adaptive,
        ..DpaConfig::dpa(1)
    });
    assert_eq!(a, b, "single-phase BH adaptive checksum diverged");
    assert_ne!(a, 0, "hash plumbing returned the empty checksum");
}
