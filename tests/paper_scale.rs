//! Paper-scale calibration contract — the anchor ratios of Table 1,
//! asserted executably.
//!
//! These run the full 16,384-body / 32,768-particle workloads and are
//! `#[ignore]`d by default (minutes in release, much longer in debug).
//! Run them with:
//!
//! ```sh
//! cargo test --release --test paper_scale -- --ignored
//! ```

use dpa::apps::bh_dist::{BhCost, BhWorld};
use dpa::apps::driver::Phases;
use dpa::apps::fmm_dist::{FmmCost, FmmWorld};
use dpa::nbody::bh::BhParams;
use dpa::nbody::cx::Cx;
use dpa::nbody::distrib::{plummer, uniform_square};
use dpa::nbody::fmm::FmmParams;
use dpa::nbody::quadtree::QuadTree;
use dpa::runtime::{DpaConfig, DstOptions};
use dpa::sim_net::NetConfig;
use std::sync::Arc;

/// Simulated ns of one fault-free force phase on the canonical schedule.
fn bh_ns(world: &Arc<BhWorld>, cfg: DpaConfig) -> u64 {
    let opts = DstOptions::default();
    dpa::apps::driver::run_bh(world, cfg, NetConfig::default(), &opts, Phases::ONE)
        .expect_completed()
        .makespan_ns()
}

fn fmm_ns(world: &Arc<FmmWorld>, cfg: DpaConfig) -> u64 {
    dpa::apps::driver::run_fmm(world, cfg, NetConfig::default(), &DstOptions::default())
        .expect_completed()
        .makespan_ns()
}

fn bh_world(nodes: u16) -> Arc<BhWorld> {
    BhWorld::build(
        plummer(16_384, 1997),
        nodes,
        1,
        BhParams::default(),
        BhCost::default(),
    )
}

fn fmm_world(nodes: u16) -> Arc<FmmWorld> {
    let bodies = uniform_square(32_768, 1997);
    let zs: Vec<Cx> = bodies.iter().map(|b| Cx::new(b.pos.x, b.pos.y)).collect();
    let qs: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
    let levels = QuadTree::level_for(32_768, 16);
    FmmWorld::build(
        zs,
        qs,
        nodes,
        FmmParams { terms: 29, levels },
        FmmCost::default(),
    )
}

#[test]
#[ignore = "paper-scale run; use --release --ignored"]
fn barnes_hut_anchors_hold() {
    // Sequential ≈ paper's 97.84 s / 4 steps (±10%).
    let seq = bh_ns(&bh_world(1), DpaConfig::sequential());
    let seq4 = 4.0 * seq as f64 / 1e9;
    assert!(
        (88.0..108.0).contains(&seq4),
        "sequential BH x4 = {seq4:.2} s (paper 97.84)"
    );

    // Single-node overheads: DPA ≈ +20.6%, caching ≈ +17.7% (±3 pts).
    let dpa1 = bh_ns(&bh_world(1), DpaConfig::dpa(50));
    let cache1 = bh_ns(&bh_world(1), DpaConfig::caching());
    let dpa_over = dpa1 as f64 / seq as f64 - 1.0;
    let cache_over = cache1 as f64 / seq as f64 - 1.0;
    assert!(
        (0.17..0.24).contains(&dpa_over),
        "DPA 1-node overhead {dpa_over:.3} (paper 0.206)"
    );
    assert!(
        (0.14..0.21).contains(&cache_over),
        "caching 1-node overhead {cache_over:.3} (paper 0.177)"
    );
    assert!(cache1 < dpa1, "caching must win at P = 1 (pure overheads)");

    // DPA beats caching at P = 16 and 64; near-paper speedup at 64.
    for p in [16u16, 64] {
        let w = bh_world(p);
        let dpa = bh_ns(&w, DpaConfig::dpa(50));
        let cache = bh_ns(&w, DpaConfig::caching());
        assert!(dpa < cache, "P={p}: DPA {dpa} must beat caching {cache}");
        if p == 64 {
            let speedup = dpa1 as f64 / dpa as f64;
            assert!(
                speedup > 42.0,
                "BH speedup vs 1-node DPA at 64 = {speedup:.1} (paper: >42)"
            );
        }
    }
}

#[test]
#[ignore = "paper-scale run; use --release --ignored"]
fn fmm_anchors_hold() {
    // Sequential ≈ paper's 14.46 s (±12%).
    let seq = fmm_ns(&fmm_world(1), DpaConfig::sequential());
    let seq_s = seq as f64 / 1e9;
    assert!(
        (12.7..16.2).contains(&seq_s),
        "sequential FMM = {seq_s:.2} s (paper 14.46)"
    );

    // 54-fold-ish speedup at 64 nodes, DPA ahead of caching.
    let w = fmm_world(64);
    let dpa = fmm_ns(&w, DpaConfig::dpa(50));
    let cache = fmm_ns(&w, DpaConfig::caching());
    assert!(dpa < cache);
    let speedup = seq as f64 / dpa as f64;
    assert!(
        (48.0..66.0).contains(&speedup),
        "FMM speedup at 64 = {speedup:.1} (paper: 54)"
    );
}
