//! Distributed adaptive-FMM correctness: every variant must match the
//! sequential adaptive solver, which itself matches direct summation.

use apps::afmm_dist::AfmmWorld;
use apps::driver::Run;
use apps::fmm_dist::FmmCost;
use dpa_core::{DpaConfig, DstOptions};
use nbody::afmm::{AfmmParams, AfmmSolver};
use nbody::cx::Cx;
use nbody::distrib::clustered_square;
use sim_net::NetConfig;
use std::sync::Arc;

fn world(nodes: u16, n: usize) -> Arc<AfmmWorld> {
    let bodies = clustered_square(n, 5, 0xADA);
    let zs: Vec<Cx> = bodies.iter().map(|b| Cx::new(b.pos.x, b.pos.y)).collect();
    let qs: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
    AfmmWorld::build(
        zs,
        qs,
        nodes,
        AfmmParams {
            terms: 12,
            leaf_cap: 12,
            max_level: 10,
        },
        FmmCost::default(),
    )
}

/// One fault-free adaptive-FMM force phase on the canonical schedule.
fn run_afmm(world: &Arc<AfmmWorld>, cfg: DpaConfig, net: NetConfig) -> Run {
    apps::driver::run_afmm(world, cfg, net, &DstOptions::default()).expect_completed()
}

fn max_rel_err(a: &[Cx], b: &[Cx]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).abs() / y.abs().max(1e-12))
        .fold(0.0, f64::max)
}

#[test]
fn distributed_matches_sequential_adaptive() {
    let w = world(4, 800);
    let run = run_afmm(&w, DpaConfig::dpa(50), NetConfig::default());
    // Oracle: the same adaptive solver run to completion sequentially.
    let mut oracle = AfmmSolver::new(w.solver.zs.clone(), w.solver.qs.clone(), w.solver.params);
    oracle.downward();
    let exact = oracle.evaluate();
    let err = max_rel_err(&run.fields(), &exact);
    assert!(err < 1e-9, "worst rel err vs sequential adaptive: {err}");
}

#[test]
fn distributed_matches_direct_summation() {
    let w = world(2, 600);
    let run = run_afmm(&w, DpaConfig::dpa(50), NetConfig::default());
    let exact = w.solver.direct();
    let err = max_rel_err(&run.fields(), &exact);
    assert!(err < 1e-5, "worst rel err vs direct: {err}");
}

#[test]
fn all_variants_agree() {
    let w = world(4, 700);
    let reference = run_afmm(&w, DpaConfig::dpa(50), NetConfig::default());
    for cfg in [
        DpaConfig::dpa_base(50),
        DpaConfig::caching(),
        DpaConfig::blocking(),
    ] {
        let label = cfg.describe();
        let run = run_afmm(&w, cfg, NetConfig::default());
        assert_eq!(
            run.counter("m2l_count"),
            reference.counter("m2l_count"),
            "{label}"
        );
        assert_eq!(
            run.counter("p2p_pairs"),
            reference.counter("p2p_pairs"),
            "{label}"
        );
        let err = max_rel_err(&run.fields(), &reference.fields());
        assert!(err < 1e-9, "{label}: worst rel err {err}");
    }
}

#[test]
fn adaptive_beats_uniform_on_clusters_in_simulated_time() {
    // The same clustered input under the distributed uniform FMM (with
    // its count-chosen level) vs the adaptive one: the adaptive method
    // must be substantially faster end to end.
    let n = 2_000;
    let bodies = clustered_square(n, 4, 0xBEE);
    let zs: Vec<Cx> = bodies.iter().map(|b| Cx::new(b.pos.x, b.pos.y)).collect();
    let qs: Vec<f64> = bodies.iter().map(|b| b.mass).collect();

    let aw = AfmmWorld::build(
        zs.clone(),
        qs.clone(),
        8,
        AfmmParams {
            terms: 12,
            leaf_cap: 16,
            max_level: 12,
        },
        FmmCost::default(),
    );
    let t_adaptive = run_afmm(&aw, DpaConfig::dpa(50), NetConfig::default()).makespan_ns();

    let levels = nbody::quadtree::QuadTree::level_for(n, 16);
    let uw = apps::fmm_dist::FmmWorld::build(
        zs,
        qs,
        8,
        nbody::fmm::FmmParams { terms: 12, levels },
        FmmCost::default(),
    );
    let t_uniform = apps::driver::run_fmm(
        &uw,
        DpaConfig::dpa(50),
        NetConfig::default(),
        &DstOptions::default(),
    )
    .makespan_ns();

    assert!(
        t_adaptive * 2 < t_uniform,
        "adaptive ({t_adaptive} ns) should be >2x faster than uniform \
         ({t_uniform} ns) on clustered input"
    );
}

#[test]
fn deterministic() {
    let w = world(4, 500);
    let a = run_afmm(&w, DpaConfig::dpa(50), NetConfig::default());
    let b = run_afmm(&w, DpaConfig::dpa(50), NetConfig::default());
    assert_eq!(a.makespan_ns(), b.makespan_ns());
    assert_eq!(a.fields(), b.fields());
}
