//! The **adaptive** FMM (the algorithm SPLASH-2's FMM actually is) on a
//! clustered input, distributed over a simulated machine — compared
//! against the uniform-tree FMM on the same particles.
//!
//! ```sh
//! cargo run --release --example adaptive_fmm [-- <particles> <nodes> <clusters>]
//! ```

use dpa::apps::afmm_dist::AfmmWorld;
use dpa::apps::driver::{run_afmm, run_fmm};
use dpa::apps::fmm_dist::{FmmCost, FmmWorld};
use dpa::nbody::afmm::AfmmParams;
use dpa::nbody::cx::Cx;
use dpa::nbody::distrib::clustered_square;
use dpa::nbody::fmm::FmmParams;
use dpa::nbody::quadtree::QuadTree;
use dpa::runtime::{DpaConfig, DstOptions};
use dpa::sim_net::NetConfig;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4096);
    let nodes: u16 = args.next().and_then(|a| a.parse().ok()).unwrap_or(16);
    let clusters: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(5);
    let terms = 16usize;

    println!(
        "adaptive vs uniform FMM: {n} particles in {clusters} clusters, {nodes} nodes, {terms} terms\n"
    );
    let bodies = clustered_square(n, clusters, 2027);
    let zs: Vec<Cx> = bodies.iter().map(|b| Cx::new(b.pos.x, b.pos.y)).collect();
    let qs: Vec<f64> = bodies.iter().map(|b| b.mass).collect();

    // Adaptive: variable-depth tree, U/V/W/X lists.
    let aw = AfmmWorld::build(
        zs.clone(),
        qs.clone(),
        nodes,
        AfmmParams {
            terms,
            leaf_cap: 16,
            max_level: 12,
        },
        FmmCost::default(),
    );
    let (tn, leaves, depth, occ) = aw.solver.tree_stats();
    println!(
        "adaptive tree: {tn} boxes, {leaves} leaves, depth {depth}, max occupancy {occ}, {} grains",
        aw.grains.len()
    );
    let opts = DstOptions::default();
    let ar = run_afmm(&aw, DpaConfig::dpa(50), NetConfig::default(), &opts).expect_completed();
    let exact = aw.solver.direct();
    let mut worst = 0.0f64;
    for (a, b) in ar.fields().iter().zip(&exact) {
        worst = worst.max((*a - *b).abs() / b.abs().max(1e-12));
    }
    println!(
        "adaptive DPA:  {:>8.3} s simulated, max rel error vs direct {worst:.2e}",
        ar.makespan_ns() as f64 / 1e9
    );

    // Uniform tree on the same input (count-chosen depth).
    let levels = QuadTree::level_for(n, 16);
    let uw = FmmWorld::build(
        zs,
        qs,
        nodes,
        FmmParams { terms, levels },
        FmmCost::default(),
    );
    let ur = run_fmm(&uw, DpaConfig::dpa(50), NetConfig::default(), &opts).expect_completed();
    println!(
        "uniform DPA:   {:>8.3} s simulated (level-{levels} tree, {}x slower on this input)",
        ur.makespan_ns() as f64 / 1e9,
        ur.makespan_ns() / ar.makespan_ns().max(1)
    );
}
