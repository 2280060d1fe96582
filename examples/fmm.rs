//! The FMM force-computation phase — the paper's second evaluation
//! application — on a simulated machine, with accuracy validation against
//! direct O(n²) summation.
//!
//! ```sh
//! cargo run --release --example fmm [-- <particles> <nodes> <terms>]
//! ```

use dpa::apps::driver::run_fmm;
use dpa::apps::fmm_dist::{FmmCost, FmmWorld};
use dpa::nbody::cx::Cx;
use dpa::nbody::distrib::uniform_square;
use dpa::nbody::fmm::FmmParams;
use dpa::nbody::quadtree::QuadTree;
use dpa::runtime::{DpaConfig, DstOptions};
use dpa::sim_net::NetConfig;

fn main() {
    let mut args = std::env::args().skip(1);
    let particles: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4096);
    let nodes: u16 = args.next().and_then(|a| a.parse().ok()).unwrap_or(16);
    let terms: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(16);

    println!("FMM force phase: {particles} particles, {terms} terms, {nodes} simulated nodes\n");
    let bodies = uniform_square(particles, 1997);
    let zs: Vec<Cx> = bodies.iter().map(|b| Cx::new(b.pos.x, b.pos.y)).collect();
    let qs: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
    let levels = QuadTree::level_for(particles, 16);
    let world = FmmWorld::build(
        zs,
        qs,
        nodes,
        FmmParams { terms, levels },
        FmmCost::default(),
    );

    // Direct-summation oracle (O(n²); fine at example sizes).
    let exact = world.solver.direct();

    println!(
        "{:<42} {:>10} {:>9} {:>14}",
        "configuration", "time", "messages", "max rel error"
    );
    for cfg in [
        DpaConfig::dpa(50),
        DpaConfig::dpa_base(50),
        DpaConfig::caching(),
        DpaConfig::blocking(),
    ] {
        let label = cfg.describe();
        let r = run_fmm(&world, cfg, NetConfig::default(), &DstOptions::default()).expect_completed();
        let mut worst = 0.0f64;
        for (a, b) in r.fields().iter().zip(&exact) {
            worst = worst.max((*a - *b).abs() / b.abs().max(1e-12));
        }
        let msgs = r.stats.total_msgs();
        println!(
            "{:<42} {:>9.3}s {:>9} {:>14.2e}",
            label,
            r.makespan_ns() as f64 / 1e9,
            msgs,
            worst
        );
    }

    println!(
        "\nquadtree: {levels} levels; M2L reads ~{}B multipole objects remotely.",
        16 * (terms + 1) + 16
    );
}
