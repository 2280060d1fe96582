//! The Barnes-Hut force-computation phase — the paper's first evaluation
//! application — on a simulated 16-node T3D-like machine.
//!
//! Builds a Plummer sphere, distributes bodies (Morton/costzones-style)
//! and octree cells (SPLASH-like builder placement), then runs the force
//! phase under DPA and the baselines, reporting timing breakdowns and
//! validating forces against the sequential tree walk.
//!
//! ```sh
//! cargo run --release --example barnes_hut [-- <bodies> <nodes>]
//! ```

use dpa::apps::bh_dist::{BhCost, BhWorld};
use dpa::apps::driver::{run_bh, Phases};
use dpa::nbody::bh::{all_accels, BhParams};
use dpa::nbody::distrib::plummer;
use dpa::runtime::{DpaConfig, DstOptions};
use dpa::sim_net::NetConfig;

fn main() {
    let mut args = std::env::args().skip(1);
    let bodies: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4096);
    let nodes: u16 = args.next().and_then(|a| a.parse().ok()).unwrap_or(16);

    println!("Barnes-Hut force phase: {bodies} Plummer bodies, {nodes} simulated nodes\n");
    let world = BhWorld::build(
        plummer(bodies, 1997),
        nodes,
        1,
        BhParams::default(),
        BhCost::default(),
    );

    // Sequential oracle for validation.
    let oracle = all_accels(&world.tree, &world.bodies, world.params);

    println!(
        "{:<42} {:>10} {:>7} {:>7} {:>7} {:>9}",
        "configuration", "time", "local%", "ovh%", "idle%", "messages"
    );
    for cfg in [
        DpaConfig::dpa(50),
        DpaConfig::dpa_pipeline(50),
        DpaConfig::dpa_base(50),
        DpaConfig::caching(),
        DpaConfig::blocking(),
    ] {
        let label = cfg.describe();
        let r = run_bh(
            &world,
            cfg,
            NetConfig::default(),
            &DstOptions::default(),
            Phases::ONE,
        )
        .expect_completed();
        let (l, o, i) = r.stats.mean_breakdown();
        let t = (l + o + i).max(1.0);
        // Validate physics.
        let mut worst = 0.0f64;
        for (a, w) in r.accel().iter().zip(&oracle) {
            let err = (*a - w.acc).norm() / w.acc.norm().max(1e-12);
            worst = worst.max(err);
        }
        assert!(worst < 1e-9, "{label}: force mismatch {worst}");
        println!(
            "{:<42} {:>10.3}s {:>6.1}% {:>6.1}% {:>6.1}% {:>9}",
            label,
            r.makespan_ns() as f64 / 1e9,
            100.0 * l / t,
            100.0 * o / t,
            100.0 * i / t,
            r.stats.total_msgs()
        );
    }

    println!(
        "\n{} interactions computed; all configurations match the sequential walk.",
        world.bodies.len()
    );
}
