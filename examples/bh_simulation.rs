//! A full multi-step Barnes-Hut *simulation* (the paper times 4 steps):
//! leapfrog integration on the host with the distributed force phase
//! executed per step on the simulated machine, plus energy-conservation
//! validation against direct summation.
//!
//! ```sh
//! cargo run --release --example bh_simulation [-- <bodies> <nodes> <steps>]
//! ```

use dpa::apps::bh_dist::{BhCost, BhWorld};
use dpa::apps::driver::{run_bh, Phases};
use dpa::nbody::bh::BhParams;
use dpa::nbody::distrib::plummer;
use dpa::nbody::integrate::{kinetic_energy, potential_energy};
use dpa::nbody::vec3::Vec3;
use dpa::runtime::{DpaConfig, DstOptions};
use dpa::sim_net::NetConfig;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(2048);
    let nodes: u16 = args.next().and_then(|a| a.parse().ok()).unwrap_or(16);
    let steps: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let dt = 0.005;
    let params = BhParams::default();

    let mut bodies = plummer(n, 1997);
    let e0 = kinetic_energy(&bodies) + potential_energy(&bodies, params.eps);
    println!(
        "Barnes-Hut simulation: {n} bodies, {nodes} nodes, {steps} steps (dt = {dt})"
    );
    println!("initial total energy: {e0:.6}\n");

    let mut sim_total_ns = 0u64;
    for step in 0..steps {
        // Kick-drift-kick, with the *kick* forces computed by the
        // distributed DPA force phase on the simulated machine. The
        // tree is rebuilt every step (bodies moved), as in SPLASH-2.
        let world = BhWorld::build(bodies.clone(), nodes, 1, params, BhCost::default());
        let force_phase = |world| {
            run_bh(world, DpaConfig::dpa(50), NetConfig::default(), &DstOptions::default(), Phases::ONE)
                .expect_completed()
        };
        let run = force_phase(&world);
        sim_total_ns += run.makespan_ns();
        // World bodies are Morton-sorted; integrate in that order.
        bodies = world.bodies.clone();
        for (b, a) in bodies.iter_mut().zip(&run.accel()) {
            b.vel += *a * (dt * 0.5);
        }
        for b in bodies.iter_mut() {
            b.pos += b.vel * dt;
        }
        let world2 = BhWorld::build(bodies.clone(), nodes, 1, params, BhCost::default());
        let run2 = force_phase(&world2);
        sim_total_ns += run2.makespan_ns();
        bodies = world2.bodies.clone();
        for (b, a) in bodies.iter_mut().zip(&run2.accel()) {
            b.vel += *a * (dt * 0.5);
        }
        let ke = kinetic_energy(&bodies);
        println!(
            "step {step}: force phases {:>8.3} s simulated, kinetic energy {ke:.6}",
            (run.makespan_ns() + run2.makespan_ns()) as f64 / 1e9
        );
    }

    let e1 = kinetic_energy(&bodies) + potential_energy(&bodies, params.eps);
    let drift = (e1 - e0).abs() / e0.abs();
    let com: Vec3 = bodies
        .iter()
        .fold(Vec3::ZERO, |acc, b| acc + b.pos * b.mass);
    println!(
        "\nfinal energy {e1:.6} (relative drift {drift:.2e}); center of mass {:.4?}",
        com
    );
    println!(
        "total simulated force-phase time: {:.3} s across {steps} steps",
        sim_total_ns as f64 / 1e9
    );
    assert!(drift < 0.05, "energy drift too large: {drift}");
}
