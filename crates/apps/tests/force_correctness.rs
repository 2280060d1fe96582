//! Cross-variant force correctness: every execution scheme must produce
//! the same physics as the sequential oracles in `nbody`, differing only
//! by floating-point reassociation.

use apps::bh_dist::{BhCost, BhWorld};
use apps::driver::{Digest, Phases, Run};
use apps::fmm_dist::{FmmCost, FmmWorld};
use dpa_core::{DiffPlan, DpaConfig, DstOptions};
use nbody::bh::{all_accels, BhParams};
use nbody::cx::Cx;
use nbody::distrib::{plummer, uniform_cube, uniform_square};
use nbody::fmm::{FmmParams, FmmSolver};
use sim_net::NetConfig;
use std::sync::Arc;

/// One fault-free force phase on the canonical schedule.
fn run_bh(world: &Arc<BhWorld>, cfg: DpaConfig, net: NetConfig) -> Run {
    apps::driver::run_bh(world, cfg, net, &DstOptions::default(), Phases::ONE).expect_completed()
}

fn run_fmm(world: &Arc<FmmWorld>, cfg: DpaConfig, net: NetConfig) -> Run {
    apps::driver::run_fmm(world, cfg, net, &DstOptions::default()).expect_completed()
}

const N_BH: usize = 1200;
const N_FMM: usize = 900;

fn bh_world(nodes: u16) -> Arc<BhWorld> {
    BhWorld::build(
        plummer(N_BH, 99),
        nodes,
        8,
        BhParams::default(),
        BhCost::default(),
    )
}

fn fmm_world(nodes: u16) -> Arc<FmmWorld> {
    let bodies = uniform_square(N_FMM, 55);
    let zs: Vec<Cx> = bodies.iter().map(|b| Cx::new(b.pos.x, b.pos.y)).collect();
    let qs: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
    FmmWorld::build(
        zs,
        qs,
        nodes,
        FmmParams {
            terms: 14,
            levels: 3,
        },
        FmmCost::default(),
    )
}

#[test]
fn bh_distributed_matches_sequential_walk() {
    let world = bh_world(4);
    let run = run_bh(&world, DpaConfig::dpa(50), NetConfig::default());
    let seq = all_accels(&world.tree, &world.bodies, world.params);
    let mut worst = 0.0f64;
    for (a, w) in run.accel().iter().zip(&seq) {
        let err = (*a - w.acc).norm() / w.acc.norm().max(1e-12);
        worst = worst.max(err);
    }
    assert!(worst < 1e-9, "worst rel err {worst}");
    let seq_cells: u64 = seq.iter().map(|w| w.cell_interactions).sum();
    let seq_bodies: u64 = seq.iter().map(|w| w.body_interactions).sum();
    assert_eq!(run.counter("cell_interactions"), seq_cells);
    assert_eq!(run.counter("body_interactions"), seq_bodies);
}

/// FNV-1a over the bits of every acceleration component.
fn accel_digest(accel: &[nbody::vec3::Vec3]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for a in accel {
        for word in [a.x.to_bits(), a.y.to_bits(), a.z.to_bits()] {
            for byte in word.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn bh_bits_are_pinned() {
    // Digests printed by the `Cell`/`Body`-walking kernel this one
    // replaced. The accuracy tests tolerate 1e-9; this does not: a
    // reassociated opening test, a reordered leaf sum or a body paired
    // with the wrong partner changes it. `diff` covers the value-sensitive
    // hash (generation stamps folded per visit) over three timesteps.
    let plan = DiffPlan {
        seed: 0xD1FF,
        change_permille: 200,
        phase: 0,
    };
    type Pin = (&'static str, Vec<nbody::body::Body>, u16, usize, usize, [u64; 3]);
    let pins: [Pin; 2] = [
        (
            "plummer",
            plummer(700, 21),
            4,
            1,
            50,
            [0xa573_4130_a65e_4a3b, 0x4830_4445_c869_ebbb, 0x1d5b_ba6a_3c32_85c5],
        ),
        (
            "uniform",
            uniform_cube(500, 5),
            3,
            4,
            8,
            [0xe265_4ae8_0e99_ce7a, 0xd366_147b_d9f2_a34d, 0x57d4_41c1_40c5_4107],
        ),
    ];
    for (name, bodies, nodes, leaf_cap, strip, want) in pins {
        let world = BhWorld::build(bodies, nodes, leaf_cap, BhParams::default(), BhCost::default());
        let run = run_bh(&world, DpaConfig::dpa(strip), NetConfig::default());
        let steps = apps::driver::run_bh(
            &world,
            DpaConfig::dpa_differential(strip),
            NetConfig::default(),
            &DstOptions::default(),
            Phases::changing(3, plan),
        )
        .expect_completed();
        let Digest::Ints(hashes) = &steps.digest else {
            panic!("a multi-step BH run digests to per-node hashes")
        };
        let got = [
            accel_digest(&run.accel()),
            run.counter("interaction_hash"),
            hashes.iter().fold(0u64, |acc, &h| acc.rotate_left(7) ^ h),
        ];
        assert_eq!(got, want, "{name}: accel / hash / diff digests {got:#018x?}");
    }
}

#[test]
fn bh_all_variants_agree() {
    let world = bh_world(4);
    let reference = run_bh(&world, DpaConfig::dpa(50), NetConfig::default());
    for cfg in [
        DpaConfig::dpa_base(50),
        DpaConfig::dpa_pipeline(50),
        DpaConfig::caching(),
        DpaConfig::blocking(),
    ] {
        let label = cfg.describe();
        eprintln!("running variant {label}");
        let run = run_bh(&world, cfg, NetConfig::default());
        assert_eq!(
            run.counter("cell_interactions"),
            reference.counter("cell_interactions"),
            "{label}: interaction counts must match exactly"
        );
        let mut worst = 0.0f64;
        for (a, b) in run.accel().iter().zip(&reference.accel()) {
            worst = worst.max((*a - *b).norm() / b.norm().max(1e-12));
        }
        assert!(worst < 1e-9, "{label}: worst rel err {worst}");
    }
}

#[test]
fn bh_sequential_variant_on_one_node() {
    let world = bh_world(1);
    let run = run_bh(&world, DpaConfig::sequential(), NetConfig::default());
    // With zero runtime cost, makespan is exactly the charged local work.
    assert_eq!(run.stats.nodes[0].overhead.as_ns(), 0);
    assert!(run.makespan_ns() > 0);
    assert_eq!(run.stats.total_msgs(), 0);
    let seq = all_accels(&world.tree, &world.bodies, world.params);
    for (a, w) in run.accel().iter().zip(&seq) {
        let err = (*a - w.acc).norm() / w.acc.norm().max(1e-12);
        assert!(err < 1e-9);
    }
}

#[test]
fn fmm_distributed_matches_solver() {
    let world = fmm_world(4);
    let run = run_fmm(&world, DpaConfig::dpa(50), NetConfig::default());
    // Oracle: the same solver run to completion sequentially.
    let mut oracle = FmmSolver::new(
        world.solver.zs.clone(),
        world.solver.qs.clone(),
        world.solver.params,
    );
    oracle.downward();
    let exact = oracle.evaluate();
    let mut worst = 0.0f64;
    for (a, b) in run.fields().iter().zip(&exact) {
        worst = worst.max((*a - *b).abs() / b.abs().max(1e-12));
    }
    assert!(worst < 1e-9, "worst rel err {worst}");
}

#[test]
fn fmm_matches_direct_summation() {
    // End-to-end physics: distributed FMM against the O(n²) oracle.
    let world = fmm_world(2);
    let run = run_fmm(&world, DpaConfig::dpa(50), NetConfig::default());
    let exact = world.solver.direct();
    let mut worst = 0.0f64;
    for (a, b) in run.fields().iter().zip(&exact) {
        worst = worst.max((*a - *b).abs() / b.abs().max(1e-12));
    }
    assert!(worst < 1e-6, "worst rel err vs direct {worst}");
}

#[test]
fn fmm_all_variants_agree() {
    let world = fmm_world(4);
    let reference = run_fmm(&world, DpaConfig::dpa(50), NetConfig::default());
    for cfg in [
        DpaConfig::dpa_base(50),
        DpaConfig::dpa_pipeline(50),
        DpaConfig::caching(),
        DpaConfig::blocking(),
    ] {
        let label = cfg.describe();
        eprintln!("running variant {label}");
        let run = run_fmm(&world, cfg, NetConfig::default());
        assert_eq!(run.counter("m2l_count"), reference.counter("m2l_count"), "{label}");
        assert_eq!(run.counter("p2p_pairs"), reference.counter("p2p_pairs"), "{label}");
        let mut worst = 0.0f64;
        for (a, b) in run.fields().iter().zip(&reference.fields()) {
            worst = worst.max((*a - *b).abs() / b.abs().max(1e-12));
        }
        assert!(worst < 1e-9, "{label}: worst rel err {worst}");
    }
}

#[test]
fn runs_are_deterministic() {
    let world = bh_world(4);
    let a = run_bh(&world, DpaConfig::dpa(50), NetConfig::default());
    let b = run_bh(&world, DpaConfig::dpa(50), NetConfig::default());
    assert_eq!(a.makespan_ns(), b.makespan_ns());
    assert_eq!(a.accel(), b.accel());

    let fw = fmm_world(2);
    let fa = run_fmm(&fw, DpaConfig::dpa(50), NetConfig::default());
    let fb = run_fmm(&fw, DpaConfig::dpa(50), NetConfig::default());
    assert_eq!(fa.makespan_ns(), fb.makespan_ns());
}
