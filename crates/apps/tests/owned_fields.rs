//! The eval apps keep fields for their own particles only: the
//! `(owner, slot)` table both FMM worlds build at set-up, and the dense
//! view (`app.fields.iter()`) the phase drivers read, checked on small
//! worlds at P = 4. Each node's view is pinned bit for bit to the dense
//! per-particle vector every node kept before fields followed ownership.

use apps::afmm_dist::{AfmmEvalApp, AfmmGatherApp, AfmmWorld};
use apps::fmm_dist::{FmmCost, FmmEvalApp, FmmM2lApp, FmmWorld};
use apps::owned_fields::ParticleSlots;
use dpa_core::{run_phase, DpaConfig, DstOptions};
use nbody::afmm::AfmmParams;
use nbody::cx::Cx;
use nbody::distrib::{clustered_square, uniform_square};
use nbody::fmm::FmmParams;
use sim_net::NetConfig;
use std::collections::HashMap;
use std::sync::Arc;

const NODES: u16 = 4;

fn fmm_world() -> Arc<FmmWorld> {
    let bodies = uniform_square(900, 55);
    let zs: Vec<Cx> = bodies.iter().map(|b| Cx::new(b.pos.x, b.pos.y)).collect();
    let qs: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
    let params = FmmParams {
        terms: 14,
        levels: 3,
    };
    FmmWorld::build(zs, qs, NODES, params, FmmCost::default())
}

fn afmm_world() -> Arc<AfmmWorld> {
    let bodies = clustered_square(700, 4, 99);
    let zs: Vec<Cx> = bodies.iter().map(|b| Cx::new(b.pos.x, b.pos.y)).collect();
    let qs: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
    let params = AfmmParams {
        terms: 10,
        leaf_cap: 12,
        max_level: 10,
    };
    AfmmWorld::build(zs, qs, NODES, params, FmmCost::default())
}

/// Each node's dense field view after both sub-phases under `dpa(50)`.
fn fmm_views(world: &Arc<FmmWorld>) -> Vec<Vec<Cx>> {
    let (net, cfg) = (NetConfig::default(), DpaConfig::dpa(50));
    let mut partials = vec![HashMap::new(); NODES as usize];
    run_phase(
        NODES,
        net.clone(),
        cfg.clone(),
        |i| FmmM2lApp::new(world.clone(), i),
        |i, app| partials[i as usize] = app.locals.clone(),
    );
    let mut views = vec![Vec::new(); NODES as usize];
    run_phase(
        NODES,
        net,
        cfg,
        |i| FmmEvalApp::new(world.clone(), i, std::mem::take(&mut partials[i as usize])),
        |i, app| views[i as usize] = app.fields.iter().copied().collect(),
    );
    views
}

/// [`fmm_views`] for the adaptive FMM.
fn afmm_views(world: &Arc<AfmmWorld>) -> Vec<Vec<Cx>> {
    let (net, cfg) = (NetConfig::default(), DpaConfig::dpa(50));
    let mut partials = vec![HashMap::new(); NODES as usize];
    run_phase(
        NODES,
        net.clone(),
        cfg.clone(),
        |i| AfmmGatherApp::new(world.clone(), i),
        |i, app| partials[i as usize] = app.locals.clone(),
    );
    let mut views = vec![Vec::new(); NODES as usize];
    run_phase(
        NODES,
        net,
        cfg,
        |i| AfmmEvalApp::new(world.clone(), i, std::mem::take(&mut partials[i as usize])),
        |i, app| views[i as usize] = app.fields.iter().copied().collect(),
    );
    views
}

/// FNV-1a over the bits of a field vector.
fn digest(fields: &[Cx]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for f in fields {
        for word in [f.re.to_bits(), f.im.to_bits()] {
            for byte in word.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

/// Every particle's owner is its leaf's owner, and each node's slots are
/// `0..owned`, each taken once.
fn check_slots<'a>(
    slots: &ParticleSlots,
    particles: usize,
    leaves: impl Iterator<Item = (u16, &'a [u32])>,
) {
    let mut taken: Vec<Vec<bool>> = (0..NODES)
        .map(|node| vec![false; slots.owned(node)])
        .collect();
    let mut seen = 0;
    for (owner, ids) in leaves {
        for &i in ids {
            assert_eq!(slots.owner(i), owner, "particle {i}");
            let slot = &mut taken[owner as usize][slots.slot(i) as usize];
            assert!(!*slot, "node {owner}: slot {} taken twice", slots.slot(i));
            *slot = true;
            seen += 1;
        }
    }
    assert_eq!(seen, particles);
    for (node, taken) in taken.iter().enumerate() {
        assert!(
            taken.iter().all(|&t| t),
            "node {node}: a slot no particle has"
        );
    }
}

/// Each view has an entry per particle, nonzero exactly at the node's
/// own particles, and its bits are the pinned ones.
fn check_views(
    slots: &ParticleSlots,
    particles: usize,
    views: &[Vec<Cx>],
    pinned: [u64; NODES as usize],
) {
    for (node, view) in views.iter().enumerate() {
        assert_eq!(view.len(), particles);
        for (i, f) in view.iter().enumerate() {
            let mine = slots.owner(i as u32) as usize == node;
            assert_eq!(*f != Cx::ZERO, mine, "node {node}, particle {i}: {f:?}");
        }
    }
    let got: Vec<u64> = views.iter().map(|v| digest(v)).collect();
    assert_eq!(got, pinned, "per-node field digests {got:#018x?}");
}

/// The per-node views summed the way the phase driver sums them.
fn summed(views: &[Vec<Cx>]) -> Vec<Cx> {
    let mut sum = vec![Cx::ZERO; views[0].len()];
    for view in views {
        for (s, f) in sum.iter_mut().zip(view) {
            if f.norm2() != 0.0 {
                *s += *f;
            }
        }
    }
    sum
}

#[test]
fn fmm_fields_follow_the_owned_particles() {
    let world = fmm_world();
    let tree = &world.solver.tree;
    check_slots(
        &world.slots,
        world.solver.zs.len(),
        tree.leaves()
            .map(|b| (world.box_owner[b.dense_index()], tree.particles_in(b))),
    );
    let views = fmm_views(&world);
    check_views(
        &world.slots,
        world.solver.zs.len(),
        &views,
        [
            0x5599_1ac7_f5bd_9f61,
            0x5815_bbf6_9e5e_3800,
            0xe61b_1c51_5a7c_d79f,
            0x3aea_1b8e_1216_4353,
        ],
    );
    let run = apps::driver::run_fmm(
        &world,
        DpaConfig::dpa(50),
        NetConfig::default(),
        &DstOptions::default(),
    );
    assert_eq!(run.fields(), summed(&views));
}

#[test]
fn afmm_fields_follow_the_owned_particles() {
    let world = afmm_world();
    let s = &world.solver;
    check_slots(
        &world.slots,
        s.zs.len(),
        s.leaves()
            .map(|i| (world.owner[i], &s.nodes[i].particles[..])),
    );
    let views = afmm_views(&world);
    check_views(
        &world.slots,
        s.zs.len(),
        &views,
        [
            0x9c61_998a_1ae1_c9dd,
            0xa70b_3387_213e_ff16,
            0xbd2b_5299_39d2_2ab2,
            0x4800_4681_c4a6_dd4f,
        ],
    );
    let run = apps::driver::run_afmm(
        &world,
        DpaConfig::dpa(50),
        NetConfig::default(),
        &DstOptions::default(),
    );
    assert_eq!(run.fields(), summed(&views));
}
