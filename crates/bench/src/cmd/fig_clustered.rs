//! **Clustered-input study** (extension) — FMM on a non-uniform particle
//! distribution.
//!
//! SPLASH-2's FMM inputs are clustered; clustering concentrates work into
//! few subtrees and stresses the partitioner (subtree grains are
//! indivisible). This sweep compares uniform vs k-cluster inputs at the
//! same size: expect lower speedups for clustered inputs — idle time from
//! grain imbalance — with DPA still ahead of the caching baseline, and
//! imbalance (not communication) dominating the gap to ideal.
//!
//! Run with `--quick` for a reduced problem size.

use apps::afmm_dist::AfmmWorld;
use apps::fmm_dist::{FmmCost, FmmWorld};
use bench::cli::{Args, Scale};
use bench::*;
use dpa_core::DpaConfig;
use nbody::afmm::AfmmParams;
use nbody::cx::Cx;
use nbody::distrib::{clustered_square, uniform_square};
use nbody::fmm::FmmParams;
use nbody::quadtree::QuadTree;
use std::io;

fn build(
    particles: usize,
    terms: usize,
    nodes: u16,
    clusters: Option<usize>,
    occupancy_depth: bool,
    grain_extra: u32,
) -> std::sync::Arc<FmmWorld> {
    let bodies = match clusters {
        None => uniform_square(particles, SEED),
        Some(k) => clustered_square(particles, k, SEED),
    };
    let zs: Vec<Cx> = bodies.iter().map(|b| Cx::new(b.pos.x, b.pos.y)).collect();
    let qs: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
    let levels = if occupancy_depth {
        QuadTree::level_for_occupancy(&zs, 48)
    } else {
        QuadTree::level_for(particles, 16)
    };
    FmmWorld::build_with_grain(
        zs,
        qs,
        nodes,
        FmmParams { terms, levels },
        FmmCost::default(),
        grain_extra,
    )
}

/// Both schemes on one input at every P: print each bar and record its
/// point.
fn sweep(
    app: &str,
    label: &str,
    procs: &[u16],
    seq: u64,
    world_at: &dyn Fn(u16) -> AppWorld,
    points: &mut Vec<ExpPoint>,
) {
    for &p in procs {
        let w = world_at(p);
        for cfg in [DpaConfig::dpa(50), DpaConfig::caching()] {
            let r = w.run(cfg.clone());
            let (l, o, i) = breakdown_pct(&r.stats);
            let speedup = seq as f64 / r.makespan_ns() as f64;
            println!(
                "  P={p:<3} {:<10} {:>8} s  |{}| idle {i:4.1}%  speedup {speedup:5.1}x",
                cfg.describe().split('(').next().unwrap(),
                fmt_secs(r.makespan_ns()).trim(),
                ascii_bar(l, o, i, 24),
            );
            let config = format!("{label}/{}", cfg.describe());
            points.push(
                ExpPoint::new("fig_clustered", app, &config, p, r.makespan_ns(), &r.stats)
                    .with("speedup", speedup),
            );
        }
    }
}

pub fn run(args: &Args) -> io::Result<i32> {
    let quick = args.scale == Scale::Quick;
    let (n, terms) = if quick {
        (4_096, 12)
    } else {
        (PAPER_FMM_PARTICLES, PAPER_FMM_TERMS)
    };
    let procs: &[u16] = if quick { &[4, 16] } else { &[4, 16, 64] };
    let mut points = Vec::new();

    println!("== Clustered-input FMM ({n} particles, {terms} terms) ==");
    for (label, clusters, deep, grain) in [
        ("uniform               ", None, false, 0),
        ("8 clusters            ", Some(8), false, 0),
        ("8 clusters, deep      ", Some(8), true, 0),
        ("8 clusters, deep+fine ", Some(8), true, 2),
        ("3 clusters            ", Some(3), false, 0),
        ("3 clusters, deep      ", Some(3), true, 0),
        ("3 clusters, deep+fine ", Some(3), true, 2),
    ] {
        let world_at = |p| AppWorld::Fmm(build(n, terms, p, clusters, deep, grain));
        // Sequential reference for this input.
        let seq = world_at(1).run(DpaConfig::sequential()).makespan_ns();
        println!("\n-- {label} (sequential {} s) --", fmt_secs(seq).trim());
        sweep("fmm", label.trim(), procs, seq, &world_at, &mut points);
    }
    // The adaptive FMM (SPLASH-2's actual algorithm) on the same inputs.
    println!("\n== Adaptive FMM on the same inputs ==");
    for (label, clusters) in [
        ("uniform input   ", None),
        ("8 clusters      ", Some(8)),
        ("3 clusters      ", Some(3)),
    ] {
        let bodies = match clusters {
            None => uniform_square(n, SEED),
            Some(k) => clustered_square(n, k, SEED),
        };
        let zs: Vec<Cx> = bodies.iter().map(|b| Cx::new(b.pos.x, b.pos.y)).collect();
        let qs: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
        let params = AfmmParams {
            terms,
            leaf_cap: 16,
            max_level: 12,
        };
        let world_at = |p| {
            AppWorld::Afmm(AfmmWorld::build(
                zs.clone(),
                qs.clone(),
                p,
                params,
                FmmCost::default(),
            ))
        };
        let seq = world_at(1).run(DpaConfig::sequential()).makespan_ns();
        println!(
            "\n-- adaptive, {label} (sequential {} s) --",
            fmt_secs(seq).trim()
        );
        sweep(
            "afmm",
            &format!("adaptive {}", label.trim()),
            procs,
            seq,
            &world_at,
            &mut points,
        );
    }

    dump_json("fig_clustered", &points)?;
    Ok(0)
}
