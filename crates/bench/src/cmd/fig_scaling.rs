//! **Scaling figure** — speedup curves for DPA, the caching baseline, and
//! the naive blocking baseline, plus the ownership-policy ablation.
//!
//! The paper's headline claims: Barnes-Hut speedup "over 42" on 64 nodes
//! (relative to 1-node DPA) and FMM 54-fold on 64 nodes. Blocking (no
//! reuse, no overlap) collapses — the motivating gap of the introduction.
//!
//! The ablation re-runs Barnes-Hut with *scattered* (hash-random) cell
//! placement: remote reads balloon (+~60%), the caching baseline pays for
//! it, and DPA barely moves — dynamic alignment makes performance robust
//! to data placement, which is the paper's thesis. (An idealized
//! CM-region placement ties exactly with the builder placement in miss
//! count: whenever a cell's owner is one of its visitors, total misses
//! are Σ(visitors−1) independent of which visitor owns it.)
//!
//! Run with `--quick` for a reduced problem size.

use apps::bh_dist::{BhCost, BhWorld, OwnerPolicy};
use bench::cli::{Args, Scale};
use bench::*;
use dpa_core::DpaConfig;
use nbody::bh::BhParams;
use nbody::distrib::plummer;
use std::io;

pub fn run(args: &Args) -> io::Result<i32> {
    let sizes = Sizes::at(args.scale);
    let procs: &[u16] = if args.scale == Scale::Quick {
        &[1, 4, 16]
    } else {
        &[1, 2, 4, 8, 16, 32, 64]
    };
    let mut points = Vec::new();

    println!("== Scaling figure: speedup vs sequential ==");

    for app in PaperApp::BOTH {
        println!("\n-- {} --", app.heading(sizes));
        let seq = app
            .world(sizes, 1)
            .run(DpaConfig::sequential())
            .makespan_ns();
        println!(
            "  {:<22}{}",
            "config \\ P",
            procs.iter().map(|p| format!("{p:>8}")).collect::<String>()
        );
        // One table row: `label` under `cfg` at every P, on the worlds
        // `world_at` builds.
        let mut row = |label: &str, cfg: DpaConfig, world_at: &dyn Fn(u16) -> AppWorld| {
            let mut row = format!("  {label:<22}");
            for &p in procs {
                let r = world_at(p).run(cfg.clone());
                let speedup = seq as f64 / r.makespan_ns() as f64;
                row.push_str(&format!("{speedup:8.1}"));
                points.push(
                    ExpPoint::new(
                        "fig_scaling",
                        app.key(),
                        label,
                        p,
                        r.makespan_ns(),
                        &r.stats,
                    )
                    .with("speedup", speedup),
                );
            }
            println!("{row}");
        };
        for (label, cfg) in [
            ("DPA (50)", DpaConfig::dpa(50)),
            ("Caching", DpaConfig::caching()),
            ("Blocking", DpaConfig::blocking()),
        ] {
            row(label, cfg, &|p| app.world(sizes, p));
        }
        if app == PaperApp::Bh {
            // Ownership-policy ablation at full DPA.
            let scattered = |p| {
                AppWorld::Bh(BhWorld::build_with_policy(
                    plummer(sizes.bh_n, SEED),
                    p,
                    BH_LEAF_CAP,
                    BhParams::default(),
                    BhCost::default(),
                    OwnerPolicy::Scatter,
                ))
            };
            row("DPA/scatter cells", DpaConfig::dpa(50), &scattered);
            row("Caching/scatter cells", DpaConfig::caching(), &scattered);
        }
    }

    println!("\nPaper reference: BH >42x @64 (vs 1-node DPA), FMM 54x @64 (vs sequential).");
    dump_json("fig_scaling", &points)?;
    Ok(0)
}
