//! **Table 1** — execution times of DPA (strip 50) vs the software-caching
//! baseline on the Barnes-Hut and FMM force phases, P = 1..64.
//!
//! Paper reference values (seconds, Cray T3D):
//!
//! ```text
//! BARNES-HUT  P:      1      2      4      8     16     32     64
//!   DPA (50)     118.02  61.23  33.05  17.15   8.59   4.48   2.63
//!   Caching      115.15  65.77  38.02  20.21  10.46   5.41   2.90
//! FMM         P:             2      4      8     16     32     64
//!   DPA (50)              7.39   3.80   1.91    ...    ...    ...
//! Sequential: BH 97.84 s (4 steps), FMM 14.46 s.
//! ```
//!
//! We report one force phase (paper times 4 BH steps; BH numbers below are
//! scaled ×4 to compare). Expected *shape*: caching slightly ahead at
//! P = 1 (DPA pays thread creation, caching only hashing), DPA ahead at
//! every P ≥ 2, near-linear DPA scaling to 64 nodes.
//!
//! Run with `--quick` for a reduced problem size.

use bench::cli::{Args, Scale};
use bench::*;
use dpa_core::DpaConfig;
use std::io;

/// The paper times 4 Barnes-Hut steps and one FMM force phase.
fn paper_steps(app: PaperApp) -> u64 {
    match app {
        PaperApp::Bh => PAPER_BH_STEPS,
        PaperApp::Fmm => 1,
    }
}

pub fn run(args: &Args) -> io::Result<i32> {
    let sizes = Sizes::at(args.scale);
    let procs: &[u16] = if args.scale == Scale::Quick {
        &[1, 2, 4, 8, 16]
    } else {
        &[1, 2, 4, 8, 16, 32, 64]
    };
    let mut points = Vec::new();

    println!("== Table 1: execution times (simulated seconds) ==");
    println!(
        "BH: {} bodies x{PAPER_BH_STEPS} steps | FMM: {} particles, {} terms | net {:?}",
        sizes.bh_n,
        sizes.fmm_n,
        sizes.fmm_p,
        paper_net()
    );

    // Sequential references.
    let seq = PaperApp::BOTH.map(|app| {
        app.world(sizes, 1)
            .run(DpaConfig::sequential())
            .makespan_ns()
            * paper_steps(app)
    });
    println!(
        "Sequential: BH {} s (paper 97.84), FMM {} s (paper 14.46)\n",
        fmt_secs(seq[0]).trim(),
        fmt_secs(seq[1]).trim()
    );

    for (app, seq) in PaperApp::BOTH.into_iter().zip(seq) {
        println!(
            "{:<18}P {}",
            app.name().to_uppercase(),
            procs.iter().map(|p| format!("{p:>9}")).collect::<String>()
        );
        for (label, cfg) in [
            ("DPA (50)", DpaConfig::dpa(50)),
            ("Caching ", DpaConfig::caching()),
        ] {
            let mut row = format!("  {label}        ");
            for &p in procs {
                let r = app.world(sizes, p).run(cfg.clone());
                let ns = r.makespan_ns() * paper_steps(app);
                row.push_str(&fmt_secs(ns));
                row.push(' ');
                points.push(
                    ExpPoint::new("table1", app.key(), label.trim(), p, ns, &r.stats)
                        .with("speedup_vs_seq", seq as f64 / ns as f64)
                        .with_agg_factors(&r.stats),
                );
            }
            println!("{row}");
        }
    }

    // Headline speedups (the paper quotes >42x BH, 54x FMM at 64 nodes).
    let last = *procs.last().unwrap();
    let dpa_at = |app: &str, nodes: u16| {
        let point = points
            .iter()
            .find(|x| x.app == app && x.config == "DPA (50)" && x.nodes == nodes);
        point.expect("the DPA row ran at this P").seconds
    };
    println!(
        "\nBH DPA speedup @P={last}: {:.1}x vs 1-node DPA (paper: >42x), {:.1}x vs sequential",
        dpa_at("bh", 1) / dpa_at("bh", last),
        seq[0] as f64 / 1e9 / dpa_at("bh", last),
    );
    println!(
        "FMM DPA speedup @P={last}: {:.1}x vs sequential (paper: 54x @64)",
        seq[1] as f64 / 1e9 / dpa_at("fmm", last),
    );

    dump_json("table1_exec_times", &points)?;
    Ok(0)
}
