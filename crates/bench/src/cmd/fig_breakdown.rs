//! **Breakdown figure** — total computation time split into idle time,
//! communication overhead, and local computation, with the speedup atop
//! each bar, across the communication-optimization ladder:
//!
//! * `Base` — DPA threads + tiling only: requests sent one batch per
//!   quiescence, each round trip exposed;
//! * `+Pipeline` — requests issued eagerly, transfers overlap local work;
//! * `+Pipe+Agg` — full DPA: pipelining plus per-destination aggregation.
//!
//! Expected shape (the paper's figure): Base bars dominated by idle time;
//! pipelining converts idle into overlap; aggregation then shrinks the
//! communication-overhead band; speedups rise along the ladder.
//!
//! Run with `--quick` for a reduced problem size, or `--smoke` for a
//! CI-sized sanity run (tiny worlds, P ∈ {4, 16}).

use bench::cli::{Args, Scale};
use bench::*;
use dpa_core::DpaConfig;
use std::io;

pub fn run(args: &Args) -> io::Result<i32> {
    let sizes = Sizes::at(args.scale);
    let procs: &[u16] = if args.scale == Scale::Full {
        &[4, 16, 64]
    } else {
        &[4, 16]
    };
    let ladder = [
        ("Base     ", DpaConfig::dpa_base(50)),
        ("+Pipeline", DpaConfig::dpa_pipeline(50)),
        ("+Pipe+Agg", DpaConfig::dpa(50)),
    ];
    let mut points = Vec::new();

    println!("== Breakdown figure: local / comm-overhead / idle (% of bar), speedup on top ==");

    for app in PaperApp::BOTH {
        println!("\n-- {} --", app.heading(sizes));
        let seq = app
            .world(sizes, 1)
            .run(DpaConfig::sequential())
            .makespan_ns();
        for &p in procs {
            let w = app.world(sizes, p);
            println!("P = {p}:");
            for (label, cfg) in &ladder {
                let r = w.run(cfg.clone());
                let (l, o, i) = breakdown_pct(&r.stats);
                let speedup = seq as f64 / r.makespan_ns() as f64;
                println!(
                    "  {label}  {:>8} s  |{}| {l:4.1}/{o:4.1}/{i:4.1}%  speedup {speedup:5.1}x  msgs {}",
                    fmt_secs(r.makespan_ns()).trim(),
                    ascii_bar(l, o, i, 30),
                    r.stats.total_msgs()
                );
                let point = ExpPoint::new(
                    "fig_breakdown",
                    app.key(),
                    label.trim(),
                    p,
                    r.makespan_ns(),
                    &r.stats,
                );
                points.push(point.with("speedup", speedup).with_agg_factors(&r.stats));
            }
        }
    }

    dump_json("fig_breakdown", &points)?;
    Ok(0)
}
