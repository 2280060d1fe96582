//! **Strip-size figure** — sensitivity of DPA to the k-bounded strip size
//! of the top-level concurrent loop, on 16 nodes (the paper runs FMM with
//! strip size 300 on 16 nodes and Barnes-Hut with strip 50).
//!
//! Expected shape: tiny strips leave no concurrency to overlap or
//! aggregate (round trips exposed at every window stall); performance
//! improves steeply to a plateau; very large strips sag mildly as the
//! runtime's working set of suspended threads outgrows fast storage
//! (thread-state memory is the documented cost of DPA).
//!
//! Run with `--quick` for a reduced problem size.

use bench::cli::Args;
use bench::*;
use dpa_core::DpaConfig;
use std::io;

pub fn run(args: &Args) -> io::Result<i32> {
    let sizes = Sizes::at(args.scale);
    let p: u16 = 16;
    let strips: &[usize] = &[1, 4, 10, 50, 100, 300, 1000, 4000];
    let mut points = Vec::new();

    println!("== Strip-size figure (P = {p}) ==");

    for app in PaperApp::BOTH {
        println!("\n-- {} --", app.heading(sizes));
        let w = app.world(sizes, p);
        for &s in strips {
            let r = w.run(DpaConfig::dpa(s));
            let (l, o, i) = breakdown_pct(&r.stats);
            let peak = r.stats.user_max("peak_aligned_threads");
            println!(
                "  strip {s:>5}: {:>8} s   local {l:5.1}% ovh {o:5.1}% idle {i:5.1}%  peak aligned threads {peak}",
                fmt_secs(r.makespan_ns()).trim(),
            );
            let config = format!("strip={s}");
            points.push(
                ExpPoint::new(
                    "fig_stripsize",
                    app.key(),
                    &config,
                    p,
                    r.makespan_ns(),
                    &r.stats,
                )
                .with("strip", s as f64)
                .with("peak_aligned_threads", peak as f64),
            );
        }
    }

    dump_json("fig_stripsize", &points)?;
    Ok(0)
}
