//! **Adaptive-strip figure** — the per-node k-bound feedback controller
//! ([`dpa_core::stripctl`]) against the fixed-strip sweep, on 16 nodes.
//!
//! The fixed sweep (`fig_stripsize`) shows the paper's strip-size tension:
//! small strips expose round trips, large strips bloat suspended-thread
//! state, and the best value differs per app (BH ≈ 50, FMM ≈ 300).
//! The controller is supposed to dissolve that tension — land within a
//! few percent of the best hand-picked strip on *both* apps with one
//! configuration, while keeping thread state bounded.
//!
//! Verdicts checked (enforced with a non-zero exit in full runs, printed
//! only under `--smoke` / `--quick` where tiny problems make timing and
//! peak-state comparisons meaningless):
//!
//! 1. adaptive time ≤ best fixed time × 1.02, per app;
//! 2. adaptive peak aligned-thread state ≤ 2 × the strip-50 peak;
//! 3. interaction checksums bit-identical across every run (always
//!    enforced — correctness does not get a smoke exemption).
//!
//! Run with `--quick` for a reduced problem size, or `--smoke` for a
//! seconds-scale CI sanity pass.

use apps::driver::Run;
use bench::cli::{Args, Scale};
use bench::*;
use dpa_core::DpaConfig;
use std::io;

/// One measured configuration of one app.
struct Row {
    label: String,
    makespan_ns: u64,
    peak_threads: u64,
    hash: u64,
    /// `Some` for the adaptive row: (retunes, final strip).
    adaptive: Option<(u64, u64)>,
}

impl Row {
    fn new(label: &str, run: &Run) -> Row {
        let stats = &run.stats;
        let adaptive = if stats.user_total("strip_retunes") > 0 || stats.user_max("strip_final") > 0
        {
            Some((
                stats.user_total("strip_retunes"),
                stats.user_max("strip_final"),
            ))
        } else {
            None
        };
        Row {
            label: label.to_string(),
            makespan_ns: run.makespan_ns(),
            peak_threads: stats.user_max("peak_aligned_threads"),
            hash: run.counter("interaction_hash"),
            adaptive,
        }
    }

    fn print(&self) {
        let tail = match self.adaptive {
            Some((retunes, fin)) => format!("  retunes {retunes}, final strip {fin}"),
            None => String::new(),
        };
        println!(
            "  {:<16} {:>8} s   peak aligned threads {:>6}   hash {:016x}{}",
            self.label,
            fmt_secs(self.makespan_ns).trim(),
            self.peak_threads,
            self.hash,
            tail,
        );
    }
}

/// Check the three verdicts for one app's rows. The last row is the
/// adaptive one; `strip50_peak` anchors the state bound. Returns the
/// number of violations (timing/state only counted when `enforce`).
fn verdicts(app: &str, rows: &[Row], strip50_peak: u64, enforce: bool) -> u32 {
    let adaptive = rows.last().expect("adaptive row present");
    let best_fixed = rows[..rows.len() - 1]
        .iter()
        .min_by_key(|r| r.makespan_ns)
        .expect("at least one fixed strip");
    let mut violations = 0;

    let identical = rows.iter().all(|r| r.hash == rows[0].hash);
    println!(
        "  [{}] checksums identical across {} runs: {}",
        if identical { "PASS" } else { "FAIL" },
        rows.len(),
        identical,
    );
    if !identical {
        violations += 1;
    }

    let limit_ns = (best_fixed.makespan_ns as f64 * 1.02) as u64;
    let time_ok = adaptive.makespan_ns <= limit_ns;
    println!(
        "  [{}] {app} adaptive {} s vs best fixed ({}) {} s (limit +2%)",
        verdict_tag(time_ok, enforce),
        fmt_secs(adaptive.makespan_ns).trim(),
        best_fixed.label,
        fmt_secs(best_fixed.makespan_ns).trim(),
    );
    if enforce && !time_ok {
        violations += 1;
    }

    let state_ok = adaptive.peak_threads <= 2 * strip50_peak.max(1);
    println!(
        "  [{}] {app} adaptive peak threads {} vs 2 x strip-50 peak {}",
        verdict_tag(state_ok, enforce),
        adaptive.peak_threads,
        2 * strip50_peak.max(1),
    );
    if enforce && !state_ok {
        violations += 1;
    }
    violations
}

fn verdict_tag(ok: bool, enforce: bool) -> &'static str {
    match (ok, enforce) {
        (true, _) => "PASS",
        (false, true) => "FAIL",
        (false, false) => "info",
    }
}

pub fn run(args: &Args) -> io::Result<i32> {
    let sizes = Sizes::at(args.scale);
    let p: u16 = 16;
    let enforce = args.scale == Scale::Full;
    let fixed: &[usize] = if enforce {
        &[1, 10, 50, 100, 300, 1000]
    } else {
        &[1, 50, 300]
    };
    let mut points = Vec::new();
    let mut violations = 0;

    println!("== Adaptive-strip figure (P = {p}) ==");

    for app in PaperApp::BOTH {
        println!("\n-- {} --", app.heading(sizes));
        let w = app.world(sizes, p);
        let mut rows = Vec::new();
        for &s in fixed {
            let r = w.run(DpaConfig::dpa(s));
            rows.push(Row::new(&format!("strip {s}"), &r));
            rows.last().unwrap().print();
            let config = format!("strip={s}");
            points.push(
                ExpPoint::new(
                    "fig_stripctl",
                    app.key(),
                    &config,
                    p,
                    r.makespan_ns(),
                    &r.stats,
                )
                .with("strip", s as f64)
                .with(
                    "peak_aligned_threads",
                    r.stats.user_max("peak_aligned_threads") as f64,
                ),
            );
        }
        let strip50_peak = rows
            .iter()
            .find(|r| r.label == "strip 50")
            .map(|r| r.peak_threads)
            .expect("strip 50 in the fixed sweep");
        let r = w.run(DpaConfig::dpa_adaptive(8, 512));
        rows.push(Row::new("adaptive", &r));
        rows.last().unwrap().print();
        points.push(
            ExpPoint::new(
                "fig_stripctl",
                app.key(),
                "adaptive",
                p,
                r.makespan_ns(),
                &r.stats,
            )
            .with(
                "peak_aligned_threads",
                r.stats.user_max("peak_aligned_threads") as f64,
            )
            .with("strip_final", r.stats.user_max("strip_final") as f64)
            .with("strip_retunes", r.stats.user_total("strip_retunes") as f64),
        );
        violations += verdicts(app.key(), &rows, strip50_peak, enforce);
    }

    dump_json("fig_stripctl", &points)?;
    if violations > 0 {
        eprintln!("fig_stripctl: {violations} verdict(s) failed");
        return Ok(1);
    }
    println!("\nall verdicts passed");
    Ok(0)
}
