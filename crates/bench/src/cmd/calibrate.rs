//! Calibration diagnostics: dump the raw counters behind the cost model so
//! the defaults can be tuned against the paper's observed ratios
//! (single-node DPA ≈ +20.6% over sequential, caching ≈ +17.7%; DPA ahead
//! of caching by 7–22% at P ≥ 2).

use bench::cli::{Args, Scale};
use bench::*;
use dpa_core::DpaConfig;
use std::io;

pub fn run(args: &Args) -> io::Result<i32> {
    let sizes = if args.scale == Scale::Quick {
        Sizes {
            bh_n: 4_096,
            fmm_n: 8_192,
            fmm_p: 16,
        }
    } else {
        Sizes::at(Scale::Full)
    };

    for app in PaperApp::BOTH {
        match app {
            PaperApp::Bh => println!("=== BH {} bodies ===", sizes.bh_n),
            PaperApp::Fmm => println!(
                "=== FMM {} particles, {} terms ===",
                sizes.fmm_n, sizes.fmm_p
            ),
        }
        let seq = {
            let r = app.world(sizes, 1).run(DpaConfig::sequential());
            let interactions = match app {
                PaperApp::Bh => format!(
                    "visits={} cell_int={} body_int={}",
                    r.stats.user_total("threads_created"),
                    r.counter("cell_interactions"),
                    r.counter("body_interactions")
                ),
                PaperApp::Fmm => {
                    format!(
                        "m2l={} p2p_pairs={}",
                        r.counter("m2l_count"),
                        r.counter("p2p_pairs")
                    )
                }
            };
            println!("seq: {} s  {interactions}", fmt_secs(r.makespan_ns()));
            r.makespan_ns()
        };
        for p in [1u16, 2, 16, 64] {
            let w = app.world(sizes, p);
            for cfg in [DpaConfig::dpa(50), DpaConfig::caching()] {
                let label = cfg.describe();
                let r = w.run(cfg);
                let s = &r.stats;
                let (l, o, i) = breakdown_pct(s);
                println!(
                    "P={p:<3} {label:<38} {} s ({:+5.1}% vs seq/P) msgs={} misses={} probes={} threads={} \
                     local/ovh/idle = {l:.1}/{o:.1}/{i:.1}%",
                    fmt_secs(r.makespan_ns()),
                    100.0 * (r.makespan_ns() as f64 * p as f64 / seq as f64 - 1.0),
                    s.total_msgs(),
                    s.user_total("cache_misses").max(s.user_total("requests_issued")),
                    s.user_total("cache_probes"),
                    s.user_total("threads_created"),
                );
            }
        }
    }
    Ok(0)
}
