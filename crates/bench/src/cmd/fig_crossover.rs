//! **Crossover study** (extension) — where do the schemes cross as the
//! workload's communication intensity varies?
//!
//! The paper's Table 1 shows caching ahead of DPA at P = 1 (no
//! communication: pure overhead comparison) and behind at P ≥ 2. This
//! sweep generalizes that crossover on the synthetic pointer-chasing
//! workload by varying the remote fraction (communication volume) and the
//! shared fraction (reuse): DPA's fixed thread overhead buys latency
//! tolerance that pays off past a small remote fraction; caching needs
//! reuse to beat blocking at all.

use apps::driver::{run_synth, Phases};
use bench::cli::{Args, Scale};
use bench::{dump_json, paper_net, ExpPoint};
use dpa_core::synth::{SynthParams, SynthWorld};
use dpa_core::{DpaConfig, DstOptions};
use std::io;

const NODES: u16 = 16;

/// Simulated ms of DPA, caching and blocking over the world `params`
/// builds, each recorded as a point tagged `axis = value`.
fn time_schemes(params: SynthParams, axis: (&str, f64), points: &mut Vec<ExpPoint>) -> [f64; 3] {
    let world = SynthWorld::build(params);
    [
        DpaConfig::dpa(16),
        DpaConfig::caching(),
        DpaConfig::blocking(),
    ]
    .map(|cfg| {
        let label = cfg.describe();
        let r = run_synth(
            &world,
            cfg,
            paper_net(),
            &DstOptions::default(),
            Phases::ONE,
        )
        .expect_completed();
        points.push(
            ExpPoint::new(
                "fig_crossover",
                "synth",
                &label,
                NODES,
                r.makespan_ns(),
                &r.stats,
            )
            .with(axis.0, axis.1),
        );
        r.makespan_ns() as f64 / 1e6
    })
}

pub fn run(args: &Args) -> io::Result<i32> {
    let (lists, len) = if args.scale == Scale::Quick {
        (24, 24)
    } else {
        (64, 48)
    };
    let params = |remote_fraction, shared_fraction, seed| SynthParams {
        nodes: NODES,
        lists_per_node: lists,
        list_len: len,
        remote_fraction,
        shared_fraction,
        record_bytes: 32,
        work_ns: 900,
        seed,
    };
    let mut points = Vec::new();

    println!("== Crossover: time (ms) vs remote fraction (P = {NODES}, shared = 0.5) ==");
    println!(
        "  {:<8} {:>10} {:>10} {:>10}  winner",
        "remote%", "DPA", "Caching", "Blocking"
    );
    for remote in [0.0, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8] {
        let [dpa, cache, block] = time_schemes(
            params(remote, 0.5, 0xC505),
            ("remote_fraction", remote),
            &mut points,
        );
        let winner = if dpa <= cache && dpa <= block {
            "DPA"
        } else if cache <= block {
            "Caching"
        } else {
            "Blocking"
        };
        println!("  {:<8.2} {dpa:>10.2} {cache:>10.2} {block:>10.2}  {winner}", remote);
    }

    println!("\n== Crossover: time (ms) vs shared fraction (remote = 0.4) ==");
    println!(
        "  {:<8} {:>10} {:>10} {:>10}  caching vs blocking",
        "shared%", "DPA", "Caching", "Blocking"
    );
    for shared in [0.0, 0.2, 0.4, 0.6, 0.8, 0.95] {
        let [dpa, cache, block] = time_schemes(
            params(0.4, shared, 0xC506),
            ("shared_fraction", shared),
            &mut points,
        );
        let rel = if cache < block {
            "caching ahead"
        } else {
            "blocking ahead"
        };
        println!(
            "  {:<8.2} {dpa:>10.2} {cache:>10.2} {block:>10.2}  {rel}",
            shared
        );
    }

    dump_json("fig_crossover", &points)?;
    Ok(0)
}
