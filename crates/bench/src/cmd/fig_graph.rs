//! Hot-hub crossover figure: skew exponent x reply-aggregation window x
//! alignment mode over the pointer-chasing graph workload.
//!
//! The graph family (`apps::graph_dist`) is skew-adversarial by
//! construction: edge targets follow a power law, so one vertex becomes a
//! hub that every node's closure traversal hits. This figure sweeps the
//! skew exponent and, at each skew, races a communication knob the paper
//! treats as an unconditional win, the **reply-aggregation window**: a
//! wide window with a lazy flush deadline against a modest window and
//! against no aggregation. Wide windows help exactly when fan-out is high
//! and steady; on the skewed tail the window never fills and every reply
//! waits out the deadline.
//!
//! The wide window must be shown *losing* somewhere on the hot-hub axis
//! (simulated time, same bit-identical checksums) — the crossover. The
//! `repl` lane is the answer to the loss: **read-mostly replication**
//! promotes the hub at the first phase boundary, broadcasts it to the
//! consumer set, and every later phase reads it locally. Its gate runs
//! the other way: at skew >= 1.5 the hub's request+reply traffic must be
//! *down at least 5x* against the best non-differential lane (full
//! sweep; strictly down in the reduced sweeps), and at every skew the
//! replicating lane must not cost simulated time against plain DPA and
//! must hold its message count within 10% of it (the allowance for the
//! final per-phase affinity reports) — the win can't be bought by
//! regressing the uniform regime. The `diff`
//! lane (differential, no replication) is recorded for the before/after
//! table (EXPERIMENTS.md X12) but sits outside the gate's baseline: it
//! already avoids re-fetching a hub whose generation didn't move, which
//! is exactly the coattail the gate must not ride.
//!
//! Usage: `bench fig_graph` (full sweep), `--quick` (3 skews) or
//! `--smoke` (the same 3 skews on a smaller world, CI).
//!
//! Exits nonzero if checksums diverge across configs, no adversarial
//! regime (wide aggregation losing at skew >= 1.5) is observed, or the
//! replication gate fails.

use apps::driver::{run_graph, Digest};
use apps::graph_dist::{GraphParams, GraphWorld};
use bench::cli::{Args, Scale};
use bench::{assert_clean, dump_json, ExpPoint};
use dpa_core::{DpaConfig, DstOptions};
use sim_net::NetConfig;
use std::io;
use std::sync::Arc;

const NODES: u16 = 8;
const STRIP: usize = 8;
/// The hot-hub regime: a crossover only counts if it happens here.
const HOT_SKEW: f64 = 1.5;
/// Replication's win bar on hub request+reply traffic (full sweep).
const REPL_WIN_FACTOR: u64 = 5;

/// One (skew, config) cell: total simulated time over all phases, total
/// messages, hub-pointer request+reply messages, replica broadcast
/// messages, and the per-(phase, node) closure checksums.
struct Cell {
    ns: u64,
    msgs: u64,
    hub_msgs: u64,
    repl_msgs: u64,
    sums: Digest,
}

fn run_cell(world: &Arc<GraphWorld>, phases: usize, cfg: DpaConfig, label: &str) -> Cell {
    let run = run_graph(
        world,
        cfg,
        NetConfig::default(),
        &DstOptions::default(),
        phases,
    );
    assert_clean(&run, label);
    let hub = world.vptr(0).bits();
    let mut hub_entries = 0u64;
    let mut repl_msgs = 0u64;
    for s in run.snaps.iter().flatten() {
        // Owner-side demand traffic for the hub pointer: each pushed
        // reply entry answered one request, so request+reply = 2x.
        hub_entries += s
            .reply_hot
            .iter()
            .filter(|&&(p, _, _)| p == hub)
            .map(|&(_, pushed, _)| pushed)
            .sum::<u64>();
        repl_msgs += s.repl_entries_sent;
    }
    Cell {
        ns: run.makespan_ns(),
        msgs: run.stats.total_msgs(),
        hub_msgs: 2 * hub_entries,
        repl_msgs,
        sums: run.digest,
    }
}

/// The config lanes of one skew column. The first lane is the reference
/// everything else is compared against (plain DPA, default window); the
/// first three are the from-scratch lanes the replication gate uses as
/// its baseline.
fn lanes() -> Vec<(&'static str, DpaConfig)> {
    vec![
        ("dpa-w32", DpaConfig::dpa(STRIP)),
        (
            "agg-w1",
            DpaConfig {
                reply_agg_window: 1,
                ..DpaConfig::dpa(STRIP)
            },
        ),
        (
            "agg-w256",
            DpaConfig {
                reply_agg_window: 256,
                reply_flush_deadline_ns: 200_000,
                ..DpaConfig::dpa(STRIP)
            },
        ),
        (
            "diff",
            DpaConfig {
                differential: true,
                ..DpaConfig::dpa(STRIP)
            },
        ),
        ("repl", DpaConfig::dpa_replicating(STRIP)),
    ]
}

/// The lanes replication must beat: every non-differential lane (the
/// PR-9 state of the art on this figure).
const SCRATCH_LANES: &[&str] = &["dpa-w32", "agg-w1", "agg-w256"];

pub fn run(args: &Args) -> io::Result<i32> {
    let (n, phases, root_stride, skews): (usize, usize, usize, &[f64]) = match args.scale {
        Scale::Smoke => (96, 2, 4, &[0.4, 1.6, 2.4]),
        Scale::Quick => (160, 3, 3, &[0.4, 1.6, 2.4]),
        Scale::Full => (256, 6, 2, &[0.0, 0.8, 1.6, 2.4]),
    };
    let full = args.scale == Scale::Full;

    println!(
        "fig_graph: transitive closure, n={n}, {NODES} nodes, {phases} phases, \
         skew x {{reply-agg window, alignment mode}}"
    );
    println!(
        "{:>6} {:>11} {:>11} {:>11} {:>11} {:>11}   verdicts",
        "skew", "dpa-w32 ms", "agg-w1 ms", "agg-w256 ms", "diff ms", "repl ms"
    );

    let mut points: Vec<ExpPoint> = Vec::new();
    let mut adversarial: Vec<String> = Vec::new();
    let mut repl_wins: Vec<String> = Vec::new();
    let mut repl_fails: Vec<String> = Vec::new();
    for &skew in skews {
        let world = GraphWorld::build(GraphParams {
            n,
            nodes: NODES,
            skew,
            phases: phases as u32,
            root_stride,
            ..GraphParams::default()
        });
        let mut cells: Vec<(&str, Cell)> = Vec::new();
        for (label, cfg) in lanes() {
            let cell = run_cell(&world, phases, cfg, label);
            cells.push((label, cell));
        }
        // Correctness bar: every knob setting computes the same closure.
        for (label, cell) in &cells[1..] {
            assert_eq!(
                cell.sums, cells[0].1.sums,
                "skew {skew}: {label} checksums diverged from {}",
                cells[0].0
            );
        }
        let cell_of = |want: &str| &cells.iter().find(|(l, _)| *l == want).unwrap().1;
        let ns_of = |want: &str| cell_of(want).ns;
        // A knob "loses" when turning it on costs simulated time against
        // its own off/modest setting on the same world.
        let mut losers: Vec<String> = Vec::new();
        if ns_of("agg-w256") > ns_of("agg-w1") {
            losers.push("agg-w256".into());
        }
        // Replication's gates. Hub traffic: best (lowest) from-scratch
        // lane vs the repl lane, full sweep demands a >= 5x cut at hot
        // skews, the reduced sweeps a strict one. Uniform regime: the
        // repl lane must not send more total messages than plain DPA at
        // *any* skew — deltas and broadcasts have to pay for themselves.
        let repl = cell_of("repl");
        let best_scratch_hub = SCRATCH_LANES
            .iter()
            .map(|l| cell_of(l).hub_msgs)
            .min()
            .expect("scratch lanes exist");
        let mut verdicts: Vec<String> = losers.clone();
        if skew >= HOT_SKEW {
            let win = if full {
                repl.hub_msgs * REPL_WIN_FACTOR <= best_scratch_hub
            } else {
                repl.hub_msgs < best_scratch_hub
            };
            let note = format!(
                "skew {skew:.1}: hub req+reply {} -> {} ({} bcast entries)",
                best_scratch_hub, repl.hub_msgs, repl.repl_msgs
            );
            if win {
                repl_wins.push(note);
                verdicts.push("repl-wins".into());
            } else {
                repl_fails.push(note);
            }
        }
        // Uniform no-regression, both axes: the repl lane must not cost
        // simulated time against plain DPA at any skew, and its message
        // count stays within 10% of plain DPA — the slack covers the one
        // final affinity report per node per phase that feeds the
        // promotion policy, and nothing else.
        let dpa = cell_of("dpa-w32");
        if repl.ns > dpa.ns {
            repl_fails.push(format!(
                "skew {skew:.1}: repl took {:.3} ms vs dpa-w32 {:.3} — uniform time regression",
                repl.ns as f64 / 1e6,
                dpa.ns as f64 / 1e6
            ));
        }
        if repl.msgs * 10 > dpa.msgs * 11 {
            repl_fails.push(format!(
                "skew {skew:.1}: repl sent {} total msgs vs dpa-w32 {} — over the 10% \
                 affinity-report allowance",
                repl.msgs, dpa.msgs
            ));
        }
        println!(
            "{skew:>6.1} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>11.3}   {}",
            ns_of("dpa-w32") as f64 / 1e6,
            ns_of("agg-w1") as f64 / 1e6,
            ns_of("agg-w256") as f64 / 1e6,
            ns_of("diff") as f64 / 1e6,
            ns_of("repl") as f64 / 1e6,
            if verdicts.is_empty() {
                "-".to_string()
            } else {
                verdicts.join(",")
            }
        );
        if skew >= HOT_SKEW {
            for l in &losers {
                adversarial.push(format!("skew {skew:.1}: {l}"));
            }
        }
        for (label, cell) in &cells {
            let lost = losers.iter().any(|l| l == label);
            let config = format!("skew{skew:.1}-{label}");
            points.push(
                ExpPoint::derived("fig_graph", "graph", &config, NODES, cell.ns, cell.msgs)
                    .with("skew", skew)
                    .with("loses", if lost { 1.0 } else { 0.0 })
                    .with("hub_msgs", cell.hub_msgs as f64)
                    .with("repl_bcast_entries", cell.repl_msgs as f64),
            );
        }
    }
    dump_json("fig_graph", &points)?;

    let mut failed = false;
    if adversarial.is_empty() {
        eprintln!(
            "FAIL: no adversarial regime recorded — wide reply aggregation did not lose \
             at skew >= {HOT_SKEW}; the crossover figure has no crossover"
        );
        failed = true;
    }
    if repl_wins.is_empty() {
        eprintln!(
            "FAIL: replication never won on the hot-hub axis — no skew >= {HOT_SKEW} \
             cut hub request+reply traffic against the best from-scratch lane"
        );
        failed = true;
    }
    for f in &repl_fails {
        eprintln!("FAIL: {f}");
        failed = true;
    }
    if failed {
        return Ok(1);
    }
    println!(
        "PASS: adversarial regimes on the hot-hub axis: {}",
        adversarial.join("; ")
    );
    println!("PASS: replication wins: {}", repl_wins.join("; "));
    Ok(0)
}
