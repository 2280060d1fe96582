//! Differential re-alignment ablation: repeated clustered Barnes-Hut force
//! phases on 16 nodes with *scattered* (placement-hostile) cell ownership,
//! run with differential DPA (patch M across the phase barrier, carry
//! cached copies forward, re-fetch only what changed) vs from-scratch
//! (rebuild the schedule and re-fetch everything every phase).
//!
//! Between timesteps only a small fraction of the tree changes (the
//! [`DiffPlan`] change schedule models ~2% of boundary objects bumping
//! their generation per phase), so from-scratch re-alignment pays the full
//! fetch volume every phase while differential pays it once and then only
//! the delta. The figure compares steady-state phases (everything after
//! the cold phase 0, which both modes pay identically) on simulated time
//! and request traffic, under a communication-bound cost model — a modern
//! node where per-interaction compute is tens of ns, so fetch latency
//! dominates the timestep and the carried cache is worth wall-clock, not
//! just message counts.
//!
//! Correctness bar: the per-(phase, node) interaction checksums — which
//! fold [`DiffPlan::stamp`] at the generation actually read, so any stale
//! carried copy corrupts them — must be bit-identical between the modes.
//!
//! Usage: `bench fig_differential` (4096 bodies, 6 phases), `--quick`
//! (1024 bodies, 4 phases) or `--smoke` (512 bodies, 3 phases).
//!
//! Exits nonzero if the steady-state speedup falls below the 1.5x
//! acceptance floor or the checksums diverge.

use apps::bh_dist::{BhCost, BhWorld, OwnerPolicy};
use apps::driver::{run_bh, Phases, Run};
use bench::cli::{Args, Scale};
use bench::{assert_clean, dump_json, per_phase, ExpPoint, SEED};
use dpa_core::{DiffPlan, DpaConfig, DstOptions};
use nbody::bh::BhParams;
use nbody::distrib::plummer;
use sim_net::NetConfig;
use std::io;
use std::sync::Arc;

const NODES: u16 = 16;
const STRIP: usize = 8;
/// ~2% of boundary objects change generation per timestep.
const CHANGE_PERMILLE: u32 = 20;
/// Acceptance floor: steady-state simulated time, from-scratch over
/// differential.
const TARGET: f64 = 1.5;

/// Fetch-dominated "modern node" regime: every CPU-side cost — per-cell
/// compute *and* the runtime's per-operation costs — scaled down ~32x from
/// the T3D calibration (a GHz-class out-of-order core vs the 150 MHz
/// 21064) while the network keeps its T3D-era parameters. That widening
/// communication/computation gap is exactly the regime the paper argues
/// communication optimizations are for: the timestep becomes bound by
/// remote-fetch traffic, so the carried cache shows up in simulated time,
/// not just message counts. (Under the unscaled compute-bound T3D costs
/// the differential win is traffic, not time.)
const COMM_BOUND_COST: BhCost = BhCost {
    visit_ns: 31,
    cell_interact_ns: 162,
    body_interact_ns: 144,
};

/// CostModel::default() divided by 32 (see [`COMM_BOUND_COST`]).
fn modern_runtime_cost() -> dpa_core::CostModel {
    let t3d = dpa_core::CostModel::default();
    dpa_core::CostModel {
        thread_create_ns: t3d.thread_create_ns / 32,
        map_update_ns: t3d.map_update_ns / 32,
        resume_ns: t3d.resume_ns / 32,
        request_entry_ns: t3d.request_entry_ns / 32,
        reply_install_ns: t3d.reply_install_ns / 32,
        owner_lookup_ns: t3d.owner_lookup_ns / 32,
        cache_probe_ns: t3d.cache_probe_ns / 32,
        cache_fill_ns: t3d.cache_fill_ns / 32,
        cache_probe_thrash_step_ns: t3d.cache_probe_thrash_step_ns / 32,
        cache_probe_thrash_cap_ns: t3d.cache_probe_thrash_cap_ns / 32,
        ..t3d
    }
}

/// `phases` timesteps, differential or from scratch, checked clean. The
/// digest is the per-(phase, node) interaction checksums.
fn run_checked(world: &Arc<BhWorld>, phases: usize, differential: bool, label: &str) -> Run {
    let plan = DiffPlan {
        seed: SEED,
        change_permille: CHANGE_PERMILLE,
        phase: 0,
    };
    let cfg = DpaConfig {
        cost: modern_runtime_cost(),
        ..if differential {
            DpaConfig::dpa_differential(STRIP)
        } else {
            // Migration off: each phase realigns and refetches from scratch.
            DpaConfig::dpa(STRIP)
        }
    };
    let opts = DstOptions::default();
    let run = run_bh(
        world,
        cfg,
        NetConfig::default(),
        &opts,
        Phases::changing(phases, plan),
    );
    assert_clean(&run, label);
    run
}

pub fn run(args: &Args) -> io::Result<i32> {
    let (bodies, phases) = match args.scale {
        Scale::Smoke => (512, 3),
        Scale::Quick => (1024, 4),
        Scale::Full => (4096, 6),
    };
    // Scatter ownership: the placement-hostile layout where every node's
    // traversal crosses node boundaries constantly — maximum fetch volume
    // for from-scratch, maximum carried-cache value for differential.
    let world = BhWorld::build_with_policy(
        plummer(bodies, SEED),
        NODES,
        4,
        BhParams::default(),
        COMM_BOUND_COST,
        OwnerPolicy::Scatter,
    );

    let scratch = run_checked(&world, phases, false, "from-scratch");
    let diff = run_checked(&world, phases, true, "differential");

    assert_eq!(
        scratch.digest, diff.digest,
        "interaction checksums must be bit-identical differential vs from-scratch"
    );
    // Per phase: simulated ns, machine-wide request messages, and request
    // entries on the wire.
    let phase_ns =
        |run: &Run| -> Vec<u64> { run.reports.iter().map(|r| r.makespan().as_ns()).collect() };
    let (ns_s, ns_d) = (phase_ns(&scratch), phase_ns(&diff));
    let (msgs_s, msgs_d) = (
        per_phase(&scratch, |s| s.request_msgs),
        per_phase(&diff, |s| s.request_msgs),
    );
    let (sent_s, sent_d) = (
        per_phase(&scratch, |s| s.req_sent),
        per_phase(&diff, |s| s.req_sent),
    );

    println!(
        "fig_differential: clustered BH, {bodies} bodies, {NODES} nodes, scatter placement, \
         {:.1}% change/phase",
        CHANGE_PERMILLE as f64 / 10.0
    );
    println!(
        "{:>6} {:>13} {:>13} {:>12} {:>12} {:>8}",
        "phase", "scratch ms", "diff ms", "scratch req", "diff req", "speedup"
    );
    for ph in 0..phases {
        let s = ns_s[ph];
        let d = ns_d[ph];
        println!(
            "{ph:>6} {:>13.3} {:>13.3} {:>12} {:>12} {:>7.2}x",
            s as f64 / 1e6,
            d as f64 / 1e6,
            msgs_s[ph],
            msgs_d[ph],
            s as f64 / d as f64
        );
    }

    // Steady state: everything after the cold phase, which both modes pay
    // in full (the differential run has no prior state to carry into it).
    let steady_scratch: u64 = ns_s[1..].iter().sum();
    let steady_diff: u64 = ns_d[1..].iter().sum();
    let speedup = steady_scratch as f64 / steady_diff as f64;
    let req_scratch: u64 = msgs_s[1..].iter().sum();
    let req_diff: u64 = msgs_d[1..].iter().sum();
    let ent_scratch: u64 = sent_s[1..].iter().sum();
    let ent_diff: u64 = sent_d[1..].iter().sum();
    println!(
        "steady-state (phases 1..{phases}): time {:.3}ms -> {:.3}ms ({speedup:.2}x), \
         request msgs {req_scratch} -> {req_diff}, entries {ent_scratch} -> {ent_diff}",
        steady_scratch as f64 / 1e6,
        steady_diff as f64 / 1e6,
    );

    let point =
        |config, ns, msgs| ExpPoint::derived("fig_differential", "bh", config, NODES, ns, msgs);
    let points = vec![
        point("from-scratch", steady_scratch, req_scratch)
            .with("steady_req_entries", ent_scratch as f64),
        point("differential", steady_diff, req_diff)
            .with("steady_req_entries", ent_diff as f64)
            .with("steady_speedup", speedup),
    ];
    dump_json("fig_differential", &points)?;

    if speedup < TARGET {
        eprintln!("FAIL: steady-state speedup {speedup:.2}x below the {TARGET:.1}x floor");
        return Ok(1);
    }
    println!("PASS: steady-state differential speedup {speedup:.2}x >= {TARGET:.1}x");
    Ok(0)
}
