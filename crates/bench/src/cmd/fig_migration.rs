//! Migration ablation: repeated clustered Barnes-Hut force phases on 16
//! nodes with *scattered* (placement-hostile) cell ownership, run with
//! locality-driven object migration ON vs OFF.
//!
//! Within a single phase the arrival set already deduplicates fetches, so
//! migration's win is cross-phase: the affinity accumulated in phase `i`
//! re-homes hot cells to their dominant consumer before phase `i+1`, which
//! then finds them local and sends fewer request messages. The figure
//! therefore compares request traffic over phases 1..P (phase 0 gathers
//! the signal; phase 1 pays the forwarding hop through the fresh stubs
//! while consumers learn the new homes) and checks the runs compute
//! bit-identical integer interaction checksums — migration must move data,
//! never results.
//!
//! Request messages alone can flatter a protocol that spends more on its
//! own control traffic than it saves, so two more gates look at what the
//! machine pays in total once the homes have settled: all-kind messages
//! and makespan of the last phase, against migration OFF.
//!
//! Usage: `bench fig_migration` (4096 bodies) or `bench fig_migration
//! --quick` (1024 bodies).
//!
//! Exits nonzero if a gate fails: request-message reduction over phases
//! 1.. below 20 %, last-phase all-kind messages above half of OFF's, or
//! last-phase makespan above 1.01 x OFF's.

use apps::bh_dist::{BhCost, BhWorld, OwnerPolicy};
use apps::driver::{run_bh, Phases, Run};
use bench::cli::{Args, Scale};
use bench::{assert_clean, dump_json, per_phase, ExpPoint, SEED};
use dpa_core::{DpaConfig, DstOptions, Policy};
use nbody::bh::BhParams;
use nbody::distrib::plummer;
use sim_net::{NetConfig, RunStats};
use std::io;
use std::sync::Arc;

const NODES: u16 = 16;
const PHASES: usize = 4;
const STRIP: usize = 8;
/// Acceptance floor: steady-state request-message reduction.
const TARGET: f64 = 0.20;
/// Ceiling on last-phase all-kind messages, as a fraction of OFF's.
const LAST_MSGS_MAX: f64 = 0.5;
/// Ceiling on last-phase makespan, as a fraction of OFF's.
const LAST_MAKESPAN_MAX: f64 = 1.01;

/// `PHASES` force phases under `cfg`, checked clean. The digest is the
/// per-(phase, node) interaction checksums.
fn run_checked(world: &Arc<BhWorld>, cfg: DpaConfig, label: &str) -> Run {
    let opts = DstOptions::default();
    let run = run_bh(
        world,
        cfg,
        NetConfig::default(),
        &opts,
        Phases::steps(PHASES),
    );
    assert_clean(&run, label);
    run
}

pub fn run(args: &Args) -> io::Result<i32> {
    let bodies = if args.scale == Scale::Quick {
        1024
    } else {
        4096
    };
    // Scatter ownership: the allocator-hostile placement where dynamic
    // data-side alignment has the most to recover.
    let world = BhWorld::build_with_policy(
        plummer(bodies, SEED),
        NODES,
        4,
        BhParams::default(),
        BhCost::default(),
        OwnerPolicy::Scatter,
    );

    let on_cfg = DpaConfig {
        policy: Policy::Migrate,
        migration_threshold: 2,
        migration_budget: 1 << 20,
        ..DpaConfig::dpa(STRIP)
    };
    let off = run_checked(&world, DpaConfig::dpa(STRIP), "migration-off");
    let on = run_checked(&world, on_cfg, "migration-on");

    assert_eq!(
        off.digest, on.digest,
        "interaction checksums must be bit-identical with migration on/off"
    );
    // Per-phase machine-wide request messages / request entries on the wire.
    let (msgs_off, msgs_on) = (
        per_phase(&off, |s| s.request_msgs),
        per_phase(&on, |s| s.request_msgs),
    );
    let (sent_off, sent_on) = (
        per_phase(&off, |s| s.req_sent),
        per_phase(&on, |s| s.req_sent),
    );

    // Per-phase machine-wide traffic of every message kind.
    let per_report = |run: &Run, total: fn(&RunStats) -> u64| -> Vec<u64> {
        run.reports.iter().map(|r| total(&r.stats)).collect()
    };
    let (all_off, all_on) = (
        per_report(&off, RunStats::total_msgs),
        per_report(&on, RunStats::total_msgs),
    );
    let (bytes_off, bytes_on) = (
        per_report(&off, RunStats::total_bytes),
        per_report(&on, RunStats::total_bytes),
    );

    println!("fig_migration: clustered BH, {bodies} bodies, {NODES} nodes, scatter placement");
    println!(
        "{:>6} {:>14} {:>14} {:>10} {:>14} {:>14} {:>10} {:>10}",
        "phase",
        "req msgs OFF",
        "req msgs ON",
        "saved",
        "all msgs OFF",
        "all msgs ON",
        "KB OFF",
        "KB ON"
    );
    for ph in 0..PHASES {
        let o = msgs_off[ph];
        let n = msgs_on[ph];
        let saved = if o == 0 {
            0.0
        } else {
            100.0 * (o as f64 - n as f64) / o as f64
        };
        println!(
            "{ph:>6} {o:>14} {n:>14} {saved:>9.1}% {:>14} {:>14} {:>10.1} {:>10.1}",
            all_off[ph],
            all_on[ph],
            bytes_off[ph] as f64 / 1e3,
            bytes_on[ph] as f64 / 1e3
        );
    }

    // Steady state: everything after the warm-up phase.
    let steady_off: u64 = msgs_off[1..].iter().sum();
    let steady_on: u64 = msgs_on[1..].iter().sum();
    let reduction = (steady_off as f64 - steady_on as f64) / steady_off as f64;
    let entries_off: u64 = sent_off[1..].iter().sum();
    let entries_on: u64 = sent_on[1..].iter().sum();
    println!(
        "steady-state (phases 1..{PHASES}): request msgs {steady_off} -> {steady_on} \
         ({:.1}% reduction), request entries {entries_off} -> {entries_on}",
        100.0 * reduction
    );
    println!(
        "all kinds: msgs {} -> {}, bytes {:.2} -> {:.2} MB",
        all_off.iter().sum::<u64>(),
        all_on.iter().sum::<u64>(),
        bytes_off.iter().sum::<u64>() as f64 / 1e6,
        bytes_on.iter().sum::<u64>() as f64 / 1e6
    );
    // The last phase: homes settled, overrides learned.
    let last = PHASES - 1;
    let last_ms = |run: &Run| run.reports[last].stats.makespan.as_ns() as f64 / 1e6;
    let (last_ms_off, last_ms_on) = (last_ms(&off), last_ms(&on));
    println!(
        "last phase: all-kind msgs {} -> {}, makespan {last_ms_off:.2} -> {last_ms_on:.2} ms",
        all_off[last], all_on[last]
    );
    println!(
        "simulated time: off {:.3}s  on {:.3}s",
        off.makespan_ns() as f64 / 1e9,
        on.makespan_ns() as f64 / 1e9
    );

    let point = |config, run: &Run, msgs: &[u64]| {
        ExpPoint::derived(
            "fig_migration",
            "bh",
            config,
            NODES,
            run.makespan_ns(),
            msgs.iter().sum(),
        )
    };
    let points = vec![
        point("migration-off", &off, &msgs_off)
            .with("steady_req_msgs", steady_off as f64)
            .with("last_phase_all_msgs", all_off[last] as f64)
            .with("last_phase_ms", last_ms_off),
        point("migration-on", &on, &msgs_on)
            .with("steady_req_msgs", steady_on as f64)
            .with("steady_reduction", reduction)
            .with("last_phase_all_msgs", all_on[last] as f64)
            .with("last_phase_ms", last_ms_on),
    ];
    dump_json("fig_migration", &points)?;

    let gates = [
        (
            reduction >= TARGET,
            format!(
                "steady-state request-message reduction {:.1}% >= {:.0}%",
                100.0 * reduction,
                100.0 * TARGET
            ),
        ),
        (
            all_on[last] as f64 <= LAST_MSGS_MAX * all_off[last] as f64,
            format!(
                "last-phase all-kind messages {} <= {LAST_MSGS_MAX} x {}",
                all_on[last], all_off[last]
            ),
        ),
        (
            last_ms_on <= LAST_MAKESPAN_MAX * last_ms_off,
            format!(
                "last-phase makespan {last_ms_on:.2} ms <= {LAST_MAKESPAN_MAX} x {last_ms_off:.2} ms"
            ),
        ),
    ];
    for (ok, what) in &gates {
        if *ok {
            println!("PASS: {what}");
        } else {
            eprintln!("FAIL: not {what}");
        }
    }
    Ok(i32::from(gates.iter().any(|(ok, _)| !ok)))
}
