//! Migration ablation: repeated clustered Barnes-Hut force phases on 16
//! nodes with *scattered* (placement-hostile) cell ownership, run with
//! locality-driven object migration ON vs OFF.
//!
//! Within a single phase the arrival set already deduplicates fetches, so
//! migration's win is cross-phase: the affinity accumulated in phase `i`
//! re-homes hot cells to their dominant consumer before phase `i+1`, which
//! then finds them local and sends fewer request messages. The figure
//! therefore compares request traffic over phases 2..P (the first phase is
//! the warm-up that pays for the signal) and checks the runs compute
//! bit-identical integer interaction checksums — migration must move data,
//! never results.
//!
//! Usage:
//!   cargo run --release -p bench --bin fig_migration            # 4096 bodies
//!   cargo run --release -p bench --bin fig_migration -- --quick # 1024 bodies
//!
//! Exits nonzero if the steady-state request-message reduction falls below
//! the 20% acceptance floor.

use apps::bh_dist::{BhApp, BhCost, BhWorld, OwnerPolicy};
use bench::{dump_json, has_flag, ExpPoint, SEED};
use dpa_core::invariant::{check_completed, NodeSnapshot};
use dpa_core::{run_phases, DpaConfig, DstOptions};
use nbody::bh::BhParams;
use nbody::distrib::plummer;
use sim_net::NetConfig;
use std::sync::Arc;

const NODES: u16 = 16;
const PHASES: usize = 4;
const STRIP: usize = 8;
/// Acceptance floor: steady-state request-message reduction.
const TARGET: f64 = 0.20;

struct Run {
    /// Per-phase machine-wide request messages.
    req_msgs: Vec<u64>,
    /// Per-phase machine-wide request entries on the wire.
    req_sent: Vec<u64>,
    /// Per-(phase, node) interaction checksums.
    hashes: Vec<u64>,
    /// Simulated time summed over phases, ns.
    total_ns: u64,
}

fn run(world: &Arc<BhWorld>, cfg: DpaConfig, label: &str) -> Run {
    let mut hashes = vec![0u64; PHASES * NODES as usize];
    let (reports, snap_sets, _) = run_phases(
        NODES,
        NetConfig::default(),
        cfg,
        &DstOptions::default(),
        PHASES,
        |_, i| BhApp::new(world.clone(), i),
        |ph, i, app: &BhApp| hashes[ph * NODES as usize + i as usize] = app.interaction_hash,
    );
    let mut req_msgs = Vec::with_capacity(PHASES);
    let mut req_sent = Vec::with_capacity(PHASES);
    for (ph, (r, snaps)) in reports.iter().zip(&snap_sets).enumerate() {
        assert!(
            r.completed,
            "{label} phase {ph} stalled: {}",
            r.stall_summary()
        );
        let violations = check_completed(snaps, false);
        assert!(
            violations.is_empty(),
            "{label} phase {ph} violates invariants: {}",
            violations[0]
        );
        req_msgs.push(snaps.iter().map(|s: &NodeSnapshot| s.request_msgs).sum());
        req_sent.push(snaps.iter().map(|s: &NodeSnapshot| s.req_sent).sum());
    }
    Run {
        req_msgs,
        req_sent,
        hashes,
        total_ns: reports.iter().map(|r| r.makespan().as_ns()).sum(),
    }
}

fn main() {
    let bodies = if has_flag("--quick") { 1024 } else { 4096 };
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
        migration_threshold: 2,
        migration_budget: 1 << 20,
        ..DpaConfig::dpa_migrating(STRIP)
    };
    let off = run(&world, DpaConfig::dpa(STRIP), "migration-off");
    let on = run(&world, on_cfg, "migration-on");

    assert_eq!(
        off.hashes, on.hashes,
        "interaction checksums must be bit-identical with migration on/off"
    );

    println!("fig_migration: clustered BH, {bodies} bodies, {NODES} nodes, scatter placement");
    println!("{:>6} {:>14} {:>14} {:>10}", "phase", "req msgs OFF", "req msgs ON", "saved");
    for ph in 0..PHASES {
        let o = off.req_msgs[ph];
        let n = on.req_msgs[ph];
        let saved = if o == 0 { 0.0 } else { 100.0 * (o as f64 - n as f64) / o as f64 };
        println!("{ph:>6} {o:>14} {n:>14} {saved:>9.1}%");
    }

    // Steady state: everything after the warm-up phase.
    let steady_off: u64 = off.req_msgs[1..].iter().sum();
    let steady_on: u64 = on.req_msgs[1..].iter().sum();
    let reduction = (steady_off as f64 - steady_on as f64) / steady_off as f64;
    let entries_off: u64 = off.req_sent[1..].iter().sum();
    let entries_on: u64 = on.req_sent[1..].iter().sum();
    println!(
        "steady-state (phases 1..{PHASES}): request msgs {steady_off} -> {steady_on} \
         ({:.1}% reduction), request entries {entries_off} -> {entries_on}",
        100.0 * reduction
    );
    println!(
        "simulated time: off {:.3}s  on {:.3}s",
        off.total_ns as f64 / 1e9,
        on.total_ns as f64 / 1e9
    );

    let points = vec![
        ExpPoint {
            experiment: "fig_migration".into(),
            app: "bh".into(),
            config: "migration-off".into(),
            nodes: NODES,
            seconds: off.total_ns as f64 / 1e9,
            breakdown: (0.0, 0.0, 0.0),
            msgs: off.req_msgs.iter().sum(),
            bytes: 0,
            extra: vec![("steady_req_msgs".into(), steady_off as f64)],
        },
        ExpPoint {
            experiment: "fig_migration".into(),
            app: "bh".into(),
            config: "migration-on".into(),
            nodes: NODES,
            seconds: on.total_ns as f64 / 1e9,
            breakdown: (0.0, 0.0, 0.0),
            msgs: on.req_msgs.iter().sum(),
            bytes: 0,
            extra: vec![
                ("steady_req_msgs".into(), steady_on as f64),
                ("steady_reduction".into(), reduction),
            ],
        },
    ];
    dump_json("fig_migration", &points);

    if reduction < TARGET {
        eprintln!(
            "FAIL: steady-state reduction {:.1}% below the {:.0}% floor",
            100.0 * reduction,
            100.0 * TARGET
        );
        std::process::exit(1);
    }
    println!(
        "PASS: steady-state request-message reduction {:.1}% >= {:.0}%",
        100.0 * reduction,
        100.0 * TARGET
    );
}
