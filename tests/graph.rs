//! Checksum-invariance battery for the skew-adversarial graph workload:
//! the semi-naive transitive-closure checksums must be bit-identical
//! across every config lane — strips from 1 to 128, differential
//! re-alignment on and off, read-mostly replication on and off — because
//! none of those knobs is allowed to change *what* is
//! computed, only when and where. Every lane runs on the default timing
//! wheel; the shadow heap's equivalence is `queue_equiv`'s job.

use dpa::apps::graph_dist::{GraphApp, GraphParams, GraphWorld};
use dpa::runtime::{check_completed, run_phases, DpaConfig, DstOptions};
use dpa::sim_net::NetConfig;

const PHASES: usize = 3;
const NODES: u16 = 4;

/// Full DPA at `strip` with the differential carry.
fn differential(strip: usize) -> DpaConfig {
    DpaConfig {
        differential: true,
        ..DpaConfig::dpa(strip)
    }
}

/// One lane: run the closure over `PHASES` timesteps under `cfg`, return
/// per-(phase, node) `(checksum, reached)` pairs, and hold the invariant
/// oracles clean.
fn run_lane(
    world: &std::sync::Arc<GraphWorld>,
    label: &str,
    cfg: DpaConfig,
) -> (Vec<(u64, u64)>, Vec<Vec<dpa::runtime::NodeSnapshot>>) {
    let mut sums = vec![(0u64, 0u64); PHASES * NODES as usize];
    let mk = |ph: usize, i: u16| GraphApp::new(world.clone(), i, ph as u32);
    let collect = |ph: usize, i: u16, app: &GraphApp| {
        sums[ph * NODES as usize + i as usize] = (app.sum, app.reached);
    };
    let (reports, snap_sets, _) = run_phases(
        NODES,
        NetConfig::default(),
        cfg,
        &DstOptions::default(),
        PHASES,
        mk,
        collect,
    );
    assert!(reports.iter().all(|r| r.completed), "{label}: stalled");
    for snaps in &snap_sets {
        let v = check_completed(snaps, false);
        assert!(v.is_empty(), "{label}: {}", v[0]);
    }
    (sums, snap_sets)
}

/// Strips {1, 16, 64, 128}, differential re-alignment and replication
/// (each at strips 1, 8 and 64, plus an eager replication lane) all agree
/// bit-for-bit on the closure checksums of a mutable power-law graph —
/// including the hot-hub generation stamps the checksum folds in — and
/// every lane's runtime-state snapshot passes the full invariant check
/// (hot-key reply conservation included).
#[test]
fn graph_checksums_invariant_across_config_lanes() {
    // root_stride = 1: every owned vertex seeds a closure, so each node
    // runs 32 iterations per phase — a strip of 1 admits them one at a
    // time, a strip of 64 all at once.
    let world = GraphWorld::build(GraphParams {
        n: 128,
        root_stride: 1,
        seed: 0x06EA_9D57,
        ..GraphParams::default()
    });
    let lanes: Vec<(String, DpaConfig)> = vec![
        ("strip=1".into(), DpaConfig::dpa(1)),
        ("strip=16".into(), DpaConfig::dpa(16)),
        ("strip=64".into(), DpaConfig::dpa(64)),
        ("strip=128".into(), DpaConfig::dpa(128)),
        ("diff".into(), differential(8)),
        ("diff strip=1".into(), differential(1)),
        ("diff strip=64".into(), differential(64)),
        // Replication lanes: `Policy::Replicate` must also be purely a
        // *when/where* knob.
        ("repl".into(), DpaConfig::dpa_replicating(8)),
        ("repl strip=1".into(), DpaConfig::dpa_replicating(1)),
        ("repl strip=64".into(), DpaConfig::dpa_replicating(64)),
        (
            "repl eager".into(),
            DpaConfig {
                replication_budget: 8,
                replication_write_demote: 2,
                ..DpaConfig::dpa_replicating(8)
            },
        ),
    ];
    let mut baseline: Option<Vec<(u64, u64)>> = None;
    for (label, cfg) in lanes {
        let (sums, snap_sets) = run_lane(&world, &label, cfg);
        // The repl lanes must have exercised the protocol, not just
        // tolerated the knob: at least one owner published a directory
        // entry and at least one broadcast entry was installed somewhere.
        // At strip 1 few threads align on the hub before its copy arrives
        // (the arrival set serves every later demand), so no consumer
        // clears the replicating report floor and nothing is promoted:
        // that lane holds the checksums only.
        if label.contains("repl") && label != "repl strip=1" {
            let published = snap_sets
                .iter()
                .flatten()
                .any(|s| !s.replica_dir.is_empty());
            let installed = snap_sets.iter().flatten().any(|s| s.repl_entries_recv > 0);
            assert!(published, "{label}: no pointer was ever promoted");
            assert!(installed, "{label}: no replica broadcast was installed");
        }
        match &baseline {
            None => baseline = Some(sums),
            Some(b) => assert_eq!(&sums, b, "{label}: checksums diverged"),
        }
    }
    // The checksums also match the host oracle: this battery compares
    // against ground truth, not just lane-to-lane.
    let expect = baseline.expect("at least one lane ran");
    for ph in 0..PHASES {
        for node in 0..NODES {
            assert_eq!(
                expect[ph * NODES as usize + node as usize],
                world.expected(ph as u32, node),
                "phase {ph} node {node}: lanes agree with each other but not the oracle"
            );
        }
    }
}

/// The closure digests equal the host oracle both when every traversal
/// reaches most of the graph (uniform targets: the per-node visited table
/// fills and regrows) and when reach is a few dozen vertices (power-law
/// targets: it stays near its initial size).
#[test]
fn graph_closure_matches_oracle_at_dense_and_sparse_reach() {
    for skew in [0.0, 1.6] {
        let world = GraphWorld::build(GraphParams {
            n: 1_024,
            skew,
            root_stride: 2,
            seed: 0x5EE_D0C5,
            ..GraphParams::default()
        });
        let (sums, _) = run_lane(&world, &format!("skew={skew}"), DpaConfig::dpa(16));
        let mut reached = 0;
        for ph in 0..PHASES {
            for node in 0..NODES {
                let got = sums[ph * NODES as usize + node as usize];
                assert_eq!(
                    got,
                    world.expected(ph as u32, node),
                    "skew {skew} phase {ph} node {node}"
                );
                reached += got.1;
            }
        }
        if skew == 0.0 {
            let pairs = (PHASES * 512 * 1_024) as u64;
            assert!(
                reached > pairs / 2,
                "uniform graph reached only {reached} of {pairs} pairs"
            );
        }
    }
}

/// Same battery for the setops workload, single phase: strips from 1 to
/// 64 must leave the range sums and the final membership digest
/// bit-identical and equal to the host oracle.
#[test]
fn setops_checksums_invariant_across_config_lanes() {
    use dpa::apps::setops_dist::{SetopsApp, SetopsParams, SetopsWorld};
    use dpa::runtime::run_phase_dst;
    let world = SetopsWorld::build(SetopsParams {
        universe: 2048,
        ops_per_node: 32,
        seed: 0x05E7_0D57,
        ..SetopsParams::default()
    });
    let lanes: Vec<(String, DpaConfig)> = vec![
        ("strip=1".into(), DpaConfig::dpa(1)),
        ("strip=32".into(), DpaConfig::dpa(32)),
        ("strip=64".into(), DpaConfig::dpa(64)),
    ];
    let expected: Vec<(u64, u64)> = (0..NODES).map(|n| world.expected(n)).collect();
    for (label, cfg) in lanes {
        let mut got = vec![(0u64, 0u64); NODES as usize];
        let (report, snaps) = run_phase_dst(
            NODES,
            NetConfig::default(),
            cfg,
            &DstOptions::default(),
            |i| SetopsApp::new(world.clone(), i),
            |i, app: &SetopsApp| got[i as usize] = (app.range_sum, app.final_digest()),
        );
        assert!(report.completed, "{label}: stalled");
        let v = check_completed(&snaps, false);
        assert!(v.is_empty(), "{label}: {}", v[0]);
        assert_eq!(got, expected, "{label}: diverged from the host oracle");
    }
}

/// `run_setops` against the crate's own (linear) oracle: every node's
/// range checksum and final-membership digest, and every mutation applied
/// exactly once.
fn setops_run_matches_expected(params: dpa::apps::setops_dist::SetopsParams) {
    use dpa::apps::driver::{run_setops, Digest};
    use dpa::apps::setops_dist::{SetOp, SetopsWorld};
    let world = SetopsWorld::build(params);
    let run = run_setops(
        &world,
        DpaConfig::dpa(8),
        NetConfig::default(),
        &DstOptions::default(),
    );
    assert!(run.completed(), "stalled");
    let Digest::Ints(got) = &run.digest else {
        panic!("setops digests are integers")
    };
    let mutations = (0..params.nodes)
        .flat_map(|n| world.batch(n))
        .filter(|op| !matches!(op, SetOp::Range(..)))
        .count() as u64;
    assert_eq!(
        got.iter().skip(2).step_by(3).sum::<u64>(),
        mutations,
        "reductions applied"
    );
    for node in 0..params.nodes {
        let at = 3 * node as usize;
        assert_eq!((got[at], got[at + 1]), world.expected(node), "node {node}");
    }
    // Every reply and every update message was emitted by exactly one of
    // the four flush rules; `--nocapture` shows which (EXPERIMENTS.md X17).
    for (path, msgs) in [("reply", "reply_msgs"), ("upd", "update_msgs")] {
        let by_rule = ["window", "mtu", "deadline", "quiescence"]
            .map(|rule| run.stats.user_total(&format!("{path}_flush_{rule}")));
        println!("{path} messages by flush rule [window, mtu, deadline, quiescence]: {by_rule:?}");
        assert_eq!(
            by_rule.iter().sum::<u64>(),
            run.stats.user_total(msgs),
            "{path}"
        );
    }
}

/// At the size of `serve_mix`'s setops job.
#[test]
fn setops_digest_matches_expected_at_job_size() {
    setops_run_matches_expected(dpa::apps::setops_dist::SetopsParams {
        universe: 262_144,
        buckets: 1_024,
        nodes: 8,
        ops_per_node: 4_096,
        seed: 1997,
        ..Default::default()
    });
}

/// At the size of the benchmark's `setops_rw` (nightly; the oracle the
/// benchmark had to re-implement because this one was quadratic).
#[test]
#[ignore = "benchmark size: 2M keys, P = 16; run with --release -- --ignored"]
fn setops_digest_matches_expected_at_benchmark_size() {
    setops_run_matches_expected(dpa::apps::setops_dist::SetopsParams {
        universe: 2_097_152,
        buckets: 4_096,
        nodes: 16,
        ops_per_node: 32_768,
        seed: 1997,
        ..Default::default()
    });
}
