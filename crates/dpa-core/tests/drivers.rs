//! End-to-end driver tests on the synthetic pointer-chasing workload:
//! every execution variant must compute identical checksums, and the
//! performance ordering the paper reports must hold in simulated time.

use dpa_core::synth::{SynthApp, SynthParams, SynthWorld};
use dpa_core::{run_phase, run_phase_dst, run_phase_traced, DpaConfig, DstOptions};
use sim_net::{FaultPlan, NetConfig};
use std::sync::Arc;

fn params(nodes: u16) -> SynthParams {
    SynthParams {
        nodes,
        lists_per_node: 24,
        list_len: 40,
        remote_fraction: 0.35,
        shared_fraction: 0.5,
        record_bytes: 32,
        work_ns: 800,
        seed: 0xFEED,
    }
}

fn total_expected_visits(world: &SynthWorld) -> u64 {
    (0..world.nodes).map(|n| world.expected(n).1).sum()
}

/// Run `cfg` over the synthetic world, returning per-node checksums,
/// visit counts, and the makespan in ns.
fn run(world: &Arc<SynthWorld>, cfg: DpaConfig) -> (Vec<u64>, u64, u64) {
    let mut sums = vec![0u64; world.nodes as usize];
    let mut visited = 0u64;
    let report = run_phase(
        world.nodes,
        NetConfig::default(),
        cfg,
        |i| SynthApp::new(world.clone(), i, 800),
        |i, app| {
            sums[i as usize] = app.sum;
            visited += app.visited;
        },
    );
    (sums, visited, report.makespan().as_ns())
}

#[test]
fn all_variants_compute_identical_sums() {
    let world = SynthWorld::build(params(4));
    let expected: Vec<u64> = (0..4).map(|n| world.expected_sum(n)).collect();
    for cfg in [
        DpaConfig::dpa(8),
        DpaConfig::dpa(1),
        DpaConfig::dpa_base(8),
        DpaConfig::dpa_pipeline(8),
        DpaConfig::caching(),
        DpaConfig::blocking(),
    ] {
        let label = cfg.describe();
        let (sums, visited, _) = run(&world, cfg);
        assert_eq!(sums, expected, "checksum mismatch under {label}");
        assert_eq!(
            visited,
            total_expected_visits(&world),
            "visit count mismatch under {label}"
        );
    }
}

#[test]
fn sequential_reference_matches_on_one_node() {
    let world = SynthWorld::build(params(1));
    let (sums, _, makespan) = run(&world, DpaConfig::sequential());
    assert_eq!(sums[0], world.expected_sum(0));
    // Zero-overhead reference: makespan is exactly visits * work_ns.
    assert_eq!(makespan, world.expected(0).1 * 800);
}

#[test]
fn dpa_beats_caching_beats_blocking() {
    // High-reuse, high-remote workload: caching's reuse must beat
    // blocking's refetching despite per-access probe costs, and DPA must
    // beat both by overlapping and aggregating.
    let world = SynthWorld::build(SynthParams {
        shared_fraction: 0.9,
        remote_fraction: 0.6,
        list_len: 20,
        lists_per_node: 48,
        ..params(8)
    });
    let (_, _, t_dpa) = run(&world, DpaConfig::dpa(16));
    let (_, _, t_cache) = run(&world, DpaConfig::caching());
    let (_, _, t_block) = run(&world, DpaConfig::blocking());
    assert!(
        t_dpa < t_cache,
        "DPA ({t_dpa} ns) must beat caching ({t_cache} ns)"
    );
    assert!(
        t_cache < t_block,
        "caching ({t_cache} ns) must beat blocking ({t_block} ns)"
    );
}

#[test]
fn pipeline_and_aggregation_each_help() {
    let world = SynthWorld::build(params(8));
    let (_, _, t_base) = run(&world, DpaConfig::dpa_base(16));
    let (_, _, t_pipe) = run(&world, DpaConfig::dpa_pipeline(16));
    let (_, _, t_full) = run(&world, DpaConfig::dpa(16));
    assert!(
        t_pipe < t_base,
        "pipelining ({t_pipe}) must beat Base ({t_base})"
    );
    assert!(
        t_full < t_pipe,
        "aggregation ({t_full}) must further beat pipeline-only ({t_pipe})"
    );
}

#[test]
fn runs_are_deterministic() {
    let world = SynthWorld::build(params(4));
    let (s1, _, t1) = run(&world, DpaConfig::dpa(8));
    let (s2, _, t2) = run(&world, DpaConfig::dpa(8));
    assert_eq!(s1, s2);
    assert_eq!(t1, t2);
}

#[test]
fn strip_one_still_correct_but_slower() {
    let world = SynthWorld::build(params(4));
    let (_, _, t1) = run(&world, DpaConfig::dpa(1));
    let (_, _, t16) = run(&world, DpaConfig::dpa(16));
    assert!(
        t16 < t1,
        "a wider strip ({t16}) must beat strip=1 ({t1}): no overlap possible at k=1"
    );
}

#[test]
fn dropped_replies_stall_but_do_not_hang() {
    let world = SynthWorld::build(params(4));
    let opts = DstOptions {
        faults: FaultPlan::drop_nth(5),
        ..DstOptions::default()
    };
    let (report, _) = run_phase_dst(
        4,
        NetConfig::default(),
        DpaConfig::dpa(8),
        &opts,
        |i| SynthApp::new(world.clone(), i, 800),
        |_, _| {},
    );
    assert!(!report.completed, "lost packets must be detected as a stall");
    assert!(report.stats.dropped_packets > 0);
}

/// A caching node admits an iteration only once the last one is done, so
/// the iteration it is blocked in is the one after all it completed —
/// what its stall detail must name, deep into the loop.
#[test]
fn a_blocked_caching_node_names_its_open_iteration() {
    let world = SynthWorld::build(params(4));
    let opts = DstOptions {
        faults: FaultPlan::drop_nth(300),
        ..DstOptions::default()
    };
    let (report, _) = run_phase_dst(
        4,
        NetConfig::default(),
        DpaConfig::caching(),
        &opts,
        |i| SynthApp::new(world.clone(), i, 800),
        |_, _| {},
    );
    assert!(!report.completed, "the lost message must stall the run");
    let blocked: Vec<&str> = report
        .stalls
        .iter()
        .filter_map(|s| s.detail.as_deref())
        .filter(|d| d.contains("blocked on"))
        .collect();
    assert!(!blocked.is_empty(), "{}", report.stall_summary());
    for detail in blocked {
        let done = detail
            .strip_prefix("iters ")
            .and_then(|rest| rest.split('/').next())
            .expect("an iteration count");
        assert_ne!(done, "0", "{detail}");
        assert!(detail.contains(&format!("(iter {done})")), "{detail}");
    }
}

/// Every single-phase entry shares one body, so the traced entry makes the
/// same node-count check as the others.
#[test]
#[should_panic(expected = "sequential reference runs on one node")]
fn traced_sequential_rejects_multiple_nodes() {
    let world = SynthWorld::build(params(2));
    run_phase_traced(
        2,
        NetConfig::default(),
        DpaConfig::sequential(),
        |i| SynthApp::new(world.clone(), i, 800),
        |_, _| {},
        1024,
    );
}

#[test]
fn message_counts_shrink_with_aggregation() {
    let world = SynthWorld::build(params(8));
    let mut msgs_noagg = 0;
    let mut msgs_agg = 0;
    let r1 = run_phase(
        8,
        NetConfig::default(),
        DpaConfig::dpa_pipeline(16),
        |i| SynthApp::new(world.clone(), i, 800),
        |_, _| {},
    );
    msgs_noagg += r1.stats.total_msgs();
    let r2 = run_phase(
        8,
        NetConfig::default(),
        DpaConfig::dpa(16),
        |i| SynthApp::new(world.clone(), i, 800),
        |_, _| {},
    );
    msgs_agg += r2.stats.total_msgs();
    assert!(
        msgs_agg < msgs_noagg,
        "aggregation must reduce message count ({msgs_agg} vs {msgs_noagg})"
    );
}

#[test]
fn oversized_objects_segment_replies_at_the_mtu() {
    // Records far larger than the 2 KiB MTU: aggregated replies must be
    // split into multiple packets, yet every variant still agrees.
    let world = SynthWorld::build(SynthParams {
        record_bytes: 5_000,
        ..params(4)
    });
    let expected: Vec<u64> = (0..4).map(|n| world.expected_sum(n)).collect();
    let mut sums = vec![0u64; 4];
    let report = run_phase(
        4,
        NetConfig::default(),
        DpaConfig::dpa(16),
        |i| SynthApp::new(world.clone(), i, 800),
        |i, app| sums[i as usize] = app.sum,
    );
    assert_eq!(sums, expected);
    let s = &report.stats;
    // One object per reply at most (5000 + 8 > 2048): replies >= objects.
    assert!(
        s.user_total("reply_msgs") >= s.user_total("requests_issued"),
        "replies {} vs objects {}",
        s.user_total("reply_msgs"),
        s.user_total("requests_issued")
    );
    // Every oversized reply is alone in its packet, so reply messages
    // can never be fewer than the request messages that asked for them.
    assert!(s.user_total("reply_msgs") >= s.user_total("request_msgs"));
}

#[test]
fn oversized_objects_pay_multi_packet_cost() {
    // A single object larger than the MTU cannot be segmented across
    // reply entries, so the owner must be charged for every extra packet
    // it occupies. Run the same world under a small and a large MTU:
    // with 5000-byte records and a 2 KiB MTU each reply spans 3 packets;
    // with an 8 KiB MTU it fits in one. Identical results, but the
    // small-MTU run must charge strictly more send overhead.
    let world = SynthWorld::build(SynthParams {
        record_bytes: 5_000,
        ..params(4)
    });
    let expected: Vec<u64> = (0..4).map(|n| world.expected_sum(n)).collect();
    let run_with_mtu = |mtu: u32| {
        let mut sums = vec![0u64; 4];
        let cfg = DpaConfig {
            mtu: fastmsg::Mtu::new(mtu),
            ..DpaConfig::dpa(16)
        };
        let report = run_phase(
            4,
            NetConfig::default(),
            cfg,
            |i| SynthApp::new(world.clone(), i, 800),
            |i, app| sums[i as usize] = app.sum,
        );
        assert_eq!(sums, expected);
        report.stats.sum(|s| s.overhead.as_ns())
    };
    let overhead_small_mtu = run_with_mtu(2_048);
    let overhead_large_mtu = run_with_mtu(8_192);
    assert!(
        overhead_small_mtu > overhead_large_mtu,
        "3-packet replies must charge more overhead than 1-packet ones \
         ({overhead_small_mtu} vs {overhead_large_mtu})"
    );
}

#[test]
fn reply_aggregation_coalesces_replies_and_preserves_results() {
    // With the owner-side reply scheduler on, busy owners answer several
    // request batches from the same destination in fewer messages; the
    // computed checksums are untouched.
    let world = SynthWorld::build(SynthParams {
        remote_fraction: 0.6,
        ..params(8)
    });
    let expected: Vec<u64> = (0..8).map(|n| world.expected_sum(n)).collect();
    let run_with = |reply_agg_window: usize| {
        let mut sums = vec![0u64; 8];
        let cfg = DpaConfig {
            reply_agg_window,
            ..DpaConfig::dpa(16)
        };
        let report = run_phase(
            8,
            NetConfig::default(),
            cfg,
            |i| SynthApp::new(world.clone(), i, 800),
            |i, app| sums[i as usize] = app.sum,
        );
        assert_eq!(sums, expected);
        (
            report.stats.user_total("reply_msgs"),
            report.stats.user_ratio("reply_entries", "reply_msgs"),
        )
    };
    let (msgs_off, factor_off) = run_with(1);
    let (msgs_on, factor_on) = run_with(32);
    assert!(
        msgs_on < msgs_off,
        "reply aggregation must reduce reply messages ({msgs_on} vs {msgs_off})"
    );
    assert!(
        factor_on > factor_off,
        "reply aggregation factor must grow ({factor_on:.2} vs {factor_off:.2})"
    );
}

#[test]
fn bounded_lru_cache_still_correct() {
    use global_heap::EvictPolicy;
    let world = SynthWorld::build(SynthParams {
        remote_fraction: 0.5,
        shared_fraction: 0.7,
        ..params(4)
    });
    let expected: Vec<u64> = (0..4).map(|n| world.expected_sum(n)).collect();
    for (capacity, policy) in [
        (Some(16), EvictPolicy::Fifo),
        (Some(16), EvictPolicy::Lru),
        (Some(2), EvictPolicy::Lru),
    ] {
        let cfg = DpaConfig {
            cache_capacity: capacity,
            cache_policy: policy,
            ..DpaConfig::caching()
        };
        let mut sums = vec![0u64; 4];
        run_phase(
            4,
            NetConfig::default(),
            cfg,
            |i| SynthApp::new(world.clone(), i, 800),
            |i, app| sums[i as usize] = app.sum,
        );
        assert_eq!(sums, expected, "{capacity:?}/{policy:?}");
    }
}

#[test]
fn zero_iteration_nodes_are_fine() {
    // A world where some nodes own no lists at all.
    let world = SynthWorld::build(SynthParams {
        nodes: 3,
        lists_per_node: 4,
        ..params(3)
    });
    // Node indices above the world's size own nothing; run on 6 nodes
    // with apps that report zero iterations for the extra nodes.
    let mut sum = 0u64;
    let report = run_phase(
        3,
        NetConfig::default(),
        DpaConfig::dpa(4),
        |i| SynthApp::new(world.clone(), i, 800),
        |_, app| sum = sum.wrapping_add(app.sum),
    );
    assert!(report.completed);
    let expected: u64 = (0..3).map(|n| world.expected_sum(n)).sum();
    assert_eq!(sum, expected);
}

#[test]
fn thread_statistics_are_flushed() {
    let world = SynthWorld::build(params(4));
    let report = run_phase(
        4,
        NetConfig::default(),
        DpaConfig::dpa(8),
        |i| SynthApp::new(world.clone(), i, 800),
        |_, _| {},
    );
    let s = &report.stats;
    assert_eq!(s.user_total("iterations"), 4 * 24);
    assert!(s.user_total("threads_created") >= world.total_records() as u64);
    assert!(s.user_max("peak_aligned_threads") > 0);
    assert!(s.user_total("requests_issued") > 0);
    assert!(s.user_total("renamed_peak_bytes") > 0);
}

#[test]
fn caching_statistics_are_flushed() {
    let world = SynthWorld::build(params(4));
    let report = run_phase(
        4,
        NetConfig::default(),
        DpaConfig::caching(),
        |i| SynthApp::new(world.clone(), i, 800),
        |_, _| {},
    );
    let s = &report.stats;
    assert_eq!(s.user_total("iterations"), 4 * 24);
    assert!(s.user_total("cache_probes") > 0);
    assert_eq!(
        s.user_total("cache_misses"),
        s.user_total("stalls"),
        "every miss stalls exactly once"
    );
}
