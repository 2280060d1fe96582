//! DST-focused properties: fault injection (duplicate / delay / drop)
//! against the runtime's idempotence and conservation guarantees, over
//! randomized worlds and fault seeds.

use dpa::apps::bh_dist::{BhApp, BhCost, BhWorld};
use dpa::apps::relax::{RelaxApp, RelaxWorld};
use dpa::global_heap::{ArrivalSet, GPtr, ObjClass};
use dpa::nbody::bh::BhParams;
use dpa::nbody::distrib::plummer;
use dpa::runtime::invariant::Violation;
use dpa::runtime::synth::{SynthApp, SynthParams, SynthWorld};
use dpa::runtime::{
    check_completed, check_conservation, run_phase_dst, run_phases, DpaConfig, DstOptions,
    NodeSnapshot, PtrApp,
};
use dpa::sim_net::{FaultPlan, NetConfig, NodePause};
use proptest::prelude::*;

fn synth_world(seed: u64, nodes: u16, remote: f64) -> std::sync::Arc<SynthWorld> {
    SynthWorld::build(SynthParams {
        nodes,
        lists_per_node: 6,
        list_len: 12,
        remote_fraction: remote,
        shared_fraction: 0.4,
        record_bytes: 32,
        work_ns: 200,
        seed,
    })
}

fn bh_world(seed: u64, nodes: u16) -> std::sync::Arc<BhWorld> {
    BhWorld::build(
        plummer(96, seed),
        nodes,
        8,
        BhParams::default(),
        BhCost::default(),
    )
}

/// Three phases of `mk`'s app under `dpa_migrating(4)` and `opts`, against
/// the same phases with migration off and no faults. What boundary-only
/// re-homing rests on, checked at **every** phase end, completed or not:
///
/// * the machine-wide adopted set equals the departed set, as multisets —
///   each stub has exactly one adopter and each adoption its stub, because
///   depart + adopt is one offline step (nothing is ever left to heal);
/// * no request was misrouted (`misrouted_requests == 0`);
/// * a node reports affinity once per phase: at most `nodes - 1`
///   `Affinity` messages, one per home;
/// * the conservation oracles hold, and on a completed phase the
///   completion oracles and the migration-off digest.
///
/// A phase may only fail to complete under a `lossy` plan, and then it
/// carries a stall diagnosis.
fn check_migrating_run<A: PtrApp>(
    nodes: u16,
    opts: &DstOptions,
    lossy: bool,
    mk: impl Fn(u16) -> A,
    digest: impl Fn(&A) -> u64,
) {
    const PHASES: usize = 3;
    let run = |cfg: DpaConfig, opts: &DstOptions| {
        let mut digests = vec![0u64; PHASES * nodes as usize];
        let (reports, snap_sets, _tables) = run_phases(
            nodes,
            NetConfig::default(),
            cfg,
            opts,
            PHASES,
            |_, i| mk(i),
            |ph, i, app: &A| digests[ph * nodes as usize + i as usize] = digest(app),
        );
        (reports, snap_sets, digests)
    };
    let (_, _, want) = run(DpaConfig::dpa(4), &DstOptions::default());
    let (reports, snap_sets, got) = run(DpaConfig::dpa_migrating(4), opts);
    for (ph, (r, snaps)) in reports.iter().zip(&snap_sets).enumerate() {
        let sorted = |f: fn(&NodeSnapshot) -> &Vec<u64>| {
            let mut v: Vec<u64> = snaps.iter().flat_map(|s| f(s).iter().copied()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(
            sorted(|s| &s.adopted_ptrs),
            sorted(|s| &s.departed_ptrs),
            "phase {ph}: a stub without its adopter, or an adopter without its stub"
        );
        assert!(
            snaps.iter().all(|s| s.misrouted_requests == 0),
            "phase {ph}"
        );
        let reports_per_node = r.stats.user_max("affinity_msgs");
        assert!(
            reports_per_node < nodes as u64,
            "phase {ph}: {reports_per_node} Affinity messages from one node"
        );
        if r.completed {
            let violations = check_completed(snaps, lossy);
            assert!(violations.is_empty(), "phase {ph}: {}", violations[0]);
            let at = ph * nodes as usize..(ph + 1) * nodes as usize;
            assert_eq!(&got[at.clone()], &want[at], "phase {ph} digest diverged");
        } else {
            assert!(
                lossy,
                "lossless plan stalled phase {ph}: {}",
                r.stall_summary()
            );
            assert!(
                r.stalls.iter().any(|s| s.detail.is_some()),
                "stall without diagnosis"
            );
            let violations = check_conservation(snaps);
            assert!(violations.is_empty(), "phase {ph}: {}", violations[0]);
        }
    }
    // Single-home exclusivity over the carried tables of the whole run.
    let violations = check_conservation(&snap_sets.concat());
    assert!(violations.is_empty(), "cross-phase: {}", violations[0]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The arrival set is the reply-side dedup: re-inserting a pointer
    /// reports stale and changes no accounting, whatever the interleaving
    /// of fresh and duplicate inserts.
    #[test]
    fn arrival_set_insert_is_idempotent(
        seed in any::<u64>(),
        n in 1usize..60,
        dup_every in 1usize..5,
    ) {
        let mut rng = dpa::sim_net::Rng::new(seed);
        let mut set = ArrivalSet::new();
        let mut inserted: Vec<(GPtr, u32)> = Vec::new();
        for i in 0..n {
            if !inserted.is_empty() && i % dup_every == 0 {
                // Duplicate delivery of an already-installed object.
                let (p, size) = inserted[rng.below(inserted.len() as u64) as usize];
                let before = (set.len(), set.bytes(), set.total_inserts());
                prop_assert!(!set.insert(p, size + 7), "duplicate reported fresh");
                prop_assert_eq!(before, (set.len(), set.bytes(), set.total_inserts()));
                prop_assert!(set.contains(p));
            } else {
                let p = GPtr::new(rng.below(4) as u16, ObjClass(0), i as u64);
                let size = 16 + rng.below(64) as u32;
                prop_assert!(set.insert(p, size));
                inserted.push((p, size));
            }
        }
        prop_assert_eq!(set.len(), inserted.len());
        prop_assert_eq!(set.total_inserts(), inserted.len() as u64);
    }

    /// Duplicated replies never double-install: under an aggressive
    /// duplicate plan both the DPA and caching drivers still produce
    /// bit-exact checksums, drain M/D, and conserve requests/replies.
    #[test]
    fn duplicated_replies_never_double_install(
        seed in any::<u64>(),
        nodes in 2u16..6,
        remote in 0.2f64..0.9,
        dup_p in 0.1f64..0.9,
    ) {
        let world = synth_world(seed, nodes, remote);
        let expected: Vec<u64> = (0..nodes).map(|n| world.expected_sum(n)).collect();
        for cfg in [DpaConfig::dpa(4), DpaConfig::caching()] {
            let opts = DstOptions {
                schedule_seed: Some(seed),
                faults: FaultPlan::duplicate(seed ^ 0xD0_D0, dup_p),
                ..DstOptions::default()
            };
            let mut sums = vec![0u64; nodes as usize];
            let (report, snaps) = run_phase_dst(
                nodes,
                NetConfig::default(),
                cfg,
                &opts,
                |i| SynthApp::new(world.clone(), i, 200),
                |i, app| sums[i as usize] = app.sum,
            );
            prop_assert!(report.completed, "dup plan stalled: {}", report.stall_summary());
            prop_assert!(
                report.stats.duplicated_packets > 0 || nodes == 1,
                "plan injected nothing"
            );
            prop_assert_eq!(&sums, &expected);
            let violations = check_completed(&snaps, false);
            prop_assert!(violations.is_empty(), "violation: {}", violations[0]);
        }
    }

    /// Duplicated updates never double-apply `Emit::Accum`: one relax
    /// sweep under a duplicate plan matches the host oracle exactly as
    /// often as the baseline does (per-seq dedup makes application
    /// exactly-once), and update conservation holds machine-wide.
    #[test]
    fn duplicated_updates_never_double_apply(
        seed in any::<u64>(),
        nodes in 2u16..5,
        remote in 0.2f64..0.8,
        dup_p in 0.1f64..0.9,
    ) {
        let world = RelaxWorld::build(60, nodes, 4, remote, seed);
        let expected = world.expected();
        let opts = DstOptions {
            schedule_seed: Some(seed),
            faults: FaultPlan::duplicate(seed ^ 0xD0_D0, dup_p),
            ..DstOptions::default()
        };
        let mut next = vec![0.0f64; expected.len()];
        let (report, snaps) = run_phase_dst(
            nodes,
            NetConfig::default(),
            DpaConfig::dpa(6),
            &opts,
            |i| RelaxApp::new(world.clone(), i),
            |i, app: &RelaxApp| {
                for v in world.range(i) {
                    next[v] = app.next[v];
                }
            },
        );
        prop_assert!(report.completed, "dup plan stalled: {}", report.stall_summary());
        for (v, (got, want)) in next.iter().zip(&expected).enumerate() {
            let err = (got - want).abs() / want.abs().max(1e-12);
            prop_assert!(err < 1e-9, "vertex {v}: {got} vs {want} (double-applied?)");
        }
        let violations = check_completed(&snaps, false);
        prop_assert!(violations.is_empty(), "violation: {}", violations[0]);
        let emitted: u64 = snaps.iter().map(|s| s.updates_emitted).sum();
        let applied: u64 = snaps.iter().map(|s| s.updates_applied).sum();
        prop_assert_eq!(emitted, applied);
    }

    /// Drop plans either complete (losing only fire-and-forget updates)
    /// or stall with a diagnosis naming the stuck state; conservation
    /// holds either way and updates are never over-applied.
    #[test]
    fn drops_stall_with_diagnosis_or_lose_only_updates(
        seed in any::<u64>(),
        nodes in 2u16..5,
        drop_p in 0.005f64..0.08,
    ) {
        let world = synth_world(seed, nodes, 0.5);
        let expected: Vec<u64> = (0..nodes).map(|n| world.expected_sum(n)).collect();
        let opts = DstOptions {
            schedule_seed: Some(seed),
            faults: FaultPlan::drop(seed ^ 0x0D0D, drop_p),
            ..DstOptions::default()
        };
        let mut sums = vec![0u64; nodes as usize];
        let (report, snaps) = run_phase_dst(
            nodes,
            NetConfig::default(),
            DpaConfig::dpa(4),
            &opts,
            |i| SynthApp::new(world.clone(), i, 200),
            |i, app| sums[i as usize] = app.sum,
        );
        if report.completed {
            // Synth has no updates, so a completed run dropped nothing
            // and must be exact.
            prop_assert_eq!(report.stats.dropped_packets, 0);
            prop_assert_eq!(&sums, &expected);
            prop_assert!(check_completed(&snaps, true).is_empty());
        } else {
            prop_assert!(report.stats.dropped_packets > 0);
            prop_assert!(!report.stalls.is_empty(), "stall without diagnosis");
            // Some stuck node must name what it is waiting for.
            prop_assert!(
                report.stalls.iter().any(|s| s.detail.is_some()),
                "no stall detail: {}",
                report.stall_summary()
            );
            let violations: Vec<Violation> = check_conservation(&snaps);
            prop_assert!(violations.is_empty(), "violation: {}", violations[0]);
        }
    }

    /// The reply-path scheduler partitions payload exactly: whatever the
    /// interleaving of pushes, budget flushes, deadline flushes, and the
    /// final drain, every entry and every byte pushed into a
    /// `ByteCoalescer` comes back out exactly once. Both pops go in
    /// ascending destination order, and the due-pop returns a destination
    /// iff its oldest buffered entry is `deadline` old.
    #[test]
    fn byte_coalescer_partitions_entries_and_bytes(
        seed in any::<u64>(),
        nodes in 1u16..6,
        window in 1usize..12,
        budget in 64u64..4096,
        n in 1usize..200,
    ) {
        const DEADLINE: u64 = 10_000;
        let mut rng = dpa::sim_net::Rng::new(seed);
        let mut c = dpa::fastmsg::ByteCoalescer::<u64>::new(nodes.into(), budget, window);
        let mut now = 0u64;
        let mut entries_out = 0usize;
        let mut bytes_in = 0u64;
        // Model: per destination, what is buffered and since when.
        let mut buffered = vec![0usize; nodes as usize];
        let mut first_at = vec![0u64; nodes as usize];
        for i in 0..n as u64 {
            now += rng.below(5_000);
            let dst = rng.below(nodes as u64) as u16;
            // Occasionally exceed the budget so oversized items exercise
            // the travel-alone path.
            let sz = 1 + rng.below(budget + budget / 4);
            bytes_in += sz;
            let (mut forced, mut forced_entries) = (0, 0);
            for batch in c.push(dst, i, sz, now) {
                prop_assert!(!batch.is_empty());
                forced += 1;
                forced_entries += batch.len();
            }
            prop_assert!(forced <= 2);
            // A forced batch takes everything buffered at that moment, so
            // the new entry is the oldest left iff it is the only one.
            let d = dst as usize;
            if buffered[d] == 0 || forced > 0 {
                first_at[d] = now;
            }
            buffered[d] = buffered[d] + 1 - forced_entries;
            entries_out += forced_entries;
            if i % 7 == 0 {
                let due: Vec<u16> = (0..nodes)
                    .filter(|&d| buffered[d as usize] > 0 && first_at[d as usize] + DEADLINE <= now)
                    .collect();
                let mut popped = Vec::new();
                while let Some((d, batch)) = c.pop_due(now, DEADLINE) {
                    prop_assert_eq!(batch.len(), buffered[d as usize]);
                    buffered[d as usize] = 0;
                    entries_out += batch.len();
                    popped.push(d);
                }
                prop_assert_eq!(popped, due, "due-pop is not exactly the due set, ascending");
            }
        }
        let left: Vec<u16> = (0..nodes).filter(|&d| buffered[d as usize] > 0).collect();
        let mut popped = Vec::new();
        while let Some((d, batch)) = c.pop_first() {
            prop_assert_eq!(batch.len(), buffered[d as usize]);
            entries_out += batch.len();
            popped.push(d);
        }
        prop_assert_eq!(popped, left, "drain is not every nonempty destination, ascending");
        prop_assert!(c.is_empty());
        prop_assert_eq!(entries_out, n, "entries lost or invented");
        prop_assert_eq!(c.total_pushed(), n as u64);
        prop_assert_eq!(c.total_pushed_bytes(), bytes_in);
    }

    /// Reply-path coalescing conserves payload exactly under every fault
    /// plan: with the owner-side scheduler on (varying window and
    /// deadline), drop / duplicate / delay plans never lose or invent a
    /// reply entry, and lossless plans stay bit-exact with the oracle.
    #[test]
    fn reply_coalescing_conserves_under_faults(
        seed in any::<u64>(),
        nodes in 2u16..5,
        reply_agg_window in 2usize..64,
        deadline_ns in 1_000u64..80_000,
        plan in 0usize..3,
    ) {
        let world = synth_world(seed, nodes, 0.6);
        let expected: Vec<u64> = (0..nodes).map(|n| world.expected_sum(n)).collect();
        let cfg = DpaConfig {
            reply_agg_window,
            reply_flush_deadline_ns: deadline_ns,
            ..DpaConfig::dpa(4)
        };
        let faults = match plan {
            0 => FaultPlan::drop(seed ^ 0x0D0D, 0.02),
            1 => FaultPlan::duplicate(seed ^ 0xD0_D0, 0.5),
            _ => FaultPlan::delay(seed ^ 0xDE1A, 0.5, 80_000),
        };
        let opts = DstOptions {
            schedule_seed: Some(seed),
            faults,
            ..DstOptions::default()
        };
        let mut sums = vec![0u64; nodes as usize];
        let (report, snaps) = run_phase_dst(
            nodes,
            NetConfig::default(),
            cfg,
            &opts,
            |i| SynthApp::new(world.clone(), i, 200),
            |i, app| sums[i as usize] = app.sum,
        );
        // Reply-path (and every other) conservation holds on any run,
        // completed or stalled, lossy or not.
        let violations = check_conservation(&snaps);
        prop_assert!(violations.is_empty(), "violation: {}", violations[0]);
        for s in &snaps {
            prop_assert_eq!(
                s.reply_pushed,
                s.reply_sent + s.reply_buffered as u64,
                "reply scheduler leaked on n{}", s.node
            );
        }
        if plan == 0 {
            // Drops may stall; a stall must carry a diagnosis.
            if !report.completed {
                prop_assert!(report.stats.dropped_packets > 0);
                prop_assert!(!report.stalls.is_empty(), "stall without diagnosis");
                return;
            }
            prop_assert_eq!(report.stats.dropped_packets, 0);
        }
        prop_assert!(report.completed, "lossless plan stalled: {}", report.stall_summary());
        prop_assert_eq!(&sums, &expected);
        let violations = check_completed(&snaps, plan == 0);
        prop_assert!(violations.is_empty(), "violation: {}", violations[0]);
    }

    /// Locality-driven object migration under lossless fault plans
    /// (duplicate / delay / pause), synth and Barnes-Hut: every phase
    /// completes with the migration-off digest and the migration oracles
    /// hold — see [`check_migrating_run`].
    #[test]
    fn migration_survives_lossless_faults(
        seed in any::<u64>(),
        nodes in 2u16..5,
        remote in 0.3f64..0.9,
        plan in 0usize..3,
    ) {
        let faults = match plan {
            0 => FaultPlan::duplicate(seed ^ 0xD0_D0, 0.5),
            1 => FaultPlan::delay(seed ^ 0xDE1A, 0.5, 80_000),
            _ => FaultPlan {
                pauses: vec![NodePause {
                    node: (seed % nodes as u64) as u16,
                    from_ns: 20_000,
                    until_ns: 160_000,
                }],
                ..FaultPlan::default()
            },
        };
        let opts = DstOptions {
            schedule_seed: Some(seed),
            faults,
            ..DstOptions::default()
        };
        let synth = synth_world(seed, nodes, remote);
        let mk = |i| SynthApp::new(synth.clone(), i, 200);
        check_migrating_run(nodes, &opts, false, mk, |app| app.sum);
        let bh = bh_world(seed, nodes);
        let mk = |i| BhApp::new(bh.clone(), i);
        check_migrating_run(nodes, &opts, false, mk, |app| app.interaction_hash);
    }

    /// The drop-plan sibling. A lost request or reply stalls its phase
    /// with a diagnosis; a lost `Affinity` only weakens the signal, so a
    /// phase can complete with packets dropped and must still produce the
    /// migration-off digest. The re-homing laws hold either way: a dropped
    /// packet can no longer lose an object or strand a request.
    #[test]
    fn migration_survives_drops(
        seed in any::<u64>(),
        nodes in 2u16..5,
        drop_p in 0.0005f64..0.01,
    ) {
        let opts = DstOptions {
            schedule_seed: Some(seed),
            faults: FaultPlan::drop(seed ^ 0x0D0D, drop_p),
            ..DstOptions::default()
        };
        let synth = synth_world(seed, nodes, 0.5);
        let mk = |i| SynthApp::new(synth.clone(), i, 200);
        check_migrating_run(nodes, &opts, true, mk, |app| app.sum);
        let bh = bh_world(seed, nodes);
        let mk = |i| BhApp::new(bh.clone(), i);
        check_migrating_run(nodes, &opts, true, mk, |app| app.interaction_hash);
    }

    /// Delay plans reorder but never lose: results and invariants match
    /// the fault-free run exactly.
    #[test]
    fn delays_reorder_but_preserve_results(
        seed in any::<u64>(),
        nodes in 2u16..5,
        delay_p in 0.1f64..0.9,
    ) {
        let world = synth_world(seed, nodes, 0.5);
        let expected: Vec<u64> = (0..nodes).map(|n| world.expected_sum(n)).collect();
        let opts = DstOptions {
            schedule_seed: Some(seed),
            faults: FaultPlan::delay(seed ^ 0xDE1A, delay_p, 80_000),
            ..DstOptions::default()
        };
        let mut sums = vec![0u64; nodes as usize];
        let (report, snaps) = run_phase_dst(
            nodes,
            NetConfig::default(),
            DpaConfig::dpa(4),
            &opts,
            |i| SynthApp::new(world.clone(), i, 200),
            |i, app| sums[i as usize] = app.sum,
        );
        prop_assert!(report.completed, "delay plan stalled: {}", report.stall_summary());
        prop_assert_eq!(&sums, &expected);
        prop_assert!(check_completed(&snaps, false).is_empty());
    }
}

/// Migration must move data, never results: the multi-phase integer
/// checksums are bit-identical with migration ON vs OFF and across strip
/// sizes {1, 4, 16}, on both the synthetic workload and Barnes-Hut.
#[test]
fn migration_and_strip_size_preserve_checksums() {
    let phases = 3usize;

    // Synthetic pointer chasing, 4 nodes.
    let world = synth_world(0xC0FFEE, 4, 0.6);
    let mut baseline: Option<Vec<u64>> = None;
    for strip in [1usize, 4, 16] {
        for migrate in [false, true] {
            let cfg = if migrate {
                DpaConfig::dpa_migrating(strip)
            } else {
                DpaConfig::dpa(strip)
            };
            let mut sums = vec![0u64; phases * 4];
            let (reports, snap_sets, _) = run_phases(
                4,
                NetConfig::default(),
                cfg,
                &DstOptions::default(),
                phases,
                |_, i| SynthApp::new(world.clone(), i, 200),
                |ph, i, app: &SynthApp| sums[ph * 4 + i as usize] = app.sum,
            );
            assert!(reports.iter().all(|r| r.completed));
            for snaps in &snap_sets {
                let v = check_completed(snaps, false);
                assert!(v.is_empty(), "strip={strip} migrate={migrate}: {}", v[0]);
            }
            match &baseline {
                None => baseline = Some(sums),
                Some(b) => assert_eq!(&sums, b, "strip={strip} migrate={migrate}"),
            }
        }
    }

    // Barnes-Hut, 4 nodes: the interaction checksum is a commutative sum,
    // so it must not feel placement, scheduling, or migration at all.
    let world = BhWorld::build(
        plummer(160, 71),
        4,
        8,
        BhParams::default(),
        BhCost::default(),
    );
    let mut baseline: Option<Vec<u64>> = None;
    for strip in [1usize, 4, 16] {
        for migrate in [false, true] {
            let cfg = if migrate {
                DpaConfig::dpa_migrating(strip)
            } else {
                DpaConfig::dpa(strip)
            };
            let mut hashes = vec![0u64; phases * 4];
            let (reports, _, _) = run_phases(
                4,
                NetConfig::default(),
                cfg,
                &DstOptions::default(),
                phases,
                |_, i| BhApp::new(world.clone(), i),
                |ph, i, app: &BhApp| hashes[ph * 4 + i as usize] = app.interaction_hash,
            );
            assert!(reports.iter().all(|r| r.completed));
            match &baseline {
                None => baseline = Some(hashes),
                Some(b) => assert_eq!(&hashes, b, "strip={strip} migrate={migrate}"),
            }
        }
    }
}

/// The paper's strip range on multi-phase Barnes-Hut: the interaction
/// checksums are bit-identical across strips {1, 50, 300}, and every
/// phase's snapshots pass the full invariant check.
#[test]
fn fixed_strips_preserve_bh_checksums() {
    let phases = 3usize;
    let nodes = 4u16;
    let world = BhWorld::build(plummer(160, 71), nodes, 8, BhParams::default(), BhCost::default());
    let mut baseline: Option<Vec<u64>> = None;
    for strip in [1usize, 50, 300] {
        let mut hashes = vec![0u64; phases * nodes as usize];
        let (reports, snap_sets, _) = run_phases(
            nodes,
            NetConfig::default(),
            DpaConfig::dpa(strip),
            &DstOptions::default(),
            phases,
            |_, i| BhApp::new(world.clone(), i),
            |ph, i, app: &BhApp| hashes[ph * nodes as usize + i as usize] = app.interaction_hash,
        );
        assert!(reports.iter().all(|r| r.completed), "strip={strip}: stalled");
        for snaps in &snap_sets {
            let v = check_completed(snaps, false);
            assert!(v.is_empty(), "strip={strip}: {}", v[0]);
        }
        match &baseline {
            None => baseline = Some(hashes),
            Some(b) => assert_eq!(&hashes, b, "strip={strip}: checksums diverged"),
        }
    }
}

/// Same oracle for FMM (both sub-phases, via the app driver): strips {1,
/// 50, 300} and migrating strip 50 produce the same combined interaction
/// checksum; and BH's single-phase runner plumbs its counter through.
#[test]
fn fixed_strips_preserve_fmm_checksums() {
    use dpa::apps::driver::{run_bh, run_fmm, Phases};
    use dpa::apps::fmm_dist::{FmmCost, FmmWorld};
    use dpa::nbody::cx::Cx;
    use dpa::nbody::distrib::uniform_square;
    use dpa::nbody::fmm::FmmParams;
    let particles = 256usize;
    let bodies = uniform_square(particles, 1997);
    let zs: Vec<Cx> = bodies.iter().map(|b| Cx::new(b.pos.x, b.pos.y)).collect();
    let qs: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
    let levels = dpa::nbody::quadtree::QuadTree::level_for(particles, 16);
    let world = FmmWorld::build(zs, qs, 4, FmmParams { terms: 8, levels }, FmmCost::default());
    let configs = [
        ("strip=1", DpaConfig::dpa(1)),
        ("strip=50", DpaConfig::dpa(50)),
        ("strip=300", DpaConfig::dpa(300)),
        ("mig strip=50", DpaConfig::dpa_migrating(50)),
    ];
    let mut baseline: Option<u64> = None;
    for (label, cfg) in configs {
        let hash = run_fmm(&world, cfg, NetConfig::default(), &DstOptions::default())
            .expect_completed()
            .counter("interaction_hash");
        match baseline {
            None => baseline = Some(hash),
            Some(b) => assert_eq!(hash, b, "{label}: checksum diverged"),
        }
    }
    let world = BhWorld::build(plummer(160, 71), 4, 8, BhParams::default(), BhCost::default());
    let hash_of = |cfg: DpaConfig| {
        run_bh(&world, cfg, NetConfig::default(), &DstOptions::default(), Phases::ONE)
            .expect_completed()
            .counter("interaction_hash")
    };
    let a = hash_of(DpaConfig::dpa(50));
    assert_eq!(a, hash_of(DpaConfig::dpa(1)), "single-phase BH checksum diverged");
    assert_ne!(a, 0, "hash plumbing returned the empty checksum");
}

/// Issue-9 regression: a single hot hub whose record spans several packets
/// and whose reply fan-out exceeds the owner's entry window. The owner must
/// force out partial batches (window overflow), segment the hub record at
/// the MTU, and still balance both the aggregate reply-path law and the
/// per-key hot-hub ledger — with the extra packets charged honestly, never
/// dropped from the accounting.
#[test]
fn hot_hub_reply_fanout_exceeds_entry_window() {
    use dpa::apps::graph_dist::{GraphApp, GraphParams, GraphWorld};
    use dpa::fastmsg::{packets_for, Mtu};

    // Vertex 0 (node 0) gets degree 2 + 120 = 122 edges: a 504-byte record
    // that spans 4+ packets at Mtu(128), while tail vertices stay tiny.
    let params = GraphParams {
        n: 64,
        nodes: 4,
        degree: 2,
        skew: 1.8,
        hub_extra: 120,
        phases: 1,
        rewire_permille: 0,
        root_stride: 3,
        seed: 0x040B_1337,
    };
    let world = GraphWorld::build(params);
    let hub = world.vptr(0);
    let hub_entry = world.vertex_bytes(0) + GPtr::WIRE_BYTES;
    let mtu = Mtu(128);
    assert!(
        packets_for(hub_entry, mtu) >= 3,
        "fixture lost its point: hub entry is {hub_entry}B, not multi-packet at {}B",
        mtu.0
    );
    let expected: Vec<(u64, u64)> = (0..4).map(|i| world.expected(0, i)).collect();

    let run = |mtu: Mtu, faults: FaultPlan| {
        let cfg = DpaConfig {
            mtu,
            reply_agg_window: 2, // hub fan-out (3 consumers x many entries) overflows this
            ..DpaConfig::dpa(4)
        };
        let mut got = vec![(0u64, 0u64); 4];
        let opts = DstOptions {
            faults,
            ..DstOptions::default()
        };
        let (report, snaps) = run_phase_dst(
            4,
            NetConfig::default(),
            cfg,
            &opts,
            |i| GraphApp::new(world.clone(), i, 0),
            |i, app: &GraphApp| got[i as usize] = (app.sum, app.reached),
        );
        assert!(report.completed, "stalled: {}", report.stall_summary());
        assert_eq!(got, expected, "closure checksum diverged at mtu {}", mtu.0);
        let v = check_completed(&snaps, false);
        assert!(v.is_empty(), "mtu {}: {}", mtu.0, v[0]);
        for s in &snaps {
            assert_eq!(
                s.reply_pushed,
                s.reply_sent + s.reply_buffered as u64,
                "reply scheduler leaked on n{}",
                s.node
            );
        }
        // The hub is node 0's hottest reply key, served at least once to
        // every remote node, and its per-key ledger balances exactly.
        let hot = &snaps[0].reply_hot;
        let (_, pushed, sent) = *hot
            .iter()
            .find(|&&(bits, _, _)| bits == hub.bits())
            .unwrap_or_else(|| panic!("hub missing from node-0 hot keys: {hot:?}"));
        assert_eq!(pushed, sent, "hub reply ledger unbalanced");
        assert!(pushed >= 3, "hub fan-out {pushed} < one serve per remote node");
        (report, snaps)
    };

    let (narrow, _) = run(mtu, FaultPlan::none());
    let (wide, _) = run(Mtu(4096), FaultPlan::none());
    // Honest multi-packet accounting: the narrow-MTU run segments the hub
    // record (and every over-window batch) into strictly more packets, and
    // every extra packet is charged as owner overhead — so total overhead
    // must strictly exceed the single-packet-per-message run's.
    let over = |r: &dpa::sim_net::RunReport| r.stats.sum(|s| s.overhead.as_ns());
    assert!(
        over(&narrow) > over(&wide),
        "extra packets not charged: narrow-MTU overhead {} <= wide-MTU {}",
        over(&narrow),
        over(&wide)
    );

    // Duplicated delivery double-serves requests; pushed and sent advance
    // together, so the per-key ledger must still balance.
    run(mtu, FaultPlan::duplicate(0xD0B, 0.5));
}
