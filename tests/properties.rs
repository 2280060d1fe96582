//! Cross-crate property-based tests (proptest): the invariants that make
//! the reproduction trustworthy, exercised over randomized inputs.

use dpa::compiler::{compile_source, IccApp, IccWorldBuilder, Value};
use dpa::global_heap::{GPtr, ObjClass};
use dpa::nbody::afmm::{AfmmParams, AfmmSolver};
use dpa::nbody::cx::Cx;
use dpa::nbody::body::direct_accel;
use dpa::nbody::distrib::uniform_cube;
use dpa::nbody::octree::Octree;
use dpa::runtime::synth::{SynthApp, SynthParams, SynthWorld};
use dpa::runtime::{
    check_completed, run_phase, run_phase_dst, DpaConfig, DstOptions, PendingRequests, PointerMap,
    SeqChannel,
};
use dpa::sim_net::{EventKey, NetConfig, TimingWheel, WheelItem};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

/// Minimal wheel payload for the queue-model property: the key is the
/// whole item.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Keyed(EventKey);

impl WheelItem for Keyed {
    fn key(&self) -> EventKey {
        self.0
    }
}

/// M as it was before the record slab — a private `Vec` of waiting
/// threads per interned pointer, kept (cleared, not dropped) across release
/// cycles — as the model the slab is held to.
#[derive(Default)]
struct ListsModel {
    ids: HashMap<GPtr, u32>,
    ptrs: Vec<GPtr>,
    waiters: Vec<Vec<u64>>,
    nonempty: usize,
    live_threads: u64,
    peak_threads: u64,
    peak_keys: u64,
    total_aligned: u64,
}

impl ListsModel {
    fn align(&mut self, ptr: GPtr, thread: u64) -> bool {
        self.total_aligned += 1;
        self.live_threads += 1;
        self.peak_threads = self.peak_threads.max(self.live_threads);
        let id = *self.ids.entry(ptr).or_insert_with(|| {
            self.ptrs.push(ptr);
            self.waiters.push(Vec::new());
            self.ptrs.len() as u32 - 1
        });
        let list = &mut self.waiters[id as usize];
        list.push(thread);
        let first = list.len() == 1;
        if first {
            self.nonempty += 1;
            self.peak_keys = self.peak_keys.max(self.nonempty as u64);
        }
        first
    }

    fn release(&mut self, ptr: GPtr) -> Vec<u64> {
        let Some(&id) = self.ids.get(&ptr) else {
            return Vec::new();
        };
        let list = std::mem::take(&mut self.waiters[id as usize]);
        if !list.is_empty() {
            self.live_threads -= list.len() as u64;
            self.nonempty -= 1;
        }
        list
    }

    fn waiters(&self, ptr: GPtr) -> usize {
        self.ids.get(&ptr).map_or(0, |&id| self.waiters[id as usize].len())
    }

    fn reset_for_phase(&mut self) {
        self.waiters.iter_mut().for_each(Vec::clear);
        self.nonempty = 0;
        self.live_threads = 0;
        self.peak_threads = 0;
        self.peak_keys = 0;
        self.total_aligned = 0;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every execution variant computes the same checksums on random
    /// worlds — the core "scheduling never changes semantics" guarantee —
    /// and stays correct under seeded schedule perturbation: permuted
    /// event tie-breaks plus message jitter must leave the (integer)
    /// checksums bit-identical and drain the M/D tables.
    #[test]
    fn variants_agree_on_random_worlds(
        seed in any::<u64>(),
        nodes in 1u16..6,
        lists in 1usize..12,
        len in 1usize..24,
        remote in 0.0f64..0.9,
        shared in 0.0f64..0.9,
        strip in 1usize..20,
    ) {
        let world = SynthWorld::build(SynthParams {
            nodes,
            lists_per_node: lists,
            list_len: len,
            remote_fraction: remote,
            shared_fraction: shared,
            record_bytes: 32,
            work_ns: 200,
            seed,
        });
        let expected: Vec<u64> = (0..nodes).map(|n| world.expected_sum(n)).collect();
        for cfg in [DpaConfig::dpa(strip), DpaConfig::caching(), DpaConfig::blocking()] {
            let mut sums = vec![0u64; nodes as usize];
            run_phase(
                nodes,
                NetConfig::default(),
                cfg.clone(),
                |i| SynthApp::new(world.clone(), i, 200),
                |i, app| sums[i as usize] = app.sum,
            );
            prop_assert_eq!(&sums, &expected);

            for perturb in 0..3u64 {
                let opts = DstOptions {
                    schedule_seed: Some(seed ^ (perturb.wrapping_mul(0x9E37_79B9_7F4A_7C15))),
                    ..DstOptions::default()
                };
                let net = NetConfig { jitter_ns: 3_000, ..NetConfig::default() };
                let mut psums = vec![0u64; nodes as usize];
                let (report, snaps) = run_phase_dst(
                    nodes,
                    net,
                    cfg.clone(),
                    &opts,
                    |i| SynthApp::new(world.clone(), i, 200),
                    |i, app| psums[i as usize] = app.sum,
                );
                prop_assert!(report.completed, "perturbed schedule stalled: {}", report.stall_summary());
                prop_assert_eq!(&psums, &expected);
                let violations = check_completed(&snaps, false);
                prop_assert!(violations.is_empty(), "invariant violated: {}", violations[0]);
            }
        }
    }

    /// The strip size never changes results, only schedules.
    #[test]
    fn strip_size_is_semantics_preserving(
        seed in any::<u64>(),
        strip_a in 1usize..8,
        strip_b in 8usize..200,
    ) {
        let world = SynthWorld::build(SynthParams {
            nodes: 4,
            lists_per_node: 10,
            list_len: 12,
            remote_fraction: 0.5,
            shared_fraction: 0.5,
            record_bytes: 32,
            work_ns: 100,
            seed,
        });
        let run = |strip: usize| {
            let mut sums = vec![0u64; 4];
            run_phase(
                4,
                NetConfig::default(),
                DpaConfig::dpa(strip),
                |i| SynthApp::new(world.clone(), i, 100),
                |i, app| sums[i as usize] = app.sum,
            );
            sums
        };
        prop_assert_eq!(run(strip_a), run(strip_b));
    }

    /// Identical inputs produce identical simulated times (determinism).
    #[test]
    fn simulation_is_deterministic(seed in any::<u64>()) {
        let world = SynthWorld::build(SynthParams {
            nodes: 3,
            lists_per_node: 6,
            list_len: 10,
            remote_fraction: 0.4,
            shared_fraction: 0.3,
            record_bytes: 32,
            work_ns: 300,
            seed,
        });
        let t = |_: ()| {
            run_phase(
                3,
                NetConfig::default(),
                DpaConfig::dpa(4),
                |i| SynthApp::new(world.clone(), i, 300),
                |_, _| {},
            )
            .makespan()
        };
        prop_assert_eq!(t(()), t(()));
    }

    /// The M mapping conserves threads against a model map under arbitrary
    /// align/release interleavings: release returns exactly the aligned
    /// waiters in insertion order, `live_threads` never drifts (so it can
    /// never underflow), and the peak counters are monotone high-water
    /// marks of the true live state.
    #[test]
    fn pointer_map_matches_model_under_interleavings(
        seed in any::<u64>(),
        ops in 1usize..400,
        key_space in 1u64..24,
        release_p in 0.05f64..0.6,
    ) {
        let mut rng = dpa::sim_net::Rng::new(seed);
        let mut m: PointerMap<u64> = PointerMap::new();
        let mut model: HashMap<GPtr, Vec<u64>> = HashMap::new();
        let mut prev_peak_threads = 0u64;
        let mut prev_peak_keys = 0u64;
        let mut aligned_total = 0u64;
        for op in 0..ops as u64 {
            let ptr = GPtr::new(rng.below(4) as u16, ObjClass(0), rng.below(key_space));
            if rng.chance(release_p) {
                let got = m.release(ptr);
                let want = model.remove(&ptr).unwrap_or_default();
                prop_assert_eq!(
                    got, want,
                    "release must return exactly the aligned waiters, in order"
                );
            } else {
                let first = m.align(ptr, op);
                aligned_total += 1;
                let v = model.entry(ptr).or_default();
                v.push(op);
                prop_assert_eq!(
                    first,
                    v.len() == 1,
                    "the first-waiter signal is what triggers a request"
                );
            }
            let live: u64 = model.values().map(|v| v.len() as u64).sum();
            prop_assert_eq!(m.live_threads(), live, "live_threads drifted");
            prop_assert_eq!(m.keys(), model.len());
            prop_assert_eq!(m.is_empty(), model.is_empty());
            prop_assert!(
                m.peak_threads() >= prev_peak_threads.max(live),
                "peak_threads must be a monotone high-water mark"
            );
            prop_assert!(m.peak_keys() >= prev_peak_keys.max(model.len() as u64));
            prev_peak_threads = m.peak_threads();
            prev_peak_keys = m.peak_keys();
            prop_assert_eq!(m.total_aligned(), aligned_total);
        }
    }

    /// The record slab behind M is observationally the table of private
    /// per-pointer lists it replaced ([`ListsModel`], the previous
    /// implementation kept as the model): over arbitrary interleavings of
    /// `align`, the three releases, re-alignment under a released pointer
    /// and `reset_for_phase`, both give the same first-waiter signals, the
    /// same released sequences and the same counters — while the slab
    /// chains many pointers through shared, reused records.
    #[test]
    fn slab_pointer_map_matches_the_per_pointer_lists_it_replaced(
        seed in any::<u64>(),
        ops in 1usize..600,
        key_space in 1u64..12,
        release_p in 0.05f64..0.6,
        reset_p in 0.0f64..0.02,
    ) {
        let mut rng = dpa::sim_net::Rng::new(seed);
        let mut slab: PointerMap<u64> = PointerMap::new();
        let mut lists = ListsModel::default();
        let (mut got, mut want) = (vec![7u64], vec![7u64]);
        for op in 0..ops as u64 {
            let ptr = GPtr::new(rng.below(3) as u16, ObjClass(0), rng.below(key_space));
            if rng.chance(reset_p) {
                slab.reset_for_phase();
                lists.reset_for_phase();
            } else if rng.chance(release_p) {
                // Each release appends after what the caller already holds.
                let released = lists.release(ptr);
                match rng.below(3) {
                    0 => {
                        got.extend(slab.release(ptr));
                        want.extend(released);
                    }
                    1 => {
                        slab.release_into(ptr, &mut got);
                        want.extend(released);
                    }
                    _ => {
                        slab.release_with(ptr, &mut got, |w| w ^ op);
                        want.extend(released.into_iter().map(|w| w ^ op));
                    }
                }
                prop_assert_eq!(&got, &want, "released sequences diverged");
                prop_assert_eq!(slab.waiters(ptr), 0);
            } else {
                prop_assert_eq!(slab.align(ptr, op), lists.align(ptr, op));
            }
            prop_assert_eq!(slab.waiters(ptr), lists.waiters(ptr));
            prop_assert_eq!(slab.keys(), lists.nonempty);
            prop_assert_eq!(slab.live_threads(), lists.live_threads);
            prop_assert_eq!(slab.peak_threads(), lists.peak_threads);
            prop_assert_eq!(slab.peak_keys(), lists.peak_keys);
            prop_assert_eq!(slab.total_aligned(), lists.total_aligned);
            prop_assert_eq!(slab.interned(), lists.ptrs.len());
        }
    }

    /// Patching the M mapping across a phase barrier is observationally
    /// equivalent to rebuilding it: after an arbitrary first-phase
    /// align/release history and a `reset_for_phase`, a second arbitrary
    /// history drives the patched map through *exactly* the states a
    /// fresh map would visit — same first-waiter signals, same release
    /// sets, same live/peak/total counters. The only allowed difference
    /// is the retained interner (warm dense ids), which is what makes
    /// differential re-alignment cheap without changing semantics.
    #[test]
    fn phase_patched_map_equals_rebuilt_map(
        seed in any::<u64>(),
        ops_a in 0usize..200,
        ops_b in 1usize..200,
        key_space in 1u64..24,
        release_p in 0.05f64..0.6,
    ) {
        let mut rng = dpa::sim_net::Rng::new(seed);
        let mut patched: PointerMap<u64> = PointerMap::new();
        // Phase A: arbitrary history establishing a warm interner and
        // leftover waiters (carried entries may cover some of them).
        for op in 0..ops_a as u64 {
            let ptr = GPtr::new(rng.below(4) as u16, ObjClass(0), rng.below(key_space));
            if rng.chance(release_p) {
                patched.release(ptr);
            } else {
                patched.align(ptr, op);
            }
        }
        let interned_a = patched.interned();
        patched.reset_for_phase();
        prop_assert_eq!(patched.interned(), interned_a, "the interner must survive the barrier");
        // Phase B: the *same* delta applied to the patched map and to a
        // rebuilt-from-scratch map must be indistinguishable.
        let mut rebuilt: PointerMap<u64> = PointerMap::new();
        for op in 0..ops_b as u64 {
            let ptr = GPtr::new(rng.below(4) as u16, ObjClass(0), rng.below(key_space));
            if rng.chance(release_p) {
                prop_assert_eq!(
                    patched.release(ptr),
                    rebuilt.release(ptr),
                    "release sets diverged after the patch"
                );
            } else {
                prop_assert_eq!(
                    patched.align(ptr, op),
                    rebuilt.align(ptr, op),
                    "first-waiter signal diverged after the patch"
                );
            }
            prop_assert_eq!(patched.live_threads(), rebuilt.live_threads());
            prop_assert_eq!(patched.keys(), rebuilt.keys());
            prop_assert_eq!(patched.is_empty(), rebuilt.is_empty());
            prop_assert_eq!(patched.peak_threads(), rebuilt.peak_threads());
            prop_assert_eq!(patched.peak_keys(), rebuilt.peak_keys());
            prop_assert_eq!(patched.total_aligned(), rebuilt.total_aligned());
        }
        prop_assert!(
            patched.interned() >= rebuilt.interned(),
            "warm ids may only be reused, never forgotten"
        );
    }

    /// The timing wheel is observationally equal to a binary heap ordered
    /// by the full `(time, tie, src, seq)` event key, under arbitrary
    /// interleavings of near-monotone pushes, pops, and peeks — including
    /// far-future spikes that must round-trip through the overflow list.
    /// This is the model behind the simulator's queue swap: `peek_key`
    /// after every op, full-order equality on the final drain.
    #[test]
    fn timing_wheel_matches_heap_model(
        seed in any::<u64>(),
        ops in 1usize..600,
        spike_p in 0.0f64..0.2,
        pop_p in 0.1f64..0.6,
    ) {
        let mut rng = dpa::sim_net::Rng::new(seed);
        let mut wheel: TimingWheel<Keyed> = TimingWheel::new();
        let mut heap: BinaryHeap<Reverse<EventKey>> = BinaryHeap::new();
        let mut t = 0u64;
        let mut seq = 0u64;
        for _ in 0..ops {
            if rng.chance(pop_p) {
                let got = wheel.pop().map(|i| i.0);
                let want = heap.pop().map(|Reverse(k)| k);
                prop_assert_eq!(got, want, "pop order diverged from the heap model");
            } else {
                // Near-monotone base time, as the simulator produces, with
                // occasional far-future spikes (pause wakeups, deadline
                // wakes) that land past the wheel's ring window.
                t += rng.below(5_000);
                let time = if rng.chance(spike_p) {
                    t + 5_000_000 + rng.below(100_000_000)
                } else {
                    t
                };
                // Unique seq per push mirrors the machine's per-source
                // sequence numbers: full keys never tie.
                let key = EventKey {
                    time,
                    tie: rng.below(1 << 32),
                    src: rng.below(16) as u16,
                    seq,
                };
                seq += 1;
                wheel.push(Keyed(key));
                heap.push(Reverse(key));
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.peek_key(), heap.peek().map(|Reverse(k)| *k));
        }
        while let Some(i) = wheel.pop() {
            prop_assert_eq!(Some(i.0), heap.pop().map(|Reverse(k)| k));
        }
        prop_assert!(heap.pop().is_none(), "wheel drained before the model");
    }

    /// The SoA pending-request table matches a set model under arbitrary
    /// insert/complete interleavings, its dense-id interner never forgets
    /// or re-assigns an id, and its snapshots (`sorted_sample`, sorted
    /// `iter`) depend only on the outstanding *set* — not on the order the
    /// requests were issued in.
    #[test]
    fn pending_requests_match_set_model(
        seed in any::<u64>(),
        ops in 1usize..400,
        key_space in 1u64..24,
        complete_p in 0.05f64..0.6,
    ) {
        let mut rng = dpa::sim_net::Rng::new(seed);
        let mut d = PendingRequests::new();
        let mut model: HashSet<GPtr> = HashSet::new();
        let mut ever: Vec<GPtr> = Vec::new(); // first-request order
        let mut total = 0u64;
        let mut peak = 0u64;
        for _ in 0..ops {
            let ptr = GPtr::new(rng.below(4) as u16, ObjClass(0), rng.below(key_space));
            if rng.chance(complete_p) {
                prop_assert_eq!(d.complete(ptr), model.remove(&ptr));
            } else {
                let fresh = model.insert(ptr);
                prop_assert_eq!(d.insert(ptr), fresh, "duplicate suppression diverged");
                if fresh {
                    total += 1;
                    if !ever.contains(&ptr) {
                        ever.push(ptr);
                    }
                }
                peak = peak.max(model.len() as u64);
            }
            prop_assert_eq!(d.len(), model.len());
            prop_assert_eq!(d.is_empty(), model.is_empty());
            for p in &model {
                prop_assert!(d.contains(*p));
            }
        }
        prop_assert_eq!(d.total(), total);
        prop_assert_eq!(d.peak(), peak);
        // Dense-id interning: every pointer ever requested has a permanent
        // id, and iteration yields exactly the outstanding set in
        // first-request order.
        prop_assert_eq!(d.interned(), ever.len());
        let got: Vec<GPtr> = d.iter().copied().collect();
        let want: Vec<GPtr> = ever.iter().copied().filter(|p| model.contains(p)).collect();
        prop_assert_eq!(got, want, "iter must follow first-request (dense-id) order");
        // Snapshot order-independence: rebuild the same outstanding set in
        // sorted (≠ historical) order; samples must be byte-identical.
        let mut rebuilt = PendingRequests::new();
        let mut sorted: Vec<GPtr> = model.iter().copied().collect();
        sorted.sort_unstable();
        for p in &sorted {
            rebuilt.insert(*p);
        }
        prop_assert_eq!(rebuilt.sorted_sample(4), d.sorted_sample(4));
        prop_assert_eq!(rebuilt.sorted_sample(usize::MAX), d.sorted_sample(usize::MAX));
    }

    /// The per-link watermark dedup accepts and rejects exactly what a set
    /// of every `(sender, seq)` ever received does, on arbitrary link
    /// histories: each sender's 0, 1, 2, … stream loses messages for good
    /// (a permanent gap the watermark never crosses), duplicates some, and
    /// delays deliveries by up to `reach` positions, with the senders
    /// interleaved and a stranger from outside the machine talking over
    /// them.
    #[test]
    fn seq_channel_dedups_like_a_set_of_pairs(
        seed in any::<u64>(),
        senders in 1u16..6,
        msgs in 1u64..300,
        drop_p in 0.0f64..0.2,
        dup_p in 0.0f64..0.4,
        reach in 0u64..200,
    ) {
        let mut rng = dpa::sim_net::Rng::new(seed);
        // (arrival position, sender, seq): a delivery's position is its
        // send index plus a delay, and a duplicate gets its own delay.
        let mut wire: Vec<(u64, u16, u64)> = Vec::new();
        for sender in 0..senders {
            for seq in 0..msgs {
                if rng.chance(drop_p) {
                    continue;
                }
                for _ in 0..1 + u64::from(rng.chance(dup_p)) + u64::from(rng.chance(dup_p / 4.0)) {
                    wire.push((seq + rng.below(reach + 1), sender, seq));
                }
            }
        }
        for _ in 0..rng.below(4) {
            wire.push((rng.below(msgs), senders + rng.below(3) as u16, rng.below(msgs)));
        }
        // Stable, so the senders interleave by position and ties keep the
        // order they were listed in.
        wire.sort_by_key(|&(at, _, _)| at);

        let mut ch = SeqChannel::new(senders as usize);
        let mut model: HashSet<(u16, u64)> = HashSet::new();
        let (mut recv, mut strangers) = (0u64, 0u64);
        for &(_, sender, seq) in &wire {
            let entries = rng.below(5) as usize;
            let fresh = sender < senders && model.insert((sender, seq));
            strangers += u64::from(sender >= senders);
            recv += if fresh { entries as u64 } else { 0 };
            prop_assert_eq!(ch.accept(sender, seq, entries), fresh, "({}, {})", sender, seq);
            prop_assert_eq!(ch.entries_recv(), recv);
        }
        prop_assert_eq!(ch.refused(), strangers);
        // Everything delivered is now a duplicate, whether the watermark
        // or the tail remembers it.
        for &(sender, seq) in &model {
            prop_assert!(!ch.accept(sender, seq, 1), "({}, {}) accepted twice", sender, seq);
        }
        prop_assert_eq!(ch.entries_recv(), recv);
    }

    /// Each link is numbered on its own: whatever order a sender
    /// interleaves its destinations in, every destination sees 0, 1, 2, …
    #[test]
    fn seq_channel_stamps_each_link_from_zero(seed in any::<u64>(), nodes in 1u16..9, sends in 0usize..200) {
        let mut rng = dpa::sim_net::Rng::new(seed);
        let mut ch = SeqChannel::new(nodes as usize);
        let mut next = vec![0u64; nodes as usize];
        for _ in 0..sends {
            let dst = rng.below(nodes as u64) as u16;
            prop_assert_eq!(ch.stamp(dst, 1), next[dst as usize]);
            next[dst as usize] += 1;
        }
    }

    /// Global pointers round-trip through their packed representation.
    #[test]
    fn gptr_roundtrip(node in 0u16..u16::MAX, class in 0u8..255, idx in 0u64..(1u64 << 39)) {
        let p = GPtr::new(node, ObjClass(class), idx);
        prop_assert_eq!(p.node(), node);
        prop_assert_eq!(p.class(), ObjClass(class));
        prop_assert_eq!(p.index(), idx);
        prop_assert_eq!(GPtr::from_bits(p.bits()), p);
        prop_assert!(!p.is_null());
    }

    /// Compiled Mini-ICC tree sums match a host oracle on random tree
    /// shapes, owner scatters, and strip sizes — the whole pipeline
    /// (parse → partition → interpret → schedule → simulate) as one
    /// property.
    #[test]
    fn compiled_tree_sum_matches_oracle(
        seed in any::<u64>(),
        depth in 1u32..6,
        nodes in 1u16..5,
        strip in 1usize..12,
    ) {
        let prog = compile_source(
            "struct T { l: T*; r: T*; v: int; }
             fn sum(t: T*) -> int {
               if (t == null) { return 0; }
               let a: int = 0;
               let b: int = 0;
               conc { a = sum(t->l); b = sum(t->r); }
               return a + b + t->v;
             }",
        ).unwrap();
        let mut b = IccWorldBuilder::new(prog, "sum", nodes);
        let mut rng = dpa::sim_net::Rng::new(seed);
        fn build(
            b: &mut IccWorldBuilder,
            rng: &mut dpa::sim_net::Rng,
            nodes: u16,
            depth: u32,
        ) -> (Value, i64) {
            if depth == 0 || rng.chance(0.2) {
                return (Value::Ptr(GPtr::NULL), 0);
            }
            let (l, ls) = build(b, rng, nodes, depth - 1);
            let (r, rs) = build(b, rng, nodes, depth - 1);
            let v = rng.below(1000) as i64;
            let owner = rng.below(nodes as u64) as u16;
            let p = b.alloc(owner, "T", vec![l, r, Value::Int(v)]);
            (Value::Ptr(p), ls + rs + v)
        }
        let mut expected = 0i64;
        for node in 0..nodes {
            let (root, sum) = build(&mut b, &mut rng, nodes, depth);
            if let Value::Ptr(p) = root {
                if p.is_null() {
                    continue;
                }
            }
            b.add_root(node, vec![root]);
            expected += sum;
        }
        let world = b.build();
        let mut total = 0i64;
        run_phase(
            nodes,
            NetConfig::default(),
            DpaConfig::dpa(strip),
            |i| IccApp::new(world.clone(), i),
            |_, app: &IccApp| total += app.int_sum,
        );
        prop_assert_eq!(total, expected);
    }

    /// The adaptive FMM matches direct summation on random inputs.
    #[test]
    fn adaptive_fmm_matches_direct(seed in any::<u64>(), n in 30usize..150) {
        let mut rng = dpa::sim_net::Rng::new(seed);
        let zs: Vec<Cx> = (0..n)
            .map(|_| Cx::new(
                0.001 + 0.998 * rng.unit_f64(),
                0.001 + 0.998 * rng.unit_f64(),
            ))
            .collect();
        let qs: Vec<f64> = (0..n).map(|_| 0.1 + rng.unit_f64()).collect();
        let mut s = AfmmSolver::new(zs, qs, AfmmParams {
            terms: 20,
            leaf_cap: 6,
            max_level: 10,
        });
        s.downward();
        let got = s.evaluate();
        let exact = s.direct();
        for (a, b) in got.iter().zip(&exact) {
            let err = (*a - *b).abs() / b.abs().max(1e-9);
            prop_assert!(err < 1e-6, "err {}", err);
        }
    }

    /// The power-law graph generator is a pure function of its params:
    /// two builds agree edge-for-edge and generation-for-generation, and
    /// the distributed closure over the same world is bit-identical
    /// across event-queue engines and simulator thread counts.
    #[test]
    fn graph_generator_deterministic_across_engines(
        seed in any::<u64>(),
        n in 24usize..80,
        degree in 1usize..4,
    ) {
        use dpa::apps::graph_dist::{GraphApp, GraphParams, GraphWorld};
        use dpa::sim_net::QueueKind;
        let params = GraphParams { n, degree, seed, ..GraphParams::default() };
        let a = GraphWorld::build(params);
        let b = GraphWorld::build(params);
        for ph in 0..3u32 {
            for v in 0..n as u32 {
                prop_assert_eq!(a.out(ph, v), b.out(ph, v), "phase {} vertex {}", ph, v);
                prop_assert_eq!(a.gen_at(ph, v), b.gen_at(ph, v));
            }
        }
        let mut baseline: Option<[(u64, u64); 4]> = None;
        for (queue, threads) in [
            (QueueKind::Wheel, 1usize),
            (QueueKind::ShadowHeap, 1),
            (QueueKind::Wheel, 4),
        ] {
            let opts = DstOptions { queue, threads, ..DstOptions::default() };
            let mut got = [(0u64, 0u64); 4];
            let (report, snaps) = run_phase_dst(
                4,
                NetConfig::default(),
                DpaConfig::dpa(4),
                &opts,
                |i| GraphApp::new(a.clone(), i, 1),
                |i, app: &GraphApp| got[i as usize] = (app.sum, app.reached),
            );
            prop_assert!(report.completed, "stalled: {}", report.stall_summary());
            let v = check_completed(&snaps, false);
            prop_assert!(v.is_empty(), "violation: {}", v[0]);
            match &baseline {
                None => baseline = Some(got),
                Some(base) => prop_assert_eq!(
                    &got, base, "engine ({:?}, {} threads) diverged", queue, threads
                ),
            }
        }
    }

    /// Degree-distribution sanity above skew 1.5: the generator really
    /// produces a hub — vertex 0's in-degree dominates the mean, and its
    /// record is fatter than the tail's.
    #[test]
    fn graph_skew_produces_a_hub(
        seed in any::<u64>(),
        n in 48usize..160,
        skew in 1.5f64..2.5,
    ) {
        use dpa::apps::graph_dist::{GraphParams, GraphWorld};
        let w = GraphWorld::build(GraphParams { n, skew, seed, ..GraphParams::default() });
        let indeg = w.in_degrees(0);
        let max = *indeg.iter().max().expect("non-empty");
        let hub = indeg.iter().position(|&d| d == max).expect("max exists") as u32;
        let mean = indeg.iter().map(|&d| d as f64).sum::<f64>() / n as f64;
        prop_assert!(
            max as f64 > 3.0 * mean,
            "no hub at skew {}: max in-degree {} vs mean {:.1}", skew, max, mean
        );
        // The hub is an early (low-index) vertex with an outsized record.
        prop_assert!(hub < (n / 8).max(1) as u32, "hub {} not in the head", hub);
        let tail = w.vertex_bytes(n as u32 - 1);
        prop_assert!(
            w.vertex_bytes(0) > 2 * tail,
            "hub record {}B not outsized vs tail {}B", w.vertex_bytes(0), tail
        );
    }

    /// The distributed semi-naive closure equals an *independent*
    /// sequential reference (Floyd–Warshall reachability, not the world's
    /// own BFS oracle) on small graphs, at a mutated as well as the
    /// initial phase.
    #[test]
    fn graph_closure_matches_sequential_reference(
        seed in any::<u64>(),
        n in 16usize..48,
        phase in 0u32..3,
    ) {
        use dpa::apps::graph_dist::{GraphApp, GraphParams, GraphWorld};
        use dpa::runtime::DiffPlan;
        let w = GraphWorld::build(GraphParams { n, seed, ..GraphParams::default() });
        // Reference closure: boolean reachability matrix of this phase's
        // edge lists, closed by Floyd–Warshall.
        let mut reach = vec![false; n * n];
        for v in 0..n {
            reach[v * n + v] = true;
            for &t in w.out(phase, v as u32) {
                reach[v * n + t as usize] = true;
            }
        }
        for k in 0..n {
            for i in 0..n {
                if reach[i * n + k] {
                    for j in 0..n {
                        if reach[k * n + j] {
                            reach[i * n + j] = true;
                        }
                    }
                }
            }
        }
        let mut got = [(0u64, 0u64); 4];
        let (report, _) = run_phase_dst(
            4,
            NetConfig::default(),
            DpaConfig::dpa(4),
            &DstOptions::default(),
            |i| GraphApp::new(w.clone(), i, phase),
            |i, app: &GraphApp| got[i as usize] = (app.sum, app.reached),
        );
        prop_assert!(report.completed, "stalled: {}", report.stall_summary());
        for node in 0..4u16 {
            let mut sum = 0u64;
            let mut reached = 0u64;
            for root in w.roots(node) {
                for v in 0..n {
                    if reach[root as usize * n + v] {
                        sum = sum.wrapping_add(DiffPlan::stamp(
                            w.vptr(v as u32),
                            w.gen_at(phase, v as u32),
                        ));
                        reached += 1;
                    }
                }
            }
            prop_assert_eq!(
                got[node as usize], (sum, reached),
                "node {} closure diverged from Floyd–Warshall reference", node
            );
        }
    }

    /// The distributed setops run agrees with a `BTreeSet` model: range
    /// sums against the initial set, final membership after applying every
    /// node's (machine-wide distinct) insert/delete batch.
    #[test]
    fn setops_matches_btreeset_model(
        seed in any::<u64>(),
        universe in 256u64..1024,
        ops_per_node in 8usize..48,
        fill in 100u32..900,
    ) {
        use dpa::apps::setops_dist::{key_stamp, SetOp, SetopsApp, SetopsParams, SetopsWorld};
        use std::collections::BTreeSet;
        let ops_per_node = ops_per_node.min(universe as usize / 4);
        let w = SetopsWorld::build(SetopsParams {
            universe,
            ops_per_node,
            fill_permille: fill,
            seed,
            ..SetopsParams::default()
        });
        let initial: BTreeSet<u64> =
            (0..universe).filter(|&k| w.initially_present(k)).collect();
        // Model: ranges read the initial set (phase-immutable reads);
        // mutations land at the barrier. Keys are machine-wide distinct,
        // so application order cannot matter.
        let mut model = initial.clone();
        let mut model_range = [0u64; 4];
        for node in 0..4u16 {
            for op in w.batch(node) {
                match *op {
                    SetOp::Insert(k) => { model.insert(k); }
                    SetOp::Delete(k) => { model.remove(&k); }
                    SetOp::Range(lo, hi) => {
                        for &k in initial.range(lo..hi) {
                            model_range[node as usize] =
                                model_range[node as usize].wrapping_add(key_stamp(k));
                        }
                    }
                }
            }
        }
        let mut got = [(0u64, 0u64); 4];
        let (report, snaps) = run_phase_dst(
            4,
            NetConfig::default(),
            DpaConfig::dpa(4),
            &DstOptions::default(),
            |i| SetopsApp::new(w.clone(), i),
            |i, app: &SetopsApp| got[i as usize] = (app.range_sum, app.final_digest()),
        );
        prop_assert!(report.completed, "stalled: {}", report.stall_summary());
        let v = check_completed(&snaps, false);
        prop_assert!(v.is_empty(), "violation: {}", v[0]);
        for node in 0..4u16 {
            let digest: u64 = model
                .iter()
                .filter(|&&k| w.bucket_range(node).contains(&w.bucket_of(k)))
                .fold(0u64, |acc, &k| acc.wrapping_add(key_stamp(k)));
            prop_assert_eq!(
                got[node as usize],
                (model_range[node as usize], digest),
                "node {} diverged from the BTreeSet model", node
            );
        }
    }

    /// The rank/prefix index answers exactly what the key scan it replaced
    /// answered — on the path no generated workload takes: universes and
    /// bucket widths that are not multiples of the 64-key word, ranges
    /// aligned to nothing. Every case also builds the all-empty and the
    /// all-full world (every word 0 / every word full) and folds the empty
    /// range and the ranges that end at the universe's end.
    #[test]
    fn setops_fold_matches_the_naive_scan(
        seed in any::<u64>(),
        universe in 130u64..3000,
        buckets in 4usize..40,
        fill in 1u32..1000,
        x in any::<u64>(),
        y in any::<u64>(),
    ) {
        use dpa::apps::setops_dist::{key_stamp, SetopsParams, SetopsWorld};
        let universe = universe | 1;
        let mut buckets = buckets;
        while universe.div_ceil(buckets as u64) % 64 == 0 {
            buckets += 1;
        }
        let (x, y) = (x % (universe + 1), y % (universe + 1));
        let (lo, hi) = (x.min(y), x.max(y));
        for fill_permille in [0, fill, 1000] {
            let w = SetopsWorld::build(SetopsParams {
                universe,
                buckets,
                ops_per_node: 8,
                fill_permille,
                seed,
                ..SetopsParams::default()
            });
            let scan = |lo: u64, hi: u64| {
                (lo..hi)
                    .filter(|&k| w.initially_present(k))
                    .fold((0u64, 0u64), |(n, s), k| (n + 1, s.wrapping_add(key_stamp(k))))
            };
            for (lo, hi) in [(lo, hi), (lo, lo), (hi, hi), (lo, universe), (0, hi), (0, universe)] {
                prop_assert_eq!(
                    w.fold(lo, hi), scan(lo, hi),
                    "fold({}, {}) at fill {}", lo, hi, fill_permille
                );
            }
            let members = w.fold(0, universe).0;
            match fill_permille {
                0 => prop_assert_eq!(members, 0),
                1000 => prop_assert_eq!(members, universe),
                _ => {}
            }
            for b in 0..buckets {
                let keys = w.key_range(b);
                prop_assert!(keys.start <= keys.end && keys.end <= universe);
                prop_assert_eq!(
                    w.bucket_bytes(b) as u64,
                    24 + 8 * scan(keys.start, keys.end).0,
                    "bucket {}", b
                );
            }
        }
    }

    /// The membership digest a node keeps incrementally is the digest of
    /// the membership it holds: after a full run under duplicated and
    /// delayed delivery, `final_digest()` equals a from-scratch recompute
    /// over the owned bitset (an insert of a present key or a delete of
    /// an absent one — about half of all mutations — must have left it
    /// alone, a duplicated `Update` must not have counted twice) and the
    /// host oracle's.
    #[test]
    fn setops_incremental_digest_matches_a_recompute_under_faults(
        seed in any::<u64>(),
        universe in 256u64..1024,
        ops_per_node in 8usize..48,
        fill in 100u32..900,
    ) {
        use dpa::apps::setops_dist::{key_stamp, SetopsApp, SetopsParams, SetopsWorld};
        use dpa::sim_net::FaultPlan;
        let w = SetopsWorld::build(SetopsParams {
            universe,
            ops_per_node: ops_per_node.min(universe as usize / 4),
            fill_permille: fill,
            seed,
            ..SetopsParams::default()
        });
        for faults in [
            FaultPlan::duplicate(seed ^ 0xD1, 0.10),
            FaultPlan::delay(seed ^ 0xD2, 0.30, 40_000),
        ] {
            let mut got = [(0u64, 0u64); 4];
            let (report, _) = run_phase_dst(
                4,
                NetConfig::default(),
                DpaConfig::dpa(4),
                &DstOptions { faults, ..DstOptions::default() },
                |i| SetopsApp::new(w.clone(), i),
                |i, app: &SetopsApp| {
                    let recomputed = w
                        .owned_keys(i)
                        .filter(|&k| app.contains(k))
                        .fold(0u64, |d, k| d.wrapping_add(key_stamp(k)));
                    got[i as usize] = (app.final_digest(), recomputed);
                },
            );
            prop_assert!(report.completed, "lossless plan stalled: {}", report.stall_summary());
            for node in 0..4u16 {
                let (incremental, recomputed) = got[node as usize];
                prop_assert_eq!(incremental, recomputed, "node {}: digest drifted", node);
                prop_assert_eq!(incremental, w.expected(node).1, "node {}: oracle", node);
            }
        }
    }

    /// Read-mostly replication is semantically invisible under faults:
    /// on random skewed graph worlds, a replicating differential run
    /// under a drop/dup/delay plan either completes with checksums
    /// bit-identical to the single-home differential ground truth, or
    /// (under real loss) stalls with a diagnosis — it never completes
    /// with a stale replica read. Completed runs pass the full oracle
    /// battery (replica broadcast conservation and directory coherence
    /// included), and the generation an owner publishes for a replicated
    /// pointer is monotone across phases.
    #[test]
    fn replicated_reads_equal_single_home_reads(
        seed in any::<u64>(),
        n in 48usize..96,
        skew in 1.2f64..2.2,
        plan_idx in 0usize..4,
    ) {
        use dpa::apps::graph_dist::{GraphApp, GraphParams, GraphWorld};
        use dpa::runtime::run_phases;
        use dpa::sim_net::FaultPlan;
        const PHASES: usize = 3;
        const NODES: u16 = 4;
        let world = GraphWorld::build(GraphParams {
            n,
            skew,
            seed,
            root_stride: 2,
            ..GraphParams::default()
        });
        let plan = match plan_idx {
            0 => FaultPlan::none(),
            1 => FaultPlan::drop(seed ^ 0xD0, 0.02),
            2 => FaultPlan::duplicate(seed ^ 0xD1, 0.10),
            _ => FaultPlan::delay(seed ^ 0xD2, 0.30, 40_000),
        };
        let run = |cfg: DpaConfig, faults: FaultPlan| {
            let mut sums = vec![(0u64, 0u64); PHASES * NODES as usize];
            let (reports, snap_sets, _) = run_phases(
                NODES,
                NetConfig::default(),
                cfg,
                &DstOptions { faults, ..DstOptions::default() },
                PHASES,
                |ph, i| GraphApp::new(world.clone(), i, ph as u32),
                |ph, i, app: &GraphApp| {
                    sums[ph * NODES as usize + i as usize] = (app.sum, app.reached)
                },
            );
            (sums, reports, snap_sets)
        };
        // Single-home ground truth: plain differential, no faults.
        let (truth, t_reports, _) = run(DpaConfig::dpa_differential(8), FaultPlan::none());
        prop_assert!(t_reports.iter().all(|r| r.completed), "ground-truth run stalled");
        // Replicated run under the fault plan.
        let (got, reports, snap_sets) = run(DpaConfig::dpa_replicating(8), plan);
        let completed = reports.iter().all(|r| r.completed);
        let dropped: u64 = reports.iter().map(|r| r.stats.dropped_packets).sum();
        if plan_idx != 1 {
            // Dup and delay are lossless: dedup and reordering tolerance
            // must carry the run to completion.
            prop_assert!(completed, "lossless plan stalled: {}",
                reports.iter().map(|r| r.stall_summary()).collect::<Vec<_>>().join(" | "));
        }
        if completed {
            prop_assert_eq!(&got, &truth, "replicated reads diverged from single-home reads");
            for snaps in &snap_sets {
                let v = check_completed(snaps, dropped > 0);
                prop_assert!(v.is_empty(), "oracle violation: {}", v[0]);
            }
        } else {
            prop_assert!(
                reports.iter().any(|r| !r.completed && !r.stall_summary().is_empty()),
                "stalled without a diagnosis"
            );
        }
        // Published generations are monotone per pointer across phases: a
        // fault can delay or drop a broadcast, but it can never make an
        // owner republish an older generation.
        let mut last: HashMap<u64, u32> = HashMap::new();
        for snaps in &snap_sets {
            for s in snaps {
                for &(ptr, gen) in &s.replica_dir {
                    if let Some(&prev) = last.get(&ptr) {
                        prop_assert!(
                            gen >= prev,
                            "replica generation regressed for {:#x}: {} -> {}", ptr, prev, gen
                        );
                    }
                    last.insert(ptr, gen);
                }
            }
        }
    }

    /// Octrees contain every body exactly once and match direct gravity
    /// at θ = 0.
    #[test]
    fn octree_invariants_random_bodies(n in 2usize..120, seed in any::<u64>()) {
        let bodies = uniform_cube(n, seed);
        let tree = Octree::build(&bodies, 4);
        prop_assert_eq!(tree.check_invariants(&bodies), n);
        // θ = 0 walk equals direct summation.
        let params = dpa::nbody::bh::BhParams { theta: 0.0, eps: 0.02 };
        let w = dpa::nbody::bh::walk(&tree, &bodies, 0, params);
        let d = direct_accel(&bodies, 0, 0.02);
        prop_assert!((w.acc - d).norm() <= 1e-9 * d.norm().max(1e-9));
    }
}
