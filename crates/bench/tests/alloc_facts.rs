//! Allocator facts that need no tolerance: each is an equality, so there
//! is no baseline file to bless. (Allocator traffic of whole workloads is
//! the benchmark's `allocs_per_kevent`, bound 1 %.) Counts are per
//! thread, so the harness and sibling tests cannot leak in.

use apps::bh_dist::{BhApp, BhCost, BhWorld};
use apps::driver::{run_bh, run_setops, run_synth, Phases};
use apps::fmm_dist::{FmmCost, FmmEvalApp, FmmM2lApp, FmmWorld};
use apps::graph_dist::{GraphApp, GraphParams, GraphWorld};
use apps::setops_dist::{SetopsParams, SetopsWorld};
use dpa_core::synth::{SynthApp, SynthParams, SynthWorld};
use dpa_core::{DpaConfig, DpaProc, DstOptions, PointerMap, PtrApp, SeqChannel};
use fastmsg::{ByteCoalescer, Coalescer};
use nbody::bh::BhParams;
use nbody::cx::{Binomials, Cx};
use global_heap::{GPtr, ObjClass};
use nbody::distrib::{plummer, uniform_square};
use nbody::fmm::{m2l_into, FmmParams, Local, Multipole};
use sim_net::{Machine, NetConfig, NodeId, QueueKind, Rng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    /// (calls into the allocator, bytes requested) on this thread.
    static TRAFFIC: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct CountingAlloc;

fn count(bytes: usize) {
    // `try_with`: a thread being torn down still frees and allocates.
    let _ = TRAFFIC.try_with(|t| t.set((t.get().0 + 1, t.get().1 + bytes as u64)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// This thread's (allocator calls, bytes requested) while `f` runs.
fn traffic(f: impl FnOnce()) -> (u64, u64) {
    let before = TRAFFIC.with(Cell::get);
    f();
    let after = TRAFFIC.with(Cell::get);
    (after.0 - before.0, after.1 - before.1)
}

/// The accumulating M2L kernel at the paper's 29 terms never touches the
/// allocator.
#[test]
fn m2l_into_allocates_nothing() {
    let terms = 29;
    let bin = Binomials::new(2 * terms);
    let mut rng = Rng::new(0x32E);
    let mut src = Multipole::zero(terms);
    for c in src.coeffs.iter_mut() {
        *c = Cx::new(rng.unit_f64() - 0.5, rng.unit_f64() - 0.5);
    }
    let mut acc = Local::zero(terms);
    let spent = traffic(|| {
        for i in 0..1_000 {
            let d = Cx::new(2.0 + (i % 3) as f64, 1.0 + (i % 2) as f64);
            m2l_into(black_box(&src), d, &bin, &mut acc);
        }
        black_box(&acc);
    });
    assert_eq!(spent, (0, 0));
}

/// Constructing the graph closure's per-node state costs the same at any
/// vertex count: 256 roots per node at either size, where a visited bitmap
/// per root would make the larger graph cost sixteen times the smaller.
#[test]
fn graph_app_new_is_independent_of_vertex_count() {
    let construct = |n: usize| {
        let world = GraphWorld::build(GraphParams {
            n,
            nodes: 4,
            root_stride: n / 1024,
            phases: 1,
            ..GraphParams::default()
        });
        traffic(|| {
            for node in 0..4 {
                black_box(GraphApp::new(world.clone(), node, 0));
            }
        })
    };
    let (small, large) = (construct(1 << 12), construct(1 << 16));
    assert_ne!(small, (0, 0), "the counter is live");
    assert_eq!(small, large);
}

/// Constructing a BH node's state is two allocations (its bodies'
/// positions and their accelerations) whatever the body count.
#[test]
fn bh_app_new_allocates_the_same_number_of_times_at_any_body_count() {
    let construct = |n: usize| {
        let world = BhWorld::build(plummer(n, 7), 4, 1, BhParams::default(), BhCost::default());
        traffic(|| {
            for node in 0..4 {
                black_box(BhApp::new(world.clone(), node));
            }
        })
    };
    let (small, large) = (construct(256), construct(4096));
    assert_eq!(small.0, 2 * 4);
    assert_eq!(small.0, large.0);
    assert!(large.1 > small.1, "the bytes do follow the bodies");
}

/// The live-count window follows the strip, not the loop: 2^20
/// iterations (2^19 a node) at strip 8 complete nearly in order, so the
/// span from a node's oldest live iteration to its newest admitted one
/// stays within a few hundred slots (an array per iteration would be
/// 2 MiB a node).
#[test]
fn live_count_window_follows_the_strip_not_the_loop_length() {
    let world = SynthWorld::build(SynthParams {
        nodes: 2,
        lists_per_node: 1 << 19,
        list_len: 1,
        remote_fraction: 0.25,
        shared_fraction: 0.0,
        ..SynthParams::default()
    });
    let procs = (0..2)
        .map(|i| DpaProc::new(SynthApp::new(world.clone(), i, world.work_ns), 2, DpaConfig::dpa(8)))
        .collect();
    let mut machine = Machine::new(procs, NetConfig::default());
    assert!(machine.run().completed, "synth phase stalled");
    for node in 0..2 {
        let proc = machine.proc(NodeId(node));
        assert_eq!(proc.app().visited, 1 << 19);
        let peak = proc.peak_live_window();
        assert!((8..=400).contains(&peak), "node {node}: {peak} slots");
    }
}

/// M is one record slab: once it has met the most threads that ever wait
/// at once, aligning and releasing allocate nothing — whichever pointers
/// the threads wait under, however the chains interleave. (A private list
/// per pointer allocated for every pointer's first alignment, and again as
/// each list grew.)
#[test]
fn align_release_cycles_allocate_nothing_once_the_slab_is_warm() {
    const POINTERS: u64 = 512;
    const WAVE: u64 = 1_000;
    let ptr = |i: u64| GPtr::new(1 + (i % 7) as u16, ObjClass(0), i % POINTERS);
    let mut map: PointerMap<(u32, [u32; 2])> = PointerMap::new();
    let mut ready: Vec<(u32, [u32; 2])> = Vec::new();
    let mut cycle = |wave: u64| {
        // A thousand threads over a shifting window of pointers, chains
        // interleaved; then everything they wait for arrives.
        for t in 0..WAVE {
            map.align(ptr(wave * 37 + t % 61), (t as u32, [wave as u32, 0]));
        }
        for k in 0..61 {
            map.release_into(ptr(wave * 37 + k), &mut ready);
        }
        assert_eq!((map.live_threads(), ready.len() as u64), (0, WAVE));
        ready.clear();
    };
    // Warm-up: every pointer interned, the slab and the stack at the peak.
    for wave in 0..POINTERS {
        cycle(wave);
    }
    let spent = traffic(|| {
        for wave in POINTERS..POINTERS + 100 {
            cycle(wave);
        }
    });
    assert_eq!(spent, (0, 0), "10^5 align/release cycles");
    assert_eq!(map.peak_threads(), WAVE);
}

/// A Barnes-Hut force phase shaped like the benchmark's `bh16` (Plummer
/// bodies, 16 nodes, `dpa(50)`) allocates at most sixteen times per
/// thousand events, procs, machine and collection included. What is left
/// is set-up and the logarithmic growth of a few tables; with a list per
/// fetched pointer in M the same phase allocated six times as often.
#[test]
fn a_bh16_shaped_phase_allocates_at_most_16_times_per_kevent() {
    let world = BhWorld::build(plummer(16_384, 1997), 16, 1, BhParams::default(), BhCost::default());
    let opts = DstOptions {
        queue: QueueKind::Wheel,
        ..DstOptions::default()
    };
    let mut events = 0;
    let (allocs, _) = traffic(|| {
        let run = run_bh(&world, DpaConfig::dpa(50), NetConfig::default(), &opts, Phases::ONE);
        assert!(run.completed(), "BH phase stalled");
        events = run.reports[0].events_processed;
        black_box(run);
    });
    assert!(events > 100_000, "{events} events");
    assert!(allocs * 1_000 <= 16 * events, "{allocs} allocations in {events} events");
}

/// Neither FMM sub-phase allocates per thread: interaction and neighbour
/// lists are iterated, an M2L finds its accumulator by its iteration's
/// index in one slab, a P2P reuses one source buffer. Over a run of
/// thousands of threads what allocates is growth that doubles (the ready
/// stack, the table of final expansions) and one zero expansion per box no
/// M2L reached.
#[test]
fn fmm_m2l_and_eval_phases_allocate_nothing_per_thread() {
    let bodies = uniform_square(4_000, 23);
    let zs: Vec<Cx> = bodies.iter().map(|b| Cx::new(b.pos.x, b.pos.y)).collect();
    let qs: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
    let params = FmmParams { terms: 8, levels: 5 };
    let world = FmmWorld::build(zs, qs, 1, params, FmmCost::default());
    // One node: every object is local, so the run is the app's code and
    // the ready stack, nothing else.
    fn run<A: PtrApp>(app: A) -> (u64, u64, Machine<DpaProc<A>>) {
        let procs = vec![DpaProc::new(app, 1, DpaConfig::dpa(50))];
        let mut machine = Machine::new(procs, NetConfig::default());
        let mut report = None;
        let (allocs, _) = traffic(|| report = Some(machine.run()));
        let report = report.expect("ran");
        assert!(report.completed, "{}", report.stall_summary());
        (allocs, report.stats.user_total("threads_created"), machine)
    }
    let (allocs, threads, machine) = run(FmmM2lApp::new(world.clone(), 0));
    assert!(threads > 20_000 && allocs <= 40, "M2L: {allocs} allocations, {threads} threads");
    let partials = machine.proc(NodeId(0)).app().locals.clone();
    let (allocs, threads, _) = run(FmmEvalApp::new(world.clone(), 0, partials));
    assert!(threads > 5_000 && allocs <= 60, "eval: {allocs} allocations, {threads} threads");
}

/// The flush path in steady state never touches the allocator: bursts to
/// 15 destinations (a 16-node machine's worth) pushed, popped when due and
/// handed back, the way `DpaProc::flush` and the receiving handlers do.
#[test]
fn byte_coalescer_flush_cycle_allocates_nothing_once_warm() {
    const DESTS: u16 = 15;
    const DEADLINE: u64 = 20_000;
    const WARM_UP: u64 = 200;
    let mut coal: ByteCoalescer<(u64, f64)> = ByteCoalescer::new(DESTS as usize, 1_024, 32);
    let mut in_flight: Vec<Vec<(u64, f64)>> = Vec::with_capacity(2 * DESTS as usize);
    let mut widest_burst = 0;
    let mut cycle = |round: u64| {
        let now = round * 2 * DEADLINE;
        // The previous round's batches have been delivered and consumed.
        for batch in in_flight.drain(..) {
            coal.recycle(batch);
        }
        // Between one and eight 16-byte entries per destination; every
        // fifth round an oversized one forces two batches out of its push.
        for dst in 0..DESTS {
            for e in 0..1 + (round + dst as u64) % 8 {
                in_flight.extend(coal.push(dst, (e, 0.5), 16, now));
            }
            if round.is_multiple_of(5) {
                in_flight.extend(coal.push(dst, (round, 1.5), 2_048, now));
            }
        }
        assert!(coal.pop_due(now + DEADLINE - 1, DEADLINE).is_none(), "nothing is due yet");
        let before = in_flight.len();
        while let Some((_, batch)) = coal.pop_due(now + DEADLINE, DEADLINE) {
            in_flight.push(batch);
        }
        widest_burst = widest_burst.max(in_flight.len() - before);
        assert!(coal.is_empty());
    };
    // Warm-up: until every pooled buffer has met its largest batch.
    for round in 0..WARM_UP {
        cycle(round);
    }
    let spent = traffic(|| {
        for round in WARM_UP..WARM_UP + 1_000 {
            cycle(round);
        }
    });
    assert_eq!(spent, (0, 0));
    assert_eq!(widest_burst, DESTS as usize);
}

/// So does the request path's cycle: a buffer leaves whole when its window
/// fills or the node drains, comes back a round trip later, and is swapped
/// in at the next flush — whichever destination that happens to be.
#[test]
fn coalescer_flush_cycle_allocates_nothing_once_warm() {
    const DESTS: u16 = 15;
    const WINDOW: usize = 8;
    const WARM_UP: u64 = 200;
    let mut coal: Coalescer<u64> = Coalescer::new(DESTS as usize, WINDOW);
    let mut in_flight: Vec<Vec<u64>> = Vec::with_capacity(3 * DESTS as usize);
    let mut cycle = |round: u64| {
        for batch in in_flight.drain(..) {
            coal.recycle(batch);
        }
        // Between one and eleven requests per destination: some windows
        // fill mid-round, the rest leave at the quiescence drain.
        for dst in 0..DESTS {
            for e in 0..1 + (round + 3 * dst as u64) % 11 {
                in_flight.extend(coal.push(dst, e));
            }
        }
        while let Some(dst) = coal.first_nonempty() {
            in_flight.extend(coal.take(dst));
        }
        assert!(coal.is_empty());
    };
    for round in 0..WARM_UP {
        cycle(round);
    }
    let spent = traffic(|| {
        for round in WARM_UP..WARM_UP + 1_000 {
            cycle(round);
        }
    });
    assert_eq!(spent, (0, 0));
}

/// Dedup is a watermark per link, not a set of everything received: 10^5
/// messages in order never allocate, and a duplicate is still caught.
#[test]
fn in_order_accepts_allocate_nothing() {
    const SENDERS: u16 = 16;
    const PER_LINK: u64 = 100_000 / SENDERS as u64;
    let mut ch = SeqChannel::new(SENDERS as usize);
    let spent = traffic(|| {
        for seq in 0..PER_LINK {
            for sender in 0..SENDERS {
                assert!(ch.accept(sender, seq, 2));
                assert!(!ch.accept(sender, seq / 2, 2), "a duplicate");
            }
        }
    });
    assert_eq!(spent, (0, 0));
    assert_eq!(ch.entries_recv(), 2 * PER_LINK * SENDERS as u64);
}

/// A setops run (the DST `setops` world: updates, range demands, replies)
/// is as deterministic in its allocator traffic as a synth run.
#[test]
fn a_setops_run_allocates_identically_twice() {
    let world = SetopsWorld::build(SetopsParams {
        universe: 2048,
        ops_per_node: 32,
        seed: 0x05E7_0D57,
        ..SetopsParams::default()
    });
    let opts = DstOptions {
        queue: QueueKind::Wheel,
        ..DstOptions::default()
    };
    let once = || {
        traffic(|| {
            let run = run_setops(&world, DpaConfig::dpa(8), NetConfig::default(), &opts);
            assert!(run.completed(), "setops batch stalled");
            black_box(run);
        })
    };
    let (first, second) = (once(), once());
    assert_ne!(first, (0, 0), "the counter is live");
    assert_eq!(first, second);
}

/// So is a Barnes-Hut force phase (packed world records, per-node
/// position copies, the live-count window).
#[test]
fn a_bh_run_allocates_identically_twice() {
    let world = BhWorld::build(plummer(600, 11), 4, 1, BhParams::default(), BhCost::default());
    let opts = DstOptions {
        queue: QueueKind::Wheel,
        ..DstOptions::default()
    };
    let once = || {
        traffic(|| {
            let run = run_bh(&world, DpaConfig::dpa(50), NetConfig::default(), &opts, Phases::ONE);
            assert!(run.completed(), "BH phase stalled");
            black_box(run);
        })
    };
    let (first, second) = (once(), once());
    assert_ne!(first, (0, 0), "the counter is live");
    assert_eq!(first, second);
}

/// A whole simulator + runtime run is deterministic down to its allocator
/// traffic: the property that makes a 1 % bound on `allocs_per_kevent`
/// meaningful.
#[test]
fn a_synth_run_allocates_identically_twice() {
    let world = SynthWorld::build(SynthParams {
        nodes: 4,
        lists_per_node: 16,
        list_len: 20,
        remote_fraction: 0.5,
        shared_fraction: 0.4,
        ..SynthParams::default()
    });
    let opts = DstOptions {
        queue: QueueKind::Wheel,
        ..DstOptions::default()
    };
    let once = || {
        traffic(|| {
            let run = run_synth(
                &world,
                DpaConfig::dpa(8),
                NetConfig::default(),
                &opts,
                Phases::ONE,
            );
            assert!(run.completed(), "synth phase stalled");
            black_box(run);
        })
    };
    let (first, second) = (once(), once());
    assert_ne!(first, (0, 0), "the counter is live");
    assert_eq!(first, second);
}
