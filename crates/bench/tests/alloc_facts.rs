//! Allocator facts that need no tolerance: each is an equality or a bound
//! computed from the sizes involved, so there is no baseline file to
//! bless. (Allocator traffic of whole workloads is the benchmark's
//! `allocs_per_kevent`, bound 1 %; memory held is its `peak_rss_mb`.)
//! Counts are per thread, so the harness and sibling tests cannot leak in.

use apps::afmm_dist::AfmmWorld;
use apps::bh_dist::{BhApp, BhCost, BhWorld};
use apps::driver::{run_bh, run_graph, run_setops, run_synth, Phases};
use apps::fmm_dist::{FmmCost, FmmEvalApp, FmmWorld};
use apps::fmm_phase::{EvalApp, FmmTree, GatherApp};
use apps::graph_dist::{GraphApp, GraphParams, GraphWorld};
use apps::setops_dist::{SetOp, SetopsParams, SetopsWorld};
use dpa_core::synth::{SynthApp, SynthParams, SynthWorld};
use dpa_core::{DpaConfig, DpaProc, DstOptions, PointerMap, PtrApp, SeqChannel, WorkEnv};
use fastmsg::{ByteCoalescer, Coalescer};
use global_heap::{GPtr, ObjClass};
use nbody::afmm::AfmmParams;
use nbody::bh::BhParams;
use nbody::cx::{Binomials, Cx};
use nbody::distrib::{plummer, uniform_square};
use nbody::fmm::{m2l_into, FmmParams, FmmSolver, Local, Multipole};
use nbody::quadtree::{BoxId, QuadTree};
use sim_net::{Machine, NetConfig, NodeId, QueueKind, Rng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;

thread_local! {
    /// (calls into the allocator, bytes requested) on this thread.
    static TRAFFIC: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// (bytes live, most bytes live since `peak_bytes` last started) on
    /// this thread. Signed: a block allocated on one thread can be freed
    /// on another.
    static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
}

struct CountingAlloc;

// `try_with`: a thread being torn down still frees and allocates.
fn count(bytes: usize) {
    let _ = TRAFFIC.try_with(|t| t.set((t.get().0 + 1, t.get().1 + bytes as u64)));
}

fn hold(delta: i64) {
    let _ = LIVE.try_with(|l| {
        let live = l.get().0 + delta;
        l.set((live, l.get().1.max(live)));
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        hold(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        hold(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        hold(new_size as i64 - layout.size() as i64);
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

/// `f`'s result, and the most bytes this thread held at once while `f`
/// ran, above what it held when `f` started.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let start = LIVE.with(|l| {
        let live = l.get().0;
        l.set((live, live));
        live
    });
    let out = f();
    (out, LIVE.with(Cell::get).1 - start)
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

/// A graph app is built holding a count per root and no visited table: the
/// table comes with its first iteration. `run_phases` builds a phase's
/// apps while it still holds the last phase's, so a table allocated at
/// construction — `(16 · roots).next_power_of_two()` slots of 16 B, 256 B
/// a root — was held twice across every barrier.
#[test]
fn graph_app_new_requests_no_visited_table() {
    let world = GraphWorld::build(GraphParams {
        n: 1 << 14,
        nodes: 4,
        root_stride: 4,
        phases: 1,
        ..GraphParams::default()
    });
    for node in 0..4 {
        let roots = world.roots(node).len() as u64;
        assert_eq!(roots, 1 << 10);
        let (_, bytes) = traffic(|| {
            black_box(GraphApp::new(world.clone(), node, 0));
        });
        assert!(
            bytes <= 8 * roots,
            "node {node}: {bytes} bytes requested for {roots} roots"
        );
    }
}

/// A graph phase's memory follows the strip, not its loop length: run to
/// completion at `dpa(8)`, eight times the roots over the same vertices
/// grow the peak by one `u32` count an iteration — the app's visits
/// demanded and not yet run; the runtime's live-thread counts take one
/// slot per open iteration, so the strip bounds them. A visited table
/// sized for every root grew the peak by 256 B a root. One node, so no
/// object is fetched: renamed storage follows the vertices reached, not
/// the roots, and is left out.
#[test]
fn a_graph_phase_peak_follows_the_strip_not_the_roots() {
    let opts = DstOptions {
        queue: QueueKind::Wheel,
        ..DstOptions::default()
    };
    let run = |root_stride: usize| {
        let world = GraphWorld::build(GraphParams {
            n: 1 << 13,
            nodes: 1,
            root_stride,
            phases: 1,
            ..GraphParams::default()
        });
        let (run, peak) =
            peak_bytes(|| run_graph(&world, DpaConfig::dpa(8), NetConfig::default(), &opts, 1));
        assert!(
            run.completed(),
            "graph phase stalled at root stride {root_stride}"
        );
        (world.roots(0).len() as i64, peak)
    };
    let ((few, small), (many, large)) = (run(8), run(1));
    assert_eq!(many, 8 * few);
    assert!(
        large - small <= 4 * (many - few),
        "{small} -> {large} bytes at {few} -> {many} roots"
    );
}

/// Building a set-ops world shuffles the whole key universe to draw its
/// distinct op keys, as `u32` (4 B a key), and keeps only the prefix its
/// batches draw from. So at a universe much larger than its ops the build
/// peaks at the shuffle beside the index — bitset, `u32` rank and `u64`
/// stamp per 64 keys — whatever the batches add; a `u64` shuffle peaked
/// at 8 B a key.
#[test]
fn setops_world_build_peaks_at_four_bytes_a_key_over_its_index() {
    let p = SetopsParams {
        universe: 1 << 20,
        buckets: 256,
        nodes: 4,
        ops_per_node: 256,
        ..SetopsParams::default()
    };
    let (world, peak) = peak_bytes(|| SetopsWorld::build(p));
    let keys = p.universe as i64;
    let words = keys / 64;
    let index = 8 * words + (4 + 8) * (words + 1);
    let batches = p.nodes as i64
        * (std::mem::size_of::<Vec<SetOp>>() + p.ops_per_node * std::mem::size_of::<SetOp>())
            as i64;
    assert!(
        peak >= index + 4 * keys,
        "{peak} bytes: the shuffle was measured"
    );
    assert!(
        peak <= index + batches + 4 * keys + (64 << 10),
        "{peak} bytes at the peak; index {index}, batches {batches}, {keys} keys"
    );
    black_box(world);
}

/// An FMM world keeps the sequential solver for its tree and multipoles and
/// never runs its downward pass, so it holds no local expansions (one per
/// box, all zero, was 2.75 MB at `fmm16`); `downward` allocates and fills
/// one per box.
#[test]
fn fmm_locals_exist_only_once_downward_has_run() {
    let bodies = uniform_square(2_000, 31);
    let zs: Vec<Cx> = bodies.iter().map(|b| Cx::new(b.pos.x, b.pos.y)).collect();
    let qs: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
    let params = FmmParams {
        terms: 8,
        levels: 4,
    };
    let world = FmmWorld::build(zs.clone(), qs.clone(), 4, params, FmmCost::default());
    assert!(world.solver.locals.is_empty());
    let mut solver = FmmSolver::new(zs, qs, params);
    assert!(solver.locals.is_empty());
    solver.downward();
    assert_eq!(solver.locals.len(), BoxId::total_boxes(params.levels));
}

/// FNV-1a of `words`, continuing from `h`.
fn fnv(mut h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    for word in words {
        for byte in word.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// (digest of every node's batch in order, digest of the initial bitset).
fn setops_digests(world: &SetopsWorld) -> (u64, u64) {
    const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    let ops = (0..world.params.nodes)
        .flat_map(|node| world.batch(node))
        .flat_map(|op| match *op {
            SetOp::Insert(k) => [0, k, 0],
            SetOp::Delete(k) => [1, k, 0],
            SetOp::Range(lo, hi) => [2, lo, hi],
        });
    let keys = world.params.universe;
    let words = (0..keys.div_ceil(64)).map(|w| {
        (64 * w..(64 * w + 64).min(keys))
            .filter(|&k| world.initially_present(k))
            .fold(0u64, |bits, k| bits | 1 << (k % 64))
    });
    (fnv(BASIS, ops), fnv(BASIS, words))
}

/// The key shuffle's element type is the world builder's own choice: the
/// batches and the initial set are the same at the DST `setops` size and
/// at the benchmark's `setops_rw` size as when keys were shuffled as
/// `u64`. (Digests taken from the `u64` build.)
#[test]
fn setops_worlds_are_pinned() {
    let dst = SetopsParams {
        universe: 2048,
        ops_per_node: 32,
        seed: 0x05E7_0D57,
        ..SetopsParams::default()
    };
    let bench = SetopsParams {
        universe: 2_097_152,
        buckets: 4_096,
        nodes: 16,
        ops_per_node: 32_768,
        fill_permille: 400,
        skew: 1.5,
        range_buckets: 4,
        seed: 1997,
    };
    let pins = [
        (dst, (0xba6d_c6e3_075d_9aa2, 0x32db_4cea_bf62_e68b)),
        (bench, (0xd572_9178_3a06_474e, 0xdf4c_2f87_17fc_2927)),
    ];
    for (p, want) in pins {
        let got = setops_digests(&SetopsWorld::build(p));
        assert_eq!(got, want, "universe {}: digests {got:#018x?}", p.universe);
    }
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

/// The live-thread counts follow the strip, not the loop: 2^20
/// iterations (2^19 a node) at strip 8 take at most 8 slots a node,
/// whatever order they complete in (an array per iteration would be
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
        .map(|i| {
            DpaProc::new(
                SynthApp::new(world.clone(), i, world.work_ns),
                2,
                DpaConfig::dpa(8),
            )
        })
        .collect();
    let mut machine = Machine::new(procs, NetConfig::default());
    assert!(machine.run().completed, "synth phase stalled");
    for node in 0..2 {
        let proc = machine.proc(NodeId(node));
        assert_eq!(proc.app().visited, 1 << 19);
        let peak = proc.peak_live_window();
        assert!((1..=8).contains(&peak), "node {node}: {peak} slots");
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
/// bodies, 16 nodes, `dpa(50)`) allocates at most 3.2 times per thousand
/// events, procs, machine and collection included (3.15 measured). What is
/// left is set-up and the logarithmic growth of a few tables; with a list
/// per fetched pointer in M the same phase allocated six times as often,
/// and with renamed storage and the in-flight requests in tables of their
/// own beside M's interner 3.83 times.
#[test]
fn a_bh16_shaped_phase_allocates_at_most_32_times_per_10k_events() {
    let world = BhWorld::build(
        plummer(16_384, 1997),
        16,
        1,
        BhParams::default(),
        BhCost::default(),
    );
    let opts = DstOptions {
        queue: QueueKind::Wheel,
        ..DstOptions::default()
    };
    let mut events = 0;
    let (allocs, _) = traffic(|| {
        let run = run_bh(
            &world,
            DpaConfig::dpa(50),
            NetConfig::default(),
            &opts,
            Phases::ONE,
        );
        assert!(run.completed(), "BH phase stalled");
        events = run.reports[0].events_processed;
        black_box(run);
    });
    assert!(events > 100_000, "{events} events");
    assert!(
        allocs * 10_000 <= 32 * events,
        "{allocs} allocations in {events} events"
    );
}

/// Neither FMM sub-phase allocates per thread, on either tree: interaction
/// lists are iterated, a gather thread finds its accumulator by its
/// iteration's index in one slab, a P2L or P2P reuses one source buffer.
/// Over a run of thousands of threads what allocates is growth that
/// doubles (the ready stack, the table of final expansions) and one zero
/// expansion per box no source reached.
#[test]
fn fmm_m2l_and_eval_phases_allocate_nothing_per_thread() {
    let bodies = uniform_square(4_000, 23);
    let zs: Vec<Cx> = bodies.iter().map(|b| Cx::new(b.pos.x, b.pos.y)).collect();
    let qs: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
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
    /// (allocations, threads) of the gather and of the eval sub-phase.
    fn phases<T: FmmTree + 'static>(world: Arc<T>) -> [(u64, u64); 2] {
        let (allocs, threads, machine) = run(GatherApp::new(world.clone(), 0));
        let partials = machine.proc(NodeId(0)).app().locals.clone();
        let (eval_allocs, eval_threads, _) = run(EvalApp::new(world, 0, partials));
        [(allocs, threads), (eval_allocs, eval_threads)]
    }
    let params = FmmParams {
        terms: 8,
        levels: 5,
    };
    let uniform = FmmWorld::build(zs.clone(), qs.clone(), 1, params, FmmCost::default());
    let params = AfmmParams {
        terms: 8,
        leaf_cap: 16,
        ..AfmmParams::default()
    };
    let adaptive = AfmmWorld::build(zs, qs, 1, params, FmmCost::default());
    for (tree, [(allocs, threads), (eval_allocs, eval_threads)], gather_threads) in [
        ("uniform", phases(uniform), 20_000),
        ("adaptive", phases(adaptive), 10_000),
    ] {
        assert!(
            threads > gather_threads && allocs <= 40,
            "{tree} gather: {allocs} allocations, {threads} threads"
        );
        assert!(
            eval_threads > 5_000 && eval_allocs <= 60,
            "{tree} eval: {eval_allocs} allocations, {eval_threads} threads"
        );
    }
}

/// A node's eval app keeps a field for each particle it owns (16 B each),
/// not one for every particle in the machine: at `fmm16`'s shape that is
/// about 32 KiB a node where a dense vector was 512 KiB. The slack covers
/// the owned-leaf list.
#[test]
fn fmm_eval_fields_follow_the_owned_particles() {
    let particles = 32_768;
    let bodies = uniform_square(particles, 1997);
    let zs: Vec<Cx> = bodies.iter().map(|b| Cx::new(b.pos.x, b.pos.y)).collect();
    let qs: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
    let params = FmmParams {
        terms: 29,
        levels: QuadTree::level_for(particles, 16),
    };
    let world = FmmWorld::build(zs, qs, 16, params, FmmCost::default());
    let owned = world.slots.owned(0);
    assert!(
        owned > 0 && owned < particles / 8,
        "{owned} particles on node 0"
    );
    let (app, held) = peak_bytes(|| FmmEvalApp::new(world.clone(), 0, HashMap::new()));
    assert!(
        held <= (16 * owned + 8_192) as i64,
        "{held} bytes held for {owned} owned particles"
    );
    black_box(app);
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
        assert!(
            coal.pop_due(now + DEADLINE - 1, DEADLINE).is_none(),
            "nothing is due yet"
        );
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

/// Node 0 only receives: every other node sends it `per_node` `Update`
/// batches and asks for nothing. Each thread computes for 400 µs — long
/// enough for node 0 to keep up with fifteen senders — then emits one
/// batch's worth of reductions, so its batch leaves full, inside the
/// handler. (A batch left for its deadline wake would let the sender run
/// a thread per wake, its clock drifting ahead of the event order, and
/// the pool is shared in event order: the sender's takes would outrun
/// node 0's returns by more every round.) Node 0 sums what it applies.
struct Feeder {
    me: u16,
    per_node: usize,
    /// Reductions a thread emits: the `Update` window.
    batch: usize,
    sum: f64,
}

impl PtrApp for Feeder {
    type Work = ();

    fn num_iterations(&self) -> usize {
        if self.me == 0 {
            0
        } else {
            self.per_node
        }
    }

    fn start_iteration(&mut self, _iter: usize, env: &mut WorkEnv<'_, ()>) {
        env.local(());
    }

    fn run_work(&mut self, _work: (), env: &mut WorkEnv<'_, ()>) {
        env.charge(400_000);
        for i in 0..self.batch as u64 {
            env.accumulate(GPtr::new(0, ObjClass(0), i), 1.0);
        }
    }

    fn object_size(&self, _ptr: GPtr) -> u32 {
        8
    }

    fn apply_update(&mut self, _ptr: GPtr, value: f64) {
        self.sum += value;
    }
}

const FEEDERS: u16 = 16;

fn feeders(per_node: usize) -> Vec<DpaProc<Feeder>> {
    let cfg = DpaConfig::dpa(8);
    (0..FEEDERS)
        .map(|me| {
            let app = Feeder {
                me,
                per_node,
                batch: cfg.agg_window,
                sum: 0.0,
            };
            DpaProc::new(app, FEEDERS as usize, cfg.clone())
        })
        .collect()
}

/// Run `m` as it stands; its allocator calls, and the messages it sent.
fn counted_run(m: &mut Machine<DpaProc<Feeder>>) -> (u64, u64) {
    let mut msgs = 0;
    let (allocs, _) = traffic(|| {
        let report = m.run();
        assert!(report.completed, "{}", report.stall_summary());
        msgs = report.stats.total_msgs();
    });
    let feeder = m.proc(NodeId(1)).app();
    let sent = (FEEDERS - 1) as usize * feeder.per_node * feeder.batch;
    assert_eq!(m.proc(NodeId(0)).app().sum, sent as f64);
    (allocs, msgs)
}

/// The machine's payload buffers follow the traffic: node 0 only receives
/// `Update` batches and the fifteen others only send them, yet every
/// buffer node 0 drains goes back to the one pool the senders take from.
/// So a run allocates batch buffers for the most it ever has in flight,
/// not for the messages it sends: four times the messages, not one
/// allocation more. (With a pool per node, each sender's pool runs dry
/// and the receiver's overflows: every batch allocates.)
#[test]
fn a_lopsided_update_flow_allocates_for_its_peak_not_its_messages() {
    let run = |per_node| counted_run(&mut Machine::new(feeders(per_node), NetConfig::default()));
    let (short, long) = (run(100), run(400));
    assert_eq!((short.1, long.1), (1_500, 6_000), "one message a batch");
    assert_eq!(
        short.0, long.0,
        "allocations for {} and {} messages",
        short.1, long.1
    );
}

/// `Machine::reset` keeps the payload pool: the buffers phase 1 returned
/// are what phase 2's senders take. Both phase-2 runs below start from a
/// cold event queue (`set_queue_kind` rebuilds it) and identical procs,
/// so they differ only in the pool — and the new machine allocates at
/// least one buffer per sender that the reset one does not.
#[test]
fn a_buffer_returned_in_phase_1_feeds_phase_2_after_reset() {
    let phase2 = |m: &mut Machine<DpaProc<Feeder>>| {
        m.set_queue_kind(QueueKind::ShadowHeap);
        counted_run(m)
    };
    let mut reused = Machine::new(feeders(50), NetConfig::default());
    counted_run(&mut reused);
    reused.reset(feeders(50));
    let (warm, msgs) = phase2(&mut reused);
    let (cold, same_msgs) = phase2(&mut Machine::new(feeders(50), NetConfig::default()));
    assert_eq!(msgs, same_msgs);
    assert!(
        cold >= warm + (FEEDERS - 1) as u64,
        "a reset machine's phase allocated {warm} times, a new machine's {cold}"
    );
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
/// position copies, the live-thread counts).
#[test]
fn a_bh_run_allocates_identically_twice() {
    let world = BhWorld::build(
        plummer(600, 11),
        4,
        1,
        BhParams::default(),
        BhCost::default(),
    );
    let opts = DstOptions {
        queue: QueueKind::Wheel,
        ..DstOptions::default()
    };
    let once = || {
        traffic(|| {
            let run = run_bh(
                &world,
                DpaConfig::dpa(50),
                NetConfig::default(),
                &opts,
                Phases::ONE,
            );
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
