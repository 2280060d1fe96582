//! Layer drives: each layer's public API under an op stream, timed from
//! outside. A drive is a *ceiling estimate* — its ns/op × the workload's op
//! count ÷ rep wall bounds what that layer can cost end to end — not a
//! measurement of the layer inside a run (the traced self times are that).
//!
//! Working-set sizes come from the workload's own counters ([`Sizes`]), so
//! the tables are driven at the occupancy the run actually reached.

use crate::harness::Metrics;
use crate::stats::median;
use dpa_core::{DpaConfig, PendingRequests, PointerMap};
use fastmsg::{ByteCoalescer, Coalescer};
use global_heap::{ArrivalSet, GPtr, MigrationTable, ObjClass, ReplicaDirectory, SoftCache};
use nbody::cx::{Binomials, Cx};
use nbody::distrib::{plummer, uniform_square};
use nbody::fmm::{eval_local_field, m2l, Local, Multipole};
use nbody::{Octree, QuadTree};
use sim_net::{
    Ctx, EventKey, FaultInjector, FaultPlan, Machine, MsgSize, NetConfig, NodeId, Proc, QueueKind,
    Rng, TimingWheel, WheelItem,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Working-set sizes for the drives, from the workload's counters.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Events of one rep (bounds the queue drive's stream length).
    pub events: u64,
    /// Peak distinct keys in one node's M table.
    pub map_keys: u64,
    /// Peak entries in one node's D table.
    pub pending: u64,
    /// Remote objects one node installed.
    pub installed: u64,
    /// Batches per drive (≥ 21 at full size).
    pub batches: usize,
}

/// Median ns/op over `batches` batches; a batch returns `(ns, ops)`.
fn drive(batches: usize, mut batch: impl FnMut() -> (u64, u64)) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let (ns, ops) = batch();
            ns as f64 / ops.max(1) as f64
        })
        .collect();
    median(&samples)
}

/// Time `f`, returning host ns.
fn ns(f: impl FnOnce()) -> u64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as u64
}

struct Ev(EventKey, #[allow(dead_code)] [u64; 4]);

impl WheelItem for Ev {
    fn key(&self) -> EventKey {
        self.0
    }
}

/// The near-monotone event stream of `perf_gate`: pushes advance time by
/// small steps with rare far-future spikes, interleaved with pops, then a
/// full drain. Returns ops performed.
fn queue_stream<Q>(
    q: &mut Q,
    ops: u64,
    push: impl Fn(&mut Q, EventKey),
    pop: impl Fn(&mut Q) -> bool,
) -> u64 {
    let mut rng = Rng::new(0x9_A7E);
    let (mut t, mut seq, mut done) = (0u64, 0u64, 0u64);
    for _ in 0..ops {
        done += 1;
        if rng.chance(0.45) {
            pop(q);
            continue;
        }
        t += rng.below(4_000);
        let time = if rng.chance(0.02) {
            t + 10_000_000 + rng.below(50_000_000)
        } else {
            t
        };
        seq += 1;
        let key = EventKey {
            time,
            tie: rng.below(1 << 32),
            src: rng.below(16) as u16,
            seq,
        };
        push(q, key);
    }
    while pop(q) {
        done += 1;
    }
    done
}

/// A message that hops around the ring until its count runs out.
#[derive(Clone)]
struct Hop(u32);

impl MsgSize for Hop {
    fn size_bytes(&self) -> u32 {
        8
    }
}

/// The benchmark's echo node: no runtime, no app — what is left is
/// `Machine::run` itself.
struct Echo {
    fanout: u32,
    hops: u32,
}

impl Proc for Echo {
    type Msg = Hop;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Hop>) {
        let next = NodeId((ctx.me().0 + 1) % ctx.num_nodes());
        for _ in 0..self.fanout {
            ctx.send(next, Hop(self.hops));
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Hop>, _src: NodeId, msg: Hop) {
        if msg.0 > 0 {
            let next = NodeId((ctx.me().0 + 1) % ctx.num_nodes());
            ctx.send(next, Hop(msg.0 - 1));
        }
    }
}

fn random_ptr(rng: &mut Rng, universe: u64) -> GPtr {
    GPtr::new(
        rng.below(16) as u16,
        ObjClass(0),
        rng.below(universe.max(1)),
    )
}

/// Run every drive and record its metric.
pub fn run_all(sizes: Sizes, m: &mut Metrics) {
    let b = sizes.batches;
    let stream = sizes.events.clamp(2_000, 100_000);

    // sim-net: the two event queues under the same stream.
    let mut wheel: TimingWheel<Ev> = TimingWheel::new();
    m.set(
        "sim-net.wheel_ns_per_op",
        drive(b, || {
            // Each batch restarts simulated time at zero, as a machine run
            // does; `reset` rewinds the wheel and keeps its warmed pools.
            wheel.reset();
            let mut ops = 0;
            let t = ns(|| {
                ops = queue_stream(
                    &mut wheel,
                    stream,
                    |q, k| q.push(Ev(k, [0; 4])),
                    |q| q.pop().is_some(),
                )
            });
            (t, ops)
        }),
    );
    let mut heap: BinaryHeap<Reverse<EventKey>> = BinaryHeap::new();
    m.set(
        "sim-net.heap_ns_per_op",
        drive(b, || {
            let mut ops = 0;
            let t = ns(|| {
                ops = queue_stream(
                    &mut heap,
                    stream,
                    |q, k| q.push(Reverse(k)),
                    |q| q.pop().is_some(),
                )
            });
            (t, ops)
        }),
    );

    // sim-net: a bare machine over the echo node.
    let hops = (stream / (16 * 4)).max(8) as u32;
    m.set(
        "sim-net.null_proc_ns_per_event",
        drive(b, || {
            let procs = (0..16).map(|_| Echo { fanout: 4, hops }).collect();
            let mut machine = Machine::new(procs, NetConfig::default());
            machine.set_queue_kind(QueueKind::Wheel);
            let mut events = 0;
            let t = ns(|| events = machine.run().events_processed);
            (t, events)
        }),
    );

    // sim-net: the per-send fault decision, fault-free and under drops.
    for (name, plan) in [
        ("sim-net.fault_decide_ns", FaultPlan::none()),
        (
            "sim-net.fault_decide_drop_ns",
            FaultPlan::drop(0xFA17, 0.02),
        ),
    ] {
        let mut inj = FaultInjector::new(plan);
        let mut rng = Rng::new(0xDEC1DE);
        m.set(
            name,
            drive(b, || {
                let t = ns(|| {
                    for _ in 0..stream {
                        black_box(inj.decide(rng.below(16) as u16, rng.below(16) as u16));
                    }
                });
                (t, stream)
            }),
        );
    }

    // dpa-core: M (align bursts, released) and D (insert / complete).
    let keys = sizes.map_keys.clamp(16, 1 << 16);
    let mut map: PointerMap<u64> = PointerMap::new();
    let mut stack: Vec<u64> = Vec::new();
    let mut rng = Rng::new(0x000A_110C);
    m.set(
        "dpa-core.map_align_release_ns",
        drive(b, || {
            let t = ns(|| {
                for op in 0..stream {
                    let ptr = random_ptr(&mut rng, keys / 16 + 1);
                    if rng.chance(0.3) {
                        map.release_into(ptr, &mut stack);
                        black_box(stack.len());
                        stack.clear();
                    } else {
                        map.align(ptr, op);
                    }
                }
            });
            (t, stream)
        }),
    );
    let pend_keys = sizes.pending.clamp(16, 1 << 16);
    let mut pending = PendingRequests::new();
    let mut rng = Rng::new(0xD_7AB);
    m.set(
        "dpa-core.pending_insert_complete_ns",
        drive(b, || {
            let t = ns(|| {
                for _ in 0..stream {
                    let ptr = random_ptr(&mut rng, pend_keys / 16 + 1);
                    if rng.chance(0.45) {
                        black_box(pending.complete(ptr));
                    } else {
                        black_box(pending.insert(ptr));
                    }
                }
            });
            (t, stream)
        }),
    );

    // fastmsg: the request coalescer and the byte-budgeted reply coalescer,
    // at the windows the runtime configures them with.
    let cfg = DpaConfig::default();
    let mut coal: Coalescer<GPtr> = Coalescer::new(16, cfg.agg_window);
    let mut rng = Rng::new(0xC0A1);
    m.set(
        "fastmsg.coalescer_push_ns",
        drive(b, || {
            let t = ns(|| {
                for i in 0..stream {
                    if let Some(batch) =
                        coal.push(rng.below(16) as u16, GPtr::new(0, ObjClass(0), i))
                    {
                        black_box(batch.len());
                        coal.recycle(batch);
                    }
                }
            });
            (t, stream)
        }),
    );
    let mut bcoal: ByteCoalescer<GPtr> =
        ByteCoalescer::new(16, cfg.mtu.0 as u64, cfg.reply_agg_window);
    let mut rng = Rng::new(0xB17E);
    m.set(
        "fastmsg.bytecoalescer_push_ns",
        drive(b, || {
            let t = ns(|| {
                for i in 0..stream {
                    let bytes = 64 + rng.below(192);
                    for batch in
                        bcoal.push(rng.below(16) as u16, GPtr::new(0, ObjClass(0), i), bytes, i)
                    {
                        black_box(batch.len());
                        bcoal.recycle(batch);
                    }
                }
            });
            (t, stream)
        }),
    );

    // global-heap: renamed storage, the software cache, the migration
    // table's home lookup, and a replica directory's write window.
    let objs = sizes.installed.clamp(64, 1 << 18);
    let mut rng = Rng::new(0xA441);
    m.set(
        "global-heap.arrival_insert_contains_ns",
        drive(b, || {
            let mut set = ArrivalSet::new();
            let t = ns(|| {
                for i in 0..objs {
                    set.insert(GPtr::new((i % 16) as u16, ObjClass(0), i), 96);
                }
                for _ in 0..objs {
                    // Half hits, half misses.
                    let i = rng.below(2 * objs);
                    black_box(set.contains(GPtr::new((i % 16) as u16, ObjClass(0), i)));
                }
            });
            (t, 2 * objs)
        }),
    );
    let mut rng = Rng::new(0x50F7);
    m.set(
        "global-heap.softcache_probe_fill_ns",
        drive(b, || {
            let mut cache = SoftCache::new(None);
            let t = ns(|| {
                for _ in 0..2 * objs {
                    let ptr = random_ptr(&mut rng, objs / 16 + 1);
                    if !cache.probe(ptr) {
                        cache.fill(ptr, 96);
                    }
                }
            });
            (t, 2 * objs)
        }),
    );
    let mut table = MigrationTable::new();
    for i in 0..256u64 {
        table.adopt(GPtr::new(1 + (i % 15) as u16, ObjClass(0), i), 96);
        table.depart(GPtr::new(0, ObjClass(0), i), 1 + (i % 15) as u16);
        table.learn_override(
            GPtr::new(1 + (i % 15) as u16, ObjClass(0), 1_000 + i),
            (i % 16) as u16,
        );
    }
    let mut rng = Rng::new(0x4063);
    m.set(
        "global-heap.migration_home_of_ns",
        drive(b, || {
            let t = ns(|| {
                for _ in 0..stream {
                    black_box(table.home_of(random_ptr(&mut rng, 2_048), 0));
                }
            });
            (t, stream)
        }),
    );
    let cfg_repl = DpaConfig::dpa_replicating(8);
    let mut rng = Rng::new(0x4E91);
    m.set(
        "global-heap.replica_window_ns",
        drive(b, || {
            let mut dir = ReplicaDirectory::new();
            let mut ops = 0u64;
            let t = ns(|| {
                for window in 0..(stream / 64).max(1) {
                    for i in 0..cfg_repl.replication_budget as u64 {
                        dir.promote(
                            GPtr::new(0, ObjClass(0), i),
                            window as u32,
                            vec![1, 2, 3, 4, 5],
                        );
                    }
                    for _ in 0..64 {
                        let ptr = GPtr::new(0, ObjClass(0), rng.below(16));
                        if dir.is_replicated(ptr) {
                            black_box(dir.note_write(ptr));
                        }
                    }
                    black_box(dir.take_broadcasts().len());
                    black_box(dir.end_window(cfg_repl.replication_write_demote).len());
                    ops += 64;
                }
            });
            (t, ops)
        }),
    );

    // nbody: the math under the apps, at paper scale.
    let small = sizes.batches < 21;
    let bodies = plummer(if small { 1_024 } else { 16_384 }, 1997);
    let tree = Octree::build(&bodies, 1);
    let params = nbody::BhParams::default();
    let mut at = 0usize;
    m.set(
        "nbody.bh_walk_ns_per_interaction",
        drive(b, || {
            let mut interactions = 0u64;
            let t = ns(|| {
                for _ in 0..64 {
                    at = (at + 257) % bodies.len();
                    let w = nbody::bh::walk(&tree, &bodies, at, params);
                    interactions += w.cell_interactions + w.body_interactions;
                    black_box(w.acc);
                }
            });
            (t, interactions)
        }),
    );
    let terms = 29;
    let bin = Binomials::new(2 * terms + 2);
    let mut mp = Multipole::zero(terms);
    let mut rng = Rng::new(0x32E);
    for c in mp.coeffs.iter_mut() {
        *c = Cx::new(rng.unit_f64() - 0.5, rng.unit_f64() - 0.5);
    }
    let mut local = Local::zero(terms);
    m.set(
        "nbody.fmm_m2l_ns",
        drive(b, || {
            let t = ns(|| {
                for i in 0..64 {
                    let d = Cx::new(2.0 + (i % 3) as f64, 1.0 + (i % 2) as f64);
                    local = m2l(black_box(&mp), d, &bin);
                }
            });
            (t, 64)
        }),
    );
    m.set(
        "nbody.fmm_eval_local_ns",
        drive(b, || {
            let t = ns(|| {
                for i in 0..1_024 {
                    let z = Cx::new(0.01 * (i % 7) as f64, 0.02 * (i % 5) as f64);
                    black_box(eval_local_field(black_box(&local), z, Cx::ZERO));
                }
            });
            (t, 1_024)
        }),
    );
    m.set(
        "nbody.octree_build_ms",
        drive(b.min(21), || {
            (ns(|| drop(black_box(Octree::build(&bodies, 1)))), 1)
        }) / 1e6,
    );
    let n = if small { 2_048 } else { 32_768 };
    let zs: Vec<Cx> = uniform_square(n, 1997)
        .iter()
        .map(|p| Cx::new(p.pos.x, p.pos.y))
        .collect();
    let levels = QuadTree::level_for(n, 16);
    m.set(
        "nbody.quadtree_build_ms",
        drive(b.min(21), || {
            (ns(|| drop(black_box(QuadTree::build(&zs, levels)))), 1)
        }) / 1e6,
    );
}
