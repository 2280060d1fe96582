//! **perf_gate** — deterministic hot-path cost gates for CI.
//!
//! The registry being unreachable in this build, this is a self-contained
//! stand-in for an `iai_callgrind`-style instruction-count harness: the
//! gated metric is **allocator traffic** (calls into the global allocator
//! and bytes requested), counted by a wrapping `#[global_allocator]`.
//! Unlike wall clock, allocator traffic is bit-deterministic for these
//! fixed workloads — every bench is run twice and the two counts asserted
//! identical — so a >3% change is a real code-path change, not noise.
//! Wall time is reported alongside for context but never gated.
//!
//! Benches cover the hot paths this crate's event engine lives on:
//!
//! * `event_dispatch_wheel` / `event_dispatch_heap` — push/pop a
//!   near-monotone event stream (with far-future spikes) through the
//!   timing wheel and through the shadow binary heap;
//! * `pointer_map_align_release` — M-mapping align bursts drained with
//!   `release_into` (the steady-state should recycle every buffer);
//! * `pending_insert_drain` — D-table insert/complete/iterate cycles;
//! * `synth_dpa_end_to_end` — a full DST synth run on the wheel, gating
//!   the whole simulator + runtime allocation budget per run;
//! * `fmm_m2l_into` — the accumulating M2L kernel at the paper's 29 terms,
//!   which must not touch the allocator at all;
//! * `graph_app_new` — constructing the graph closure's per-node state,
//!   whose visited set must cost the same at any vertex count.
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p bench --bin perf_gate            # run + check
//! cargo run --release -p bench --bin perf_gate -- --bless # rewrite baseline
//! ```
//!
//! The default mode compares against `results/PERF_GATE.json` and exits
//! nonzero when a gated metric regressed by more than [`GATE_RTOL`];
//! an improvement beyond the tolerance also fails, with a hint to
//! re-bless, so the committed baseline always reflects reality.

use apps::graph_dist::{GraphApp, GraphParams, GraphWorld};
use bench::has_flag;
use dpa_core::synth::{SynthApp, SynthParams, SynthWorld};
use dpa_core::{run_phase_dst, DpaConfig, DstOptions, PendingRequests, PointerMap};
use global_heap::{GPtr, ObjClass};
use nbody::cx::{Binomials, Cx};
use nbody::fmm::{m2l_into, Local, Multipole};
use sim_net::{EventKey, NetConfig, QueueKind, Rng, TimingWheel, WheelItem};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Relative tolerance on the gated metrics (3%).
const GATE_RTOL: f64 = 0.03;
/// Committed baseline, relative to the repository root.
const BASELINE: &str = "results/PERF_GATE.json";

// ------------------------------------------------------ counting allocator

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Counts every call into the system allocator. Calls, not live bytes:
/// the gate is on how often the hot paths touch the allocator at all.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(layout.size() as u64, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(new_size as u64, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------- benches

#[derive(Clone, Debug, PartialEq)]
struct Sample {
    name: String,
    allocs: u64,
    alloc_bytes: u64,
    wall_ns: u64,
}

/// Run `f` under the counters. Runs twice and asserts the gated counts
/// are identical — the determinism that makes a 3% gate meaningful.
fn measure(name: &str, mut f: impl FnMut()) -> Sample {
    let mut gated: Option<(u64, u64)> = None;
    let mut wall_ns = 0u64;
    for round in 0..2 {
        let (a0, b0) = (ALLOCS.load(Relaxed), BYTES.load(Relaxed));
        let start = Instant::now();
        f();
        wall_ns = start.elapsed().as_nanos() as u64;
        let counts = (ALLOCS.load(Relaxed) - a0, BYTES.load(Relaxed) - b0);
        match gated {
            None => gated = Some(counts),
            Some(prev) => assert_eq!(
                prev, counts,
                "{name}: allocator traffic differed between rounds (round {round}) — \
                 the workload is not deterministic and cannot be gated"
            ),
        }
    }
    let (allocs, alloc_bytes) = gated.expect("two rounds ran");
    Sample {
        name: name.to_string(),
        allocs,
        alloc_bytes,
        wall_ns,
    }
}

/// Event payload sized like the simulator's: key plus a small body.
struct Ev {
    key: EventKey,
    _payload: [u64; 4],
}

impl WheelItem for Ev {
    fn key(&self) -> EventKey {
        self.key
    }
}

/// Shared synthetic stream driver over any queue `Q`.
fn drive_queue<Q>(
    q: &mut Q,
    ops: usize,
    push: impl Fn(&mut Q, EventKey),
    pop: impl Fn(&mut Q) -> bool,
) {
    let mut rng = Rng::new(0x9_A7E);
    let mut t = 0u64;
    let mut seq = 0u64;
    for _ in 0..ops {
        if rng.chance(0.45) {
            pop(q);
        } else {
            t += rng.below(4_000);
            let time = if rng.chance(0.02) {
                t + 10_000_000 + rng.below(50_000_000)
            } else {
                t
            };
            seq += 1;
            push(
                q,
                EventKey {
                    time,
                    tie: rng.below(1 << 32),
                    src: rng.below(16) as u16,
                    seq,
                },
            );
        }
    }
    while pop(q) {}
}

const QUEUE_OPS: usize = 200_000;

fn event_dispatch_wheel() -> Sample {
    measure("event_dispatch_wheel", || {
        let mut q: TimingWheel<Ev> = TimingWheel::new();
        drive_queue(
            &mut q,
            QUEUE_OPS,
            |q, key| q.push(Ev { key, _payload: [0; 4] }),
            |q| q.pop().is_some(),
        );
        assert!(q.is_empty());
    })
}

fn event_dispatch_heap() -> Sample {
    measure("event_dispatch_heap", || {
        let mut q: BinaryHeap<Reverse<EventKey>> = BinaryHeap::new();
        drive_queue(&mut q, QUEUE_OPS, |q, key| q.push(Reverse(key)), |q| {
            q.pop().is_some()
        });
        assert!(q.is_empty());
    })
}

fn pointer_map_align_release() -> Sample {
    measure("pointer_map_align_release", || {
        let mut m: PointerMap<u64> = PointerMap::new();
        let mut stack: Vec<u64> = Vec::new();
        let mut rng = Rng::new(0x000A_110C);
        let mut drained = 0u64;
        for op in 0..200_000u64 {
            let ptr = GPtr::new(rng.below(16) as u16, ObjClass(0), rng.below(96));
            if rng.chance(0.3) {
                m.release_into(ptr, &mut stack);
                drained += stack.len() as u64;
                stack.clear();
            } else {
                m.align(ptr, op);
                // The lookup the runtime performs per demand.
                std::hint::black_box(m.waiters(ptr));
            }
        }
        std::hint::black_box(drained);
    })
}

fn pending_insert_drain() -> Sample {
    measure("pending_insert_drain", || {
        let mut d = PendingRequests::new();
        let mut rng = Rng::new(0xD_7AB);
        let mut live_sum = 0u64;
        for _ in 0..200_000u64 {
            let ptr = GPtr::new(rng.below(16) as u16, ObjClass(0), rng.below(96));
            if rng.chance(0.45) {
                d.complete(ptr);
            } else {
                d.insert(ptr);
            }
        }
        live_sum += d.iter().count() as u64;
        std::hint::black_box(live_sum);
    })
}

fn synth_dpa_end_to_end() -> Sample {
    let world = SynthWorld::build(SynthParams {
        nodes: 4,
        lists_per_node: 16,
        list_len: 20,
        remote_fraction: 0.5,
        shared_fraction: 0.4,
        ..SynthParams::default()
    });
    measure("synth_dpa_end_to_end", || {
        let opts = DstOptions {
            threads: 1,
            queue: QueueKind::Wheel,
            ..DstOptions::default()
        };
        let mut sums = vec![0u64; 4];
        let (report, _) = run_phase_dst(
            4,
            NetConfig::default(),
            DpaConfig::dpa(8),
            &opts,
            |i| SynthApp::new(world.clone(), i, 500),
            |i, app: &SynthApp| sums[i as usize] = app.sum,
        );
        assert!(report.completed, "synth phase stalled");
        std::hint::black_box(sums);
    })
}

fn fmm_m2l_into() -> Sample {
    let terms = 29;
    let bin = Binomials::new(2 * terms);
    let mut rng = Rng::new(0x32E);
    let mut src = Multipole::zero(terms);
    for c in src.coeffs.iter_mut() {
        *c = Cx::new(rng.unit_f64() - 0.5, rng.unit_f64() - 0.5);
    }
    let mut acc = Local::zero(terms);
    measure("fmm_m2l_into", || {
        for i in 0..10_000 {
            let d = Cx::new(2.0 + (i % 3) as f64, 1.0 + (i % 2) as f64);
            m2l_into(std::hint::black_box(&src), d, &bin, &mut acc);
        }
        std::hint::black_box(&acc);
    })
}

fn graph_app_new() -> Sample {
    // 256 roots per node at either size; a visited bitmap per root would
    // make the larger graph cost sixteen times the smaller.
    let sample = |n: usize| {
        let world = GraphWorld::build(GraphParams {
            n,
            nodes: 4,
            root_stride: n / 1024,
            phases: 1,
            ..GraphParams::default()
        });
        measure("graph_app_new", || {
            for node in 0..4 {
                std::hint::black_box(GraphApp::new(world.clone(), node, 0));
            }
        })
    };
    let (small, large) = (sample(1 << 12), sample(1 << 16));
    assert_eq!(
        (small.allocs, small.alloc_bytes),
        (large.allocs, large.alloc_bytes),
        "graph_app_new: allocator traffic depends on the vertex count"
    );
    large
}

// ---------------------------------------------------------------- baseline

fn render(samples: &[Sample]) -> String {
    let rows: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "  {{\"bench\": \"{}\", \"allocs\": {}, \"alloc_bytes\": {}, \"wall_ns\": {}}}",
                s.name, s.allocs, s.alloc_bytes, s.wall_ns
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// Pull `"key": <digits>` out of one baseline row.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let tag = format!("\"{key}\": ");
    let at = line.find(&tag)? + tag.len();
    let digits: String = line[at..].chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

fn load_baseline(path: &str) -> Option<Vec<Sample>> {
    let body = std::fs::read_to_string(path).ok()?;
    let mut out = Vec::new();
    for line in body.lines() {
        let Some(at) = line.find("\"bench\": \"") else { continue };
        let rest = &line[at + "\"bench\": \"".len()..];
        let name = rest[..rest.find('"')?].to_string();
        out.push(Sample {
            name,
            allocs: field_u64(line, "allocs")?,
            alloc_bytes: field_u64(line, "alloc_bytes")?,
            wall_ns: field_u64(line, "wall_ns")?,
        });
    }
    (!out.is_empty()).then_some(out)
}

/// Compare one gated metric; returns a violation line when out of band.
fn gate(name: &str, metric: &str, base: u64, got: u64) -> Option<String> {
    let b = base as f64;
    let g = got as f64;
    let rel = (g - b) / b.max(1.0);
    if rel > GATE_RTOL {
        Some(format!(
            "{name}.{metric} regressed {:+.1}%: {base} -> {got} (gate ±{:.0}%)",
            100.0 * rel,
            100.0 * GATE_RTOL
        ))
    } else if rel < -GATE_RTOL {
        Some(format!(
            "{name}.{metric} improved {:+.1}%: {base} -> {got} — re-run with --bless \
             to lock in the new baseline",
            100.0 * rel
        ))
    } else {
        None
    }
}

fn main() {
    let bless = has_flag("--bless");
    let samples = vec![
        event_dispatch_wheel(),
        event_dispatch_heap(),
        pointer_map_align_release(),
        pending_insert_drain(),
        synth_dpa_end_to_end(),
        fmm_m2l_into(),
        graph_app_new(),
    ];
    println!("== perf_gate: allocator-traffic gates (±{:.0}%) ==", 100.0 * GATE_RTOL);
    for s in &samples {
        println!(
            "  {:<28} allocs {:>9}  bytes {:>12}  wall {:>8.3} ms",
            s.name,
            s.allocs,
            s.alloc_bytes,
            s.wall_ns as f64 / 1e6
        );
    }
    if bless {
        std::fs::create_dir_all("results").expect("create results/");
        std::fs::write(BASELINE, render(&samples)).expect("write baseline");
        println!("[blessed {BASELINE}]");
        return;
    }
    let Some(baseline) = load_baseline(BASELINE) else {
        eprintln!("error: no baseline at {BASELINE}; run with --bless to create it");
        std::process::exit(2);
    };
    let mut violations = Vec::new();
    for s in &samples {
        match baseline.iter().find(|b| b.name == s.name) {
            None => violations.push(format!("{}: not in baseline — re-bless", s.name)),
            Some(b) => {
                violations.extend(gate(&s.name, "allocs", b.allocs, s.allocs));
                violations.extend(gate(&s.name, "alloc_bytes", b.alloc_bytes, s.alloc_bytes));
            }
        }
    }
    for b in &baseline {
        if !samples.iter().any(|s| s.name == b.name) {
            violations.push(format!("{}: in baseline but no longer measured", b.name));
        }
    }
    if violations.is_empty() {
        println!("all {} benches within ±{:.0}% of baseline", samples.len(), 100.0 * GATE_RTOL);
    } else {
        for v in &violations {
            eprintln!("GATE: {v}");
        }
        std::process::exit(1);
    }
}
