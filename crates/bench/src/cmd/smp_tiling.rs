//! **smp_tiling** — real-threads tiling ablation on the host CPU.
//!
//! The paper's discussion notes that DPA's thread reordering "is also
//! applicable to cache optimizations" (cf. Philbin et al.): running the
//! threads that touch the same object consecutively turns scattered
//! accesses into cache-resident ones. This subcommand demonstrates that effect
//! with *real* parallel threads (std scoped threads): a task soup
//! over a large object array is executed in scattered order vs
//! pointer-aligned (tiled) order. The tiled schedule is the memory-access
//! pattern DPA's runtime produces when it releases all threads aligned
//! under an arrived object in one batch.
//!
//! A plain timed comparison: the two orders alternate for a few rounds and
//! the per-order median wall time is reported. Host time, so read the
//! ratio, not the milliseconds.

use bench::cli::Args;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::hint::black_box;
use std::io;
use std::time::Instant;

/// One "object": a cache-line-plus of payload.
#[derive(Clone)]
struct Obj {
    payload: [u64; 16], // 128 bytes
}

const OBJECTS: usize = 1 << 16; // 64K objects × 128 B = 8 MiB (beyond L2)
const TASKS_PER_OBJ: usize = 8;
const THREADS: usize = 4;
const ROUNDS: usize = 7;

fn make_world() -> Vec<Obj> {
    (0..OBJECTS)
        .map(|i| Obj {
            payload: [i as u64; 16],
        })
        .collect()
}

/// Tasks as (object index, salt).
fn make_tasks() -> Vec<(u32, u64)> {
    let mut tasks = Vec::with_capacity(OBJECTS * TASKS_PER_OBJ);
    for obj in 0..OBJECTS as u32 {
        for t in 0..TASKS_PER_OBJ as u64 {
            tasks.push((obj, t));
        }
    }
    tasks
}

fn run_tasks(world: &[Obj], tasks: &[(u32, u64)]) -> u64 {
    // Static partition across real threads; each runs its slice in order.
    let chunk = tasks.len().div_ceil(THREADS);
    let mut total = 0u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = tasks
            .chunks(chunk)
            .map(|slice| {
                s.spawn(move || {
                    let mut acc = 0u64;
                    for &(obj, salt) in slice {
                        let o = &world[obj as usize];
                        let mut h = salt;
                        for &w in &o.payload {
                            h = h.wrapping_mul(0x100000001B3).wrapping_add(w);
                        }
                        acc = acc.wrapping_add(h);
                    }
                    acc
                })
            })
            .collect();
        for h in handles {
            total = total.wrapping_add(h.join().unwrap());
        }
    });
    total
}

pub fn run(_args: &Args) -> io::Result<i32> {
    let world = make_world();
    let tiled = make_tasks(); // already grouped by object: the DPA order
    let scattered = {
        let mut t = make_tasks();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
        t.shuffle(&mut rng);
        t
    };

    let orders = [
        ("aligned_tiled_order", &tiled),
        ("scattered_order", &scattered),
    ];
    let mut ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut sums = [0u64; 2];
    for _ in 0..ROUNDS {
        for (i, (_, tasks)) in orders.iter().enumerate() {
            let start = Instant::now();
            sums[i] = black_box(run_tasks(&world, tasks));
            ms[i].push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    // Sanity: identical results either way (order-independent reduction).
    assert_eq!(sums[0], sums[1]);

    println!(
        "== smp_tiling: {} tasks over {OBJECTS} objects, {THREADS} threads, median of {ROUNDS} ==",
        tiled.len()
    );
    let medians = ms.map(|mut m| {
        m.sort_by(f64::total_cmp);
        m[ROUNDS / 2]
    });
    for ((name, tasks), median) in orders.iter().zip(medians) {
        println!(
            "  {name:<20} {median:>8.2} ms  {:>7.1} Mtasks/s",
            tasks.len() as f64 / median / 1e3
        );
    }
    println!("  scattered / tiled = {:.2}x", medians[1] / medians[0]);
    Ok(0)
}
