//! **Cache-capacity ablation** (extension) — how the caching baseline
//! degrades when its cache no longer holds the phase's remote working
//! set, under FIFO vs LRU eviction, while DPA's renamed storage (sized by
//! the strip, not the data) is unaffected.
//!
//! The paper's comparison gives caching an unbounded per-phase cache (its
//! best case). Real software caches are bounded; capacity misses re-expose
//! round trips. This sweep quantifies that cliff on the Barnes-Hut force
//! phase.
//!
//! Run with `--quick` for a reduced problem size.

use bench::cli::{Args, Scale};
use bench::*;
use dpa_core::DpaConfig;
use global_heap::EvictPolicy;
use std::io;

pub fn run(args: &Args) -> io::Result<i32> {
    let bh_n = if args.scale == Scale::Quick {
        4_096
    } else {
        PAPER_BH_BODIES
    };
    let p: u16 = 16;
    let world = AppWorld::Bh(bh_world_sized(bh_n, p));
    let mut points = Vec::new();

    println!("== Cache-capacity ablation: BH {bh_n} bodies, P = {p} ==");
    let dpa = world.run(DpaConfig::dpa(50));
    println!(
        "  DPA (50) reference: {} s  (renamed storage peak {} KB/node)",
        fmt_secs(dpa.makespan_ns()).trim(),
        dpa.stats.user_max("renamed_peak_bytes") / 1024
    );

    println!(
        "  {:<24} {:>10} {:>12} {:>10} {:>10}",
        "caching config", "time", "misses", "evictions", "hit rate"
    );
    for (label, capacity, policy) in [
        ("unbounded (paper)", None, EvictPolicy::Fifo),
        ("8192 FIFO", Some(8192), EvictPolicy::Fifo),
        ("8192 LRU", Some(8192), EvictPolicy::Lru),
        ("2048 FIFO", Some(2048), EvictPolicy::Fifo),
        ("2048 LRU", Some(2048), EvictPolicy::Lru),
        ("512 FIFO", Some(512), EvictPolicy::Fifo),
        ("512 LRU", Some(512), EvictPolicy::Lru),
    ] {
        let cfg = DpaConfig {
            cache_capacity: capacity,
            cache_policy: policy,
            ..DpaConfig::caching()
        };
        let r = world.run(cfg);
        let probes = r.stats.user_total("cache_probes").max(1);
        let hits = r.stats.user_total("cache_hits");
        println!(
            "  {label:<24} {:>8} s {:>12} {:>10} {:>9.1}%",
            fmt_secs(r.makespan_ns()).trim(),
            r.stats.user_total("cache_misses"),
            r.stats.user_total("cache_evictions"),
            100.0 * hits as f64 / probes as f64,
        );
        points.push(
            ExpPoint::new("fig_cache", "bh", label, p, r.makespan_ns(), &r.stats)
                .with("capacity", capacity.unwrap_or(0) as f64),
        );
    }
    println!(
        "\nDPA holds only the strip's aligned-thread state and fetches each \
         object once per phase; the baseline's capacity misses re-expose \
         full round trips."
    );
    dump_json("fig_cache", &points)?;
    Ok(0)
}
