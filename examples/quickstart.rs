//! Quickstart: run a pointer-chasing workload under Dynamic Pointer
//! Alignment and both baselines on a simulated 8-node machine.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dpa::runtime::synth::{SynthApp, SynthParams, SynthWorld};
use dpa::runtime::{run_phase, DpaConfig};
use dpa::sim_net::NetConfig;

fn main() {
    // A world of linked lists scattered across 8 nodes: 40% of records
    // live on a remote node, and half the lists share tails (data reuse).
    let world = SynthWorld::build(SynthParams {
        nodes: 8,
        lists_per_node: 64,
        list_len: 48,
        remote_fraction: 0.4,
        shared_fraction: 0.5,
        record_bytes: 32,
        work_ns: 900,
        seed: 42,
    });
    let expected: u64 = (0..8).map(|n| world.expected_sum(n)).sum();

    println!(
        "workload: {} records, 8 nodes, expected checksum {expected:#x}\n",
        world.total_records()
    );
    println!(
        "{:<42} {:>12} {:>9} {:>8}",
        "configuration", "time", "messages", "checksum"
    );

    for cfg in [
        DpaConfig::dpa(16),      // full DPA: tiling + pipelining + aggregation
        DpaConfig::dpa_base(16), // tiling only (exposed round trips)
        DpaConfig::caching(),    // software-cache baseline
        DpaConfig::blocking(),   // naive blocking baseline
    ] {
        let label = cfg.describe();
        let mut sum = 0u64;
        let report = run_phase(
            8,
            NetConfig::default(),
            cfg,
            |i| SynthApp::new(world.clone(), i, 900),
            |_, app| sum = sum.wrapping_add(app.sum),
        );
        assert_eq!(sum, expected, "all variants compute the same answer");
        println!(
            "{:<42} {:>12} {:>9} {:>8}",
            label,
            format!("{}", report.makespan()),
            report.stats.total_msgs(),
            "ok"
        );
    }

    println!("\nSame answer everywhere; only scheduling and communication differ.");
}
