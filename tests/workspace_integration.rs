//! Cross-crate integration: the runtime over the simulator, with and
//! without injected faults, exercised through the public facade crate.
//! The Mini-ICC compiler is a front end of its own (`dpa-compiler`, not
//! re-exported here) and is tested in its crate.

use dpa::runtime::synth::{SynthApp, SynthParams, SynthWorld};
use dpa::runtime::{run_phase, run_phase_dst, DpaConfig, DstOptions};
use dpa::sim_net::{FaultPlan, NetConfig};

#[test]
fn facade_reexports_compose() {
    // Build a world with the runtime's synthetic workload through the
    // facade paths only.
    let world = SynthWorld::build(SynthParams {
        nodes: 4,
        ..SynthParams::default()
    });
    let mut sum = 0u64;
    let report = run_phase(
        4,
        NetConfig::default(),
        DpaConfig::dpa(8),
        |i| SynthApp::new(world.clone(), i, 500),
        |_, app| sum = sum.wrapping_add(app.sum),
    );
    assert!(report.completed);
    let expected: u64 = (0..4).map(|n| world.expected_sum(n)).sum();
    assert_eq!(sum, expected);
}

#[test]
fn fault_injection_reports_stall_without_hanging() {
    let world = SynthWorld::build(SynthParams {
        nodes: 4,
        remote_fraction: 0.5,
        ..SynthParams::default()
    });
    let opts = DstOptions {
        faults: FaultPlan::drop_nth(7),
        ..DstOptions::default()
    };
    let (report, _) = run_phase_dst(
        4,
        NetConfig::default(),
        DpaConfig::dpa(8),
        &opts,
        |i| SynthApp::new(world.clone(), i, 500),
        |_, _| {},
    );
    assert!(!report.completed);
    assert!(report.stats.dropped_packets > 0);
}

#[test]
fn makespans_order_sensibly_across_the_stack() {
    let world = SynthWorld::build(SynthParams {
        nodes: 8,
        lists_per_node: 32,
        list_len: 32,
        remote_fraction: 0.5,
        shared_fraction: 0.6,
        ..SynthParams::default()
    });
    let time = |cfg: DpaConfig| {
        run_phase(
            8,
            NetConfig::default(),
            cfg,
            |i| SynthApp::new(world.clone(), i, 500),
            |_, _| {},
        )
        .makespan()
        .as_ns()
    };
    let dpa = time(DpaConfig::dpa(16));
    let base = time(DpaConfig::dpa_base(16));
    let blocking = time(DpaConfig::blocking());
    assert!(dpa < base, "full DPA {dpa} must beat Base {base}");
    assert!(base < blocking, "Base {base} must beat blocking {blocking}");
}
