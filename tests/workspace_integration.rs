//! Cross-crate integration: the full pipeline (language → compiler →
//! runtime → simulator) and the applications, exercised through the
//! public facade crate.

use dpa::compiler::{compile_source, IccApp, IccWorldBuilder, Value};
use dpa::global_heap::GPtr;
use dpa::runtime::synth::{SynthApp, SynthParams, SynthWorld};
use dpa::runtime::{run_phase, run_phase_dst, DpaConfig, DstOptions};
use dpa::sim_net::{FaultPlan, NetConfig, Rng};

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
fn language_to_simulator_round_trip() {
    // A Mini-ICC kernel mixing every language feature, run under DPA and
    // checked against a host-computed oracle.
    let prog = compile_source(
        "struct Item { w: float; n: Item*; }
         fn decay(head: Item*, steps: int) -> float {
           let total: float = 0.0;
           let i: int = 0;
           while (i < steps) {
             let p: Item* = head;
             while (p != null) {
               total = total + p->w / (1.0 + i);
               p = p->n;
             }
             i = i + 1;
           }
           return total;
         }",
    )
    .unwrap();

    let nodes = 3u16;
    let mut b = IccWorldBuilder::new(prog, "decay", nodes);
    let mut rng = Rng::new(77);
    let mut weights: Vec<f64> = Vec::new();
    let mut next = Value::Ptr(GPtr::NULL);
    for _ in 0..25 {
        let w = rng.below(1000) as f64 / 100.0;
        weights.push(w);
        let owner = rng.below(nodes as u64) as u16;
        next = Value::Ptr(b.alloc(owner, "Item", vec![Value::Float(w), next]));
    }
    let steps = 4i64;
    b.add_root(0, vec![next, Value::Int(steps)]);
    let world = b.build();

    let mut got = 0.0f64;
    run_phase(
        nodes,
        NetConfig::default(),
        DpaConfig::dpa(4),
        |i| IccApp::new(world.clone(), i),
        |_, app| got += app.float_sum,
    );
    let mut expected = 0.0f64;
    for i in 0..steps {
        // The interpreter walks the list head→tail; weights were pushed
        // tail-first, so iterate reversed.
        for w in weights.iter().rev() {
            expected += w / (1.0 + i as f64);
        }
    }
    assert!(
        (got - expected).abs() < 1e-9,
        "got {got}, expected {expected}"
    );
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

#[test]
fn compiled_kernel_matches_native_app_on_same_structure() {
    // The same logical list walk expressed (a) natively via SynthApp and
    // (b) in Mini-ICC must both visit every record exactly once per
    // traversal — cross-validated by record count.
    let prog = compile_source(
        "struct Node { val: int; next: Node*; }
         fn count(n: Node*) -> int {
           if (n == null) { return 0; }
           let rest: int = count(n->next);
           return rest + 1;
         }",
    )
    .unwrap();
    let nodes = 2u16;
    let mut b = IccWorldBuilder::new(prog, "count", nodes);
    let mut next = Value::Ptr(GPtr::NULL);
    for i in 0..40 {
        next = Value::Ptr(b.alloc((i % 2) as u16, "Node", vec![Value::Int(1), next]));
    }
    b.add_root(0, vec![next]);
    let world = b.build();
    let mut count = 0i64;
    run_phase(
        nodes,
        NetConfig::default(),
        DpaConfig::dpa(4),
        |i| IccApp::new(world.clone(), i),
        |_, app| count += app.int_sum,
    );
    assert_eq!(count, 40);
}
