//! End-to-end compiler tests: Mini-ICC kernels compiled to pointer-labeled
//! threads and executed over the simulated machine under every runtime
//! variant, validated against host-computed oracles.

use dpa_compiler::{compile_source, IccApp, IccWorldBuilder, Value};
use dpa_core::{run_phase, DpaConfig};
use global_heap::GPtr;
use sim_net::{NetConfig, Rng};
use std::sync::Arc;

/// Recursive binary-tree sum with a conc fork — the paper's Section 3.4
/// example shape.
const TREE_SUM: &str = "
struct T { l: T*; r: T*; v: int; }
fn sum(t: T*) -> int {
  if (t == null) { return 0; }
  let a: int = 0;
  let b: int = 0;
  conc {
    a = sum(t->l);
    b = sum(t->r);
  }
  return a + b + t->v;
}";

/// Iterative list sum (while loop with pointer chasing).
const LIST_SUM: &str = "
struct Node { val: int; next: Node*; }
fn lsum(n: Node*) -> int {
  let acc: int = 0;
  while (n != null) {
    acc = acc + n->val;
    n = n->next;
  }
  return acc;
}";

/// Build a random binary tree of `depth` with nodes scattered over
/// `nodes` owners; returns (root, expected sum).
fn build_tree(b: &mut IccWorldBuilder, rng: &mut Rng, nodes: u16, depth: u32) -> (Value, i64) {
    if depth == 0 {
        return (Value::Ptr(GPtr::NULL), 0);
    }
    let (l, ls) = build_tree(b, rng, nodes, depth - 1);
    let (r, rs) = build_tree(b, rng, nodes, depth - 1);
    let v = rng.below(1000) as i64;
    let owner = rng.below(nodes as u64) as u16;
    let p = b.alloc(owner, "T", vec![l, r, Value::Int(v)]);
    (Value::Ptr(p), ls + rs + v)
}

fn run_icc(world: &Arc<dpa_compiler::IccWorld>, cfg: DpaConfig) -> (i64, u64) {
    let mut total = 0i64;
    let mut completed = 0u64;
    run_phase(
        world.nodes,
        NetConfig::default(),
        cfg,
        |i| IccApp::new(world.clone(), i),
        |_, app| {
            total = total.wrapping_add(app.int_sum);
            completed += app.completed;
        },
    );
    (total, completed)
}

#[test]
fn tree_sum_all_variants() {
    let prog = compile_source(TREE_SUM).unwrap();
    let nodes = 4u16;
    let mut b = IccWorldBuilder::new(prog, "sum", nodes);
    let mut rng = Rng::new(2024);
    let mut expected = 0i64;
    let mut nroots = 0u64;
    for node in 0..nodes {
        for _ in 0..3 {
            let (root, sum) = build_tree(&mut b, &mut rng, nodes, 5);
            b.add_root(node, vec![root]);
            expected += sum;
            nroots += 1;
        }
    }
    let world = b.build();
    for cfg in [
        DpaConfig::dpa(4),
        DpaConfig::dpa(1),
        DpaConfig::dpa_base(4),
        DpaConfig::caching(),
        DpaConfig::blocking(),
    ] {
        let label = cfg.describe();
        let (total, completed) = run_icc(&world, cfg);
        assert_eq!(total, expected, "{label}");
        assert_eq!(completed, nroots, "{label}");
    }
}

#[test]
fn list_sum_all_variants() {
    let prog = compile_source(LIST_SUM).unwrap();
    let nodes = 3u16;
    let mut b = IccWorldBuilder::new(prog, "lsum", nodes);
    let mut rng = Rng::new(7);
    let mut expected = 0i64;
    for node in 0..nodes {
        for _ in 0..4 {
            // Build a list of 30 records scattered across nodes.
            let mut next = Value::Ptr(GPtr::NULL);
            for _ in 0..30 {
                let v = rng.below(100) as i64;
                expected += v;
                let owner = rng.below(nodes as u64) as u16;
                let p = b.alloc(owner, "Node", vec![Value::Int(v), next]);
                next = Value::Ptr(p);
            }
            b.add_root(node, vec![next]);
        }
    }
    let world = b.build();
    for cfg in [
        DpaConfig::dpa(8),
        DpaConfig::caching(),
        DpaConfig::blocking(),
    ] {
        let label = cfg.describe();
        let (total, _) = run_icc(&world, cfg);
        assert_eq!(total, expected, "{label}");
    }
}

#[test]
fn dpa_outperforms_blocking_on_compiled_code() {
    let prog = compile_source(TREE_SUM).unwrap();
    let nodes = 4u16;
    let mut b = IccWorldBuilder::new(prog, "sum", nodes);
    let mut rng = Rng::new(11);
    for node in 0..nodes {
        for _ in 0..4 {
            let (root, _) = build_tree(&mut b, &mut rng, nodes, 6);
            b.add_root(node, vec![root]);
        }
    }
    let world = b.build();

    let time = |cfg: DpaConfig| {
        let report = run_phase(
            nodes,
            NetConfig::default(),
            cfg,
            |i| IccApp::new(world.clone(), i),
            |_, _| {},
        );
        report.makespan().as_ns()
    };
    let t_dpa = time(DpaConfig::dpa(8));
    let t_block = time(DpaConfig::blocking());
    assert!(
        t_dpa < t_block,
        "DPA ({t_dpa} ns) must beat blocking ({t_block} ns) on compiled kernels"
    );
}

#[test]
fn hoist_carry_touches_each_pointer_once() {
    let prog = compile_source(
        "struct P { x: int; y: int; z: int; }
         fn f(a: P*, b: P*) -> int {
           return a->x + b->y + a->z;
         }",
    )
    .unwrap();
    // a touched once, b touched once; a->z reuses the carried hoist.
    assert_eq!(prog.stats[0].demand_sites, 2, "{}", prog.dump());
}

#[test]
fn static_thread_stats_match_structure() {
    let prog = compile_source(TREE_SUM).unwrap();
    let s = &prog.stats[0];
    assert_eq!(s.name, "sum");
    assert_eq!(s.fork_sites, 1);
    assert!(s.templates >= 4);
    // Entry + touch + join + branch arms all materialize as templates.
    assert_eq!(prog.total_templates() as u32, s.templates);
}

#[test]
fn conc_for_with_reductions_end_to_end() {
    // The paper's literal loop shape: a concurrent loop whose body calls
    // a method that touches a remote object and folds a contribution into
    // it (the reduction extension).
    let prog = compile_source(
        "struct Obj { w: float; }
         fn push(o: Obj*, i: int) {
           accum(o, o->w * i);
         }
         fn kernel(o: Obj*, n: int) {
           conc for (i = 0; i < n; i = i + 1) {
             push(o, i);
           }
         }",
    )
    .unwrap();
    // The helper exists and forks.
    let helper = prog
        .stats
        .iter()
        .find(|s| s.name.starts_with("__concfor_"))
        .expect("synthesized helper");
    assert_eq!(helper.fork_sites, 1);
    assert_eq!(helper.call_sites, 1, "base case promotes `push`");

    let nodes = 3u16;
    let mut b = IccWorldBuilder::new(prog, "kernel", nodes);
    let n_iters = 40i64;
    let mut objs = Vec::new();
    for node in 0..nodes {
        // Each object lives on one node; the kernel for it runs on the
        // NEXT node, so every accum crosses the machine.
        let w = 0.5 + node as f64;
        let o = b.alloc(node, "Obj", vec![Value::Float(w)]);
        objs.push((o, w));
        b.add_root((node + 1) % nodes, vec![Value::Ptr(o), Value::Int(n_iters)]);
    }
    let world = b.build();

    let expected_factor: f64 = (0..n_iters).sum::<i64>() as f64;
    for cfg in [
        DpaConfig::dpa(8),
        DpaConfig::caching(),
        DpaConfig::blocking(),
    ] {
        let label = cfg.describe();
        let mut updates: std::collections::HashMap<u64, f64> = Default::default();
        run_phase(
            nodes,
            NetConfig::default(),
            cfg,
            |i| IccApp::new(world.clone(), i),
            |_, app: &IccApp| {
                for (k, v) in &app.updates {
                    *updates.entry(*k).or_insert(0.0) += v;
                }
            },
        );
        for &(o, w) in &objs {
            let got = updates.get(&o.bits()).copied().unwrap_or(0.0);
            let want = w * expected_factor;
            assert!(
                (got - want).abs() < 1e-9,
                "{label}: object {o} got {got}, want {want}"
            );
        }
    }
}

#[test]
fn deterministic_compiled_execution() {
    let prog = compile_source(TREE_SUM).unwrap();
    let mk = || {
        let mut b = IccWorldBuilder::new(prog.clone(), "sum", 2);
        let mut rng = Rng::new(5);
        let (root, _) = build_tree(&mut b, &mut rng, 2, 5);
        b.add_root(0, vec![root]);
        b.build()
    };
    let w1 = mk();
    let w2 = mk();
    let r1 = run_phase(
        2,
        NetConfig::default(),
        DpaConfig::dpa(4),
        |i| IccApp::new(w1.clone(), i),
        |_, _| {},
    );
    let r2 = run_phase(
        2,
        NetConfig::default(),
        DpaConfig::dpa(4),
        |i| IccApp::new(w2.clone(), i),
        |_, _| {},
    );
    assert_eq!(r1.makespan(), r2.makespan());
}
