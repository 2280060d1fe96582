//! End-to-end pipeline test: the Barnes-Hut opening-criterion walk written
//! in Mini-ICC, compiled by the DPA partitioner into pointer-labeled
//! threads, executed over a *real* octree distributed across simulated
//! nodes, and validated against a Rust oracle that mirrors the kernel's
//! arithmetic exactly.

use dpa::compiler::{compile_source, IccApp, IccWorldBuilder, Value};
use dpa::global_heap::GPtr;
use dpa::nbody::distrib::plummer;
use dpa::nbody::octree::{Octree, NO_CELL};
use dpa::runtime::{run_phase, DpaConfig};
use dpa::sim_net::NetConfig;

/// Softened BH potential with the l/d opening criterion, as a kernel of
/// eight-way `conc` recursion.
const KERNEL: &str = "
struct Cell {
  mass: float; cx: float; cy: float; cz: float; size: float; nb: int;
  c0: Cell*; c1: Cell*; c2: Cell*; c3: Cell*;
  c4: Cell*; c5: Cell*; c6: Cell*; c7: Cell*;
}
fn pot(c: Cell*, px: float, py: float, pz: float) -> float {
  if (c == null) { return 0.0; }
  let dx: float = c->cx - px;
  let dy: float = c->cy - py;
  let dz: float = c->cz - pz;
  let d2: float = dx*dx + dy*dy + dz*dz + 0.0025;
  if (c->size * c->size < d2) {
    return c->mass / sqrt(d2);
  }
  if (c->nb <= 1) {
    return c->mass / sqrt(d2);
  }
  let a0: float = 0.0;
  let a1: float = 0.0;
  let a2: float = 0.0;
  let a3: float = 0.0;
  let a4: float = 0.0;
  let a5: float = 0.0;
  let a6: float = 0.0;
  let a7: float = 0.0;
  conc {
    a0 = pot(c->c0, px, py, pz);
    a1 = pot(c->c1, px, py, pz);
    a2 = pot(c->c2, px, py, pz);
    a3 = pot(c->c3, px, py, pz);
    a4 = pot(c->c4, px, py, pz);
    a5 = pot(c->c5, px, py, pz);
    a6 = pot(c->c6, px, py, pz);
    a7 = pot(c->c7, px, py, pz);
  }
  return a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7;
}";

/// Rust mirror of the kernel (same arithmetic, same order).
fn pot_oracle(tree: &Octree, id: i32, px: f64, py: f64, pz: f64) -> f64 {
    if id == NO_CELL {
        return 0.0;
    }
    let cell = &tree.cells[id as usize];
    let dx = cell.cm.x - px;
    let dy = cell.cm.y - py;
    let dz = cell.cm.z - pz;
    let d2 = dx * dx + dy * dy + dz * dz + 0.0025;
    if cell.side() * cell.side() < d2 || cell.nbodies <= 1 {
        return cell.mass / d2.sqrt();
    }
    let mut acc = 0.0;
    for &c in &cell.children {
        acc += pot_oracle(tree, c, px, py, pz);
    }
    acc
}

#[test]
fn icc_barnes_hut_matches_rust_oracle() {
    let nodes = 4u16;
    let bodies = plummer(300, 77);
    let tree = Octree::build(&bodies, 1);

    let prog = compile_source(KERNEL).unwrap();
    // Static structure sanity: one touch (all 14 fields hoisted from a
    // single arrival), one fork of 8 children.
    let st = &prog.stats[0];
    assert_eq!(st.fork_sites, 1);
    assert_eq!(st.demand_sites, 1, "whole cell hoisted from one arrival");

    // Build the distributed Icc world mirroring the octree; scattered
    // ownership stresses the runtime.
    let mut b = IccWorldBuilder::new(prog, "pot", nodes);
    let null = Value::Ptr(GPtr::NULL);
    let mut ptrs = Vec::with_capacity(tree.len());
    for (id, cell) in tree.iter() {
        let owner = ((id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as u16 % nodes;
        let p = b.alloc(
            owner,
            "Cell",
            vec![
                Value::Float(cell.mass),
                Value::Float(cell.cm.x),
                Value::Float(cell.cm.y),
                Value::Float(cell.cm.z),
                Value::Float(cell.side()),
                Value::Int(cell.nbodies as i64),
                null,
                null,
                null,
                null,
                null,
                null,
                null,
                null,
            ],
        );
        ptrs.push(p);
    }
    for (id, cell) in tree.iter() {
        for (k, &c) in cell.children.iter().enumerate() {
            if c != NO_CELL {
                b.set_field(
                    ptrs[id as usize],
                    &format!("c{k}"),
                    Value::Ptr(ptrs[c as usize]),
                );
            }
        }
    }

    // Sample bodies round-robin across nodes; expected per-node sums.
    let mut expected = vec![0.0f64; nodes as usize];
    for (i, body) in bodies.iter().enumerate().step_by(5) {
        let node = (i / 5) % nodes as usize;
        b.add_root(
            node as u16,
            vec![
                Value::Ptr(ptrs[0]),
                Value::Float(body.pos.x),
                Value::Float(body.pos.y),
                Value::Float(body.pos.z),
            ],
        );
        expected[node] += pot_oracle(&tree, 0, body.pos.x, body.pos.y, body.pos.z);
    }
    let world = b.build();

    for cfg in [
        DpaConfig::dpa(8),
        DpaConfig::caching(),
        DpaConfig::blocking(),
    ] {
        let label = cfg.describe();
        let mut got = vec![0.0f64; nodes as usize];
        run_phase(
            nodes,
            NetConfig::default(),
            cfg,
            |i| IccApp::new(world.clone(), i),
            |i, app: &IccApp| got[i as usize] = app.float_sum,
        );
        for (g, e) in got.iter().zip(&expected) {
            let err = (g - e).abs() / e.abs().max(1e-12);
            assert!(err < 1e-12, "{label}: {g} vs {e} (rel err {err})");
        }
    }
}

#[test]
fn icc_bh_dpa_is_faster_than_blocking() {
    let nodes = 4u16;
    let bodies = plummer(200, 3);
    let tree = Octree::build(&bodies, 1);
    let prog = compile_source(KERNEL).unwrap();
    let mut b = IccWorldBuilder::new(prog, "pot", nodes);
    let null = Value::Ptr(GPtr::NULL);
    let mut ptrs = Vec::with_capacity(tree.len());
    for (id, cell) in tree.iter() {
        let owner = (id % nodes as u32) as u16;
        ptrs.push(b.alloc(
            owner,
            "Cell",
            vec![
                Value::Float(cell.mass),
                Value::Float(cell.cm.x),
                Value::Float(cell.cm.y),
                Value::Float(cell.cm.z),
                Value::Float(cell.side()),
                Value::Int(cell.nbodies as i64),
                null,
                null,
                null,
                null,
                null,
                null,
                null,
                null,
            ],
        ));
    }
    for (id, cell) in tree.iter() {
        for (k, &c) in cell.children.iter().enumerate() {
            if c != NO_CELL {
                b.set_field(
                    ptrs[id as usize],
                    &format!("c{k}"),
                    Value::Ptr(ptrs[c as usize]),
                );
            }
        }
    }
    for (i, body) in bodies.iter().enumerate().step_by(4) {
        b.add_root(
            ((i / 4) % nodes as usize) as u16,
            vec![
                Value::Ptr(ptrs[0]),
                Value::Float(body.pos.x),
                Value::Float(body.pos.y),
                Value::Float(body.pos.z),
            ],
        );
    }
    let world = b.build();
    let time = |cfg: DpaConfig| {
        run_phase(
            nodes,
            NetConfig::default(),
            cfg,
            |i| IccApp::new(world.clone(), i),
            |_, _| {},
        )
        .makespan()
        .as_ns()
    };
    let dpa = time(DpaConfig::dpa(8));
    let blocking = time(DpaConfig::blocking());
    assert!(
        dpa < blocking,
        "compiled BH under DPA ({dpa}) must beat blocking ({blocking})"
    );
}
