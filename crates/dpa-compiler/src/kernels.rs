//! The Mini-ICC kernels the repo prints: `bench table_thread_stats` (T2)
//! tabulates the static statistics of [`T2`]'s three, and the
//! `compiler_demo` example (T3) prints [`TREE_WALK`]'s thread structure.
//! [`BH_POT`] is T3's full Barnes-Hut potential, whose whole cell is
//! hoisted from one arrival.

/// A binary tree walk with a `conc` fork — the paper's Section 3.4 shape.
pub const TREE_WALK: &str = "
// A binary tree walk with block-level concurrency: the compiler splits
// the body at the touch of `t`, hoists l/r/v from the single arrival,
// promotes the recursive calls into child threads, and joins them.
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

/// An iterative list sum: a `while` loop chasing pointers.
pub const LIST_SUM: &str = "
struct Node { val: int; next: Node*; }
fn lsum(n: Node*) -> int {
  let acc: int = 0;
  while (n != null) {
    acc = acc + n->val;
    n = n->next;
  }
  return acc;
}";

/// A two-way Barnes-Hut force walk with the l/d opening criterion.
pub const BH_KERNEL: &str = "
struct Cell { mass: float; cx: float; cy: float; cz: float;
              size: float; c0: Cell*; c1: Cell*; }
fn force(c: Cell*, px: float, py: float, pz: float) -> float {
  if (c == null) { return 0.0; }
  let dx: float = c->cx - px;
  let dy: float = c->cy - py;
  let dz: float = c->cz - pz;
  let d2: float = dx*dx + dy*dy + dz*dz + 0.01;
  if (c->size * c->size < d2) {
    return c->mass / d2;
  }
  let a: float = 0.0;
  let b: float = 0.0;
  conc {
    a = force(c->c0, px, py, pz);
    b = force(c->c1, px, py, pz);
  }
  return a + b;
}";

/// The softened Barnes-Hut potential as eight-way `conc` recursion over
/// an octree cell.
pub const BH_POT: &str = "
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

/// T2's kernels, by the name its rows print.
pub const T2: [(&str, &str); 3] = [
    ("treewalk", TREE_WALK),
    ("listsum", LIST_SUM),
    ("bh_kernel", BH_KERNEL),
];
