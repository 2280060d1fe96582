//! Sequential Barnes-Hut force evaluation — the algorithmic reference the
//! distributed variants must agree with, and the source of the
//! per-interaction operation counts the cost model charges.

use crate::body::{point_accel, Body};
use crate::octree::{Octree, NO_CELL};
use crate::vec3::Vec3;

/// Opening-criterion and softening parameters.
#[derive(Clone, Copy, Debug)]
pub struct BhParams {
    /// Opening angle θ: a cell of side `l` at distance `d` is accepted as
    /// a monopole when `l / d < θ` (SPLASH-2's criterion).
    pub theta: f64,
    /// Plummer softening length.
    pub eps: f64,
}

impl Default for BhParams {
    fn default() -> Self {
        BhParams {
            theta: 1.0,
            eps: 0.05,
        }
    }
}

/// Result of one body's tree walk.
#[derive(Clone, Copy, Debug, Default)]
pub struct WalkResult {
    /// Accumulated acceleration.
    pub acc: Vec3,
    /// Body–cell monopole interactions performed.
    pub cell_interactions: u64,
    /// Body–body direct interactions performed.
    pub body_interactions: u64,
    /// Cells visited (opened or accepted).
    pub cells_visited: u64,
}

/// Decide whether `cell` (side `side`, center of mass `cm`) may be
/// accepted as a monopole for a body at `pos`.
#[inline]
pub fn accepts(pos: Vec3, cm: Vec3, side: f64, theta: f64) -> bool {
    accepts_sq(pos, cm, side * side, theta * theta)
}

/// [`accepts`] for a caller that keeps `side²` and `θ²` precomputed; the
/// same comparison bit for bit.
#[inline]
pub fn accepts_sq(pos: Vec3, cm: Vec3, side2: f64, theta2: f64) -> bool {
    let d2 = (cm - pos).norm2();
    side2 < theta2 * d2
}

/// Walk the tree for body `i`, accumulating acceleration.
pub fn walk(tree: &Octree, bodies: &[Body], i: usize, params: BhParams) -> WalkResult {
    let mut res = WalkResult::default();
    let pos = bodies[i].pos;
    let mut stack: Vec<u32> = vec![tree.root()];
    while let Some(id) = stack.pop() {
        let cell = &tree.cells[id as usize];
        if cell.nbodies == 0 {
            continue;
        }
        res.cells_visited += 1;
        if cell.is_leaf() {
            for &b in &cell.bodies {
                if b as usize != i {
                    res.acc += point_accel(
                        pos,
                        bodies[b as usize].pos,
                        bodies[b as usize].mass,
                        params.eps,
                    );
                    res.body_interactions += 1;
                }
            }
        } else if accepts(pos, cell.cm, cell.side(), params.theta) {
            res.acc += point_accel(pos, cell.cm, cell.mass, params.eps);
            res.cell_interactions += 1;
        } else {
            for &c in &cell.children {
                if c != NO_CELL {
                    stack.push(c as u32);
                }
            }
        }
    }
    res
}

/// Accelerations for every body (the full sequential force phase).
pub fn all_accels(tree: &Octree, bodies: &[Body], params: BhParams) -> Vec<WalkResult> {
    (0..bodies.len())
        .map(|i| walk(tree, bodies, i, params))
        .collect()
}

/// Relative error of `approx` against `exact`, guarding tiny magnitudes.
pub fn rel_err(approx: Vec3, exact: Vec3) -> f64 {
    let scale = exact.norm().max(1e-12);
    (approx - exact).norm() / scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::direct_accel;
    use crate::distrib::{plummer, uniform_cube};

    #[test]
    fn theta_zero_matches_direct_exactly() {
        // θ = 0 never accepts a monopole: the walk degenerates to direct
        // summation over the leaves.
        let bodies = uniform_cube(200, 4);
        let tree = Octree::build(&bodies, 4);
        let p = BhParams {
            theta: 0.0,
            eps: 0.01,
        };
        for i in (0..bodies.len()).step_by(17) {
            let w = walk(&tree, &bodies, i, p);
            let d = direct_accel(&bodies, i, 0.01);
            assert!(rel_err(w.acc, d) < 1e-12, "body {i}: {:?} vs {d:?}", w.acc);
            assert_eq!(w.cell_interactions, 0);
            assert_eq!(w.body_interactions, 199);
        }
    }

    #[test]
    fn accuracy_improves_with_smaller_theta() {
        let bodies = plummer(600, 6);
        let tree = Octree::build(&bodies, 8);
        let mut errs = Vec::new();
        for theta in [1.5, 1.0, 0.5] {
            let p = BhParams { theta, eps: 0.05 };
            let mut worst = 0.0f64;
            for i in (0..bodies.len()).step_by(29) {
                let w = walk(&tree, &bodies, i, p);
                let d = direct_accel(&bodies, i, 0.05);
                worst = worst.max(rel_err(w.acc, d));
            }
            errs.push(worst);
        }
        assert!(errs[0] >= errs[1] && errs[1] >= errs[2], "errors {errs:?}");
        assert!(errs[2] < 0.05, "theta=0.5 should be within 5%: {errs:?}");
    }

    #[test]
    fn interaction_counts_shrink_with_larger_theta() {
        let bodies = plummer(800, 8);
        let tree = Octree::build(&bodies, 8);
        let count = |theta: f64| -> u64 {
            let p = BhParams { theta, eps: 0.05 };
            all_accels(&tree, &bodies, p)
                .iter()
                .map(|w| w.cell_interactions + w.body_interactions)
                .sum()
        };
        let loose = count(1.2);
        let tight = count(0.4);
        assert!(
            loose < tight,
            "larger theta must do fewer interactions ({loose} vs {tight})"
        );
    }

    #[test]
    fn forces_sum_to_near_zero() {
        // Newton's third law: internal forces cancel (monopole error aside).
        let bodies = uniform_cube(300, 12);
        let tree = Octree::build(&bodies, 8);
        let p = BhParams::default();
        let mut total = Vec3::ZERO;
        for (i, w) in all_accels(&tree, &bodies, p).iter().enumerate() {
            total += w.acc * bodies[i].mass;
        }
        // Direct sum would cancel to machine precision; BH to ~theta error.
        assert!(total.norm() < 0.05, "net force {total:?}");
    }

    #[test]
    fn walk_counts_are_consistent() {
        let bodies = uniform_cube(200, 1);
        let tree = Octree::build(&bodies, 4);
        let w = walk(&tree, &bodies, 0, BhParams::default());
        assert!(w.cells_visited >= w.cell_interactions);
        assert!(w.acc.is_finite());
    }
}
