//! Leapfrog (kick-drift-kick) time integration and energy diagnostics.
//!
//! The paper times the force-computation phase of a 4-step Barnes-Hut
//! run; this module supplies the step loop around that phase, plus the
//! standard energy-conservation check used to validate N-body codes.

use crate::bh::{all_accels, BhParams};
use crate::body::Body;
use crate::octree::Octree;
use crate::vec3::Vec3;

/// Total kinetic energy of the system.
pub fn kinetic_energy(bodies: &[Body]) -> f64 {
    bodies.iter().map(|b| 0.5 * b.mass * b.vel.norm2()).sum()
}

/// Total (softened) gravitational potential energy, by direct summation.
pub fn potential_energy(bodies: &[Body], eps: f64) -> f64 {
    let mut pe = 0.0;
    for i in 0..bodies.len() {
        for j in (i + 1)..bodies.len() {
            let r2 = (bodies[i].pos - bodies[j].pos).norm2() + eps * eps;
            pe -= bodies[i].mass * bodies[j].mass / r2.sqrt();
        }
    }
    pe
}

/// Total energy (kinetic + potential).
pub fn total_energy(bodies: &[Body], eps: f64) -> f64 {
    kinetic_energy(bodies) + potential_energy(bodies, eps)
}

/// Advance `bodies` by one leapfrog step of size `dt` using Barnes-Hut
/// forces with a freshly-built tree (`leaf_cap` per leaf). Returns the
/// tree so callers can inspect it.
pub fn leapfrog_step(bodies: &mut [Body], dt: f64, leaf_cap: usize, params: BhParams) -> Octree {
    // Kick (half) with current accelerations.
    let tree = Octree::build(bodies, leaf_cap);
    let accs: Vec<Vec3> = all_accels(&tree, bodies, params)
        .into_iter()
        .map(|w| w.acc)
        .collect();
    for (b, a) in bodies.iter_mut().zip(&accs) {
        b.vel += *a * (dt * 0.5);
    }
    // Drift (full).
    for b in bodies.iter_mut() {
        b.pos += b.vel * dt;
    }
    // Kick (half) with new accelerations.
    let tree = Octree::build(bodies, leaf_cap);
    let accs: Vec<Vec3> = all_accels(&tree, bodies, params)
        .into_iter()
        .map(|w| w.acc)
        .collect();
    for (b, a) in bodies.iter_mut().zip(&accs) {
        b.vel += *a * (dt * 0.5);
    }
    tree
}

/// Run `steps` leapfrog steps; returns the relative total-energy drift
/// `|E_end − E_start| / |E_start|`.
pub fn run_steps(
    bodies: &mut [Body],
    steps: usize,
    dt: f64,
    leaf_cap: usize,
    params: BhParams,
) -> f64 {
    let e0 = total_energy(bodies, params.eps);
    for _ in 0..steps {
        leapfrog_step(bodies, dt, leaf_cap, params);
    }
    let e1 = total_energy(bodies, params.eps);
    (e1 - e0).abs() / e0.abs().max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distrib::plummer;

    #[test]
    fn two_body_circular_orbit_conserves_energy() {
        // Two equal masses on a circular orbit: v² = G m_other / (2 r)
        // for separation 2r about the barycenter (G = 1).
        let m: f64 = 0.5;
        let r: f64 = 1.0;
        let v = (m / (4.0 * r)).sqrt();
        let mut bodies = vec![
            Body {
                pos: Vec3::new(-r, 0.0, 0.0),
                vel: Vec3::new(0.0, -v, 0.0),
                mass: m,
            },
            Body {
                pos: Vec3::new(r, 0.0, 0.0),
                vel: Vec3::new(0.0, v, 0.0),
                mass: m,
            },
        ];
        let params = BhParams {
            theta: 0.0, // exact forces
            eps: 0.0,
        };
        let drift = run_steps(&mut bodies, 200, 0.01, 1, params);
        assert!(drift < 1e-4, "energy drift {drift}");
        // Still roughly at unit radius.
        let sep = (bodies[0].pos - bodies[1].pos).norm();
        assert!((sep - 2.0 * r).abs() < 0.05, "separation {sep}");
    }

    #[test]
    fn plummer_short_run_energy_bounded() {
        let mut bodies = plummer(300, 9);
        let params = BhParams::default();
        let drift = run_steps(&mut bodies, 4, 0.005, 4, params);
        // 4 paper-scale steps: drift stays small (softened, leapfrog).
        assert!(drift < 0.02, "energy drift {drift}");
    }

    #[test]
    fn momentum_is_conserved() {
        let mut bodies = plummer(200, 31);
        // Zero out net momentum first.
        let mut p = Vec3::ZERO;
        for b in &bodies {
            p += b.vel * b.mass;
        }
        let total_mass: f64 = bodies.iter().map(|b| b.mass).sum();
        for b in bodies.iter_mut() {
            b.vel = b.vel - p / total_mass;
        }
        let params = BhParams {
            theta: 0.0, // exact pairwise forces conserve momentum exactly
            eps: 0.05,
        };
        for _ in 0..3 {
            leapfrog_step(&mut bodies, 0.01, 4, params);
        }
        let mut p1 = Vec3::ZERO;
        for b in &bodies {
            p1 += b.vel * b.mass;
        }
        assert!(p1.norm() < 1e-10, "net momentum {p1:?}");
    }

    #[test]
    fn energies_have_expected_signs() {
        let bodies = plummer(100, 3);
        assert!(kinetic_energy(&bodies) >= 0.0);
        assert!(potential_energy(&bodies, 0.05) < 0.0);
    }
}
