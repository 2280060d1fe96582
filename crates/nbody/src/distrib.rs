//! Initial-condition generators.
//!
//! SPLASH-2's Barnes-Hut inputs are Plummer-model spheres; its FMM inputs
//! are (clustered) uniform distributions. Both are provided, seeded and
//! deterministic.

use crate::body::Body;
use crate::vec3::Vec3;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// `n` bodies uniform in the cube `[-1, 1]^3`, equal masses summing to 1.
pub fn uniform_cube(n: usize, seed: u64) -> Vec<Body> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = 1.0 / n as f64;
    (0..n)
        .map(|_| {
            Body::at(
                Vec3::new(
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                ),
                m,
            )
        })
        .collect()
}

/// `n` bodies drawn from a Plummer model (the SPLASH-2 Barnes-Hut input
/// distribution), truncated at radius `rmax`, equal masses summing to 1.
pub fn plummer(n: usize, seed: u64) -> Vec<Body> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = 1.0 / n as f64;
    let rmax = 8.0;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        // Inverse-CDF sampling of the Plummer radial profile.
        let x: f64 = rng.gen_range(1e-8..0.999);
        let r = (x.powf(-2.0 / 3.0) - 1.0).powf(-0.5);
        if r > rmax {
            continue;
        }
        // Uniform direction.
        let z: f64 = rng.gen_range(-1.0..1.0);
        let phi: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        let s = (1.0 - z * z).sqrt();
        out.push(Body::at(
            Vec3::new(r * s * phi.cos(), r * s * phi.sin(), r * z),
            m,
        ));
    }
    out
}

/// `n` bodies uniform in the unit square (z = 0), unit total charge —
/// the FMM input (2D).
pub fn uniform_square(n: usize, seed: u64) -> Vec<Body> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = 1.0 / n as f64;
    (0..n)
        .map(|_| {
            Body::at(
                Vec3::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0), 0.0),
                m,
            )
        })
        .collect()
}

/// `n` bodies in `k` Gaussian clusters inside the unit square (z = 0) —
/// the non-uniform FMM stress input.
pub fn clustered_square(n: usize, k: usize, seed: u64) -> Vec<Body> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = 1.0 / n as f64;
    let centers: Vec<(f64, f64)> = (0..k.max(1))
        .map(|_| (rng.gen_range(0.15..0.85), rng.gen_range(0.15..0.85)))
        .collect();
    (0..n)
        .map(|i| {
            let (cx, cy) = centers[i % centers.len()];
            // Box-Muller-ish scatter, clamped into the unit square.
            let dx: f64 = rng.gen_range(-1.0f64..1.0).powi(3) * 0.12;
            let dy: f64 = rng.gen_range(-1.0f64..1.0).powi(3) * 0.12;
            Body::at(
                Vec3::new(
                    (cx + dx).clamp(1e-6, 1.0 - 1e-6),
                    (cy + dy).clamp(1e-6, 1.0 - 1e-6),
                    0.0,
                ),
                m,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_cube_in_bounds() {
        let b = uniform_cube(500, 1);
        assert_eq!(b.len(), 500);
        for body in &b {
            assert!(body.pos.x.abs() <= 1.0);
            assert!(body.pos.y.abs() <= 1.0);
            assert!(body.pos.z.abs() <= 1.0);
        }
        let total: f64 = b.iter().map(|x| x.mass).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn plummer_is_centrally_concentrated() {
        let b = plummer(2000, 2);
        assert_eq!(b.len(), 2000);
        // Plummer enclosed-mass profile: M(<r) = r^3 (1+r^2)^{-3/2}, so
        // ~35% of mass lies inside the scale radius and ~72% inside r = 2.
        let frac = |r: f64| b.iter().filter(|x| x.pos.norm() < r).count() as f64 / b.len() as f64;
        assert!((0.30..0.42).contains(&frac(1.0)), "f(<1) = {}", frac(1.0));
        assert!((0.65..0.80).contains(&frac(2.0)), "f(<2) = {}", frac(2.0));
        assert!(b.iter().all(|x| x.pos.norm() <= 8.0));
    }

    #[test]
    fn square_inputs_are_planar() {
        for b in uniform_square(300, 3)
            .iter()
            .chain(clustered_square(300, 4, 3).iter())
        {
            assert_eq!(b.pos.z, 0.0);
            assert!((0.0..=1.0).contains(&b.pos.x));
            assert!((0.0..=1.0).contains(&b.pos.y));
        }
    }

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(plummer(100, 7), plummer(100, 7));
        assert_ne!(plummer(100, 7), plummer(100, 8));
    }
}
