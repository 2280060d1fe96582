//! Complex arithmetic for the 2D fast multipole method.
//!
//! The 2D Laplace kernel is `log|z - z0|`, most naturally handled in the
//! complex plane (Greengard & Rokhlin): particles at complex positions,
//! potentials as complex analytic functions whose real part is the
//! physical potential and whose derivative encodes the field.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// A complex number.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Cx {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Cx {
    /// Zero.
    pub const ZERO: Cx = Cx { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Cx = Cx { re: 1.0, im: 0.0 };

    /// Construct from parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Cx {
        Cx { re, im }
    }

    /// A purely real value.
    #[inline]
    pub const fn real(re: f64) -> Cx {
        Cx { re, im: 0.0 }
    }

    /// Squared modulus.
    #[inline]
    pub fn norm2(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm2().sqrt()
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Cx {
        Cx::new(self.re, -self.im)
    }

    /// Reciprocal. Caller must avoid zero.
    #[inline]
    pub fn recip(self) -> Cx {
        let n = self.norm2();
        Cx::new(self.re / n, -self.im / n)
    }

    /// Principal branch logarithm.
    #[inline]
    pub fn ln(self) -> Cx {
        Cx::new(self.abs().ln(), self.im.atan2(self.re))
    }

    /// Integer power by repeated squaring.
    pub fn powi(self, mut n: u32) -> Cx {
        let mut base = self;
        let mut acc = Cx::ONE;
        while n > 0 {
            if n & 1 == 1 {
                acc = acc * base;
            }
            base = base * base;
            n >>= 1;
        }
        acc
    }

    /// `true` if both parts are finite.
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl Add for Cx {
    type Output = Cx;
    #[inline]
    fn add(self, o: Cx) -> Cx {
        Cx::new(self.re + o.re, self.im + o.im)
    }
}

impl AddAssign for Cx {
    #[inline]
    fn add_assign(&mut self, o: Cx) {
        *self = *self + o;
    }
}

impl Sub for Cx {
    type Output = Cx;
    #[inline]
    fn sub(self, o: Cx) -> Cx {
        Cx::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for Cx {
    type Output = Cx;
    #[inline]
    fn mul(self, o: Cx) -> Cx {
        Cx::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }
}

impl Mul<f64> for Cx {
    type Output = Cx;
    #[inline]
    fn mul(self, s: f64) -> Cx {
        Cx::new(self.re * s, self.im * s)
    }
}

impl Div for Cx {
    type Output = Cx;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z / w = z * w^-1
    fn div(self, o: Cx) -> Cx {
        self * o.recip()
    }
}

impl Div<f64> for Cx {
    type Output = Cx;
    #[inline]
    fn div(self, s: f64) -> Cx {
        Cx::new(self.re / s, self.im / s)
    }
}

impl Neg for Cx {
    type Output = Cx;
    #[inline]
    fn neg(self) -> Cx {
        Cx::new(-self.re, -self.im)
    }
}

/// Binomial coefficients for the translation operators, in two flat
/// tables built once:
///
/// * Pascal's triangle, row-major (row `n` starts at `n(n+1)/2`), behind
///   [`Binomials::c`];
/// * the translation table `T[k][l] = C(l+k−1, k−1)` for `k` in
///   `1..=max_terms+1`, `l` in `0..=max_terms`, each row contiguous in `l`
///   — the factor all three of M2L, M2M and L2L multiply by, laid out so
///   their inner loops walk one row (`Binomials::shift_row`). Entries are
///   copied from the triangle, so both tables hold the same bits.
#[derive(Clone, Debug)]
pub struct Binomials {
    max_n: usize,
    pascal: Vec<f64>,
    shift: Vec<f64>,
}

impl Binomials {
    /// Pascal's triangle up to row `max_n`; serves translations of up to
    /// `max_n / 2` terms.
    pub fn new(max_n: usize) -> Binomials {
        let mut pascal = vec![1.0; (max_n + 1) * (max_n + 2) / 2];
        for n in 2..=max_n {
            let (prev, row) = (n * (n - 1) / 2, n * (n + 1) / 2);
            for k in 1..n {
                pascal[row + k] = pascal[prev + k - 1] + pascal[prev + k];
            }
        }
        let stride = max_n / 2 + 1;
        let mut shift = Vec::with_capacity(stride * stride);
        for k in 1..=stride {
            for l in 0..stride {
                let n = l + k - 1;
                shift.push(pascal[n * (n + 1) / 2 + k - 1]);
            }
        }
        Binomials {
            max_n,
            pascal,
            shift,
        }
    }

    /// C(n, k); 0 for `k > n`. Panics if `n` is beyond the table.
    #[inline]
    pub fn c(&self, n: usize, k: usize) -> f64 {
        if k > n {
            return 0.0;
        }
        assert!(
            n <= self.max_n,
            "C({n}, {k}) is outside Binomials::new({})",
            self.max_n
        );
        self.pascal[n * (n + 1) / 2 + k]
    }

    /// The largest term count `p` whose translations this table serves.
    #[inline]
    pub fn max_terms(&self) -> usize {
        self.max_n / 2
    }

    /// Row `k` (`1..=max_terms+1`) of the translation table:
    /// `shift_row(k)[l] = C(l+k−1, k−1)` for `l` in `0..=max_terms`.
    #[inline]
    pub(crate) fn shift_row(&self, k: usize) -> &[f64] {
        let stride = self.max_terms() + 1;
        &self.shift[(k - 1) * stride..k * stride]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Cx, b: Cx) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn field_ops() {
        let a = Cx::new(1.0, 2.0);
        let b = Cx::new(3.0, -1.0);
        assert!(close(a + b, Cx::new(4.0, 1.0)));
        assert!(close(a * b, Cx::new(5.0, 5.0)));
        assert!(close(a * b / b, a));
        assert!(close(a.recip() * a, Cx::ONE));
        assert!(close(-a + a, Cx::ZERO));
    }

    #[test]
    fn conj_and_abs() {
        let a = Cx::new(3.0, 4.0);
        assert_eq!(a.abs(), 5.0);
        assert_eq!(a.conj(), Cx::new(3.0, -4.0));
        assert_eq!((a * a.conj()).re, 25.0);
    }

    #[test]
    fn ln_of_e() {
        let e = Cx::real(std::f64::consts::E);
        assert!(close(e.ln(), Cx::ONE));
        // ln(-1) = i*pi on the principal branch.
        assert!(close(
            Cx::real(-1.0).ln(),
            Cx::new(0.0, std::f64::consts::PI)
        ));
    }

    #[test]
    fn powers() {
        let i = Cx::new(0.0, 1.0);
        assert!(close(i.powi(2), Cx::real(-1.0)));
        assert!(close(i.powi(4), Cx::ONE));
        assert!(close(Cx::new(2.0, 0.0).powi(10), Cx::real(1024.0)));
        assert!(close(Cx::new(1.5, -0.5).powi(0), Cx::ONE));
    }

    #[test]
    fn binomials_match_pascal() {
        let b = Binomials::new(10);
        assert_eq!(b.c(0, 0), 1.0);
        assert_eq!(b.c(5, 2), 10.0);
        assert_eq!(b.c(10, 5), 252.0);
        assert_eq!(b.c(4, 7), 0.0);
    }

    #[test]
    fn shift_rows_are_the_triangle_diagonals() {
        let b = Binomials::new(61);
        assert_eq!(b.max_terms(), 30);
        for k in 1..=31 {
            let row = b.shift_row(k);
            assert_eq!(row.len(), 31);
            for (l, &t) in row.iter().enumerate() {
                assert_eq!(t.to_bits(), b.c(l + k - 1, k - 1).to_bits());
                // The L2L kernel reads C(n, j) where the sum is written
                // with C(n, n−j): the triangle is bit-symmetric.
                assert_eq!(t.to_bits(), b.c(l + k - 1, l).to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside Binomials::new(10)")]
    fn out_of_range_row_names_the_table() {
        Binomials::new(10).c(11, 3);
    }

    #[test]
    fn finiteness() {
        assert!(Cx::new(1.0, 1.0).is_finite());
        assert!(!Cx::new(f64::NAN, 0.0).is_finite());
    }
}
