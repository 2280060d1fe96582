//! The 2D fast multipole method (Greengard–Rokhlin), sequential reference.
//!
//! Potentials are complex-analytic: a source of charge `q` at `z0`
//! contributes `q·log(z − z0)`; the physical field at `z` is the complex
//! derivative `q/(z − z0)` (its conjugate is the force vector). The
//! SPLASH-2 FMM application is this method in its 2D adaptive form; we use
//! the uniform-refinement form, whose interaction lists have the same
//! communication structure.
//!
//! The paper runs FMM with **29 terms** (`p = 29`), which at the standard
//! well-separateness ratio converges far past double precision — our
//! accuracy tests verify machine-level agreement with direct summation.

use crate::cx::{Binomials, Cx};
use crate::quadtree::{BoxId, QuadTree};

/// FMM parameters.
#[derive(Clone, Copy, Debug)]
pub struct FmmParams {
    /// Number of expansion terms `p` (the paper's "29 terms").
    pub terms: usize,
    /// Finest refinement level of the quadtree.
    pub levels: u32,
}

impl Default for FmmParams {
    fn default() -> Self {
        FmmParams {
            terms: 29,
            levels: 4,
        }
    }
}

/// A multipole expansion about a box center: `coeffs[0]` is the total
/// charge `Q`; `coeffs[k]` (k ≥ 1) the `a_k` of
/// `Φ(z) = Q·log(z−c) + Σ a_k (z−c)^{-k}`.
#[derive(Clone, Debug, PartialEq)]
pub struct Multipole {
    /// `p + 1` coefficients.
    pub coeffs: Vec<Cx>,
}

/// A local (Taylor) expansion about a box center:
/// `Ψ(z) = Σ c_l (z−c)^l`.
#[derive(Clone, Debug, PartialEq)]
pub struct Local {
    /// `p + 1` coefficients.
    pub coeffs: Vec<Cx>,
}

impl Multipole {
    /// The zero expansion with `p` terms.
    pub fn zero(p: usize) -> Multipole {
        Multipole {
            coeffs: vec![Cx::ZERO; p + 1],
        }
    }

    /// Total charge represented.
    pub fn charge(&self) -> Cx {
        self.coeffs[0]
    }
}

impl Local {
    /// The zero expansion with `p` terms.
    pub fn zero(p: usize) -> Local {
        Local {
            coeffs: vec![Cx::ZERO; p + 1],
        }
    }

    /// Accumulate another local expansion.
    pub fn add_assign(&mut self, o: &Local) {
        debug_assert_eq!(self.coeffs.len(), o.coeffs.len());
        for (a, b) in self.coeffs.iter_mut().zip(&o.coeffs) {
            *a += *b;
        }
    }
}

/// Form the multipole expansion of point charges `(z_i, q_i)` about
/// `center` (P2M).
pub fn p2m(points: &[(Cx, f64)], center: Cx, p: usize) -> Multipole {
    let mut m = Multipole::zero(p);
    for &(z, q) in points {
        let d = z - center;
        m.coeffs[0] += Cx::real(q);
        let mut dk = Cx::ONE;
        for k in 1..=p {
            dk = dk * d;
            // a_k = -q d^k / k
            m.coeffs[k] += dk * (-q / k as f64);
        }
    }
    m
}

/// Stack-scratch length of the translation kernels: `p + 1` must fit.
const MAX_COEFFS: usize = 64;

/// Real and imaginary parts of `p + 1` coefficients, split so the kernels'
/// inner loops run over plain `f64` slices.
struct Split {
    re: [f64; MAX_COEFFS],
    im: [f64; MAX_COEFFS],
}

impl Split {
    const ZERO: Split = Split {
        re: [0.0; MAX_COEFFS],
        im: [0.0; MAX_COEFFS],
    };

    #[inline]
    fn set(&mut self, i: usize, z: Cx) {
        self.re[i] = z.re;
        self.im[i] = z.im;
    }

    #[inline]
    fn get(&self, i: usize) -> Cx {
        Cx::new(self.re[i], self.im[i])
    }
}

/// The check shared by the three translation kernels, once at entry: the
/// stack scratch and `bin` hold `p` terms.
#[inline]
fn check_terms(p: usize, bin: &Binomials) {
    assert!(
        p < MAX_COEFFS && p <= bin.max_terms(),
        "translation with p = {p} terms: the kernels hold p < {MAX_COEFFS} and this Binomials \
         table serves p <= {} (Binomials::new(2p) or larger)",
        bin.max_terms()
    );
}

/// `acc[i] += (a · x[i]) · row[i]` over `row.len()` entries, `acc` starting
/// at coefficient `at` and `x` at coefficient `from`: the complex product
/// first, then the real scale, then the add, each rounded — the operation
/// order of the textbook sums, so the kernels built on it are bit-identical
/// to them. (Rust never contracts a mul and an add into an FMA.) Zipped
/// slices, so the loop carries no bounds check and vectorises.
#[inline]
fn shift_axpy(acc: &mut Split, at: usize, a: Cx, x: &Split, from: usize, row: &[f64]) {
    let n = row.len();
    let acc_re = &mut acc.re[at..at + n];
    let acc_im = &mut acc.im[at..at + n];
    let xs = x.re[from..from + n].iter().zip(&x.im[from..from + n]);
    for (((sr, si), (&xr, &xi)), &c) in acc_re.iter_mut().zip(acc_im).zip(xs).zip(row) {
        *sr += (a.re * xr - a.im * xi) * c;
        *si += (a.re * xi + a.im * xr) * c;
    }
}

/// Shift a child multipole (center `zc`) to the parent center `zp`
/// (M2M); `d = zc − zp`.
pub fn m2m(child: &Multipole, d: Cx, bin: &Binomials) -> Multipole {
    let mut out = Multipole::zero(child.coeffs.len() - 1);
    m2m_with(child, d, bin, &mut out.coeffs, |o, v| *o = v);
    out
}

/// [`m2m`], accumulated into `acc` (`acc += m2m(child, d)`, without the
/// intermediate expansion).
pub fn m2m_into(child: &Multipole, d: Cx, bin: &Binomials, acc: &mut Multipole) {
    m2m_with(child, d, bin, &mut acc.coeffs, |o, v| *o += v);
}

/// `b_l = −Q d^l / l + Σ_{k=1..l} a_k d^{l−k} C(l−1, k−1)`, summed with `k`
/// outermost: for each `k` the addends of `b_k..b_p` are one [`shift_axpy`]
/// over `d^0..d^{p−k}` and row `k` of the translation table
/// (`C(l−1, k−1) = T[k][l−k]`). Every `b_l` still receives its addends in
/// ascending `k`.
#[inline]
fn m2m_with(
    child: &Multipole,
    d: Cx,
    bin: &Binomials,
    out: &mut [Cx],
    store: impl Fn(&mut Cx, Cx),
) {
    let p = child.coeffs.len() - 1;
    assert_eq!(out.len(), p + 1, "M2M between expansions of different length");
    check_terms(p, bin);
    debug_assert!(d.is_finite(), "M2M by the shift {d:?}");
    let q = child.coeffs[0];
    store(&mut out[0], q);
    let mut dpow = Split::ZERO;
    let mut b = Split::ZERO;
    let mut dl = Cx::ONE;
    dpow.set(0, dl);
    for l in 1..=p {
        dl = dl * d;
        dpow.set(l, dl);
        b.set(l, dl * (q * (-1.0 / l as f64)));
    }
    for k in 1..=p {
        shift_axpy(&mut b, k, child.coeffs[k], &dpow, 0, &bin.shift_row(k)[..=p - k]);
    }
    for (l, o) in out.iter_mut().enumerate().skip(1) {
        store(o, b.get(l));
    }
}

/// The part of an M2L that depends on the shift `d` alone: `1/d^k` for
/// `k = 1..=p` — one chain of `p` dependent complex multiplies — and
/// `log(−d)`. In a uniform quadtree `d` takes 40 values per level (box
/// centers are dyadic, so their differences are exact), which is what
/// [`FmmSolver::m2l_into`] keeps these for; [`m2l`] and [`m2l_into`] build
/// one per call.
pub struct M2lShift {
    terms: usize,
    dipow: Split,
    log_neg_d: Cx,
}

impl M2lShift {
    /// The shift by `d = zs − zt` (nonzero, finite) for expansions of up to
    /// `p` terms.
    pub fn new(d: Cx, p: usize) -> M2lShift {
        assert!(p < MAX_COEFFS, "M2L with p = {p} terms: the kernels hold p < {MAX_COEFFS}");
        debug_assert!(d.is_finite() && d != Cx::ZERO, "M2L by the shift {d:?}");
        let dinv = d.recip();
        let mut dipow = Split::ZERO;
        let mut dik = Cx::ONE;
        for k in 1..=p {
            dik = dik * dinv;
            dipow.set(k, dik);
        }
        M2lShift {
            terms: p,
            dipow,
            log_neg_d: (-d).ln(),
        }
    }
}

/// Convert a well-separated multipole (center `zs`) into a local expansion
/// about `zt` (M2L); `d = zs − zt`, which must be nonzero and
/// well-separated for convergence.
pub fn m2l(src: &Multipole, d: Cx, bin: &Binomials) -> Local {
    let p = src.coeffs.len() - 1;
    let mut out = Local::zero(p);
    m2l_with(src, &M2lShift::new(d, p), bin, &mut out.coeffs, |o, v| *o = v);
    out
}

/// [`m2l`], accumulated into `acc` (`acc.add_assign(&m2l(src, d))`, without
/// the intermediate expansion).
pub fn m2l_into(src: &Multipole, d: Cx, bin: &Binomials, acc: &mut Local) {
    m2l_shifted_into(src, &M2lShift::new(d, src.coeffs.len() - 1), bin, acc);
}

/// [`m2l_into`] by a shift prepared once.
pub fn m2l_shifted_into(src: &Multipole, shift: &M2lShift, bin: &Binomials, acc: &mut Local) {
    m2l_with(src, shift, bin, &mut acc.coeffs, |o, v| *o += v);
}

/// With `t_k = a_k (−1)^k / d^k`: `c_0 = Q log(−d) + Σ t_k` and
/// `c_l = (1/d^l) [ −Q/l + Σ_{k=1..p} t_k C(l+k−1, k−1) ]`, summed with `k`
/// outermost: each `k` adds `t_k · T[k][1..=p]` to all the `c_l` at once, a
/// real-times-real axpy over one contiguous table row for each of the real
/// and imaginary parts. Every `c_l` still starts from `−Q/l` and receives
/// `k = 1..=p` in ascending order.
#[inline]
fn m2l_with(
    src: &Multipole,
    shift: &M2lShift,
    bin: &Binomials,
    out: &mut [Cx],
    store: impl Fn(&mut Cx, Cx),
) {
    let p = src.coeffs.len() - 1;
    assert_eq!(out.len(), p + 1, "M2L between expansions of different length");
    assert!(p <= shift.terms, "M2L of {p} terms by a shift prepared for {}", shift.terms);
    check_terms(p, bin);
    let q = src.coeffs[0];
    let mut t = Split::ZERO;
    let mut s = Split::ZERO;
    let mut c0 = q * shift.log_neg_d;
    for k in 1..=p {
        let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
        let tk = src.coeffs[k] * shift.dipow.get(k) * sign;
        t.set(k, tk);
        c0 += tk;
        s.set(k, q * (-1.0 / k as f64));
    }
    store(&mut out[0], c0);
    for k in 1..=p {
        let (tr, ti) = (t.re[k], t.im[k]);
        let row = &bin.shift_row(k)[1..=p];
        let sums = s.re[1..=p].iter_mut().zip(&mut s.im[1..=p]);
        for ((sr, si), &c) in sums.zip(row) {
            *sr += tr * c;
            *si += ti * c;
        }
    }
    for (l, o) in out.iter_mut().enumerate().skip(1) {
        store(o, s.get(l) * shift.dipow.get(l));
    }
}

/// Shift a parent local expansion (center `zp`) to a child center `zc`
/// (L2L); `t = zc − zp`.
pub fn l2l(parent: &Local, t: Cx, bin: &Binomials) -> Local {
    let mut out = Local::zero(parent.coeffs.len() - 1);
    l2l_with(parent, t, bin, &mut out.coeffs, |o, v| *o = v);
    out
}

/// [`l2l`], accumulated into `acc` (`acc.add_assign(&l2l(parent, t))`,
/// without the intermediate expansion).
pub fn l2l_into(parent: &Local, t: Cx, bin: &Binomials, acc: &mut Local) {
    l2l_with(parent, t, bin, &mut acc.coeffs, |o, v| *o += v);
}

/// `c'_l = Σ_{k=l..p} c_k t^{k−l} C(k, l)`, summed along diagonals: for
/// each `j = k − l` the addends of `c'_0..c'_{p−j}` are one [`shift_axpy`]
/// of `t^j` over `c_j..c_p` and row `j+1` of the translation table
/// (`C(k, l) = C(l+j, j) = T[j+1][l]`, by the triangle's symmetry). Every
/// `c'_l` still starts from zero and receives `k = l..=p` in ascending
/// order.
#[inline]
fn l2l_with(parent: &Local, t: Cx, bin: &Binomials, out: &mut [Cx], store: impl Fn(&mut Cx, Cx)) {
    let p = parent.coeffs.len() - 1;
    assert_eq!(out.len(), p + 1, "L2L between expansions of different length");
    check_terms(p, bin);
    debug_assert!(t.is_finite(), "L2L by the shift {t:?}");
    let mut c = Split::ZERO;
    for (k, &ck) in parent.coeffs.iter().enumerate() {
        c.set(k, ck);
    }
    let mut s = Split::ZERO;
    let mut tj = Cx::ONE;
    for j in 0..=p {
        shift_axpy(&mut s, 0, tj, &c, j, &bin.shift_row(j + 1)[..=p - j]);
        tj = tj * t;
    }
    for (l, o) in out.iter_mut().enumerate() {
        store(o, s.get(l));
    }
}

/// Evaluate the *field* (complex derivative `Ψ'`) of a local expansion at
/// `z` (expansion center `c`).
pub fn eval_local_field(local: &Local, z: Cx, c: Cx) -> Cx {
    let w = z - c;
    // Horner on Σ l c_l w^{l-1}.
    let p = local.coeffs.len() - 1;
    let mut acc = Cx::ZERO;
    for l in (1..=p).rev() {
        acc = acc * w + local.coeffs[l] * (l as f64);
    }
    acc
}

/// Evaluate the field of a multipole expansion at a well-separated `z`
/// (expansion center `c`): `Φ'(z) = Q/(z−c) − Σ k a_k (z−c)^{-k-1}`.
pub fn eval_multipole_field(m: &Multipole, z: Cx, c: Cx) -> Cx {
    let w = z - c;
    let winv = w.recip();
    let p = m.coeffs.len() - 1;
    let mut acc = m.coeffs[0] * winv;
    let mut wk = winv;
    for k in 1..=p {
        wk = wk * winv; // w^{-(k+1)}
        acc += m.coeffs[k] * wk * (-(k as f64));
    }
    acc
}

/// Direct particle-particle field at `z` from sources `(z_i, q_i)`,
/// skipping any source closer than `1e-12` (self).
pub fn p2p_field(z: Cx, sources: &[(Cx, f64)]) -> Cx {
    let mut acc = Cx::ZERO;
    for &(zs, q) in sources {
        let d = z - zs;
        if d.norm2() > 1e-24 {
            acc += d.recip() * q;
        }
    }
    acc
}

/// A complete sequential FMM evaluation: fields at every particle.
///
/// This is both the correctness oracle for the distributed FMM and the
/// source of its per-operation costs.
pub struct FmmSolver {
    /// Parameters used.
    pub params: FmmParams,
    /// The quadtree.
    pub tree: QuadTree,
    /// Particle positions.
    pub zs: Vec<Cx>,
    /// Particle charges.
    pub qs: Vec<f64>,
    /// Multipole expansion per box (dense index).
    pub multipoles: Vec<Multipole>,
    /// Local expansion per box (dense index): empty until
    /// [`FmmSolver::downward`] computes them, so a solver kept for its
    /// tree and multipoles holds none.
    pub locals: Vec<Local>,
    bin: Binomials,
    /// The M2L shift per (level, box offset): interaction lists reach 2 or
    /// 3 boxes away on an axis, so `[level][dy + 3][dx + 3]`, `None` where
    /// the offset is a neighbor's.
    shifts: Vec<Option<M2lShift>>,
}

/// Box offsets on an interaction list lie in `−IL_REACH..=IL_REACH`.
const IL_REACH: i64 = 3;
const IL_SPAN: i64 = 2 * IL_REACH + 1;

impl FmmSolver {
    /// Build the tree and run the upward pass (P2M + M2M).
    pub fn new(zs: Vec<Cx>, qs: Vec<f64>, params: FmmParams) -> FmmSolver {
        assert_eq!(zs.len(), qs.len());
        let tree = QuadTree::build(&zs, params.levels);
        let p = params.terms;
        let bin = Binomials::new(2 * p + 2);
        let total = BoxId::total_boxes(params.levels);
        let mut shifts = Vec::new();
        for level in 0..=params.levels {
            // Centers are dyadic: an offset times the side is exactly the
            // difference of the two centers.
            let side = BoxId { level, x: 0, y: 0 }.side();
            for dy in -IL_REACH..=IL_REACH {
                for dx in -IL_REACH..=IL_REACH {
                    let d = Cx::new(dx as f64 * side, dy as f64 * side);
                    shifts.push((dx.abs().max(dy.abs()) >= 2).then(|| M2lShift::new(d, p)));
                }
            }
        }
        let mut solver = FmmSolver {
            params,
            tree,
            zs,
            qs,
            multipoles: vec![Multipole::zero(p); total],
            locals: Vec::new(),
            bin,
            shifts,
        };
        solver.upward();
        solver
    }

    /// The binomial table sized for this solver's translations.
    pub fn binomials(&self) -> &Binomials {
        &self.bin
    }

    /// `acc += M2L` of box `src`'s multipole about the center of `tgt`,
    /// which has `src` on its interaction list.
    pub fn m2l_into(&self, src: BoxId, tgt: BoxId, acc: &mut Local) {
        self.m2l_into_coeffs(src, tgt, &mut acc.coeffs);
    }

    /// [`FmmSolver::m2l_into`] on the bare `terms + 1` coefficients of a
    /// local expansion, for accumulators kept side by side in one slab.
    pub fn m2l_into_coeffs(&self, src: BoxId, tgt: BoxId, acc: &mut [Cx]) {
        let (dx, dy) = (src.x as i64 - tgt.x as i64, src.y as i64 - tgt.y as i64);
        assert!(
            src.level == tgt.level && dx.abs() <= IL_REACH && dy.abs() <= IL_REACH,
            "{src:?} is not on the interaction list of {tgt:?}"
        );
        let at = (src.level as i64 * IL_SPAN + dy + IL_REACH) * IL_SPAN + dx + IL_REACH;
        let shift = self.shifts[at as usize]
            .as_ref()
            .expect("an interaction-list source is at least two boxes away");
        m2l_with(&self.multipoles[src.dense_index()], shift, &self.bin, acc, |o, v| *o += v);
    }

    /// P2M at the leaves, then M2M up the tree.
    fn upward(&mut self) {
        let p = self.params.terms;
        for b in self.tree.leaves().collect::<Vec<_>>() {
            let pts: Vec<(Cx, f64)> = self
                .tree
                .particles_in(b)
                .iter()
                .map(|&i| (self.zs[i as usize], self.qs[i as usize]))
                .collect();
            self.multipoles[b.dense_index()] = p2m(&pts, b.center(), p);
        }
        for level in (0..self.params.levels).rev() {
            for b in self.tree.boxes_at(level).collect::<Vec<_>>() {
                let mut acc = Multipole::zero(p);
                for c in b.children() {
                    m2m_into(
                        &self.multipoles[c.dense_index()],
                        c.center() - b.center(),
                        &self.bin,
                        &mut acc,
                    );
                }
                self.multipoles[b.dense_index()] = acc;
            }
        }
    }

    /// Downward pass: M2L over interaction lists plus L2L from parents.
    /// Allocates the locals; levels 0 and 1 stay zero.
    pub fn downward(&mut self) {
        let total = BoxId::total_boxes(self.params.levels);
        self.locals = vec![Local::zero(self.params.terms); total];
        for level in 2..=self.params.levels {
            for b in self.tree.boxes_at(level).collect::<Vec<_>>() {
                let mut acc = Local::zero(self.params.terms);
                if let Some(parent) = b.parent() {
                    l2l_into(
                        &self.locals[parent.dense_index()],
                        b.center() - parent.center(),
                        &self.bin,
                        &mut acc,
                    );
                }
                for s in b.interaction_list() {
                    self.m2l_into(s, b, &mut acc);
                }
                self.locals[b.dense_index()] = acc;
            }
        }
    }

    /// Near-field + far-field evaluation: the field at every particle.
    ///
    /// # Panics
    ///
    /// If [`FmmSolver::downward`] has not run: without the locals it
    /// computes, only the near field would be summed.
    pub fn evaluate(&self) -> Vec<Cx> {
        assert!(
            !self.locals.is_empty(),
            "FmmSolver::evaluate needs the locals of FmmSolver::downward: call downward first"
        );
        let mut fields = vec![Cx::ZERO; self.zs.len()];
        for b in self.tree.leaves() {
            let mine = self.tree.particles_in(b);
            if mine.is_empty() {
                continue;
            }
            // Gather near-field sources: own box + neighbor leaves.
            let mut near: Vec<(Cx, f64)> = Vec::new();
            for &i in mine {
                near.push((self.zs[i as usize], self.qs[i as usize]));
            }
            for nb in b.neighbors() {
                for &i in self.tree.particles_in(nb) {
                    near.push((self.zs[i as usize], self.qs[i as usize]));
                }
            }
            let local = &self.locals[b.dense_index()];
            for &i in mine {
                let z = self.zs[i as usize];
                fields[i as usize] = eval_local_field(local, z, b.center()) + p2p_field(z, &near);
            }
        }
        fields
    }

    /// Direct O(n²) oracle.
    pub fn direct(&self) -> Vec<Cx> {
        let sources: Vec<(Cx, f64)> = self.zs.iter().copied().zip(self.qs.iter().copied()).collect();
        self.zs.iter().map(|&z| p2p_field(z, &sources)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, seed: u64) -> (Vec<Cx>, Vec<f64>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let zs = (0..n)
            .map(|_| Cx::new(rng.gen_range(0.001..0.999), rng.gen_range(0.001..0.999)))
            .collect();
        let qs = (0..n).map(|_| rng.gen_range(0.1..1.0)).collect();
        (zs, qs)
    }

    fn max_rel_err(a: &[Cx], b: &[Cx]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs() / y.abs().max(1e-12))
            .fold(0.0, f64::max)
    }

    /// The translation sums exactly as first written — one serial
    /// reduction per output coefficient, a binomial lookup per term. The
    /// kernels must reproduce these bit for bit.
    mod reference {
        use super::*;

        pub fn m2m(child: &Multipole, d: Cx, bin: &Binomials) -> Multipole {
            let p = child.coeffs.len() - 1;
            let mut out = Multipole::zero(p);
            out.coeffs[0] = child.coeffs[0];
            let mut dpow = vec![Cx::ONE; p + 1];
            for k in 1..=p {
                dpow[k] = dpow[k - 1] * d;
            }
            for l in 1..=p {
                let mut b = dpow[l] * (child.coeffs[0] * (-1.0 / l as f64));
                for k in 1..=l {
                    b += child.coeffs[k] * dpow[l - k] * bin.c(l - 1, k - 1);
                }
                out.coeffs[l] = b;
            }
            out
        }

        pub fn m2l(src: &Multipole, d: Cx, bin: &Binomials) -> Local {
            let p = src.coeffs.len() - 1;
            let mut out = Local::zero(p);
            let q = src.coeffs[0];
            let dinv = d.recip();
            let mut t = vec![Cx::ZERO; p + 1];
            let mut dik = Cx::ONE;
            #[allow(clippy::needless_range_loop)]
            for k in 1..=p {
                dik = dik * dinv;
                let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
                t[k] = src.coeffs[k] * dik * sign;
            }
            let mut c0 = q * (-d).ln();
            for tk in t.iter().skip(1) {
                c0 += *tk;
            }
            out.coeffs[0] = c0;
            let mut dil = Cx::ONE;
            for l in 1..=p {
                dil = dil * dinv;
                let mut s = q * (-1.0 / l as f64);
                #[allow(clippy::needless_range_loop)]
                for k in 1..=p {
                    s += t[k] * bin.c(l + k - 1, k - 1);
                }
                out.coeffs[l] = s * dil;
            }
            out
        }

        pub fn l2l(parent: &Local, t: Cx, bin: &Binomials) -> Local {
            let p = parent.coeffs.len() - 1;
            let mut out = Local::zero(p);
            let mut tpow = vec![Cx::ONE; p + 1];
            for k in 1..=p {
                tpow[k] = tpow[k - 1] * t;
            }
            for l in 0..=p {
                let mut s = Cx::ZERO;
                for k in l..=p {
                    s += parent.coeffs[k] * tpow[k - l] * bin.c(k, l);
                }
                out.coeffs[l] = s;
            }
            out
        }
    }

    fn bits(coeffs: &[Cx]) -> Vec<(u64, u64)> {
        coeffs.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    fn random_coeffs(p: usize, rng: &mut SmallRng) -> Vec<Cx> {
        (0..=p)
            .map(|_| Cx::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect()
    }

    /// All three kernels, plain and accumulating, against the reference
    /// sums on one random input of `p` terms and shift `d`.
    fn assert_kernels_match_reference(p: usize, d: Cx, seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let bin = Binomials::new(2 * p);
        let m = Multipole { coeffs: random_coeffs(p, &mut rng) };
        let l = Local { coeffs: random_coeffs(p, &mut rng) };
        let seed_acc = random_coeffs(p, &mut rng);

        let want = reference::m2l(&m, d, &bin);
        assert_eq!(bits(&m2l(&m, d, &bin).coeffs), bits(&want.coeffs), "m2l p={p}");
        let mut acc = Local { coeffs: seed_acc.clone() };
        let mut want_acc = acc.clone();
        m2l_into(&m, d, &bin, &mut acc);
        want_acc.add_assign(&want);
        assert_eq!(bits(&acc.coeffs), bits(&want_acc.coeffs), "m2l_into p={p}");

        let want = reference::l2l(&l, d, &bin);
        assert_eq!(bits(&l2l(&l, d, &bin).coeffs), bits(&want.coeffs), "l2l p={p}");
        let mut acc = Local { coeffs: seed_acc.clone() };
        let mut want_acc = acc.clone();
        l2l_into(&l, d, &bin, &mut acc);
        want_acc.add_assign(&want);
        assert_eq!(bits(&acc.coeffs), bits(&want_acc.coeffs), "l2l_into p={p}");

        let want = reference::m2m(&m, d, &bin);
        assert_eq!(bits(&m2m(&m, d, &bin).coeffs), bits(&want.coeffs), "m2m p={p}");
        let mut acc = Multipole { coeffs: seed_acc.clone() };
        m2m_into(&m, d, &bin, &mut acc);
        let want_acc: Vec<Cx> = seed_acc.iter().zip(&want.coeffs).map(|(a, w)| *a + *w).collect();
        assert_eq!(bits(&acc.coeffs), bits(&want_acc), "m2m_into p={p}");
    }

    #[test]
    fn kernels_are_bit_identical_to_the_reference_sums() {
        for (i, p) in [1, 2, 12, 29].into_iter().enumerate() {
            assert_kernels_match_reference(p, Cx::new(2.0, -1.0), 100 + i as u64);
            assert_kernels_match_reference(p, Cx::new(-0.375, 0.25), 200 + i as u64);
        }
    }

    proptest::proptest! {
        #[test]
        fn kernels_are_bit_identical_on_random_inputs(
            p in 1usize..40,
            re in -3.0f64..3.0,
            im in -3.0f64..3.0,
            seed in proptest::any::<u64>(),
        ) {
            // Well separated: keep the shift off the origin.
            let d = Cx::new(re + re.signum(), im);
            assert_kernels_match_reference(p, d, seed);
        }
    }

    #[test]
    fn zero_expansions_keep_their_signed_zeros() {
        // A −0.0 coefficient is where `zero + into` would differ from an
        // assignment; the plain forms assign.
        let bin = Binomials::new(2);
        let m = Multipole::zero(1);
        let d = Cx::new(1.0, 1.0);
        assert_eq!(bits(&m2l(&m, d, &bin).coeffs), bits(&reference::m2l(&m, d, &bin).coeffs));
        assert_eq!(bits(&m2m(&m, d, &bin).coeffs), bits(&reference::m2m(&m, d, &bin).coeffs));
    }

    #[test]
    #[should_panic(expected = "p = 12 terms")]
    fn undersized_binomial_table_is_rejected_at_entry() {
        let m = Multipole::zero(12);
        m2l(&m, Cx::new(2.0, 1.0), &Binomials::new(20));
    }

    /// FNV-1a over the bits of every field component.
    fn field_digest(fields: &[Cx]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for f in fields {
            for word in [f.re.to_bits(), f.im.to_bits()] {
                for byte in word.to_le_bytes() {
                    h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    #[test]
    fn evaluate_bits_are_pinned() {
        // Digests taken from the textbook-loop kernels this file started
        // with. The accuracy tests tolerate 1e-9; this does not: a
        // reassociated sum, a fused multiply-add or a reordered
        // accumulation anywhere from P2M to evaluation changes it.
        let bodies = crate::distrib::uniform_square(600, 77);
        let zs: Vec<Cx> = bodies.iter().map(|b| Cx::new(b.pos.x, b.pos.y)).collect();
        let qs: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
        for (terms, levels, want) in [(29, 3, 0xad4c_288d_647b_6ff2u64), (12, 4, 0x29c2_d04c_edf3_81c2u64)] {
            let mut s = FmmSolver::new(zs.clone(), qs.clone(), FmmParams { terms, levels });
            s.downward();
            let got = field_digest(&s.evaluate());
            assert_eq!(got, want, "terms {terms} levels {levels}: digest {got:#018x}");
        }
    }

    /// Locals exist only once `downward` has computed them; evaluating
    /// without them would have returned near-field-only fields.
    #[test]
    #[should_panic(expected = "FmmSolver::evaluate needs the locals of FmmSolver::downward")]
    fn evaluate_before_downward_panics() {
        let (zs, qs) = random_points(100, 3);
        let s = FmmSolver::new(zs, qs, FmmParams { terms: 6, levels: 3 });
        assert!(s.locals.is_empty());
        s.evaluate();
    }

    #[test]
    fn solver_shift_table_matches_per_call_shifts() {
        let (zs, qs) = random_points(300, 5);
        let s = FmmSolver::new(zs, qs, FmmParams { terms: 9, levels: 4 });
        for level in 2..=4 {
            for b in s.tree.boxes_at(level) {
                for src in b.interaction_list() {
                    let mut got = Local::zero(9);
                    s.m2l_into(src, b, &mut got);
                    let mut want = Local::zero(9);
                    let d = src.center() - b.center();
                    m2l_into(&s.multipoles[src.dense_index()], d, s.binomials(), &mut want);
                    assert_eq!(bits(&got.coeffs), bits(&want.coeffs), "{src:?} -> {b:?}");
                }
            }
        }
    }

    #[test]
    fn multipole_matches_direct_when_separated() {
        let pts = vec![
            (Cx::new(0.1, 0.1), 1.0),
            (Cx::new(0.12, 0.08), 0.5),
            (Cx::new(0.09, 0.13), 2.0),
        ];
        let center = Cx::new(0.1, 0.1);
        let m = p2m(&pts, center, 20);
        let z = Cx::new(0.9, 0.8); // far away
        let exact = p2p_field(z, &pts);
        let approx = eval_multipole_field(&m, z, center);
        assert!((approx - exact).abs() < 1e-12, "{approx:?} vs {exact:?}");
    }

    #[test]
    fn m2m_preserves_far_field() {
        let pts = vec![(Cx::new(0.26, 0.26), 1.5), (Cx::new(0.24, 0.27), 0.7)];
        let child_c = Cx::new(0.25, 0.25);
        let parent_c = Cx::new(0.3, 0.3);
        let m_child = p2m(&pts, child_c, 24);
        let bin = Binomials::new(50);
        let m_parent = m2m(&m_child, child_c - parent_c, &bin);
        let z = Cx::new(0.95, 0.1);
        let exact = p2p_field(z, &pts);
        let approx = eval_multipole_field(&m_parent, z, parent_c);
        assert!((approx - exact).abs() < 1e-10, "{approx:?} vs {exact:?}");
    }

    #[test]
    fn m2l_converts_correctly() {
        let pts = vec![(Cx::new(0.1, 0.1), 1.0), (Cx::new(0.08, 0.12), 2.0)];
        let src_c = Cx::new(0.1, 0.1);
        let tgt_c = Cx::new(0.7, 0.7);
        let bin = Binomials::new(60);
        let m = p2m(&pts, src_c, 25);
        let l = m2l(&m, src_c - tgt_c, &bin);
        // Evaluate near the target center.
        let z = Cx::new(0.72, 0.68);
        let exact = p2p_field(z, &pts);
        let approx = eval_local_field(&l, z, tgt_c);
        assert!((approx - exact).abs() < 1e-10, "{approx:?} vs {exact:?}");
    }

    #[test]
    fn l2l_shift_is_exact() {
        // L2L is an exact polynomial re-centering: no truncation error.
        let pts = vec![(Cx::new(0.05, 0.1), 1.3)];
        let bin = Binomials::new(60);
        let m = p2m(&pts, Cx::new(0.05, 0.1), 25);
        let parent_c = Cx::new(0.7, 0.7);
        let child_c = Cx::new(0.72, 0.69);
        let l_parent = m2l(&m, Cx::new(0.05, 0.1) - parent_c, &bin);
        let l_child = l2l(&l_parent, child_c - parent_c, &bin);
        let z = Cx::new(0.71, 0.71);
        let a = eval_local_field(&l_parent, z, parent_c);
        let b = eval_local_field(&l_child, z, child_c);
        assert!((a - b).abs() < 1e-11, "{a:?} vs {b:?}");
    }

    #[test]
    fn full_fmm_matches_direct() {
        let (zs, qs) = random_points(800, 42);
        let mut solver = FmmSolver::new(
            zs,
            qs,
            FmmParams {
                terms: 20,
                levels: 3,
            },
        );
        solver.downward();
        let fmm = solver.evaluate();
        let exact = solver.direct();
        let err = max_rel_err(&fmm, &exact);
        // Worst-case interaction-list separation at p = 20 lands around
        // 1e-8 relative; p = 29 (the paper's setting) is tested tighter
        // below.
        assert!(err < 1e-7, "max rel err {err}");
    }

    #[test]
    fn paper_term_count_is_ultra_accurate() {
        let (zs, qs) = random_points(400, 7);
        let mut solver = FmmSolver::new(
            zs,
            qs,
            FmmParams {
                terms: 29,
                levels: 3,
            },
        );
        solver.downward();
        let err = max_rel_err(&solver.evaluate(), &solver.direct());
        assert!(err < 1e-11, "max rel err {err}");
    }

    #[test]
    fn accuracy_improves_with_terms() {
        let (zs, qs) = random_points(500, 9);
        let mut errs = Vec::new();
        for terms in [4, 8, 16] {
            let mut s = FmmSolver::new(zs.clone(), qs.clone(), FmmParams { terms, levels: 3 });
            s.downward();
            errs.push(max_rel_err(&s.evaluate(), &s.direct()));
        }
        assert!(errs[0] > errs[1] && errs[1] > errs[2], "errors {errs:?}");
    }

    #[test]
    fn empty_leaves_are_harmless() {
        // Clustered input leaves most leaves empty.
        let zs = vec![Cx::new(0.21, 0.22), Cx::new(0.23, 0.21), Cx::new(0.81, 0.79)];
        let qs = vec![1.0, 2.0, 3.0];
        let mut s = FmmSolver::new(zs, qs, FmmParams { terms: 16, levels: 3 });
        s.downward();
        let err = max_rel_err(&s.evaluate(), &s.direct());
        assert!(err < 1e-9, "max rel err {err}");
    }

    #[test]
    fn total_charge_conserved_up_the_tree() {
        let (zs, qs) = random_points(300, 13);
        let total: f64 = qs.iter().sum();
        let s = FmmSolver::new(zs, qs, FmmParams { terms: 8, levels: 3 });
        let root = BoxId { level: 0, x: 0, y: 0 };
        assert!((s.multipoles[root.dense_index()].charge().re - total).abs() < 1e-9);
    }
}
