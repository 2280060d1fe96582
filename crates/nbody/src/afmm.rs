//! The **adaptive** fast multipole method (Carrier–Greengard–Rokhlin),
//! 2D — the algorithm SPLASH-2's FMM actually implements.
//!
//! The uniform method ([`crate::fmm`]) wastes quadratic near-field work on
//! clustered inputs (dense leaves) and empty boxes on sparse regions. The
//! adaptive method subdivides only where particles are, producing leaves
//! of different sizes, and replaces the single interaction list with the
//! four classic lists per box `b`:
//!
//! * **U(b)** — leaves adjacent to leaf `b` (any size), plus `b` itself:
//!   direct particle–particle interaction;
//! * **V(b)** — same-level children of `b`'s parent's colleagues, not
//!   adjacent to `b`: multipole→local (M2L), as in the uniform method;
//! * **W(b)** — descendants of leaf `b`'s colleagues whose parents touch
//!   `b` but who do not themselves: small boxes too close for V at their
//!   level yet far relative to *their* size — evaluate their multipole
//!   directly at `b`'s particles;
//! * **X(b)** — the dual of W (`x` lists `b` in W(x)): big leaves close to
//!   small `b` — add their particles straight into `b`'s local expansion
//!   (P2L).
//!
//! Every particle pair is covered exactly once by U ∪ (V/W/X/ancestors) —
//! the partition property the tests check — and the result matches direct
//! summation to truncation accuracy on arbitrarily clustered inputs.

use crate::cx::{Binomials, Cx};
use crate::fmm::{
    eval_local_field, eval_multipole_field, l2l_into, m2l_into, m2m_into, p2m, p2p_field, Local,
    Multipole,
};

/// Index of a node in the adaptive tree.
pub type NodeId = u32;

/// Sentinel for "no node".
pub const NO_NODE: i32 = -1;

/// One adaptive-quadtree node.
#[derive(Clone, Debug)]
pub struct ANode {
    /// Refinement level (0 = root, whole unit square).
    pub level: u32,
    /// Column at this level.
    pub x: u32,
    /// Row at this level.
    pub y: u32,
    /// Parent node (`NO_NODE` for the root).
    pub parent: i32,
    /// Children (`NO_NODE` where absent); all `NO_NODE` for leaves.
    pub children: [i32; 4],
    /// Particle indices (leaves only).
    pub particles: Vec<u32>,
}

impl ANode {
    /// `true` when this node holds particles directly.
    pub fn is_leaf(&self) -> bool {
        self.children == [NO_NODE; 4]
    }

    /// Box side length.
    pub fn side(&self) -> f64 {
        1.0 / (1u64 << self.level) as f64
    }

    /// Box center in the complex plane.
    pub fn center(&self) -> Cx {
        let s = self.side();
        Cx::new((self.x as f64 + 0.5) * s, (self.y as f64 + 0.5) * s)
    }

    /// The box's extent at the finest integer resolution `max_level`:
    /// `[x0, x1) × [y0, y1)` in units of `2^-max_level`.
    fn extent(&self, max_level: u32) -> (u64, u64, u64, u64) {
        let u = 1u64 << (max_level - self.level);
        (
            self.x as u64 * u,
            (self.x as u64 + 1) * u,
            self.y as u64 * u,
            (self.y as u64 + 1) * u,
        )
    }
}

/// `true` when the two boxes' closures touch or overlap (geometric
/// adjacency, valid across levels). Exact integer arithmetic.
fn adjacent(a: &ANode, b: &ANode, max_level: u32) -> bool {
    let (ax0, ax1, ay0, ay1) = a.extent(max_level);
    let (bx0, bx1, by0, by1) = b.extent(max_level);
    ax0 <= bx1 && bx0 <= ax1 && ay0 <= by1 && by0 <= ay1
}

/// P2L: accumulate the local (Taylor) expansion of point charges
/// directly into `acc` (centered at `center`). For a unit charge at `zq`,
/// the local coefficients about `c` are `c_0 = log(c − zq)` and
/// `c_l = −1/(l (zq − c)^l)`.
pub fn p2l_into(acc: &mut Local, points: &[(Cx, f64)], center: Cx) {
    let p = acc.coeffs.len() - 1;
    for &(zq, q) in points {
        let d = zq - center;
        acc.coeffs[0] += (-d).ln() * q;
        let dinv = d.recip();
        let mut dk = Cx::ONE;
        for l in 1..=p {
            dk = dk * dinv;
            acc.coeffs[l] += dk * (-q / l as f64);
        }
    }
}

/// Adaptive-FMM parameters.
#[derive(Clone, Copy, Debug)]
pub struct AfmmParams {
    /// Expansion terms `p`.
    pub terms: usize,
    /// Maximum particles per leaf before subdividing.
    pub leaf_cap: usize,
    /// Hard depth limit.
    pub max_level: u32,
}

impl Default for AfmmParams {
    fn default() -> Self {
        AfmmParams {
            terms: 16,
            leaf_cap: 16,
            max_level: 12,
        }
    }
}

/// The adaptive solver: tree, expansions, and the four lists.
pub struct AfmmSolver {
    /// Parameters used.
    pub params: AfmmParams,
    /// All nodes; index 0 is the root.
    pub nodes: Vec<ANode>,
    /// Particle positions.
    pub zs: Vec<Cx>,
    /// Particle charges.
    pub qs: Vec<f64>,
    /// Multipole per node.
    pub multipoles: Vec<Multipole>,
    /// Local expansion per node.
    pub locals: Vec<Local>,
    bin: Binomials,
}

impl AfmmSolver {
    /// Build the adaptive tree and run the upward pass.
    pub fn new(zs: Vec<Cx>, qs: Vec<f64>, params: AfmmParams) -> AfmmSolver {
        assert_eq!(zs.len(), qs.len());
        assert!(params.leaf_cap >= 1);
        let mut nodes = vec![ANode {
            level: 0,
            x: 0,
            y: 0,
            parent: NO_NODE,
            children: [NO_NODE; 4],
            particles: (0..zs.len() as u32).collect(),
        }];
        // Recursive subdivision (worklist form).
        let mut work = vec![0usize];
        while let Some(i) = work.pop() {
            if nodes[i].particles.len() <= params.leaf_cap
                || nodes[i].level >= params.max_level
            {
                continue;
            }
            let parent = nodes[i].clone();
            let l = parent.level + 1;
            let mut buckets: [Vec<u32>; 4] = Default::default();
            for &pi in &parent.particles {
                let z = zs[pi as usize];
                let n = 1u64 << l;
                let cx = ((z.re * n as f64) as u64).min(n - 1) as u32;
                let cy = ((z.im * n as f64) as u64).min(n - 1) as u32;
                let q = ((cy & 1) << 1 | (cx & 1)) as usize;
                buckets[q].push(pi);
            }
            nodes[i].particles = Vec::new();
            for (q, bucket) in buckets.into_iter().enumerate() {
                if bucket.is_empty() {
                    continue;
                }
                let id = nodes.len();
                nodes.push(ANode {
                    level: l,
                    x: parent.x * 2 + (q as u32 & 1),
                    y: parent.y * 2 + (q as u32 >> 1),
                    parent: i as i32,
                    children: [NO_NODE; 4],
                    particles: bucket,
                });
                nodes[i].children[q] = id as i32;
                work.push(id);
            }
        }

        let p = params.terms;
        let bin = Binomials::new(2 * p + 2);
        let mut solver = AfmmSolver {
            params,
            multipoles: vec![Multipole::zero(p); nodes.len()],
            locals: vec![Local::zero(p); nodes.len()],
            nodes,
            zs,
            qs,
            bin,
        };
        solver.upward();
        solver
    }

    /// The binomial table sized for this solver's translations.
    pub fn binomials(&self) -> &Binomials {
        &self.bin
    }

    /// Particles of a (leaf) node as `(position, charge)` pairs.
    fn points_of(&self, i: usize) -> Vec<(Cx, f64)> {
        self.nodes[i]
            .particles
            .iter()
            .map(|&pi| (self.zs[pi as usize], self.qs[pi as usize]))
            .collect()
    }

    fn upward(&mut self) {
        let p = self.params.terms;
        // Children always follow parents in the vec: reverse order is
        // bottom-up.
        for i in (0..self.nodes.len()).rev() {
            if self.nodes[i].is_leaf() {
                let pts = self.points_of(i);
                self.multipoles[i] = p2m(&pts, self.nodes[i].center(), p);
            } else {
                let mut acc = Multipole::zero(p);
                for &c in &self.nodes[i].children {
                    if c != NO_NODE {
                        m2m_into(
                            &self.multipoles[c as usize],
                            self.nodes[c as usize].center() - self.nodes[i].center(),
                            &self.bin,
                            &mut acc,
                        );
                    }
                }
                self.multipoles[i] = acc;
            }
        }
    }

    /// Same-level adjacent nodes (colleagues) of `i`, found by walking
    /// down from the parent's colleagues.
    pub fn colleagues(&self, i: usize) -> Vec<usize> {
        let node = &self.nodes[i];
        let Some(parent) = (node.parent != NO_NODE).then_some(node.parent as usize) else {
            return Vec::new();
        };
        let ml = self.params.max_level + 1;
        let mut out = Vec::new();
        // Candidates: children of the parent and of the parent's colleagues.
        let mut parents = self.colleagues(parent);
        parents.push(parent);
        for pp in parents {
            for &c in &self.nodes[pp].children {
                if c != NO_NODE
                    && c as usize != i
                    && self.nodes[c as usize].level == node.level
                    && adjacent(node, &self.nodes[c as usize], ml)
                {
                    out.push(c as usize);
                }
            }
        }
        out
    }

    /// V list: children of the parent's colleagues, same level, not
    /// adjacent to `i`.
    pub fn v_list(&self, i: usize) -> Vec<usize> {
        let node = &self.nodes[i];
        let Some(parent) = (node.parent != NO_NODE).then_some(node.parent as usize) else {
            return Vec::new();
        };
        let ml = self.params.max_level + 1;
        let mut out = Vec::new();
        for pc in self.colleagues(parent) {
            for &c in &self.nodes[pc].children {
                if c != NO_NODE && !adjacent(node, &self.nodes[c as usize], ml) {
                    out.push(c as usize);
                }
            }
        }
        out
    }

    /// U list of leaf `i`: adjacent leaves of any size, including `i`.
    pub fn u_list(&self, i: usize) -> Vec<usize> {
        debug_assert!(self.nodes[i].is_leaf());
        let ml = self.params.max_level + 1;
        let mut out = Vec::new();
        // DFS from the root, pruning non-adjacent subtrees.
        let mut stack = vec![0usize];
        while let Some(j) = stack.pop() {
            if !adjacent(&self.nodes[i], &self.nodes[j], ml) {
                continue;
            }
            if self.nodes[j].is_leaf() {
                out.push(j);
            } else {
                for &c in &self.nodes[j].children {
                    if c != NO_NODE {
                        stack.push(c as usize);
                    }
                }
            }
        }
        out
    }

    /// W list of leaf `i`: descendants of `i`'s colleagues that are not
    /// adjacent to `i` but whose parent is. Their multipoles evaluate
    /// directly at `i`'s particles.
    pub fn w_list(&self, i: usize) -> Vec<usize> {
        debug_assert!(self.nodes[i].is_leaf());
        let ml = self.params.max_level + 1;
        let mut out = Vec::new();
        let mut stack: Vec<usize> = self.colleagues(i);
        while let Some(j) = stack.pop() {
            // Invariant: `j` is adjacent to `i` (colleagues are; children
            // are only pushed when adjacent).
            for &c in &self.nodes[j].children {
                if c == NO_NODE {
                    continue;
                }
                let c = c as usize;
                if adjacent(&self.nodes[i], &self.nodes[c], ml) {
                    stack.push(c);
                } else {
                    out.push(c);
                }
            }
        }
        out
    }

    /// X list of leaf... of *any* box `i`: leaves `x` with `i ∈ W(x)` —
    /// computed as big adjacent-parent leaves. For simplicity we gather
    /// X(b) directly: leaves `x` at a coarser level than `b` such that
    /// `x` is adjacent to `b`'s parent but not to `b`.
    pub fn x_list(&self, i: usize) -> Vec<usize> {
        let node = &self.nodes[i];
        if node.parent == NO_NODE {
            return Vec::new();
        }
        let ml = self.params.max_level + 1;
        let parent = node.parent as usize;
        let mut out = Vec::new();
        // x must be a leaf colleague-or-ancestor-side box: x's level <
        // node's, adjacent to parent, not adjacent to node. Walk from the
        // root pruning by adjacency with the parent.
        let mut stack = vec![0usize];
        while let Some(j) = stack.pop() {
            if self.nodes[j].level >= node.level {
                continue;
            }
            if !adjacent(&self.nodes[parent], &self.nodes[j], ml) {
                continue;
            }
            if self.nodes[j].is_leaf() {
                if !adjacent(node, &self.nodes[j], ml) {
                    out.push(j);
                }
            } else {
                for &c in &self.nodes[j].children {
                    if c != NO_NODE {
                        stack.push(c as usize);
                    }
                }
            }
        }
        out
    }

    /// Downward pass: V (M2L), X (P2L), and L2L inheritance.
    pub fn downward(&mut self) {
        let p = self.params.terms;
        for i in 0..self.nodes.len() {
            let center = self.nodes[i].center();
            let mut acc = Local::zero(p);
            if self.nodes[i].parent != NO_NODE {
                let parent = self.nodes[i].parent as usize;
                l2l_into(
                    &self.locals[parent],
                    center - self.nodes[parent].center(),
                    &self.bin,
                    &mut acc,
                );
            }
            for v in self.v_list(i) {
                m2l_into(
                    &self.multipoles[v],
                    self.nodes[v].center() - center,
                    &self.bin,
                    &mut acc,
                );
            }
            for x in self.x_list(i) {
                let pts = self.points_of(x);
                p2l_into(&mut acc, &pts, center);
            }
            self.locals[i] = acc;
        }
    }

    /// Evaluate fields at every particle: local expansion + W multipoles +
    /// U direct. Call after [`AfmmSolver::downward`].
    pub fn evaluate(&self) -> Vec<Cx> {
        let mut fields = vec![Cx::ZERO; self.zs.len()];
        for i in 0..self.nodes.len() {
            if !self.nodes[i].is_leaf() || self.nodes[i].particles.is_empty() {
                continue;
            }
            let center = self.nodes[i].center();
            let w_list = self.w_list(i);
            let mut near: Vec<(Cx, f64)> = Vec::new();
            for u in self.u_list(i) {
                near.extend(self.points_of(u));
            }
            for &pi in &self.nodes[i].particles {
                let z = self.zs[pi as usize];
                let mut f = eval_local_field(&self.locals[i], z, center);
                for &w in &w_list {
                    f += eval_multipole_field(&self.multipoles[w], z, self.nodes[w].center());
                }
                f += p2p_field(z, &near);
                fields[pi as usize] = f;
            }
        }
        fields
    }

    /// Direct O(n²) oracle.
    pub fn direct(&self) -> Vec<Cx> {
        let sources: Vec<(Cx, f64)> =
            self.zs.iter().copied().zip(self.qs.iter().copied()).collect();
        self.zs.iter().map(|&z| p2p_field(z, &sources)).collect()
    }

    /// Leaves of the tree.
    pub fn leaves(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.nodes.len()).filter(|&i| self.nodes[i].is_leaf())
    }

    /// Tree statistics: `(nodes, leaves, max depth, max leaf occupancy)`.
    pub fn tree_stats(&self) -> (usize, usize, u32, usize) {
        let mut leaves = 0;
        let mut depth = 0;
        let mut occ = 0;
        for n in &self.nodes {
            if n.is_leaf() {
                leaves += 1;
                occ = occ.max(n.particles.len());
            }
            depth = depth.max(n.level);
        }
        (self.nodes.len(), leaves, depth, occ)
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

    fn clustered_points(n: usize, seed: u64) -> (Vec<Cx>, Vec<f64>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let centers = [(0.2, 0.21), (0.8, 0.35), (0.45, 0.82)];
        let zs = (0..n)
            .map(|i| {
                let (cx, cy): (f64, f64) = centers[i % 3];
                Cx::new(
                    (cx + rng.gen_range(-0.02..0.02)).clamp(1e-4, 1.0 - 1e-4),
                    (cy + rng.gen_range(-0.02..0.02)).clamp(1e-4, 1.0 - 1e-4),
                )
            })
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

    #[test]
    fn tree_contains_every_particle_once() {
        let (zs, qs) = clustered_points(700, 5);
        let s = AfmmSolver::new(zs, qs, AfmmParams::default());
        let mut seen = vec![false; 700];
        for i in s.leaves() {
            for &pi in &s.nodes[i].particles {
                assert!(!seen[pi as usize], "particle {pi} in two leaves");
                seen[pi as usize] = true;
            }
        }
        assert!(seen.iter().all(|&x| x));
        let (_, _, depth, occ) = s.tree_stats();
        assert!(occ <= s.params.leaf_cap || depth == s.params.max_level);
    }

    #[test]
    fn adaptive_tree_is_deeper_where_clustered() {
        let (zs, qs) = clustered_points(600, 9);
        let s = AfmmSolver::new(zs, qs, AfmmParams::default());
        let (_, leaves, depth, _) = s.tree_stats();
        assert!(depth >= 5, "clusters should force depth (got {depth})");
        // Far fewer leaves than a uniform tree of the same depth.
        assert!(leaves < (1 << (2 * depth)) / 4, "leaves {leaves}");
    }

    #[test]
    fn pair_coverage_is_a_partition() {
        // Every ordered particle pair (target in leaf b, source particle)
        // must be accounted exactly once by U(b) ∪ W(b)-subtrees ∪
        // (V/X along b's ancestor chain, each covering its subtree).
        let (zs, qs) = clustered_points(250, 11);
        let n = zs.len();
        let s = AfmmSolver::new(zs, qs, AfmmParams { terms: 4, leaf_cap: 8, max_level: 8 });

        // Particle set under each node.
        let mut under: Vec<Vec<u32>> = vec![Vec::new(); s.nodes.len()];
        for i in (0..s.nodes.len()).rev() {
            if s.nodes[i].is_leaf() {
                under[i] = s.nodes[i].particles.clone();
            } else {
                let mut acc = Vec::new();
                for &c in &s.nodes[i].children {
                    if c != NO_NODE {
                        acc.extend(under[c as usize].iter().copied());
                    }
                }
                under[i] = acc;
            }
        }

        for b in s.leaves() {
            let mut covered = vec![0u32; n];
            for u in s.u_list(b) {
                for &pi in &s.nodes[u].particles {
                    covered[pi as usize] += 1;
                }
            }
            for w in s.w_list(b) {
                for &pi in &under[w] {
                    covered[pi as usize] += 1;
                }
            }
            // V and X gathered along the ancestor chain (including b).
            let mut a = b as i32;
            while a != NO_NODE {
                for v in s.v_list(a as usize) {
                    for &pi in &under[v] {
                        covered[pi as usize] += 1;
                    }
                }
                for x in s.x_list(a as usize) {
                    for &pi in &s.nodes[x].particles {
                        covered[pi as usize] += 1;
                    }
                }
                a = s.nodes[a as usize].parent;
            }
            for (pi, &c) in covered.iter().enumerate() {
                assert_eq!(
                    c, 1,
                    "leaf {b}: particle {pi} covered {c} times (must be exactly 1)"
                );
            }
        }
    }

    #[test]
    fn matches_direct_on_uniform_input() {
        let (zs, qs) = random_points(900, 21);
        let mut s = AfmmSolver::new(zs, qs, AfmmParams { terms: 20, leaf_cap: 12, max_level: 10 });
        s.downward();
        let err = max_rel_err(&s.evaluate(), &s.direct());
        assert!(err < 1e-7, "max rel err {err}");
    }

    #[test]
    fn matches_direct_on_clustered_input() {
        let (zs, qs) = clustered_points(800, 33);
        let mut s = AfmmSolver::new(zs, qs, AfmmParams { terms: 20, leaf_cap: 12, max_level: 12 });
        s.downward();
        let err = max_rel_err(&s.evaluate(), &s.direct());
        assert!(err < 1e-7, "max rel err {err}");
    }

    #[test]
    fn accuracy_improves_with_terms() {
        let (zs, qs) = clustered_points(400, 3);
        let mut errs = Vec::new();
        for terms in [4, 8, 16] {
            let mut s = AfmmSolver::new(
                zs.clone(),
                qs.clone(),
                AfmmParams { terms, leaf_cap: 10, max_level: 10 },
            );
            s.downward();
            errs.push(max_rel_err(&s.evaluate(), &s.direct()));
        }
        assert!(errs[0] > errs[1] && errs[1] > errs[2], "errors {errs:?}");
    }

    #[test]
    fn adaptive_does_less_near_field_than_uniform_on_clusters() {
        let (zs, qs) = clustered_points(1_000, 44);
        let s = AfmmSolver::new(
            zs.clone(),
            qs.clone(),
            AfmmParams { terms: 8, leaf_cap: 16, max_level: 12 },
        );
        // Near-field pairs in the adaptive method.
        let adaptive_pairs: usize = s
            .leaves()
            .map(|b| {
                let u: usize = s.u_list(b).iter().map(|&u| s.nodes[u].particles.len()).sum();
                s.nodes[b].particles.len() * u
            })
            .sum();
        // Uniform method at the count-chosen level.
        let level = crate::quadtree::QuadTree::level_for(1_000, 16);
        let t = crate::quadtree::QuadTree::build(&zs, level);
        let uniform_pairs: usize = t
            .leaves()
            .map(|b| {
                let mine = t.particles_in(b).len();
                let mut near = mine;
                for nb in b.neighbors() {
                    near += t.particles_in(nb).len();
                }
                mine * near
            })
            .sum();
        assert!(
            adaptive_pairs * 2 < uniform_pairs,
            "adaptive {adaptive_pairs} vs uniform {uniform_pairs}"
        );
    }

    #[test]
    fn charge_conserved_at_root() {
        let (zs, qs) = clustered_points(300, 8);
        let total: f64 = qs.iter().sum();
        let s = AfmmSolver::new(zs, qs, AfmmParams::default());
        assert!((s.multipoles[0].charge().re - total).abs() < 1e-9);
    }
}
