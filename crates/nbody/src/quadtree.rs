//! Uniform quadtree over the unit square for the 2D FMM: box indexing,
//! neighbor sets, and Greengard-style interaction lists.
//!
//! Boxes at level `l` form a `2^l × 2^l` grid of side `1/2^l`. A box's
//! **neighbors** are the ≤8 adjacent boxes at its level; its **interaction
//! list** is the children of its parent's neighbors that are not its own
//! neighbors — the well-separated boxes whose multipole expansions
//! converge at the box (≤27 of them). The interaction list is the remote
//! read set of the distributed FMM force phase.

use crate::cx::Cx;

/// A box identifier: `(level, x, y)` packed into a dense index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BoxId {
    /// Refinement level (0 = whole domain).
    pub level: u32,
    /// Column, `0..2^level`.
    pub x: u32,
    /// Row, `0..2^level`.
    pub y: u32,
}

impl BoxId {
    /// Side length of boxes at this level.
    pub fn side(self) -> f64 {
        1.0 / (1u64 << self.level) as f64
    }

    /// Center of this box in the complex plane.
    pub fn center(self) -> Cx {
        let s = self.side();
        Cx::new((self.x as f64 + 0.5) * s, (self.y as f64 + 0.5) * s)
    }

    /// Parent box (level 0 has none).
    pub fn parent(self) -> Option<BoxId> {
        if self.level == 0 {
            None
        } else {
            Some(BoxId {
                level: self.level - 1,
                x: self.x / 2,
                y: self.y / 2,
            })
        }
    }

    /// The four children.
    pub fn children(self) -> [BoxId; 4] {
        let l = self.level + 1;
        let (x, y) = (self.x * 2, self.y * 2);
        [
            BoxId { level: l, x, y },
            BoxId { level: l, x: x + 1, y },
            BoxId { level: l, x, y: y + 1 },
            BoxId { level: l, x: x + 1, y: y + 1 },
        ]
    }

    /// Chebyshev distance to `other` (same level assumed).
    fn grid_dist(self, other: BoxId) -> u32 {
        debug_assert_eq!(self.level, other.level);
        self.x.abs_diff(other.x).max(self.y.abs_diff(other.y))
    }

    /// `true` when `other` is `self` or one of its ≤8 neighbors.
    pub fn is_adjacent(self, other: BoxId) -> bool {
        self.grid_dist(other) <= 1
    }

    /// Adjacent boxes at the same level (excludes `self`), row-major: at
    /// most eight, produced as they are asked for.
    pub fn neighbors(self) -> impl Iterator<Item = BoxId> {
        let n = 1i64 << self.level;
        (-1i64..=1)
            .flat_map(|dy| (-1i64..=1).map(move |dx| (dx, dy)))
            .filter_map(move |(dx, dy)| {
                let (nx, ny) = (self.x as i64 + dx, self.y as i64 + dy);
                ((dx, dy) != (0, 0) && (0..n).contains(&nx) && (0..n).contains(&ny)).then_some(
                    BoxId {
                        level: self.level,
                        x: nx as u32,
                        y: ny as u32,
                    },
                )
            })
    }

    /// The interaction list: children of the parent's neighbors that are
    /// not adjacent to `self`, at most 27. Empty at levels 0 and 1.
    pub fn interaction_list(self) -> impl Iterator<Item = BoxId> {
        self.parent()
            .into_iter()
            .flat_map(BoxId::neighbors)
            .flat_map(BoxId::children)
            .filter(move |&c| !self.is_adjacent(c))
    }

    /// Dense index of this box within its level (row-major).
    pub fn index_in_level(self) -> usize {
        (self.y as usize) << self.level | self.x as usize
    }

    /// Dense index across all levels `0..=max` (level-major).
    pub fn dense_index(self) -> usize {
        // offset(l) = (4^l - 1) / 3
        let off = ((1usize << (2 * self.level)) - 1) / 3;
        off + self.index_in_level()
    }

    /// Total number of boxes in a tree with finest level `levels`.
    pub fn total_boxes(levels: u32) -> usize {
        ((1usize << (2 * (levels + 1))) - 1) / 3
    }

    /// Inverse of [`BoxId::dense_index`].
    pub fn from_dense(idx: usize) -> BoxId {
        let mut level = 0u32;
        let mut off = 0usize;
        loop {
            let count = 1usize << (2 * level);
            if idx < off + count {
                let rel = idx - off;
                let n = 1usize << level;
                return BoxId {
                    level,
                    x: (rel % n) as u32,
                    y: (rel / n) as u32,
                };
            }
            off += count;
            level += 1;
        }
    }

    /// The level-`k` ancestor (or `self` when `k == level`). Panics if
    /// `k > level`.
    pub fn ancestor_at(self, k: u32) -> BoxId {
        assert!(k <= self.level);
        let shift = self.level - k;
        BoxId {
            level: k,
            x: self.x >> shift,
            y: self.y >> shift,
        }
    }
}

/// The uniform quadtree: particle assignment plus the box grid.
#[derive(Clone, Debug)]
pub struct QuadTree {
    /// Finest level.
    pub levels: u32,
    /// Particle indices per leaf (row-major at the finest level).
    pub leaf_particles: Vec<Vec<u32>>,
}

impl QuadTree {
    /// Assign `positions` (complex, inside `[0,1]^2`) to leaves at level
    /// `levels`.
    pub fn build(positions: &[Cx], levels: u32) -> QuadTree {
        assert!(levels >= 2, "FMM needs at least level 2 for nonempty interaction lists");
        let n = 1u32 << levels;
        let mut leaf_particles = vec![Vec::new(); (n as usize) * (n as usize)];
        for (i, z) in positions.iter().enumerate() {
            let x = ((z.re * n as f64) as u32).min(n - 1);
            let y = ((z.im * n as f64) as u32).min(n - 1);
            leaf_particles[((y * n) + x) as usize].push(i as u32);
        }
        QuadTree {
            levels,
            leaf_particles,
        }
    }

    /// The shallowest level at which no leaf holds more than `cap`
    /// particles (bounded at level 10). Count-based [`QuadTree::level_for`]
    /// underestimates depth for clustered inputs, whose dense leaves make
    /// near-field P2P quadratic; occupancy-based selection is the uniform
    /// tree's stand-in for the adaptive refinement the SPLASH-2 FMM uses.
    pub fn level_for_occupancy(positions: &[Cx], cap: usize) -> u32 {
        assert!(cap >= 1);
        for level in 2..=10u32 {
            let n = 1u32 << level;
            let mut buckets = vec![0u32; (n as usize) * (n as usize)];
            let mut worst = 0;
            for z in positions {
                let x = ((z.re * n as f64) as u32).min(n - 1);
                let y = ((z.im * n as f64) as u32).min(n - 1);
                let b = &mut buckets[((y * n) + x) as usize];
                *b += 1;
                worst = worst.max(*b);
            }
            if (worst as usize) <= cap {
                return level;
            }
        }
        10
    }

    /// A sensible finest level for `n` particles (~`target` per leaf).
    pub fn level_for(n: usize, target: usize) -> u32 {
        let mut l = 2u32;
        while (1usize << (2 * (l + 1))) * target < n && l < 14 {
            l += 1;
        }
        l + 1
    }

    /// The leaf box holding grid cell `(x, y)`.
    pub fn leaf(&self, x: u32, y: u32) -> BoxId {
        BoxId {
            level: self.levels,
            x,
            y,
        }
    }

    /// Iterate all leaf box ids row-major.
    pub fn leaves(&self) -> impl Iterator<Item = BoxId> + '_ {
        let n = 1u32 << self.levels;
        (0..n).flat_map(move |y| (0..n).map(move |x| self.leaf(x, y)))
    }

    /// Particles in a leaf.
    pub fn particles_in(&self, b: BoxId) -> &[u32] {
        debug_assert_eq!(b.level, self.levels);
        &self.leaf_particles[b.index_in_level()]
    }

    /// All boxes at `level`, row-major.
    pub fn boxes_at(&self, level: u32) -> impl Iterator<Item = BoxId> {
        let n = 1u32 << level;
        (0..n).flat_map(move |y| (0..n).map(move |x| BoxId { level, x, y }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lists as they were built before they became iterators: the
    /// order every FMM sum, and with it every pinned field digest, was
    /// taken in.
    impl BoxId {
        fn neighbors_vec(self) -> Vec<BoxId> {
            let n = 1u32 << self.level;
            let mut out = Vec::with_capacity(8);
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let nx = self.x as i64 + dx;
                    let ny = self.y as i64 + dy;
                    if (0..n as i64).contains(&nx) && (0..n as i64).contains(&ny) {
                        out.push(BoxId {
                            level: self.level,
                            x: nx as u32,
                            y: ny as u32,
                        });
                    }
                }
            }
            out
        }

        fn interaction_list_vec(self) -> Vec<BoxId> {
            let Some(parent) = self.parent() else {
                return Vec::new();
            };
            let mut out = Vec::with_capacity(27);
            for pn in parent.neighbors_vec() {
                for c in pn.children() {
                    if !self.is_adjacent(c) {
                        out.push(c);
                    }
                }
            }
            out
        }
    }

    #[test]
    fn list_iterators_equal_the_vec_versions_item_for_item() {
        // Levels 0-1 whole (no interaction list there), then every box of
        // levels 2-4: the four corners, the edges and the interior.
        for level in 0..=4u32 {
            let n = 1u32 << level;
            for (x, y) in (0..n).flat_map(|y| (0..n).map(move |x| (x, y))) {
                let b = BoxId { level, x, y };
                assert_eq!(b.neighbors().collect::<Vec<_>>(), b.neighbors_vec(), "{b:?}");
                assert_eq!(
                    b.interaction_list().collect::<Vec<_>>(),
                    b.interaction_list_vec(),
                    "{b:?}"
                );
            }
        }
        let corner = BoxId { level: 4, x: 15, y: 0 };
        assert_eq!((corner.neighbors().count(), corner.interaction_list().count()), (3, 12));
    }

    #[test]
    fn parent_child_roundtrip() {
        let b = BoxId {
            level: 3,
            x: 5,
            y: 2,
        };
        for c in b.children() {
            assert_eq!(c.parent(), Some(b));
        }
        assert_eq!(
            b.parent(),
            Some(BoxId {
                level: 2,
                x: 2,
                y: 1
            })
        );
        assert_eq!(BoxId { level: 0, x: 0, y: 0 }.parent(), None);
    }

    #[test]
    fn neighbor_counts() {
        // Corner, edge, interior.
        let corner = BoxId { level: 2, x: 0, y: 0 };
        let edge = BoxId { level: 2, x: 1, y: 0 };
        let interior = BoxId { level: 2, x: 1, y: 1 };
        assert_eq!(corner.neighbors().count(), 3);
        assert_eq!(edge.neighbors().count(), 5);
        assert_eq!(interior.neighbors().count(), 8);
    }

    #[test]
    fn interaction_list_is_well_separated() {
        for b in [
            BoxId { level: 3, x: 4, y: 3 },
            BoxId { level: 3, x: 0, y: 0 },
            BoxId { level: 2, x: 1, y: 2 },
        ] {
            let il: Vec<BoxId> = b.interaction_list().collect();
            assert!(il.len() <= 27);
            for s in &il {
                assert_eq!(s.level, b.level);
                assert!(b.grid_dist(*s) >= 2, "{s:?} too close to {b:?}");
                // Parent-level adjacency: source's parent neighbors b's parent.
                assert!(b.parent().unwrap().is_adjacent(s.parent().unwrap()));
            }
        }
        // Interior boxes at deep levels see the full 27.
        let deep = BoxId { level: 4, x: 7, y: 7 };
        assert_eq!(deep.interaction_list().count(), 27);
    }

    #[test]
    fn interaction_list_empty_at_top() {
        assert_eq!(BoxId { level: 0, x: 0, y: 0 }.interaction_list().count(), 0);
        assert_eq!(BoxId { level: 1, x: 1, y: 0 }.interaction_list().count(), 0);
    }

    #[test]
    fn near_plus_far_covers_parent_near_field() {
        // For any box b, {b} ∪ neighbors(b) ∪ IL(b) exactly tiles the
        // children of parent's {self ∪ neighbors} — the FMM correctness
        // partition.
        let b = BoxId { level: 3, x: 3, y: 5 };
        let mut covered: Vec<BoxId> = vec![b];
        covered.extend(b.neighbors());
        covered.extend(b.interaction_list());
        let p = b.parent().unwrap();
        let mut expected: Vec<BoxId> = Vec::new();
        expected.extend(p.children());
        for pn in p.neighbors() {
            expected.extend(pn.children());
        }
        covered.sort_by_key(|x| (x.x, x.y));
        expected.sort_by_key(|x| (x.x, x.y));
        assert_eq!(covered, expected);
    }

    #[test]
    fn from_dense_roundtrip() {
        for l in 0..=4u32 {
            for y in 0..(1u32 << l) {
                for x in 0..(1u32 << l) {
                    let b = BoxId { level: l, x, y };
                    assert_eq!(BoxId::from_dense(b.dense_index()), b);
                }
            }
        }
    }

    #[test]
    fn ancestor_at_levels() {
        let b = BoxId { level: 4, x: 13, y: 6 };
        assert_eq!(b.ancestor_at(4), b);
        assert_eq!(b.ancestor_at(3), BoxId { level: 3, x: 6, y: 3 });
        assert_eq!(b.ancestor_at(0), BoxId { level: 0, x: 0, y: 0 });
        assert_eq!(Some(b.ancestor_at(3)), b.parent());
    }

    #[test]
    fn dense_index_is_bijective() {
        let mut seen = std::collections::HashSet::new();
        for l in 0..=3u32 {
            for y in 0..(1u32 << l) {
                for x in 0..(1u32 << l) {
                    assert!(seen.insert(BoxId { level: l, x, y }.dense_index()));
                }
            }
        }
        assert_eq!(seen.len(), BoxId::total_boxes(3));
        assert_eq!(*seen.iter().max().unwrap(), BoxId::total_boxes(3) - 1);
    }

    #[test]
    fn build_assigns_every_particle() {
        let pts: Vec<Cx> = (0..100)
            .map(|i| Cx::new((i as f64 + 0.5) / 100.0, ((i * 7 % 100) as f64 + 0.5) / 100.0))
            .collect();
        let t = QuadTree::build(&pts, 3);
        let total: usize = t.leaf_particles.iter().map(Vec::len).sum();
        assert_eq!(total, 100);
        for b in t.leaves() {
            let c = b.center();
            for &p in t.particles_in(b) {
                let z = pts[p as usize];
                assert!((z.re - c.re).abs() <= b.side() / 2.0 + 1e-12);
                assert!((z.im - c.im).abs() <= b.side() / 2.0 + 1e-12);
            }
        }
    }

    #[test]
    fn boundary_particles_clamp_into_grid() {
        let pts = vec![Cx::new(1.0, 1.0), Cx::new(0.0, 0.0)];
        let t = QuadTree::build(&pts, 2);
        let total: usize = t.leaf_particles.iter().map(Vec::len).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn occupancy_level_bounds_leaf_population() {
        // A tight cluster forces a deeper tree than the count heuristic.
        let tight: Vec<Cx> = (0..256)
            .map(|i| Cx::new(0.5 + (i % 16) as f64 * 1e-3, 0.5 + (i / 16) as f64 * 1e-3))
            .collect();
        let lvl = QuadTree::level_for_occupancy(&tight, 8);
        assert!(lvl > QuadTree::level_for(256, 8), "cluster must deepen");
        let t = QuadTree::build(&tight, lvl);
        let max = t.leaf_particles.iter().map(Vec::len).max().unwrap();
        assert!(max <= 8, "max occupancy {max}");
        // Uniform points settle at a shallow level.
        let uniform: Vec<Cx> = (0..64)
            .map(|i| Cx::new(((i % 8) as f64 + 0.5) / 8.0, ((i / 8) as f64 + 0.5) / 8.0))
            .collect();
        assert_eq!(QuadTree::level_for_occupancy(&uniform, 1), 3);
    }

    #[test]
    fn level_for_targets_occupancy() {
        assert!(QuadTree::level_for(1000, 16) >= 3);
        assert!(QuadTree::level_for(100_000, 16) > QuadTree::level_for(1000, 16));
        assert_eq!(QuadTree::level_for(1, 16), 3);
    }
}
