//! Batch-parallel ordered-set operations over a distributed sorted map —
//! the CPMA / finger-search-shaped companion to the graph workload.
//!
//! The key universe `0..universe` is divided into `buckets` contiguous
//! buckets; a bucket is one heap object, and buckets are range-partitioned
//! over the machine, so the world is a distributed sorted map keyed by
//! integer. Each node executes one *batch* of mixed operations per phase:
//!
//! - **Insert(k)** / **Delete(k)**: a remote reduction into `k`'s bucket
//!   ([`WorkEnv::accumulate`] with the signed encoded key); the owner
//!   applies it to its live membership at the phase barrier semantics the
//!   runtime guarantees (commutative, exactly-once).
//! - **Range(lo, hi)**: demands every covering bucket and folds the count
//!   and an order-independent digest of the members *at phase start* —
//!   reads are phase-immutable, mutations are end-of-phase reductions, so
//!   a `BTreeSet` model is exact: answer ranges against the initial set,
//!   then apply the batch.
//!
//! Every key is operated on by **at most one op machine-wide** (ops draw
//! distinct keys from a seeded permutation), which is what makes the
//! reduction fold order-independent and the model well-defined.
//!
//! Range queries are power-law skewed toward bucket 0, so the low buckets
//! — all owned by node 0 — are the hot keys: many consumers, no dominant
//! one.

use crate::error::WorldError;
use dpa_core::{PtrApp, WorkEnv};
use global_heap::{ClassTable, GPtr, ObjClass};
use sim_net::Rng;
use std::sync::Arc;

/// Per-operation costs, ns.
#[derive(Clone, Copy, Debug)]
pub struct SetopsCost {
    /// Per-op decode + dispatch.
    pub op_ns: u64,
    /// Per-bucket probe of a range query.
    pub probe_ns: u64,
    /// Per-key fold inside a probe.
    pub key_ns: u64,
}

impl Default for SetopsCost {
    fn default() -> Self {
        SetopsCost {
            op_ns: 300,
            probe_ns: 500,
            key_ns: 40,
        }
    }
}

/// One batched set operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetOp {
    /// Insert `key` (no-op if present).
    Insert(u64),
    /// Delete `key` (no-op if absent).
    Delete(u64),
    /// Count + digest the members of `[lo, hi)` at phase start.
    Range(u64, u64),
}

/// Generator parameters for [`SetopsWorld`].
#[derive(Clone, Copy, Debug)]
pub struct SetopsParams {
    /// Key universe `0..universe`.
    pub universe: u64,
    /// Bucket count (each bucket is one heap object).
    pub buckets: usize,
    /// Machine size (contiguous even bucket partition).
    pub nodes: u16,
    /// Ops per node per batch.
    pub ops_per_node: usize,
    /// Initial membership density, permille.
    pub fill_permille: u32,
    /// Power-law skew of range-query placement toward bucket 0.
    pub skew: f64,
    /// Max range width, in buckets.
    pub range_buckets: usize,
    /// Generator seed.
    pub seed: u64,
}

impl Default for SetopsParams {
    fn default() -> Self {
        SetopsParams {
            universe: 4096,
            buckets: 64,
            nodes: 4,
            ops_per_node: 48,
            fill_permille: 400,
            skew: 1.5,
            range_buckets: 4,
            seed: 0x5E70,
        }
    }
}

/// The shared world: initial membership, per-node op batches, partition.
pub struct SetopsWorld {
    /// Parameters the world was built from.
    pub params: SetopsParams,
    /// Initial membership bitset over the key universe.
    initial: Vec<u64>,
    /// Rank half of the index over `initial`: `rank[w]` = initial members
    /// below key `64 * w` (one entry per word, plus the total).
    rank: Vec<u32>,
    /// Prefix half: `stamps[w]` = wrapping sum of [`key_stamp`] over the
    /// same members.
    stamps: Vec<u64>,
    /// Keys per bucket, `ceil(universe / buckets)`.
    bucket_width: u64,
    /// `ops[node]` = that node's batch.
    ops: Vec<Vec<SetOp>>,
    /// `bptrs[b]` = [`SetopsWorld::bptr`].
    bptrs: Vec<GPtr>,
    /// `splits[i]..splits[i+1]` = node `i`'s buckets.
    pub splits: Vec<usize>,
    /// Cost model.
    pub cost: SetopsCost,
    /// Object classes (one: BUCKET).
    pub classes: ClassTable,
    /// The bucket object class.
    pub bclass: ObjClass,
}

#[inline]
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Order-independent digest contribution of key `k` being present.
#[inline]
pub fn key_stamp(k: u64) -> u64 {
    mix(k ^ 0xA076_1D64_78BD_642F, 0x1357_9BDF)
}

/// `(count, wrapping key_stamp sum)` of the keys `base + i` over the set
/// bits `i` of `bits` — one bitset word, or the masked edge of one.
#[inline]
fn fold_word(base: u64, mut bits: u64) -> (u64, u64) {
    let count = bits.count_ones() as u64;
    let mut sum = 0u64;
    while bits != 0 {
        sum = sum.wrapping_add(key_stamp(base + bits.trailing_zeros() as u64));
        bits &= bits - 1;
    }
    (count, sum)
}

impl SetopsWorld {
    /// Build the world, panicking on invalid parameters.
    pub fn build(params: SetopsParams) -> Arc<SetopsWorld> {
        Self::try_build(params).expect("invalid SetopsWorld configuration")
    }

    /// Fallible [`SetopsWorld::build`]: rejects an empty machine, empty
    /// universes/batches, universes of `2^32` keys or more (keys are
    /// shuffled and counted as `u32`), machines larger than the bucket
    /// count, op batches that cannot draw machine-wide-distinct keys, and
    /// partitions that leave a node without keys. Buckets are `ceil(universe /
    /// buckets)` keys wide, so the last ones can lie beyond the universe;
    /// such trailing empty buckets are legal (no keys, an empty
    /// [`key_range`](Self::key_range), never demanded) as long as every
    /// node's *first* bucket starts inside the universe.
    pub fn try_build(params: SetopsParams) -> Result<Arc<SetopsWorld>, WorldError> {
        if params.nodes == 0 {
            return Err(WorldError::NoNodes);
        }
        if params.buckets == 0 || params.universe == 0 {
            return Err(WorldError::Empty { what: "buckets" });
        }
        if params.universe > u32::MAX as u64 {
            return Err(WorldError::UniverseTooLarge {
                universe: params.universe,
            });
        }
        if params.buckets < params.nodes as usize {
            return Err(WorldError::TooFewElements {
                what: "buckets",
                have: params.buckets,
                nodes: params.nodes,
            });
        }
        let need = params.nodes as usize * params.ops_per_node;
        if (params.universe as usize) < need.max(params.buckets) {
            return Err(WorldError::TooFewElements {
                what: "keys",
                have: params.universe as usize,
                nodes: params.nodes,
            });
        }
        let splits = nbody::morton::even_splits(params.buckets, params.nodes as usize);
        let bucket_width = params.universe.div_ceil(params.buckets as u64);
        for node in 0..params.nodes {
            let first_bucket = splits[node as usize];
            if first_bucket as u64 * bucket_width >= params.universe {
                return Err(WorldError::NodeBeyondUniverse {
                    node,
                    first_bucket,
                    bucket_width,
                    universe: params.universe,
                });
            }
        }
        let words = (params.universe as usize).div_ceil(64);
        let mut initial = vec![0u64; words];
        for k in 0..params.universe {
            if mix(params.seed ^ 0xF111, k) % 1000 < params.fill_permille as u64 {
                initial[k as usize / 64] |= 1 << (k % 64);
            }
        }
        // The rank/prefix index: one pass over the bitset.
        let mut rank = Vec::with_capacity(words + 1);
        let mut stamps = Vec::with_capacity(words + 1);
        let (mut members, mut stamp_sum) = (0u32, 0u64);
        for (w, &bits) in initial.iter().enumerate() {
            rank.push(members);
            stamps.push(stamp_sum);
            let (count, sum) = fold_word(64 * w as u64, bits);
            members = members
                .checked_add(count as u32)
                .expect("invariant: a universe below 2^32 keys has < 2^32 members");
            stamp_sum = stamp_sum.wrapping_add(sum);
        }
        rank.push(members);
        stamps.push(stamp_sum);
        // Machine-wide distinct op keys: a seeded Fisher-Yates permutation
        // of the universe, carved into per-node slices. Keys fit in `u32`
        // (checked above), which halves the permutation; only the prefix
        // the batches draw from is kept while they are built. It is copied
        // out and the whole permutation freed, not shrunk in place: glibc
        // raises its mmap and trim thresholds to the largest mapped block
        // freed, and a block shrunk to the prefix left them so low that
        // every later run re-faulted its heap (EXPERIMENTS.md X22).
        let mut perm: Vec<u32> = (0..params.universe).map(|k| k as u32).collect();
        let mut rng = Rng::new(params.seed ^ 0x0B5E);
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let keys = perm[..need].to_vec();
        drop(perm);
        // Power-law placement of range queries over buckets.
        let mut cum = Vec::with_capacity(params.buckets);
        let mut total = 0.0f64;
        for b in 0..params.buckets {
            total += ((b + 1) as f64).powf(-params.skew);
            cum.push(total);
        }
        let mut ops = Vec::with_capacity(params.nodes as usize);
        for node in 0..params.nodes as usize {
            let mut batch = Vec::with_capacity(params.ops_per_node);
            let mut nr = Rng::new(mix(params.seed, node as u64));
            for j in 0..params.ops_per_node {
                let k = keys[node * params.ops_per_node + j] as u64;
                batch.push(match mix(params.seed ^ 0x09, k) % 5 {
                    0 | 1 => SetOp::Insert(k),
                    2 | 3 => SetOp::Delete(k),
                    _ => {
                        let r = nr.unit_f64() * total;
                        let lo_b = cum.partition_point(|&c| c < r).min(params.buckets - 1);
                        let width = 1 + nr.below(params.range_buckets.max(1) as u64);
                        // Clamped: a query placed on a trailing empty
                        // bucket is the empty range at the universe's end.
                        let lo = (lo_b as u64 * bucket_width).min(params.universe);
                        let hi = ((lo_b as u64 + width) * bucket_width).min(params.universe);
                        SetOp::Range(lo, hi)
                    }
                });
            }
            ops.push(batch);
        }
        let mut classes = ClassTable::new();
        let bclass = classes.register("setops_bucket", 64);
        let bptrs = (0..params.nodes)
            .flat_map(|node| {
                (splits[node as usize]..splits[node as usize + 1])
                    .map(move |b| GPtr::new(node, bclass, b as u64))
            })
            .collect();
        Ok(Arc::new(SetopsWorld {
            params,
            initial,
            rank,
            stamps,
            bucket_width,
            ops,
            bptrs,
            splits,
            cost: SetopsCost::default(),
            classes,
            bclass,
        }))
    }

    /// Width of each bucket in keys.
    #[inline]
    pub fn bucket_width(&self) -> u64 {
        self.bucket_width
    }

    /// The bucket holding `key`.
    #[inline]
    pub fn bucket_of(&self, key: u64) -> usize {
        ((key / self.bucket_width()) as usize).min(self.params.buckets - 1)
    }

    /// Global pointer to bucket `b` (owned by its home node).
    #[inline]
    pub fn bptr(&self, b: usize) -> GPtr {
        self.bptrs[b]
    }

    /// Buckets owned by `node`.
    pub fn bucket_range(&self, node: u16) -> std::ops::Range<usize> {
        self.splits[node as usize]..self.splits[node as usize + 1]
    }

    /// Keys of bucket `b`; empty, at the universe's end, for a trailing
    /// bucket beyond it.
    pub fn key_range(&self, b: usize) -> std::ops::Range<u64> {
        let (w, end) = (self.bucket_width, self.params.universe);
        (b as u64 * w).min(end)..((b as u64 + 1) * w).min(end)
    }

    /// Keys owned by `node`: those of its buckets, one contiguous range.
    pub fn owned_keys(&self, node: u16) -> std::ops::Range<u64> {
        let buckets = self.bucket_range(node);
        self.key_range(buckets.start).start..self.key_range(buckets.end - 1).end
    }

    /// `true` if `key` is in the initial (phase-start) set.
    #[inline]
    pub fn initially_present(&self, key: u64) -> bool {
        self.initial[key as usize / 64] & (1 << (key % 64)) != 0
    }

    /// Node `node`'s op batch.
    pub fn batch(&self, node: u16) -> &[SetOp] {
        &self.ops[node as usize]
    }

    /// `(count, wrapping key_stamp sum)` of the initial members below `key`
    /// (`key <= universe`): whole words come from the index, the at most
    /// 63 bits of `key`'s own word are walked.
    #[inline]
    fn below(&self, key: u64) -> (u64, u64) {
        let (w, bit) = ((key / 64) as usize, key % 64);
        let (mut count, mut sum) = (self.rank[w] as u64, self.stamps[w]);
        if bit != 0 {
            let edge = fold_word(key - bit, self.initial[w] & !(!0 << bit));
            count += edge.0;
            sum = sum.wrapping_add(edge.1);
        }
        (count, sum)
    }

    /// The initial members of `[lo, hi)`, `lo <= hi <= universe`, as
    /// `(count, wrapping sum of their key_stamps)` — exactly what scanning
    /// the range with [`initially_present`](Self::initially_present) and
    /// [`key_stamp`] adds up to, in O(1): the difference of two prefix
    /// reads, each touching one index entry and at most one bitset word.
    #[inline]
    pub fn fold(&self, lo: u64, hi: u64) -> (u64, u64) {
        debug_assert!(lo <= hi && hi <= self.params.universe, "fold({lo}, {hi})");
        let (below_lo, below_hi) = (self.below(lo), self.below(hi));
        (below_hi.0 - below_lo.0, below_hi.1.wrapping_sub(below_lo.1))
    }

    /// Transfer size of bucket `b`: header + its initial members.
    pub fn bucket_bytes(&self, b: usize) -> u32 {
        let keys = self.key_range(b);
        24 + 8 * self.fold(keys.start, keys.end).0 as u32
    }

    /// Host-side oracle for `node`: `(range_sum, final_digest)` — range
    /// queries answered against the initial set, then the whole machine's
    /// batch applied and the node's owned keys digested. Linear in the
    /// machine's op count: every key is operated on at most once
    /// machine-wide, so each mutation of an owned key moves the digest by
    /// its stamp exactly when it flips the key's initial membership.
    pub fn expected(&self, node: u16) -> (u64, u64) {
        let mut range_sum = 0u64;
        for op in self.batch(node) {
            if let SetOp::Range(lo, hi) = *op {
                range_sum = range_sum.wrapping_add(self.fold(lo, hi).1);
            }
        }
        let owned = self.owned_keys(node);
        let mut digest = self.fold(owned.start, owned.end).1;
        for op in self.ops.iter().flatten() {
            match *op {
                SetOp::Insert(k) if owned.contains(&k) && !self.initially_present(k) => {
                    digest = digest.wrapping_add(key_stamp(k));
                }
                SetOp::Delete(k) if owned.contains(&k) && self.initially_present(k) => {
                    digest = digest.wrapping_sub(key_stamp(k));
                }
                _ => {}
            }
        }
        (range_sum, digest)
    }
}

/// A probe work item: fold one bucket's members within `[lo, hi)`.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    /// Query lower bound (inclusive).
    pub lo: u64,
    /// Query upper bound (exclusive).
    pub hi: u64,
    /// The bucket to probe (the labeled pointer).
    pub b: u32,
}

/// Per-node batch-execution state.
pub struct SetopsApp {
    world: Arc<SetopsWorld>,
    me: u16,
    /// Live membership of the owned keys: a copy of the world's bitset
    /// words that cover them. An edge word can also cover a neighbour's
    /// keys; those bits are never read or written here.
    owned: Vec<u64>,
    /// Key of bit 0 of `owned[0]` (the owned range's start, rounded down
    /// to a word).
    owned_base: u64,
    /// Digest of the owned keys' membership, kept current by every flip.
    digest: u64,
    /// Order-independent digest over range-query results.
    pub range_sum: u64,
    /// Probes executed.
    pub probes: u64,
    /// Reductions applied on this owner.
    pub applied: u64,
    /// `Update` entries refused: a value that encodes no key of the
    /// owned bucket it was sent to.
    pub refused: u64,
}

impl SetopsApp {
    /// The app instance for node `me`.
    pub fn new(world: Arc<SetopsWorld>, me: u16) -> SetopsApp {
        let keys = world.owned_keys(me);
        let words = (keys.start / 64) as usize..(keys.end as usize).div_ceil(64);
        SetopsApp {
            owned: world.initial[words].to_vec(),
            owned_base: keys.start - keys.start % 64,
            digest: world.fold(keys.start, keys.end).1,
            world,
            me,
            range_sum: 0,
            probes: 0,
            applied: 0,
            refused: 0,
        }
    }

    /// Digest of this node's final owned membership (order-independent):
    /// the initial members' stamps, plus each key inserted while absent,
    /// minus each key deleted while present.
    pub fn final_digest(&self) -> u64 {
        self.digest
    }

    /// The `(key, insert)` an `Update` value encodes for bucket `ptr` —
    /// `key + 1` to insert, `-(key + 1)` to delete — or `None` unless the
    /// value is integral, `|value| ≥ 1`, and the key lies in that bucket,
    /// a bucket of this node's. The value arrives in a message, so it is
    /// checked here, not trusted.
    fn decode(&self, ptr: GPtr, value: f64) -> Option<(u64, bool)> {
        let world = &*self.world;
        let bucket = ptr.index() as usize;
        // The cast saturates and takes NaN to 0, so the round trip holds
        // only for an integral value (one past `u64` lands outside every
        // bucket below).
        let code = value.abs() as u64;
        if ptr.class() != world.bclass
            || code == 0
            || code as f64 != value.abs()
            || !world.bucket_range(self.me).contains(&bucket)
        {
            return None;
        }
        let key = code - 1;
        world
            .key_range(bucket)
            .contains(&key)
            .then_some((key, value > 0.0))
    }

    /// `true` if `key`, one of this node's owned keys, is a member now.
    pub fn contains(&self, key: u64) -> bool {
        let i = (key - self.owned_base) as usize;
        self.owned[i / 64] & (1 << (i % 64)) != 0
    }
}

impl PtrApp for SetopsApp {
    type Work = Probe;

    fn num_iterations(&self) -> usize {
        self.world.batch(self.me).len()
    }

    fn start_iteration(&mut self, iter: usize, env: &mut WorkEnv<'_, Probe>) {
        let world = &*self.world;
        env.charge(world.cost.op_ns);
        match world.batch(self.me)[iter] {
            SetOp::Insert(k) => env.accumulate(world.bptr(world.bucket_of(k)), (k + 1) as f64),
            SetOp::Delete(k) => env.accumulate(world.bptr(world.bucket_of(k)), -((k + 1) as f64)),
            // An empty range (a query placed on a trailing empty bucket)
            // covers no bucket.
            SetOp::Range(lo, hi) if lo >= hi => {}
            SetOp::Range(lo, hi) => {
                for b in world.bucket_of(lo)..=world.bucket_of(hi - 1) {
                    env.demand(
                        world.bptr(b),
                        Probe {
                            lo,
                            hi,
                            b: b as u32,
                        },
                    );
                }
            }
        }
    }

    fn run_work(&mut self, w: Probe, env: &mut WorkEnv<'_, Probe>) {
        let world = &*self.world;
        env.assert_readable(world.bptr(w.b as usize));
        let keys = world.key_range(w.b as usize);
        let (folded, stamp_sum) = world.fold(w.lo.max(keys.start), w.hi.min(keys.end));
        self.range_sum = self.range_sum.wrapping_add(stamp_sum);
        env.charge(world.cost.probe_ns + world.cost.key_ns * folded);
        self.probes += 1;
    }

    fn object_size(&self, ptr: GPtr) -> u32 {
        self.world.bucket_bytes(ptr.index() as usize)
    }

    fn apply_update(&mut self, ptr: GPtr, value: f64) {
        let Some((k, insert)) = self.decode(ptr, value) else {
            self.refused += 1;
            return;
        };
        // Only a flip moves the digest: inserting a member or deleting a
        // non-member changes nothing.
        if insert != self.contains(k) {
            let i = (k - self.owned_base) as usize;
            self.owned[i / 64] ^= 1 << (i % 64);
            self.digest = if insert {
                self.digest.wrapping_add(key_stamp(k))
            } else {
                self.digest.wrapping_sub(key_stamp(k))
            };
        }
        self.applied += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetopsParams {
        SetopsParams {
            universe: 1024,
            buckets: 32,
            nodes: 4,
            ops_per_node: 24,
            fill_permille: 400,
            skew: 1.5,
            range_buckets: 3,
            seed: 7,
        }
    }

    #[test]
    fn world_is_deterministic_and_partitioned() {
        let a = SetopsWorld::build(small());
        let b = SetopsWorld::build(small());
        for node in 0..4 {
            assert_eq!(a.batch(node), b.batch(node));
            assert_eq!(a.expected(node), b.expected(node));
        }
        let covered: usize = (0..4).map(|n| a.bucket_range(n).len()).sum();
        assert_eq!(covered, 32);
    }

    #[test]
    fn op_keys_are_machine_wide_distinct() {
        let w = SetopsWorld::build(small());
        let mut seen = std::collections::HashSet::new();
        for node in 0..4 {
            for op in w.batch(node) {
                if let SetOp::Insert(k) | SetOp::Delete(k) = *op {
                    assert!(seen.insert(k), "key {k} operated on twice");
                }
            }
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn range_queries_skew_toward_node0_buckets() {
        let w = SetopsWorld::build(SetopsParams {
            ops_per_node: 200,
            ..small()
        });
        let mut hits = vec![0u64; 4];
        for node in 0..4 {
            for op in w.batch(node) {
                if let SetOp::Range(lo, _) = *op {
                    hits[w.bptr(w.bucket_of(lo)).node() as usize] += 1;
                }
            }
        }
        assert!(
            hits[0] > hits[1] + hits[2] + hits[3],
            "low buckets not hot: {hits:?}"
        );
    }

    #[test]
    fn bptr_owner_matches_split() {
        // Uneven partitions included: 32 buckets over 1..=7 nodes.
        for nodes in 1..=7 {
            let w = SetopsWorld::build(SetopsParams { nodes, ..small() });
            for b in 0..32 {
                let owner = w.splits.partition_point(|&s| s <= b) - 1;
                assert_eq!(
                    w.bptr(b),
                    GPtr::new(owner as u16, w.bclass, b as u64),
                    "{nodes} nodes"
                );
                assert!(w.bucket_range(w.bptr(b).node()).contains(&b));
            }
        }
    }

    #[test]
    fn try_build_rejects_bad_configs() {
        let p = small();
        assert_eq!(
            SetopsWorld::try_build(SetopsParams { nodes: 0, ..p })
                .err()
                .expect("config must be rejected"),
            WorldError::NoNodes
        );
        assert_eq!(
            SetopsWorld::try_build(SetopsParams { buckets: 0, ..p })
                .err()
                .expect("config must be rejected"),
            WorldError::Empty { what: "buckets" }
        );
        assert_eq!(
            SetopsWorld::try_build(SetopsParams { buckets: 3, ..p })
                .err()
                .expect("config must be rejected"),
            WorldError::TooFewElements {
                what: "buckets",
                have: 3,
                nodes: 4
            }
        );
        assert_eq!(
            SetopsWorld::try_build(SetopsParams { universe: 64, ..p })
                .err()
                .expect("config must be rejected"),
            WorldError::TooFewElements {
                what: "keys",
                have: 64,
                nodes: 4
            }
        );
    }

    /// Keys are shuffled and counted as `u32`: a universe of `2^32` keys
    /// or more is a configuration error, returned before the bitset (512
    /// MiB at `2^32` keys) or the permutation is allocated.
    #[test]
    fn try_build_rejects_a_universe_beyond_u32_keys() {
        for universe in [1 << 32, 1 << 40, u64::MAX] {
            assert_eq!(
                SetopsWorld::try_build(SetopsParams {
                    universe,
                    ..small()
                })
                .err()
                .expect("config must be rejected"),
                WorldError::UniverseTooLarge { universe }
            );
        }
    }

    /// The 65-key world that used to be accepted and then panicked its own
    /// app: buckets are 2 keys wide, so node 3's first bucket (48) starts
    /// at key 96.
    #[test]
    fn try_build_rejects_a_node_beyond_the_universe() {
        let p = SetopsParams {
            universe: 65,
            buckets: 64,
            nodes: 4,
            ops_per_node: 8,
            ..small()
        };
        let err = SetopsWorld::try_build(p)
            .err()
            .expect("config must be rejected");
        assert_eq!(
            err,
            WorldError::NodeBeyondUniverse {
                node: 3,
                first_bucket: 48,
                bucket_width: 2,
                universe: 65
            }
        );
        assert!(SetopsWorld::try_build(SetopsParams { universe: 96, ..p }).is_err());
    }

    /// The smallest universe those 64 two-key buckets accept: node 3 owns
    /// exactly key 96, buckets 49.. are legal trailing empties, no key
    /// range inverts, and every app builds and digests its keys.
    #[test]
    fn smallest_accepted_universe_has_empty_trailing_buckets() {
        let w = SetopsWorld::build(SetopsParams {
            universe: 97,
            buckets: 64,
            nodes: 4,
            ops_per_node: 8,
            ..small()
        });
        assert_eq!(w.key_range(48), 96..97);
        for b in 49..64 {
            assert_eq!(w.key_range(b), 97..97, "bucket {b}");
            assert_eq!(w.bucket_bytes(b), 24);
        }
        for node in 0..4u16 {
            for op in w.batch(node) {
                if let SetOp::Range(lo, hi) = *op {
                    assert!(lo <= hi && hi <= 97, "range {lo}..{hi}");
                }
            }
            let app = SetopsApp::new(w.clone(), node);
            let keys = w.owned_keys(node);
            assert!(!keys.is_empty());
            for k in keys.clone() {
                assert_eq!(app.contains(k), w.initially_present(k), "key {k}");
            }
            assert_eq!(app.final_digest(), w.fold(keys.start, keys.end).1);
        }
    }

    /// `fold` is the scan it replaced, and the linear oracle is the
    /// quadratic one it replaced (an inserted key is present, else a
    /// deleted key is absent, else initial membership).
    #[test]
    fn fold_and_oracle_match_their_scanning_definitions() {
        let w = SetopsWorld::build(SetopsParams {
            universe: 1000,
            buckets: 48,
            ..small()
        });
        let scan = |lo: u64, hi: u64| {
            (lo..hi)
                .filter(|&k| w.initially_present(k))
                .fold((0u64, 0u64), |(n, s), k| {
                    (n + 1, s.wrapping_add(key_stamp(k)))
                })
        };
        for (lo, hi) in [
            (0, 0),
            (0, 1000),
            (1000, 1000),
            (63, 65),
            (64, 128),
            (5, 6),
            (130, 999),
        ] {
            assert_eq!(w.fold(lo, hi), scan(lo, hi), "fold({lo}, {hi})");
        }
        let (mut inserted, mut deleted) = (Vec::new(), Vec::new());
        for op in (0..4).flat_map(|n| w.batch(n)) {
            match *op {
                SetOp::Insert(k) => inserted.push(k),
                SetOp::Delete(k) => deleted.push(k),
                SetOp::Range(..) => {}
            }
        }
        for node in 0..4u16 {
            let mut range_sum = 0u64;
            for op in w.batch(node) {
                if let SetOp::Range(lo, hi) = *op {
                    range_sum = range_sum.wrapping_add(scan(lo, hi).1);
                }
            }
            let digest = w
                .owned_keys(node)
                .filter(|k| {
                    inserted.contains(k) || (!deleted.contains(k) && w.initially_present(*k))
                })
                .fold(0u64, |d, k| d.wrapping_add(key_stamp(k)));
            assert_eq!(w.expected(node), (range_sum, digest), "node {node}");
        }
    }

    #[test]
    fn only_a_membership_flip_moves_the_digest() {
        let w = SetopsWorld::build(small());
        let mut app = SetopsApp::new(w.clone(), 1);
        let keys = w.key_range(w.bucket_range(1).start);
        let present = keys
            .clone()
            .find(|&k| w.initially_present(k))
            .expect("a member");
        let absent = keys
            .clone()
            .find(|&k| !w.initially_present(k))
            .expect("a non-member");
        let initial = app.final_digest();
        let update = |app: &mut SetopsApp, k: u64, sign: f64| {
            app.apply_update(w.bptr(w.bucket_of(k)), sign * (k + 1) as f64);
        };
        update(&mut app, present, 1.0);
        update(&mut app, absent, -1.0);
        assert_eq!(
            app.final_digest(),
            initial,
            "no-op mutations moved the digest"
        );
        update(&mut app, absent, 1.0);
        assert!(app.contains(absent));
        assert_eq!(app.final_digest(), initial.wrapping_add(key_stamp(absent)));
        update(&mut app, present, -1.0);
        assert!(!app.contains(present));
        update(&mut app, absent, -1.0);
        update(&mut app, present, 1.0);
        assert_eq!(app.final_digest(), initial);
        assert_eq!((app.applied, app.refused), (6, 0));
    }

    /// An `Update` value that encodes no key of the owned bucket it names
    /// is refused and counted: no panic (an out-of-bounds bit in release,
    /// a `u64` underflow in debug), no membership or digest change.
    #[test]
    fn a_malformed_update_value_is_refused_and_counted() {
        let w = SetopsWorld::build(small());
        let mut app = SetopsApp::new(w.clone(), 1);
        let owned = w.bucket_range(1);
        let (b, next) = (owned.start, owned.start + 1);
        let key_of = |b: usize| w.key_range(b).start as f64 + 1.0;
        let foreign = w.bucket_range(2).start;
        let bad = [
            (b, 0.0),
            (b, -0.0),
            (b, f64::NAN),
            (b, f64::INFINITY),
            (b, f64::NEG_INFINITY),
            (b, key_of(b) + 0.5),
            (b, -0.5),
            // The key of another bucket of this node, of another node's
            // bucket, of no bucket at all.
            (b, key_of(next)),
            (b, -key_of(next)),
            (b, key_of(foreign)),
            (b, w.params.universe as f64 + 1.0),
            (b, 1e30),
            // A key of its own bucket, the bucket another node's.
            (foreign, key_of(foreign)),
        ];
        let initial = app.final_digest();
        for (i, &(bucket, value)) in bad.iter().enumerate() {
            let ptr = GPtr::new(1, w.bclass, bucket as u64);
            app.apply_update(ptr, value);
            assert_eq!(app.refused, i as u64 + 1, "({bucket}, {value}) not refused");
        }
        // The right key and bucket under another object class.
        let other = ObjClass(w.bclass.0 + 1);
        app.apply_update(GPtr::new(1, other, b as u64), key_of(b));
        assert_eq!(app.refused, bad.len() as u64 + 1);
        assert_eq!((app.final_digest(), app.applied), (initial, 0));
        for k in w.owned_keys(1) {
            assert_eq!(app.contains(k), w.initially_present(k), "key {k}");
        }
        // The first and last key of the bucket still decode.
        let keys = w.key_range(b);
        for k in [keys.start, keys.end - 1] {
            let flip = if w.initially_present(k) { -1.0 } else { 1.0 };
            app.apply_update(w.bptr(b), flip * (k + 1) as f64);
            assert_ne!(app.contains(k), w.initially_present(k), "key {k}");
        }
        assert_eq!((app.applied, app.refused), (2, bad.len() as u64 + 1));
    }

    #[test]
    fn oracle_digest_reflects_inserts_and_deletes() {
        let w = SetopsWorld::build(small());
        // Find an insert of an absent key and a delete of a present key;
        // with 400-permille fill and 96 op slots both exist at this seed.
        let mut any_flip = false;
        for node in 0..4 {
            for op in w.batch(node) {
                match *op {
                    SetOp::Insert(k) if !w.initially_present(k) => any_flip = true,
                    SetOp::Delete(k) if w.initially_present(k) => any_flip = true,
                    _ => {}
                }
            }
        }
        assert!(
            any_flip,
            "batch never changes membership — oracle untestable"
        );
        // The final digest differs from the initial digest somewhere.
        let initial_digest: Vec<u64> = (0..4u16)
            .map(|node| {
                let mut d = 0u64;
                for b in w.bucket_range(node) {
                    for k in w.key_range(b) {
                        if w.initially_present(k) {
                            d = d.wrapping_add(key_stamp(k));
                        }
                    }
                }
                d
            })
            .collect();
        let moved = (0..4u16).any(|n| w.expected(n).1 != initial_digest[n as usize]);
        assert!(
            moved,
            "applying the batch left every node's digest unchanged"
        );
    }
}
