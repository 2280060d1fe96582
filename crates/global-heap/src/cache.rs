//! The software-caching baseline (the scheme DPA is compared against in
//! the paper's Table of execution times).
//!
//! In Olden-style software caching, every dereference of a global pointer —
//! including ones that turn out to be local hits — pays a hash probe; a miss
//! blocks the computation for a full round trip that fetches the object.
//! Reuse happens (later probes hit), but there is no latency overlap and no
//! message aggregation, and the probe cost is paid per access rather than
//! per thread-creation as in DPA. The paper attributes DPA's win over
//! caching to "minimized hashing and better cache performance because of
//! access hoisting"; the cost hooks here expose exactly those knobs.

use crate::fxhash::FxHashMap;
use crate::gptr::GPtr;
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// Counters the caching baseline reports per node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Hash probes performed (every global access).
    pub probes: u64,
    /// Probes that found the object cached.
    pub hits: u64,
    /// Probes that required a blocking fetch.
    pub misses: u64,
    /// Entries evicted to respect capacity.
    pub evictions: u64,
    /// Entries dropped because their object changed home (coherence).
    pub invalidations: u64,
}

impl CacheStats {
    /// Hit rate over all probes (0 when no probes).
    pub fn hit_rate(&self) -> f64 {
        if self.probes == 0 {
            0.0
        } else {
            self.hits as f64 / self.probes as f64
        }
    }
}

/// Eviction policy for a bounded [`SoftCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EvictPolicy {
    /// Evict the oldest-inserted entry.
    #[default]
    Fifo,
    /// Evict the least-recently-probed entry (recency updated on hits).
    Lru,
}

/// A per-node software cache of remote objects with FIFO or LRU eviction.
///
/// `capacity` bounds the number of cached objects (`None` = unbounded, the
/// common configuration for per-phase caches that are flushed between
/// steps).
#[derive(Clone, Debug)]
pub struct SoftCache {
    /// `ptr -> (size, last-use tick)`. Fx-hashed: the caching baseline
    /// probes this on *every* global access. LRU eviction stays
    /// deterministic because ticks are unique, so the stalest entry is
    /// unique regardless of iteration order.
    map: FxHashMap<GPtr, (u32, u64)>,
    fifo: VecDeque<GPtr>,
    capacity: Option<usize>,
    policy: EvictPolicy,
    tick: u64,
    bytes: u64,
    peak_bytes: u64,
    stats: CacheStats,
}

impl SoftCache {
    /// Create a FIFO cache bounded to `capacity` objects (`None` =
    /// unbounded).
    pub fn new(capacity: Option<usize>) -> SoftCache {
        SoftCache::with_policy(capacity, EvictPolicy::Fifo)
    }

    /// Create a cache with an explicit eviction policy.
    pub fn with_policy(capacity: Option<usize>, policy: EvictPolicy) -> SoftCache {
        SoftCache {
            map: FxHashMap::default(),
            fifo: VecDeque::new(),
            capacity,
            policy,
            tick: 0,
            bytes: 0,
            peak_bytes: 0,
            stats: CacheStats::default(),
        }
    }

    /// Probe for `ptr`. Counts the probe; returns `true` on hit. On a miss
    /// the caller must perform the (blocking) fetch and then call
    /// [`SoftCache::fill`].
    pub fn probe(&mut self, ptr: GPtr) -> bool {
        self.stats.probes += 1;
        self.tick += 1;
        if let Some(entry) = self.map.get_mut(&ptr) {
            entry.1 = self.tick;
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// `true` if `ptr` is cached, without counting a probe (used by the
    /// honesty checks; accounting probes go through [`SoftCache::probe`]).
    pub fn contains(&self, ptr: GPtr) -> bool {
        self.map.contains_key(&ptr)
    }

    /// Install `ptr` (with `size` payload bytes) after a miss fetch,
    /// evicting per the configured policy if over capacity.
    pub fn fill(&mut self, ptr: GPtr, size: u32) {
        self.tick += 1;
        match self.map.entry(ptr) {
            Entry::Occupied(_) => return, // concurrent fill; keep first
            Entry::Vacant(v) => {
                v.insert((size, self.tick));
                self.fifo.push_back(ptr);
                self.bytes += size as u64;
                self.peak_bytes = self.peak_bytes.max(self.bytes);
            }
        }
        if let Some(cap) = self.capacity {
            while self.map.len() > cap {
                let victim = match self.policy {
                    EvictPolicy::Fifo => self.fifo.pop_front(),
                    EvictPolicy::Lru => {
                        // Scan for the stalest entry (simple and exact;
                        // bounded caches in the experiments are modest).
                        self.map
                            .iter()
                            .min_by_key(|(_, (_, t))| *t)
                            .map(|(p, _)| *p)
                    }
                };
                match victim {
                    Some(old) => {
                        if let Some((sz, _)) = self.map.remove(&old) {
                            self.bytes -= sz as u64;
                            self.stats.evictions += 1;
                        }
                        if self.policy == EvictPolicy::Lru {
                            if let Some(pos) = self.fifo.iter().position(|&p| p == old) {
                                self.fifo.remove(pos);
                            }
                        }
                    }
                    None => break,
                }
            }
        }
    }

    /// Drop `ptr` from the cache because its object changed home (an
    /// ownership change must not leave a copy that answers probes for the
    /// old home). Returns `true` if a copy was actually cached; afterwards
    /// the next probe misses and the refetch goes to the new home.
    pub fn invalidate(&mut self, ptr: GPtr) -> bool {
        match self.map.remove(&ptr) {
            Some((size, _)) => {
                self.bytes -= size as u64;
                self.stats.invalidations += 1;
                if let Some(pos) = self.fifo.iter().position(|&p| p == ptr) {
                    self.fifo.remove(pos);
                }
                true
            }
            None => false,
        }
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes currently cached.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// High-water mark of cached bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// The eviction policy in effect.
    pub fn policy(&self) -> EvictPolicy {
        self.policy
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Flush contents at a phase boundary (counters survive).
    pub fn clear(&mut self) {
        self.map.clear();
        self.fifo.clear();
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gptr::ObjClass;

    fn p(i: u64) -> GPtr {
        GPtr::new(2, ObjClass(1), i)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = SoftCache::new(None);
        assert!(!c.probe(p(1)));
        c.fill(p(1), 64);
        assert!(c.probe(p(1)));
        let s = c.stats();
        assert_eq!((s.probes, s.hits, s.misses), (2, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_evicts_fifo() {
        let mut c = SoftCache::new(Some(2));
        c.fill(p(1), 10);
        c.fill(p(2), 10);
        c.fill(p(3), 10);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        assert!(!c.probe(p(1)), "oldest entry must be evicted");
        assert!(c.probe(p(2)));
        assert!(c.probe(p(3)));
        assert_eq!(c.bytes(), 20);
    }

    #[test]
    fn lru_evicts_stalest_not_oldest() {
        let mut c = SoftCache::with_policy(Some(2), EvictPolicy::Lru);
        c.fill(p(1), 10);
        c.fill(p(2), 10);
        assert!(c.probe(p(1))); // refresh 1: now 2 is stalest
        c.fill(p(3), 10);
        assert!(c.probe(p(1)), "recently-used entry must survive");
        assert!(!c.probe(p(2)), "stalest entry must be evicted");
        assert!(c.probe(p(3)));
    }

    #[test]
    fn double_fill_is_idempotent() {
        let mut c = SoftCache::new(None);
        c.fill(p(1), 10);
        c.fill(p(1), 10);
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 10);
    }

    #[test]
    fn clear_keeps_counters_and_peak() {
        let mut c = SoftCache::new(None);
        c.probe(p(1));
        c.fill(p(1), 100);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.peak_bytes(), 100);
        assert_eq!(c.stats().probes, 1);
    }

    #[test]
    fn empty_hit_rate_zero() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn invalidate_forces_refetch_from_new_home() {
        let mut c = SoftCache::new(Some(4));
        c.fill(p(1), 64);
        c.fill(p(2), 32);
        assert!(c.invalidate(p(1)), "cached copy must be dropped");
        assert!(!c.contains(p(1)));
        assert_eq!(c.bytes(), 32);
        assert!(!c.probe(p(1)), "next probe must miss and refetch");
        assert!(!c.invalidate(p(1)), "second invalidate is a no-op");
        assert_eq!(c.stats().invalidations, 1);
        // The fifo entry is gone too: filling to capacity must not evict
        // based on a ghost of the invalidated pointer.
        c.fill(p(1), 64);
        c.fill(p(3), 8);
        c.fill(p(4), 8);
        c.fill(p(5), 8);
        assert_eq!(c.stats().evictions, 1);
        assert!(
            !c.contains(p(2)),
            "oldest live entry is the eviction victim"
        );
        assert!(c.contains(p(1)));
    }
}
