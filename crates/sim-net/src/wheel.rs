//! Calendar-queue ("timing wheel") event queue specialized to the
//! simulator's near-monotone timestamps.
//!
//! The sequential engine's event queue sees a very particular access
//! pattern: every push happens while handling the most recently popped
//! event, at a timestamp no earlier than that event's time (sends add
//! transit, wakes add a non-negative delay, faults and jitter only add).
//! A comparison-based heap pays `O(log n)` pointer-chasing compares per
//! operation for a generality that pattern never uses. A calendar queue
//! instead hashes each event by time into a ring of buckets and walks the
//! ring forward — `O(1)` amortized per operation, with all storage in flat
//! arrays (the bucket ring is the event arena: bucket vectors are recycled
//! through a [`fastmsg::arena::VecPool`], so steady-state operation never
//! touches the global allocator).
//!
//! # Ordering contract
//!
//! [`TimingWheel::pop`] yields items in exactly ascending
//! [`EventKey`] `(time, tie, src, seq)` order **of the current contents**,
//! i.e. the same order as a `BinaryHeap` keyed by
//! `Reverse((time, tie, src, seq))`. That contract is what the
//! differential suite (`queue_equiv`, the wheel-vs-heap proptests) pins
//! down: the machine's reports must be bit-identical under either queue.
//!
//! Items pushed with a timestamp earlier than the current cursor bucket
//! (possible only for same-bucket stragglers, since the engine never
//! travels back in time) are clamped into the cursor bucket; within a
//! bucket items sort by their *full key*, so the pop order still matches
//! the heap exactly — a heap could not un-pop already-delivered events
//! either.
//!
//! # Far-future events
//!
//! Events beyond the ring's horizon (`WHEEL_SLOTS` buckets ahead of the
//! cursor — pause-fault deferrals, long timers) wait in an overflow
//! min-heap and migrate into the ring as the cursor approaches. The
//! overflow check is one compare against the heap's root per queue
//! operation, and migration pops exactly the items that entered the
//! window. Keeping the overflow ordered matters when a workload's backlog
//! outgrows the ring window: the wheel then degrades gracefully to
//! heap-like `O(log n)` pushes instead of rescanning an unordered list on
//! every pop.

use fastmsg::arena::VecPool;
use std::collections::BinaryHeap;

/// log2 of the bucket width in nanoseconds (buckets span `2^WHEEL_SHIFT` ns).
pub const WHEEL_SHIFT: u32 = 10;

/// Number of buckets in the ring; the in-ring horizon is
/// `WHEEL_SLOTS << WHEEL_SHIFT` ns (~2.1 ms) ahead of the cursor.
pub const WHEEL_SLOTS: usize = 2048;

const SLOT_MASK: u64 = WHEEL_SLOTS as u64 - 1;

/// The total event order: time, then schedule tie-break, then source node,
/// then per-source sequence number. Identical to the sequential engine's
/// historical `BinaryHeap` key, so either queue yields the same schedule.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventKey {
    /// Delivery time in ns.
    pub time: u64,
    /// Seeded tie-break (0 in the default schedule).
    pub tie: u64,
    /// Originating node.
    pub src: u16,
    /// Per-source sequence number — unique per `(src, seq)`, which makes
    /// every key in one machine unique.
    pub seq: u64,
}

/// Anything the wheel can order: an item that knows its [`EventKey`].
pub trait WheelItem {
    /// The item's position in the total event order.
    fn key(&self) -> EventKey;
}

/// Overflow entry ordered as a *min*-heap element: the `Ord` impl is
/// reversed so `BinaryHeap`'s max-root is the earliest key.
struct OverflowItem<T>(T);

impl<T: WheelItem> PartialEq for OverflowItem<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<T: WheelItem> Eq for OverflowItem<T> {}
impl<T: WheelItem> PartialOrd for OverflowItem<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: WheelItem> Ord for OverflowItem<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.key().cmp(&self.0.key())
    }
}

struct Bucket<T> {
    /// Absolute bucket index (`time >> WHEEL_SHIFT`, cursor-clamped) of the
    /// items currently stored here; meaningful only when `items` is
    /// nonempty. At most one absolute bucket occupies a slot at a time
    /// because all live items sit within one `WHEEL_SLOTS` window.
    abs: u64,
    /// Whether `items` is sorted (descending by key, so `pop` takes from
    /// the end). Cleared by pushes, restored lazily on the next pop/peek.
    sorted: bool,
    items: Vec<T>,
}

/// A calendar queue yielding items in ascending [`EventKey`] order.
///
/// Generic over [`WheelItem`] so the property tests can model it against a
/// `BinaryHeap` with plain test structs.
pub struct TimingWheel<T> {
    slots: Vec<Bucket<T>>,
    /// Absolute bucket index of the most recent pop/peek position; all
    /// earlier buckets are empty, and every in-ring item lives in
    /// `[cursor, cursor + WHEEL_SLOTS)`.
    cursor: u64,
    /// Items currently stored in the ring (excludes overflow).
    in_ring: usize,
    /// Items beyond the ring horizon, as a min-heap on their keys.
    overflow: BinaryHeap<OverflowItem<T>>,
    /// Recycled storage for bucket vectors.
    pool: VecPool<T>,
}

impl<T: WheelItem> Default for TimingWheel<T> {
    fn default() -> Self {
        TimingWheel::new()
    }
}

impl<T: WheelItem> TimingWheel<T> {
    /// An empty wheel with its cursor at time zero.
    pub fn new() -> TimingWheel<T> {
        TimingWheel {
            slots: (0..WHEEL_SLOTS)
                .map(|_| Bucket {
                    abs: 0,
                    sorted: true,
                    items: Vec::new(),
                })
                .collect(),
            cursor: 0,
            in_ring: 0,
            overflow: BinaryHeap::new(),
            // Room for a first-step (four-item) vector per slot: whatever
            // the ring held at its fullest is still here when it fills
            // again, so a machine allocates a bucket's storage once, not
            // once per burst. (Under the pool's default bound a
            // message-bound run dropped and re-allocated ten thousand
            // bucket vectors a run; EXPERIMENTS.md X17.)
            pool: VecPool::with_idle_limit(WHEEL_SLOTS * 4 * std::mem::size_of::<T>()),
        }
    }

    /// Number of queued items.
    #[inline]
    pub fn len(&self) -> usize {
        self.in_ring + self.overflow.len()
    }

    /// `true` when no items are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queue `item` at its key's time.
    #[inline]
    pub fn push(&mut self, item: T) {
        let t = item.key().time;
        // Clamp stragglers into the cursor bucket: buckets before the
        // cursor are drained and stay empty, and within-bucket order is by
        // full key, so this preserves heap-identical pop order.
        let abs = (t >> WHEEL_SHIFT).max(self.cursor);
        if abs >= self.cursor + WHEEL_SLOTS as u64 {
            self.overflow.push(OverflowItem(item));
        } else {
            self.place(abs, item);
        }
    }

    /// Insert into the ring bucket `abs` (which must be in the window).
    #[inline]
    fn place(&mut self, abs: u64, item: T) {
        let slot = &mut self.slots[(abs & SLOT_MASK) as usize];
        if slot.items.is_empty() {
            if slot.items.capacity() == 0 {
                slot.items = self.pool.take();
            }
            slot.abs = abs;
        } else {
            debug_assert_eq!(slot.abs, abs, "two windows occupy one slot");
        }
        slot.items.push(item);
        slot.sorted = slot.items.len() <= 1;
        self.in_ring += 1;
    }

    /// Remove and return the minimum-key item.
    pub fn pop(&mut self) -> Option<T> {
        let i = self.position()?;
        let bucket = &mut self.slots[i];
        let item = bucket.items.pop().expect("positioned bucket is nonempty");
        self.in_ring -= 1;
        if bucket.items.is_empty() {
            // Retire the bucket's storage to the pool so idle slots hold no
            // capacity and hot capacity keeps circulating.
            self.pool.put(std::mem::take(&mut bucket.items));
        }
        Some(item)
    }

    /// Key of the minimum item without removing it.
    ///
    /// Takes `&mut self` because peeking performs the same lazy
    /// positioning (overflow migration, cursor advance, bucket sort) as
    /// [`pop`](TimingWheel::pop); repeated peeks are `O(1)`.
    pub fn peek_key(&mut self) -> Option<EventKey> {
        let i = self.position()?;
        Some(self.slots[i].items.last().expect("nonempty bucket").key())
    }

    /// Visit every queued item in unspecified order (diagnostics).
    pub fn for_each(&self, mut f: impl FnMut(&T)) {
        for slot in &self.slots {
            for item in &slot.items {
                f(item);
            }
        }
        for item in &self.overflow {
            f(&item.0);
        }
    }

    /// Time of the earliest overflow item (`u64::MAX` when empty).
    #[inline]
    fn overflow_min(&self) -> u64 {
        self.overflow.peek().map_or(u64::MAX, |i| i.0.key().time)
    }

    /// Advance the cursor to the first nonempty bucket (migrating due
    /// overflow items first) and sort it; returns its slot index, or
    /// `None` when the queue is empty.
    fn position(&mut self) -> Option<usize> {
        if self.in_ring == 0 {
            if self.overflow.is_empty() {
                return None;
            }
            // Ring drained: jump straight to the earliest overflow bucket.
            self.cursor = self.overflow_min() >> WHEEL_SHIFT;
            self.migrate_overflow();
        } else if (self.overflow_min() >> WHEEL_SHIFT) < self.cursor + WHEEL_SLOTS as u64 {
            // The root is `u64::MAX` when overflow is empty, so this
            // branch only fires when a far-future item entered the window.
            self.migrate_overflow();
        }
        debug_assert!(self.in_ring > 0);
        let start = self.cursor;
        let mut abs = start;
        loop {
            let i = (abs & SLOT_MASK) as usize;
            if !self.slots[i].items.is_empty() {
                debug_assert_eq!(self.slots[i].abs, abs, "stale bucket in scan window");
                self.cursor = abs;
                let bucket = &mut self.slots[i];
                if !bucket.sorted {
                    // Descending by key: `pop` then takes the minimum from
                    // the end in O(1). Keys are unique (per-source seqs),
                    // so unstable sorting is deterministic.
                    bucket.items.sort_unstable_by_key(|i| std::cmp::Reverse(i.key()));
                    bucket.sorted = true;
                }
                return Some(i);
            }
            abs += 1;
            debug_assert!(
                abs < start + WHEEL_SLOTS as u64,
                "scan ran off the window with {} items in the ring",
                self.in_ring
            );
        }
    }

    /// Empty the wheel and rewind its cursor to time zero, recycling every
    /// bucket's storage through the pool. After `reset` the wheel behaves
    /// exactly like [`TimingWheel::new`] — the only difference is that the
    /// bucket-vector pool keeps its warmed capacity, which is the point:
    /// a shard running back-to-back jobs never rebuilds the ring.
    pub fn reset(&mut self) {
        for slot in &mut self.slots {
            if !slot.items.is_empty() {
                slot.items.clear();
                self.pool.put(std::mem::take(&mut slot.items));
            }
            slot.abs = 0;
            slot.sorted = true;
        }
        self.cursor = 0;
        self.in_ring = 0;
        self.overflow.clear();
    }

    /// Move every overflow item whose bucket entered the window into the
    /// ring. The heap yields items in ascending key order, so this pops
    /// exactly the due prefix — `O(k log n)` for `k` migrated items.
    fn migrate_overflow(&mut self) {
        let end = self.cursor + WHEEL_SLOTS as u64;
        while let Some(top) = self.overflow.peek() {
            let t = top.0.key().time;
            if (t >> WHEEL_SHIFT) >= end {
                break;
            }
            let item = self.overflow.pop().expect("peeked overflow item").0;
            self.place((t >> WHEEL_SHIFT).max(self.cursor), item);
        }
    }
}

/// Which event-queue implementation a machine runs on.
///
/// The wheel is the production queue and every machine's default; the
/// shadow heap is the original `BinaryHeap`, kept as the reference that
/// differential tests (`queue_equiv`, the machine's heap and reset tests)
/// select by name. Both produce bit-identical schedules.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum QueueKind {
    /// Calendar-queue timing wheel (default).
    #[default]
    Wheel,
    /// The original binary heap, retained as a differential shadow.
    ShadowHeap,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Item(EventKey);

    impl WheelItem for Item {
        fn key(&self) -> EventKey {
            self.0
        }
    }

    fn k(time: u64, tie: u64, src: u16, seq: u64) -> Item {
        Item(EventKey {
            time,
            tie,
            src,
            seq,
        })
    }

    #[test]
    fn pops_in_key_order() {
        let mut w: TimingWheel<Item> = TimingWheel::new();
        // Same bucket, distinct keys, inserted out of order.
        w.push(k(500, 1, 0, 0));
        w.push(k(500, 0, 1, 0));
        w.push(k(200, 0, 0, 1));
        w.push(k(500, 0, 0, 2));
        assert_eq!(w.len(), 4);
        let order: Vec<EventKey> = std::iter::from_fn(|| w.pop()).map(|i| i.0).collect();
        let times: Vec<(u64, u64, u16, u64)> =
            order.iter().map(|e| (e.time, e.tie, e.src, e.seq)).collect();
        assert_eq!(
            times,
            vec![(200, 0, 0, 1), (500, 0, 0, 2), (500, 0, 1, 0), (500, 1, 0, 0)]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn straggler_in_cursor_bucket_still_sorts_first() {
        let mut w: TimingWheel<Item> = TimingWheel::new();
        w.push(k(5_000, 0, 0, 0));
        assert_eq!(w.pop().unwrap().0.time, 5_000);
        // Cursor is now in bucket 4; a push into an earlier (drained)
        // bucket is clamped but must still pop before later times.
        w.push(k(9_000, 0, 0, 1));
        w.push(k(3_000, 0, 0, 2));
        assert_eq!(w.pop().unwrap().0.time, 3_000);
        assert_eq!(w.pop().unwrap().0.time, 9_000);
    }

    #[test]
    fn far_future_overflow_round_trips() {
        let mut w: TimingWheel<Item> = TimingWheel::new();
        let horizon = (WHEEL_SLOTS as u64) << WHEEL_SHIFT;
        w.push(k(10 * horizon, 0, 0, 0)); // far future: overflow
        w.push(k(100, 0, 0, 1));
        w.push(k(3 * horizon, 0, 0, 2)); // also overflow
        assert_eq!(w.len(), 3);
        assert_eq!(w.pop().unwrap().0.time, 100);
        assert_eq!(w.pop().unwrap().0.time, 3 * horizon);
        assert_eq!(w.pop().unwrap().0.time, 10 * horizon);
        assert!(w.pop().is_none());
    }

    #[test]
    fn peek_matches_pop_and_is_stable() {
        let mut w: TimingWheel<Item> = TimingWheel::new();
        w.push(k(800, 0, 2, 0));
        w.push(k(800, 0, 1, 0));
        let peeked = w.peek_key().unwrap();
        assert_eq!(peeked, w.peek_key().unwrap());
        assert_eq!(peeked, w.pop().unwrap().0);
        assert_eq!(peeked.src, 1);
    }

    #[test]
    fn for_each_visits_ring_and_overflow() {
        let mut w: TimingWheel<Item> = TimingWheel::new();
        let horizon = (WHEEL_SLOTS as u64) << WHEEL_SHIFT;
        w.push(k(1, 0, 0, 0));
        w.push(k(2 * horizon, 0, 0, 1));
        let mut seen = Vec::new();
        w.for_each(|i| seen.push(i.0.seq));
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn reset_behaves_like_fresh() {
        let horizon = (WHEEL_SLOTS as u64) << WHEEL_SHIFT;
        let mut w: TimingWheel<Item> = TimingWheel::new();
        // Advance the cursor deep into the ring, leave items in both the
        // ring and the overflow, then reset: the wheel must accept and
        // order a from-zero stream exactly like a fresh wheel.
        w.push(k(5 * horizon / 2, 0, 0, 0));
        assert_eq!(w.pop().unwrap().0.seq, 0);
        w.push(k(3 * horizon, 0, 0, 1)); // lands in ring ahead of cursor
        w.push(k(30 * horizon, 0, 0, 2)); // overflow
        assert_eq!(w.len(), 2);
        w.reset();
        assert!(w.is_empty());
        let mut fresh: TimingWheel<Item> = TimingWheel::new();
        for item in [k(700, 1, 0, 3), k(700, 0, 1, 4), k(10, 0, 0, 5), k(40 * horizon, 0, 0, 6)] {
            w.push(item);
            fresh.push(item);
        }
        loop {
            let (a, b) = (w.pop(), fresh.pop());
            assert_eq!(a.map(|i| i.0), b.map(|i| i.0), "reset wheel diverged from fresh");
            if b.is_none() {
                break;
            }
        }
    }

    #[test]
    fn matches_heap_on_near_monotone_stream() {
        // A deterministic pseudo-random near-monotone workload: pushes at
        // `now + small delta` interleaved with pops, plus occasional
        // far-future spikes — the simulator's actual pattern.
        let mut w: TimingWheel<Item> = TimingWheel::new();
        let mut h: BinaryHeap<Reverse<EventKey>> = BinaryHeap::new();
        let mut x: u64 = 0x1234_5678_9ABC_DEF0;
        let mut next = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        let mut now = 0u64;
        let mut seq = 0u64;
        for _ in 0..5_000 {
            if next(3) == 0 || w.is_empty() {
                let delta = if next(50) == 0 {
                    // Far-future spike (overflow path).
                    (WHEEL_SLOTS as u64) << (WHEEL_SHIFT + 2)
                } else {
                    next(200_000)
                };
                let item = k(now + delta, next(4), next(3) as u16, seq);
                seq += 1;
                w.push(item);
                h.push(Reverse(item.0));
            } else {
                let a = w.pop().map(|i| i.0);
                let b = h.pop().map(|Reverse(e)| e);
                assert_eq!(a, b, "wheel diverged from heap");
                if let Some(e) = a {
                    now = now.max(e.time);
                }
            }
        }
        while let Some(Reverse(e)) = h.pop() {
            assert_eq!(w.pop().map(|i| i.0), Some(e));
        }
        assert!(w.is_empty());
    }
}
