//! Per-destination coalescing buffers — the mechanism behind DPA's message
//! aggregation.
//!
//! Every remote request DPA wants to issue is first appended to the buffer
//! for its destination node. A buffer is handed back to the caller (to be
//! sent as a single packet) either when it reaches its capacity or when the
//! runtime decides no more local work is available and drains everything.
//! The runtime never lets requests sit while the node idles — that would
//! trade overhead for latency — so a drain happens at every scheduling
//! quiescence point. The byte-budgeted coalescer counts its batches by
//! which of its four rules emitted them ([`FlushReason`]).
//!
//! A destination's buffer *is* the batch: a flush hands it out whole, so
//! an entry is written once, where it is pushed, and never copied again on
//! this node. The destination takes a fresh buffer only when it next has
//! something to send, sized like the batch it sent last. It takes it from
//! a recycling pool: the coalescer's own ([`Coalescer::push`], fed by
//! [`Coalescer::recycle`]), or one the caller shares between many
//! coalescers ([`Coalescer::push_with`]) — the runtime keeps one per
//! machine, which every node's coalescers take from and every receiver
//! returns to, so a node that only receives feeds the nodes that only
//! send.
//!
//! ## Flush ordering
//!
//! Both flush paths emit batches in ascending destination order (the
//! nonempty destinations are a bitset walked lowest-first), and a flush
//! happens *inside* the event handler that triggered it — the resulting
//! packets are stamped and sequenced at that event's timestamp before the
//! handler returns. The batches of one drain therefore leave in one fixed
//! order, set by `sim_net`'s per-source sequence counter at emission time,
//! which is part of what makes every run replay bit for bit.

use crate::arena::VecPool;

/// A set of destinations as a bitset: membership is one bit test, and the
/// members come back in ascending order, which is the order every drain
/// sends in.
#[derive(Clone, Debug)]
struct DestSet {
    words: Vec<u64>,
}

impl DestSet {
    fn new(nodes: usize) -> DestSet {
        DestSet {
            words: vec![0; nodes.div_ceil(64)],
        }
    }

    #[inline]
    fn insert(&mut self, dst: u16) {
        self.words[dst as usize / 64] |= 1 << (dst % 64);
    }

    #[inline]
    fn remove(&mut self, dst: u16) {
        self.words[dst as usize / 64] &= !(1 << (dst % 64));
    }

    /// The members, lowest first.
    fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let dst = (64 * w) as u16 + bits.trailing_zeros() as u16;
                    bits &= bits - 1;
                    dst
                })
            })
        })
    }
}

/// The rule that emitted a [`ByteCoalescer`] batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushReason {
    /// The per-destination buffer reached `max_entries`.
    Window,
    /// The buffer reached the byte budget, or the next item would have
    /// taken it past (MTU occupancy).
    Budget,
    /// The buffer's oldest entry aged past the caller's deadline
    /// ([`ByteCoalescer::pop_due`]).
    Deadline,
    /// The caller drained what was pending ([`ByteCoalescer::pop_first`]):
    /// the runtime's quiescence points.
    Drain,
}

/// Per-destination batching of homogeneous items (e.g. object requests).
///
/// `T` is the per-request record (for DPA: a global pointer). The coalescer
/// tracks aggregate statistics so experiments can report achieved
/// aggregation factors.
#[derive(Clone, Debug)]
pub struct Coalescer<T> {
    /// Per destination: the buffer, and the length of the last batch
    /// emitted from it (what a fresh buffer is sized for).
    buffers: Vec<(Vec<T>, usize)>,
    max_entries: usize,
    /// Total items ever pushed.
    pushed: u64,
    /// Total batches ever emitted.
    batches: u64,
    /// Items currently buffered.
    buffered: usize,
    /// Destinations with nonempty buffers.
    nonempty: DestSet,
    /// Recycled batch buffers for [`Coalescer::push`]: every emitted batch
    /// is a `Vec` that the receiver can hand back via
    /// [`Coalescer::recycle`], so steady-state flushes never touch the
    /// global allocator.
    pool: VecPool<T>,
}

/// Give an empty destination buffer the capacity for `expect` items from
/// `fresh`, if it has none (it was emitted whole, or never used).
#[inline]
fn refill<T>(buf: &mut Vec<T>, expect: usize, fresh: impl FnOnce(usize) -> Vec<T>) {
    if buf.capacity() == 0 {
        *buf = fresh(expect);
    }
}

impl<T> Coalescer<T> {
    /// A coalescer for `nodes` destinations, flushing a destination once it
    /// holds `max_entries` items. `max_entries == 1` disables aggregation
    /// (every push emits immediately), which is how the `+Pipeline`-only
    /// DPA configuration is expressed.
    pub fn new(nodes: usize, max_entries: usize) -> Coalescer<T> {
        assert!(max_entries >= 1, "aggregation window must be >= 1");
        Coalescer {
            buffers: (0..nodes).map(|_| (Vec::new(), 0)).collect(),
            max_entries,
            pushed: 0,
            batches: 0,
            buffered: 0,
            nonempty: DestSet::new(nodes),
            pool: VecPool::new(),
        }
    }

    /// Number of destinations.
    pub fn num_nodes(&self) -> usize {
        self.buffers.len()
    }

    /// The configured aggregation window.
    pub fn window(&self) -> usize {
        self.max_entries
    }

    /// Append `item` for `dst`. Returns a full batch if the buffer reached
    /// capacity, which the caller must transmit immediately.
    pub fn push(&mut self, dst: u16, item: T) -> Option<Vec<T>> {
        let (buf, last_len) = &mut self.buffers[dst as usize];
        refill(buf, *last_len, |n| self.pool.take_for(n));
        self.append(dst, item)
    }

    /// [`push`](Coalescer::push) for a coalescer that shares its buffers:
    /// when `dst` needs a fresh one, `fresh(n)` supplies it, empty and
    /// sized for about `n` items (typically `pool.take_for(n)` on a pool
    /// that the receivers of its batches return them to). `fresh` is not
    /// called otherwise.
    pub fn push_with(
        &mut self,
        dst: u16,
        item: T,
        fresh: impl FnOnce(usize) -> Vec<T>,
    ) -> Option<Vec<T>> {
        let (buf, last_len) = &mut self.buffers[dst as usize];
        refill(buf, *last_len, fresh);
        self.append(dst, item)
    }

    #[inline]
    fn append(&mut self, dst: u16, item: T) -> Option<Vec<T>> {
        self.pushed += 1;
        self.buffered += 1;
        let buf = &mut self.buffers[dst as usize].0;
        buf.push(item);
        if buf.len() >= self.max_entries {
            self.take(dst)
        } else {
            self.nonempty.insert(dst);
            None
        }
    }

    /// Remove and return the pending batch for `dst`, if any.
    pub fn take(&mut self, dst: u16) -> Option<Vec<T>> {
        let (buf, last_len) = &mut self.buffers[dst as usize];
        if buf.is_empty() {
            return None;
        }
        self.batches += 1;
        self.nonempty.remove(dst);
        let batch = std::mem::take(buf);
        *last_len = batch.len();
        self.buffered -= batch.len();
        Some(batch)
    }

    /// The lowest-numbered destination with buffered items, if any.
    pub fn first_nonempty(&self) -> Option<u16> {
        self.nonempty.iter().next()
    }

    /// Return a consumed batch's buffer so its capacity feeds a later
    /// [`push`](Coalescer::push). Callers that receive a payload `Vec` (or
    /// got one back from [`Coalescer::push`]) hand it here once drained; in
    /// steady state the emit path then never touches the global allocator.
    #[inline]
    pub fn recycle(&mut self, buf: Vec<T>) {
        self.pool.put(buf);
    }

    /// Batch buffers currently idle in the coalescer's own pool.
    pub fn pooled(&self) -> usize {
        self.pool.idle()
    }

    /// Items currently buffered across all destinations.
    pub fn pending(&self) -> usize {
        self.buffered
    }

    /// `true` when no destination has buffered items.
    pub fn is_empty(&self) -> bool {
        self.buffered == 0
    }

    /// Total items pushed over the coalescer's lifetime.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total batches emitted over the coalescer's lifetime.
    pub fn total_batches(&self) -> u64 {
        self.batches
    }

    /// Mean achieved aggregation factor (items per emitted batch); the
    /// experiments report this per configuration.
    pub fn aggregation_factor(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            (self.pushed - self.pending() as u64) as f64 / self.batches as f64
        }
    }
}

/// The batches one [`ByteCoalescer::push`] forced out, oldest first: none,
/// one or two, held inline (no allocation, no borrow of the coalescer).
#[derive(Debug)]
#[must_use = "the forced-out batches must be sent"]
pub struct Forced<T>(Option<Vec<T>>, Option<Vec<T>>);

impl<T> Iterator for Forced<T> {
    type Item = Vec<T>;

    #[inline]
    fn next(&mut self) -> Option<Vec<T>> {
        self.0.take().or_else(|| self.1.take())
    }
}

/// What a [`ByteCoalescer`] keeps per destination, side by side: a push
/// reads and writes all three.
#[derive(Clone, Debug)]
struct Dest<T> {
    buf: Vec<T>,
    /// Payload bytes buffered.
    bytes: u64,
    /// Enqueue time of the oldest buffered entry.
    first_at: u64,
    /// Length of the last batch emitted (what a fresh buffer is sized
    /// for).
    last_len: usize,
}

/// Per-destination batching with an **adaptive flush policy**: a batch is
/// emitted when its destination buffer reaches `max_entries` items *or*
/// `byte_budget` payload bytes (MTU occupancy), and destinations whose
/// oldest entry has waited past a caller-supplied deadline can be flushed
/// by [`ByteCoalescer::pop_due`]. This drives the owner-side reply
/// scheduler (and the reduction/update path): replies are heavier and more
/// variably sized than 8-byte request pointers, so an entry-count window
/// alone either under-fills or overflows the MTU.
///
/// Time is whatever monotone unit the caller passes to `push`/`pop_due`
/// (the simulator passes simulated ns); the coalescer only compares values.
#[derive(Clone, Debug)]
pub struct ByteCoalescer<T> {
    dests: Vec<Dest<T>>,
    byte_budget: u64,
    max_entries: usize,
    pushed: u64,
    pushed_bytes: u64,
    /// Batches emitted, by [`FlushReason`] (in declaration order).
    flushes: [u64; 4],
    /// Items currently buffered.
    buffered: usize,
    /// Destinations with nonempty buffers.
    nonempty: DestSet,
    /// Recycled batch buffers for [`ByteCoalescer::push`] (see
    /// [`ByteCoalescer::recycle`]).
    pool: VecPool<T>,
}

impl<T> ByteCoalescer<T> {
    /// A coalescer for `nodes` destinations flushing at `byte_budget`
    /// payload bytes or `max_entries` items, whichever fills first.
    /// `max_entries == 1` disables aggregation (every push emits
    /// immediately).
    pub fn new(nodes: usize, byte_budget: u64, max_entries: usize) -> ByteCoalescer<T> {
        assert!(max_entries >= 1, "aggregation window must be >= 1");
        assert!(byte_budget >= 1, "byte budget must be >= 1");
        let idle = || Dest {
            buf: Vec::new(),
            bytes: 0,
            first_at: 0,
            last_len: 0,
        };
        ByteCoalescer {
            dests: (0..nodes).map(|_| idle()).collect(),
            byte_budget,
            max_entries,
            pushed: 0,
            pushed_bytes: 0,
            flushes: [0; 4],
            buffered: 0,
            nonempty: DestSet::new(nodes),
            pool: VecPool::new(),
        }
    }

    /// The configured entry window.
    pub fn window(&self) -> usize {
        self.max_entries
    }

    /// The configured byte budget.
    pub fn byte_budget(&self) -> u64 {
        self.byte_budget
    }

    /// Append an `item_bytes`-byte `item` for `dst` at time `now`. Returns
    /// the batches this push forces out (usually none, at most two): if the
    /// item would overflow a nonempty buffer past the byte budget, that
    /// buffer is flushed first; the buffer is then flushed again if the
    /// item itself fills it (entry window reached, budget reached, or a
    /// single oversized item — which thus always travels alone).
    pub fn push(&mut self, dst: u16, item: T, item_bytes: u64, now: u64) -> Forced<T> {
        let overflowed = self.make_room(dst, item_bytes);
        let d = &mut self.dests[dst as usize];
        refill(&mut d.buf, d.last_len, |n| self.pool.take_for(n));
        Forced(overflowed, self.append(dst, item, item_bytes, now))
    }

    /// [`push`](ByteCoalescer::push) for a coalescer that shares its
    /// buffers: when `dst` needs a fresh one, `fresh(n)` supplies it (see
    /// [`Coalescer::push_with`]).
    pub fn push_with(
        &mut self,
        dst: u16,
        item: T,
        item_bytes: u64,
        now: u64,
        fresh: impl FnOnce(usize) -> Vec<T>,
    ) -> Forced<T> {
        let overflowed = self.make_room(dst, item_bytes);
        let d = &mut self.dests[dst as usize];
        refill(&mut d.buf, d.last_len, fresh);
        Forced(overflowed, self.append(dst, item, item_bytes, now))
    }

    /// Flush `dst` first if `item_bytes` more would take it past the byte
    /// budget.
    #[inline]
    fn make_room(&mut self, dst: u16, item_bytes: u64) -> Option<Vec<T>> {
        if self.dests[dst as usize].bytes + item_bytes > self.byte_budget {
            self.take(dst, FlushReason::Budget)
        } else {
            None
        }
    }

    /// Place `item` in `dst`'s buffer and flush it if that filled it.
    #[inline]
    fn append(&mut self, dst: u16, item: T, item_bytes: u64, now: u64) -> Option<Vec<T>> {
        self.pushed += 1;
        self.pushed_bytes += item_bytes;
        self.buffered += 1;
        let d = &mut self.dests[dst as usize];
        if d.buf.is_empty() {
            d.first_at = now;
        }
        d.buf.push(item);
        d.bytes += item_bytes;
        if d.buf.len() >= self.max_entries {
            self.take(dst, FlushReason::Window)
        } else if d.bytes >= self.byte_budget {
            self.take(dst, FlushReason::Budget)
        } else {
            self.nonempty.insert(dst);
            None
        }
    }

    /// Remove and return the pending batch for `dst`, if any, emitted
    /// because of `why`.
    fn take(&mut self, dst: u16, why: FlushReason) -> Option<Vec<T>> {
        let d = &mut self.dests[dst as usize];
        if d.buf.is_empty() {
            return None;
        }
        self.flushes[why as usize] += 1;
        self.nonempty.remove(dst);
        d.bytes = 0;
        let batch = std::mem::take(&mut d.buf);
        d.last_len = batch.len();
        self.buffered -= batch.len();
        Some(batch)
    }

    /// Remove and return the batch of the lowest-numbered destination whose
    /// oldest entry was enqueued at or before `now - deadline`. Looping
    /// until `None` flushes every due destination in ascending order.
    pub fn pop_due(&mut self, now: u64, deadline: u64) -> Option<(u16, Vec<T>)> {
        let dst = self
            .nonempty
            .iter()
            .find(|&d| self.dests[d as usize].first_at + deadline <= now)?;
        Some((dst, self.take(dst, FlushReason::Deadline)?))
    }

    /// Remove and return the batch of the lowest-numbered destination with
    /// buffered items. Looping until `None` drains the coalescer in
    /// ascending destination order.
    pub fn pop_first(&mut self) -> Option<(u16, Vec<T>)> {
        let dst = self.nonempty.iter().next()?;
        Some((dst, self.take(dst, FlushReason::Drain)?))
    }

    /// Earliest time any currently buffered destination becomes due under
    /// `deadline` (`None` when everything is empty).
    pub fn next_due(&self, deadline: u64) -> Option<u64> {
        self.nonempty
            .iter()
            .map(|d| self.dests[d as usize].first_at + deadline)
            .min()
    }

    /// Return a consumed batch's buffer so its capacity feeds a later
    /// [`push`](ByteCoalescer::push) (see [`Coalescer::recycle`]).
    #[inline]
    pub fn recycle(&mut self, buf: Vec<T>) {
        self.pool.put(buf);
    }

    /// Batch buffers currently idle in the coalescer's own pool.
    pub fn pooled(&self) -> usize {
        self.pool.idle()
    }

    /// Items currently buffered across all destinations.
    pub fn pending(&self) -> usize {
        self.buffered
    }

    /// Payload bytes currently buffered across all destinations.
    pub fn pending_bytes(&self) -> u64 {
        self.nonempty
            .iter()
            .map(|d| self.dests[d as usize].bytes)
            .sum()
    }

    /// `true` when no destination has buffered items.
    pub fn is_empty(&self) -> bool {
        self.buffered == 0
    }

    /// Total items pushed over the coalescer's lifetime.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total payload bytes pushed over the coalescer's lifetime.
    pub fn total_pushed_bytes(&self) -> u64 {
        self.pushed_bytes
    }

    /// Total batches emitted over the coalescer's lifetime.
    pub fn total_batches(&self) -> u64 {
        self.flushes.iter().sum()
    }

    /// Batches emitted because of `why`.
    pub fn flushes(&self, why: FlushReason) -> u64 {
        self.flushes[why as usize]
    }

    /// Mean achieved aggregation factor (items per emitted batch).
    pub fn aggregation_factor(&self) -> f64 {
        match self.total_batches() {
            0 => 0.0,
            batches => (self.pushed - self.pending() as u64) as f64 / batches as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The runtime's quiescence loop: lowest nonempty destination first.
    fn drain<T>(c: &mut Coalescer<T>) -> Vec<(u16, Vec<T>)> {
        std::iter::from_fn(|| {
            let dst = c.first_nonempty()?;
            Some((dst, c.take(dst)?))
        })
        .collect()
    }

    fn pushed<T>(c: &mut ByteCoalescer<T>, dst: u16, item: T, bytes: u64, now: u64) -> Vec<Vec<T>> {
        c.push(dst, item, bytes, now).collect()
    }

    fn due<T>(c: &mut ByteCoalescer<T>, now: u64, deadline: u64) -> Vec<(u16, Vec<T>)> {
        std::iter::from_fn(|| c.pop_due(now, deadline)).collect()
    }

    #[test]
    fn window_one_emits_immediately() {
        let mut c: Coalescer<u32> = Coalescer::new(4, 1);
        assert_eq!(c.push(2, 7), Some(vec![7]));
        assert!(c.is_empty());
        assert_eq!(c.aggregation_factor(), 1.0);
    }

    #[test]
    fn fills_at_capacity() {
        let mut c: Coalescer<u32> = Coalescer::new(2, 3);
        assert_eq!(c.push(1, 10), None);
        assert_eq!(c.push(1, 11), None);
        assert_eq!(c.push(1, 12), Some(vec![10, 11, 12]));
        assert!(c.is_empty());
    }

    #[test]
    fn first_nonempty_take_loop_is_sorted_and_complete() {
        let mut c: Coalescer<u32> = Coalescer::new(5, 100);
        c.push(3, 30);
        c.push(0, 0);
        c.push(3, 31);
        c.push(4, 40);
        assert_eq!(
            drain(&mut c),
            vec![(0, vec![0]), (3, vec![30, 31]), (4, vec![40])]
        );
        assert!(c.is_empty());
        assert_eq!(c.pending(), 0);
        assert_eq!(c.first_nonempty(), None);
    }

    #[test]
    fn drains_ascend_across_bitset_words() {
        // 200 destinations span four words of the nonempty set.
        let mut c: Coalescer<u16> = Coalescer::new(200, 100);
        let mut b: ByteCoalescer<u16> = ByteCoalescer::new(200, 1 << 20, 100);
        for dst in [199, 64, 3, 127, 63, 128, 0] {
            c.push(dst, dst);
            assert!(pushed(&mut b, dst, dst, 8, dst as u64).is_empty());
        }
        let order = [0, 3, 63, 64, 127, 128, 199];
        assert_eq!(c.first_nonempty(), Some(0));
        assert_eq!(
            drain(&mut c).iter().map(|&(d, _)| d).collect::<Vec<_>>(),
            order
        );
        assert_eq!(b.next_due(10), Some(10));
        // Due: enqueued at or before 100.
        assert_eq!(
            due(&mut b, 110, 10)
                .iter()
                .map(|&(d, _)| d)
                .collect::<Vec<_>>(),
            [0, 3, 63, 64]
        );
        assert_eq!(b.pending(), 3);
        assert_eq!(b.pop_first(), Some((127, vec![127])));
    }

    #[test]
    fn take_specific_destination() {
        let mut c: Coalescer<&str> = Coalescer::new(3, 10);
        c.push(1, "a");
        c.push(2, "b");
        assert_eq!(c.take(1), Some(vec!["a"]));
        assert_eq!(c.take(1), None);
        assert_eq!(c.pending(), 1);
    }

    #[test]
    fn aggregation_factor_counts_emitted_only() {
        let mut c: Coalescer<u32> = Coalescer::new(2, 2);
        c.push(0, 1);
        c.push(0, 2); // batch of 2
        c.push(0, 3); // still buffered
        assert_eq!(c.total_batches(), 1);
        assert!((c.aggregation_factor() - 2.0).abs() < 1e-12);
        assert_eq!(c.take(0), Some(vec![3])); // batch of 1
        assert!((c.aggregation_factor() - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "aggregation window")]
    fn zero_window_rejected() {
        let _ = Coalescer::<u32>::new(1, 0);
    }

    #[test]
    fn conservation_under_interleaving() {
        // Items pushed = items emitted + items pending, always.
        let mut c: Coalescer<u64> = Coalescer::new(8, 4);
        let mut emitted = 0usize;
        for i in 0..1000u64 {
            let dst = (i % 7) as u16;
            if let Some(b) = c.push(dst, i) {
                emitted += b.len();
            }
            if i % 97 == 0 {
                emitted += drain(&mut c).iter().map(|(_, b)| b.len()).sum::<usize>();
            }
        }
        assert_eq!(emitted + c.pending(), 1000);
    }

    #[test]
    fn byte_budget_flushes_before_overflow() {
        let mut c: ByteCoalescer<u32> = ByteCoalescer::new(2, 100, 64);
        assert!(pushed(&mut c, 0, 1, 40, 0).is_empty());
        assert!(pushed(&mut c, 0, 2, 40, 1).is_empty());
        // 40 + 40 + 40 would overflow 100: the existing pair goes first.
        assert_eq!(pushed(&mut c, 0, 3, 40, 2), vec![vec![1, 2]]);
        assert_eq!(c.pending(), 1);
        assert_eq!(c.pending_bytes(), 40);
    }

    #[test]
    fn exact_budget_fill_emits() {
        let mut c: ByteCoalescer<u32> = ByteCoalescer::new(1, 80, 64);
        assert!(pushed(&mut c, 0, 1, 40, 0).is_empty());
        assert_eq!(pushed(&mut c, 0, 2, 40, 1), vec![vec![1, 2]]);
        assert!(c.is_empty());
    }

    #[test]
    fn oversized_item_travels_alone() {
        let mut c: ByteCoalescer<u32> = ByteCoalescer::new(2, 100, 64);
        assert!(pushed(&mut c, 1, 7, 30, 0).is_empty());
        // A 500-byte item flushes the 30-byte entry, then itself.
        assert_eq!(pushed(&mut c, 1, 8, 500, 1), vec![vec![7], vec![8]]);
        assert!(c.is_empty());
        // Oversized into an empty buffer: exactly one singleton batch.
        assert_eq!(pushed(&mut c, 0, 9, 500, 2), vec![vec![9]]);
    }

    #[test]
    fn entry_window_still_applies() {
        let mut c: ByteCoalescer<u32> = ByteCoalescer::new(1, u64::MAX, 3);
        assert!(pushed(&mut c, 0, 1, 8, 0).is_empty());
        assert!(pushed(&mut c, 0, 2, 8, 0).is_empty());
        assert_eq!(pushed(&mut c, 0, 3, 8, 0), vec![vec![1, 2, 3]]);
    }

    #[test]
    fn window_one_byte_coalescer_is_immediate() {
        let mut c: ByteCoalescer<u32> = ByteCoalescer::new(4, u64::MAX, 1);
        assert_eq!(pushed(&mut c, 2, 7, 64, 5), vec![vec![7]]);
        assert!(c.is_empty());
        assert_eq!(c.aggregation_factor(), 1.0);
    }

    #[test]
    fn deadline_takes_only_due_destinations() {
        let mut c: ByteCoalescer<u32> = ByteCoalescer::new(4, 1000, 64);
        assert!(pushed(&mut c, 0, 1, 10, 100).is_empty());
        assert!(pushed(&mut c, 3, 2, 10, 400).is_empty());
        assert_eq!(c.next_due(50), Some(150));
        // At t=200 with a 50-tick deadline only dst 0 (enqueued at 100)
        // is due.
        assert_eq!(c.pop_due(200, 50), Some((0, vec![1])));
        assert_eq!(c.next_due(50), Some(450));
        assert_eq!(c.pop_due(200, 50), None);
        assert_eq!(due(&mut c, 450, 50), vec![(3, vec![2])]);
        assert_eq!(c.next_due(50), None);
    }

    #[test]
    fn pops_ascend_and_skip_what_is_not_due() {
        let mut c: ByteCoalescer<u32> = ByteCoalescer::new(6, 1000, 64);
        for (dst, at) in [(4, 10), (1, 300), (5, 20), (2, 30), (0, 400)] {
            assert!(pushed(&mut c, dst, dst as u32, 10, at).is_empty());
        }
        // Due at t=130 under a 100-tick deadline: enqueued at or before 30.
        assert_eq!(
            due(&mut c, 130, 100),
            vec![(2, vec![2]), (4, vec![4]), (5, vec![5])]
        );
        assert_eq!(c.pop_first(), Some((0, vec![0])));
        assert_eq!(c.pop_first(), Some((1, vec![1])));
        assert_eq!(c.pop_first(), None);
        assert_eq!(c.total_batches(), 5);
    }

    #[test]
    fn every_batch_is_counted_under_the_rule_that_emitted_it() {
        use FlushReason::*;
        let mut c: ByteCoalescer<u32> = ByteCoalescer::new(3, 100, 3);
        let count = |c: &ByteCoalescer<u32>| [Window, Budget, Deadline, Drain].map(|why| c.flushes(why));
        // Third entry: the window. 60 + 60 bytes: the budget, before the
        // second is placed. 100 bytes at once: the budget, after.
        for i in 0..3 {
            let _ = c.push(0, i, 10, 0);
        }
        assert_eq!(count(&c), [1, 0, 0, 0]);
        assert!(pushed(&mut c, 1, 7, 60, 5).is_empty());
        assert_eq!(pushed(&mut c, 1, 8, 60, 6), vec![vec![7]]);
        assert_eq!(pushed(&mut c, 2, 9, 100, 7), vec![vec![9]]);
        assert_eq!(count(&c), [1, 2, 0, 0]);
        // dst 1 still holds the 60-byte entry pushed at 6; dst 0 gets one.
        assert!(pushed(&mut c, 0, 3, 10, 50).is_empty());
        assert_eq!(due(&mut c, 30, 20), vec![(1, vec![8])]);
        assert_eq!(c.pop_first(), Some((0, vec![3])));
        assert_eq!(count(&c), [1, 2, 1, 1]);
        assert_eq!(c.total_batches(), 5);
    }

    #[test]
    fn deadline_tracks_oldest_entry() {
        let mut c: ByteCoalescer<u32> = ByteCoalescer::new(1, 1000, 64);
        assert!(pushed(&mut c, 0, 1, 10, 100).is_empty());
        assert!(pushed(&mut c, 0, 2, 10, 900).is_empty()); // later entry must not reset the clock
        assert_eq!(c.next_due(50), Some(150));
        assert_eq!(due(&mut c, 150, 50), vec![(0, vec![1, 2])]);
        // A fresh first entry restarts the clock.
        assert!(pushed(&mut c, 0, 3, 10, 2000).is_empty());
        assert_eq!(c.next_due(50), Some(2050));
    }

    #[test]
    fn byte_conservation_under_interleaving() {
        // Bytes pushed = bytes emitted + bytes pending, always; and no
        // multi-item batch ever exceeds the budget.
        let budget = 128u64;
        let mut c: ByteCoalescer<u64> = ByteCoalescer::new(8, budget, 5);
        let mut emitted_items = 0usize;
        let mut emitted_bytes = 0u64;
        let mut check = |b: &Vec<u64>| {
            let bytes: u64 = b.iter().map(|&i| 8 + (i * 37) % 90).sum();
            assert!(
                b.len() == 1 || bytes <= budget,
                "batch of {bytes}B over budget"
            );
            emitted_items += b.len();
            emitted_bytes += bytes;
        };
        for i in 0..1000u64 {
            let dst = (i % 7) as u16;
            let sz = 8 + (i * 37) % 90;
            for b in c.push(dst, i, sz, i) {
                check(&b);
            }
            if i % 61 == 0 {
                while let Some((_, b)) = c.pop_due(i, 13) {
                    check(&b);
                }
            }
            if i % 157 == 0 {
                while let Some((_, b)) = c.pop_first() {
                    check(&b);
                }
                assert!(c.is_empty());
            }
        }
        assert_eq!(emitted_items + c.pending(), 1000);
        assert_eq!(emitted_bytes + c.pending_bytes(), c.total_pushed_bytes());
        assert_eq!(c.total_pushed(), 1000);
    }

    #[test]
    #[should_panic(expected = "aggregation window")]
    fn byte_coalescer_zero_window_rejected() {
        let _ = ByteCoalescer::<u32>::new(1, 100, 0);
    }

    #[test]
    fn recycled_batch_capacity_is_reused() {
        let mut c: Coalescer<u64> = Coalescer::new(2, 4);
        for i in 0..3u64 {
            assert!(c.push(0, i).is_none());
        }
        let batch = c.push(0, 3).expect("window reached");
        let cap = batch.capacity();
        assert!(cap >= 4);
        c.recycle(batch);
        assert_eq!(c.pooled(), 1);
        for i in 0..3u64 {
            c.push(1, i);
        }
        let next = c.push(1, 3).expect("window reached");
        assert_eq!(next.capacity(), cap, "pooled capacity feeds the next flush");
        assert_eq!(c.pooled(), 0);
        assert_eq!(next, vec![0, 1, 2, 3]);
    }

    #[test]
    fn byte_coalescer_recycles_batches() {
        let mut c: ByteCoalescer<u32> = ByteCoalescer::new(1, u64::MAX, 2);
        assert!(pushed(&mut c, 0, 1, 8, 0).is_empty());
        let batch = c.push(0, 2, 8, 0).next().expect("entry window reached");
        let cap = batch.capacity();
        c.recycle(batch);
        assert_eq!(c.pooled(), 1);
        assert!(pushed(&mut c, 0, 3, 8, 1).is_empty());
        let next = c.push(0, 4, 8, 1).next().expect("entry window reached");
        assert_eq!(next.capacity(), cap);
        assert_eq!(next, vec![3, 4]);
    }

    #[test]
    fn push_with_asks_for_a_buffer_only_when_a_destination_has_none() {
        let mut asked = Vec::new();
        let mut fresh = |n: usize| {
            asked.push(n);
            Vec::with_capacity(n.max(4))
        };
        let mut c: Coalescer<u32> = Coalescer::new(2, 3);
        assert_eq!(c.push_with(0, 1, &mut fresh), None);
        assert_eq!(c.push_with(0, 2, &mut fresh), None);
        assert_eq!(c.push_with(0, 3, &mut fresh), Some(vec![1, 2, 3]));
        // The batch left whole: the next entry asks again, for a batch as
        // long as the last one.
        assert_eq!(c.push_with(0, 4, &mut fresh), None);
        assert_eq!(c.push_with(1, 5, &mut fresh), None);
        let mut b: ByteCoalescer<u32> = ByteCoalescer::new(1, 100, 64);
        assert!(b.push_with(0, 6, 60, 0, &mut fresh).next().is_none());
        // The budget flushes the 60-byte entry first; the new one needs a
        // buffer of its own.
        assert_eq!(
            b.push_with(0, 7, 60, 1, &mut fresh).collect::<Vec<_>>(),
            vec![vec![6]]
        );
        assert_eq!(asked, [0, 3, 0, 0, 1]);
        assert_eq!(
            (c.pooled(), b.pooled()),
            (0, 0),
            "their own pools are untouched"
        );
    }

    #[test]
    fn cloned_coalescer_starts_with_fresh_pool() {
        let mut c: Coalescer<u32> = Coalescer::new(1, 1);
        let b = c.push(0, 1).expect("immediate emit");
        c.recycle(b);
        assert_eq!(c.pooled(), 1);
        let d = c.clone();
        assert_eq!(d.pooled(), 0, "clones warm their own pool");
    }
}
