//! An allocation-recycling arena for the messaging hot path.
//!
//! The simulator's inner loop used to round-trip through the global
//! allocator on every event: each work item built a fresh emission buffer,
//! each timing-wheel bucket grew its own storage, each drained batch left
//! its capacity behind. On a host where events are processed at ~1 µs each,
//! a malloc/free pair per event is a measurable fraction of the budget.
//!
//! [`VecPool`] fixes that: a free list of `Vec<T>` buffers. Take a cleared
//! buffer, fill it, hand it back; the capacity survives and the allocator
//! is never consulted in steady state. Plain safe Rust — the win is
//! *reuse*, not unsafe tricks.

/// A recycling pool of `Vec<T>` buffers.
///
/// `take` hands out an empty vector (reusing a returned one's capacity when
/// available); `put` returns a buffer to the pool, clearing it. What the
/// pool bounds is the memory it pins, so the limit counts bytes of idle
/// capacity ([`VecPool::MAX_IDLE_BYTES`] unless the owner names its own),
/// not buffers: a message-bound
/// run keeps hundreds of few-entry batch buffers in flight per node (a
/// flush takes one per destination and they come back a round trip later,
/// by which time a 64-*buffer* pool had overflowed and starved in turn),
/// while a few large buffers are all a pathological burst may leave behind.
#[derive(Debug)]
pub struct VecPool<T> {
    free: Vec<Vec<T>>,
    /// Capacity held by `free`, in bytes.
    idle_bytes: usize,
    /// Most capacity `free` may hold, in bytes.
    idle_limit: usize,
}

impl<T> Default for VecPool<T> {
    fn default() -> Self {
        VecPool::new()
    }
}

/// Cloning yields an *empty* pool: the free list is an allocator cache,
/// not data, so a cloned owner simply warms its own. This is what lets
/// pool-holding structures (the coalescers) keep deriving `Clone` without
/// requiring `T: Clone`.
impl<T> Clone for VecPool<T> {
    fn clone(&self) -> Self {
        VecPool::with_idle_limit(self.idle_limit)
    }
}

impl<T> VecPool<T> {
    /// Idle capacity retained, in bytes; a returned buffer that would
    /// exceed it is dropped. Sized on the message-bound benchmark
    /// workload (EXPERIMENTS.md X14): the largest bound before resident
    /// memory steps up by a megabyte.
    pub const MAX_IDLE_BYTES: usize = 24 << 10;

    /// An empty pool retaining up to [`VecPool::MAX_IDLE_BYTES`].
    pub fn new() -> VecPool<T> {
        VecPool::with_idle_limit(Self::MAX_IDLE_BYTES)
    }

    /// An empty pool retaining up to `idle_limit` bytes of idle capacity,
    /// for an owner that knows how many buffers it can have out at once.
    pub fn with_idle_limit(idle_limit: usize) -> VecPool<T> {
        VecPool {
            free: Vec::new(),
            idle_bytes: 0,
            idle_limit,
        }
    }

    fn bytes(buf: &Vec<T>) -> usize {
        buf.capacity() * std::mem::size_of::<T>()
    }

    /// Get an empty buffer, reusing pooled capacity when available.
    #[inline]
    pub fn take(&mut self) -> Vec<T> {
        let buf = self.free.pop().unwrap_or_default();
        self.idle_bytes -= Self::bytes(&buf);
        buf
    }

    /// [`take`](VecPool::take) for a batch expected to reach `expect`
    /// items: a buffer that could not hold them is grown to fit here, in
    /// one step, rather than by doubling under the pushes. Never below
    /// four — `Vec`'s own first step, so a smaller buffer would be regrown
    /// by the second push.
    #[inline]
    pub fn take_for(&mut self, expect: usize) -> Vec<T> {
        let mut buf = self.take();
        let want = expect.max(4);
        if buf.capacity() < want {
            buf.reserve_exact(want);
        }
        buf
    }

    /// Return a buffer to the pool. It is cleared here; its capacity is
    /// kept for the next [`take`](VecPool::take) unless the pool is full
    /// or there is none to keep.
    #[inline]
    pub fn put(&mut self, mut buf: Vec<T>) {
        let bytes = Self::bytes(&buf);
        if bytes > 0 && self.idle_bytes + bytes <= self.idle_limit {
            buf.clear();
            self.idle_bytes += bytes;
            self.free.push(buf);
        }
    }

    /// Number of buffers currently pooled.
    pub fn idle(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_pool_recycles_capacity() {
        let mut p: VecPool<u64> = VecPool::new();
        let mut v = p.take();
        v.extend(0..100);
        let cap = v.capacity();
        p.put(v);
        assert_eq!(p.idle(), 1);
        let v2 = p.take();
        assert!(v2.is_empty(), "pooled buffers come back cleared");
        assert_eq!(v2.capacity(), cap, "capacity survives the round trip");
        assert_eq!(p.idle(), 0);
    }

    #[test]
    fn vec_pool_drops_empty_and_overflow_buffers() {
        let mut p: VecPool<u8> = VecPool::new();
        p.put(Vec::new()); // zero capacity: not worth pooling
        assert_eq!(p.idle(), 0);
        // The limit is bytes of capacity: 4-byte buffers pool by the
        // thousand, a buffer over the limit on its own is never kept.
        let fit = VecPool::<u8>::MAX_IDLE_BYTES / 4;
        for _ in 0..(fit + 10) {
            p.put(Vec::with_capacity(4));
        }
        assert_eq!(p.idle(), fit);
        // Taking makes room again.
        assert_eq!(p.take().capacity(), 4);
        p.put(Vec::with_capacity(4));
        assert_eq!(p.idle(), fit);
        let mut q: VecPool<u64> = VecPool::new();
        q.put(Vec::with_capacity(VecPool::<u64>::MAX_IDLE_BYTES / 8 + 1));
        assert_eq!(q.idle(), 0);
        q.put(Vec::with_capacity(VecPool::<u64>::MAX_IDLE_BYTES / 8));
        assert_eq!(q.idle(), 1);
        // An owner's own bound, which a clone (an empty pool) keeps.
        let mut r: VecPool<u64> = VecPool::with_idle_limit(64);
        r.put(Vec::with_capacity(4));
        r.put(Vec::with_capacity(4));
        r.put(Vec::with_capacity(4));
        assert_eq!(r.idle(), 2, "64 bytes are two four-word buffers");
        let mut s = r.clone();
        s.put(Vec::with_capacity(9));
        assert_eq!(s.idle(), 0);
    }
}
