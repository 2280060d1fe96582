//! Live-thread counts of the open top-level iterations, shared by both
//! node drivers.

use std::collections::VecDeque;

/// How many threads of each open iteration are still live, as a dense
/// window over `oldest live iteration ..= newest admitted`.
///
/// Both drivers admit iterations in increasing order, and an iteration
/// gains threads only from its own creation code (it is then the newest
/// admitted) or from one of its running threads (it is then live), so a
/// count is only ever raised at or after the oldest live iteration: a
/// deque indexed by `iter - base` replaces a hash map keyed by `iter`.
/// Memory follows the window, not the loop length — a slot is dropped as
/// soon as every iteration up to it has completed.
pub(crate) struct LiveIters {
    /// The iteration `counts[0]` belongs to (stale while `counts` is empty).
    base: u32,
    /// `counts[i]` = live threads of iteration `base + i`. The front slot
    /// is never zero; slots behind it are zero for iterations that
    /// completed ahead of an older one.
    counts: VecDeque<u32>,
    /// Iterations with a nonzero count.
    live: usize,
    peak_slots: usize,
}

/// Slots reserved up front (4 KiB). One stalled iteration holds the window
/// open while a strip's worth of others stream past it, so real windows run
/// to hundreds or a few thousand slots; growing to that from empty would
/// cost more reallocations per node than the hash map this replaces did.
const INITIAL_SLOTS: usize = 1024;

impl LiveIters {
    /// An empty window for a loop of `total_iters` iterations.
    pub(crate) fn new(total_iters: usize) -> LiveIters {
        LiveIters {
            base: 0,
            counts: VecDeque::with_capacity(total_iters.min(INITIAL_SLOTS)),
            live: 0,
            peak_slots: 0,
        }
    }

    /// One more live thread of `iter`.
    #[inline]
    pub(crate) fn add(&mut self, iter: u32) {
        self.add_n(iter, 1);
    }

    /// `n` more live threads of `iter`: what `n` calls of
    /// [`add`](Self::add) do, with one window lookup. Zero threads change
    /// nothing — an iteration that emitted none must not take a slot.
    #[inline]
    pub(crate) fn add_n(&mut self, iter: u32, n: u32) {
        if n == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.base = iter;
        }
        let i = iter
            .checked_sub(self.base)
            .expect("a thread for an iteration older than every live one") as usize;
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
            self.peak_slots = self.peak_slots.max(i + 1);
        }
        let count = &mut self.counts[i];
        self.live += usize::from(*count == 0);
        *count += n;
    }

    /// One thread of `iter` finished; `true` when it was the iteration's
    /// last, i.e. the iteration completed.
    #[inline]
    pub(crate) fn finish(&mut self, iter: u32) -> bool {
        let count = iter
            .checked_sub(self.base)
            .and_then(|i| self.counts.get_mut(i as usize))
            .filter(|count| **count > 0)
            .expect("finished work for unknown iteration");
        *count -= 1;
        if *count > 0 {
            return false;
        }
        self.live -= 1;
        while self.counts.front() == Some(&0) {
            self.counts.pop_front();
            self.base += 1;
        }
        true
    }

    /// `true` while `iter` has live threads.
    #[inline]
    pub(crate) fn is_live(&self, iter: u32) -> bool {
        iter.checked_sub(self.base)
            .and_then(|i| self.counts.get(i as usize))
            .is_some_and(|&count| count > 0)
    }

    /// Iterations with live threads.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// `true` when no iteration has live threads.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The widest the window has been, in slots.
    pub(crate) fn peak_slots(&self) -> usize {
        self.peak_slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_net::Rng;
    use std::collections::HashMap;

    /// The hash map this type replaced: an entry per live iteration.
    #[derive(Default)]
    struct Model(HashMap<u32, u32>);

    impl Model {
        fn add(&mut self, iter: u32) {
            *self.0.entry(iter).or_insert(0) += 1;
        }

        fn finish(&mut self, iter: u32) -> bool {
            let count = self.0.get_mut(&iter).expect("model: unknown iteration");
            *count -= 1;
            if *count == 0 {
                self.0.remove(&iter);
            }
            !self.0.contains_key(&iter)
        }
    }

    /// Two windows fed the same history — `batched` one [`LiveIters::add_n`]
    /// per work call, `single` one [`LiveIters::add`] per thread — and the
    /// hash map, checked against each other after every step.
    struct Windows {
        batched: LiveIters,
        single: LiveIters,
        model: Model,
    }

    impl Windows {
        fn new(iters: u32) -> Windows {
            Windows {
                batched: LiveIters::new(iters as usize),
                single: LiveIters::new(iters as usize),
                model: Model::default(),
            }
        }

        /// One work call of `iter` emitting `n` threads, each recorded in
        /// `threads`.
        fn spawn(&mut self, threads: &mut Vec<u32>, iter: u32, n: u64) {
            self.batched.add_n(iter, n as u32);
            for _ in 0..n {
                self.single.add(iter);
                self.model.add(iter);
                threads.push(iter);
            }
        }

        fn finish(&mut self, iter: u32) {
            let done = self.model.finish(iter);
            assert_eq!(self.single.finish(iter), done, "iteration {iter}");
            assert_eq!(self.batched.finish(iter), done, "iteration {iter}");
        }

        fn check(&self, probes: [u32; 4]) {
            let Windows {
                batched,
                single,
                model,
            } = self;
            assert_eq!(batched.len(), model.0.len());
            assert_eq!(single.len(), model.0.len());
            assert_eq!(batched.is_empty(), model.0.is_empty());
            assert_eq!(batched.peak_slots(), single.peak_slots());
            for probe in probes {
                let live = model.0.contains_key(&probe);
                assert_eq!(batched.is_live(probe), live, "probe {probe}");
                assert_eq!(single.is_live(probe), live, "probe {probe}");
            }
        }
    }

    /// Random admissions, thread creations and out-of-order completions
    /// under a strip bound, with iteration `stalled` unable to finish its
    /// last thread until everything else has. Every work call emits zero
    /// to three threads; one that emits none must leave both windows as
    /// they were.
    fn drive(seed: u64, strip: usize, iters: u32, mut stalled: Option<u32>) -> usize {
        let mut rng = Rng::new(seed);
        let mut w = Windows::new(iters);
        // One entry per live thread: the iteration it belongs to.
        let mut threads: Vec<u32> = Vec::new();
        let mut next = 0u32;
        let mut held = None;
        loop {
            while w.batched.len() < strip && next < iters {
                // An iteration whose creation code spawns nothing is
                // complete at once and never enters the window. (The
                // iteration that is to stall needs a thread to stall on.)
                let n = rng.below(4).max(u64::from(Some(next) == stalled));
                w.spawn(&mut threads, next, n);
                w.check([next, next.saturating_sub(1), next + 1, 0]);
                next += 1;
            }
            if threads.is_empty() {
                match held.take() {
                    Some(iter) => threads.push(iter),
                    None => break,
                }
            }
            let iter = threads.swap_remove(rng.below(threads.len() as u64) as usize);
            if Some(iter) == stalled && !threads.contains(&iter) {
                // Its last thread: parked, once, until nothing else can run.
                held = stalled.take();
                continue;
            }
            // A running thread spawns children of its own iteration.
            let n = if rng.chance(0.3) { rng.below(4) } else { 0 };
            w.spawn(&mut threads, iter, n);
            w.finish(iter);
            w.check([iter, iter.saturating_sub(1), next.saturating_sub(1), next]);
        }
        assert!(w.batched.is_empty() && w.batched.counts.is_empty());
        assert!(w.single.is_empty() && w.single.counts.is_empty());
        w.batched.peak_slots()
    }

    #[test]
    fn adding_nothing_changes_nothing() {
        let mut win = LiveIters::new(16);
        win.add_n(3, 0);
        assert!(win.is_empty() && win.counts.is_empty() && !win.is_live(3));
        assert_eq!(
            win.peak_slots(),
            0,
            "no slot for an iteration with no threads"
        );
        win.add_n(5, 2);
        win.add_n(9, 0);
        assert_eq!((win.len(), win.peak_slots(), win.is_live(9)), (1, 1, false));
        assert!(!win.finish(5) && win.finish(5));
    }

    #[test]
    fn window_matches_a_hash_map_under_out_of_order_completion() {
        for seed in 0..32 {
            let strip = 1 + (seed as usize % 9);
            let peak = drive(0x11FE + seed, strip, 400, None);
            assert!(peak <= 400, "seed {seed}: {peak} slots");
        }
    }

    #[test]
    fn a_stalled_oldest_iteration_widens_the_window_without_losing_counts() {
        // Iteration 3 holds its last thread to the very end: the window
        // must stretch from it to the newest admitted iteration, and
        // collapse once it finally completes.
        for seed in 0..8 {
            let peak = drive(0x57A1 + seed, 4, 300, Some(3));
            assert!(
                peak >= 290,
                "seed {seed}: the window only reached {peak} slots"
            );
        }
    }

    #[test]
    fn an_unstalled_window_stays_near_the_strip() {
        // FIFO completion: the window never outgrows the strip.
        let mut win = LiveIters::new(10_000);
        for iter in 0..10_000u32 {
            win.add(iter);
            win.add(iter);
            if iter >= 7 {
                assert!(!win.finish(iter - 7));
                assert!(win.finish(iter - 7));
            }
            assert!(win.len() <= 8);
        }
        assert_eq!(win.peak_slots(), 8);
    }

    #[test]
    #[should_panic(expected = "finished work for unknown iteration")]
    fn finishing_an_iteration_with_no_live_threads_panics() {
        let mut win = LiveIters::new(8);
        win.add(5);
        win.add(7);
        win.finish(6);
    }
}
