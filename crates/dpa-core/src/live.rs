//! Live-thread counts of the open top-level iterations, shared by both
//! node drivers.

/// How many threads of each open iteration are still live, one count per
/// open-iteration slot.
///
/// Admitting an iteration takes a slot ([`open`](Self::open)); its threads
/// carry the slot instead of the iteration number, and the slot is free
/// again once its count returns to 0. A driver admits only while fewer
/// than `strip` iterations are live, so the table never holds more than
/// `strip` slots, however long the loop and in whatever order its
/// iterations complete.
pub(crate) struct LiveIters {
    /// `counts[slot]` = live threads of the iteration holding `slot`; 0 is
    /// a free slot.
    counts: Vec<u32>,
    /// Slots with a nonzero count.
    live: usize,
}

impl LiveIters {
    /// An empty table with room for `slots` open iterations.
    pub(crate) fn new(slots: usize) -> LiveIters {
        LiveIters {
            counts: Vec::with_capacity(slots),
            live: 0,
        }
    }

    /// A slot for the iteration being admitted: the first free one, or a
    /// new one when every slot is live. It stays free (and the next call
    /// returns it again) until threads are added under it.
    pub(crate) fn open(&mut self) -> u32 {
        let slot = match self.counts.iter().position(|&count| count == 0) {
            Some(slot) => slot,
            None => {
                self.counts.push(0);
                self.counts.len() - 1
            }
        };
        slot as u32
    }

    /// One more live thread under `slot`.
    #[inline]
    pub(crate) fn add(&mut self, slot: u32) {
        self.add_n(slot, 1);
    }

    /// `n` more live threads under `slot`: what `n` calls of
    /// [`add`](Self::add) do. Zero threads change nothing — an iteration
    /// that emitted none must not hold its slot.
    #[inline]
    pub(crate) fn add_n(&mut self, slot: u32, n: u32) {
        if n == 0 {
            return;
        }
        let count = &mut self.counts[slot as usize];
        self.live += usize::from(*count == 0);
        *count += n;
    }

    /// One thread under `slot` finished; `true` when it was the last, i.e.
    /// the iteration completed and the slot is free.
    #[inline]
    pub(crate) fn finish(&mut self, slot: u32) -> bool {
        let count = self
            .counts
            .get_mut(slot as usize)
            .filter(|count| **count > 0)
            .expect("finished work on a free slot");
        *count -= 1;
        if *count > 0 {
            return false;
        }
        self.live -= 1;
        true
    }

    /// `true` while `slot` holds live threads.
    #[inline]
    pub(crate) fn is_live(&self, slot: u32) -> bool {
        self.counts
            .get(slot as usize)
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

    /// Slots the table has held: its length, which a driver's strip
    /// bounds.
    pub(crate) fn peak_slots(&self) -> usize {
        self.counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_net::Rng;
    use std::collections::{HashMap, HashSet};

    /// Two tables fed the same history — `batched` one
    /// [`LiveIters::add_n`] per work call, `single` one [`LiveIters::add`]
    /// per thread — and a hash map of per-iteration counts, checked against
    /// each other after every step.
    struct Tables {
        batched: LiveIters,
        single: LiveIters,
        /// Live threads per open iteration.
        model: HashMap<u32, u32>,
        /// The slot each open iteration holds.
        slots: HashMap<u32, u32>,
    }

    impl Tables {
        fn new(strip: usize) -> Tables {
            Tables {
                batched: LiveIters::new(strip),
                single: LiveIters::new(strip),
                model: HashMap::new(),
                slots: HashMap::new(),
            }
        }

        /// Admit `iter`: both tables hand out the same slot, one no live
        /// iteration holds.
        fn open(&mut self, iter: u32) -> u32 {
            let slot = self.batched.open();
            assert_eq!(self.single.open(), slot, "iteration {iter}");
            assert!(
                !self.slots.values().any(|&s| s == slot),
                "slot {slot} handed to {iter} while live"
            );
            slot
        }

        /// One work call of `iter` under `slot` emitting `n` threads, each
        /// recorded in `threads`.
        fn spawn(&mut self, threads: &mut Vec<(u32, u32)>, iter: u32, slot: u32, n: u64) {
            self.batched.add_n(slot, n as u32);
            for _ in 0..n {
                self.single.add(slot);
                *self.model.entry(iter).or_insert(0) += 1;
                self.slots.insert(iter, slot);
                threads.push((iter, slot));
            }
        }

        fn finish(&mut self, iter: u32, slot: u32) {
            let count = self.model.get_mut(&iter).expect("model: unknown iteration");
            *count -= 1;
            let done = *count == 0;
            if done {
                self.model.remove(&iter);
                self.slots.remove(&iter);
            }
            assert_eq!(self.single.finish(slot), done, "iteration {iter}");
            assert_eq!(self.batched.finish(slot), done, "iteration {iter}");
        }

        fn check(&self, strip: usize) {
            let Tables {
                batched,
                single,
                model,
                slots,
            } = self;
            assert_eq!(batched.len(), model.len());
            assert_eq!(single.len(), model.len());
            assert_eq!(batched.is_empty(), model.is_empty());
            assert_eq!(batched.peak_slots(), single.peak_slots());
            assert!(
                batched.peak_slots() <= strip,
                "{} slots",
                batched.peak_slots()
            );
            let held: HashSet<u32> = slots.values().copied().collect();
            assert_eq!(held.len(), model.len(), "two iterations share a slot");
            for slot in 0..=batched.peak_slots() as u32 {
                let live = held.contains(&slot);
                assert_eq!(batched.is_live(slot), live, "slot {slot}");
                assert_eq!(single.is_live(slot), live, "slot {slot}");
            }
        }
    }

    /// Random admissions, thread creations and out-of-order completions
    /// under a strip bound, with iteration `stalled` unable to finish its
    /// last thread until everything else has. Every work call emits zero
    /// to three threads; one that emits none must leave both tables as
    /// they were. Returns the peak slot count and how many iterations were
    /// admitted while `stalled` was live.
    fn drive(seed: u64, strip: usize, iters: u32, mut stalled: Option<u32>) -> (usize, u32) {
        let mut rng = Rng::new(seed);
        let mut t = Tables::new(strip);
        // One entry per live thread: its iteration and slot.
        let mut threads: Vec<(u32, u32)> = Vec::new();
        let mut next = 0u32;
        let mut held = None;
        let mut stalled_slot = None;
        let mut streamed_past = 0;
        loop {
            while t.batched.len() < strip && next < iters {
                // An iteration whose creation code spawns nothing is
                // complete at once and never holds its slot. (The
                // iteration that is to stall needs a thread to stall on.)
                let n = rng.below(4).max(u64::from(Some(next) == stalled));
                let slot = t.open(next);
                t.spawn(&mut threads, next, slot, n);
                t.check(strip);
                if Some(next) == stalled {
                    stalled_slot = Some(slot);
                } else if stalled_slot.is_some_and(|s| t.batched.is_live(s)) {
                    streamed_past += 1;
                }
                next += 1;
            }
            if threads.is_empty() {
                match held.take() {
                    Some(thread) => threads.push(thread),
                    None => break,
                }
            }
            let (iter, slot) = threads.swap_remove(rng.below(threads.len() as u64) as usize);
            if Some(iter) == stalled && !threads.iter().any(|&(i, _)| i == iter) {
                // Its last thread: parked, once, until nothing else can run.
                stalled.take();
                held = Some((iter, slot));
                continue;
            }
            // A running thread spawns children of its own iteration.
            let n = if rng.chance(0.3) { rng.below(4) } else { 0 };
            t.spawn(&mut threads, iter, slot, n);
            t.finish(iter, slot);
            t.check(strip);
        }
        assert!(t.batched.is_empty() && t.single.is_empty());
        (t.batched.peak_slots(), streamed_past)
    }

    #[test]
    fn adding_nothing_changes_nothing() {
        let mut table = LiveIters::new(4);
        let slot = table.open();
        table.add_n(slot, 0);
        assert!(table.is_empty() && !table.is_live(slot));
        assert_eq!(table.open(), slot, "a slot with no threads stays free");
        table.add_n(slot, 2);
        let next = table.open();
        assert_ne!(next, slot);
        table.add_n(next, 0);
        assert_eq!((table.len(), table.is_live(next)), (1, false));
        assert_eq!(table.peak_slots(), 2);
        assert!(!table.finish(slot) && table.finish(slot));
        assert!(table.is_empty());
    }

    #[test]
    fn slots_match_a_hash_map_under_out_of_order_completion() {
        for seed in 0..32 {
            let strip = 1 + (seed as usize % 9);
            let (peak, _) = drive(0x11FE + seed, strip, 400, None);
            assert!(peak <= strip, "seed {seed}: {peak} slots at strip {strip}");
        }
    }

    #[test]
    fn a_stalled_iteration_holds_one_slot_while_others_stream_past() {
        // Iteration 3 holds its last thread to the very end: it keeps one
        // slot, and every later iteration cycles through the other three.
        for seed in 0..8 {
            let (peak, streamed) = drive(0x57A1 + seed, 4, 300, Some(3));
            assert!(peak <= 4, "seed {seed}: {peak} slots");
            assert!(
                streamed >= 290,
                "seed {seed}: only {streamed} iterations ran past the stall"
            );
        }
    }

    #[test]
    fn in_order_completion_fills_exactly_the_strip() {
        let mut table = LiveIters::new(8);
        let mut open = Vec::new();
        for _ in 0..10_000u32 {
            let slot = table.open();
            table.add(slot);
            table.add(slot);
            open.push(slot);
            if open.len() == 8 {
                let oldest = open.remove(0);
                assert!(!table.finish(oldest));
                assert!(table.finish(oldest));
            }
            assert!(table.len() <= 8);
        }
        assert_eq!(table.peak_slots(), 8);
    }

    #[test]
    #[should_panic(expected = "finished work on a free slot")]
    fn finishing_an_iteration_with_no_live_threads_panics() {
        let mut table = LiveIters::new(8);
        let busy = table.open();
        table.add(busy);
        let free = table.open();
        table.finish(free);
    }
}
