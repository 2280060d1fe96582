//! Fault plans: reproducible message-level fault injection.
//!
//! A [`FaultPlan`] combines probabilistic drop / duplicate / delay faults
//! with a deterministic "drop exactly the n-th packet" and node-pause
//! windows. Decisions are
//! drawn from *per-channel* RNG streams — one stream per (src, dst) pair,
//! seeded purely from the plan seed and the channel — with a fixed number
//! of draws per message. The fate of "the k-th message from node s to
//! node d" is therefore a pure function of `(plan seed, s, d, k)`,
//! independent of how the global event schedule interleaves channels, so
//! fault scenarios replay exactly even while the schedule is being
//! perturbed (see `Machine::perturb_schedule`).

use crate::rng::Rng;
use std::collections::BTreeMap;

/// A window during which one node stops taking deliveries; messages
/// arriving inside the window are deferred to its end (the node "freezes"
/// rather than losing traffic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodePause {
    /// The paused node.
    pub node: u16,
    /// Window start (inclusive), ns of simulated time.
    pub from_ns: u64,
    /// Window end (exclusive), ns; deliveries inside land here.
    pub until_ns: u64,
}

/// A reproducible fault-injection scenario for one run.
///
/// All probabilities are per network message. Overlapping [`NodePause`]
/// windows for the same node should be merged by the caller.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for the per-channel decision streams.
    pub seed: u64,
    /// Probability a message is silently dropped.
    pub drop_p: f64,
    /// Probability a message is delivered twice (at-least-once delivery).
    pub dup_p: f64,
    /// Probability a message is delayed by an extra uniform amount.
    pub delay_p: f64,
    /// Maximum extra delay, ns (uniform in `[0, delay_max_ns]`).
    pub delay_max_ns: u64,
    /// Drop exactly the n-th network message of the run (1-based, counted
    /// in send order). Deterministic: the targeted loss for deadlock demos.
    pub drop_nth: Option<u64>,
    /// Node freeze windows.
    pub pauses: Vec<NodePause>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.0,
            delay_max_ns: 0,
            drop_nth: None,
            pauses: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// The no-fault plan.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Drop each message independently with probability `p`.
    pub fn drop(seed: u64, p: f64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_p: p,
            ..FaultPlan::default()
        }
    }

    /// Duplicate each message independently with probability `p`.
    pub fn duplicate(seed: u64, p: f64) -> FaultPlan {
        FaultPlan {
            seed,
            dup_p: p,
            ..FaultPlan::default()
        }
    }

    /// Delay each message with probability `p` by up to `max_ns` extra.
    pub fn delay(seed: u64, p: f64, max_ns: u64) -> FaultPlan {
        FaultPlan {
            seed,
            delay_p: p,
            delay_max_ns: max_ns,
            ..FaultPlan::default()
        }
    }

    /// Drop exactly the `n`-th network message (1-based).
    pub fn drop_nth(n: u64) -> FaultPlan {
        FaultPlan {
            drop_nth: Some(n),
            ..FaultPlan::default()
        }
    }

    /// `true` when this plan never perturbs anything.
    pub fn is_none(&self) -> bool {
        self.drop_p == 0.0
            && self.dup_p == 0.0
            && self.delay_p == 0.0
            && self.drop_nth.is_none()
            && self.pauses.is_empty()
    }

    /// Short human-readable label (used in DST reports).
    pub fn describe(&self) -> String {
        if self.is_none() {
            return "none".to_string();
        }
        let mut parts = Vec::new();
        if self.drop_p > 0.0 {
            parts.push(format!("drop(p={})", self.drop_p));
        }
        if self.dup_p > 0.0 {
            parts.push(format!("dup(p={})", self.dup_p));
        }
        if self.delay_p > 0.0 {
            parts.push(format!(
                "delay(p={},max={}ns)",
                self.delay_p, self.delay_max_ns
            ));
        }
        if let Some(n) = self.drop_nth {
            parts.push(format!("drop_nth({n})"));
        }
        if !self.pauses.is_empty() {
            parts.push(format!("pauses({})", self.pauses.len()));
        }
        parts.join("+")
    }
}

/// What the injector decided for one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver, with an extra delay and possibly a second copy.
    Deliver {
        /// Extra wire delay beyond the cost model, ns.
        extra_delay_ns: u64,
        /// Deliver a second identical copy (same arrival time, later
        /// queue sequence).
        duplicate: bool,
    },
    /// Silently drop the message.
    Drop,
}

/// Stateful executor of a [`FaultPlan`]: owns the per-channel decision
/// streams and the global message counter.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    chans: BTreeMap<(u16, u16), Rng>,
    sent: u64,
    /// Cached at construction: the plan has no probabilistic faults, so
    /// [`FaultInjector::decide`] never needs a per-channel RNG stream.
    no_prob: bool,
    /// Cached at construction: `no_prob` *and* no `drop_nth` either —
    /// every message delivers untouched. This is the hot path of every
    /// fault-free benchmark run, reduced to one branch and a counter bump.
    fast_deliver: bool,
}

fn channel_seed(seed: u64, src: u16, dst: u16) -> u64 {
    // SplitMix-style finalizer over (seed, src, dst).
    let mut z = seed
        ^ (src as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (dst as u64).wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultInjector {
    /// Build an injector for `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        let no_prob = plan.drop_p == 0.0 && plan.dup_p == 0.0 && plan.delay_p == 0.0;
        let fast_deliver = no_prob && plan.drop_nth.is_none();
        FaultInjector {
            plan,
            chans: BTreeMap::new(),
            sent: 0,
            no_prob,
            fast_deliver,
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decide the fate of the next message on channel `src → dst`.
    ///
    /// Always consumes the same number of channel-RNG draws per message,
    /// so decision k on a channel is schedule-independent.
    pub fn decide(&mut self, src: u16, dst: u16) -> FaultAction {
        self.sent += 1;
        if self.fast_deliver {
            return FaultAction::Deliver {
                extra_delay_ns: 0,
                duplicate: false,
            };
        }
        if self.plan.drop_nth == Some(self.sent) {
            return FaultAction::Drop;
        }
        if self.no_prob {
            return FaultAction::Deliver {
                extra_delay_ns: 0,
                duplicate: false,
            };
        }
        let seed = self.plan.seed;
        let rng = self
            .chans
            .entry((src, dst))
            .or_insert_with(|| Rng::new(channel_seed(seed, src, dst)));
        // Fixed draw count per message: drop, dup, delay-gate, delay-amount.
        let d_drop = rng.unit_f64();
        let d_dup = rng.unit_f64();
        let d_gate = rng.unit_f64();
        let d_amt = rng.next_u64();
        if d_drop < self.plan.drop_p {
            return FaultAction::Drop;
        }
        let duplicate = d_dup < self.plan.dup_p;
        let extra_delay_ns = if d_gate < self.plan.delay_p && self.plan.delay_max_ns > 0 {
            d_amt % (self.plan.delay_max_ns + 1)
        } else {
            0
        };
        FaultAction::Deliver {
            extra_delay_ns,
            duplicate,
        }
    }

    /// Defer an arrival time out of any pause window covering `dst`.
    pub fn pause_adjust(&self, dst: u16, at_ns: u64) -> u64 {
        let mut at = at_ns;
        for p in &self.plan.pauses {
            if p.node == dst && at >= p.from_ns && at < p.until_ns {
                at = p.until_ns;
            }
        }
        at
    }

    /// Network messages seen so far.
    pub fn messages_seen(&self) -> u64 {
        self.sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_transparent() {
        let mut f = FaultInjector::new(FaultPlan::none());
        for _ in 0..100 {
            assert_eq!(
                f.decide(0, 1),
                FaultAction::Deliver {
                    extra_delay_ns: 0,
                    duplicate: false
                }
            );
        }
        assert!(FaultPlan::none().is_none());
        assert_eq!(FaultPlan::none().describe(), "none");
    }

    #[test]
    fn fault_free_fast_path_allocates_no_channel_streams() {
        let mut f = FaultInjector::new(FaultPlan::none());
        for k in 0..1000u16 {
            assert_eq!(
                f.decide(k % 4, (k + 1) % 4),
                FaultAction::Deliver {
                    extra_delay_ns: 0,
                    duplicate: false
                }
            );
        }
        assert!(f.chans.is_empty(), "no RNG streams on the fast path");
        assert_eq!(f.messages_seen(), 1000);
        // Counter-only plans skip RNG setup too but still drop on count.
        let mut g = FaultInjector::new(FaultPlan::drop_nth(3));
        let fates: Vec<_> = (0..4).map(|_| g.decide(0, 1)).collect();
        assert_eq!(fates[2], FaultAction::Drop);
        assert!(g.chans.is_empty());
    }

    #[test]
    fn decisions_are_per_channel_and_schedule_independent() {
        let plan = FaultPlan {
            drop_p: 0.3,
            dup_p: 0.2,
            delay_p: 0.5,
            delay_max_ns: 10_000,
            seed: 42,
            ..FaultPlan::default()
        };
        // Interleaving A: channel (0,1) then (2,3), alternating.
        let mut a = FaultInjector::new(plan.clone());
        let mut a01 = Vec::new();
        for _ in 0..50 {
            a01.push(a.decide(0, 1));
            a.decide(2, 3);
        }
        // Interleaving B: all (2,3) first, then all (0,1).
        let mut b = FaultInjector::new(plan);
        for _ in 0..50 {
            b.decide(2, 3);
        }
        let b01: Vec<_> = (0..50).map(|_| b.decide(0, 1)).collect();
        assert_eq!(
            a01, b01,
            "channel decisions must not depend on interleaving"
        );
    }

    #[test]
    fn drop_nth_hits_exactly_one() {
        let mut f = FaultInjector::new(FaultPlan::drop_nth(3));
        let fates: Vec<_> = (0..6).map(|_| f.decide(0, 1)).collect();
        let drops = fates.iter().filter(|a| **a == FaultAction::Drop).count();
        assert_eq!(drops, 1);
        assert_eq!(fates[2], FaultAction::Drop);
    }

    #[test]
    fn delay_bounded() {
        let mut f = FaultInjector::new(FaultPlan::delay(7, 1.0, 500));
        for _ in 0..200 {
            match f.decide(1, 0) {
                FaultAction::Deliver { extra_delay_ns, .. } => {
                    assert!(extra_delay_ns <= 500)
                }
                FaultAction::Drop => panic!("delay plan must not drop"),
            }
        }
    }

    #[test]
    fn pause_defers_into_window_end() {
        let f = FaultInjector::new(FaultPlan {
            pauses: vec![NodePause {
                node: 2,
                from_ns: 100,
                until_ns: 900,
            }],
            ..FaultPlan::default()
        });
        assert_eq!(f.pause_adjust(2, 50), 50);
        assert_eq!(f.pause_adjust(2, 100), 900);
        assert_eq!(f.pause_adjust(2, 899), 900);
        assert_eq!(f.pause_adjust(2, 900), 900);
        assert_eq!(f.pause_adjust(1, 500), 500, "other nodes unaffected");
    }

    #[test]
    fn describe_lists_active_faults() {
        let d = FaultPlan {
            drop_p: 0.1,
            dup_p: 0.2,
            drop_nth: Some(9),
            ..FaultPlan::default()
        }
        .describe();
        assert!(d.contains("drop(p=0.1)") && d.contains("dup(p=0.2)") && d.contains("drop_nth(9)"));
    }
}
