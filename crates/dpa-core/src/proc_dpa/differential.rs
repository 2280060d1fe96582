//! Differential re-alignment: what a node does with the renamed storage it
//! carried across a phase barrier, on when `cfg.differential`.
//!
//! The boundary pass ([`crate::boundary`]) plans, per `(owner, consumer)`
//! pair with carried objects, one `PhaseDelta`: the carried pointers whose
//! generation moved (an empty list is the owner's all-clear). Owners
//! announce theirs first thing in `on_start`; a consumer withholds its
//! first strip until every home it carries entries of has reported, so a
//! stale carried copy is invalidated before any thread can read it. A
//! dropped delta is therefore a diagnosable stall, never a stale read.

use super::DpaProc;
use crate::invariant::NodeSnapshot;
use crate::msg::{DpaMsg, Payloads, SeqChannel};
use crate::work::PtrApp;
use global_heap::{ArrivalSet, FxHashSet, GPtr};
use sim_net::{Ctx, NodeId, NodeStats};

/// What a node keeps for the boundary deltas, both as consumer and as
/// owner.
pub(super) struct DiffState {
    /// The homes this node carried entries of and has not heard from yet.
    /// Admission and driving are withheld while any remain.
    awaiting: FxHashSet<u16>,
    /// Owner-side deltas to announce at `on_start`: per consumer, the
    /// carried objects homed here whose generation moved.
    out: Vec<(u16, Vec<GPtr>)>,
    /// The `PhaseDelta` channel.
    deltas: SeqChannel,
    /// Carried copies invalidated by an incoming delta (refetched on next
    /// use).
    stale_invalidated: u64,
    /// Entries preloaded from the carry (the phase began with this much
    /// renamed storage already warm).
    carried_in: u64,
}

impl DiffState {
    pub(super) fn new(nodes: usize) -> DiffState {
        DiffState {
            awaiting: FxHashSet::default(),
            out: Vec::new(),
            deltas: SeqChannel::new(nodes),
            stale_invalidated: 0,
            carried_in: 0,
        }
    }

    /// Carried copies keep the generation they were fetched at; a stale
    /// one is invalidated by its home's `PhaseDelta` before any thread can
    /// read it, because the first strip is gated on `awaiting`.
    pub(super) fn install_carry(
        &mut self,
        arrivals: Vec<(GPtr, u32, u32)>,
        awaiting: Vec<u16>,
        deltas: Vec<(u16, Vec<GPtr>)>,
        arrived: &mut ArrivalSet,
    ) {
        self.carried_in += arrivals.len() as u64;
        arrived.reserve(arrivals.len());
        for (ptr, size, gen) in arrivals {
            arrived.preload_gen(ptr, size, gen);
        }
        self.awaiting = awaiting.into_iter().collect();
        self.out = deltas;
    }

    pub(super) fn snapshot(&self, snap: &mut NodeSnapshot) {
        snap.delta_entries_sent = self.deltas.entries_sent;
        snap.delta_entries_recv = self.deltas.entries_recv();
        snap.deltas_awaited = self.awaiting.len();
        snap.misrouted_requests += self.deltas.refused();
    }

    pub(super) fn stall_detail(&self, detail: &mut String) {
        if !self.awaiting.is_empty() {
            let mut homes: Vec<u16> = self.awaiting.iter().copied().collect();
            homes.sort_unstable();
            detail.push_str(&format!("; gated awaiting deltas from {homes:?}"));
        }
    }

    pub(super) fn on_finish(&self, stats: &mut NodeStats) {
        stats.bump("delta_msgs", self.deltas.msgs_sent);
        stats.bump("delta_entries", self.deltas.entries_sent);
        stats.bump("carried_entries", self.carried_in);
        stats.bump("stale_invalidated", self.stale_invalidated);
    }
}

impl<A: PtrApp> DpaProc<A> {
    /// `true` while the first strip is withheld for an awaited delta.
    pub(super) fn delta_gated(&self) -> bool {
        self.diff.as_ref().is_some_and(|d| !d.awaiting.is_empty())
    }

    /// Announce the planned deltas, in the boundary's (consumer) order.
    /// The all-clear (empty list) is a header-only packet.
    pub(super) fn send_phase_deltas(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        let Some(d) = self.diff.as_mut() else { return };
        for (dst, entries) in std::mem::take(&mut d.out) {
            debug_assert!(
                dst != ctx.me().0,
                "self-deltas must be pruned by the driver"
            );
            ctx.charge_overhead(self.cfg.cost.request_entry_ns * entries.len() as u64);
            let seq = d.deltas.stamp(dst, entries.len());
            ctx.send(NodeId(dst), DpaMsg::PhaseDelta { seq, entries });
        }
    }

    pub(super) fn on_phase_delta(
        &mut self,
        ctx: &mut Ctx<'_, DpaMsg>,
        src: NodeId,
        seq: u64,
        mut entries: Vec<GPtr>,
    ) {
        let Some(d) = self.diff.as_mut() else {
            self.misrouted += entries.len() as u64;
            return;
        };
        if !d.deltas.accept(src.0, seq, entries.len()) {
            return;
        }
        for ptr in entries.drain(..) {
            ctx.charge_overhead(self.cfg.cost.map_update_ns);
            // A replica broadcast that landed first already superseded this
            // copy with the post-boundary generation: the invalidation is
            // satisfied, not violated.
            let superseded = self.repl.as_ref().is_some_and(|r| r.holds(ptr));
            if !superseded && self.arrived.invalidate(ptr) {
                d.stale_invalidated += 1;
            }
        }
        Payloads::of(ctx).ptrs.put(entries);
        if d.awaiting.remove(&src.0) && d.awaiting.is_empty() {
            self.admit(ctx);
            self.drive(ctx);
        }
    }
}
