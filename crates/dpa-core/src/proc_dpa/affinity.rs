//! The affinity signal behind replication's promotion policy, on under
//! `Policy::Replicate`.
//!
//! Requesters sample per-pointer remote dereference counts from their M
//! mapping at align time and report them to each object's home once, when
//! their iterations are done (`Affinity`); owners accumulate the counts
//! for the boundary pass ([`crate::boundary`]) to read. Every fan-out goes
//! out in sorted order, so replays stay bit-identical.

use super::{fan_out, DpaProc};
use crate::boundary::AFFINITY_REPORT_FLOOR;
use crate::invariant::NodeSnapshot;
use crate::msg::{DpaMsg, SeqChannel};
use crate::work::PtrApp;
use global_heap::{AffinityTable, FxHashMap, GPtr};
use sim_net::{Ctx, NodeId, NodeStats};

/// What a node keeps for the affinity signal, both as consumer and as
/// owner.
pub(super) struct AffinityState {
    /// Owner side: the counts reported for this node's objects, carried
    /// across phases for the boundary to read.
    pub(super) table: AffinityTable,
    /// Requester-side affinity sampled at align time, awaiting the
    /// phase-end report (one count per aligned thread).
    pending: FxHashMap<GPtr, u32>,
    /// The `Affinity` channel (duplicates must not inflate counts; entries
    /// count as received whether or not the table keeps them).
    channel: SeqChannel,
}

impl AffinityState {
    pub(super) fn new(nodes: usize) -> AffinityState {
        AffinityState {
            table: AffinityTable::default(),
            pending: FxHashMap::default(),
            channel: SeqChannel::new(nodes),
        }
    }

    pub(super) fn snapshot(&self, snap: &mut NodeSnapshot) {
        snap.aff_sent = self.channel.entries_sent;
        snap.aff_recv = self.channel.entries_recv();
        snap.misrouted_requests += self.channel.refused();
    }

    pub(super) fn on_finish(&self, stats: &mut NodeStats) {
        stats.bump("affinity_msgs", self.channel.msgs_sent);
        stats.bump("affinity_entries", self.channel.entries_sent);
    }
}

impl<A: PtrApp> DpaProc<A> {
    /// Align-time affinity signal: one count per aligned thread (the
    /// M-mapping population, not messages). No-op when the signal is off.
    pub(super) fn sample_affinity(&mut self, ptr: GPtr) {
        if let Some(a) = self.aff.as_mut() {
            *a.pending.entry(ptr).or_insert(0) += 1;
        }
    }

    /// The node finished its iterations: report the affinity sampled this
    /// phase to each object's home, one message per home, for the next
    /// boundary to act on. Entries below [`AFFINITY_REPORT_FLOOR`] are
    /// dropped: a few touches in a phase is background noise the owner
    /// cannot act on, and not shipping it keeps the report proportional to
    /// the *hot* working set instead of the whole one.
    pub(super) fn report_affinity(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        let Some(a) = self.aff.as_mut() else { return };
        let hot = a
            .pending
            .drain()
            .filter(|&(_, n)| n >= AFFINITY_REPORT_FLOOR);
        let reports = fan_out(hot.map(|(ptr, n)| (ptr.node(), (ptr, n))));
        for (home, mut entries) in reports {
            entries.sort_unstable_by_key(|&(p, _)| p.bits());
            ctx.charge_overhead(self.cfg.cost.request_entry_ns * entries.len() as u64);
            let seq = a.channel.stamp(home, entries.len());
            ctx.send(NodeId(home), DpaMsg::Affinity { seq, entries });
        }
    }

    pub(super) fn on_affinity(
        &mut self,
        ctx: &mut Ctx<'_, DpaMsg>,
        src: NodeId,
        seq: u64,
        entries: Vec<(GPtr, u32)>,
    ) {
        let Some(a) = self.aff.as_mut() else {
            self.misrouted += entries.len() as u64;
            return;
        };
        if !a.channel.accept(src.0, seq, entries.len()) {
            return;
        }
        let me = ctx.me().0;
        for (ptr, n) in entries {
            ctx.charge_overhead(self.cfg.cost.map_update_ns);
            a.table.record(ptr, src.0, n as u64, me);
        }
    }
}
