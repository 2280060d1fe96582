//! Data-side alignment: locality-driven *object migration* (see
//! `global_heap::migrate`), on when `cfg.migration`.
//!
//! An object changes home only between phases, in the boundary pass
//! ([`crate::boundary`]); what a node does *during* a phase is gather the
//! evidence and follow the result. Requesters sample per-pointer remote
//! dereference counts from their M mapping at align time and report them
//! to each believed home once, when their iterations are done
//! (`Affinity`); owners accumulate the counts for the boundary to read.
//! A request that reaches a birth home whose object was re-homed is
//! forwarded one hop (`Forward`) to the adopter, which answers the
//! requester directly; the reply's source teaches the requester the new
//! home. Every fan-out goes out in sorted order, so replays stay
//! bit-identical.

use super::{fan_out, DpaProc};
use crate::fxmap::FxHashMap;
use crate::invariant::NodeSnapshot;
use crate::msg::{DpaMsg, SeqChannel};
use crate::work::PtrApp;
use global_heap::{ArrivalSet, GPtr, MigrationTable};
use sim_net::{Ctx, NodeId, NodeStats};

/// What a node keeps for migration, both as consumer and as owner.
pub(super) struct MigrateState {
    /// Adopted / departed / learned overrides plus owner-side affinity
    /// counts; the readability check and the owner paths read it too.
    /// Homes are fixed for the length of a phase: only affinity counts
    /// and learned overrides change while the machine runs.
    pub(super) table: MigrationTable,
    /// Requester-side affinity sampled at align time, awaiting the
    /// phase-end report (one count per aligned thread).
    aff_pending: FxHashMap<GPtr, u32>,
    /// The `Affinity` channel (duplicates must not inflate counts; entries
    /// count as received whether or not the table keeps them).
    affinity: SeqChannel,
    forward_msgs: u64,
    forwarded_entries: u64,
}

impl MigrateState {
    pub(super) fn new(nodes: usize) -> MigrateState {
        MigrateState {
            table: MigrationTable::default(),
            aff_pending: FxHashMap::default(),
            affinity: SeqChannel::new(nodes),
            forward_msgs: 0,
            forwarded_entries: 0,
        }
    }

    /// Adopted objects really do occupy renamed storage here, but are not
    /// phase fetches. Stamped at the *current* generation: the adoptee
    /// serves them from world data, always current.
    pub(super) fn install_carry<A: PtrApp>(
        &mut self,
        table: MigrationTable,
        app: &A,
        arrived: &mut ArrivalSet,
    ) {
        for (bits, size) in table.adopted_entries() {
            let p = GPtr::from_bits(bits);
            arrived.preload_gen(p, size, app.object_generation(p));
        }
        self.table = table;
    }

    pub(super) fn snapshot(&self, snap: &mut NodeSnapshot) {
        snap.aff_sent = self.affinity.entries_sent;
        snap.aff_recv = self.affinity.entries_recv();
        snap.misrouted_requests += self.affinity.refused();
        snap.adopted_ptrs = self.table.adopted_entries().into_iter().map(|(b, _)| b).collect();
        snap.departed_ptrs = self.table.departed_entries().into_iter().map(|(b, _)| b).collect();
    }

    pub(super) fn stall_detail(&self, detail: &mut String) {
        detail.push_str(&format!(
            "; mig: {} adopted, {} departed",
            self.table.adopted_len(),
            self.table.departed_len(),
        ));
    }

    pub(super) fn on_finish(&self, stats: &mut NodeStats) {
        stats.bump("affinity_msgs", self.affinity.msgs_sent);
        stats.bump("affinity_entries", self.affinity.entries_sent);
        stats.bump("forward_msgs", self.forward_msgs);
        stats.bump("forward_entries", self.forwarded_entries);
        stats.bump("objects_adopted", self.table.migrations_in());
        stats.bump("objects_departed", self.table.migrations_out());
        stats.bump("overrides_learned", self.table.overrides_learned());
    }
}

impl<A: PtrApp> DpaProc<A> {
    /// Align-time affinity signal: one count per aligned thread (the
    /// M-mapping population, not messages). No-op when migration is off.
    pub(super) fn sample_affinity(&mut self, ptr: GPtr) {
        if let Some(m) = self.mig.as_mut() {
            *m.aff_pending.entry(ptr).or_insert(0) += 1;
        }
    }

    /// The node finished its iterations: report the affinity sampled this
    /// phase to each object's believed home, one message per home, for
    /// the next boundary to act on. Entries below the per-consumer report
    /// floor (1, or 4 under replication) are dropped: one or two touches in a phase is background noise the
    /// owner cannot act on, and not shipping it keeps the report
    /// proportional to the *hot* working set instead of the whole one.
    pub(super) fn report_affinity(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        let Some(m) = self.mig.as_mut() else { return };
        let me = ctx.me().0;
        let floor = self.cfg.report_floor();
        let table = &m.table;
        let hot = m.aff_pending.drain().filter(|&(_, n)| n >= floor);
        let reports = fan_out(hot.map(|(ptr, n)| (table.home_of(ptr, me), (ptr, n))));
        for (home, mut entries) in reports {
            entries.sort_unstable_by_key(|&(p, _)| p.bits());
            ctx.charge_overhead(self.cfg.cost.request_entry_ns * entries.len() as u64);
            let seq = m.affinity.stamp(home, entries.len());
            ctx.send(NodeId(home), DpaMsg::Affinity { seq, entries });
        }
    }

    /// Split an incoming request into the part this node serves (born
    /// here and still here, or adopted) and the part that chases a
    /// forwarding stub (one `Forward` per new home). Anything else is
    /// misrouted: counted, not served. With migration off every object
    /// lives where it was born, and only those are served.
    pub(super) fn triage_request(
        &mut self,
        ctx: &mut Ctx<'_, DpaMsg>,
        src: NodeId,
        mut ptrs: Vec<GPtr>,
    ) -> Vec<GPtr> {
        let me = ctx.me().0;
        let Some(m) = self.mig.as_mut() else {
            let asked = ptrs.len();
            ptrs.retain(|p| p.is_local_to(me));
            self.misrouted += (asked - ptrs.len()) as u64;
            return ptrs;
        };
        // In place: what this node serves stays in the payload buffer, in
        // the order it was asked for.
        let mut fwd = Vec::new();
        let misrouted = &mut self.misrouted;
        ptrs.retain(|&p| {
            if let Some(to) = m.table.forward_target(p) {
                fwd.push((to, p));
                return false;
            }
            let served = p.is_local_to(me) || m.table.is_adopted(p);
            *misrouted += u64::from(!served);
            served
        });
        for (to, mut entries) in fan_out(fwd) {
            entries.sort_unstable_by_key(|p| p.bits());
            ctx.charge_overhead(self.cfg.cost.request_entry_ns * entries.len() as u64);
            m.forward_msgs += 1;
            m.forwarded_entries += entries.len() as u64;
            ctx.send(
                NodeId(to),
                DpaMsg::Forward {
                    requester: src.0,
                    entries,
                },
            );
        }
        ptrs
    }

    pub(super) fn on_affinity(
        &mut self,
        ctx: &mut Ctx<'_, DpaMsg>,
        src: NodeId,
        seq: u64,
        entries: Vec<(GPtr, u32)>,
    ) {
        let Some(m) = self.mig.as_mut() else {
            self.misrouted += entries.len() as u64;
            return;
        };
        if !m.affinity.accept(src.0, seq, entries.len()) {
            return;
        }
        let me = ctx.me().0;
        for (ptr, n) in entries {
            ctx.charge_overhead(self.cfg.cost.map_update_ns);
            m.table.record_affinity(ptr, src.0, n as u64, me);
        }
    }

    /// A request that hit the birth home's stub: answer `requester`
    /// directly for everything adopted here (the stub only ever points at
    /// the adopter; anything else is misrouted).
    pub(super) fn on_forward(
        &mut self,
        ctx: &mut Ctx<'_, DpaMsg>,
        requester: u16,
        mut entries: Vec<GPtr>,
    ) {
        let Some(m) = self.mig.as_mut() else {
            self.misrouted += entries.len() as u64;
            return;
        };
        let before = entries.len();
        entries.retain(|&p| m.table.is_adopted(p));
        self.misrouted += (before - entries.len()) as u64;
        if entries.is_empty() {
            self.coal.recycle(entries);
            return;
        }
        self.answer(ctx, NodeId(requester), entries);
        self.drive(ctx);
    }
}
