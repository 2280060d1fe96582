//! Data-side alignment: locality-driven *object migration* (see
//! `global_heap::migrate`), on when `migration_epoch_ns > 0`.
//!
//! Requesters sample per-pointer remote dereference counts from their M
//! mapping at align time and ship them to the believed home in `Affinity`
//! messages at every epoch wake; owners accumulate the counts and, at
//! their own epoch wakes, `depart` objects whose dominant consumer crossed
//! `migration_threshold` (bounded by `migration_budget` per phase),
//! batching the shipments (`Migrate`) through their own [`ByteCoalescer`].
//! A request that reaches a birth home after its object departed is
//! forwarded one hop (`Forward`); a forward — or a direct request from a
//! consumer that learned the new home — that outruns its `Migrate` parks
//! in an orphan queue until adoption. Every fan-out goes out in sorted
//! order, so replays stay bit-identical.

use super::{fan_out, DpaProc};
use crate::config::DpaConfig;
use crate::fxmap::FxHashMap;
use crate::invariant::NodeSnapshot;
use crate::msg::{DpaMsg, SeqChannel};
use crate::work::PtrApp;
use fastmsg::ByteCoalescer;
use global_heap::{ArrivalSet, GPtr, MigrationTable};
use sim_net::{Ctx, Dur, NodeId, NodeStats};

/// What a node keeps for migration, both as consumer and as owner.
pub(super) struct MigrateState {
    /// Adopted / departed / learned overrides plus owner-side affinity
    /// counts; the readability check and the owner paths read it too.
    pub(super) table: MigrationTable,
    /// Requester-side affinity deltas sampled at align time, awaiting the
    /// next epoch report (one count per aligned thread).
    aff_pending: FxHashMap<GPtr, u32>,
    /// Owner-side shipment batching (per new home); flushed by the core's
    /// deadline wake and quiescence drain next to replies and updates.
    pub(super) coal: ByteCoalescer<(GPtr, u32)>,
    /// Requests that outran their `Migrate`: pointer → waiting
    /// requesters, served the moment adoption lands.
    orphans: FxHashMap<GPtr, Vec<u16>>,
    /// Next migration-epoch wake in simulated ns (`None` when none is
    /// armed).
    next_epoch_at: Option<u64>,
    /// `migrations_out` of the carried-in table, so `migration_budget`
    /// bounds what *this phase* ships rather than the whole run.
    out_at_start: u64,
    /// The `Affinity` channel (duplicates must not inflate counts; entries
    /// count as received whether or not the table keeps them).
    affinity: SeqChannel,
    /// The `Migrate` channel.
    migrates: SeqChannel,
    /// Shipment entries committed (stub installed); `migrates` counts them
    /// again as they go on the wire.
    entries_pushed: u64,
    forward_msgs: u64,
    forwarded_entries: u64,
    orphans_total: u64,
    orphans_served: u64,
}

impl MigrateState {
    pub(super) fn new(nodes: usize, cfg: &DpaConfig) -> MigrateState {
        MigrateState {
            table: MigrationTable::new(),
            aff_pending: FxHashMap::default(),
            coal: ByteCoalescer::new(nodes, cfg.mtu.0 as u64, cfg.agg_window),
            orphans: FxHashMap::default(),
            next_epoch_at: None,
            out_at_start: 0,
            affinity: SeqChannel::default(),
            migrates: SeqChannel::default(),
            entries_pushed: 0,
            forward_msgs: 0,
            forwarded_entries: 0,
            orphans_total: 0,
            orphans_served: 0,
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
        self.out_at_start = table.migrations_out();
        self.table = table;
    }

    /// A reply from a node other than the birth home reveals a re-homing
    /// (the serving node is the adoptee), which is how consumers learn to
    /// skip the forwarding hop next phase.
    pub(super) fn note_reply_source(&mut self, ptr: GPtr, src: u16) {
        if src != ptr.node() {
            self.table.learn_override(ptr, src);
        }
    }

    /// Adopt a shipped object. `None` for a duplicate shipment (already
    /// adopted); otherwise the requesters whose forwards or direct
    /// requests outran the shipment and can now be served.
    fn adopt(&mut self, ptr: GPtr, size: u32) -> Option<Vec<u16>> {
        if !self.table.adopt(ptr, size) {
            return None;
        }
        let waiting = self.orphans.remove(&ptr).unwrap_or_default();
        self.orphans_served += waiting.len() as u64;
        Some(waiting)
    }

    /// Park `requester`'s request for `ptr` until its `Migrate` lands.
    fn park(&mut self, ptr: GPtr, requester: u16) {
        self.orphans.entry(ptr).or_default().push(requester);
        self.orphans_total += 1;
    }

    /// Put one shipment batch on the wire, sized and charged like a reply.
    pub(super) fn send(
        &mut self,
        ctx: &mut Ctx<'_, DpaMsg>,
        cfg: &DpaConfig,
        dst: u16,
        batch: Vec<(GPtr, u32)>,
    ) {
        debug_assert!(!batch.is_empty());
        let payload = crate::owner::reply_payload_bytes(&batch);
        crate::owner::charge_extra_packets(cfg, ctx, payload);
        let seq = self.migrates.stamp(batch.len());
        ctx.send(NodeId(dst), DpaMsg::Migrate { seq, entries: batch });
    }

    fn orphans_pending(&self) -> usize {
        self.orphans.values().map(Vec::len).sum()
    }

    pub(super) fn snapshot(&self, snap: &mut NodeSnapshot) {
        snap.aff_sent = self.affinity.entries_sent;
        snap.aff_recv = self.affinity.entries_recv;
        snap.mig_pushed = self.entries_pushed;
        snap.mig_sent = self.migrates.entries_sent;
        snap.mig_buffered = self.coal.pending();
        snap.orphans_pending = self.orphans_pending();
        snap.adopted_ptrs = self.table.adopted_entries().into_iter().map(|(b, _)| b).collect();
        snap.departed_ptrs = self.table.departed_entries().into_iter().map(|(b, _)| b).collect();
    }

    pub(super) fn stall_detail(&self, detail: &mut String) {
        detail.push_str(&format!(
            "; mig: {} adopted, {} departed, {} orphaned",
            self.table.adopted_len(),
            self.table.departed_len(),
            self.orphans_pending()
        ));
    }

    pub(super) fn on_finish(&self, stats: &mut NodeStats) {
        stats.bump("affinity_msgs", self.affinity.msgs_sent);
        stats.bump("affinity_entries", self.affinity.entries_sent);
        stats.bump("migrate_msgs", self.migrates.msgs_sent);
        stats.bump("migrate_entries", self.migrates.entries_sent);
        stats.bump("forward_msgs", self.forward_msgs);
        stats.bump("forward_entries", self.forwarded_entries);
        stats.bump("objects_adopted", self.table.migrations_in());
        stats.bump("objects_departed", self.table.migrations_out());
        stats.bump("overrides_learned", self.table.overrides_learned());
        stats.bump("orphans_served", self.orphans_served);
    }
}

impl<A: PtrApp> DpaProc<A> {
    /// Align-time affinity signal: one count per aligned thread (the
    /// M-mapping population, not messages). No-op when migration is off.
    pub(super) fn sample_affinity(&mut self, ctx: &mut Ctx<'_, DpaMsg>, ptr: GPtr) {
        if let Some(m) = self.mig.as_mut() {
            *m.aff_pending.entry(ptr).or_insert(0) += 1;
            self.arm_epoch(ctx);
        }
    }

    /// Arm the next epoch wake unless one is already armed (no-op when
    /// migration is off). Epochs are event-driven: armed when signal
    /// appears (the phase starts, a sampled remote align, a received
    /// affinity report) and re-armed after an epoch only while epochs keep
    /// producing messages. A free-running timer would keep a stalled
    /// machine's event queue alive forever, turning a lost message into a
    /// livelock instead of a diagnosable stall.
    pub(super) fn arm_epoch(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        let epoch = self.cfg.migration_epoch_ns;
        let Some(m) = self.mig.as_mut() else { return };
        // `u64::MAX` is boundary-only mode: affinity still accumulates at
        // align time and ships in the final phase-end report (which is
        // all the boundary promotion/migration decisions need), but no
        // periodic epoch ever fires — arming one would also strand an
        // uncancellable far-future wake in the queue, stretching the
        // phase makespan to the epoch length.
        if self.done || m.next_epoch_at.is_some() || epoch == u64::MAX {
            return;
        }
        m.next_epoch_at = Some(ctx.now().as_ns() + epoch);
        ctx.wake_after(Dur::from_ns(epoch));
    }

    /// The epoch half of `on_wake`: when an armed epoch is due, report
    /// sampled affinity, then ship this owner's picks.
    pub(super) fn epoch_wake(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        let now = ctx.now().as_ns();
        let Some(m) = self.mig.as_mut() else { return };
        if m.next_epoch_at.is_none_or(|t| t > now) {
            return;
        }
        m.next_epoch_at = None;
        if self.done {
            return;
        }
        // Re-arm only while epochs are productive; an idle epoch stops
        // ticking and the next sampled align or affinity report re-arms.
        let reported = self.send_affinity(ctx);
        let shipped = self.ship_migrations(ctx);
        if reported || shipped {
            self.arm_epoch(ctx);
        }
    }

    /// The node finished its iterations: owners fold the tail of this
    /// phase's signal into the next boundary's decisions, and no further
    /// epoch is due.
    pub(super) fn finish_migration(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        self.send_affinity(ctx);
        if let Some(m) = self.mig.as_mut() {
            m.next_epoch_at = None;
            debug_assert!(m.coal.is_empty());
        }
    }

    /// Report the affinity deltas sampled since the last epoch to each
    /// object's believed home. Entries whose home turns out to be this
    /// node (an override learned or an adoption that landed mid-epoch) are
    /// dropped — local dereferences are not migration signal. Entries
    /// below the per-consumer
    /// [`affinity_report_floor`](DpaConfig::affinity_report_floor) are
    /// dropped too: one or two touches in a window is background noise
    /// the owner cannot act on, and not shipping it keeps the report
    /// proportional to the *hot* working set instead of the whole one.
    /// Returns whether anything was sent.
    fn send_affinity(&mut self, ctx: &mut Ctx<'_, DpaMsg>) -> bool {
        let Some(m) = self.mig.as_mut() else { return false };
        let me = ctx.me().0;
        let floor = self.cfg.affinity_report_floor;
        let table = &m.table;
        let reports = fan_out(m.aff_pending.drain().filter_map(|(ptr, n)| {
            let home = table.home_of(ptr, me);
            (n >= floor && home != me).then_some((home, (ptr, n)))
        }));
        let sent_any = !reports.is_empty();
        for (home, mut entries) in reports {
            entries.sort_unstable_by_key(|&(p, _)| p.bits());
            ctx.charge_overhead(self.cfg.cost.request_entry_ns * entries.len() as u64);
            let seq = m.affinity.stamp(entries.len());
            ctx.send(NodeId(home), DpaMsg::Affinity { seq, entries });
        }
        sent_any
    }

    /// Owner-side epoch step: commit this epoch's migration picks (stub
    /// installed *before* the shipment leaves, so a racing request can only
    /// forward, never double-serve) and batch them to their new homes.
    /// Returns whether anything was committed.
    fn ship_migrations(&mut self, ctx: &mut Ctx<'_, DpaMsg>) -> bool {
        let Some(m) = self.mig.as_mut() else { return false };
        let used = (m.table.migrations_out() - m.out_at_start) as usize;
        let remaining = self.cfg.migration_budget.saturating_sub(used);
        if remaining == 0 {
            return false;
        }
        let mut shipped = false;
        let now = ctx.now().as_ns();
        for mv in m.table.pick_migrations(self.cfg.migration_threshold, remaining) {
            if !m.table.depart(mv.ptr, mv.to) {
                continue;
            }
            let size = self.app.object_size(mv.ptr);
            // The sender keeps a read replica for the rest of the phase:
            // objects are phase-immutable, and local threads already routed
            // to this (former) home may not have run yet. New ownership —
            // and the next phase's routing — moves with the stub.
            self.arrived
                .preload_gen(mv.ptr, size, self.app.object_generation(mv.ptr));
            m.entries_pushed += 1;
            shipped = true;
            ctx.charge_overhead(self.cfg.cost.owner_lookup_ns);
            let entry_bytes = (size + GPtr::WIRE_BYTES) as u64;
            for batch in m.coal.push(mv.to, (mv.ptr, size), entry_bytes, now) {
                m.send(ctx, &self.cfg, mv.to, batch);
            }
        }
        self.ensure_flush_wake(ctx);
        shipped
    }

    /// Split an incoming request into the part this node can serve, the
    /// part that must chase forwarding stubs (one `Forward` per new home),
    /// and the part that raced ahead of a `Migrate` still in flight — a
    /// consumer with a learned override, or the old home's own stub, can
    /// address this node directly before the shipment lands; those park in
    /// the orphan queue exactly like a forward that outran its shipment.
    /// Pass-through when migration is off.
    pub(super) fn triage_request(
        &mut self,
        ctx: &mut Ctx<'_, DpaMsg>,
        src: NodeId,
        mut ptrs: Vec<GPtr>,
    ) -> Vec<GPtr> {
        let Some(m) = self.mig.as_mut() else { return ptrs };
        let me = ctx.me().0;
        let mut serve = Vec::with_capacity(ptrs.len());
        let mut fwd = Vec::new();
        for p in ptrs.drain(..) {
            if let Some(to) = m.table.forward_target(p) {
                fwd.push((to, p));
            } else if p.is_local_to(me) || m.table.is_adopted(p) {
                serve.push(p);
            } else {
                m.park(p, src.0);
            }
        }
        self.coal.recycle(ptrs);
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
        serve
    }

    pub(super) fn on_affinity(
        &mut self,
        ctx: &mut Ctx<'_, DpaMsg>,
        src: NodeId,
        seq: u64,
        mut entries: Vec<(GPtr, u32)>,
    ) {
        let Some(m) = self.mig.as_mut() else { return };
        if !m.affinity.accept(src.0, seq, entries.len()) {
            return;
        }
        let me = ctx.me().0;
        for (ptr, n) in entries.drain(..) {
            ctx.charge_overhead(self.cfg.cost.map_update_ns);
            m.table.record_affinity(ptr, src.0, n as u64, me);
        }
        m.coal.recycle(entries);
        // Fresh counts may push an object over the migration threshold;
        // make sure an owner epoch will look.
        self.arm_epoch(ctx);
    }

    pub(super) fn on_migrate(
        &mut self,
        ctx: &mut Ctx<'_, DpaMsg>,
        src: NodeId,
        seq: u64,
        mut entries: Vec<(GPtr, u32)>,
    ) {
        let Some(m) = self.mig.as_mut() else { return };
        if !m.migrates.accept(src.0, seq, entries.len()) {
            return;
        }
        let me = ctx.me().0;
        let mut orphan_replies = Vec::new();
        for (ptr, size) in entries.drain(..) {
            let Some(waiting) = self.mig.as_mut().and_then(|m| m.adopt(ptr, size)) else {
                continue;
            };
            ctx.charge_overhead(self.cfg.cost.reply_install_ns);
            let gen = self.app.object_generation(ptr);
            if self.pending.contains(ptr) {
                // Our own request for this object is outstanding;
                // adoption doubles as its reply.
                let installed = self.install(ptr, size, gen);
                debug_assert!(installed, "pending object was already installed");
            } else {
                self.arrived.preload_gen(ptr, size, gen);
            }
            for r in waiting {
                if r != me {
                    orphan_replies.push((r, (ptr, size)));
                } else {
                    // Our own request chased the object here and parked;
                    // the pending branch above installed the data, and
                    // this shipment is the end of that request's wire
                    // journey — no reply will ever arrive to retire it.
                    self.in_flight.remove(&ptr);
                }
            }
        }
        if let Some(m) = self.mig.as_mut() {
            m.coal.recycle(entries);
        }
        for (dst, batch) in fan_out(orphan_replies) {
            ctx.charge_overhead(self.cfg.cost.owner_lookup_ns * batch.len() as u64);
            self.reply_entries_pushed += batch.len() as u64;
            for &(p, _) in &batch {
                self.reply_ptr_acct.entry(p).or_default().0 += 1;
            }
            self.send_reply(ctx, dst, batch);
        }
        self.drive(ctx);
    }

    pub(super) fn on_forward(
        &mut self,
        ctx: &mut Ctx<'_, DpaMsg>,
        requester: u16,
        mut entries: Vec<GPtr>,
    ) {
        let Some(m) = self.mig.as_mut() else { return };
        let mut ready: Vec<GPtr> = Vec::new();
        for ptr in entries.drain(..) {
            if m.table.is_adopted(ptr) {
                ready.push(ptr);
            } else {
                // The forward outran the Migrate.
                m.park(ptr, requester);
            }
        }
        self.coal.recycle(entries);
        if ready.is_empty() {
            return;
        }
        let me = ctx.me();
        if requester == me.0 {
            // Our own pre-migration request chased the object here:
            // install it directly, as if the reply had arrived.
            let objs: Vec<(GPtr, u32)> =
                ready.iter().map(|&p| (p, self.app.object_size(p))).collect();
            self.coal.recycle(ready);
            self.install_reply(ctx, me, objs);
        } else {
            self.answer(ctx, NodeId(requester), ready);
        }
        self.drive(ctx);
    }
}
