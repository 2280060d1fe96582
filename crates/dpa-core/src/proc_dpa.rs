//! The DPA node driver: strip-mined thread scheduling plus communication
//! scheduling, as a [`sim_net::Proc`].
//!
//! Per node, the driver maintains the paper's two runtime structures —
//! **M**, the pointer→dependent-threads mapping ([`PointerMap`]), and
//! **D**, the outstanding-request table ([`PendingRequests`]) — plus the
//! per-destination coalescing buffers of the communication scheduler.
//!
//! Scheduling template (the paper's Figure 14 shape):
//!
//! 1. **Admit** — keep at most one strip's worth of top-level iterations
//!    live (k-bounded loop); admitting an iteration runs its creation
//!    code, which emits pointer-labeled dependent threads. The strip is
//!    either the paper's static `k` ([`StripMode::Fixed`]) or retuned at
//!    every strip boundary by the per-node feedback controller of
//!    [`crate::stripctl`] ([`StripMode::Adaptive`]): every `strip`
//!    completed iterations the driver reads its own idle/overhead deltas
//!    and suspended-thread population and grows or shrinks the k-bound.
//! 2. **Execute** — run ready threads depth-first. A demand on a local or
//!    already-arrived object becomes immediately ready; a demand on a
//!    missing remote object is aligned under its pointer in M, and the
//!    first alignment enqueues a request in the coalescing buffer for the
//!    owner node.
//! 3. **Communicate** — with pipelining, full buffers are sent the moment
//!    they fill and everything pending is drained at quiescence, so
//!    transfers overlap the remaining local work; without pipelining
//!    (the "Base" configuration) one batch is sent per quiescence and the
//!    node waits for its reply — each round trip is exposed.
//!
//! The *owner* side runs its own communication scheduler: with
//! `reply_agg_window > 1`, reply entries for incoming requests (and
//! batched `Update` reductions) are buffered per destination in a
//! [`ByteCoalescer`] and flushed adaptively — at MTU occupancy or the
//! entry window (whichever fills first), after `reply_flush_deadline_ns`
//! of simulated time since a destination's first entry (deadline wakes),
//! and unconditionally at every local quiescence point. A request that
//! finds the owner already idle is answered immediately: buffering only
//! happens while there is local work to overlap, so latency is never
//! traded for overhead.
//! 4. **Tile** — when a reply installs an object, *all* threads aligned
//!    under it are released consecutively: threads using the same object
//!    execute together, paying its fetch exactly once.
//!
//! Long drives are sliced at `poll_interval_ns` of simulated time so the
//! node services incoming requests at realistic polling granularity (the
//! paper notes poll placement was hand-tuned in their codes).
//!
//! # Data-side alignment (object migration)
//!
//! With `migration_epoch_ns > 0` the driver additionally runs the
//! locality-driven *object migration* protocol (see
//! `global_heap::migrate`): requesters sample per-pointer remote
//! dereference counts from their M mapping at align time and ship them to
//! the believed home in `Affinity` messages at every epoch wake; owners
//! accumulate the counts and, at their own epoch wakes, `depart` objects
//! whose dominant consumer crossed `migration_threshold` (bounded by
//! `migration_budget` per phase), batching the shipments through a third
//! [`ByteCoalescer`]. A request that reaches a birth home after its object
//! departed is forwarded one hop (`Forward`); a forward that outruns its
//! `Migrate` parks in an orphan queue until adoption. All of it is off by
//! default and every fan-out iterates in sorted order, so baseline runs
//! and replays stay bit-identical.
//!
//! # Read-mostly replication (multi-home broadcast caching)
//!
//! With `replication` enabled the driver additionally runs the third
//! alignment mode (see `global_heap::replicate`): pointers whose affinity
//! shows high fan-out with *no* dominant consumer — exactly the shape
//! migration loses on — are promoted to *replicated* at phase boundaries.
//! The owner broadcasts a generation-stamped copy to every consumer at
//! `on_start` (after the boundary deltas, before its own delta gate), and
//! subsequent remote reads hit the local replica with zero messages.
//! Writes never move: they funnel through the birth home, are counted per
//! window, and demote the pointer when the mix stops being read-mostly.
//! A replicated pointer is pinned against migration while replicated;
//! carried replicas ride the differential `(ptr, size, gen)` machinery, so
//! a lost broadcast degrades to a demand fetch or a diagnosable delta
//! stall — never a silent stale read.

use crate::config::{ConfigError, DpaConfig, Variant};
use crate::invariant::NodeSnapshot;
use crate::mapping::PointerMap;
use crate::stripctl::{StripController, StripMode, StripObs};
use crate::msg::DpaMsg;
use crate::pending::PendingRequests;
use crate::work::{Avail, Emit, PtrApp, Tagged, WorkEnv};
use fastmsg::{ByteCoalescer, Coalescer};
use global_heap::{ArrivalSet, GPtr, MigrationTable, ReplicaDirectory};
use sim_net::{Ctx, Dur, NodeId, NodeStats, Proc};
use crate::fxmap::{FxHashMap, FxHashSet};
use std::collections::VecDeque;

/// Wire bytes of one `(pointer, f64)` reduction entry.
const UPDATE_ENTRY_BYTES: u64 = GPtr::WIRE_BYTES as u64 + 8;

/// Dither seed for the adaptive strip controller (see
/// [`StripController::new`]); fixed so replays are bit-identical.
const STRIP_DITHER_SEED: u64 = 0x5712_C0DE;

/// Everything one node hands across a phase barrier: taken from phase
/// *k*'s proc by [`DpaProc::take_carry`], patched by the boundary pass
/// ([`crate::boundary`]), installed into phase *k+1*'s proc by
/// [`DpaProc::install_carry`]. Each part rides only under its config flag.
pub struct PhaseCarry<W> {
    /// `migration_enabled()`: adopted / departed / learned overrides plus
    /// the owner-side affinity counts the boundary policies read.
    pub(crate) migration: Option<MigrationTable>,
    /// `adaptive_strip()`: the k-bound controller, so a phase opens at the
    /// strip its predecessor converged to instead of re-learning it.
    pub(crate) strip_ctl: Option<StripController>,
    /// `replication`: the owner-side directory, windows closed.
    pub(crate) replication: Option<ReplicaDirectory>,
    /// `differential`: M and D — interners and warmed waiter-list
    /// capacities travel instead of being rebuilt.
    pub(crate) tables: Option<(PointerMap<Tagged<W>>, PendingRequests)>,
    /// `differential`: renamed storage as `(ptr, size, generation fetched
    /// at)`, sorted by pointer bits. Unchanged objects are never refetched.
    pub(crate) arrivals: Vec<(GPtr, u32, u32)>,
    /// Planned by the boundary: the homes of `arrivals`, whose
    /// [`DpaMsg::PhaseDelta`] gates this node's first strip.
    pub(crate) awaiting: Vec<u16>,
    /// Planned by the boundary: per consumer carrying objects homed here,
    /// those whose generation moved (empty = all-clear). Announced first
    /// thing in `on_start`, *before* this node gates on its own awaited
    /// deltas, so mutually-carrying nodes cannot deadlock.
    pub(crate) deltas: Vec<(u16, Vec<GPtr>)>,
}

/// A DPA node: the application's per-node instance plus runtime state.
pub struct DpaProc<A: PtrApp> {
    app: A,
    cfg: DpaConfig,
    /// Ready non-blocking threads (depth-first stack).
    stack: Vec<Tagged<A::Work>>,
    /// M: pointer → aligned dependent threads.
    map: PointerMap<Tagged<A::Work>>,
    /// D: outstanding (buffered or in-flight) requests.
    pending: PendingRequests,
    /// Renamed storage: remote objects fetched so far this phase.
    arrived: ArrivalSet,
    /// Per-destination request batching.
    coal: Coalescer<GPtr>,
    /// Batches that filled while sending was deferred (no pipelining).
    held: VecDeque<(u16, Vec<GPtr>)>,
    /// Per-destination reduction batching (fire-and-forget, so sent when
    /// full regardless of the pipelining flag).
    upd_coal: ByteCoalescer<(GPtr, f64)>,
    /// Owner-side reply scheduler: per-destination reply-entry batching
    /// under the adaptive flush policy (budget / window / deadline /
    /// quiescence). Unused (always empty) when `reply_agg_window == 1`.
    reply_coal: ByteCoalescer<(GPtr, u32)>,
    /// Earliest armed deadline wake for buffered replies/updates, in
    /// simulated ns. Wakes cannot be cancelled, so this only suppresses
    /// arming a *later* duplicate; a stale earlier wake fires harmlessly.
    flush_wake_at: Option<u64>,
    /// Migration state (`Some` iff `cfg.migration_enabled()`): adopted /
    /// departed / learned overrides plus owner-side affinity counts.
    mig: Option<MigrationTable>,
    /// Requester-side affinity deltas sampled at align time, awaiting the
    /// next epoch report (one count per aligned thread).
    aff_pending: FxHashMap<GPtr, u32>,
    /// Owner-side migration shipment batching (per new home).
    mig_coal: ByteCoalescer<(GPtr, u32)>,
    /// Forwarded requests that outran their `Migrate`: pointer → waiting
    /// requesters, served the moment adoption lands.
    orphans: FxHashMap<GPtr, Vec<u16>>,
    /// Next migration-epoch wake in simulated ns (`None` when disabled or
    /// after this node finished its iterations).
    next_epoch_at: Option<u64>,
    /// `migrations_out` of the carried-in table, so `migration_budget`
    /// bounds what *this phase* ships rather than the whole run.
    mig_out_at_start: u64,
    /// `(sender, seq)` dedup for Affinity / Migrate messages.
    seen_affinity: FxHashSet<(u16, u64)>,
    seen_migrates: FxHashSet<(u16, u64)>,
    /// Owner-side replica directory (`Some` iff `cfg.replication`): which
    /// of this node's pointers are multi-homed, to whom, at which
    /// generation, and how write-heavy the current window is. Promotion
    /// policy runs in the boundary pass; this proc broadcasts, counts
    /// writes, and hands the directory back in [`DpaProc::take_carry`].
    repl: Option<ReplicaDirectory>,
    /// Replicas installed from a `Replicate` broadcast *this phase*:
    /// pointer → stamped generation. Guards the `PhaseDelta` invalidation
    /// path (a broadcast carries the post-boundary generation, so an
    /// invalidation it raced with is already satisfied) and feeds the
    /// `ReplicaIncoherent` oracle through the snapshot.
    replicas_held: FxHashMap<GPtr, u32>,
    /// `(sender, seq)` dedup for Replicate messages.
    seen_replicates: FxHashSet<(u16, u64)>,
    /// Replicate messages sent; doubles as the per-sender seq counter.
    replicate_msgs: u64,
    /// Replica entries put on the wire (conservation partner of
    /// `repl_entries_recv`).
    repl_entries_sent: u64,
    /// Replica entries received after seq-dedup.
    repl_entries_recv: u64,
    /// Differential re-alignment: the homes this node carried entries of
    /// across the phase barrier and still awaits a `PhaseDelta` from. The
    /// first strip is gated on hearing from every one, so a stale carried
    /// copy is invalidated before any thread can read it.
    awaiting_deltas: FxHashSet<u16>,
    /// Owner-side boundary deltas to announce at `on_start`: per consumer,
    /// the carried objects homed here whose generation moved (an empty
    /// list is the all-clear).
    delta_out: Vec<(u16, Vec<GPtr>)>,
    /// `(sender, seq)` dedup for PhaseDelta messages.
    seen_deltas: FxHashSet<(u16, u64)>,
    /// Admission/driving withheld until every awaited delta arrives.
    delta_gated: bool,
    delta_msgs_sent: u64,
    delta_msgs_recv: u64,
    delta_entries_sent: u64,
    delta_entries_recv: u64,
    /// Carried copies invalidated by an incoming delta (refetched on next
    /// use).
    stale_invalidated: u64,
    /// Entries preloaded from the differential carry (the phase began with
    /// this much renamed storage already warm).
    carried_in: u64,
    /// Objects installed (a pending request completed with data — by a
    /// reply or by an adoption that doubled as one). Equals
    /// `arrived.total_inserts()` whenever migration is off.
    installs: u64,
    /// Affinity messages sent; doubles as the per-sender seq counter.
    affinity_msgs: u64,
    /// Migrate messages sent; doubles as the per-sender seq counter.
    migrate_msgs: u64,
    forward_msgs: u64,
    aff_entries_sent: u64,
    /// Affinity entries received after seq-dedup (conservation partner of
    /// `aff_entries_sent`; counted whether or not the table keeps them).
    aff_entries_recv: u64,
    /// Migration entries committed for shipping (stub installed).
    mig_entries_pushed: u64,
    /// Migration entries put on the wire.
    mig_entries_sent: u64,
    forwarded_entries: u64,
    orphans_total: u64,
    orphans_served: u64,
    /// The k-bound currently in force (constant under a fixed strip;
    /// retuned at strip boundaries under an adaptive one).
    strip: usize,
    /// The adaptive k-bound controller (`Some` iff
    /// `cfg.adaptive_strip()`). Built lazily at `on_start` — the proc
    /// does not know its node id at construction — unless a controller
    /// carried over from the previous phase was installed first.
    strip_ctl: Option<StripController>,
    /// Completed-iteration count at which the next controller boundary
    /// fires.
    next_ctl_at: u64,
    /// Cumulative (local, overhead, idle) ns at the last boundary, so a
    /// retune observes the inter-boundary *deltas*.
    ctl_obs_base: (u64, u64, u64),
    /// Live work count per open iteration.
    iter_live: FxHashMap<u32, u32>,
    next_iter: usize,
    total_iters: usize,
    completed_iters: u64,
    threads_created: u64,
    peak_stack: u64,
    /// Objects with requests currently in flight (sent, reply pending).
    /// A set rather than a count: with migration an adoption can complete
    /// a pending request whose wire reply (possibly forwarded) arrives
    /// later, and set removal stays exact where a counter would drift.
    in_flight: FxHashSet<GPtr>,
    peak_in_flight: u64,
    request_msgs: u64,
    reply_msgs: u64,
    /// Update messages sent; doubles as this node's per-sender update
    /// sequence counter (the k-th Update we send carries `seq == k`).
    update_msgs: u64,
    updates_emitted: u64,
    updates_applied: u64,
    /// Request entries put on the wire (conservation vs. `coal` pushes).
    request_entries_sent: u64,
    /// Reduction entries put on the wire.
    update_entries_sent: u64,
    /// Reply entries accepted for sending (immediate or buffered).
    reply_entries_pushed: u64,
    /// Reply entries put on the wire (conservation vs. pushes).
    reply_entries_sent: u64,
    /// Per-pointer reply accounting `(pushed, sent)` — the hot-key
    /// conservation oracle. A skewed workload funnels most reply traffic
    /// through a few hub objects; this map proves no per-key entry is
    /// lost or invented across the scheduler, immediate-service, and
    /// orphan paths (the aggregate counters above would mask a bug that
    /// drops a hub entry while inventing one elsewhere).
    reply_ptr_acct: FxHashMap<GPtr, (u64, u64)>,
    /// `(sender, seq)` pairs of Update messages already applied; makes
    /// reduction application idempotent under duplicated delivery.
    seen_updates: FxHashSet<(u16, u64)>,
    /// Recycled emission buffer threaded through every [`WorkEnv`] this
    /// node builds, so the run-work hot loop emits without allocating.
    emit_buf: Vec<Emit<A::Work>>,
    wake_scheduled: bool,
    done: bool,
}

impl<A: PtrApp> DpaProc<A> {
    /// Wrap one node's application instance under `cfg`.
    ///
    /// `nodes` is the machine size (drives coalescer sizing). Panics on a
    /// degenerate config ([`DpaConfig::validate`] — use
    /// [`DpaProc::try_new`] for an `Err` instead) or if `cfg.variant` is
    /// not [`Variant::Dpa`] or [`Variant::Sequential`] — the baselines
    /// have their own driver.
    pub fn new(app: A, nodes: usize, cfg: DpaConfig) -> DpaProc<A> {
        match Self::try_new(app, nodes, cfg) {
            Ok(p) => p,
            Err(e) => panic!("invalid DpaConfig: {e}"),
        }
    }

    /// Like [`DpaProc::new`] but rejects a degenerate config with a clear
    /// [`ConfigError`] instead of a hang or panic deep in the run.
    pub fn try_new(app: A, nodes: usize, cfg: DpaConfig) -> Result<DpaProc<A>, ConfigError> {
        assert!(
            matches!(cfg.variant, Variant::Dpa | Variant::Sequential),
            "DpaProc drives DPA/Sequential, got {:?}",
            cfg.variant
        );
        cfg.validate()?;
        let strip = cfg.initial_strip();
        let total_iters = app.num_iterations();
        // Without pipelining, batches are held rather than auto-sent, so
        // the window can stay as configured; `held` captures overflow.
        let coal = Coalescer::new(nodes, cfg.agg_window);
        let upd_coal = ByteCoalescer::new(nodes, cfg.mtu.0 as u64, cfg.agg_window);
        let reply_coal = ByteCoalescer::new(nodes, cfg.mtu.0 as u64, cfg.reply_agg_window);
        let mig_coal = ByteCoalescer::new(nodes, cfg.mtu.0 as u64, cfg.agg_window);
        let mig = cfg.migration_enabled().then(MigrationTable::new);
        let repl = cfg.replication.then(ReplicaDirectory::new);
        Ok(DpaProc {
            app,
            cfg,
            strip,
            strip_ctl: None,
            next_ctl_at: strip as u64,
            ctl_obs_base: (0, 0, 0),
            stack: Vec::new(),
            map: PointerMap::new(),
            pending: PendingRequests::new(),
            arrived: ArrivalSet::new(),
            coal,
            held: VecDeque::new(),
            upd_coal,
            reply_coal,
            flush_wake_at: None,
            mig,
            aff_pending: FxHashMap::default(),
            mig_coal,
            orphans: FxHashMap::default(),
            next_epoch_at: None,
            mig_out_at_start: 0,
            seen_affinity: FxHashSet::default(),
            seen_migrates: FxHashSet::default(),
            repl,
            replicas_held: FxHashMap::default(),
            seen_replicates: FxHashSet::default(),
            replicate_msgs: 0,
            repl_entries_sent: 0,
            repl_entries_recv: 0,
            awaiting_deltas: FxHashSet::default(),
            delta_out: Vec::new(),
            seen_deltas: FxHashSet::default(),
            delta_gated: false,
            delta_msgs_sent: 0,
            delta_msgs_recv: 0,
            delta_entries_sent: 0,
            delta_entries_recv: 0,
            stale_invalidated: 0,
            carried_in: 0,
            installs: 0,
            affinity_msgs: 0,
            migrate_msgs: 0,
            forward_msgs: 0,
            aff_entries_sent: 0,
            aff_entries_recv: 0,
            mig_entries_pushed: 0,
            mig_entries_sent: 0,
            forwarded_entries: 0,
            orphans_total: 0,
            orphans_served: 0,
            iter_live: FxHashMap::default(),
            next_iter: 0,
            total_iters,
            completed_iters: 0,
            threads_created: 0,
            peak_stack: 0,
            in_flight: FxHashSet::default(),
            peak_in_flight: 0,
            request_msgs: 0,
            reply_msgs: 0,
            update_msgs: 0,
            updates_emitted: 0,
            updates_applied: 0,
            request_entries_sent: 0,
            update_entries_sent: 0,
            reply_entries_pushed: 0,
            reply_entries_sent: 0,
            reply_ptr_acct: FxHashMap::default(),
            seen_updates: FxHashSet::default(),
            emit_buf: Vec::new(),
            wake_scheduled: false,
            done: false,
        })
    }

    /// The wrapped application (post-run inspection).
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Take everything this node hands across the phase barrier (driver
    /// use, after the machine stops); see [`PhaseCarry`] for what rides
    /// under which config flag. The replica directory applies the
    /// read-mostly contract on the way out: entries whose window exceeded
    /// `replication_write_demote` writes are demoted and every window is
    /// zeroed for the next phase.
    pub fn take_carry(&mut self) -> PhaseCarry<A::Work> {
        let mut replication = self.repl.take();
        if let Some(dir) = replication.as_mut() {
            dir.end_window(self.cfg.replication_write_demote);
        }
        let (mut arrivals, mut tables) = (Vec::new(), None);
        if self.cfg.differential {
            arrivals.extend(self.arrived.entries());
            arrivals.sort_unstable_by_key(|&(p, _, _)| p.bits());
            tables = Some((std::mem::take(&mut self.map), std::mem::take(&mut self.pending)));
        }
        PhaseCarry {
            migration: self.mig.take(),
            strip_ctl: self.strip_ctl.take(),
            replication,
            tables,
            arrivals,
            awaiting: Vec::new(),
            deltas: Vec::new(),
        }
    }

    /// Install the previous phase's carry, as patched by the boundary pass
    /// (driver use, before the machine starts).
    pub fn install_carry(&mut self, carry: PhaseCarry<A::Work>) {
        if let Some(mig) = carry.migration {
            // Adopted objects really do occupy renamed storage here, but
            // are not phase fetches. Stamped at the *current* generation:
            // the adoptee serves them from world data, always current.
            for (bits, size) in mig.adopted_entries() {
                let p = GPtr::from_bits(bits);
                let gen = self.app.object_generation(p);
                self.arrived.preload_gen(p, size, gen);
            }
            self.mig_out_at_start = mig.migrations_out();
            self.mig = Some(mig);
        }
        if let Some(ctl) = carry.strip_ctl {
            // The phase opens at the strip the last one settled on, with
            // hysteresis state intact.
            self.strip = ctl.strip();
            self.next_ctl_at = self.completed_iters + self.strip as u64;
            self.strip_ctl = Some(ctl);
        }
        if let Some((mut map, mut pending)) = carry.tables {
            // M and D are *patched* for reuse — per-phase state reset,
            // interners kept; see [`PointerMap::reset_for_phase`].
            map.reset_for_phase();
            pending.reset_for_phase();
            self.map = map;
            self.pending = pending;
        }
        if let Some(dir) = carry.replication {
            // Entries flagged `needs_broadcast` go out first thing in
            // `on_start`; the rest are carried by their consumers.
            self.repl = Some(dir);
        }
        // Carried copies keep the generation they were fetched at; a stale
        // one is invalidated by its home's `PhaseDelta` before any thread
        // can read it, because the first strip is gated on `awaiting`.
        self.carried_in += carry.arrivals.len() as u64;
        for (ptr, size, gen) in carry.arrivals {
            self.arrived.preload_gen(ptr, size, gen);
        }
        self.awaiting_deltas = carry.awaiting.into_iter().collect();
        self.delta_gated = !self.awaiting_deltas.is_empty();
        self.delta_out = carry.deltas;
    }

    /// The node's migration table, when migration is enabled.
    pub fn migration(&self) -> Option<&MigrationTable> {
        self.mig.as_ref()
    }

    /// The node's replica directory, when replication is enabled.
    pub fn replication(&self) -> Option<&ReplicaDirectory> {
        self.repl.as_ref()
    }

    /// Replicas installed from broadcasts this phase, as sorted
    /// `(ptr bits, generation)` pairs (snapshot/oracle export).
    pub fn replicas_held(&self) -> Vec<(u64, u32)> {
        let mut v: Vec<(u64, u32)> = self
            .replicas_held
            .iter()
            .map(|(p, &g)| (p.bits(), g))
            .collect();
        v.sort_unstable();
        v
    }

    /// Completed top-level iterations.
    pub fn completed_iterations(&self) -> u64 {
        self.completed_iters
    }

    /// The k-bound currently in force.
    pub fn current_strip(&self) -> usize {
        self.strip
    }

    /// The adaptive strip controller, when the config is adaptive (and
    /// the run has started or a carried controller was installed).
    pub fn strip_controller(&self) -> Option<&StripController> {
        self.strip_ctl.as_ref()
    }

    /// Adaptive-strip boundary: when enough iterations completed since
    /// the last boundary, feed the controller the inter-boundary stat
    /// deltas and adopt its new strip. No-op under a fixed strip. Called
    /// from `admit`, so a retune can widen (or narrow) the window the
    /// very admission that crosses the boundary uses.
    fn maybe_retune(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        if self.strip_ctl.is_none() || self.completed_iters < self.next_ctl_at {
            return;
        }
        let s = ctx.stats();
        let (local, overhead, idle) = (s.local.as_ns(), s.overhead.as_ns(), s.idle.as_ns());
        let obs = StripObs {
            local_ns: local - self.ctl_obs_base.0,
            overhead_ns: overhead - self.ctl_obs_base.1,
            idle_ns: idle - self.ctl_obs_base.2,
            suspended_threads: self.map.live_threads(),
        };
        self.ctl_obs_base = (local, overhead, idle);
        let ctl = self.strip_ctl.as_mut().expect("checked above");
        self.strip = ctl.retune(&obs);
        self.next_ctl_at = self.completed_iters + self.strip as u64;
    }

    /// Export the runtime-state counters the DST invariant checker needs
    /// (see [`crate::invariant`]). `node` is this proc's node id (the proc
    /// itself does not know it outside a message context).
    pub fn snapshot(&self, node: u16) -> NodeSnapshot {
        let held_entries: usize = self.held.iter().map(|(_, b)| b.len()).sum();
        let (adopted_ptrs, departed_ptrs) = match &self.mig {
            Some(m) => (
                m.adopted_entries().into_iter().map(|(b, _)| b).collect(),
                m.departed_entries().into_iter().map(|(b, _)| b).collect(),
            ),
            None => (Vec::new(), Vec::new()),
        };
        // Hottest reply keys by entries pushed, ties broken by pointer
        // bits so the export (and thus DST fingerprints) is deterministic.
        let mut reply_hot: Vec<(u64, u64, u64)> = self
            .reply_ptr_acct
            .iter()
            .map(|(p, &(pushed, sent))| (p.bits(), pushed, sent))
            .collect();
        reply_hot.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        reply_hot.truncate(8);
        NodeSnapshot {
            node,
            map_keys: self.map.keys(),
            map_threads: self.map.live_threads(),
            pending_requests: self.pending.len(),
            pending_sample: self.pending.sorted_sample(4),
            in_flight: self.in_flight.len(),
            requests_issued: self.pending.total(),
            objects_installed: self.installs,
            req_pushed: self.coal.total_pushed(),
            req_sent: self.request_entries_sent,
            req_buffered: self.coal.pending() + held_entries,
            updates_emitted: self.updates_emitted,
            updates_applied: self.updates_applied,
            upd_sent: self.update_entries_sent,
            upd_buffered: self.upd_coal.pending(),
            reply_pushed: self.reply_entries_pushed,
            reply_sent: self.reply_entries_sent,
            reply_buffered: self.reply_coal.pending(),
            reply_hot,
            request_msgs: self.request_msgs,
            reply_msgs: self.reply_msgs,
            update_msgs: self.update_msgs,
            aff_sent: self.aff_entries_sent,
            aff_recv: self.aff_entries_recv,
            mig_pushed: self.mig_entries_pushed,
            mig_sent: self.mig_entries_sent,
            mig_buffered: self.mig_coal.pending(),
            orphans_pending: self.orphans.values().map(Vec::len).sum(),
            adopted_ptrs,
            departed_ptrs,
            delta_entries_sent: self.delta_entries_sent,
            delta_entries_recv: self.delta_entries_recv,
            deltas_awaited: self.awaiting_deltas.len(),
            stale_cache_entries: self
                .arrived
                .entries()
                .filter(|&(p, _, gen)| gen != self.app.object_generation(p))
                .count(),
            repl_entries_sent: self.repl_entries_sent,
            repl_entries_recv: self.repl_entries_recv,
            replica_dir: self.repl.as_ref().map(|d| d.export()).unwrap_or_default(),
            replica_held: self.replicas_held(),
            strip_schedule: self
                .strip_ctl
                .as_ref()
                .map(|c| c.schedule().to_vec())
                .unwrap_or_default(),
            strip_bounds: self
                .cfg
                .strip_mode
                .adaptive_params()
                .map(|p| (p.min as u32, p.max as u32)),
        }
    }

    #[inline]
    fn pressure(&self) -> u64 {
        self.cfg.cost.pressure_extra_ns(self.map.live_threads())
    }

    /// Route the emissions of one finished work/creation, tagging them
    /// with `iter`. Drains `emits` in place so the caller can recycle the
    /// buffer's capacity for the next work item.
    fn route_emissions(
        &mut self,
        ctx: &mut Ctx<'_, DpaMsg>,
        iter: u32,
        emits: &mut Vec<Emit<A::Work>>,
    ) {
        let me = ctx.me().0;
        // Reverse so that, popped from the stack, work runs in emission
        // order (depth-first).
        for e in emits.drain(..).rev() {
            if let Emit::Accum(ptr, value) = e {
                // Reductions are not threads: apply locally or batch for
                // the owner; no alignment, no iteration accounting.
                self.updates_emitted += 1;
                if ptr.is_local_to(me) {
                    ctx.charge_overhead(self.cfg.cost.owner_lookup_ns);
                    self.updates_applied += 1;
                    self.app.apply_update(ptr, value);
                    // Single-writer: every write funnels through the birth
                    // home, where the replica directory counts it toward
                    // the read-mostly demotion window.
                    if let Some(d) = self.repl.as_mut() {
                        d.note_write(ptr);
                    }
                } else {
                    ctx.charge_overhead(self.cfg.cost.request_entry_ns);
                    let now = ctx.now().as_ns();
                    for batch in self.upd_coal.push(ptr.node(), (ptr, value), UPDATE_ENTRY_BYTES, now)
                    {
                        self.send_update(ctx, ptr.node(), batch);
                    }
                }
                continue;
            }
            self.threads_created += 1;
            *self.iter_live.entry(iter).or_insert(0) += 1;
            ctx.charge_overhead(self.cfg.cost.thread_create_ns);
            match e {
                Emit::Local(work) => {
                    self.stack.push(Tagged { iter, work });
                }
                Emit::Demand(ptr, work) => {
                    // Resolve the current home: birth node unless migration
                    // re-homed the object (adopted here → local; departed /
                    // learned override → the new home, skipping the stub).
                    let home = match &self.mig {
                        Some(m) => m.home_of(ptr, me),
                        None => ptr.node(),
                    };
                    if home == me || self.arrived.contains(ptr) {
                        // Data already here: immediately ready.
                        self.stack.push(Tagged { iter, work });
                    } else {
                        ctx.charge_overhead(self.cfg.cost.map_update_ns + self.pressure());
                        let first = self.map.align(ptr, Tagged { iter, work });
                        if self.mig.is_some() {
                            // Affinity signal: one count per aligned thread
                            // (the M-mapping population, not messages).
                            *self.aff_pending.entry(ptr).or_insert(0) += 1;
                            self.arm_epoch(ctx);
                        }
                        if first && self.pending.insert(ptr) {
                            ctx.charge_overhead(self.cfg.cost.request_entry_ns);
                            if let Some(batch) = self.coal.push(home, ptr) {
                                if self.cfg.pipeline && self.can_send() {
                                    self.send_request(ctx, home, batch);
                                } else {
                                    self.held.push_back((home, batch));
                                }
                            }
                        }
                    }
                }
                Emit::Accum(..) => unreachable!("handled above"),
            }
        }
        self.peak_stack = self.peak_stack.max(self.stack.len() as u64);
    }

    fn send_update(&mut self, ctx: &mut Ctx<'_, DpaMsg>, dst: u16, batch: Vec<(GPtr, f64)>) {
        debug_assert!(!batch.is_empty());
        let seq = self.update_msgs;
        self.update_msgs += 1;
        self.update_entries_sent += batch.len() as u64;
        ctx.send(
            NodeId(dst),
            DpaMsg::Update {
                seq,
                entries: batch,
            },
        );
    }

    fn send_reply(&mut self, ctx: &mut Ctx<'_, DpaMsg>, dst: u16, batch: Vec<(GPtr, u32)>) {
        self.reply_msgs += 1;
        self.reply_entries_sent += batch.len() as u64;
        for &(p, _) in &batch {
            self.reply_ptr_acct.entry(p).or_default().1 += 1;
        }
        crate::owner::send_reply_batch(&self.cfg, ctx, NodeId(dst), batch);
    }

    /// Owner-side scheduler: buffer reply entries for `src`, sending any
    /// batches the push forces out (budget/window full, oversized entry).
    fn enqueue_replies(&mut self, ctx: &mut Ctx<'_, DpaMsg>, src: NodeId, ptrs: &[GPtr]) {
        let now = ctx.now().as_ns();
        for (p, size) in
            crate::owner::lookup_entries(&self.app, &self.cfg, ctx, ptrs, self.mig.as_ref())
        {
            self.reply_entries_pushed += 1;
            self.reply_ptr_acct.entry(p).or_default().0 += 1;
            let entry_bytes = (size + GPtr::WIRE_BYTES) as u64;
            for batch in self.reply_coal.push(src.0, (p, size), entry_bytes, now) {
                self.send_reply(ctx, src.0, batch);
            }
        }
        self.ensure_flush_wake(ctx);
    }

    /// Flush every buffered reply/update destination whose oldest entry
    /// has aged past the deadline, then re-arm the wake for what remains.
    fn flush_due(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        // Fast path for the common wake: nothing buffered anywhere and no
        // wake armed means every branch below is a no-op. Self-wake poll
        // slices land here once per event on the hot path.
        if self.flush_wake_at.is_none()
            && self.reply_coal.is_empty()
            && self.upd_coal.is_empty()
            && self.mig_coal.is_empty()
        {
            return;
        }
        let now = ctx.now().as_ns();
        if self.flush_wake_at.is_some_and(|t| t <= now) {
            self.flush_wake_at = None;
        }
        let deadline = self.cfg.reply_flush_deadline_ns;
        for (dst, batch) in self.reply_coal.take_due(now, deadline) {
            self.send_reply(ctx, dst, batch);
        }
        for (dst, batch) in self.upd_coal.take_due(now, deadline) {
            self.send_update(ctx, dst, batch);
        }
        for (dst, batch) in self.mig_coal.take_due(now, deadline) {
            self.send_migrate(ctx, dst, batch);
        }
        self.ensure_flush_wake(ctx);
    }

    /// Arm a deadline wake covering the oldest buffered reply/update entry
    /// (no-op when nothing is buffered or an earlier wake is already
    /// armed). This is what guarantees a buffered batch can never be
    /// stranded: every enqueue path ends with a wake at its deadline.
    fn ensure_flush_wake(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        let deadline = self.cfg.reply_flush_deadline_ns;
        let due = [
            self.reply_coal.next_due(deadline),
            self.upd_coal.next_due(deadline),
            self.mig_coal.next_due(deadline),
        ]
        .into_iter()
        .flatten()
        .min();
        if let Some(due) = due {
            let rearm = match self.flush_wake_at {
                None => true,
                Some(t) => due < t,
            };
            if rearm {
                self.flush_wake_at = Some(due);
                let now = ctx.now().as_ns();
                ctx.wake_after(Dur::from_ns(due.saturating_sub(now)));
            }
        }
    }

    /// Report the affinity deltas sampled since the last epoch to each
    /// object's believed home (sorted fan-out for determinism). Entries
    /// whose home turns out to be this node (an override learned or an
    /// adoption that landed mid-epoch) are dropped — local dereferences
    /// are not migration signal. Entries below the per-consumer
    /// [`affinity_report_floor`](DpaConfig::affinity_report_floor) are
    /// dropped too: one or two touches in a window is background noise
    /// the owner cannot act on, and not shipping it keeps the report
    /// proportional to the *hot* working set instead of the whole one.
    fn send_affinity(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        if self.aff_pending.is_empty() {
            return;
        }
        let me = ctx.me().0;
        let floor = self.cfg.affinity_report_floor;
        let mut per_dst: FxHashMap<u16, Vec<(GPtr, u32)>> = FxHashMap::default();
        for (ptr, n) in self.aff_pending.drain() {
            if n < floor {
                continue;
            }
            let home = match &self.mig {
                Some(m) => m.home_of(ptr, me),
                None => ptr.node(),
            };
            if home != me {
                per_dst.entry(home).or_default().push((ptr, n));
            }
        }
        let mut dsts: Vec<u16> = per_dst.keys().copied().collect();
        dsts.sort_unstable();
        for dst in dsts {
            let mut entries = per_dst.remove(&dst).expect("key from this map");
            entries.sort_unstable_by_key(|&(p, _)| p.bits());
            ctx.charge_overhead(self.cfg.cost.request_entry_ns * entries.len() as u64);
            let seq = self.affinity_msgs;
            self.affinity_msgs += 1;
            self.aff_entries_sent += entries.len() as u64;
            ctx.send(NodeId(dst), DpaMsg::Affinity { seq, entries });
        }
    }

    /// Owner-side epoch step: commit this epoch's migration picks (stub
    /// installed *before* the shipment leaves, so a racing request can only
    /// forward, never double-serve) and batch them to their new homes.
    fn ship_migrations(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        let Some(m) = self.mig.as_ref() else { return };
        let used = (m.migrations_out() - self.mig_out_at_start) as usize;
        let remaining = self.cfg.migration_budget.saturating_sub(used);
        if remaining == 0 {
            return;
        }
        let picks = m.pick_migrations(self.cfg.migration_threshold, remaining);
        let now = ctx.now().as_ns();
        for mv in picks {
            let size = self.app.object_size(mv.ptr);
            let m = self.mig.as_mut().expect("checked above");
            if !m.depart(mv.ptr, mv.to) {
                continue;
            }
            // The sender keeps a read replica for the rest of the phase:
            // objects are phase-immutable, and local threads already routed
            // to this (former) home may not have run yet. New ownership —
            // and the next phase's routing — moves with the stub.
            self.arrived
                .preload_gen(mv.ptr, size, self.app.object_generation(mv.ptr));
            self.mig_entries_pushed += 1;
            ctx.charge_overhead(self.cfg.cost.owner_lookup_ns);
            let entry_bytes = (size + GPtr::WIRE_BYTES) as u64;
            for batch in self.mig_coal.push(mv.to, (mv.ptr, size), entry_bytes, now) {
                self.send_migrate(ctx, mv.to, batch);
            }
        }
        self.ensure_flush_wake(ctx);
    }

    /// Push the replica payloads flagged for (re-)broadcast to their
    /// consumer sets: one `Replicate` per (consumer, generation) group,
    /// sized and charged like a reply, fanned out in sorted order. Fresh
    /// promotions and moved generations are flagged; an unchanged replica
    /// is carried by its consumer and validated by the differential
    /// all-clear instead, so it costs nothing here.
    fn send_replicate_broadcasts(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        let broadcasts = match self.repl.as_mut() {
            Some(d) => d.take_broadcasts(),
            None => return,
        };
        if broadcasts.is_empty() {
            return;
        }
        let me = ctx.me().0;
        let mut per: FxHashMap<(u16, u32), Vec<(GPtr, u32)>> = FxHashMap::default();
        for (ptr, gen, consumers) in broadcasts {
            debug_assert!(ptr.is_local_to(me), "broadcasting a pointer homed elsewhere");
            let size = self.app.object_size(ptr);
            for c in consumers {
                debug_assert!(c != me, "owner in its own consumer set");
                per.entry((c, gen)).or_default().push((ptr, size));
            }
        }
        let mut keys: Vec<(u16, u32)> = per.keys().copied().collect();
        keys.sort_unstable();
        for (dst, gen) in keys {
            let entries = per.remove(&(dst, gen)).expect("key from this map");
            ctx.charge_overhead(self.cfg.cost.owner_lookup_ns * entries.len() as u64);
            let payload = crate::owner::reply_payload_bytes(&entries);
            crate::owner::charge_extra_packets(&self.cfg, ctx, payload);
            let seq = self.replicate_msgs;
            self.replicate_msgs += 1;
            self.repl_entries_sent += entries.len() as u64;
            ctx.send(NodeId(dst), DpaMsg::Replicate { seq, gen, entries });
        }
    }

    fn send_migrate(&mut self, ctx: &mut Ctx<'_, DpaMsg>, dst: u16, batch: Vec<(GPtr, u32)>) {
        debug_assert!(!batch.is_empty());
        let payload = crate::owner::reply_payload_bytes(&batch);
        crate::owner::charge_extra_packets(&self.cfg, ctx, payload);
        let seq = self.migrate_msgs;
        self.migrate_msgs += 1;
        self.mig_entries_sent += batch.len() as u64;
        ctx.send(NodeId(dst), DpaMsg::Migrate { seq, entries: batch });
    }

    /// Split an incoming request into the part this node can serve, the
    /// part that must chase forwarding stubs (one `Forward` per new home,
    /// sorted for determinism), and the part that raced ahead of a
    /// `Migrate` still in flight — a consumer with a learned override, or
    /// the old home's own stub, can address this node directly before the
    /// shipment lands; those park in the orphan queue exactly like a
    /// forward that outran its shipment. Pass-through when migration is
    /// off.
    fn triage_request(
        &mut self,
        ctx: &mut Ctx<'_, DpaMsg>,
        src: NodeId,
        mut ptrs: Vec<GPtr>,
    ) -> Vec<GPtr> {
        if self.mig.is_none() {
            return ptrs;
        }
        let me = ctx.me().0;
        let mut serve = Vec::with_capacity(ptrs.len());
        let mut fwd: FxHashMap<u16, Vec<GPtr>> = FxHashMap::default();
        let mut early: Vec<GPtr> = Vec::new();
        {
            let m = self.mig.as_ref().expect("checked above");
            for p in ptrs.drain(..) {
                if let Some(to) = m.forward_target(p) {
                    fwd.entry(to).or_default().push(p);
                } else if p.is_local_to(me) || m.is_adopted(p) {
                    serve.push(p);
                } else {
                    early.push(p);
                }
            }
        }
        self.coal.recycle(ptrs);
        for p in early {
            self.orphans.entry(p).or_default().push(src.0);
            self.orphans_total += 1;
        }
        let mut targets: Vec<u16> = fwd.keys().copied().collect();
        targets.sort_unstable();
        for to in targets {
            let mut entries = fwd.remove(&to).expect("key from this map");
            entries.sort_unstable_by_key(|p| p.bits());
            ctx.charge_overhead(self.cfg.cost.request_entry_ns * entries.len() as u64);
            self.forward_msgs += 1;
            self.forwarded_entries += entries.len() as u64;
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

    /// Answer forwarded pointers this node has adopted, on behalf of
    /// `requester`. A requester other than this node goes through the
    /// normal owner reply machinery; `requester == me` means our own
    /// pre-migration request chased the object here — install it directly,
    /// as if the reply had arrived.
    fn answer_forwarded(&mut self, ctx: &mut Ctx<'_, DpaMsg>, requester: u16, ptrs: Vec<GPtr>) {
        let me = ctx.me();
        if requester == me.0 {
            let objs: Vec<(GPtr, u32)> =
                ptrs.iter().map(|&p| (p, self.app.object_size(p))).collect();
            self.coal.recycle(ptrs);
            self.install_reply(ctx, me, objs);
            return;
        }
        self.answer(ctx, NodeId(requester), ptrs);
    }

    /// Owner side: answer `ptrs` for `src`. Adaptive policy: buffer replies
    /// only while local work is in progress (the buffering overlaps it,
    /// bounded by the deadline wake); an idle or finished owner answers
    /// immediately — quiescence means flush.
    fn answer(&mut self, ctx: &mut Ctx<'_, DpaMsg>, src: NodeId, ptrs: Vec<GPtr>) {
        if self.cfg.reply_agg_window > 1 && !self.stack.is_empty() && !self.done {
            self.enqueue_replies(ctx, src, &ptrs);
        } else {
            let acct = crate::owner::service_request(
                &self.app,
                &self.cfg,
                ctx,
                src,
                &ptrs,
                self.mig.as_ref(),
            );
            self.reply_msgs += acct.msgs;
            self.reply_entries_pushed += acct.entries;
            self.reply_entries_sent += acct.entries;
            for &p in &ptrs {
                let e = self.reply_ptr_acct.entry(p).or_default();
                e.0 += 1;
                e.1 += 1;
            }
        }
        // The consumed payload buffer seeds this node's own request
        // coalescer: in steady state request traffic is allocation-free in
        // both directions.
        self.coal.recycle(ptrs);
    }

    /// One migration epoch: report sampled affinity, then ship this
    /// owner's picks.
    fn run_epoch(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        self.send_affinity(ctx);
        self.ship_migrations(ctx);
    }

    /// Arm the next migration-epoch wake unless one is already armed.
    /// Epochs are event-driven: armed when signal appears (a sampled
    /// remote align, a received affinity report) and re-armed after an
    /// epoch only while epochs keep producing messages. A free-running
    /// timer would keep a stalled machine's event queue alive forever,
    /// turning a lost message into a livelock instead of a diagnosable
    /// stall.
    fn arm_epoch(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        if self.mig.is_none() || self.done || self.next_epoch_at.is_some() {
            return;
        }
        let epoch = self.cfg.migration_epoch_ns;
        // `u64::MAX` is boundary-only mode: affinity still accumulates at
        // align time and ships in the final phase-end report (which is
        // all the boundary promotion/migration decisions need), but no
        // periodic epoch ever fires — arming one would also strand an
        // uncancellable far-future wake in the queue, stretching the
        // phase makespan to the epoch length.
        if epoch == u64::MAX {
            return;
        }
        self.next_epoch_at = Some(ctx.now().as_ns() + epoch);
        ctx.wake_after(Dur::from_ns(epoch));
    }

    fn finish_one_work(&mut self, iter: u32) {
        let live = self
            .iter_live
            .get_mut(&iter)
            .expect("finished work for unknown iteration");
        *live -= 1;
        if *live == 0 {
            self.iter_live.remove(&iter);
            self.completed_iters += 1;
        }
    }

    fn admit(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        self.maybe_retune(ctx);
        while self.iter_live.len() < self.strip && self.next_iter < self.total_iters {
            let iter = self.next_iter as u32;
            self.next_iter += 1;
            let mut env = WorkEnv::with_migration(
                ctx.me().0,
                ctx.num_nodes(),
                Avail::Arrived(&self.arrived),
                self.mig.as_ref(),
            );
            env.reuse_buffer(std::mem::take(&mut self.emit_buf));
            self.app.start_iteration(iter as usize, &mut env);
            let (ns, mut emits) = env.finish();
            ctx.charge_local(ns);
            self.route_emissions(ctx, iter, &mut emits);
            self.emit_buf = emits;
            // An iteration that spawned no threads (nothing, or only
            // reductions) is already complete.
            if !self.iter_live.contains_key(&iter) {
                self.completed_iters += 1;
            }
        }
    }

    fn send_request(&mut self, ctx: &mut Ctx<'_, DpaMsg>, dst: u16, batch: Vec<GPtr>) {
        debug_assert!(!batch.is_empty());
        debug_assert!(dst != ctx.me().0, "self-requests must be routed locally");
        for p in &batch {
            self.in_flight.insert(*p);
        }
        self.peak_in_flight = self.peak_in_flight.max(self.in_flight.len() as u64);
        self.request_msgs += 1;
        self.request_entries_sent += batch.len() as u64;
        ctx.send(NodeId(dst), DpaMsg::Request(batch));
    }

    /// Flow control: may another batch be sent right now? At least one
    /// batch is always allowed when nothing is in flight.
    #[inline]
    fn can_send(&self) -> bool {
        self.in_flight.is_empty() || self.in_flight.len() < self.cfg.max_outstanding
    }

    /// Requester side: install arrived objects and release their aligned
    /// threads (tiling: they will run consecutively).
    ///
    /// Idempotent: a duplicated reply (fault injection) finds the object
    /// already in the arrival set with its request completed and changes
    /// nothing — no double release, no D corruption. The handler overhead
    /// is still charged (the CPU really does re-hash the pointer before
    /// discovering the dup). With migration on, a reply arriving from a
    /// node other than the birth home reveals a re-homing (the serving node
    /// is the adoptee), which is how consumers learn to skip the forwarding
    /// hop next phase.
    fn install_reply(&mut self, ctx: &mut Ctx<'_, DpaMsg>, src: NodeId, mut objs: Vec<(GPtr, u32)>) {
        for (ptr, size) in objs.drain(..) {
            ctx.charge_overhead(self.cfg.cost.reply_install_ns + self.pressure());
            if let Some(m) = self.mig.as_mut() {
                if src.0 != ptr.node() {
                    m.learn_override(ptr, src.0);
                }
            }
            // The wire reply (even a redundant one) retires the in-flight
            // request for this object.
            self.in_flight.remove(&ptr);
            let fresh = self
                .arrived
                .insert_gen(ptr, size, self.app.object_generation(ptr));
            if !fresh && !self.pending.contains(ptr) {
                // Duplicated reply, or the object was already installed by
                // an adoption that completed the request.
                continue;
            }
            let was_pending = self.pending.complete(ptr);
            debug_assert!(was_pending, "unsolicited reply for {ptr}");
            self.installs += 1;
            self.map.release_into(ptr, &mut self.stack);
        }
        self.reply_coal.recycle(objs);
        self.peak_stack = self.peak_stack.max(self.stack.len() as u64);
    }

    /// The scheduling loop: execute, admit, then schedule communication.
    /// Slices itself every `poll_interval_ns` of simulated time.
    fn drive(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        if self.delta_gated {
            // First strip is gated on the boundary deltas: a carried copy
            // might be stale, and running a thread over it before the
            // invalidation lands would read the previous timestep's value.
            return;
        }
        let slice_start = ctx.now();
        let slice = Dur::from_ns(self.cfg.poll_interval_ns);
        loop {
            // Execute ready threads (and keep the admission window full).
            while let Some(t) = self.stack.pop() {
                ctx.charge_overhead(self.cfg.cost.resume_ns + self.pressure());
                let mut env = WorkEnv::with_migration(
                    ctx.me().0,
                    ctx.num_nodes(),
                    Avail::Arrived(&self.arrived),
                    self.mig.as_ref(),
                );
                env.reuse_buffer(std::mem::take(&mut self.emit_buf));
                self.app.run_work(t.work, &mut env);
                let (ns, mut emits) = env.finish();
                ctx.charge_local(ns);
                self.route_emissions(ctx, t.iter, &mut emits);
                self.emit_buf = emits;
                self.finish_one_work(t.iter);
                self.admit(ctx);
                if ctx.now().since(slice_start) >= slice {
                    // Yield to the event loop so incoming requests are
                    // serviced at poll granularity; resume immediately.
                    if !self.wake_scheduled {
                        self.wake_scheduled = true;
                        ctx.wake_after(Dur::ZERO);
                    }
                    return;
                }
            }
            self.admit(ctx);
            if !self.stack.is_empty() {
                continue;
            }

            // Local quiescence: schedule communication. Buffered replies
            // and reductions are flushed unconditionally — there is no
            // local work left to overlap, so holding them would trade
            // latency for nothing.
            let replies = self.reply_coal.drain_all();
            for (dst, batch) in replies {
                self.send_reply(ctx, dst, batch);
            }
            let upd = self.upd_coal.drain_all();
            for (dst, batch) in upd {
                self.send_update(ctx, dst, batch);
            }
            let migs = self.mig_coal.drain_all();
            for (dst, batch) in migs {
                self.send_migrate(ctx, dst, batch);
            }
            if self.cfg.pipeline {
                while self.can_send() {
                    if let Some((dst, batch)) = self.held.pop_front() {
                        self.send_request(ctx, dst, batch);
                    } else if let Some(dst) = self.coal.first_nonempty() {
                        let batch = self.coal.take(dst).expect("nonempty buffer");
                        self.send_request(ctx, dst, batch);
                    } else {
                        break;
                    }
                }
            } else if let Some((dst, batch)) = self.held.pop_front() {
                self.send_request(ctx, dst, batch);
            } else if let Some(dst) = self.coal.first_nonempty() {
                if let Some(batch) = self.coal.take(dst) {
                    self.send_request(ctx, dst, batch);
                }
            }

            // Finished? (Nothing ready, nothing admitted, nothing owed.)
            // With migration, an adoption can complete a pending request
            // whose pointer still sits in the request buffers or on the
            // wire, so the buffers and in-flight set are part of the
            // condition rather than implied by `pending` being empty.
            if self.next_iter == self.total_iters
                && self.iter_live.is_empty()
                && self.pending.is_empty()
                && self.in_flight.is_empty()
                && self.coal.is_empty()
                && self.held.is_empty()
            {
                if self.mig.is_some() {
                    // Final affinity report: owners fold the tail of this
                    // phase's signal into the next boundary's decisions.
                    self.send_affinity(ctx);
                    self.next_epoch_at = None;
                }
                debug_assert!(self.awaiting_deltas.is_empty());
                debug_assert!(self.map.is_empty());
                debug_assert!(self.upd_coal.is_empty());
                debug_assert!(self.reply_coal.is_empty());
                debug_assert!(self.mig_coal.is_empty());
                self.done = true;
            }
            return;
        }
    }
}

impl<A: PtrApp> Proc for DpaProc<A> {
    type Msg = DpaMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        if let StripMode::Adaptive(params) = self.cfg.strip_mode {
            if self.strip_ctl.is_none() {
                let ctl = StripController::new(params, ctx.me().0, STRIP_DITHER_SEED);
                self.strip = ctl.strip();
                self.next_ctl_at = self.strip as u64;
                self.strip_ctl = Some(ctl);
            }
        }
        if self.cfg.migration_enabled() && self.cfg.migration_epoch_ns != u64::MAX {
            let epoch = self.cfg.migration_epoch_ns;
            self.next_epoch_at = Some(ctx.now().as_ns() + epoch);
            ctx.wake_after(Dur::from_ns(epoch));
        }
        // Replica broadcasts go out FIRST, before the boundary deltas.
        // Per-link delivery is FIFO, so a consumer installs the fresh
        // generation (and records it in `replicas_held`) before this
        // owner's PhaseDelta arrives to invalidate the stale one — the
        // delta handler then sees the replica is already current and
        // leaves it alone, instead of invalidating and forcing a demand
        // refetch that races the broadcast. Broadcasts gate nothing, so
        // sending them first cannot deadlock; like the deltas, they go
        // out even if this node is itself delta-gated — an owner must
        // serve its consumers regardless of what it is waiting on.
        self.send_replicate_broadcasts(ctx);
        // Differential boundary deltas go out before this node gates on
        // its own awaited ones, so mutually-carrying nodes cannot
        // deadlock. The all-clear (empty list) is a header-only packet.
        let me = ctx.me().0;
        for (dst, entries) in std::mem::take(&mut self.delta_out) {
            debug_assert!(dst != me, "self-deltas must be pruned by the driver");
            ctx.charge_overhead(self.cfg.cost.request_entry_ns * entries.len() as u64);
            let seq = self.delta_msgs_sent;
            self.delta_msgs_sent += 1;
            self.delta_entries_sent += entries.len() as u64;
            ctx.send(NodeId(dst), DpaMsg::PhaseDelta { seq, entries });
        }
        if self.delta_gated {
            return;
        }
        self.admit(ctx);
        self.drive(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, DpaMsg>, src: NodeId, msg: DpaMsg) {
        match msg {
            DpaMsg::Request(ptrs) => {
                // Requests for departed objects chase their stub one hop.
                let ptrs = self.triage_request(ctx, src, ptrs);
                if ptrs.is_empty() {
                    self.coal.recycle(ptrs);
                    return;
                }
                self.answer(ctx, src, ptrs);
            }
            DpaMsg::Reply(objs) => {
                self.install_reply(ctx, src, objs);
                self.drive(ctx);
            }
            DpaMsg::Update { seq, mut entries } => {
                // Exactly-once application under at-least-once delivery:
                // a duplicated Update message is recognized by its
                // (sender, seq) pair and skipped wholesale.
                if !self.seen_updates.insert((src.0, seq)) {
                    return;
                }
                for (ptr, value) in entries.drain(..) {
                    // Reductions always target the birth home — migration
                    // re-routes the read path only.
                    debug_assert!(ptr.is_local_to(ctx.me().0));
                    ctx.charge_overhead(self.cfg.cost.owner_lookup_ns);
                    self.updates_applied += 1;
                    self.app.apply_update(ptr, value);
                    // Remote writes funnel here too: count them toward the
                    // replica's read-mostly demotion window.
                    if let Some(d) = self.repl.as_mut() {
                        d.note_write(ptr);
                    }
                }
                self.upd_coal.recycle(entries);
            }
            DpaMsg::Affinity { seq, mut entries } => {
                if !self.seen_affinity.insert((src.0, seq)) {
                    return;
                }
                self.aff_entries_recv += entries.len() as u64;
                let me = ctx.me().0;
                if let Some(m) = self.mig.as_mut() {
                    for (ptr, n) in entries.drain(..) {
                        ctx.charge_overhead(self.cfg.cost.map_update_ns);
                        m.record_affinity(ptr, src.0, n as u64, me);
                    }
                    // Fresh counts may push an object over the migration
                    // threshold; make sure an owner epoch will look.
                    self.arm_epoch(ctx);
                }
                self.mig_coal.recycle(entries);
            }
            DpaMsg::Migrate { seq, mut entries } => {
                if !self.seen_migrates.insert((src.0, seq)) {
                    return;
                }
                let me = ctx.me().0;
                let mut orphan_replies: FxHashMap<u16, Vec<(GPtr, u32)>> = FxHashMap::default();
                for (ptr, size) in entries.drain(..) {
                    let adopted = self
                        .mig
                        .as_mut()
                        .expect("Migrate received with migration disabled")
                        .adopt(ptr, size);
                    if !adopted {
                        continue; // duplicate shipment: already adopted
                    }
                    ctx.charge_overhead(self.cfg.cost.reply_install_ns);
                    let gen = self.app.object_generation(ptr);
                    if self.pending.contains(ptr) {
                        // Our own request for this object is outstanding;
                        // adoption doubles as its reply.
                        let fresh = self.arrived.insert_gen(ptr, size, gen);
                        debug_assert!(fresh, "pending object was already installed");
                        let was_pending = self.pending.complete(ptr);
                        debug_assert!(was_pending);
                        self.installs += 1;
                        self.map.release_into(ptr, &mut self.stack);
                    } else {
                        self.arrived.preload_gen(ptr, size, gen);
                    }
                    // Forwards that outran this shipment can now be served.
                    if let Some(reqs) = self.orphans.remove(&ptr) {
                        for r in reqs {
                            self.orphans_served += 1;
                            if r != me {
                                orphan_replies.entry(r).or_default().push((ptr, size));
                            } else {
                                // Our own request chased the object here and
                                // parked; the pending branch above installed
                                // the data, and this shipment is the end of
                                // that request's wire journey — no reply
                                // will ever arrive to retire it.
                                self.in_flight.remove(&ptr);
                            }
                        }
                    }
                }
                self.mig_coal.recycle(entries);
                let mut dsts: Vec<u16> = orphan_replies.keys().copied().collect();
                dsts.sort_unstable();
                for dst in dsts {
                    let batch = orphan_replies.remove(&dst).expect("key from this map");
                    ctx.charge_overhead(self.cfg.cost.owner_lookup_ns * batch.len() as u64);
                    self.reply_entries_pushed += batch.len() as u64;
                    for &(p, _) in &batch {
                        self.reply_ptr_acct.entry(p).or_default().0 += 1;
                    }
                    self.send_reply(ctx, dst, batch);
                }
                self.peak_stack = self.peak_stack.max(self.stack.len() as u64);
                self.drive(ctx);
            }
            DpaMsg::Forward { requester, mut entries } => {
                let mut ready: Vec<GPtr> = Vec::new();
                for ptr in entries.drain(..) {
                    if self.mig.as_ref().is_some_and(|m| m.is_adopted(ptr)) {
                        ready.push(ptr);
                    } else {
                        // The forward outran the Migrate; park until the
                        // shipment lands.
                        self.orphans.entry(ptr).or_default().push(requester);
                        self.orphans_total += 1;
                    }
                }
                self.coal.recycle(entries);
                if !ready.is_empty() {
                    self.answer_forwarded(ctx, requester, ready);
                    self.drive(ctx);
                }
            }
            DpaMsg::PhaseDelta { seq, mut entries } => {
                if !self.seen_deltas.insert((src.0, seq)) {
                    return;
                }
                self.delta_msgs_recv += 1;
                self.delta_entries_recv += entries.len() as u64;
                for ptr in entries.drain(..) {
                    ctx.charge_overhead(self.cfg.cost.map_update_ns);
                    if self.replicas_held.contains_key(&ptr) {
                        // A Replicate broadcast already superseded this
                        // copy with the post-boundary generation (the
                        // broadcast may outrun the delta under reordering);
                        // the invalidation is satisfied, not violated.
                        continue;
                    }
                    if self.arrived.invalidate(ptr) {
                        self.stale_invalidated += 1;
                    }
                }
                self.coal.recycle(entries);
                if self.awaiting_deltas.remove(&src.0)
                    && self.awaiting_deltas.is_empty()
                    && self.delta_gated
                {
                    self.delta_gated = false;
                    self.admit(ctx);
                    self.drive(ctx);
                }
            }
            DpaMsg::Replicate { seq, gen, mut entries } => {
                // Exactly-once install under at-least-once delivery.
                if !self.seen_replicates.insert((src.0, seq)) {
                    return;
                }
                self.repl_entries_recv += entries.len() as u64;
                for (ptr, size) in entries.drain(..) {
                    ctx.charge_overhead(self.cfg.cost.reply_install_ns + self.pressure());
                    debug_assert_eq!(
                        ptr.node(),
                        src.0,
                        "replica broadcast from a non-owner for {ptr}"
                    );
                    self.replicas_held.insert(ptr, gen);
                    if self.pending.contains(ptr) {
                        // The broadcast raced our own demand request;
                        // it doubles as the reply.
                        let fresh = self.arrived.insert_gen(ptr, size, gen);
                        debug_assert!(fresh, "pending object was already installed");
                        let was_pending = self.pending.complete(ptr);
                        debug_assert!(was_pending);
                        self.installs += 1;
                        self.map.release_into(ptr, &mut self.stack);
                    } else {
                        // Supersede any carried copy outright: the
                        // broadcast may outrun the owner's PhaseDelta, and
                        // a stale carry must never survive behind the
                        // fresh-replica guard.
                        self.arrived.invalidate(ptr);
                        self.arrived.preload_gen(ptr, size, gen);
                    }
                }
                self.reply_coal.recycle(entries);
                self.peak_stack = self.peak_stack.max(self.stack.len() as u64);
                self.drive(ctx);
            }
        }
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        self.wake_scheduled = false;
        let now = ctx.now().as_ns();
        if self.next_epoch_at.is_some_and(|t| t <= now) {
            self.next_epoch_at = None;
            if !self.done {
                let aff_before = self.affinity_msgs;
                let mig_before = self.mig_entries_pushed;
                self.run_epoch(ctx);
                // Re-arm only while epochs are productive; an idle epoch
                // stops ticking and the next sampled align or affinity
                // report re-arms (`arm_epoch`).
                if self.affinity_msgs > aff_before || self.mig_entries_pushed > mig_before {
                    self.arm_epoch(ctx);
                }
            }
        }
        self.flush_due(ctx);
        self.drive(ctx);
    }

    fn quiescent(&self) -> bool {
        self.done
    }

    fn stall_detail(&self) -> Option<String> {
        if self.done {
            return None;
        }
        let stuck = self.pending.sorted_sample(4);
        let mut detail = format!(
            "iters {}/{} done, {} live; D={} in_flight={} M={} keys/{} threads; stuck on [{}]",
            self.completed_iters,
            self.total_iters,
            self.iter_live.len(),
            self.pending.len(),
            self.in_flight.len(),
            self.map.keys(),
            self.map.live_threads(),
            stuck.join(", ")
        );
        if let Some(m) = &self.mig {
            let orphaned: usize = self.orphans.values().map(Vec::len).sum();
            detail.push_str(&format!(
                "; mig: {} adopted, {} departed, {} orphaned",
                m.adopted_len(),
                m.departed_len(),
                orphaned
            ));
        }
        if let Some(ctl) = &self.strip_ctl {
            detail.push_str(&format!(
                "; strip={} after {} retunes",
                self.strip,
                ctl.retunes()
            ));
        }
        if !self.awaiting_deltas.is_empty() {
            let mut homes: Vec<u16> = self.awaiting_deltas.iter().copied().collect();
            homes.sort_unstable();
            detail.push_str(&format!("; gated awaiting deltas from {homes:?}"));
        }
        if let Some(d) = &self.repl {
            detail.push_str(&format!(
                "; repl: {} dir entries, {} held, {} bcast msgs",
                d.len(),
                self.replicas_held.len(),
                self.replicate_msgs
            ));
        }
        Some(detail)
    }

    fn on_finish(&mut self, stats: &mut NodeStats) {
        stats.bump("iterations", self.completed_iters);
        stats.bump("threads_created", self.threads_created);
        stats.bump("threads_aligned", self.map.total_aligned());
        stats.bump("peak_aligned_threads", self.map.peak_threads());
        stats.bump("peak_map_keys", self.map.peak_keys());
        stats.bump("peak_pending_requests", self.pending.peak());
        stats.bump("requests_issued", self.pending.total());
        stats.bump("request_msgs", self.request_msgs);
        stats.bump("reply_msgs", self.reply_msgs);
        stats.bump("peak_ready_stack", self.peak_stack);
        stats.bump("renamed_peak_bytes", self.arrived.peak_bytes());
        stats.bump("remote_objects_fetched", self.arrived.total_inserts());
        stats.bump(
            "thread_state_peak_bytes",
            self.map.peak_threads() * self.app.work_state_bytes() as u64,
        );
        // Per-path aggregation factors (entries per message, x1000). The
        // request and update paths read their coalescers; the reply path
        // covers both the scheduler and the immediate-service path, so it
        // is computed from the wire counters.
        stats.bump(
            "req_agg_factor_milli",
            (self.coal.aggregation_factor() * 1000.0) as u64,
        );
        stats.bump(
            "upd_agg_factor_milli",
            (self.upd_coal.aggregation_factor() * 1000.0) as u64,
        );
        let reply_agg = if self.reply_msgs == 0 {
            0.0
        } else {
            self.reply_entries_sent as f64 / self.reply_msgs as f64
        };
        stats.bump("reply_agg_factor_milli", (reply_agg * 1000.0) as u64);
        stats.bump("request_entries", self.request_entries_sent);
        stats.bump("reply_entries", self.reply_entries_sent);
        stats.bump("update_entries", self.update_entries_sent);
        stats.bump("peak_in_flight", self.peak_in_flight);
        stats.bump("updates_emitted", self.updates_emitted);
        stats.bump("updates_applied", self.updates_applied);
        stats.bump("update_msgs", self.update_msgs);
        // Strip-controller columns only exist in adaptive runs, so the
        // fixed-strip stat tables stay byte-identical.
        if let Some(ctl) = &self.strip_ctl {
            let sched = ctl.schedule();
            stats.bump("strip_retunes", ctl.retunes());
            stats.bump("strip_final", self.strip as u64);
            stats.bump("strip_min_applied", sched.iter().copied().min().unwrap_or(0) as u64);
            stats.bump("strip_max_applied", sched.iter().copied().max().unwrap_or(0) as u64);
            stats.bump("strip_reversals_damped", ctl.reversals_damped());
        }
        // Differential columns only exist in differential runs, so every
        // other stat table stays byte-identical.
        if self.cfg.differential {
            stats.bump("delta_msgs", self.delta_msgs_sent);
            stats.bump("delta_entries", self.delta_entries_sent);
            stats.bump("carried_entries", self.carried_in);
            stats.bump("stale_invalidated", self.stale_invalidated);
        }
        // Replication columns only exist in replication runs, so every
        // other stat table stays byte-identical.
        if self.cfg.replication {
            stats.bump("replicate_msgs", self.replicate_msgs);
            stats.bump("replicate_entries", self.repl_entries_sent);
            stats.bump("replica_installs", self.repl_entries_recv);
            stats.bump("replicas_held", self.replicas_held.len() as u64);
            if let Some(d) = &self.repl {
                stats.bump("replicated_ptrs", d.len() as u64);
                stats.bump("replica_promotions", d.promotions());
                stats.bump("replica_demotions", d.demotions());
            }
        }
        // Migration columns only exist in migration runs, so the baseline
        // stat tables stay byte-identical.
        if let Some(m) = &self.mig {
            stats.bump("affinity_msgs", self.affinity_msgs);
            stats.bump("affinity_entries", self.aff_entries_sent);
            stats.bump("migrate_msgs", self.migrate_msgs);
            stats.bump("migrate_entries", self.mig_entries_sent);
            stats.bump("forward_msgs", self.forward_msgs);
            stats.bump("forward_entries", self.forwarded_entries);
            stats.bump("objects_adopted", m.migrations_in());
            stats.bump("objects_departed", m.migrations_out());
            stats.bump("overrides_learned", m.overrides_learned());
            stats.bump("orphans_served", self.orphans_served);
        }
    }
}
