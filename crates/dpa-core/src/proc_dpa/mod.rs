//! The DPA node driver: strip-mined thread scheduling plus communication
//! scheduling, as a [`sim_net::Proc`].
//!
//! Per node, the driver maintains the paper's two runtime structures —
//! **M**, the pointer→dependent-threads mapping ([`PointerMap`]), and
//! **D**, the outstanding-request table, which is M's key set (a request
//! is outstanding exactly while threads wait under its pointer; see
//! [`crate::mapping`]) — plus the per-destination coalescing buffers of
//! the communication scheduler.
//!
//! Scheduling template (the paper's Figure 14 shape):
//!
//! 1. **Admit** — keep at most one strip's worth of top-level iterations
//!    live (k-bounded loop); admitting an iteration runs its creation
//!    code, which emits pointer-labeled dependent threads. The strip is
//!    the paper's static `k` ([`DpaConfig::strip`]).
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
//! Long drives are sliced every 40 µs of simulated time so the node
//! services incoming requests at realistic polling granularity (the paper
//! notes poll placement was hand-tuned in their codes).
//!
//! # Mode states
//!
//! That is the whole of the paper's runtime, and all a paper
//! configuration ([`DpaConfig::dpa`], [`Policy::Cache`]) carries. The
//! extensions are optional states on [`DpaProc`], each `Some` exactly
//! when the config asks for it (until [`DpaProc::take_carry`] retires the
//! proc), each in its own module with its fields, its protocol arms and
//! its share of the carry, the snapshot, the stall report and the stats:
//!
//! | state | `Some` under | messages | module |
//! |---|---|---|---|
//! | `aff` | `Policy::Replicate` | `Affinity` | `affinity` |
//! | `diff` | `differential` | `PhaseDelta` | `differential` |
//! | `repl` | `Policy::Replicate` | `Replicate` | `replicate` |
//!
//! Every node of a machine runs the same config, so a mode's message can
//! only reach a node whose mode is off from a scripted peer; it is
//! refused, and its entries count with the misrouted.

mod affinity;
mod differential;
mod replicate;

use crate::config::{ConfigError, DpaConfig, Policy, Variant, POLL_INTERVAL_NS};
use crate::invariant::NodeSnapshot;
use crate::live::LiveIters;
use crate::mapping::PointerMap;
use crate::msg::{DpaMsg, Payloads, SeqChannel};
use crate::work::{Avail, Emit, PtrApp, Tagged, WorkEnv, NO_GEN};
use affinity::AffinityState;
use differential::DiffState;
use fastmsg::{ByteCoalescer, Coalescer, FlushReason};
use global_heap::{AffinityTable, ArrivalSet, FxHashMap, FxHashSet, GPtr, ReplicaDirectory};
use replicate::ReplState;
use sim_net::{Ctx, Dur, NodeId, NodeStats, Proc};
use std::collections::VecDeque;

/// Wire bytes of one `(pointer, f64)` reduction entry.
const UPDATE_ENTRY_BYTES: u64 = GPtr::WIRE_BYTES as u64 + 8;

/// Everything one node hands across a phase barrier: taken from phase
/// *k*'s proc by [`DpaProc::take_carry`], patched by the boundary pass
/// ([`crate::boundary`]), installed into phase *k+1*'s proc by
/// [`DpaProc::install_carry`]. Each part rides only when the config asks
/// for it.
pub struct PhaseCarry<W> {
    /// `Replicate`: the owner-side affinity counts the promotion policy
    /// reads.
    pub(crate) affinity: Option<AffinityTable>,
    /// `Replicate`: the owner-side directory, windows closed.
    pub(crate) replication: Option<ReplicaDirectory>,
    /// `differential`: M (and with it D) — the interner and the warmed
    /// record slab travel instead of being rebuilt.
    pub(crate) tables: Option<PointerMap<(u32, W)>>,
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

/// Which buffered batches a flush takes.
#[derive(Clone, Copy)]
enum Drain {
    /// Destinations whose oldest entry was buffered `deadline` ns before
    /// `now` or earlier.
    Due { now: u64, deadline: u64 },
    /// Everything.
    All,
}

impl Drain {
    /// The next batch to send, lowest destination first.
    fn pop<T>(self, coal: &mut ByteCoalescer<T>) -> Option<(u16, Vec<T>)> {
        match self {
            Drain::Due { now, deadline } => coal.pop_due(now, deadline),
            Drain::All => coal.pop_first(),
        }
    }
}

/// Group a fan-out by destination so that its send order (and with it the
/// seq assignment) is a function of the keys alone: `(key, item)` pairs
/// come back as `(key, items)` groups in ascending key order, each group
/// in the order its items were listed. Keys are nodes (at most paired with
/// a generation), a few dozen, so finding a group is a linear probe.
fn fan_out<K: Copy + Ord, T>(items: impl IntoIterator<Item = (K, T)>) -> Vec<(K, Vec<T>)> {
    let mut groups: Vec<(K, Vec<T>)> = Vec::new();
    for (key, item) in items {
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, group)) => group.push(item),
            None => groups.push((key, vec![item])),
        }
    }
    groups.sort_unstable_by_key(|&(key, _)| key);
    groups
}

/// A DPA node: the application's per-node instance plus runtime state.
pub struct DpaProc<A: PtrApp> {
    app: A,
    cfg: DpaConfig,
    /// Ready non-blocking threads (depth-first stack).
    stack: Vec<Tagged<A::Work>>,
    /// M: pointer → aligned dependent threads, as `(slot, work)`, where
    /// the slot is the thread's iteration's in `live`. A waiting thread
    /// has no generation to carry yet — the copy that will release it has
    /// not arrived — so M keeps four bytes a thread less than the ready
    /// stack does. Its key set is D: the pointers with a request
    /// outstanding (buffered or in flight).
    map: PointerMap<(u32, A::Work)>,
    /// Renamed storage: remote objects fetched so far this phase.
    arrived: ArrivalSet,
    /// Per-destination request batching. This and the two byte-budgeted
    /// coalescers take their buffers from the machine's [`Payloads`].
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
    /// The affinity signal, `Some` under `Replicate`.
    aff: Option<AffinityState>,
    /// Differential re-alignment, `Some` iff `cfg.differential`.
    diff: Option<DiffState>,
    /// Read-mostly replication, `Some` under `Replicate`.
    repl: Option<ReplState>,
    /// Request entries for objects this node was not born with, `Reply`
    /// entries for objects it never asked for, `Update` and `Replicate`
    /// entries for objects born elsewhere, and every entry of a mode
    /// message whose mode is off. No node of a real machine sends one (a
    /// request and a reduction go to the target's birth home, an owner
    /// answers and broadcasts only its own objects, and every node runs
    /// the same config), so they are refused and counted, and the count is
    /// a violation.
    misrouted: u64,
    /// Objects installed (a pending request completed with data — by a
    /// reply, or by a replica broadcast that doubled as one).
    installs: u64,
    /// Live thread count per open iteration, one slot each.
    live: LiveIters,
    next_iter: usize,
    total_iters: usize,
    completed_iters: u64,
    threads_created: u64,
    peak_stack: u64,
    /// Objects with requests currently in flight (sent, reply pending).
    /// A set rather than a count: a replica broadcast can complete a
    /// pending request whose wire reply arrives later, and set removal
    /// stays exact where a counter would drift.
    in_flight: FxHashSet<GPtr>,
    peak_in_flight: u64,
    request_msgs: u64,
    reply_msgs: u64,
    /// The `Update` channel: reductions must apply exactly once.
    updates: SeqChannel,
    updates_emitted: u64,
    updates_applied: u64,
    /// Request entries put on the wire (conservation vs. `coal` pushes).
    request_entries_sent: u64,
    /// Reply entries accepted for sending (immediate or buffered).
    reply_entries_pushed: u64,
    /// Reply entries put on the wire (conservation vs. pushes).
    reply_entries_sent: u64,
    /// Reply messages that never waited in `reply_coal` — an idle or
    /// finished owner answering at once — as (cut at the MTU, the rest of
    /// the answer): the second is a quiescence flush by another road.
    replies_at_once: (u64, u64),
    /// Per-pointer reply accounting `(pushed, sent)` — the hot-key
    /// conservation oracle. A skewed workload funnels most reply traffic
    /// through a few hub objects; this map proves no per-key entry is
    /// lost or invented across the scheduler and immediate-service paths
    /// (the aggregate counters above would mask a bug that
    /// drops a hub entry while inventing one elsewhere).
    reply_ptr_acct: FxHashMap<GPtr, (u64, u64)>,
    /// Recycled emission buffer threaded through every [`WorkEnv`] this
    /// node builds, so the run-work hot loop emits without allocating.
    emit_buf: Vec<Emit<A::Work>>,
    wake_scheduled: bool,
    done: bool,
}

impl<A: PtrApp> DpaProc<A> {
    /// Wrap one node's application instance under `cfg`.
    ///
    /// `nodes` is the machine size (drives coalescer sizing). Panics on
    /// what [`DpaProc::try_new`] returns as an `Err`.
    pub fn new(app: A, nodes: usize, cfg: DpaConfig) -> DpaProc<A> {
        match Self::try_new(app, nodes, cfg) {
            Ok(p) => p,
            Err(e) => panic!("invalid DpaConfig: {e}"),
        }
    }

    /// Like [`DpaProc::new`] but rejects a degenerate config
    /// ([`DpaConfig::validate`]) or a variant other than [`Variant::Dpa`]
    /// / [`Variant::Sequential`] — the baselines have their own driver —
    /// with a clear [`ConfigError`] instead of a hang or panic deep in the
    /// run.
    pub fn try_new(app: A, nodes: usize, cfg: DpaConfig) -> Result<DpaProc<A>, ConfigError> {
        if !matches!(cfg.variant, Variant::Dpa | Variant::Sequential) {
            return Err(ConfigError::WrongDriver(cfg.variant));
        }
        cfg.validate()?;
        let mtu = cfg.mtu.0 as u64;
        let total_iters = app.num_iterations();
        let (aff, repl) = match cfg.policy {
            Policy::Cache => (None, None),
            Policy::Replicate => (Some(AffinityState::new(nodes)), Some(ReplState::new(nodes))),
        };
        Ok(DpaProc {
            stack: Vec::new(),
            map: PointerMap::new(),
            arrived: ArrivalSet::new(),
            // Without pipelining, batches are held rather than auto-sent,
            // so the window can stay as configured; `held` captures
            // overflow.
            coal: Coalescer::new(nodes, cfg.agg_window),
            held: VecDeque::new(),
            upd_coal: ByteCoalescer::new(nodes, mtu, cfg.agg_window),
            reply_coal: ByteCoalescer::new(nodes, mtu, cfg.reply_agg_window),
            flush_wake_at: None,
            aff,
            diff: cfg.differential.then(|| DiffState::new(nodes)),
            repl,
            misrouted: 0,
            installs: 0,
            live: LiveIters::new(cfg.strip.min(total_iters)),
            next_iter: 0,
            total_iters,
            completed_iters: 0,
            threads_created: 0,
            peak_stack: 0,
            in_flight: FxHashSet::default(),
            peak_in_flight: 0,
            request_msgs: 0,
            reply_msgs: 0,
            updates: SeqChannel::new(nodes),
            updates_emitted: 0,
            updates_applied: 0,
            request_entries_sent: 0,
            reply_entries_pushed: 0,
            reply_entries_sent: 0,
            replies_at_once: (0, 0),
            reply_ptr_acct: FxHashMap::default(),
            emit_buf: Vec::new(),
            wake_scheduled: false,
            done: false,
            app,
            cfg,
        })
    }

    /// The wrapped application (post-run inspection).
    pub fn app(&self) -> &A {
        &self.app
    }

    /// The most live-count slots this node ever held: the most iterations
    /// open at once (never more than the strip).
    pub fn peak_live_window(&self) -> usize {
        self.live.peak_slots()
    }

    /// Take everything this node hands across the phase barrier (driver
    /// use, after the machine stops; the proc is spent afterwards); see
    /// [`PhaseCarry`] for what rides under which config flag.
    pub fn take_carry(&mut self) -> PhaseCarry<A::Work> {
        let demote = self.cfg.replication_write_demote;
        let (mut arrivals, mut tables) = (Vec::new(), None);
        if self.diff.is_some() {
            arrivals.extend(self.arrived.entries());
            arrivals.sort_unstable_by_key(|&(p, _, _)| p.bits());
            tables = Some(std::mem::take(&mut self.map));
        }
        PhaseCarry {
            affinity: self.aff.take().map(|a| a.table),
            replication: self.repl.take().map(|r| r.into_carry(demote)),
            tables,
            arrivals,
            awaiting: Vec::new(),
            deltas: Vec::new(),
        }
    }

    /// Install the previous phase's carry, as patched by the boundary pass
    /// (driver use, before the machine starts).
    pub fn install_carry(&mut self, carry: PhaseCarry<A::Work>) {
        if let (Some(a), Some(table)) = (self.aff.as_mut(), carry.affinity) {
            a.table = table;
        }
        if let Some(mut map) = carry.tables {
            // M is *patched* for reuse — per-phase state reset, interner
            // kept; see [`PointerMap::reset_for_phase`].
            map.reset_for_phase();
            self.map = map;
        }
        if let (Some(r), Some(dir)) = (self.repl.as_mut(), carry.replication) {
            r.install_carry(dir);
        }
        if let Some(d) = self.diff.as_mut() {
            d.install_carry(
                carry.arrivals,
                carry.awaiting,
                carry.deltas,
                &mut self.arrived,
            );
        }
    }

    /// Export the runtime-state counters the DST invariant checker needs
    /// (see [`crate::invariant`]). `node` is this proc's node id (the proc
    /// itself does not know it outside a message context). Each mode state
    /// fills in its own fields; they stay zero / empty when it is off.
    pub fn snapshot(&self, node: u16) -> NodeSnapshot {
        let held_entries: usize = self.held.iter().map(|(_, b)| b.len()).sum();
        // Hottest reply keys by entries pushed, ties broken by pointer
        // bits so the export (and thus DST fingerprints) is deterministic.
        let mut reply_hot: Vec<(u64, u64, u64)> = self
            .reply_ptr_acct
            .iter()
            .map(|(p, &(pushed, sent))| (p.bits(), pushed, sent))
            .collect();
        reply_hot.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        reply_hot.truncate(8);
        let mut snap = NodeSnapshot {
            node,
            map_keys: self.map.keys(),
            map_threads: self.map.live_threads(),
            pending_requests: self.map.keys(),
            pending_sample: self.map.sorted_sample(4),
            in_flight: self.in_flight.len(),
            requests_issued: self.map.first_alignments(),
            objects_installed: self.installs,
            req_pushed: self.coal.total_pushed(),
            req_sent: self.request_entries_sent,
            req_buffered: self.coal.pending() + held_entries,
            updates_emitted: self.updates_emitted,
            updates_applied: self.updates_applied,
            upd_sent: self.updates.entries_sent,
            upd_buffered: self.upd_coal.pending(),
            reply_pushed: self.reply_entries_pushed,
            reply_sent: self.reply_entries_sent,
            reply_buffered: self.reply_coal.pending(),
            reply_hot,
            request_msgs: self.request_msgs,
            reply_msgs: self.reply_msgs,
            update_msgs: self.updates.msgs_sent,
            misrouted_requests: self.misrouted + self.updates.refused(),
            stale_cache_entries: self
                .arrived
                .entries()
                .filter(|&(p, _, gen)| gen != self.app.object_generation(p))
                .count(),
            ..NodeSnapshot::default()
        };
        if let Some(a) = &self.aff {
            a.snapshot(&mut snap);
        }
        if let Some(d) = &self.diff {
            d.snapshot(&mut snap);
        }
        if let Some(r) = &self.repl {
            r.snapshot(&mut snap);
        }
        snap
    }

    #[inline]
    fn pressure(&self) -> u64 {
        self.cfg.cost.pressure_extra_ns(self.map.live_threads())
    }

    /// Run one piece of application code — an iteration's creation code
    /// (`label_gen` = `NO_GEN`) or a ready thread (its [`Tagged::gen`]) —
    /// then charge what it computed and route what it emitted under its
    /// iteration's `slot`. Every env shares one recycled emit buffer.
    // Forced: the app's `run_work` must inline into the drive loop. Left
    // to the inliner's discretion, setops_rw loses 8 % of its events/s.
    #[inline(always)]
    fn run_app(
        &mut self,
        ctx: &mut Ctx<'_, DpaMsg>,
        slot: u32,
        label_gen: u32,
        code: impl FnOnce(&mut A, &mut WorkEnv<'_, A::Work>),
    ) {
        let mut env = WorkEnv::new(ctx.me().0, ctx.num_nodes(), Avail::Arrived(&self.arrived))
            .labeled(label_gen);
        env.reuse_buffer(std::mem::take(&mut self.emit_buf));
        code(&mut self.app, &mut env);
        let (ns, mut emits) = env.finish();
        ctx.charge_local(ns);
        // Most threads are leaves of the thread tree and emit nothing.
        if !emits.is_empty() {
            self.route_emissions(ctx, slot, &mut emits);
        }
        self.emit_buf = emits;
    }

    /// Route the emissions of one finished work/creation, tagging them
    /// with their iteration's `slot`. Drains `emits` in place so the
    /// caller can recycle the buffer's capacity for the next work item.
    ///
    /// Bookkeeping is paid per work call, not per thread: the threads join
    /// the live-count table in one step, and their overheads (creation,
    /// alignment, request entry) are summed and charged before anything
    /// that reads or stamps the clock — a request batch sent, a reduction
    /// pushed or applied — and once at the end. A charge only adds to the
    /// clock and the overhead stat, and the trace merges adjacent overhead
    /// spans, so every send time, stat and span is the one that charging
    /// each thread as it is routed would give.
    fn route_emissions(
        &mut self,
        ctx: &mut Ctx<'_, DpaMsg>,
        slot: u32,
        emits: &mut Vec<Emit<A::Work>>,
    ) {
        let me = ctx.me().0;
        let mut threads = 0u32;
        // Overhead of the threads routed since the last charge.
        let mut owed = 0u64;
        // Reverse so that, popped from the stack, work runs in emission
        // order (depth-first).
        for e in emits.drain(..).rev() {
            let (ptr, work) = match e {
                Emit::Accum(ptr, value) => {
                    // Reductions are not threads: apply locally or batch for
                    // the owner; no alignment, no iteration accounting.
                    if owed > 0 {
                        ctx.charge_overhead(std::mem::take(&mut owed));
                    }
                    self.updates_emitted += 1;
                    if ptr.is_local_to(me) {
                        self.apply_update(ctx, ptr, value);
                    } else {
                        ctx.charge_overhead(self.cfg.cost.request_entry_ns);
                        let now = ctx.now().as_ns();
                        let fresh = |n| Payloads::of(ctx).updates.take_for(n);
                        for batch in self.upd_coal.push_with(
                            ptr.node(),
                            (ptr, value),
                            UPDATE_ENTRY_BYTES,
                            now,
                            fresh,
                        ) {
                            self.send_update(ctx, ptr.node(), batch);
                        }
                    }
                    continue;
                }
                Emit::Local(work) => {
                    threads += 1;
                    owed += self.cfg.cost.thread_create_ns;
                    self.stack.push(Tagged {
                        slot,
                        gen: NO_GEN,
                        work,
                    });
                    continue;
                }
                Emit::Demand(ptr, work) => (ptr, work),
            };
            threads += 1;
            owed += self.cfg.cost.thread_create_ns;
            let home = ptr.node();
            // The label is resolved here, once: what renamed storage holds
            // for it rides with the thread. An object born here is never
            // fetched, so it is not looked up at all.
            let held = if home == me {
                None
            } else {
                self.arrived.generation(ptr)
            };
            if home == me || held.is_some() {
                // Data already here: immediately ready.
                let gen = held.unwrap_or(NO_GEN);
                self.stack.push(Tagged { slot, gen, work });
                continue;
            }
            owed += self.cfg.cost.map_update_ns + self.pressure();
            let first = self.map.align(ptr, (slot, work));
            self.sample_affinity(ptr);
            // The first thread aligned under a pointer opens its request.
            if first {
                owed += self.cfg.cost.request_entry_ns;
                let fresh = |n| Payloads::of(ctx).ptrs.take_for(n);
                if let Some(batch) = self.coal.push_with(home, ptr, fresh) {
                    if self.cfg.pipeline {
                        ctx.charge_overhead(std::mem::take(&mut owed));
                        self.send_request(ctx, home, batch);
                    } else {
                        self.held.push_back((home, batch));
                    }
                }
            }
        }
        // A call that emitted only reductions owes nothing and adds no
        // thread; skipping its empty charge (and the one before each
        // reduction) is worth 4 % of `setops_rw`'s events/s.
        if threads > 0 {
            ctx.charge_overhead(owed);
            self.threads_created += u64::from(threads);
            self.live.add_n(slot, threads);
        }
        self.peak_stack = self.peak_stack.max(self.stack.len() as u64);
    }

    /// Fold one reduction entry into the locally-born object it targets
    /// (callers check the birth home). Single-writer: every write, local or
    /// received, funnels through the birth home, which is where the replica
    /// directory counts it toward the read-mostly demotion window.
    fn apply_update(&mut self, ctx: &mut Ctx<'_, DpaMsg>, ptr: GPtr, value: f64) {
        ctx.charge_overhead(self.cfg.cost.owner_lookup_ns);
        self.updates_applied += 1;
        self.app.apply_update(ptr, value);
        if let Some(r) = self.repl.as_mut() {
            r.note_write(ptr);
        }
    }

    fn send_update(&mut self, ctx: &mut Ctx<'_, DpaMsg>, dst: u16, batch: Vec<(GPtr, f64)>) {
        debug_assert!(!batch.is_empty());
        let seq = self.updates.stamp(dst, batch.len());
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
        crate::owner::charge_lookups(&self.cfg, ctx, ptrs);
        for &p in ptrs {
            let size = self.app.object_size(p);
            self.reply_entries_pushed += 1;
            self.reply_ptr_acct.entry(p).or_default().0 += 1;
            let entry_bytes = (size + GPtr::WIRE_BYTES) as u64;
            let fresh = |n| Payloads::of(ctx).replies.take_for(n);
            for batch in self
                .reply_coal
                .push_with(src.0, (p, size), entry_bytes, now, fresh)
            {
                self.send_reply(ctx, src.0, batch);
            }
        }
        self.ensure_flush_wake(ctx);
    }

    /// Send what `mode` takes out of the two byte-budgeted buffers:
    /// replies and reductions.
    fn flush(&mut self, ctx: &mut Ctx<'_, DpaMsg>, mode: Drain) {
        while let Some((dst, batch)) = mode.pop(&mut self.reply_coal) {
            self.send_reply(ctx, dst, batch);
        }
        while let Some((dst, batch)) = mode.pop(&mut self.upd_coal) {
            self.send_update(ctx, dst, batch);
        }
    }

    /// When the oldest entry buffered for [`flush`](Self::flush) comes due
    /// (`None` when nothing is buffered).
    fn next_flush_due(&self) -> Option<u64> {
        let deadline = self.cfg.reply_flush_deadline_ns;
        [
            self.reply_coal.next_due(deadline),
            self.upd_coal.next_due(deadline),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Flush every buffered reply/update destination whose oldest entry
    /// has aged past the deadline, then re-arm the wake for what remains.
    fn flush_due(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        // Fast path for the common wake: nothing buffered anywhere and no
        // wake armed means every branch below is a no-op. Self-wake poll
        // slices land here once per event on the hot path.
        if self.flush_wake_at.is_none() && self.reply_coal.is_empty() && self.upd_coal.is_empty() {
            return;
        }
        let now = ctx.now().as_ns();
        if self.flush_wake_at.is_some_and(|t| t <= now) {
            self.flush_wake_at = None;
        }
        let deadline = self.cfg.reply_flush_deadline_ns;
        self.flush(ctx, Drain::Due { now, deadline });
        self.ensure_flush_wake(ctx);
    }

    /// Arm a deadline wake covering the oldest buffered reply/update entry
    /// (no-op when nothing is buffered or an earlier wake is already
    /// armed). This is what guarantees a buffered batch can never be
    /// stranded: every enqueue path ends with a wake at its deadline.
    fn ensure_flush_wake(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        if let Some(due) = self.next_flush_due() {
            if self.flush_wake_at.is_none_or(|t| due < t) {
                self.flush_wake_at = Some(due);
                let now = ctx.now().as_ns();
                ctx.wake_after(Dur::from_ns(due.saturating_sub(now)));
            }
        }
    }

    /// Owner side: answer `ptrs` for `src`. Adaptive policy: buffer replies
    /// only while local work is in progress (the buffering overlaps it,
    /// bounded by the deadline wake); an idle or finished owner answers
    /// immediately — quiescence means flush.
    fn answer(&mut self, ctx: &mut Ctx<'_, DpaMsg>, src: NodeId, ptrs: Vec<GPtr>) {
        if self.cfg.reply_agg_window > 1 && !self.stack.is_empty() && !self.done {
            self.enqueue_replies(ctx, src, &ptrs);
        } else {
            let acct = crate::owner::service_request(&self.app, &self.cfg, ctx, src, &ptrs);
            self.replies_at_once.0 += acct.msgs.saturating_sub(1);
            self.replies_at_once.1 += acct.msgs.min(1);
            self.reply_msgs += acct.msgs;
            self.reply_entries_pushed += acct.entries;
            self.reply_entries_sent += acct.entries;
            for &p in &ptrs {
                let e = self.reply_ptr_acct.entry(p).or_default();
                e.0 += 1;
                e.1 += 1;
            }
        }
        // The consumed payload buffer feeds the machine's request batches:
        // in steady state request traffic is allocation-free in both
        // directions.
        Payloads::of(ctx).ptrs.put(ptrs);
    }

    fn finish_one_work(&mut self, slot: u32) {
        if self.live.finish(slot) {
            self.completed_iters += 1;
        }
    }

    /// `true` while the strip has room and iterations remain.
    #[inline]
    fn admission_open(&self) -> bool {
        self.live.len() < self.cfg.strip && self.next_iter < self.total_iters
    }

    fn admit(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        while self.admission_open() {
            let iter = self.next_iter;
            self.next_iter += 1;
            let slot = self.live.open();
            self.run_app(ctx, slot, NO_GEN, |app, env| app.start_iteration(iter, env));
            // An iteration that spawned no threads (nothing, or only
            // reductions) is already complete.
            if !self.live.is_live(slot) {
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

    /// Data for `ptr` reached this node: a reply, or a replica broadcast
    /// that doubles as one. If a request for it is pending — threads wait
    /// under it in M — that request completes: the object enters renamed
    /// storage and every thread aligned under it is released to run
    /// consecutively (tiling). Returns `false`, changing nothing, when no
    /// request is waiting on it.
    fn install(&mut self, ptr: GPtr, size: u32, gen: u32) -> bool {
        let Some(chain) = self.map.waiting(ptr) else {
            return false;
        };
        self.installs += 1;
        // A copy that was already held keeps its own stamp.
        let held = if self.arrived.insert_gen(ptr, size, gen) {
            gen
        } else {
            self.arrived.generation(ptr).unwrap_or(gen)
        };
        self.map
            .release_chain(chain, &mut self.stack, |(slot, work)| Tagged {
                slot,
                gen: held,
                work,
            });
        self.peak_stack = self.peak_stack.max(self.stack.len() as u64);
        true
    }

    /// Requester side: install the objects of one reply.
    ///
    /// Idempotent: a duplicated reply (fault injection) — or one for an
    /// object a broadcast already installed — finds the object in the
    /// arrival set with its request completed and changes nothing: no
    /// double release, no D corruption. The handler overhead is still
    /// charged (the CPU really does re-hash the pointer before discovering
    /// the dup), and the wire reply, even a redundant one, retires the
    /// in-flight request for its object. An entry for an object this node
    /// neither waits for nor holds was never asked for: it is refused —
    /// nothing enters renamed storage — and counted with the misrouted.
    fn install_reply(&mut self, ctx: &mut Ctx<'_, DpaMsg>, mut objs: Vec<(GPtr, u32)>) {
        for (ptr, size) in objs.drain(..) {
            ctx.charge_overhead(self.cfg.cost.reply_install_ns + self.pressure());
            let installed = self.install(ptr, size, self.app.object_generation(ptr));
            if !installed && !self.arrived.contains(ptr) {
                self.misrouted += 1;
                continue;
            }
            self.in_flight.remove(&ptr);
        }
        Payloads::of(ctx).replies.put(objs);
    }

    /// The scheduling loop: execute, admit, then schedule communication.
    /// Slices itself every [`POLL_INTERVAL_NS`] of simulated time.
    fn drive(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        if self.delta_gated() {
            // First strip is gated on the boundary deltas: a carried copy
            // might be stale, and running a thread over it before the
            // invalidation lands would read the previous timestep's value.
            return;
        }
        let slice_start = ctx.now();
        let slice = Dur::from_ns(POLL_INTERVAL_NS);
        loop {
            // Execute ready threads (and keep the admission window full).
            while let Some(t) = self.stack.pop() {
                ctx.charge_overhead(self.cfg.cost.resume_ns + self.pressure());
                self.run_app(ctx, t.slot, t.gen, |app, env| app.run_work(t.work, env));
                self.finish_one_work(t.slot);
                // Most threads finish inside a full strip: test before
                // calling.
                if self.admission_open() {
                    self.admit(ctx);
                }
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
            self.flush(ctx, Drain::All);
            // Requests: held batches first, then the first nonempty
            // buffer. Pipelined, all of them; otherwise one batch per
            // quiescence, its round trip exposed.
            loop {
                let next = self.held.pop_front().or_else(|| {
                    let dst = self.coal.first_nonempty()?;
                    Some((dst, self.coal.take(dst)?))
                });
                let Some((dst, batch)) = next else { break };
                self.send_request(ctx, dst, batch);
                if !self.cfg.pipeline {
                    break;
                }
            }

            // Finished? (Nothing ready, nothing admitted, nothing owed.)
            // A replica broadcast can complete a pending request whose
            // pointer still sits in the request buffers or on the wire,
            // so the buffers and in-flight set are part of the condition
            // rather than implied by M being empty.
            if self.next_iter == self.total_iters
                && self.live.is_empty()
                && self.map.is_empty()
                && self.in_flight.is_empty()
                && self.coal.is_empty()
                && self.held.is_empty()
            {
                self.report_affinity(ctx);
                debug_assert!(self.upd_coal.is_empty());
                debug_assert!(self.reply_coal.is_empty());
                self.done = true;
            }
            return;
        }
    }
}

impl<A: PtrApp> Proc for DpaProc<A> {
    type Msg = DpaMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        // The boundary's announcements leave before this node gates on
        // the deltas it awaits itself: an owner serves its consumers
        // whatever it is waiting on, so mutually-carrying nodes cannot
        // deadlock. Broadcasts go first only because it is cheaper when
        // they also land first; see `replicate` for why either arrival
        // order is correct.
        self.send_replicate_broadcasts(ctx);
        self.send_phase_deltas(ctx);
        if self.delta_gated() {
            return;
        }
        self.admit(ctx);
        self.drive(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, DpaMsg>, src: NodeId, msg: DpaMsg) {
        match msg {
            DpaMsg::Request(mut ptrs) => {
                // Every object is served by its birth home: anything else
                // is misrouted, counted and not served.
                let me = ctx.me().0;
                let asked = ptrs.len();
                ptrs.retain(|p| p.is_local_to(me));
                self.misrouted += (asked - ptrs.len()) as u64;
                if ptrs.is_empty() {
                    Payloads::of(ctx).ptrs.put(ptrs);
                    return;
                }
                self.answer(ctx, src, ptrs);
            }
            DpaMsg::Reply(objs) => {
                self.install_reply(ctx, objs);
                self.drive(ctx);
            }
            DpaMsg::Update { seq, mut entries } => {
                if !self.updates.accept(src.0, seq, entries.len()) {
                    return;
                }
                let me = ctx.me().0;
                for (ptr, value) in entries.drain(..) {
                    if ptr.is_local_to(me) {
                        self.apply_update(ctx, ptr, value);
                    } else {
                        self.misrouted += 1;
                    }
                }
                Payloads::of(ctx).updates.put(entries);
            }
            DpaMsg::Affinity { seq, entries } => self.on_affinity(ctx, src, seq, entries),
            DpaMsg::PhaseDelta { seq, entries } => self.on_phase_delta(ctx, src, seq, entries),
            DpaMsg::Replicate { seq, gen, entries } => {
                self.on_replicate(ctx, src, seq, gen, entries)
            }
        }
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        self.wake_scheduled = false;
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
        let stuck = self.map.sorted_sample(4);
        let mut detail = format!(
            "iters {}/{} done, {} live; D={} in_flight={} M={} keys/{} threads; stuck on [{}]; {} misrouted",
            self.completed_iters,
            self.total_iters,
            self.live.len(),
            // D is M's key set; the report keeps naming both.
            self.map.keys(),
            self.in_flight.len(),
            self.map.keys(),
            self.map.live_threads(),
            stuck.join(", "),
            // The oracle's figure: refused entries plus every channel's
            // refused senders (cold path).
            self.snapshot(0).misrouted_requests
        );
        if let Some(d) = &self.diff {
            d.stall_detail(&mut detail);
        }
        if let Some(r) = &self.repl {
            r.stall_detail(&mut detail);
        }
        Some(detail)
    }

    fn on_finish(&mut self, stats: &mut NodeStats) {
        stats.bump("iterations", self.completed_iters);
        stats.bump("threads_created", self.threads_created);
        stats.bump("threads_aligned", self.map.total_aligned());
        stats.bump("peak_aligned_threads", self.map.peak_threads());
        stats.bump("peak_map_keys", self.map.peak_keys());
        stats.bump("peak_pending_requests", self.map.peak_keys());
        stats.bump("requests_issued", self.map.first_alignments());
        stats.bump("request_msgs", self.request_msgs);
        stats.bump("reply_msgs", self.reply_msgs);
        stats.bump("peak_ready_stack", self.peak_stack);
        stats.bump("renamed_peak_bytes", self.arrived.peak_bytes());
        stats.bump("remote_objects_fetched", self.arrived.total_inserts());
        stats.bump(
            "thread_state_peak_bytes",
            self.map.peak_threads() * self.app.work_state_bytes() as u64,
        );
        stats.bump("request_entries", self.request_entries_sent);
        stats.bump("reply_entries", self.reply_entries_sent);
        stats.bump("update_entries", self.updates.entries_sent);
        stats.bump("peak_in_flight", self.peak_in_flight);
        stats.bump("updates_emitted", self.updates_emitted);
        stats.bump("updates_applied", self.updates_applied);
        stats.bump("update_msgs", self.updates.msgs_sent);
        // Which rule emitted each reply and each update message. A reply
        // that never waited counts where it would have: cut at the MTU, or
        // sent because the owner had nothing to overlap it with.
        let (at_once_mtu, at_once_idle) = self.replies_at_once;
        for (reply, upd, why, at_once) in [
            (
                "reply_flush_window",
                "upd_flush_window",
                FlushReason::Window,
                0,
            ),
            (
                "reply_flush_mtu",
                "upd_flush_mtu",
                FlushReason::Budget,
                at_once_mtu,
            ),
            (
                "reply_flush_deadline",
                "upd_flush_deadline",
                FlushReason::Deadline,
                0,
            ),
            (
                "reply_flush_quiescence",
                "upd_flush_quiescence",
                FlushReason::Drain,
                at_once_idle,
            ),
        ] {
            stats.bump(reply, self.reply_coal.flushes(why) + at_once);
            stats.bump(upd, self.upd_coal.flushes(why));
        }
        // Each mode's columns only exist in that mode's runs, so every
        // other stat table stays byte-identical.
        if let Some(d) = &self.diff {
            d.on_finish(stats);
        }
        if let Some(r) = &self.repl {
            r.on_finish(stats);
        }
        if let Some(a) = &self.aff {
            a.on_finish(stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{SynthApp, SynthParams, SynthWorld};

    #[test]
    fn fan_out_sorts_destinations_and_keeps_listed_order_within_one() {
        let items = vec![
            (9u16, 'a'),
            (2, 'b'),
            (9, 'c'),
            (5, 'd'),
            (2, 'e'),
            (9, 'f'),
        ];
        assert_eq!(
            fan_out(items),
            vec![
                (2, vec!['b', 'e']),
                (5, vec!['d']),
                (9, vec!['a', 'c', 'f'])
            ]
        );
        assert!(fan_out(Vec::<((u16, u32), u8)>::new()).is_empty());
    }

    #[test]
    fn each_mode_state_exists_exactly_under_its_flag() {
        let world = SynthWorld::build(SynthParams::default());
        let states = |policy: Policy, differential: bool| {
            let cfg = DpaConfig {
                policy,
                differential,
                ..DpaConfig::dpa(50)
            };
            let p = DpaProc::try_new(SynthApp::new(world.clone(), 0, 100), 4, cfg).unwrap();
            (p.aff.is_some(), p.diff.is_some(), p.repl.is_some())
        };
        assert_eq!(states(Policy::Cache, false), (false, false, false));
        assert_eq!(states(Policy::Cache, true), (false, true, false));
        assert_eq!(states(Policy::Replicate, true), (true, true, true));
    }
}
