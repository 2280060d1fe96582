//! The software-caching and naive-blocking baseline drivers.
//!
//! These run the *same* pointer-labeled work decomposition as the DPA
//! driver — guaranteeing identical results — but schedule it the way the
//! paper's comparison schemes do:
//!
//! * **Caching** — a sequential traversal per node with a hashed software
//!   cache: every global access pays a probe; a miss sends one request and
//!   *blocks* the node until the reply fills the cache. Reuse happens
//!   (later probes hit), but round trips are fully exposed and messages
//!   never aggregate.
//! * **Blocking** — the same control structure with the cache reduced to a
//!   single entry and free probes: every remote access is an exposed round
//!   trip with no reuse. This is the naive "shared-memory port" lower
//!   bound the paper's introduction motivates against.
//!
//! Both still service incoming requests from other nodes while blocked
//! (the machine would deadlock otherwise), just as the T3D codes answer
//! one-sided gets regardless of what the local CPU is doing.

use crate::config::{DpaConfig, Variant, POLL_INTERVAL_NS};
use crate::fxmap::FxHashSet;
use crate::invariant::NodeSnapshot;
use crate::live::LiveIters;
use crate::msg::{DpaMsg, SeqChannel};
use crate::work::{Avail, Emit, PtrApp, Tagged, WorkEnv, NO_GEN};
use global_heap::{GPtr, SoftCache};
use sim_net::{Ctx, Dur, NodeId, NodeStats, Proc};

struct Stalled<W> {
    iter: u32,
    work: W,
    /// The missed object this node is blocked on. A reply resumes the node
    /// only if it covers this pointer — a duplicated reply for some *other*
    /// object (fault injection) must not resume the wrong work.
    ptr: GPtr,
}

/// A caching/blocking baseline node.
pub struct CachingProc<A: PtrApp> {
    app: A,
    cfg: DpaConfig,
    probe_ns: u64,
    fill_ns: u64,
    stack: Vec<Tagged<A::Work>>,
    /// Emission lists interrupted by a miss, resumed LIFO after the work
    /// stack drains (preserving the depth-first order of a real blocking
    /// traversal).
    cont_stack: Vec<(u32, Vec<Emit<A::Work>>)>,
    cache: SoftCache,
    stalled: Option<Stalled<A::Work>>,
    /// Every object this node has sent a request for. The cache cannot
    /// say (it evicts), and a reply entry for anything else was never
    /// asked for: it is refused, not filled.
    requested: FxHashSet<GPtr>,
    /// Entries refused because no node of a real machine sends them:
    /// reply entries never asked for, update entries for objects born
    /// elsewhere, and every entry of a migration, differential or
    /// replication message (the baselines run none of those modes). The
    /// count is a violation (reported with the misrouted).
    misrouted: u64,
    /// Live thread (and stashed-continuation) count per open iteration.
    live: LiveIters,
    next_iter: usize,
    total_iters: usize,
    completed_iters: u64,
    request_msgs: u64,
    reply_msgs: u64,
    /// Reply entries served to other nodes (always sent immediately: the
    /// baselines never buffer replies).
    reply_entries: u64,
    /// Remote reductions, one entry per message (no batching), applied
    /// exactly once under duplicated delivery.
    updates: SeqChannel,
    updates_emitted: u64,
    updates_applied: u64,
    /// Replies that actually resumed blocked work (duplicates excluded).
    replies_installed: u64,
    stall_count: u64,
    wake_scheduled: bool,
    done: bool,
}

impl<A: PtrApp> CachingProc<A> {
    /// Wrap one node's application instance on a machine of `nodes`.
    /// Panics unless `cfg.variant` is [`Variant::Caching`] or
    /// [`Variant::Blocking`] and the config passes
    /// [`DpaConfig::validate`].
    pub fn new(app: A, nodes: usize, cfg: DpaConfig) -> CachingProc<A> {
        if let Err(e) = cfg.validate() {
            panic!("invalid DpaConfig: {e}");
        }
        let (capacity, probe_ns, fill_ns) = match cfg.variant {
            Variant::Caching => (
                cfg.cache_capacity,
                cfg.cost.cache_probe_ns,
                cfg.cost.cache_fill_ns,
            ),
            // One-entry cache keeps the just-fetched object readable while
            // its dependent work runs, with no reuse beyond that.
            Variant::Blocking => (Some(1), 0, 0),
            v => panic!("CachingProc drives Caching/Blocking, got {v:?}"),
        };
        let policy = cfg.cache_policy;
        let total_iters = app.num_iterations();
        CachingProc {
            app,
            cfg,
            probe_ns,
            fill_ns,
            stack: Vec::new(),
            cont_stack: Vec::new(),
            cache: SoftCache::with_policy(capacity, policy),
            stalled: None,
            requested: FxHashSet::default(),
            misrouted: 0,
            live: LiveIters::new(total_iters),
            next_iter: 0,
            total_iters,
            completed_iters: 0,
            request_msgs: 0,
            reply_msgs: 0,
            reply_entries: 0,
            updates: SeqChannel::new(nodes),
            updates_emitted: 0,
            updates_applied: 0,
            replies_installed: 0,
            stall_count: 0,
            wake_scheduled: false,
            done: false,
        }
    }

    /// The wrapped application (post-run inspection).
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Completed top-level iterations.
    pub fn completed_iterations(&self) -> u64 {
        self.completed_iters
    }

    /// Export the runtime-state counters the DST invariant checker needs.
    /// The baseline has no M table or coalescers: every request is one
    /// entry on the wire and at most one fetch is outstanding.
    pub fn snapshot(&self, node: u16) -> NodeSnapshot {
        NodeSnapshot {
            node,
            pending_requests: usize::from(self.stalled.is_some()),
            pending_sample: self.stalled.iter().map(|st| st.ptr.to_string()).collect(),
            in_flight: usize::from(self.stalled.is_some()),
            requests_issued: self.request_msgs,
            objects_installed: self.replies_installed,
            req_pushed: self.request_msgs,
            req_sent: self.request_msgs,
            updates_emitted: self.updates_emitted,
            updates_applied: self.updates_applied,
            upd_sent: self.updates.entries_sent,
            reply_pushed: self.reply_entries,
            reply_sent: self.reply_entries,
            request_msgs: self.request_msgs,
            reply_msgs: self.reply_msgs,
            update_msgs: self.updates.msgs_sent,
            misrouted_requests: self.updates.refused() + self.misrouted,
            ..NodeSnapshot::default()
        }
    }

    fn finish_one_work(&mut self, iter: u32) {
        if self.live.finish(iter) {
            self.completed_iters += 1;
        }
    }

    /// Route emissions; returns `false` if a miss stalled the node (the
    /// remaining emissions are saved for resume).
    fn route_emissions(
        &mut self,
        ctx: &mut Ctx<'_, DpaMsg>,
        iter: u32,
        mut emits: Vec<Emit<A::Work>>,
    ) -> bool {
        let me = ctx.me().0;
        // Consume from the back so stack order matches the DPA driver's
        // depth-first order.
        while let Some(e) = emits.pop() {
            if let Emit::Accum(ptr, value) = e {
                // Write-through, unaggregated: the baseline sends each
                // remote reduction as its own message (no batching, no
                // reply); local targets apply in place. Reductions are not
                // threads, so they never enter the live count.
                self.updates_emitted += 1;
                if ptr.is_local_to(me) {
                    ctx.charge_overhead(self.fill_ns);
                    self.updates_applied += 1;
                    self.app.apply_update(ptr, value);
                } else {
                    let seq = self.updates.stamp(ptr.node(), 1);
                    ctx.send(
                        NodeId(ptr.node()),
                        DpaMsg::Update {
                            seq,
                            entries: vec![(ptr, value)],
                        },
                    );
                }
                continue;
            }
            self.live.add(iter);
            match e {
                Emit::Accum(..) => unreachable!("handled above"),
                Emit::Local(work) => self.stack.push(Tagged {
                    iter,
                    gen: NO_GEN,
                    work,
                }),
                Emit::Demand(ptr, work) => {
                    // The baseline hashes on *every* global access, even
                    // ones that turn out local; probes against a populated
                    // table additionally thrash the hardware cache.
                    ctx.charge_overhead(
                        self.probe_ns + self.cfg.cost.probe_thrash_ns(self.cache.len()),
                    );
                    if ptr.is_local_to(me) {
                        self.stack.push(Tagged {
                            iter,
                            gen: NO_GEN,
                            work,
                        });
                    } else if self.cache.probe(ptr) {
                        // Hit: run this work *before* routing any sibling
                        // that might trigger a fetch — a later fill could
                        // evict the hit object (certain with the blocking
                        // variant's one-entry cache). This is exactly the
                        // depth-first order of a real blocking traversal.
                        self.stack.push(Tagged {
                            iter,
                            gen: NO_GEN,
                            work,
                        });
                        if !emits.is_empty() {
                            self.live.add(iter);
                            self.cont_stack.push((iter, emits));
                        }
                        return true;
                    } else {
                        // Miss: one blocking round trip for this object.
                        // The sibling emissions not yet routed resume only
                        // after the blocked work's whole subtree finishes,
                        // as in a real depth-first blocking traversal —
                        // this also guarantees the filled object is still
                        // cached (even with a one-entry cache) when its
                        // dependent work reads it.
                        self.request_msgs += 1;
                        self.stall_count += 1;
                        self.requested.insert(ptr);
                        ctx.send(NodeId(ptr.node()), DpaMsg::Request(vec![ptr]));
                        if !emits.is_empty() {
                            // The stashed continuation counts as one live
                            // unit so its iteration cannot complete early.
                            self.live.add(iter);
                            self.cont_stack.push((iter, emits));
                        }
                        self.stalled = Some(Stalled { iter, work, ptr });
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Sequential drive: run stack work; admit the next iteration only
    /// when fully drained; stop at a miss.
    fn drive(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        let slice_start = ctx.now();
        let slice = Dur::from_ns(POLL_INTERVAL_NS);
        loop {
            if self.stalled.is_some() || self.done {
                return;
            }
            if let Some(t) = self.stack.pop() {
                let mut env: WorkEnv<'_, A::Work> =
                    WorkEnv::new(ctx.me().0, ctx.num_nodes(), Avail::Cached(&self.cache));
                self.app.run_work(t.work, &mut env);
                let (ns, emits) = env.finish();
                ctx.charge_local(ns);
                self.route_emissions(ctx, t.iter, emits);
                self.finish_one_work(t.iter);
                if ctx.now().since(slice_start) >= slice {
                    if !self.wake_scheduled {
                        self.wake_scheduled = true;
                        ctx.wake_after(Dur::ZERO);
                    }
                    return;
                }
            } else if let Some((iter, emits)) = self.cont_stack.pop() {
                self.route_emissions(ctx, iter, emits);
                self.finish_one_work(iter); // retire the continuation unit
            } else if self.next_iter < self.total_iters {
                let iter = self.next_iter as u32;
                self.next_iter += 1;
                let mut env: WorkEnv<'_, A::Work> =
                    WorkEnv::new(ctx.me().0, ctx.num_nodes(), Avail::Cached(&self.cache));
                self.app.start_iteration(iter as usize, &mut env);
                let (ns, emits) = env.finish();
                ctx.charge_local(ns);
                self.route_emissions(ctx, iter, emits);
                // An iteration that spawned no threads (nothing, or only
                // reductions) is already complete.
                if !self.live.is_live(iter) {
                    self.completed_iters += 1;
                }
            } else {
                debug_assert!(self.live.is_empty());
                debug_assert!(self.cont_stack.is_empty());
                self.done = true;
                return;
            }
        }
    }
}

impl<A: PtrApp> Proc for CachingProc<A> {
    type Msg = DpaMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        self.drive(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, DpaMsg>, src: NodeId, msg: DpaMsg) {
        match msg {
            DpaMsg::Request(ptrs) => {
                // The baselines never migrate, so no table is passed.
                let acct = crate::owner::service_request(
                    &self.app,
                    &self.cfg,
                    ctx,
                    src,
                    &ptrs,
                    None,
                    Vec::with_capacity,
                );
                self.reply_msgs += acct.msgs;
                self.reply_entries += acct.entries;
            }
            DpaMsg::Update { seq, entries } => {
                // Duplicated delivery must not fold a reduction in twice.
                if !self.updates.accept(src.0, seq, entries.len()) {
                    return;
                }
                let me = ctx.me().0;
                for (ptr, value) in entries {
                    if !ptr.is_local_to(me) {
                        self.misrouted += 1;
                        continue;
                    }
                    ctx.charge_overhead(self.fill_ns);
                    self.updates_applied += 1;
                    self.app.apply_update(ptr, value);
                }
            }
            DpaMsg::Reply(objs) => {
                debug_assert_eq!(objs.len(), 1, "baseline fetches one object at a time");
                for &(ptr, size) in &objs {
                    ctx.charge_overhead(self.fill_ns);
                    if self.requested.contains(&ptr) {
                        self.cache.fill(ptr, size); // idempotent: keeps the first fill
                    } else {
                        self.misrouted += 1;
                    }
                }
                // Resume only when this reply covers the object we are
                // blocked on. A duplicated reply (fault injection) arrives
                // either while not stalled at all or while blocked on a
                // *different* object; both are ignored — the cache fill
                // above already did any useful work.
                let covers = self
                    .stalled
                    .as_ref()
                    .is_some_and(|st| objs.iter().any(|&(p, _)| p == st.ptr));
                if covers {
                    let st = self.stalled.take().expect("checked above");
                    self.replies_installed += 1;
                    // The blocked work runs immediately (top of the stack)
                    // so the filled object is still cached when read.
                    self.stack.push(Tagged {
                        iter: st.iter,
                        gen: NO_GEN,
                        work: st.work,
                    });
                    self.drive(ctx);
                }
            }
            // Only a scripted peer sends these: the baselines never enable
            // migration, differential, or replication.
            DpaMsg::Affinity { entries, .. } | DpaMsg::Replicate { entries, .. } => {
                self.misrouted += entries.len() as u64
            }
            DpaMsg::Forward { entries, .. } | DpaMsg::PhaseDelta { entries, .. } => {
                self.misrouted += entries.len() as u64
            }
        }
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        self.wake_scheduled = false;
        self.drive(ctx);
    }

    fn quiescent(&self) -> bool {
        self.done
    }

    fn stall_detail(&self) -> Option<String> {
        if self.done {
            return None;
        }
        let blocked = match &self.stalled {
            Some(st) => format!("blocked on {} (iter {})", st.ptr, st.iter),
            None => "not blocked".to_string(),
        };
        Some(format!(
            "iters {}/{} done; {blocked}; {} continuations stashed; {} misrouted",
            self.completed_iters,
            self.total_iters,
            self.cont_stack.len(),
            self.snapshot(0).misrouted_requests
        ))
    }

    fn on_finish(&mut self, stats: &mut NodeStats) {
        let cs = self.cache.stats();
        stats.bump("iterations", self.completed_iters);
        stats.bump("cache_probes", cs.probes);
        stats.bump("cache_hits", cs.hits);
        stats.bump("cache_misses", cs.misses);
        stats.bump("cache_evictions", cs.evictions);
        stats.bump("cache_peak_bytes", self.cache.peak_bytes());
        stats.bump("request_msgs", self.request_msgs);
        stats.bump("reply_msgs", self.reply_msgs);
        stats.bump("reply_entries", self.reply_entries);
        stats.bump("update_msgs", self.updates.msgs_sent);
        stats.bump("updates_emitted", self.updates_emitted);
        stats.bump("updates_applied", self.updates_applied);
        stats.bump("stalls", self.stall_count);
    }
}
