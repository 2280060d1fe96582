//! The discrete-event machine: P nodes, ordered event queues, and two
//! interchangeable simulation loops — the conservative sequential drain
//! and a conservative time-window parallel engine.
//!
//! Each node runs a user-supplied [`Proc`] behavior. Handlers are
//! *non-blocking*: they run to completion, charging simulated CPU time via
//! [`Ctx::charge`] and emitting messages via [`Ctx::send`]. The machine owns
//! the clock of every node; when a node's next event lies in its future the
//! gap is accounted as idle time. Two runs with identical inputs produce
//! identical event orders (ties broken by the `(time, tie, src, seq)` key,
//! with `seq` assigned per *source* node), so all reported times are exactly
//! reproducible.
//!
//! # Parallel execution
//!
//! [`Machine::run_parallel`] shards nodes round-robin across OS threads and
//! executes conservative time windows (Chandy–Misra style): each window
//! computes the global minimum pending event time `T`, then every shard
//! processes its events with `time < T + lookahead` independently, where
//! `lookahead` is the smallest possible source-to-remote-destination delay
//! (`send_overhead + gap·header + latency`). Any message produced by an
//! event at time `t ≥ T` arrives at a *different* node no earlier than
//! `t + lookahead ≥ T + lookahead`, so nothing executed in the window can
//! invalidate it. Self-sends and wake timers (zero transit) stay in the
//! producing shard's own queues and are drained in-window in key order.
//! Cross-shard sends are staged per window and merged by the event key,
//! which is a pure function of shard-local state — so the merged order is
//! independent of worker interleaving and the parallel run is
//! **bit-identical** to [`Machine::run`].

use crate::fault::{FaultAction, FaultInjector, FaultPlan};
use crate::network::{MsgSize, NetConfig};
use crate::stats::{ChargeKind, NodeStats, RunStats};
use crate::time::{Dur, Time};
use crate::trace::Trace;
use crate::wheel::{env_queue, EventKey, QueueKind, TimingWheel, WheelItem};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Identifier of a simulated node (0-based, dense).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Number of worker threads requested via the `DPA_SIM_THREADS` environment
/// variable (1 — i.e. sequential — when unset or unparsable).
pub fn env_threads() -> usize {
    std::env::var("DPA_SIM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(1)
}

/// Behavior of one simulated node.
///
/// All handlers receive a [`Ctx`] for charging time and sending messages.
/// Handlers must not block; long-running work is expressed by charging its
/// cost and, if it must wait for data, by recording a continuation and
/// returning (the DPA runtime in `dpa-core` is exactly such a continuation
/// store).
pub trait Proc {
    /// Message type exchanged between nodes.
    type Msg: MsgSize;

    /// Called once at time zero, before any messages flow.
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Called when a message from `src` is delivered to this node.
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, src: NodeId, msg: Self::Msg);

    /// Called when a timer scheduled with [`Ctx::wake_after`] fires.
    fn on_wake(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// `true` when the node has no internal pending work. The run is
    /// `completed` only if every node is quiescent when the event queue
    /// drains; otherwise the report flags a stall (e.g. a dropped reply).
    fn quiescent(&self) -> bool {
        true
    }

    /// Called once after the run, to flush app-level counters into stats.
    fn on_finish(&mut self, stats: &mut NodeStats) {
        let _ = stats;
    }

    /// When the run stalls (`quiescent()` is false after the queue
    /// drains), a human-readable description of *what* this node is
    /// waiting on — e.g. the pending pointers whose replies never came.
    /// Surfaced in [`RunReport::stalls`] so a failed run is actionable.
    fn stall_detail(&self) -> Option<String> {
        None
    }
}

enum EventKind<M> {
    Deliver { msg: M },
    Wake,
}

struct Event<M> {
    time: Time,
    /// Secondary sort key: 0 in the default schedule; a seeded hash of
    /// `(src, seq)` under schedule perturbation, so same-timestamp events
    /// pop in a per-seed pseudorandom permutation.
    tie: u64,
    /// Originating node; part of the total order so that the order is a
    /// pure function of per-source event streams (what lets the parallel
    /// engine merge cross-shard traffic deterministically).
    src: NodeId,
    /// Per-*source* sequence number (ties within a source are FIFO).
    seq: u64,
    dst: NodeId,
    kind: EventKind<M>,
}

impl<M> Event<M> {
    fn key(&self) -> EventKey {
        EventKey {
            time: self.time.0,
            tie: self.tie,
            src: self.src.0,
            seq: self.seq,
        }
    }
}

impl<M> WheelItem for Event<M> {
    fn key(&self) -> EventKey {
        Event::key(self)
    }
}

/// Unique per-event nonce folded into the tie hash: per-source sequence
/// numbers are disambiguated by the source id.
fn event_nonce(src: u16, seq: u64) -> u64 {
    (seq << 16) | src as u64
}

/// SplitMix-style finalizer: the tie-break permutation for one seed.
fn tie_hash(seed: u64, nonce: u64) -> u64 {
    let mut z = seed ^ nonce.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless per-send jitter draw: a pure function of the jitter seed and
/// the send's channel + per-source sequence number, so sequential and
/// parallel runs (which route the same sends in the same per-source order)
/// compute identical jitter without sharing an RNG stream.
fn jitter_hash(seed: u64, src: u16, dst: u16, seq: u64) -> u64 {
    tie_hash(
        seed ^ (dst as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
        event_nonce(src, seq),
    )
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed so the max-heap shadow queue pops the minimum key.
        Reverse(self.key()).cmp(&Reverse(other.key()))
    }
}

/// The machine's event queue: the production timing wheel, or the original
/// binary heap kept as a differential-testing shadow (both always compiled;
/// selection is a run-time [`QueueKind`]). The two yield identical pop
/// orders — `queue_equiv` and the wheel proptests enforce it.
enum EventQueue<M> {
    Wheel(TimingWheel<Event<M>>),
    Heap(BinaryHeap<Event<M>>),
}

impl<M> EventQueue<M> {
    fn new(kind: QueueKind) -> EventQueue<M> {
        match kind {
            QueueKind::Wheel => EventQueue::Wheel(TimingWheel::new()),
            QueueKind::ShadowHeap => EventQueue::Heap(BinaryHeap::new()),
        }
    }

    fn kind(&self) -> QueueKind {
        match self {
            EventQueue::Wheel(_) => QueueKind::Wheel,
            EventQueue::Heap(_) => QueueKind::ShadowHeap,
        }
    }

    #[inline]
    fn push(&mut self, ev: Event<M>) {
        match self {
            EventQueue::Wheel(w) => w.push(ev),
            EventQueue::Heap(h) => h.push(ev),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<Event<M>> {
        match self {
            EventQueue::Wheel(w) => w.pop(),
            EventQueue::Heap(h) => h.pop(),
        }
    }

    /// Time of the earliest pending event (`&mut` because the wheel
    /// repositions lazily on peek).
    #[inline]
    fn peek_time(&mut self) -> Option<u64> {
        match self {
            EventQueue::Wheel(w) => w.peek_key().map(|k| k.time),
            EventQueue::Heap(h) => h.peek().map(|e| e.time.0),
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            EventQueue::Wheel(w) => w.is_empty(),
            EventQueue::Heap(h) => h.is_empty(),
        }
    }

    /// Drop any leftover events and rewind to the time-zero state,
    /// retaining warmed storage (the wheel's bucket-vector pool).
    fn reset(&mut self) {
        match self {
            EventQueue::Wheel(w) => w.reset(),
            EventQueue::Heap(h) => h.clear(),
        }
    }

    /// Visit every queued event in unspecified order (diagnostics).
    fn for_each(&self, mut f: impl FnMut(&Event<M>)) {
        match self {
            EventQueue::Wheel(w) => w.for_each(f),
            EventQueue::Heap(h) => {
                for ev in h.iter() {
                    f(ev);
                }
            }
        }
    }
}

struct PendingSend<M> {
    dst: NodeId,
    at: Time,
    src: NodeId,
    /// `None` marks a wake timer; `Some` a message delivery.
    msg: Option<M>,
}

/// Per-handler execution context: the node's clock, stats, and outbox.
pub struct Ctx<'a, M> {
    id: NodeId,
    clock: &'a mut Time,
    stats: &'a mut NodeStats,
    net: &'a NetConfig,
    out: &'a mut Vec<PendingSend<M>>,
    trace: &'a mut Option<Trace>,
    nodes: u16,
}

impl<'a, M: MsgSize> Ctx<'a, M> {
    /// The node this handler is running on.
    #[inline]
    pub fn me(&self) -> NodeId {
        self.id
    }

    /// Number of nodes in the machine.
    #[inline]
    pub fn num_nodes(&self) -> u16 {
        self.nodes
    }

    /// Current simulated time at this node.
    #[inline]
    pub fn now(&self) -> Time {
        *self.clock
    }

    /// The network cost model in effect.
    #[inline]
    pub fn net(&self) -> &NetConfig {
        self.net
    }

    /// Advance this node's clock by `d`, accounting it to `kind`.
    #[inline]
    pub fn charge(&mut self, kind: ChargeKind, d: Dur) {
        if let Some(t) = self.trace.as_mut() {
            t.record(self.id.0, self.clock.as_ns(), d.as_ns(), kind);
        }
        *self.clock += d;
        self.stats.charge(kind, d);
    }

    /// Convenience: charge local (useful) computation in ns.
    #[inline]
    pub fn charge_local(&mut self, ns: u64) {
        self.charge(ChargeKind::Local, Dur::from_ns(ns));
    }

    /// Convenience: charge communication overhead in ns.
    #[inline]
    pub fn charge_overhead(&mut self, ns: u64) {
        self.charge(ChargeKind::Overhead, Dur::from_ns(ns));
    }

    /// Bump an app-level counter on this node's stats.
    #[inline]
    pub fn bump(&mut self, name: &'static str, by: u64) {
        self.stats.bump(name, by);
    }

    /// Send `msg` to `dst`. Charges the sender's per-message busy time as
    /// overhead and schedules delivery after the wire transit. A send to
    /// self skips the wire but still pays software overheads (loopback),
    /// matching FM semantics.
    pub fn send(&mut self, dst: NodeId, msg: M) {
        let bytes = msg.size_bytes();
        let busy = self.net.send_busy(bytes);
        self.charge(ChargeKind::Overhead, busy);
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += bytes as u64;
        let at = *self.clock + self.net.transit(dst == self.id);
        self.out.push(PendingSend {
            dst,
            at,
            src: self.id,
            msg: Some(msg),
        });
    }

    /// Schedule a [`Proc::on_wake`] callback `d` from now.
    pub fn wake_after(&mut self, d: Dur) {
        let at = *self.clock + d;
        self.out.push(PendingSend {
            dst: self.id,
            at,
            src: self.id,
            msg: None,
        });
    }
}

/// Diagnostic for one non-quiescent node after the event queue drained.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StallInfo {
    /// The stuck node.
    pub node: NodeId,
    /// Messages this node sent.
    pub msgs_sent: u64,
    /// Messages this node received.
    pub msgs_recv: u64,
    /// Messages destined to this node that fault injection dropped — the
    /// usual culprits for the stall.
    pub undelivered: u64,
    /// The node's own account of what it is waiting on
    /// ([`Proc::stall_detail`]), e.g. the stuck pending pointers.
    pub detail: Option<String>,
}

impl std::fmt::Display for StallInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: sent {} recv {} undelivered-to {}",
            self.node, self.msgs_sent, self.msgs_recv, self.undelivered
        )?;
        if let Some(d) = &self.detail {
            write!(f, " — {d}")?;
        }
        Ok(())
    }
}

/// Result of a complete machine run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// Per-node time/traffic accounting (idle already extended to the
    /// global makespan, i.e. barrier semantics).
    pub stats: RunStats,
    /// `true` iff every node reported quiescent when the queue drained
    /// (and the event budget was not exhausted).
    /// `false` indicates a stall, e.g. a reply lost to fault injection.
    pub completed: bool,
    /// One entry per non-quiescent node when `completed` is false
    /// (deadlock detection: the queue drained but work remains).
    pub stalls: Vec<StallInfo>,
    /// Total events delivered over the run (all nodes).
    pub events_processed: u64,
    /// `true` when the run stopped because it hit [`Machine::max_events`]
    /// with events still queued (runaway/livelock guard). The per-node
    /// `stalls` entries then carry queued-event counts in their detail.
    pub budget_exhausted: bool,
}

impl RunReport {
    /// The phase execution time the paper reports (global makespan).
    pub fn makespan(&self) -> Time {
        self.stats.makespan
    }

    /// One-line-per-node description of the stall (empty when completed).
    pub fn stall_summary(&self) -> String {
        self.stalls
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Event routing state: fault decisions, per-source sequence numbers, and
/// schedule-perturbation parameters. The sequential engine owns one; the
/// parallel engine gives each shard its own (per-channel fault streams and
/// per-source seq/jitter draws partition cleanly by source shard, so the
/// shard-local couriers reproduce exactly the sequential courier's output).
#[derive(Clone)]
struct Courier {
    faults: FaultInjector,
    /// Next event sequence number, per *source* node.
    next_seq: Vec<u64>,
    /// `Some(seed)` ⇒ same-timestamp events pop in a seeded permutation.
    schedule_seed: Option<u64>,
    jitter_seed: u64,
    dropped: u64,
    duplicated: u64,
    delayed: u64,
    /// Per-destination count of messages lost to fault injection.
    dropped_to: Vec<u64>,
}

impl Courier {
    fn new(n: usize, plan: FaultPlan) -> Courier {
        Courier {
            faults: FaultInjector::new(plan),
            next_seq: vec![0; n],
            schedule_seed: None,
            jitter_seed: 0xA5A5_5A5A_DEAD_BEEF,
            dropped: 0,
            duplicated: 0,
            delayed: 0,
            dropped_to: vec![0; n],
        }
    }

    fn make_event<M>(&mut self, time: Time, src: NodeId, dst: NodeId, kind: EventKind<M>) -> Event<M> {
        let seq = self.next_seq[src.index()];
        self.next_seq[src.index()] = seq + 1;
        let tie = match self.schedule_seed {
            Some(seed) => tie_hash(seed, event_nonce(src.0, seq)),
            None => 0,
        };
        Event {
            time,
            tie,
            src,
            seq,
            dst,
            kind,
        }
    }

    /// Turn pending sends into events: apply faults, jitter, and pause
    /// deferral, assign per-source sequence numbers, and hand each event to
    /// `push`. Pure shard-local state — both engines produce identical
    /// events for identical per-source send streams.
    fn route<M: MsgSize + Clone>(
        &mut self,
        jitter_ns: u64,
        out: &mut Vec<PendingSend<M>>,
        mut push: impl FnMut(Event<M>),
    ) {
        for p in out.drain(..) {
            let msg = match p.msg {
                Some(m) => m,
                None => {
                    // Wake timers bypass the network: no faults, no jitter.
                    push(self.make_event(p.at, p.src, p.dst, EventKind::Wake));
                    continue;
                }
            };
            let (extra_delay_ns, duplicate) = match self.faults.decide(p.src.0, p.dst.0) {
                FaultAction::Drop => {
                    self.dropped += 1;
                    self.dropped_to[p.dst.index()] += 1;
                    continue;
                }
                FaultAction::Deliver {
                    extra_delay_ns,
                    duplicate,
                } => (extra_delay_ns, duplicate),
            };
            let jitter = if jitter_ns > 0 && p.dst != p.src {
                jitter_hash(self.jitter_seed, p.src.0, p.dst.0, self.next_seq[p.src.index()])
                    % (jitter_ns + 1)
            } else {
                0
            };
            if extra_delay_ns > 0 {
                self.delayed += 1;
            }
            let at_ns = self
                .faults
                .pause_adjust(p.dst.0, p.at.0 + extra_delay_ns + jitter);
            let at = Time(at_ns);
            if duplicate {
                self.duplicated += 1;
                let copy = msg.clone();
                push(self.make_event(at, p.src, p.dst, EventKind::Deliver { msg: copy }));
            }
            push(self.make_event(at, p.src, p.dst, EventKind::Deliver { msg }));
        }
    }
}

/// Deliver one event to its destination proc: account idle up to the event
/// time, charge receive overhead for messages, and run the handler. Shared
/// verbatim by the sequential and parallel engines.
#[allow(clippy::too_many_arguments)]
fn deliver_one<P: Proc>(
    proc_: &mut P,
    ev: Event<P::Msg>,
    clock: &mut Time,
    stats: &mut NodeStats,
    net: &NetConfig,
    nodes: u16,
    out: &mut Vec<PendingSend<P::Msg>>,
    trace: &mut Option<Trace>,
) {
    // Waiting for this event is idle time for the destination node.
    if ev.time > *clock {
        let gap = ev.time - *clock;
        stats.idle += gap;
        *clock = ev.time;
    }
    let mut ctx = Ctx {
        id: ev.dst,
        clock,
        stats,
        net,
        out,
        trace,
        nodes,
    };
    match ev.kind {
        EventKind::Deliver { msg } => {
            let bytes = msg.size_bytes();
            ctx.stats.msgs_recv += 1;
            ctx.stats.bytes_recv += bytes as u64;
            let busy = ctx.net.recv_busy(bytes);
            ctx.charge(ChargeKind::Overhead, busy);
            proc_.on_message(&mut ctx, ev.src, msg);
        }
        EventKind::Wake => proc_.on_wake(&mut ctx),
    }
}

/// A P-node discrete-event machine running `P::Msg` traffic over `net`.
pub struct Machine<P: Proc> {
    procs: Vec<P>,
    net: NetConfig,
    clocks: Vec<Time>,
    stats: Vec<NodeStats>,
    queue: EventQueue<P::Msg>,
    courier: Courier,
    trace: Option<Trace>,
    /// Hard cap on processed events; when hit, the run stops and reports a
    /// structured budget-exhausted stall (see [`RunReport::budget_exhausted`]).
    pub max_events: u64,
}

impl<P: Proc> Machine<P> {
    /// Build a machine from one `Proc` per node.
    pub fn new(procs: Vec<P>, net: NetConfig) -> Machine<P> {
        let n = procs.len();
        assert!(n > 0 && n <= u16::MAX as usize, "node count {n}");
        Machine {
            procs,
            net,
            clocks: vec![Time::ZERO; n],
            stats: vec![NodeStats::default(); n],
            queue: EventQueue::new(env_queue()),
            courier: Courier::new(n, FaultPlan::default()),
            trace: None,
            max_events: u64::MAX,
        }
    }

    /// Install a fault plan.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.courier.faults = FaultInjector::new(plan);
    }

    /// Rewind this machine for another run with fresh procs, recycling the
    /// warmed event-queue storage (the timing wheel's bucket pool) instead
    /// of rebuilding it — the shard-pool / multi-phase reuse path.
    ///
    /// After `reset` the machine is observationally identical to
    /// `Machine::new(procs, net)` with the current fault *plan*
    /// re-installed: clocks and stats rewind to zero, per-source sequence
    /// numbers restart, fault RNG streams restart from the plan seed,
    /// schedule perturbation is cleared (re-apply [`perturb_schedule`]
    /// if wanted), tracing is disabled, and `max_events` returns to
    /// unlimited. Any events left queued by an abandoned (budget-
    /// exhausted) run are discarded. The regression suites hold reset
    /// runs bit-identical to fresh-machine runs under both queue kinds.
    ///
    /// [`perturb_schedule`]: Machine::perturb_schedule
    pub fn reset(&mut self, procs: Vec<P>) {
        let n = procs.len();
        assert!(n > 0 && n <= u16::MAX as usize, "node count {n}");
        let plan = self.courier.faults.plan().clone();
        self.procs = procs;
        self.clocks = vec![Time::ZERO; n];
        self.stats = vec![NodeStats::default(); n];
        self.queue.reset();
        self.courier = Courier::new(n, plan);
        self.trace = None;
        self.max_events = u64::MAX;
    }

    /// Select the event-queue implementation (wheel vs shadow heap). The
    /// default comes from [`env_queue`]; differential tests call this to
    /// pin each run's queue explicitly. Must be called before `run`.
    pub fn set_queue_kind(&mut self, kind: QueueKind) {
        debug_assert!(self.queue.is_empty(), "set_queue_kind on a started machine");
        if self.queue.kind() != kind {
            self.queue = EventQueue::new(kind);
        }
    }

    /// The event-queue implementation this machine runs on.
    pub fn queue_kind(&self) -> QueueKind {
        self.queue.kind()
    }

    /// Enable seeded schedule perturbation: events with equal timestamps
    /// pop in a per-`seed` pseudorandom permutation instead of FIFO order,
    /// and when `net.jitter_ns > 0` remote deliveries also get a seeded
    /// jitter in `[0, jitter_ns]`. Each seed yields one deterministic,
    /// exactly-replayable alternative schedule.
    pub fn perturb_schedule(&mut self, seed: u64) {
        self.courier.schedule_seed = Some(seed);
        self.courier.jitter_seed = seed ^ 0xA5A5_5A5A_DEAD_BEEF;
    }

    /// Record per-node busy spans during the run (see [`crate::trace`]).
    /// `capacity` bounds the span count; adjacent charges coalesce.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace = Some(Trace::new(capacity));
    }

    /// Take the recorded trace after [`Machine::run`].
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.procs.len()
    }

    /// Immutable access to a node's behavior (for post-run inspection).
    pub fn proc(&self, id: NodeId) -> &P {
        &self.procs[id.index()]
    }

    /// Mutable access to a node's behavior — for post-run state hand-off,
    /// e.g. carrying a migration table into the next phase's machine.
    pub fn proc_mut(&mut self, id: NodeId) -> &mut P {
        &mut self.procs[id.index()]
    }

    /// Assemble the report after either engine has drained (or abandoned)
    /// the event state. `pending[i]` counts events still queued for node
    /// `i` when the budget ran out.
    fn finalize(
        &mut self,
        events_processed: u64,
        budget_exhausted: bool,
        pending: &[u64],
    ) -> RunReport {
        let n = self.procs.len();
        let completed = !budget_exhausted && self.procs.iter().all(|p| p.quiescent());
        let makespan = self.clocks.iter().copied().max().unwrap_or(Time::ZERO);

        // Barrier semantics: every node waits for the slowest one, so
        // trailing time up to the makespan is idle.
        for i in 0..n {
            if makespan > self.clocks[i] {
                self.stats[i].idle += makespan - self.clocks[i];
                self.clocks[i] = makespan;
            }
            self.procs[i].on_finish(&mut self.stats[i]);
        }

        // Deadlock detection: the queue drained, yet some node still has
        // pending work — or the event budget cut the run short. Name the
        // culprits instead of a bare `false`.
        let mut stalls = Vec::new();
        if !completed {
            for (i, p) in self.procs.iter().enumerate() {
                let queued = pending.get(i).copied().unwrap_or(0);
                if !p.quiescent() || queued > 0 {
                    let mut detail = p.stall_detail();
                    if budget_exhausted {
                        let note = format!(
                            "event budget exhausted after {events_processed} events \
                             ({queued} still queued here)"
                        );
                        detail = Some(match detail {
                            Some(d) => format!("{note}; {d}"),
                            None => note,
                        });
                    }
                    stalls.push(StallInfo {
                        node: NodeId(i as u16),
                        msgs_sent: self.stats[i].msgs_sent,
                        msgs_recv: self.stats[i].msgs_recv,
                        undelivered: self.courier.dropped_to[i],
                        detail,
                    });
                }
            }
        }

        RunReport {
            stats: RunStats {
                nodes: std::mem::take(&mut self.stats),
                makespan,
                dropped_packets: self.courier.dropped,
                duplicated_packets: self.courier.duplicated,
                delayed_packets: self.courier.delayed,
            },
            completed,
            stalls,
            events_processed,
            budget_exhausted,
        }
    }
}

impl<P: Proc> Machine<P>
where
    P::Msg: Clone,
{
    /// Run to completion: start every node, then drain the event queue.
    /// Consumes the machine's event state; call [`Machine::reset`] with
    /// fresh procs to run the machine again.
    pub fn run(&mut self) -> RunReport {
        let n = self.procs.len();
        let mut out: Vec<PendingSend<P::Msg>> = Vec::new();
        let jitter_ns = self.net.jitter_ns;

        for i in 0..n {
            let mut ctx = Ctx {
                id: NodeId(i as u16),
                clock: &mut self.clocks[i],
                stats: &mut self.stats[i],
                net: &self.net,
                out: &mut out,
                trace: &mut self.trace,
                nodes: n as u16,
            };
            self.procs[i].on_start(&mut ctx);
            let queue = &mut self.queue;
            self.courier.route(jitter_ns, &mut out, |ev| queue.push(ev));
        }

        let mut events_processed: u64 = 0;
        let mut budget_exhausted = false;
        while let Some(ev) = self.queue.pop() {
            if events_processed == self.max_events {
                // Runaway guard: stop before the budget-busting event and
                // report a structured stall instead of aborting the process.
                self.queue.push(ev);
                budget_exhausted = true;
                break;
            }
            events_processed += 1;
            let i = ev.dst.index();
            deliver_one(
                &mut self.procs[i],
                ev,
                &mut self.clocks[i],
                &mut self.stats[i],
                &self.net,
                n as u16,
                &mut out,
                &mut self.trace,
            );
            let queue = &mut self.queue;
            self.courier.route(jitter_ns, &mut out, |ev| queue.push(ev));
        }

        let mut pending = vec![0u64; n];
        if budget_exhausted {
            self.queue.for_each(|ev| pending[ev.dst.index()] += 1);
        }
        self.finalize(events_processed, budget_exhausted, &pending)
    }
}

// ------------------------------------------------------------------ parallel

/// A reusable spin barrier for the window loop. Spins briefly then yields
/// (the simulation is frequently run on hosts with fewer cores than
/// workers, where pure spinning would serialize pathologically), and
/// supports poisoning so a panicking worker releases — and fails — its
/// peers instead of deadlocking the scope.
struct SpinBarrier {
    total: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

impl SpinBarrier {
    fn new(total: usize) -> SpinBarrier {
        SpinBarrier {
            total,
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::SeqCst);
        let arrived = self.count.fetch_add(1, Ordering::SeqCst) + 1;
        if arrived == self.total {
            self.count.store(0, Ordering::SeqCst);
            self.generation.store(generation.wrapping_add(1), Ordering::SeqCst);
        } else {
            let mut spins: u32 = 0;
            while self.generation.load(Ordering::SeqCst) == generation {
                if self.poisoned.load(Ordering::SeqCst) {
                    panic!("parallel worker panicked");
                }
                spins = spins.saturating_add(1);
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        if self.poisoned.load(Ordering::SeqCst) {
            panic!("parallel worker panicked");
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        // Release any current waiters so they observe the poison.
        self.generation.fetch_add(1, Ordering::SeqCst);
    }
}

/// Poisons the barrier if the owning worker unwinds, so sibling workers
/// fail fast instead of spinning forever on a barrier that will never fill.
struct PoisonOnPanic<'a>(&'a SpinBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// One worker's slice of the machine: the procs, clocks, stats, and event
/// queues of the nodes it owns (round-robin: shard `s` of `S` owns global
/// node `j·S + s` as its local node `j`), plus a shard-local [`Courier`].
struct Shard<P: Proc> {
    procs: Vec<P>,
    clocks: Vec<Time>,
    stats: Vec<NodeStats>,
    queues: Vec<EventQueue<P::Msg>>,
    courier: Courier,
    events: u64,
}

/// Route the outbox into shard-local queues (own nodes) or per-destination-
/// shard staging buffers (cross-shard, flushed at the window boundary).
fn route_sharded<M: MsgSize + Clone>(
    courier: &mut Courier,
    jitter_ns: u64,
    out: &mut Vec<PendingSend<M>>,
    s: usize,
    nshards: usize,
    queues: &mut [EventQueue<M>],
    outgoing: &mut [Vec<Event<M>>],
) {
    courier.route(jitter_ns, out, |ev| {
        let d = ev.dst.index();
        if d % nshards == s {
            queues[d / nshards].push(ev);
        } else {
            outgoing[d % nshards].push(ev);
        }
    });
}

fn flush_outgoing<M>(outgoing: &mut [Vec<Event<M>>], inboxes: &[Mutex<Vec<Event<M>>>]) {
    for (d, staged) in outgoing.iter_mut().enumerate() {
        if !staged.is_empty() {
            inboxes[d].lock().expect("sibling worker panicked").append(staged);
        }
    }
}

/// The per-worker window loop. Two barriers per window: one after every
/// shard has published the min time of its pending events (so all agree on
/// the horizon), one after every shard has flushed its cross-shard sends
/// (so the next window's drain sees them all).
#[allow(clippy::too_many_arguments)]
fn run_shard<P: Proc>(
    shard: &mut Shard<P>,
    s: usize,
    nshards: usize,
    n: u16,
    net: &NetConfig,
    lookahead: u64,
    inboxes: &[Mutex<Vec<Event<P::Msg>>>],
    mins: &[AtomicU64],
    barrier: &SpinBarrier,
) where
    P::Msg: MsgSize + Clone,
{
    let _guard = PoisonOnPanic(barrier);
    let jitter_ns = net.jitter_ns;
    let mut out: Vec<PendingSend<P::Msg>> = Vec::new();
    let mut outgoing: Vec<Vec<Event<P::Msg>>> = (0..nshards).map(|_| Vec::new()).collect();
    // The parallel engine never traces (callers needing a trace run
    // sequentially); a local no-op slot satisfies `Ctx`.
    let mut trace: Option<Trace> = None;
    let local = shard.procs.len();

    for j in 0..local {
        let gid = NodeId((j * nshards + s) as u16);
        let mut ctx = Ctx {
            id: gid,
            clock: &mut shard.clocks[j],
            stats: &mut shard.stats[j],
            net,
            out: &mut out,
            trace: &mut trace,
            nodes: n,
        };
        shard.procs[j].on_start(&mut ctx);
        route_sharded(
            &mut shard.courier,
            jitter_ns,
            &mut out,
            s,
            nshards,
            &mut shard.queues,
            &mut outgoing,
        );
    }
    flush_outgoing(&mut outgoing, inboxes);
    barrier.wait();

    loop {
        // Merge what other shards sent us last window, then publish our
        // earliest pending event time.
        {
            let mut inbox = inboxes[s].lock().expect("sibling worker panicked");
            for ev in inbox.drain(..) {
                shard.queues[ev.dst.index() / nshards].push(ev);
            }
        }
        let local_min = shard
            .queues
            .iter_mut()
            .filter_map(|q| q.peek_time())
            .min()
            .unwrap_or(u64::MAX);
        mins[s].store(local_min, Ordering::SeqCst);
        barrier.wait();

        let t_min = mins
            .iter()
            .map(|m| m.load(Ordering::SeqCst))
            .min()
            .unwrap_or(u64::MAX);
        if t_min == u64::MAX {
            break; // No events anywhere: every shard sees this and exits.
        }
        let horizon = t_min.saturating_add(lookahead);

        // Execute this window: everything strictly below the horizon is
        // safe. Handlers may push new events into their *own* node's queue
        // (self-sends/wakes, zero transit) below the horizon — those drain
        // here too, in key order; any event for a different node lands at
        // `≥ time + lookahead ≥ horizon` and waits for the next window.
        for j in 0..local {
            while shard.queues[j].peek_time().is_some_and(|t| t < horizon) {
                let ev = shard.queues[j].pop().expect("peeked event");
                shard.events += 1;
                deliver_one(
                    &mut shard.procs[j],
                    ev,
                    &mut shard.clocks[j],
                    &mut shard.stats[j],
                    net,
                    n,
                    &mut out,
                    &mut trace,
                );
                route_sharded(
                    &mut shard.courier,
                    jitter_ns,
                    &mut out,
                    s,
                    nshards,
                    &mut shard.queues,
                    &mut outgoing,
                );
            }
        }
        flush_outgoing(&mut outgoing, inboxes);
        barrier.wait();
    }
}

impl<P: Proc + Send> Machine<P>
where
    P::Msg: Clone + Send,
{
    /// `run()` when `threads <= 1`, otherwise [`Machine::run_parallel`].
    pub fn run_threads(&mut self, threads: usize) -> RunReport {
        if threads > 1 {
            self.run_parallel(threads)
        } else {
            self.run()
        }
    }

    /// `true` when the parallel engine can reproduce the sequential run
    /// bit-for-bit for this configuration. The remaining cases fall back:
    /// tracing (span order is a sequential notion), a zero-latency network
    /// (no lookahead, no safe window), an event budget (the cut-off point
    /// is schedule-dependent), and the legacy global-counter faults
    /// `drop_nth` / `drop_every` (their "n-th message of the *run*" is
    /// defined by the sequential send interleaving).
    fn parallel_supported(&self) -> bool {
        let plan = self.courier.faults.plan();
        self.procs.len() > 1
            && self.trace.is_none()
            && self.max_events == u64::MAX
            && self.net.latency_ns > 0
            && plan.drop_nth.is_none()
            && plan.drop_every.is_none()
    }

    /// Run with `threads` workers under the conservative time-window
    /// engine. Produces a [`RunReport`] bit-identical to [`Machine::run`];
    /// configurations the windowed engine cannot reproduce exactly (see
    /// `parallel_supported`) silently run sequentially instead.
    pub fn run_parallel(&mut self, threads: usize) -> RunReport {
        let n = self.procs.len();
        let nshards = threads.min(n);
        if nshards <= 1 || !self.parallel_supported() {
            return self.run();
        }
        debug_assert!(self.queue.is_empty(), "run_parallel on a consumed machine");

        // The soonest an event at time `t` can affect another node:
        // `send_busy(0) + latency` later (payloads/faults/jitter only add).
        let lookahead = self.net.latency_ns
            + self.net.send_overhead_ns
            + self.net.gap_ns_per_byte * self.net.header_bytes as u64;

        // Deal nodes round-robin: global `i` → shard `i % S`, local slot
        // `i / S`. Each shard's courier claims the machine plan; per-source
        // seq counters and per-channel fault streams partition by source.
        let mut shards: Vec<Shard<P>> = (0..nshards)
            .map(|_| Shard {
                procs: Vec::new(),
                clocks: Vec::new(),
                stats: Vec::new(),
                queues: Vec::new(),
                courier: self.courier.clone(),
                events: 0,
            })
            .collect();
        let queue_kind = self.queue.kind();
        for (i, p) in self.procs.drain(..).enumerate() {
            let sh = &mut shards[i % nshards];
            sh.procs.push(p);
            sh.clocks.push(Time::ZERO);
            sh.stats.push(NodeStats::default());
            sh.queues.push(EventQueue::new(queue_kind));
        }

        let inboxes: Vec<Mutex<Vec<Event<P::Msg>>>> =
            (0..nshards).map(|_| Mutex::new(Vec::new())).collect();
        let mins: Vec<AtomicU64> = (0..nshards).map(|_| AtomicU64::new(u64::MAX)).collect();
        let barrier = SpinBarrier::new(nshards);
        let net = self.net.clone();

        std::thread::scope(|scope| {
            let (first, rest) = shards.split_first_mut().expect("nshards >= 2");
            for (k, shard) in rest.iter_mut().enumerate() {
                let s = k + 1;
                let (net, inboxes, mins, barrier) = (&net, &inboxes, &mins, &barrier);
                scope.spawn(move || {
                    run_shard(shard, s, nshards, n as u16, net, lookahead, inboxes, mins, barrier);
                });
            }
            run_shard(first, 0, nshards, n as u16, &net, lookahead, &inboxes, &mins, &barrier);
        });

        // Reassemble machine order and merge the couriers' counters.
        let mut events_processed = 0u64;
        let mut procs: Vec<Option<P>> = (0..n).map(|_| None).collect();
        for (s, shard) in shards.into_iter().enumerate() {
            events_processed += shard.events;
            for (j, p) in shard.procs.into_iter().enumerate() {
                let gid = j * nshards + s;
                procs[gid] = Some(p);
                self.clocks[gid] = shard.clocks[j];
                self.stats[gid] = shard.stats[j].clone();
            }
            self.courier.dropped += shard.courier.dropped;
            self.courier.duplicated += shard.courier.duplicated;
            self.courier.delayed += shard.courier.delayed;
            for (i, d) in shard.courier.dropped_to.iter().enumerate() {
                self.courier.dropped_to[i] += d;
            }
        }
        self.procs = procs.into_iter().map(|p| p.expect("every node reassembled")).collect();

        self.finalize(events_processed, false, &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial ping-pong proc: node 0 sends `k` pings to node 1, which
    /// echoes each one back.
    struct PingPong {
        to_send: u32,
        received: u32,
        expect: u32,
    }

    impl Proc for PingPong {
        type Msg = u64;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            for i in 0..self.to_send {
                ctx.send(NodeId(1), i as u64);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, src: NodeId, msg: u64) {
            self.received += 1;
            if ctx.me() == NodeId(1) {
                ctx.send(src, msg + 1000);
            }
        }

        fn quiescent(&self) -> bool {
            self.received == self.expect
        }
    }

    fn drop_every(k: u64) -> FaultPlan {
        FaultPlan {
            drop_every: Some(k),
            ..FaultPlan::default()
        }
    }

    fn pingpong_machine(k: u32, net: NetConfig) -> Machine<PingPong> {
        Machine::new(
            vec![
                PingPong {
                    to_send: k,
                    received: 0,
                    expect: k,
                },
                PingPong {
                    to_send: 0,
                    received: 0,
                    expect: k,
                },
            ],
            net,
        )
    }

    #[test]
    fn pingpong_completes() {
        let mut m = pingpong_machine(5, NetConfig::default());
        let r = m.run();
        assert!(r.completed);
        assert_eq!(r.stats.total_msgs(), 10);
        assert_eq!(r.events_processed, 10);
        assert!(!r.budget_exhausted);
        assert!(r.makespan().as_ns() > 0);
    }

    #[test]
    fn deterministic_makespan() {
        let a = pingpong_machine(7, NetConfig::default()).run();
        let b = pingpong_machine(7, NetConfig::default()).run();
        assert_eq!(a.makespan(), b.makespan());
        assert_eq!(a.stats.nodes[0].idle, b.stats.nodes[0].idle);
        assert_eq!(a, b, "reports are bitwise identical across runs");
    }

    #[test]
    fn idle_accounted_while_waiting() {
        let mut m = pingpong_machine(1, NetConfig::default());
        let r = m.run();
        // Node 0 sends, then idles until the echo returns.
        assert!(r.stats.nodes[0].idle.as_ns() > 0);
    }

    #[test]
    fn barrier_extends_idle_to_makespan() {
        let mut m = pingpong_machine(3, NetConfig::default());
        let r = m.run();
        for s in &r.stats.nodes {
            assert_eq!(s.total(), r.makespan() - Time::ZERO + Dur::ZERO);
        }
    }

    #[test]
    fn fault_injection_drops_and_flags() {
        let mut m = pingpong_machine(4, NetConfig::default());
        m.set_faults(drop_every(2));
        let r = m.run();
        assert!(!r.completed, "dropped replies must flag a stall");
        assert!(r.stats.dropped_packets > 0);
    }

    #[test]
    fn free_network_zero_overhead() {
        let mut m = pingpong_machine(2, NetConfig::free());
        let r = m.run();
        assert!(r.completed);
        assert_eq!(r.stats.nodes[0].overhead.as_ns(), 0);
        assert_eq!(r.makespan().as_ns(), 0);
    }

    /// Timer wakes fire in order and count as idle while waiting.
    struct Sleeper {
        fired: Vec<u64>,
    }

    impl Proc for Sleeper {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            ctx.wake_after(Dur::from_us(10));
            ctx.wake_after(Dur::from_us(5));
        }

        fn on_message(&mut self, _ctx: &mut Ctx<'_, ()>, _src: NodeId, _msg: ()) {}

        fn on_wake(&mut self, ctx: &mut Ctx<'_, ()>) {
            self.fired.push(ctx.now().as_ns());
        }
    }

    #[test]
    fn wakes_fire_in_time_order() {
        let mut m = Machine::new(vec![Sleeper { fired: vec![] }], NetConfig::default());
        let r = m.run();
        assert!(r.completed);
        assert_eq!(m.proc(NodeId(0)).fired, vec![5_000, 10_000]);
        assert_eq!(r.stats.nodes[0].idle.as_ns(), 10_000);
    }

    #[test]
    fn trace_spans_account_all_busy_time() {
        let mut m = pingpong_machine(4, NetConfig::default());
        m.enable_tracing(1 << 16);
        let r = m.run();
        let trace = m.take_trace().expect("tracing enabled");
        assert_eq!(trace.dropped, 0);
        for (i, ns) in r.stats.nodes.iter().enumerate() {
            let busy = ns.local.as_ns() + ns.overhead.as_ns();
            assert_eq!(trace.busy_ns(i as u16), busy, "node {i}");
        }
        // Spans are per-node time-ordered and non-overlapping.
        for n in 0..2u16 {
            let mut end = 0;
            for s in trace.spans().iter().filter(|s| s.node == n) {
                assert!(s.start_ns >= end, "overlap on node {n}");
                end = s.start_ns + s.dur_ns;
            }
        }
    }

    #[test]
    fn stall_report_names_stuck_nodes() {
        let mut m = pingpong_machine(4, NetConfig::default());
        m.set_faults(drop_every(2));
        let r = m.run();
        assert!(!r.completed);
        assert!(!r.stalls.is_empty(), "stall must carry diagnostics");
        for s in &r.stalls {
            assert!(s.undelivered > 0, "stuck node should see dropped traffic");
        }
        assert!(r.stall_summary().contains("undelivered-to"));
        // A completed run carries no stall entries.
        let ok = pingpong_machine(4, NetConfig::default()).run();
        assert!(ok.completed && ok.stalls.is_empty());
    }

    #[test]
    fn perturbed_schedules_are_deterministic_per_seed() {
        let run = |seed: Option<u64>| {
            let mut m = pingpong_machine(8, NetConfig::default());
            if let Some(s) = seed {
                m.perturb_schedule(s);
            }
            let r = m.run();
            assert!(r.completed);
            (r.makespan(), m.proc(NodeId(0)).received)
        };
        // Same seed ⇒ identical run; results identical across schedules.
        assert_eq!(run(Some(7)), run(Some(7)));
        assert_eq!(run(None).1, run(Some(7)).1);
        assert_eq!(run(Some(1)).1, run(Some(2)).1);
    }

    #[test]
    fn jitter_changes_timing_not_results() {
        let run = |seed: u64, jitter: u64| {
            let mut m = pingpong_machine(6, NetConfig {
                jitter_ns: jitter,
                ..NetConfig::default()
            });
            m.perturb_schedule(seed);
            let r = m.run();
            assert!(r.completed, "jitter must not lose messages");
            (r.makespan(), m.proc(NodeId(0)).received)
        };
        let base = run(3, 0);
        let mut saw_different_makespan = false;
        for seed in 0..8 {
            let j = run(seed, 20_000);
            assert_eq!(j.1, base.1, "received count is schedule-invariant");
            if j.0 != base.0 {
                saw_different_makespan = true;
            }
        }
        assert!(saw_different_makespan, "jitter should move the makespan");
    }

    #[test]
    fn duplicate_fault_delivers_twice() {
        let mut m = pingpong_machine(5, NetConfig::default());
        m.set_faults(FaultPlan::duplicate(11, 1.0));
        let r = m.run();
        // Every ping and every echo is doubled: node 0 sees 2× echoes and
        // node 1 re-echoes each duplicated ping.
        assert_eq!(r.stats.duplicated_packets, r.stats.total_msgs());
        assert!(m.proc(NodeId(0)).received > 5);
    }

    #[test]
    fn delay_fault_slows_but_completes() {
        let base = pingpong_machine(5, NetConfig::default()).run();
        let mut m = pingpong_machine(5, NetConfig::default());
        m.set_faults(FaultPlan::delay(13, 1.0, 1_000_000));
        let r = m.run();
        assert!(r.completed);
        assert!(r.stats.delayed_packets > 0);
        assert!(r.makespan() > base.makespan());
    }

    #[test]
    fn drop_nth_kills_exactly_one_message() {
        let mut m = pingpong_machine(5, NetConfig::default());
        m.set_faults(FaultPlan::drop_nth(2));
        let r = m.run();
        assert!(!r.completed);
        assert_eq!(r.stats.dropped_packets, 1);
        assert_eq!(r.stalls.len(), 2, "both sides wait on the lost ping");
    }

    #[test]
    fn node_pause_defers_delivery() {
        let mut m = pingpong_machine(1, NetConfig::default());
        m.set_faults(FaultPlan {
            pauses: vec![crate::fault::NodePause {
                node: 1,
                from_ns: 0,
                until_ns: 5_000_000,
            }],
            ..FaultPlan::default()
        });
        let r = m.run();
        assert!(r.completed);
        assert!(
            r.makespan().as_ns() >= 5_000_000,
            "ping waits out the pause window"
        );
    }

    /// Echoes forever between two nodes (runaway-guard fodder).
    struct Echo;
    impl Proc for Echo {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            if ctx.me() == NodeId(0) {
                ctx.send(NodeId(1), 0);
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, src: NodeId, msg: u64) {
            ctx.send(src, msg + 1);
        }
        fn quiescent(&self) -> bool {
            true // The livelock is entirely in flight, not in node state.
        }
    }

    #[test]
    fn runaway_guard_reports_structured_stall() {
        let mut m = Machine::new(vec![Echo, Echo], NetConfig::default());
        m.max_events = 100;
        let r = m.run();
        assert!(!r.completed, "budget exhaustion is not completion");
        assert!(r.budget_exhausted);
        assert_eq!(r.events_processed, 100);
        assert!(!r.stalls.is_empty(), "budget stall must carry diagnostics");
        let detail = r.stalls[0].detail.as_deref().unwrap_or("");
        assert!(
            detail.contains("event budget exhausted after 100 events"),
            "got detail: {detail}"
        );
        assert!(detail.contains("still queued here"), "got detail: {detail}");
    }

    #[test]
    fn budget_equal_to_event_count_still_completes() {
        // 10 events total (5 pings + 5 echoes): a budget of exactly 10
        // must not trip the guard.
        let mut m = pingpong_machine(5, NetConfig::default());
        m.max_events = 10;
        let r = m.run();
        assert!(r.completed);
        assert!(!r.budget_exhausted);
        assert_eq!(r.events_processed, 10);
    }

    // ------------------------------------------------------- parallel engine

    /// All-to-all with replies and a timer: node `i` sends one request to
    /// every other node; each request is echoed; every node also schedules
    /// a wake. Exercises cross-shard traffic, self-queues, and ties.
    struct AllToAll {
        me: u16,
        received: u32,
        expect: u32,
        woke: bool,
        checksum: u64,
    }

    impl Proc for AllToAll {
        type Msg = u64;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
            let n = ctx.num_nodes();
            ctx.wake_after(Dur::from_us(3));
            for d in 0..n {
                if d != self.me {
                    ctx.send(NodeId(d), (self.me as u64) << 8 | d as u64);
                }
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, src: NodeId, msg: u64) {
            self.received += 1;
            self.checksum = self
                .checksum
                .wrapping_mul(0x100_0000_01B3)
                .wrapping_add(msg ^ (src.0 as u64) << 32);
            ctx.charge_local(500);
            if msg < 1 << 16 {
                ctx.send(src, msg | 1 << 20);
            }
        }

        fn on_wake(&mut self, _ctx: &mut Ctx<'_, u64>) {
            self.woke = true;
        }

        fn quiescent(&self) -> bool {
            self.woke && self.received == self.expect
        }
    }

    fn all_to_all(n: u16) -> Machine<AllToAll> {
        Machine::new(
            (0..n)
                .map(|me| AllToAll {
                    me,
                    received: 0,
                    expect: 2 * (n as u32 - 1),
                    woke: false,
                    checksum: 0,
                })
                .collect(),
            NetConfig::default(),
        )
    }

    fn checksums(m: &Machine<AllToAll>) -> Vec<u64> {
        (0..m.num_nodes() as u16)
            .map(|i| m.proc(NodeId(i)).checksum)
            .collect()
    }

    #[test]
    fn parallel_bit_identical_to_sequential() {
        let n = 9;
        let mut base = all_to_all(n);
        let want = base.run();
        let want_sums = checksums(&base);
        assert!(want.completed);
        for k in [2usize, 3, 4, 8] {
            let mut m = all_to_all(n);
            let got = m.run_parallel(k);
            assert_eq!(got, want, "run_parallel({k}) diverged");
            assert_eq!(checksums(&m), want_sums, "checksums diverged at k={k}");
        }
    }

    #[test]
    fn parallel_bit_identical_under_perturbation_and_faults() {
        let build = |seed: u64| {
            let mut m = all_to_all(8);
            m.net.jitter_ns = 2_000;
            m.set_faults(FaultPlan {
                seed,
                dup_p: 0.2,
                delay_p: 0.3,
                delay_max_ns: 50_000,
                ..FaultPlan::default()
            });
            m.perturb_schedule(seed);
            m
        };
        for seed in 0..6 {
            let want = build(seed).run();
            for k in [2usize, 4] {
                let got = build(seed).run_parallel(k);
                assert_eq!(got, want, "seed {seed} k {k}");
            }
        }
    }

    #[test]
    fn run_threads_one_is_sequential() {
        let want = all_to_all(5).run();
        let got = all_to_all(5).run_threads(1);
        assert_eq!(got, want);
    }

    #[test]
    fn parallel_falls_back_when_unsupported() {
        // Zero latency: no lookahead, must fall back (and still be right).
        let mut m = pingpong_machine(3, NetConfig::free());
        let want = pingpong_machine(3, NetConfig::free()).run();
        assert_eq!(m.run_parallel(4), want);
        // Global-counter faults: ditto.
        let mk = || {
            let mut m = all_to_all(6);
            m.set_faults(FaultPlan::drop_nth(4));
            m
        };
        let want = mk().run();
        assert_eq!(mk().run_parallel(4), want);
        // Event budget: ditto.
        let mk = || {
            let mut m = Machine::new(vec![Echo, Echo], NetConfig::default());
            m.max_events = 64;
            m
        };
        let want = mk().run();
        let got = mk().run_parallel(2);
        assert_eq!(got, want);
        assert!(got.budget_exhausted);
    }

    #[test]
    fn parallel_more_threads_than_nodes_clamps() {
        let want = all_to_all(3).run();
        let got = all_to_all(3).run_parallel(16);
        assert_eq!(got, want);
    }

    #[test]
    fn shadow_heap_bit_identical_to_wheel() {
        // Same machine, both queue implementations, with ties, jitter,
        // faults, and schedule perturbation in play: reports and app state
        // must match exactly.
        let build = |kind: QueueKind, seed: u64| {
            let mut m = all_to_all(7);
            m.net.jitter_ns = 3_000;
            m.set_faults(FaultPlan {
                seed,
                dup_p: 0.25,
                delay_p: 0.25,
                delay_max_ns: 40_000,
                ..FaultPlan::default()
            });
            m.perturb_schedule(seed);
            m.set_queue_kind(kind);
            m
        };
        for seed in 0..4 {
            let mut a = build(QueueKind::Wheel, seed);
            let mut b = build(QueueKind::ShadowHeap, seed);
            assert_eq!(a.run(), b.run(), "queues diverged at seed {seed}");
            assert_eq!(checksums(&a), checksums(&b));
        }
    }

    #[test]
    fn pause_fault_exercises_wheel_overflow() {
        // A multi-millisecond pause pushes deliveries far beyond the
        // wheel's in-ring horizon: the overflow path must reproduce the
        // shadow heap exactly.
        let build = |kind: QueueKind| {
            let mut m = pingpong_machine(3, NetConfig::default());
            m.set_faults(FaultPlan {
                pauses: vec![crate::fault::NodePause {
                    node: 1,
                    from_ns: 0,
                    until_ns: 50_000_000,
                }],
                ..FaultPlan::default()
            });
            m.set_queue_kind(kind);
            m
        };
        let a = build(QueueKind::Wheel).run();
        let b = build(QueueKind::ShadowHeap).run();
        assert_eq!(a, b);
        assert!(a.completed && a.makespan().as_ns() >= 50_000_000);
    }

    // ------------------------------------------------------------- reset

    /// Configure an all-to-all machine with jitter, probabilistic faults,
    /// and a perturbed schedule — the adversarial reuse case.
    fn arm(m: &mut Machine<AllToAll>, seed: u64) {
        m.net.jitter_ns = 2_500;
        m.set_faults(FaultPlan {
            seed,
            dup_p: 0.2,
            delay_p: 0.25,
            delay_max_ns: 30_000,
            ..FaultPlan::default()
        });
        m.perturb_schedule(seed);
    }

    fn a2a_procs(n: u16) -> Vec<AllToAll> {
        (0..n)
            .map(|me| AllToAll {
                me,
                received: 0,
                expect: 2 * (n as u32 - 1),
                woke: false,
                checksum: 0,
            })
            .collect()
    }

    #[test]
    fn reset_runs_bit_identical_to_fresh() {
        for kind in [QueueKind::Wheel, QueueKind::ShadowHeap] {
            // Fresh baselines for two different jobs.
            let mut f1 = all_to_all(7);
            f1.set_queue_kind(kind);
            arm(&mut f1, 11);
            let want1 = f1.run();
            let mut f2 = all_to_all(5);
            f2.set_queue_kind(kind);
            arm(&mut f2, 23);
            let want2 = f2.run();

            // One machine running both jobs back-to-back via reset.
            let mut m = all_to_all(7);
            m.set_queue_kind(kind);
            arm(&mut m, 11);
            let got1 = m.run();
            assert_eq!(got1, want1, "first run diverged ({kind:?})");
            assert_eq!(checksums(&m), checksums(&f1));
            m.reset(a2a_procs(5));
            arm(&mut m, 23);
            let got2 = m.run();
            assert_eq!(got2, want2, "reset run diverged from fresh ({kind:?})");
            assert_eq!(checksums(&m), checksums(&f2));
        }
    }

    #[test]
    fn reset_discards_abandoned_events() {
        // A budget-exhausted run leaves events queued; reset must discard
        // them and the next job must match a fresh machine exactly.
        let mut m = Machine::new(vec![Echo, Echo], NetConfig::default());
        m.max_events = 50;
        let r = m.run();
        assert!(r.budget_exhausted);
        m.reset(vec![Echo, Echo]);
        // max_events rewound to unlimited: the echo pair would livelock, so
        // give it a budget again and confirm the guard still works.
        m.max_events = 60;
        let r2 = m.run();
        let mut fresh = Machine::new(vec![Echo, Echo], NetConfig::default());
        fresh.max_events = 60;
        assert_eq!(r2, fresh.run(), "post-reset run diverged from fresh");
    }

    #[test]
    fn reset_after_parallel_run_matches_fresh() {
        let mut fresh = all_to_all(6);
        let want = fresh.run();
        let mut m = all_to_all(6);
        let _ = m.run_parallel(3);
        m.reset(a2a_procs(6));
        assert_eq!(m.run(), want, "reset after parallel run diverged");
        assert_eq!(checksums(&m), checksums(&fresh));
    }

    #[test]
    fn env_threads_parses() {
        // Unset (or earlier-cleared) variable defaults to sequential. Avoid
        // mutating the process environment in-test: just exercise parse paths
        // indirectly via the default.
        assert!(env_threads() >= 1);
    }
}
