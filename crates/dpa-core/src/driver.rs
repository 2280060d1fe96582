//! Phase orchestration: build a machine for a configuration, run it, and
//! hand back both the timing report and the per-node application state.
//! One machine body (`run_machine`) serves every entry point; one loop
//! ([`run_phases`]) crosses phase barriers.

use crate::boundary;
use crate::config::{DpaConfig, Variant};
use crate::invariant::NodeSnapshot;
use crate::msg::DpaMsg;
use crate::proc_caching::CachingProc;
use crate::proc_dpa::DpaProc;
use crate::work::PtrApp;
use global_heap::MigrationTable;
use sim_net::{FaultPlan, Machine, NetConfig, NodeId, Proc, QueueKind, RunReport, Trace};

/// Run one phase of `app` instances (one per node) under `cfg` on a
/// `nodes`-node machine with network `net`.
///
/// `mk` builds the per-node application; `collect` is called once per node
/// after the run with the node id and its final application state (e.g. to
/// gather computed forces). Panics if the run stalls (fault injection is
/// exercised through [`run_phase_dst`] instead).
pub fn run_phase<A: PtrApp>(
    nodes: u16,
    net: NetConfig,
    cfg: DpaConfig,
    mk: impl FnMut(u16) -> A,
    collect: impl FnMut(u16, &A),
) -> RunReport {
    let (report, _) = run_phase_dst(nodes, net, cfg, &DstOptions::default(), mk, collect);
    assert!(
        report.completed,
        "phase stalled: {} packets dropped",
        report.stats.dropped_packets
    );
    report
}

/// Like [`run_phase`] but also records a per-node execution timeline
/// (exportable via [`Trace::to_chrome_json`]). `capacity` bounds the span
/// count. Tolerates a stall; check [`RunReport::completed`].
pub fn run_phase_traced<A: PtrApp>(
    nodes: u16,
    net: NetConfig,
    cfg: DpaConfig,
    mk: impl FnMut(u16) -> A,
    collect: impl FnMut(u16, &A),
    capacity: usize,
) -> (RunReport, Trace) {
    let opts = DstOptions::default();
    let (report, _, trace) = run_single(nodes, net, cfg, &opts, Some(capacity), mk, collect);
    (report, trace.expect("tracing enabled"))
}

/// Knobs for a deterministic-simulation-testing run.
#[derive(Clone, Debug)]
pub struct DstOptions {
    /// When `Some`, perturb event ordering with this seed: equal-timestamp
    /// events are permuted and (if `net.jitter_ns > 0`) remote deliveries
    /// get seeded extra delay. `None` runs the canonical schedule.
    pub schedule_seed: Option<u64>,
    /// Fault plan applied to every send (see [`sim_net::fault`]).
    pub faults: FaultPlan,
    /// Inert: read by nothing, defaults to 1. The simulator has one
    /// (sequential) engine; the field stays only because the benchmark of
    /// record (`benchmark/`) constructs it, and it goes when the benchmark
    /// is decoupled from the runtime's internals (ROADMAP 1(c)).
    #[doc(hidden)]
    pub threads: usize,
    /// Event-queue implementation ([`Machine::set_queue_kind`]): the
    /// timing wheel (default) or the shadow binary heap it is
    /// differentially tested against.
    pub queue: QueueKind,
    /// Hard cap on events processed per machine run ([`Machine::max_events`];
    /// `u64::MAX` = unlimited, the default). When the cap is hit the run
    /// stops with a structured `budget_exhausted` stall instead of spinning
    /// — the run-service shards use this to reap runaway jobs.
    pub max_events: u64,
    /// Wall-clock deadline for multi-phase runs (`None` = unlimited, the
    /// default). Checked at every phase *boundary*: once the deadline has
    /// passed, the next phase runs with a zero event budget, producing the
    /// same structured `budget_exhausted` stall as `max_events` — real
    /// snapshots, honest partial reports — so a run-service shard can reap
    /// and bill a job that outlived its tenant's wall budget mid-run.
    /// Simulated time stays deterministic; only *whether the run was cut
    /// short* depends on the host clock, which is the point.
    pub wall_deadline: Option<std::time::Instant>,
}

impl Default for DstOptions {
    fn default() -> Self {
        DstOptions {
            schedule_seed: None,
            faults: FaultPlan::default(),
            threads: 1,
            queue: QueueKind::Wheel,
            max_events: u64::MAX,
            wall_deadline: None,
        }
    }
}

/// The per-phase event budget under `opts`: the configured `max_events`,
/// or zero once a multi-phase run's wall deadline has passed (never
/// applied to phase 0 — admission control owns the "don't even start"
/// decision; this owns "stop at the next boundary").
fn phase_event_budget(opts: &DstOptions, phase: usize) -> u64 {
    if phase > 0
        && opts
            .wall_deadline
            .is_some_and(|d| std::time::Instant::now() >= d)
    {
        0
    } else {
        opts.max_events
    }
}

/// Like [`run_phase`] but under DST control: applies `opts`' fault plan
/// and schedule perturbation, and returns per-node runtime-state snapshots
/// for the invariant checker alongside the report. Never panics on a
/// stall — the report's `stalls` carry the diagnosis instead.
pub fn run_phase_dst<A: PtrApp>(
    nodes: u16,
    net: NetConfig,
    cfg: DpaConfig,
    opts: &DstOptions,
    mk: impl FnMut(u16) -> A,
    collect: impl FnMut(u16, &A),
) -> (RunReport, Vec<NodeSnapshot>) {
    let (report, snaps, _) = run_single(nodes, net, cfg, opts, None, mk, collect);
    (report, snaps)
}

/// The single-phase entries' shared body: pick the node driver for
/// `cfg.variant` and run it once on a fresh machine.
fn run_single<A: PtrApp>(
    nodes: u16,
    net: NetConfig,
    cfg: DpaConfig,
    opts: &DstOptions,
    trace_capacity: Option<usize>,
    mut mk: impl FnMut(u16) -> A,
    collect: impl FnMut(u16, &A),
) -> (RunReport, Vec<NodeSnapshot>, Option<Trace>) {
    assert!(nodes >= 1);
    if matches!(cfg.variant, Variant::Sequential) {
        assert_eq!(nodes, 1, "the sequential reference runs on one node");
    }
    match cfg.variant {
        Variant::Dpa | Variant::Sequential => {
            let procs = (0..nodes)
                .map(|i| DpaProc::new(mk(i), nodes as usize, cfg.clone()))
                .collect();
            run_machine(&mut None, procs, &net, opts, 0, trace_capacity, collect)
        }
        Variant::Caching | Variant::Blocking => {
            let procs = (0..nodes)
                .map(|i| CachingProc::new(mk(i), nodes as usize, cfg.clone()))
                .collect();
            run_machine(&mut None, procs, &net, opts, 0, trace_capacity, collect)
        }
    }
}

/// What [`run_machine`] needs of a node driver beyond [`Proc`].
trait NodeProc: Proc<Msg = DpaMsg> + Send {
    type App;
    fn app(&self) -> &Self::App;
    fn snapshot(&self, node: u16) -> NodeSnapshot;
}

impl<A: PtrApp> NodeProc for DpaProc<A> {
    type App = A;
    fn app(&self) -> &A {
        DpaProc::app(self)
    }
    fn snapshot(&self, node: u16) -> NodeSnapshot {
        DpaProc::snapshot(self, node)
    }
}

impl<A: PtrApp> NodeProc for CachingProc<A> {
    type App = A;
    fn app(&self) -> &A {
        CachingProc::app(self)
    }
    fn snapshot(&self, node: u16) -> NodeSnapshot {
        CachingProc::snapshot(self, node)
    }
}

/// Run `procs` as phase `phase` under `opts`, then snapshot and `collect`
/// every node. The machine in `machine` is reused when there is one:
/// `Machine::reset` hands it the next phase's procs while retaining the
/// timing wheel's warmed bucket pool — bit-identical to a fresh machine
/// (the reset regression tests and every equivalence sweep pin this down),
/// which is also what lets a run-service shard reuse its machine between
/// jobs. It stays in `machine` afterwards, procs and all.
fn run_machine<P: NodeProc>(
    machine: &mut Option<Machine<P>>,
    procs: Vec<P>,
    net: &NetConfig,
    opts: &DstOptions,
    phase: usize,
    trace_capacity: Option<usize>,
    mut collect: impl FnMut(u16, &P::App),
) -> (RunReport, Vec<NodeSnapshot>, Option<Trace>) {
    let nodes = procs.len() as u16;
    let m = match machine {
        Some(m) => {
            m.reset(procs);
            m
        }
        None => machine.insert(Machine::new(procs, net.clone())),
    };
    m.set_queue_kind(opts.queue);
    m.set_faults(opts.faults.clone());
    if let Some(seed) = opts.schedule_seed {
        // Vary the perturbation per phase, deterministically.
        m.perturb_schedule(seed.wrapping_add(phase as u64));
    }
    if let Some(capacity) = trace_capacity {
        m.enable_tracing(capacity);
    }
    m.max_events = phase_event_budget(opts, phase);
    let report = m.run();
    let mut snaps = Vec::with_capacity(nodes as usize);
    for i in 0..nodes {
        let p = m.proc(NodeId(i));
        snaps.push(p.snapshot(i));
        collect(i, p.app());
    }
    (report, snaps, m.take_trace())
}

/// Multi-phase DPA run: every phase runs under DST control like
/// [`run_phase_dst`], and what crosses the barrier between two phases is
/// read off `cfg` — each node's [`PhaseCarry`](crate::PhaseCarry), patched
/// by the boundary pass ([`crate::boundary`]). `cfg.policy` says what the
/// boundary does with the affinity the phase gathered; `cfg.differential`
/// says whether M and renamed storage carry:
///
/// * **`Policy::Cache`** (the default). Nothing: objects stay at their
///   birth homes.
/// * **`Policy::Migrate`**. The per-node [`MigrationTable`]s carry and the
///   affinity each phase-end report accumulated is committed: objects
///   re-home offline to their dominant consumer — the only place a home
///   changes. The next phase's requesters then find them local to their
///   new homes, which is where migration's message savings come from:
///   within a single phase the arrival set already deduplicates fetches,
///   so only cross-phase re-homing can remove request traffic.
/// * **`Policy::Replicate`**. Wide-fan-out pointers with no dominant
///   consumer are promoted into the owner's
///   [`ReplicaDirectory`](global_heap::ReplicaDirectory) and pinned, then
///   the `Migrate` re-homing runs around them; write-heavy windows demote
///   on the way out of each phase. Directories carry with their
///   generations refreshed against the next phase's objects, so only
///   moved generations re-broadcast.
/// * **Differential re-alignment** (`differential`, under any policy).
///   Instead of rebuilding the runtime tables from scratch, each node's
///   arrival set carries with every entry stamped with the generation it
///   was fetched at, and M/D carry their interners. At `on_start` every
///   owner announces to each consumer carrying its objects which of them
///   changed ([`crate::DpaMsg::PhaseDelta`] — an empty list is the
///   all-clear); a consumer gates its first strip on hearing from every
///   carried home, invalidates the listed copies, and refetches them on
///   next use. Carried entries whose home moved at this boundary, or is
///   now the consumer itself, are pruned so they refetch from the new
///   home.
///
/// Under `Cache` without `differential` this degenerates to `phases`
/// independent phases, so an ablation differs only in the knobs.
/// Correctness bar: interaction checksums are bit-identical whether or not
/// `cfg.differential` is set — stale carries are observable because
/// value-sensitive apps fold the stamp into their digests (see the
/// `StaleCacheEntry` oracle).
///
/// `mk(phase, node)` builds each phase's per-node app; `collect` sees
/// every node after every phase. Returns the per-phase reports, the
/// per-phase invariant snapshots, and the final migration tables (empty
/// under `Cache`).
pub fn run_phases<A: PtrApp>(
    nodes: u16,
    net: NetConfig,
    cfg: DpaConfig,
    opts: &DstOptions,
    phases: usize,
    mut mk: impl FnMut(usize, u16) -> A,
    mut collect: impl FnMut(usize, u16, &A),
) -> (Vec<RunReport>, Vec<Vec<NodeSnapshot>>, Vec<MigrationTable>) {
    assert!(nodes >= 1 && phases >= 1);
    assert!(
        matches!(cfg.variant, Variant::Dpa),
        "phase carries drive the DPA variant only, got {:?}",
        cfg.variant
    );
    let mut reports = Vec::with_capacity(phases);
    let mut all_snaps = Vec::with_capacity(phases);
    let mut machine: Option<Machine<DpaProc<A>>> = None;
    for phase in 0..phases {
        let mut procs: Vec<_> = (0..nodes)
            .map(|i| DpaProc::new(mk(phase, i), nodes as usize, cfg.clone()))
            .collect();
        if let Some(m) = machine.as_mut() {
            // The boundary: `m` still holds the previous phase's procs
            // (their apps answer the close half), `procs` the next one's.
            let mut carries: Vec<_> = (0..nodes)
                .map(|i| m.proc_mut(NodeId(i)).take_carry())
                .collect();
            let moved = boundary::close_phase(&cfg, &mut carries, |n| m.proc(NodeId(n)).app());
            boundary::open_phase(&cfg, &mut carries, &moved, |n| procs[n as usize].app());
            for (p, carry) in procs.iter_mut().zip(carries) {
                p.install_carry(carry);
            }
        }
        let (report, snaps, _) =
            run_machine(&mut machine, procs, &net, opts, phase, None, |i, app| {
                collect(phase, i, app)
            });
        reports.push(report);
        all_snaps.push(snaps);
    }
    let m = machine.as_mut().expect("phases >= 1");
    let tables = (0..nodes)
        .filter_map(|i| m.proc_mut(NodeId(i)).take_carry().migration)
        .collect();
    (reports, all_snaps, tables)
}
