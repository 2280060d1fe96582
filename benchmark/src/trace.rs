//! Outside-in tracing: the wrappers and the span recorder of the traced run.
//!
//! Nothing under `crates/` is instrumented. Host time is attributed to
//! layers by wrapping the two public traits the layers meet at:
//!
//! * [`SpanProc`] wraps a `sim_net::Proc` — time inside `on_start` /
//!   `on_message` / `on_wake` is the runtime and everything below it;
//!   `Machine::run` wall minus that is `sim-net`'s own (queue, courier,
//!   fault decision, delivery, stats).
//! * [`SpanApp`] wraps a `dpa_core::PtrApp` — time inside
//!   `start_iteration` / `run_work` / `apply_update` is `apps` + `nbody`
//!   math; handler time minus that is `dpa-core` (with the `fastmsg` and
//!   `global-heap` calls it inlines).
//!
//! A phase makes millions of sub-microsecond calls, so reading the clock
//! around each would cost more than the calls themselves (a prototype ran
//! `bh16` at 0.78 s against 0.29 s untraced). Calls are therefore counted
//! exactly and *timed at random*, on average one in [`APP_STRIDE`] app calls
//! and one in [`HANDLER_STRIDE`] handler calls; the sampled mean, less the
//! cost of the clock read inside the timed region (measured on the spot,
//! see [`CallStat`]), is scaled by the exact call count. Random gaps rather than every n-th call, so a
//! periodic call pattern cannot alias with the sampler.
//!
//! Coarse levels (`rep`, `setup.*`, `machine.run`, `phase`, `collect`,
//! `verify`, `job`) are recorded as raw spans by the [`Recorder`] and
//! written out in Chrome trace format when the run ends.

use crate::json::Json;
use dpa_core::{DpaConfig, DpaProc, DstOptions, NodeSnapshot, PtrApp, WorkEnv};
use global_heap::GPtr;
use sim_net::{Ctx, Machine, NetConfig, NodeId, NodeStats, Proc, RunReport};
use std::time::Instant;

/// Mean gap between timed app calls.
pub const APP_STRIDE: u32 = 128;
/// Mean gap between timed `on_message` / `on_wake` handler calls
/// (`on_start` runs once per node and is always timed).
pub const HANDLER_STRIDE: u32 = 16;

/// The cheapest monotonic counter the host has. The wrappers time calls
/// that last tens of nanoseconds, where `Instant::now()` (65 ns a read on
/// the reference sandbox) would be most of what it measures; the TSC reads
/// in a few. Ticks become nanoseconds through [`ClockCost::ns_per_tick`].
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn ticks() -> u64 {
    // SAFETY: `rdtsc` reads a counter register; it has no preconditions and
    // touches no memory. (Recent toolchains declare it safe.)
    #[allow(unused_unsafe)]
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
}

/// Portable fallback: nanoseconds since the first call.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn ticks() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Host nanoseconds per [`ticks`] tick, measured against the OS clock over
/// an interval long enough that reading it does not matter (≈ 20 ms).
pub fn calibrate_ns_per_tick() -> f64 {
    let (t0, c0) = (Instant::now(), ticks());
    while t0.elapsed().as_millis() < 20 {
        std::hint::spin_loop();
    }
    let (elapsed_ns, c1) = (t0.elapsed().as_nanos() as f64, ticks());
    elapsed_ns / (c1 - c0).max(1) as f64
}

/// Picks which calls get timed: gaps uniform in `0..2·mean`, from a
/// xorshift stream private to the wrapper (so runs repeat).
#[derive(Clone, Debug)]
struct Sampler {
    left: u32,
    state: u32,
    mask: u32,
}

impl Sampler {
    fn new(mean: u32, seed: u32) -> Sampler {
        assert!(mean.is_power_of_two());
        Sampler {
            left: seed % mean,
            state: seed | 1,
            mask: 2 * mean - 1,
        }
    }

    #[inline]
    fn hit(&mut self) -> bool {
        if self.left > 0 {
            self.left -= 1;
            return false;
        }
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.state = x;
        self.left = x & self.mask;
        true
    }
}

/// Exact call count plus the timed sample of one call kind.
///
/// A timed call reads the counter three times: twice back to back, then
/// once after the call. The first interval is empty — it is what one read
/// costs *right there*, with the caches and predictors in the state the
/// call finds them — and is subtracted from the second, so no calibration
/// taken elsewhere (in a hot loop that flatters the clock) is involved.
#[derive(Clone, Copy, Debug, Default)]
pub struct CallStat {
    /// Calls made (exact).
    pub calls: u64,
    /// Calls timed.
    pub sampled: u64,
    /// Ticks across the timed calls (one clock read still inside each).
    pub sampled_ticks: u64,
    /// Ticks across the empty intervals read just before each timed call.
    pub null_ticks: u64,
}

impl CallStat {
    /// Fold another node's (or rep's) stat into this one.
    pub fn add(&mut self, o: &CallStat) {
        self.calls += o.calls;
        self.sampled += o.sampled;
        self.sampled_ticks += o.sampled_ticks;
        self.null_ticks += o.null_ticks;
    }

    /// Estimated host ns over *all* calls: the sampled mean, less the
    /// clock read inside each interval, times the exact count.
    pub fn estimate_ns(&self, ns_per_tick: f64) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        let net = self.sampled_ticks.saturating_sub(self.null_ticks) as f64 * ns_per_tick;
        net / self.sampled as f64 * self.calls as f64
    }

    /// Host ns the three clock reads of every timed call cost: one inside
    /// the timed interval (already out of [`CallStat::estimate_ns`]) and
    /// two around it, which land in whatever encloses the call.
    pub fn clock_ns_outside(&self, ns_per_tick: f64) -> f64 {
        2.0 * self.null_ticks as f64 * ns_per_tick
    }
}

#[inline]
fn timed<R>(stat: &mut CallStat, take: bool, f: impl FnOnce() -> R) -> R {
    stat.calls += 1;
    if !take {
        return f();
    }
    let t0 = ticks();
    let t1 = ticks();
    let r = f();
    let t2 = ticks();
    stat.null_ticks += t1 - t0;
    stat.sampled_ticks += t2 - t1;
    stat.sampled += 1;
    r
}

/// App call kinds, indexing [`SpanApp::stats`].
pub const APP_KINDS: [&str; 3] = ["start_iteration", "run_work", "apply_update"];
/// Handler kinds, indexing [`SpanProc::stats`].
pub const HANDLER_KINDS: [&str; 3] = ["on_start", "on_message", "on_wake"];

/// A `PtrApp` that counts and samples its three hot calls and forwards
/// everything else untouched.
pub struct SpanApp<A> {
    /// The wrapped application.
    pub inner: A,
    sampler: Sampler,
    /// Per-kind stats, indexed like [`APP_KINDS`].
    pub stats: [CallStat; 3],
}

impl<A> SpanApp<A> {
    /// Wrap `inner`; `node` decorrelates the per-node sample streams.
    pub fn new(inner: A, node: u16) -> SpanApp<A> {
        SpanApp {
            inner,
            sampler: Sampler::new(
                APP_STRIDE,
                0x9E37_79B9 ^ (node as u32).wrapping_mul(0x85EB_CA6B),
            ),
            stats: [CallStat::default(); 3],
        }
    }
}

impl<A: PtrApp> PtrApp for SpanApp<A> {
    type Work = A::Work;

    fn num_iterations(&self) -> usize {
        self.inner.num_iterations()
    }

    #[inline]
    fn start_iteration(&mut self, iter: usize, env: &mut WorkEnv<'_, Self::Work>) {
        let take = self.sampler.hit();
        let inner = &mut self.inner;
        timed(&mut self.stats[0], take, || {
            inner.start_iteration(iter, env)
        })
    }

    #[inline]
    fn run_work(&mut self, work: Self::Work, env: &mut WorkEnv<'_, Self::Work>) {
        let take = self.sampler.hit();
        let inner = &mut self.inner;
        timed(&mut self.stats[1], take, || inner.run_work(work, env))
    }

    fn object_size(&self, ptr: GPtr) -> u32 {
        self.inner.object_size(ptr)
    }

    fn work_state_bytes(&self) -> u32 {
        self.inner.work_state_bytes()
    }

    #[inline]
    fn apply_update(&mut self, ptr: GPtr, value: f64) {
        let take = self.sampler.hit();
        let inner = &mut self.inner;
        timed(&mut self.stats[2], take, || inner.apply_update(ptr, value))
    }

    fn object_generation(&self, ptr: GPtr) -> u32 {
        self.inner.object_generation(ptr)
    }
}

/// A `Proc` that counts and samples its handlers and forwards the rest.
pub struct SpanProc<P> {
    /// The wrapped node behaviour.
    pub inner: P,
    sampler: Sampler,
    /// Per-kind stats, indexed like [`HANDLER_KINDS`].
    pub stats: [CallStat; 3],
}

impl<P> SpanProc<P> {
    /// Wrap `inner`; `node` decorrelates the per-node sample streams.
    pub fn new(inner: P, node: u16) -> SpanProc<P> {
        SpanProc {
            inner,
            sampler: Sampler::new(
                HANDLER_STRIDE,
                0xC2B2_AE35 ^ (node as u32).wrapping_mul(0x27D4_EB2F),
            ),
            stats: [CallStat::default(); 3],
        }
    }
}

impl<P: Proc> Proc for SpanProc<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let inner = &mut self.inner;
        timed(&mut self.stats[0], true, || inner.on_start(ctx))
    }

    #[inline]
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, src: NodeId, msg: Self::Msg) {
        let take = self.sampler.hit();
        let inner = &mut self.inner;
        timed(&mut self.stats[1], take, || inner.on_message(ctx, src, msg))
    }

    #[inline]
    fn on_wake(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        let take = self.sampler.hit();
        let inner = &mut self.inner;
        timed(&mut self.stats[2], take, || inner.on_wake(ctx))
    }

    fn quiescent(&self) -> bool {
        self.inner.quiescent()
    }

    fn on_finish(&mut self, stats: &mut NodeStats) {
        self.inner.on_finish(stats)
    }

    fn stall_detail(&self) -> Option<String> {
        self.inner.stall_detail()
    }
}

/// Track of everything that nests on the harness thread.
pub const HARNESS_TID: u32 = 1;
/// Track of shard 0's jobs; shard `k` is `SHARD_TID + k`. Jobs run on shard
/// threads and overlap the harness, so each shard gets a track of its own.
pub const SHARD_TID: u32 = 2;

/// One raw span of the traced run.
#[derive(Clone, Debug)]
pub struct RawSpan {
    /// Level name (`rep`, `setup.world`, `machine.run`, …).
    pub name: &'static str,
    /// Start, host ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, host ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// Which rep (or job) this span belongs to; spans of one rep share it.
    pub rep: u32,
    /// Trace track: [`HARNESS_TID`], or [`SHARD_TID`] + shard for a job.
    pub tid: u32,
}

impl RawSpan {
    /// Duration in host ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store; written out once, when the run ends.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<RawSpan>,
    open: Vec<u32>,
    /// Rep id stamped on spans opened from now on.
    pub rep: u32,
    /// Host ns per [`CallStat`] tick.
    pub ns_per_tick: f64,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
            ns_per_tick: calibrate_ns_per_tick(),
        }
    }

    /// Host ns since the recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; returns `f`'s result and the
    /// span's duration in host ns.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> (R, u64) {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(RawSpan {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
            tid: HARNESS_TID,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        (r, end_ns - start_ns)
    }

    /// Record a span measured elsewhere (a job timed by a shard thread).
    pub fn push_closed(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        rep: u32,
        tid: u32,
    ) {
        self.spans.push(RawSpan {
            name,
            start_ns,
            end_ns,
            parent: None,
            rep,
            tid,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[RawSpan] {
        &self.spans
    }

    /// Total host ns of spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(RawSpan::dur_ns)
            .sum()
    }

    /// The run as a Chrome trace (`chrome://tracing`, Perfetto): one
    /// complete (`X`) event per span, `ts`/`dur` in host µs, with the span
    /// id, its parent and its rep in `args`. `layers` rides along as a
    /// top-level key the viewers ignore.
    pub fn to_chrome_json(&self, workload: &str, layers: Json) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str(workload)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(s.tid as f64)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("rep", Json::Num(s.rep as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
            ("layers", layers),
        ])
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

/// Sampled call stats of one machine run, summed over nodes.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseCalls {
    /// Handler stats, indexed like [`HANDLER_KINDS`].
    pub handlers: [CallStat; 3],
    /// App-call stats, indexed like [`APP_KINDS`].
    pub apps: [CallStat; 3],
}

impl PhaseCalls {
    /// Fold another phase's (or rep's) calls into this one.
    pub fn add(&mut self, o: &PhaseCalls) {
        for k in 0..3 {
            self.handlers[k].add(&o.handlers[k]);
            self.apps[k].add(&o.apps[k]);
        }
    }

    /// Estimated host ns inside handlers.
    pub fn handler_ns(&self, ns_per_tick: f64) -> f64 {
        self.handlers
            .iter()
            .map(|s| s.estimate_ns(ns_per_tick))
            .sum()
    }

    /// Estimated host ns inside app calls.
    pub fn app_ns(&self, ns_per_tick: f64) -> f64 {
        self.apps.iter().map(|s| s.estimate_ns(ns_per_tick)).sum()
    }

    /// Exact app-call count.
    pub fn app_calls(&self) -> u64 {
        self.apps.iter().map(|s| s.calls).sum()
    }
}

/// The traced twin of `dpa_core::run_phase_dst` for the DPA variant on the
/// sequential engine: same proc construction, same machine, same collect —
/// with both wrappers in place and a span around each step. `opts` must be
/// fault-free, single-threaded and unperturbed (the measured lane).
pub fn run_phase_spanned<A: PtrApp>(
    rec: &mut Recorder,
    nodes: u16,
    net: NetConfig,
    cfg: DpaConfig,
    opts: &DstOptions,
    mut mk: impl FnMut(u16) -> A,
    mut collect: impl FnMut(u16, &A),
) -> (RunReport, Vec<NodeSnapshot>, PhaseCalls) {
    assert!(
        opts.threads == 1 && opts.faults.is_none() && opts.schedule_seed.is_none(),
        "the spanned run is the measured lane"
    );
    let (mut m, _) = rec.span("setup.procs", |_| {
        let procs: Vec<_> = (0..nodes)
            .map(|i| {
                SpanProc::new(
                    DpaProc::new(SpanApp::new(mk(i), i), nodes as usize, cfg.clone()),
                    i,
                )
            })
            .collect();
        let mut m = Machine::new(procs, net);
        m.set_queue_kind(opts.queue);
        m
    });
    let (report, _) = rec.span("machine.run", |_| m.run());
    let mut calls = PhaseCalls::default();
    let (snaps, _) = rec.span("collect", |_| {
        let mut snaps = Vec::with_capacity(nodes as usize);
        for i in 0..nodes {
            let p = m.proc(NodeId(i));
            snaps.push(p.inner.snapshot(i));
            let app = p.inner.app();
            collect(i, &app.inner);
            for k in 0..3 {
                calls.handlers[k].add(&p.stats[k]);
                calls.apps[k].add(&app.stats[k]);
            }
        }
        snaps
    });
    (report, snaps, calls)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_mean_gap_matches_stride() {
        let mut s = Sampler::new(APP_STRIDE, 12345);
        let n = 1_000_000;
        let hits = (0..n).filter(|_| s.hit()).count();
        let gap = n as f64 / hits as f64;
        assert!(
            (0.95..1.05).contains(&(gap / APP_STRIDE as f64)),
            "mean gap {gap}"
        );
    }

    #[test]
    fn estimate_scales_sample_by_exact_count() {
        let s = CallStat {
            calls: 1_000,
            sampled: 10,
            sampled_ticks: 10 * 240,
            null_ticks: 10 * 40,
        };
        // (240 - 40) ticks x 0.5 ns per call x 1000 calls.
        assert_eq!(s.estimate_ns(0.5), 100_000.0);
        assert_eq!(s.clock_ns_outside(0.5), 400.0);
        assert_eq!(CallStat::default().estimate_ns(0.5), 0.0);
    }

    #[test]
    fn recorder_nests_and_exports() {
        let mut rec = Recorder::new();
        rec.rep = 3;
        let ((), outer) = rec.span("rep", |r| {
            r.span("machine.run", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[1].rep, 3);
        assert!(outer >= rec.spans()[1].dur_ns());
        assert!(rec.total_ns("machine.run") >= 2_000_000);
        let j = rec.to_chrome_json("bh16", Json::Null);
        let events = j.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
    }
}
