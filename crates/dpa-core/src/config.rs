//! Runtime configuration: execution variant, strip size, aggregation
//! window, pipelining toggle, and the CPU cost model.
//!
//! The paper's evaluation sweeps exactly these knobs:
//! * **variant** — full DPA vs the software-caching baseline (Table 1),
//! * **strip size** — the k-bounded top-level loop window (strip-size
//!   figure; "DPA (50)" in Table 1 means strip = 50),
//! * **pipeline / aggregation** — the communication-optimization ladder of
//!   the breakdown figure (Base → +Pipeline → +Pipeline+Aggregate).
//!
//! Beyond the paper, a [`Policy`] says what the phase boundary does with
//! the same mapping M, and `differential` says whether M and renamed
//! storage carry across the barrier.

use crate::boundary::{AFFINITY_REPORT_FLOOR, REPLICATION_MIN_FANOUT, REPLICATION_THRESHOLD};
use fastmsg::Mtu;
use global_heap::EvictPolicy;
use std::fmt;

/// Which execution scheme drives the force phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// Dynamic Pointer Alignment: non-blocking threads, pointer→thread
    /// mapping, tiled execution on arrival, scheduled communication.
    Dpa,
    /// Software caching baseline: hash probe on every global access,
    /// blocking round trip per miss, reuse via the cache.
    Caching,
    /// Naive blocking baseline: every remote access is a blocking round
    /// trip; no reuse (one-entry cache), no per-access hashing.
    Blocking,
    /// Zero-overhead single-node reference (the paper's "sequential
    /// version"); only meaningful on one node.
    Sequential,
}

impl Variant {
    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Dpa => "DPA",
            Variant::Caching => "Caching",
            Variant::Blocking => "Blocking",
            Variant::Sequential => "Sequential",
        }
    }
}

/// What the phase boundary does with the affinity M gathered. Two
/// `match`es decide by it: the mode states `DpaProc::try_new` builds and
/// the boundary pass (`boundary::close_phase`); `validate` and `describe`
/// only check and print it. Under either policy every object stays at its
/// birth home (DESIGN.md §6).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Policy {
    /// Remote reads are fetched into renamed storage: the paper's runtime,
    /// and every paper configuration.
    #[default]
    Cache,
    /// Promote wide-fan-out pointers, cache everything else. Each node
    /// samples per-pointer remote dereference counts at align time and
    /// reports them to the objects' homes once, at phase end
    /// (`Affinity`); at each boundary a pointer with high fan-out and no
    /// dominant consumer is promoted — its owner broadcasts a
    /// generation-stamped copy (`Replicate`) to the consumers. Requires
    /// `differential`: replicas ride the carry and the `PhaseDelta` gate.
    Replicate,
}

/// Per-operation CPU costs of the runtime and baselines, in nanoseconds.
///
/// Defaults are calibrated to a ~150 MHz in-order node (T3D Alpha 21064)
/// so that single-node DPA overhead over the sequential version lands near
/// the paper's observed ~20% (118.02 s vs 97.84 s on Barnes-Hut) and the
/// caching baseline's near ~18% (115.15 s).
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    /// Create one dependent thread and label it with its pointer.
    pub thread_create_ns: u64,
    /// Insert/lookup one entry in the pointer→threads mapping M.
    pub map_update_ns: u64,
    /// Dequeue and dispatch one ready thread.
    pub resume_ns: u64,
    /// Append one request to a coalescing buffer.
    pub request_entry_ns: u64,
    /// Install one arrived object into renamed storage.
    pub reply_install_ns: u64,
    /// Owner-side lookup + copy-out per requested object.
    pub owner_lookup_ns: u64,
    /// Caching baseline: hash probe per global access.
    pub cache_probe_ns: u64,
    /// Caching baseline: install per miss fill.
    pub cache_fill_ns: u64,
    /// Caching baseline: extra probe cost per log2 of the cache's entry
    /// count. A populated hash table no longer fits the (8 KB, on the
    /// T3D) L1, so every probe takes a hardware cache miss — the effect
    /// the paper names when crediting DPA's win to "minimized hashing and
    /// better cache performance because of access hoisting". Empty cache
    /// (e.g. the all-local single-node run) pays nothing.
    pub cache_probe_thrash_step_ns: u64,
    /// Cap on the probe-thrash surcharge.
    pub cache_probe_thrash_cap_ns: u64,
    /// Live-thread count beyond which runtime-structure operations slow
    /// down (hash/queue working set exceeding fast storage). This is what
    /// penalizes very large strips in the strip-size experiment.
    pub pressure_threshold_threads: u64,
    /// Added ns per structure operation once past the pressure threshold,
    /// per doubling over the threshold.
    pub pressure_step_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            thread_create_ns: 740,
            map_update_ns: 150,
            resume_ns: 376,
            request_entry_ns: 100,
            reply_install_ns: 200,
            owner_lookup_ns: 300,
            cache_probe_ns: 960,
            cache_fill_ns: 700,
            cache_probe_thrash_step_ns: 70,
            cache_probe_thrash_cap_ns: 840,
            pressure_threshold_threads: 4096,
            pressure_step_ns: 60,
        }
    }
}

impl CostModel {
    /// A zero-cost model (used by the sequential reference and by logic
    /// tests that only check scheduling order).
    pub fn free() -> CostModel {
        CostModel {
            thread_create_ns: 0,
            map_update_ns: 0,
            resume_ns: 0,
            request_entry_ns: 0,
            reply_install_ns: 0,
            owner_lookup_ns: 0,
            cache_probe_ns: 0,
            cache_fill_ns: 0,
            cache_probe_thrash_step_ns: 0,
            cache_probe_thrash_cap_ns: 0,
            pressure_threshold_threads: u64::MAX,
            pressure_step_ns: 0,
        }
    }

    /// Probe-thrash surcharge for a cache currently holding `entries`
    /// objects: `step × log2(entries)`, capped. Zero for an empty cache.
    #[inline]
    pub fn probe_thrash_ns(&self, entries: usize) -> u64 {
        if entries == 0 {
            0
        } else {
            let bits = (usize::BITS - entries.leading_zeros()) as u64;
            (self.cache_probe_thrash_step_ns * bits).min(self.cache_probe_thrash_cap_ns)
        }
    }

    /// Extra per-structure-operation cost at `live` outstanding threads:
    /// zero below the threshold, then `pressure_step_ns` per doubling.
    #[inline]
    pub fn pressure_extra_ns(&self, live: u64) -> u64 {
        if live <= self.pressure_threshold_threads {
            0
        } else {
            let ratio = live / self.pressure_threshold_threads;
            // integer log2 of the overflow ratio, >= 1
            let doublings = 64 - ratio.leading_zeros() as u64;
            self.pressure_step_ns * doublings
        }
    }
}

/// A configuration value that would hang or panic deep inside a run,
/// rejected up front by [`DpaConfig::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A strip of 0 admits no iterations: the phase would never start and
    /// never finish.
    ZeroStrip,
    /// A coalescing window of 0 can never fill: entries would buffer
    /// forever. Names the offending knob.
    ZeroWindow(&'static str),
    /// Reply aggregation with a zero flush deadline: every enqueue would
    /// arm an immediate wake, livelocking the owner.
    ZeroFlushDeadline,
    /// Replication without differential re-alignment: only the carried
    /// `(ptr,size,gen)` stamps and the `PhaseDelta` gate make a stale
    /// replica a diagnosable stall instead of a silent wrong read.
    ReplicationWithoutDifferential,
    /// A replication knob set to a value that can never promote (a zero
    /// budget). Names the offending knob.
    ZeroReplicationKnob(&'static str),
    /// An MTU of 0 bytes fits no packet: the byte-budgeted coalescers
    /// cannot be sized and reply segmentation divides by it.
    ZeroMtu,
    /// A node driver asked to drive a variant it does not run: `DpaProc`
    /// drives DPA and the sequential reference, `CachingProc` the caching
    /// and blocking baselines.
    WrongDriver(Variant),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroStrip => {
                write!(f, "strip size must be >= 1 (a 0 strip admits no iterations)")
            }
            ConfigError::ZeroWindow(knob) => {
                write!(f, "{knob} must be >= 1 (a 0 window can never fill)")
            }
            ConfigError::ZeroFlushDeadline => write!(
                f,
                "reply_flush_deadline_ns must be > 0 when reply_agg_window > 1"
            ),
            ConfigError::ReplicationWithoutDifferential => write!(
                f,
                "replication requires differential mode (the PhaseDelta gate is what \
                 keeps a stale replica a stall, never a silent wrong read)"
            ),
            ConfigError::ZeroReplicationKnob(knob) => {
                write!(f, "{knob} must be >= 1 under Policy::Replicate")
            }
            ConfigError::ZeroMtu => write!(f, "mtu must be >= 1 byte"),
            ConfigError::WrongDriver(variant) => {
                write!(
                    f,
                    "{} runs on the other node driver \
                     (DpaProc: DPA/Sequential, CachingProc: Caching/Blocking)",
                    variant.label()
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Simulated time between polls of the network while a node drives local
/// work. Bounds how stale an incoming request can get before the node
/// services it (FM-style polling); both node drivers slice their drive
/// loops at it.
pub(crate) const POLL_INTERVAL_NS: u64 = 40_000;

/// Full configuration of a phase execution.
#[derive(Clone, Debug, PartialEq)]
pub struct DpaConfig {
    /// Execution scheme.
    pub variant: Variant,
    /// k-bound of the top-level concurrent loop: at most this many loop
    /// iterations are live at once per node (the paper's static strip).
    pub strip: usize,
    /// Aggregation window: requests per destination buffered into one
    /// message. `1` disables aggregation.
    pub agg_window: usize,
    /// When `true`, request batches are sent as soon as they fill and all
    /// buffers are drained at quiescence (latency overlaps local work).
    /// When `false`, a single batch is sent per quiescence and the node
    /// waits — communication is serialized with computation.
    pub pipeline: bool,
    /// Reply-path aggregation window: owner-side reply entries per
    /// destination buffered into one message (`Update` reductions batch
    /// under [`agg_window`](Self::agg_window) instead). `1` disables reply
    /// aggregation — the owner answers
    /// each request batch immediately and separately, which is how the
    /// `Base` and `+Pipeline`-only ladder rungs are expressed. Buffered
    /// replies additionally flush at MTU occupancy, at
    /// [`reply_flush_deadline_ns`](Self::reply_flush_deadline_ns), and
    /// unconditionally at poll-quiescence.
    pub reply_agg_window: usize,
    /// Deadline for buffered owner-side replies, in simulated ns since the
    /// first entry was enqueued for a destination. Bounds how much latency
    /// reply aggregation can add when the owner stays busy between
    /// poll-quiescence points.
    ///
    /// It governs `Update` batches as well: a reduction is fire-and-forget
    /// and nobody waits for it, yet a buffered batch leaves on this reply
    /// deadline (besides its window, MTU occupancy and poll-quiescence).
    /// The run's `reply_flush_*` / `upd_flush_*` counters say which rule
    /// emitted each message; on the message-bound `setops_rw` the deadline
    /// is behind 251 k of 255 k update messages (EXPERIMENTS.md X17).
    pub reply_flush_deadline_ns: u64,
    /// CPU cost model.
    pub cost: CostModel,
    /// Maximum packet payload; longer replies are segmented.
    pub mtu: Mtu,
    /// Caching baseline: bound on cached objects (`None` = unbounded, the
    /// paper's per-phase configuration).
    pub cache_capacity: Option<usize>,
    /// Caching baseline: eviction policy for a bounded cache.
    pub cache_policy: EvictPolicy,
    /// What the phase boundary does with the gathered affinity. `Cache`
    /// by default — every baseline and paper configuration runs it.
    pub policy: Policy,
    /// Differential re-alignment, orthogonal to the policy: carry renamed
    /// storage and the M/D interners across phase barriers, patching them
    /// with boundary deltas (`PhaseDelta`) instead of rebuilding — only
    /// objects whose generation moved are refetched. Off by default; the
    /// one-shot paper configurations are bit-for-bit unchanged. Read by
    /// `run_phases`.
    pub differential: bool,
    /// `Replicate`: maximum fresh promotions per owner per phase boundary.
    /// Bounds the broadcast burst and the directory. This knob and the
    /// next are fields, not constants beside `promote_replicas`, only
    /// because `benchmark/src/drives.rs` reads them.
    pub replication_budget: usize,
    /// `Replicate`: writes per window past which a replicated pointer is
    /// demoted (the read-mostly contract).
    pub replication_write_demote: u64,
}

impl Default for DpaConfig {
    fn default() -> Self {
        DpaConfig {
            variant: Variant::Dpa,
            strip: 50,
            agg_window: 32,
            pipeline: true,
            // Half the poll interval: an owner mid-slice coalesces replies
            // across roughly one poll window without doubling the
            // requester-visible round trip.
            reply_agg_window: 32,
            reply_flush_deadline_ns: 20_000,
            cost: CostModel::default(),
            mtu: Mtu::default(),
            cache_capacity: None,
            cache_policy: EvictPolicy::Fifo,
            policy: Policy::Cache,
            differential: false,
            replication_budget: 4,
            replication_write_demote: 8,
        }
    }
}

impl DpaConfig {
    /// The paper's headline configuration: "DPA (50)".
    pub fn dpa(strip: usize) -> DpaConfig {
        DpaConfig {
            strip,
            ..DpaConfig::default()
        }
    }

    /// DPA with tiling only: no pipelining, no aggregation on either path
    /// (the "Base" bars of the breakdown figure).
    pub fn dpa_base(strip: usize) -> DpaConfig {
        DpaConfig {
            strip,
            agg_window: 1,
            reply_agg_window: 1,
            pipeline: false,
            ..DpaConfig::default()
        }
    }

    /// DPA with pipelining but no aggregation ("+Pipeline"): requests go
    /// out one per push and owners answer immediately.
    pub fn dpa_pipeline(strip: usize) -> DpaConfig {
        DpaConfig {
            strip,
            agg_window: 1,
            reply_agg_window: 1,
            pipeline: true,
            ..DpaConfig::default()
        }
    }

    /// Full DPA with read-mostly replication: differential barriers plus
    /// the affinity signal, so the broad-fan-out hub is promoted to
    /// replicated at the first boundary. The message overhead is the one
    /// per-phase affinity report plus the broadcasts themselves, and the
    /// report floor (`boundary::AFFINITY_REPORT_FLOOR`) keeps even that report
    /// hub-shaped.
    pub fn dpa_replicating(strip: usize) -> DpaConfig {
        DpaConfig {
            strip,
            policy: Policy::Replicate,
            differential: true,
            ..DpaConfig::default()
        }
    }

    /// Check the configuration for values that would hang or panic deep
    /// in a run. Called by the node drivers at construction; callable
    /// directly for an early, actionable `Err`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.strip == 0 {
            return Err(ConfigError::ZeroStrip);
        }
        if self.agg_window == 0 {
            return Err(ConfigError::ZeroWindow("agg_window"));
        }
        if self.reply_agg_window == 0 {
            return Err(ConfigError::ZeroWindow("reply_agg_window"));
        }
        if self.reply_agg_window > 1 && self.reply_flush_deadline_ns == 0 {
            return Err(ConfigError::ZeroFlushDeadline);
        }
        if self.mtu.0 == 0 {
            return Err(ConfigError::ZeroMtu);
        }
        match self.policy {
            Policy::Cache => Ok(()),
            Policy::Replicate if !self.differential => {
                Err(ConfigError::ReplicationWithoutDifferential)
            }
            Policy::Replicate if self.replication_budget == 0 => {
                Err(ConfigError::ZeroReplicationKnob("replication_budget"))
            }
            Policy::Replicate => Ok(()),
        }
    }

    /// The software-caching baseline. Owners answer immediately: the
    /// requester blocks on every miss, so a buffered reply would serialize
    /// the whole machine behind the flush deadline.
    pub fn caching() -> DpaConfig {
        DpaConfig {
            variant: Variant::Caching,
            reply_agg_window: 1,
            ..DpaConfig::default()
        }
    }

    /// The naive blocking baseline (immediate replies, like caching).
    pub fn blocking() -> DpaConfig {
        DpaConfig {
            variant: Variant::Blocking,
            reply_agg_window: 1,
            ..DpaConfig::default()
        }
    }

    /// The zero-overhead sequential reference (single node).
    pub fn sequential() -> DpaConfig {
        DpaConfig {
            variant: Variant::Sequential,
            cost: CostModel::free(),
            ..DpaConfig::default()
        }
    }

    /// A one-line description for experiment headers.
    pub fn describe(&self) -> String {
        match self.variant {
            Variant::Dpa => {
                let repl = match self.policy {
                    Policy::Cache => String::new(),
                    Policy::Replicate => format!(
                        ", replicate(fanout>={REPLICATION_MIN_FANOUT}, \
                         reads>={REPLICATION_THRESHOLD}, budget={}, demote>{}w, \
                         floor={AFFINITY_REPORT_FLOOR})",
                        self.replication_budget, self.replication_write_demote,
                    ),
                };
                let diff = if self.differential {
                    ", differential"
                } else {
                    ""
                };
                format!(
                    "DPA(strip={}, agg={}, reply_agg={}, pipeline={}{}{})",
                    self.strip,
                    self.agg_window,
                    self.reply_agg_window,
                    self.pipeline,
                    diff,
                    repl
                )
            }
            v => v.label().to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_ladder() {
        let base = DpaConfig::dpa_base(50);
        assert!(!base.pipeline);
        assert_eq!(base.agg_window, 1);
        assert_eq!(base.reply_agg_window, 1);
        let pipe = DpaConfig::dpa_pipeline(50);
        assert!(pipe.pipeline);
        assert_eq!(pipe.agg_window, 1);
        assert_eq!(pipe.reply_agg_window, 1);
        let full = DpaConfig::dpa(50);
        assert!(full.pipeline);
        assert!(full.agg_window > 1);
        assert!(full.reply_agg_window > 1);
        assert!(full.reply_flush_deadline_ns > 0);
        assert_eq!(full.strip, 50);
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let zero = DpaConfig::dpa(0);
        assert_eq!(zero.validate(), Err(ConfigError::ZeroStrip));
        let no_deadline = DpaConfig {
            reply_flush_deadline_ns: 0,
            ..DpaConfig::default()
        };
        assert_eq!(no_deadline.validate(), Err(ConfigError::ZeroFlushDeadline));
        // ...but a deadline of 0 is fine when replies go out immediately.
        let immediate = DpaConfig {
            reply_flush_deadline_ns: 0,
            ..DpaConfig::dpa_base(50)
        };
        assert!(immediate.validate().is_ok());
        let no_window = DpaConfig {
            agg_window: 0,
            ..DpaConfig::default()
        };
        assert_eq!(no_window.validate(), Err(ConfigError::ZeroWindow("agg_window")));
        // Errors render actionably.
        assert!(zero.validate().unwrap_err().to_string().contains("strip"));
    }

    #[test]
    fn validation_rejects_a_zero_mtu() {
        // `Mtu`'s field is public; every variant sizes or segments by it.
        for base in [DpaConfig::dpa(8), DpaConfig::caching()] {
            let cfg = DpaConfig {
                mtu: Mtu(0),
                ..base
            };
            assert_eq!(cfg.validate(), Err(ConfigError::ZeroMtu));
        }
        assert!(ConfigError::ZeroMtu.to_string().contains("mtu"));
    }

    #[test]
    fn try_new_returns_the_errors_it_used_to_panic_on() {
        use crate::synth::{SynthApp, SynthParams, SynthWorld};
        let world = SynthWorld::build(SynthParams::default());
        let try_new = |cfg: DpaConfig| {
            crate::DpaProc::try_new(SynthApp::new(world.clone(), 0, 100), 4, cfg).err()
        };
        assert_eq!(try_new(DpaConfig::dpa(8)), None);
        let zero_mtu = DpaConfig {
            mtu: Mtu(0),
            ..DpaConfig::dpa(8)
        };
        assert_eq!(try_new(zero_mtu), Some(ConfigError::ZeroMtu));
        for cfg in [DpaConfig::caching(), DpaConfig::blocking()] {
            let wrong = ConfigError::WrongDriver(cfg.variant);
            assert!(wrong.to_string().contains(cfg.variant.label()));
            assert_eq!(try_new(cfg), Some(wrong));
        }
    }

    #[test]
    fn baselines_reply_immediately() {
        // The blocking requesters of these variants cannot tolerate a
        // buffered reply; the presets must pin reply aggregation off.
        assert_eq!(DpaConfig::caching().reply_agg_window, 1);
        assert_eq!(DpaConfig::blocking().reply_agg_window, 1);
    }

    #[test]
    fn pressure_kicks_in_above_threshold() {
        let c = CostModel::default();
        assert_eq!(c.pressure_extra_ns(10), 0);
        assert_eq!(c.pressure_extra_ns(4096), 0);
        let just_over = c.pressure_extra_ns(4097);
        assert!(just_over > 0);
        let way_over = c.pressure_extra_ns(4096 * 16);
        assert!(way_over > just_over);
    }

    #[test]
    fn free_model_is_free() {
        let c = CostModel::free();
        assert_eq!(c.thread_create_ns, 0);
        assert_eq!(c.pressure_extra_ns(u64::MAX), 0);
    }

    /// Figure labels and experiment headers are built from `describe()`,
    /// so every preset's string is pinned exactly.
    #[test]
    fn describe_mentions_knobs() {
        let full = "agg=32, reply_agg=32, pipeline=true";
        for (cfg, want) in [
            (DpaConfig::default(), format!("DPA(strip=50, {full})")),
            (DpaConfig::dpa(50), format!("DPA(strip=50, {full})")),
            (DpaConfig::dpa(8), format!("DPA(strip=8, {full})")),
            (DpaConfig::dpa(300), format!("DPA(strip=300, {full})")),
            (
                DpaConfig::dpa_base(50),
                "DPA(strip=50, agg=1, reply_agg=1, pipeline=false)".into(),
            ),
            (
                DpaConfig::dpa_pipeline(50),
                "DPA(strip=50, agg=1, reply_agg=1, pipeline=true)".into(),
            ),
            (
                DpaConfig {
                    differential: true,
                    ..DpaConfig::dpa(8)
                },
                format!("DPA(strip=8, {full}, differential)"),
            ),
            (
                DpaConfig::dpa_replicating(8),
                format!(
                    "DPA(strip=8, {full}, differential, \
                     replicate(fanout>=3, reads>=12, budget=4, demote>8w, floor=4))"
                ),
            ),
            (DpaConfig::caching(), "Caching".into()),
            (DpaConfig::blocking(), "Blocking".into()),
            (DpaConfig::sequential(), "Sequential".into()),
        ] {
            assert_eq!(cfg.describe(), want);
        }
    }

    /// Every constructor with its policy and differential flag: only
    /// `dpa_replicating` leaves the paper's runtime.
    fn every_constructor() -> [(DpaConfig, Policy, bool); 8] {
        [
            (DpaConfig::default(), Policy::Cache, false),
            (DpaConfig::dpa(50), Policy::Cache, false),
            (DpaConfig::dpa_base(1), Policy::Cache, false),
            (DpaConfig::dpa_pipeline(300), Policy::Cache, false),
            (DpaConfig::dpa_replicating(8), Policy::Replicate, true),
            (DpaConfig::caching(), Policy::Cache, false),
            (DpaConfig::blocking(), Policy::Cache, false),
            (DpaConfig::sequential(), Policy::Cache, false),
        ]
    }

    #[test]
    fn differential_defaults_off_everywhere() {
        for (cfg, _, differential) in every_constructor() {
            assert_eq!(cfg.differential, differential, "{}", cfg.describe());
        }
    }

    #[test]
    fn migration_defaults_off_everywhere() {
        for (cfg, policy, _) in every_constructor() {
            let name = cfg.describe();
            assert_eq!(cfg.policy, policy, "{name}");
            assert_eq!(cfg.validate(), Ok(()), "{name}");
        }
    }

    #[test]
    fn replication_defaults_off_everywhere() {
        for (cfg, _, differential) in every_constructor() {
            let name = cfg.describe();
            // Replication rides on the differential substrate, and only
            // where that substrate is on.
            assert_eq!(cfg.policy == Policy::Replicate, differential, "{name}");
            assert!(cfg.replication_budget > 0, "{name}");
        }
    }

    #[test]
    fn replication_validation_requires_its_substrate() {
        let no_diff = DpaConfig {
            differential: false,
            ..DpaConfig::dpa_replicating(50)
        };
        assert_eq!(
            no_diff.validate(),
            Err(ConfigError::ReplicationWithoutDifferential)
        );
        let zero_budget = DpaConfig {
            replication_budget: 0,
            ..DpaConfig::dpa_replicating(50)
        };
        assert_eq!(
            zero_budget.validate(),
            Err(ConfigError::ZeroReplicationKnob("replication_budget"))
        );
        // `Cache` never reads the replication knobs.
        let cache = DpaConfig {
            replication_budget: 0,
            ..DpaConfig::dpa(50)
        };
        assert_eq!(cache.validate(), Ok(()));
        // The errors render actionably.
        assert!(no_diff.validate().unwrap_err().to_string().contains("differential"));
    }
}
