//! The names of record: workloads and metrics, with unit, direction and
//! bound. `BENCHMARK.json` at the repo root mirrors these tables and
//! `tests/contract.rs` holds the two to each other, so a metric cannot be
//! renamed in one place only.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of record.
#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    /// Name, `[A-Za-z0-9_.-]+`; per-layer names are `<module>.<what>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change is a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The five workloads, in run order.
pub const WORKLOADS: [&str; 5] = ["bh16", "fmm16", "graph_hub", "setops_rw", "serve_mix"];

/// End-to-end metrics: what a user of the simulator (host time, memory)
/// or of the modelled machine (`sim_*`: simulated time and traffic) sees.
/// Every workload reports every one.
///
/// The `sim_*` and allocator metrics are counts made by a deterministic
/// program over fixed worlds: they read the same on every run, two commits
/// compare exactly (`aa` demands equality), and their bounds are the
/// issue's. `sim_makespan_ms` is in `sim_ms`, simulated milliseconds,
/// spelled apart from the host's `ms` for that reason.
///
/// The host-time bounds are the most the driver's contract allows. It
/// accepts a metric only if its spread over ten seeds (IQR over median)
/// stays within the bound on every workload, and on a bad hour the
/// reference sandbox slows as a whole for minutes on end: the throughputs
/// then spread 9 % on `fmm16` and 17 % on `serve_mix`, and the median of
/// ten runs moves 19 % from one hour to the next. `README.md` has the
/// figures, and why the bound is not what resolves a claim.
pub const END_TO_END: &[MetricSpec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("events_per_s", "1/s", Higher, 0.25),
    e2e("jobs_per_s", "1/s", Higher, 0.25),
    e2e("job_latency_ms_p50", "ms", Lower, 0.25),
    e2e("sim_makespan_ms", "sim_ms", Lower, 0.001),
    e2e("sim_msgs", "count", Lower, 0.02),
    e2e("sim_mbytes", "MB", Lower, 0.02),
    e2e("sim_speedup_vs_baseline", "ratio", Higher, 0.001),
    e2e("allocs_per_kevent", "1/kevent", Lower, 0.01),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
];

/// End-to-end metrics that are counts or simulated quantities: identical
/// from run to run, whatever the host does.
pub const EXACT: &[&str] = &[
    "sim_makespan_ms",
    "sim_msgs",
    "sim_mbytes",
    "sim_speedup_vs_baseline",
    "allocs_per_kevent",
];

/// Per-layer metrics, prefixed by the module they belong to. A metric that
/// does not apply to a workload (update traffic outside `setops_rw`,
/// carries outside `graph_hub`, service numbers outside `serve_mix`, …)
/// reads 0 there.
pub const PER_LAYER: &[MetricSpec] = &[
    // Self time, from the traced run (host time).
    layer("sim-net.self_ms", "ms", Lower),
    layer("sim-net.self_ns_per_event", "ns", Lower),
    layer("dpa-core.self_ms", "ms", Lower),
    layer("dpa-core.self_ns_per_event", "ns", Lower),
    layer("dpa-core.boundary_ms", "ms", Lower),
    layer("apps.self_ms", "ms", Lower),
    layer("apps.self_ns_per_call", "ns", Lower),
    layer("apps.calls", "count", Lower),
    layer("apps.setup_world_ms", "ms", Lower),
    layer("dpa-core.setup_procs_ms", "ms", Lower),
    layer("harness.verify_ms", "ms", Lower),
    layer("harness.machine_run_ms", "ms", Lower),
    layer("harness.self_sum_vs_run_pct", "%", Lower),
    layer("harness.trace_overhead_pct", "%", Lower),
    layer("harness.rep_wall_ms_p50", "ms", Lower),
    layer("harness.rep_wall_ms_p10", "ms", Lower),
    layer("harness.rep_wall_ms_tail", "ms", Lower),
    layer("harness.rep_wall_tail_pct", "%", Higher),
    layer("harness.rep_samples", "count", Higher),
    layer("harness.sim_abs_err_vs_paper_pct", "%", Lower),
    // Deterministic counts at the same boundaries (simulated machine).
    layer("sim-net.events", "count", Lower),
    layer("sim-net.msgs", "count", Lower),
    layer("sim-net.idle_share", "ratio", Lower),
    layer("sim-net.overhead_share", "ratio", Lower),
    layer("sim-net.local_share", "ratio", Higher),
    layer("dpa-core.requests_issued", "count", Lower),
    layer("dpa-core.objects_installed", "count", Lower),
    layer("dpa-core.threads_aligned", "count", Lower),
    layer("dpa-core.tile_factor", "ratio", Higher),
    layer("dpa-core.peak_map_keys", "count", Lower),
    layer("dpa-core.peak_pending", "count", Lower),
    layer("dpa-core.strip_final", "count", Higher),
    layer("fastmsg.request_msgs", "count", Lower),
    layer("fastmsg.reply_msgs", "count", Lower),
    layer("fastmsg.update_msgs", "count", Lower),
    layer("fastmsg.req_agg_factor", "ratio", Higher),
    layer("fastmsg.reply_agg_factor", "ratio", Higher),
    layer("fastmsg.upd_agg_factor", "ratio", Higher),
    layer("global-heap.carried_entries", "count", Higher),
    layer("global-heap.carry_hit_share", "ratio", Higher),
    layer("global-heap.delta_entries", "count", Lower),
    layer("global-heap.repl_entries", "count", Lower),
    layer("global-heap.replica_ptrs", "count", Higher),
    layer("global-heap.migrations", "count", Lower),
    layer("global-heap.hub_req_reply_entries", "count", Lower),
    layer("dpa-serve.jobs", "count", Higher),
    layer("dpa-serve.decisions", "count", Lower),
    layer("dpa-serve.rejected", "count", Lower),
    layer("dpa-serve.reaped", "count", Lower),
    layer("dpa-serve.queue_wait_ms_p50", "ms", Lower),
    layer("dpa-serve.run_ms_p50", "ms", Lower),
    layer("dpa-serve.latency_ms_tail", "ms", Lower),
    layer("dpa-serve.latency_tail_pct", "%", Higher),
    layer("dpa-serve.shard_busy_share", "ratio", Higher),
    // Layer drives: each layer's public API under an op stream (host time).
    layer("sim-net.wheel_ns_per_op", "ns", Lower),
    layer("sim-net.heap_ns_per_op", "ns", Lower),
    layer("sim-net.null_proc_ns_per_event", "ns", Lower),
    layer("sim-net.fault_decide_ns", "ns", Lower),
    layer("sim-net.fault_decide_drop_ns", "ns", Lower),
    layer("sim-net.heap_lane_ratio", "ratio", Lower),
    layer("sim-net.par2_lane_ratio", "ratio", Lower),
    layer("dpa-core.map_align_release_ns", "ns", Lower),
    layer("dpa-core.pending_insert_complete_ns", "ns", Lower),
    layer("fastmsg.coalescer_push_ns", "ns", Lower),
    layer("fastmsg.bytecoalescer_push_ns", "ns", Lower),
    layer("global-heap.arrival_insert_contains_ns", "ns", Lower),
    layer("global-heap.softcache_probe_fill_ns", "ns", Lower),
    layer("global-heap.migration_home_of_ns", "ns", Lower),
    layer("global-heap.replica_window_ns", "ns", Lower),
    layer("nbody.bh_walk_ns_per_interaction", "ns", Lower),
    layer("nbody.fmm_m2l_ns", "ns", Lower),
    layer("nbody.fmm_eval_local_ns", "ns", Lower),
    layer("nbody.octree_build_ms", "ms", Lower),
    layer("nbody.quadtree_build_ms", "ms", Lower),
    layer("dpa-serve.sched_ns_per_decision", "ns", Lower),
];

/// The spec of the end-to-end or per-layer metric `name`.
pub fn find(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The contract's name and unit alphabets.
    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = HashSet::new();
        for name in WORKLOADS {
            assert!(is_name(name), "workload {name:?}");
            assert!(seen.insert(name), "duplicate {name:?}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(is_name(m.name), "metric {:?}", m.name);
            assert!(is_unit(m.unit), "unit {:?} of {}", m.unit, m.name);
            assert!(seen.insert(m.name), "duplicate {:?}", m.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn bounds_are_within_the_contract() {
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = find("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
        for name in EXACT {
            assert!(END_TO_END.iter().any(|m| m.name == *name), "{name}");
        }
    }
}
