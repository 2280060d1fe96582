//! Application-level experiment drivers: run a whole force phase for a
//! configuration and return forces plus timing.

use crate::afmm_dist::{AfmmEvalApp, AfmmGatherApp, AfmmWorld};
use crate::bh_dist::{BhApp, BhWorld};
use crate::fmm_dist::{FmmEvalApp, FmmM2lApp, FmmWorld};
use dpa_core::{run_phase, DpaConfig};
use nbody::cx::Cx;
use nbody::fmm::Local;
use nbody::vec3::Vec3;
use sim_net::{NetConfig, RunStats, Time};
use std::collections::HashMap;
use std::sync::Arc;

/// Outcome of a distributed Barnes-Hut force phase.
#[derive(Clone, Debug)]
pub struct BhRun {
    /// Acceleration per body (global, Morton-sorted order).
    pub accel: Vec<Vec3>,
    /// Phase execution time in ns (the paper's reported quantity).
    pub makespan_ns: u64,
    /// Per-node breakdown and counters.
    pub stats: RunStats,
    /// Total body–cell interactions.
    pub cell_interactions: u64,
    /// Total body–body interactions.
    pub body_interactions: u64,
    /// Order-independent checksum of the interactions performed (the
    /// `wrapping_add` of every node's [`BhApp::interaction_hash`]) —
    /// bit-identical across strip sizes, schedules, and migration.
    pub interaction_hash: u64,
}

/// Run the Barnes-Hut force phase under `cfg`.
pub fn run_bh(world: &Arc<BhWorld>, cfg: DpaConfig, net: NetConfig) -> BhRun {
    let mut accel = vec![Vec3::ZERO; world.bodies.len()];
    let mut cell_interactions = 0;
    let mut body_interactions = 0;
    let mut interaction_hash = 0u64;
    let report = run_phase(
        world.nodes,
        net,
        cfg,
        |i| BhApp::new(world.clone(), i),
        |i, app: &BhApp| {
            let base = world.splits[i as usize];
            for (off, a) in app.accel.iter().enumerate() {
                accel[base + off] = *a;
            }
            cell_interactions += app.cell_interactions;
            body_interactions += app.body_interactions;
            interaction_hash = interaction_hash.wrapping_add(app.interaction_hash);
        },
    );
    BhRun {
        accel,
        makespan_ns: report.makespan().as_ns(),
        stats: report.stats,
        cell_interactions,
        body_interactions,
        interaction_hash,
    }
}

/// Outcome of a distributed FMM force phase (both sub-phases).
#[derive(Clone, Debug)]
pub struct FmmRun {
    /// Complex field per particle (conjugate ∝ force vector).
    pub fields: Vec<Cx>,
    /// Total phase time: M2L sub-phase + eval sub-phase (barrier between).
    pub makespan_ns: u64,
    /// M2L sub-phase stats.
    pub m2l_stats: RunStats,
    /// Eval sub-phase stats.
    pub eval_stats: RunStats,
    /// Total M2L translations.
    pub m2l_count: u64,
    /// Total P2P pairs.
    pub p2p_pairs: u64,
    /// Order-independent checksum of both sub-phases' interactions (the
    /// `wrapping_add` of every node's M2L and eval hashes) — bit-identical
    /// across strip sizes, schedules, and migration.
    pub interaction_hash: u64,
}

/// Run the FMM force phase (M2L, barrier, downward+eval+P2P) under `cfg`.
pub fn run_fmm(world: &Arc<FmmWorld>, cfg: DpaConfig, net: NetConfig) -> FmmRun {
    // Sub-phase 1: M2L over interaction lists.
    let mut partials: Vec<HashMap<u32, Local>> =
        (0..world.nodes).map(|_| HashMap::new()).collect();
    let mut m2l_count = 0;
    let mut interaction_hash = 0u64;
    let r1 = run_phase(
        world.nodes,
        net.clone(),
        cfg.clone(),
        |i| FmmM2lApp::new(world.clone(), i),
        |i, app: &FmmM2lApp| {
            partials[i as usize] = app.locals.clone();
            m2l_count += app.m2l_count;
            interaction_hash = interaction_hash.wrapping_add(app.interaction_hash);
        },
    );

    // Sub-phase 2: downward chain + evaluation + near field.
    let n = world.solver.zs.len();
    let mut fields = vec![Cx::ZERO; n];
    let mut p2p_pairs = 0;
    let mut partials_iter = partials.into_iter();
    let r2 = run_phase(
        world.nodes,
        net,
        cfg,
        |i| {
            let part = partials_iter.next().expect("one partial map per node");
            debug_assert_eq!(usize::from(i), {
                // keep the zip honest in debug builds
                i as usize
            });
            FmmEvalApp::new(world.clone(), i, part)
        },
        |_, app: &FmmEvalApp| {
            for (i, f) in app.fields.iter().enumerate() {
                if f.norm2() != 0.0 {
                    fields[i] += *f;
                }
            }
            p2p_pairs += app.p2p_pairs;
            interaction_hash = interaction_hash.wrapping_add(app.interaction_hash);
        },
    );

    FmmRun {
        fields,
        makespan_ns: r1.makespan().as_ns() + r2.makespan().as_ns(),
        m2l_stats: r1.stats,
        eval_stats: r2.stats,
        m2l_count,
        p2p_pairs,
        interaction_hash,
    }
}

/// Outcome of a distributed *adaptive* FMM force phase.
#[derive(Clone, Debug)]
pub struct AfmmRun {
    /// Complex field per particle.
    pub fields: Vec<Cx>,
    /// Total phase time (gather + evaluate, barrier between).
    pub makespan_ns: u64,
    /// Gather sub-phase stats.
    pub gather_stats: RunStats,
    /// Evaluate sub-phase stats.
    pub eval_stats: RunStats,
    /// Total M2L translations.
    pub m2l_count: u64,
    /// Total P2P pairs.
    pub p2p_pairs: u64,
}

/// Run the adaptive-FMM force phase (gather, barrier, evaluate) under
/// `cfg`.
pub fn run_afmm(world: &Arc<AfmmWorld>, cfg: DpaConfig, net: NetConfig) -> AfmmRun {
    let mut partials: Vec<HashMap<u32, Local>> =
        (0..world.nodes).map(|_| HashMap::new()).collect();
    let mut m2l_count = 0;
    let r1 = run_phase(
        world.nodes,
        net.clone(),
        cfg.clone(),
        |i| AfmmGatherApp::new(world.clone(), i),
        |i, app: &AfmmGatherApp| {
            partials[i as usize] = app.locals.clone();
            m2l_count += app.m2l_count;
        },
    );

    let n = world.solver.zs.len();
    let mut fields = vec![Cx::ZERO; n];
    let mut p2p_pairs = 0;
    let mut partials_iter = partials.into_iter();
    let r2 = run_phase(
        world.nodes,
        net,
        cfg,
        |i| {
            let part = partials_iter.next().expect("one partial map per node");
            AfmmEvalApp::new(world.clone(), i, part)
        },
        |_, app: &AfmmEvalApp| {
            for (i, f) in app.fields.iter().enumerate() {
                if f.norm2() != 0.0 {
                    fields[i] += *f;
                }
            }
            p2p_pairs += app.p2p_pairs;
        },
    );

    AfmmRun {
        fields,
        makespan_ns: r1.makespan().as_ns() + r2.makespan().as_ns(),
        gather_stats: r1.stats,
        eval_stats: r2.stats,
        m2l_count,
        p2p_pairs,
    }
}

/// Merge two [`RunStats`] (e.g. the FMM sub-phases) node by node. Time
/// buckets, traffic, fault counts, makespans and event counters add.
/// High-water marks (`peak_*`, `*_peak_bytes`) and the strip gauges
/// `strip_final` / `strip_max_applied` take the larger of the two phases,
/// `strip_min_applied` the smaller: the phases run one after the other, so
/// their peaks never coexist. The per-path `*_agg_factor_milli` are
/// recomputed from the merged entry and message counts.
pub fn merge_stats(a: &RunStats, b: &RunStats) -> RunStats {
    assert_eq!(a.nodes.len(), b.nodes.len());
    let mut out = a.clone();
    out.makespan = Time(a.makespan.as_ns() + b.makespan.as_ns());
    out.dropped_packets += b.dropped_packets;
    out.duplicated_packets += b.duplicated_packets;
    out.delayed_packets += b.delayed_packets;
    for (x, y) in out.nodes.iter_mut().zip(&b.nodes) {
        x.local += y.local;
        x.overhead += y.overhead;
        x.idle += y.idle;
        x.msgs_sent += y.msgs_sent;
        x.bytes_sent += y.bytes_sent;
        x.msgs_recv += y.msgs_recv;
        x.bytes_recv += y.bytes_recv;
        for (&k, &v) in &y.user {
            let merged = match x.user.get(k) {
                None => v,
                Some(&u) if k == "strip_min_applied" => u.min(v),
                Some(&u) if is_high_water(k) => u.max(v),
                Some(&u) => u + v,
            };
            x.user.insert(k, merged);
        }
        for (factor, entries, msgs) in [
            ("req_agg_factor_milli", "request_entries", "request_msgs"),
            ("reply_agg_factor_milli", "reply_entries", "reply_msgs"),
            ("upd_agg_factor_milli", "update_entries", "update_msgs"),
        ] {
            if x.user.contains_key(factor) {
                let (e, m) = (x.user[entries], x.user[msgs]);
                let per_msg = if m == 0 { 0.0 } else { e as f64 / m as f64 };
                x.user.insert(factor, (per_msg * 1000.0) as u64);
            }
        }
    }
    out
}

/// Counters that record a maximum over the phase rather than a count.
fn is_high_water(key: &str) -> bool {
    key.starts_with("peak_")
        || key.ends_with("_peak_bytes")
        || key == "strip_final"
        || key == "strip_max_applied"
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_net::NodeStats;

    fn phase(user: &[(&'static str, u64)], dropped: u64, dup: u64, delayed: u64) -> RunStats {
        let mut node = NodeStats::default();
        for &(k, v) in user {
            node.bump(k, v);
        }
        node.msgs_sent = 10;
        RunStats {
            nodes: vec![node],
            makespan: Time(100),
            dropped_packets: dropped,
            duplicated_packets: dup,
            delayed_packets: delayed,
        }
    }

    #[test]
    fn merge_adds_counts_but_not_high_water_marks() {
        let m2l = phase(
            &[
                ("threads_created", 40),
                ("peak_aligned_threads", 900),
                ("renamed_peak_bytes", 4096),
                ("strip_final", 64),
                ("strip_max_applied", 128),
                ("strip_min_applied", 16),
                ("request_entries", 90),
                ("request_msgs", 3),
                ("req_agg_factor_milli", 30_000),
                ("update_entries", 0),
                ("update_msgs", 0),
                ("upd_agg_factor_milli", 0),
            ],
            1,
            2,
            3,
        );
        let eval = phase(
            &[
                ("threads_created", 2),
                ("peak_aligned_threads", 35),
                ("renamed_peak_bytes", 8192),
                ("strip_final", 32),
                ("strip_max_applied", 32),
                ("strip_min_applied", 32),
                ("request_entries", 10),
                ("request_msgs", 5),
                ("req_agg_factor_milli", 2_000),
                ("update_entries", 0),
                ("update_msgs", 0),
                ("upd_agg_factor_milli", 0),
                ("eval_only", 7),
            ],
            10,
            20,
            30,
        );
        let merged = merge_stats(&m2l, &eval);
        let user = &merged.nodes[0].user;
        assert_eq!(user["threads_created"], 42);
        assert_eq!(user["peak_aligned_threads"], 900, "max, not 935");
        assert_eq!(user["renamed_peak_bytes"], 8192);
        assert_eq!(user["strip_final"], 64);
        assert_eq!(user["strip_max_applied"], 128);
        assert_eq!(user["strip_min_applied"], 16);
        assert_eq!(user["req_agg_factor_milli"], 12_500, "100 entries / 8 msgs");
        assert_eq!(user["upd_agg_factor_milli"], 0, "no messages, no factor");
        assert_eq!(user["eval_only"], 7, "a key one phase lacks is kept as is");
        assert_eq!(merged.nodes[0].msgs_sent, 20);
        assert_eq!(merged.makespan, Time(200));
        assert_eq!(
            (merged.dropped_packets, merged.duplicated_packets, merged.delayed_packets),
            (11, 22, 33)
        );
    }
}
