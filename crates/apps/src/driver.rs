//! Application-level experiment drivers: one runner per app family, one
//! result type. Every figure, the DST sweep and the examples run an app
//! through the function here and read the same [`Run`].

use crate::afmm_dist::AfmmWorld;
use crate::bh_dist::{BhApp, BhWorld};
use crate::fmm_dist::FmmWorld;
use crate::fmm_phase::{EvalApp, FmmTree, GatherApp};
use crate::graph_dist::{GraphApp, GraphWorld};
use crate::relax::{RelaxApp, RelaxWorld};
use crate::setops_dist::{SetopsApp, SetopsWorld};
use dpa_core::synth::{SynthApp, SynthWorld};
use dpa_core::{run_phase_dst, run_phases, DiffPlan, DpaConfig, DstOptions, NodeSnapshot, PtrApp};
use nbody::cx::Cx;
use nbody::vec3::Vec3;
use sim_net::{NetConfig, RunReport, RunStats, Time};
use std::sync::Arc;

/// Relative tolerance for floating-point digests across schedules (the
/// reduction order differs, so bits may not).
pub const FP_RTOL: f64 = 1e-9;

/// A run's result, in comparable form. `==` is bit-identity; across
/// schedules compare with [`Digest::diff`].
#[derive(Clone, Debug, PartialEq)]
pub enum Digest {
    /// Integer checksums: must be bit-identical across schedules.
    Ints(Vec<u64>),
    /// Floating-point results: compared with [`FP_RTOL`].
    Floats(Vec<f64>),
}

impl Digest {
    /// `None` if equivalent, else a description of the first mismatch.
    pub fn diff(&self, other: &Digest) -> Option<String> {
        match (self, other) {
            (Digest::Ints(a), Digest::Ints(b)) => {
                if a.len() != b.len() {
                    return Some(format!("digest length {} vs {}", a.len(), b.len()));
                }
                a.iter().zip(b).position(|(x, y)| x != y).map(|i| {
                    format!(
                        "checksum[{i}]: {:#x} vs {:#x} (must be bit-identical)",
                        a[i], b[i]
                    )
                })
            }
            (Digest::Floats(a), Digest::Floats(b)) => {
                if a.len() != b.len() {
                    return Some(format!("digest length {} vs {}", a.len(), b.len()));
                }
                a.iter()
                    .zip(b)
                    .position(|(x, y)| {
                        let scale = x.abs().max(y.abs()).max(1e-300);
                        (x - y).abs() / scale > FP_RTOL
                    })
                    .map(|i| format!("value[{i}]: {} vs {} (rtol {FP_RTOL})", a[i], b[i]))
            }
            _ => Some("digest kind mismatch".to_string()),
        }
    }
}

/// How many barrier-separated timesteps a run covers, and whether object
/// values change between them.
#[derive(Clone, Copy, Debug)]
pub struct Phases {
    /// Timesteps; above one the run goes through [`run_phases`], so
    /// whatever `cfg` carries (tables, homes, replicas) crosses
    /// the barriers.
    pub count: usize,
    /// The value-change schedule of a value-sensitive run (synth, BH): the
    /// apps fold the generation they actually read into their checksums,
    /// so a stale carried copy corrupts the digest.
    pub changes: Option<DiffPlan>,
}

impl Phases {
    /// A single phase.
    pub const ONE: Phases = Phases::steps(1);

    /// `count` timesteps over unchanging objects.
    pub const fn steps(count: usize) -> Phases {
        Phases {
            count,
            changes: None,
        }
    }

    /// `count` timesteps with `plan` mutating objects at every barrier.
    pub const fn changing(count: usize, plan: DiffPlan) -> Phases {
        Phases {
            count,
            changes: Some(plan),
        }
    }
}

/// Outcome of running one app family under one configuration.
#[derive(Clone, Debug)]
pub struct Run {
    /// One report per machine run, in execution order: one per timestep,
    /// or the two sub-phases of an FMM force phase. A sub-phase that
    /// stalls ends the run, so later ones may be missing.
    pub reports: Vec<RunReport>,
    /// Per-node runtime-state snapshots of each machine run.
    pub snaps: Vec<Vec<NodeSnapshot>>,
    /// The reports' stats merged node by node (see `merge_stats`); its
    /// makespan is the whole run's simulated time.
    pub stats: RunStats,
    /// The computed result. Floating-point families (BH, FMM, AFMM, relax)
    /// give their values after a single phase; across timesteps, and for
    /// the integer families, it is the per-(phase, node) checksums.
    pub digest: Digest,
    /// The app's interaction counters summed over nodes and phases
    /// (`interaction_hash` by `wrapping_add`).
    pub counters: Vec<(&'static str, u64)>,
}

impl Run {
    fn new(
        (reports, snaps): (Vec<RunReport>, Vec<Vec<NodeSnapshot>>),
        digest: Digest,
        counters: Vec<(&'static str, u64)>,
    ) -> Run {
        let mut stats = reports[0].stats.clone();
        for r in &reports[1..] {
            stats = merge_stats(&stats, &r.stats);
        }
        Run {
            reports,
            snaps,
            stats,
            digest,
            counters,
        }
    }

    /// Simulated time of the whole run in ns (the paper's reported
    /// quantity), barriers included.
    pub fn makespan_ns(&self) -> u64 {
        self.stats.makespan.as_ns()
    }

    /// `true` iff every machine run reached quiescence.
    pub fn completed(&self) -> bool {
        self.reports.iter().all(|r| r.completed)
    }

    /// This run, after checking it completed. Panics on a stall, which
    /// without fault injection is a runtime bug.
    pub fn expect_completed(self) -> Run {
        for (i, r) in self.reports.iter().enumerate() {
            assert!(r.completed, "phase {i} stalled: {}", r.stall_summary());
        }
        self
    }

    /// The named interaction counter. Panics if the family has none by
    /// that name.
    pub fn counter(&self, name: &str) -> u64 {
        match self.counters.iter().find(|(k, _)| *k == name) {
            Some(&(_, v)) => v,
            None => panic!("no counter {name:?} among {:?}", self.counters),
        }
    }

    fn floats(&self) -> &[f64] {
        match &self.digest {
            Digest::Floats(v) => v,
            Digest::Ints(_) => panic!("this run's digest is integer checksums"),
        }
    }

    /// A single-phase BH run's acceleration per body (global,
    /// Morton-sorted order).
    pub fn accel(&self) -> Vec<Vec3> {
        self.floats()
            .chunks_exact(3)
            .map(|a| Vec3::new(a[0], a[1], a[2]))
            .collect()
    }

    /// An FMM/AFMM run's complex field per particle (conjugate ∝ force
    /// vector).
    pub fn fields(&self) -> Vec<Cx> {
        self.floats()
            .chunks_exact(2)
            .map(|f| Cx::new(f[0], f[1]))
            .collect()
    }
}

/// The one place an app meets the phase drivers: a single phase runs any
/// variant; several run DPA with `cfg`'s carries across the barriers.
fn drive<A: PtrApp>(
    nodes: u16,
    cfg: DpaConfig,
    net: NetConfig,
    opts: &DstOptions,
    phases: usize,
    mut mk: impl FnMut(usize, u16) -> A,
    mut collect: impl FnMut(usize, u16, &A),
) -> (Vec<RunReport>, Vec<Vec<NodeSnapshot>>) {
    if phases == 1 {
        let (report, snaps) = run_phase_dst(
            nodes,
            net,
            cfg,
            opts,
            |i| mk(0, i),
            |i, app| collect(0, i, app),
        );
        (vec![report], vec![snaps])
    } else {
        let (reports, snaps, _) = run_phases(nodes, net, cfg, opts, phases, mk, collect);
        (reports, snaps)
    }
}

/// Run the synthetic pointer-chasing lists. Digest: each node's checksum
/// per phase.
pub fn run_synth(
    world: &Arc<SynthWorld>,
    cfg: DpaConfig,
    net: NetConfig,
    opts: &DstOptions,
    phases: Phases,
) -> Run {
    let nodes = world.nodes;
    let mut sums = vec![0u64; phases.count * nodes as usize];
    let ran = drive(
        nodes,
        cfg,
        net,
        opts,
        phases.count,
        |ph, i| match phases.changes {
            Some(plan) => {
                SynthApp::new_diff(world.clone(), i, world.work_ns, plan.at_phase(ph as u32))
            }
            None => SynthApp::new(world.clone(), i, world.work_ns),
        },
        |ph, i, app: &SynthApp| sums[ph * nodes as usize + i as usize] = app.sum,
    );
    Run::new(ran, Digest::Ints(sums), Vec::new())
}

/// Run the Barnes-Hut force phase. Digest: the accelerations (xyz per
/// body) of a single phase; across timesteps each node's
/// [`BhApp::interaction_hash`] per phase — bit-identical across strip
/// sizes and schedules.
pub fn run_bh(
    world: &Arc<BhWorld>,
    cfg: DpaConfig,
    net: NetConfig,
    opts: &DstOptions,
    phases: Phases,
) -> Run {
    let nodes = world.nodes;
    let mut accel = vec![0.0f64; 3 * world.bodies.len()];
    let mut hashes = vec![0u64; phases.count * nodes as usize];
    let (mut cells, mut bodies, mut hash) = (0, 0, 0u64);
    let ran = drive(
        nodes,
        cfg,
        net,
        opts,
        phases.count,
        |ph, i| match phases.changes {
            Some(plan) => BhApp::new_diff(world.clone(), i, plan.at_phase(ph as u32)),
            None => BhApp::new(world.clone(), i),
        },
        |ph, i, app: &BhApp| {
            let base = world.splits[i as usize];
            for (off, a) in app.accel.iter().enumerate() {
                accel[3 * (base + off)..][..3].copy_from_slice(&[a.x, a.y, a.z]);
            }
            hashes[ph * nodes as usize + i as usize] = app.interaction_hash;
            cells += app.cell_interactions;
            bodies += app.body_interactions;
            hash = hash.wrapping_add(app.interaction_hash);
        },
    );
    let digest = if phases.count == 1 {
        Digest::Floats(accel)
    } else {
        Digest::Ints(hashes)
    };
    let counters = vec![
        ("cell_interactions", cells),
        ("body_interactions", bodies),
        ("interaction_hash", hash),
    ];
    Run::new(ran, digest, counters)
}

/// Run the FMM force phase on either tree: gather local-expansion
/// partials per node, barrier, then evaluate fields from them. Digest:
/// the fields (re, im per particle), empty when the gather stalled and
/// left the evaluation no input.
fn run_fmm_tree<T: FmmTree + 'static>(
    world: &Arc<T>,
    (nodes, particles): (u16, usize),
    cfg: DpaConfig,
    net: NetConfig,
    opts: &DstOptions,
) -> Run {
    let (mut m2l, mut p2p, mut hash) = (0, 0, 0u64);
    let mut partials = Vec::with_capacity(nodes as usize);
    let (mut reports, mut snaps) = drive(
        nodes,
        cfg.clone(),
        net.clone(),
        opts,
        1,
        |_, i| GatherApp::new(world.clone(), i),
        |_, _, app: &GatherApp<T>| {
            m2l += app.m2l_count;
            hash = hash.wrapping_add(app.interaction_hash);
            partials.push(app.locals.clone());
        },
    );
    let mut fields = Vec::new();
    if reports[0].completed {
        fields = vec![0.0f64; 2 * particles];
        let mut partials = partials.into_iter();
        let (r2, s2) = drive(
            nodes,
            cfg,
            net,
            opts,
            1,
            |_, i| {
                EvalApp::new(
                    world.clone(),
                    i,
                    partials.next().expect("one partial map per node"),
                )
            },
            |_, _, app: &EvalApp<T>| {
                p2p += app.p2p_pairs;
                hash = hash.wrapping_add(app.interaction_hash);
                for (i, f) in app.fields.iter().enumerate() {
                    if f.norm2() != 0.0 {
                        fields[2 * i] += f.re;
                        fields[2 * i + 1] += f.im;
                    }
                }
            },
        );
        reports.extend(r2);
        snaps.extend(s2);
    }
    Run::new(
        (reports, snaps),
        Digest::Floats(fields),
        vec![
            ("m2l_count", m2l),
            ("p2p_pairs", p2p),
            ("interaction_hash", hash),
        ],
    )
}

/// Run the FMM force phase (M2L, barrier, downward+eval+P2P).
pub fn run_fmm(world: &Arc<FmmWorld>, cfg: DpaConfig, net: NetConfig, opts: &DstOptions) -> Run {
    run_fmm_tree(world, (world.nodes, world.solver.zs.len()), cfg, net, opts)
}

/// Run the adaptive-FMM force phase (gather, barrier, evaluate).
pub fn run_afmm(world: &Arc<AfmmWorld>, cfg: DpaConfig, net: NetConfig, opts: &DstOptions) -> Run {
    run_fmm_tree(world, (world.nodes, world.solver.zs.len()), cfg, net, opts)
}

/// Run one push-style graph relaxation sweep. Digest: the relaxed value
/// per vertex.
pub fn run_relax(
    world: &Arc<RelaxWorld>,
    cfg: DpaConfig,
    net: NetConfig,
    opts: &DstOptions,
) -> Run {
    let mut next = vec![0.0f64; world.vertices.len()];
    let ran = drive(
        world.nodes,
        cfg,
        net,
        opts,
        1,
        |_, i| RelaxApp::new(world.clone(), i),
        |_, i, app: &RelaxApp| {
            for v in world.range(i) {
                next[v] = app.next[v];
            }
        },
    );
    Run::new(ran, Digest::Floats(next), Vec::new())
}

/// Run `phases` timesteps of the transitive closure; edge rewires at every
/// barrier advance vertex generations. Digest: each node's `(sum,
/// reached)` per phase — the closure checksum folds the generation
/// actually read, so a stale hub entry diverges it.
pub fn run_graph(
    world: &Arc<GraphWorld>,
    cfg: DpaConfig,
    net: NetConfig,
    opts: &DstOptions,
    phases: usize,
) -> Run {
    let nodes = world.params.nodes;
    let mut sums = vec![0u64; 2 * phases * nodes as usize];
    let ran = drive(
        nodes,
        cfg,
        net,
        opts,
        phases,
        |ph, i| GraphApp::new(world.clone(), i, ph as u32),
        |ph, i, app: &GraphApp| {
            let at = 2 * (ph * nodes as usize + i as usize);
            sums[at] = app.sum;
            sums[at + 1] = app.reached;
        },
    );
    Run::new(ran, Digest::Ints(sums), Vec::new())
}

/// Run one ordered-set batch (insert / delete / range; the mutations ride
/// the remote-reduction path). Digest: each node's range-query checksum,
/// final-membership digest and applied-reduction count.
pub fn run_setops(
    world: &Arc<SetopsWorld>,
    cfg: DpaConfig,
    net: NetConfig,
    opts: &DstOptions,
) -> Run {
    let nodes = world.params.nodes;
    let mut sums = vec![0u64; 3 * nodes as usize];
    let ran = drive(
        nodes,
        cfg,
        net,
        opts,
        1,
        |_, i| SetopsApp::new(world.clone(), i),
        |_, i, app: &SetopsApp| {
            let at = 3 * i as usize;
            sums[at] = app.range_sum;
            sums[at + 1] = app.final_digest();
            sums[at + 2] = app.applied;
        },
    );
    Run::new(ran, Digest::Ints(sums), Vec::new())
}

/// Merge two [`RunStats`] (e.g. the FMM sub-phases) node by node. Time
/// buckets, traffic, fault counts, makespans and event counters add.
/// High-water marks (`peak_*`, `*_peak_bytes`) take the larger of the two
/// phases: the phases run one after the other, so their peaks never
/// coexist.
fn merge_stats(a: &RunStats, b: &RunStats) -> RunStats {
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
                Some(&u) if is_high_water(k) => u.max(v),
                Some(&u) => u + v,
            };
            x.user.insert(k, merged);
        }
    }
    out
}

/// Counters that record a maximum over the phase rather than a count.
fn is_high_water(key: &str) -> bool {
    key.starts_with("peak_") || key.ends_with("_peak_bytes")
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
    fn digest_rules() {
        let a = Digest::Ints(vec![1, 2]);
        assert!(a.diff(&Digest::Ints(vec![1, 2])).is_none());
        assert!(a.diff(&Digest::Ints(vec![1, 3])).is_some());
        assert!(a.diff(&Digest::Floats(vec![1.0])).is_some());
        let f = Digest::Floats(vec![1.0]);
        assert!(f.diff(&Digest::Floats(vec![1.0 + 1e-12])).is_none());
        assert!(f.diff(&Digest::Floats(vec![1.0 + 1e-6])).is_some());
    }

    #[test]
    fn merge_adds_counts_but_not_high_water_marks() {
        let m2l = phase(
            &[
                ("threads_created", 40),
                ("peak_aligned_threads", 900),
                ("renamed_peak_bytes", 4096),
                ("request_entries", 90),
                ("request_msgs", 3),
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
                ("request_entries", 10),
                ("request_msgs", 5),
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
        assert_eq!((user["request_entries"], user["request_msgs"]), (100, 8));
        assert_eq!(user["eval_only"], 7, "a key one phase lacks is kept as is");
        assert_eq!(merged.nodes[0].msgs_sent, 20);
        assert_eq!(merged.makespan, Time(200));
        assert_eq!(
            (
                merged.dropped_packets,
                merged.duplicated_packets,
                merged.delayed_packets
            ),
            (11, 22, 33)
        );
    }
}
