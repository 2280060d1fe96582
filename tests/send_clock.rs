//! The clock at every send, pinned. Two traced DPA phases run under a
//! two-entry request window, so request batches fill — and leave — in the
//! middle of routing one work call's emissions, between the overhead
//! charges of the threads around them. The makespan, the message count and
//! a digest of the whole timeline (every span's node, kind, start and
//! length) are compared against constants: a change to *when* the runtime
//! charges a thread's bookkeeping, relative to a send or a clock read,
//! moves at least one of them.

use dpa::apps::bh_dist::{BhApp, BhCost, BhWorld};
use dpa::global_heap::{GPtr, ObjClass};
use dpa::nbody::bh::BhParams;
use dpa::nbody::distrib::plummer;
use dpa::runtime::{run_phase_traced, DpaConfig, PtrApp, WorkEnv};
use dpa::sim_net::NetConfig;

/// Strip 8 with request batches of two entries.
fn cfg() -> DpaConfig {
    DpaConfig {
        agg_window: 2,
        ..DpaConfig::dpa(8)
    }
}

/// FNV-1a, 64 bit.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(makespan ns, messages, timeline digest)` of one traced phase.
fn traced<A: PtrApp>(
    nodes: u16,
    mk: impl FnMut(u16) -> A,
    collect: impl FnMut(u16, &A),
) -> (u64, u64, u64) {
    let (report, trace) =
        run_phase_traced(nodes, NetConfig::default(), cfg(), mk, collect, 1 << 20);
    assert!(report.completed);
    assert_eq!(trace.dropped, 0, "the digest must cover every span");
    (
        report.makespan().as_ns(),
        report.stats.total_msgs(),
        fnv(trace.to_chrome_json().as_bytes()),
    )
}

#[test]
fn bh_send_clock_is_pinned() {
    let world = BhWorld::build(plummer(96, 5), 4, 8, BhParams::default(), BhCost::default());
    let got = traced(4, |i| BhApp::new(world.clone(), i), |_, _| {});
    assert_eq!(
        got,
        (11_994_018, 112, 0x535b_48ea_0f6b_9568),
        "BH makespan ns, messages, timeline FNV"
    );
}

/// Three nodes; node 0 runs four iterations and the other two none, so
/// they handle each message the moment it lands and a send that leaves
/// early or late shows in their spans. Every iteration's creation code is
/// one work call that emits, in this order: a demand on node 1's object, a
/// reduction into node 2, a local continuation, and a second demand on
/// node 1. Routed in reverse, the second demand opens a request batch, the
/// reduction reads the clock to stamp its buffered entry (and sends every
/// second one), and the first demand fills the batch, which is sent on the
/// spot.
struct Interleaved {
    me: u16,
    /// Reductions applied here.
    applied: f64,
}

const NODES: u16 = 3;
const ITERS: usize = 4;

fn obj(node: u16, index: usize) -> GPtr {
    GPtr::new(node, ObjClass(0), index as u64)
}

impl PtrApp for Interleaved {
    type Work = u32;

    fn num_iterations(&self) -> usize {
        if self.me == 0 {
            ITERS
        } else {
            0
        }
    }

    fn start_iteration(&mut self, iter: usize, env: &mut WorkEnv<'_, u32>) {
        env.charge(500);
        env.demand(obj(1, 2 * iter), 1);
        env.accumulate(obj(2, iter), 1.0);
        env.local(2);
        env.demand(obj(1, 2 * iter + 1), 3);
    }

    fn run_work(&mut self, work: u32, env: &mut WorkEnv<'_, u32>) {
        env.charge(300 * u64::from(work));
    }

    fn object_size(&self, _: GPtr) -> u32 {
        64
    }

    fn apply_update(&mut self, ptr: GPtr, value: f64) {
        assert_eq!(ptr.node(), self.me, "a reduction reached a non-owner");
        self.applied += value;
    }
}

#[test]
fn interleaved_work_call_send_clock_is_pinned() {
    let mut applied = 0.0;
    let got = traced(
        NODES,
        |me| Interleaved { me, applied: 0.0 },
        |_, app| applied += app.applied,
    );
    assert_eq!(applied, ITERS as f64, "every reduction applied once");
    assert_eq!(
        got,
        (87_664, 10, 0x0378_309a_df54_9fb5),
        "makespan ns, messages, timeline FNV"
    );
}
