//! A scripted-peer harness at the proc boundary: a machine whose nodes are
//! either a real [`DpaProc`] or a script of timed sends, so a test can put
//! one exact message sequence in front of the real protocol arms — orders
//! and duplicates a whole-machine run only produces by luck of a fault
//! seed.

use dpa_core::{
    check_conservation, CachingProc, DpaConfig, DpaMsg, DpaProc, NodeSnapshot, PtrApp, Violation,
    WorkEnv,
};
use global_heap::{GPtr, ObjClass};
use sim_net::{Ctx, Dur, Machine, NetConfig, NodeId, NodeStats, Proc, RunReport};

/// One node: the runtime under test, or a peer that only talks.
enum Peer<P = DpaProc<Probe>> {
    Real(Box<P>),
    Script(Script),
}

/// `(send time ns, destination, message)`, ascending by time. Incoming
/// messages are ignored.
struct Script {
    sends: Vec<(u64, u16, DpaMsg)>,
    next: usize,
}

impl Script {
    fn pump(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        while let Some((at, dst, msg)) = self.sends.get(self.next) {
            let now = ctx.now().as_ns();
            if *at > now {
                ctx.wake_after(Dur::from_ns(at - now));
                return;
            }
            ctx.send(NodeId(*dst), msg.clone());
            self.next += 1;
        }
    }
}

impl<P: Proc<Msg = DpaMsg>> Proc for Peer<P> {
    type Msg = DpaMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        match self {
            Peer::Real(p) => p.on_start(ctx),
            Peer::Script(s) => s.pump(ctx),
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, DpaMsg>, src: NodeId, msg: DpaMsg) {
        if let Peer::Real(p) = self {
            p.on_message(ctx, src, msg);
        }
    }

    fn on_wake(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        match self {
            Peer::Real(p) => p.on_wake(ctx),
            Peer::Script(s) => s.pump(ctx),
        }
    }

    fn quiescent(&self) -> bool {
        match self {
            Peer::Real(p) => p.quiescent(),
            Peer::Script(s) => s.next == s.sends.len(),
        }
    }

    fn on_finish(&mut self, stats: &mut NodeStats) {
        if let Peer::Real(p) = self {
            p.on_finish(stats);
        }
    }

    fn stall_detail(&self) -> Option<String> {
        match self {
            Peer::Real(p) => p.stall_detail(),
            Peer::Script(_) => None,
        }
    }
}

/// The application on the real node: at most one iteration, which burns
/// `spin` local steps of [`STEP_NS`] (the driver yields to the event loop
/// between steps, so scripted messages land meanwhile) and then reads
/// `demand`, recording the generation its thread carried for it — `reads`
/// times over, spinning again before each further read.
struct Probe {
    demand: Option<GPtr>,
    spin: u32,
    reads: u32,
    /// Current generation of every object, as the phase's world has it.
    gen: u32,
    seen_gen: Vec<Option<u32>>,
    applied: f64,
}

const STEP_NS: u64 = 50_000;
const OBJ_BYTES: u32 = 64;

/// Both carry the reads still to make, this one included.
enum ProbeWork {
    Spin { left: u32, reads: u32 },
    Read { ptr: GPtr, reads: u32 },
}

impl Probe {
    fn idle() -> Probe {
        Probe::reading(None, 0, 0)
    }

    fn reading(demand: Option<GPtr>, spin: u32, gen: u32) -> Probe {
        Probe {
            demand,
            spin,
            reads: 1,
            gen,
            seen_gen: Vec::new(),
            applied: 0.0,
        }
    }

    fn step(&self, left: u32, reads: u32, env: &mut WorkEnv<'_, ProbeWork>) {
        let ptr = self.demand.expect("an iteration implies a demand");
        if left > 0 {
            env.local(ProbeWork::Spin { left, reads });
        } else {
            env.demand(ptr, ProbeWork::Read { ptr, reads });
        }
    }
}

impl PtrApp for Probe {
    type Work = ProbeWork;

    fn num_iterations(&self) -> usize {
        self.demand.is_some() as usize
    }

    fn start_iteration(&mut self, _iter: usize, env: &mut WorkEnv<'_, ProbeWork>) {
        self.step(self.spin, self.reads, env);
    }

    fn run_work(&mut self, work: ProbeWork, env: &mut WorkEnv<'_, ProbeWork>) {
        match work {
            ProbeWork::Spin { left, reads } => {
                env.charge(STEP_NS);
                self.step(left - 1, reads, env);
            }
            ProbeWork::Read { ptr, reads } => {
                // In a debug build this also checks the carried generation
                // against a fresh probe of renamed storage.
                env.assert_readable(ptr);
                self.seen_gen.push(env.label_generation());
                if reads > 1 {
                    self.step(self.spin.max(1), reads - 1, env);
                }
            }
        }
    }

    fn object_size(&self, _ptr: GPtr) -> u32 {
        OBJ_BYTES
    }

    fn apply_update(&mut self, _ptr: GPtr, value: f64) {
        self.applied += value;
    }

    fn object_generation(&self, _ptr: GPtr) -> u32 {
        self.gen
    }
}

/// Node 0 runs `proc_`, node 1 plays `sends` at it.
fn run<P: Proc<Msg = DpaMsg>>(
    proc_: P,
    sends: Vec<(u64, DpaMsg)>,
) -> (RunReport, Machine<Peer<P>>) {
    let script = Script {
        sends: sends.into_iter().map(|(at, msg)| (at, 0, msg)).collect(),
        next: 0,
    };
    let mut m = Machine::new(
        vec![Peer::Real(Box::new(proc_)), Peer::Script(script)],
        NetConfig::default(),
    );
    let report = m.run();
    (report, m)
}

fn real<P: Proc<Msg = DpaMsg>>(m: &mut Machine<Peer<P>>) -> &mut P {
    real_at(m, 0)
}

fn real_at<P: Proc<Msg = DpaMsg>>(m: &mut Machine<Peer<P>>, node: u16) -> &mut P {
    match m.proc_mut(NodeId(node)) {
        Peer::Real(p) => p,
        Peer::Script(_) => unreachable!("node {node} is a real proc"),
    }
}

fn snapshot(m: &mut Machine<Peer>) -> NodeSnapshot {
    real(m).snapshot(0)
}

/// An object born on the scripted node.
fn remote(index: u64) -> GPtr {
    GPtr::new(1, ObjClass(0), index)
}

/// Phase 0 fetches `ptr` at generation 0; the returned proc opens phase 1,
/// where the object is at generation 1, still carrying that copy. No
/// boundary pass runs (it is crate-private), so the proc is not gated: the
/// `spin` steps stand in for the gate, keeping the read behind the script.
fn carrying_stale_copy(ptr: GPtr, spin: u32) -> DpaProc<Probe> {
    let cfg = DpaConfig::dpa_replicating(8);
    let phase0 = DpaProc::new(Probe::reading(Some(ptr), 0, 0), 2, cfg.clone());
    let (report, mut m) = run(phase0, vec![(100_000, DpaMsg::Reply(vec![(ptr, OBJ_BYTES)]))]);
    assert!(report.completed, "{}", report.stall_summary());
    assert_eq!(real(&mut m).app().seen_gen, [Some(0)]);
    let carry = real(&mut m).take_carry();
    let mut phase1 = DpaProc::new(Probe::reading(Some(ptr), spin, 1), 2, cfg);
    phase1.install_carry(carry);
    phase1
}

/// ROADMAP 4(a)'s unnamed case: an owner's `Replicate` and its `PhaseDelta`
/// for the same carried pointer, in either arrival order, leave the
/// consumer in the same state — the fresh generation in renamed storage,
/// the replica recorded as held, nothing stale, no request sent.
#[test]
fn replicate_and_phase_delta_commute() {
    let ptr = remote(7);
    let replicate = DpaMsg::Replicate {
        seq: 0,
        gen: 1,
        entries: vec![(ptr, OBJ_BYTES)],
    };
    let delta = DpaMsg::PhaseDelta {
        seq: 0,
        entries: vec![ptr],
    };
    let orders = [
        vec![(100_000, replicate.clone()), (300_000, delta.clone())],
        vec![(100_000, delta.clone()), (300_000, replicate.clone())],
    ];
    for sends in orders {
        let label = format!("{:?} first", sends[0].1);
        let (report, mut m) = run(carrying_stale_copy(ptr, 20), sends);
        assert!(report.completed, "{label}: {}", report.stall_summary());
        let snap = snapshot(&mut m);
        assert_eq!(real(&mut m).app().seen_gen, [Some(1)], "{label}");
        assert_eq!(snap.replica_held, [(ptr.bits(), 1)], "{label}");
        assert_eq!(snap.stale_cache_entries, 0, "{label}");
        assert_eq!(snap.request_msgs, 0, "{label}: the replica served the read");
    }

    // The delta lands, a thread asks for the invalidated object, and only
    // then does the broadcast arrive: it doubles as the reply, and the wire
    // reply that follows installs nothing more.
    let sends = vec![
        (50_000, delta),
        (400_000, replicate),
        (600_000, DpaMsg::Reply(vec![(ptr, OBJ_BYTES)])),
    ];
    let (report, mut m) = run(carrying_stale_copy(ptr, 3), sends);
    assert!(report.completed, "{}", report.stall_summary());
    let snap = snapshot(&mut m);
    // The thread was released from M by the broadcast and carries the
    // broadcast's generation, which is what renamed storage holds.
    assert_eq!(real(&mut m).app().seen_gen, [Some(1)]);
    assert_eq!(snap.replica_held, [(ptr.bits(), 1)]);
    assert_eq!((snap.stale_cache_entries, snap.request_msgs), (0, 1));
    assert_eq!((snap.objects_installed, snap.in_flight), (1, 0));

    // With neither message the carried copy is read as it is: the oracle
    // the lanes above hold at zero does fire.
    let (report, mut m) = run(carrying_stale_copy(ptr, 20), Vec::new());
    assert!(report.completed);
    assert_eq!(real(&mut m).app().seen_gen, [Some(0)]);
    assert_eq!(snapshot(&mut m).stale_cache_entries, 1);
}

/// The generation a thread carries is the one renamed storage holds for
/// its label when it runs, however the thread became ready: released from
/// M by the reply, demanded again with the object already here, with a
/// duplicated reply landing in between, or labeled with an object that
/// lives here and is in no renamed storage at all.
#[test]
fn a_thread_carries_what_renamed_storage_holds_for_its_label() {
    let ptr = remote(4);
    let reply = || DpaMsg::Reply(vec![(ptr, OBJ_BYTES)]);
    // Three reads, four spin steps (200 µs) before each: the first is
    // demanded at 200 µs and waits in M for the reply at 400 µs; the
    // duplicate at 500 µs lands before the second is demanded at 600 µs;
    // the third finds everything as the second did.
    let app = Probe {
        reads: 3,
        ..Probe::reading(Some(ptr), 4, 6)
    };
    let proc_ = DpaProc::new(app, 2, DpaConfig::dpa(8));
    let (report, mut m) = run(proc_, vec![(400_000, reply()), (500_000, reply())]);
    assert!(report.completed, "{}", report.stall_summary());
    assert_eq!(report.stats.nodes[0].msgs_recv, 2);
    let snap = snapshot(&mut m);
    assert_eq!(
        (snap.requests_issued, snap.objects_installed),
        (1, 1),
        "the duplicate installed nothing"
    );
    assert_eq!(
        real(&mut m).app().seen_gen,
        [Some(6); 3],
        "stamped with the generation at install"
    );

    // A label homed here: never fetched, never looked up, nothing carried.
    let local = GPtr::new(0, ObjClass(0), 4);
    let proc_ = DpaProc::new(
        Probe::reading(Some(local), 2, 6),
        2,
        DpaConfig::dpa_replicating(8),
    );
    let (report, mut m) = run(proc_, Vec::new());
    assert!(report.completed, "{}", report.stall_summary());
    assert_eq!(real(&mut m).app().seen_gen, [None]);
    assert_eq!(snapshot(&mut m).requests_issued, 0);
}

/// Each of the four sequenced kinds, delivered twice with the same seq,
/// leaves the node exactly where one delivery leaves it.
#[test]
fn a_duplicated_sequenced_message_changes_nothing() {
    let local = GPtr::new(0, ObjClass(0), 3);
    let kinds = [
        DpaMsg::Update {
            seq: 0,
            entries: vec![(local, 2.5)],
        },
        DpaMsg::Affinity {
            seq: 0,
            entries: vec![(local, 5)],
        },
        DpaMsg::PhaseDelta {
            seq: 0,
            entries: vec![remote(2)],
        },
        DpaMsg::Replicate {
            seq: 0,
            gen: 0,
            entries: vec![(remote(3), OBJ_BYTES)],
        },
    ];
    for msg in kinds {
        let deliver = |times: u64| {
            let proc_ = DpaProc::new(Probe::idle(), 2, DpaConfig::dpa_replicating(8));
            let sends = (0..times).map(|i| (100_000 * (i + 1), msg.clone())).collect();
            let (report, mut m) = run(proc_, sends);
            assert!(report.completed, "{msg:?}: {}", report.stall_summary());
            assert_eq!(report.stats.nodes[0].msgs_recv, times, "{msg:?}");
            (format!("{:?}", snapshot(&mut m)), real(&mut m).app().applied)
        };
        let once = deliver(1);
        assert_eq!(deliver(2), once, "{msg:?} delivered twice");
        assert_ne!(deliver(0), once, "{msg:?} must leave a mark to dedup");
    }
}

/// A request can be completed by a replica broadcast while its wire reply
/// is still in flight. The late reply retires the in-flight entry — without
/// it the node can never finish — and installs nothing a second time.
#[test]
fn a_reply_after_a_completing_broadcast_retires_in_flight_and_installs_nothing() {
    let ptr = remote(9);
    let replicate = DpaMsg::Replicate {
        seq: 0,
        gen: 0,
        entries: vec![(ptr, OBJ_BYTES)],
    };
    let consumer = || {
        let app = Probe::reading(Some(ptr), 0, 0);
        DpaProc::new(app, 2, DpaConfig::dpa_replicating(8))
    };

    let sends = vec![
        (50_000, replicate.clone()),
        (200_000, DpaMsg::Reply(vec![(ptr, OBJ_BYTES)])),
    ];
    let (report, mut m) = run(consumer(), sends);
    assert!(report.completed, "{}", report.stall_summary());
    let snap = snapshot(&mut m);
    assert_eq!((snap.requests_issued, snap.objects_installed), (1, 1));
    assert_eq!((snap.pending_requests, snap.in_flight), (0, 0));
    assert_eq!(snap.replica_held, [(ptr.bits(), 0)]);
    assert_eq!(
        real(&mut m).app().seen_gen,
        [Some(0)],
        "the aligned thread ran once"
    );
    assert_eq!(report.stats.user_total("remote_objects_fetched"), 1);

    let (report, mut m) = run(consumer(), vec![(50_000, replicate)]);
    assert!(
        !report.completed,
        "nothing retires the request without the reply"
    );
    let snap = snapshot(&mut m);
    assert_eq!((snap.objects_installed, snap.in_flight), (1, 1));
}

/// Objects never leave their birth homes, so no real node sends a
/// request to a node that was not born with the object. A scripted peer
/// can: the entry is refused — no reply, nothing parked, the run
/// completes — and counted, which is the one input that makes the
/// `MisroutedRequest` oracle fire.
#[test]
fn a_misrouted_request_is_counted_and_answers_nothing() {
    let proc_ = DpaProc::new(Probe::idle(), 2, DpaConfig::dpa(8));
    // Born on the scripted node.
    let sends = vec![(50_000, DpaMsg::Request(vec![remote(5)]))];
    let (report, mut m) = run(proc_, sends);
    assert!(report.completed, "{}", report.stall_summary());
    assert_eq!(report.stats.nodes[0].msgs_recv, 1);
    assert_eq!(report.stats.nodes[0].msgs_sent, 0, "nothing was answered");
    let snap = snapshot(&mut m);
    assert_eq!((snap.reply_pushed, snap.reply_msgs), (0, 0));
    assert_eq!(snap.misrouted_requests, 1);
    assert_eq!(
        check_conservation(&[snap]),
        [Violation::MisroutedRequest { node: 0, count: 1 }]
    );
}

/// A request for an object born elsewhere never reaches the owner's
/// lookup, which would answer for someone else's object: the foreign
/// entries of a batch are refused and counted, and its local part is
/// still served.
#[test]
fn a_mixed_request_is_served_for_its_local_objects_only() {
    let local = GPtr::new(0, ObjClass(0), 1);
    let proc_ = DpaProc::new(Probe::idle(), 2, DpaConfig::dpa(8));
    let sends = vec![
        (50_000, DpaMsg::Request(vec![remote(5)])),
        (100_000, DpaMsg::Request(vec![remote(6), local, remote(7)])),
    ];
    let (report, mut m) = run(proc_, sends);
    assert!(report.completed, "{}", report.stall_summary());
    assert_eq!(
        report.stats.nodes[0].msgs_sent, 1,
        "one reply, for the local object"
    );
    let snap = snapshot(&mut m);
    assert_eq!((snap.reply_pushed, snap.reply_msgs), (1, 1));
    assert_eq!(snap.misrouted_requests, 3);
    assert_eq!(
        check_conservation(&[snap]),
        [Violation::MisroutedRequest { node: 0, count: 3 }]
    );
}

/// Only an owner broadcasts, and only its own objects. A scripted peer can
/// broadcast a pointer born on another node — here on the receiver itself:
/// the entry is refused and counted, nothing enters renamed storage or the
/// held replicas, and the run completes.
#[test]
fn a_replica_broadcast_from_a_non_owner_is_a_counted_refusal() {
    let foreign = GPtr::new(0, ObjClass(0), 3);
    let proc_ = DpaProc::new(Probe::idle(), 2, DpaConfig::dpa_replicating(8));
    let sends = vec![(
        50_000,
        DpaMsg::Replicate {
            seq: 0,
            gen: 0,
            entries: vec![(foreign, OBJ_BYTES)],
        },
    )];
    let (report, mut m) = run(proc_, sends);
    assert!(report.completed, "{}", report.stall_summary());
    let snap = snapshot(&mut m);
    assert!(snap.replica_held.is_empty(), "installed as a replica");
    assert_eq!((snap.objects_installed, snap.repl_entries_recv), (0, 0));
    assert_eq!(snap.misrouted_requests, 1);
    assert_eq!(
        check_conservation(&[snap]),
        [Violation::MisroutedRequest { node: 0, count: 1 }]
    );
}

/// A sequenced message from a sender the node has no link for — here a
/// proc built for a one-node machine, run on two — is dropped and
/// counted: nothing is applied, nothing is indexed, and the oracle
/// reports it. Either node driver.
#[test]
fn a_sequenced_message_from_outside_the_machine_is_a_counted_drop() {
    let local = GPtr::new(0, ObjClass(0), 3);
    let update = DpaMsg::Update {
        seq: 0,
        entries: vec![(local, 2.5)],
    };
    let sends = || vec![(50_000, update.clone()), (100_000, update.clone())];
    let check = |report: RunReport, applied: f64, snap: NodeSnapshot| {
        assert!(report.completed, "{}", report.stall_summary());
        assert_eq!(report.stats.nodes[0].msgs_recv, 2);
        assert_eq!(applied, 0.0);
        assert_eq!((snap.updates_applied, snap.misrouted_requests), (0, 2));
        assert_eq!(
            check_conservation(&[snap]),
            [Violation::MisroutedRequest { node: 0, count: 2 }]
        );
    };

    let (report, mut m) = run(DpaProc::new(Probe::idle(), 1, DpaConfig::dpa(8)), sends());
    let dpa = real(&mut m);
    check(report, dpa.app().applied, dpa.snapshot(0));

    let (report, mut m) = run(CachingProc::new(Probe::idle(), 1, DpaConfig::caching()), sends());
    let caching = real(&mut m);
    check(report, caching.app().applied, caching.snapshot(0));
}

/// An owner answers only what it was asked, so no real node sends a reply
/// entry for an object the receiver never requested. A scripted peer can:
/// the entry is refused — nothing enters renamed storage (or the baseline's
/// cache), nothing counts as installed, the run completes clean — and
/// counted with the misrouted, which the oracle reports. The solicited
/// entry of the same reply is installed as usual, in either order; the
/// baseline, which fetches one object at a time, must not panic on such a
/// reply either. Either node driver.
#[test]
fn an_unsolicited_reply_is_a_counted_refusal() {
    let (asked, never_asked) = (remote(4), remote(5));
    for awaited in [
        vec![(asked, OBJ_BYTES)],
        vec![(never_asked, OBJ_BYTES), (asked, OBJ_BYTES)],
        vec![(asked, OBJ_BYTES), (never_asked, OBJ_BYTES)],
    ] {
        // The first reply's entry, and every entry beside `asked`.
        let refused = awaited.len() as u64;
        let sends = || {
            vec![
                // Before the node has requested anything at all…
                (50_000, DpaMsg::Reply(vec![(never_asked, OBJ_BYTES)])),
                // …then the object it does wait for (one spin step, so the
                // demand is out by 100 µs).
                (400_000, DpaMsg::Reply(awaited.clone())),
            ]
        };
        let check = |report: RunReport, snap: NodeSnapshot, detail: Option<String>| {
            assert!(report.completed, "{}", report.stall_summary());
            assert_eq!(report.stats.nodes[0].msgs_recv, 2);
            assert_eq!((snap.requests_issued, snap.objects_installed), (1, 1));
            assert_eq!(snap.misrouted_requests, refused);
            assert_eq!(detail, None, "a finished node has no stall to detail");
            assert_eq!(
                check_conservation(&[snap]),
                [Violation::MisroutedRequest { node: 0, count: refused }]
            );
        };

        let proc_ = DpaProc::new(Probe::reading(Some(asked), 1, 0), 2, DpaConfig::dpa(8));
        let (report, mut m) = run(proc_, sends());
        assert_eq!(
            report.stats.user_total("remote_objects_fetched"),
            1,
            "the refused copy is not in renamed storage"
        );
        let dpa = real(&mut m);
        assert_eq!(dpa.app().seen_gen, [Some(0)]);
        check(report, dpa.snapshot(0), dpa.stall_detail());

        let proc_ = CachingProc::new(Probe::reading(Some(asked), 1, 0), 2, DpaConfig::caching());
        let (report, mut m) = run(proc_, sends());
        let caching = real(&mut m);
        assert_eq!(caching.app().seen_gen, [None], "the read resumed once");
        check(report, caching.snapshot(0), caching.stall_detail());
    }

    // Refused and still stuck: the stall report names the refusal.
    let proc_ = DpaProc::new(Probe::reading(Some(asked), 1, 0), 2, DpaConfig::dpa(8));
    let (report, mut m) = run(proc_, vec![(400_000, DpaMsg::Reply(vec![(never_asked, OBJ_BYTES)]))]);
    assert!(!report.completed, "the object it waits for never came");
    let detail = real(&mut m).stall_detail().expect("stalled");
    assert!(detail.contains("1 misrouted"), "{detail}");
}

/// A node waiting on `remote(4)` that never comes, so the run ends stalled
/// and the stall report can be read after `sends` landed.
fn stuck<P: Proc<Msg = DpaMsg>>(
    mk: impl Fn(Probe) -> P,
    sends: Vec<(u64, DpaMsg)>,
) -> (RunReport, Machine<Peer<P>>) {
    run(mk(Probe::reading(Some(remote(4)), 1, 0)), sends)
}

/// Node 0 refused `count` entries: the oracle reports exactly that over
/// `snaps`, and the stall report shows it.
fn check_refused(
    label: &str,
    report: &RunReport,
    snaps: &[NodeSnapshot],
    detail: Option<String>,
    count: u64,
) {
    assert!(!report.completed, "{label}: waits for a reply that never comes");
    assert_eq!(
        check_conservation(snaps),
        [Violation::MisroutedRequest { node: 0, count }],
        "{label}"
    );
    let detail = detail.expect("stalled");
    assert!(detail.contains(&format!("{count} misrouted")), "{label}: {detail}");
}

/// Affinity, differential and replication messages reach a node whose
/// mode is off only from a scripted peer — every node of a machine runs
/// one config, and the baselines run none of the modes. Each entry is
/// refused and counted, by either node driver, and nothing panics.
#[test]
fn a_mode_message_for_a_mode_that_is_off_is_a_counted_refusal() {
    let local = GPtr::new(0, ObjClass(0), 3);
    let sends = || {
        vec![
            (
                50_000,
                DpaMsg::Affinity {
                    seq: 0,
                    entries: vec![(local, 5)],
                },
            ),
            (
                70_000,
                DpaMsg::PhaseDelta {
                    seq: 0,
                    entries: vec![remote(2)],
                },
            ),
            (
                80_000,
                DpaMsg::Replicate {
                    seq: 0,
                    gen: 0,
                    entries: vec![(remote(3), OBJ_BYTES)],
                },
            ),
        ]
    };
    let (report, mut m) = stuck(|app| DpaProc::new(app, 2, DpaConfig::dpa(8)), sends());
    assert_eq!(report.stats.nodes[0].msgs_sent, 1, "its own request only");
    let dpa = real(&mut m);
    check_refused("dpa", &report, &[dpa.snapshot(0)], dpa.stall_detail(), 3);

    let (report, mut m) = stuck(|app| CachingProc::new(app, 2, DpaConfig::caching()), sends());
    assert_eq!(report.stats.nodes[0].msgs_sent, 1, "its own request only");
    let caching = real(&mut m);
    check_refused("caching", &report, &[caching.snapshot(0)], caching.stall_detail(), 3);
}

/// A reduction goes to its target's birth home, so no real node sends an
/// `Update` entry for an object born elsewhere. A scripted peer can: the
/// entry is refused — the app's `apply_update` never sees it — and
/// counted, by either node driver; the local entry of the same message is
/// applied as usual.
#[test]
fn an_update_for_a_foreign_object_is_a_counted_refusal() {
    let local = GPtr::new(0, ObjClass(0), 3);
    let update = |seq, entries| DpaMsg::Update { seq, entries };
    let sends = || {
        vec![
            (50_000, update(0, vec![(remote(5), 1.5)])),
            (60_000, update(1, vec![(remote(6), 1.0), (local, 2.5)])),
        ]
    };
    // The scripted node's own emissions, so the update laws balance.
    let peer = NodeSnapshot {
        node: 1,
        updates_emitted: 3,
        ..NodeSnapshot::default()
    };
    let (report, mut m) = stuck(|app| DpaProc::new(app, 2, DpaConfig::dpa(8)), sends());
    let dpa = real(&mut m);
    let snap = dpa.snapshot(0);
    assert_eq!((dpa.app().applied, snap.updates_applied), (2.5, 1));
    check_refused("dpa", &report, &[snap, peer.clone()], dpa.stall_detail(), 2);

    let (report, mut m) = stuck(|app| CachingProc::new(app, 2, DpaConfig::caching()), sends());
    let caching = real(&mut m);
    let snap = caching.snapshot(0);
    assert_eq!((caching.app().applied, snap.updates_applied), (2.5, 1));
    check_refused("caching", &report, &[snap, peer], caching.stall_detail(), 2);
}

/// One iteration of `spin` local steps whose last step emits one reduction
/// for `target` (no iteration at all without a target); every reduction
/// this node receives is summed into `applied`.
struct LastWord {
    target: Option<GPtr>,
    spin: u32,
    applied: f64,
}

impl PtrApp for LastWord {
    type Work = u32;

    fn num_iterations(&self) -> usize {
        self.target.is_some() as usize
    }

    fn start_iteration(&mut self, _iter: usize, env: &mut WorkEnv<'_, u32>) {
        env.local(self.spin);
    }

    fn run_work(&mut self, left: u32, env: &mut WorkEnv<'_, u32>) {
        env.charge(STEP_NS);
        match (left, self.target) {
            (0 | 1, Some(target)) => env.accumulate(target, 2.5),
            _ => env.local(left - 1),
        }
    }

    fn object_size(&self, _ptr: GPtr) -> u32 {
        OBJ_BYTES
    }

    fn apply_update(&mut self, _ptr: GPtr, value: f64) {
        self.applied += value;
    }
}

/// ROADMAP 1(d): the last work call on a node leaves a partial `Update`
/// batch — one entry, below the window and the MTU, younger than the
/// flush deadline — and nothing else will ever wake the node. The phase
/// still ends: the batch leaves at the node's quiescence, is applied once
/// at its target's home, and every conservation law holds.
#[test]
fn a_partial_update_batch_left_by_the_last_work_call_is_flushed_at_quiescence() {
    let cfg = DpaConfig::dpa(8);
    assert!(cfg.agg_window > 1 && cfg.reply_flush_deadline_ns < STEP_NS);
    let target = remote(8);
    let node = |target| {
        let app = LastWord {
            target,
            spin: 3,
            applied: 0.0,
        };
        Peer::Real(Box::new(DpaProc::new(app, 2, cfg.clone())))
    };
    let mut m = Machine::new(vec![node(Some(target)), node(None)], NetConfig::default());
    let report = m.run();
    assert!(report.completed, "{}", report.stall_summary());
    let flushes = |rule| report.stats.user_total(rule);
    assert_eq!(
        [
            "upd_flush_window",
            "upd_flush_mtu",
            "upd_flush_deadline",
            "upd_flush_quiescence"
        ]
        .map(flushes),
        [0, 0, 0, 1],
        "the one batch left at quiescence"
    );
    assert_eq!(report.stats.nodes[0].msgs_sent, 1);
    let snaps: Vec<NodeSnapshot> = (0..2u16).map(|i| real_at(&mut m, i).snapshot(i)).collect();
    assert_eq!((snaps[0].updates_emitted, snaps[0].upd_buffered), (1, 0));
    assert_eq!(snaps[1].updates_applied, 1);
    assert_eq!(
        real_at(&mut m, 1).app().applied,
        2.5,
        "applied exactly once"
    );
    assert_eq!(check_conservation(&snaps), []);
}
