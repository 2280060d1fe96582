//! Runtime-state invariants checked by the DST harness.
//!
//! The DPA runtime's correctness argument rests on a handful of conservation
//! laws over its two tables — **M** (pointer → aligned threads) and **D**
//! (outstanding requests) — and its coalescing buffers:
//!
//! * at phase end M and D are empty and every buffer is drained;
//! * every entry pushed into a coalescer is either sent or still buffered
//!   (nothing silently vanishes inside the runtime) — separately on the
//!   request path and on the owner-side reply path, whose scheduler has
//!   its own buffers;
//! * every distinct request issued is either installed or still outstanding
//!   (replies are deduplicated, so duplicated delivery cannot over-install);
//! * reduction entries are applied **at most once** machine-wide — exactly
//!   once when the network loses nothing.
//!
//! Each node driver exports a [`NodeSnapshot`] after a run;
//! [`check_completed`] and [`check_conservation`] turn a set of snapshots
//! into a (hopefully empty) list of [`Violation`]s. The laws hold across
//! *every* schedule and fault plan, which is what makes them useful DST
//! oracles: a scheduling bug shows up as a leak long before it corrupts an
//! application result.
//!
//! Object migration adds its own laws: every object lives at **exactly one
//! home** (an adoption implies a matching stub, a stub implies its
//! adoption, no object is adopted twice — objects re-home offline between
//! phases, so these hold on any run), forwarding chains are bounded at one
//! hop (a node never both adopts and departs the same object), no request
//! reaches a node that neither holds the object nor a stub for it, and
//! affinity reports all land (lossless runs).
//!
//! Read-mostly replication adds two more: **broadcast conservation**
//! (replica entries installed after dedup never exceed entries sent, and
//! match exactly on lossless completed runs) and **coherence** (every
//! replica a consumer installed matches, pointer and generation, an entry
//! its owner's directory actually broadcast — a consumer can never hold a
//! generation its owner never published).

use global_heap::GPtr;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Post-run runtime state of one node, in entry counts.
///
/// Produced by `DpaProc::snapshot` / `CachingProc::snapshot`; consumed by
/// the checkers below. All counters are cumulative over the phase except
/// the `*_buffered`, `pending_*` and `map_*` fields, which are the state
/// left at the instant the run stopped.
#[derive(Clone, Debug, Default)]
pub struct NodeSnapshot {
    /// Which node this snapshot describes.
    pub node: u16,
    /// Keys still present in M (0 after a completed phase).
    pub map_keys: usize,
    /// Threads still aligned under some key in M.
    pub map_threads: u64,
    /// Entries still present in D.
    pub pending_requests: usize,
    /// Up to a few of the stuck pointers, rendered for diagnostics.
    pub pending_sample: Vec<String>,
    /// Replies owed: request entries sent whose reply has not installed.
    pub in_flight: usize,
    /// Distinct requests ever issued (D inserts).
    pub requests_issued: u64,
    /// Remote objects installed by fresh (non-duplicate) replies.
    pub objects_installed: u64,
    /// Request entries pushed into the coalescer.
    pub req_pushed: u64,
    /// Request entries actually sent on the wire.
    pub req_sent: u64,
    /// Request entries still buffered (coalescer plus held batches).
    pub req_buffered: usize,
    /// Reduction entries emitted by the application on this node.
    pub updates_emitted: u64,
    /// Reduction entries applied on this node (local and received).
    pub updates_applied: u64,
    /// Reduction entries sent on the wire.
    pub upd_sent: u64,
    /// Reduction entries still buffered for sending.
    pub upd_buffered: usize,
    /// Owner-side reply entries accepted for sending (immediate service or
    /// pushed into the reply scheduler).
    pub reply_pushed: u64,
    /// Owner-side reply entries sent on the wire.
    pub reply_sent: u64,
    /// Owner-side reply entries still buffered in the reply scheduler.
    pub reply_buffered: usize,
    /// Per-pointer reply accounting for this node's hottest keys:
    /// `(pointer bits, entries pushed, entries sent)`, hottest first.
    /// On a completed run with the scheduler drained, pushed must equal
    /// sent for every key — the hot-hub conservation oracle (aggregate
    /// counters can mask a bug that drops a hub entry while inventing
    /// one for a cold key).
    pub reply_hot: Vec<(u64, u64, u64)>,
    /// Request messages sent (per-path message accounting).
    pub request_msgs: u64,
    /// Reply messages sent.
    pub reply_msgs: u64,
    /// Update messages sent.
    pub update_msgs: u64,
    /// Affinity entries sent on the wire.
    pub aff_sent: u64,
    /// Affinity entries received (after sequence dedup).
    pub aff_recv: u64,
    /// Entries no real machine sends, refused: requests and `Forward`s
    /// for objects this node was not born with, has not adopted and holds
    /// no stub for; replies it never asked for; updates for objects born
    /// elsewhere; mode messages whose mode is off; and sequenced messages
    /// whose sender lies outside the machine this node was built for.
    pub misrouted_requests: u64,
    /// Pointer bits of every object this node adopted (sorted).
    pub adopted_ptrs: Vec<u64>,
    /// Pointer bits of every object that departed from this node (sorted).
    pub departed_ptrs: Vec<u64>,
    /// Differential: PhaseDelta entries sent to consumers carrying this
    /// node's objects.
    pub delta_entries_sent: u64,
    /// Differential: PhaseDelta entries received (after sequence dedup).
    pub delta_entries_recv: u64,
    /// Differential: homes whose boundary delta this node is still gated
    /// on (0 after any completed phase — a gated node cannot finish).
    pub deltas_awaited: usize,
    /// Differential: held cache entries whose generation stamp disagrees
    /// with the object's current generation — the delta-conservation
    /// oracle ("no stale cache entry survives a home or value change").
    pub stale_cache_entries: usize,
    /// Replication: replica entries this owner put on the wire in
    /// `Replicate` broadcasts.
    pub repl_entries_sent: u64,
    /// Replication: replica entries received (after sequence dedup).
    pub repl_entries_recv: u64,
    /// Replication: this owner's replica directory as sorted
    /// `(pointer bits, generation)` pairs.
    pub replica_dir: Vec<(u64, u32)>,
    /// Replication: replicas installed from broadcasts this phase, as
    /// sorted `(pointer bits, generation)` pairs.
    pub replica_held: Vec<(u64, u32)>,
}

/// One violated invariant, with enough context to act on.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// M still holds aligned threads after the phase ended.
    MapNotEmpty {
        /// Offending node.
        node: u16,
        /// Keys left in M.
        keys: usize,
        /// Threads still aligned.
        threads: u64,
    },
    /// D still holds outstanding requests after the phase ended.
    PendingNotDrained {
        /// Offending node.
        node: u16,
        /// Entries left in D.
        count: usize,
        /// A sample of the stuck pointers.
        sample: Vec<String>,
    },
    /// A coalescing buffer still holds entries after the phase ended.
    BufferNotDrained {
        /// Offending node.
        node: u16,
        /// Request entries left buffered.
        req: usize,
        /// Reduction entries left buffered.
        upd: usize,
        /// Reply entries left buffered in the reply scheduler.
        reply: usize,
    },
    /// Request entries pushed ≠ sent + buffered: the communication
    /// scheduler lost or invented entries.
    RequestLeak {
        /// Offending node.
        node: u16,
        /// Entries pushed into the coalescer.
        pushed: u64,
        /// Entries sent on the wire.
        sent: u64,
        /// Entries still buffered.
        buffered: usize,
    },
    /// Owner-side reply entries accepted ≠ sent + buffered: the reply
    /// scheduler lost or invented entries.
    ReplyPathLeak {
        /// Offending node.
        node: u16,
        /// Reply entries accepted for sending.
        pushed: u64,
        /// Reply entries sent on the wire.
        sent: u64,
        /// Reply entries still buffered.
        buffered: usize,
    },
    /// Per-key reply conservation broken on a completed run with the
    /// reply scheduler drained: entries pushed for one hot pointer ≠
    /// entries sent for it. The aggregate [`Violation::ReplyPathLeak`]
    /// law can balance while a hub's entry is swallowed and a cold key's
    /// invented; this pins the loss to the key.
    HotKeyReplyLeak {
        /// Offending node.
        node: u16,
        /// Raw pointer bits of the unbalanced key.
        ptr: u64,
        /// Entries pushed for this key.
        pushed: u64,
        /// Entries sent for this key.
        sent: u64,
    },
    /// Requests issued ≠ objects installed + still outstanding: a reply
    /// was double-installed or an install happened unsolicited.
    ReplyLeak {
        /// Offending node.
        node: u16,
        /// Distinct requests issued.
        issued: u64,
        /// Objects installed.
        installed: u64,
        /// Requests still outstanding.
        outstanding: usize,
    },
    /// Machine-wide reduction conservation failed on a lossless run:
    /// entries applied ≠ entries emitted (+ still buffered).
    UpdateLeak {
        /// Entries emitted across all nodes.
        emitted: u64,
        /// Entries applied across all nodes.
        applied: u64,
        /// Entries still buffered across all nodes.
        buffered: u64,
    },
    /// More reduction entries applied than emitted: a duplicated update
    /// was folded in twice. This is a violation on *any* run, lossy or
    /// not — dedup must make application at-most-once.
    UpdateOverApplied {
        /// Entries emitted across all nodes.
        emitted: u64,
        /// Entries applied across all nodes.
        applied: u64,
    },
    /// A node both adopted an object and departed it: a forwarding chain
    /// of length > 1, which the protocol promises never to create.
    ForwardChainTooLong {
        /// Offending node.
        node: u16,
        /// The twice-moved object (pointer bits).
        ptr: u64,
    },
    /// An object is adopted somewhere but no node holds its forwarding
    /// stub — adoption without a departure, so the object has two homes.
    AdoptionWithoutStub {
        /// The adopting node.
        node: u16,
        /// The object (pointer bits).
        ptr: u64,
    },
    /// Two or more nodes adopted the same object.
    ObjectDoubleAdopted {
        /// The object (pointer bits).
        ptr: u64,
        /// Every node claiming adoption.
        nodes: Vec<u16>,
    },
    /// A stub points at a home that never materialized: the object left
    /// its birth home and was never adopted — the object is gone. Stub and
    /// adoption are installed together between phases, so no packet loss
    /// or stall excuses this; it is checked on every run.
    ObjectLost {
        /// The birth home holding the dangling stub.
        node: u16,
        /// The lost object (pointer bits).
        ptr: u64,
    },
    /// A node received a request or `Forward` for an object it was not
    /// born with, has not adopted and holds no stub for. Homes change only
    /// between phases, so every table names the same home all phase long
    /// and no schedule or fault plan can misroute a request; the node
    /// refuses it rather than serve an object it does not hold. The count
    /// also covers the node's other refusals of entries no real machine
    /// sends ([`NodeSnapshot::misrouted_requests`]).
    MisroutedRequest {
        /// The node that refused the entries.
        node: u16,
        /// How many entries it refused.
        count: u64,
    },
    /// Machine-wide affinity conservation failed on a lossless run:
    /// entries received (after dedup) ≠ entries sent.
    AffinityLeak {
        /// Affinity entries sent across all nodes.
        sent: u64,
        /// Affinity entries received across all nodes.
        recv: u64,
    },
    /// A cache entry whose generation stamp disagrees with the object's
    /// current generation survived to the end of a completed phase: a
    /// boundary delta failed to invalidate a changed object's carried
    /// copy, so threads may have read the previous timestep's value.
    StaleCacheEntry {
        /// Offending node.
        node: u16,
        /// How many held entries are stale.
        count: usize,
    },
    /// A node finished a phase while still gated on boundary deltas — the
    /// gate logic let work through before every carried home reported.
    DeltaGateOpen {
        /// Offending node.
        node: u16,
        /// Homes whose delta never arrived.
        awaited: usize,
    },
    /// Machine-wide PhaseDelta conservation failed on a lossless run:
    /// entries received (after dedup) ≠ entries sent.
    DeltaLeak {
        /// Delta entries sent across all nodes.
        sent: u64,
        /// Delta entries received across all nodes.
        recv: u64,
    },
    /// Machine-wide replica-broadcast conservation failed: on any run,
    /// entries installed (after dedup) exceeding entries sent means an
    /// install was invented or dedup let a duplicate through; on a
    /// lossless completed run the two must match exactly.
    ReplicaLeak {
        /// Replica entries sent across all nodes.
        sent: u64,
        /// Replica entries received (after dedup) across all nodes.
        recv: u64,
    },
    /// A consumer holds a replica whose `(pointer, generation)` matches no
    /// directory snapshot of its owner: the copy was installed at a
    /// generation the owner never published — a coherence breach no
    /// schedule or fault plan can excuse.
    ReplicaIncoherent {
        /// The consumer holding the bad replica.
        node: u16,
        /// The replicated object (pointer bits).
        ptr: u64,
        /// The generation the consumer holds.
        gen: u32,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MapNotEmpty {
                node,
                keys,
                threads,
            } => write!(
                f,
                "n{node}: M not empty at phase end ({keys} keys, {threads} aligned threads)"
            ),
            Violation::PendingNotDrained {
                node,
                count,
                sample,
            } => write!(
                f,
                "n{node}: D not drained at phase end ({count} outstanding; e.g. {})",
                sample.join(", ")
            ),
            Violation::BufferNotDrained {
                node,
                req,
                upd,
                reply,
            } => write!(
                f,
                "n{node}: coalescer not drained at phase end ({req} request, {upd} update, {reply} reply entries)"
            ),
            Violation::ReplyPathLeak {
                node,
                pushed,
                sent,
                buffered,
            } => write!(
                f,
                "n{node}: reply-path conservation broken: accepted {pushed} != sent {sent} + buffered {buffered}"
            ),
            Violation::RequestLeak {
                node,
                pushed,
                sent,
                buffered,
            } => write!(
                f,
                "n{node}: request conservation broken: pushed {pushed} != sent {sent} + buffered {buffered}"
            ),
            Violation::HotKeyReplyLeak {
                node,
                ptr,
                pushed,
                sent,
            } => write!(
                f,
                "n{node}: hot-key reply conservation broken for ptr {ptr:#x}: pushed {pushed} != sent {sent}"
            ),
            Violation::ReplyLeak {
                node,
                issued,
                installed,
                outstanding,
            } => write!(
                f,
                "n{node}: reply conservation broken: issued {issued} != installed {installed} + outstanding {outstanding}"
            ),
            Violation::UpdateLeak {
                emitted,
                applied,
                buffered,
            } => write!(
                f,
                "updates leaked: emitted {emitted} != applied {applied} + buffered {buffered} (lossless run)"
            ),
            Violation::UpdateOverApplied { emitted, applied } => write!(
                f,
                "updates over-applied: {applied} applied > {emitted} emitted (duplicate folded twice)"
            ),
            Violation::ForwardChainTooLong { node, ptr } => write!(
                f,
                "n{node}: forwarding chain > 1 hop: {} both adopted and departed here",
                GPtr::from_bits(*ptr)
            ),
            Violation::AdoptionWithoutStub { node, ptr } => write!(
                f,
                "n{node}: adopted {} but no node holds its forwarding stub (two homes)",
                GPtr::from_bits(*ptr)
            ),
            Violation::ObjectDoubleAdopted { ptr, nodes } => write!(
                f,
                "{} adopted by {} nodes: {:?}",
                GPtr::from_bits(*ptr),
                nodes.len(),
                nodes
            ),
            Violation::ObjectLost { node, ptr } => write!(
                f,
                "n{node}: {} departed but was never adopted anywhere (object lost)",
                GPtr::from_bits(*ptr)
            ),
            Violation::MisroutedRequest { node, count } => write!(
                f,
                "n{node}: refused {count} request entr{} for objects it neither holds nor forwards",
                if *count == 1 { "y" } else { "ies" }
            ),
            Violation::AffinityLeak { sent, recv } => write!(
                f,
                "affinity leaked: sent {sent} entries != received {recv} (lossless run)"
            ),
            Violation::StaleCacheEntry { node, count } => write!(
                f,
                "n{node}: {count} stale cache entr{} survived the phase (generation stamp behind the object)",
                if *count == 1 { "y" } else { "ies" }
            ),
            Violation::DeltaGateOpen { node, awaited } => write!(
                f,
                "n{node}: phase completed while still awaiting boundary deltas from {awaited} home(s)"
            ),
            Violation::DeltaLeak { sent, recv } => write!(
                f,
                "phase deltas leaked: sent {sent} entries != received {recv} (lossless run)"
            ),
            Violation::ReplicaLeak { sent, recv } => write!(
                f,
                "replica broadcasts leaked: sent {sent} entries != installed {recv}"
            ),
            Violation::ReplicaIncoherent { node, ptr, gen } => write!(
                f,
                "n{node}: holds replica of {} at generation {gen}, which its owner never published",
                GPtr::from_bits(*ptr)
            ),
        }
    }
}

/// Conservation laws that hold on **any** run, completed or stalled, lossy
/// or not. A violation here is a runtime bug regardless of fault plan.
pub fn check_conservation(snaps: &[NodeSnapshot]) -> Vec<Violation> {
    let mut out = Vec::new();
    for s in snaps {
        if s.req_pushed != s.req_sent + s.req_buffered as u64 {
            out.push(Violation::RequestLeak {
                node: s.node,
                pushed: s.req_pushed,
                sent: s.req_sent,
                buffered: s.req_buffered,
            });
        }
        if s.reply_pushed != s.reply_sent + s.reply_buffered as u64 {
            out.push(Violation::ReplyPathLeak {
                node: s.node,
                pushed: s.reply_pushed,
                sent: s.reply_sent,
                buffered: s.reply_buffered,
            });
        }
        if s.requests_issued != s.objects_installed + s.pending_requests as u64 {
            out.push(Violation::ReplyLeak {
                node: s.node,
                issued: s.requests_issued,
                installed: s.objects_installed,
                outstanding: s.pending_requests,
            });
        }
    }
    let emitted: u64 = snaps.iter().map(|s| s.updates_emitted).sum();
    let applied: u64 = snaps.iter().map(|s| s.updates_applied).sum();
    if applied > emitted {
        out.push(Violation::UpdateOverApplied { emitted, applied });
    }
    // Broadcast at-most-once: installs (post-dedup) can trail sends on a
    // lossy or stalled run, but can never exceed them.
    let rsent: u64 = snaps.iter().map(|s| s.repl_entries_sent).sum();
    let rrecv: u64 = snaps.iter().map(|s| s.repl_entries_recv).sum();
    if rrecv > rsent {
        out.push(Violation::ReplicaLeak {
            sent: rsent,
            recv: rrecv,
        });
    }
    // Coherence holds on any run, completed or stalled, lossy or not: a
    // held replica exists only because a broadcast delivered it, and a
    // broadcast carries exactly what the owner's directory published
    // (drop and dup cannot manufacture a generation). Multi-phase checks
    // feed every phase's snapshots, so a held copy must match *some*
    // directory snapshot of its owner.
    let mut published: HashSet<(u64, u32)> = HashSet::new();
    for s in snaps {
        for &(ptr, gen) in &s.replica_dir {
            if GPtr::from_bits(ptr).node() == s.node {
                published.insert((ptr, gen));
            }
        }
    }
    for s in snaps {
        for &(ptr, gen) in &s.replica_held {
            if !published.contains(&(ptr, gen)) {
                out.push(Violation::ReplicaIncoherent {
                    node: s.node,
                    ptr,
                    gen,
                });
            }
        }
    }
    out.extend(check_migration_conservation(snaps));
    out
}

/// Object-migration laws that hold on **any** run: no misrouted request,
/// the one-hop forwarding bound, single-home exclusivity in both
/// directions. (Stub and adoption are installed together between phases,
/// so even a snapshot of a stalled run shows neither without the other.)
fn check_migration_conservation(snaps: &[NodeSnapshot]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut adopters: HashMap<u64, Vec<u16>> = HashMap::new();
    let mut departed_anywhere: HashSet<u64> = HashSet::new();
    for s in snaps {
        if s.misrouted_requests > 0 {
            out.push(Violation::MisroutedRequest {
                node: s.node,
                count: s.misrouted_requests,
            });
        }
        let departed_here: HashSet<u64> = s.departed_ptrs.iter().copied().collect();
        departed_anywhere.extend(&departed_here);
        for &ptr in &s.adopted_ptrs {
            adopters.entry(ptr).or_default().push(s.node);
            if departed_here.contains(&ptr) {
                out.push(Violation::ForwardChainTooLong { node: s.node, ptr });
            }
        }
    }
    let mut ptrs: Vec<u64> = adopters.keys().copied().collect();
    ptrs.sort_unstable();
    for ptr in ptrs {
        // Distinct adopters only: multi-phase checks feed every phase's
        // snapshot of the same node, so repeats are expected — exclusivity
        // is about two *different* nodes claiming the object.
        let mut nodes = adopters[&ptr].clone();
        nodes.sort_unstable();
        nodes.dedup();
        if nodes.len() > 1 {
            out.push(Violation::ObjectDoubleAdopted { ptr, nodes });
        }
        if !departed_anywhere.contains(&ptr) {
            out.push(Violation::AdoptionWithoutStub {
                node: adopters[&ptr][0],
                ptr,
            });
        }
    }
    for s in snaps {
        for &ptr in &s.departed_ptrs {
            if !adopters.contains_key(&ptr) {
                out.push(Violation::ObjectLost { node: s.node, ptr });
            }
        }
    }
    out
}

/// Full end-of-phase check for a run that reported `completed`.
///
/// `lossy` says whether the fault plan could have dropped packets: on a
/// completed lossy run only fire-and-forget updates can have been lost
/// (a lost request or reply necessarily stalls the phase), so update
/// conservation relaxes to at-most-once; everything else must still hold
/// exactly.
pub fn check_completed(snaps: &[NodeSnapshot], lossy: bool) -> Vec<Violation> {
    let mut out = check_conservation(snaps);
    for s in snaps {
        if s.map_keys > 0 || s.map_threads > 0 {
            out.push(Violation::MapNotEmpty {
                node: s.node,
                keys: s.map_keys,
                threads: s.map_threads,
            });
        }
        if s.pending_requests > 0 {
            out.push(Violation::PendingNotDrained {
                node: s.node,
                count: s.pending_requests,
                sample: s.pending_sample.clone(),
            });
        }
        if s.req_buffered > 0 || s.upd_buffered > 0 || s.reply_buffered > 0 {
            out.push(Violation::BufferNotDrained {
                node: s.node,
                req: s.req_buffered,
                upd: s.upd_buffered,
                reply: s.reply_buffered,
            });
        }
        // Hot-key conservation: with the reply scheduler drained every
        // tracked key must balance exactly (per-key buffered counts are
        // not tracked, so the law is only provable once reply_buffered
        // is zero — when it is not, BufferNotDrained above already
        // fires). Holds on lossy runs too: these counters advance at the
        // owner before the wire can drop anything.
        if s.reply_buffered == 0 {
            for &(ptr, pushed, sent) in &s.reply_hot {
                if pushed != sent {
                    out.push(Violation::HotKeyReplyLeak {
                        node: s.node,
                        ptr,
                        pushed,
                        sent,
                    });
                }
            }
        }
        // Differential laws hold on any completed run, lossy or not: a
        // dropped PhaseDelta keeps its consumer gated (the phase stalls
        // rather than completing), so completion implies every delta
        // landed and every stale carry was invalidated before use.
        if s.deltas_awaited > 0 {
            out.push(Violation::DeltaGateOpen {
                node: s.node,
                awaited: s.deltas_awaited,
            });
        }
        if s.stale_cache_entries > 0 {
            out.push(Violation::StaleCacheEntry {
                node: s.node,
                count: s.stale_cache_entries,
            });
        }
    }
    if !lossy {
        let emitted: u64 = snaps.iter().map(|s| s.updates_emitted).sum();
        let applied: u64 = snaps.iter().map(|s| s.updates_applied).sum();
        let buffered: u64 = snaps.iter().map(|s| s.upd_buffered as u64).sum();
        if applied + buffered != emitted {
            out.push(Violation::UpdateLeak {
                emitted,
                applied,
                buffered,
            });
        }
        // On a lossless completed run the machine has drained every
        // message: all affinity landed.
        let sent: u64 = snaps.iter().map(|s| s.aff_sent).sum();
        let recv: u64 = snaps.iter().map(|s| s.aff_recv).sum();
        if sent != recv {
            out.push(Violation::AffinityLeak { sent, recv });
        }
        let dsent: u64 = snaps.iter().map(|s| s.delta_entries_sent).sum();
        let drecv: u64 = snaps.iter().map(|s| s.delta_entries_recv).sum();
        if dsent != drecv {
            out.push(Violation::DeltaLeak {
                sent: dsent,
                recv: drecv,
            });
        }
        // Every broadcast landed: on a lossless completed run replica
        // installs must match sends exactly (the at-most-once direction
        // is checked unconditionally in `check_conservation`).
        let rsent: u64 = snaps.iter().map(|s| s.repl_entries_sent).sum();
        let rrecv: u64 = snaps.iter().map(|s| s.repl_entries_recv).sum();
        if rsent != rrecv {
            out.push(Violation::ReplicaLeak {
                sent: rsent,
                recv: rrecv,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean(node: u16) -> NodeSnapshot {
        NodeSnapshot {
            node,
            requests_issued: 10,
            objects_installed: 10,
            req_pushed: 10,
            req_sent: 10,
            updates_emitted: 4,
            updates_applied: 4,
            upd_sent: 2,
            reply_pushed: 10,
            reply_sent: 10,
            request_msgs: 3,
            reply_msgs: 2,
            update_msgs: 1,
            ..NodeSnapshot::default()
        }
    }

    #[test]
    fn clean_run_has_no_violations() {
        let snaps = vec![clean(0), clean(1)];
        assert!(check_completed(&snaps, false).is_empty());
        assert!(check_conservation(&snaps).is_empty());
    }

    #[test]
    fn leftover_map_is_reported() {
        let mut s = clean(3);
        s.map_keys = 2;
        s.map_threads = 7;
        let v = check_completed(&[s], false);
        assert!(matches!(
            v[0],
            Violation::MapNotEmpty {
                node: 3,
                keys: 2,
                threads: 7
            }
        ));
        let msg = v[0].to_string();
        assert!(msg.contains("n3") && msg.contains("M not empty"), "{msg}");
    }

    #[test]
    fn stuck_pending_names_pointers() {
        let mut s = clean(1);
        s.pending_requests = 1;
        s.pending_sample = vec!["<n2:c0:#5>".into()];
        // Conservation still balances: issued == installed + outstanding.
        s.requests_issued = 11;
        let v = check_completed(&[s], false);
        assert_eq!(v.len(), 1);
        assert!(v[0].to_string().contains("<n2:c0:#5>"));
    }

    #[test]
    fn reply_leak_detected() {
        let mut s = clean(0);
        s.objects_installed = 11; // double-install
        let v = check_conservation(&[s]);
        assert!(matches!(v[0], Violation::ReplyLeak { node: 0, .. }));
    }

    #[test]
    fn reply_path_leak_detected() {
        let mut s = clean(2);
        s.reply_sent = 8; // 2 entries vanished inside the scheduler
        let v = check_conservation(&[s]);
        assert!(matches!(v[0], Violation::ReplyPathLeak { node: 2, .. }));
        assert!(v[0].to_string().contains("reply-path"));
        // Balanced by buffered entries, it is conservation-clean again
        // but must be flagged as undrained on a completed run.
        let mut s = clean(2);
        s.reply_sent = 8;
        s.reply_buffered = 2;
        assert!(check_conservation(std::slice::from_ref(&s)).is_empty());
        let v = check_completed(&[s], false);
        assert!(matches!(
            v[0],
            Violation::BufferNotDrained { node: 2, reply: 2, .. }
        ));
    }

    #[test]
    fn hot_key_reply_leak_detected() {
        // Balanced hot keys on a drained scheduler: clean.
        let mut s = clean(1);
        s.reply_hot = vec![(0x42, 7, 7), (0x43, 3, 3)];
        assert!(check_completed(std::slice::from_ref(&s), false).is_empty());
        // A hub entry swallowed while a cold key invented one: the
        // aggregate reply-path law still balances (10 == 10), only the
        // per-key oracle sees it.
        let mut s = clean(1);
        s.reply_hot = vec![(0x42, 7, 6), (0x43, 3, 4)];
        let v = check_completed(std::slice::from_ref(&s), false);
        assert_eq!(v.len(), 2);
        assert!(matches!(
            v[0],
            Violation::HotKeyReplyLeak {
                node: 1,
                ptr: 0x42,
                pushed: 7,
                sent: 6
            }
        ));
        let msg = v[0].to_string();
        assert!(msg.contains("hot-key") && msg.contains("0x42"), "{msg}");
        // The law also holds on completed lossy runs (counters advance
        // at the owner, before the wire can drop anything).
        assert_eq!(check_completed(std::slice::from_ref(&s), true).len(), 2);
        // An undrained scheduler makes the per-key law unprovable:
        // BufferNotDrained fires instead, not a per-key false positive.
        let mut s = clean(1);
        s.reply_pushed = 12;
        s.reply_buffered = 2;
        s.reply_hot = vec![(0x42, 9, 7)];
        let v = check_completed(std::slice::from_ref(&s), false);
        assert!(v
            .iter()
            .all(|v| !matches!(v, Violation::HotKeyReplyLeak { .. })));
        assert!(v
            .iter()
            .any(|v| matches!(v, Violation::BufferNotDrained { .. })));
    }

    #[test]
    fn update_over_apply_is_always_a_violation() {
        let mut a = clean(0);
        a.updates_applied = 6; // emitted only 4 on this node, 8 total
        let snaps = vec![a, clean(1)];
        // Even with `lossy = true` (drops allowed), applied > emitted is
        // impossible without a double-apply.
        assert!(check_conservation(&snaps)
            .iter()
            .any(|v| matches!(v, Violation::UpdateOverApplied { .. })));
    }

    #[test]
    fn clean_migration_run_has_no_violations() {
        // n0 departed an object that n1 adopted; affinity balanced.
        let mut a = clean(0);
        a.departed_ptrs = vec![42];
        a.aff_recv = 5;
        let mut b = clean(1);
        b.adopted_ptrs = vec![42];
        b.aff_sent = 5;
        let snaps = vec![a, b];
        assert!(check_completed(&snaps, false).is_empty());
    }

    #[test]
    fn forwarding_chain_bound_is_checked() {
        let mut s = clean(2);
        s.adopted_ptrs = vec![7];
        s.departed_ptrs = vec![7]; // adopted here, then shipped on: chain of 2
        let v = check_conservation(std::slice::from_ref(&s));
        assert!(v
            .iter()
            .any(|v| matches!(v, Violation::ForwardChainTooLong { node: 2, ptr: 7 })));
    }

    #[test]
    fn adoption_needs_a_stub_somewhere() {
        let mut a = clean(0);
        a.adopted_ptrs = vec![9]; // nobody departed 9
        let v = check_conservation(&[a, clean(1)]);
        assert!(v
            .iter()
            .any(|v| matches!(v, Violation::AdoptionWithoutStub { node: 0, ptr: 9 })));
    }

    #[test]
    fn double_adoption_detected() {
        let mut a = clean(0);
        a.departed_ptrs = vec![5];
        let mut b = clean(1);
        b.adopted_ptrs = vec![5];
        let mut c = clean(2);
        c.adopted_ptrs = vec![5];
        let v = check_conservation(&[a, b, c]);
        assert!(v.iter().any(
            |v| matches!(v, Violation::ObjectDoubleAdopted { ptr: 5, nodes } if nodes == &[1, 2])
        ));
    }

    #[test]
    fn repeated_snapshots_of_one_adopter_are_not_double_adoption() {
        // Multi-phase runs snapshot the same node once per phase; the
        // carried table makes the adoption show up repeatedly. That is one
        // adopter, not two.
        let mut a = clean(0);
        a.departed_ptrs = vec![5];
        let mut b1 = clean(1);
        b1.adopted_ptrs = vec![5];
        let b2 = b1.clone();
        let v = check_conservation(&[a, b1, b2]);
        assert!(
            !v.iter().any(|v| matches!(v, Violation::ObjectDoubleAdopted { .. })),
            "got: {v:?}"
        );
    }

    #[test]
    fn lost_object_and_misrouted_request_flagged_on_every_run() {
        let mut a = clean(0);
        a.departed_ptrs = vec![11]; // stub without an adopter
        let mut b = clean(1);
        b.misrouted_requests = 2;
        let snaps = vec![a, b];
        // Stalled, lossy-completed and lossless-completed alike.
        for v in [
            check_conservation(&snaps),
            check_completed(&snaps, true),
            check_completed(&snaps, false),
        ] {
            assert_eq!(
                v,
                [
                    Violation::MisroutedRequest { node: 1, count: 2 },
                    Violation::ObjectLost { node: 0, ptr: 11 },
                ]
            );
        }
        assert!(Violation::MisroutedRequest { node: 1, count: 2 }
            .to_string()
            .contains("refused 2 request entries"));
    }

    #[test]
    fn affinity_conservation_on_lossless_runs() {
        let mut a = clean(0);
        a.aff_sent = 10;
        let mut b = clean(1);
        b.aff_recv = 7; // three entries lost
        let snaps = vec![a, b];
        assert!(check_completed(&snaps, true).is_empty());
        assert!(check_completed(&snaps, false)
            .iter()
            .any(|v| matches!(v, Violation::AffinityLeak { sent: 10, recv: 7 })));
    }

    #[test]
    fn stale_cache_and_open_gate_flagged_even_on_lossy_completions() {
        // A completed phase can never legitimately hold a stale carry or
        // an open delta gate — drops stall the consumer instead.
        let mut s = clean(2);
        s.stale_cache_entries = 1;
        s.deltas_awaited = 3;
        let v = check_completed(std::slice::from_ref(&s), true);
        assert!(v
            .iter()
            .any(|v| matches!(v, Violation::StaleCacheEntry { node: 2, count: 1 })));
        assert!(v
            .iter()
            .any(|v| matches!(v, Violation::DeltaGateOpen { node: 2, awaited: 3 })));
        assert!(v[0].to_string().contains("n2"));
        // ...but they are end-of-phase laws, not conservation laws: a
        // stalled snapshot mid-gate is legal.
        assert!(check_conservation(&[s]).is_empty());
    }

    #[test]
    fn delta_conservation_on_lossless_runs() {
        let mut a = clean(0);
        a.delta_entries_sent = 6;
        let mut b = clean(1);
        b.delta_entries_recv = 4; // two entries vanished
        let snaps = vec![a, b];
        assert!(check_completed(&snaps, true).is_empty());
        assert!(check_completed(&snaps, false)
            .iter()
            .any(|v| matches!(v, Violation::DeltaLeak { sent: 6, recv: 4 })));
    }

    #[test]
    fn replica_over_install_is_always_a_violation() {
        let mut a = clean(0);
        a.repl_entries_sent = 3;
        let mut b = clean(1);
        b.repl_entries_recv = 4; // one more install than ever sent
        let v = check_conservation(&[a, b]);
        assert!(v
            .iter()
            .any(|v| matches!(v, Violation::ReplicaLeak { sent: 3, recv: 4 })));
        assert!(v[0].to_string().contains("replica broadcasts leaked"));
    }

    #[test]
    fn replica_conservation_exact_on_lossless_completions() {
        let mut a = clean(0);
        a.repl_entries_sent = 5;
        let mut b = clean(1);
        b.repl_entries_recv = 3; // two broadcasts dropped
        let snaps = vec![a, b];
        assert!(
            check_conservation(&snaps).is_empty(),
            "a lossy/stalled run may trail sends"
        );
        assert!(check_completed(&snaps, true).is_empty());
        assert!(check_completed(&snaps, false)
            .iter()
            .any(|v| matches!(v, Violation::ReplicaLeak { sent: 5, recv: 3 })));
    }

    #[test]
    fn replica_coherence_matches_owner_directory() {
        // Owner n0 publishes ptr 42 at gens 1 (phase A) and 2 (phase B);
        // consumers holding either generation are coherent.
        let ptr = GPtr::new(0, global_heap::ObjClass(0), 42).bits();
        let mut o1 = clean(0);
        o1.replica_dir = vec![(ptr, 1)];
        let mut o2 = clean(0);
        o2.replica_dir = vec![(ptr, 2)];
        let mut c = clean(1);
        c.replica_held = vec![(ptr, 2)];
        assert!(check_completed(&[o1.clone(), o2.clone(), c], false).is_empty());
        // A generation the owner never published is incoherent — even on
        // a lossy run (faults cannot manufacture a generation).
        let mut bad = clean(1);
        bad.replica_held = vec![(ptr, 7)];
        let v = check_completed(&[o1, o2, bad], true);
        assert!(v
            .iter()
            .any(|v| matches!(v, Violation::ReplicaIncoherent { node: 1, gen: 7, .. })));
        assert!(v[0].to_string().contains("never published"));
        // A directory claimed by a non-owner does not vouch for anyone.
        let mut imposter = clean(3);
        imposter.replica_dir = vec![(ptr, 9)];
        let mut held = clean(1);
        held.replica_held = vec![(ptr, 9)];
        assert!(check_conservation(&[imposter, held])
            .iter()
            .any(|v| matches!(v, Violation::ReplicaIncoherent { .. })));
    }

    #[test]
    fn lossy_run_tolerates_lost_updates_only() {
        let mut a = clean(0);
        a.updates_applied = 2; // 2 of its 4 emissions were dropped
        let snaps = vec![a, clean(1)];
        assert!(check_completed(&snaps, true).is_empty());
        assert!(check_completed(&snaps, false)
            .iter()
            .any(|v| matches!(v, Violation::UpdateLeak { .. })));
    }
}
