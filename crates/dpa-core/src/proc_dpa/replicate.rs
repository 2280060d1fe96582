//! Read-mostly replication (multi-home broadcast caching), on under
//! `Policy::Replicate` (see `global_heap::replicate`).
//!
//! Pointers whose affinity shows high fan-out with *no* dominant consumer
//! are promoted to *replicated* at phase boundaries ([`crate::boundary`]).
//! The owner broadcasts a generation-stamped copy (`Replicate`) to every
//! consumer at `on_start`, and subsequent remote reads hit the local
//! replica with zero messages. Writes never move: they funnel through the
//! birth home, are counted per window, and demote the pointer when the mix
//! stops being read-mostly. Carried replicas ride the differential
//! `(ptr, size, gen)` machinery.
//!
//! **Ordering.** A broadcast and the same owner's `PhaseDelta` for the
//! same pointer may arrive in either order (`delay` plans and jitter
//! reorder a link), and either is correct. Broadcast first: the fresh
//! copy supersedes the carried one and is recorded as held, so the delta
//! skips it. Delta first: the carried copy is invalidated, and the
//! broadcast then installs the fresh one — completing the demand request
//! if a thread already asked for it. A *lost* broadcast degrades to that
//! demand fetch, or to a diagnosable delta stall; never to a stale read.

use super::{fan_out, DpaProc};
use crate::invariant::NodeSnapshot;
use crate::mapping::Arrival;
use crate::msg::{DpaMsg, Payloads, SeqChannel};
use crate::work::PtrApp;
use global_heap::{FxHashMap, GPtr, ReplicaDirectory};
use sim_net::{Ctx, NodeId, NodeStats};

/// What a node keeps for replication, both as owner and as consumer.
pub(super) struct ReplState {
    /// Owner side: which of this node's pointers are multi-homed, to
    /// whom, at which generation, and how write-heavy the current window
    /// is. The promotion policy runs in the boundary pass; this proc
    /// broadcasts, counts writes, and hands the directory back.
    dir: ReplicaDirectory,
    /// Consumer side: replicas installed from a broadcast *this phase*,
    /// pointer → stamped generation. Guards the `PhaseDelta` invalidation
    /// path and feeds the `ReplicaIncoherent` oracle through the snapshot.
    held: FxHashMap<GPtr, u32>,
    /// The `Replicate` channel.
    broadcasts: SeqChannel,
}

impl ReplState {
    pub(super) fn new(nodes: usize) -> ReplState {
        ReplState {
            dir: ReplicaDirectory::default(),
            held: FxHashMap::default(),
            broadcasts: SeqChannel::new(nodes),
        }
    }

    /// The directory applies the read-mostly contract on the way out:
    /// entries whose window exceeded `write_demote` writes are demoted and
    /// every window is zeroed for the next phase.
    pub(super) fn into_carry(mut self, write_demote: u64) -> ReplicaDirectory {
        self.dir.end_window(write_demote);
        self.dir
    }

    /// Entries flagged `needs_broadcast` go out first thing in `on_start`;
    /// the rest are carried by their consumers.
    pub(super) fn install_carry(&mut self, dir: ReplicaDirectory) {
        self.dir = dir;
    }

    pub(super) fn note_write(&mut self, ptr: GPtr) {
        self.dir.note_write(ptr);
    }

    /// `true` when a broadcast installed `ptr` this phase.
    pub(super) fn holds(&self, ptr: GPtr) -> bool {
        self.held.contains_key(&ptr)
    }

    fn held_sorted(&self) -> Vec<(u64, u32)> {
        let mut v: Vec<(u64, u32)> = self.held.iter().map(|(p, &g)| (p.bits(), g)).collect();
        v.sort_unstable();
        v
    }

    pub(super) fn snapshot(&self, snap: &mut NodeSnapshot) {
        snap.repl_entries_sent = self.broadcasts.entries_sent;
        snap.repl_entries_recv = self.broadcasts.entries_recv();
        snap.misrouted_requests += self.broadcasts.refused();
        snap.replica_dir = self.dir.export();
        snap.replica_held = self.held_sorted();
    }

    pub(super) fn stall_detail(&self, detail: &mut String) {
        detail.push_str(&format!(
            "; repl: {} dir entries, {} held, {} bcast msgs",
            self.dir.len(),
            self.held.len(),
            self.broadcasts.msgs_sent
        ));
    }

    pub(super) fn on_finish(&self, stats: &mut NodeStats) {
        stats.bump("replicate_msgs", self.broadcasts.msgs_sent);
        stats.bump("replicate_entries", self.broadcasts.entries_sent);
        stats.bump("replica_installs", self.broadcasts.entries_recv());
        stats.bump("replicas_held", self.held.len() as u64);
        stats.bump("replicated_ptrs", self.dir.len() as u64);
        stats.bump("replica_promotions", self.dir.promotions());
        stats.bump("replica_demotions", self.dir.demotions());
    }
}

impl<A: PtrApp> DpaProc<A> {
    /// Push the replica payloads flagged for (re-)broadcast to their
    /// consumer sets: one `Replicate` per (consumer, generation) group,
    /// sized and charged like a reply, fanned out in sorted order. Fresh
    /// promotions and moved generations are flagged; an unchanged replica
    /// is carried by its consumer and validated by the differential
    /// all-clear instead, so it costs nothing here.
    pub(super) fn send_replicate_broadcasts(&mut self, ctx: &mut Ctx<'_, DpaMsg>) {
        let Some(r) = self.repl.as_mut() else { return };
        let me = ctx.me().0;
        let mut copies = Vec::new();
        for (ptr, gen, consumers) in r.dir.take_broadcasts() {
            debug_assert!(
                ptr.is_local_to(me),
                "broadcasting a pointer homed elsewhere"
            );
            let size = self.app.object_size(ptr);
            for c in consumers {
                debug_assert!(c != me, "owner in its own consumer set");
                copies.push(((c, gen), (ptr, size)));
            }
        }
        for ((dst, gen), entries) in fan_out(copies) {
            ctx.charge_overhead(self.cfg.cost.owner_lookup_ns * entries.len() as u64);
            let payload = crate::owner::reply_payload_bytes(&entries);
            crate::owner::charge_extra_packets(&self.cfg, ctx, payload);
            let seq = r.broadcasts.stamp(dst, entries.len());
            ctx.send(NodeId(dst), DpaMsg::Replicate { seq, gen, entries });
        }
    }

    pub(super) fn on_replicate(
        &mut self,
        ctx: &mut Ctx<'_, DpaMsg>,
        src: NodeId,
        seq: u64,
        gen: u32,
        mut entries: Vec<(GPtr, u32)>,
    ) {
        let Some(r) = self.repl.as_mut() else {
            self.misrouted += entries.len() as u64;
            return;
        };
        // Only an owner broadcasts, and only its own objects: an entry for
        // an object born elsewhere is refused, never installed as a replica.
        let sent = entries.len();
        entries.retain(|&(ptr, _)| ptr.node() == src.0);
        let refused = (sent - entries.len()) as u64;
        if !r.broadcasts.accept(src.0, seq, entries.len()) {
            return;
        }
        for &(ptr, _) in &entries {
            r.held.insert(ptr, gen);
        }
        self.misrouted += refused;
        for (ptr, size) in entries.drain(..) {
            ctx.charge_overhead(self.cfg.cost.reply_install_ns + self.pressure());
            // Threads waiting under `ptr` mean the broadcast raced our own
            // demand request; it doubles as the reply.
            if self.install(ptr, size, gen, false) != Arrival::Released {
                // Supersede any carried copy outright: the broadcast may
                // outrun the owner's PhaseDelta, and a stale carry must
                // never survive behind the fresh-replica guard.
                let held = self.map.arrivals_mut();
                held.invalidate(ptr);
                held.preload_gen(ptr, size, gen);
            }
        }
        Payloads::of(ctx).replies.put(entries);
        self.drive(ctx);
    }
}
