//! Wire messages exchanged by the runtime.
//!
//! Two message kinds suffice for the remote-read traffic the paper
//! optimizes: a **request** naming the objects a node wants (8 bytes per
//! pointer) and a **reply** carrying those objects' data. Aggregation shows
//! up as multi-entry requests/replies; the MTU segments outsized replies.

use global_heap::GPtr;
use sim_net::MsgSize;
use std::collections::BTreeSet;

/// A runtime message.
#[derive(Clone, Debug, PartialEq)]
pub enum DpaMsg {
    /// "Send me these objects." Each entry is a packed global pointer.
    Request(Vec<GPtr>),
    /// "Here they are." Each entry is `(pointer, payload bytes)`; actual
    /// data travels implicitly (single host address space), the byte count
    /// drives wire cost and renamed-storage accounting.
    Reply(Vec<(GPtr, u32)>),
    /// Remote reductions: "fold these values into these objects." The
    /// paper's future-work extension ("more general access patterns, such
    /// as reductions"); commutative-associative, so batching and reorder
    /// are semantics-preserving. No reply: the simulated machine drains
    /// all deliveries before a phase can complete.
    ///
    /// Unlike requests/replies (idempotent via the D table and arrival
    /// set), a re-applied update would corrupt the reduction, so each
    /// carries a sequence number — per sender *and destination*, so each
    /// link counts 0, 1, 2, … — and receivers deduplicate on `(sender,
    /// seq)`: exactly-once application under at-least-once delivery. The
    /// seq travels in the packet header (no payload cost).
    Update {
        /// Per-link monotone sequence number (dedup key).
        seq: u64,
        /// The `(pointer, contribution)` entries to fold in.
        entries: Vec<(GPtr, f64)>,
    },
    /// Affinity report: "my threads dereferenced your objects this often."
    /// Sent by a consumer to an object's believed home once per phase,
    /// when its iterations are done; entries are `(pointer, remote
    /// dereference count)` sampled from the sender's M mapping. Purely
    /// advisory (losing one only weakens the migration signal), but
    /// deduplicated on `(sender, seq)` so duplicated deliveries cannot
    /// inflate counts.
    Affinity {
        /// Per-link monotone sequence number (dedup key).
        seq: u64,
        /// The `(pointer, dereference count)` samples.
        entries: Vec<(GPtr, u32)>,
    },
    /// One-hop forwarding of a request that reached a birth home whose
    /// object the boundary pass re-homed: the stub owner passes the wanted
    /// pointers to the new home together with the original requester,
    /// which receives the reply directly. An adopted object never migrates
    /// again, so a request chases at most one `Forward`.
    Forward {
        /// The node whose request hit the forwarding stub (reply target).
        requester: u16,
        /// The departed objects it wants.
        entries: Vec<GPtr>,
    },
    /// Differential re-alignment: at a timestep boundary, an owner tells a
    /// consumer which of the objects the consumer carried across the
    /// barrier have *changed generation* and must be invalidated (and
    /// refetched on next use). An empty entry list is meaningful — it is
    /// the owner's "nothing you hold from me changed" all-clear — so the
    /// consumer gates its first strip on having heard from every home it
    /// carries entries of. Exactly one delta per (owner, consumer) pair
    /// per phase; deduplicated on `(sender, seq)` against duplication
    /// faults.
    PhaseDelta {
        /// Per-link sequence number (dedup key; header, no payload cost).
        seq: u64,
        /// The carried objects whose generation moved.
        entries: Vec<GPtr>,
    },
    /// Read-mostly replication: the owner pushes generation-stamped copies
    /// of promoted pointers to every node in the consumer set, so
    /// subsequent remote reads hit the local replica with zero messages.
    /// Entries are `(pointer, payload bytes)` — data travels implicitly,
    /// reply-style — and every entry in one message shares the `gen`
    /// stamp. Installation must be idempotent under duplication, so
    /// receivers dedup on `(sender, seq)`; a *lost* broadcast is safe by
    /// construction (the consumer simply fetches on demand, or stalls on
    /// the differential gate — never reads stale data silently).
    Replicate {
        /// Per-link monotone sequence number (dedup key).
        seq: u64,
        /// Generation stamped on every entry (header, no payload cost).
        gen: u32,
        /// The `(pointer, payload bytes)` copies being pushed.
        entries: Vec<(GPtr, u32)>,
    },
}

impl MsgSize for DpaMsg {
    fn size_bytes(&self) -> u32 {
        match self {
            DpaMsg::Request(v) => (v.len() as u32) * GPtr::WIRE_BYTES,
            DpaMsg::Reply(v) => v
                .iter()
                .map(|&(_, size)| size + GPtr::WIRE_BYTES)
                .sum(),
            DpaMsg::Update { entries, .. } => (entries.len() as u32) * (GPtr::WIRE_BYTES + 8),
            // Pointer + 4-byte count per affinity sample; seq in the header.
            DpaMsg::Affinity { entries, .. } => (entries.len() as u32) * (GPtr::WIRE_BYTES + 4),
            // Requester id rides in the header; entries are bare pointers.
            DpaMsg::Forward { entries, .. } => (entries.len() as u32) * GPtr::WIRE_BYTES,
            // Bare pointers; seq in the header. The all-clear (no entries)
            // is a pure header packet.
            DpaMsg::PhaseDelta { entries, .. } => (entries.len() as u32) * GPtr::WIRE_BYTES,
            // A broadcast ships object payloads like a reply; the shared
            // generation stamp rides in the header.
            DpaMsg::Replicate { entries, .. } => {
                entries.iter().map(|&(_, size)| size + GPtr::WIRE_BYTES).sum()
            }
        }
    }
}

/// What a [`SeqChannel`] keeps per peer, side by side: the next seq to
/// stamp toward it, and what has been accepted from it.
#[derive(Clone, Copy, Default)]
struct Link {
    /// Messages stamped toward this peer; the next one's seq.
    next_seq: u64,
    /// Every seq below this has been accepted from this peer.
    watermark: u64,
}

/// One sequenced message kind (`Update`, `Affinity`, `PhaseDelta`,
/// `Replicate`), both directions, in either node driver. Each destination
/// is numbered on its own — the k-th message this node sends *to one peer*
/// carries `seq == k` — so a receiver sees 0, 1, 2, … from each sender and
/// "seen before" is a per-sender watermark, not a set of everything ever
/// received. A `(sender, seq)` is accepted once, which is what makes the
/// kind's effect exactly-once under at-least-once delivery; and entries
/// are counted as they go on the wire and as they are accepted — the pair
/// the conservation oracles compare across nodes.
///
/// A delivery that overtakes a predecessor waits in the ordered `tail`
/// until the watermark reaches it. On a fault-free link the tail stays
/// empty and nothing on the accept path allocates.
pub struct SeqChannel {
    /// Messages sent, all destinations.
    pub(crate) msgs_sent: u64,
    pub(crate) entries_sent: u64,
    /// Entries accepted, i.e. after dedup.
    entries_recv: u64,
    /// Deliveries refused because their sender lies outside the machine
    /// this channel was sized for.
    refused: u64,
    links: Vec<Link>,
    /// `(sender, seq)` accepted ahead of the sender's watermark; an entry
    /// leaves when the watermark reaches it.
    tail: BTreeSet<(u16, u64)>,
}

impl SeqChannel {
    /// A channel between this node and each of `nodes` peers.
    pub fn new(nodes: usize) -> SeqChannel {
        SeqChannel {
            msgs_sent: 0,
            entries_sent: 0,
            entries_recv: 0,
            refused: 0,
            links: vec![Link::default(); nodes],
            tail: BTreeSet::new(),
        }
    }

    /// Count an outgoing message of `entries` entries to `dst`; returns
    /// its seq on that link.
    pub fn stamp(&mut self, dst: u16, entries: usize) -> u64 {
        let link = &mut self.links[dst as usize];
        let seq = link.next_seq;
        link.next_seq += 1;
        self.msgs_sent += 1;
        self.entries_sent += entries as u64;
        seq
    }

    /// `true` (counting its entries) the first time `(sender, seq)`
    /// arrives; `false` for a duplicated delivery, which the caller drops
    /// wholesale — as it does a delivery from a `sender` outside the
    /// machine, which is refused and counted.
    pub fn accept(&mut self, sender: u16, seq: u64, entries: usize) -> bool {
        let Some(link) = self.links.get_mut(sender as usize) else {
            self.refused += 1;
            return false;
        };
        if seq < link.watermark {
            return false;
        }
        if seq == link.watermark {
            // In order. The watermark moves past it and past whatever was
            // already accepted directly above it.
            link.watermark += 1;
            while !self.tail.is_empty() && self.tail.remove(&(sender, link.watermark)) {
                link.watermark += 1;
            }
        } else if !self.tail.insert((sender, seq)) {
            return false;
        }
        self.entries_recv += entries as u64;
        true
    }

    /// Entries accepted so far (after dedup).
    pub fn entries_recv(&self) -> u64 {
        self.entries_recv
    }

    /// Deliveries refused for naming a sender outside the machine.
    pub fn refused(&self) -> u64 {
        self.refused
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use global_heap::ObjClass;

    fn p(i: u64) -> GPtr {
        GPtr::new(0, ObjClass(0), i)
    }

    #[test]
    fn request_bytes() {
        let m = DpaMsg::Request(vec![p(1), p(2), p(3)]);
        assert_eq!(m.size_bytes(), 24);
    }

    #[test]
    fn reply_bytes_include_tags() {
        let m = DpaMsg::Reply(vec![(p(1), 96), (p(2), 48)]);
        assert_eq!(m.size_bytes(), 96 + 48 + 16);
    }

    #[test]
    fn empty_messages_are_zero_payload() {
        assert_eq!(DpaMsg::Request(vec![]).size_bytes(), 0);
        assert_eq!(DpaMsg::Reply(vec![]).size_bytes(), 0);
        assert_eq!(
            DpaMsg::Update {
                seq: 0,
                entries: vec![]
            }
            .size_bytes(),
            0
        );
    }

    #[test]
    fn update_bytes_carry_pointer_and_value() {
        let m = DpaMsg::Update {
            seq: 7,
            entries: vec![(p(1), 0.5), (p(2), 1.5)],
        };
        assert_eq!(m.size_bytes(), 2 * 16);
    }

    #[test]
    fn migration_messages_size_like_their_payloads() {
        let aff = DpaMsg::Affinity {
            seq: 3,
            entries: vec![(p(1), 17), (p(2), 4)],
        };
        assert_eq!(aff.size_bytes(), 2 * 12, "pointer + count per sample");

        let fwd = DpaMsg::Forward {
            requester: 3,
            entries: vec![p(1), p(2), p(3)],
        };
        assert_eq!(fwd.size_bytes(), 24, "forward re-sends bare pointers");
    }

    #[test]
    fn phase_delta_bytes() {
        let d = DpaMsg::PhaseDelta {
            seq: 0,
            entries: vec![p(1), p(2)],
        };
        assert_eq!(d.size_bytes(), 16, "bare pointers, seq in the header");
        let all_clear = DpaMsg::PhaseDelta {
            seq: 0,
            entries: vec![],
        };
        assert_eq!(all_clear.size_bytes(), 0, "the all-clear is header-only");
    }

    #[test]
    fn replicate_sizes_like_a_reply_with_header_stamp() {
        let m = DpaMsg::Replicate {
            seq: 2,
            gen: 5,
            entries: vec![(p(1), 96), (p(2), 48)],
        };
        assert_eq!(
            m.size_bytes(),
            96 + 48 + 16,
            "broadcast ships object payloads like a reply"
        );
        // Same entries, different seq/gen: wire cost must not change.
        let n = DpaMsg::Replicate {
            seq: u64::MAX,
            gen: u32::MAX,
            entries: vec![(p(1), 96), (p(2), 48)],
        };
        assert_eq!(m.size_bytes(), n.size_bytes());
    }

    #[test]
    fn update_seq_rides_in_header() {
        // Same entries, different seq: the wire cost must not change.
        let a = DpaMsg::Update {
            seq: 1,
            entries: vec![(p(1), 0.5)],
        };
        let b = DpaMsg::Update {
            seq: u64::MAX,
            entries: vec![(p(1), 0.5)],
        };
        assert_eq!(a.size_bytes(), b.size_bytes());
    }

    #[test]
    fn seq_channel_stamps_in_order_and_accepts_each_pair_once() {
        let mut ch = SeqChannel::new(9);
        assert_eq!([ch.stamp(1, 3), ch.stamp(2, 0), ch.stamp(1, 5)], [0, 0, 1]);
        assert_eq!((ch.msgs_sent, ch.entries_sent), (3, 8));

        assert!(ch.accept(7, 0, 4));
        assert!(!ch.accept(7, 0, 4), "a repeated (sender, seq) is rejected");
        assert!(ch.accept(8, 0, 1), "the same seq from another sender is new");
        assert!(ch.accept(7, 1, 2));
        assert_eq!(ch.entries_recv, 7, "the duplicate's entries are not counted");

        assert!(!ch.accept(9, 0, 1), "sender 9 is outside a 9-node machine");
        assert_eq!((ch.refused, ch.entries_recv), (1, 7));
    }

    #[test]
    fn seq_channel_absorbs_reordering_and_permanent_gaps() {
        let mut ch = SeqChannel::new(2);
        // 3 and 2 overtake 1; 0 arrives in order.
        for seq in [0, 3, 2] {
            assert!(ch.accept(1, seq, 1));
        }
        assert!(!ch.accept(1, 3, 1), "seen ahead of the watermark");
        assert!(ch.accept(1, 1, 1), "the straggler");
        assert_eq!(ch.links[1].watermark, 4, "the watermark swallowed the run");
        assert!(ch.tail.is_empty());
        assert!(!ch.accept(1, 2, 1) && !ch.accept(1, 0, 1));

        // 4 is missing: everything behind it waits in the tail.
        for seq in (5..=69).chain([200]) {
            assert!(ch.accept(1, seq, 1), "seq {seq}");
            assert!(!ch.accept(1, seq, 1), "seq {seq} again");
        }
        assert_eq!((ch.links[1].watermark, ch.tail.len()), (4, 66));
        // The gap closes after all: the watermark runs through the tail up
        // to the next hole.
        assert!(ch.accept(1, 4, 1));
        assert_eq!((ch.links[1].watermark, ch.tail.len()), (70, 1));
        assert!(!ch.accept(1, 69, 1) && !ch.accept(1, 200, 1));
        assert!(ch.accept(1, 70, 1));
        assert_eq!(ch.entries_recv, 4 + 66 + 2);
    }
}
