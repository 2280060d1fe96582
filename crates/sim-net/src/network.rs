//! LogGP-style network cost model.
//!
//! The Cray T3D evaluation in the paper runs over Illinois Fast Messages
//! (FM), whose cost is dominated by *software* per-message overhead at the
//! sender and receiver, a small wire latency, and a per-byte streaming cost.
//! We model exactly those four parameters (the LogGP model):
//!
//! * `send_overhead` (`o_s`) — CPU time the sender spends injecting a message,
//! * `recv_overhead` (`o_r`) — CPU time the receiver spends in the handler,
//! * `latency` (`L`)         — wire/switch time, overlappable with compute,
//! * `gap_per_byte` (`G`)    — inverse bandwidth for the message body.
//!
//! Message *aggregation* wins precisely because `o_s + o_r` is paid per
//! message while `G` is paid per byte: batching k small requests into one
//! packet replaces `k·(o_s+o_r)` with `o_s+o_r + (k·payload)·G`.

use crate::time::Dur;

/// Cost-model parameters for the simulated interconnect.
///
/// Defaults approximate a Cray T3D running Illinois Fast Messages
/// (mid-1990s: ~few-microsecond short-message cost, ~125 MB/s streaming).
#[derive(Clone, Debug, PartialEq)]
pub struct NetConfig {
    /// Per-message CPU overhead at the sender, ns.
    pub send_overhead_ns: u64,
    /// Per-message CPU overhead at the receiver (handler dispatch), ns.
    pub recv_overhead_ns: u64,
    /// Wire latency between any pair of distinct nodes, ns.
    pub latency_ns: u64,
    /// Streaming cost per payload byte, ns (8 ns/B = 125 MB/s).
    pub gap_ns_per_byte: u64,
    /// Fixed header bytes charged to every packet on the wire.
    pub header_bytes: u32,
    /// Maximum extra per-message wire jitter, ns. When nonzero, every
    /// remote delivery is delayed by a seeded uniform draw in
    /// `[0, jitter_ns]` (schedule perturbation for DST; the draw stream is
    /// controlled by `Machine::perturb_schedule`).
    pub jitter_ns: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            send_overhead_ns: 5_000,
            recv_overhead_ns: 7_000,
            latency_ns: 1_000,
            gap_ns_per_byte: 8,
            header_bytes: 16,
            jitter_ns: 0,
        }
    }
}

impl NetConfig {
    /// An idealized zero-cost network (useful in unit tests that only care
    /// about logical message delivery).
    pub fn free() -> NetConfig {
        NetConfig {
            send_overhead_ns: 0,
            recv_overhead_ns: 0,
            latency_ns: 0,
            gap_ns_per_byte: 0,
            header_bytes: 0,
            jitter_ns: 0,
        }
    }

    /// Sender-side CPU occupancy for a message with `payload` bytes.
    ///
    /// The sender streams the whole packet through its network interface, so
    /// the per-byte gap is charged to the sending CPU (as FM does: the
    /// processor copies the message into the network FIFO).
    pub fn send_busy(&self, payload: u32) -> Dur {
        Dur::from_ns(
            self.send_overhead_ns
                + self.gap_ns_per_byte * (payload as u64 + self.header_bytes as u64),
        )
    }

    /// Receiver-side CPU occupancy to dispatch a message with `payload`
    /// bytes to its handler.
    pub fn recv_busy(&self, payload: u32) -> Dur {
        Dur::from_ns(
            self.recv_overhead_ns
                + self.gap_ns_per_byte * (payload as u64 + self.header_bytes as u64) / 4,
        )
    }

    /// Time from send completion until the first byte is available at the
    /// destination. Local (self) sends skip the wire.
    pub fn transit(&self, local: bool) -> Dur {
        if local {
            Dur::ZERO
        } else {
            Dur::from_ns(self.latency_ns)
        }
    }

    /// Total one-way cost of a message as seen by an observer: send busy +
    /// transit. (Receiver overhead is charged on delivery.)
    pub fn one_way(&self, payload: u32, local: bool) -> Dur {
        self.send_busy(payload) + self.transit(local)
    }

    /// The per-message saving achieved by aggregating `k` requests of
    /// `each` payload bytes into a single packet, in ns. Exposed for tests
    /// and for the analytical crossover checks in the benches.
    pub fn aggregation_saving(&self, k: u32, _each: u32) -> Dur {
        if k <= 1 {
            return Dur::ZERO;
        }
        let per_msg = self.send_overhead_ns
            + self.recv_overhead_ns
            + self.gap_ns_per_byte * self.header_bytes as u64;
        Dur::from_ns(per_msg * (k as u64 - 1))
    }
}

/// Anything that can be sent across the simulated network.
///
/// The payload size drives the per-byte cost; the *contents* travel in a
/// single address space (the force phases we model only read remote data, so
/// no copies are needed for correctness — only for timing).
pub trait MsgSize {
    /// Payload bytes on the wire (excluding the fixed packet header).
    fn size_bytes(&self) -> u32;
}

impl MsgSize for () {
    fn size_bytes(&self) -> u32 {
        0
    }
}

impl MsgSize for u64 {
    fn size_bytes(&self) -> u32 {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_costs_sane() {
        let n = NetConfig::default();
        // A short 8-byte request: ~a dozen microseconds end to end
        // (FM-on-T3D-era software overheads dominate).
        let total = n.one_way(8, false).as_ns() + n.recv_busy(8).as_ns();
        assert!((8_000..25_000).contains(&total), "total {total}");
    }

    #[test]
    fn free_network_is_free() {
        let n = NetConfig::free();
        assert_eq!(n.one_way(1024, false).as_ns(), 0);
        assert_eq!(n.recv_busy(1024).as_ns(), 0);
    }

    #[test]
    fn local_send_skips_wire() {
        let n = NetConfig::default();
        assert_eq!(n.transit(true).as_ns(), 0);
        assert_eq!(n.transit(false).as_ns(), n.latency_ns);
    }

    #[test]
    fn aggregation_saves_per_message_overhead() {
        let n = NetConfig::default();
        let save = n.aggregation_saving(10, 8).as_ns();
        // 9 messages' worth of (o_s + o_r + header bytes) saved.
        let per = n.send_overhead_ns + n.recv_overhead_ns + n.gap_ns_per_byte * 16;
        assert_eq!(save, 9 * per);
        assert_eq!(n.aggregation_saving(1, 8).as_ns(), 0);
    }

    #[test]
    fn bigger_messages_cost_more_to_send() {
        let n = NetConfig::default();
        assert!(n.send_busy(1024) > n.send_busy(8));
    }
}
