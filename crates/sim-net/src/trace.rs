//! Execution-timeline tracing: per-node busy spans exportable as a Chrome
//! trace (viewable in `chrome://tracing` or Perfetto).
//!
//! When enabled on a [`crate::Machine`], every CPU charge appends (or
//! extends) a span tagged local/overhead, giving the classic per-node
//! Gantt view of a phase — gaps are idle time. This is the visual form of
//! the paper's breakdown figure, per node instead of averaged.

use crate::stats::ChargeKind;
use std::fmt::Write as _;

/// One contiguous busy span on a node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Node the span ran on.
    pub node: u16,
    /// Start, ns.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// What the CPU was doing.
    pub kind: ChargeKind,
}

/// A bounded trace buffer. Adjacent same-kind charges coalesce into one
/// span, so typical phases stay well under the cap.
#[derive(Clone, Debug)]
pub struct Trace {
    spans: Vec<Span>,
    /// Hard cap; beyond it new spans are dropped (and counted).
    pub capacity: usize,
    /// Spans dropped at the cap.
    pub dropped: u64,
}

impl Trace {
    /// An empty trace holding at most `capacity` spans.
    pub fn new(capacity: usize) -> Trace {
        Trace {
            spans: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Record a charge of `dur_ns` starting at `start_ns` on `node`.
    pub fn record(&mut self, node: u16, start_ns: u64, dur_ns: u64, kind: ChargeKind) {
        if dur_ns == 0 {
            return;
        }
        if let Some(last) = self.spans.last_mut() {
            if last.node == node && last.kind == kind && last.start_ns + last.dur_ns == start_ns {
                last.dur_ns += dur_ns;
                return;
            }
        }
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            node,
            start_ns,
            dur_ns,
            kind,
        });
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total busy ns recorded for `node` (for cross-checks against stats).
    pub fn busy_ns(&self, node: u16) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.node == node)
            .map(|s| s.dur_ns)
            .sum()
    }

    /// Export as Chrome trace-event JSON (complete events, µs units).
    /// Each simulated node appears as a thread; local work and overhead
    /// are separately-named spans.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let name = match s.kind {
                ChargeKind::Local => "local",
                ChargeKind::Overhead => "overhead",
            };
            let _ = write!(
                out,
                "  {{\"name\":\"{name}\",\"cat\":\"sim\",\"ph\":\"X\",\
                 \"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{}}}",
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.node
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_same_kind_coalesce() {
        let mut t = Trace::new(16);
        t.record(0, 0, 10, ChargeKind::Local);
        t.record(0, 10, 5, ChargeKind::Local);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.spans()[0].dur_ns, 15);
        // Different kind breaks the run.
        t.record(0, 15, 3, ChargeKind::Overhead);
        assert_eq!(t.spans().len(), 2);
        // A gap breaks the run too (idle in between).
        t.record(0, 30, 2, ChargeKind::Overhead);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.busy_ns(0), 20);
    }

    #[test]
    fn capacity_drops_not_panics() {
        let mut t = Trace::new(2);
        t.record(0, 0, 1, ChargeKind::Local);
        t.record(1, 0, 1, ChargeKind::Local);
        t.record(2, 0, 1, ChargeKind::Local);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.dropped, 1);
    }

    #[test]
    fn zero_duration_ignored() {
        let mut t = Trace::new(4);
        t.record(0, 5, 0, ChargeKind::Local);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_json_well_formed() {
        let mut t = Trace::new(4);
        t.record(0, 1_000, 2_000, ChargeKind::Local);
        t.record(1, 500, 1_500, ChargeKind::Overhead);
        let j = t.to_chrome_json();
        assert!(j.starts_with('['));
        assert!(j.ends_with(']'));
        assert!(j.contains("\"name\":\"local\""));
        assert!(j.contains("\"name\":\"overhead\""));
        assert!(j.contains("\"tid\":1"));
        assert!(j.contains("\"ts\":1.000"));
        assert_eq!(j.matches("\"ph\":\"X\"").count(), 2);
    }

    #[test]
    fn empty_trace_is_valid_json() {
        assert_eq!(Trace::new(1).to_chrome_json(), "[\n]");
    }
}
