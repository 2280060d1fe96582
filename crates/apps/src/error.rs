//! Structured configuration errors for world builders.
//!
//! The builders distribute a workload over a `u16`-indexed machine; every
//! owner index they compute is provably `< nodes` and narrows with a
//! *checked* conversion (`u16::try_from(..).expect("invariant: ..")`).
//! What can genuinely go wrong is the caller's configuration — an empty
//! machine or an empty workload — and those surface as a [`WorldError`]
//! from the `try_build*` constructors instead of a panic deep inside the
//! build.

use std::fmt;

/// A world-builder configuration rejected before construction starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorldError {
    /// The machine must have at least one node.
    NoNodes,
    /// The workload has no elements to distribute.
    Empty {
        /// What was empty (`"bodies"`, `"vertices"`, ...).
        what: &'static str,
    },
    /// Fewer elements than nodes: some node would own nothing, which the
    /// contiguous-chunk partitioners do not support.
    TooFewElements {
        /// What is being distributed.
        what: &'static str,
        /// How many elements there are.
        have: usize,
        /// Machine size requested.
        nodes: u16,
    },
    /// A range partition whose buckets are `ceil(universe / buckets)` keys
    /// wide ran past the key universe before reaching `node`: its first
    /// bucket starts beyond the last key, so it would own no keys.
    NodeBeyondUniverse {
        /// The first node left without keys.
        node: u16,
        /// That node's first bucket.
        first_bucket: usize,
        /// Keys per bucket.
        bucket_width: u64,
        /// Keys are `0..universe`.
        universe: u64,
    },
}

impl fmt::Display for WorldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldError::NoNodes => write!(f, "machine must have at least one node"),
            WorldError::Empty { what } => write!(f, "workload has no {what}"),
            WorldError::TooFewElements { what, have, nodes } => write!(
                f,
                "only {have} {what} for {nodes} nodes: every node must own at least one"
            ),
            WorldError::NodeBeyondUniverse {
                node,
                first_bucket,
                bucket_width,
                universe,
            } => write!(
                f,
                "node {node}'s first bucket {first_bucket} starts at key {}, beyond the \
                 universe 0..{universe} ({bucket_width}-key buckets): every node must own at \
                 least one key",
                *first_bucket as u64 * bucket_width
            ),
        }
    }
}

impl std::error::Error for WorldError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert_eq!(
            WorldError::NoNodes.to_string(),
            "machine must have at least one node"
        );
        assert_eq!(
            WorldError::Empty { what: "bodies" }.to_string(),
            "workload has no bodies"
        );
        let e = WorldError::TooFewElements {
            what: "vertices",
            have: 3,
            nodes: 8,
        };
        assert!(e.to_string().contains("3 vertices for 8 nodes"));
        let e = WorldError::NodeBeyondUniverse {
            node: 3,
            first_bucket: 48,
            bucket_width: 2,
            universe: 65,
        };
        assert!(e
            .to_string()
            .contains("bucket 48 starts at key 96, beyond the universe 0..65"));
    }
}
