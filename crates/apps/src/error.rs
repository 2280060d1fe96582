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
    /// A uniform FMM tree shallower than its partition level, the
    /// coarsest level (at least 2) with a box for every node.
    TreeTooShallow {
        /// Finest level of the tree.
        levels: u32,
        /// The partition level the machine needs.
        part_level: u32,
        /// Machine size requested.
        nodes: u16,
    },
    /// A key universe of `2^32` keys or more: keys are shuffled and
    /// members counted as `u32`.
    UniverseTooLarge {
        /// Keys requested, `0..universe`.
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
            WorldError::TreeTooShallow {
                levels,
                part_level,
                nodes,
            } => write!(
                f,
                "a tree of {levels} levels is too shallow for {nodes} nodes: the partition \
                 level, the coarsest with a box per node, is {part_level}"
            ),
            WorldError::UniverseTooLarge { universe } => write!(
                f,
                "key universe 0..{universe} is too large: keys are indexed as u32, so at most \
                 {} keys",
                u32::MAX
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
        let e = WorldError::UniverseTooLarge { universe: 1 << 32 };
        assert!(e
            .to_string()
            .contains("universe 0..4294967296 is too large: keys are indexed as u32, so at most 4294967295 keys"));
    }
}
