//! Transform steps — the rewriting history that forms a program's "genes"
//! (§5.1 of the paper).
//!
//! Steps address stages by *node name* and iterators by *iterator name*,
//! each an interned [`Name`] (`"C".into()` builds one). Names are
//! deterministic functions of the step sequence, so a step list can be
//! replayed on a fresh state ([`crate::State::replay`]); node-based
//! crossover merges per-node step groups from two parents and replays them.

use serde::{Deserialize, Serialize};

use crate::name::Name;
use crate::state::Annotation;

/// One schedule transformation.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub enum Step {
    /// Split an iterator into `lengths.len() + 1` parts; `lengths` are the
    /// inner extents and must divide the iterator's extent exactly.
    Split {
        /// Node whose stage is transformed.
        node: Name,
        /// Iterator name.
        iter: Name,
        /// Inner extents, outer→inner.
        lengths: Vec<i64>,
    },
    /// Fuse adjacent iterators into one.
    Fuse {
        /// Node whose stage is transformed.
        node: Name,
        /// Iterator names, outer→inner; must be adjacent in the loop order.
        iters: Vec<Name>,
    },
    /// Permute the loop nest.
    Reorder {
        /// Node whose stage is transformed.
        node: Name,
        /// New order: names of all live iterators.
        order: Vec<Name>,
    },
    /// Compute this node inside the loop nest of `target`, sharing the first
    /// `prefix_len` loops (extents must match pairwise).
    ComputeAt {
        /// Producer node being placed.
        node: Name,
        /// Consumer node hosting the computation.
        target: Name,
        /// Number of shared leading loops.
        prefix_len: usize,
    },
    /// Inline a strictly-inlinable node into its consumers (Rule 2).
    ComputeInline {
        /// Node to inline.
        node: Name,
    },
    /// Reset placement to root.
    ComputeRoot {
        /// Node to move back to root.
        node: Name,
    },
    /// Add a cache-write stage `{node}.cache` (Rule 5).
    CacheWrite {
        /// Node to cache.
        node: Name,
    },
    /// Factorize the single reduction axis with the given inner factor,
    /// creating `{node}.rf` (Rule 6).
    Rfactor {
        /// Node to factorize.
        node: Name,
        /// Inner extent that becomes a spatial axis of the rfactor stage.
        factor: i64,
    },
    /// Annotate an iterator (parallel / vectorize / unroll / GPU bindings).
    Annotate {
        /// Node whose stage is annotated.
        node: Name,
        /// Iterator name.
        iter: Name,
        /// The annotation.
        ann: Annotation,
    },
    /// Set the `auto_unroll_max_step` pragma for a stage.
    Pragma {
        /// Node whose stage is annotated.
        node: Name,
        /// Maximum body size the code generator may unroll.
        max_unroll: i64,
    },
    /// Rewrite constant-input layouts to match the tile structure (§4.2).
    LayoutRewrite {
        /// Node whose constant inputs are repacked.
        node: Name,
    },
}

impl Step {
    /// The node whose stage this step schedules.
    pub fn node(&self) -> Name {
        match self {
            Step::Split { node, .. }
            | Step::Fuse { node, .. }
            | Step::Reorder { node, .. }
            | Step::ComputeAt { node, .. }
            | Step::ComputeInline { node }
            | Step::ComputeRoot { node }
            | Step::CacheWrite { node }
            | Step::Rfactor { node, .. }
            | Step::Annotate { node, .. }
            | Step::Pragma { node, .. }
            | Step::LayoutRewrite { node } => *node,
        }
    }

    /// The (original-DAG) node this step concerns — used to group steps into
    /// per-node genes for crossover. Derived stage names (`X.cache`, `X.rf`)
    /// map back to their base node `X`.
    pub fn base_node(&self) -> &'static str {
        let name = self.node().as_str();
        name.split('.').next().unwrap_or(name)
    }

    /// Whether this step changes the DAG structure (adds nodes).
    pub fn is_structural(&self) -> bool {
        matches!(self, Step::CacheWrite { .. } | Step::Rfactor { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_node_strips_derived_suffixes() {
        let s = Step::Split {
            node: "C.cache".into(),
            iter: "i".into(),
            lengths: vec![4],
        };
        assert_eq!(s.base_node(), "C");
        let s = Step::Annotate {
            node: "E.rf".into(),
            iter: "k_i".into(),
            ann: Annotation::Vectorize,
        };
        assert_eq!(s.base_node(), "E");
    }

    #[test]
    fn structural_steps_flagged() {
        assert!(Step::CacheWrite { node: "C".into() }.is_structural());
        assert!(!Step::ComputeInline { node: "D".into() }.is_structural());
    }

    #[test]
    fn steps_roundtrip_serde() {
        let steps = vec![
            Step::Split {
                node: "C".into(),
                iter: "i".into(),
                lengths: vec![8, 4, 2],
            },
            Step::Annotate {
                node: "C".into(),
                iter: "i.3".into(),
                ann: Annotation::Vectorize,
            },
        ];
        let json = serde_json::to_string(&steps).unwrap();
        let back: Vec<Step> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, steps);
    }
}
