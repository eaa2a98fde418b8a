//! Provenance records for search candidates.
//!
//! Every [`Individual`](crate::evolution::Individual) carries a compact
//! [`Lineage`]: the evolutionary [`Operator`] that produced this particular
//! annotation (§5.1), its generation number inside the evolutionary
//! search, and the `State::signature()` of its parent(s). The sketch-rule
//! chain that built its structure (§4's Table-1 rules) is not copied in:
//! it belongs to the sketch, which the individual names by its index.
//! Lineage is cheap plain data — it is carried unconditionally, while
//! everything derived from it (trace events, efficacy counters) stays
//! behind the telemetry gate. See `docs/EXPLAIN.md` for how the
//! attribution tables read.

use serde::{Deserialize, Serialize};

/// The move that generated a candidate: one of the paper's four mutation
/// operators, node-based crossover, or one of the two non-evolutionary
/// origins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Operator {
    /// Origin unknown: warm-started from a record log, or restored from a
    /// checkpoint written before lineage existed.
    #[default]
    Seed,
    /// Fresh random annotation of a sketch (initial population or the
    /// ε-greedy exploration slots of a measurement batch).
    InitPopulation,
    /// Tile-size mutation: factors moved between sibling tiles.
    MutateTileSize,
    /// Re-annotation: parallel/unroll/vectorize pragmas resampled.
    MutateAnnotation,
    /// Computation-location mutation: a `compute_at` target moved.
    MutateLocation,
    /// Rfactor-factor mutation (falls back to tile-size when the sketch
    /// has no reduction split to move).
    MutateRfactorOrTile,
    /// Node-based crossover of two parents sharing a sketch.
    Crossover,
}

impl Operator {
    /// Stable kebab-case name used in trace events and counter paths.
    pub fn name(self) -> &'static str {
        match self {
            Operator::Seed => "seed",
            Operator::InitPopulation => "init-population",
            Operator::MutateTileSize => "mutate-tile-size",
            Operator::MutateAnnotation => "mutate-annotation",
            Operator::MutateLocation => "mutate-location",
            Operator::MutateRfactorOrTile => "mutate-rfactor-or-tile",
            Operator::Crossover => "crossover",
        }
    }
}

/// Compact provenance record carried by every candidate.
///
/// `Default` is the "unknown seed" lineage (no parents), used for
/// warm-started states and when loading checkpoints written before this
/// field existed. A `rules` key that older checkpoints carry is ignored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Lineage {
    /// The operator that produced this candidate.
    pub op: Operator,
    /// Evolution generation the candidate was created in (0 = created
    /// outside the generation loop: initial population, ε-greedy, seed).
    pub generation: u64,
    /// `State::signature()` of the parent(s): one for mutations, two for
    /// crossover, none for fresh samples. Filled by the evolution loop.
    pub parents: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_seed() {
        let l = Lineage::default();
        assert_eq!(l.op, Operator::Seed);
        assert!(l.parents.is_empty());
        assert_eq!(l.generation, 0);
    }

    #[test]
    fn operator_names_are_unique_and_kebab() {
        let all = [
            Operator::Seed,
            Operator::InitPopulation,
            Operator::MutateTileSize,
            Operator::MutateAnnotation,
            Operator::MutateLocation,
            Operator::MutateRfactorOrTile,
            Operator::Crossover,
        ];
        let names: std::collections::BTreeSet<_> = all.iter().map(|o| o.name()).collect();
        assert_eq!(names.len(), all.len());
        for n in names {
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
        }
    }

    #[test]
    fn lineage_roundtrips_through_json() {
        let l = Lineage {
            op: Operator::Crossover,
            generation: 7,
            parents: vec![u64::MAX, 42],
        };
        let json = serde_json::to_string(&l).unwrap();
        let back: Lineage = serde_json::from_str(&json).unwrap();
        assert_eq!(back, l);
    }
}
