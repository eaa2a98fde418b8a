//! Property tests for the per-item RNG stream contract
//! (docs/PARALLELISM.md): `derive_seed` must be a pure function of
//! `(seed, index)` with distinct streams per index.

use ansor_runtime::derive_seed;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same `(seed, index)` always yields the same derived seed.
    #[test]
    fn derive_seed_is_deterministic(seed in any::<u64>(), index in any::<u64>()) {
        prop_assert_eq!(derive_seed(seed, index), derive_seed(seed, index));
    }

    /// Distinct indices under one seed yield pairwise-distinct streams
    /// (splitmix64 is a bijection of its internal counter, so collisions
    /// within any practical index range would be a mixing bug).
    #[test]
    fn derive_seed_is_distinct_across_indices(seed in any::<u64>(), base in 0u64..u64::MAX - 512) {
        let seeds: Vec<u64> = (0..256).map(|i| derive_seed(seed, base + i)).collect();
        let unique: std::collections::HashSet<u64> = seeds.iter().copied().collect();
        prop_assert_eq!(unique.len(), seeds.len());
    }

    /// Different root seeds decorrelate the whole stream family: the
    /// per-index sequences under two seeds should not collide index-wise.
    #[test]
    fn derive_seed_streams_differ_across_seeds(a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        let collisions = (0..256u64)
            .filter(|&i| derive_seed(a, i) == derive_seed(b, i))
            .count();
        prop_assert_eq!(collisions, 0);
    }
}
