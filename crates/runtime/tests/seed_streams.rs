//! Property tests for the per-item RNG stream contract
//! (docs/PARALLELISM.md): `derive_seed` must be a pure function of
//! `(seed, index)` with distinct streams per index, and
//! `parallel_map_indexed` must return bit-identical results at every
//! thread count even when per-item work is randomized and skewed.
//!
//! Thread-count sweeps run inside a single `#[test]` body per property:
//! `set_threads` is process-global, so properties that touch it restore
//! the default before returning (mirroring tests/thread_determinism.rs).

use ansor_runtime::{derive_seed, parallel_map_indexed, set_threads};
use proptest::prelude::*;
use rand::prelude::*;

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

proptest! {
    // Each case runs the workload at four thread counts; keep the case
    // count modest so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `parallel_map_indexed` output is invariant under thread counts
    /// {1,2,4,8} for randomized per-item workloads: each item draws from
    /// its own `derive_seed` stream and does a data-dependent amount of
    /// work, so any scheduling leak into results would diverge.
    #[test]
    fn parallel_map_indexed_is_thread_count_invariant(
        seed in any::<u64>(),
        n in 1usize..80,
    ) {
        let items: Vec<u64> = (0..n as u64).collect();
        let run = |threads: usize| -> Vec<u64> {
            set_threads(threads);
            let out = parallel_map_indexed(&items, |i, &item| {
                let mut rng = StdRng::seed_from_u64(derive_seed(seed, i as u64));
                // Skewed, data-dependent work: between 1 and 257 draws.
                let rounds = 1 + (rng.gen_range(0..257) as usize);
                let mut acc = item;
                for _ in 0..rounds {
                    acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ rng.next_u64();
                }
                acc
            });
            set_threads(0); // restore default before any early return
            out
        };
        let reference = run(1);
        for threads in [2usize, 4, 8] {
            prop_assert_eq!(&run(threads), &reference, "threads = {}", threads);
        }
    }
}
