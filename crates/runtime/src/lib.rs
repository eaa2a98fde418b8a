//! What concurrent tuning jobs share: per-item RNG streams and
//! signature-keyed caches.
//!
//! A tuning session runs on one thread. The `ansor-serve` daemon runs one
//! session per worker thread, and those sessions share a measurement
//! cache and a featurization cache ([`SigCache`]); [`derive_seed`] gives
//! every evolution lane its own RNG stream, a function of `(seed, index)`
//! only, so a lane's offspring never depends on how many draws another
//! lane made. See `docs/PARALLELISM.md`.

#![warn(missing_docs)]

mod cache;

pub use cache::SigCache;

/// Kept so that code written against the former thread pool still builds:
/// does nothing. Every session runs on the thread that calls it.
pub fn set_threads(_n: usize) {}

/// Derives an independent RNG seed for item `index` of a run seeded with
/// `seed` (splitmix64 over the pair). Equal inputs give equal streams,
/// whatever else the run has drawn.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_seed_is_stable_and_spreads() {
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        assert_ne!(derive_seed(7, 3), derive_seed(7, 4));
        assert_ne!(derive_seed(7, 3), derive_seed(8, 3));
        // No trivial collisions across a small grid.
        let mut seen = std::collections::HashSet::new();
        for s in 0..32u64 {
            for i in 0..32u64 {
                assert!(seen.insert(derive_seed(s, i)));
            }
        }
    }
}
