//! Equivalence and determinism properties of the histogram-binned split
//! path against the exact path.
//!
//! On a *dyadic grid* — all inputs multiples of 0.25, bounded, with fewer
//! distinct values per feature than bins — every f64 accumulation both
//! paths perform is exact (no rounding, so order of association cannot
//! matter), the binned cut set equals the exact candidate-threshold set,
//! and both scans visit thresholds in the same order with the same strict
//! first-wins tie-break. The two paths must therefore produce bit-identical
//! models. Off the grid (more distinct values than bins) the quantile cuts
//! coarsen the search; there we assert determinism and loose quality.

use gbdt::{Gbdt, GbdtParams, Matrix, SplitStrategy};
use proptest::prelude::*;

/// Deterministic LCG so datasets derive from a scalar seed (the vendored
/// proptest shim has no collection strategies).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

fn train(x: Matrix<'_>, y: &[f32], w: &[f32], params: &GbdtParams) -> Gbdt {
    Gbdt::train_matrix(x, y, w, params, &telemetry::Telemetry::disabled())
}

/// Dataset on the dyadic grid, rows packed `n_features` wide: features and
/// targets are multiples of 0.25 with at most 16 distinct feature values,
/// weights in {0.25, 0.5, 0.75, 1}.
fn dyadic_dataset(n: usize, n_features: usize, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut s = seed | 1;
    let x: Vec<f32> = (0..n * n_features)
        .map(|_| (lcg(&mut s) % 16) as f32 * 0.25)
        .collect();
    let y: Vec<f32> = x
        .chunks(n_features)
        .map(|r| r[0] * 0.5 + r.last().unwrap() * 0.25 + (lcg(&mut s) % 8) as f32 * 0.25)
        .collect();
    let w: Vec<f32> = (0..n)
        .map(|_| (lcg(&mut s) % 4 + 1) as f32 * 0.25)
        .collect();
    (x, y, w)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// With distinct values per feature ≤ bins, the histogram path is not
    /// an approximation: it trains the bit-identical model.
    #[test]
    fn binned_training_is_bitwise_exact_on_dyadic_grids(
        n in 16usize..120,
        n_features in 1usize..5,
        seed in any::<u64>(),
    ) {
        let (x, y, w) = dyadic_dataset(n, n_features, seed);
        let xm = Matrix::new(&x, n_features);
        let exact = train(xm, &y, &w, &GbdtParams {
            split: SplitStrategy::Exact,
            ..Default::default()
        });
        let binned = train(xm, &y, &w, &GbdtParams {
            split: SplitStrategy::Histogram,
            ..Default::default()
        });
        prop_assert_eq!(exact.num_trees(), binned.num_trees());
        for row in x.chunks(n_features) {
            let (pe, pb) = (exact.predict(row), binned.predict(row));
            prop_assert_eq!(pe.to_bits(), pb.to_bits(), "exact {pe} vs binned {pb}");
        }
    }

    /// Quantile-capped bins (more distinct values than bins) coarsen split
    /// candidates but must stay deterministic and close to the exact fit.
    #[test]
    fn quantile_binning_is_deterministic_and_sane(seed in any::<u64>()) {
        let mut s = seed | 1;
        let n = 400;
        let x: Vec<f32> = (0..n * 2).map(|_| lcg(&mut s) as f32 / 4e8).collect();
        let xm = Matrix::new(&x, 2);
        let y: Vec<f32> = x.chunks(2).map(|r| 2.0 * r[0] - r[1]).collect();
        let w = vec![1.0; n];
        let params = GbdtParams {
            split: SplitStrategy::Histogram,
            max_bins: 16,
            ..Default::default()
        };
        let a = train(xm, &y, &w, &params);
        let b = train(xm, &y, &w, &params);
        let (pa, pb) = (a.predict_matrix(xm), b.predict_matrix(xm));
        for i in 0..n {
            prop_assert_eq!(pa[i].to_bits(), pb[i].to_bits());
        }
        let exact = train(xm, &y, &w, &GbdtParams {
            split: SplitStrategy::Exact,
            ..params
        });
        let (mse_b, mse_e) = (
            a.weighted_mse_matrix(xm, &y, &w),
            exact.weighted_mse_matrix(xm, &y, &w),
        );
        // 16 bins on 400 distinct values is a real approximation; just
        // require it in the same regime as the exact fit, not diverged.
        prop_assert!(mse_b.is_finite() && mse_b <= mse_e * 10.0 + 0.1,
            "binned mse {mse_b} vs exact {mse_e}");
    }
}
