//! The platform libm's bits, pinned. Every float golden of the repository
//! (the trace, the figure records, the model predictions) passes through a
//! few libm calls whose last bit the C library decides, and glibc picks an
//! FMA or a non-FMA code path by CPU:
//!
//! - `f64::log2` behind `features::lg`, on every feature row;
//! - `ln` and `exp` in `Objective::eval`'s f₃ (the geometric-mean speedup);
//! - `ansor_bench::geomean`, in the figure records;
//! - `ln`, `cos` and `exp` of the fault plan's measurement noise.
//!
//! `tests/golden/libm_bits.fingerprints` holds one line per call family:
//! `<family> <inputs> <fnv1a-64 of every output's bits>`, over inputs that
//! span what the goldens feed each call. On a box whose libm rounds
//! differently this one test fails, naming the family, before the goldens
//! built on it do. `cargo test --test libm_bits -- --ignored bless`
//! rewrites the file; a libm difference is not a reason to.

use ansor::core::Objective;
use ansor::hw::{FaultOutcome, FaultPlan};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/libm_bits.fingerprints"
);

/// FNV-1a 64 over `bytes`, continuing from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A fixed stream of uniforms in `[0, 1)` (splitmix64).
struct Uniforms(u64);

impl Uniforms {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Log-uniform over `[2^lo, 2^hi)`: a uniform mantissa times a uniform
    /// power of two, so the inputs owe no bit to the libm under test.
    fn log_uniform(&mut self, lo: i32, hi: i32) -> f64 {
        let e = lo + (self.next() * f64::from(hi - lo)) as i32;
        (1.0 + self.next()) * f64::from_bits(((e + 1023) as u64) << 52)
    }
}

/// The arguments `features::lg` takes: operation counts times trip counts
/// (small integers, powers of two and their neighbours, up to 2^48) and
/// arithmetic intensities and byte ratios (log-uniform over 2^-14…2^40).
fn lg_arguments() -> Vec<f64> {
    let mut xs: Vec<f64> = (0..=1024).map(f64::from).collect();
    for k in 0..=48 {
        let p = (1u64 << k) as f64;
        xs.extend([p - 1.0, p, p + 1.0, 3.0 * p]);
    }
    let mut u = Uniforms(1);
    xs.extend((0..2000).map(|_| u.log_uniform(-14, 40)));
    xs
}

/// Per-DNN latencies and reference latencies for f₃: one to six DNNs of
/// 2^-17 s (8 µs)…1 s, references 2^-5…2^5 times as long.
fn f3_arguments() -> Vec<(Vec<f64>, Vec<f64>)> {
    let mut u = Uniforms(2);
    (0..600)
        .map(|i| {
            let d: Vec<f64> = (0..=i % 6).map(|_| u.log_uniform(-17, 0)).collect();
            let b = d.iter().map(|dj| dj * u.log_uniform(-5, 5)).collect();
            (d, b)
        })
        .collect()
}

/// Sets a figure takes the geometric mean of: one to twelve GFLOP/s
/// (2^-7…2^13) or normalised throughputs (2^-10…1).
fn geomean_arguments() -> Vec<Vec<f64>> {
    let mut u = Uniforms(3);
    (0..600)
        .map(|i| {
            let (lo, hi) = if i % 2 == 0 { (-7, 13) } else { (-10, 0) };
            (0..=i % 12).map(|_| u.log_uniform(lo, hi)).collect()
        })
        .collect()
}

/// One line per family: its name, the number of outputs and their hash.
fn fingerprints() -> String {
    let mut lines = String::new();
    let mut family = |name: &str, outputs: &mut dyn Iterator<Item = f64>| {
        let (n, hash) = outputs.fold((0usize, 0xcbf2_9ce4_8422_2325), |(n, h), v| {
            (n + 1, fnv1a(h, &v.to_bits().to_le_bytes()))
        });
        lines.push_str(&format!("{name} {n} {hash:016x}\n"));
    };

    family(
        "features_lg_log2",
        &mut lg_arguments().into_iter().map(|x| (1.0 + x).log2()),
    );

    let f3 = f3_arguments();
    let ratios = f3
        .iter()
        .flat_map(|(d, b)| d.iter().zip(b).map(|(dj, bj)| bj / dj));
    family("objective_f3_ln", &mut ratios.map(f64::ln));
    let mean_logs = f3
        .iter()
        .map(|(d, b)| d.iter().zip(b).map(|(dj, bj)| (bj / dj).ln()).sum::<f64>() / d.len() as f64);
    family("objective_f3_exp", &mut mean_logs.map(f64::exp));
    family(
        "objective_f3_eval",
        &mut f3
            .iter()
            .map(|(d, b)| Objective::GeoMeanSpeedup(b.clone()).eval(d)),
    );

    family(
        "bench_geomean",
        &mut geomean_arguments()
            .iter()
            .map(|xs| ansor_bench::geomean(xs)),
    );

    // The noise's Box–Muller draw: `ln` of a uniform in [1e-12, 1), `cos`
    // of a turn, and the whole log-normal factor of a noisy plan.
    let mut u = Uniforms(4);
    let turns: Vec<f64> = (0..2000).map(|_| u.next()).collect();
    let mut uniforms = (0..2000).map(|_| u.next().max(1e-12)).collect::<Vec<_>>();
    uniforms.extend([1e-12, 1e-9, 1e-6, 0.5, 1.0 - f64::EPSILON]);
    family("fault_noise_ln", &mut uniforms.into_iter().map(f64::ln));
    family(
        "fault_noise_cos",
        &mut turns.into_iter().map(|t| (std::f64::consts::TAU * t).cos()),
    );
    let plan = FaultPlan {
        transient_prob: 0.0,
        timeout_prob: 0.0,
        cursed_prob: 0.0,
        noise: 0.05,
        ..FaultPlan::default()
    };
    let factors = (0..500u64).flat_map(|sig| (0..4).map(move |attempt| (sig, attempt)));
    family(
        "fault_noise_draw",
        &mut factors.map(|(sig, attempt)| {
            let signature = sig.wrapping_mul(0x2545_F491_4F6C_DD1D);
            match plan.draw(signature, attempt) {
                FaultOutcome::Ok(factor) => factor,
                other => panic!("a plan with noise only drew {other:?}"),
            }
        }),
    );
    lines
}

#[test]
fn libm_calls_under_the_goldens_give_the_committed_bits() {
    let golden = std::fs::read_to_string(GOLDEN).expect("the fingerprint file is committed");
    let now = fingerprints();
    let differ: Vec<String> = golden
        .lines()
        .zip(now.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("  want {want}\n   got {got}"))
        .collect();
    assert!(
        differ.is_empty() && golden.lines().count() == now.lines().count(),
        "this box's libm rounds differently from the one the goldens were \
         blessed on; every float golden built on these calls will differ too:\n{}",
        differ.join("\n")
    );
}

/// `cargo test --test libm_bits -- --ignored bless` rewrites the
/// fingerprint file.
#[test]
#[ignore]
fn bless() {
    std::fs::write(GOLDEN, fingerprints()).expect("the fingerprint file is writable");
}
