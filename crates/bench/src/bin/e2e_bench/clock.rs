//! The benchmark's clock: process CPU time, normalised by a calibration
//! kernel run next to the work it prices.
//!
//! Raw CPU seconds do not repeat on a small shared box (a busy sibling
//! hyperthread slows this process by up to 1.6×, in bursts of 50 ms to
//! seconds, and no instruction counter is available), so every timing the
//! benchmark reports is an *ncpu*: each unit's CPU time is divided by the
//! mean of the calibration samples taken right before and right after it,
//! the per-unit median of that ratio is taken across passes, and the
//! medians are summed and scaled by `CALIB_REF_NS`.

use crate::calib::calib_v1;
use crate::stats::median;

/// Scale of normalised time: one calibration kernel run counts as this
/// many nanoseconds, so ncpu values read as roughly seconds on the box the
/// benchmark was sized on. Only a scale — never compare across values.
pub const CALIB_REF_NS: f64 = 10_000_000.0;

/// FNV-1a hash of `calib.rs`, pinned when the kernel was frozen.
pub const CALIB_V1_HASH: u64 = 0x947b_0bbf_829f_89ed;

#[cfg(not(target_pointer_width = "64"))]
compile_error!("e2e_bench declares a 64-bit `struct timespec`");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

#[cfg(target_os = "macos")]
const CLOCK_PROCESS_CPUTIME_ID: i32 = 12;
#[cfg(not(target_os = "macos"))]
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process, in nanoseconds.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Unix std supports) and the clock id is a
    // constant the platform defines; libc is already linked by std.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU nanoseconds `f` took, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let t0 = cpu_ns();
    let out = f();
    (cpu_ns() - t0, out)
}

/// FNV-1a over a byte string (the calibration source hash).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Hash of the calibration kernel's source as compiled into this binary.
pub fn calib_source_hash() -> u64 {
    fnv1a(include_bytes!("calib.rs"))
}

/// Collects the calibration samples of one run.
#[derive(Default)]
pub struct Calibrator {
    samples_ns: Vec<f64>,
    checksum: Option<u64>,
}

impl Calibrator {
    /// Runs the kernel once, records its CPU nanoseconds and returns them.
    pub fn sample(&mut self) -> u64 {
        let (ns, sum) = timed(calib_v1);
        let first = *self.checksum.get_or_insert(sum);
        assert_eq!(first, sum, "calib_v1 is not deterministic");
        self.samples_ns.push(ns as f64);
        ns
    }

    /// All samples so far, in nanoseconds.
    pub fn samples(&self) -> &[f64] {
        &self.samples_ns
    }

    /// Median sample in nanoseconds.
    pub fn median_ns(&self) -> f64 {
        median(&self.samples_ns)
    }

    /// Factor turning raw CPU nanoseconds of this run into ncpu
    /// nanoseconds.
    pub fn scale(&self) -> f64 {
        CALIB_REF_NS / self.median_ns()
    }
}

/// Normalised CPU seconds of a set of units. `ratios[pass][unit]` is the
/// unit's CPU time over its adjacent calibration samples
/// (`UnitSample::ratio`); `keep(unit)` selects the set.
pub fn ncpu_s(ratios: &[Vec<f64>], keep: impl Fn(usize) -> bool) -> f64 {
    let units = ratios.first().map_or(0, Vec::len);
    let mut total = 0.0;
    for u in (0..units).filter(|&u| keep(u)) {
        let per_pass: Vec<f64> = ratios.iter().map(|p| p[u]).collect();
        total += median(&per_pass);
    }
    total * CALIB_REF_NS / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ncpu_sums_per_unit_medians_and_scales() {
        // Three passes of three units, in calibration-kernel runs; the
        // unit medians are 2, 20 and 300 runs of 10 ms each.
        let ratios = vec![
            vec![1.0, 20.0, 300.0],
            vec![2.0, 10.0, 900.0],
            vec![9.0, 30.0, 100.0],
        ];
        let all = ncpu_s(&ratios, |_| true);
        assert!((all - 3.22).abs() < 1e-12, "{all}");
        let some = ncpu_s(&ratios, |u| u != 1);
        assert!((some - 3.02).abs() < 1e-12, "{some}");
        assert_eq!(ncpu_s(&[], |_| true), 0.0);
    }

    #[test]
    fn cpu_clock_advances_with_work_and_calibration_repeats() {
        let mut c = Calibrator::default();
        let t0 = cpu_ns();
        c.sample();
        c.sample();
        assert!(cpu_ns() > t0);
        assert_eq!(c.samples().len(), 2);
        assert!(c.median_ns() > 0.0);
        assert!((c.scale() * c.median_ns() - CALIB_REF_NS).abs() < 1e-3);
    }

    #[test]
    fn calibration_source_is_the_frozen_one() {
        assert_eq!(
            calib_source_hash(),
            CALIB_V1_HASH,
            "calib.rs changed: it is frozen (see its header)"
        );
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
