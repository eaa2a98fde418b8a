//! `calib_v1`: the fixed calibration kernel every timing is divided by.
//!
//! FROZEN. The kernel is the yardstick, so it must do the same work in
//! every commit: `clock::CALIB_V1_HASH` pins the hash of this file's bytes
//! and the run fails when they differ. A different kernel is a different
//! benchmark — add `calib_v2.rs` and re-measure every baseline instead of
//! editing this one.
//!
//! The mix mirrors what the search loop spends its time on: growing
//! `Vec`-of-`Vec`s (transform histories), `format!` + SipHash
//! (`State::signature`), deep clones (offspring), sorting (ranking) —
//! about 70 % of the kernel's time — and cache-resident integer and f64
//! arithmetic (the machine model, tree walks) for the rest. The split was
//! chosen so that a busy sibling hyperthread slows the kernel by the same
//! factor as it slows a tuning round (README.md, "Sizing"): only then does
//! dividing by the kernel cancel the neighbour. Single-threaded, roughly
//! 10 ms on the box the benchmark was sized on.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

const ROWS: usize = 6000;
const ROW_LEN: u64 = 24;
const ARITH_ROUNDS: usize = 1900;
const ARITH_LEN: usize = 512;

/// Runs the kernel once and returns a checksum of everything it computed
/// (the same value on every call — the caller asserts it).
pub fn calib_v1() -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut rows: Vec<Vec<u64>> = Vec::new();
    for _ in 0..ROWS {
        let mut row = Vec::new();
        for j in 0..ROW_LEN {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            row.push(x % 4096 + j);
        }
        rows.push(row);
    }
    let mut acc = 0u64;
    for row in &rows {
        let text = format!("{row:?}");
        let mut h = DefaultHasher::new();
        text.hash(&mut h);
        acc = acc.rotate_left(5) ^ h.finish();
    }
    let mut sorted = rows.clone();
    for row in &mut sorted {
        row.sort_unstable();
    }
    sorted.sort();
    let mut f = 0.0f64;
    for row in &sorted {
        for &v in row {
            f += (v as f64).sqrt();
        }
    }
    acc ^= f.to_bits() ^ sorted[ROWS / 2][0];

    // Cache-resident arithmetic: no allocation, no memory traffic.
    let mut a = [0.0f64; ARITH_LEN];
    for round in 0..ARITH_ROUNDS {
        for (i, v) in a.iter_mut().enumerate() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = (*v * 0.999 + ((x >> 40) as f64).sqrt()) * 1.0001;
            if x & 7 == 0 {
                acc = acc.wrapping_add(x.rotate_left((i & 31) as u32));
            }
        }
        acc ^= a[round % ARITH_LEN].to_bits();
    }
    acc
}
