//! Sanity checks for the opt-in counting allocator. This integration test
//! binary installs [`telemetry::CountingAlloc`] as its global allocator —
//! exactly how `ansor-tune` and the bench binaries opt in — and checks the
//! gauge arithmetic that `/metrics` exposes as `alloc/*`.

use std::hint::black_box;
use std::sync::{Mutex, MutexGuard};

use telemetry::alloc::{rss_bytes, stats};
use telemetry::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The counters are process-global, so a test that asserts on deltas must
/// not run while any other test of this binary allocates: every test takes
/// the guard, the ones that assert nothing about the counters included.
static SERIAL: Mutex<()> = Mutex::new(());

/// The guard, whether or not a test that held it failed: the counters it
/// protects have no invariant a panic can break.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// What the test harness's own threads (which take no guard) may free or
/// allocate between two reads of the counters: a few hundred bytes are
/// seen; 64 KiB is far above that and far below the blocks allocated here.
const HARNESS_SLACK: u64 = 64 << 10;

#[test]
fn counting_allocator_tracks_live_peak_and_total() {
    let _guard = serial();
    // The test harness itself allocates, so counters are live already.
    let before = stats().expect("allocator installed → stats available");
    assert!(before.total_allocs > 0);
    assert!(before.peak_bytes >= before.live_bytes);

    let block = black_box(vec![0u8; 1 << 20]);
    let during = stats().unwrap();
    assert!(
        during.live_bytes + HARNESS_SLACK >= before.live_bytes + (1 << 20),
        "live bytes must grow by about the allocation: {} -> {}",
        before.live_bytes,
        during.live_bytes
    );
    assert!(during.peak_bytes >= during.live_bytes);
    assert!(during.total_allocs > before.total_allocs);

    drop(block);
    let after = stats().unwrap();
    assert!(
        after.live_bytes + (1 << 20) <= during.live_bytes + HARNESS_SLACK,
        "freeing must shrink live bytes by about the allocation: {} -> {}",
        during.live_bytes,
        after.live_bytes
    );
    // Peak is monotone: it never drops after the free.
    assert!(after.peak_bytes >= during.peak_bytes);
}

#[test]
fn realloc_keeps_the_books_balanced() {
    let _guard = serial();
    let before = stats().unwrap();
    let mut v: Vec<u8> = Vec::with_capacity(1024);
    v.resize(512 * 1024, 7); // forces realloc growth
    let v = black_box(v);
    let during = stats().unwrap();
    assert!(during.live_bytes + HARNESS_SLACK >= before.live_bytes + 512 * 1024);
    drop(v);
    let after = stats().unwrap();
    assert!(after.live_bytes + 512 * 1024 <= during.live_bytes + HARNESS_SLACK);
}

#[test]
fn rss_is_reported_on_linux() {
    // Reading `/proc/self/statm` allocates.
    let _guard = serial();
    if let Some(rss) = rss_bytes() {
        // A test process is at least a page and under a terabyte.
        assert!(rss >= 4096, "rss too small: {rss}");
        assert!(rss < (1 << 40), "rss implausibly large: {rss}");
    }
}
