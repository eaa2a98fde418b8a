//! The benchmark's own counting allocator: calls, bytes requested and
//! peak live bytes (`telemetry::CountingAlloc` keeps no byte total and
//! cannot restart its peak).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// `System`, plus four relaxed counters (statistics only: they publish no
/// other data).
pub struct CountingAlloc;

fn on_alloc(size: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping neither allocates nor panics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

/// Allocator calls and bytes requested, either since process start or
/// between two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// `alloc` + `alloc_zeroed` + `realloc` calls.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl AllocCount {
    /// Counters since process start.
    pub fn now() -> AllocCount {
        AllocCount {
            calls: CALLS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// What was allocated since `earlier`.
    pub fn since(self, earlier: AllocCount) -> AllocCount {
        AllocCount {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }

    /// Component-wise sum.
    pub fn plus(self, other: AllocCount) -> AllocCount {
        AllocCount {
            calls: self.calls + other.calls,
            bytes: self.bytes + other.bytes,
        }
    }
}

/// Allocations `f` made, with its result.
pub fn counted<R>(f: impl FnOnce() -> R) -> (AllocCount, R) {
    let before = AllocCount::now();
    let out = f();
    (AllocCount::now().since(before), out)
}

/// Restarts the peak at the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Highest live size since the last [`reset_peak`], in bytes.
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The counters are process-wide and `cargo test` runs tests on
    // parallel threads, so these assert lower bounds only.
    #[test]
    fn snapshot_deltas_see_calls_bytes_and_peak() {
        reset_peak();
        let (d, v) = counted(|| {
            let mut v: Vec<u8> = Vec::with_capacity(1 << 20);
            v.push(1);
            v
        });
        assert!(d.calls >= 1, "{d:?}");
        assert!(d.bytes >= 1 << 20, "{d:?}");
        assert!(peak_bytes() >= 1 << 20);
        drop(v);
        let sum = d.plus(AllocCount { calls: 1, bytes: 2 });
        assert_eq!((sum.calls, sum.bytes), (d.calls + 1, d.bytes + 2));
    }
}
