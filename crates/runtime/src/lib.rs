//! The parallel search runtime: a std-only scoped thread pool with
//! deterministic work-stealing, plus signature-keyed caches.
//!
//! Ansor's throughput is bounded by how fast candidate programs can be
//! lowered, featurized, and measured each round (§4–5 of the paper). The
//! hot paths — batched measurement, feature extraction, GBDT split search,
//! and cost-model scoring of evolution populations — are all
//! embarrassingly parallel over independent items, so this crate provides
//! one primitive, [`parallel_map`], that they all share.
//!
//! # Determinism contract
//!
//! Results are **bit-identical regardless of thread count**:
//!
//! - results are returned ordered by input index, never by completion
//!   order;
//! - each item is processed by exactly one worker, and the per-item
//!   closure receives only the item (no shared mutable state), so a pure
//!   closure yields the same output no matter which worker ran it;
//! - randomized items use [`derive_seed`]`(seed, index)` to give every
//!   item its own RNG stream — a function of `(seed, index)` only, never
//!   of the worker or the interleaving.
//!
//! Scheduling is *deterministic work-stealing*: the input is cut into
//! fixed chunks and workers claim chunks from a shared atomic cursor.
//! Which worker runs which chunk varies run to run; which chunks exist
//! and where each result lands does not.
//!
//! See `docs/PARALLELISM.md` for the full contract and the `--threads`
//! flag plumbing.

#![warn(missing_docs)]

pub mod cache;

pub use cache::SigCache;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Worker count from [`set_threads`]; 0 = not set (use [`default_threads`]).
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// The worker count when [`set_threads`] has not chosen one, resolved at
/// first use: reading the environment and asking the OS for the available
/// parallelism costs microseconds, and [`threads`] is called per batch.
static DEFAULT_THREADS: OnceLock<usize> = OnceLock::new();

/// Sets the worker count used by [`parallel_map`] (the `--threads N`
/// flag). `0` restores the default (see [`threads`]).
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::SeqCst);
}

/// The effective worker count: the value from [`set_threads`], else the
/// `ANSOR_THREADS` environment variable, else available parallelism —
/// the last two read once, at the first call that needs them. Always at
/// least 1.
pub fn threads() -> usize {
    match THREADS.load(Ordering::SeqCst) {
        0 => *DEFAULT_THREADS
            .get_or_init(|| default_threads(std::env::var("ANSOR_THREADS").ok().as_deref())),
        n => n,
    }
}

/// `ANSOR_THREADS` (given its value, if set) when it is a positive
/// number, else the machine's available parallelism.
fn default_threads(env: Option<&str>) -> usize {
    env.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Derives an independent RNG seed for item `index` of a run seeded with
/// `seed` (splitmix64 over the pair). Equal inputs give equal streams on
/// every thread count — the foundation of the determinism contract.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Number of items per stolen chunk: small enough to balance skewed item
/// costs (one slow lowering does not serialize the batch), large enough
/// to keep cursor contention negligible.
const CHUNK: usize = 8;

/// Workers currently inside a [`parallel_map`] batch, across all
/// concurrent batches.
static BUSY_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Items submitted to in-flight batches and not yet claimed by a worker.
static QUEUED_ITEMS: AtomicUsize = AtomicUsize::new(0);

/// Instantaneous pool utilization `(busy_workers, items_queued)` — busy
/// worker threads and yet-unclaimed items across every in-flight
/// [`parallel_map`] batch. Read by the live metrics exporter; both values
/// are 0 whenever nothing is running (the serial fast path is never
/// "busy").
pub fn pool_stats() -> (usize, usize) {
    (
        BUSY_WORKERS.load(Ordering::Relaxed),
        QUEUED_ITEMS.load(Ordering::Relaxed),
    )
}

/// RAII add/sub on a utilization counter, so early returns and panics in
/// worker closures cannot leak a stuck gauge.
struct CounterGuard {
    counter: &'static AtomicUsize,
    amount: usize,
}

impl CounterGuard {
    fn add(counter: &'static AtomicUsize, amount: usize) -> Self {
        counter.fetch_add(amount, Ordering::Relaxed);
        CounterGuard { counter, amount }
    }

    fn sub(&mut self, by: usize) {
        let by = by.min(self.amount);
        self.counter.fetch_sub(by, Ordering::Relaxed);
        self.amount -= by;
    }
}

impl Drop for CounterGuard {
    fn drop(&mut self) {
        self.counter.fetch_sub(self.amount, Ordering::Relaxed);
    }
}

/// Maps `f` over `items` on the runtime's worker threads and returns the
/// results **in input order**. Falls back to a plain serial map when one
/// worker suffices or the batch is tiny.
///
/// `f` must be pure per item for the determinism contract to hold;
/// shared state behind locks is allowed when the protected operation is
/// order-insensitive (counters, caches).
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_indexed(items, |_, item| f(item))
}

/// [`parallel_map`] variant whose closure also receives the item index —
/// combine with [`derive_seed`] for per-item RNG streams.
pub fn parallel_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = threads().min(n.div_ceil(CHUNK)).max(1);
    if workers <= 1 || n < 2 {
        return items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
    }
    let mut results: Vec<Option<R>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let n_chunks = n.div_ceil(CHUNK);
    // Each worker gets its own view of the result slots, indexed by chunk
    // id; the atomic cursor is the work-stealing queue. Declared outside
    // the scope so worker borrows outlive every spawned thread.
    let slots: Vec<std::sync::Mutex<Option<&mut [Option<R>]>>> = results
        .chunks_mut(CHUNK)
        .map(|c| std::sync::Mutex::new(Some(c)))
        .collect();
    let queued = std::sync::Mutex::new(CounterGuard::add(&QUEUED_ITEMS, n));
    std::thread::scope(|scope| {
        let slots = &slots;
        let cursor = &cursor;
        let queued = &queued;
        for _ in 0..workers {
            scope.spawn(move || {
                let _busy = CounterGuard::add(&BUSY_WORKERS, 1);
                loop {
                    let c = cursor.fetch_add(1, Ordering::SeqCst);
                    if c >= n_chunks {
                        break;
                    }
                    let mut slot = slots[c].lock().expect("chunk slot poisoned");
                    let out = slot.take().expect("each chunk is claimed once");
                    queued.lock().expect("queue gauge poisoned").sub(out.len());
                    for (j, r) in out.iter_mut().enumerate() {
                        let idx = c * CHUNK + j;
                        *r = Some(f(idx, &items[idx]));
                    }
                }
            });
        }
    });
    drop(queued);
    drop(slots);
    results
        .into_iter()
        .map(|r| r.expect("all chunks processed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `THREADS`, `BUSY_WORKERS` and `QUEUED_ITEMS` are process-wide and
    /// the tests of this binary run on parallel threads: every test that
    /// sets the thread count or runs a batch holds this lock, so the exact
    /// assertions on those globals see only their own batch.
    fn globals() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        // A failed assertion in one test must not fail the others.
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn results_are_in_input_order() {
        let _globals = globals();
        let items: Vec<u64> = (0..1000).collect();
        let out = parallel_map(&items, |&x| x * 3);
        assert_eq!(out, (0..1000).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn identical_results_across_thread_counts() {
        let _globals = globals();
        let items: Vec<u64> = (0..537).collect();
        let run = |threads: usize| -> Vec<f64> {
            set_threads(threads);
            let out = parallel_map_indexed(&items, |i, &x| {
                // A float reduction sensitive to evaluation order within
                // an item (but items are independent).
                let mut acc = 0.0f64;
                let s = derive_seed(42, i as u64);
                for k in 0..64 {
                    acc += ((x as f64) + (s % 1000) as f64 / (k + 1) as f64).sin();
                }
                acc
            });
            set_threads(0);
            out
        };
        let a = run(1);
        let b = run(4);
        let c = run(16);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn skewed_item_costs_still_complete_and_order() {
        let _globals = globals();
        // First item is far slower than the rest; stealing must not
        // scramble result placement.
        let items: Vec<u64> = (0..100).collect();
        set_threads(4);
        let out = parallel_map(&items, |&x| {
            if x == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            x + 1
        });
        set_threads(0);
        assert_eq!(out, (1..=100).collect::<Vec<_>>());
    }

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

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(parallel_map(&empty, |&x| x).is_empty());
        assert_eq!(parallel_map(&[9u32], |&x| x * 2), vec![18]);
    }

    #[test]
    fn set_threads_overrides_the_environment_which_overrides_detection() {
        let _globals = globals();
        let detected = default_threads(None);
        assert!(detected >= 1);
        assert_eq!(default_threads(Some(" 3 ")), 3);
        for not_a_count in ["0", "", "many", "-2"] {
            assert_eq!(default_threads(Some(not_a_count)), detected);
        }
        // This process's default, however it resolved (CI sets the variable).
        let default = default_threads(std::env::var("ANSOR_THREADS").ok().as_deref());
        set_threads(default + 2);
        assert_eq!(threads(), default + 2);
        set_threads(0);
        assert_eq!(threads(), default, "0 returns to the resolved default");
        assert_eq!(threads(), default, "and the default does not drift");
    }

    #[test]
    fn pool_stats_report_busy_then_settle_to_zero() {
        let _globals = globals();
        let items: Vec<u64> = (0..64).collect();
        set_threads(4);
        let seen_busy = std::sync::atomic::AtomicUsize::new(0);
        parallel_map(&items, |&x| {
            let (busy, _) = pool_stats();
            seen_busy.fetch_max(busy, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_millis(1));
            x
        });
        set_threads(0);
        assert!(
            seen_busy.load(Ordering::Relaxed) >= 1,
            "workers must be visible mid-batch"
        );
        let (busy, queued) = pool_stats();
        assert_eq!((busy, queued), (0, 0), "counters must settle after batch");
    }

    #[test]
    fn borrows_from_caller_stack() {
        let _globals = globals();
        let base = vec![10u64; 64];
        let items: Vec<usize> = (0..64).collect();
        let out = parallel_map(&items, |&i| base[i] + i as u64);
        assert_eq!(out[5], 15);
    }
}
