//! The persistent shared warm store.
//!
//! The store is what makes the daemon more than N copies of `ansor-tune`:
//! measurement results, featurizations, and tuning records survive across
//! jobs *and* across server restarts, so a repeat job finds most of its
//! work already done. Three layers, by sharing safety (see the
//! determinism notes in `ansor_core::session`):
//!
//! - **Measurement and featurization caches**, one pair per *workload
//!   class* (operator, shape, batch, target, fault spec — everything that
//!   determines a measurement except the seed). Both are keyed by
//!   `State::signature()`, which names the program (DAG content and
//!   steps); the class adds what a measurement also depends on — target
//!   and fault spec — and is the unit the byte budget evicts. Sharing
//!   across seeds is determinism-transparent — a hit returns exactly what
//!   a cold measurement or featurization of the same program would.
//! - **Tuning records** per class, persisted as the store file and used
//!   both to re-prime the measurement caches after a restart (each record
//!   is replayed to its program signature) and to warm-start jobs that opt
//!   in.
//!
//! Persistence reuses the atomic write-temp-then-rename discipline of the
//! checkpoint machinery: the store file is either the old version or the
//! new one, never a torn mix.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ansor_core::{FeatureBlock, TuningRecordLog};
use ansor_runtime::SigCache;
use ansor_workloads::build_case;
use hwsim::MeasureResult;
use serde::{Deserialize, Serialize};

use crate::proto::JobSpec;

/// Store file format version.
pub const STORE_VERSION: u32 = 1;

/// Per-class measurement-cache capacity (entries).
const MEASURE_CACHE_CAPACITY: usize = 1 << 15;

/// Per-class featurization-cache capacity (entries).
const FEATURE_CACHE_CAPACITY: usize = 1 << 15;

/// Records retained per class entry; oldest are dropped beyond this.
const MAX_RECORDS_PER_ENTRY: usize = 8192;

/// Everything the store remembers about one workload class.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoreEntry {
    /// Class key (`JobSpec::class_key`).
    pub key: String,
    /// Operator class name.
    pub op: String,
    /// Shape index.
    pub shape: usize,
    /// Batch size.
    pub batch: i64,
    /// Target name.
    pub target: String,
    /// Fault spec the measurements ran under.
    pub faults: String,
    /// Best seconds ever observed for the class (`None` until a job
    /// finds a valid program).
    pub best_seconds: Option<f64>,
    /// Jobs whose logs were absorbed into this entry.
    pub jobs_absorbed: u64,
    /// Deduplicated tuning records, capped at `MAX_RECORDS_PER_ENTRY`.
    pub records: Vec<TuningRecordLog>,
    /// Monotonic use tick (bumped on absorb and warm-start reads); the
    /// byte-budget compactor evicts the smallest tick first. Defaulted so
    /// stores written before compaction existed still load.
    #[serde(default)]
    pub last_used: u64,
}

/// On-disk form of the store.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StoreFile {
    version: u32,
    entries: Vec<StoreEntry>,
}

/// Summary of what [`WarmStore::open`] found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreLoadStats {
    /// Class entries loaded.
    pub entries: usize,
    /// Tuning records loaded.
    pub records: usize,
    /// Measurement-cache entries primed by replaying records.
    pub primed: usize,
    /// Records that failed to replay (skipped, not fatal).
    pub replay_failures: usize,
}

/// The signature-keyed caches of one workload class.
#[derive(Debug, Clone)]
struct ClassCaches {
    measure: Arc<SigCache<MeasureResult>>,
    features: Arc<SigCache<FeatureBlock>>,
}

/// The shared warm store: caches plus persisted records.
#[derive(Debug)]
pub struct WarmStore {
    path: Option<PathBuf>,
    entries: Mutex<BTreeMap<String, StoreEntry>>,
    caches: Mutex<HashMap<String, ClassCaches>>,
    /// Cached serialized byte size per entry (updated on absorb/evict),
    /// so the compaction check and the `store_bytes` gauge never
    /// re-serialize the whole store.
    entry_bytes: Mutex<BTreeMap<String, u64>>,
    /// Store-wide serialized-entry byte budget; 0 = unlimited.
    byte_budget: AtomicU64,
    /// LRU clock: next `last_used` tick.
    clock: AtomicU64,
    /// Entries evicted by byte-budget compaction over this process's
    /// lifetime.
    evictions: AtomicU64,
    /// Serializes [`WarmStore::save`] calls: concurrent workers would
    /// otherwise race on the shared temp file between write and rename.
    save_lock: Mutex<()>,
}

impl WarmStore {
    /// An in-memory store with no persistence (caches still shared across
    /// jobs within the process).
    pub fn in_memory() -> WarmStore {
        WarmStore {
            path: None,
            entries: Mutex::new(BTreeMap::new()),
            caches: Mutex::new(HashMap::new()),
            entry_bytes: Mutex::new(BTreeMap::new()),
            byte_budget: AtomicU64::new(0),
            clock: AtomicU64::new(1),
            evictions: AtomicU64::new(0),
            save_lock: Mutex::new(()),
        }
    }

    /// Opens (or creates) a persistent store at `path`, re-priming the
    /// per-class measurement caches by replaying every stored record to
    /// its program signature. A missing file is an empty store; a corrupt
    /// or wrong-version file is an error (the operator should move it
    /// aside rather than have it silently overwritten).
    pub fn open(path: impl AsRef<Path>) -> Result<(WarmStore, StoreLoadStats), String> {
        let path = path.as_ref().to_path_buf();
        let mut store = WarmStore::in_memory();
        store.path = Some(path.clone());
        let mut stats = StoreLoadStats::default();
        let data = match std::fs::read_to_string(&path) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((store, stats));
            }
            Err(e) => return Err(format!("read {}: {e}", path.display())),
        };
        let file: StoreFile =
            serde_json::from_str(&data).map_err(|e| format!("parse {}: {e:?}", path.display()))?;
        if file.version != STORE_VERSION {
            return Err(format!(
                "store {} has version {}, expected {STORE_VERSION}",
                path.display(),
                file.version
            ));
        }
        let mut max_tick = 0;
        for entry in file.entries {
            stats.entries += 1;
            stats.records += entry.records.len();
            max_tick = max_tick.max(entry.last_used);
            let (primed, failed) = store.prime_class(&entry);
            stats.primed += primed;
            stats.replay_failures += failed;
            store
                .entries
                .lock()
                .expect("store lock poisoned")
                .insert(entry.key.clone(), entry);
        }
        store.clock.store(max_tick + 1, Ordering::Relaxed);
        store.recompute_entry_bytes();
        Ok((store, stats))
    }

    /// Rebuilds the per-entry serialized-size cache from scratch (load
    /// path only; absorb maintains it incrementally).
    fn recompute_entry_bytes(&self) {
        let entries = self.entries.lock().expect("store lock poisoned");
        let mut bytes = self.entry_bytes.lock().expect("store lock poisoned");
        bytes.clear();
        for (key, entry) in entries.iter() {
            let json = serde_json::to_string(entry).expect("store entry serializes");
            bytes.insert(key.clone(), json.len() as u64);
        }
    }

    /// Replays one entry's records into its class measurement cache.
    /// Returns `(primed, replay_failures)`.
    fn prime_class(&self, entry: &StoreEntry) -> (usize, usize) {
        let Some(dag) = build_case(&entry.op, entry.shape, entry.batch) else {
            // Unknown workload (e.g. a store written by a newer binary):
            // keep the records, just don't prime from them.
            return (0, entry.records.len());
        };
        let cache = self.measure_cache(&entry.key);
        let mut primed = 0;
        let mut failed = 0;
        for r in &entry.records {
            match r.replay(dag.clone()) {
                Ok(state) => {
                    cache.insert(
                        state.signature(),
                        MeasureResult {
                            seconds: r.seconds,
                            error: r.error.clone(),
                        },
                    );
                    primed += 1;
                }
                Err(_) => failed += 1,
            }
        }
        (primed, failed)
    }

    /// The caches of a workload class, created on first use.
    fn class_caches(&self, class_key: &str) -> ClassCaches {
        let mut caches = self.caches.lock().expect("store lock poisoned");
        caches
            .entry(class_key.to_string())
            .or_insert_with(|| ClassCaches {
                measure: Arc::new(SigCache::new(MEASURE_CACHE_CAPACITY)),
                features: Arc::new(SigCache::new(FEATURE_CACHE_CAPACITY)),
            })
            .clone()
    }

    /// The measurement cache for a workload class. Only sessions of the
    /// same class (same `JobSpec::class_key`) may share it — the key pins
    /// target and fault configuration, which is exactly the condition
    /// `Measurer::set_result_cache` requires.
    pub fn measure_cache(&self, class_key: &str) -> Arc<SigCache<MeasureResult>> {
        self.class_caches(class_key).measure
    }

    /// The featurization cache for a workload class (features are pure in
    /// the program; per class because a class is what the byte budget
    /// evicts).
    pub fn feature_cache(&self, class_key: &str) -> Arc<SigCache<FeatureBlock>> {
        self.class_caches(class_key).features
    }

    /// Stored tuning records for a class (for opt-in warm starts). Counts
    /// as a use for LRU compaction.
    pub fn records_for(&self, class_key: &str) -> Vec<TuningRecordLog> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.lock().expect("store lock poisoned");
        entries
            .get_mut(class_key)
            .map(|e| {
                e.last_used = tick;
                e.records.clone()
            })
            .unwrap_or_default()
    }

    /// Best stored seconds for a class, if any job has found one.
    pub fn best_seconds_for(&self, class_key: &str) -> Option<f64> {
        self.entries
            .lock()
            .expect("store lock poisoned")
            .get(class_key)
            .and_then(|e| e.best_seconds)
    }

    /// Merges a finished job's tuning log into the store (deduplicated by
    /// step history, capped per entry) and updates the class's best. The
    /// measurement cache is already warm — the job wrote into it while
    /// running — so only the persisted layer needs the records. Returns
    /// the number of newly absorbed (deduplicated) records, which the
    /// daemon's journal records per job.
    pub fn absorb(&self, spec: &JobSpec, faults: &str, log: &[TuningRecordLog]) -> usize {
        let key = spec.class_key(faults);
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.entries.lock().expect("store lock poisoned");
        let entry = entries.entry(key.clone()).or_insert_with(|| StoreEntry {
            key: key.clone(),
            op: spec.op.clone(),
            shape: spec.shape,
            batch: spec.batch,
            target: spec.target.clone(),
            faults: faults.to_string(),
            best_seconds: None,
            jobs_absorbed: 0,
            records: Vec::new(),
            last_used: 0,
        });
        entry.jobs_absorbed += 1;
        entry.last_used = tick;
        let mut seen: std::collections::HashSet<u64> =
            entry.records.iter().map(steps_hash).collect();
        let mut absorbed = 0;
        for r in log {
            if entry.records.len() >= MAX_RECORDS_PER_ENTRY {
                break;
            }
            if seen.insert(steps_hash(r)) {
                entry.records.push(r.clone());
                absorbed += 1;
            }
            if r.is_valid() {
                // (not `map_or`/`is_none_or`: the latter postdates the MSRV)
                let better = match entry.best_seconds {
                    Some(b) => r.seconds < b,
                    None => true,
                };
                if better {
                    entry.best_seconds = Some(r.seconds);
                }
            }
        }
        let entry_json = serde_json::to_string(&*entry).expect("store entry serializes");
        self.entry_bytes
            .lock()
            .expect("store lock poisoned")
            .insert(key.clone(), entry_json.len() as u64);
        drop(entries);
        self.compact(&key);
        absorbed
    }

    /// Evicts least-recently-used entries (never `keep_key`, the entry the
    /// caller just touched) until the summed serialized entry size fits
    /// the byte budget. A no-op when no budget is set.
    fn compact(&self, keep_key: &str) {
        let budget = self.byte_budget.load(Ordering::Relaxed);
        if budget == 0 {
            return;
        }
        loop {
            let victim = {
                let entries = self.entries.lock().expect("store lock poisoned");
                let bytes = self.entry_bytes.lock().expect("store lock poisoned");
                let total: u64 = bytes.values().sum();
                if total <= budget || entries.len() <= 1 {
                    return;
                }
                match entries
                    .values()
                    .filter(|e| e.key != keep_key)
                    .min_by_key(|e| e.last_used)
                {
                    Some(e) => e.key.clone(),
                    None => return,
                }
            };
            self.entries
                .lock()
                .expect("store lock poisoned")
                .remove(&victim);
            self.entry_bytes
                .lock()
                .expect("store lock poisoned")
                .remove(&victim);
            // Drop the class's caches too: with the records gone the
            // measurement cache can no longer be re-primed after a restart,
            // and keeping them would hold the evicted memory live.
            self.caches
                .lock()
                .expect("store lock poisoned")
                .remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Sets the store-wide serialized-entry byte budget (`None` =
    /// unlimited). Enforced lazily, on each absorb.
    pub fn set_byte_budget(&self, budget: Option<u64>) {
        self.byte_budget
            .store(budget.unwrap_or(0), Ordering::Relaxed);
    }

    /// Approximate serialized size of all entries, in bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.entry_bytes
            .lock()
            .expect("store lock poisoned")
            .values()
            .sum()
    }

    /// Entries evicted by byte-budget compaction in this process.
    pub fn eviction_count(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of class entries.
    pub fn entry_count(&self) -> usize {
        self.entries.lock().expect("store lock poisoned").len()
    }

    /// Total records across all entries.
    pub fn record_count(&self) -> usize {
        self.entries
            .lock()
            .expect("store lock poisoned")
            .values()
            .map(|e| e.records.len())
            .sum()
    }

    /// Persists the store atomically (write temp file, then rename). A
    /// no-op for in-memory stores.
    pub fn save(&self) -> Result<(), String> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let _guard = self.save_lock.lock().expect("save lock poisoned");
        let entries: Vec<StoreEntry> = self
            .entries
            .lock()
            .expect("store lock poisoned")
            .values()
            .cloned()
            .collect();
        let file = StoreFile {
            version: STORE_VERSION,
            entries,
        };
        let json = serde_json::to_string(&file).expect("store serializes");
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, json).map_err(|e| format!("write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))
    }
}

/// FNV-1a hash of a record's step history (the dedup key — two records
/// with the same steps describe the same program).
fn steps_hash(r: &TuningRecordLog) -> u64 {
    let json = serde_json::to_string(&r.steps).expect("steps serialize");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in json.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            op: "GMM".into(),
            shape: 0,
            batch: 1,
            target: "intel".into(),
            trials: 32,
            seed: 1,
            warm_start: None,
            threads: None,
            faults: None,
            prerank_keep: None,
            transfer: None,
        }
    }

    fn record(trial: u64, seconds: f64) -> TuningRecordLog {
        TuningRecordLog {
            task: "GMM:s0b1".into(),
            trial,
            steps: Vec::new(),
            seconds,
            error: None,
        }
    }

    #[test]
    fn absorb_dedupes_and_tracks_best() {
        let store = WarmStore::in_memory();
        let s = spec();
        let absorbed = store.absorb(&s, "none", &[record(1, 2e-3), record(2, 1e-3)]);
        // Same step history (empty) → dedup keeps one record.
        assert_eq!(absorbed, 1);
        assert_eq!(store.record_count(), 1);
        assert_eq!(store.entry_count(), 1);
        assert_eq!(store.best_seconds_for(&s.class_key("none")), Some(1e-3));
        // A second job with a worse result doesn't regress the best, and
        // its already-seen record doesn't count as newly absorbed.
        assert_eq!(store.absorb(&s, "none", &[record(1, 5e-3)]), 0);
        assert_eq!(store.best_seconds_for(&s.class_key("none")), Some(1e-3));
    }

    #[test]
    fn save_and_reopen_round_trips() {
        let dir = std::env::temp_dir().join(format!("ansor-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        let _ = std::fs::remove_file(&path);

        let (store, stats) = WarmStore::open(&path).unwrap();
        assert_eq!(stats, StoreLoadStats::default());
        let s = spec();
        store.absorb(&s, "none", &[record(1, 3e-3)]);
        store.save().unwrap();

        let (reopened, stats) = WarmStore::open(&path).unwrap();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.records, 1);
        assert_eq!(reopened.best_seconds_for(&s.class_key("none")), Some(3e-3));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_version_is_rejected() {
        let dir = std::env::temp_dir().join(format!("ansor-store-v-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        std::fs::write(&path, "{\"version\":999,\"entries\":[]}").unwrap();
        let err = WarmStore::open(&path).unwrap_err();
        assert!(err.contains("version"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    fn record_with_steps(trial: u64, seconds: f64, split: i64) -> TuningRecordLog {
        TuningRecordLog {
            task: "GMM:s0b1".into(),
            trial,
            steps: vec![tensor_ir::Step::Split {
                node: "C".into(),
                iter: "i".into(),
                lengths: vec![split],
            }],
            seconds,
            error: None,
        }
    }

    #[test]
    fn byte_budget_evicts_least_recently_used_entries() {
        let store = WarmStore::in_memory();
        let a = spec();
        let mut b = spec();
        b.shape = 1;
        let mut c = spec();
        c.shape = 2;
        store.absorb(&a, "none", &[record_with_steps(1, 2e-3, 2)]);
        store.absorb(&b, "none", &[record_with_steps(1, 2e-3, 4)]);
        // Touch A so B becomes the least recently used.
        assert!(!store.records_for(&a.class_key("none")).is_empty());
        let two_entries = store.resident_bytes();
        assert!(two_entries > 0);
        // Budget fits roughly two entries; absorbing a third must evict B.
        store.set_byte_budget(Some(two_entries + 8));
        store.absorb(&c, "none", &[record_with_steps(1, 2e-3, 8)]);
        assert_eq!(store.entry_count(), 2);
        assert_eq!(store.eviction_count(), 1);
        assert!(store.records_for(&b.class_key("none")).is_empty());
        assert!(!store.records_for(&a.class_key("none")).is_empty());
        assert!(!store.records_for(&c.class_key("none")).is_empty());
        assert!(store.resident_bytes() <= two_entries + 8);
    }

    #[test]
    fn store_files_with_a_surrogate_key_still_load() {
        // Version-1 stores written while the (since removed) store-wide
        // step-sequence surrogate existed carry its accumulators next to
        // the entries. The vendored serde ignores unknown keys; an operator
        // must not have to move a store aside over a dropped field.
        let dir = std::env::temp_dir().join(format!("ansor-store-s-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        std::fs::write(
            &path,
            r#"{"version":1,"entries":[{"key":"k","op":"GMM","shape":0,"batch":1,"target":"intel","faults":"none","best_seconds":2e-3,"jobs_absorbed":1,"records":[],"last_used":4}],"surrogate":{"version":1,"lambda":1.0,"sxx":[0.5,0.0],"sxy":[0.25,0.0],"updates":2,"task_best":[["GMM:s0b1",2e-3]]}}"#,
        )
        .unwrap();
        let (store, stats) = WarmStore::open(&path).unwrap();
        assert_eq!(stats.entries, 1);
        assert_eq!(store.best_seconds_for("k"), Some(2e-3));
        // …and the next save simply drops the key.
        store.save().unwrap();
        assert!(!std::fs::read_to_string(&path)
            .unwrap()
            .contains("surrogate"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reopen_primes_measure_cache_from_replayed_records() {
        // Run a tiny real tuning job, absorb its log, reopen: the replayed
        // records must land in the class measurement cache.
        use ansor_core::{SearchTask, TuningOptions, TuningSession};
        use hwsim::{HardwareTarget, Measurer};

        let s = spec();
        let dag = build_case(&s.op, s.shape, s.batch).unwrap();
        let target = HardwareTarget::by_name(&s.target).unwrap();
        let task = SearchTask::new(s.task_name(), dag, target.clone());
        let options = TuningOptions {
            num_measure_trials: s.trials,
            seed: s.seed,
            ..Default::default()
        };
        let mut session =
            TuningSession::new(task, options, Measurer::new(target), s.fingerprint("none"));
        session.run(|_| true);
        assert!(!session.log().is_empty());

        let dir = std::env::temp_dir().join(format!("ansor-store-p-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        let _ = std::fs::remove_file(&path);
        let (store, _) = WarmStore::open(&path).unwrap();
        store.absorb(&s, "none", session.log());
        store.save().unwrap();

        let (reopened, stats) = WarmStore::open(&path).unwrap();
        assert!(stats.primed > 0, "{stats:?}");
        assert_eq!(stats.replay_failures, 0, "{stats:?}");
        let cache = reopened.measure_cache(&s.class_key("none"));
        assert_eq!(cache.len(), stats.primed);
        std::fs::remove_file(&path).unwrap();
    }
}
