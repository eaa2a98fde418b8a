//! The persistent shared warm store.
//!
//! The store is what makes the daemon more than N copies of `ansor-tune`:
//! measurement results, trained cost models and tuning records survive
//! across jobs (the records also across server restarts), so a repeat job
//! finds most of its work already done. Two layers, by sharing safety (see
//! the determinism notes in `ansor_core::session`):
//!
//! - **Three caches per *workload class*** (operator, shape, batch,
//!   target, fault spec — everything that determines a measurement except
//!   the seed): measurement results and the feature rows of measured
//!   programs, both keyed by `State::signature()`, which names the program
//!   (DAG content and steps); and trained models with the scores they
//!   gave, keyed by the training pass (`ansor_core::ModelMemo`). The class
//!   adds what a measurement also depends on — target and fault spec — and
//!   is the unit the byte budget evicts. Sharing across jobs is
//!   determinism-transparent — a hit returns exactly what a cold
//!   measurement, featurization or fit would.
//! - **Tuning records** per class, persisted as the store file and used
//!   both to re-prime the measurement caches after a restart (each record
//!   is replayed to its program signature) and to warm-start jobs that opt
//!   in.
//!
//! The store file is an append-only log, one JSON object per line (see
//! `docs/SERVING.md`, *The store file*): the version line, then per
//! absorbed job one [`StoreEntry`] holding the class as it stands after
//! the job and only the records the job added, and `{"evict":"<key>"}`
//! where the byte budget dropped a class. A job therefore costs what it
//! learned: [`WarmStore::absorb`] hashes and serialises the incoming
//! records only, [`WarmStore::save`] appends the queued lines with the
//! journal's discipline (append mode, one `write_all` of whole lines,
//! flush), so a crash leaves whole lines plus at most one torn tail, which
//! [`WarmStore::open`] counts and the next save cuts. Only when dead bytes
//! (superseded headers, evicted classes) outweigh live ones, or `open`
//! skipped a corrupt line, is the file written whole, through a temp file
//! and a rename.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::OpenOptions;
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use ansor_core::{FeatureBlock, ModelMemo, TuningRecordLog};
use ansor_runtime::SigCache;
use ansor_workloads::build_case;
use hwsim::MeasureResult;
use serde::{DeError, Deserialize, Serialize, Value};

use crate::proto::JobSpec;

/// Store file format version: 2 is the record log.
pub const STORE_VERSION: u32 = 2;

/// First line of a store file.
const VERSION_LINE: &str = "{\"version\":2}\n";

/// Per-class measurement-cache capacity (entries).
const MEASURE_CACHE_CAPACITY: usize = 1 << 15;

/// Records retained per class entry. A full entry absorbs no further
/// records — the newest are the ones left out — though it still learns a
/// better `best_seconds` from them.
const MAX_RECORDS_PER_ENTRY: usize = 8192;

/// Per-class capacity (entries) of the feature rows of measured programs:
/// a measured program is a record, and an entry keeps this many.
const FEATURE_CACHE_CAPACITY: usize = MAX_RECORDS_PER_ENTRY;

/// Per-class capacity (trained models) of the model memo. A 192-trial job
/// trains two models, a 1 024-trial one six; once full, a job fits its
/// models as a cold one does and keeps them to itself.
const MODEL_MEMO_CAPACITY: usize = 8;

/// Everything the store remembers about one workload class. Also the form
/// of a log line, where `records` holds only what that job added.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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

/// A line of the log after the version line: a job's entry, or the
/// tombstone of an evicted class.
enum Line {
    Entry(StoreEntry),
    Evict(String),
}

impl Deserialize for Line {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v.get("evict") {
            Some(key) => String::from_value(key).map(Line::Evict),
            None => StoreEntry::from_value(v).map(Line::Entry),
        }
    }
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
    /// Lines skipped as corrupt, a torn last line included.
    pub skipped: usize,
}

/// The caches of one workload class.
#[derive(Debug, Clone)]
struct ClassCaches {
    measure: Arc<SigCache<MeasureResult>>,
    features: Arc<SigCache<FeatureBlock>>,
    models: Arc<ModelMemo>,
}

/// One class in memory: a [`StoreEntry`] taken apart, with what lets an
/// absorb cost only what it adds.
#[derive(Debug, Default)]
struct Slot {
    /// The entry without its records (`head.records` stays empty): what a
    /// log line's header is serialised from.
    head: StoreEntry,
    /// The entry's records.
    records: Vec<TuningRecordLog>,
    /// `steps_hash` of every record in `records`: the dedup set.
    seen: HashSet<u64>,
    /// Length of `head` as JSON (see [`Slot::head_json`]).
    head_bytes: u64,
    /// Length of `records` as JSON array elements, commas included.
    record_bytes: u64,
}

impl Slot {
    /// Whether `r` is new to the entry (by step history) and the entry has
    /// room for it; marks it seen.
    fn admits(&mut self, r: &TuningRecordLog) -> bool {
        self.seen.len() < MAX_RECORDS_PER_ENTRY && self.seen.insert(steps_hash(r))
    }

    /// Appends `records`, which as JSON array elements, commas included,
    /// are `json_len` bytes.
    fn extend(&mut self, records: Vec<TuningRecordLog>, json_len: usize) {
        if !records.is_empty() {
            self.record_bytes += json_len as u64 + u64::from(!self.records.is_empty());
            self.records.extend(records);
        }
    }

    /// `head` as JSON; call after changing it, to keep `head_bytes` true.
    fn head_json(&mut self) -> String {
        let json = serde_json::to_string(&self.head).expect("store entry serializes");
        self.head_bytes = json.len() as u64;
        json
    }

    /// Length of the whole entry as JSON.
    fn bytes(&self) -> u64 {
        self.head_bytes + self.record_bytes
    }

    /// The whole entry, as [`WarmStore::entries`] hands it out.
    fn entry(&self) -> StoreEntry {
        StoreEntry {
            records: self.records.clone(),
            ..self.head.clone()
        }
    }

    /// Folds in one log line, `line_len` bytes of JSON: the header
    /// replaces the slot's, the records follow the slot's. What the store
    /// wrote is taken as it is — deduplicated, and as long as serialising
    /// it again would make it.
    fn fold(&mut self, mut line: StoreEntry, line_len: usize) {
        let records = std::mem::take(&mut line.records);
        self.head = line;
        // A line is its header with the records put in.
        let records_len = line_len.saturating_sub(self.head_json().len());
        self.seen.extend(records.iter().map(steps_hash));
        self.extend(records, records_len);
    }
}

/// A log line: `head` (a record-less [`StoreEntry`] as JSON) with
/// `records` — JSON array elements — put into its empty `records` array.
fn entry_line(head: &str, records: &str) -> String {
    const OPEN: &str = "\"records\":[";
    // Quotes inside a JSON string are escaped, so the first match is the key.
    let at = head.find(OPEN).expect("a store entry has a records array") + OPEN.len();
    [&head[..at], records, &head[at..], "\n"].concat()
}

/// The store file as this process knows it.
#[derive(Debug, Default)]
struct Log {
    /// Whole lines not yet on disk, in the order `open` will fold them.
    pending: String,
    /// Bytes of whole lines on disk; anything beyond is a torn tail (or
    /// what a failed append got out) and is cut by the next append.
    len: u64,
    /// `open` found a torn tail: the next save cuts it, even with nothing
    /// queued.
    torn: bool,
    /// The next save writes the file whole: set when `open` skipped a
    /// corrupt line and when dead bytes come to exceed live ones.
    rewrite: bool,
}

impl Log {
    /// Queues whole lines; the first ever are preceded by the version line.
    fn queue(&mut self, lines: &str) {
        if self.len == 0 && self.pending.is_empty() {
            self.pending.push_str(VERSION_LINE);
        }
        self.pending.push_str(lines);
    }

    /// Appends the queued lines as one write. `Ok(false)`, nothing
    /// written, when the file has to be written whole instead. On an error
    /// the lines stay queued for the next save.
    fn append(&mut self, path: &Path) -> Result<bool, String> {
        if self.rewrite {
            return Ok(false);
        }
        if self.pending.is_empty() && !self.torn {
            return Ok(true);
        }
        let err = |e: std::io::Error| format!("append {}: {e}", path.display());
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(err)?;
        let on_disk = file.metadata().map_err(err)?.len();
        if on_disk < self.len {
            // Removed or replaced under the daemon: the lines this process
            // wrote are gone, and the entries in memory are what is left.
            self.rewrite = true;
            return Ok(false);
        }
        if on_disk > self.len {
            file.set_len(self.len).map_err(err)?;
        }
        file.write_all(self.pending.as_bytes()).map_err(err)?;
        file.flush().map_err(err)?;
        self.len += self.pending.len() as u64;
        self.pending.clear();
        self.torn = false;
        Ok(true)
    }

    /// Replaces the file with `text` atomically
    /// ([`serde_json::replace_file`]: the file is the old log or the new
    /// one, never a mix).
    fn write_whole(&mut self, path: &Path, text: &str) -> Result<(), String> {
        serde_json::replace_file(path, text)
            .map_err(|e| format!("replace {}: {e}", path.display()))?;
        self.len = text.len() as u64;
        self.pending.clear();
        self.torn = false;
        self.rewrite = false;
        Ok(())
    }
}

/// The shared warm store: caches plus persisted records.
#[derive(Debug)]
pub struct WarmStore {
    path: Option<PathBuf>,
    entries: Mutex<BTreeMap<String, Slot>>,
    caches: Mutex<HashMap<String, ClassCaches>>,
    /// Taken after `entries` where both are held. Held across a save's
    /// write, so concurrent workers' lines reach the file in queue order.
    log: Mutex<Log>,
    /// Store-wide serialized-entry byte budget; 0 = unlimited.
    byte_budget: AtomicU64,
    /// LRU clock: next `last_used` tick.
    clock: AtomicU64,
    /// Entries evicted by byte-budget compaction over this process's
    /// lifetime.
    evictions: AtomicU64,
}

impl WarmStore {
    /// An in-memory store with no persistence (caches still shared across
    /// jobs within the process).
    pub fn in_memory() -> WarmStore {
        WarmStore {
            path: None,
            entries: Mutex::new(BTreeMap::new()),
            caches: Mutex::new(HashMap::new()),
            log: Mutex::new(Log::default()),
            byte_budget: AtomicU64::new(0),
            clock: AtomicU64::new(1),
            evictions: AtomicU64::new(0),
        }
    }

    /// Opens (or creates) a persistent store at `path`, re-priming the
    /// per-class measurement caches by replaying every stored record to
    /// its program signature. A missing or empty file is an empty store.
    /// The lines after the version line are read as every JSON-lines file
    /// is ([`serde_json::read_lines`]): a corrupt one is skipped, counted,
    /// and left out when the next save writes the file whole; bytes after
    /// the last newline are a torn append, counted too and cut by the next
    /// save. Only a first line other than the version line is an error: a
    /// damaged version line cannot be told from another build's format,
    /// and rewriting that file would destroy it (the operator should move
    /// it aside). Nothing is written here.
    pub fn open(path: impl AsRef<Path>) -> Result<(WarmStore, StoreLoadStats), String> {
        let path = path.as_ref();
        let mut store = WarmStore::in_memory();
        store.path = Some(path.to_path_buf());
        let mut stats = StoreLoadStats::default();
        let data = match std::fs::read(path) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(format!("read {}: {e}", path.display())),
        };
        let Some(lines) = data.strip_prefix(VERSION_LINE.as_bytes()) else {
            // Nothing yet, or a first save cut inside its version line.
            if VERSION_LINE.as_bytes().starts_with(&data) {
                return Ok((store, stats));
            }
            return Err(format!(
                "store {} is not a version-{STORE_VERSION} log",
                path.display()
            ));
        };
        let whole = lines.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        let mut entries: BTreeMap<String, Slot> = BTreeMap::new();
        let skipped = serde_json::read_lines(&lines[..whole], |line, len| match line {
            Line::Evict(key) => {
                entries.remove(&key);
            }
            Line::Entry(entry) => entries
                .entry(entry.key.clone())
                .or_default()
                .fold(entry, len),
        })
        .expect("a read from memory does not fail");
        let log = Log {
            len: (VERSION_LINE.len() + whole) as u64,
            torn: whole < lines.len(),
            rewrite: skipped > 0,
            ..Log::default()
        };
        stats.skipped = skipped + usize::from(log.torn);
        let mut max_tick = 0;
        for slot in entries.values() {
            stats.entries += 1;
            stats.records += slot.records.len();
            max_tick = max_tick.max(slot.head.last_used);
            let (primed, failed) = store.prime_class(slot);
            stats.primed += primed;
            stats.replay_failures += failed;
        }
        store.clock.store(max_tick + 1, Ordering::Relaxed);
        store.entries = Mutex::new(entries);
        store.log = Mutex::new(log);
        Ok((store, stats))
    }

    fn lock_entries(&self) -> MutexGuard<'_, BTreeMap<String, Slot>> {
        self.entries.lock().expect("store lock poisoned")
    }

    fn lock_log(&self) -> MutexGuard<'_, Log> {
        self.log.lock().expect("store log lock poisoned")
    }

    /// The class-cache map, whether or not a holder panicked: every holder
    /// makes one `insert` or `remove`, so no panic leaves it half-changed.
    fn lock_caches(&self) -> MutexGuard<'_, HashMap<String, ClassCaches>> {
        self.caches.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Replays one entry's records into its class measurement cache.
    /// Returns `(primed, replay_failures)`.
    fn prime_class(&self, slot: &Slot) -> (usize, usize) {
        let head = &slot.head;
        let Some(dag) = build_case(&head.op, head.shape, head.batch) else {
            // Unknown workload (e.g. a store written by a newer binary):
            // keep the records, just don't prime from them.
            return (0, slot.records.len());
        };
        let cache = self.measure_cache(&head.key);
        let mut primed = 0;
        let mut failed = 0;
        for r in &slot.records {
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

    /// Poisons the class-cache lock as a holder that panics would.
    #[cfg(test)]
    pub(crate) fn poison_caches(&self) {
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _caches = self.caches.lock();
                panic!("a holder of the class caches panics");
            });
            assert!(holder.join().is_err());
        });
        assert!(self.caches.is_poisoned());
    }

    /// The caches of a workload class, created on first use.
    fn class_caches(&self, class_key: &str) -> ClassCaches {
        self.lock_caches()
            .entry(class_key.to_string())
            .or_insert_with(|| ClassCaches {
                measure: Arc::new(SigCache::new(MEASURE_CACHE_CAPACITY)),
                features: Arc::new(SigCache::new(FEATURE_CACHE_CAPACITY)),
                models: Arc::new(SigCache::new(MODEL_MEMO_CAPACITY)),
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

    /// The model memo and the feature rows of measured programs for a
    /// workload class, as `TuningSession::share_models` takes them (both
    /// are pure in their keys; per class because a class is what the byte
    /// budget evicts).
    pub fn model_caches(&self, class_key: &str) -> (Arc<ModelMemo>, Arc<SigCache<FeatureBlock>>) {
        let caches = self.class_caches(class_key);
        (caches.models, caches.features)
    }

    /// Stored tuning records for a class (for opt-in warm starts). Counts
    /// as a use for LRU compaction: the tick is queued as a line without
    /// records, so the file says what memory does whenever it is saved.
    pub fn records_for(&self, class_key: &str) -> Vec<TuningRecordLog> {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.lock_entries();
        let Some(slot) = entries.get_mut(class_key) else {
            return Vec::new();
        };
        slot.head.last_used = tick;
        let head = slot.head_json();
        if self.path.is_some() {
            self.lock_log().queue(&entry_line(&head, ""));
        }
        slot.records.clone()
    }

    /// Best stored seconds for a class, if any job has found one.
    pub fn best_seconds_for(&self, class_key: &str) -> Option<f64> {
        self.lock_entries()
            .get(class_key)
            .and_then(|s| s.head.best_seconds)
    }

    /// Merges a finished job's tuning log into the store (deduplicated by
    /// step history, capped per entry) and updates the class's best, over
    /// every valid record of the log. The measurement cache is already
    /// warm — the job wrote into it while running — so only the persisted
    /// layer needs the records: the job's line is queued for the next
    /// [`WarmStore::save`]. Returns the number of newly absorbed
    /// (deduplicated) records, which the daemon's journal records per job.
    pub fn absorb(&self, spec: &JobSpec, faults: &str, log: &[TuningRecordLog]) -> usize {
        let key = spec.class_key(faults);
        let tick = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut entries = self.lock_entries();
        let slot = entries.entry(key.clone()).or_insert_with(|| Slot {
            head: StoreEntry {
                key: key.clone(),
                op: spec.op.clone(),
                shape: spec.shape,
                batch: spec.batch,
                target: spec.target.clone(),
                faults: faults.to_string(),
                ..StoreEntry::default()
            },
            ..Slot::default()
        });
        slot.head.jobs_absorbed += 1;
        slot.head.last_used = tick;
        // The records this job adds, and their JSON as array elements: a
        // record's one serialisation, for the line and for the entry's size.
        let mut fresh = Vec::new();
        let mut added = String::new();
        for r in log {
            if slot.admits(r) {
                if !fresh.is_empty() {
                    added.push(',');
                }
                r.write_json(&mut added);
                fresh.push(r.clone());
            }
            if r.is_valid() {
                // (not `map_or`/`is_none_or`: the latter postdates the MSRV)
                let better = match slot.head.best_seconds {
                    Some(b) => r.seconds < b,
                    None => true,
                };
                if better {
                    slot.head.best_seconds = Some(r.seconds);
                }
            }
        }
        let absorbed = fresh.len();
        slot.extend(fresh, added.len());
        let head = slot.head_json();
        let evicted = self.evict_over_budget(&mut entries, &key);
        if self.path.is_some() {
            let mut log = self.lock_log();
            log.queue(&entry_line(&head, &added));
            for key in &evicted {
                let key = serde_json::to_string(key).expect("class key serializes");
                log.queue(&format!("{{\"evict\":{key}}}\n"));
            }
            // What a rewrite would leave: the version line and a line per entry.
            let live =
                VERSION_LINE.len() as u64 + entries.values().map(|s| s.bytes() + 1).sum::<u64>();
            if log.len + log.pending.len() as u64 > 2 * live {
                log.rewrite = true;
            }
        }
        absorbed
    }

    /// Evicts least-recently-used entries (never `keep_key`, the entry the
    /// caller just touched) until the summed serialized entry size fits
    /// the byte budget, and returns their keys in eviction order. A no-op
    /// when no budget is set.
    fn evict_over_budget(
        &self,
        entries: &mut BTreeMap<String, Slot>,
        keep_key: &str,
    ) -> Vec<String> {
        let budget = self.byte_budget.load(Ordering::Relaxed);
        let mut evicted = Vec::new();
        while budget > 0 && entries.values().map(Slot::bytes).sum::<u64>() > budget {
            let Some(victim) = entries
                .values()
                .filter(|s| s.head.key != keep_key)
                .min_by_key(|s| s.head.last_used)
                .map(|s| s.head.key.clone())
            else {
                break;
            };
            entries.remove(&victim);
            // Drop the class's caches too: with the records gone the
            // measurement cache can no longer be re-primed after a restart,
            // and keeping them would hold the evicted memory live.
            self.lock_caches().remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            evicted.push(victim);
        }
        evicted
    }

    /// Sets the store-wide serialized-entry byte budget (`None` =
    /// unlimited). Enforced lazily, on each absorb.
    pub fn set_byte_budget(&self, budget: Option<u64>) {
        self.byte_budget
            .store(budget.unwrap_or(0), Ordering::Relaxed);
    }

    /// Serialized size of all entries, in bytes.
    pub fn resident_bytes(&self) -> u64 {
        self.lock_entries().values().map(Slot::bytes).sum()
    }

    /// Entries evicted by byte-budget compaction in this process.
    pub fn eviction_count(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of class entries.
    pub fn entry_count(&self) -> usize {
        self.lock_entries().len()
    }

    /// Total records across all entries.
    pub fn record_count(&self) -> usize {
        self.lock_entries().values().map(|s| s.records.len()).sum()
    }

    /// A copy of every entry, in key order.
    pub fn entries(&self) -> Vec<StoreEntry> {
        self.lock_entries().values().map(Slot::entry).collect()
    }

    /// Brings the store file up to date: appends the lines queued since
    /// the last save, or — when the file is due a rewrite — writes it
    /// whole. Free when nothing is queued, and a no-op for in-memory
    /// stores. After an error everything unsaved stays queued, and the
    /// next save tries again.
    pub fn save(&self) -> Result<(), String> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        if self.lock_log().append(path)? {
            return Ok(());
        }
        let entries = self.lock_entries();
        let mut log = self.lock_log();
        let mut text = String::from(VERSION_LINE);
        for slot in entries.values() {
            text.push_str(&serde_json::to_string(&slot.entry()).expect("store entry serializes"));
            text.push('\n');
        }
        // An absorb that comes now waits for the log and lands after this.
        drop(entries);
        log.write_whole(path, &text)
    }
}

/// Hash of a record's step history (the dedup key — two records with the
/// same steps describe the same program).
fn steps_hash(r: &TuningRecordLog) -> u64 {
    let mut h = DefaultHasher::new();
    r.steps.hash(&mut h);
    h.finish()
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
    fn a_full_entry_still_learns_a_better_time() {
        let store = WarmStore::in_memory();
        let s = spec();
        let full: Vec<TuningRecordLog> = (0..MAX_RECORDS_PER_ENTRY as i64)
            .map(|k| record_with_steps(k as u64, 2e-3, k))
            .collect();
        assert_eq!(store.absorb(&s, "none", &full), MAX_RECORDS_PER_ENTRY);
        // No room for the newest record, but its time counts.
        let late = [
            record_with_steps(1, 3e-3, -1),
            record_with_steps(2, 1e-3, -2),
        ];
        assert_eq!(store.absorb(&s, "none", &late), 0);
        assert_eq!(store.record_count(), MAX_RECORDS_PER_ENTRY);
        assert_eq!(store.best_seconds_for(&s.class_key("none")), Some(1e-3));
    }

    #[test]
    fn a_log_line_is_the_entry_as_serde_writes_it() {
        // …whatever its strings hold: the splice finds the key, not a look-alike.
        let entry = StoreEntry {
            key: "k \"records\":[ k".into(),
            faults: "\"records\":[]".into(),
            best_seconds: Some(2e-3),
            records: vec![record(1, 2e-3), record_with_steps(2, f64::INFINITY, 4)],
            ..StoreEntry::default()
        };
        let head = StoreEntry {
            records: Vec::new(),
            ..entry.clone()
        };
        let records: Vec<String> = entry
            .records
            .iter()
            .map(|r| serde_json::to_string(r).unwrap())
            .collect();
        assert_eq!(
            entry_line(&serde_json::to_string(&head).unwrap(), &records.join(",")),
            serde_json::to_string(&entry).unwrap() + "\n"
        );
        assert_eq!(VERSION_LINE, format!("{{\"version\":{STORE_VERSION}}}\n"));
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
    fn a_first_save_cut_inside_the_version_line_is_an_empty_store() {
        let dir = std::env::temp_dir().join(format!("ansor-store-c-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("store.json");
        for cut in 0..=VERSION_LINE.len() {
            std::fs::write(&path, &VERSION_LINE[..cut]).unwrap();
            let (store, stats) = WarmStore::open(&path).unwrap();
            assert_eq!(stats, StoreLoadStats::default(), "cut {cut}");
            store.absorb(&spec(), "none", &[record(1, 3e-3)]);
            store.save().unwrap();
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(text.starts_with(VERSION_LINE) && text.lines().count() == 2);
            assert_eq!(WarmStore::open(&path).unwrap().1.records, 1, "cut {cut}");
        }
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
    fn a_poisoned_class_cache_lock_still_hands_out_and_evicts_caches() {
        let store = WarmStore::in_memory();
        store.poison_caches();
        let a = spec();
        let mut b = spec();
        b.shape = 1;
        let cache = store.measure_cache(&a.class_key("none"));
        assert!(Arc::ptr_eq(
            &cache,
            &store.measure_cache(&a.class_key("none"))
        ));
        store.absorb(&a, "none", &[record_with_steps(1, 2e-3, 2)]);
        store.set_byte_budget(Some(1));
        store.absorb(&b, "none", &[record_with_steps(1, 2e-3, 4)]);
        assert_eq!(store.eviction_count(), 1);
        // Evicting the class dropped its caches: asking again makes new ones.
        assert!(!Arc::ptr_eq(
            &cache,
            &store.measure_cache(&a.class_key("none"))
        ));
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
