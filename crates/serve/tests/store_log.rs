//! The warm store's record log: what a sequence of absorbs, evictions,
//! reads and restarts leaves (against a plain in-memory model), what a
//! torn, unwritable or half-rewritten file does, what a job costs on disk,
//! and two workers saving at once.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};

use ansor_core::TuningRecordLog;
use ansor_serve::{JobSpec, StoreEntry, WarmStore};
use ansor_workloads::build_case;
use tensor_ir::Step;

/// GMM shape `shape` on intel: one workload class per shape.
fn spec(shape: usize) -> JobSpec {
    JobSpec {
        op: "GMM".into(),
        shape,
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

/// A record whose program is named by `k`: one pragma on the matmul (it
/// replays), or on a node no DAG has when `k` is a multiple of 7.
fn record(k: i64, seconds: f64) -> TuningRecordLog {
    TuningRecordLog {
        task: "GMM".into(),
        trial: k as u64,
        steps: vec![Step::Pragma {
            node: if k % 7 == 0 { "nope" } else { "C" }.into(),
            max_unroll: k,
        }],
        seconds,
        error: None,
    }
}

fn failed(k: i64) -> TuningRecordLog {
    TuningRecordLog {
        seconds: f64::INFINITY,
        error: Some("build failed".into()),
        ..record(k, 0.0)
    }
}

fn records(ks: std::ops::Range<i64>) -> Vec<TuningRecordLog> {
    ks.map(|k| record(k, 1e-3 + k as f64 * 1e-6)).collect()
}

/// A fresh directory of this test's own.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ansor-store-log-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn json_len(entry: &StoreEntry) -> u64 {
    serde_json::to_string(entry).unwrap().len() as u64
}

/// The line a job leaves: the class after it, holding the job's records.
fn line_of(after: &StoreEntry, added: &[TuningRecordLog]) -> String {
    let line = StoreEntry {
        records: added.to_vec(),
        ..after.clone()
    };
    serde_json::to_string(&line).unwrap() + "\n"
}

fn entry_of(store: &WarmStore, spec: &JobSpec) -> StoreEntry {
    let key = spec.class_key("none");
    let found = store.entries().into_iter().find(|e| e.key == key);
    found.expect("the class is stored")
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// The store's semantics with nothing to make them cheap: whole entries,
/// sizes by serialising them, dedup by comparing steps.
#[derive(Default)]
struct Model {
    entries: BTreeMap<String, StoreEntry>,
    clock: u64,
    budget: u64,
    evictions: u64,
}

impl Model {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn absorb(&mut self, spec: &JobSpec, log: &[TuningRecordLog]) -> usize {
        let key = spec.class_key("none");
        let tick = self.tick();
        let entry = self
            .entries
            .entry(key.clone())
            .or_insert_with(|| StoreEntry {
                key: key.clone(),
                op: spec.op.clone(),
                shape: spec.shape,
                batch: spec.batch,
                target: spec.target.clone(),
                faults: "none".into(),
                ..StoreEntry::default()
            });
        entry.jobs_absorbed += 1;
        entry.last_used = tick;
        let mut absorbed = 0;
        for r in log {
            if !entry.records.iter().any(|have| have.steps == r.steps) {
                entry.records.push(r.clone());
                absorbed += 1;
            }
            if r.is_valid() {
                let best = entry.best_seconds.unwrap_or(f64::INFINITY);
                entry.best_seconds = Some(best.min(r.seconds));
            }
        }
        while self.budget > 0 && self.entries.values().map(json_len).sum::<u64>() > self.budget {
            let others = self.entries.values().filter(|e| e.key != key);
            let Some(victim) = others.min_by_key(|e| e.last_used).map(|e| e.key.clone()) else {
                break;
            };
            self.entries.remove(&victim);
            self.evictions += 1;
        }
        absorbed
    }

    fn records_for(&mut self, key: &str) -> Vec<TuningRecordLog> {
        let tick = self.tick();
        let Some(entry) = self.entries.get_mut(key) else {
            return Vec::new();
        };
        entry.last_used = tick;
        entry.records.clone()
    }

    /// A restart keeps the entries; the clock resumes past the latest use
    /// of any that are left.
    fn restart(&mut self) {
        let ticks = self.entries.values().map(|e| e.last_used);
        self.clock = ticks.max().unwrap_or(0);
        self.evictions = 0;
    }

    /// Programs a restart primes `entry`'s measurement cache with.
    fn primed(entry: &StoreEntry) -> usize {
        let dag = build_case(&entry.op, entry.shape, entry.batch).unwrap();
        let replayed = entry
            .records
            .iter()
            .filter_map(|r| r.replay(dag.clone()).ok());
        replayed
            .map(|s| s.signature())
            .collect::<HashSet<_>>()
            .len()
    }

    fn assert_matches(&self, store: &WarmStore, at: &str) {
        let want: Vec<StoreEntry> = self.entries.values().cloned().collect();
        assert_eq!(store.entries(), want, "{at}");
        let records: usize = want.iter().map(|e| e.records.len()).sum();
        assert_eq!(store.record_count(), records, "{at}");
        assert_eq!(store.entry_count(), want.len(), "{at}");
        let bytes: u64 = want.iter().map(json_len).sum();
        assert_eq!(store.resident_bytes(), bytes, "{at}");
        assert_eq!(store.eviction_count(), self.evictions, "{at}");
    }
}

#[test]
fn any_sequence_of_jobs_reads_evictions_and_restarts_matches_the_model() {
    let dir = scratch("model");
    for seed in 1..=16u64 {
        let path = dir.join(format!("store-{seed}.json"));
        let mut rng = Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut model = Model::default();
        let (mut store, _) = WarmStore::open(&path).unwrap();
        for op in 0..80 {
            let at = format!("seed {seed} op {op}");
            let class = spec(rng.below(3) as usize);
            match rng.below(10) {
                0..=4 => {
                    // Logs overlap: a window of the class's programs, some
                    // failed builds, times that differ from job to job.
                    let start = rng.below(50) as i64;
                    let len = rng.below(30) as i64;
                    let log: Vec<TuningRecordLog> = (start..start + len)
                        .map(|k| match rng.below(8) {
                            0 => failed(k),
                            _ => record(k, 1e-4 * (1 + rng.below(100)) as f64),
                        })
                        .collect();
                    let absorbed = store.absorb(&class, "none", &log);
                    assert_eq!(absorbed, model.absorb(&class, &log), "{at}");
                }
                5 => {
                    let key = class.class_key("none");
                    assert_eq!(store.records_for(&key), model.records_for(&key), "{at}");
                }
                6 => {
                    model.budget = [0, 1_500, 4_000, 9_000][rng.below(4) as usize];
                    store.set_byte_budget(Some(model.budget).filter(|&b| b > 0));
                }
                7 => store.save().unwrap(),
                _ => {
                    store.save().unwrap();
                    let (reopened, stats) = WarmStore::open(&path).unwrap();
                    store = reopened;
                    store.set_byte_budget(Some(model.budget).filter(|&b| b > 0));
                    model.restart();
                    let records: usize = model.entries.values().map(|e| e.records.len()).sum();
                    assert_eq!(
                        (stats.entries, stats.records),
                        (model.entries.len(), records)
                    );
                    assert_eq!(stats.primed + stats.replay_failures, records, "{at}");
                    for (key, entry) in &model.entries {
                        assert_eq!(store.measure_cache(key).len(), Model::primed(entry), "{at}");
                    }
                }
            }
            model.assert_matches(&store, &at);
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_file_cut_anywhere_in_its_last_line_opens_with_the_lines_before_it() {
    let dir = scratch("torn");
    let path = dir.join("store.json");
    let (store, _) = WarmStore::open(&path).unwrap();
    store.absorb(&spec(0), "none", &records(1..20));
    store.absorb(&spec(1), "none", &records(1..20));
    store.save().unwrap();
    let before = std::fs::read(&path).unwrap();
    let expected = WarmStore::open(&path).unwrap().0.entries();
    // The last line: an error string with a multi-byte character, so some
    // cuts also split a UTF-8 sequence.
    let mut last = failed(30);
    last.error = Some("dépassement".into());
    store.absorb(&spec(0), "none", &[record(29, 2e-3), last]);
    store.save().unwrap();
    let whole = std::fs::read(&path).unwrap();
    assert_eq!(&whole[..before.len()], &before[..], "a save only appends");
    assert_eq!(WarmStore::open(&path).unwrap().0.record_count(), 40);

    let cut_path = dir.join("cut.json");
    for cut in before.len()..whole.len() {
        std::fs::write(&cut_path, &whole[..cut]).unwrap();
        let (torn, stats) = WarmStore::open(&cut_path).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        assert_eq!(stats.records, 38, "cut {cut}");
        assert_eq!(torn.entries(), expected, "cut {cut}");
        // The next save cuts the tail and leaves whole lines.
        torn.absorb(&spec(1), "none", &[record(31, 3e-3)]);
        torn.save().unwrap();
        let (again, stats) =
            WarmStore::open(&cut_path).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        assert_eq!(stats.records, 39, "cut {cut}");
        assert_eq!(again.entries(), torn.entries(), "cut {cut}");
        let text = std::fs::read_to_string(&cut_path).unwrap();
        assert!(
            text.starts_with(std::str::from_utf8(&before).unwrap()),
            "cut {cut}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_job_costs_the_file_its_new_records_and_a_repeat_costs_it_none() {
    let dir = scratch("cost");
    let path = dir.join("store.json");
    let (store, _) = WarmStore::open(&path).unwrap();
    for shape in 0..3 {
        store.absorb(&spec(shape), "none", &records(0..500));
    }
    store.save().unwrap();
    assert_eq!(store.record_count(), 1_500);
    let before = std::fs::read_to_string(&path).unwrap();

    // 40 records, 25 of them new to the class.
    let job = records(485..525);
    assert_eq!(store.absorb(&spec(1), "none", &job), 25);
    store.save().unwrap();
    let after = std::fs::read_to_string(&path).unwrap();
    let line = line_of(&entry_of(&store, &spec(1)), &job[15..]);
    assert_eq!(after.strip_prefix(before.as_str()), Some(line.as_str()));

    // The same log again: a header, no record.
    assert_eq!(store.absorb(&spec(1), "none", &job), 0);
    store.save().unwrap();
    let again = std::fs::read_to_string(&path).unwrap();
    let line = line_of(&entry_of(&store, &spec(1)), &[]);
    assert_eq!(again.strip_prefix(after.as_str()), Some(line.as_str()));
    assert!(
        line.contains("\"records\":[]") && line.len() < 300,
        "{line}"
    );

    // And a save with nothing queued leaves the file alone.
    store.save().unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), again);
    let (reopened, stats) = WarmStore::open(&path).unwrap();
    assert_eq!(stats.records, 1_525);
    assert_eq!(reopened.entries(), store.entries());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn evictions_are_tombstones_until_dead_bytes_outweigh_live_ones() {
    let dir = scratch("dead");
    let path = dir.join("store.json");
    let (store, _) = WarmStore::open(&path).unwrap();
    store.absorb(&spec(0), "none", &records(0..40));
    store.absorb(&spec(1), "none", &records(0..2));
    store.absorb(&spec(2), "none", &records(0..2));
    store.save().unwrap();
    let three_classes = std::fs::read_to_string(&path).unwrap();

    // A budget one class short: the least recently used of the small ones
    // goes, and costs the file a tombstone after the job's own line.
    store.set_byte_budget(Some(store.resident_bytes() - 100));
    store.absorb(&spec(0), "none", &[]);
    assert_eq!(store.eviction_count(), 1);
    store.save().unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let added: Vec<&str> = text
        .strip_prefix(three_classes.as_str())
        .unwrap()
        .lines()
        .collect();
    let evict = format!("{{\"evict\":\"{}\"}}", spec(1).class_key("none"));
    assert_eq!(
        added,
        [
            line_of(&entry_of(&store, &spec(0)), &[]).trim_end(),
            evict.as_str()
        ]
    );
    let (reopened, stats) = WarmStore::open(&path).unwrap();
    assert_eq!((stats.entries, stats.records), (2, 42));
    assert_eq!(reopened.entries(), store.entries());

    // The big class goes: most of the file is dead, and it is written whole.
    store.set_byte_budget(Some(1_000));
    store.absorb(&spec(2), "none", &[]);
    assert_eq!(store.eviction_count(), 2);
    store.save().unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        text,
        format!(
            "{{\"version\":2}}\n{}",
            line_of(&entry_of(&store, &spec(2)), &records(0..2))
        )
    );
    assert_eq!(WarmStore::open(&path).unwrap().0.entries(), store.entries());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_failed_save_keeps_its_lines_for_the_next_one() {
    let dir = scratch("unwritable");
    let path = dir.join("not-yet").join("store.json");
    let (store, _) = WarmStore::open(&path).unwrap();
    store.absorb(&spec(0), "none", &records(0..10));
    let err = store.save().unwrap_err();
    assert!(err.contains("append"), "{err}");
    store.absorb(&spec(1), "none", &records(0..10));
    assert!(store.save().is_err());

    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    store.save().unwrap();
    let (reopened, stats) = WarmStore::open(&path).unwrap();
    assert_eq!((stats.entries, stats.records), (2, 20));
    assert_eq!(reopened.entries(), store.entries());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A corrupt interior line is skipped and counted, and the first save
/// writes the file whole without it; a temp file a killed rewrite left
/// behind is in nobody's way.
#[test]
fn a_corrupt_line_is_rewritten_away_past_a_leftover_temp_file() {
    let dir = scratch("corrupt");
    let path = dir.join("store.json");
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/store_pr14.json");
    let text = std::fs::read_to_string(fixture).unwrap();
    let (version, entry) = text.split_once('\n').unwrap();
    let bad = b"\n{\"batch\":\xff\n";
    std::fs::write(&path, [version.as_bytes(), bad, entry.as_bytes()].concat()).unwrap();
    let tmp = dir.join("store.json.tmp");
    std::fs::write(&tmp, "{\"version\":2}\n{\"batch\":1,\"best_sec").unwrap();

    let (store, stats) = WarmStore::open(&path).unwrap();
    assert_eq!((stats.entries, stats.records, stats.primed), (1, 24, 24));
    assert_eq!(stats.skipped, 1);
    store.save().unwrap();
    assert!(!tmp.exists());
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().next(), Some("{\"version\":2}"));
    assert_eq!(text.lines().count(), 2);
    let (reopened, stats) = WarmStore::open(&path).unwrap();
    assert_eq!((stats.entries, stats.records, stats.primed), (1, 24, 24));
    assert_eq!(stats.skipped, 0);
    assert_eq!(reopened.entries(), store.entries());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn two_workers_saving_at_once_lose_no_record() {
    const JOBS: i64 = 24;
    let dir = scratch("workers");
    let path = dir.join("store.json");
    let store = Arc::new(WarmStore::open(&path).unwrap().0);
    let start = Arc::new(Barrier::new(2));
    // Worker `w` has a class of its own and shares class 2 with the other;
    // in the shared class their logs overlap.
    let workers: Vec<_> = (0..2i64)
        .map(|w| {
            let (store, start) = (store.clone(), start.clone());
            std::thread::spawn(move || {
                start.wait();
                for job in 0..JOBS {
                    let class = if job % 2 == 0 { w as usize } else { 2 };
                    let from = job * 6 + w * 3;
                    store.absorb(&spec(class), "none", &records(from..from + 8));
                    store.save().unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    let text = std::fs::read_to_string(&path).unwrap();
    for line in text.lines() {
        serde_json::from_str::<serde_json::Value>(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
    let (reopened, _) = WarmStore::open(&path).unwrap();
    assert_eq!(reopened.entries(), store.entries());
    for class in 0..3 {
        let entry = entry_of(&reopened, &spec(class));
        let jobs = if class == 2 { JOBS } else { JOBS / 2 };
        assert_eq!(entry.jobs_absorbed, jobs as u64, "class {class}");
        let stored: HashSet<i64> = entry.records.iter().map(|r| r.trial as i64).collect();
        assert_eq!(
            stored.len(),
            entry.records.len(),
            "a program is stored once"
        );
        let absorbed: HashSet<i64> = (0..2i64)
            .filter(|&w| class == 2 || class as i64 == w)
            .flat_map(|w| {
                let jobs = (0..JOBS).filter(move |job| (job % 2 == 0) == (class != 2));
                jobs.flat_map(move |job| job * 6 + w * 3..job * 6 + w * 3 + 8)
            })
            .collect();
        assert_eq!(stored, absorbed, "class {class}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
