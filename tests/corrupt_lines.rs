//! One damaged line costs that line, in every JSON-lines file the tuner and
//! the daemon read back: the `--log` record log, a trace, the daemon's job
//! journal and its warm store all go through `serde_json::read_lines`.
//!
//! The files are real — a short session's log and trace, and the journal
//! and store a daemon leaves after three jobs. Each is damaged by seed: a
//! byte flipped (into invalid UTF-8, or at a line's first or last byte into
//! any other ASCII byte), a garbage line put between two lines, a line
//! duplicated, blank lines added; and separately its last line is cut at
//! every offset. For every damaged file, every loader must:
//! - return, not error or panic;
//! - load exactly what it loads from the file's untouched lines alone;
//! - count exactly the damaged lines as skipped.
//!
//! The warm store must also save itself clean: reopened after the next
//! save, it skips nothing and holds the same entries.
//!
//! A checkpoint reads differently: its header names a prefix of its record
//! log, and that prefix is read whole or refused. A save killed between
//! its two writes leaves the log longer than the header says and a temp
//! file half written; load must give the save before it, at every cut.

use std::path::{Path, PathBuf};

use ansor::core::{
    load_records, save_records, CheckpointFile, SearchTask, TuneCheckpoint, TuningOptions,
    TuningRecordLog, TuningSession,
};
use ansor::serve::journal::{read_journal, JobJournal};
use ansor::serve::{Client, JobSpec, ServeConfig, Server, WarmStore};
use ansor::workloads::build_case;
use hwsim::{FaultPlan, HardwareTarget, Measurer};
use serde::Serialize;
use telemetry::{read_trace_file, Telemetry};

const TRIALS: usize = 16;

fn spec(seed: u64) -> JobSpec {
    JobSpec {
        op: "GMM".into(),
        shape: 0,
        batch: 1,
        target: "intel".into(),
        trials: TRIALS,
        seed,
        warm_start: None,
        threads: None,
        faults: None,
        prerank_keep: None,
        transfer: None,
    }
}

/// Writes a session's `--log` and trace, and a daemon's journal and store,
/// into `dir`; returns their paths in that order.
fn real_files(dir: &Path) -> [PathBuf; 4] {
    let [log, trace, journal, store] = [
        "records.jsonl",
        "trace.jsonl",
        "journal.jsonl",
        "store.json",
    ]
    .map(|f| dir.join(f));

    let s = spec(1);
    let target = HardwareTarget::by_name(&s.target).unwrap();
    let task = SearchTask::new(
        s.task_name(),
        build_case(&s.op, s.shape, s.batch).unwrap(),
        target.clone(),
    );
    let telemetry = Telemetry::to_file(&trace).unwrap();
    let options = TuningOptions {
        num_measure_trials: s.trials,
        seed: s.seed,
        telemetry: telemetry.clone(),
        ..Default::default()
    };
    let mut session =
        TuningSession::new(task, options, Measurer::new(target), s.fingerprint("none"));
    session.run(|_| true);
    telemetry.flush();
    save_records(&log, session.log()).unwrap();

    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_cap: 4,
        store_path: Some(store.to_string_lossy().into_owned()),
        journal_path: Some(journal.to_string_lossy().into_owned()),
        ..Default::default()
    })
    .unwrap();
    let mut client = Client::connect(&server.local_addr().to_string()).unwrap();
    // Two cold jobs, then a warm repeat: its line holds no records.
    for seed in [2, 3, 2] {
        let job = client.submit(spec(seed)).unwrap();
        assert_eq!(client.wait(&job).unwrap().state, "done");
    }
    client.shutdown(true).unwrap();
    server.wait();
    [log, trace, journal, store]
}

/// What a loader read from a file: each item as JSON, and the skipped count.
type Loaded = (Vec<String>, usize);

type Loader = fn(&Path) -> Loaded;

fn json<T: Serialize>(items: &[T]) -> Vec<String> {
    items
        .iter()
        .map(|i| serde_json::to_string(i).unwrap())
        .collect()
}

fn load_log(path: &Path) -> Loaded {
    let (records, skipped) = load_records(path).unwrap();
    (json(&records), skipped)
}

fn load_trace(path: &Path) -> Loaded {
    let (lines, skipped) = read_trace_file(path).unwrap();
    (json(&lines), skipped)
}

/// `trace-report --serve`'s read, and the daemon's replay on start-up.
fn load_journal(path: &Path) -> Loaded {
    let (events, skipped) = read_journal(path).unwrap();
    let (_, replay) = JobJournal::open(path).unwrap();
    assert_eq!((replay.events, replay.skipped), (events.len(), skipped));
    (json(&events), skipped)
}

/// The daemon's open, then the save after it: the file it leaves reopens
/// with nothing skipped and the same entries.
fn load_store(path: &Path) -> Loaded {
    let (store, stats) = WarmStore::open(path).unwrap();
    store.save().unwrap();
    let (again, clean) = WarmStore::open(path).unwrap();
    assert_eq!(clean.skipped, 0, "after the save");
    assert_eq!(again.entries(), store.entries(), "after the save");
    (json(&store.entries()), stats.skipped)
}

/// One line of a damaged file.
#[derive(Clone)]
enum Piece {
    Kept(Vec<u8>),
    Damaged(Vec<u8>),
    Blank(&'static [u8]),
}

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// Seeded damage to `pieces`, never before `first` (the store's version
/// line stays where it is).
fn damage(pieces: &mut Vec<Piece>, first: usize, rng: &mut Rng) {
    for _ in 0..1 + rng.below(4) {
        let at = first + rng.below(pieces.len() - first);
        match rng.below(4) {
            0 => {
                let Piece::Kept(line) = &pieces[at] else {
                    continue;
                };
                let mut line = line.clone();
                let end = line.len() - 1; // the newline stays
                match rng.below(3) {
                    // Never UTF-8, wherever it lands.
                    0 => line[rng.below(end)] = 0xff,
                    // A JSON object line with its `{` or `}` changed is no
                    // longer one value, whatever ASCII byte replaces it.
                    k => {
                        let i = if k == 1 { 0 } else { end - 1 };
                        let was = line[i];
                        line[i] = (0x01..0x80u8)
                            .filter(|&b| b != was)
                            .nth(rng.below(126))
                            .unwrap();
                    }
                }
                pieces[at] = Piece::Damaged(line);
            }
            1 => {
                let mut line = vec![[b'#', b'x', 0xff][rng.below(3)]];
                let alphabet = b"{}[]\":,0aZ \xc3\xff\t";
                line.extend((0..rng.below(40)).map(|_| alphabet[rng.below(alphabet.len())]));
                line.push(b'\n');
                pieces.insert(at, Piece::Damaged(line));
            }
            2 => {
                if let Piece::Kept(line) = &pieces[at] {
                    pieces.insert(at + 1, Piece::Kept(line.clone()));
                }
            }
            _ => pieces.insert(
                at,
                Piece::Blank([&b"\n"[..], b"  \n", b"\r\n"][rng.below(3)]),
            ),
        }
    }
}

/// Loads `pieces` written out whole and with only their kept lines, and
/// holds the first to the second.
fn check(load: Loader, path: &Path, pieces: &[Piece], at: &str) {
    let bytes = |all: bool| -> Vec<u8> {
        let mut out = Vec::new();
        for p in pieces {
            match p {
                Piece::Kept(l) => out.extend_from_slice(l),
                Piece::Damaged(l) if all => out.extend_from_slice(l),
                Piece::Blank(l) if all => out.extend_from_slice(l),
                _ => {}
            }
        }
        out
    };
    std::fs::write(path, bytes(false)).unwrap();
    let (want, none) = load(path);
    assert_eq!(none, 0, "{at}: untouched lines alone");
    std::fs::write(path, bytes(true)).unwrap();
    let (got, skipped) = load(path);
    let damaged = pieces
        .iter()
        .filter(|p| matches!(p, Piece::Damaged(_)))
        .count();
    assert_eq!(skipped, damaged, "{at}");
    assert_eq!(got, want, "{at}");
}

#[test]
fn every_loader_skips_and_counts_exactly_the_damaged_lines() {
    let dir = std::env::temp_dir().join(format!("ansor-corrupt-lines-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let [log, trace, journal, store] = real_files(&dir);
    let loaders: [(&str, &Path, Loader, usize); 4] = [
        ("record log", &log, load_log, 0),
        ("trace", &trace, load_trace, 0),
        ("journal", &journal, load_journal, 0),
        ("store", &store, load_store, 1),
    ];
    let scratch = dir.join("damaged");
    for (name, path, load, first) in loaders {
        let text = std::fs::read(path).unwrap();
        let lines: Vec<Piece> = text
            .split_inclusive(|&b| b == b'\n')
            .map(|l| Piece::Kept(l.to_vec()))
            .collect();
        assert!(lines.len() >= first + 3, "{name}: {} lines", lines.len());
        // Every item of the undamaged file loads.
        let (items, skipped) = load(path);
        assert_eq!((items.is_empty(), skipped), (false, 0), "{name}");
        if first == 0 {
            assert_eq!(items.len(), lines.len(), "{name}");
        }

        for seed in 1..=24u64 {
            let mut pieces = lines.clone();
            damage(
                &mut pieces,
                first,
                &mut Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            );
            check(load, &scratch, &pieces, &format!("{name}, seed {seed}"));
        }

        // The last line cut at every offset: gone at 0, torn after.
        let Some((Piece::Kept(last), before)) = lines.split_last() else {
            unreachable!()
        };
        for cut in 0..last.len() {
            let mut pieces = before.to_vec();
            if cut > 0 {
                pieces.push(Piece::Damaged(last[..cut].to_vec()));
            }
            check(load, &scratch, &pieces, &format!("{name}, cut {cut}"));
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A faulty 12-trial GMM session, 3 trials a round.
fn faulty_session() -> TuningSession {
    let target = HardwareTarget::intel_20core();
    let task = SearchTask::new("GMM:s0b1", build_case("GMM", 0, 1).unwrap(), target.clone());
    let options = TuningOptions {
        num_measure_trials: 12,
        measures_per_round: 3,
        init_population: 16,
        seed: 3,
        ..Default::default()
    };
    let plan = FaultPlan {
        transient_prob: 0.25,
        timeout_prob: 0.05,
        cursed_prob: 0.1,
        max_retries: 1,
        ..FaultPlan::default()
    };
    TuningSession::new(
        task,
        options,
        Measurer::with_faults(target, plan),
        "torn-save",
    )
}

/// Runs `session` to its end, saving to `file` after every round.
fn run_saving(session: &mut TuningSession, file: &mut CheckpointFile) {
    while session.step() > 0 {
        file.save(session.checkpoint()).unwrap();
    }
}

/// The records the log at `path` holds, and the lines it skipped.
fn log_records(path: &str) -> (Vec<TuningRecordLog>, usize) {
    load_records(path).unwrap()
}

#[test]
fn a_save_killed_between_its_writes_loads_the_save_before_it() {
    let dir = std::env::temp_dir().join(format!("ansor-torn-save-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.ckpt");

    // The uninterrupted run, with what each save left behind.
    let mut full = faulty_session();
    let mut file = CheckpointFile::create(&path, None).unwrap();
    let mut saves: Vec<(Vec<u8>, u64, TuneCheckpoint)> = Vec::new();
    while full.step() > 0 {
        file.save(full.checkpoint()).unwrap();
        let state = full.checkpoint();
        let log_len = std::fs::metadata(file.log()).unwrap().len();
        saves.push((std::fs::read(&path).unwrap(), log_len, state));
    }
    assert!(saves.len() >= 3, "{} saves", saves.len());
    assert!(full.log().iter().any(|r| r.error.is_some()), "a faulty run");
    let log = file.log().to_string();
    let log_bytes = std::fs::read(&log).unwrap();
    let [.., (prev_header, prev_len, prev_state), (last_header, _, _)] = &saves[..] else {
        unreachable!()
    };

    // Killed after the last save's append started, before its rename.
    std::fs::write(&path, prev_header).unwrap();
    let torn = &last_header[..last_header.len() / 2];
    std::fs::write(dir.join("run.ckpt.tmp"), torn).unwrap();
    let cuts = *prev_len as usize..=log_bytes.len();
    for cut in cuts.clone() {
        std::fs::write(&log, &log_bytes[..cut]).unwrap();
        let (loaded, _, _) = CheckpointFile::load(&path).unwrap();
        assert_eq!(&loaded, prev_state, "log cut at {cut}");
    }

    // A resume from the save before, wherever the log was cut, ends as the
    // uninterrupted run did, and its saves leave each record once.
    for cut in [
        cuts.start(),
        &(cuts.start() + cuts.end()).div_euclid(2),
        cuts.end(),
    ] {
        std::fs::write(&path, prev_header).unwrap();
        std::fs::write(&log, &log_bytes[..*cut]).unwrap();
        let (loaded, _, mut file) = CheckpointFile::load(&path).unwrap();
        let mut resumed = faulty_session();
        resumed.restore(&loaded).unwrap();
        run_saving(&mut resumed, &mut file);
        assert_eq!(resumed.log(), full.log(), "resumed at cut {cut}");
        assert_eq!(
            resumed.best_seconds().to_bits(),
            full.best_seconds().to_bits()
        );
        assert_eq!(log_records(&log), (full.log().to_vec(), 0), "cut {cut}");
        assert_eq!(std::fs::read(&log).unwrap(), log_bytes, "cut {cut}");
    }

    // A flipped byte inside the prefix refuses the resume, naming the log.
    std::fs::write(&path, prev_header).unwrap();
    let mut flipped = log_bytes.clone();
    flipped[*prev_len as usize / 2] ^= 0x01;
    std::fs::write(&log, &flipped).unwrap();
    let err = CheckpointFile::load(&path).unwrap_err();
    assert!(err.contains(&format!("record log {log}")), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}
