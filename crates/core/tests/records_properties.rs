//! Property tests for tuning-record persistence (`records.rs`):
//!
//! - a round trip through the JSON-lines format preserves every field of
//!   valid records, failed records (`seconds: null`), and legacy records
//!   (no `error` field);
//! - corrupted lines are skipped and *counted*, and never panic the
//!   loader, no matter how they are interleaved with valid lines;
//! - an append after a torn last line (a writer killed mid-line) loses
//!   only that line: every record appended after it loads.

use ansor_core::{load_records, save_records, TuningRecordLog};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use tensor_ir::{Annotation, Step};

/// A deterministic random record. Only realistic values are generated:
/// `seconds` is finite-positive or the `INFINITY` failure sentinel (the
/// format encodes every non-finite value as `null`, which loads back as
/// `INFINITY` — so other non-finite inputs cannot round-trip by design).
fn random_record(rng: &mut StdRng) -> TuningRecordLog {
    let failed = rng.gen_bool(0.3);
    let steps = (0..rng.gen_range(0..4usize))
        .map(|_| {
            if rng.gen_bool(0.5) {
                Step::Split {
                    node: "C".into(),
                    iter: ["i", "j", "k"][rng.gen_range(0..3usize)].into(),
                    lengths: vec![rng.gen_range(1..9i64), rng.gen_range(1..5i64)],
                }
            } else {
                Step::Annotate {
                    node: "C".into(),
                    iter: "i".into(),
                    ann: [
                        Annotation::Parallel,
                        Annotation::Vectorize,
                        Annotation::Unroll,
                    ][rng.gen_range(0..3usize)],
                }
            }
        })
        .collect();
    TuningRecordLog {
        task: format!("task-{}", rng.gen_range(0..100u32)),
        trial: rng.gen_range(1..10_000u64),
        steps,
        seconds: if failed {
            f64::INFINITY
        } else {
            rng.gen_range(1e-9..10.0f64)
        },
        error: if failed && rng.gen_bool(0.8) {
            Some(format!("measure error #{}", rng.gen_range(0..50u32)))
        } else {
            None
        },
    }
}

/// A line `load_records` must reject: malformed JSON, non-object JSON, or
/// an object whose required fields are missing or wrongly typed.
const CORRUPT: &[&str] = &[
    "garbage",
    "{",
    "[1, 2",
    "null",
    "123",
    "\"just a string\"",
    "[]",
    "{}",
    "{\"task\": 5, \"trial\": 1, \"steps\": [], \"seconds\": 1.0}",
    "{\"task\": \"t\", \"trial\": \"x\", \"steps\": [], \"seconds\": 1.0}",
    "{\"task\": \"t\", \"trial\": 1, \"steps\": 7, \"seconds\": 1.0}",
    "{\"task\": \"t\", \"trial\": 1, \"steps\": [], \"seconds\": \"fast\"}",
    "{\"task\": \"t\", \"trial\": 1, \"steps\": [{\"what\": 1}], \"seconds\": 1.0}",
];

fn temp_log(tag: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ansor-recprop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}-{seed}.jsonl"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn round_trip_preserves_every_field(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let records: Vec<TuningRecordLog> =
            (0..rng.gen_range(1..8usize)).map(|_| random_record(&mut rng)).collect();
        let path = temp_log("rt", seed);
        let _ = std::fs::remove_file(&path); // save_records appends
        save_records(&path, &records).unwrap();
        let (loaded, skipped) = load_records(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        prop_assert_eq!(skipped, 0, "no valid line may be dropped");
        prop_assert_eq!(loaded, records);
    }

    #[test]
    fn corrupt_lines_are_counted_never_fatal(seed in 0u64..100_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Interleave valid and corrupt lines in random order.
        let mut lines: Vec<(bool, String)> = Vec::new();
        for _ in 0..rng.gen_range(1..6usize) {
            let r = random_record(&mut rng);
            lines.push((true, serde_json::to_string(&r).unwrap()));
        }
        for _ in 0..rng.gen_range(1..6usize) {
            lines.push((false, CORRUPT[rng.gen_range(0..CORRUPT.len())].to_string()));
        }
        lines.shuffle(&mut rng);
        let n_valid = lines.iter().filter(|(ok, _)| *ok).count();
        let n_corrupt = lines.len() - n_valid;
        let text: String = lines.iter().map(|(_, l)| format!("{l}\n")).collect();
        let path = temp_log("corrupt", seed);
        std::fs::write(&path, text).unwrap();
        let (loaded, skipped) = load_records(&path).unwrap(); // must not panic
        std::fs::remove_file(&path).unwrap();
        prop_assert_eq!(loaded.len(), n_valid);
        prop_assert_eq!(skipped, n_corrupt);
    }

    #[test]
    fn legacy_lines_without_error_field_load(
        seed in 0u64..100_000,
        failed in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let seconds = rng.gen_range(1e-9..10.0f64);
        let trial = rng.gen_range(1..1000u64);
        let sec_json = if failed { "null".to_string() } else { format!("{seconds}") };
        let line = format!(
            "{{\"seconds\":{sec_json},\"steps\":[],\"task\":\"legacy\",\"trial\":{trial}}}\n"
        );
        let path = temp_log("legacy", seed);
        std::fs::write(&path, line).unwrap();
        let (loaded, skipped) = load_records(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        prop_assert_eq!(skipped, 0);
        prop_assert_eq!(loaded.len(), 1);
        prop_assert_eq!(&loaded[0].task, "legacy");
        prop_assert_eq!(loaded[0].trial, trial);
        prop_assert_eq!(loaded[0].error, None, "legacy error defaults to None");
        if failed {
            prop_assert!(loaded[0].seconds.is_infinite(), "null loads as INFINITY");
            prop_assert!(!loaded[0].is_valid());
        } else {
            prop_assert_eq!(loaded[0].seconds.to_bits(), seconds.to_bits());
            prop_assert!(loaded[0].is_valid());
        }
    }

    #[test]
    fn an_append_after_a_torn_line_loses_only_that_line(
        seed in 0u64..100_000,
        cut in 1usize..1_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let before: Vec<TuningRecordLog> =
            (0..rng.gen_range(1..5usize)).map(|_| random_record(&mut rng)).collect();
        let after: Vec<TuningRecordLog> =
            (0..rng.gen_range(1..5usize)).map(|_| random_record(&mut rng)).collect();
        let path = temp_log("torn", seed);
        let _ = std::fs::remove_file(&path);
        save_records(&path, &before).unwrap();
        // Cut the last line short of its newline, somewhere inside it.
        let text = std::fs::read(&path).unwrap();
        let last = serde_json::to_string(before.last().unwrap()).unwrap().len();
        let keep = text.len() - 1 - last + cut % last;
        std::fs::write(&path, &text[..keep]).unwrap();
        save_records(&path, &after).unwrap();
        let (loaded, skipped) = load_records(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        // A cut at the line's start leaves nothing of it to skip.
        prop_assert_eq!(skipped, usize::from(cut % last > 0));
        let mut want = before[..before.len() - 1].to_vec();
        want.extend(after);
        prop_assert_eq!(loaded, want);
    }
}
