//! Opening a warm store interns at most the names its file holds: the
//! interned-name table (`tensor_ir::Name`) never frees a name, and a
//! long-lived daemon opens stores and replays their records over and over.
//! One test per binary, because the table is process-wide.

use std::collections::BTreeSet;
use std::path::Path;

use ansor_serve::WarmStore;
use ansor_workloads::build_case;
use serde_json::Value;
use tensor_ir::{Name, State};

/// Every stage and iterator name the steps in `v` spell.
fn step_names(v: &Value, out: &mut BTreeSet<String>) {
    match v {
        Value::Object(map) => {
            for (key, field) in map {
                match (key.as_str(), field) {
                    ("node" | "iter" | "target", Value::String(s)) => {
                        out.insert(s.clone());
                    }
                    ("iters" | "order", Value::Array(names)) => {
                        out.extend(names.iter().filter_map(|n| n.as_str()).map(String::from));
                    }
                    _ => step_names(field, out),
                }
            }
        }
        Value::Array(items) => items.iter().for_each(|i| step_names(i, out)),
        _ => {}
    }
}

#[test]
fn opening_a_store_interns_at_most_the_names_its_file_holds() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/store_pr14.json");
    let dir = std::env::temp_dir().join(format!("ansor-name-table-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.json");
    std::fs::copy(&fixture, &path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let mut names = BTreeSet::new();
    for line in text.lines() {
        step_names(&serde_json::from_str(line).unwrap(), &mut names);
    }

    // The stored case's own node and axis names, which any job on the
    // operator interns before it meets the store.
    State::new(build_case("GMM", 0, 1).unwrap());
    let before = Name::interned();
    let (_, stats) = WarmStore::open(&path).unwrap();
    assert_eq!((stats.records, stats.primed), (24, 24), "{stats:?}");
    let grown = Name::interned() - before;
    assert!(
        grown > 0 && grown <= names.len(),
        "{grown} names interned for a file that holds {}",
        names.len()
    );
    // Opened again — a restarted daemon, a second store — it interns none.
    for _ in 0..3 {
        WarmStore::open(&path).unwrap();
    }
    assert_eq!(Name::interned(), before + grown);
    std::fs::remove_dir_all(&dir).unwrap();
}
