//! Interned stage and iterator names.
//!
//! Every name a schedule holds — a [`crate::Step`]'s node and iterator
//! names, an iterator's [`crate::IterInfo::name`], a lowered loop's
//! [`crate::VarInfo::name`] — is a [`Name`]: a `Copy` handle to a string
//! kept, once, for the life of the process in one append-only table.
//! Two names are equal when they are the same handle; hashing, ordering,
//! printing and serde go through the string, byte for byte as the `String`
//! a name replaces, so signatures, traces, logs and files do not change.
//!
//! The names a split or a fuse derives (`x.p`, `a@b`) are remembered by
//! their parts: replaying a step formats a name only the first time the
//! process derives it, and a hit allocates nothing. A split part, the
//! commonest, sits in its base name's entry and is read without a lock;
//! a fused name comes from a memo read under the table's read lock. Names
//! are never freed (docs/ROBUSTNESS.md bounds the table).

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Deref;
use std::sync::{OnceLock, PoisonError, RwLock};

use serde::{DeError, Deserialize, Serialize, Value};

/// An interned stage or iterator name: `"C"`, `"i.0"`, `"i.0@j.0"`.
#[derive(Clone, Copy)]
pub struct Name(&'static Entry);

/// Splits into up to this many parts find their parts' names in the base
/// name's entry; the search's own splits make at most four.
const PARTS: usize = 8;

/// What the table keeps of one name.
struct Entry {
    text: Box<str>,
    /// `{text}.{p}`, set the first time part `p` of this name is asked
    /// for. Read with an atomic load, so threads replaying splits at once
    /// do not contend on them.
    parts: [OnceLock<Name>; PARTS],
}

/// The table: each string's entry once, and the fused-name memo. Appended
/// to, never shrunk.
#[derive(Default)]
struct Table {
    names: HashMap<&'static str, Name>,
    /// `{a}@{b}@…` by `[a, b, …]`.
    fused: HashMap<Box<[Name]>, Name, Fx>,
}

impl Table {
    fn intern(&mut self, s: &str) -> Name {
        if let Some(&hit) = self.names.get(s) {
            return hit;
        }
        let entry: &'static Entry = Box::leak(Box::new(Entry {
            text: s.into(),
            parts: Default::default(),
        }));
        let name = Name(entry);
        self.names.insert(name.as_str(), name);
        name
    }
}

// Poison-tolerant: every write is a single insert (or two, the second
// recording the first), so the table is consistent whenever a lock holder
// panicked.
fn table() -> &'static RwLock<Table> {
    static TABLE: OnceLock<RwLock<Table>> = OnceLock::new();
    TABLE.get_or_init(Default::default)
}

fn read() -> std::sync::RwLockReadGuard<'static, Table> {
    table().read().unwrap_or_else(PoisonError::into_inner)
}

fn write() -> std::sync::RwLockWriteGuard<'static, Table> {
    table().write().unwrap_or_else(PoisonError::into_inner)
}

impl Name {
    /// The name spelled `s`, interned on first use.
    pub fn new(s: &str) -> Name {
        if let Some(&hit) = read().names.get(s) {
            return hit;
        }
        write().intern(s)
    }

    /// The name's text.
    pub fn as_str(self) -> &'static str {
        &self.0.text
    }

    /// Part `part` of splitting the iterator named `self`: `{self}.{part}`.
    pub fn part(self, part: usize) -> Name {
        let derive = || Name::new(&format!("{self}.{part}"));
        match self.0.parts.get(part) {
            Some(slot) => *slot.get_or_init(derive),
            None => derive(),
        }
    }

    /// The iterator fusing `names` (outer→inner): their texts joined by
    /// `@`. `names` must not be empty.
    pub fn fused(names: &[Name]) -> Name {
        if let Some(&hit) = read().fused.get(names) {
            return hit;
        }
        // Formatted outside the lock; of threads racing here the first to
        // insert wins and the others intern the same string anyway.
        let text = names
            .iter()
            .map(|n| n.as_str())
            .collect::<Vec<_>>()
            .join("@");
        let mut t = write();
        let name = t.intern(&text);
        *t.fused.entry(names.into()).or_insert(name)
    }

    /// How many distinct names the process has interned; the count only
    /// grows.
    pub fn interned() -> usize {
        read().names.len()
    }
}

// The table holds each string once, so one entry is one text.
impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Name {}

impl Hash for Name {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.as_str().hash(h)
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name::new(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name::new(&s)
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl Serialize for Name {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out)
    }
}

impl Deserialize for Name {
    fn from_value(v: &Value) -> Result<Name, DeError> {
        v.as_str()
            .map(Name::new)
            .ok_or_else(|| DeError::invalid_type("string", v))
    }
}

/// The fused-name memo's hasher: a multiply-rotate over the key's words,
/// without std's defence against keys crafted to collide. It needs none:
/// a key is a list of iterators the program made — a DAG's axes and what
/// splits and fuses derived from them — and a step read from a file only
/// selects among those (`State::apply` resolves its names first).
type Fx = BuildHasherDefault<FxHasher>;

#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_text_is_one_handle() {
        let a = Name::new("i.0");
        let b: Name = String::from("i.0").into();
        assert_eq!(a, b);
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        assert_ne!(a, Name::new("i.1"));
        assert_eq!(a, "i.0");
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn derived_names_are_the_formatted_ones() {
        let i = Name::new("i");
        assert_eq!(i.part(2), Name::new("i.2"));
        assert_eq!(i.part(2), i.part(2));
        let parts = [i.part(0), Name::new("j.0"), Name::new("k")];
        assert_eq!(Name::fused(&parts), Name::new("i.0@j.0@k"));
        assert_eq!(Name::fused(&parts[..1]), parts[0]);
    }
}
