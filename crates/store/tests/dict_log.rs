//! Damaged dictionary logs: the manifest's term count is a floor the log
//! must meet on open, and no byte of a committed store's `dict.log` makes
//! `open` or a scan panic.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use rdfmesh_rdf::{PatternSource, Term, TermPattern, Triple, TriplePattern};
use rdfmesh_store::{LoadConfig, LoadError, PersistentStore};

static CASE: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("rdfmesh-dictlog-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn iri(s: &str) -> Term {
    Term::iri(&format!("http://e/{s}"))
}

/// A flushed store of 20 triples over 41 terms, interned in the order
/// `s0, p, o0, s1, o1, …`.
fn committed_store(tag: &str) -> PathBuf {
    let dir = fresh_dir(tag);
    let mut store = PersistentStore::open(&dir).unwrap();
    for i in 0..20 {
        store.insert(&Triple::new(iri(&format!("s{i}")), iri("p"), iri(&format!("o{i}"))));
    }
    store.flush().unwrap();
    dir
}

/// The byte offset of record `n`'s text (1-based), walking the
/// `[u32 LE length][text]` records.
fn record_text(log: &[u8], n: usize) -> usize {
    let mut pos = 0;
    for _ in 1..n {
        pos += 4 + u32::from_le_bytes(log[pos..pos + 4].try_into().unwrap()) as usize;
    }
    pos + 4
}

fn all() -> TriplePattern {
    TriplePattern::new(TermPattern::var("s"), TermPattern::var("p"), TermPattern::var("o"))
}

/// Opens `dir` and, if that succeeds, scans every triple, resolving
/// every term; returns the triples seen.
fn open_and_scan(dir: &Path) -> Option<usize> {
    let store = PersistentStore::open(dir).ok()?;
    let mut n = 0;
    store.for_each_match(&all(), &mut |t, _| {
        assert!(!t.subject.to_string().is_empty() && !t.object.to_string().is_empty());
        n += 1;
    });
    assert_eq!(n, PatternSource::len(&store));
    Some(n)
}

/// An IRI holding `\` (written `\u005C`) once loaded, went to `dict.log`
/// as text no reader takes back, and made the flushed store unopenable.
/// It is refused at load, with its line, and the store reopens.
#[test]
fn an_iri_holding_a_backslash_is_refused_at_load_and_the_store_reopens() {
    let dir = fresh_dir("backslash");
    let doc = "<http://e/s> <http://e/p> <http://e/o> .\n\
               <http://e/s> <http://e/p> <http://e/a\\u005Cb> .\n";
    let mut store = PersistentStore::open(&dir).unwrap();
    match store.bulk_load(doc.as_bytes(), &LoadConfig::default()) {
        Err(LoadError::Parse(e)) => assert_eq!(e.line, 2, "{e}"),
        other => panic!("expected a parse error, got {other:?}"),
    }
    store.insert(&Triple::new(iri("s"), iri("p"), iri("o")));
    store.flush().unwrap();
    drop(store);
    assert_eq!(open_and_scan(&dir), Some(1));
}

#[test]
fn a_damaged_record_below_the_manifest_count_fails_open_and_leaves_the_log() {
    let dir = committed_store("floor");
    let manifest = std::fs::read_to_string(dir.join("MANIFEST")).unwrap();
    assert!(manifest.contains("\nterms 41\n"), "{manifest}");
    let path = dir.join("dict.log");
    let mut log = std::fs::read(&path).unwrap();
    let at = record_text(&log, 3) + 1;
    log[at] = 0xff;
    std::fs::write(&path, &log).unwrap();

    let err = PersistentStore::open(&dir).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert_eq!(std::fs::read(&path).unwrap(), log, "dict.log is left as it was");
}

#[test]
fn a_torn_tail_above_the_manifest_count_is_still_truncated() {
    let dir = committed_store("tail");
    let path = dir.join("dict.log");
    let committed = std::fs::read(&path).unwrap();
    // Half a record past the 41 committed terms: a crash mid-append.
    let mut torn = committed.clone();
    torn.extend_from_slice(&20u32.to_le_bytes());
    torn.extend_from_slice(b"<http://e/");
    std::fs::write(&path, &torn).unwrap();
    assert_eq!(open_and_scan(&dir), Some(20));
    assert_eq!(std::fs::read(&path).unwrap(), committed);
}

#[test]
fn a_wal_record_naming_a_term_the_log_lost_fails_open() {
    let dir = committed_store("wal");
    let path = dir.join("dict.log");
    let committed = std::fs::read(&path).unwrap();
    {
        // Two new terms, synced above the floor, then a WAL record.
        let mut store = PersistentStore::open(&dir).unwrap();
        store.insert(&Triple::new(iri("s20"), iri("p"), iri("o20")));
    }
    assert!(std::fs::read(&path).unwrap().len() > committed.len());
    std::fs::write(&path, &committed).unwrap();
    let err = PersistentStore::open(&dir).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
}

#[test]
fn no_flipped_bit_or_truncation_of_dict_log_panics() {
    let dir = committed_store("hostile");
    let path = dir.join("dict.log");
    let good = std::fs::read(&path).unwrap();
    let mut opened = 0;
    let mut check = |bytes: &[u8]| {
        std::fs::write(&path, bytes).unwrap();
        if let Some(n) = open_and_scan(&dir) {
            assert_eq!(n, 20, "the MANIFEST's triples");
            opened += 1;
        }
    };
    for i in 0..good.len() {
        for bit in 0..8 {
            let mut bytes = good.clone();
            bytes[i] ^= 1 << bit;
            check(&bytes);
        }
    }
    for len in 0..good.len() {
        check(&good[..len]);
    }
    check(&good);
    // Some flips only rename a term (`s1` → `r1`); the intact log opens.
    assert!(opened > 1, "{opened}");
}
