//! Backend equivalence: [`PersistentStore`] must answer every pattern
//! exactly like the in-memory [`TripleStore`].
//!
//! Random triple sets are driven through both backends in lock-step,
//! then compared — the lending scan, `match_pattern` on top of it and
//! `count_pattern`, each against the pattern's term-level definition —
//! on all 8 bound/variable pattern shapes plus repeated-variable
//! patterns (which force the raw-id consistency path)
//! in every interesting store state: bulk-loaded (one level and an empty
//! overlay, where a scan passes its one source through without the
//! merge), post-flush (all data in segments),
//! overlay-mixed (segments + in-memory adds), tombstoned (removals of
//! flushed triples), wal-reopened (reopened *without* a flush — the
//! write-ahead log must reconstruct the overlay), compacted, and
//! reopened from disk.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rdfmesh_rdf::{
    Literal, PatternSource, Term, TermPattern, Triple, TriplePattern, TripleStore,
};
use rdfmesh_store::{LoadConfig, PersistentStore};

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A unique scratch directory per generated case.
fn fresh_dir() -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("rdfmesh-equiv-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Small alphabets force collisions, which is where bugs live.
fn arb_iri() -> impl Strategy<Value = Term> {
    (0u8..6).prop_map(|i| Term::iri(&format!("http://example.org/r{i}")))
}

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        4 => arb_iri(),
        2 => (0i64..5).prop_map(|n| Term::Literal(Literal::integer(n))),
        1 => "[a-z ]{0,6}".prop_map(|s| Term::Literal(Literal::plain(s))),
        1 => (0u8..3).prop_map(|i| Term::blank(&format!("b{i}"))),
    ]
}

prop_compose! {
    fn arb_triple()(s in arb_iri(), p in arb_iri(), o in arb_term()) -> Triple {
        Triple::new(s, p, o)
    }
}

/// All 8 bound/variable shapes anchored on `anchor`, plus
/// repeated-variable patterns.
fn shapes(anchor: &Triple) -> Vec<TriplePattern> {
    let mut patterns = Vec::new();
    for mask in 0u8..8 {
        let position = |on: bool, bound: &Term, var: &'static str| {
            if on {
                TermPattern::Const(bound.clone())
            } else {
                TermPattern::var(var)
            }
        };
        patterns.push(TriplePattern::new(
            position(mask & 4 != 0, &anchor.subject, "s"),
            position(mask & 2 != 0, &anchor.predicate, "p"),
            position(mask & 1 != 0, &anchor.object, "o"),
        ));
    }
    patterns.push(TriplePattern::new(
        TermPattern::var("v"),
        TermPattern::var("p"),
        TermPattern::var("v"),
    ));
    patterns.push(TriplePattern::new(
        TermPattern::var("v"),
        TermPattern::var("v"),
        TermPattern::var("v"),
    ));
    patterns.push(TriplePattern::new(
        TermPattern::var("v"),
        TermPattern::Const(anchor.predicate.clone()),
        TermPattern::var("v"),
    ));
    patterns.push(TriplePattern::new(
        TermPattern::var("v"),
        TermPattern::var("v"),
        TermPattern::var("o"),
    ));
    patterns.push(TriplePattern::new(
        TermPattern::var("s"),
        TermPattern::var("v"),
        TermPattern::var("v"),
    ));
    patterns.push(TriplePattern::new(
        TermPattern::Const(anchor.subject.clone()),
        TermPattern::var("v"),
        TermPattern::var("v"),
    ));
    patterns.push(TriplePattern::new(
        TermPattern::var("v"),
        TermPattern::var("v"),
        TermPattern::Const(anchor.object.clone()),
    ));
    patterns
}

/// What it means for a triple to match a pattern, written out: the
/// pattern's constants equal the triple's terms, and one mapping of
/// variables to terms covers all three positions.
fn matches_by_definition(pattern: &TriplePattern, triple: &Triple) -> bool {
    let mut mapping: Vec<(&TermPattern, &Term)> = Vec::new();
    [
        (&pattern.subject, &triple.subject),
        (&pattern.predicate, &triple.predicate),
        (&pattern.object, &triple.object),
    ]
    .into_iter()
    .all(|(position, term)| match position {
        TermPattern::Const(c) => c == term,
        var => match mapping.iter().find(|(v, _)| *v == var) {
            Some((_, bound)) => *bound == term,
            None => {
                mapping.push((var, term));
                true
            }
        },
    })
}

/// What a backend's lending scan visits, cloned out of the callback.
fn lent(source: &dyn PatternSource, pattern: &TriplePattern) -> Vec<Triple> {
    let mut out = Vec::new();
    source.for_each_match(pattern, &mut |t, _| out.push(t.to_triple()));
    out.sort();
    out
}

/// Compares both backends on every shape from every anchor.
fn check(
    mem: &TripleStore,
    store: &PersistentStore,
    anchors: &[&Triple],
    state: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(mem.len(), PatternSource::len(store), "len ({})", state);
    prop_assert_eq!(mem.is_empty(), PatternSource::is_empty(store), "is_empty ({})", state);
    for anchor in anchors {
        for pattern in shapes(anchor) {
            // No index, no ids.
            let mut want: Vec<Triple> =
                mem.iter().filter(|t| matches_by_definition(&pattern, t)).collect();
            want.sort();
            prop_assert_eq!(&lent(mem, &pattern), &want, "memory scan {:?} ({})", &pattern, state);
            prop_assert_eq!(&lent(store, &pattern), &want, "scan {:?} ({})", &pattern, state);
            let mut got = store.match_pattern(&pattern);
            got.sort();
            prop_assert_eq!(&got, &want, "match_pattern {:?} ({})", &pattern, state);
            prop_assert_eq!(
                store.count_pattern(&pattern),
                want.len(),
                "count_pattern {:?} ({})",
                &pattern,
                state
            );
        }
        let held = Triple::new(
            anchors[0].subject.clone(),
            anchor.predicate.clone(),
            anchor.object.clone(),
        );
        prop_assert_eq!(mem.contains(&held), store.contains(&held), "contains ({})", state);
    }
    Ok(())
}

/// The state the lending scan has most to merge in: two sealed levels
/// (the newer one carrying tombstones for the older), unflushed inserts
/// and unflushed removals of triples from either level — over a
/// vocabulary where subjects, predicates and objects coincide, so every
/// repeated-variable form has rows to keep and rows to drop.
#[test]
fn lending_scan_over_two_levels_an_overlay_and_tombstones() {
    let r = |i: usize| Term::iri(&format!("http://example.org/r{i}"));
    let all: Vec<Triple> = (0..10)
        .flat_map(|s| (0..3).flat_map(move |p| (0..3).map(move |o| Triple::new(r(s), r(p), r(o)))))
        .collect();
    let dir = fresh_dir();
    let mut mem = TripleStore::new();
    let mut store = PersistentStore::open(&dir).expect("open store");
    let apply = |mem: &mut TripleStore, store: &mut PersistentStore, t: &Triple, insert| {
        if insert {
            assert_eq!(mem.insert(t), PatternSource::insert(store, t));
        } else {
            assert_eq!(mem.remove(t), PatternSource::remove(store, t));
        }
    };
    for t in &all[..80] {
        apply(&mut mem, &mut store, t, true);
    }
    store.flush().expect("first level");
    for t in &all[80..84] {
        apply(&mut mem, &mut store, t, true);
    }
    for t in all[..80].iter().step_by(27) {
        apply(&mut mem, &mut store, t, false);
    }
    store.flush().expect("second level, with tombstones");
    for t in &all[84..] {
        apply(&mut mem, &mut store, t, true);
    }
    apply(&mut mem, &mut store, &all[1], false); // lives in the older level
    apply(&mut mem, &mut store, &all[81], false); // lives in the newer level
    apply(&mut mem, &mut store, &all[0], true); // re-insert over a sealed tombstone
    assert_eq!(store.level_count(), 2, "the second flush must not have compacted");
    assert!(store.overlay_len() > 0);
    let anchors = [&all[0], &all[4], &all[13], &all[81], &all[89]];
    check(&mem, &store, &anchors, "two levels + overlay + tombstones").unwrap();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bulk-loaded store is one level and an empty overlay, so every scan
/// has one source and passes its keys straight through, without the
/// merge; an overlay insert or a tombstone in a scan's range brings the
/// merge back. All three answer every shape — the 8 kinds and the
/// repeated-variable forms — as the in-memory store does.
#[test]
fn a_bulk_loaded_store_scans_one_source_through_and_merges_after_a_write() {
    let r = |i: usize| Term::iri(&format!("http://example.org/r{i}"));
    let all: Vec<Triple> = (0..8)
        .flat_map(|s| (0..3).flat_map(move |p| (0..3).map(move |o| Triple::new(r(s), r(p), r(o)))))
        .filter(|t| t.subject != t.object || t.predicate == r(1))
        .collect();
    let dir = fresh_dir();
    let mut store = PersistentStore::open(&dir).expect("open store");
    let text = rdfmesh_rdf::ntriples::write_document(&all);
    store.bulk_load(text.as_bytes(), &LoadConfig::default()).expect("bulk load");
    assert_eq!((store.level_count(), store.overlay_len()), (1, 0));
    let mut mem = TripleStore::from_triples(all.iter().cloned());
    let anchors = [&all[0], &all[7], &all[30], &all[all.len() - 1]];
    check(&mem, &store, &anchors, "bulk-loaded: one source").unwrap();
    let added = Triple::new(r(2), r(0), r(2));
    assert!(mem.insert(&added) && PatternSource::insert(&mut store, &added));
    check(&mem, &store, &anchors, "bulk-loaded + an overlay insert").unwrap();
    assert!(mem.remove(&all[7]) && PatternSource::remove(&mut store, &all[7]));
    check(&mem, &store, &anchors, "bulk-loaded + a tombstone").unwrap();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lock-step inserts, a flush at a random cut point, overlay inserts,
    /// removals (tombstones), an unflushed reopen (WAL replay), a
    /// flush+compaction, and a reopen — the two backends must agree
    /// after every step.
    #[test]
    fn persistent_store_equals_triple_store(
        triples in proptest::collection::vec(arb_triple(), 0..48),
        removes in proptest::collection::vec(0usize..48, 0..12),
        anchor in arb_triple(),
        flush_quarters in 0u8..=4,
    ) {
        let dir = fresh_dir();
        let mut mem = TripleStore::new();
        let mut store = PersistentStore::open(&dir).expect("open store");
        let first = triples.first().cloned().unwrap_or_else(|| anchor.clone());
        let anchors = [&anchor, &first];

        let cut = triples.len() * flush_quarters as usize / 4;
        for t in &triples[..cut] {
            prop_assert_eq!(mem.insert(t), PatternSource::insert(&mut store, t));
        }
        store.flush().expect("flush");
        check(&mem, &store, &anchors, "post-flush")?;

        for t in &triples[cut..] {
            prop_assert_eq!(mem.insert(t), PatternSource::insert(&mut store, t));
        }
        check(&mem, &store, &anchors, "overlay-mixed")?;

        if !triples.is_empty() {
            for r in &removes {
                let t = &triples[r % triples.len()];
                prop_assert_eq!(mem.remove(t), PatternSource::remove(&mut store, t));
            }
        }
        check(&mem, &store, &anchors, "tombstoned")?;

        // Reopen with the overlay unflushed: every acknowledged write
        // must come back via WAL replay, none may be invented.
        let overlay = store.overlay_len();
        drop(store);
        let mut store = PersistentStore::open(&dir).expect("wal reopen");
        prop_assert_eq!(store.overlay_len(), overlay, "overlay survives reopen");
        check(&mem, &store, &anchors, "wal-reopened")?;

        store.flush().expect("compaction flush");
        check(&mem, &store, &anchors, "compacted")?;

        drop(store);
        let reopened = PersistentStore::open(&dir).expect("reopen store");
        check(&mem, &reopened, &anchors, "reopened")?;

        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
