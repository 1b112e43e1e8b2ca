//! The six index keys of the two-level distributed index.
//!
//! RDFPeers hashes each triple on `s`, `p` and `o`; the paper *extends*
//! that practice (Sect. III-B) by also hashing the pairs `(s,p)`, `(p,o)`
//! and `(s,o)`, storing the mapping from each hash to the provider nodes
//! at six places on the Chord ring. A triple pattern with bound positions
//! then picks the most selective applicable key.

use std::fmt::Write as _;

use rdfmesh_chord::{Id, IdSpace};
use rdfmesh_rdf::{PatternKind, Term, TermPattern, TriplePattern, TripleRef};

/// Which attribute combination a key hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KeyKind {
    /// `Hash(s)`.
    S,
    /// `Hash(p)`.
    P,
    /// `Hash(o)`.
    O,
    /// `Hash(s, p)`.
    SP,
    /// `Hash(p, o)`.
    PO,
    /// `Hash(s, o)`.
    SO,
    /// `Hash(p, bucket(o))` for numeric objects — the range-index
    /// extension (never produced by [`keys_for_triple`]; published only
    /// when the overlay has [`NumericBuckets`] configured).
    PON,
}

impl KeyKind {
    /// All six kinds, in publication order.
    pub const ALL: [KeyKind; 6] = [
        KeyKind::S,
        KeyKind::P,
        KeyKind::O,
        KeyKind::SP,
        KeyKind::PO,
        KeyKind::SO,
    ];

    /// A short tag mixed into the hash so that e.g. `Hash_S(x)` and
    /// `Hash_P(x)` land on different keys.
    fn tag(self) -> &'static str {
        match self {
            KeyKind::S => "S",
            KeyKind::P => "P",
            KeyKind::O => "O",
            KeyKind::SP => "SP",
            KeyKind::PO => "PO",
            KeyKind::SO => "SO",
            KeyKind::PON => "PON",
        }
    }
}

impl std::fmt::Display for KeyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.tag())
    }
}

/// A concrete index key: a kind plus its ring position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IndexKey {
    /// Which attributes were hashed.
    pub kind: KeyKind,
    /// The key's identifier on the ring.
    pub id: Id,
}

/// Formats a triple's three terms once, into one buffer, and hands `f`
/// their texts — what every key of the triple hashes.
fn with_text<R>(triple: TripleRef<'_>, f: impl FnOnce([&str; 3]) -> R) -> R {
    let mut text = String::with_capacity(128);
    let mut ends = [0; 3];
    for (end, term) in ends.iter_mut().zip([triple.subject, triple.predicate, triple.object]) {
        write!(text, "{term}").expect("a String takes every write");
        *end = text.len();
    }
    f([&text[..ends[0]], &text[ends[0]..ends[1]], &text[ends[1]..]])
}

/// The ring position of `kind`'s key over the texts of a subject, a
/// predicate and an object (a kind reads only its own positions).
fn hash_kind(space: IdSpace, kind: KeyKind, [s, p, o]: [&str; 3]) -> Id {
    let tag = kind.tag();
    match kind {
        KeyKind::S => space.hash_parts(&[tag, s]),
        KeyKind::P => space.hash_parts(&[tag, p]),
        KeyKind::O => space.hash_parts(&[tag, o]),
        KeyKind::SP => space.hash_parts(&[tag, s, p]),
        KeyKind::PO => space.hash_parts(&[tag, p, o]),
        KeyKind::SO => space.hash_parts(&[tag, s, o]),
        KeyKind::PON => panic!(
            "PON keys require bucket configuration; use NumericBuckets::key"
        ),
    }
}

/// Hashes one attribute combination of a concrete triple, owned or lent.
pub fn key_for_triple<'a>(
    space: IdSpace,
    triple: impl Into<TripleRef<'a>>,
    kind: KeyKind,
) -> IndexKey {
    with_text(triple.into(), |text| IndexKey { kind, id: hash_kind(space, kind, text) })
}

/// The six keys a provider publishes for one shared triple (Sect. III-B:
/// "store the mapping … at six places"), owned or lent. Each term is
/// formatted once.
pub fn keys_for_triple<'a>(space: IdSpace, triple: impl Into<TripleRef<'a>>) -> [IndexKey; 6] {
    with_text(triple.into(), |text| {
        KeyKind::ALL.map(|kind| IndexKey { kind, id: hash_kind(space, kind, text) })
    })
}

/// The index keys of the triples `scan` lends — six per triple, plus the
/// range key of a numeric object when `buckets` is set — each with its
/// frequency: how many of the triples carry it (Table I). Sorted by
/// `(id, kind)`. `scan` hands every triple to the callback it is given
/// (`|f| store.for_each_triple(f)`); `len` is how many it will, if known.
/// The one place a provider's keys are counted, on every host.
pub fn key_counts(
    space: IdSpace,
    buckets: Option<NumericBuckets>,
    len: usize,
    scan: impl FnOnce(&mut dyn FnMut(TripleRef<'_>)),
) -> Vec<(IndexKey, u64)> {
    // One column of 8-byte ids per kind, in `KeyKind` order, reserved at
    // `len`. The triples are lent, never held: these columns and the
    // counts made of them are the whole of the pass's memory.
    let mut columns: [Vec<u64>; 7] = Default::default();
    for column in &mut columns[..6] {
        column.reserve_exact(len);
    }
    scan(&mut |triple| {
        let range_key = buckets.and_then(|b| b.key_of(space, triple));
        for key in keys_for_triple(space, triple).into_iter().chain(range_key) {
            columns[key.kind as usize].push(key.id.0);
        }
    });
    columns.iter_mut().for_each(|column| column.sort_unstable());
    let distinct = columns.iter().map(|column| column.chunk_by(u64::eq).count()).sum();
    let mut counts = Vec::with_capacity(distinct);
    for (kind, column) in KeyKind::ALL.into_iter().chain([KeyKind::PON]).zip(&columns) {
        let runs = column.chunk_by(u64::eq);
        counts.extend(runs.map(|run| (IndexKey { kind, id: Id(run[0]) }, run.len() as u64)));
    }
    counts.sort_unstable_by_key(|(key, _)| (key.id, key.kind));
    counts
}

/// The most selective index key usable for a triple pattern, or `None`
/// for the all-variable pattern `(?s, ?p, ?o)` (which must be flooded).
///
/// Two bound attributes beat one; among single attributes the paper's
/// running examples route on whatever is bound (subject and object are
/// typically far more selective than predicate, but with exactly one
/// bound position there is no choice). A fully bound pattern uses `SP`.
pub fn key_for_pattern(space: IdSpace, pattern: &TriplePattern) -> Option<IndexKey> {
    let kind = match pattern.kind() {
        PatternKind::None => return None,
        PatternKind::S => KeyKind::S,
        PatternKind::P => KeyKind::P,
        PatternKind::O => KeyKind::O,
        PatternKind::SP | PatternKind::SPO => KeyKind::SP,
        PatternKind::PO => KeyKind::PO,
        PatternKind::SO => KeyKind::SO,
    };
    let text = |t: &TermPattern| t.as_const().map(Term::to_string).unwrap_or_default();
    let [s, p, o] = [&pattern.subject, &pattern.predicate, &pattern.object].map(text);
    Some(IndexKey { kind, id: hash_kind(space, kind, [&s, &p, &o]) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfmesh_rdf::Triple;

    fn space() -> IdSpace {
        IdSpace::new(32)
    }

    fn triple() -> Triple {
        Triple::new(
            Term::iri("http://e/alice"),
            Term::iri("http://e/knows"),
            Term::iri("http://e/bob"),
        )
    }

    #[test]
    fn six_distinct_keys_per_triple() {
        let keys = keys_for_triple(space(), &triple());
        let mut ids: Vec<Id> = keys.iter().map(|k| k.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 6, "kinds must not collide");
    }

    #[test]
    fn pattern_key_matches_publication_key() {
        let t = triple();
        let keys = keys_for_triple(space(), &t);
        let by_kind = |k: KeyKind| keys.iter().find(|x| x.kind == k).unwrap().id;

        // (si, pi, ?o) routes on Hash(s,p), matching the published SP key.
        let sp = TriplePattern::new(t.subject.clone(), t.predicate.clone(), TermPattern::var("o"));
        let got = key_for_pattern(space(), &sp).unwrap();
        assert_eq!(got.kind, KeyKind::SP);
        assert_eq!(got.id, by_kind(KeyKind::SP));

        // (?s, pi, oi) routes on Hash(p,o).
        let po = TriplePattern::new(TermPattern::var("s"), t.predicate.clone(), t.object.clone());
        assert_eq!(key_for_pattern(space(), &po).unwrap().id, by_kind(KeyKind::PO));

        // (si, ?p, oi) routes on Hash(s,o).
        let so = TriplePattern::new(t.subject.clone(), TermPattern::var("p"), t.object.clone());
        assert_eq!(key_for_pattern(space(), &so).unwrap().id, by_kind(KeyKind::SO));

        // Single-attribute patterns.
        let s = TriplePattern::new(t.subject.clone(), TermPattern::var("p"), TermPattern::var("o"));
        assert_eq!(key_for_pattern(space(), &s).unwrap().id, by_kind(KeyKind::S));
        let p = TriplePattern::new(TermPattern::var("s"), t.predicate.clone(), TermPattern::var("o"));
        assert_eq!(key_for_pattern(space(), &p).unwrap().id, by_kind(KeyKind::P));
        let o = TriplePattern::new(TermPattern::var("s"), TermPattern::var("p"), t.object.clone());
        assert_eq!(key_for_pattern(space(), &o).unwrap().id, by_kind(KeyKind::O));

        // Fully bound uses SP.
        let spo = TriplePattern::new(t.subject.clone(), t.predicate.clone(), t.object.clone());
        assert_eq!(key_for_pattern(space(), &spo).unwrap().id, by_kind(KeyKind::SP));
    }

    #[test]
    fn all_variable_pattern_has_no_key() {
        let pat = TriplePattern::new(
            TermPattern::var("s"),
            TermPattern::var("p"),
            TermPattern::var("o"),
        );
        assert!(key_for_pattern(space(), &pat).is_none());
    }

    #[test]
    fn same_attribute_value_in_different_positions_differs() {
        // Hash_S(x) != Hash_O(x): the tag prevents cross-position hits.
        let t = Triple::new(
            Term::iri("http://e/x"),
            Term::iri("http://e/p"),
            Term::iri("http://e/x"),
        );
        let keys = keys_for_triple(space(), &t);
        let s = keys.iter().find(|k| k.kind == KeyKind::S).unwrap();
        let o = keys.iter().find(|k| k.kind == KeyKind::O).unwrap();
        assert_ne!(s.id, o.id);
    }

    #[test]
    fn literals_and_iris_with_same_text_differ() {
        let a = Triple::new(Term::iri("http://e/s"), Term::iri("http://e/p"), Term::iri("v"));
        let b = Triple::new(Term::iri("http://e/s"), Term::iri("http://e/p"), Term::literal("v"));
        let ka = key_for_triple(space(), &a, KeyKind::O);
        let kb = key_for_triple(space(), &b, KeyKind::O);
        assert_ne!(ka.id, kb.id, "serialized forms <v> and \"v\" must hash apart");
    }
}

/// Bucketing of numeric object values for range-indexed keys — an
/// extension beyond the paper (its index cannot answer range queries
/// without contacting every provider of the predicate; cf. RDFPeers'
/// locality-preserving hashing). Values in `[min, max]` split into
/// `count` equal-width buckets; a triple `(s, p, o)` with numeric `o`
/// publishes one extra key per `(p, bucket(o))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumericBuckets {
    /// Smallest indexed value.
    pub min: f64,
    /// Largest indexed value.
    pub max: f64,
    /// Number of equal-width buckets.
    pub count: usize,
}

impl NumericBuckets {
    /// A bucketing over `[min, max]` with `count` buckets.
    pub fn new(min: f64, max: f64, count: usize) -> Self {
        assert!(max > min && count > 0);
        NumericBuckets { min, max, count }
    }

    /// The bucket index of a value (clamped into range).
    pub fn bucket_of(&self, value: f64) -> usize {
        let unit = ((value - self.min) / (self.max - self.min)).clamp(0.0, 1.0);
        ((unit * self.count as f64) as usize).min(self.count - 1)
    }

    /// The bucket indices overlapping `[lo, hi]`.
    pub fn buckets_for_range(&self, lo: f64, hi: f64) -> std::ops::RangeInclusive<usize> {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        self.bucket_of(lo)..=self.bucket_of(hi)
    }

    /// The ring key for `(predicate, bucket)`.
    pub fn key(&self, space: IdSpace, predicate: &Term, bucket: usize) -> Id {
        space.hash_parts(&["PON", &predicate.to_string(), &bucket.to_string()])
    }

    /// The range key `triple` (owned or lent) publishes, if its object is
    /// numeric.
    pub fn key_of<'a>(&self, space: IdSpace, triple: impl Into<TripleRef<'a>>) -> Option<IndexKey> {
        let triple = triple.into();
        let value = triple.object.as_literal().and_then(rdfmesh_rdf::Literal::as_f64)?;
        let id = self.key(space, triple.predicate, self.bucket_of(value));
        Some(IndexKey { kind: KeyKind::PON, id })
    }
}

#[cfg(test)]
mod bucket_tests {
    use super::*;
    use rdfmesh_rdf::Triple;

    #[test]
    fn key_counts_count_every_key_sorted_by_id_then_kind() {
        let space = IdSpace::new(8); // small enough that kinds share ids
        let buckets = NumericBuckets::new(0.0, 100.0, 10);
        let int = rdfmesh_rdf::Iri::new(rdfmesh_rdf::vocab::xsd::INTEGER).unwrap();
        let iri = |name: String| Term::iri(&format!("http://e/{name}"));
        let triples: Vec<Triple> = (0..40)
            .map(|i| {
                let age = rdfmesh_rdf::Literal::typed((i % 7).to_string(), int.clone());
                let object = match i % 3 {
                    0 => Term::Literal(age),
                    _ => iri(format!("o{}", i % 4)),
                };
                Triple::new(iri(format!("s{}", i % 5)), iri("p".into()), object)
            })
            .collect();
        let mut naive = std::collections::BTreeMap::new();
        for t in &triples {
            for key in keys_for_triple(space, t).into_iter().chain(buckets.key_of(space, t)) {
                *naive.entry((key.id, key.kind)).or_insert(0) += 1;
            }
        }
        let want: Vec<(IndexKey, u64)> =
            naive.into_iter().map(|((id, kind), n)| (IndexKey { kind, id }, n)).collect();
        let lend = |f: &mut dyn FnMut(TripleRef<'_>)| triples.iter().for_each(|t| f(t.into()));
        assert_eq!(key_counts(space, Some(buckets), triples.len(), lend), want);
        let without: Vec<_> = want.into_iter().filter(|(k, _)| k.kind != KeyKind::PON).collect();
        assert_eq!(key_counts(space, None, 0, lend), without);
    }

    #[test]
    fn bucket_of_covers_range_and_clamps() {
        let b = NumericBuckets::new(0.0, 100.0, 10);
        assert_eq!(b.bucket_of(0.0), 0);
        assert_eq!(b.bucket_of(5.0), 0);
        assert_eq!(b.bucket_of(10.0), 1);
        assert_eq!(b.bucket_of(99.9), 9);
        assert_eq!(b.bucket_of(100.0), 9);
        assert_eq!(b.bucket_of(-5.0), 0);
        assert_eq!(b.bucket_of(500.0), 9);
    }

    #[test]
    fn range_buckets_cover_and_order() {
        let b = NumericBuckets::new(0.0, 100.0, 10);
        assert_eq!(b.buckets_for_range(25.0, 47.0), 2..=4);
        assert_eq!(b.buckets_for_range(47.0, 25.0), 2..=4);
        assert_eq!(b.buckets_for_range(0.0, 100.0), 0..=9);
    }

    #[test]
    fn bucket_keys_differ_by_predicate_and_bucket() {
        let b = NumericBuckets::new(0.0, 100.0, 10);
        let space = IdSpace::new(32);
        let p1 = Term::iri("http://e/age");
        let p2 = Term::iri("http://e/height");
        assert_ne!(b.key(space, &p1, 3), b.key(space, &p1, 4));
        assert_ne!(b.key(space, &p1, 3), b.key(space, &p2, 3));
        assert_eq!(b.key(space, &p1, 3), b.key(space, &p1, 3));
    }
}
