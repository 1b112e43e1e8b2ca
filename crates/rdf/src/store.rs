//! An in-memory, dictionary-encoded triple store with three orderings.
//!
//! Every storage node in the data sharing system owns one [`TripleStore`]
//! holding its local "RDF Data Repository" (Fig. 3). The store keeps three
//! sorted indexes — SPO, POS and OSP — which together answer all eight
//! triple-pattern kinds of Sect. IV-C with a single range scan each.

use std::collections::BTreeSet;
use std::ops::Bound;

use crate::dictionary::{Dictionary, TermId};
use crate::triple::{PatternKind, TermPattern, Triple, TriplePattern, TripleRef};

type Key = (TermId, TermId, TermId);

/// An indexed set of triples.
#[derive(Debug, Default, Clone)]
pub struct TripleStore {
    dict: Dictionary,
    spo: BTreeSet<Key>,
    pos: BTreeSet<Key>,
    osp: BTreeSet<Key>,
}

impl TripleStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store populated from an iterator of triples.
    pub fn from_triples<I: IntoIterator<Item = Triple>>(triples: I) -> Self {
        let mut s = Self::new();
        for t in triples {
            s.insert(&t);
        }
        s
    }

    /// Inserts a triple. Returns `true` if it was not already present.
    pub fn insert(&mut self, triple: &Triple) -> bool {
        let s = self.dict.intern(&triple.subject);
        let p = self.dict.intern(&triple.predicate);
        let o = self.dict.intern(&triple.object);
        let added = self.spo.insert((s, p, o));
        if added {
            self.pos.insert((p, o, s));
            self.osp.insert((o, s, p));
        }
        added
    }

    /// Removes a triple. Returns `true` if it was present.
    pub fn remove(&mut self, triple: &Triple) -> bool {
        let (Some(s), Some(p), Some(o)) = (
            self.dict.id(&triple.subject),
            self.dict.id(&triple.predicate),
            self.dict.id(&triple.object),
        ) else {
            return false;
        };
        let removed = self.spo.remove(&(s, p, o));
        if removed {
            self.pos.remove(&(p, o, s));
            self.osp.remove(&(o, s, p));
        }
        removed
    }

    /// True if the exact triple is present.
    pub fn contains(&self, triple: &Triple) -> bool {
        match (
            self.dict.id(&triple.subject),
            self.dict.id(&triple.predicate),
            self.dict.id(&triple.object),
        ) {
            (Some(s), Some(p), Some(o)) => self.spo.contains(&(s, p, o)),
            _ => false,
        }
    }

    /// Number of triples stored.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// True if the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// Iterates over all triples (in SPO dictionary-id order).
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.spo.iter().map(move |&(s, p, o)| self.decode(s, p, o))
    }

    fn decode(&self, s: TermId, p: TermId, o: TermId) -> Triple {
        Triple {
            subject: self.dict.term(s).clone(),
            predicate: self.dict.term(p).clone(),
            object: self.dict.term(o).clone(),
        }
    }

    fn id_of(&self, tp: &TermPattern) -> Option<Option<TermId>> {
        // Outer None: the constant term is absent from the dictionary, so
        // nothing can match. Inner None: the position is a variable.
        match tp {
            TermPattern::Var(_) => Some(None),
            TermPattern::Const(t) => self.dict.id(t).map(Some),
        }
    }

    /// All triples matching `pattern`, honouring repeated variables.
    pub fn match_pattern(&self, pattern: &TriplePattern) -> Vec<Triple> {
        let mut out = Vec::new();
        self.for_each_match(pattern, |t| out.push(t.to_triple()));
        out
    }

    /// Number of triples matching `pattern` — the "frequency" statistic
    /// that storage nodes publish into location tables (Table I).
    ///
    /// Counts on the ID-range iterators without resolving a term; the
    /// all-variable pattern is answered from the index size alone.
    pub fn count_pattern(&self, pattern: &TriplePattern) -> usize {
        if pattern.kind() == PatternKind::None && !pattern.repeated_vars().any() {
            return self.spo.len();
        }
        let mut n = 0;
        self.scan_ids(pattern, |_, _, _| n += 1);
        n
    }

    /// Lends every matching triple to `f`: the three terms are the
    /// dictionary's own, borrowed for the call.
    pub fn for_each_match<F: FnMut(TripleRef<'_>)>(&self, pattern: &TriplePattern, mut f: F) {
        self.scan_ids(pattern, |s, p, o| {
            f(TripleRef {
                subject: self.dict.term(s),
                predicate: self.dict.term(p),
                object: self.dict.term(o),
            })
        });
    }

    /// Invokes `f` with the ids of every matching triple, from the index
    /// the pattern's [`PatternKind`] selects. Interning is bijective, so
    /// repeated-variable consistency (`?x p ?x`) is an integer comparison.
    fn scan_ids(&self, pattern: &TriplePattern, mut f: impl FnMut(TermId, TermId, TermId)) {
        let (Some(s), Some(p), Some(o)) = (
            self.id_of(&pattern.subject),
            self.id_of(&pattern.predicate),
            self.id_of(&pattern.object),
        ) else {
            return; // a bound term is not even in the dictionary
        };
        let repeated = pattern.repeated_vars();
        let mut emit = |s1, p1, o1| {
            if repeated.consistent(s1, p1, o1) {
                f(s1, p1, o1);
            }
        };
        match pattern.kind() {
            PatternKind::SPO => {
                let key = (s.unwrap(), p.unwrap(), o.unwrap());
                if self.spo.contains(&key) {
                    emit(key.0, key.1, key.2);
                }
            }
            PatternKind::SP => {
                range2(&self.spo, s.unwrap(), p.unwrap()).for_each(|&(s1, p1, o1)| emit(s1, p1, o1))
            }
            PatternKind::S => {
                range1(&self.spo, s.unwrap()).for_each(|&(s1, p1, o1)| emit(s1, p1, o1))
            }
            PatternKind::PO => {
                range2(&self.pos, p.unwrap(), o.unwrap()).for_each(|&(p1, o1, s1)| emit(s1, p1, o1))
            }
            PatternKind::P => {
                range1(&self.pos, p.unwrap()).for_each(|&(p1, o1, s1)| emit(s1, p1, o1))
            }
            PatternKind::SO => {
                range2(&self.osp, o.unwrap(), s.unwrap()).for_each(|&(o1, s1, p1)| emit(s1, p1, o1))
            }
            PatternKind::O => {
                range1(&self.osp, o.unwrap()).for_each(|&(o1, s1, p1)| emit(s1, p1, o1))
            }
            PatternKind::None => self.spo.iter().for_each(|&(s1, p1, o1)| emit(s1, p1, o1)),
        }
    }
}

const MIN: TermId = TermId(0);
const MAX: TermId = TermId(u32::MAX);

fn range1(set: &BTreeSet<Key>, a: TermId) -> impl Iterator<Item = &Key> {
    set.range((Bound::Included((a, MIN, MIN)), Bound::Included((a, MAX, MAX))))
}

fn range2(set: &BTreeSet<Key>, a: TermId, b: TermId) -> impl Iterator<Item = &Key> {
    set.range((Bound::Included((a, b, MIN)), Bound::Included((a, b, MAX))))
}

impl FromIterator<Triple> for TripleStore {
    fn from_iter<T: IntoIterator<Item = Triple>>(iter: T) -> Self {
        Self::from_triples(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;
    use crate::triple::TermPattern;

    fn iri(s: &str) -> Term {
        Term::iri(&format!("http://e/{s}"))
    }

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(iri(s), iri(p), iri(o))
    }

    fn demo_store() -> TripleStore {
        TripleStore::from_triples([
            t("a", "knows", "b"),
            t("a", "knows", "c"),
            t("b", "knows", "c"),
            t("a", "name", "b"),
            Triple::new(iri("a"), iri("name"), Term::literal("Alice")),
            Triple::new(iri("c"), iri("knows"), iri("c")),
        ])
    }

    #[test]
    fn insert_is_idempotent() {
        let mut s = TripleStore::new();
        assert!(s.insert(&t("a", "p", "b")));
        assert!(!s.insert(&t("a", "p", "b")));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn remove_updates_all_indexes() {
        let mut s = demo_store();
        let n = s.len();
        assert!(s.remove(&t("a", "knows", "b")));
        assert!(!s.remove(&t("a", "knows", "b")));
        assert_eq!(s.len(), n - 1);
        let pat = TriplePattern::new(TermPattern::var("x"), iri("knows"), iri("b"));
        assert!(s.match_pattern(&pat).is_empty());
    }

    #[test]
    fn contains_and_unknown_terms() {
        let s = demo_store();
        assert!(s.contains(&t("a", "knows", "b")));
        assert!(!s.contains(&t("zz", "knows", "b")));
    }

    #[test]
    fn all_eight_pattern_kinds_match_correctly() {
        let s = demo_store();
        let v = TermPattern::var;
        // (?s,?p,?o)
        let all = s.match_pattern(&TriplePattern::new(v("s"), v("p"), v("o")));
        assert_eq!(all.len(), 6);
        // (si,?p,?o)
        let from_a = s.match_pattern(&TriplePattern::new(iri("a"), v("p"), v("o")));
        assert_eq!(from_a.len(), 4);
        // (?s,pi,?o)
        let knows = s.match_pattern(&TriplePattern::new(v("s"), iri("knows"), v("o")));
        assert_eq!(knows.len(), 4);
        // (?s,?p,oi)
        let to_c = s.match_pattern(&TriplePattern::new(v("s"), v("p"), iri("c")));
        assert_eq!(to_c.len(), 3);
        // (si,pi,?o)
        let a_knows = s.match_pattern(&TriplePattern::new(iri("a"), iri("knows"), v("o")));
        assert_eq!(a_knows.len(), 2);
        // (?s,pi,oi)
        let knows_c = s.match_pattern(&TriplePattern::new(v("s"), iri("knows"), iri("c")));
        assert_eq!(knows_c.len(), 3);
        // (si,?p,oi)
        let a_to_b = s.match_pattern(&TriplePattern::new(iri("a"), v("p"), iri("b")));
        assert_eq!(a_to_b.len(), 2);
        // (si,pi,oi)
        let exact = s.match_pattern(&TriplePattern::new(iri("b"), iri("knows"), iri("c")));
        assert_eq!(exact.len(), 1);
    }

    #[test]
    fn repeated_variable_pattern_filters_inconsistent_rows() {
        let s = demo_store();
        // ?x knows ?x — only (c, knows, c).
        let pat = TriplePattern::new(TermPattern::var("x"), iri("knows"), TermPattern::var("x"));
        let m = s.match_pattern(&pat);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].subject, iri("c"));
    }

    #[test]
    fn count_matches_match_len() {
        let s = demo_store();
        let v = TermPattern::var;
        for pat in [
            TriplePattern::new(v("s"), v("p"), v("o")),
            TriplePattern::new(v("s"), iri("knows"), v("o")),
            TriplePattern::new(iri("a"), v("p"), iri("b")),
            TriplePattern::new(iri("a"), iri("knows"), v("o")),
            TriplePattern::new(iri("a"), iri("knows"), iri("b")),
            TriplePattern::new(iri("a"), v("p"), v("o")),
            TriplePattern::new(v("s"), v("p"), iri("c")),
        ] {
            assert_eq!(s.count_pattern(&pat), s.match_pattern(&pat).len());
        }
    }

    #[test]
    fn count_repeated_variables_filters_on_ids() {
        // A store where a term doubles as subject, predicate and object,
        // exercising every repeated-variable combination.
        let s = TripleStore::from_triples([
            t("x", "x", "x"),
            t("x", "x", "y"),
            t("x", "y", "x"),
            t("y", "x", "x"),
            t("a", "knows", "a"),
            t("a", "knows", "b"),
        ]);
        let v = TermPattern::var;
        for pat in [
            TriplePattern::new(v("u"), v("u"), v("u")), // all three equal
            TriplePattern::new(v("u"), v("u"), v("w")), // s == p
            TriplePattern::new(v("u"), v("w"), v("u")), // s == o
            TriplePattern::new(v("w"), v("u"), v("u")), // p == o
            TriplePattern::new(v("u"), iri("knows"), v("u")), // bound p, s == o
            TriplePattern::new(iri("x"), v("u"), v("u")), // bound s, p == o
            TriplePattern::new(v("u"), v("u"), iri("x")), // bound o, s == p
        ] {
            assert_eq!(s.count_pattern(&pat), s.match_pattern(&pat).len(), "{pat:?}");
        }
    }

    #[test]
    fn unknown_constant_short_circuits_to_empty() {
        let s = demo_store();
        let pat = TriplePattern::new(TermPattern::var("s"), iri("nope"), TermPattern::var("o"));
        assert!(s.match_pattern(&pat).is_empty());
        assert_eq!(s.count_pattern(&pat), 0);
    }

    #[test]
    fn iter_round_trips_via_from_iterator() {
        let s = demo_store();
        let s2: TripleStore = s.iter().collect();
        assert_eq!(s2.len(), s.len());
        for tr in s.iter() {
            assert!(s2.contains(&tr));
        }
    }
}
