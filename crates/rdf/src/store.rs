//! An in-memory, dictionary-encoded triple store with three orderings.
//!
//! Every storage node in the data sharing system owns one [`TripleStore`]
//! holding its local "RDF Data Repository" (Fig. 3). The store keeps three
//! sorted indexes — SPO, POS and OSP — which together answer all eight
//! triple-pattern kinds of Sect. IV-C with a single range scan each.

use crate::dictionary::{Dictionary, TermId};
use crate::index::{IdTriple, Plan, TripleIndex};
use crate::term::Term;
use crate::triple::{PatternKind, Triple, TriplePattern, TripleRef};

/// An indexed set of triples.
#[derive(Debug, Default, Clone)]
pub struct TripleStore {
    dict: Dictionary,
    index: TripleIndex,
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
        let s = self.dict.intern(&triple.subject).0;
        let p = self.dict.intern(&triple.predicate).0;
        let o = self.dict.intern(&triple.object).0;
        self.index.insert((s, p, o))
    }

    /// Removes a triple. Returns `true` if it was present.
    pub fn remove(&mut self, triple: &Triple) -> bool {
        self.ids_of(triple).is_some_and(|spo| self.index.remove(spo))
    }

    /// True if the exact triple is present.
    pub fn contains(&self, triple: &Triple) -> bool {
        self.ids_of(triple).is_some_and(|spo| self.index.contains(spo))
    }

    /// The SPO key of `triple`, if every term is interned.
    fn ids_of(&self, triple: &Triple) -> Option<IdTriple> {
        let id = |t| self.dict.id(t).map(|id| id.0);
        Some((id(&triple.subject)?, id(&triple.predicate)?, id(&triple.object)?))
    }

    /// The term `id` names in this store's dictionary. Panics on an id
    /// the store never lent.
    pub fn term(&self, id: TermId) -> &Term {
        self.dict.term(id)
    }

    /// The id of `term` in this store's dictionary, if it holds it.
    pub fn id(&self, term: &Term) -> Option<TermId> {
        self.dict.id(term)
    }

    /// Number of triples stored.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True if the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Iterates over all triples (in SPO dictionary-id order).
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.index.iter().map(move |spo| self.resolve(spo).to_triple())
    }

    fn resolve(&self, (s, p, o): IdTriple) -> TripleRef<'_> {
        TripleRef {
            subject: self.dict.term(TermId(s)),
            predicate: self.dict.term(TermId(p)),
            object: self.dict.term(TermId(o)),
        }
    }

    /// All triples matching `pattern`, honouring repeated variables.
    pub fn match_pattern(&self, pattern: &TriplePattern) -> Vec<Triple> {
        let mut out = Vec::new();
        self.for_each_match(pattern, |t, _| out.push(t.to_triple()));
        out
    }

    /// Number of triples matching `pattern` — the "frequency" statistic
    /// that storage nodes publish into location tables (Table I).
    ///
    /// Counts on the ID-range iterators without resolving a term; the
    /// all-variable pattern is answered from the index size alone.
    pub fn count_pattern(&self, pattern: &TriplePattern) -> usize {
        if pattern.kind() == PatternKind::None && !pattern.repeated_vars().any() {
            return self.index.len();
        }
        let Some(plan) = Plan::new(&self.dict, pattern) else { return 0 };
        let mut n = 0;
        self.index.scan(&plan, |_| n += 1);
        n
    }

    /// Lends every matching triple to `f`: the three terms are the
    /// dictionary's own, borrowed for the call, and come with the ids the
    /// index scanned.
    pub fn for_each_match<F>(&self, pattern: &TriplePattern, mut f: F)
    where
        F: FnMut(TripleRef<'_>, [TermId; 3]),
    {
        if let Some(plan) = Plan::new(&self.dict, pattern) {
            self.index.scan(&plan, |spo @ (s, p, o)| {
                f(self.resolve(spo), [TermId(s), TermId(p), TermId(o)]);
            });
        }
    }
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
