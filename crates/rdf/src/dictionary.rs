//! Dictionary encoding of RDF terms.
//!
//! Stores intern every distinct [`Term`] once and manipulate compact
//! [`TermId`]s, which keeps the triple indexes small and makes pattern
//! matching cache-friendly — the standard technique in RDF stores.
//!
//! Each term is held once, in id order. A lookup hashes the term (FxHash)
//! to the newest id filed under that hash and walks back through the older
//! ids sharing it, comparing terms: the hash is the only key, so no term is
//! ever stored a second time as one.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::fxhash::FxHasher64;
use crate::term::Term;

/// A compact identifier for an interned term. Ids are dense, starting at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub u32);

impl TermId {
    /// The raw index value.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

type FxBuild = BuildHasherDefault<FxHasher64>;

/// End of a hash chain.
const NIL: u32 = u32::MAX;

fn term_hash(term: &Term) -> u64 {
    let mut h = FxHasher64::default();
    term.hash(&mut h);
    h.finish()
}

/// A bidirectional `Term` ↔ [`TermId`] map.
///
/// Interning is idempotent: the same term always receives the same id.
#[derive(Debug, Default, Clone)]
pub struct Dictionary {
    /// Id `i` names `terms[i]`.
    terms: Vec<Term>,
    /// Term hash → the newest id filed under it.
    newest: HashMap<u64, u32, FxBuild>,
    /// Per id, the id filed under its hash before it (or [`NIL`]).
    chain: Vec<u32>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `term`, returning its id (allocating one if new).
    pub fn intern(&mut self, term: &Term) -> TermId {
        let hash = term_hash(term);
        match self.find(hash, term) {
            Some(id) => id,
            None => self.insert_hashed(hash, term.clone()),
        }
    }

    /// [`Dictionary::intern`] of a term the caller gives up: stored
    /// without a clone if new.
    pub fn intern_owned(&mut self, term: Term) -> TermId {
        let hash = term_hash(&term);
        match self.find(hash, &term) {
            Some(id) => id,
            None => self.insert_hashed(hash, term),
        }
    }

    /// Makes room for `additional` more terms, so interning that many
    /// grows no table.
    pub fn reserve(&mut self, additional: usize) {
        self.terms.reserve(additional);
        self.chain.reserve(additional);
        self.newest.reserve(additional);
    }

    /// Looks up the id of an already-interned term.
    pub fn id(&self, term: &Term) -> Option<TermId> {
        self.find(term_hash(term), term)
    }

    /// The id of `term`, whose hash is `hash`, if it is interned.
    fn find(&self, hash: u64, term: &Term) -> Option<TermId> {
        let mut id = *self.newest.get(&hash)?;
        while id != NIL {
            if self.terms[id as usize] == *term {
                return Some(TermId(id));
            }
            id = self.chain[id as usize];
        }
        None
    }

    /// Files a term the dictionary does not hold under `hash`.
    fn insert_hashed(&mut self, hash: u64, term: Term) -> TermId {
        let id = u32::try_from(self.terms.len()).ok().filter(|&id| id != NIL);
        let id = id.expect("dictionary overflow");
        self.chain.push(self.newest.insert(hash, id).unwrap_or(NIL));
        self.terms.push(term);
        TermId(id)
    }

    /// Resolves an id back to its term. Panics if the id was not produced
    /// by this dictionary.
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    /// Resolves an id if it is valid for this dictionary.
    pub fn get(&self, id: TermId) -> Option<&Term> {
        self.terms.get(id.index())
    }

    /// Every interned term, in id order.
    pub fn terms(&self) -> &[Term] {
        &self.terms
    }

    /// The terms in id order, moved out.
    pub fn into_terms(self) -> Vec<Term> {
        self.terms
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True if no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern(&Term::iri("http://e/a"));
        let b = d.intern(&Term::iri("http://e/a"));
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn distinct_terms_get_distinct_ids() {
        let mut d = Dictionary::new();
        let a = d.intern(&Term::iri("http://e/a"));
        let b = d.intern(&Term::literal("a"));
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn round_trip_resolution() {
        let mut d = Dictionary::new();
        let t = Term::literal("Smith");
        let id = d.intern(&t);
        assert_eq!(d.term(id), &t);
        assert_eq!(d.id(&t), Some(id));
        assert_eq!(d.id(&Term::literal("Jones")), None);
    }

    #[test]
    fn get_rejects_out_of_range() {
        let d = Dictionary::new();
        assert!(d.get(TermId(0)).is_none());
    }

    #[test]
    fn terms_sharing_a_hash_are_told_apart_by_the_chain() {
        let (a, b, c) = (Term::iri("http://e/a"), Term::literal("b"), Term::blank("c"));
        let mut d = Dictionary::new();
        // File a and b under a's hash, and let b's own hash lead to the
        // same chain: the two collide.
        let h = term_hash(&a);
        let ia = d.insert_hashed(h, a.clone());
        let ib = d.insert_hashed(h, b.clone());
        d.newest.insert(term_hash(&b), ib.0);
        let ic = d.intern(&c);
        assert_eq!((ia, ib, ic), (TermId(0), TermId(1), TermId(2)));
        assert_eq!(d.chain, vec![NIL, ia.0, NIL]);
        // b is the chain's head, a the link behind it: both are found.
        assert_eq!(d.id(&a), Some(ia));
        assert_eq!(d.id(&b), Some(ib));
        assert_eq!((d.term(ia), d.term(ib)), (&a, &b));
        assert_eq!(d.intern(&a), ia);
        assert_eq!(d.intern_owned(b), ib);
        assert_eq!(d.id(&Term::literal("absent")), None);
        assert_eq!(d.len(), 3);
    }

    fn arb_term() -> impl Strategy<Value = Term> {
        prop_oneof![
            (0u8..8).prop_map(|i| Term::iri(&format!("http://e/r{i}"))),
            "[ab]{0,3}".prop_map(|s| Term::literal(&s)),
            (0u8..3).prop_map(|i| Term::blank(&format!("b{i}"))),
        ]
    }

    proptest! {
        #[test]
        fn ids_are_dense_in_first_seen_order(terms in prop::collection::vec(arb_term(), 0..40)) {
            let mut d = Dictionary::new();
            let mut seen: Vec<&Term> = Vec::new();
            for t in &terms {
                let id = d.intern(t);
                let first = seen.iter().position(|s| *s == t).unwrap_or_else(|| {
                    seen.push(t);
                    seen.len() - 1
                });
                prop_assert_eq!(id, TermId(first as u32));
            }
            prop_assert_eq!(d.len(), seen.len());
            for t in &terms {
                prop_assert_eq!(d.term(d.id(t).unwrap()), t);
            }
            prop_assert_eq!(d.clone().into_terms(), seen.into_iter().cloned().collect::<Vec<_>>());
        }
    }
}
