//! The storage seam: [`PatternSource`] and the [`SharedStore`] handle.
//!
//! Every layer that answers triple patterns — the simulator's storage
//! nodes, the live mesh's provider threads, the RDFPeers baseline — used
//! to hold a concrete in-memory [`TripleStore`]. `PatternSource`
//! abstracts the five operations those layers actually need, so a node
//! can run on the legacy in-memory store *or* on the persistent
//! `rdfmesh-store` backend (`rdfmesh serve --store-dir`) without the
//! query path knowing which one is underneath.
//!
//! The scan *lends*: [`PatternSource::for_each_match`] hands its callback
//! a [`TripleRef`] into the store's own dictionary, together with the
//! three [`TermId`]s the store scanned, so a caller that filters at the
//! source clones only the rows it keeps, and a caller that builds a batch
//! keeps ids alone. Equal ids are equal terms, and equal terms equal ids.
//! The [`TripleRef`] is valid for the callback only; an id stays valid for
//! as long as the store is borrowed (nothing can change it then), and
//! [`PatternSource::term`] resolves it to the store's own term, borrowed
//! from the store, while [`PatternSource::id`] finds the id of a term the
//! caller holds. So a provider's answer (`rdfmesh-core`'s `provider`)
//! lends its frame the store's terms, one per distinct id, and clones
//! none. Both read the dictionary alone: a callback may call them on the
//! source it walks. Through a [`SharedStore`] the read lock is held for
//! the whole walk, and a callback must not take it again (a writer queued
//! behind the lock would deadlock the second read); borrow the backend
//! once, with [`SharedStore::with`], to walk and resolve under one lock.

use std::fmt;
use std::sync::{Arc, RwLock};

use crate::dictionary::TermId;
use crate::store::TripleStore;
use crate::term::Term;
use crate::triple::{TermPattern, Triple, TriplePattern, TripleRef};

/// Anything that stores triples and answers the eight pattern kinds of
/// the paper's Sect. IV-C.
///
/// Implementors must honour repeated variables (`?x p ?x` only matches
/// triples whose subject equals their object) and answer
/// [`count_pattern`](PatternSource::count_pattern) consistently with
/// [`for_each_match`](PatternSource::for_each_match). Match emission
/// *order* is unspecified — callers that need a canonical order sort.
pub trait PatternSource: fmt::Debug + Send + Sync {
    /// Lends every triple matching `pattern` to `f`, with the ids of its
    /// subject, predicate and object in the store's dictionary. The terms
    /// belong to the store and are valid for that call of `f` only; two
    /// lent ids are equal exactly when their terms are.
    fn for_each_match(
        &self,
        pattern: &TriplePattern,
        f: &mut dyn FnMut(TripleRef<'_>, [TermId; 3]),
    );

    /// The store's own term for `id`, an id this store lent. Valid while
    /// the store is borrowed. Panics on an id it never lent.
    fn term(&self, id: TermId) -> &Term;

    /// The id of `term` in the store's dictionary, if it holds the term:
    /// the id a walk lends wherever the term matches.
    fn id(&self, term: &Term) -> Option<TermId>;

    /// Number of triples matching `pattern` — the "frequency" statistic
    /// published into location tables (paper Table I).
    fn count_pattern(&self, pattern: &TriplePattern) -> usize;

    /// Number of triples stored.
    fn len(&self) -> usize;

    /// Inserts a triple. Returns `true` if it was not already present.
    fn insert(&mut self, triple: &Triple) -> bool;

    /// Removes a triple. Returns `true` if it was present.
    fn remove(&mut self, triple: &Triple) -> bool;

    /// True if the exact triple is present.
    fn contains(&self, triple: &Triple) -> bool;

    /// All triples matching `pattern`, cloned and collected.
    fn match_pattern(&self, pattern: &TriplePattern) -> Vec<Triple> {
        let mut out = Vec::new();
        self.for_each_match(pattern, &mut |t, _| out.push(t.to_triple()));
        out
    }

    /// Lends every stored triple to `f`, as
    /// [`for_each_match`](PatternSource::for_each_match) does, without
    /// its ids.
    fn for_each_triple(&self, f: &mut dyn FnMut(TripleRef<'_>)) {
        let all = TriplePattern::new(
            TermPattern::var("s"),
            TermPattern::var("p"),
            TermPattern::var("o"),
        );
        self.for_each_match(&all, &mut |t, _| f(t));
    }

    /// True if the store holds no triples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PatternSource for TripleStore {
    fn for_each_match(
        &self,
        pattern: &TriplePattern,
        f: &mut dyn FnMut(TripleRef<'_>, [TermId; 3]),
    ) {
        TripleStore::for_each_match(self, pattern, f);
    }

    fn term(&self, id: TermId) -> &Term {
        TripleStore::term(self, id)
    }

    fn id(&self, term: &Term) -> Option<TermId> {
        TripleStore::id(self, term)
    }

    fn count_pattern(&self, pattern: &TriplePattern) -> usize {
        TripleStore::count_pattern(self, pattern)
    }

    fn len(&self) -> usize {
        TripleStore::len(self)
    }

    fn insert(&mut self, triple: &Triple) -> bool {
        TripleStore::insert(self, triple)
    }

    fn remove(&mut self, triple: &Triple) -> bool {
        TripleStore::remove(self, triple)
    }

    fn contains(&self, triple: &Triple) -> bool {
        TripleStore::contains(self, triple)
    }
}

/// A cheaply cloneable, thread-safe handle to any [`PatternSource`].
///
/// This is the type the seams hold: `overlay::StorageNode`, the live
/// mesh's provider threads, and `MeshNode` all store a `SharedStore`,
/// so the same node code runs on the in-memory [`TripleStore`] or on
/// `rdfmesh-store`'s persistent backend.
///
/// **Clones share the underlying store** (the handle is an `Arc`): a
/// live mesh spawned from a simulator overlay reads the same triples
/// the overlay holds, without copying them. Mutations through any
/// clone are visible to all.
#[derive(Clone)]
pub struct SharedStore(Arc<RwLock<Box<dyn PatternSource>>>);

impl SharedStore {
    /// Wraps an arbitrary backend.
    pub fn new(source: Box<dyn PatternSource>) -> Self {
        SharedStore(Arc::new(RwLock::new(source)))
    }

    /// An empty in-memory store.
    pub fn memory() -> Self {
        SharedStore::from(TripleStore::new())
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, Box<dyn PatternSource>> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Box<dyn PatternSource>> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Inserts a triple. Returns `true` if it was not already present.
    pub fn insert(&self, triple: &Triple) -> bool {
        self.write().insert(triple)
    }

    /// Removes a triple. Returns `true` if it was present.
    pub fn remove(&self, triple: &Triple) -> bool {
        self.write().remove(triple)
    }

    /// True if the exact triple is present.
    pub fn contains(&self, triple: &Triple) -> bool {
        self.read().contains(triple)
    }

    /// Number of triples stored.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True if the store holds no triples.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// All triples matching `pattern`.
    pub fn match_pattern(&self, pattern: &TriplePattern) -> Vec<Triple> {
        self.read().match_pattern(pattern)
    }

    /// Number of triples matching `pattern`.
    pub fn count_pattern(&self, pattern: &TriplePattern) -> usize {
        self.read().count_pattern(pattern)
    }

    /// Lends every triple matching `pattern` to `f`, with its ids, under
    /// the read lock for the whole walk: `f` must not call back into this
    /// store.
    pub fn for_each_match(
        &self,
        pattern: &TriplePattern,
        mut f: impl FnMut(TripleRef<'_>, [TermId; 3]),
    ) {
        self.read().for_each_match(pattern, &mut f);
    }

    /// Lends every stored triple to `f`, under the read lock for the
    /// whole walk: `f` must not call back into this store. The one walk
    /// over a whole store; nothing collects one.
    pub fn for_each_triple(&self, mut f: impl FnMut(TripleRef<'_>)) {
        self.read().for_each_triple(&mut f);
    }

    /// Runs `f` with a borrow of the underlying backend (for operations
    /// beyond the trait, e.g. a persistent store's `flush`, callers
    /// should keep their own typed handle instead).
    pub fn with<R>(&self, f: impl FnOnce(&dyn PatternSource) -> R) -> R {
        f(self.read().as_ref())
    }
}

impl fmt::Debug for SharedStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedStore({} triples)", self.len())
    }
}

impl Default for SharedStore {
    fn default() -> Self {
        SharedStore::memory()
    }
}

impl From<TripleStore> for SharedStore {
    fn from(store: TripleStore) -> Self {
        SharedStore::new(Box::new(store))
    }
}

impl FromIterator<Triple> for SharedStore {
    fn from_iter<T: IntoIterator<Item = Triple>>(iter: T) -> Self {
        SharedStore::from(TripleStore::from_triples(iter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn t(s: &str, o: &str) -> Triple {
        Triple::new(
            Term::iri(&format!("http://e/{s}")),
            Term::iri("http://e/p"),
            Term::iri(&format!("http://e/{o}")),
        )
    }

    #[test]
    fn shared_store_mirrors_triple_store() {
        let store = SharedStore::memory();
        assert!(store.is_empty());
        assert!(store.insert(&t("a", "b")));
        assert!(!store.insert(&t("a", "b")));
        assert!(store.contains(&t("a", "b")));
        assert_eq!(store.len(), 1);
        let pat = TriplePattern::new(
            TermPattern::var("x"),
            Term::iri("http://e/p"),
            TermPattern::var("y"),
        );
        assert_eq!(store.match_pattern(&pat).len(), 1);
        assert_eq!(store.count_pattern(&pat), 1);
        assert!(store.remove(&t("a", "b")));
        assert!(store.is_empty());
    }

    #[test]
    fn clones_share_the_backend() {
        let a = SharedStore::memory();
        let b = a.clone();
        a.insert(&t("x", "y"));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn trait_default_methods_cover_match_and_iteration() {
        let mut mem = TripleStore::new();
        PatternSource::insert(&mut mem, &t("a", "b"));
        PatternSource::insert(&mut mem, &t("b", "c"));
        let source: &dyn PatternSource = &mem;
        let pat = TriplePattern::new(
            TermPattern::var("x"),
            Term::iri("http://e/p"),
            TermPattern::var("y"),
        );
        assert_eq!(source.match_pattern(&pat).len(), 2);
        let mut n = 0;
        source.for_each_triple(&mut |_| n += 1);
        assert_eq!(n, 2);
        assert!(!source.is_empty());
    }
}
