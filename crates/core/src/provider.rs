//! What a storage node computes from a request, and what the coordinator
//! computes from the partial matches it gathers — once, as functions of
//! data alone. The simulator ([`crate::SimBackend`]) prices these calls in
//! bytes and `SimTime`; the live mesh (`live/storage.rs`,
//! `live/coordinator.rs`) ships their inputs and outputs as frames.
//! Neither re-implements them, which is what makes the answers of the two
//! backends agree (each is held to the central oracle, in
//! `tests/engine_correctness.rs` and `tests/live_exec.rs`).

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use rdfmesh_rdf::fxhash::FxHasher64;
use rdfmesh_rdf::{PatternSource, Term, TriplePattern, Variable};
use rdfmesh_sparql::eval::for_each_kept;
use rdfmesh_sparql::expr::Expression;
use rdfmesh_sparql::rows::UNBOUND;
use rdfmesh_sparql::{LentRows, Rows, Solution};

use crate::exec::shuffle_partition;

type FxBuild = BuildHasherDefault<FxHasher64>;

/// Local query execution (Fig. 3): match `pattern` against the node's
/// store — extending the shipped `bound` keys when the round is a bind
/// join (Sect. IV-D) — and apply the pushed-down `filter` at the source
/// (Sect. IV-G): compiled once against `pattern`, run on each triple
/// while the store still only lends it, so that a row is appended to the
/// answer only if it is shipped.
///
/// The answer is cells over the ids the store scans, and it lends its
/// terms: a table holds, per distinct id, the store's own term
/// ([`PatternSource::term`]), and the frame is written from it
/// (`live_wire::solutions_frame`) with no term cloned, hashed or freed.
/// Its columns are fixed before the first row: the pattern's variables,
/// then those only the keys bind. Each store id maps to its cell through
/// a table that lives as long as the answer. A key's own cells are found
/// at its first match: a term the store holds takes the cell of its store
/// id, so it shares one cell with the same term scanned in another
/// column, and any other is lent from the key, one cell per term.
pub(crate) fn answer<'s>(
    store: &'s dyn PatternSource,
    pattern: &TriplePattern,
    filter: Option<&Expression>,
    bound: Option<&'s [Solution]>,
) -> LentRows<'s> {
    let filter = filter.map(Expression::compile);
    let unit = [Solution::new()];
    let keys = bound.unwrap_or(&unit);
    let mut vars: Vec<Variable> = Vec::new();
    let mut column = |v: &Variable| match vars.iter().position(|known| known == v) {
        Some(c) => c,
        None => {
            vars.push(v.clone());
            vars.len() - 1
        }
    };
    // Per position, the column its variable fills; a variable the
    // pattern repeats is read at its first position only (the store
    // lends only triples that agree with themselves there).
    let mut reads = [None; 3];
    for (p, tp) in [&pattern.subject, &pattern.predicate, &pattern.object].into_iter().enumerate() {
        if let Some(v) = tp.as_var() {
            let c = column(v);
            if !reads.contains(&Some(c)) {
                reads[p] = Some(c);
            }
        }
    }
    for key in keys {
        for (v, _) in key.iter() {
            column(v);
        }
    }
    // The lent terms, cell `c` naming `terms[c - 1]`: a store id's cell,
    // and a cell for each term only a key names.
    let mut terms: Vec<&'s Term> = Vec::new();
    let mut cell_of: HashMap<u32, u32, FxBuild> = HashMap::default();
    let mut key_cells: HashMap<&'s Term, u32, FxBuild> = HashMap::default();
    let lend = |terms: &mut Vec<&'s Term>, term: &'s Term| {
        terms.push(term);
        terms.len() as u32
    };
    let mut cells: Vec<u32> = Vec::new();
    let mut len = 0;
    let mut row = vec![UNBOUND; vars.len()];
    // The key the row template holds, and which positions its rows read.
    let (mut current, mut scanned) = (usize::MAX, [None; 3]);
    for_each_kept(store, pattern, keys, filter.as_ref(), |k, matched, ids| {
        if k != current {
            current = k;
            row.fill(UNBOUND);
            // The unit key binds nothing; any other is one of `bound`'s.
            for (v, term) in bound.into_iter().flat_map(|keys| keys[k].iter()) {
                let c = vars.iter().position(|known| known == v).expect("a column");
                row[c] = match store.id(term) {
                    Some(id) => {
                        *cell_of.entry(id.0).or_insert_with(|| lend(&mut terms, store.term(id)))
                    }
                    None => *key_cells.entry(term).or_insert_with(|| lend(&mut terms, term)),
                };
            }
            // A variable the key binds was substituted: it is no longer
            // a variable of the pattern scanned, and its cell is the key's.
            let bound = &matched.pattern;
            let bound = [&bound.subject, &bound.predicate, &bound.object];
            scanned = std::array::from_fn(|p| reads[p].filter(|_| bound[p].is_var()));
        }
        for (p, c) in scanned.iter().enumerate() {
            if let Some(c) = *c {
                let id = ids[p];
                row[c] = *cell_of.entry(id.0).or_insert_with(|| lend(&mut terms, store.term(id)));
            }
        }
        cells.extend_from_slice(&row);
        len += 1;
    });
    LentRows::new(vars, terms, cells, len)
}

/// The scatter half of a HyperCube round: every pattern evaluated
/// locally, each solution filed under the one of `k` shuffle targets its
/// `join_vars` bindings hash to. `parts[target][slot]`; empty partitions
/// are kept, because a target can only join once it heard from every
/// origin.
pub(crate) fn scatter(
    store: &dyn PatternSource,
    patterns: &[TriplePattern],
    join_vars: &[Variable],
    k: usize,
) -> Vec<Vec<Rows>> {
    let k = k.max(1);
    let mut parts = vec![Vec::with_capacity(patterns.len()); k];
    for pattern in patterns {
        let rows = answer(store, pattern, None, None).to_rows();
        let split = rows.partition(k, |row| shuffle_partition(row, join_vars, k));
        for (target, part) in parts.iter_mut().zip(split) {
            target.push(part);
        }
    }
    parts
}

/// The join half, at one shuffle target or at the assembly site: per
/// pattern slot the deduped union of every origin's solutions for it
/// (`origins[o][slot]`), fold-joined in slot order. Solutions that agree
/// on the join variables land at the same target, so the union of all
/// targets' folds is the full join.
pub(crate) fn fold<'a>(slots: usize, origins: impl IntoIterator<Item = &'a Vec<Rows>>) -> Rows {
    let mut fragments: Vec<Rows> = (0..slots).map(|_| Rows::new()).collect();
    for parts in origins {
        for (fragment, set) in fragments.iter_mut().zip(parts) {
            fragment.append(set.clone());
        }
    }
    let mut acc = Rows::unit();
    for fragment in fragments {
        acc = acc.join(&fragment.distinct());
    }
    acc.distinct()
}

/// Assembly of a partial evaluation: the fold over every provider's
/// per-pattern matches, and how many of its rows were *stitched* — rows
/// beyond those some single provider could already join from its own
/// matches alone.
pub(crate) fn assemble(slots: usize, providers: &[Vec<Rows>]) -> (Rows, usize) {
    let rows = fold(slots, providers);
    let mut locally_complete = Rows::new();
    for sets in providers {
        locally_complete.append(fold(slots, [sets]));
    }
    let stitched = rows.len().saturating_sub(locally_complete.distinct().len());
    (rows, stitched)
}

#[cfg(test)]
mod tests {
    //! The four functions against the central evaluator on generated
    //! data: a random graph over a small vocabulary split across one to
    //! four stores, and a random two- or three-pattern BGP. The answer
    //! properties run on in-memory stores and on persistent ones, flushed
    //! to one level and then with an overlay insert and a tombstone over
    //! it; an answer built from store ids is held byte for byte to the
    //! frame of the same rows built from terms.

    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rdfmesh_rdf::{Literal, Term, TermPattern, Triple, TripleRef, TripleStore};
    use rdfmesh_sparql::eval::{evaluate_pattern, evaluate_pattern_with, Graph};
    use rdfmesh_sparql::expr::ComparisonOp;
    use rdfmesh_net::WireMsg;
    use rdfmesh_sparql::{solution, GraphPattern};
    use rdfmesh_store::PersistentStore;

    use crate::live::{LiveMsg, QueryId};
    use crate::live_wire::solutions_frame;

    const PREDICATES: [&str; 3] = ["p0", "p1", "p2"];

    fn iri(name: &str) -> Term {
        Term::iri(&format!("http://example.org/{name}"))
    }

    fn arb_node() -> impl Strategy<Value = Term> {
        (0u8..5).prop_map(|i| iri(&format!("n{i}")))
    }

    fn arb_object() -> impl Strategy<Value = Term> {
        prop_oneof![arb_node(), arb_node(), (0u8..3).prop_map(|i| Term::literal(&format!("l{i}")))]
    }

    fn arb_triple() -> impl Strategy<Value = Triple> {
        (arb_node(), proptest::sample::select(&PREDICATES[..]), arb_object())
            .prop_map(|(s, p, o)| Triple::new(s, iri(p), o))
    }

    /// Keys over `?v0` … `?v3`, each binding its own subset of them — so a
    /// set mixes domains as an OPTIONAL's rows do — and, in about half
    /// the sets, the unit key that binds none.
    fn arb_keys() -> impl Strategy<Value = Vec<Solution>> {
        let cell = (any::<bool>(), arb_object());
        let key = proptest::collection::vec(cell, 4..5).prop_map(|cells| {
            Solution::from_pairs(cells.into_iter().enumerate().filter_map(|(i, (bound, term))| {
                bound.then(|| (Variable::new(format!("v{i}")), term))
            }))
        });
        (proptest::collection::vec(key, 0..6), any::<bool>()).prop_map(|(mut keys, unit)| {
            if unit {
                keys.push(Solution::new());
            }
            keys
        })
    }

    /// A star on `?v0`, or a chain `?v0 → ?v1 → …`: of two patterns
    /// (joined on `?v1`) or of three, which no variable runs through.
    fn arb_bgp() -> impl Strategy<Value = Vec<TriplePattern>> {
        (any::<bool>(), proptest::collection::vec(proptest::sample::select(&PREDICATES[..]), 2..4))
            .prop_map(|(star, predicates)| {
                let var = |i: usize| TermPattern::var(&format!("v{i}"));
                predicates
                    .iter()
                    .enumerate()
                    .map(|(i, p)| match star {
                        true => TriplePattern::new(var(0), iri(p), var(i + 1)),
                        false => TriplePattern::new(var(i), iri(p), var(i + 1)),
                    })
                    .collect()
            })
    }

    fn arb_stores() -> impl Strategy<Value = Vec<TripleStore>> {
        proptest::collection::vec(proptest::collection::vec(arb_triple(), 0..12), 1..5)
            .prop_map(|parts| parts.into_iter().map(TripleStore::from_triples).collect())
    }

    fn union_of(stores: &[TripleStore]) -> TripleStore {
        TripleStore::from_triples(stores.iter().flat_map(|s| s.iter()))
    }

    /// An answer's rows, as solutions.
    fn sols(rows: LentRows<'_>) -> Vec<Solution> {
        rows.to_rows().to_solutions()
    }

    fn set(rows: impl IntoIterator<Item = Solution>) -> Vec<Solution> {
        let mut rows = solution::naive::distinct(rows.into_iter().collect());
        rows.sort();
        rows
    }

    /// The variables every pattern mentions: the shuffle hash key.
    fn common_vars(patterns: &[TriplePattern]) -> Vec<Variable> {
        let mut vars: Vec<Variable> = patterns[0].variables().into_iter().cloned().collect();
        vars.retain(|v| patterns.iter().all(|p| p.variables().contains(&v)));
        vars
    }

    /// `(?s, p, n)` with an integer `n` and `(?s, q, "v"@en)`, for `rows`
    /// subjects.
    fn mixed(rows: usize) -> TripleStore {
        TripleStore::from_triples((0..rows).flat_map(|i| {
            let s = iri(&format!("s{i}"));
            let n = Term::Literal(Literal::integer(i as i64));
            let tagged = Term::Literal(Literal::lang(format!("v{i}"), "en"));
            [Triple::new(s.clone(), iri("p"), n), Triple::new(s, iri("q"), tagged)]
        }))
    }

    /// A pushed filter costs no allocation per row: a scan that keeps no
    /// row asks the allocator as often over 10 000 rows as over 1 000,
    /// whatever the filter reads, and where it errors on every row.
    #[test]
    fn a_filter_that_keeps_no_row_allocates_nothing_per_row() {
        use crate::live_wire::allocations_by;
        let (small, large) = (mixed(1_000), mixed(10_000));
        for (predicate, condition) in [
            ("q", r#"regex(?o, "^x")"#),
            ("p", r#"regex(str(?s), "S9999X$", "i")"#),
            ("p", r#"regex(str(?s), "nowhere")"#),
            ("p", r#"regex(str(?s), "NOWHERE", "i")"#),
            ("p", "?o > 1000000"),
            ("p", "?o >= 0 && ?o < 0"),
            ("q", r#"str(?o) = "nothing""#),
            ("q", r#"lang(?o) = "fr""#),
            ("p", "datatype(?o) = <http://example.org/none>"),
            ("p", "!bound(?s)"),
            ("q", "isIRI(?o)"),
            ("p", r#"lang(?s) = "en""#), // an error on every row
        ] {
            let query = format!(
                "SELECT * WHERE {{ ?s <http://example.org/{predicate}> ?o FILTER({condition}) }}"
            );
            let algebra = rdfmesh_sparql::translate(&rdfmesh_sparql::parse(&query).unwrap());
            let GraphPattern::Filter(filter, bgp) = algebra.pattern else { panic!("{query}") };
            let GraphPattern::Bgp(patterns) = *bgp else { panic!("{query}") };
            let scan = |store| allocations_by(|| answer(store, &patterns[0], Some(&filter), None));
            let ((kept_small, few), (kept_large, many)) = (scan(&small), scan(&large));
            assert_eq!((kept_small.len(), kept_large.len()), (0, 0), "{condition}");
            assert_eq!(few, many, "{condition}: allocations over 1 000 and 10 000 rows");
        }
    }

    /// `rows` triples over the 50 terms `t0` … `t49`, each in a position
    /// of its own: every term appears from 1 000 rows on.
    fn over_fifty_terms(rows: usize) -> impl Iterator<Item = Triple> {
        let t = |i: usize| iri(&format!("t{}", i % 50));
        (0..rows).map(move |i| Triple::new(t(i), t(i / 50), t(i / 2500)))
    }

    /// How often a batch's cells ask the allocator to grow to `rows`
    /// rows of three: what an answer's allocations may grow by with its
    /// rows alone.
    fn cell_growth(rows: usize) -> usize {
        use crate::live_wire::allocations_by;
        allocations_by(|| {
            let mut cells = Vec::new();
            for _ in 0..rows {
                cells.extend_from_slice(&[UNBOUND; 3]);
            }
            cells
        })
        .1
    }

    /// An answer asks the allocator per distinct term, not per row: over
    /// the same 50 terms, 1 000 and 10 000 rows ask equally often but for
    /// the cell vector's doublings — in memory and on a persistent store
    /// (warm: a segment's blocks are cached at their first read).
    #[test]
    fn an_answer_allocates_per_distinct_term_not_per_row() {
        use crate::live_wire::allocations_by;
        let var = TermPattern::var;
        let all = TriplePattern::new(var("s"), var("p"), var("o"));
        let count = |store: &dyn PatternSource| {
            answer(store, &all, None, None);
            let (rows, n) = allocations_by(|| answer(store, &all, None, None));
            (rows.len(), n - cell_growth(rows.len()))
        };
        let memory = |rows| count(&TripleStore::from_triples(over_fifty_terms(rows)));
        let (few, many) = (memory(1_000), memory(10_000));
        assert_eq!((few.0, many.0), (1_000, 10_000));
        assert_eq!(few.1, many.1, "in memory: allocations over 1 000 and 10 000 rows");
        let disk = |rows| count(&flushed(over_fifty_terms(rows), &TempDir::new()));
        let (few, many) = (disk(1_000), disk(10_000));
        assert_eq!((few.0, many.0), (1_000, 10_000));
        assert_eq!(few.1, many.1, "persistent: allocations over 1 000 and 10 000 rows");
    }

    /// A one-row answer — a bound-subject lookup — asks the allocator no
    /// more often than when its row was built from the bindings: 11 times
    /// in memory and 15 on a one-level persistent store then, 6 and 10
    /// with its terms lent (16 and 20 with its frame).
    #[test]
    fn a_one_row_answer_allocates_no_more_than_before() {
        use crate::live_wire::allocations_by;
        let store = mixed(1_000);
        let dir = TempDir::new();
        let disk = flushed(store.iter(), &dir);
        let lookup = TriplePattern::new(iri("s5"), iri("p"), TermPattern::var("o"));
        for (store, before) in [(&store as &dyn PatternSource, 11), (&disk, 15)] {
            answer(store, &lookup, None, None);
            let (rows, n) = allocations_by(|| answer(store, &lookup, None, None));
            assert_eq!(rows.len(), 1);
            assert!(n <= before, "{n} allocations, {before} before");
        }
    }

    /// `rows` triples `(sᵢ, p, o)`: every row names a subject of its own.
    fn fresh_subjects(rows: usize) -> impl Iterator<Item = Triple> {
        (0..rows).map(|i| Triple::new(iri(&format!("s{i}")), iri("p"), iri("o")))
    }

    /// An answer's frame asks the allocator per growth, not per term: it
    /// borrows every term from the store, so writing the frame of 10 000
    /// rows that each name a new IRI asks a few times more than for 1 000
    /// — each vector and table the answer and the frame grow doubles about
    /// three times more — where a clone of each term would ask 9 000 more.
    /// In memory and on a persistent store.
    #[test]
    fn an_answers_frame_allocates_per_growth_not_per_term() {
        use crate::live_wire::allocations_by;
        let pattern = TriplePattern::new(TermPattern::var("s"), iri("p"), TermPattern::var("o"));
        let count = |store: &dyn PatternSource| {
            let ship = || solutions_frame(QueryId(1), &answer(store, &pattern, None, None));
            ship();
            allocations_by(ship).1
        };
        let memory = |rows| count(&TripleStore::from_triples(fresh_subjects(rows)));
        let (few, many) = (memory(1_000), memory(10_000));
        assert!(many <= few + GROWTH, "in memory: {few} allocations at 1 000 rows, {many} at 10k");
        let disk = |rows| count(&flushed(fresh_subjects(rows), &TempDir::new()));
        let (few, many) = (disk(1_000), disk(10_000));
        assert!(many <= few + GROWTH, "on disk: {few} allocations at 1 000 rows, {many} at 10k");
    }

    /// What ten times the rows may add to an answer's allocations: a few
    /// doublings of each vector and table it grows.
    const GROWTH: usize = 24;

    /// A key's term that the scan also lends, in another column, is one
    /// cell and one frame entry, as it is in the term path's batch: the
    /// key binds `?k` to `<n1>`, which the pattern scans as `?o`; and the
    /// key that leaves `?k` unbound leaves its cell unbound.
    #[test]
    fn a_key_term_scanned_in_another_column_is_one_cell() {
        let (n1, n2) = (iri("n1"), iri("n2"));
        let store = TripleStore::from_triples([
            Triple::new(n2.clone(), iri("p0"), n1.clone()),
            Triple::new(n1.clone(), iri("p0"), n2.clone()),
        ]);
        let var = TermPattern::var;
        let pattern = TriplePattern::new(var("s"), iri("p0"), var("o"));
        let k = Variable::new("k");
        let keys = [
            Solution::from_pairs([(k.clone(), n1.clone())]),
            Solution::from_pairs([(Variable::new("s"), n1.clone())]),
            Solution::from_pairs([(k, Term::literal("only in the key"))]),
        ];
        let got = answer(&store, &pattern, None, Some(&keys));
        let expected = evaluate_pattern_with(&Terms(&store), &pattern, &keys);
        assert_eq!(got.len(), 5);
        let (shipped, term_path) = frames(&got, &expected);
        assert_eq!(shipped, term_path);
        assert_eq!(got.to_rows(), expected);
    }

    /// A directory of its own for each persistent store a test opens,
    /// removed with it.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new() -> TempDir {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("rdfmesh-provider-{}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// `triples` in a persistent store flushed to one level.
    fn flushed(triples: impl IntoIterator<Item = Triple>, dir: &TempDir) -> PersistentStore {
        let mut store = PersistentStore::open(&dir.0).expect("open");
        for t in triples {
            store.try_insert(&t).expect("insert");
        }
        store.flush().expect("flush");
        store
    }

    /// A [`Graph`] over any store, lending terms alone: the term path's
    /// view of a store that lends ids.
    struct Terms<'s>(&'s dyn PatternSource);

    impl Graph for Terms<'_> {
        fn for_each_match(&self, pattern: &TriplePattern, f: &mut dyn FnMut(TripleRef<'_>)) {
            self.0.for_each_match(pattern, &mut |t, _| f(t));
        }
    }

    fn sources<S: PatternSource>(stores: &[S]) -> Vec<&dyn PatternSource> {
        stores.iter().map(|s| s as &dyn PatternSource).collect()
    }

    /// Runs `check` on the `stores` and their union, the central store:
    /// in memory; as persistent stores flushed to one level; and after
    /// `extra` is inserted into each (the overlay) and each one's first
    /// triple is removed (a tombstone over the level).
    fn on_every_store(
        mut stores: Vec<TripleStore>,
        extra: &Triple,
        check: impl Fn(&[&dyn PatternSource], &TripleStore) -> Result<(), TestCaseError>,
    ) -> Result<(), TestCaseError> {
        check(&sources(&stores), &union_of(&stores))?;
        let dirs: Vec<TempDir> = stores.iter().map(|_| TempDir::new()).collect();
        let mut persistent: Vec<PersistentStore> =
            stores.iter().zip(&dirs).map(|(s, dir)| flushed(s.iter(), dir)).collect();
        check(&sources(&persistent), &union_of(&stores))?;
        for (memory, disk) in stores.iter_mut().zip(&mut persistent) {
            let first = memory.iter().next().filter(|t| t != extra);
            for store in [memory as &mut dyn PatternSource, disk] {
                store.insert(extra);
                if let Some(t) = &first {
                    store.remove(t);
                }
            }
        }
        check(&sources(&persistent), &union_of(&stores))
    }

    fn check_answers_union_to_the_central_match_then_filter(
        stores: &[&dyn PatternSource],
        central: &TripleStore,
        bgp: &[TriplePattern],
        filter: Option<&Expression>,
        bind: bool,
    ) -> Result<(), TestCaseError> {
        // A bind join ships the first pattern's rows with the second.
        let bound = bind.then(|| set(sols(answer(central, &bgp[0], None, None))));
        for tp in &bgp[usize::from(bind)..] {
            let partial = bound.clone().unwrap_or_else(|| vec![Solution::new()]);
            let mut expected = evaluate_pattern_with(central, tp, &partial);
            expected.retain(|s| filter.is_none_or(|f| f.satisfied_by(s)));
            let got = stores.iter().flat_map(|&s| sols(answer(s, tp, filter, bound.as_deref())));
            prop_assert_eq!(set(got), set(expected.to_solutions()));
        }
        Ok(())
    }

    fn check_bound_answers_rejoin_to_the_unbound_join(
        stores: &[&dyn PatternSource],
        central: &TripleStore,
        bgp: &[TriplePattern],
    ) -> Result<(), TestCaseError> {
        let rows = set(sols(answer(central, &bgp[0], None, None)));
        let next = &bgp[1];
        let vars: Vec<Variable> = next.variables().into_iter().cloned().collect();
        let keys = set(rows.iter().map(|row| row.project(&vars)));
        let bound = set(stores.iter().flat_map(|&s| sols(answer(s, next, None, Some(&keys)))));
        let unbound = set(stores.iter().flat_map(|&s| sols(answer(s, next, None, None))));
        prop_assert_eq!(
            set(solution::naive::join(&rows, &bound)),
            set(solution::naive::join(&rows, &unbound))
        );
        Ok(())
    }

    fn check_fetched_matches_joined_with_the_keys(
        stores: &[&dyn PatternSource],
        bgp: &[TriplePattern],
        keys: &[Solution],
    ) -> Result<(), TestCaseError> {
        for tp in bgp {
            let fetched: Vec<Solution> =
                stores.iter().flat_map(|&s| sols(answer(s, tp, None, None))).collect();
            let bound = stores.iter().flat_map(|&s| sols(answer(s, tp, None, Some(keys))));
            prop_assert_eq!(set(solution::naive::join(keys, &fetched)), set(bound));
        }
        Ok(())
    }

    /// A pattern over `?v0` … `?v3` and the small vocabulary, each
    /// position a variable or a constant — so one variable may fill two
    /// positions (`?v1 p0 ?v1`) and a key may bind a variable it names.
    fn arb_pattern() -> impl Strategy<Value = TriplePattern> {
        let var = |i: u8| TermPattern::var(&format!("v{i}"));
        let position = |constant: BoxedStrategy<Term>| {
            (0u8..7, constant).prop_map(move |(i, c)| if i < 4 { var(i) } else { c.into() })
        };
        let predicate = proptest::sample::select(&PREDICATES[..]).prop_map(iri).boxed();
        (position(arb_node().boxed()), position(predicate), position(arb_object().boxed()))
            .prop_map(|(s, p, o)| TriplePattern::new(s, p, o))
    }

    /// A filter over `?v0` … `?v3`, or none: read from the triple, from a
    /// key, or from neither.
    fn arb_filter() -> impl Strategy<Value = Option<Expression>> {
        let var = |i: u8| Box::new(Expression::Var(Variable::new(format!("v{i}"))));
        let constant = |t: Term| Box::new(Expression::Const(t));
        let filters = [
            None,
            Some(Expression::IsIri(var(1))),
            Some(Expression::Compare(ComparisonOp::Neq, var(0), var(2))),
            Some(Expression::Compare(ComparisonOp::Eq, var(2), constant(iri("n1")))),
            Some(Expression::Bound(Variable::new("v3"))),
            Some(Expression::Not(Box::new(Expression::IsIri(var(0))))),
        ];
        proptest::sample::select(&filters[..])
    }

    /// The frame the storage role ships for a lent answer, and the one
    /// the term path's batch is shipped in: the same round's `Solutions`.
    fn frames(got: &LentRows<'_>, expected: &Rows) -> (Vec<u8>, Vec<u8>) {
        let qid = QueryId(5);
        let term_path = LiveMsg::Solutions { qid, solutions: expected.clone() }.encode_wire();
        (solutions_frame(qid, got), term_path)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn answers_union_to_the_central_match_then_filter(
            stores in arb_stores(),
            extra in arb_triple(),
            bgp in arb_bgp(),
            filter in proptest::sample::select(&[None, Some(false), Some(true)][..]),
            bind in any::<bool>(),
        ) {
            let var = |name: &str| Box::new(Expression::Var(Variable::new(name)));
            // isIRI(?v1) keeps a pattern's IRI objects and drops its literals.
            let is_iri = Expression::IsIri(var("v1"));
            // ?v0 != ?v2: with bound rows, ?v0 comes with them (the first
            // pattern binds it) and ?v2 from the triple matched here.
            let differ = Expression::Compare(ComparisonOp::Neq, var("v0"), var("v2"));
            let filter = filter.map(|both| if both { &differ } else { &is_iri });
            on_every_store(stores, &extra, |stores, central| {
                let check = check_answers_union_to_the_central_match_then_filter;
                check(stores, central, &bgp, filter, bind)
            })?;
        }

        #[test]
        fn bound_answers_over_the_key_projection_rejoin_to_the_unbound_join(
            stores in arb_stores(),
            extra in arb_triple(),
            bgp in arb_bgp(),
        ) {
            on_every_store(stores, &extra, |stores, central| {
                check_bound_answers_rejoin_to_the_unbound_join(stores, central, &bgp)
            })?;
        }

        /// What move-small relies on: a provider sent the bare pattern
        /// and joined with the keys at the coordinator contributes
        /// exactly the extensions it would have computed from the keys.
        #[test]
        fn fetched_matches_joined_with_the_keys_are_the_bound_answers(
            stores in arb_stores(),
            extra in arb_triple(),
            bgp in arb_bgp(),
            keys in arb_keys(),
        ) {
            on_every_store(stores, &extra, |stores, _| {
                check_fetched_matches_joined_with_the_keys(stores, &bgp, &keys)
            })?;
        }

        /// The answer built from store ids, its terms lent by the store,
        /// ships the frame the term path ships — the rows the pattern adds
        /// to the keys, built from their bindings
        /// ([`evaluate_pattern_with`]), then filtered — byte for byte: the
        /// same rows, in the same order, the same terms; and its batch
        /// ([`LentRows::to_rows`]) is the term path's. Over repeated
        /// variables, keys that leave cells unbound, bind the pattern's
        /// variables or name a term the scan lends in another column, the
        /// unit key, and filters.
        #[test]
        fn an_answer_ships_the_term_paths_frame_byte_for_byte(
            triples in proptest::collection::vec(arb_triple(), 0..16),
            extra in arb_triple(),
            patterns in proptest::collection::vec(arb_pattern(), 1..4),
            keys in arb_keys(),
            bind in any::<bool>(),
            filter in arb_filter(),
        ) {
            let keys = bind.then_some(&keys[..]);
            on_every_store(vec![TripleStore::from_triples(triples)], &extra, |stores, _| {
                for tp in &patterns {
                    let got = answer(stores[0], tp, filter.as_ref(), keys);
                    let unit = [Solution::new()];
                    let partial = keys.unwrap_or(&unit);
                    let mut expected = evaluate_pattern_with(&Terms(stores[0]), tp, partial);
                    if let Some(filter) = &filter {
                        let filter = filter.compile();
                        expected.retain(|row| filter.satisfied_by(row));
                    }
                    let (shipped, term_path) = frames(&got, &expected);
                    prop_assert_eq!(shipped, term_path, "{} with keys {:?}", tp, keys);
                    prop_assert_eq!(got.to_rows(), expected);
                }
                Ok(())
            })?;
        }

        #[test]
        fn scattered_fragments_fold_to_the_central_join(
            stores in arb_stores(),
            bgp in arb_bgp(),
        ) {
            let join_vars = common_vars(&bgp);
            prop_assume!(!join_vars.is_empty());
            let k = stores.len();
            let scattered: Vec<_> =
                stores.iter().map(|s| scatter(s, &bgp, &join_vars, k)).collect();
            // Target t folds what every origin filed under t.
            let folded = (0..k).map(|t| fold(bgp.len(), scattered.iter().map(|parts| &parts[t])));
            let folded = folded.flat_map(|rows| rows.to_solutions());
            let expected = evaluate_pattern(&union_of(&stores), &GraphPattern::Bgp(bgp.clone()));
            prop_assert_eq!(set(folded), set(expected));
        }

        #[test]
        fn assembly_is_the_central_join_and_counts_what_no_provider_had_alone(
            stores in arb_stores(),
            bgp in arb_bgp(),
        ) {
            let replies: Vec<Vec<Rows>> = stores
                .iter()
                .map(|s| bgp.iter().map(|tp| answer(s, tp, None, None).to_rows()).collect())
                .collect();
            let (rows, stitched) = assemble(bgp.len(), &replies);
            let whole = GraphPattern::Bgp(bgp.clone());
            let central = evaluate_pattern(&union_of(&stores), &whole);
            prop_assert_eq!(set(rows.to_solutions()), set(central));
            let alone = set(stores.iter().flat_map(|s| evaluate_pattern(s, &whole)));
            prop_assert_eq!(stitched, rows.len() - alone.len());
        }
    }
}
