//! What a storage node computes from a request, and what the coordinator
//! computes from the partial matches it gathers — once, as functions of
//! data alone. The simulator ([`crate::SimBackend`]) prices these calls in
//! bytes and `SimTime`; the live mesh (`live/storage.rs`,
//! `live/coordinator.rs`) ships their inputs and outputs as frames.
//! Neither re-implements them, which is what makes the answers of the two
//! backends agree (each is held to the central oracle, in
//! `tests/engine_correctness.rs` and `tests/live_exec.rs`).

use rdfmesh_rdf::{TriplePattern, Variable};
use rdfmesh_sparql::eval::{for_each_kept, Graph};
use rdfmesh_sparql::expr::Expression;
use rdfmesh_sparql::{Rows, Solution};

use crate::exec::shuffle_partition;

/// Local query execution (Fig. 3): match `pattern` against the node's
/// store — extending the shipped `bound` keys when the round is a bind
/// join (Sect. IV-D) — and apply the pushed-down `filter` at the source
/// (Sect. IV-G): compiled once against `pattern`, run on each triple
/// while the store still only lends it, so that a row is appended to the
/// answer's batch only if it is shipped.
pub(crate) fn answer<G: Graph>(
    store: &G,
    pattern: &TriplePattern,
    filter: Option<&Expression>,
    bound: Option<&[Solution]>,
) -> Rows {
    let filter = filter.map(Expression::compile);
    let mut rows = Rows::new();
    let unit = [Solution::new()];
    for_each_kept(store, pattern, bound.unwrap_or(&unit), filter.as_ref(), |row| {
        rows.push_bindings(row.bindings());
    });
    rows
}

/// The scatter half of a HyperCube round: every pattern evaluated
/// locally, each solution filed under the one of `k` shuffle targets its
/// `join_vars` bindings hash to. `parts[target][slot]`; empty partitions
/// are kept, because a target can only join once it heard from every
/// origin.
pub(crate) fn scatter<G: Graph>(
    store: &G,
    patterns: &[TriplePattern],
    join_vars: &[Variable],
    k: usize,
) -> Vec<Vec<Rows>> {
    let k = k.max(1);
    let mut parts = vec![Vec::with_capacity(patterns.len()); k];
    for pattern in patterns {
        let rows = answer(store, pattern, None, None);
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
    //! four stores, and a random two- or three-pattern BGP.

    use super::*;
    use proptest::prelude::*;
    use rdfmesh_rdf::{Literal, Term, TermPattern, Triple, TripleStore};
    use rdfmesh_sparql::eval::{evaluate_pattern, evaluate_pattern_with};
    use rdfmesh_sparql::expr::ComparisonOp;
    use rdfmesh_sparql::{solution, GraphPattern};

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

    /// A batch's rows, as solutions.
    fn sols(rows: Rows) -> Vec<Solution> {
        rows.to_solutions()
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn answers_union_to_the_central_match_then_filter(
            stores in arb_stores(),
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
            let central = union_of(&stores);
            // A bind join ships the first pattern's rows with the second.
            let bound = bind.then(|| set(sols(answer(&central, &bgp[0], None, None))));
            for tp in &bgp[usize::from(bind)..] {
                let partial = bound.clone().unwrap_or_else(|| vec![Solution::new()]);
                let mut expected = evaluate_pattern_with(&central, tp, &partial);
                expected.retain(|s| filter.is_none_or(|f| f.satisfied_by(s)));
                let got = stores.iter().flat_map(|s| sols(answer(s, tp, filter, bound.as_deref())));
                prop_assert_eq!(set(got), set(sols(expected)));
            }
        }

        #[test]
        fn bound_answers_over_the_key_projection_rejoin_to_the_unbound_join(
            stores in arb_stores(),
            bgp in arb_bgp(),
        ) {
            let central = union_of(&stores);
            let rows = set(sols(answer(&central, &bgp[0], None, None)));
            let next = &bgp[1];
            let vars: Vec<Variable> = next.variables().into_iter().cloned().collect();
            let keys = set(rows.iter().map(|row| row.project(&vars)));
            let bound = set(stores.iter().flat_map(|s| sols(answer(s, next, None, Some(&keys)))));
            let unbound = set(stores.iter().flat_map(|s| sols(answer(s, next, None, None))));
            prop_assert_eq!(
                set(solution::naive::join(&rows, &bound)),
                set(solution::naive::join(&rows, &unbound))
            );
        }

        /// What move-small relies on: a provider sent the bare pattern
        /// and joined with the keys at the coordinator contributes
        /// exactly the extensions it would have computed from the keys.
        #[test]
        fn fetched_matches_joined_with_the_keys_are_the_bound_answers(
            stores in arb_stores(),
            bgp in arb_bgp(),
            keys in arb_keys(),
        ) {
            for tp in &bgp {
                let fetched: Vec<Solution> =
                    stores.iter().flat_map(|s| sols(answer(s, tp, None, None))).collect();
                let bound = stores.iter().flat_map(|s| sols(answer(s, tp, None, Some(&keys))));
                prop_assert_eq!(set(solution::naive::join(&keys, &fetched)), set(bound));
            }
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
            let folded =
                (0..k).flat_map(|t| sols(fold(bgp.len(), scattered.iter().map(|parts| &parts[t]))));
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
                .map(|s| bgp.iter().map(|tp| answer(s, tp, None, None)).collect())
                .collect();
            let (rows, stitched) = assemble(bgp.len(), &replies);
            let whole = GraphPattern::Bgp(bgp.clone());
            let central = evaluate_pattern(&union_of(&stores), &whole);
            prop_assert_eq!(set(sols(rows.clone())), set(central));
            let alone = set(stores.iter().flat_map(|s| evaluate_pattern(s, &whole)));
            prop_assert_eq!(stitched, rows.len() - alone.len());
        }
    }
}
