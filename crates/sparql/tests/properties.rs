//! Property-based tests for the SPARQL substrate: the solution-mapping
//! algebra laws of Pérez et al. and the semantic soundness of every
//! optimizer rewrite.

use proptest::prelude::*;
use rdfmesh_rdf::{
    Iri, Literal, Term, TermPattern, Triple, TriplePattern, TripleStore, Variable,
};
use rdfmesh_sparql::{
    algebra::GraphPattern,
    eval,
    expr::{ComparisonOp, Expression},
    optimizer::{self, OptimizerConfig},
    solution::{self, Solution},
    Rows,
};

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0u8..5).prop_map(|i| Term::iri(&format!("http://example.org/r{i}"))),
        (0u8..5).prop_map(|i| Term::literal(&format!("v{i}"))),
    ]
}

fn arb_solution() -> impl Strategy<Value = Solution> {
    proptest::collection::btree_map(0u8..4, arb_term(), 0..4).prop_map(|m| {
        Solution::from_pairs(m.into_iter().map(|(v, t)| (Variable::new(format!("x{v}")), t)))
    })
}

fn arb_solution_set() -> impl Strategy<Value = Vec<Solution>> {
    proptest::collection::vec(arb_solution(), 0..8)
}

fn batch(solutions: &[Solution]) -> Rows {
    Rows::from_solutions(solutions)
}

fn sorted(mut s: Vec<Solution>) -> Vec<Solution> {
    s.sort();
    s
}

/// The batch's rows as a multiset: its solutions, sorted.
fn multiset(rows: Rows) -> Vec<Solution> {
    sorted(rows.into_solutions())
}

proptest! {
    #[test]
    fn compatibility_is_symmetric(a in arb_solution(), b in arb_solution()) {
        prop_assert_eq!(a.compatible(&b), b.compatible(&a));
    }

    #[test]
    fn merge_defined_iff_compatible(a in arb_solution(), b in arb_solution()) {
        prop_assert_eq!(a.merge(&b).is_some(), a.compatible(&b));
        if let Some(m) = a.merge(&b) {
            // The merge restricted to either domain reproduces it.
            for (v, t) in a.iter() {
                prop_assert_eq!(m.get(v), Some(t));
            }
            for (v, t) in b.iter() {
                prop_assert_eq!(m.get(v), Some(t));
            }
        }
    }

    #[test]
    fn join_is_commutative_as_multiset(l in arb_solution_set(), r in arb_solution_set()) {
        prop_assert_eq!(multiset(batch(&l).join(&batch(&r))), multiset(batch(&r).join(&batch(&l))));
    }

    #[test]
    fn union_is_commutative_as_multiset(l in arb_solution_set(), r in arb_solution_set()) {
        let (mut lr, mut rl) = (batch(&l), batch(&r));
        lr.append(batch(&r));
        rl.append(batch(&l));
        prop_assert_eq!(multiset(lr), multiset(rl));
    }

    #[test]
    fn left_join_equals_join_union_difference(l in arb_solution_set(), r in arb_solution_set()) {
        // Paper Sect. IV-E: Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 − Ω2).
        let lhs = multiset(batch(&l).left_join(&batch(&r)));
        let mut rhs = batch(&l).join(&batch(&r));
        rhs.append(batch(&l).difference(&batch(&r)));
        prop_assert_eq!(lhs, multiset(rhs));
    }

    #[test]
    fn difference_members_are_incompatible_with_all(l in arb_solution_set(), r in arb_solution_set()) {
        for d in batch(&l).difference(&batch(&r)).to_solutions() {
            prop_assert!(r.iter().all(|x| !d.compatible(x)));
        }
    }

    #[test]
    fn join_with_empty_right_is_empty(l in arb_solution_set()) {
        prop_assert!(batch(&l).join(&Rows::new()).is_empty());
        // And joining with the unit solution is identity.
        prop_assert_eq!(multiset(batch(&l).join(&Rows::unit())), multiset(batch(&l)));
    }
}

// ---- the solution-set wire frame ----------------------------------------

/// All five term kinds over a small alphabet of one-, two- and three-byte
/// characters: repeats hit the frame's dictionary, and neighbouring
/// entries share prefixes that end inside a code point (`é` and `è`
/// differ in their second byte only).
fn arb_wire_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        "[aéè]{0,3}".prop_map(|s| Term::iri(&format!("http://example.org/é{s}"))),
        "[a-c]{1,2}".prop_map(|s| Term::blank(&s)),
        "[aéè€]{0,3}".prop_map(|s| Term::literal(&s)),
        ("[aéè]{0,2}", "[ef]{1,2}").prop_map(|(s, tag)| Term::Literal(Literal::lang(s, tag))),
        ("[0-9é]{0,2}", "[éè]{0,1}").prop_map(|(s, dt)| {
            let dt = Iri::new(format!("http://example.org/type/{dt}")).unwrap();
            Term::Literal(Literal::typed(s, dt))
        }),
    ]
}

/// Rows whose domains differ (OPTIONAL-style unbound cells), including
/// the unit row; the empty set comes from the `0..` size range.
fn arb_wire_set() -> impl Strategy<Value = Vec<Solution>> {
    let row = proptest::collection::btree_map(0u8..4, arb_wire_term(), 0..4).prop_map(|m| {
        Solution::from_pairs(m.into_iter().map(|(v, t)| (Variable::new(format!("x{v}")), t)))
    });
    proptest::collection::vec(row, 0..12)
}

proptest! {
    #[test]
    fn wire_frame_round_trips(set in arb_wire_set()) {
        let bytes = solution::wire::encode(&set);
        prop_assert_eq!(solution::wire::encoded_len(&set), bytes.len());
        prop_assert_eq!(solution::wire::decode(&bytes).unwrap(), set);
    }

    #[test]
    fn wire_frame_round_trips_when_ids_cost_more_than_the_budget(
        name_len in prop_oneof![Just(1usize), Just(200), Just(solution::wire::MAX_NAME)],
        rows in proptest::collection::vec((0usize..3, 0usize..3), 0..80),
    ) {
        // Long names and a small pool of long bodies, repeated: bare ids
        // would make the decoder copy far more than `EXPANSION` allows,
        // so the encoder must spell terms out again — and the decoder,
        // which enforces the budget, must accept every frame it writes.
        let pool = [
            Term::literal(&"é".repeat(300)),
            Term::iri(&format!("http://e/{}", "a".repeat(900))),
            Term::literal("é"),
        ];
        let (a, b) = (Variable::new("a".repeat(name_len)), Variable::new("b".repeat(name_len)));
        let set: Vec<Solution> = rows
            .into_iter()
            .map(|(x, y)| {
                Solution::from_pairs([(a.clone(), pool[x].clone()), (b.clone(), pool[y].clone())])
            })
            .collect();
        let bytes = solution::wire::encode(&set);
        prop_assert_eq!(solution::wire::encoded_len(&set), bytes.len());
        prop_assert_eq!(solution::wire::decode(&bytes).unwrap(), set);
    }

    #[test]
    fn wire_decoder_never_panics_on_mutated_frames(
        set in arb_wire_set(),
        at in any::<proptest::sample::Index>(),
        byte in any::<u8>(),
    ) {
        let mut bytes = solution::wire::encode(&set);
        let i = at.index(bytes.len());
        bytes[i] = byte;
        // Either a clean error or some valid set — and what decodes
        // re-encodes to something that decodes to itself.
        if let Ok(decoded) = solution::wire::decode(&bytes) {
            let again = solution::wire::encode(&decoded);
            prop_assert_eq!(solution::wire::decode(&again).unwrap(), decoded);
        }
    }
}

// ---- optimizer soundness on random patterns over random stores ---------

fn arb_triple() -> impl Strategy<Value = Triple> {
    (
        (0u8..4).prop_map(|i| Term::iri(&format!("http://example.org/s{i}"))),
        (0u8..3).prop_map(|i| Term::iri(&format!("http://example.org/p{i}"))),
        prop_oneof![
            (0u8..4).prop_map(|i| Term::iri(&format!("http://example.org/s{i}"))),
            (0i64..5).prop_map(|n| Term::Literal(rdfmesh_rdf::Literal::integer(n))),
        ],
    )
        .prop_map(|(s, p, o)| Triple::new(s, p, o))
}

fn arb_tp() -> impl Strategy<Value = TriplePattern> {
    let pos = |vals: u8, prefix: &'static str, vars: &'static [&'static str]| {
        prop_oneof![
            (0u8..vals).prop_map(move |i| TermPattern::Const(Term::iri(&format!(
                "http://example.org/{prefix}{i}"
            )))),
            proptest::sample::select(vars).prop_map(TermPattern::var),
        ]
    };
    (
        pos(4, "s", &["a", "b"]),
        pos(3, "p", &["p"]),
        prop_oneof![
            pos(4, "s", &["a", "b", "c"]),
            (0i64..5).prop_map(|n| TermPattern::Const(Term::Literal(
                rdfmesh_rdf::Literal::integer(n)
            ))),
        ],
    )
        .prop_map(|(s, p, o)| TriplePattern::new(s, p, o))
}

fn arb_filter_expr() -> impl Strategy<Value = Expression> {
    prop_oneof![
        proptest::sample::select(&["a", "b", "c"][..])
            .prop_map(|v| Expression::Bound(Variable::new(v))),
        (proptest::sample::select(&["a", "b", "c"][..]), 0i64..5).prop_map(|(v, n)| {
            Expression::Compare(
                ComparisonOp::Lt,
                Box::new(Expression::Var(Variable::new(v))),
                Box::new(Expression::Const(Term::Literal(rdfmesh_rdf::Literal::integer(n)))),
            )
        }),
        Just(Expression::boolean(true)),
    ]
}

fn arb_bgp() -> impl Strategy<Value = GraphPattern> {
    proptest::collection::vec(arb_tp(), 1..3).prop_map(GraphPattern::Bgp)
}

fn arb_pattern() -> impl Strategy<Value = GraphPattern> {
    arb_bgp().prop_recursive(2, 8, 2, move |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| GraphPattern::Join(
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| GraphPattern::Union(
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| GraphPattern::LeftJoin(
                Box::new(a),
                Box::new(b),
                None
            )),
            (arb_filter_expr(), inner).prop_map(|(e, p)| GraphPattern::Filter(
                e,
                Box::new(p)
            )),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn optimizer_preserves_semantics(
        triples in proptest::collection::vec(arb_triple(), 0..25),
        pattern in arb_pattern(),
    ) {
        let store = TripleStore::from_triples(triples);
        let plain = eval::evaluate_pattern(&store, &pattern);
        let optimized_pattern = optimizer::optimize(pattern.clone(), &OptimizerConfig::default());
        let optimized = eval::evaluate_pattern(&store, &optimized_pattern);
        prop_assert_eq!(
            sorted(plain),
            sorted(optimized),
            "pattern {} rewrote to {} with different meaning",
            pattern,
            optimized_pattern
        );
    }

    #[test]
    fn filter_pushing_alone_preserves_semantics(
        triples in proptest::collection::vec(arb_triple(), 0..25),
        pattern in arb_pattern(),
    ) {
        let store = TripleStore::from_triples(triples);
        let plain = eval::evaluate_pattern(&store, &pattern);
        let pushed = optimizer::push_filters(pattern);
        let optimized = eval::evaluate_pattern(&store, &pushed);
        prop_assert_eq!(sorted(plain), sorted(optimized));
    }

    #[test]
    fn bgp_member_order_is_irrelevant(
        triples in proptest::collection::vec(arb_triple(), 0..25),
        tps in proptest::collection::vec(arb_tp(), 1..4),
        seed in any::<u64>(),
    ) {
        let store = TripleStore::from_triples(triples);
        let base = eval::evaluate_pattern(&store, &GraphPattern::Bgp(tps.clone()));
        // An arbitrary rotation + swap permutation.
        let mut permuted = tps.clone();
        let n = permuted.len();
        permuted.rotate_left((seed as usize) % n);
        if n > 1 && seed % 2 == 0 {
            permuted.swap(0, n - 1);
        }
        let other = eval::evaluate_pattern(&store, &GraphPattern::Bgp(permuted));
        prop_assert_eq!(sorted(base), sorted(other));
    }
}

// ---- mini regex vs naive substring for literal patterns ----------------

proptest! {
    #[test]
    fn literal_regex_is_substring_search(
        haystack in "[a-c]{0,12}",
        needle in "[a-c]{0,4}",
    ) {
        let re = rdfmesh_sparql::regex::Regex::new(&needle).expect("literal pattern");
        prop_assert_eq!(re.is_match(&haystack), haystack.contains(&needle));
    }

    #[test]
    fn anchored_regex_is_equality(s in "[a-c]{0,8}", t in "[a-c]{0,8}") {
        let re = rdfmesh_sparql::regex::Regex::new(&format!("^{t}$")).expect("literal");
        prop_assert_eq!(re.is_match(&s), s == t);
    }
}

// ---- serializer round trip ----------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn serialized_patterns_reparse_to_the_same_meaning(
        triples in proptest::collection::vec(arb_triple(), 0..20),
        pattern in arb_pattern(),
    ) {
        let store = TripleStore::from_triples(triples);
        let rendered = format!("SELECT * WHERE {}", rdfmesh_sparql::serialize_pattern(&pattern));
        let reparsed = rdfmesh_sparql::parse_query(&rendered)
            .unwrap_or_else(|e| panic!("unparseable rendering {rendered}: {e}"));
        let a = sorted(eval::evaluate_pattern(&store, &pattern));
        let b = sorted(eval::evaluate_pattern(&store, &reparsed.pattern));
        prop_assert_eq!(a, b, "pattern {} rendered as {}", pattern, rendered);
    }
}

// ---- robustness: arbitrary input must never panic the pipeline ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn parser_never_panics_on_garbage(input in "\\PC{0,80}") {
        let _ = rdfmesh_sparql::parse_query(&input);
    }

    #[test]
    fn parser_never_panics_on_sparqlish_soup(
        tokens in proptest::collection::vec(
            proptest::sample::select(&[
                "SELECT", "WHERE", "{", "}", "?x", "?y", "FILTER", "(", ")",
                "OPTIONAL", "UNION", ".", ";", ",", "foaf:knows", "\"lit\"",
                "<http://e/x>", "42", "&&", "||", "!", "=", "<", "a", "[", "]",
                "ORDER", "BY", "DESC", "LIMIT", "ASK", "FROM", "REGEX", "*",
            ][..]),
            0..24,
        ),
    ) {
        let query = tokens.join(" ");
        let _ = rdfmesh_sparql::parse_query(&query);
    }

    #[test]
    fn regex_engine_never_panics(pattern in "\\PC{0,24}", input in "\\PC{0,40}") {
        if let Ok(re) = rdfmesh_sparql::regex::Regex::new(&pattern) {
            let _ = re.is_match(&input);
        }
    }

    #[test]
    fn ntriples_parser_never_panics(input in "\\PC{0,120}") {
        let _ = rdfmesh_rdf::parse_document(&input);
    }
}
