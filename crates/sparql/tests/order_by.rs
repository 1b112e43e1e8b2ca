//! ORDER BY on the batch path against the oracle: [`finalize`] sorts by
//! each row's key values, computed once, and must order every row as
//! [`evaluate_query`]'s post-processing does, which evaluates both keys
//! on every comparison — ascending and descending, over one or two keys,
//! on every kind of term, on keys an OPTIONAL leaves unbound and on
//! expressions that raise an error.

use proptest::prelude::*;
use rdfmesh_rdf::vocab::xsd;
use rdfmesh_rdf::{Iri, Literal, Term, Triple, TripleStore};
use rdfmesh_sparql::{evaluate_pattern, evaluate_query, finalize, parse_query, Rows};

/// Every kind of term: IRIs and blanks whose text order differs from
/// their number order, plain, language-tagged and typed literals, and
/// numbers of three datatypes that tie in value.
fn mixed_term() -> impl Strategy<Value = Term> {
    let typed = |lexical: &str, datatype: &str| {
        Term::Literal(Literal::typed(lexical, Iri::new(datatype).expect("a datatype IRI")))
    };
    proptest::sample::select(&[
        Term::iri("http://e/10"),
        Term::iri("http://e/9"),
        Term::blank("b0"),
        Term::blank("b1"),
        Term::literal("10"),
        Term::literal("5x"),
        Term::literal(""),
        Term::Literal(Literal::lang("5x", "en")),
        Term::Literal(Literal::lang("5x", "de")),
        typed("5x", xsd::STRING),
        Term::Literal(Literal::integer(9)),
        Term::Literal(Literal::integer(-3)),
        typed("9.0", xsd::DECIMAL),
        typed("9.0E0", xsd::DOUBLE),
        typed("NaN", xsd::DOUBLE),
    ][..])
}

/// Up to eight subjects, each with one to three `p` values and, for some,
/// a `q` value the OPTIONAL picks up.
fn store() -> impl Strategy<Value = TripleStore> {
    let q = (any::<bool>(), mixed_term()).prop_map(|(some, b)| some.then_some(b));
    let subject = (proptest::collection::vec(mixed_term(), 1..4), q);
    proptest::collection::vec(subject, 0..8).prop_map(|subjects| {
        let mut store = TripleStore::new();
        for (i, (ps, q)) in subjects.into_iter().enumerate() {
            let s = Term::iri(&format!("http://e/s{i}"));
            for a in ps {
                store.insert(&Triple::new(s.clone(), Term::iri("http://e/p"), a));
            }
            if let Some(b) = q {
                store.insert(&Triple::new(s.clone(), Term::iri("http://e/q"), b));
            }
        }
        store
    })
}

/// One ORDER BY key: a variable (unbound where the OPTIONAL failed) or an
/// expression that errors on anything but a number, either direction.
fn key() -> impl Strategy<Value = String> {
    let expr = proptest::sample::select(&["?a", "?b", "(?a + 1)", "(?b * 2)", "STR(?b)"][..]);
    (expr, any::<bool>()).prop_map(|(expr, descending)| match descending {
        true => format!("DESC({expr})"),
        false => format!("ASC({expr})"),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn finalize_orders_as_the_oracle(
        store in store(),
        keys in proptest::collection::vec(key(), 1..3),
        limit in (any::<bool>(), 0usize..6).prop_map(|(some, n)| some.then_some(n)),
    ) {
        let limit = limit.map(|n| format!(" LIMIT {n}")).unwrap_or_default();
        let text = format!(
            "SELECT * WHERE {{ ?s <http://e/p> ?a OPTIONAL {{ ?s <http://e/q> ?b }} }} ORDER BY {}{limit}",
            keys.join(" ")
        );
        let query = parse_query(&text).expect("the query parses");
        let rows = Rows::from_solutions(&evaluate_pattern(&store, &query.pattern));
        prop_assert_eq!(finalize(&store, &query, rows), evaluate_query(&store, &query), "{}", text);
    }
}
