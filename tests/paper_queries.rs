//! The paper's example queries (Figs. 4-9), run end to end on the
//! distributed system against a dataset constructed to exhibit exactly
//! the situations the paper narrates.
//!
//! The figures use a stylized syntax (angle-bracketed prefixed names,
//! ORDER BY inside the WHERE block); the queries here are the same
//! queries transcribed to standard SPARQL.

use rdfmesh::rdf::vocab::{foaf, ns};
use rdfmesh::{ExecConfig, NodeId, QueryResult, SharingSystem, Term, Triple};

fn person(name: &str) -> Term {
    Term::iri(&format!("http://example.org/{name}"))
}

fn t(s: &Term, p: &str, o: Term) -> Triple {
    Triple::new(s.clone(), Term::iri(p), o)
}

/// A little society: Smith knows Shrek-nicknamed Carol; Smith and Bob
/// know nothing about each other but both know Carol.
fn storybook_system() -> (SharingSystem, NodeId) {
    let mut sys = SharingSystem::new();
    let ix = sys.add_index_node().unwrap();
    for _ in 0..3 {
        sys.add_index_node().unwrap();
    }
    let alice = person("alice");
    let bob = person("bob");
    let carol = person("carol");
    let dave = person("dave");

    // Each person is a peer sharing their own data (the ad-hoc model).
    sys.add_peer(vec![
        t(&alice, foaf::NAME, Term::literal("Alice Smith")),
        t(&alice, foaf::KNOWS, carol.clone()),
        t(&alice, ns::KNOWS_NOTHING_ABOUT, bob.clone()),
        t(&alice, foaf::MBOX, Term::iri("mailto:abc@example.org")),
    ])
    .unwrap();
    sys.add_peer(vec![
        t(&bob, foaf::NAME, Term::literal("Bob Jones")),
        t(&bob, foaf::KNOWS, carol.clone()),
    ])
    .unwrap();
    sys.add_peer(vec![
        t(&carol, foaf::NAME, Term::literal("Carol Smith")),
        t(&carol, foaf::NICK, Term::literal("Shrek")),
        t(&carol, foaf::KNOWS, dave.clone()),
    ])
    .unwrap();
    sys.add_peer(vec![t(&dave, foaf::NAME, Term::literal("Dave Brown"))]).unwrap();
    (sys, ix)
}

#[test]
fn fig4_full_query() {
    // Find ?x (named *Smith*), ?y, ?z where ?x knows ?z, ?x knows nothing
    // about ?y, and ?y knows ?z.
    let (mut sys, ix) = storybook_system();
    let exec = sys
        .query(
            ix,
            "PREFIX foaf: <http://xmlns.com/foaf/0.1/>\n\
             PREFIX ns: <http://example.org/ns#>\n\
             SELECT ?x ?y ?z WHERE {\n\
               ?x foaf:name ?name .\n\
               ?x foaf:knows ?z .\n\
               ?x ns:knowsNothingAbout ?y .\n\
               ?y foaf:knows ?z .\n\
               FILTER regex(?name, \"Smith\")\n\
             } ORDER BY DESC(?x)",
        )
        .unwrap();
    // Alice Smith knows carol, knows nothing about bob, bob knows carol.
    assert_eq!(exec.result.len(), 1);
    let sol = &exec.result.solutions().unwrap()[0];
    assert_eq!(sol.get_by_name("x").unwrap(), &person("alice"));
    assert_eq!(sol.get_by_name("y").unwrap(), &person("bob"));
    assert_eq!(sol.get_by_name("z").unwrap(), &person("carol"));
}

#[test]
fn fig5_primitive_query() {
    // SELECT ?x WHERE { ?x foaf:knows ns:me . } — transcribed onto carol.
    let (mut sys, ix) = storybook_system();
    let exec = sys
        .query(ix, "SELECT ?x WHERE { ?x foaf:knows <http://example.org/carol> . }")
        .unwrap();
    let mut who: Vec<String> = exec
        .result
        .solutions()
        .unwrap()
        .iter()
        .map(|s| s.get_by_name("x").unwrap().to_string())
        .collect();
    who.sort();
    assert_eq!(who, ["<http://example.org/alice>", "<http://example.org/bob>"]);
}

#[test]
fn fig6_conjunction_query() {
    // SELECT ?x ?y ?z WHERE { ?x foaf:knows ?z . ?x ns:knowsNothingAbout ?y . }
    let (mut sys, ix) = storybook_system();
    let exec = sys
        .query(
            ix,
            "SELECT ?x ?y ?z WHERE { ?x foaf:knows ?z . ?x ns:knowsNothingAbout ?y . }",
        )
        .unwrap();
    assert_eq!(exec.result.len(), 1);
    let sol = &exec.result.solutions().unwrap()[0];
    assert_eq!(sol.get_by_name("x").unwrap(), &person("alice"));
    assert_eq!(sol.get_by_name("z").unwrap(), &person("carol"));
}

#[test]
fn fig7_optional_query() {
    // ?x named Smith knows ?y; optionally ?y is nicknamed Shrek.
    let (mut sys, ix) = storybook_system();
    let exec = sys
        .query(
            ix,
            "SELECT ?x ?y WHERE { ?x foaf:name \"Alice Smith\" . ?x foaf:knows ?y . \
             OPTIONAL { ?y foaf:nick \"Shrek\" . } }",
        )
        .unwrap();
    // Alice knows carol; carol IS nicknamed Shrek, so the row survives
    // with ?y bound either way.
    assert_eq!(exec.result.len(), 1);
    assert_eq!(
        exec.result.solutions().unwrap()[0].get_by_name("y").unwrap(),
        &person("carol")
    );

    // The optional part not matching must NOT reject the row: query for
    // Bob, whose friend carol matches, then for carol, whose friend dave
    // has no nick at all.
    let exec = sys
        .query(
            ix,
            "SELECT ?x ?y WHERE { ?x foaf:name \"Carol Smith\" . ?x foaf:knows ?y . \
             OPTIONAL { ?y foaf:nick \"Shrek\" . } }",
        )
        .unwrap();
    assert_eq!(exec.result.len(), 1, "unmatched OPTIONAL keeps the solution");
}

#[test]
fn fig8_union_query() {
    // { ?x named Smith knows ?y } UNION { ?x has mbox abc@ knows ?z }.
    let (mut sys, ix) = storybook_system();
    let exec = sys
        .query(
            ix,
            "SELECT ?x ?y ?z WHERE { \
             { ?x foaf:name \"Alice Smith\" . ?x foaf:knows ?y . } \
             UNION \
             { ?x foaf:mbox <mailto:abc@example.org> . ?x foaf:knows ?z . } }",
        )
        .unwrap();
    // Alice satisfies both branches: one row binds ?y, the other ?z.
    assert_eq!(exec.result.len(), 2);
    let sols = exec.result.solutions().unwrap();
    assert!(sols.iter().any(|s| s.get_by_name("y").is_some() && s.get_by_name("z").is_none()));
    assert!(sols.iter().any(|s| s.get_by_name("z").is_some() && s.get_by_name("y").is_none()));
}

#[test]
fn fig9_filter_query() {
    // ?x foaf:name ?name ; ns:knowsNothingAbout ?y with regex filter and
    // optional ?y foaf:knows ?z.
    let (mut sys, ix) = storybook_system();
    let exec = sys
        .query(
            ix,
            "SELECT ?x ?y ?z WHERE { \
             ?x foaf:name ?name ; ns:knowsNothingAbout ?y . \
             FILTER regex(?name, \"Smith\") \
             OPTIONAL { ?y foaf:knows ?z . } }",
        )
        .unwrap();
    assert_eq!(exec.result.len(), 1);
    let sol = &exec.result.solutions().unwrap()[0];
    assert_eq!(sol.get_by_name("x").unwrap(), &person("alice"));
    assert_eq!(sol.get_by_name("y").unwrap(), &person("bob"));
    // Bob knows carol, so the optional bound ?z.
    assert_eq!(sol.get_by_name("z").unwrap(), &person("carol"));
}

#[test]
fn all_figures_agree_across_strategy_space() {
    // Each figure query returns identical solutions under the baseline
    // and the optimized configurations.
    let queries = [
        "SELECT ?x WHERE { ?x foaf:knows <http://example.org/carol> . }",
        "SELECT ?x ?y ?z WHERE { ?x foaf:knows ?z . ?x ns:knowsNothingAbout ?y . }",
        "SELECT ?x ?y WHERE { ?x foaf:name \"Alice Smith\" . ?x foaf:knows ?y . OPTIONAL { ?y foaf:nick \"Shrek\" . } }",
        "SELECT * WHERE { { ?x foaf:nick ?v . } UNION { ?x foaf:mbox ?v . } }",
        "SELECT ?x ?y ?z WHERE { ?x foaf:name ?name ; ns:knowsNothingAbout ?y . FILTER regex(?name, \"Smith\") OPTIONAL { ?y foaf:knows ?z . } }",
    ];
    let (mut sys, ix) = storybook_system();
    for q in queries {
        let optimized = sys.query(ix, q).unwrap();
        let baseline = sys.query_with(ix, q, ExecConfig::baseline()).unwrap();
        match (&optimized.result, &baseline.result) {
            (QueryResult::Solutions(a), QueryResult::Solutions(b)) => {
                let mut a = a.solutions().to_vec();
                let mut b = b.solutions().to_vec();
                a.sort();
                b.sort();
                assert_eq!(a, b, "{q}");
            }
            other => panic!("unexpected result shapes {other:?}"),
        }
    }
}
