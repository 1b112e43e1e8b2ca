//! Property-based tests for the RDF substrate.

use proptest::prelude::*;
use rdfmesh_rdf::{
    ntriples, BlankNode, Iri, Literal, PatternSource, Term, TermPattern, Triple, TriplePattern,
    TripleStore,
};

/// Small alphabets force collisions, which is where bugs live.
fn arb_iri() -> impl Strategy<Value = Term> {
    (0u8..6).prop_map(|i| Term::iri(&format!("http://example.org/r{i}")))
}

fn arb_literal() -> impl Strategy<Value = Term> {
    prop_oneof![
        "[a-zA-Z0-9 \\\\\"\n\t]{0,12}".prop_map(|s| Term::Literal(Literal::plain(s))),
        (any::<i64>()).prop_map(|n| Term::Literal(Literal::integer(n))),
        ("[a-z]{1,6}", prop_oneof![Just("en"), Just("fr"), Just("zh-hans")])
            .prop_map(|(s, tag)| Term::Literal(Literal::lang(s, tag))),
    ]
}

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        4 => arb_iri(),
        3 => arb_literal(),
        1 => (0u8..4).prop_map(|i| Term::blank(&format!("b{i}"))),
    ]
}

prop_compose! {
    fn arb_triple()(s in arb_iri(), p in arb_iri(), o in arb_term()) -> Triple {
        Triple::new(s, p, o)
    }
}

fn arb_position(bound: Term, var: &'static str) -> impl Strategy<Value = TermPattern> {
    prop_oneof![
        Just(TermPattern::Const(bound)),
        Just(TermPattern::var(var)),
    ]
}

prop_compose! {
    /// A pattern whose bound positions come from `anchor`, so matches are
    /// likely but not guaranteed.
    fn arb_pattern()(anchor in arb_triple())
        (s in arb_position(anchor.subject.clone(), "s"),
         p in arb_position(anchor.predicate.clone(), "p"),
         o in arb_position(anchor.object, "o")) -> TriplePattern {
        TriplePattern::new(s, p, o)
    }
}

/// What it means for a triple to match a pattern, written out: the
/// pattern's constants equal the triple's terms, and one mapping of
/// variables to terms covers all three positions.
fn matches_by_definition(pattern: &TriplePattern, triple: &Triple) -> bool {
    let mut mapping: Vec<(&TermPattern, &Term)> = Vec::new();
    [
        (&pattern.subject, &triple.subject),
        (&pattern.predicate, &triple.predicate),
        (&pattern.object, &triple.object),
    ]
    .into_iter()
    .all(|(position, term)| match position {
        TermPattern::Const(c) => c == term,
        var => match mapping.iter().find(|(v, _)| *v == var) {
            Some((_, bound)) => *bound == term,
            None => {
                mapping.push((var, term));
                true
            }
        },
    })
}

prop_compose! {
    /// Every position bound to `anchor`'s term or one of two variables:
    /// all eight pattern kinds, and every way a variable can repeat
    /// (`?x p ?x`, `?x ?x ?o`, `?x ?x ?x`, …).
    fn arb_shape()(anchor in arb_triple())
        (s in prop_oneof![arb_position(anchor.subject.clone(), "x"), Just(TermPattern::var("y"))],
         p in prop_oneof![arb_position(anchor.predicate.clone(), "x"), Just(TermPattern::var("y"))],
         o in prop_oneof![arb_position(anchor.object, "x"), Just(TermPattern::var("y"))])
        -> TriplePattern {
        TriplePattern::new(s, p, o)
    }
}

/// Text over the characters N-Triples treats specially: ASCII controls
/// and space, IRIREF's excluded set, the escapes' own characters, Unicode
/// whitespace, non-ASCII.
fn arb_text() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z:/#.%-]{1,10}",
        "[\u{0}-\u{7f}]{0,10}",
        "\\PC{0,6}",
        "[a-z \t\n\r\u{0}\u{1f}\u{7f}\u{85}\u{a0}\u{2028}<>\"'{}|^`\\\\é😀]{0,8}",
    ]
}

proptest! {
    /// What `dict.log` depends on: a term is stored as its N-Triples text
    /// and reopened by `parse_term_str`, so every term the checked
    /// constructors accept must print as text that reads back as itself.
    /// (`Literal::lang` checks no tag; tags come from the two parsers,
    /// which read `[A-Za-z0-9-]+`, so tags are drawn from that.)
    #[test]
    fn every_term_the_constructors_accept_reads_back_from_its_n_triples(
        text in arb_text(),
        label in "[a-zA-Z0-9_.-]{0,6}",
        lexical in arb_text(),
        tag in "[a-zA-Z0-9-]{1,8}",
    ) {
        let mut terms = vec![
            Term::Literal(Literal::plain(lexical.as_str())),
            Term::Literal(Literal::lang(lexical.as_str(), tag)),
        ];
        if let Ok(iri) = Iri::new(text.as_str()) {
            terms.push(Term::Literal(Literal::typed(lexical, iri.clone())));
            terms.push(Term::Iri(iri));
        }
        if let Ok(blank) = BlankNode::new(label) {
            terms.push(Term::Blank(blank));
        }
        for term in terms {
            prop_assert_eq!(ntriples::parse_term_str(&term.to_string()), Ok(term));
        }
    }

    #[test]
    fn lending_scan_visits_what_the_pattern_defines(
        // Objects drawn like subjects and predicates, so that repeated
        // variables have rows to keep.
        triples in proptest::collection::vec(
            (arb_iri(), arb_iri(), prop_oneof![arb_iri(), arb_term()])
                .prop_map(|(s, p, o)| Triple::new(s, p, o)),
            0..40,
        ),
        pattern in arb_shape(),
    ) {
        let store = TripleStore::from_triples(triples.clone());
        let mut expected: Vec<Triple> =
            triples.iter().filter(|t| matches_by_definition(&pattern, t)).cloned().collect();
        expected.sort();
        expected.dedup();
        let mut lent = Vec::new();
        let mut named = std::collections::BTreeMap::new();
        store.for_each_match(&pattern, |t, ids| {
            // One id per term and one term per id, across the walk.
            for (id, term) in ids.into_iter().zip([t.subject, t.predicate, t.object]) {
                assert_eq!(named.entry(id).or_insert_with(|| term.clone()), term);
            }
            lent.push(t.to_triple());
        });
        let terms: std::collections::BTreeSet<_> = named.values().collect();
        prop_assert_eq!(terms.len(), named.len(), "two ids lent for one term");
        lent.sort();
        prop_assert_eq!(&lent, &expected, "{}", &pattern);
        // The trait's cloning methods sit on the same scan.
        let source: &dyn PatternSource = &store;
        let mut matched = source.match_pattern(&pattern);
        matched.sort();
        prop_assert_eq!(&matched, &expected, "{}", &pattern);
        prop_assert_eq!(source.count_pattern(&pattern), expected.len(), "{}", &pattern);
    }

    #[test]
    fn ntriples_round_trip(triples in proptest::collection::vec(arb_triple(), 0..20)) {
        let doc = ntriples::write_document(&triples);
        let parsed = ntriples::parse_document(&doc).expect("own output must parse");
        prop_assert_eq!(parsed, triples);
    }

    #[test]
    fn term_display_length_equals_serialized_len(t in arb_term()) {
        prop_assert_eq!(t.serialized_len(), t.to_string().len());
    }

    #[test]
    fn store_matches_naive_filter(
        triples in proptest::collection::vec(arb_triple(), 0..40),
        pattern in arb_pattern(),
    ) {
        let store = TripleStore::from_triples(triples.clone());
        let mut expected: Vec<Triple> = triples
            .iter()
            .filter(|t| pattern.matches(t))
            .cloned()
            .collect();
        expected.sort();
        expected.dedup();
        let mut got = store.match_pattern(&pattern);
        got.sort();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn store_insert_remove_is_setlike(
        ops in proptest::collection::vec((arb_triple(), any::<bool>()), 0..60)
    ) {
        let mut store = TripleStore::new();
        let mut model = std::collections::BTreeSet::new();
        for (t, insert) in &ops {
            if *insert {
                prop_assert_eq!(store.insert(t), model.insert(t.clone()));
            } else {
                prop_assert_eq!(store.remove(t), model.remove(t));
            }
        }
        prop_assert_eq!(store.len(), model.len());
        let mut got: Vec<Triple> = store.iter().collect();
        got.sort();
        let expected: Vec<Triple> = model.into_iter().collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn count_pattern_agrees_with_match_pattern(
        triples in proptest::collection::vec(arb_triple(), 0..40),
        pattern in arb_pattern(),
    ) {
        let store = TripleStore::from_triples(triples);
        prop_assert_eq!(store.count_pattern(&pattern), store.match_pattern(&pattern).len());
    }

    #[test]
    fn pattern_kind_bound_count_is_consistent(pattern in arb_pattern()) {
        let bound = [&pattern.subject, &pattern.predicate, &pattern.object]
            .iter()
            .filter(|p| !p.is_var())
            .count();
        prop_assert_eq!(pattern.kind().bound_count(), bound);
    }
}
