//! The index keys a provider publishes are bit-identical however they are
//! computed: from a lent triple or an owned one, counted in one pass over
//! a store's lending scan or one owned triple at a time. A golden test
//! pins the six key ids of fixed triples, so the hash itself cannot drift.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rdfmesh_chord::{Id, IdSpace};
use rdfmesh_overlay::{key_counts, key_for_triple, keys_for_triple, IndexKey, KeyKind, NumericBuckets};
use rdfmesh_rdf::{vocab, Iri, Literal, SharedStore, Term, Triple};

fn arb_term(position: &'static str) -> impl Strategy<Value = Term> {
    let int = Iri::new(vocab::xsd::INTEGER).expect("xsd:integer");
    prop_oneof![
        (0u8..6).prop_map(move |i| Term::iri(&format!("http://example.org/{position}{i}"))),
        (0u8..3).prop_map(|i| Term::blank(&format!("b{i}"))),
        (0i32..120).prop_map(move |n| Term::Literal(Literal::typed(n.to_string(), int.clone()))),
        "[a-c\"\\\\ ]{0,4}".prop_map(|s| Term::literal(&s)),
        (0u8..3).prop_map(|i| Term::Literal(Literal::lang(format!("name {i}"), "en"))),
    ]
}

fn arb_triple() -> impl Strategy<Value = Triple> {
    (
        arb_term("s"),
        (0u8..3).prop_map(|i| Term::iri(&format!("http://example.org/p{i}"))),
        arb_term("o"),
    )
        .prop_map(|(s, p, o)| Triple::new(s, p, o))
}

/// The six keys as the overlay first computed them: every key formats its
/// terms anew and hashes their length-prefixed texts.
fn naive_keys(space: IdSpace, t: &Triple) -> [IndexKey; 6] {
    let (s, p, o) = (t.subject.to_string(), t.predicate.to_string(), t.object.to_string());
    KeyKind::ALL.map(|kind| {
        let parts: Vec<&str> = match kind {
            KeyKind::S => vec!["S", &s],
            KeyKind::P => vec!["P", &p],
            KeyKind::O => vec!["O", &o],
            KeyKind::SP => vec!["SP", &s, &p],
            KeyKind::PO => vec!["PO", &p, &o],
            KeyKind::SO => vec!["SO", &s, &o],
            KeyKind::PON => unreachable!("not one of the six"),
        };
        IndexKey { kind, id: space.hash_parts(&parts) }
    })
}

proptest! {
    #[test]
    fn counting_lent_triples_equals_counting_owned_ones(
        triples in proptest::collection::vec(arb_triple(), 0..60),
        bits in prop_oneof![Just(8u32), Just(32u32), Just(64u32)],
        bucketed in any::<bool>(),
    ) {
        let space = IdSpace::new(bits);
        let buckets = bucketed.then(|| NumericBuckets::new(0.0, 100.0, 7));
        let store: SharedStore = triples.iter().cloned().collect();
        // The naive count: every distinct triple once, owned, key by key.
        let mut distinct = triples.clone();
        distinct.sort();
        distinct.dedup();
        let mut naive: BTreeMap<(Id, KeyKind), u64> = BTreeMap::new();
        for t in &distinct {
            let keys = keys_for_triple(space, t);
            prop_assert_eq!(keys, naive_keys(space, t));
            let range_key = buckets.and_then(|b| b.key_of(space, t));
            for key in keys.into_iter().chain(range_key) {
                *naive.entry((key.id, key.kind)).or_insert(0) += 1;
            }
        }
        let want: Vec<(IndexKey, u64)> =
            naive.into_iter().map(|((id, kind), n)| (IndexKey { kind, id }, n)).collect();
        let lent = key_counts(space, buckets, store.len(), |f| store.for_each_triple(f));
        prop_assert_eq!(&lent, &want);
        // A wrong length is a capacity hint, never a different count.
        let unhinted = key_counts(space, buckets, 0, |f| store.for_each_triple(f));
        prop_assert_eq!(unhinted, want);
    }
}

#[test]
fn six_key_ids_of_fixed_triples_are_pinned() {
    let space = IdSpace::new(64);
    let student = Triple::new(
        Term::iri("http://www.Department0.University0.edu/GraduateStudent12"),
        Term::iri("http://swat.cse.lehigh.edu/onto/univ-bench.owl#name"),
        Term::Literal(Literal::lang("Ann \"Twelve\"\tLee", "en")),
    );
    let age = Triple::new(
        Term::blank("b7"),
        Term::iri("http://e/age"),
        Term::Literal(Literal::typed("42", Iri::new(vocab::xsd::INTEGER).expect("xsd:integer"))),
    );
    let pinned: [(&Triple, [u64; 6]); 2] = [
        (
            &student,
            [
                0xdb3c_ef9e_00f7_93cb,
                0xc645_d98f_d5b6_667d,
                0xbb15_eada_5d13_53f9,
                0xce36_bb9e_b30e_6aec,
                0x1426_485c_d486_8d20,
                0x885f_38c5_99a4_cabb,
            ],
        ),
        (
            &age,
            [
                0xdf81_be32_07ce_35eb,
                0x2191_1e62_2e57_0272,
                0x24fc_2a1c_764c_4b00,
                0x4054_63cc_6ea0_553d,
                0xbca4_f5f9_5e6f_de99,
                0x4865_2442_3fe1_3e79,
            ],
        ),
    ];
    for (triple, ids) in pinned {
        let keys = keys_for_triple(space, triple);
        assert_eq!(keys.map(|k| k.kind), KeyKind::ALL);
        assert_eq!(keys.map(|k| k.id.0), ids, "{triple}");
        for key in keys {
            assert_eq!(key_for_triple(space, triple, key.kind), key);
        }
        // A 32-bit ring keeps the low half.
        let narrow = keys_for_triple(IdSpace::new(32), triple);
        assert_eq!(narrow.map(|k| k.id.0), ids.map(|id| id & 0xffff_ffff));
    }
}
