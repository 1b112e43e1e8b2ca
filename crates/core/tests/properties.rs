//! Property-based end-to-end validation: for random data placements and
//! random queries, the distributed engine must agree with the local
//! oracle under random strategy configurations — including bind-join and
//! with a randomly failed storage node (whose data legitimately drops
//! out of the answer).

use proptest::prelude::*;
use rdfmesh_core::{global_store, Engine, ExecConfig, JoinSiteStrategy, PrimitiveStrategy};
use rdfmesh_net::{LatencyModel, Network, NodeId, SimTime};
use rdfmesh_overlay::Overlay;
use rdfmesh_rdf::{Term, Triple, TripleStore};
use rdfmesh_sparql::{evaluate_query, parse_query, Solution};

fn arb_triple() -> impl Strategy<Value = Triple> {
    (
        (0u8..5).prop_map(|i| Term::iri(&format!("http://example.org/s{i}"))),
        prop_oneof![
            Just(Term::iri("http://xmlns.com/foaf/0.1/knows")),
            Just(Term::iri("http://xmlns.com/foaf/0.1/name")),
            Just(Term::iri("http://example.org/p0")),
        ],
        prop_oneof![
            (0u8..5).prop_map(|i| Term::iri(&format!("http://example.org/s{i}"))),
            (0u8..4).prop_map(|i| Term::literal(&format!("name{i}"))),
        ],
    )
        .prop_map(|(s, p, o)| Triple::new(s, p, o))
}

fn arb_config() -> impl Strategy<Value = ExecConfig> {
    (
        proptest::sample::select(&PrimitiveStrategy::ALL[..]),
        proptest::sample::select(&JoinSiteStrategy::ALL[..]),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(primitive, join_site, overlap_aware, bind_join, freq)| ExecConfig {
            primitive,
            join_site,
            overlap_aware,
            bind_join,
            frequency_join_order: freq,
            ..ExecConfig::default()
        })
}

fn arb_query() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("SELECT * WHERE { ?x foaf:knows ?y . }".to_string()),
        Just("SELECT * WHERE { ?x foaf:knows ?y . ?y foaf:knows ?z . }".to_string()),
        Just("SELECT * WHERE { ?x foaf:name ?n . ?x foaf:knows ?y . }".to_string()),
        Just(
            "SELECT * WHERE { ?x foaf:knows ?y . OPTIONAL { ?y foaf:name ?n . } }".to_string()
        ),
        Just(
            "SELECT * WHERE { { ?x foaf:name ?v . } UNION { ?x <http://example.org/p0> ?v . } }"
                .to_string()
        ),
        Just(
            "SELECT * WHERE { ?x foaf:name ?n . FILTER regex(?n, \"name1\") }".to_string()
        ),
        (0u8..5).prop_map(|i| format!(
            "SELECT ?x WHERE {{ ?x foaf:knows <http://example.org/s{i}> . }}"
        )),
    ]
}

fn build(datasets: &[Vec<Triple>]) -> Overlay {
    let net = Network::new(LatencyModel::Uniform(SimTime::millis(1)), 12.5);
    let mut o = Overlay::new(32, 4, 2, net);
    for i in 0..3u64 {
        let addr = NodeId(1000 + i);
        let pos = o.ring().space().hash(&addr.0.to_be_bytes());
        o.add_index_node(addr, pos).unwrap();
    }
    for (i, t) in datasets.iter().enumerate() {
        o.add_storage_node(NodeId(1 + i as u64), NodeId(1000 + (i as u64 % 3)), t.clone())
            .unwrap();
    }
    o
}

fn oracle(store: &TripleStore, query: &str) -> Vec<Solution> {
    let q = parse_query(query).unwrap();
    let mut s = evaluate_query(store, &q).solutions().unwrap().to_vec();
    s.sort();
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn distributed_matches_oracle_for_random_configs(
        datasets in proptest::collection::vec(
            proptest::collection::vec(arb_triple(), 0..10), 1..4),
        cfg in arb_config(),
        query in arb_query(),
    ) {
        let mut overlay = build(&datasets);
        let expected = oracle(&global_store(&overlay), &query);
        let exec = Engine::new(&mut overlay, cfg)
            .execute(NodeId(1000), &query)
            .expect("distributed execution");
        let mut got = exec.result.solutions().expect("SELECT").to_vec();
        got.sort();
        prop_assert_eq!(got, expected, "query {} under {:?}", query, cfg);
    }

    #[test]
    fn failed_node_only_removes_its_own_contribution(
        datasets in proptest::collection::vec(
            proptest::collection::vec(arb_triple(), 1..8), 2..4),
        victim in any::<prop::sample::Index>(),
        query in arb_query(),
    ) {
        let mut overlay = build(&datasets);
        let nodes = overlay.storage_nodes();
        let dead = nodes[victim.index(nodes.len())];
        overlay.fail_storage_node(dead).unwrap();
        // Oracle over the *survivors*.
        let expected = oracle(&global_store(&overlay), &query);
        let exec = Engine::new(&mut overlay, ExecConfig::default())
            .execute(NodeId(1000), &query)
            .expect("execution despite failure");
        let mut got = exec.result.solutions().expect("SELECT").to_vec();
        got.sort();
        prop_assert_eq!(got, expected);
        // A second run (entries purged) agrees and hits no timeouts.
        let exec2 = Engine::new(&mut overlay, ExecConfig::default())
            .execute(NodeId(1000), &query)
            .expect("clean second run");
        prop_assert_eq!(exec2.stats.dead_providers, 0);
    }

    /// The observability tentpole's exactness guarantee: for any random
    /// config/placement/query, the query trace — from which the statistics
    /// are read — carries exactly the bytes and messages the network
    /// carried, the trace is well-formed, and the per-phase breakdown
    /// partitions the byte and response-time totals with no remainder.
    #[test]
    fn traced_stats_are_a_derived_view(
        datasets in proptest::collection::vec(
            proptest::collection::vec(arb_triple(), 0..10), 1..4),
        cfg in arb_config(),
        query in arb_query(),
        from_storage in any::<bool>(),
    ) {
        let mut overlay = build(&datasets);
        // A storage-node initiator also exercises the forwarded-sub-query
        // spans; an index-node initiator the direct path.
        let initiator = if from_storage { NodeId(1) } else { NodeId(1000) };
        let before = overlay.net.stats();
        let (exec, trace) = Engine::new(&mut overlay, cfg)
            .execute_traced(initiator, &query)
            .expect("traced execution");
        let carried = before.delta(&overlay.net.stats());
        prop_assert!(
            trace.check_well_formed().is_ok(),
            "ill-formed trace: {:?}", trace.check_well_formed()
        );
        prop_assert_eq!(
            (trace.total_bytes(), trace.total_messages()),
            (carried.total_bytes, carried.messages),
            "query {} under {:?}", query, cfg
        );
        let rows = trace.phase_breakdown();
        let bytes: u64 = rows.iter().map(|r| r.bytes).sum();
        let msgs: u64 = rows.iter().map(|r| r.messages).sum();
        let time: u64 = rows.iter().map(|r| r.time_us).sum();
        prop_assert_eq!(bytes, exec.stats.total_bytes);
        prop_assert_eq!(msgs, exec.stats.messages);
        prop_assert_eq!(time, exec.stats.response_time.0);
    }
}
