//! Distributed execution must agree with local-oracle evaluation.
//!
//! The ground truth for any query is the Pérez-et-al. semantics over the
//! dataset D = union of all storage nodes' triples (Sect. IV-A),
//! computed by the local engine on a merged store. Every strategy
//! combination must return exactly the same solution multiset.

use rdfmesh_core::{
    global_store, DistChoice, Engine, ExecConfig, Execution, JoinSiteStrategy, PrimitiveStrategy,
};
use rdfmesh_net::{LatencyModel, Network, NodeId, SimTime};
use rdfmesh_obs::QueryTrace;
use rdfmesh_overlay::Overlay;
use rdfmesh_rdf::{PatternKind, Term, TermPattern, TriplePattern};
use rdfmesh_sparql::{evaluate_query, parse_query, QueryResult, Solution};
use rdfmesh_workload::{foaf, queries, FoafConfig, Rng};

fn build_overlay(cfg: &FoafConfig) -> Overlay {
    let data = foaf::generate(cfg);
    let net = Network::new(LatencyModel::Uniform(SimTime::millis(1)), 12.5);
    let mut overlay = Overlay::new(32, 4, 2, net);
    let index_count = 5;
    for i in 0..index_count {
        let addr = NodeId(1000 + i);
        let pos = overlay.ring().space().hash(&addr.0.to_be_bytes());
        overlay.add_index_node(addr, pos).unwrap();
    }
    for (i, triples) in data.peers.iter().enumerate() {
        let attach = NodeId(1000 + (i as u64 % index_count));
        overlay.add_storage_node(NodeId(1 + i as u64), attach, triples.clone()).unwrap();
    }
    overlay
}

fn oracle(overlay: &Overlay, query: &str) -> QueryResult {
    let store = global_store(overlay);
    let q = parse_query(query).unwrap();
    evaluate_query(&store, &q)
}

fn sorted(mut sols: Vec<Solution>) -> Vec<Solution> {
    sols.sort();
    sols
}

/// Asserts the distributed result equals the oracle for `query` under
/// `cfg`, returning the solution count.
fn assert_agrees(overlay: &mut Overlay, query: &str, cfg: ExecConfig) -> usize {
    let got = Engine::new(overlay, cfg).execute(NodeId(1000), query).unwrap();
    assert_is_the_oracles(overlay, query, &got.result, cfg)
}

/// Asserts `got` — what some engine answered `query` with under `cfg` —
/// is what the central oracle answers, returning the solution count.
fn assert_is_the_oracles(
    overlay: &Overlay,
    query: &str,
    got: &QueryResult,
    cfg: ExecConfig,
) -> usize {
    let expected = oracle(overlay, query);
    match (&expected, got) {
        (QueryResult::Solutions(e), QueryResult::Solutions(g)) => {
            assert_eq!(
                sorted(e.clone()),
                sorted(g.clone()),
                "distributed vs oracle mismatch for {query} under {cfg:?}"
            );
            g.len()
        }
        (QueryResult::Boolean(e), QueryResult::Boolean(g)) => {
            assert_eq!(e, g, "{query}");
            usize::from(*g)
        }
        (QueryResult::Graph(e), QueryResult::Graph(g)) => {
            let mut e = e.clone();
            let mut g = g.clone();
            e.sort();
            g.sort();
            assert_eq!(e, g, "{query} under {cfg:?}");
            g.len()
        }
        other => panic!("result shape mismatch for {query}: {other:?}"),
    }
}

/// Runs `query` traced under `cfg` and holds the trace — the query's only
/// account — to the network's own ledger over the query: the trace is
/// well-formed, and its bytes and messages are exactly those the network
/// carried.
fn traced_against_the_network(
    overlay: &mut Overlay,
    cfg: ExecConfig,
    initiator: NodeId,
    query: &str,
) -> (Execution, QueryTrace) {
    let before = overlay.net.stats();
    let (exec, trace) = Engine::new(overlay, cfg).execute_traced(initiator, query).unwrap();
    let carried = before.delta(&overlay.net.stats());
    trace.check_well_formed().unwrap();
    assert_eq!(
        (trace.total_bytes(), trace.total_messages()),
        (carried.total_bytes, carried.messages),
        "trace != network for {query} under {cfg:?}"
    );
    (exec, trace)
}

fn all_configs() -> Vec<ExecConfig> {
    let mut out = Vec::new();
    for primitive in PrimitiveStrategy::ALL {
        for join_site in JoinSiteStrategy::ALL {
            for overlap_aware in [false, true] {
                for bind_join in [false, true] {
                    out.push(ExecConfig {
                        primitive,
                        join_site,
                        overlap_aware,
                        bind_join,
                        ..ExecConfig::default()
                    });
                }
            }
        }
    }
    out.push(ExecConfig::baseline());
    // The one-round multiway strategies: the simulator prices the shuffle
    // and the assembly that `live_exec.rs` holds the mesh to.
    for dist in [DistChoice::HyperCube, DistChoice::PartialEval] {
        out.push(ExecConfig { dist, ..ExecConfig::default() });
    }
    out
}

#[test]
fn primitive_queries_agree_across_all_strategies() {
    let mut overlay = build_overlay(&FoafConfig { persons: 40, peers: 6, ..Default::default() });
    let pool: Vec<_> = global_store(&overlay).iter().collect();
    let mut rng = Rng::new(77);
    let mix = queries::primitive_mix(&pool, 16, &mut rng);
    for (kind, query) in mix {
        for cfg in [
            ExecConfig { primitive: PrimitiveStrategy::Basic, ..ExecConfig::default() },
            ExecConfig { primitive: PrimitiveStrategy::Chained, ..ExecConfig::default() },
            ExecConfig { primitive: PrimitiveStrategy::FrequencyOrdered, ..ExecConfig::default() },
        ] {
            let n = assert_agrees(&mut overlay, &query, cfg);
            if kind == PatternKind::SPO {
                assert!(n <= 1, "fully bound pattern yields at most the unit solution");
            }
        }
    }
}

#[test]
fn conjunctive_star_and_chain_agree() {
    let mut overlay = build_overlay(&FoafConfig { persons: 30, peers: 5, ..Default::default() });
    let knows = rdfmesh_rdf::Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS);
    let star = "SELECT * WHERE { ?x foaf:name ?n . ?x foaf:age ?a . ?x foaf:knows ?y . }";
    let chain2 = queries::chain_query(&knows, 2);
    let chain3 = queries::chain_query(&knows, 3);
    for query in [star, chain2.as_str(), chain3.as_str()] {
        for cfg in all_configs() {
            assert_agrees(&mut overlay, query, cfg);
        }
    }
}

#[test]
fn optional_union_filter_agree() {
    let mut overlay = build_overlay(&FoafConfig {
        persons: 30,
        peers: 5,
        nick_probability: 0.4,
        ..Default::default()
    });
    let queries = [
        // Fig. 7 shape.
        "SELECT * WHERE { ?x foaf:knows ?y . OPTIONAL { ?y foaf:nick ?n . } }",
        // Fig. 8 shape.
        "SELECT * WHERE { { ?x foaf:nick ?v . } UNION { ?x foaf:mbox ?v . } }",
        // Fig. 9 shape (filter + optional).
        "SELECT * WHERE { ?x foaf:name ?name ; foaf:knows ?y . FILTER regex(?name, \"Smith\") OPTIONAL { ?y foaf:nick ?n . } }",
        // Filter with numeric comparison.
        "SELECT * WHERE { ?x foaf:age ?a . FILTER (?a >= 30 && ?a < 60) }",
        // Nested: union of conjunctions with filter.
        "SELECT * WHERE { { ?x foaf:name ?n . ?x foaf:age ?a . FILTER(?a > 50) } UNION { ?x foaf:nick ?n . } }",
    ];
    for query in queries {
        for cfg in all_configs() {
            assert_agrees(&mut overlay, query, cfg);
        }
    }
}

#[test]
fn paper_fig4_query_agrees_distributed() {
    let mut overlay = build_overlay(&FoafConfig {
        persons: 50,
        peers: 8,
        ignores_degree: 2,
        ..Default::default()
    });
    let fig4 = "SELECT ?x ?y ?z WHERE { \
                ?x foaf:name ?name . \
                ?x foaf:knows ?z . \
                ?x ns:knowsNothingAbout ?y . \
                ?y foaf:knows ?z . \
                FILTER regex(?name, \"Smith\") } ORDER BY DESC(?x)";
    for cfg in all_configs() {
        assert_agrees(&mut overlay, fig4, cfg);
    }
}

#[test]
fn ask_construct_describe_work_distributed() {
    let mut overlay = build_overlay(&FoafConfig { persons: 20, peers: 4, ..Default::default() });
    assert_agrees(&mut overlay, "ASK { ?x foaf:knows ?y . }", ExecConfig::default());
    assert_agrees(
        &mut overlay,
        "CONSTRUCT { ?y <http://example.org/knownBy> ?x . } WHERE { ?x foaf:knows ?y . }",
        ExecConfig::default(),
    );
    // DESCRIBE a concrete person.
    let person = rdfmesh_workload::foaf::person_iri(0);
    let q = format!("DESCRIBE {person}");
    assert_agrees(&mut overlay, &q, ExecConfig::default());
}

#[test]
fn modifiers_apply_at_initiator() {
    let mut overlay = build_overlay(&FoafConfig { persons: 30, peers: 5, ..Default::default() });
    assert_agrees(
        &mut overlay,
        "SELECT DISTINCT ?x WHERE { ?x foaf:knows ?y . } ORDER BY ?x LIMIT 5",
        ExecConfig::default(),
    );
    assert_agrees(
        &mut overlay,
        "SELECT ?x ?a WHERE { ?x foaf:age ?a . } ORDER BY DESC(?a) OFFSET 3 LIMIT 4",
        ExecConfig::default(),
    );
}

#[test]
fn storage_node_initiator_works() {
    let mut overlay = build_overlay(&FoafConfig { persons: 20, peers: 4, ..Default::default() });
    let query = "SELECT ?x WHERE { ?x foaf:knows ?y . }";
    let expected = oracle(&overlay, query);
    let got = Engine::new(&mut overlay, ExecConfig::default())
        .execute(NodeId(1), query)
        .unwrap();
    assert_eq!(expected.len(), got.result.len());
}

#[test]
fn unknown_initiator_is_an_error() {
    let mut overlay = build_overlay(&FoafConfig { persons: 10, peers: 2, ..Default::default() });
    let r = Engine::new(&mut overlay, ExecConfig::default())
        .execute(NodeId(9999), "ASK { ?x foaf:knows ?y . }");
    assert!(r.is_err());
}

#[test]
fn empty_result_queries_are_cheap_and_correct() {
    let mut overlay = build_overlay(&FoafConfig { persons: 10, peers: 2, ..Default::default() });
    // A predicate nobody uses: index lookup finds no providers.
    let q = "SELECT ?x WHERE { ?x <http://example.org/unused> ?y . }";
    let exec = Engine::new(&mut overlay, ExecConfig::default()).execute(NodeId(1000), q).unwrap();
    assert_eq!(exec.result.len(), 0);
    assert_eq!(exec.stats.providers_contacted, 0, "no storage node should be bothered");
}

#[test]
fn replicated_triples_deduplicate_per_union_semantics() {
    // The same triple stored at two providers must appear once: D is the
    // *union* of all storage nodes' triples (Sect. IV-A).
    let net = Network::new(LatencyModel::Uniform(SimTime::millis(1)), 12.5);
    let mut overlay = Overlay::new(32, 4, 2, net);
    let ix = NodeId(1000);
    overlay.add_index_node(ix, rdfmesh_chord::Id(0)).unwrap();
    let t = rdfmesh_rdf::Triple::new(
        rdfmesh_rdf::Term::iri("http://example.org/a"),
        rdfmesh_rdf::Term::iri("http://xmlns.com/foaf/0.1/knows"),
        rdfmesh_rdf::Term::iri("http://example.org/b"),
    );
    overlay.add_storage_node(NodeId(1), ix, vec![t.clone()]).unwrap();
    overlay.add_storage_node(NodeId(2), ix, vec![t]).unwrap();
    let q = "SELECT ?x ?y WHERE { ?x foaf:knows ?y . }";
    for primitive in PrimitiveStrategy::ALL {
        let cfg = ExecConfig { primitive, ..ExecConfig::default() };
        let exec = Engine::new(&mut overlay, cfg).execute(ix, q).unwrap();
        assert_eq!(exec.result.len(), 1, "strategy {primitive} kept a duplicate");
    }
}

#[test]
fn flooding_answers_all_variable_pattern() {
    let mut overlay = build_overlay(&FoafConfig { persons: 10, peers: 3, ..Default::default() });
    let q = "SELECT * WHERE { ?s ?p ?o . }";
    let n = assert_agrees(&mut overlay, q, ExecConfig::default());
    assert_eq!(n, global_store(&overlay).len());
}

#[test]
fn university_dataset_conjunctions_agree() {
    let data = rdfmesh_workload::generate_university(&rdfmesh_workload::UniversityConfig::default());
    let net = Network::new(LatencyModel::Uniform(SimTime::millis(1)), 12.5);
    let mut overlay = Overlay::new(32, 4, 2, net);
    for i in 0..4u64 {
        let addr = NodeId(1000 + i);
        let pos = overlay.ring().space().hash(&addr.0.to_be_bytes());
        overlay.add_index_node(addr, pos).unwrap();
    }
    for (i, triples) in data.peers.iter().enumerate() {
        overlay
            .add_storage_node(NodeId(1 + i as u64), NodeId(1000 + (i as u64 % 4)), triples.clone())
            .unwrap();
    }
    // Students and their advisors' departments: a 3-hop chain.
    let q = "SELECT ?s ?prof ?dept WHERE { \
             ?s <http://example.org/univ#advisor> ?prof . \
             ?prof <http://example.org/univ#worksFor> ?dept . \
             ?s <http://example.org/univ#memberOf> ?dept . }";
    for cfg in all_configs() {
        let n = assert_agrees(&mut overlay, q, cfg);
        assert!(n > 0, "advisors are in the same department by construction");
    }
}

/// Observability exactness on the correctness fixtures: for every
/// strategy configuration and every query form — including DESCRIBE's
/// distributed resource fetches and a dead provider's ack timeout — the
/// query trace carries exactly the bytes and messages the network
/// carried, and the per-phase breakdown partitions the byte, message,
/// and response-time totals with no remainder.
#[test]
fn the_trace_carries_what_the_network_carried_on_fixtures() {
    let person = rdfmesh_workload::foaf::person_iri(0);
    let describe = format!("DESCRIBE {person}");
    let queries = [
        "SELECT * WHERE { ?x foaf:knows ?y . }",
        "SELECT * WHERE { ?x foaf:knows ?y . ?y foaf:knows ?z . }",
        "SELECT * WHERE { ?x foaf:knows ?y . OPTIONAL { ?y foaf:name ?n . } }",
        "SELECT * WHERE { ?s ?p ?o . }",
        "ASK { ?x foaf:knows ?y . }",
        "CONSTRUCT { ?y <http://example.org/knownBy> ?x . } WHERE { ?x foaf:knows ?y . }",
        describe.as_str(),
        // The slice applies before the resources are chosen: one person
        // is described, not every match (ties broken by ?x, so the oracle
        // and the engine cut the same row).
        "DESCRIBE ?x WHERE { ?x foaf:name ?n . } ORDER BY ?n ?x LIMIT 1",
    ];
    let mut overlay = build_overlay(&FoafConfig { persons: 25, peers: 5, ..Default::default() });
    for cfg in all_configs() {
        for query in queries {
            let (exec, trace) =
                traced_against_the_network(&mut overlay, cfg, NodeId(1000), query);
            assert_is_the_oracles(&overlay, query, &exec.result, cfg);
            assert_eq!(exec.stats.result_size, exec.result.len(), "{query} under {cfg:?}");
            let rows = trace.phase_breakdown();
            assert_eq!(
                rows.iter().map(|r| r.bytes).sum::<u64>(),
                exec.stats.total_bytes,
                "byte partition leaks for {query} under {cfg:?}"
            );
            assert_eq!(
                rows.iter().map(|r| r.messages).sum::<u64>(),
                exec.stats.messages,
                "message partition leaks for {query} under {cfg:?}"
            );
            assert_eq!(
                rows.iter().map(|r| r.time_us).sum::<u64>(),
                exec.stats.response_time.0,
                "time attribution leaks for {query} under {cfg:?}"
            );
        }
    }
    // Dead provider: the ack-timeout path must stay exact too.
    let mut overlay = build_overlay(&FoafConfig { persons: 25, peers: 5, ..Default::default() });
    let victim = overlay.storage_nodes()[0];
    overlay.fail_storage_node(victim).unwrap();
    let query = "SELECT * WHERE { ?x foaf:knows ?y . }";
    let (exec, _) =
        traced_against_the_network(&mut overlay, ExecConfig::default(), NodeId(1000), query);
    assert!(exec.stats.dead_providers > 0, "the victim should have timed out");
}

/// With the initiator's cache attached — a cold walk, then provider-set
/// and result-cache hits, whose admission copy travels off the critical
/// path — a query's trace still carries exactly what the network carried,
/// and its response time is its critical path.
#[test]
fn a_cached_query_is_traced_exactly_as_the_network_carried_it() {
    let mut overlay = build_overlay(&FoafConfig { persons: 25, peers: 5, ..Default::default() });
    let mut cache = rdfmesh_core::QueryCache::new(rdfmesh_core::CacheConfig::default());
    let query = "SELECT * WHERE { ?x foaf:knows ?y . OPTIONAL { ?y foaf:name ?n . } }";
    let mut costs = Vec::new();
    for _ in 0..3 {
        let before = overlay.net.stats();
        let (exec, trace) = Engine::with_cache(&mut overlay, ExecConfig::default(), &mut cache)
            .execute_traced(NodeId(1000), query)
            .unwrap();
        let carried = before.delta(&overlay.net.stats());
        trace.check_well_formed().unwrap();
        let account = (exec.stats.total_bytes, exec.stats.messages);
        assert_eq!(account, (carried.total_bytes, carried.messages));
        let time: u64 = trace.phase_breakdown().iter().map(|r| r.time_us).sum();
        assert_eq!(time, exec.stats.response_time.0);
        assert_is_the_oracles(&overlay, query, &exec.result, ExecConfig::default());
        costs.push(exec.stats.total_bytes);
    }
    assert!(costs[2] < costs[0], "warm runs are cheaper: {costs:?}");
}

/// An abandoned common-site probe counts the hops it charged: when the
/// second operand has no key (the flood) the probe gives up, but the first
/// operand's row was read, and its lookup's hops count like its bytes.
#[test]
fn an_abandoned_common_site_probe_counts_the_hops_it_charged() {
    let mut overlay = build_overlay(&FoafConfig { persons: 25, peers: 5, ..Default::default() });
    let query = "SELECT * WHERE { { ?x foaf:knows ?y . } UNION { ?s ?p ?o . } }";
    let knows = TriplePattern::new(
        TermPattern::var("x"),
        Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS),
        TermPattern::var("y"),
    );
    let mut probed = 0;
    for initiator in overlay.index_nodes() {
        let mut hops = |overlap_aware| {
            let cfg = ExecConfig { overlap_aware, ..ExecConfig::default() };
            let exec = Engine::new(&mut overlay, cfg).execute(initiator, query).unwrap();
            exec.stats.index_hops
        };
        let (on, off) = (hops(true), hops(false));
        let probe = overlay.locate(initiator, &knows, SimTime::ZERO).unwrap().expect("keyed").hops;
        assert_eq!(on, off + probe, "from {initiator}");
        probed += probe;
    }
    assert!(probed > 0, "some initiator's probe walks the ring");
}

/// The rounds the simulator runs on the mesh's own roles: the two
/// one-round multiway strategies, and a bind join's bind step.
fn role_run_configs() -> [ExecConfig; 3] {
    [
        ExecConfig { dist: DistChoice::HyperCube, ..ExecConfig::default() },
        ExecConfig { dist: DistChoice::PartialEval, ..ExecConfig::default() },
        ExecConfig { bind_join: true, ..ExecConfig::default() },
    ]
}

/// A star on `?x` over two index keys: eligible for both multiway
/// strategies. A bind join takes the rarer `foaf:mbox` first and binds
/// `foaf:name` to its rows; some peers hold names but no mbox.
const STAR: &str = "SELECT * WHERE { ?x foaf:mbox ?m . ?x foaf:name ?n . }";

fn star_patterns() -> [TriplePattern; 2] {
    let on_x = |predicate: &str, object: &str| {
        TriplePattern::new(TermPattern::var("x"), Term::iri(predicate), TermPattern::var(object))
    };
    [on_x(rdfmesh_rdf::vocab::foaf::MBOX, "m"), on_x(rdfmesh_rdf::vocab::foaf::NAME, "n")]
}

/// The storage nodes `pattern`'s location-table row names.
fn row(overlay: &Overlay, pattern: &TriplePattern) -> Vec<NodeId> {
    let located = overlay.locate(NodeId(1000), pattern, SimTime::ZERO).unwrap().expect("keyed");
    located.providers.iter().map(|p| p.node).collect()
}

/// A peer of `cfg`'s role-run round: for a multiway round a storage node
/// both of the star's rows name; for a bind join one only the bound
/// pattern's row names, so the bind step's round is the first to reach it.
fn star_peer(overlay: &Overlay, cfg: &ExecConfig) -> NodeId {
    let [mbox, name] = star_patterns().map(|p| row(overlay, &p));
    let peer = name.iter().find(|n| mbox.contains(n) != cfg.bind_join);
    *peer.expect("the star's rows name such a peer")
}

/// A dead peer of a role-run round is declared dead once and purged from
/// every row, and the answer is the survivors' — what `live_exec.rs`
/// asserts of the mesh when a provider crashes.
#[test]
fn a_multiway_round_over_a_dead_peer_answers_the_survivors_oracle_and_purges_it() {
    for cfg in role_run_configs() {
        let mut overlay =
            build_overlay(&FoafConfig { persons: 25, peers: 5, ..Default::default() });
        let victim = star_peer(&overlay, &cfg);
        overlay.fail_storage_node(victim).unwrap();
        let (exec, trace) = traced_against_the_network(&mut overlay, cfg, NodeId(1000), STAR);
        assert!(trace.spans().iter().any(|s| s.label.ends_with(" round")), "{cfg:?}: no round");
        // The oracle of an overlay that lost `victim` is the survivors'.
        assert_is_the_oracles(&overlay, STAR, &exec.result, cfg);
        assert_eq!(exec.stats.dead_providers, 1, "{cfg:?}");
        for pattern in star_patterns() {
            assert!(!row(&overlay, &pattern).contains(&victim), "{cfg:?} kept {victim}");
        }
    }
}

/// Submitted at a storage node that is also a peer of its round, one
/// address carries two roles: frames reach the coordinator or the
/// storage role by what they are, not where they go. And the round is
/// reproducible: a second run answers the same rows in the same order,
/// at the same cost.
#[test]
fn a_multiway_round_submitted_at_one_of_its_peers_is_the_oracles() {
    for cfg in role_run_configs() {
        let run = || {
            let mut overlay =
                build_overlay(&FoafConfig { persons: 25, peers: 5, ..Default::default() });
            let peer = star_peer(&overlay, &cfg);
            let got = Engine::new(&mut overlay, cfg).execute(peer, STAR).unwrap();
            (overlay, got)
        };
        let (overlay, got) = run();
        assert!(!got.result.is_empty(), "{cfg:?}: the star has matches");
        assert_is_the_oracles(&overlay, STAR, &got.result, cfg);
        let again = run().1;
        assert_eq!((again.result, again.stats), (got.result, got.stats), "{cfg:?}");
    }
}

/// A DESCRIBE's resource fetch leaves once the rows that name the resource
/// are home, not with the query: `DESCRIBE ?x WHERE …` takes the time of
/// the same `SELECT ?x WHERE …` and then the fetch's own time on top.
#[test]
fn a_describe_fetch_departs_when_the_rows_naming_its_resource_are_home() {
    let mut overlay = build_overlay(&FoafConfig { persons: 25, peers: 5, ..Default::default() });
    let rows = "WHERE { ?x foaf:name ?n . } ORDER BY ?n ?x LIMIT 1";
    let cfg = ExecConfig::default();
    let mut run = |query: String| traced_against_the_network(&mut overlay, cfg, NodeId(1000), &query);
    let (select, select_trace) = run(format!("SELECT ?x {rows}"));
    let (describe, trace) = run(format!("DESCRIBE ?x {rows}"));
    // The spans the SELECT does not have are the fetch's.
    let spans = trace.spans();
    let fetch = &spans[select_trace.spans().len()..];
    let first = fetch.iter().map(|s| s.start_us).min().expect("the fetch has spans");
    let fetch_us = fetch.iter().map(|s| s.end_us).max().unwrap() - first;
    assert!(fetch_us > 0);
    let (select_us, describe_us) = (select.stats.response_time.0, describe.stats.response_time.0);
    assert!(
        describe_us >= select_us + fetch_us,
        "DESCRIBE {describe_us} µs, SELECT {select_us} µs, fetch {fetch_us} µs"
    );
}
