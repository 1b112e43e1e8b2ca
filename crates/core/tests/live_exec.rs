//! Full SPARQL on the live mesh, end to end.
//!
//! PR 4 proved the live protocol resolves *single patterns* under
//! faults; the distributed execution core now compiles whole queries to
//! [`rdfmesh_core::ExecPlan`]s and drives them through
//! [`rdfmesh_core::LiveBackend`], so these tests assert the thread-backed
//! mesh answers conjunctive, UNION, OPTIONAL, FILTER and DISTINCT
//! queries — and that a provider crash mid-query degrades to a partial
//! answer within the deadline instead of a hang or a panic.
//!
//! The oracle is the Pérez-et-al. semantics over the union of all
//! storage nodes' triples, evaluated centrally — the same ground truth
//! `engine_correctness.rs` holds the simulator to.

use std::time::{Duration, Instant};

use rdfmesh_core::{
    compile, exec, global_store, DistChoice, Engine, ExecConfig, ExecNode, ExecPlan, FaultPlan,
    LiveBackend, LiveConfig, LiveError, LiveMesh, LiveStatsSnapshot, Mat, MeshBackend,
    PrimitiveStrategy, Transport,
};
use rdfmesh_net::{LatencyModel, Network, NodeId, SimTime};
use rdfmesh_overlay::{Overlay, Provider};
use rdfmesh_rdf::{Term, TermPattern, Triple, TriplePattern, Variable};
use rdfmesh_sparql::eval::evaluate_pattern_with;
use rdfmesh_sparql::{evaluate_query, parse_query, solution, QueryResult, Rows, Solution};
use rdfmesh_workload::university::{self, ub, UniversityConfig};
use rdfmesh_workload::{foaf, FoafConfig};

fn build_overlay() -> Overlay {
    overlay_of(&foaf::generate(&FoafConfig { persons: 30, peers: 5, ..Default::default() }).peers)
}

/// One storage node per triple set, behind three index nodes.
fn overlay_of(peers: &[Vec<Triple>]) -> Overlay {
    let net = Network::new(LatencyModel::Uniform(SimTime::millis(1)), 12.5);
    let mut overlay = Overlay::new(32, 4, 2, net);
    let index_count = 3;
    for i in 0..index_count {
        let addr = NodeId(1000 + i);
        let pos = overlay.ring().space().hash(&addr.0.to_be_bytes());
        overlay.add_index_node(addr, pos).unwrap();
    }
    for (i, triples) in peers.iter().enumerate() {
        let attach = NodeId(1000 + (i as u64 % index_count));
        overlay.add_storage_node(NodeId(1 + i as u64), attach, triples.clone()).unwrap();
    }
    overlay
}

fn oracle(overlay: &Overlay, query: &str) -> QueryResult {
    let store = global_store(overlay);
    evaluate_query(&store, &parse_query(query).unwrap())
}

fn sorted(sols: impl Into<Vec<Solution>>) -> Vec<Solution> {
    let mut sols = sols.into();
    sols.sort();
    sols
}

const WAIT: Duration = Duration::from_secs(30);

/// `result` with its rows or triples in a canonical order.
fn canonical(result: QueryResult) -> QueryResult {
    match result {
        QueryResult::Solutions(rows) => QueryResult::Solutions(sorted(rows).into()),
        QueryResult::Graph(mut triples) => {
            triples.sort();
            QueryResult::Graph(triples)
        }
        boolean => boolean,
    }
}

/// What `query` returns over the data of every storage node but
/// `victim`, in canonical order.
fn survivor_oracle(overlay: &Overlay, victim: NodeId, query: &str) -> QueryResult {
    let mut survivors = rdfmesh_rdf::TripleStore::new();
    for node in overlay.storage_nodes().into_iter().filter(|n| *n != victim) {
        overlay.storage_node(node).unwrap().store.for_each_triple(|t| {
            survivors.insert(&t.to_triple());
        });
    }
    canonical(evaluate_query(&survivors, &parse_query(query).unwrap()))
}

/// Runs `query` on the mesh and asserts it completed fault-free with
/// exactly the oracle's solutions. Returns the solution count.
fn assert_live_agrees(mesh: &LiveMesh, overlay: &Overlay, query: &str, bind_join: bool) -> usize {
    let live = mesh.execute(query, bind_join, WAIT).expect("live execution");
    assert!(live.complete, "fault-free mesh must complete: {query}");
    assert!(live.failed_providers.is_empty(), "{query}");
    assert!(live.rounds >= 1, "{query}");
    match (oracle(overlay, query), live.result) {
        (QueryResult::Solutions(e), QueryResult::Solutions(g)) => {
            assert_eq!(
                sorted(e),
                sorted(g.clone()),
                "live vs oracle mismatch for {query} (bind_join={bind_join})"
            );
            g.rows().len()
        }
        (QueryResult::Boolean(e), QueryResult::Boolean(g)) => {
            assert_eq!(e, g, "{query}");
            usize::from(g)
        }
        (e @ QueryResult::Graph(_), g @ QueryResult::Graph(_)) => {
            assert_eq!(canonical(e), canonical(g.clone()), "live vs oracle mismatch for {query}");
            g.len()
        }
        other => panic!("result shape mismatch for {query}: {other:?}"),
    }
}

fn knows_pattern() -> TriplePattern {
    TriplePattern::new(
        TermPattern::var("x"),
        Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS),
        TermPattern::var("y"),
    )
}

#[test]
fn full_sparql_agrees_with_the_oracle_on_both_chain_strategies() {
    let overlay = build_overlay();
    let mesh = LiveMesh::spawn(&overlay);
    let queries = [
        // Conjunctive: two- and three-pattern chains and a star.
        "SELECT * WHERE { ?x foaf:knows ?y . ?y foaf:knows ?z . }",
        "SELECT * WHERE { ?x foaf:name ?n . ?x foaf:age ?a . ?x foaf:knows ?y . }",
        // Binary operators.
        "SELECT * WHERE { { ?x foaf:nick ?v . } UNION { ?x foaf:mbox ?v . } }",
        "SELECT * WHERE { ?x foaf:knows ?y . OPTIONAL { ?y foaf:nick ?n . } }",
        // FILTER pushdown (covered) and post-processing modifiers.
        "SELECT * WHERE { ?x foaf:age ?a . FILTER (?a >= 30 && ?a < 60) }",
        "SELECT DISTINCT ?x WHERE { ?x foaf:knows ?y . } ORDER BY ?x",
    ];
    for query in queries {
        let plain = assert_live_agrees(&mesh, &overlay, query, false);
        let bound = assert_live_agrees(&mesh, &overlay, query, true);
        assert_eq!(plain, bound, "chain strategies must agree: {query}");
    }
    assert!(mesh.stats().solution_rounds >= queries.len() as u64 * 2);
    assert!(mesh.stats().solutions_shipped > 0);
    assert!(mesh.stats().solution_bytes > 0);
    mesh.shutdown();
}

#[test]
fn ask_and_all_variable_flood_run_live() {
    let overlay = build_overlay();
    let mesh = LiveMesh::spawn(&overlay);
    assert_live_agrees(&mesh, &overlay, "ASK { ?x foaf:knows ?y . }", false);
    // The all-variable pattern has no index key: the coordinator floods
    // every storage node instead of looking up a location-table row.
    let n = assert_live_agrees(&mesh, &overlay, "SELECT * WHERE { ?s ?p ?o . }", false);
    assert_eq!(n, global_store(&overlay).len(), "one solution per distinct triple");
    mesh.shutdown();
}

#[test]
fn describe_fetches_its_resources_through_rounds_on_both_transports() {
    let overlay = build_overlay();
    let person = foaf::person_iri(0);
    // (query, rounds): the WHERE clause's plan, then one fetch per
    // described resource — chosen after ORDER BY / LIMIT cut the rows.
    let queries = [
        (format!("DESCRIBE {person}"), Some(1)),
        ("DESCRIBE ?x WHERE { ?x foaf:name ?n . } ORDER BY ?n ?x LIMIT 1".to_string(), Some(2)),
        (format!("DESCRIBE ?x {person} WHERE {{ ?x foaf:nick ?k . }}"), None),
    ];
    for transport in TRANSPORTS {
        let mesh = spawn_on(&overlay, LiveConfig::default(), transport);
        for (query, rounds) in &queries {
            let before = mesh.stats().solution_rounds;
            let triples = assert_live_agrees(&mesh, &overlay, query, true);
            assert!(triples > 0, "{query} describes something");
            let issued = mesh.stats().solution_rounds - before;
            assert!(rounds.is_none_or(|n| n == issued), "{query}: {issued} rounds");
            assert_eq!(triples, assert_live_agrees(&mesh, &overlay, query, false), "{query}");
        }
        mesh.shutdown();
    }
}

#[test]
fn a_dataset_clause_is_refused_before_any_round() {
    // The mesh's peers publish no graph IRI: scoping to one is not
    // something it can do, and answering unscoped would be wrong.
    let overlay = build_overlay();
    let mesh = LiveMesh::spawn(&overlay);
    for clause in ["FROM <http://ex/nosuchgraph>", "FROM NAMED <http://ex/nosuchgraph>"] {
        let query = format!("SELECT * {clause} WHERE {{ ?x foaf:knows ?y . }}");
        let err = mesh.execute(&query, true, WAIT).expect_err("a dataset clause is refused");
        assert_eq!(err, LiveError::Dataset(clause.to_string()));
        assert!(err.to_string().contains(clause), "{err}");
    }
    assert_eq!(mesh.stats().solution_rounds, 0);
    mesh.shutdown();
}

#[test]
fn provider_crash_mid_query_degrades_to_a_partial_answer() {
    let overlay = build_overlay();
    let cfg = LiveConfig {
        ack_timeout: Duration::from_millis(50),
        lookup_timeout: Duration::from_millis(50),
        query_deadline: Duration::from_secs(2),
        retries: 1,
        ..LiveConfig::default()
    };
    let mesh = LiveMesh::spawn_with(&overlay, cfg, FaultPlan::new());
    // Crash a provider that serves the conjunctive query's patterns.
    let victim = mesh.providers_of(&knows_pattern())[0].node;
    assert!(mesh.crash(victim));
    let started = Instant::now();
    let live = mesh
        .execute("SELECT * WHERE { ?x foaf:knows ?y . ?y foaf:knows ?z . }", false, WAIT)
        .expect("a crashed provider must not error the query");
    let elapsed = started.elapsed();
    assert!(!live.complete, "a crashed provider makes the answer partial");
    assert!(
        live.failed_providers.contains(&victim),
        "the crashed provider is named: {:?}",
        live.failed_providers
    );
    // Each round terminates within its own deadline; the whole query is
    // a bounded number of rounds, so it returns long before the
    // caller-side wait.
    assert!(
        elapsed < Duration::from_secs(10),
        "query must terminate within its deadlines, took {elapsed:?}"
    );
    // The survivors' solutions are still a well-formed result.
    let expected = survivor_oracle(
        &overlay,
        victim,
        "SELECT * WHERE { ?x foaf:knows ?y . ?y foaf:knows ?z . }",
    );
    assert_eq!(canonical(live.result), expected, "partial answer = survivors' data");
    assert!(mesh.stats().incomplete_queries >= 1);
    mesh.shutdown();
}

// ---- key-only bind rounds ---------------------------------------------

const TRANSPORTS: [Transport; 2] = [Transport::Threads, Transport::Sockets];

fn spawn_on(overlay: &Overlay, cfg: LiveConfig, transport: Transport) -> LiveMesh {
    LiveMesh::spawn_with_transport(overlay, cfg, FaultPlan::new(), transport).expect("mesh spawns")
}

fn select(overlay: &Overlay, query: &str) -> Vec<Solution> {
    let QueryResult::Solutions(rows) = oracle(overlay, query) else {
        panic!("SELECT returns solutions")
    };
    rows.into()
}

fn predicate_pattern(s: &str, predicate: &str, o: &str) -> TriplePattern {
    TriplePattern::new(TermPattern::var(s), Term::iri(predicate), TermPattern::var(o))
}

/// One bind round through [`LiveBackend::exec_bound`] on both
/// transports: what comes back must *be* the set `rows ⋈ ⟦pattern⟧`
/// (no duplicate rows, whatever `rows` held) as the nested-loop
/// reference join evaluates it centrally. Returns the mesh's counters
/// after it — rows shipped, keys shipped, legs fetched — which are the
/// same on both.
fn assert_bound_round_agrees(
    overlay: &Overlay,
    rows: &[Solution],
    pattern: &TriplePattern,
) -> LiveStatsSnapshot {
    let matches = evaluate_pattern_with(&global_store(overlay), pattern, &[Solution::new()]);
    let mut expected = sorted(solution::naive::join(rows, &matches.to_solutions()));
    expected.dedup();
    assert!(!expected.is_empty(), "the scenario must exercise the join: {pattern}");
    let stats = TRANSPORTS.map(|transport| {
        let mesh = spawn_on(overlay, LiveConfig::default(), transport);
        let mut backend = LiveBackend::new(&*mesh, WAIT);
        let solutions = Rows::from_solutions(rows);
        let current = Mat { solutions, site: backend.home(), ready: SimTime::ZERO };
        let got = sorted(backend.exec_bound(pattern, current).expect("round").solutions.into_solutions());
        assert_eq!(expected, got, "bound round vs oracle for {pattern} on {transport:?}");
        let stats = mesh.stats();
        mesh.shutdown();
        stats
    });
    assert_eq!(stats[0], stats[1], "both transports ship the same rows");
    stats[0]
}

#[test]
fn bound_round_over_heterogeneous_domains_matches_the_oracle() {
    // An OPTIONAL feeding a bound pattern: ?n is bound in some rows and
    // not in others, and the next pattern mentions it. Rows without it
    // project to a key without it and join with every match.
    let overlay = build_overlay();
    let rows =
        select(&overlay, "SELECT * WHERE { ?x foaf:knows ?y . OPTIONAL { ?y foaf:nick ?n . } }");
    let n = Variable::new("n");
    assert!(rows.iter().any(|r| r.get(&n).is_some()) && rows.iter().any(|r| r.get(&n).is_none()));
    let nick = predicate_pattern("y", rdfmesh_rdf::vocab::foaf::NICK, "n");
    assert_bound_round_agrees(&overlay, &rows, &nick);

    // Rows that extend to one mapping — a duplicate, and a row lacking
    // only what the pattern goes on to bind — come back once.
    let xy = [Variable::new("x"), Variable::new("y")];
    let mut doubled = rows.clone();
    doubled.extend(rows.iter().map(|r| r.project(&xy)));
    doubled.extend(rows.iter().cloned());
    assert_bound_round_agrees(&overlay, &doubled, &nick);
}

#[test]
fn bound_round_without_a_shared_variable_cross_joins_at_the_coordinator() {
    // The projection of every row is the unit row: one key ships, the
    // providers return the pattern's matches once, and the product is
    // formed where the rows were kept.
    let overlay = build_overlay();
    let rows = select(&overlay, "SELECT * WHERE { ?x foaf:nick ?v . }");
    let mbox = predicate_pattern("p", rdfmesh_rdf::vocab::foaf::MBOX, "m");
    let matches = select(&overlay, "SELECT * WHERE { ?p foaf:mbox ?m . }").len() as u64;
    assert!(rows.len() > 1);
    assert_eq!(assert_bound_round_agrees(&overlay, &rows, &mbox).solutions_shipped, matches);
}

#[test]
fn bound_round_whose_projection_is_the_identity_matches_the_oracle() {
    // Every row lies within the pattern's variables: the keys are the
    // rows and the providers' reply is the answer, no join after it.
    let overlay = build_overlay();
    let rows = select(&overlay, "SELECT ?x WHERE { ?x foaf:nick ?v . }");
    assert_bound_round_agrees(&overlay, &rows, &knows_pattern());
}

const UB: &str = "PREFIX ub: <http://example.org/univ#>";

/// Five departments, one storage node each: four professors and twenty
/// students apiece.
fn university_overlay() -> Overlay {
    overlay_of(&university::generate(&UniversityConfig::default()).peers)
}

#[test]
fn two_hop_bind_round_moves_the_smaller_side_to_each_provider() {
    // ?s ub:advisor ?a . ?a ub:worksFor ?d — a hundred students share
    // twenty advisors, each of whom works for exactly one department.
    let overlay = university_overlay();
    let rows = select(&overlay, &format!("{UB} SELECT * WHERE {{ ?s ub:advisor ?a . }}"));
    let a = [Variable::new("a")];
    let keys = solution::naive::distinct(rows.iter().map(|r| r.project(&a)).collect());
    assert!(keys.len() * 4 <= rows.len(), "{} keys for {} rows", keys.len(), rows.len());
    let works_for = predicate_pattern("a", ub::WORKS_FOR, "d");
    let mesh = LiveMesh::spawn(&overlay);
    let row = mesh.providers_of(&works_for);
    mesh.shutdown();
    // What move-small predicts from the row, for a round over `keys`: a
    // provider holding more worksFor triples than there are keys is sent
    // them and ships the extensions it computes; any other is sent the
    // bare pattern and ships its matches, as many as its frequency.
    let predict = |keys: &[Solution]| {
        let (mut shipped, mut fetched, mut sent) = (0, 0, 0);
        for &Provider { node: provider, frequency } in &row {
            let store = &overlay.storage_node(provider).expect("a provider").store;
            let matches = evaluate_pattern_with(store, &works_for, &[Solution::new()]);
            assert_eq!(matches.len() as u64, frequency, "the row counts {provider:?}'s matches");
            if (keys.len() as u64) < frequency {
                shipped += evaluate_pattern_with(store, &works_for, keys).len() as u64;
                sent += keys.len() as u64;
            } else {
                shipped += frequency;
                fetched += 1;
            }
        }
        (shipped, fetched, sent)
    };
    let stats = assert_bound_round_agrees(&overlay, &rows, &works_for);
    let (shipped, fetched, sent) = predict(&keys);
    assert!(fetched > 0, "twenty keys outnumber a department's four professors");
    assert_eq!(
        (stats.solutions_shipped, stats.gathered_legs, stats.bound_keys_shipped),
        (shipped, fetched, sent)
    );
    // One advisor's students make one key, fewer than any provider's
    // frequency: the key goes to every provider, and one extension comes
    // back.
    let first = keys[0].clone();
    let advisees: Vec<Solution> =
        rows.iter().filter(|r| r.project(&a) == first).cloned().collect();
    let stats = assert_bound_round_agrees(&overlay, &advisees, &works_for);
    assert_eq!(predict(&[first]), (1, 0, row.len() as u64));
    assert_eq!((stats.solutions_shipped, stats.gathered_legs), (1, 0));
    assert_eq!(stats.bound_keys_shipped, row.len() as u64);

    // The same shape end to end, planner and all: the advisor round
    // ships every row, the worksFor round what move-small predicts.
    let query = format!("{UB} SELECT * WHERE {{ ?s ub:advisor ?a . ?a ub:worksFor ?d . }}");
    for transport in TRANSPORTS {
        let mesh = spawn_on(&overlay, LiveConfig::default(), transport);
        assert_eq!(assert_live_agrees(&mesh, &overlay, &query, true), rows.len());
        assert_eq!(mesh.stats().solutions_shipped, rows.len() as u64 + shipped);
        mesh.shutdown();
    }
}

/// The repo benchmark's `bind_join` pool, whose bind rounds hold more
/// keys than some provider has matches: its two-hop and its triangle
/// equal the oracle on both transports with those legs fetched.
#[test]
fn the_bind_join_pools_two_hop_and_triangle_fetch_legs_and_match_the_oracle() {
    let overlay = university_overlay();
    let queries = [
        format!("{UB} SELECT ?s ?p ?d WHERE {{ ?s ub:advisor ?p . ?p ub:worksFor ?d }}"),
        format!(
            "{UB} SELECT ?s ?c ?p WHERE {{ ?s ub:takesCourse ?c . ?p ub:teacherOf ?c . \
             ?s ub:advisor ?p }}"
        ),
    ];
    for transport in TRANSPORTS {
        let mesh = spawn_on(&overlay, LiveConfig::default(), transport);
        for query in &queries {
            let before = mesh.stats().gathered_legs;
            assert!(assert_live_agrees(&mesh, &overlay, query, true) > 0, "{query}");
            assert!(mesh.stats().gathered_legs > before, "{query} on {transport:?}");
        }
        mesh.shutdown();
    }
}

/// The simulator's bind step is the mesh's keyed round, run on the same
/// roles: on the repo benchmark's bind shapes (two-hop, triangle, star on
/// `?s`) and on a selective chain whose keys ship, the simulator answers
/// the mesh's rows, and what it counts as intermediate is exactly what
/// the mesh's providers ship.
#[test]
fn the_simulator_binds_the_meshs_rows_and_moves_them_the_same_way() {
    let mut overlay = university_overlay();
    let queries = [
        format!("{UB} SELECT ?s ?p ?d WHERE {{ ?s ub:advisor ?p . ?p ub:worksFor ?d }}"),
        format!(
            "{UB} SELECT ?s ?c ?p WHERE {{ ?s ub:takesCourse ?c . ?p ub:teacherOf ?c . \
             ?s ub:advisor ?p }}"
        ),
        format!(
            "{UB} SELECT ?s ?c ?k WHERE {{ ?s ub:memberOf <http://example.org/univ/d1/dept0> . \
             ?s ub:takesCourse ?c . ?c ub:credits ?k }}"
        ),
        format!(
            "{UB} SELECT * WHERE {{ ?s ub:advisor <http://example.org/univ/d0/prof0> . \
             ?s ub:takesCourse ?c . ?s ub:memberOf ?d }}"
        ),
    ];
    let cfg = ExecConfig {
        bind_join: true,
        overlap_aware: false,
        range_index: false,
        frequency_join_order: false,
        primitive: PrimitiveStrategy::Basic,
        ..ExecConfig::default()
    };
    let sim: Vec<_> = queries
        .iter()
        .map(|q| Engine::new(&mut overlay, cfg).execute(NodeId(1000), q).expect("simulated"))
        .collect();
    for transport in TRANSPORTS {
        let mesh = spawn_on(&overlay, LiveConfig::default(), transport);
        let mut keys = 0;
        for (query, sim) in queries.iter().zip(&sim) {
            let before = mesh.stats();
            let live = mesh.execute_with(query, &cfg, WAIT).expect("live execution");
            assert!(live.complete, "{query} on {transport:?}");
            assert!(!sim.result.is_empty(), "{query}");
            let rows = canonical(sim.result.clone());
            assert_eq!(rows, canonical(live.result), "{query} on {transport:?}");
            let after = mesh.stats();
            let shipped = after.solutions_shipped - before.solutions_shipped;
            assert_eq!(sim.stats.intermediate_solutions as u64, shipped, "{query} on {transport:?}");
            keys = after.bound_keys_shipped - before.bound_keys_shipped;
        }
        // The selective chain's few keys travel to the providers.
        assert!(keys > 0, "{transport:?}");
        mesh.shutdown();
    }
}

/// Thirty people over three storage nodes (person `k` on node
/// `k mod 3`): `k` knows `k+1` and `k+2`; an even `k` has the nick
/// `n{k mod 5}`; every `k` carries the tags `n{k mod 5}` and
/// `n{(k+1) mod 5}` — twenty `tag` triples on each node.
fn tagged_overlay() -> Overlay {
    let ex = |name: String| Term::iri(&format!("http://example.org/{name}"));
    let person = |k: usize| ex(format!("p{}", k % 30));
    let nick = |k: usize| Term::literal(&format!("n{}", k % 5));
    let mut peers = vec![Vec::new(); 3];
    for k in 0..30 {
        let triples = &mut peers[k % 3];
        for next in [k + 1, k + 2] {
            triples.push(Triple::new(person(k), ex("knows".into()), person(next)));
        }
        if k % 2 == 0 {
            triples.push(Triple::new(person(k), ex("nick".into()), nick(k)));
        }
        for tag in [k, k + 1] {
            triples.push(Triple::new(person(k), ex("tag".into()), nick(tag)));
        }
    }
    overlay_of(&peers)
}

/// A bind step after an OPTIONAL: its keys `(?y, ?n)` leave `?n` unbound
/// wherever the nick is missing, and they stay one batch to the
/// coordinator on both branches of move-small. Which branch each provider
/// takes follows from move-small's inputs alone — how many keys the left
/// side yields against the twenty `tag` triples each node holds — so the
/// same plan, compiled from [`ExecConfig`], ships its keys to every
/// provider from one person's rows and fetches from every provider over
/// everyone's; both must answer the oracle's rows.
#[test]
fn keys_with_unbound_cells_answer_the_oracle_shipped_and_fetched() {
    let overlay = tagged_overlay();
    let cfg = ExecConfig { bind_join: true, overlap_aware: false, ..ExecConfig::default() };
    let tag = predicate_pattern("y", "http://example.org/tag", "n");
    let providers = 3;
    // (subject of the left side, keys it yields, every provider shipped).
    let cases = [("<http://example.org/p0>", 2, true), ("?x", 30, false)];
    for transport in TRANSPORTS {
        let mesh = spawn_on(&overlay, LiveConfig::default(), transport);
        assert_eq!(mesh.providers_of(&tag).len(), providers);
        assert!(mesh.providers_of(&tag).iter().all(|p| p.frequency == 20));
        for (subject, keys, shipped) in cases {
            let left = format!(
                "SELECT * WHERE {{ {subject} <http://example.org/knows> ?y \
                 OPTIONAL {{ ?y <http://example.org/nick> ?n }} }}"
            );
            let rows = select(&overlay, &left);
            let n = Variable::new("n");
            assert!(rows.iter().any(|r| r.get(&n).is_none()), "{left}: a key with ?n unbound");
            assert!(rows.iter().any(|r| r.get(&n).is_some()), "{left}: a key with ?n bound");
            let plan = ExecPlan {
                root: ExecNode::Chain {
                    left: Box::new(compile(&parse_query(&left).unwrap().pattern, &cfg).root),
                    right: tag.clone(),
                    bind: cfg.bind_join,
                    hint_from_left: cfg.overlap_aware,
                },
            };
            let before = mesh.stats();
            let mut backend = LiveBackend::new(&*mesh, WAIT);
            let got = exec::run(&mut backend, &plan, SimTime::ZERO).expect("the plan runs");
            let whole = format!(
                "SELECT * WHERE {{ {subject} <http://example.org/knows> ?y \
                 OPTIONAL {{ ?y <http://example.org/nick> ?n }} ?y <http://example.org/tag> ?n }}"
            );
            let expected = sorted(select(&overlay, &whole));
            assert!(!expected.is_empty(), "{whole}");
            assert_eq!(sorted(got.solutions.into_solutions()), expected, "{whole} on {transport:?}");
            let after = mesh.stats();
            let sent = after.bound_keys_shipped - before.bound_keys_shipped;
            let fetched = after.gathered_legs - before.gathered_legs;
            let expect = if shipped { (keys * providers, 0) } else { (0, providers) };
            assert_eq!((sent, fetched), (expect.0 as u64, expect.1 as u64), "{whole} on {transport:?}");
        }
        mesh.shutdown();
    }
}

#[test]
fn a_crashed_provider_of_a_fetched_leg_gives_the_survivors_oracle() {
    let overlay = university_overlay();
    let query = format!("{UB} SELECT * WHERE {{ ?s ub:advisor ?p . ?p ub:worksFor ?d }}");
    let cfg = LiveConfig {
        ack_timeout: Duration::from_millis(50),
        lookup_timeout: Duration::from_millis(50),
        query_deadline: Duration::from_secs(2),
        retries: 1,
        ..LiveConfig::default()
    };
    for transport in TRANSPORTS {
        let mesh = spawn_on(&overlay, cfg, transport);
        let victim = mesh.providers_of(&predicate_pattern("p", ub::WORKS_FOR, "d"))[0].node;
        assert!(mesh.crash(victim));
        let live = mesh.execute(&query, true, WAIT).expect("a crash is a partial answer");
        assert!(!live.complete, "{transport:?}");
        assert!(live.failed_providers.contains(&victim), "{transport:?}");
        assert!(mesh.stats().gathered_legs > 0, "the worksFor round fetched from {victim:?}");
        let expected = survivor_oracle(&overlay, victim, &query);
        assert!(!expected.is_empty());
        assert_eq!(expected, canonical(live.result), "survivors' data on {transport:?}");
        mesh.shutdown();
    }
}

#[test]
fn bind_join_over_a_crashed_provider_returns_the_survivors_rows() {
    let overlay = build_overlay();
    // A DESCRIBE loses the victim's part of the WHERE rows *and* of the
    // described resources' triples: the graph the survivors alone hold.
    let queries = [
        "SELECT * WHERE { ?x foaf:knows ?y . ?y foaf:knows ?z . }",
        "DESCRIBE ?y WHERE { ?x foaf:knows ?y . }",
        "DESCRIBE ?x WHERE { ?x foaf:knows ?y . } ORDER BY ?x ?y LIMIT 1",
    ];
    let cfg = LiveConfig {
        ack_timeout: Duration::from_millis(50),
        lookup_timeout: Duration::from_millis(50),
        query_deadline: Duration::from_secs(2),
        retries: 1,
        ..LiveConfig::default()
    };
    // One mesh per query: a crash is permanent, and once a round has
    // purged the victim the next query would not notice it is gone.
    for (transport, query) in TRANSPORTS.into_iter().flat_map(|t| queries.map(|q| (t, q))) {
        let mesh = spawn_on(&overlay, cfg, transport);
        let victim = mesh.providers_of(&knows_pattern())[0].node;
        assert!(mesh.crash(victim));
        let live =
            mesh.execute(query, true, WAIT).expect("a crash is a partial answer, not an error");
        assert!(!live.complete, "{query} on {transport:?}");
        assert!(live.failed_providers.contains(&victim), "{query} on {transport:?}");
        let expected = survivor_oracle(&overlay, victim, query);
        assert!(!expected.is_empty(), "{query}");
        assert_eq!(expected, canonical(live.result), "survivors' data: {query} on {transport:?}");
        mesh.shutdown();
    }
}

// ---- distribution strategies (ISSUE 10: the pluggable seam) ---------

/// The oracle suite the acceptance criterion names: conjunctive chains
/// and stars, UNION, OPTIONAL and FILTER — every shape the planner can
/// route to a non-chained strategy plus the degenerate ones that must
/// silently fall back.
const STRATEGY_SUITE: &[&str] = &[
    // Conjunctive: a chain (path-shaped join graph) and a star (all
    // patterns share ?x — HyperCube's home turf).
    "SELECT * WHERE { ?x foaf:knows ?y . ?y foaf:knows ?z . }",
    "SELECT * WHERE { ?x foaf:name ?n . ?x foaf:age ?a . ?x foaf:knows ?y . }",
    // UNION of two multi-pattern branches: each branch is its own BGP
    // and picks its own strategy.
    "SELECT * WHERE { { ?x foaf:name ?v . ?x foaf:nick ?w . } UNION { ?x foaf:name ?v . ?x foaf:mbox ?w . } }",
    // OPTIONAL over a multi-pattern required side.
    "SELECT * WHERE { ?x foaf:name ?n . ?x foaf:age ?a . OPTIONAL { ?x foaf:nick ?k . } }",
    // FILTER over a star.
    "SELECT * WHERE { ?x foaf:name ?n . ?x foaf:age ?a . FILTER (?a >= 30) }",
    SELECTIVE_STAR,
];

/// A star whose patterns are selective (few persons have a nick, fewer
/// also an mbox): providers prune before anything travels, so a
/// single-round strategy must beat chained shipping here on rounds *and*
/// on the solution bytes that reach the coordinator.
const SELECTIVE_STAR: &str =
    "SELECT * WHERE { ?x foaf:nick ?k . ?x foaf:mbox ?m . ?x foaf:knows ?y . }";

const STRATEGIES: [DistChoice; 3] =
    [DistChoice::Chained, DistChoice::HyperCube, DistChoice::PartialEval];

fn strategy_cfg(dist: DistChoice) -> ExecConfig {
    ExecConfig { dist, ..ExecConfig::default() }
}

/// Runs the whole suite under all three strategy families on an
/// already-spawned mesh, asserting every one matches the oracle.
fn assert_strategies_agree(mesh: &LiveMesh, overlay: &Overlay) {
    for query in STRATEGY_SUITE {
        let QueryResult::Solutions(expected) = oracle(overlay, query) else {
            panic!("SELECT returns solutions")
        };
        let expected = sorted(expected);
        // (rounds, coordinator-bound solution bytes) per strategy. A
        // provider counts a reply's bytes before sending it, so the
        // delta is exact once the answer is back.
        let mut cost = Vec::new();
        for dist in STRATEGIES {
            let bytes_before = mesh.stats().solution_bytes;
            let live = mesh
                .execute_with(query, &strategy_cfg(dist), WAIT)
                .unwrap_or_else(|e| panic!("{dist:?} failed on {query}: {e:?}"));
            assert!(live.complete, "fault-free mesh must complete: {query} under {dist:?}");
            assert!(live.failed_providers.is_empty(), "{query} under {dist:?}");
            let QueryResult::Solutions(got) = live.result else {
                panic!("SELECT returns solutions")
            };
            assert_eq!(expected, sorted(got), "oracle mismatch: {query} under {dist:?}");
            cost.push((live.rounds, mesh.stats().solution_bytes - bytes_before));
        }
        if *query == SELECTIVE_STAR {
            let chained = cost[0];
            assert!(
                cost[1..].iter().any(|c| c.0 < chained.0 && c.1 < chained.1),
                "no single-round strategy beat chained on the selective star: {cost:?}"
            );
        }
    }
}

#[test]
fn all_three_strategies_agree_with_the_oracle_on_threads() {
    let overlay = build_overlay();
    let mesh = LiveMesh::spawn(&overlay);
    assert_strategies_agree(&mesh, &overlay);
    // The star queries really went through the shuffle: rows were
    // partitioned by join-variable hash and shipped peer-to-peer.
    let stats = mesh.stats();
    assert!(stats.shuffle_parts > 0, "HyperCube must ship shuffle partitions");
    assert!(stats.shuffle_bytes > 0);
    // And partial evaluation stitched at least one cross-site match
    // (the knows chain crosses peer boundaries in the FOAF workload).
    assert!(stats.stitched_rows > 0, "assembly must stitch cross-site rows");
    mesh.shutdown();
}

#[test]
fn all_three_strategies_agree_with_the_oracle_on_sockets() {
    let overlay = build_overlay();
    let mesh = LiveMesh::spawn_with_transport(
        &overlay,
        LiveConfig::default(),
        FaultPlan::new(),
        Transport::Sockets,
    )
    .expect("loopback listener");
    assert_strategies_agree(&mesh, &overlay);
    assert!(mesh.stats().shuffle_parts > 0, "sockets ship the same shuffle frames");
    let wire = mesh.transport_stats().expect("a socket mesh counts its frames");
    assert_eq!(wire.decode_errors, 0, "a fault-free loopback run decodes every frame");
    mesh.shutdown();
}

#[test]
fn every_strategy_degrades_to_the_survivor_oracle_on_provider_crash() {
    let overlay = build_overlay();
    let query = "SELECT * WHERE { ?x foaf:knows ?y . ?y foaf:knows ?z . }";
    let cfg = LiveConfig {
        ack_timeout: Duration::from_millis(50),
        lookup_timeout: Duration::from_millis(50),
        query_deadline: Duration::from_secs(2),
        retries: 1,
        ..LiveConfig::default()
    };
    // One mesh per strategy: a crash is permanent, and the purge a
    // previous strategy triggered must not mask the next one's own
    // fault handling.
    let mut answers: Vec<QueryResult> = Vec::new();
    let mut victim_node = None;
    for dist in STRATEGIES {
        let mesh = LiveMesh::spawn_with(&overlay, cfg, FaultPlan::new());
        let victim = mesh.providers_of(&knows_pattern())[0].node;
        victim_node = Some(victim);
        assert!(mesh.crash(victim));
        let started = Instant::now();
        let live = mesh
            .execute_with(query, &strategy_cfg(dist), WAIT)
            .unwrap_or_else(|e| panic!("{dist:?} must not error on a crash: {e:?}"));
        let elapsed = started.elapsed();
        assert!(!live.complete, "a crashed provider makes the answer partial ({dist:?})");
        assert!(
            live.failed_providers.contains(&victim),
            "{dist:?} must name the crashed provider: {:?}",
            live.failed_providers
        );
        assert!(
            elapsed < Duration::from_secs(10),
            "{dist:?} must terminate within its deadlines, took {elapsed:?}"
        );
        answers.push(canonical(live.result));
        mesh.shutdown();
    }
    // All three strategies return the *same* partial answer: exactly
    // the survivors' data under the oracle semantics.
    let expected = survivor_oracle(&overlay, victim_node.unwrap(), query);
    for (dist, got) in STRATEGIES.iter().zip(&answers) {
        assert_eq!(&expected, got, "{dist:?} partial answer must equal survivors' data");
    }
}

#[test]
fn bind_join_ships_fewer_solutions_on_selective_chains() {
    // The bind join's selling point (Sect. IV-D): shipping the current
    // intermediates lets providers return only compatible extensions,
    // so highly selective chains move fewer solution mappings than
    // gather-everything-and-join.
    let overlay = build_overlay();
    let query = "SELECT * WHERE { ?x foaf:name ?n . ?x foaf:age ?a . ?x foaf:knows ?y . }";

    let plain_mesh = LiveMesh::spawn(&overlay);
    let plain = plain_mesh.execute(query, false, WAIT).expect("plain");
    let plain_shipped = plain_mesh.stats().solutions_shipped;
    plain_mesh.shutdown();

    let bound_mesh = LiveMesh::spawn(&overlay);
    let bound = bound_mesh.execute(query, true, WAIT).expect("bound");
    let bound_shipped = bound_mesh.stats().solutions_shipped;
    bound_mesh.shutdown();

    assert!(plain.complete && bound.complete);
    assert!(
        bound_shipped <= plain_shipped,
        "bind join must not ship more solutions ({bound_shipped} vs {plain_shipped})"
    );
}
