//! Property-based end-to-end validation: for random data placements and
//! queries generated from a grammar, the distributed engine must agree
//! with the local oracle under random strategy configurations — including
//! bind-join and with a randomly failed storage node (whose data
//! legitimately drops out of the answer) — and so must the live mesh.
//! SELECT answers compare as sorted rows, DESCRIBE answers as sorted
//! triple sets.

use proptest::prelude::*;
use std::time::Duration;

use rdfmesh_core::{
    global_store, DistChoice, Engine, ExecConfig, JoinSiteStrategy, LiveMesh, PrimitiveStrategy,
};
use rdfmesh_net::{LatencyModel, Network, NodeId, SimTime};
use rdfmesh_overlay::Overlay;
use rdfmesh_rdf::{Term, Triple, TripleStore};
use rdfmesh_sparql::{evaluate_query, parse_query, QueryResult, Solution};

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

/// How a generated BGP's patterns share variables.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `?v0 p ?v1 . ?v1 q ?v2 …`
    Chain,
    /// `?v0 p ?v1 . ?v0 q ?v2 …`
    Star,
    /// A chain whose last object is `?v0` again (one pattern: a self-loop).
    Cycle,
    /// `?v0 p ?v1 . ?v2 q ?v3 …`: no variable shared.
    Cartesian,
}

/// The vocabulary's predicates, as query text names them.
const PREDICATES: [&str; 3] = ["foaf:knows", "foaf:name", "<http://example.org/p0>"];

fn subject_iri(i: u8) -> String {
    format!("<http://example.org/s{i}>")
}

/// A BGP of one pattern per predicate index in `predicates`, shaped by
/// `shape`; with `constant`, the last pattern's object is that subject IRI
/// instead of a fresh variable (a cycle keeps its closing variable).
fn bgp(shape: Shape, predicates: &[usize], constant: Option<u8>) -> String {
    let n = predicates.len();
    let mut out = String::new();
    for (i, &p) in predicates.iter().enumerate() {
        let (s, o) = match shape {
            Shape::Chain => (i, i + 1),
            Shape::Star => (0, i + 1),
            Shape::Cycle => (i, if i + 1 == n { 0 } else { i + 1 }),
            Shape::Cartesian => (2 * i, 2 * i + 1),
        };
        let object = match constant {
            Some(c) if i + 1 == n && !matches!(shape, Shape::Cycle) => subject_iri(c),
            _ => format!("?v{o}"),
        };
        out.push_str(&format!("?v{s} {} {object} . ", PREDICATES[p]));
    }
    out
}

/// What surrounds the BGP in the `WHERE` group.
#[derive(Debug, Clone)]
enum Body {
    Plain,
    /// `OPTIONAL { ?v0 p ?o0 }`, or with `OPTIONAL { ?o0 q ?o1 }` nested.
    Optional { p: usize, nested: Option<usize> },
    /// `{ BGP } UNION { a second BGP over the same variable names }`.
    Union(Shape, Vec<usize>),
}

/// A `FILTER` on the group: over a variable every row binds, or over the
/// OPTIONAL's variable, which some rows leave unbound.
#[derive(Debug, Clone, Copy)]
enum Filter {
    None,
    BoundIsIri,
    BoundIsNot(u8),
    OptionalUnbound,
    OptionalIsNot(u8),
}

/// The solution modifiers.
#[derive(Debug, Clone, Copy)]
enum Modifiers {
    None,
    Distinct,
    /// Ordered by every variable of the query, so ties are identical rows
    /// and the cut is the same wherever the rows were gathered.
    OrderLimit { distinct: bool, limit: usize },
}

fn arb_predicates() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..3, 1..4)
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![Just(Shape::Chain), Just(Shape::Star), Just(Shape::Cycle), Just(Shape::Cartesian)]
}

/// Queries from a grammar over the vocabulary of [`arb_triple`]: SELECT
/// or `DESCRIBE ?v0` over BGPs of one to three patterns (chain, star,
/// cycle, cartesian; a constant or not), OPTIONAL and OPTIONAL nested
/// once, UNION, FILTER over a bound or an OPTIONAL-unbound variable,
/// DISTINCT (SELECT only), ORDER BY + LIMIT.
fn arb_query() -> impl Strategy<Value = String> {
    let body = prop_oneof![
        Just(Body::Plain),
        (0usize..3, 0usize..4).prop_map(|(p, q)| Body::Optional { p, nested: (q < 3).then_some(q) }),
        (arb_shape(), arb_predicates()).prop_map(|(shape, ps)| Body::Union(shape, ps)),
    ];
    let filter = prop_oneof![
        Just(Filter::None),
        Just(Filter::BoundIsIri),
        (0u8..5).prop_map(Filter::BoundIsNot),
        Just(Filter::OptionalUnbound),
        (0u8..5).prop_map(Filter::OptionalIsNot),
    ];
    let modifiers = prop_oneof![
        Just(Modifiers::None),
        Just(Modifiers::Distinct),
        (any::<bool>(), 1usize..4).prop_map(|(distinct, limit)| Modifiers::OrderLimit {
            distinct,
            limit
        }),
    ];
    let constant = (0u8..7).prop_map(|i| (i < 5).then_some(i));
    let describe = (0u8..4).prop_map(|i| i == 0);
    (arb_shape(), arb_predicates(), constant, body, filter, (modifiers, describe))
        .prop_map(|(shape, ps, constant, body, filter, (modifiers, describe))| {
            let main = bgp(shape, &ps, constant);
            let mut group = match &body {
                Body::Plain => main,
                Body::Optional { p, nested } => {
                    let inner = match nested {
                        Some(q) => format!(" OPTIONAL {{ ?o0 {} ?o1 . }}", PREDICATES[*q]),
                        None => String::new(),
                    };
                    format!("{main}OPTIONAL {{ ?v0 {} ?o0 .{inner} }} ", PREDICATES[*p])
                }
                Body::Union(shape2, ps2) => {
                    format!("{{ {main}}} UNION {{ {}}} ", bgp(*shape2, ps2, None))
                }
            };
            let optional = matches!(body, Body::Optional { .. });
            let condition = match filter {
                Filter::BoundIsIri => Some("isIRI(?v0)".to_string()),
                Filter::BoundIsNot(i) => Some(format!("?v0 != {}", subject_iri(i))),
                Filter::OptionalUnbound if optional => Some("!bound(?o0)".to_string()),
                Filter::OptionalIsNot(i) if optional => Some(format!("?o0 != {}", subject_iri(i))),
                _ => None,
            };
            if let Some(c) = condition {
                group.push_str(&format!("FILTER({c}) "));
            }
            let (distinct, tail) = match modifiers {
                Modifiers::None => ("", String::new()),
                Modifiers::Distinct => ("DISTINCT ", String::new()),
                Modifiers::OrderLimit { distinct, limit } => {
                    let vars: Vec<String> = (0..6)
                        .map(|i| format!("?v{i}"))
                        .chain(["?o0".to_string(), "?o1".to_string()])
                        .filter(|v| group.contains(&format!("{v} ")))
                        .collect();
                    let tail = format!(" ORDER BY {} LIMIT {limit}", vars.join(" "));
                    (if distinct { "DISTINCT " } else { "" }, tail)
                }
            };
            match describe {
                true => format!("DESCRIBE ?v0 WHERE {{ {group}}}{tail}"),
                false => format!("SELECT {distinct}* WHERE {{ {group}}}{tail}"),
            }
        })
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

/// A result as the properties compare it: SELECT rows sorted, a graph as
/// its sorted set of triples.
#[derive(Debug, PartialEq)]
enum Answer {
    Rows(Vec<Solution>),
    Graph(Vec<Triple>),
}

fn answer(result: &QueryResult) -> Answer {
    match result {
        QueryResult::Graph(triples) => {
            let mut triples = triples.clone();
            triples.sort();
            triples.dedup();
            Answer::Graph(triples)
        }
        result => {
            let mut rows = result.solutions().expect("a SELECT answer").to_vec();
            rows.sort();
            Answer::Rows(rows)
        }
    }
}

fn oracle(store: &TripleStore, query: &str) -> Answer {
    answer(&evaluate_query(store, &parse_query(query).unwrap()))
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
        prop_assert_eq!(answer(&exec.result), expected, "query {} under {:?}", query, cfg);
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
        prop_assert_eq!(answer(&exec.result), expected, "query {}", query);
        // A second run (entries purged) agrees and hits no timeouts.
        let exec2 = Engine::new(&mut overlay, ExecConfig::default())
            .execute(NodeId(1000), &query)
            .expect("clean second run");
        prop_assert_eq!(exec2.stats.dead_providers, 0);
    }

    /// The live mesh on channels, running the chained bind join, answers
    /// what the oracle answers.
    #[test]
    fn live_bind_join_on_channels_matches_oracle(
        datasets in proptest::collection::vec(
            proptest::collection::vec(arb_triple(), 4..16), 1..4),
        query in arb_query(),
    ) {
        let overlay = build(&datasets);
        let expected = oracle(&global_store(&overlay), &query);
        let mesh = LiveMesh::spawn(&overlay);
        let cfg = ExecConfig { bind_join: true, dist: DistChoice::Chained, ..ExecConfig::default() };
        let live = mesh.execute_with(&query, &cfg, Duration::from_secs(30));
        mesh.shutdown();
        let live = live.expect("live execution");
        prop_assert!(live.complete, "query {}", query);
        prop_assert_eq!(answer(&live.result), expected, "query {}", query);
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
