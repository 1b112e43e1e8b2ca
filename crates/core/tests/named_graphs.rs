//! `FROM` dataset clauses (Sect. IV-A): "the IRI following each FROM
//! indicates a graph to be used to form the default graph"; without any
//! dataset clause "the dataset of the query will be the union of all
//! triples stored in all storage nodes in the system".

use rdfmesh_core::{Engine, ExecConfig};
use rdfmesh_net::{LatencyModel, Network, NodeId, SimTime};
use rdfmesh_overlay::Overlay;
use rdfmesh_rdf::{Iri, Term, Triple};

fn person(n: &str) -> Term {
    Term::iri(&format!("http://example.org/{n}"))
}

fn knows(a: &str, b: &str) -> Triple {
    Triple::new(person(a), Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS), person(b))
}

fn graph(n: &str) -> Iri {
    Iri::new(format!("http://example.org/graphs/{n}")).unwrap()
}

/// Three peers: alice's and bob's graphs are named; carol's is anonymous.
fn build() -> Overlay {
    let net = Network::new(LatencyModel::Uniform(SimTime::millis(1)), 12.5);
    let mut o = Overlay::new(32, 4, 2, net);
    for i in 0..3u64 {
        let addr = NodeId(1000 + i);
        let pos = o.ring().space().hash(&addr.0.to_be_bytes());
        o.add_index_node(addr, pos).unwrap();
    }
    o.add_storage_node_with_graph(
        NodeId(1),
        NodeId(1000),
        vec![knows("alice", "bob"), knows("alice", "carol")],
        Some(graph("alice")),
    )
    .unwrap();
    o.add_storage_node_with_graph(
        NodeId(2),
        NodeId(1001),
        vec![knows("bob", "carol")],
        Some(graph("bob")),
    )
    .unwrap();
    o.add_storage_node(NodeId(3), NodeId(1002), vec![knows("carol", "alice")]).unwrap();
    o
}

fn count(overlay: &mut Overlay, query: &str) -> usize {
    Engine::new(overlay, ExecConfig::default())
        .execute(NodeId(1000), query)
        .unwrap()
        .result
        .len()
}

#[test]
fn no_dataset_clause_queries_everything() {
    let mut o = build();
    assert_eq!(count(&mut o, "SELECT * WHERE { ?x foaf:knows ?y . }"), 4);
}

#[test]
fn from_restricts_to_the_named_graph() {
    let mut o = build();
    let q = "SELECT * FROM <http://example.org/graphs/alice> WHERE { ?x foaf:knows ?y . }";
    assert_eq!(count(&mut o, q), 2, "only alice's triples");
}

#[test]
fn multiple_from_clauses_union_their_graphs() {
    let mut o = build();
    let q = "SELECT * FROM <http://example.org/graphs/alice> \
             FROM <http://example.org/graphs/bob> WHERE { ?x foaf:knows ?y . }";
    assert_eq!(count(&mut o, q), 3);
}

#[test]
fn from_with_unknown_graph_is_empty() {
    let mut o = build();
    let q = "SELECT * FROM <http://example.org/graphs/nobody> WHERE { ?x foaf:knows ?y . }";
    assert_eq!(count(&mut o, q), 0);
    // Anonymous providers are not addressable by FROM.
    let q = "SELECT * FROM <http://example.org/graphs/carol> WHERE { ?x foaf:knows ?y . }";
    assert_eq!(count(&mut o, q), 0);
}

#[test]
fn from_applies_to_flooded_all_variable_queries() {
    let mut o = build();
    let q = "SELECT * FROM <http://example.org/graphs/bob> WHERE { ?s ?p ?o . }";
    assert_eq!(count(&mut o, q), 1);
}

#[test]
fn from_applies_to_ask_and_conjunctions() {
    let mut o = build();
    // alice knows bob only in alice's graph.
    let q = "ASK FROM <http://example.org/graphs/bob> { <http://example.org/alice> foaf:knows ?y . }";
    assert_eq!(count(&mut o, q), 0);
    let q = "ASK FROM <http://example.org/graphs/alice> { <http://example.org/alice> foaf:knows ?y . }";
    assert_eq!(count(&mut o, q), 1);
    // Conjunction across graphs fails when restricted to one.
    let q = "SELECT * WHERE { ?x foaf:knows ?y . ?y foaf:knows ?z . }";
    assert_eq!(count(&mut o, q), 5); // all 2-hop chains in the full dataset
    let q = "SELECT * FROM <http://example.org/graphs/alice> WHERE { ?x foaf:knows ?y . ?y foaf:knows ?z . }";
    assert_eq!(count(&mut o, q), 0, "the 2-hop chain spans two providers' graphs");
}

#[test]
fn providers_in_graphs_lists_named_members() {
    let o = build();
    let both = o.providers_in_graphs(&[graph("alice"), graph("bob")]);
    assert_eq!(both, vec![NodeId(1), NodeId(2)]);
    assert!(o.providers_in_graphs(&[graph("zzz")]).is_empty());
}

/// Planning prices the query's dataset: under `FROM <alice>` the one
/// `foaf:knows` row the planner is given holds only alice's peer and its
/// frequency, not every provider in the system.
#[test]
fn planning_prices_only_the_providers_in_the_dataset() {
    use rdfmesh_core::{estimate_primitive, PlanObjective};
    use rdfmesh_rdf::{TermPattern, TriplePattern};
    let mut o = build();
    let q = "SELECT * FROM <http://example.org/graphs/alice> WHERE { ?x foaf:knows ?y . }";
    let (exec, plan) = Engine::new(&mut o, ExecConfig::default())
        .execute_with_objective(NodeId(1000), q, PlanObjective::MinBytes)
        .unwrap();
    assert_eq!(exec.result.len(), 2);
    let knows = TriplePattern::new(
        TermPattern::var("x"),
        Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS),
        TermPattern::var("y"),
    );
    for (strategy, estimate) in plan.candidates {
        let alone = estimate_primitive(strategy, &knows, &[2], SimTime::millis(1), 12.5);
        assert_eq!(estimate, alone, "{strategy}");
    }
}
