//! §E12 — Architectural comparison against RDFPeers.
//!
//! The paper's introduction differentiates its design from RDFPeers on
//! exactly these axes: data stays with its provider (only a location
//! index is distributed), and the query fabric serves ad-hoc sharing.
//! We run both systems on the same dataset, ring substrate and network
//! cost model and compare publication cost, infrastructure storage load,
//! node-departure cost, and lookup-style query cost. RDFPeers' native
//! strength — ring-walking range queries over locality-preserved numeric
//! objects — is reported too, honestly: the hybrid index has no
//! equivalent and must gather-and-filter.

use rdfmesh_core::{Engine, ExecConfig};
use rdfmesh_net::NodeId;
use rdfmesh_overlay::Overlay;
use rdfmesh_rdfpeers::RdfPeers;
use rdfmesh_rdf::{Term, TriplePattern, TermPattern};
use rdfmesh_workload::{foaf, FoafConfig};

use crate::{fmt_ms, lan, print_table, INDEX_BASE};

const RING_NODES: u64 = 8;

fn dataset() -> foaf::FoafDataset {
    foaf::generate(&FoafConfig { persons: 200, peers: 10, knows_degree: 4, ..Default::default() })
}

fn build_mesh(data: &foaf::FoafDataset) -> Overlay {
    let mut overlay = Overlay::new(32, 4, 2, lan());
    for i in 0..RING_NODES {
        let addr = NodeId(INDEX_BASE + i);
        let pos = overlay.ring().space().hash(&addr.0.to_be_bytes());
        overlay.add_index_node(addr, pos).unwrap();
    }
    for (i, triples) in data.peers.iter().enumerate() {
        overlay
            .add_storage_node(
                NodeId(1 + i as u64),
                NodeId(INDEX_BASE + (i as u64 % RING_NODES)),
                triples.clone(),
            )
            .unwrap();
    }
    overlay
}

fn build_peers(data: &foaf::FoafDataset) -> RdfPeers {
    let mut repo = RdfPeers::new(32, lan(), 0.0, 100.0);
    for i in 0..RING_NODES {
        let addr = NodeId(INDEX_BASE + i);
        let pos = rdfmesh_chord::IdSpace::new(32).hash(&addr.0.to_be_bytes());
        repo.add_node(addr, pos).unwrap();
    }
    for (i, triples) in data.peers.iter().enumerate() {
        repo.store(NodeId(1 + i as u64), triples.clone()).unwrap();
    }
    repo
}

/// Runs the experiment and prints its tables.
pub fn run() {
    let data = dataset();
    let total_triples = data.triple_count();

    // --- publication cost & infrastructure load ---
    let mesh = build_mesh(&data);
    let mesh_publish = mesh.net.stats();
    let peers = build_peers(&data);
    let peers_publish = peers.net.stats();

    let mesh_load: usize = mesh.index_load().iter().map(|(_, n)| n).sum();
    let peers_load = peers.total_copies();

    print_table(
        &format!("Publishing {total_triples} triples from 10 providers (8 ring nodes)"),
        &["system", "publish bytes", "ring-node payload", "data kept by provider"],
        &[
            vec![
                "rdfmesh (two-level index)".into(),
                mesh_publish.total_bytes.to_string(),
                format!("{mesh_load} index entries"),
                "yes — triples never move".into(),
            ],
            vec![
                "RDFPeers (DHT repository)".into(),
                peers_publish.total_bytes.to_string(),
                format!("{peers_load} triple copies"),
                "no — 3 copies on the ring".into(),
            ],
        ],
    );

    // --- graceful departure of one ring node ---
    let mut mesh = build_mesh(&data);
    mesh.net.reset();
    mesh.remove_index_node(NodeId(INDEX_BASE + RING_NODES - 1)).unwrap();
    let mesh_leave = mesh.net.stats().total_bytes;
    let mut peers = build_peers(&data);
    peers.net.reset();
    peers.depart(NodeId(INDEX_BASE + RING_NODES - 1)).unwrap();
    let peers_leave = peers.net.stats().total_bytes;

    // --- a PO-pattern lookup query on both systems ---
    let knows = Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS);
    let target = data.persons[7].clone();
    let mut mesh = build_mesh(&data);
    mesh.net.reset();
    let q = format!("SELECT ?x WHERE {{ ?x foaf:knows {target} . }}");
    let exec = Engine::new(&mut mesh, ExecConfig::default())
        .execute(NodeId(INDEX_BASE), &q)
        .unwrap();
    let mesh_q = (exec.result.len(), mesh.net.stats().total_bytes, exec.stats.response_time);

    let peers = build_peers(&data);
    peers.net.reset();
    let pat = TriplePattern::new(TermPattern::var("x"), knows, target);
    let rep = peers.query(NodeId(INDEX_BASE), &pat).unwrap();
    let peers_q = (rep.matches.len(), peers.net.stats().total_bytes, rep.finished);
    assert_eq!(mesh_q.0, peers_q.0, "both systems must find the same matches");

    // --- a numeric range query (RDFPeers' home turf) ---
    let age = Term::iri(rdfmesh_rdf::vocab::foaf::AGE);
    let mut mesh = build_mesh(&data);
    mesh.net.reset();
    let exec = Engine::new(&mut mesh, ExecConfig::default())
        .execute(
            NodeId(INDEX_BASE),
            "SELECT ?x ?a WHERE { ?x foaf:age ?a . FILTER(?a >= 30 && ?a < 50) }",
        )
        .unwrap();
    let mesh_r = (exec.result.len(), mesh.net.stats().total_bytes, exec.stats.response_time);
    let peers = build_peers(&data);
    peers.net.reset();
    let rep = peers.range_query(NodeId(INDEX_BASE), &age, 30.0, 49.0).unwrap();
    let peers_r = (rep.matches.len(), peers.net.stats().total_bytes, rep.finished);
    assert_eq!(mesh_r.0, peers_r.0, "range answers must agree");

    print_table(
        "Operation costs on identical substrate and workload",
        &["operation", "rdfmesh bytes", "rdfmesh ms", "RDFPeers bytes", "RDFPeers ms"],
        &[
            vec![
                "node departure".into(),
                mesh_leave.to_string(),
                "-".into(),
                peers_leave.to_string(),
                "-".into(),
            ],
            vec![
                format!("lookup (?x knows p7): {} matches", mesh_q.0),
                mesh_q.1.to_string(),
                fmt_ms(mesh_q.2),
                peers_q.1.to_string(),
                fmt_ms(peers_q.2),
            ],
            vec![
                format!("range 30<=age<50: {} matches", mesh_r.0),
                mesh_r.1.to_string(),
                fmt_ms(mesh_r.2),
                peers_r.1.to_string(),
                fmt_ms(peers_r.2),
            ],
        ],
    );
    println!("\nShape check: RDFPeers pays for moving every triple (×3) onto the");
    println!("ring at publication and again whenever a ring node departs; the");
    println!("two-level index ships compact entries instead and its node");
    println!("departures move only table rows. In exchange RDFPeers answers a");
    println!("lookup at a single owner and walks a contiguous arc for numeric");
    println!("ranges, while the hybrid design must contact every provider and");
    println!("gather-and-filter for ranges — the trade-off the paper's");
    println!("introduction describes.");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfmesh_rdf::Variable;
    use rdfmesh_sparql::solution::{wire, Solution};

    #[test]
    fn an_rdfpeers_lookup_reply_is_charged_as_its_solutions_frame() {
        let data = dataset();
        let peers = build_peers(&data);
        let knows = Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS);
        let pattern = TriplePattern::new(TermPattern::var("x"), knows, data.persons[7].clone());
        peers.net.reset();
        // A provider's address asks: it is no ring node, so the reply is
        // all it receives.
        let initiator = NodeId(1);
        let rep = peers.query(initiator, &pattern).unwrap();
        assert!(!rep.matches.is_empty());
        let x = Variable::new("x");
        let answer: Vec<Solution> = rep
            .matches
            .iter()
            .map(|t| Solution::from_pairs([(x.clone(), t.subject.clone())]))
            .collect();
        let received = peers.net.stats().per_node[&initiator].bytes_in;
        assert_eq!(received, wire::encode(&answer).len() as u64);
    }
}
