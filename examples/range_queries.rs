//! Range queries: the RDFPeers baseline vs the hybrid index.
//!
//! RDFPeers hashes numeric objects with a locality-preserving function,
//! so `?o ∈ [lo, hi]` maps to a contiguous arc of ring nodes; the hybrid
//! two-level index has no order-preserving key and must gather all
//! `foaf:age` mappings and filter. This example runs the same range
//! query on both systems and prints the costs side by side (the §E12
//! trade-off, interactively).
//!
//! ```sh
//! cargo run --example range_queries
//! ```

use rdfmesh::chord::IdSpace;
use rdfmesh::core::{Engine, ExecConfig};
use rdfmesh::net::{LatencyModel, Network, NodeId, SimTime};
use rdfmesh::overlay::Overlay;
use rdfmesh::rdf::Term;
use rdfmesh::workload::{foaf, FoafConfig};
use rdfmesh_rdfpeers::RdfPeers;

fn lan() -> Network {
    Network::new(LatencyModel::Uniform(SimTime::millis(1)), 12.5)
}

fn main() {
    let data = foaf::generate(&FoafConfig { persons: 150, peers: 8, ..Default::default() });

    // The hybrid system.
    let mut overlay = Overlay::new(32, 4, 2, lan());
    for i in 0..6u64 {
        let addr = NodeId(1000 + i);
        let pos = overlay.ring().space().hash(&addr.0.to_be_bytes());
        overlay.add_index_node(addr, pos).unwrap();
    }
    for (i, t) in data.peers.iter().enumerate() {
        overlay
            .add_storage_node(NodeId(1 + i as u64), NodeId(1000 + (i as u64 % 6)), t.clone())
            .unwrap();
    }

    // The RDFPeers repository on an identical substrate. Ages run 10-79,
    // so the locality hash covers [0, 100].
    let mut repo = RdfPeers::new(32, lan(), 0.0, 100.0);
    for i in 0..6u64 {
        let addr = NodeId(1000 + i);
        repo.add_node(addr, IdSpace::new(32).hash(&addr.0.to_be_bytes())).unwrap();
    }
    for (i, t) in data.peers.iter().enumerate() {
        repo.store(NodeId(1 + i as u64), t.clone()).unwrap();
    }

    println!("range ?a in [lo, hi) over foaf:age, 150 persons, 8 providers\n");
    println!(
        "{:<12} {:>8} | {:>12} {:>10} | {:>13} {:>11}",
        "range", "matches", "rdfmesh B", "rdfmesh ms", "RDFPeers B", "RDFPeers ms"
    );
    let age = Term::iri(rdfmesh::rdf::vocab::foaf::AGE);
    for (lo, hi) in [(30, 35), (30, 50), (10, 80)] {
        overlay.net.reset();
        let q = format!("SELECT ?x ?a WHERE {{ ?x foaf:age ?a . FILTER(?a >= {lo} && ?a < {hi}) }}");
        let exec = Engine::new(&mut overlay, ExecConfig::default())
            .execute(NodeId(1004), &q)
            .unwrap();
        let mesh = (exec.result.len(), exec.stats.total_bytes, exec.stats.response_time);

        repo.net.reset();
        // Query from a node that does not own the arc start, so the
        // answer genuinely crosses the network.
        let rep = repo
            .range_query(NodeId(1004), &age, lo as f64, (hi - 1) as f64)
            .unwrap();
        let peers = (rep.matches.len(), repo.net.stats().total_bytes, rep.finished);
        assert_eq!(mesh.0, peers.0, "both systems must agree on the answer");

        println!(
            "{:<12} {:>8} | {:>12} {:>10.2} | {:>13} {:>11.2}",
            format!("[{lo}, {hi})"),
            mesh.0,
            mesh.1,
            mesh.2.as_millis_f64(),
            peers.1,
            peers.2.as_millis_f64(),
        );
    }

    println!("\nThe hybrid index gathers every foaf:age mapping and filters; its");
    println!("cost is flat in the range width. RDFPeers walks exactly the ring");
    println!("arc the range hashes onto, carrying accumulated matches — superb");
    println!("for narrow ranges, while a full-span range drags the whole answer");
    println!("across every arc node and the gap all but closes. That is the");
    println!("trade-off the paper's related-work section alludes to.");
}
