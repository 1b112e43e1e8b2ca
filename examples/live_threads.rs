//! The query protocol on real OS threads.
//!
//! Everything else in this repository measures costs on the
//! deterministic simulator; this example spawns one thread per node
//! (std's channels as the transport) and resolves queries purely by
//! message passing — lookup to the ring, provider resolution from the
//! location table, parallel sub-queries, assembly.
//!
//! ```sh
//! cargo run --example live_threads
//! ```

use std::time::{Duration, Instant};

use rdfmesh::core::LiveMesh;
use rdfmesh::net::{LatencyModel, Network, NodeId, SimTime};
use rdfmesh::overlay::Overlay;
use rdfmesh::rdf::{Term, TermPattern, TriplePattern};
use rdfmesh::workload::{foaf, FoafConfig};

fn main() {
    let data = foaf::generate(&FoafConfig { persons: 120, peers: 12, ..Default::default() });

    // Build the placement on the simulated overlay...
    let net = Network::new(LatencyModel::Uniform(SimTime::millis(1)), 12.5);
    let mut overlay = Overlay::new(32, 4, 2, net);
    for i in 0..5u64 {
        let addr = NodeId(1000 + i);
        let pos = overlay.ring().space().hash(&addr.0.to_be_bytes());
        overlay.add_index_node(addr, pos).unwrap();
    }
    for (i, t) in data.peers.iter().enumerate() {
        overlay
            .add_storage_node(NodeId(1 + i as u64), NodeId(1000 + (i as u64 % 5)), t.clone())
            .unwrap();
    }

    // ...then bring it to life: 5 index threads + 12 storage threads.
    let mesh = LiveMesh::spawn(&overlay);
    println!("live mesh: 5 index threads, 12 storage threads\n");

    let knows = Term::iri(rdfmesh::rdf::vocab::foaf::KNOWS);
    let name = Term::iri(rdfmesh::rdf::vocab::foaf::NAME);
    let queries = vec![
        (
            "who knows p7?",
            TriplePattern::new(TermPattern::var("x"), knows.clone(), foaf::person_iri(7)),
        ),
        (
            "p3's outgoing edges",
            TriplePattern::new(foaf::person_iri(3), knows, TermPattern::var("y")),
        ),
        (
            "everyone's names",
            TriplePattern::new(TermPattern::var("x"), name, TermPattern::var("n")),
        ),
        (
            "nobody uses this",
            TriplePattern::new(
                TermPattern::var("x"),
                Term::iri("http://example.org/unused"),
                TermPattern::var("y"),
            ),
        ),
    ];

    for (label, pattern) in queries {
        let t0 = Instant::now();
        let answer = mesh
            .query_solutions(pattern.clone(), None, None, Duration::from_secs(10))
            .expect("live query timed out");
        assert!(answer.complete, "no faults are injected, so every provider answers");
        // Cross-check against a direct scan of all peers.
        let expected = rdfmesh::global_store(&overlay).match_pattern(&pattern).len();
        assert_eq!(answer.solutions.len(), expected, "live protocol must agree with the data");
        println!(
            "{label:<22} {:>4} matches in {:>7.2?} (wall clock, {} msgs so far)",
            answer.solutions.len(),
            t0.elapsed(),
            mesh.message_count()
        );
    }

    mesh.shutdown();
    println!("\nall threads joined cleanly.");
}
