//! Message-level traces of the three primitive strategies — the Sect.
//! IV-C narratives, visualized as the query's trace: every span that sent
//! messages, in the order it opened, then what each site sent and
//! received.
//!
//! ```sh
//! cargo run --example message_trace
//! ```

use rdfmesh::core::{Engine, ExecConfig, PrimitiveStrategy};
use rdfmesh::net::{LatencyModel, Network, NodeId, SimTime};
use rdfmesh::overlay::Overlay;
use rdfmesh::rdf::{Term, Triple};

const QUERY: &str = "SELECT ?x WHERE { ?x foaf:knows <http://example.org/me> . }";

fn build() -> Overlay {
    let net = Network::new(LatencyModel::Uniform(SimTime::millis(1)), 12.5);
    let mut overlay = Overlay::new(16, 3, 2, net);
    // The Fig. 1/2 cast: five index nodes, storage nodes D1, D3, D4 with
    // 10, 20 and 15 matching triples (Table I's K2 frequencies).
    for pos in [1u64, 4, 7, 12, 15] {
        overlay.add_index_node(NodeId(100 + pos), rdfmesh::Id(pos * 4096)).unwrap();
    }
    let me = Term::iri("http://example.org/me");
    let knows = Term::iri(rdfmesh::rdf::vocab::foaf::KNOWS);
    let mut person = 0;
    for (d, count) in [(1u64, 10), (3, 20), (4, 15)] {
        let triples: Vec<Triple> = (0..count)
            .map(|_| {
                person += 1;
                Triple::new(
                    Term::iri(&format!("http://example.org/p{person}")),
                    knows.clone(),
                    me.clone(),
                )
            })
            .collect();
        overlay.add_storage_node(NodeId(d), NodeId(101), triples).unwrap();
    }
    overlay
}

fn label(overlay: &Overlay, n: NodeId) -> String {
    if let Some(id) = overlay.chord_id_of(n) {
        format!("N{}", id.0 / 4096)
    } else {
        format!("D{}", n.0)
    }
}

fn main() {
    for strategy in PrimitiveStrategy::ALL {
        let mut overlay = build();
        overlay.net.reset(); // count the query's messages only
        let (exec, trace) =
            Engine::new(&mut overlay, ExecConfig { primitive: strategy, ..ExecConfig::default() })
                .execute_traced(NodeId(101), QUERY)
                .unwrap();
        println!(
            "=== {strategy} === ({} results, {} bytes, {})",
            exec.result.len(),
            exec.stats.total_bytes,
            exec.stats.response_time
        );
        for span in trace.spans().iter().filter(|s| s.messages > 0) {
            println!(
                "  {:<16} {:<32} {:>2} msg {:>6} B   {:>9} .. {:>9}",
                span.phase,
                span.label,
                span.messages,
                span.bytes,
                SimTime(span.start_us).to_string(),
                SimTime(span.end_us).to_string(),
            );
        }
        let stats = overlay.net.stats();
        let mut sites: Vec<_> = stats.per_node.iter().collect();
        sites.sort_by_key(|(n, _)| **n);
        for (n, t) in sites {
            println!(
                "  {:>9}: sent {} msg / {:>5} B, received {} msg / {:>5} B",
                label(&overlay, *n),
                t.messages_out,
                t.bytes_out,
                t.messages_in,
                t.bytes_in
            );
        }
        println!();
    }
    println!("basic: the index node fans out and assembles; chained/freq-ordered:");
    println!("the sub-query and accumulated mappings snake through the providers,");
    println!("with the frequency order saving the largest transfer for last.");
}
