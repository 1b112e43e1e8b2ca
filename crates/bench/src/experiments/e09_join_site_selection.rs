//! §E9 — Join-site selection under heterogeneous links.
//!
//! Sect. II surveys move-small, query-site and third-site policies; the
//! third-site idea (Ye et al.) pays off when link qualities differ. We
//! put the query initiator behind a slow link and sweep its latency
//! penalty, comparing the three policies on a two-pattern join.

use rdfmesh_core::{ExecConfig, JoinSiteStrategy};
use rdfmesh_net::{LatencyModel, Network, NodeId, SimTime};
use rdfmesh_workload::{foaf, FoafConfig};

use crate::{fmt_ms, print_table, testbed_with_net, INDEX_BASE};

// Two predicates with distinct index keys (operands assemble at
// different index nodes) and a selective join: only the few people with
// nicks survive, so the result is far smaller than the knows operand.
const QUERY: &str = "SELECT * WHERE { ?x foaf:knows ?y . ?x foaf:nick ?v . }";

fn slow_initiator_net(penalty_ms: u64) -> Network {
    // Every link touching the initiator (INDEX_BASE) is slow; the rest of
    // the mesh enjoys 1 ms.
    let mut links = std::collections::HashMap::new();
    for other in 0..64u64 {
        links.insert(
            (NodeId(INDEX_BASE), NodeId(other)),
            SimTime::millis(penalty_ms),
        );
        links.insert(
            (NodeId(INDEX_BASE), NodeId(INDEX_BASE + other)),
            SimTime::millis(penalty_ms),
        );
    }
    Network::new(LatencyModel::PerLink { default: SimTime::millis(1), links }, 12.5)
}

/// Runs the experiment and prints its table.
pub fn run() {
    let data = foaf::generate(&FoafConfig {
        persons: 200,
        peers: 10,
        knows_degree: 4,
        nick_probability: 0.05,
        ..Default::default()
    });
    let mut rows = Vec::new();
    for &penalty in &[1u64, 5, 20, 80] {
        let mut cells = vec![format!("{penalty} ms")];
        let mut results = None;
        for strategy in JoinSiteStrategy::ALL {
            let mut tb = testbed_with_net(&data.peers, 6, slow_initiator_net(penalty));
            let cfg = ExecConfig {
                join_site: strategy,
                primitive: rdfmesh_core::PrimitiveStrategy::Basic,
                overlap_aware: false,
                ..ExecConfig::default()
            };
            let (stats, n) = tb.run_counting(cfg, QUERY);
            match results {
                None => results = Some(n),
                Some(prev) => assert_eq!(prev, n),
            }
            cells.push(stats.total_bytes.to_string());
            cells.push(fmt_ms(stats.response_time));
        }
        rows.push(cells);
    }
    print_table(
        "Selective knows ⋈ nick join; the initiator sits behind a slow link",
        &[
            "initiator link",
            "move-small B",
            "ms",
            "query-site B",
            "ms",
            "third-site B",
            "ms",
        ],
        &rows,
    );
    println!("\nShape check: query-site drags the large knows operand across the");
    println!("slow link before joining; move-small joins out in the fast mesh");
    println!("so only the small final result crosses the slow link. The byte");
    println!("gap is the size of the unshipped operand. The penalty is latency,");
    println!("which every plan pays once to bring its answer home, so joining at");
    println!("an operand's site costs one more mesh hop than it saves in wire");
    println!("time: query-site answers first. Third-site counts that trip home");
    println!("and joins at the query site, tying it on time and bytes.");
}
