//! §E6 — Move-small for OPTIONAL patterns.
//!
//! Sect. IV-E evaluates `P1 OPT P2` by "moving the smaller set of
//! solutions … to a node at which [the other] is collected". We sweep
//! the size ratio |Ω2|/|Ω1| (via the probability that a person has a
//! nick) and compare the three join-site policies on the Fig. 7 query
//! shape.

use rdfmesh_core::{ExecConfig, JoinSiteStrategy};
use rdfmesh_workload::FoafConfig;

use crate::{fmt_ms, foaf_testbed, print_table};

/// Scenario A (the paper's winning case): a *small* mandatory side —
/// people with nicks — optionally extended by the *large* knows
/// relation. Move-small ships the small operand out, joins in the mesh,
/// and returns a small result.
const SMALL_LEFT: &str =
    "SELECT * WHERE { ?x foaf:nick ?v . OPTIONAL { ?x foaf:knows ?y . } }";

/// Scenario B (the counter-case): a large mandatory side whose left
/// outer join result is at least as big as itself and must reach the
/// initiator anyway — here always shipping home (query-site) is hard to
/// beat.
const LARGE_LEFT: &str =
    "SELECT * WHERE { ?x foaf:knows ?y . OPTIONAL { ?y foaf:nick ?n . } }";

fn sweep(query: &str, title: &str, nick_ps: &[f64]) {
    let mut rows = Vec::new();
    for &nick_p in nick_ps {
        let foaf = FoafConfig {
            persons: 250,
            peers: 10,
            knows_degree: 4,
            nick_probability: nick_p,
            ..Default::default()
        };
        let mut cells = vec![format!("{nick_p:.2}")];
        let mut result_count = None;
        for strategy in JoinSiteStrategy::ALL {
            // Basic fan-out leaves each operand at its own assembly index
            // node, and overlap hints are disabled, so the three policies
            // genuinely choose different sites.
            let cfg = ExecConfig {
                join_site: strategy,
                primitive: rdfmesh_core::PrimitiveStrategy::Basic,
                overlap_aware: false,
                ..ExecConfig::default()
            };
            let mut tb = foaf_testbed(&foaf, 8);
            let (stats, n) = tb.run_counting(cfg, query);
            match result_count {
                None => result_count = Some(n),
                Some(prev) => assert_eq!(prev, n, "join-site policy must not change answers"),
            }
            cells.push(stats.total_bytes.to_string());
            cells.push(fmt_ms(stats.response_time));
        }
        cells.push(result_count.unwrap().to_string());
        rows.push(cells);
    }
    print_table(
        title,
        &[
            "P(nick)",
            "move-small B",
            "ms",
            "query-site B",
            "ms",
            "third-site B",
            "ms",
            "results",
        ],
        &rows,
    );
}

/// Runs the experiment and prints its tables.
pub fn run() {
    sweep(
        SMALL_LEFT,
        "A: small mandatory side (nicks), large OPTIONAL side (knows)",
        &[0.02, 0.1, 0.3],
    );
    sweep(
        LARGE_LEFT,
        "B: large mandatory side (knows), small OPTIONAL side (nicks)",
        &[0.02, 0.3, 0.9],
    );
    println!("\nShape check: in scenario A move-small ships only the small nick");
    println!("operand plus a small result — a fraction of query-site's bytes.");
    println!("Scenario B shows the boundary of the paper's recommendation: a");
    println!("left outer join result is never smaller than its mandatory side,");
    println!("so when that side dominates and the result returns to the");
    println!("initiator anyway, query-site is already optimal. Third-site");
    println!("counts the result's trip home too, so it joins at the query");
    println!("site here: the hop it would add costs more than the bytes it");
    println!("would keep off the initiator's link.");
}
