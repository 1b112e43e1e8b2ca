//! §E17 — Execution-core parity: one compiled plan, two meshes.
//!
//! The distributed execution core compiles a query once
//! ([`rdfmesh_core::planner::compile`]) and executes the plan through
//! any [`rdfmesh_core::MeshBackend`]. This experiment runs the same
//! full-SPARQL workload through both backends over the same data
//! placement — the deterministic simulator (`SimBackend` via `Engine`)
//! and the thread-backed live mesh (`LiveBackend` via
//! [`rdfmesh_core::RoundClient::execute`]) — and asserts the answers are
//! identical solution sets. The table contrasts what each side can measure:
//! simulated bytes/messages/hops against live solution rounds, shipped
//! solution wire bytes, and wall-clock time. The `exec.*` and `live.*`
//! metrics land in `BENCH_exec_parity.json` in CI.

use std::time::{Duration, Instant};

use rdfmesh_core::{ExecConfig, LiveMesh};
use rdfmesh_sparql::{QueryResult, Solution};
use rdfmesh_workload::{foaf, FoafConfig};

use crate::{print_table, testbed_from};

const QUERIES: &[(&str, &str)] = &[
    ("chain-2", "SELECT * WHERE { ?x foaf:knows ?y . ?y foaf:knows ?z . }"),
    ("star-3", "SELECT * WHERE { ?x foaf:name ?n . ?x foaf:age ?a . ?x foaf:knows ?y . }"),
    ("union", "SELECT * WHERE { { ?x foaf:nick ?v . } UNION { ?x foaf:mbox ?v . } }"),
    ("optional", "SELECT * WHERE { ?x foaf:knows ?y . OPTIONAL { ?y foaf:nick ?n . } }"),
    ("filter", "SELECT * WHERE { ?x foaf:age ?a . FILTER (?a >= 30 && ?a < 60) }"),
    ("distinct", "SELECT DISTINCT ?x WHERE { ?x foaf:knows ?y . } ORDER BY ?x"),
];

fn solutions(result: &QueryResult) -> Vec<Solution> {
    match result {
        QueryResult::Solutions(s) => {
            let mut s = s.clone();
            s.sort();
            s
        }
        other => panic!("workload queries are SELECTs, got {other:?}"),
    }
}

/// Runs the parity workload and prints the comparison table.
pub fn run() {
    let data = foaf::generate(&FoafConfig { persons: 40, peers: 6, ..Default::default() });
    let mut testbed = testbed_from(&data.peers, 4);
    // The live mesh compiles with placement optimizations off (they are
    // simulator cost-model notions); the sim side runs the same config
    // so both execute the identical plan shape.
    let cfg = ExecConfig { overlap_aware: false, range_index: false, ..ExecConfig::default() };
    let mesh = LiveMesh::spawn(&testbed.overlay);

    let mut rows = Vec::new();
    for (label, query) in QUERIES {
        let sim = testbed.run_full(cfg, query);
        let before = mesh.stats();
        let started = Instant::now();
        let live = mesh.execute(query, cfg.bind_join, Duration::from_secs(30)).expect("live run");
        let elapsed = started.elapsed();
        let after = mesh.stats();
        assert!(live.complete, "fault-free parity run must complete: {label}");
        let sim_sols = solutions(&sim.result);
        let live_sols = solutions(&live.result);
        assert_eq!(sim_sols, live_sols, "sim and live answers must be identical: {label}");
        rows.push(vec![
            (*label).to_string(),
            sim_sols.len().to_string(),
            "yes".to_string(),
            sim.stats.total_bytes.to_string(),
            sim.stats.messages.to_string(),
            sim.stats.index_hops.to_string(),
            live.rounds.to_string(),
            (after.solutions_shipped - before.solutions_shipped).to_string(),
            (after.solution_bytes - before.solution_bytes).to_string(),
            format!("{:.1}", elapsed.as_secs_f64() * 1e3),
        ]);
    }
    let totals = mesh.stats();
    mesh.shutdown();

    print_table(
        "Execution-core parity: identical plans on the simulator and the live mesh \
         (40 persons / 6 peers, bind_join off)",
        &[
            "query",
            "results",
            "parity",
            "sim bytes",
            "sim msgs",
            "sim hops",
            "live rounds",
            "live sols shipped",
            "live sol bytes",
            "live ms",
        ],
        &rows,
    );
    println!(
        "\ntotals: solution_rounds={} solutions_shipped={} solution_bytes={} incomplete={}",
        totals.solution_rounds,
        totals.solutions_shipped,
        totals.solution_bytes,
        totals.incomplete_queries,
    );
    println!("\nShape check: every query returns the same solution set on both");
    println!("backends — the compiled plan, not the backend, determines the");
    println!("answer. The simulator prices bytes/messages/hops it can model;");
    println!("the live mesh reports what real threads did: one solution round");
    println!("per plan primitive, wire-sized solution shipping, and wall-clock");
    println!("latency dominated by the thread round-trips.");
}
