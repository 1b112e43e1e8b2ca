//! §E16 — Live-mesh churn soak: fault tolerance on real threads.
//!
//! §E10 measures churn in the deterministic simulator; this experiment
//! replays the same story on the thread-backed [`LiveMesh`], where
//! failures are real: a [`FaultPlan`] silently drops a sub-query (forcing
//! a retransmission), then storage nodes crash mid-workload. The soak
//! asserts the Sect. III-D guarantees end to end — every query returns
//! within its deadline, incomplete answers equal the simulator oracle
//! restricted to live nodes, and the dead providers are lazily purged
//! from the index so later queries are complete again. The mesh's own
//! counters, written into the run's metrics at the end, land in
//! `BENCH_live_churn.json` in CI.

use std::time::Duration;

use rdfmesh_core::{FaultPlan, LiveAnswer, LiveConfig, LiveMesh, COORDINATOR};
use rdfmesh_net::NodeId;
use rdfmesh_overlay::Overlay;
use rdfmesh_rdf::{Term, TermPattern, TriplePattern};
use rdfmesh_sparql::{eval::extend, Rows, Solution};
use rdfmesh_workload::{foaf, FoafConfig};

use crate::{print_table, testbed_from, INDEX_BASE};

/// One sub-query to the first storage node is silently dropped, so the
/// soak always exercises at least one ack-deadline retransmission.
const DROP_TARGET: NodeId = NodeId(1);

fn patterns() -> Vec<TriplePattern> {
    (0..12)
        .map(|i| {
            TriplePattern::new(
                TermPattern::var("x"),
                Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS),
                foaf::person_iri(i),
            )
        })
        .collect()
}

/// Simulator-side oracle: the union of the live storage nodes' local
/// matches as bindings of the pattern's variables, deduplicated — what
/// a failure-free query over the surviving mesh must return.
fn oracle(overlay: &Overlay, pattern: &TriplePattern, dead: &[NodeId]) -> Vec<Solution> {
    let mut expected: Vec<Solution> = overlay
        .storage_nodes()
        .into_iter()
        .filter(|n| !dead.contains(n))
        .flat_map(|n| overlay.storage_node(n).expect("listed").store.match_pattern(pattern))
        .filter_map(|t| extend(pattern, &t, &Solution::new()))
        .collect();
    expected.sort();
    expected.dedup();
    expected
}

fn sorted(solutions: Rows) -> Vec<Solution> {
    let mut solutions = solutions.to_solutions();
    solutions.sort();
    solutions
}

/// One solution round over `pattern`, no filter, no bound intermediates.
fn query(mesh: &LiveMesh, pattern: &TriplePattern, wait: Duration) -> LiveAnswer {
    mesh.query_solutions(pattern.clone(), None, None, wait).expect("within deadline")
}

/// Fences the lazy-removal route (coordinator → entry index node →
/// owner, at most one forward) so table assertions need no sleeps.
fn fence(mesh: &LiveMesh, index_nodes: &[NodeId]) {
    for _ in 0..2 {
        for &ix in index_nodes {
            assert!(mesh.barrier(ix, Duration::from_secs(5)), "index barrier");
        }
    }
}

/// Runs the soak and prints the phase table.
pub fn run() {
    let data = foaf::generate(&FoafConfig { persons: 40, peers: 6, ..Default::default() });
    let overlay = testbed_from(&data.peers, 4).overlay;
    let index_nodes: Vec<NodeId> = (0..4).map(|i| NodeId(INDEX_BASE + i)).collect();
    let cfg = LiveConfig {
        ack_timeout: Duration::from_millis(50),
        lookup_timeout: Duration::from_millis(50),
        query_deadline: Duration::from_secs(2),
        retries: 1,
        ..LiveConfig::default()
    };
    let mesh = LiveMesh::spawn_with(
        &overlay,
        cfg,
        FaultPlan::new().drop_nth(COORDINATOR, DROP_TARGET, 1),
    );
    let workload = patterns();
    let crashed = vec![NodeId(2), NodeId(3)];
    let mut rows = Vec::new();

    // Phase 1 — warm: a lossy link (one dropped sub-query) but no dead
    // nodes; the bounded retry must keep every answer complete.
    for pattern in &workload {
        let answer = query(&mesh, pattern, cfg.query_deadline);
        assert!(answer.complete, "retry must absorb the dropped sub-query");
        assert_eq!(sorted(answer.solutions), oracle(&overlay, pattern, &[]));
    }
    let warm = mesh.stats();
    assert_eq!(warm.retries, 1, "exactly the planned drop is retried");
    assert_eq!(warm.incomplete_queries, 0);
    rows.push(vec![
        "warm (lossy link)".into(),
        workload.len().to_string(),
        "0".into(),
        warm.retries.to_string(),
        "0".into(),
    ]);

    // Phase 2 — churn: two storage nodes crash mid-workload. Affected
    // queries degrade to the live-node oracle within the deadline and
    // name the dead providers; untouched queries stay complete.
    for &node in &crashed {
        assert!(mesh.crash(node), "crash {node:?}");
    }
    let mut incomplete = 0usize;
    for pattern in &workload {
        let answer = query(&mesh, pattern, cfg.query_deadline);
        assert_eq!(sorted(answer.solutions.clone()), oracle(&overlay, pattern, &crashed));
        if answer.complete {
            assert!(answer.failed_providers.is_empty());
        } else {
            incomplete += 1;
            assert!(
                answer.failed_providers.iter().all(|p| crashed.contains(p)),
                "only crashed nodes may be reported dead"
            );
        }
    }
    assert!(incomplete > 0, "the soak workload must hit the crashed providers");
    let churn = mesh.stats();
    rows.push(vec![
        "churn (2 crashed)".into(),
        workload.len().to_string(),
        incomplete.to_string(),
        (churn.retries - warm.retries).to_string(),
        churn.ack_timeouts.to_string(),
    ]);

    // Phase 3 — recovery: the failed queries purged the dead providers
    // from the index (fence, then verify), so the same workload is now
    // complete again over the survivors.
    fence(&mesh, &index_nodes);
    for pattern in &workload {
        assert!(
            mesh.providers_of(pattern).iter().all(|p| !crashed.contains(&p.node)),
            "dead providers must be lazily purged"
        );
    }
    for pattern in &workload {
        let answer = query(&mesh, pattern, cfg.query_deadline);
        assert!(answer.complete, "post-purge queries are complete over the survivors");
        assert_eq!(sorted(answer.solutions), oracle(&overlay, pattern, &crashed));
    }
    let done = mesh.stats();
    assert!(done.providers_purged >= 1);
    assert_eq!(done.incomplete_queries, incomplete as u64);
    rows.push(vec![
        "recovery (purged)".into(),
        workload.len().to_string(),
        "0".into(),
        (done.retries - churn.retries).to_string(),
        (done.ack_timeouts - churn.ack_timeouts).to_string(),
    ]);

    print_table(
        "Live churn soak: 12-pattern workload, lossy link, then 2/6 storage nodes crash",
        &["phase", "queries", "incomplete", "retries", "providers declared dead"],
        &rows,
    );
    println!(
        "\ntotals: retries={} ack_timeouts={} send_failures={} stale_replies={} \
         providers_purged={} incomplete={} lookup_failures={} (messages={}, dropped={})",
        done.retries,
        done.ack_timeouts,
        done.send_failures,
        done.stale_replies,
        done.providers_purged,
        done.incomplete_queries,
        done.lookup_failures,
        mesh.message_count(),
        mesh.dropped_count(),
    );
    println!("\nShape check: the lossy link costs one retransmission and nothing");
    println!("else; crashing 2 of 6 providers degrades exactly the queries that");
    println!("needed them (answers equal the live-node oracle, within deadline);");
    println!("and the Sect. III-D lazy purge makes the very next pass complete");
    println!("again — on OS threads, not the simulator.");
    mesh.shutdown();
    // The mesh keeps its own counters; its final figures are this run's
    // `live.*` record.
    for (name, value) in mesh.stats().named().into_iter().filter(|(_, value)| *value > 0) {
        rdfmesh_obs::metrics().add(name, value);
    }
}
