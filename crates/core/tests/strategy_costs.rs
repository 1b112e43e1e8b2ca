//! The paper's comparative performance claims, asserted directionally.
//!
//! The paper defers quantitative evaluation to future work but commits to
//! qualitative orderings in prose (Sect. IV-C, IV-D, IV-G, V). These
//! tests pin those orderings on deterministic workloads; EXPERIMENTS.md
//! charts the full sweeps.

use rdfmesh_core::{Engine, ExecConfig, JoinSiteStrategy, PrimitiveStrategy, QueryStats};
use rdfmesh_net::{LatencyModel, Network, NodeId, SimTime};
use rdfmesh_overlay::Overlay;
use rdfmesh_rdf::{Term, Triple};
use rdfmesh_sparql::OptimizerConfig;
use rdfmesh_workload::{foaf, FoafConfig};

fn person(i: usize) -> Term {
    foaf::person_iri(i)
}

fn knows() -> Term {
    Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS)
}

/// An overlay where storage node `i` holds `counts[i]` triples matching
/// `(?x, knows, target)` — full control over provider skew.
fn skewed_overlay(counts: &[usize]) -> (Overlay, NodeId) {
    let net = Network::new(LatencyModel::Uniform(SimTime::millis(1)), 12.5);
    let mut overlay = Overlay::new(32, 4, 2, net);
    let ix = NodeId(1000);
    for i in 0..4u64 {
        let addr = NodeId(1000 + i);
        let pos = overlay.ring().space().hash(&addr.0.to_be_bytes());
        overlay.add_index_node(addr, pos).unwrap();
    }
    let target = person(9999);
    let mut next_person = 0;
    for (i, &count) in counts.iter().enumerate() {
        let triples: Vec<Triple> = (0..count)
            .map(|_| {
                next_person += 1;
                Triple::new(person(next_person), knows(), target.clone())
            })
            .collect();
        overlay
            .add_storage_node(NodeId(1 + i as u64), NodeId(1000 + (i as u64 % 4)), triples)
            .unwrap();
    }
    (overlay, ix)
}

fn run(overlay: &mut Overlay, cfg: ExecConfig, query: &str) -> QueryStats {
    run_from(overlay, NodeId(1000), cfg, query)
}

fn run_from(overlay: &mut Overlay, initiator: NodeId, cfg: ExecConfig, query: &str) -> QueryStats {
    overlay.net.reset();
    Engine::new(overlay, cfg).execute(initiator, query).unwrap().stats
}

/// An index node that does NOT own the query pattern's key, so the
/// assembly site differs from the initiator (the paper's N1-vs-N7
/// situation in Sect. IV-C).
fn non_owner_initiator(overlay: &Overlay) -> NodeId {
    use rdfmesh_rdf::{TermPattern, TriplePattern};
    let pat = TriplePattern::new(
        TermPattern::var("x"),
        knows(),
        person(9999),
    );
    let located = overlay
        .locate(NodeId(1000), &pat, SimTime::ZERO)
        .unwrap()
        .unwrap();
    overlay
        .index_nodes()
        .into_iter()
        .find(|&ix| ix != located.index_node)
        .expect("more than one index node")
}

const TARGET_QUERY: &str =
    "SELECT ?x WHERE { ?x foaf:knows <http://example.org/people/p9999> . }";

#[test]
fn basic_minimizes_response_time_chained_pays_latency() {
    // Sect. V: "the basic query processing … trades transmission costs
    // for a low response time".
    let (mut overlay, _) = skewed_overlay(&[20, 20, 20, 20]);
    let basic = run(&mut overlay, ExecConfig { primitive: PrimitiveStrategy::Basic, ..ExecConfig::default() }, TARGET_QUERY);
    let chained = run(&mut overlay, ExecConfig { primitive: PrimitiveStrategy::Chained, ..ExecConfig::default() }, TARGET_QUERY);
    assert!(
        basic.response_time < chained.response_time,
        "parallel fan-out ({}) must beat the sequential chain ({})",
        basic.response_time,
        chained.response_time
    );
}

#[test]
fn frequency_ordering_minimizes_bytes_under_skew() {
    // Sect. IV-C further optimization: ascending-frequency chains keep
    // the largest contribution off the wire until the final hop.
    let (mut overlay, _) = skewed_overlay(&[200, 5, 5, 5]);
    let initiator = non_owner_initiator(&overlay);
    let basic = run_from(&mut overlay, initiator, ExecConfig { primitive: PrimitiveStrategy::Basic, ..ExecConfig::default() }, TARGET_QUERY);
    let freq = run_from(&mut overlay, initiator, ExecConfig { primitive: PrimitiveStrategy::FrequencyOrdered, ..ExecConfig::default() }, TARGET_QUERY);
    assert!(
        freq.total_bytes < basic.total_bytes,
        "freq-ordered {} bytes must undercut basic {} bytes when one provider dominates",
        freq.total_bytes,
        basic.total_bytes
    );
    // And the trade-off: it is slower.
    assert!(freq.response_time >= basic.response_time);
}

#[test]
fn frequency_ordering_beats_arbitrary_chain_order_under_skew() {
    // The big provider must sort last; an id-ordered chain that visits it
    // early re-ships its large contribution on every later hop.
    // Storage node 1 (lowest address, visited first by Chained) is the
    // heavy one.
    let (mut overlay, _) = skewed_overlay(&[300, 4, 4, 4]);
    let chained = run(&mut overlay, ExecConfig { primitive: PrimitiveStrategy::Chained, ..ExecConfig::default() }, TARGET_QUERY);
    let freq = run(&mut overlay, ExecConfig { primitive: PrimitiveStrategy::FrequencyOrdered, ..ExecConfig::default() }, TARGET_QUERY);
    assert!(
        freq.total_bytes < chained.total_bytes,
        "freq {} vs chained {}",
        freq.total_bytes,
        chained.total_bytes
    );
}

#[test]
fn filter_pushing_reduces_intermediate_transfer() {
    // Sect. IV-G: pushing a selective filter to the data sources shrinks
    // what crosses the network.
    let data = foaf::generate(&FoafConfig { persons: 120, peers: 8, ..Default::default() });
    let build = || {
        let net = Network::new(LatencyModel::Uniform(SimTime::millis(1)), 12.5);
        let mut overlay = Overlay::new(32, 4, 2, net);
        for i in 0..4u64 {
            let addr = NodeId(1000 + i);
            let pos = overlay.ring().space().hash(&addr.0.to_be_bytes());
            overlay.add_index_node(addr, pos).unwrap();
        }
        for (i, t) in data.peers.iter().enumerate() {
            overlay
                .add_storage_node(NodeId(1 + i as u64), NodeId(1000 + (i as u64 % 4)), t.clone())
                .unwrap();
        }
        overlay
    };
    let q = "SELECT ?x ?y WHERE { ?x foaf:name ?n . ?x foaf:knows ?y . FILTER regex(?n, \"Smith\") }";
    let mut with = build();
    let pushed = run(&mut with, ExecConfig::default(), q);
    let mut without = build();
    let cfg = ExecConfig {
        optimizer: OptimizerConfig { push_filters: false, ..OptimizerConfig::default() },
        ..ExecConfig::default()
    };
    let unpushed = run(&mut without, cfg, q);
    assert!(
        pushed.total_bytes < unpushed.total_bytes,
        "pushed {} vs unpushed {}",
        pushed.total_bytes,
        unpushed.total_bytes
    );
}

#[test]
fn move_small_beats_query_site_for_optional() {
    // Sect. IV-E adopts move-small for OPTIONAL evaluation.
    let data = foaf::generate(&FoafConfig {
        persons: 100,
        peers: 6,
        nick_probability: 0.1,
        ..Default::default()
    });
    let net = Network::new(LatencyModel::Uniform(SimTime::millis(1)), 12.5);
    let mut overlay = Overlay::new(32, 4, 2, net);
    for i in 0..4u64 {
        let addr = NodeId(1000 + i);
        let pos = overlay.ring().space().hash(&addr.0.to_be_bytes());
        overlay.add_index_node(addr, pos).unwrap();
    }
    for (i, t) in data.peers.iter().enumerate() {
        overlay
            .add_storage_node(NodeId(1 + i as u64), NodeId(1000 + (i as u64 % 4)), t.clone())
            .unwrap();
    }
    let q = "SELECT * WHERE { ?x foaf:knows ?y . OPTIONAL { ?y foaf:nick ?n . } }";
    let ms = run(&mut overlay, ExecConfig { join_site: JoinSiteStrategy::MoveSmall, ..ExecConfig::default() }, q);
    let qs = run(&mut overlay, ExecConfig { join_site: JoinSiteStrategy::QuerySite, ..ExecConfig::default() }, q);
    assert!(
        ms.total_bytes <= qs.total_bytes,
        "move-small {} vs query-site {}",
        ms.total_bytes,
        qs.total_bytes
    );
}

#[test]
fn dead_storage_node_times_out_then_is_purged() {
    let (mut overlay, _) = skewed_overlay(&[10, 10, 10, 10]);
    overlay.fail_storage_node(NodeId(2)).unwrap();

    let first = run(&mut overlay, ExecConfig::default(), TARGET_QUERY);
    assert_eq!(first.dead_providers, 1, "the failed node must be detected once");
    // The survivors' 30 matches still arrive.
    assert_eq!(first.result_size, 30);

    // After the purge, the next query no longer contacts the dead node.
    let second = run(&mut overlay, ExecConfig::default(), TARGET_QUERY);
    assert_eq!(second.dead_providers, 0);
    assert_eq!(second.result_size, 30);
    assert!(second.response_time < first.response_time, "no more ack timeout");
}

#[test]
fn index_failure_with_replication_keeps_answers_complete() {
    let (mut overlay, _) = skewed_overlay(&[10, 10, 10, 10]);
    let before = run(&mut overlay, ExecConfig::default(), TARGET_QUERY);
    // Fail an index node that is NOT the initiator.
    overlay.fail_index_node(NodeId(1003)).unwrap();
    overlay.repair();
    let after = run(&mut overlay, ExecConfig::default(), TARGET_QUERY);
    assert_eq!(before.result_size, after.result_size, "replication must preserve the index");
}

#[test]
fn ack_timeout_hurts_response_time() {
    let (mut overlay, _) = skewed_overlay(&[10, 10, 10, 10]);
    let healthy = run(&mut overlay, ExecConfig::default(), TARGET_QUERY);
    overlay.fail_storage_node(NodeId(3)).unwrap();
    let degraded = run(&mut overlay, ExecConfig::default(), TARGET_QUERY);
    assert!(degraded.response_time > healthy.response_time);
}

#[test]
fn third_site_never_worse_than_query_site_in_response_time() {
    // Third-site picks the cheapest of {left, right, initiator}, counting
    // the answer's trip home, so it can only tie or beat always joining
    // at home: with uniform latencies, and with the initiator behind a
    // slow link (E9's network), where joining at an operand's site still
    // pays that link once for the answer.
    let data = foaf::generate(&FoafConfig { persons: 80, peers: 6, ..Default::default() });
    let net = Network::new(LatencyModel::Uniform(SimTime::millis(2)), 12.5);
    let mut overlay = Overlay::new(32, 4, 2, net);
    for i in 0..4u64 {
        let addr = NodeId(1000 + i);
        let pos = overlay.ring().space().hash(&addr.0.to_be_bytes());
        overlay.add_index_node(addr, pos).unwrap();
    }
    for (i, t) in data.peers.iter().enumerate() {
        overlay
            .add_storage_node(NodeId(1 + i as u64), NodeId(1000 + (i as u64 % 4)), t.clone())
            .unwrap();
    }
    let q = "SELECT * WHERE { ?x foaf:knows ?y . ?y foaf:knows ?z . }";
    let ts = run(&mut overlay, ExecConfig { join_site: JoinSiteStrategy::ThirdSite, ..ExecConfig::default() }, q);
    let qs = run(&mut overlay, ExecConfig { join_site: JoinSiteStrategy::QuerySite, ..ExecConfig::default() }, q);
    assert!(ts.response_time <= qs.response_time, "third-site {} vs query-site {}", ts.response_time, qs.response_time);

    // E9: ten peers, six index nodes, every link touching the initiator
    // slow, the rest of the mesh at 1 ms; a selective knows ⋈ nick join.
    let data = foaf::generate(&FoafConfig {
        persons: 200,
        peers: 10,
        knows_degree: 4,
        nick_probability: 0.05,
        ..Default::default()
    });
    let initiator = NodeId(100_000);
    for penalty in [1, 5, 20, 80] {
        let mut links = std::collections::HashMap::new();
        for other in 0..64u64 {
            links.insert((initiator, NodeId(other)), SimTime::millis(penalty));
            links.insert((initiator, NodeId(initiator.0 + other)), SimTime::millis(penalty));
        }
        let net = Network::new(LatencyModel::PerLink { default: SimTime::millis(1), links }, 12.5);
        let mut overlay = Overlay::new(32, 4, 2, net);
        for i in 0..6u64 {
            let addr = NodeId(initiator.0 + i);
            let pos = overlay.ring().space().hash(&addr.0.to_be_bytes());
            overlay.add_index_node(addr, pos).unwrap();
        }
        for (i, t) in data.peers.iter().enumerate() {
            let attach = NodeId(initiator.0 + i as u64 % 6);
            overlay.add_storage_node(NodeId(1 + i as u64), attach, t.clone()).unwrap();
        }
        let q = "SELECT * WHERE { ?x foaf:knows ?y . ?x foaf:nick ?v . }";
        let cfg = |join_site| ExecConfig {
            join_site,
            primitive: PrimitiveStrategy::Basic,
            overlap_aware: false,
            ..ExecConfig::default()
        };
        let ts = run_from(&mut overlay, initiator, cfg(JoinSiteStrategy::ThirdSite), q);
        let qs = run_from(&mut overlay, initiator, cfg(JoinSiteStrategy::QuerySite), q);
        assert!(
            ts.response_time <= qs.response_time,
            "{penalty} ms initiator link: third-site {} vs query-site {}",
            ts.response_time,
            qs.response_time
        );
    }
}

#[test]
fn stats_fields_are_populated() {
    let (mut overlay, _) = skewed_overlay(&[5, 5, 5, 5]);
    let stats = run(&mut overlay, ExecConfig::default(), TARGET_QUERY);
    assert!(stats.total_bytes > 0);
    assert!(stats.messages > 0);
    assert_eq!(stats.providers_contacted, 4);
    assert_eq!(stats.result_size, 20);
    assert!(stats.response_time > SimTime::ZERO);
    assert!(stats.intermediate_solutions >= 20);
}

#[test]
fn ask_fast_path_stops_at_first_witness() {
    let (mut overlay, _) = skewed_overlay(&[50, 50, 50, 50]);
    let ask = "ASK { ?x foaf:knows <http://example.org/people/p9999> . }";
    let stats = run(&mut overlay, ExecConfig::default(), ask);
    assert_eq!(stats.result_size, 1, "the answer is true");
    assert_eq!(stats.providers_contacted, 1, "one witness suffices");
    // A SELECT over the same pattern contacts everyone.
    let select = run(&mut overlay, ExecConfig::default(), TARGET_QUERY);
    assert_eq!(select.providers_contacted, 4);
    assert!(stats.total_bytes < select.total_bytes);
}

#[test]
fn ask_fast_path_negative_probes_everyone() {
    let (mut overlay, _) = skewed_overlay(&[5, 5, 5, 5]);
    let ask = "ASK { ?x foaf:knows <http://example.org/people/p0> . }";
    let stats = run(&mut overlay, ExecConfig::default(), ask);
    assert_eq!(stats.result_size, 0, "nobody knows p0");
    assert_eq!(stats.providers_contacted, 0, "no providers for an unindexed key");
    // A key with providers but a filtered-out answer probes all of them.
    let ask = "ASK { ?x foaf:knows <http://example.org/people/p9999> . FILTER(false) }";
    let stats = run(&mut overlay, ExecConfig::default(), ask);
    assert_eq!(stats.result_size, 0);
}

#[test]
fn ask_agrees_with_oracle_under_failures() {
    let (mut overlay, _) = skewed_overlay(&[5, 5, 5, 5]);
    overlay.fail_storage_node(NodeId(1)).unwrap();
    let ask = "ASK { ?x foaf:knows <http://example.org/people/p9999> . }";
    let stats = run(&mut overlay, ExecConfig::default(), ask);
    assert_eq!(stats.result_size, 1, "survivors still witness");
}

/// The planner's statistics pass is the query's: an objective run reads
/// each row once and hands it to the join orderer, so it costs exactly
/// what the fixed strategy it picked costs on the same overlay.
#[test]
fn an_objective_run_costs_what_its_pick_costs() {
    use rdfmesh_core::PlanObjective;
    for counts in [[20, 20, 20, 20], [200, 5, 5, 5]] {
        for objective in [
            PlanObjective::MinBytes,
            PlanObjective::MinResponseTime,
            PlanObjective::Balanced(0.5),
        ] {
            let (mut overlay, ix) = skewed_overlay(&counts);
            let (planned, plan) = Engine::new(&mut overlay, ExecConfig::default())
                .execute_with_objective(ix, TARGET_QUERY, objective)
                .unwrap();
            let (mut overlay, ix) = skewed_overlay(&counts);
            let fixed = run_from(&mut overlay, ix, plan.config, TARGET_QUERY);
            assert_eq!(planned.stats, fixed, "{counts:?} {objective:?}: {}", plan.config.primitive);
        }
    }
}

/// The flood ships the filter with its sub-query, to every index node and
/// on to every storage node, and charges it: a longer filter that removes
/// nothing costs more bytes for the same answer.
#[test]
fn a_flooded_filter_is_charged_as_shipped() {
    let absent = |i: usize| format!("?o != <http://example.org/absent/{i}>");
    let query = |conjuncts: usize| {
        let filter: Vec<String> = (0..conjuncts).map(absent).collect();
        format!("SELECT * WHERE {{ ?s ?p ?o . FILTER({}) }}", filter.join(" && "))
    };
    let (mut overlay, ix) = skewed_overlay(&[3, 2, 2, 1]);
    let mut shorter = None;
    for conjuncts in 1..=3 {
        let exec = run_from(&mut overlay, ix, ExecConfig::default(), &query(conjuncts));
        assert_eq!(exec.result_size, 8, "the filter removes nothing");
        if let Some(bytes) = shorter {
            assert!(exec.total_bytes > bytes, "{conjuncts} conjuncts: {exec}");
        }
        shorter = Some(exec.total_bytes);
    }
}
