//! A host's protocol counters are its own: the simulator's role runner
//! counts a bind step or a multiway round into a fresh `LiveStats`, and
//! nothing of it reaches the process-wide registry under the mesh's
//! `live.*` / `exec.strategy.*` names. Alone in its binary, because it
//! reads the global registry.

use rdfmesh_core::{DistChoice, Engine, ExecConfig, LiveStatsSnapshot};
use rdfmesh_net::{LatencyModel, Network, NodeId, SimTime};
use rdfmesh_overlay::Overlay;
use rdfmesh_workload::{foaf, FoafConfig};

fn build_overlay() -> Overlay {
    let data = foaf::generate(&FoafConfig { persons: 30, peers: 5, ..FoafConfig::default() });
    let net = Network::new(LatencyModel::Uniform(SimTime::millis(1)), 12.5);
    let mut overlay = Overlay::new(32, 4, 2, net);
    for i in 0..4 {
        let addr = NodeId(1000 + i);
        let pos = overlay.ring().space().hash(&addr.0.to_be_bytes());
        overlay.add_index_node(addr, pos).unwrap();
    }
    for (i, triples) in data.peers.iter().enumerate() {
        let attach = NodeId(1000 + i as u64 % 4);
        overlay.add_storage_node(NodeId(1 + i as u64), attach, triples.clone()).unwrap();
    }
    overlay
}

#[test]
fn simulated_role_rounds_leave_no_live_counter_in_the_registry() {
    let star = "SELECT * WHERE { ?x foaf:mbox ?m . ?x foaf:name ?n . }";
    let mut overlay = build_overlay();
    let metrics = rdfmesh_obs::metrics();
    metrics.reset();
    metrics.enable();
    for cfg in [
        ExecConfig { bind_join: true, ..ExecConfig::default() },
        ExecConfig { dist: DistChoice::HyperCube, ..ExecConfig::default() },
        ExecConfig { dist: DistChoice::PartialEval, ..ExecConfig::default() },
    ] {
        let exec = Engine::new(&mut overlay, cfg).execute(NodeId(1000), star).unwrap();
        assert!(!exec.result.is_empty(), "{cfg:?} answered nothing");
        assert!(exec.stats.intermediate_solutions > 0, "{cfg:?} shipped no rows");
    }
    metrics.disable();
    let counters = metrics.snapshot().counters;
    assert_eq!(counters.get("engine.queries"), Some(&3), "the registry was recording");
    let hosts: Vec<&str> = LiveStatsSnapshot::default().named().iter().map(|(n, _)| *n).collect();
    let leaked: Vec<&String> = counters.keys().filter(|name| hosts.contains(&name.as_str())).collect();
    assert!(leaked.is_empty(), "simulated rounds counted as mesh traffic: {leaked:?}");
}
