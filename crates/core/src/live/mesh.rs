//! The in-process host: every role of an [`Overlay`]'s placement on one
//! [`Host`], over channels or over loopback sockets. Its index tables
//! fill as a serve process's do: each storage node publishes its keys to
//! their owners ([`LiveMsg::Publish`]).

use std::time::Duration;

use rdfmesh_net::{FaultPlan, NodeId, TransportSnapshot};
use rdfmesh_overlay::{Overlay, Provider};
use rdfmesh_rdf::TriplePattern;

use super::host::{Host, Placement, Wire};
use super::{index_keys, LiveMsg, RoundClient};
use crate::config::LiveConfig;

/// Which wire carries a [`LiveMesh`]'s protocol messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// Crossbeam channels between threads in one process — the original
    /// live mesh.
    Threads,
    /// Framed TCP over loopback: every inter-node message crosses a real
    /// socket through the process's own listener, exercising the
    /// `docs/DEPLOYMENT.md` wire protocol end to end while the
    /// [`FaultPlan`] keeps its sender-side semantics.
    Sockets,
}

/// How long [`LiveMesh::spawn_with_transport`] waits for an index node to
/// file the publications addressed to it.
const PUBLISH_WAIT: Duration = Duration::from_secs(30);

/// A live mesh: one thread per node, built from an existing overlay's
/// data placement. Queries go through the [`RoundClient`] it
/// dereferences to.
pub struct LiveMesh {
    host: Host,
}

impl std::ops::Deref for LiveMesh {
    type Target = RoundClient;

    fn deref(&self) -> &RoundClient {
        &self.host.client
    }
}

/// The coordinator's well-known address in the live mesh.
pub const COORDINATOR: NodeId = NodeId(u64::MAX);

impl LiveMesh {
    /// Spawns node threads mirroring `overlay`'s index placement and
    /// storage contents, with default timeouts and no planned faults.
    pub fn spawn(overlay: &Overlay) -> Self {
        Self::spawn_with(overlay, LiveConfig::default(), FaultPlan::new())
    }

    /// [`LiveMesh::spawn`] with explicit fault-tolerance configuration
    /// and a [`FaultPlan`] to exercise it. The live index is one thread
    /// per index node, each owning the keys its ring position covers, as
    /// in the overlay; one-shot routing over the shared ring view stands
    /// in for the finger walk (ring routing is already exercised by the
    /// simulator; the live mesh demonstrates the messaging).
    pub fn spawn_with(overlay: &Overlay, cfg: LiveConfig, plan: FaultPlan) -> Self {
        Self::spawn_with_transport(overlay, cfg, plan, Transport::Threads)
            .expect("the channel wire binds nothing and publishes in-process")
    }

    /// [`LiveMesh::spawn_with`] on an explicit [`Transport`]. Every
    /// storage node publishes its keys to their owners before this
    /// returns (a barrier on every index node), so the rows are in place
    /// for the first query. Only [`Transport::Sockets`] can fail (binding
    /// the loopback listener, or a publication that never arrives); the
    /// protocol, fault semantics and observable counters are identical
    /// on both wires. A node the plan crashes from the start discards
    /// what is published to it, as it would any delivery.
    pub fn spawn_with_transport(
        overlay: &Overlay,
        cfg: LiveConfig,
        plan: FaultPlan,
        transport: Transport,
    ) -> std::io::Result<Self> {
        let (space, index) = (overlay.ring().space(), overlay.index_nodes());
        assert!(!index.is_empty(), "live mesh needs an index node");
        let ring = index.iter().filter_map(|&ix| overlay.chord_id_of(ix).map(|id| (id.0, ix)));
        let storage = overlay.storage_nodes().into_iter();
        let storage: Vec<_> =
            storage.map(|s| (s, overlay.storage_node(s).expect("listed").store.clone())).collect();
        let placement = Placement {
            space,
            ring: ring.collect(),
            index: index.clone(),
            storage: storage.clone(),
            coordinator: (COORDINATOR, index[0]),
        };
        let host = Host::start(placement, cfg, Wire::Local(transport, plan))?;
        for (id, store) in &storage {
            host.publish(*id, &index_keys(space, store));
        }
        if !index.iter().all(|&ix| host.cluster.barrier(ix, PUBLISH_WAIT)) {
            let err = "an index node never filed its publications";
            return Err(std::io::Error::new(std::io::ErrorKind::TimedOut, err));
        }
        Ok(LiveMesh { host })
    }

    /// Test-harness facility: delivers a hand-crafted protocol message as
    /// if `from` had sent it, bypassing link faults (see
    /// [`Cluster::inject`]). Fault tests use it to forge late replies
    /// from earlier queries.
    ///
    /// [`Cluster::inject`]: rdfmesh_net::Cluster::inject
    pub fn inject(&self, from: NodeId, to: NodeId, msg: LiveMsg) {
        self.host.cluster.inject(from, to, msg);
    }

    /// Crashes `node` at runtime: it stops answering and sends to it fail
    /// fast. See [`Cluster::crash`](rdfmesh_net::Cluster::crash).
    pub fn crash(&self, node: NodeId) -> bool {
        self.host.cluster.crash(node)
    }

    /// Restarts a crashed `node` with its state intact. Its purged
    /// location-table entries stay purged until it republishes — exactly
    /// the paper's rejoin behaviour. See
    /// [`Cluster::restart`](rdfmesh_net::Cluster::restart).
    pub fn restart(&self, node: NodeId) -> bool {
        self.host.cluster.restart(node)
    }

    /// Blocks until `node` has processed everything delivered to it
    /// before this call — the deterministic fence the fault tests use
    /// instead of sleeping. See
    /// [`Cluster::barrier`](rdfmesh_net::Cluster::barrier).
    pub fn barrier(&self, node: NodeId, timeout: Duration) -> bool {
        self.host.cluster.barrier(node, timeout)
    }

    /// The owner index node's current location-table row for `pattern`,
    /// sorted by node — the observable target of publication and of the
    /// lazy removal protocol.
    pub fn providers_of(&self, pattern: &TriplePattern) -> Vec<Provider> {
        self.host.providers_of(pattern)
    }

    /// Messages delivered so far (across all threads), the start-up
    /// publications included.
    pub fn message_count(&self) -> u64 {
        self.host.cluster.message_count()
    }

    /// Messages lost so far to the fault plan or crashed nodes.
    pub fn dropped_count(&self) -> u64 {
        self.host.cluster.dropped_count()
    }

    /// Socket-layer counters (`transport.*` metric names), or `None` on
    /// [`Transport::Threads`] where no socket exists.
    pub fn transport_stats(&self) -> Option<TransportSnapshot> {
        self.host.transport_stats()
    }

    /// Stops every node thread.
    pub fn shutdown(&self) {
        self.host.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use crate::live::{QueryId, RoundHandle};
    use rdfmesh_net::{LatencyModel, Network, SimTime};
    use rdfmesh_rdf::{Term, TermPattern, Triple};
    use rdfmesh_sparql::solution::Solution;

    fn overlay() -> Overlay {
        let net = Network::new(LatencyModel::Uniform(SimTime::millis(1)), 12.5);
        let mut o = Overlay::new(32, 4, 2, net);
        for i in 0..3u64 {
            let addr = NodeId(1000 + i);
            let pos = o.ring().space().hash(&addr.0.to_be_bytes());
            o.add_index_node(addr, pos).unwrap();
        }
        let person = |n: &str| Term::iri(&format!("http://example.org/{n}"));
        let knows = Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS);
        o.add_storage_node(
            NodeId(1),
            NodeId(1000),
            vec![
                Triple::new(person("alice"), knows.clone(), person("bob")),
                Triple::new(person("alice"), knows.clone(), person("carol")),
            ],
        )
        .unwrap();
        o.add_storage_node(
            NodeId(2),
            NodeId(1001),
            vec![Triple::new(person("dave"), knows, person("bob"))],
        )
        .unwrap();
        o
    }

    fn knows_pattern(target: &str) -> TriplePattern {
        TriplePattern::new(
            TermPattern::var("x"),
            Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS),
            Term::iri(&format!("http://example.org/{target}")),
        )
    }

    #[test]
    fn live_query_matches_simulated_results() {
        let o = overlay();
        let mesh = LiveMesh::spawn(&o);
        let pattern = knows_pattern("bob");
        let live = mesh
            .query_solutions(pattern.clone(), None, None, Duration::from_secs(10))
            .expect("no timeout");
        assert!(live.complete);
        assert!(live.failed_providers.is_empty());
        assert_eq!(live.solutions.len(), 2);
        // Oracle agreement: the central store's matches, as bindings.
        let mut expected: Vec<Solution> = crate::engine::global_store(&o)
            .match_pattern(&pattern)
            .iter()
            .filter_map(|t| rdfmesh_sparql::eval::extend(&pattern, t, &Solution::new()))
            .collect();
        let mut got = live.solutions.to_solutions();
        expected.sort();
        got.sort();
        assert_eq!(got, expected);
        // Protocol shape: 1 lookup + 1 providers + k subqueries + k answers.
        assert!(mesh.message_count() >= 4);
        mesh.shutdown();
    }

    #[test]
    fn live_query_empty_when_no_providers() {
        let o = overlay();
        let mesh = LiveMesh::spawn(&o);
        let pattern = TriplePattern::new(
            TermPattern::var("x"),
            Term::iri("http://example.org/never-used"),
            TermPattern::var("y"),
        );
        let live =
            mesh.query_solutions(pattern, None, None, Duration::from_secs(10)).expect("no timeout");
        assert!(live.complete);
        assert!(live.solutions.is_empty());
        mesh.shutdown();
    }

    #[test]
    fn sequential_queries_reuse_the_mesh() {
        let o = overlay();
        let mesh = LiveMesh::spawn(&o);
        for (target, expect) in [("bob", 2), ("carol", 1), ("nobody", 0)] {
            let live = mesh
                .query_solutions(knows_pattern(target), None, None, Duration::from_secs(10))
                .expect("no timeout");
            assert!(live.complete, "target {target}");
            assert_eq!(live.solutions.len(), expect, "target {target}");
        }
        mesh.shutdown();
    }

    #[test]
    fn concurrent_submissions_answer_independently() {
        // The non-blocking path end-to-end: many rounds in flight at
        // once through one coordinator, each answer routed back to its
        // own handle.
        let o = overlay();
        let mesh = Arc::new(LiveMesh::spawn(&o));
        let handles: Vec<(usize, RoundHandle)> = (0..12)
            .map(|i| {
                let target = ["bob", "carol", "nobody"][i % 3];
                (i % 3, mesh.submit_solutions(knows_pattern(target), None, None))
            })
            .collect();
        for (kind, handle) in handles {
            let answer = handle.wait(Duration::from_secs(10)).expect("no timeout");
            assert!(answer.complete);
            let expect = [2, 1, 0][kind];
            assert_eq!(answer.solutions.len(), expect, "target kind {kind}");
        }
        mesh.shutdown();
    }

    #[test]
    fn forged_deadlines_cannot_cut_a_waiting_round_short() {
        use crate::live_wire::wire_v4;
        // The sub-query to storage node 2 dawdles on its link, well
        // inside the ack timeout: the round is in flight, awaiting that
        // one reply, while the forged frames arrive.
        let o = overlay();
        let cfg = LiveConfig {
            ack_timeout: Duration::from_secs(5),
            query_deadline: Duration::from_secs(20),
            ..LiveConfig::default()
        };
        let plan = FaultPlan::new().delay(COORDINATOR, NodeId(2), Duration::from_millis(300));
        let mesh = LiveMesh::spawn_with_transport(&o, cfg, plan, Transport::Sockets).unwrap();
        let round = mesh.submit_solutions(knows_pattern("bob"), None, None);
        // Any peer can finish the handshake, and query ids count up from
        // 1: as wire version 4 laid it out, "your round N is overdue".
        let forged: Vec<_> = (1..=8).map(|qid| wire_v4::deadline_overall(QueryId(qid))).collect();
        let listener = mesh.host.cluster.local_addr().expect("spawned on sockets");
        let _peer = wire_v4::forge_at(listener, COORDINATOR, &forged);
        let answer = round.wait(Duration::from_secs(30)).expect("no timeout");
        assert!(answer.complete, "cut short, missing {:?}", answer.failed_providers);
        assert_eq!(answer.solutions.len(), 2, "the oracle's rows, as in the unforged run above");
        assert_eq!(mesh.stats().incomplete_queries, 0);
        // Every forged frame was refused where it was decoded.
        let refused = std::time::Instant::now() + Duration::from_secs(10);
        while mesh.transport_stats().expect("sockets").decode_errors < 8 {
            assert!(std::time::Instant::now() < refused, "{:?}", mesh.transport_stats());
            std::thread::sleep(Duration::from_millis(5));
        }
        mesh.shutdown();
    }
}
