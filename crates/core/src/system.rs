//! A high-level facade over the whole stack.
//!
//! [`SharingSystem`] is the API a downstream user starts with: build an
//! ad-hoc data sharing network, let peers share their triples, submit
//! SPARQL queries from any node, and read both the answers and what they
//! cost. Everything the examples and most experiments do goes through
//! this type.

use rdfmesh_cache::{CacheConfig, QueryCache};
use rdfmesh_net::{LatencyModel, Network, NodeId, SimTime};
use rdfmesh_overlay::{Overlay, OverlayError, PublishReport};
use rdfmesh_rdf::Triple;

use crate::config::ExecConfig;
use crate::engine::{Engine, EngineError, Execution};

/// Builder for a [`SharingSystem`].
#[derive(Debug)]
pub struct SystemBuilder {
    bits: u32,
    successor_list_len: usize,
    replication: usize,
    latency: LatencyModel,
    bytes_per_micro: f64,
    config: ExecConfig,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder {
            bits: 32,
            successor_list_len: 4,
            replication: 2,
            latency: LatencyModel::Uniform(SimTime::millis(1)),
            bytes_per_micro: 12.5,
            config: ExecConfig::default(),
        }
    }
}

impl SystemBuilder {
    /// Starts from the defaults (32-bit ring, 4-entry successor lists,
    /// replication 2, 1 ms LAN, default strategies).
    pub fn new() -> Self {
        Self::default()
    }

    /// Ring identifier width in bits.
    pub fn bits(mut self, bits: u32) -> Self {
        self.bits = bits;
        self
    }

    /// Successor-list length (failure resilience).
    pub fn successor_list(mut self, len: usize) -> Self {
        self.successor_list_len = len;
        self
    }

    /// Copies of every location-table row (primary + replicas).
    pub fn replication(mut self, copies: usize) -> Self {
        self.replication = copies;
        self
    }

    /// The link latency model.
    pub fn latency(mut self, model: LatencyModel) -> Self {
        self.latency = model;
        self
    }

    /// Link bandwidth in bytes per microsecond.
    pub fn bandwidth(mut self, bytes_per_micro: f64) -> Self {
        self.bytes_per_micro = bytes_per_micro;
        self
    }

    /// Query-processing strategies.
    pub fn config(mut self, config: ExecConfig) -> Self {
        self.config = config;
        self
    }

    /// Builds the (empty) system.
    pub fn build(self) -> SharingSystem {
        let net = Network::new(self.latency, self.bytes_per_micro);
        SharingSystem {
            overlay: Overlay::new(self.bits, self.successor_list_len, self.replication, net),
            config: self.config,
            next_addr: 1,
            cache: None,
        }
    }
}

/// An ad-hoc Semantic Web data sharing system: the hybrid overlay plus a
/// query engine configuration.
#[derive(Debug)]
pub struct SharingSystem {
    overlay: Overlay,
    config: ExecConfig,
    next_addr: u64,
    cache: Option<QueryCache>,
}

impl SharingSystem {
    /// A system with all defaults (see [`SystemBuilder`]).
    pub fn new() -> Self {
        SystemBuilder::new().build()
    }

    /// Starts configuring a system.
    pub fn builder() -> SystemBuilder {
        SystemBuilder::new()
    }

    /// Direct access to the overlay (topology inspection, churn).
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// Mutable overlay access (churn experiments).
    pub fn overlay_mut(&mut self) -> &mut Overlay {
        &mut self.overlay
    }

    /// The active engine configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.config
    }

    /// Attaches a query-path cache stack: subsequent [`Self::query`] /
    /// [`Self::query_with`] calls consult the routing, provider-set and
    /// result caches — all three, each sized by `cfg` — and fill them as
    /// they execute.
    pub fn enable_cache(&mut self, cfg: CacheConfig) {
        self.cache = Some(QueryCache::new(cfg));
    }

    /// Detaches the cache, restoring exactly-uncached execution.
    pub fn disable_cache(&mut self) {
        self.cache = None;
    }

    /// The attached cache's hit/miss statistics, if one is attached.
    pub fn cache_stats(&self) -> Option<rdfmesh_cache::CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    fn fresh_addr(&mut self) -> NodeId {
        let addr = NodeId(self.next_addr);
        self.next_addr += 1;
        addr
    }

    /// Adds an index node at an automatically assigned address, placed on
    /// the ring by hashing the address (the usual Chord practice).
    pub fn add_index_node(&mut self) -> Result<NodeId, OverlayError> {
        let addr = self.fresh_addr();
        let id = self.overlay.ring().space().hash(&addr.0.to_be_bytes());
        self.overlay.add_index_node(addr, id)?;
        Ok(addr)
    }

    /// Adds a storage node sharing `triples`, attached to the index node
    /// with the fewest attachments (simple balancing); returns its
    /// address and the publication report.
    pub fn add_peer(
        &mut self,
        triples: impl IntoIterator<Item = Triple>,
    ) -> Result<(NodeId, PublishReport), OverlayError> {
        let index_nodes = self.overlay.index_nodes();
        if index_nodes.is_empty() {
            return Err(OverlayError::NoIndexNodes);
        }
        // Pick the index node with the fewest attached storage nodes.
        let mut counts: Vec<(usize, NodeId)> = index_nodes
            .iter()
            .map(|&ix| {
                let id = self.overlay.chord_id_of(ix).expect("index node");
                let count = self
                    .overlay
                    .storage_nodes()
                    .iter()
                    .filter(|&&s| {
                        self.overlay.storage_node(s).map(|n| n.attached_to) == Some(id)
                    })
                    .count();
                (count, ix)
            })
            .collect();
        counts.sort();
        let attach = counts[0].1;
        self.add_peer_attached(attach, triples)
    }

    /// Adds a storage node attached to a specific index node.
    pub fn add_peer_attached(
        &mut self,
        attach: NodeId,
        triples: impl IntoIterator<Item = Triple>,
    ) -> Result<(NodeId, PublishReport), OverlayError> {
        let addr = self.fresh_addr();
        let report = self.overlay.add_storage_node(addr, attach, triples)?;
        Ok((addr, report))
    }

    /// Adds a storage node whose dataset is published under a graph IRI,
    /// addressable by `FROM <iri>` clauses.
    pub fn add_peer_with_graph(
        &mut self,
        graph: rdfmesh_rdf::Iri,
        triples: impl IntoIterator<Item = Triple>,
    ) -> Result<(NodeId, PublishReport), OverlayError> {
        let index_nodes = self.overlay.index_nodes();
        if index_nodes.is_empty() {
            return Err(OverlayError::NoIndexNodes);
        }
        let attach = index_nodes[(self.next_addr as usize) % index_nodes.len()];
        let addr = self.fresh_addr();
        let report =
            self.overlay.add_storage_node_with_graph(addr, attach, triples, Some(graph))?;
        Ok((addr, report))
    }

    /// Lets a peer share additional triples (incremental index update).
    pub fn share_more(
        &mut self,
        peer: NodeId,
        triples: impl IntoIterator<Item = Triple>,
    ) -> Result<PublishReport, OverlayError> {
        self.overlay.add_triples(peer, triples)
    }

    /// Lets a peer withdraw triples it previously shared.
    pub fn unshare(
        &mut self,
        peer: NodeId,
        triples: impl IntoIterator<Item = Triple>,
    ) -> Result<PublishReport, OverlayError> {
        self.overlay.remove_triples(peer, triples)
    }

    /// Submits a query, letting the cost-based planner pick the primitive
    /// strategy for `objective` (Sect. V future work). Returns the
    /// execution and the plan it ran under.
    pub fn query_for_objective(
        &mut self,
        initiator: NodeId,
        sparql: &str,
        objective: crate::planner::PlanObjective,
    ) -> Result<(Execution, crate::planner::Plan), EngineError> {
        let cfg = self.config;
        Engine::new(&mut self.overlay, cfg).execute_with_objective(initiator, sparql, objective)
    }

    /// Submits a SPARQL query at `initiator`, returning the answer and
    /// its cost under the current configuration.
    pub fn query(&mut self, initiator: NodeId, sparql: &str) -> Result<Execution, EngineError> {
        let cfg = self.config;
        self.query_with(initiator, sparql, cfg)
    }

    /// Submits a query with an explicit one-off configuration.
    pub fn query_with(
        &mut self,
        initiator: NodeId,
        sparql: &str,
        cfg: ExecConfig,
    ) -> Result<Execution, EngineError> {
        match self.cache.as_mut() {
            Some(cache) => {
                Engine::with_cache(&mut self.overlay, cfg, cache).execute(initiator, sparql)
            }
            None => Engine::new(&mut self.overlay, cfg).execute(initiator, sparql),
        }
    }

    /// Resets the network counters (between measured runs).
    pub fn reset_network(&mut self) {
        self.overlay.net.reset();
    }
}

impl Default for SharingSystem {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfmesh_rdf::Term;

    fn knows(a: &str, b: &str) -> Triple {
        Triple::new(
            Term::iri(&format!("http://example.org/{a}")),
            Term::iri("http://xmlns.com/foaf/0.1/knows"),
            Term::iri(&format!("http://example.org/{b}")),
        )
    }

    #[test]
    fn build_share_query_round_trip() {
        let mut sys = SharingSystem::new();
        let ix = sys.add_index_node().unwrap();
        sys.add_index_node().unwrap();
        sys.add_peer(vec![knows("alice", "bob")]).unwrap();
        sys.add_peer(vec![knows("carol", "bob"), knows("carol", "dave")]).unwrap();

        let exec = sys
            .query(ix, "SELECT ?x WHERE { ?x foaf:knows <http://example.org/bob> . }")
            .unwrap();
        assert_eq!(exec.result.len(), 2);
        assert!(exec.stats.total_bytes > 0);
    }

    #[test]
    fn peers_balance_across_index_nodes() {
        let mut sys = SharingSystem::new();
        sys.add_index_node().unwrap();
        sys.add_index_node().unwrap();
        for i in 0..4 {
            sys.add_peer(vec![knows(&format!("p{i}"), "q")]).unwrap();
        }
        // With 2 index nodes and 4 peers, each index node gets 2.
        let overlay = sys.overlay();
        let mut counts = std::collections::HashMap::new();
        for s in overlay.storage_nodes() {
            let att = overlay.storage_node(s).unwrap().attached_to;
            *counts.entry(att).or_insert(0) += 1;
        }
        assert!(counts.values().all(|&c| c == 2), "{counts:?}");
    }

    #[test]
    fn query_without_index_nodes_fails_cleanly() {
        let mut sys = SharingSystem::new();
        assert!(sys.add_peer(vec![knows("a", "b")]).is_err());
    }

    #[test]
    fn share_more_and_unshare_update_answers() {
        let mut sys = SharingSystem::new();
        let ix = sys.add_index_node().unwrap();
        let (peer, _) = sys.add_peer(vec![knows("a", "b")]).unwrap();
        let q = "SELECT ?x WHERE { ?x foaf:knows <http://example.org/b> . }";
        assert_eq!(sys.query(ix, q).unwrap().result.len(), 1);
        sys.share_more(peer, vec![knows("c", "b")]).unwrap();
        assert_eq!(sys.query(ix, q).unwrap().result.len(), 2);
        sys.unshare(peer, vec![knows("a", "b")]).unwrap();
        assert_eq!(sys.query(ix, q).unwrap().result.len(), 1);
    }

    #[test]
    fn graph_scoped_peers_answer_from_queries() {
        let mut sys = SharingSystem::new();
        let ix = sys.add_index_node().unwrap();
        let g = rdfmesh_rdf::Iri::new("http://example.org/graphs/mine").unwrap();
        sys.add_peer_with_graph(g, vec![knows("a", "b")]).unwrap();
        sys.add_peer(vec![knows("c", "b")]).unwrap();
        let scoped = sys
            .query(ix, "SELECT ?x FROM <http://example.org/graphs/mine> WHERE { ?x foaf:knows ?y . }")
            .unwrap();
        assert_eq!(scoped.result.len(), 1);
        let all = sys.query(ix, "SELECT ?x WHERE { ?x foaf:knows ?y . }").unwrap();
        assert_eq!(all.result.len(), 2);
    }

    #[test]
    fn objective_query_reports_plan() {
        let mut sys = SharingSystem::new();
        let ix = sys.add_index_node().unwrap();
        sys.add_peer(vec![knows("a", "b")]).unwrap();
        let (exec, plan) = sys
            .query_for_objective(
                ix,
                "SELECT ?x WHERE { ?x foaf:knows ?y . }",
                crate::planner::PlanObjective::MinResponseTime,
            )
            .unwrap();
        assert_eq!(exec.result.len(), 1);
        assert_eq!(plan.candidates.len(), 3);
    }

    #[test]
    fn cached_queries_match_cold_results_and_cost_less() {
        let mut sys = SharingSystem::new();
        let ix = sys.add_index_node().unwrap();
        sys.add_index_node().unwrap();
        sys.add_peer(vec![knows("alice", "bob")]).unwrap();
        sys.add_peer(vec![knows("carol", "bob")]).unwrap();
        let q = "SELECT ?x WHERE { ?x foaf:knows <http://example.org/bob> . }";
        let cold = sys.query(ix, q).unwrap();
        sys.enable_cache(CacheConfig::default());
        sys.reset_network();
        let warm = sys.query(ix, q).unwrap(); // fills the caches
        sys.reset_network();
        let hit = sys.query(ix, q).unwrap();
        assert_eq!(format!("{:?}", cold.result), format!("{:?}", hit.result));
        assert!(
            hit.stats.total_bytes < warm.stats.total_bytes,
            "hit {} vs warm {}",
            hit.stats.total_bytes,
            warm.stats.total_bytes
        );
        let stats = sys.cache_stats().unwrap();
        assert!(stats.result_hits >= 1, "{stats:?}");
        sys.disable_cache();
        assert!(sys.cache_stats().is_none());
    }

    #[test]
    fn per_query_config_override() {
        let mut sys = SharingSystem::new();
        let ix = sys.add_index_node().unwrap();
        sys.add_peer(vec![knows("a", "b")]).unwrap();
        let q = "SELECT ?x WHERE { ?x foaf:knows ?y . }";
        let default = sys.query(ix, q).unwrap();
        let baseline = sys.query_with(ix, q, ExecConfig::baseline()).unwrap();
        assert_eq!(default.result.len(), baseline.result.len());
    }
}
