//! [`MeshBackend`] over the deterministic simulated overlay.
//!
//! `SimBackend` owns everything the pre-IR engine did between "optimized
//! algebra in" and "final materialization out": cache-aware index
//! lookups, the three primitive shipping strategies, bind-join shipping,
//! flooding, dead-provider timeouts and purges, join-site selection, and
//! materialization transfers. Every movement of a sub-query or solution
//! set is charged to the simulated network, so executing an [`ExecPlan`](crate::ExecPlan)
//! through this backend produces byte-identical [`QueryStats`] to the
//! monolithic engine it was carved out of (locked by the
//! `exec_golden` twin-run fixture in rdfmesh-bench).

use rdfmesh_cache::{QueryCache, ResultEntry};
use rdfmesh_net::{NodeId, SimTime};
use rdfmesh_obs::{names, phase};
use rdfmesh_overlay::{wire, Located, Overlay, Provider};
use rdfmesh_rdf::{Triple, TriplePattern, Variable};
use rdfmesh_sparql::{
    algebra::AlgebraQuery,
    ast::QueryForm,
    eval::{self, NoGraph},
    expr::Expression,
    solution::{self, DistinctBuffer, Solution, SolutionSet},
    QueryResult,
};

use crate::config::{DistStrategy, ExecConfig, JoinSiteStrategy, PrimitiveStrategy};
use crate::engine::{EngineError, FrequencyEstimator};
use crate::exec::{collect_patterns, Mat, MeshBackend, OpKind, PrimitiveOp};
use crate::stats::QueryStats;

/// The simulated-overlay backend: executes plan operators against the
/// in-process [`Overlay`], charging all traffic to its virtual network.
///
/// Borrows the overlay mutably so it can purge stale index entries when
/// storage nodes time out (Sect. III-D).
pub struct SimBackend<'a> {
    pub(crate) overlay: &'a mut Overlay,
    pub(crate) cfg: ExecConfig,
    pub(crate) stats: QueryStats,
    pub(crate) initiator: NodeId,
    /// `FROM` clause of the running query: when non-empty, only storage
    /// nodes publishing one of these graph IRIs belong to the dataset
    /// (Sect. IV-A). Empty = the union of all providers.
    pub(crate) dataset_graphs: Vec<rdfmesh_rdf::Iri>,
    /// The initiator's cache stack, when attached. `None` reproduces the
    /// uncached engine exactly.
    pub(crate) cache: Option<&'a mut QueryCache>,
}

impl<'a> SimBackend<'a> {
    /// Creates a backend over the overlay with the given configuration.
    pub fn new(overlay: &'a mut Overlay, cfg: ExecConfig) -> Self {
        SimBackend {
            overlay,
            cfg,
            stats: QueryStats::default(),
            initiator: NodeId(0),
            dataset_graphs: Vec::new(),
            cache: None,
        }
    }

    /// Like [`SimBackend::new`], but with the initiator's [`QueryCache`]
    /// attached (see `Engine::with_cache`).
    pub fn with_cache(
        overlay: &'a mut Overlay,
        cfg: ExecConfig,
        cache: &'a mut QueryCache,
    ) -> Self {
        SimBackend {
            overlay,
            cfg,
            stats: QueryStats::default(),
            initiator: NodeId(0),
            dataset_graphs: Vec::new(),
            cache: Some(cache),
        }
    }

    // ---- observability mirrors -----------------------------------------
    //
    // Every legacy counter bump goes through one of these, which also
    // feed the active query trace (so stats become derivable from it —
    // see `QueryStats::from_trace`) and the process-wide registry.

    pub(crate) fn note_index_hops(&mut self, hops: usize) {
        self.stats.index_hops += hops;
        rdfmesh_obs::count_current("index_hops", hops as u64);
    }

    fn note_provider_contacted(&mut self) {
        self.stats.providers_contacted += 1;
        rdfmesh_obs::count_current("providers_contacted", 1);
        let metrics = rdfmesh_obs::metrics();
        if metrics.is_enabled() {
            metrics.add("engine.providers_contacted", 1);
            metrics.add(
                match self.cfg.primitive {
                    PrimitiveStrategy::Basic => "engine.subqueries.basic",
                    PrimitiveStrategy::Chained => "engine.subqueries.chained",
                    PrimitiveStrategy::FrequencyOrdered => "engine.subqueries.frequency_ordered",
                },
                1,
            );
        }
    }

    /// Forwards a sub-query from a storage-node initiator to its entry
    /// index node (one charged message), under a shipping span.
    fn forward_to_entry(
        &mut self,
        entry: NodeId,
        pattern: &TriplePattern,
        depart: SimTime,
    ) -> SimTime {
        let span = rdfmesh_obs::begin_current(
            phase::SHIPPING,
            &format!("forward {} -> {}", self.initiator, entry),
            depart.0,
        );
        let t = self.overlay.net.send(
            self.initiator,
            entry,
            wire::SUBQUERY_HEADER + pattern.serialized_len(),
            depart,
        );
        rdfmesh_obs::end_current(span, t.0);
        rdfmesh_obs::advance_current(phase::SHIPPING, t.0);
        t
    }

    fn note_intermediates(&mut self, n: usize) {
        self.stats.intermediate_solutions += n;
        rdfmesh_obs::count_current("intermediate_solutions", n as u64);
        let metrics = rdfmesh_obs::metrics();
        if metrics.is_enabled() {
            metrics.observe("engine.intermediate_solutions", n as u64);
        }
    }

    /// Records local query execution at a storage node as a zero-width
    /// span: the simulator charges no compute time for local matching, so
    /// the span marks the event (which node, how many solutions) without
    /// moving the clock or claiming bytes.
    fn note_local_exec(&self, node: NodeId, solutions: usize, at: SimTime) {
        let span = rdfmesh_obs::begin_current(
            phase::LOCAL_EXEC,
            &format!("{node}: {solutions} solutions"),
            at.0,
        );
        rdfmesh_obs::end_current(span, at.0);
    }

    pub(crate) fn check_initiator(&self, addr: NodeId) -> Result<(), EngineError> {
        if self.overlay.chord_id_of(addr).is_some() || self.overlay.is_storage_alive(addr) {
            Ok(())
        } else {
            Err(EngineError::UnknownInitiator(addr))
        }
    }

    /// Pre-fetches location information for every triple pattern in the
    /// query so the optimizer can order joins by true frequencies. These
    /// lookups are charged: statistics live at remote index nodes.
    pub(crate) fn build_frequency_estimator(
        &mut self,
        pattern: &rdfmesh_sparql::GraphPattern,
    ) -> Result<FrequencyEstimator, EngineError> {
        let mut tps = Vec::new();
        collect_patterns(pattern, &mut tps);
        let entry = self.entry_index(self.initiator)?;
        let mut entries = Vec::with_capacity(tps.len());
        let mut default = 1u64;
        for tp in tps {
            match self.locate_cached(entry, &tp, SimTime::ZERO)? {
                Some(located) => {
                    self.note_index_hops(located.hops);
                    let total: u64 = located.providers.iter().map(|p| p.frequency).sum();
                    entries.push((tp, total));
                }
                None => {
                    // All-variable pattern: worst case, schedule it last.
                    default = u64::MAX / 2;
                }
            }
        }
        Ok(FrequencyEstimator::new(entries, default))
    }

    /// The index node through which `addr` reaches the ring: itself if it
    /// is an index node, otherwise the index node it is attached to (one
    /// charged hop).
    pub(crate) fn entry_index(&self, addr: NodeId) -> Result<NodeId, EngineError> {
        if self.overlay.chord_id_of(addr).is_some() {
            return Ok(addr);
        }
        let storage = self
            .overlay
            .storage_node(addr)
            .ok_or(EngineError::UnknownInitiator(addr))?;
        self.overlay
            .addr_of(storage.attached_to)
            .ok_or(EngineError::UnknownInitiator(addr))
    }

    // ---- cache-aware index lookup (rdfmesh-cache) ----------------------

    /// Resolves providers for `pattern` like [`Overlay::locate`], but
    /// consults the attached cache stack first and fills it on a cold
    /// walk. A provider-set hit costs zero messages (the initiator's
    /// entry node fans sub-queries out itself); a routing hit costs one
    /// direct [`wire::LOOKUP_STEP`] message to the remembered owner
    /// instead of the O(log N) ring walk. Lookup traffic is classed as
    /// cache-hit vs cache-miss bytes in the metrics registry.
    fn locate_cached(
        &mut self,
        entry: NodeId,
        pattern: &TriplePattern,
        depart: SimTime,
    ) -> Result<Option<Located>, EngineError> {
        if self.cache.is_none() {
            return Ok(self.overlay.locate(entry, pattern, depart)?);
        }
        let Some(key) = self.overlay.index_key_for(pattern) else {
            // All-variable pattern: no key to cache under; callers flood.
            return Ok(None);
        };
        let epoch = self.overlay.ring_epoch();
        let version = self.overlay.key_version(key.id);
        let mut provider_hit = None;
        let mut route_hit = None;
        if let Some(cache) = self.cache.as_mut() {
            provider_hit = cache.lookup_providers(key.id, version, epoch);
            if provider_hit.is_none() {
                route_hit = cache.lookup_route(key.id, epoch);
            }
        }
        if let Some((_, providers)) = provider_hit {
            // Both index levels short-circuited: the initiator knows the
            // row, so sub-queries fan out from its own entry node.
            return Ok(Some(Located { key, index_node: entry, providers, hops: 0, arrival: depart }));
        }
        if let Some(owner) = route_hit {
            self.overlay.net.set_byte_class(Some(names::NET_BYTES_CACHE_HIT_PATH));
            let arrival = self.overlay.net.send(entry, owner, wire::LOOKUP_STEP, depart);
            self.overlay.net.set_byte_class(None);
            let providers = self.overlay.providers_for_key(owner, key.id);
            if let Some(cache) = self.cache.as_mut() {
                cache.store_providers(key.id, owner, providers.clone(), version, epoch);
            }
            let hops = usize::from(owner != entry);
            return Ok(Some(Located { key, index_node: owner, providers, hops, arrival }));
        }
        self.overlay.net.set_byte_class(Some(names::NET_BYTES_CACHE_MISS_PATH));
        let located = self.overlay.locate(entry, pattern, depart);
        self.overlay.net.set_byte_class(None);
        let located = located?;
        if let Some(loc) = &located {
            // The routing cache remembers the *authoritative* owner, not
            // a hot-replica holder the walk may have stopped at: a later
            // routing hit reads the row at the remembered node directly.
            let owner = self.overlay.owner_addr(key.id).unwrap_or(loc.index_node);
            if let Some(cache) = self.cache.as_mut() {
                cache.store_route(key.id, owner, epoch);
                cache.store_providers(key.id, loc.index_node, loc.providers.clone(), version, epoch);
            }
        }
        Ok(located)
    }

    /// Serves `pattern` from the result cache when a coherent entry
    /// exists: version and epoch must match and every provider recorded
    /// at fill time must still be alive (a cold query would lose a dead
    /// provider's solutions to a timeout, so a cached result that still
    /// counts them must not be served).
    fn result_cache_get(&mut self, pattern: &TriplePattern, depart: SimTime) -> Option<Mat> {
        let key = self.overlay.index_key_for(pattern)?;
        let version = self.overlay.key_version(key.id);
        let epoch = self.overlay.ring_epoch();
        let overlay = &*self.overlay;
        let cache = self.cache.as_mut()?;
        let solutions =
            cache.lookup_result(pattern, version, epoch, &|n| overlay.is_storage_alive(n))?;
        Some(Mat { solutions, site: self.initiator, ready: depart })
    }

    /// Offers a finished primitive materialization for result-cache
    /// admission. When admitted and the result lives elsewhere, the
    /// initiator pulls a private copy (one charged transfer, off the
    /// response-time critical path) so later hits serve locally.
    fn result_cache_store(&mut self, pattern: &TriplePattern, providers: &[NodeId], mat: &Mat) {
        let Some(key) = self.overlay.index_key_for(pattern) else { return };
        let version = self.overlay.key_version(key.id);
        let epoch = self.overlay.ring_epoch();
        // Record only providers still alive: dead ones were purged during
        // execution (and contributed nothing), so the snapshot's liveness
        // set matches what a cold re-run would contact.
        let alive: Vec<NodeId> = providers
            .iter()
            .copied()
            .filter(|n| self.overlay.is_storage_alive(*n))
            .collect();
        let bytes = wire::RESULT_HEADER + solution::serialized_len(&mat.solutions);
        let Some(cache) = self.cache.as_mut() else { return };
        let admitted = cache.store_result(
            pattern.clone(),
            ResultEntry {
                solutions: mat.solutions.clone(),
                providers: alive,
                key: key.id,
                version,
                epoch,
                bytes,
            },
        );
        if admitted && mat.site != self.initiator {
            self.overlay.net.send(mat.site, self.initiator, bytes, mat.ready);
        }
    }

    // ---- primitive queries (Sect. IV-C) --------------------------------

    /// Evaluates a single triple pattern (with an optional source-side
    /// filter) across the network. `end_hint` asks chained strategies to
    /// end their provider sequence at the given site when it is itself a
    /// provider — the Sect. IV-D overlap optimization.
    pub(crate) fn primitive(
        &mut self,
        pattern: &TriplePattern,
        filter: Option<&Expression>,
        depart: SimTime,
        end_hint: Option<NodeId>,
    ) -> Result<Mat, EngineError> {
        // Result-cache fast path: an unfiltered, dataset-free primitive
        // pattern may be answered entirely at the initiator.
        let cacheable =
            self.cache.is_some() && filter.is_none() && self.dataset_graphs.is_empty();
        if cacheable {
            if let Some(hit) = self.result_cache_get(pattern, depart) {
                self.note_intermediates(hit.solutions.len());
                return Ok(hit);
            }
        }
        let entry = self.entry_index(self.initiator)?;
        // A storage-node initiator first forwards the query to its index
        // node (one message).
        let depart = if entry == self.initiator {
            depart
        } else {
            self.forward_to_entry(entry, pattern, depart)
        };
        let Some(located) = self.locate_cached(entry, pattern, depart)? else {
            return self.flood(pattern, filter, depart);
        };
        self.note_index_hops(located.hops);
        rdfmesh_obs::advance_current(phase::KEY_RESOLUTION, located.arrival.0);
        let assembly = located.index_node;
        let t0 = located.arrival;
        let mut providers = self.in_dataset(located.providers);
        let metrics = rdfmesh_obs::metrics();
        if metrics.is_enabled() {
            metrics.observe("engine.providers_per_pattern", providers.len() as u64);
        }
        if providers.is_empty() {
            return Ok(Mat { solutions: Vec::new(), site: assembly, ready: t0 });
        }

        let provider_nodes: Vec<NodeId> = providers.iter().map(|p| p.node).collect();
        let mat = match self.cfg.primitive {
            PrimitiveStrategy::Basic => {
                self.primitive_basic(pattern, filter, assembly, &providers, t0)
            }
            PrimitiveStrategy::Chained => {
                providers.sort_by_key(|p| p.node);
                self.primitive_chain(pattern, filter, assembly, providers, t0, end_hint)
            }
            PrimitiveStrategy::FrequencyOrdered => {
                // Ascending frequency: the largest contributor is last, so
                // its contribution never transits (Sect. IV-C further
                // optimization).
                providers.sort_by_key(|p| (p.frequency, p.node));
                self.primitive_chain(pattern, filter, assembly, providers, t0, end_hint)
            }
        }?;
        if cacheable {
            self.result_cache_store(pattern, &provider_nodes, &mat);
        }
        Ok(mat)
    }

    /// Basic scheme: parallel fan-out from the assembly index node.
    fn primitive_basic(
        &mut self,
        pattern: &TriplePattern,
        filter: Option<&Expression>,
        assembly: NodeId,
        providers: &[Provider],
        t0: SimTime,
    ) -> Result<Mat, EngineError> {
        let subquery_bytes = wire::SUBQUERY_HEADER
            + pattern.serialized_len()
            + filter.map_or(0, |f| f.serialized_len());
        let span = rdfmesh_obs::begin_current(
            phase::SHIPPING,
            &format!("basic fan-out to {} providers", providers.len()),
            t0.0,
        );
        let mut union = DistinctBuffer::new();
        let mut ready = t0;
        let mut dead = Vec::new();
        for p in providers {
            let sent = self.overlay.net.send(assembly, p.node, subquery_bytes, t0);
            self.note_provider_contacted();
            match self.local_solutions(p.node, pattern, filter) {
                Some(sols) => {
                    self.note_local_exec(p.node, sols.len(), sent);
                    self.note_intermediates(sols.len());
                    let bytes = wire::RESULT_HEADER + solution::serialized_len(&sols);
                    let back = self.overlay.net.send(p.node, assembly, bytes, sent);
                    ready = ready.max(back);
                    union.extend_distinct(sols);
                }
                None => {
                    // Query-ack timeout (Sect. III-D), then purge.
                    ready = ready.max(sent + self.cfg.ack_timeout);
                    dead.push(p.node);
                }
            }
        }
        rdfmesh_obs::end_current(span, ready.0);
        rdfmesh_obs::advance_current(phase::SHIPPING, ready.0);
        self.handle_dead(&dead);
        Ok(Mat { solutions: union.into_vec(), site: assembly, ready })
    }

    /// Chained schemes: the sub-query and accumulated mappings travel
    /// through the provider sequence; the last node holds the result.
    fn primitive_chain(
        &mut self,
        pattern: &TriplePattern,
        filter: Option<&Expression>,
        assembly: NodeId,
        mut providers: Vec<Provider>,
        t0: SimTime,
        end_hint: Option<NodeId>,
    ) -> Result<Mat, EngineError> {
        // Overlap optimization: rotate the hinted site to the end of the
        // sequence so the join with the waiting materialization is local.
        if let Some(hint) = end_hint {
            if let Some(pos) = providers.iter().position(|p| p.node == hint) {
                let hinted = providers.remove(pos);
                providers.push(hinted);
            }
        }
        let subquery_bytes = wire::SUBQUERY_HEADER
            + pattern.serialized_len()
            + filter.map_or(0, |f| f.serialized_len())
            + 8 * providers.len(); // the forwarding list

        let span = rdfmesh_obs::begin_current(
            phase::SHIPPING,
            &format!("chain through {} providers", providers.len()),
            t0.0,
        );
        let mut acc = DistinctBuffer::new();
        let mut cursor = assembly;
        let mut t = t0;
        let mut dead = Vec::new();
        for p in &providers {
            let payload =
                subquery_bytes + wire::RESULT_HEADER + solution::serialized_len(acc.as_slice());
            let arrived = self.overlay.net.send(cursor, p.node, payload, t);
            self.note_provider_contacted();
            match self.local_solutions(p.node, pattern, filter) {
                Some(sols) => {
                    self.note_local_exec(p.node, sols.len(), arrived);
                    self.note_intermediates(sols.len());
                    acc.extend_distinct(sols);
                    cursor = p.node;
                    t = arrived;
                }
                None => {
                    // The sender detects the missing ack and skips to the
                    // next node in the list.
                    t = arrived + self.cfg.ack_timeout;
                    dead.push(p.node);
                }
            }
        }
        rdfmesh_obs::end_current(span, t.0);
        rdfmesh_obs::advance_current(phase::SHIPPING, t.0);
        self.handle_dead(&dead);
        Ok(Mat { solutions: acc.into_vec(), site: cursor, ready: t })
    }

    /// Existence test for one pattern: providers are probed in
    /// descending-frequency order (most likely witness first) and probing
    /// stops at the first hit. Returns the answer and its arrival time at
    /// the initiator.
    pub(crate) fn ask_primitive(
        &mut self,
        pattern: &TriplePattern,
        filter: Option<&Expression>,
    ) -> Result<(bool, SimTime), EngineError> {
        let entry = self.entry_index(self.initiator)?;
        let depart = if entry == self.initiator {
            SimTime::ZERO
        } else {
            self.forward_to_entry(entry, pattern, SimTime::ZERO)
        };
        let Some(located) = self.locate_cached(entry, pattern, depart)? else {
            let mat = self.flood(pattern, filter, depart)?;
            let initiator = self.initiator;
            let mat = self.ship(mat, initiator);
            return Ok((!mat.solutions.is_empty(), mat.ready));
        };
        self.note_index_hops(located.hops);
        rdfmesh_obs::advance_current(phase::KEY_RESOLUTION, located.arrival.0);
        let assembly = located.index_node;
        let mut providers = self.in_dataset(located.providers.clone());
        providers.sort_by_key(|p| (std::cmp::Reverse(p.frequency), p.node));
        let subquery_bytes = wire::SUBQUERY_HEADER
            + pattern.serialized_len()
            + filter.map_or(0, |f| f.serialized_len());
        let span = rdfmesh_obs::begin_current(
            phase::SHIPPING,
            &format!("ask probe of {} providers", providers.len()),
            located.arrival.0,
        );
        let mut t = located.arrival;
        let mut dead = Vec::new();
        let mut answer = false;
        for p in &providers {
            let sent = self.overlay.net.send(assembly, p.node, subquery_bytes, t);
            self.note_provider_contacted();
            match self.local_solutions(p.node, pattern, filter) {
                Some(sols) if !sols.is_empty() => {
                    // Witness found: one ack back to the assembly, done.
                    self.note_local_exec(p.node, sols.len(), sent);
                    t = self.overlay.net.send(p.node, assembly, wire::ACK, sent);
                    answer = true;
                    break;
                }
                Some(sols) => {
                    self.note_local_exec(p.node, sols.len(), sent);
                    t = self.overlay.net.send(p.node, assembly, wire::ACK, sent);
                }
                None => {
                    t = sent + self.cfg.ack_timeout;
                    dead.push(p.node);
                }
            }
        }
        self.handle_dead(&dead);
        let ready = self.overlay.net.send(assembly, self.initiator, wire::ACK, t);
        rdfmesh_obs::end_current(span, ready.0);
        rdfmesh_obs::advance_current(phase::SHIPPING, ready.0);
        Ok((answer, ready))
    }

    /// Attempts the range-index fast path: pattern `(?s, p, ?o)` with a
    /// filter bounding numeric `?o`. Returns `None` (fall back to the
    /// standard path) when the shape doesn't match or the overlay has no
    /// bucket index.
    fn try_primitive_range(
        &mut self,
        pattern: &TriplePattern,
        filter: &Expression,
        depart: SimTime,
    ) -> Result<Option<Mat>, EngineError> {
        let Some(buckets) = self.overlay.numeric_buckets() else { return Ok(None) };
        // Shape: bound predicate, variable object (subject may be either).
        let Some(predicate) = pattern.predicate.as_const() else { return Ok(None) };
        let Some(obj_var) = pattern.object.as_var() else { return Ok(None) };
        let Some((lo, hi)) = crate::exec::extract_numeric_range(filter, obj_var) else {
            return Ok(None);
        };
        let lo = lo.max(buckets.min);
        let hi = hi.min(buckets.max);
        if lo > hi {
            return Ok(Some(Mat {
                solutions: Vec::new(),
                site: self.initiator,
                ready: depart,
            }));
        }
        let entry = self.entry_index(self.initiator)?;
        let depart = if entry == self.initiator {
            depart
        } else {
            self.forward_to_entry(entry, pattern, depart)
        };
        let Some(located) =
            self.overlay.locate_numeric_range(entry, predicate, lo, hi, depart)?
        else {
            return Ok(None);
        };
        self.note_index_hops(located.hops);
        rdfmesh_obs::advance_current(phase::KEY_RESOLUTION, located.arrival.0);
        let providers = self.in_dataset(located.providers.clone());
        if providers.is_empty() {
            return Ok(Some(Mat {
                solutions: Vec::new(),
                site: located.index_node,
                ready: located.arrival,
            }));
        }
        // Basic-style fan-out with the filter shipped to the sources.
        self.primitive_basic(pattern, Some(filter), located.index_node, &providers, located.arrival)
            .map(Some)
    }

    /// Flooding fallback for the all-variable pattern `(?s, ?p, ?o)`:
    /// every index node forwards the sub-query to its attached storage
    /// nodes; answers assemble at the initiator.
    fn flood(
        &mut self,
        pattern: &TriplePattern,
        filter: Option<&Expression>,
        depart: SimTime,
    ) -> Result<Mat, EngineError> {
        let entry = self.entry_index(self.initiator)?;
        let subquery_bytes = wire::SUBQUERY_HEADER + pattern.serialized_len();
        let span = rdfmesh_obs::begin_current(phase::SHIPPING, "flood all storage nodes", depart.0);
        let mut union = DistinctBuffer::new();
        let mut ready = depart;
        let mut dead = Vec::new();
        for index in self.overlay.index_nodes() {
            let at_index = self.overlay.net.send(entry, index, subquery_bytes, depart);
            let Some(index_id) = self.overlay.chord_id_of(index) else { continue };
            let attached: Vec<NodeId> = self
                .overlay
                .storage_nodes()
                .into_iter()
                .filter(|s| {
                    self.overlay.storage_node(*s).map(|n| n.attached_to) == Some(index_id)
                })
                .collect();
            for s in attached {
                if !self.dataset_graphs.is_empty() {
                    let in_set = self
                        .overlay
                        .storage_node(s)
                        .and_then(|n| n.graph.as_ref())
                        .is_some_and(|g| self.dataset_graphs.contains(g));
                    if !in_set {
                        continue;
                    }
                }
                let at_storage = self.overlay.net.send(index, s, subquery_bytes, at_index);
                self.note_provider_contacted();
                match self.local_solutions(s, pattern, filter) {
                    Some(sols) => {
                        self.note_local_exec(s, sols.len(), at_storage);
                        self.note_intermediates(sols.len());
                        let bytes = wire::RESULT_HEADER + solution::serialized_len(&sols);
                        let back = self.overlay.net.send(s, entry, bytes, at_storage);
                        ready = ready.max(back);
                        union.extend_distinct(sols);
                    }
                    None => {
                        ready = ready.max(at_storage + self.cfg.ack_timeout);
                        dead.push(s);
                    }
                }
            }
        }
        rdfmesh_obs::end_current(span, ready.0);
        rdfmesh_obs::advance_current(phase::SHIPPING, ready.0);
        self.handle_dead(&dead);
        Ok(Mat { solutions: union.into_vec(), site: entry, ready })
    }

    /// Restricts a provider list to the query's dataset (`FROM` clauses).
    fn in_dataset(&self, providers: Vec<Provider>) -> Vec<Provider> {
        if self.dataset_graphs.is_empty() {
            return providers;
        }
        providers
            .into_iter()
            .filter(|p| {
                self.overlay
                    .storage_node(p.node)
                    .and_then(|n| n.graph.as_ref())
                    .is_some_and(|g| self.dataset_graphs.contains(g))
            })
            .collect()
    }

    /// Local query execution at one storage node: pattern matching plus
    /// the optional source-side filter. `None` when the node is dead.
    fn local_solutions(
        &self,
        addr: NodeId,
        pattern: &TriplePattern,
        filter: Option<&Expression>,
    ) -> Option<SolutionSet> {
        let matches: Vec<Triple> = self.overlay.match_at(addr, pattern)?;
        let empty = Solution::new();
        let mut sols: SolutionSet = matches
            .iter()
            .filter_map(|t| eval::extend(pattern, t, &empty))
            .collect();
        if let Some(f) = filter {
            sols.retain(|s| f.satisfied_by(s));
        }
        Some(sols)
    }

    fn handle_dead(&mut self, dead: &[NodeId]) {
        let metrics = rdfmesh_obs::metrics();
        for &d in dead {
            self.stats.dead_providers += 1;
            rdfmesh_obs::count_current("dead_providers", 1);
            if metrics.is_enabled() {
                metrics.add("engine.dead_provider_timeouts", 1);
            }
            self.overlay.purge_storage_entries(d);
        }
    }

    /// Bind-join evaluation of one pattern against the current
    /// materialization: the accumulated solutions travel *with* the
    /// sub-query, and every provider returns only the compatible
    /// extensions. Sequential by nature (each pattern waits for the
    /// previous intermediate), but the wire never carries mappings that
    /// cannot contribute to the final answer.
    fn primitive_bound(
        &mut self,
        pattern: &TriplePattern,
        current: Mat,
    ) -> Result<Mat, EngineError> {
        let entry = self.entry_index(self.initiator)?;
        let Some(located) = self.locate_cached(entry, pattern, current.ready)? else {
            // All-variable pattern: fall back to gathering + local join.
            let right = self.flood(pattern, None, current.ready)?;
            return Ok(self.binary_op(&OpKind::Join, current, right));
        };
        self.note_index_hops(located.hops);
        rdfmesh_obs::advance_current(phase::KEY_RESOLUTION, located.arrival.0);
        let assembly = located.index_node;
        let mut providers = self.in_dataset(located.providers.clone());
        if providers.is_empty() {
            return Ok(Mat { solutions: Vec::new(), site: assembly, ready: located.arrival });
        }
        let bound_bytes = solution::serialized_len(&current.solutions);
        let subquery_bytes = wire::SUBQUERY_HEADER + pattern.serialized_len() + bound_bytes;

        match self.cfg.primitive {
            PrimitiveStrategy::Basic => {
                // Current solutions move to the assembly, then fan out
                // with the sub-query; extensions return to the assembly.
                let span = rdfmesh_obs::begin_current(
                    phase::SHIPPING,
                    &format!("bind-join fan-out to {} providers", providers.len()),
                    current.ready.0,
                );
                let at_assembly = self
                    .overlay
                    .net
                    .send(current.site, assembly, wire::RESULT_HEADER + bound_bytes, current.ready)
                    .max(located.arrival);
                let mut union = DistinctBuffer::new();
                let mut ready = at_assembly;
                let mut dead = Vec::new();
                for p in &providers {
                    let sent = self.overlay.net.send(assembly, p.node, subquery_bytes, at_assembly);
                    self.note_provider_contacted();
                    match self.bound_solutions(p.node, pattern, &current.solutions) {
                        Some(sols) => {
                            self.note_local_exec(p.node, sols.len(), sent);
                            self.note_intermediates(sols.len());
                            let bytes = wire::RESULT_HEADER + solution::serialized_len(&sols);
                            let back = self.overlay.net.send(p.node, assembly, bytes, sent);
                            ready = ready.max(back);
                            union.extend_distinct(sols);
                        }
                        None => {
                            ready = ready.max(sent + self.cfg.ack_timeout);
                            dead.push(p.node);
                        }
                    }
                }
                rdfmesh_obs::end_current(span, ready.0);
                rdfmesh_obs::advance_current(phase::SHIPPING, ready.0);
                self.handle_dead(&dead);
                Ok(Mat { solutions: union.into_vec(), site: assembly, ready })
            }
            PrimitiveStrategy::Chained | PrimitiveStrategy::FrequencyOrdered => {
                if self.cfg.primitive == PrimitiveStrategy::FrequencyOrdered {
                    providers.sort_by_key(|p| (p.frequency, p.node));
                } else {
                    providers.sort_by_key(|p| p.node);
                }
                // The chain starts at the current site (it already holds
                // the bound solutions) after the index lookup resolves.
                let mut acc = DistinctBuffer::new();
                let mut cursor = current.site;
                let mut t = current.ready.max(located.arrival);
                let span = rdfmesh_obs::begin_current(
                    phase::SHIPPING,
                    &format!("bind-join chain through {} providers", providers.len()),
                    t.0,
                );
                let mut dead = Vec::new();
                for p in &providers {
                    let payload = subquery_bytes
                        + wire::RESULT_HEADER
                        + solution::serialized_len(acc.as_slice());
                    let arrived = self.overlay.net.send(cursor, p.node, payload, t);
                    self.note_provider_contacted();
                    match self.bound_solutions(p.node, pattern, &current.solutions) {
                        Some(sols) => {
                            self.note_local_exec(p.node, sols.len(), arrived);
                            self.note_intermediates(sols.len());
                            acc.extend_distinct(sols);
                            cursor = p.node;
                            t = arrived;
                        }
                        None => {
                            t = arrived + self.cfg.ack_timeout;
                            dead.push(p.node);
                        }
                    }
                }
                rdfmesh_obs::end_current(span, t.0);
                rdfmesh_obs::advance_current(phase::SHIPPING, t.0);
                self.handle_dead(&dead);
                Ok(Mat { solutions: acc.into_vec(), site: cursor, ready: t })
            }
        }
    }

    /// Local bind-join at one storage node: extensions of the carried
    /// partial solutions by local matches. `None` when the node is dead.
    fn bound_solutions(
        &self,
        addr: NodeId,
        pattern: &TriplePattern,
        partial: &[Solution],
    ) -> Option<SolutionSet> {
        let node = self.overlay.storage_node(addr)?;
        Some(eval::evaluate_pattern_with(&node.store, pattern, partial))
    }

    // ---- binary operations & join site selection (Sect. II, IV-E/F) ----

    fn binary_op(&mut self, op: &OpKind, left: Mat, right: Mat) -> Mat {
        let site = self.select_site(op, &left, &right);
        let (l, r) = (self.ship(left, site), self.ship(right, site));
        let ready = l.ready.max(r.ready);
        let solutions = match op {
            OpKind::Join => solution::join(&l.solutions, &r.solutions),
            OpKind::Union => solution::union(&l.solutions, &r.solutions),
            OpKind::LeftJoin(None) => solution::left_join(&l.solutions, &r.solutions),
            OpKind::LeftJoin(Some(cond)) => {
                solution::left_join_filtered(&l.solutions, &r.solutions, |m| cond.satisfied_by(m))
            }
        };
        self.note_intermediates(solutions.len());
        Mat { solutions, site, ready }
    }

    /// Applies the configured join-site strategy.
    fn select_site(&self, op: &OpKind, left: &Mat, right: &Mat) -> NodeId {
        if left.site == right.site {
            return left.site; // shared node: the Sect. IV-F free case
        }
        match self.cfg.join_site {
            JoinSiteStrategy::QuerySite => self.initiator,
            JoinSiteStrategy::MoveSmall => {
                // Ship the smaller solution set to the larger one's site.
                let lb = solution::serialized_len(&left.solutions);
                let rb = solution::serialized_len(&right.solutions);
                // Left joins must not move the mandatory side for free:
                // the strategy still compares sizes, as Sect. IV-E says.
                let _ = op;
                if lb >= rb {
                    left.site
                } else {
                    right.site
                }
            }
            JoinSiteStrategy::ThirdSite => {
                // Candidates: both operand sites and the query site; pick
                // the one minimizing total inbound transfer time.
                let lb = solution::serialized_len(&left.solutions) + wire::RESULT_HEADER;
                let rb = solution::serialized_len(&right.solutions) + wire::RESULT_HEADER;
                let candidates = [left.site, right.site, self.initiator];
                *candidates
                    .iter()
                    .min_by_key(|&&c| {
                        let lt = if c == left.site {
                            SimTime::ZERO
                        } else {
                            self.overlay.net.transfer_time(left.site, c, lb)
                        };
                        let rt = if c == right.site {
                            SimTime::ZERO
                        } else {
                            self.overlay.net.transfer_time(right.site, c, rb)
                        };
                        (lt.max(rt), lt + rt, c.0)
                    })
                    .expect("non-empty candidates")
            }
        }
    }

    /// Moves a materialization to `site`, charging the transfer.
    fn ship(&mut self, mat: Mat, site: NodeId) -> Mat {
        if mat.site == site {
            return mat;
        }
        let bytes = wire::RESULT_HEADER + solution::serialized_len(&mat.solutions);
        let span = rdfmesh_obs::begin_current(
            phase::SHIPPING,
            &format!("ship {} solutions {} -> {}", mat.solutions.len(), mat.site, site),
            mat.ready.0,
        );
        let ready = self.overlay.net.send(mat.site, site, bytes, mat.ready);
        rdfmesh_obs::end_current(span, ready.0);
        rdfmesh_obs::advance_current(phase::SHIPPING, ready.0);
        Mat { solutions: mat.solutions, site, ready }
    }

    /// The runtime half of the Sect. IV-D/IV-F site optimization: locate
    /// both patterns' providers (charged lookups) and pick the common
    /// provider with the largest combined frequency, mirroring the
    /// paper's preference for the node with the most target triples
    /// ("either D1 or D2 can be selected as the storage node at which the
    /// final result is generated"). The compile-time guards (overlap
    /// awareness, both operands single primitives) live in
    /// `planner::compile`.
    fn common_site(
        &mut self,
        ta: &TriplePattern,
        tb: &TriplePattern,
    ) -> Result<Option<NodeId>, EngineError> {
        let entry = self.entry_index(self.initiator)?;
        let Some(la) = self.locate_cached(entry, ta, SimTime::ZERO)? else {
            return Ok(None);
        };
        let Some(lb) = self.locate_cached(entry, tb, SimTime::ZERO)? else {
            return Ok(None);
        };
        self.note_index_hops(la.hops + lb.hops);
        let mut best: Option<(u64, NodeId)> = None;
        for pa in &la.providers {
            if let Some(pb) = lb.providers.iter().find(|pb| pb.node == pa.node) {
                let combined = pa.frequency + pb.frequency;
                if best.is_none_or(|(f, _)| combined > f) {
                    best = Some((combined, pa.node));
                }
            }
        }
        Ok(best.map(|(_, node)| node))
    }

    // ---- multiway distribution strategies (ExecNode::MultiJoin) --------

    /// Resolves every pattern slot's provider set up front (charged
    /// lookups from the initiator's entry node). A keyless all-variable
    /// slot has no index row to consult, so it names every storage node
    /// in the dataset — the flood fallback of Sect. IV-B. Returns the
    /// per-slot provider lists and the time the last lookup resolves.
    fn multiway_providers(
        &mut self,
        patterns: &[TriplePattern],
        depart: SimTime,
    ) -> Result<(Vec<Vec<NodeId>>, SimTime), EngineError> {
        let entry = self.entry_index(self.initiator)?;
        let mut slots = Vec::with_capacity(patterns.len());
        let mut resolved = depart;
        for pattern in patterns {
            match self.locate_cached(entry, pattern, depart)? {
                Some(located) => {
                    self.note_index_hops(located.hops);
                    resolved = resolved.max(located.arrival);
                    rdfmesh_obs::advance_current(phase::KEY_RESOLUTION, located.arrival.0);
                    let providers = self.in_dataset(located.providers);
                    slots.push(providers.into_iter().map(|p| p.node).collect::<Vec<_>>());
                }
                None => {
                    let all: Vec<NodeId> = self
                        .overlay
                        .storage_nodes()
                        .into_iter()
                        .filter(|s| {
                            self.dataset_graphs.is_empty()
                                || self
                                    .overlay
                                    .storage_node(*s)
                                    .and_then(|n| n.graph.as_ref())
                                    .is_some_and(|g| self.dataset_graphs.contains(g))
                        })
                        .collect();
                    slots.push(all);
                }
            }
        }
        Ok((slots, resolved))
    }

    /// One-round multiway BGP join (the [`crate::exec::ExecNode::MultiJoin`]
    /// operator): resolves every slot, then runs the selected strategy
    /// across the sorted provider union. Dead providers cost one ack
    /// timeout each and are purged, so the round yields a
    /// complete-or-partial answer exactly like the chained pipeline.
    pub(crate) fn multiway(
        &mut self,
        patterns: &[TriplePattern],
        join_vars: &[Variable],
        strategy: DistStrategy,
        depart: SimTime,
    ) -> Result<Mat, EngineError> {
        if patterns.is_empty() {
            return Ok(Mat {
                solutions: vec![Solution::new()],
                site: self.initiator,
                ready: depart,
            });
        }
        let (slots, resolved) = self.multiway_providers(patterns, depart)?;
        if slots.iter().any(Vec::is_empty) {
            // Some pattern matches nowhere: the conjunction is empty.
            return Ok(Mat { solutions: Vec::new(), site: self.initiator, ready: resolved });
        }
        let mut peers: Vec<NodeId> = slots.into_iter().flatten().collect();
        peers.sort_unstable_by_key(|n| n.0);
        peers.dedup();
        match strategy {
            DistStrategy::HyperCube => {
                self.multiway_hypercube(patterns, join_vars, &peers, resolved)
            }
            // Chained BGPs never compile to MultiJoin; routing the variant
            // like partial evaluation keeps the operator total anyway.
            DistStrategy::Chained | DistStrategy::PartialEval => {
                self.multiway_partial(patterns, &peers, resolved)
            }
        }
    }

    /// HyperCube shuffle: every provider evaluates each pattern locally,
    /// hashes each solution's join-variable bindings to a shuffle target
    /// (`exec::shuffle_partition`), and ships each partition exactly
    /// once, peer to peer. Every target then joins its partitions
    /// locally and returns one answer fragment to the initiator — a
    /// single communication round with no coordinator relay of
    /// intermediates.
    fn multiway_hypercube(
        &mut self,
        patterns: &[TriplePattern],
        join_vars: &[Variable],
        peers: &[NodeId],
        t0: SimTime,
    ) -> Result<Mat, EngineError> {
        let metrics = rdfmesh_obs::metrics();
        let exec_bytes = |k: usize| {
            wire::SUBQUERY_HEADER
                + patterns.iter().map(TriplePattern::serialized_len).sum::<usize>()
                + 8 * k // the peer list every node partitions against
        };
        let span = rdfmesh_obs::begin_current(
            phase::SHIPPING,
            &format!("hypercube shuffle across {} providers", peers.len()),
            t0.0,
        );
        // Phase A: fan the exec frame out. A dead peer costs one ack
        // timeout and is dropped; mirroring the live protocol's
        // generation bump, the shuffle then restarts over the survivors
        // (a second exec fan-out) so only the dead peer's data is lost.
        let mut alive: Vec<NodeId> = Vec::with_capacity(peers.len());
        let mut dead = Vec::new();
        let mut lost = t0;
        for &peer in peers {
            let sent = self.overlay.net.send(self.initiator, peer, exec_bytes(peers.len()), t0);
            self.note_provider_contacted();
            if self.overlay.is_storage_alive(peer) {
                alive.push(peer);
            } else {
                lost = lost.max(sent + self.cfg.ack_timeout);
                dead.push(peer);
            }
        }
        let k = alive.len();
        if k == 0 {
            rdfmesh_obs::end_current(span, lost.0);
            rdfmesh_obs::advance_current(phase::SHIPPING, lost.0);
            self.handle_dead(&dead);
            return Ok(Mat { solutions: Vec::new(), site: self.initiator, ready: lost });
        }
        // Phase B: scatter. parts[target][slot] accumulates fragments at
        // each shuffle target; at_target is when its last partition lands.
        let mut parts: Vec<Vec<DistinctBuffer>> = (0..k)
            .map(|_| (0..patterns.len()).map(|_| DistinctBuffer::new()).collect())
            .collect();
        let mut at_target = vec![t0; k];
        for (origin, &peer) in alive.iter().enumerate() {
            let sent = if dead.is_empty() {
                self.overlay.net.transfer_time(self.initiator, peer, exec_bytes(k)) + t0
            } else {
                // Restart fan-out: the survivors re-execute under the
                // bumped generation, paid after the failure detection.
                self.overlay.net.send(self.initiator, peer, exec_bytes(k), lost)
            };
            let mut local: Vec<SolutionSet> = Vec::with_capacity(patterns.len());
            for pattern in patterns {
                local.push(self.local_solutions(peer, pattern, None).unwrap_or_default());
            }
            let produced: usize = local.iter().map(Vec::len).sum();
            self.note_local_exec(peer, produced, sent);
            self.note_intermediates(produced);
            // Partition every pattern's solutions across the live peer
            // set. Empty partitions ship too (a header-only frame):
            // targets need one frame per origin to know the scatter is
            // complete.
            let mut outbound: Vec<Vec<SolutionSet>> =
                (0..k).map(|_| vec![SolutionSet::new(); patterns.len()]).collect();
            for (slot, sols) in local.into_iter().enumerate() {
                for s in sols {
                    let target = crate::exec::shuffle_partition(&s, join_vars, k);
                    outbound[target][slot].push(s);
                }
            }
            for (ti, sets) in outbound.into_iter().enumerate() {
                if ti != origin {
                    let rows: usize = sets.iter().map(Vec::len).sum();
                    let bytes = wire::RESULT_HEADER
                        + sets.iter().map(|set| solution::serialized_len(set)).sum::<usize>();
                    if metrics.is_enabled() {
                        metrics.add(names::EXEC_STRATEGY_SHUFFLE_PARTS, rows as u64);
                        metrics.add(names::EXEC_STRATEGY_SHUFFLE_BYTES, bytes as u64);
                    }
                    let arrived = self.overlay.net.send(peer, alive[ti], bytes, sent);
                    at_target[ti] = at_target[ti].max(arrived);
                } else {
                    at_target[ti] = at_target[ti].max(sent);
                }
                for (slot, set) in sets.into_iter().enumerate() {
                    parts[ti][slot].extend_distinct(set);
                }
            }
        }
        // Phase C: each target folds its fragments into a local join and
        // returns its answer fragment to the initiator.
        let mut union = DistinctBuffer::new();
        let mut ready = lost;
        for (ti, per_slot) in parts.into_iter().enumerate() {
            let mut acc: SolutionSet = vec![Solution::new()];
            for buf in &per_slot {
                acc = solution::join(&acc, buf.as_slice());
            }
            self.note_local_exec(alive[ti], acc.len(), at_target[ti]);
            self.note_intermediates(acc.len());
            let bytes = wire::RESULT_HEADER + solution::serialized_len(&acc);
            let back = self.overlay.net.send(alive[ti], self.initiator, bytes, at_target[ti]);
            ready = ready.max(back);
            union.extend_distinct(acc);
        }
        rdfmesh_obs::end_current(span, ready.0);
        rdfmesh_obs::advance_current(phase::SHIPPING, ready.0);
        self.handle_dead(&dead);
        Ok(Mat { solutions: union.into_vec(), site: self.initiator, ready })
    }

    /// Partial evaluation and assembly: every provider evaluates the
    /// whole BGP over its local data and ships its per-pattern match
    /// sets back in one reply; the initiator assembles cross-site rows
    /// with a fold join. Rows no single provider could produce alone
    /// feed the `exec.strategy.assembly_stitched_rows` counter.
    fn multiway_partial(
        &mut self,
        patterns: &[TriplePattern],
        peers: &[NodeId],
        t0: SimTime,
    ) -> Result<Mat, EngineError> {
        let metrics = rdfmesh_obs::metrics();
        let exec_bytes = wire::SUBQUERY_HEADER
            + patterns.iter().map(TriplePattern::serialized_len).sum::<usize>();
        let span = rdfmesh_obs::begin_current(
            phase::SHIPPING,
            &format!("partial evaluation at {} providers", peers.len()),
            t0.0,
        );
        let mut per_pattern: Vec<DistinctBuffer> =
            (0..patterns.len()).map(|_| DistinctBuffer::new()).collect();
        let mut local_complete = DistinctBuffer::new();
        let mut ready = t0;
        let mut dead = Vec::new();
        for &peer in peers {
            let sent = self.overlay.net.send(self.initiator, peer, exec_bytes, t0);
            self.note_provider_contacted();
            let mut sets: Vec<SolutionSet> = Vec::with_capacity(patterns.len());
            let mut up = true;
            for pattern in patterns {
                match self.local_solutions(peer, pattern, None) {
                    Some(sols) => sets.push(sols),
                    None => {
                        up = false;
                        break;
                    }
                }
            }
            if !up {
                ready = ready.max(sent + self.cfg.ack_timeout);
                dead.push(peer);
                continue;
            }
            let produced: usize = sets.iter().map(Vec::len).sum();
            self.note_local_exec(peer, produced, sent);
            self.note_intermediates(produced);
            let bytes = wire::RESULT_HEADER
                + sets.iter().map(|set| solution::serialized_len(set)).sum::<usize>();
            let back = self.overlay.net.send(peer, self.initiator, bytes, sent);
            ready = ready.max(back);
            // What this provider could answer alone — the baseline that
            // separates stitched rows from locally complete ones.
            let mut mine: SolutionSet = vec![Solution::new()];
            for (slot, set) in sets.into_iter().enumerate() {
                mine = solution::join(&mine, &set);
                per_pattern[slot].extend_distinct(set);
            }
            local_complete.extend_distinct(mine);
        }
        let mut acc: SolutionSet = vec![Solution::new()];
        for buf in &per_pattern {
            acc = solution::join(&acc, buf.as_slice());
        }
        let mut assembled = DistinctBuffer::new();
        assembled.extend_distinct(acc);
        let stitched = assembled.len().saturating_sub(local_complete.len()) as u64;
        if metrics.is_enabled() {
            metrics.add(names::EXEC_STRATEGY_STITCHED_ROWS, stitched);
        }
        self.note_intermediates(assembled.len());
        rdfmesh_obs::end_current(span, ready.0);
        rdfmesh_obs::advance_current(phase::SHIPPING, ready.0);
        self.handle_dead(&dead);
        Ok(Mat { solutions: assembled.into_vec(), site: self.initiator, ready })
    }

    // ---- post-processing (Fig. 3) --------------------------------------

    /// Shapes the raw solution set into the query form's result at the
    /// initiator. DESCRIBE issues its own distributed sub-queries for the
    /// described resources' triples, stretching the query's response time.
    pub(crate) fn post_process(
        &mut self,
        query: &AlgebraQuery,
        raw: SolutionSet,
    ) -> Result<QueryResult, EngineError> {
        match &query.form {
            QueryForm::Describe(_) => {
                // DESCRIBE needs the described resources' triples, which
                // are themselves distributed: fetch each resource's
                // subject triples with primitive sub-queries.
                let described = rdfmesh_sparql::finalize(&NoGraph, query, raw.clone());
                let QueryResult::Graph(_) = &described else {
                    return Ok(described);
                };
                let mut resources: Vec<rdfmesh_rdf::Term> = Vec::new();
                if let QueryForm::Describe(targets) = &query.form {
                    for t in targets {
                        match t {
                            rdfmesh_sparql::ast::DescribeTarget::Iri(iri) => {
                                resources.push(rdfmesh_rdf::Term::Iri(iri.clone()))
                            }
                            rdfmesh_sparql::ast::DescribeTarget::Var(v) => {
                                for sol in &raw {
                                    if let Some(t) = sol.get(v) {
                                        if !resources.contains(t) {
                                            resources.push(t.clone());
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                let mut triples = Vec::new();
                for r in resources {
                    let pat = TriplePattern::new(
                        r,
                        rdfmesh_rdf::TermPattern::var("p"),
                        rdfmesh_rdf::TermPattern::var("o"),
                    );
                    let mat = self.primitive(&pat, None, SimTime::ZERO, None)?;
                    let initiator = self.initiator;
                    let mat = self.ship(mat, initiator);
                    self.stats.response_time = self.stats.response_time.max(mat.ready);
                    for sol in &mat.solutions {
                        if let (Some(p), Some(o)) =
                            (sol.get(&Variable::new("p")), sol.get(&Variable::new("o")))
                        {
                            let t = Triple {
                                subject: pat.subject.as_const().expect("bound").clone(),
                                predicate: p.clone(),
                                object: o.clone(),
                            };
                            if !triples.contains(&t) {
                                triples.push(t);
                            }
                        }
                    }
                }
                Ok(QueryResult::Graph(triples))
            }
            _ => Ok(rdfmesh_sparql::finalize(&NoGraph, query, raw)),
        }
    }
}

// Result accumulation: the dataset of an unscoped query is "the union of
// all triples stored in all storage nodes" (Sect. IV-A) — a *set* — so
// identical solutions arising from triples replicated at several
// providers collapse. That deduplication (the in-network aggregation
// benefit of the chained schemes, footnote 13) is handled by
// `DistinctBuffer`, a hash-indexed first-seen-order filter replacing the
// former O(n²) `merge_distinct` scan with identical output.

impl<'a> MeshBackend for SimBackend<'a> {
    type Error = EngineError;

    fn home(&self) -> NodeId {
        self.initiator
    }

    fn exec_primitive(
        &mut self,
        op: &PrimitiveOp,
        depart: SimTime,
        hint: Option<NodeId>,
        use_range: bool,
    ) -> Result<Mat, EngineError> {
        if use_range && op.try_range {
            if let Some(filter) = &op.filter {
                // Range-index fast path: a numeric range over the object
                // variable contacts only the overlapping buckets'
                // providers.
                if let Some(mat) = self.try_primitive_range(&op.pattern, filter, depart)? {
                    return Ok(mat);
                }
            }
        }
        self.primitive(&op.pattern, op.filter.as_ref(), depart, hint)
    }

    fn exec_bound(&mut self, pattern: &TriplePattern, current: Mat) -> Result<Mat, EngineError> {
        self.primitive_bound(pattern, current)
    }

    fn exec_binary(&mut self, op: &OpKind, left: Mat, right: Mat) -> Mat {
        self.binary_op(op, left, right)
    }

    fn exec_multiway(
        &mut self,
        patterns: &[TriplePattern],
        join_vars: &[Variable],
        strategy: DistStrategy,
        depart: SimTime,
    ) -> Result<Mat, EngineError> {
        self.multiway(patterns, join_vars, strategy, depart)
    }

    fn exec_common_site(
        &mut self,
        a: &TriplePattern,
        b: &TriplePattern,
    ) -> Result<Option<NodeId>, EngineError> {
        self.common_site(a, b)
    }

    fn deliver(&mut self, mat: Mat) -> Mat {
        let initiator = self.initiator;
        self.ship(mat, initiator)
    }
}
