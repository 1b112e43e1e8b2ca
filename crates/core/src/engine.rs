//! The distributed query engine — Fig. 3 end to end.
//!
//! `execute` walks the full workflow: **Query Parsing** → **Query
//! Transformation** (AST → algebra) → **Global Query Optimization**
//! (algebraic rewrites + frequency-informed join ordering + site
//! selection) → **sub-query shipping and Local Query Execution** at the
//! storage nodes → **Post-Processing** at the query initiator.
//!
//! The engine itself is planning + orchestration: it compiles the
//! optimized algebra to an operator IR ([`crate::exec::ExecPlan`] via
//! [`crate::planner::compile`]) and executes the plan through the
//! [`crate::sim_backend::SimBackend`] implementation of
//! [`crate::exec::MeshBackend`]. All distributed mechanics — index
//! lookups, sub-query shipping, provider chains, join placement, dead
//! provider handling — live behind that backend seam, shared with the
//! live mesh.
//!
//! Intermediate results are modelled as *materializations*
//! ([`crate::exec::Mat`]): a solution set living at a site at a simulated
//! time. Every movement of a materialization or sub-query is charged to
//! the network, so the returned [`QueryStats`] reports exactly the
//! quantities the paper optimizes — total inter-site bytes and response
//! time.

use std::collections::HashMap;

use rdfmesh_cache::QueryCache;
use rdfmesh_net::{NodeId, SimTime};
use rdfmesh_obs::{names, phase};
use rdfmesh_overlay::{Overlay, OverlayError};
use rdfmesh_rdf::{TriplePattern, TripleStore};
use rdfmesh_sparql::{
    algebra::AlgebraQuery,
    ast::QueryForm,
    optimizer,
    CardinalityEstimator, GraphPattern, ParseError, QueryResult,
};

use crate::config::ExecConfig;
use crate::exec::{self, single_pattern_of};
use crate::sim_backend::SimBackend;
use crate::stats::QueryStats;

/// A finished query: its result plus what it cost.
#[derive(Debug, Clone)]
pub struct Execution {
    /// The query result (shaped by the query form).
    pub result: QueryResult,
    /// Cost accounting.
    pub stats: QueryStats,
}

/// Errors surfaced by the engine.
#[derive(Debug)]
pub enum EngineError {
    /// The query string did not parse.
    Parse(ParseError),
    /// An overlay operation failed.
    Overlay(OverlayError),
    /// The initiator address names neither an index nor a storage node.
    UnknownInitiator(NodeId),
}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e)
    }
}

impl From<OverlayError> for EngineError {
    fn from(e: OverlayError) -> Self {
        EngineError::Overlay(e)
    }
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::Overlay(e) => write!(f, "{e}"),
            EngineError::UnknownInitiator(n) => write!(f, "unknown initiator {n}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Frequency-based cardinality estimates from location-table lookups.
///
/// The paper's Table I frequencies are exactly the statistics a planner
/// needs: the sum of provider frequencies for a pattern's key estimates
/// how many triples match it system-wide.
pub struct FrequencyEstimator {
    estimates: HashMap<TriplePattern, u64>,
    /// Estimate for patterns with no usable key (must flood).
    pub default: u64,
}

impl FrequencyEstimator {
    /// An estimator over pre-fetched `(pattern, located)` pairs.
    pub fn new(entries: impl IntoIterator<Item = (TriplePattern, u64)>, default: u64) -> Self {
        FrequencyEstimator { estimates: entries.into_iter().collect(), default }
    }
}

impl CardinalityEstimator for FrequencyEstimator {
    fn estimate(&self, pattern: &TriplePattern) -> u64 {
        self.estimates.get(pattern).copied().unwrap_or(self.default)
    }
}

/// The distributed query engine: parse → optimize → compile → execute
/// through a [`SimBackend`] → post-process. Borrows the overlay mutably
/// so the backend can purge stale index entries when storage nodes time
/// out (Sect. III-D).
pub struct Engine<'a> {
    backend: SimBackend<'a>,
}

impl<'a> Engine<'a> {
    /// Creates an engine over the overlay with the given configuration.
    pub fn new(overlay: &'a mut Overlay, cfg: ExecConfig) -> Self {
        Engine { backend: SimBackend::new(overlay, cfg) }
    }

    /// Like [`Engine::new`], but with the initiator's [`QueryCache`]
    /// attached: index lookups consult the routing and provider-set
    /// layers first, unfiltered primitive patterns may be served from
    /// the result cache, and the initiator is subscribed to the
    /// overlay's invalidation notifications. Every layer is on while a
    /// cache is attached; the cache's own `CacheConfig` sizes each one.
    pub fn with_cache(overlay: &'a mut Overlay, cfg: ExecConfig, cache: &'a mut QueryCache) -> Self {
        Engine { backend: SimBackend::with_cache(overlay, cfg, cache) }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ExecConfig {
        &self.backend.cfg
    }

    /// Parses, optimizes and executes a SPARQL query submitted at
    /// `initiator` (an index or storage node address).
    pub fn execute(&mut self, initiator: NodeId, query: &str) -> Result<Execution, EngineError> {
        let algebra = rdfmesh_sparql::parse_query(query)?;
        self.execute_algebra(initiator, &algebra)
    }

    /// Like [`Engine::execute`], but records the query lifecycle in a
    /// [`rdfmesh_obs::QueryTrace`]: every phase becomes a span, every
    /// inter-site message charges its bytes to the enclosing phase, and
    /// the trace's per-phase breakdown sums exactly to the returned
    /// [`QueryStats`] totals (same bytes, same response time).
    pub fn execute_traced(
        &mut self,
        initiator: NodeId,
        query: &str,
    ) -> Result<(Execution, rdfmesh_obs::QueryTrace), EngineError> {
        let trace = rdfmesh_obs::QueryTrace::new();
        let guard = rdfmesh_obs::set_current(trace.clone());
        // Parsing runs locally at the initiator: zero simulated time,
        // zero bytes — the span records that the phase happened.
        let span = rdfmesh_obs::begin_current(phase::PARSE, query.lines().next().unwrap_or(""), 0);
        let parsed = rdfmesh_sparql::parse_query(query);
        rdfmesh_obs::end_current(span, 0);
        let execution = self.execute_algebra(initiator, &parsed?)?;
        drop(guard);
        trace.finish(execution.stats.response_time.0);
        Ok((execution, trace))
    }

    /// Plans the primitive strategy from location-table statistics for
    /// the given objective (the Sect. V future-work optimizer), then
    /// executes. Returns the execution together with the plan that was
    /// chosen; the planning lookups are included in the reported costs.
    pub fn execute_with_objective(
        &mut self,
        initiator: NodeId,
        query: &str,
        objective: crate::planner::PlanObjective,
    ) -> Result<(Execution, crate::planner::Plan), EngineError> {
        let algebra = rdfmesh_sparql::parse_query(query)?;
        self.backend.check_initiator(initiator)?;
        self.backend.initiator = initiator;
        let entry = self.backend.entry_index(initiator)?;
        let before = self.backend.overlay.net.stats();
        let peer = self
            .backend
            .overlay
            .index_nodes()
            .into_iter()
            .find(|&n| n != entry)
            .unwrap_or(entry);
        let latency = if peer == entry {
            SimTime::millis(1)
        } else {
            self.backend.overlay.net.latency(entry, peer)
        };
        let bandwidth = self.backend.overlay.net.bandwidth();
        let plan = crate::planner::plan(
            self.backend.overlay,
            entry,
            &algebra.pattern,
            objective,
            self.backend.cfg,
            latency,
            bandwidth,
        )?;
        let planning = before.delta(&self.backend.overlay.net.stats());
        let saved = self.backend.cfg;
        self.backend.cfg = plan.config;
        let result = self.execute_algebra(initiator, &algebra);
        self.backend.cfg = saved;
        let mut execution = result?;
        execution.stats.absorb_net(&planning);
        Ok((execution, plan))
    }

    /// Executes an already-translated query: optimize, compile to an
    /// [`crate::exec::ExecPlan`], run the plan through the simulated
    /// backend, post-process at the initiator.
    pub fn execute_algebra(
        &mut self,
        initiator: NodeId,
        query: &AlgebraQuery,
    ) -> Result<Execution, EngineError> {
        self.backend.check_initiator(initiator)?;
        self.backend.initiator = initiator;
        self.backend.stats = QueryStats::default();
        self.backend.dataset_graphs = query.dataset.default.clone();
        if self.backend.cache.is_some() {
            // Row-change notifications from index nodes flow to this
            // initiator from now on (idempotent).
            self.backend.overlay.subscribe_cache(initiator);
        }
        let before = self.backend.overlay.net.stats();

        // Global query optimization (Fig. 3): algebraic rewrites, with
        // join ordering driven by location-table frequencies when enabled.
        // The optimize span takes zero simulated time itself; the
        // frequency pre-fetch opens nested key-resolution spans that
        // carry the lookup traffic.
        let span = rdfmesh_obs::begin_current(phase::OPTIMIZE, "rewrites + join ordering", 0);
        let mut pattern = query.pattern.clone();
        let optimize = (|| -> Result<GraphPattern, EngineError> {
            if self.backend.cfg.frequency_join_order {
                let estimator = self.backend.build_frequency_estimator(&pattern)?;
                Ok(optimizer::optimize_with(
                    pattern.clone(),
                    &self.backend.cfg.optimizer,
                    &estimator,
                ))
            } else {
                Ok(optimizer::optimize(pattern.clone(), &self.backend.cfg.optimizer))
            }
        })();
        rdfmesh_obs::end_current(span, 0);
        pattern = optimize?;
        let metrics = rdfmesh_obs::metrics();
        if metrics.is_enabled() {
            metrics.add("engine.queries", 1);
        }

        // ASK fast path: a single-pattern existence test stops at the
        // first provider that produces a witness instead of gathering
        // every match in the system. Everything else is the tail every
        // backend shares: distributed evaluation, delivery to the
        // initiator, post-processing there.
        let ask = matches!(query.form, QueryForm::Ask).then(|| single_pattern_of(&pattern));
        let (result, ready) = match ask.flatten() {
            Some((tp, filter)) => {
                let (answer, ready) = self.backend.ask_primitive(tp, filter)?;
                (QueryResult::Boolean(answer), ready)
            }
            None => {
                let cfg = self.backend.cfg;
                exec::answer(&mut self.backend, query, &pattern, &cfg)?
            }
        };
        self.backend.stats.response_time = ready;
        self.backend.stats.result_size = result.len();
        self.backend
            .stats
            .absorb_net(&before.delta(&self.backend.overlay.net.stats()));
        rdfmesh_obs::advance_current(phase::POST_PROCESS, self.backend.stats.response_time.0);
        rdfmesh_obs::count_current("result_size", result.len() as u64);
        self.finish_query();
        Ok(Execution { result, stats: self.backend.stats.clone() })
    }

    /// End-of-query bookkeeping: records the response time in the
    /// metrics registry and advances the attached cache's clock past this
    /// query (response time plus 1 ms think time), so routing TTLs age
    /// across queries even though each query's network clock restarts at
    /// zero.
    fn finish_query(&mut self) {
        let rt = self.backend.stats.response_time;
        let metrics = rdfmesh_obs::metrics();
        if metrics.is_enabled() {
            metrics.observe(names::ENGINE_RESPONSE_TIME_US, rt.0);
        }
        if let Some(cache) = self.backend.cache.as_mut() {
            cache.advance_clock(rt + SimTime::millis(1));
        }
    }
}

/// Builds a single [`TripleStore`] holding the union of every storage
/// node's triples — the oracle dataset ("the union of all triples stored
/// in all storage nodes", Sect. IV-A) used to validate distributed
/// results against local evaluation.
pub fn global_store(overlay: &Overlay) -> TripleStore {
    let mut store = TripleStore::new();
    for addr in overlay.storage_nodes() {
        if let Some(node) = overlay.storage_node(addr) {
            for t in node.store.iter() {
                store.insert(&t);
            }
        }
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfmesh_rdf::{Term, TermPattern, Variable};
    use rdfmesh_sparql::solution::{DistinctBuffer, Solution};

    fn sol(pairs: &[(&str, &str)]) -> Solution {
        Solution::from_pairs(
            pairs.iter().map(|(v, t)| (Variable::new(*v), Term::iri(&format!("http://e/{t}")))),
        )
    }

    #[test]
    fn distinct_accumulation_drops_exact_duplicates_only() {
        let mut acc = DistinctBuffer::new();
        acc.push(sol(&[("x", "a")]));
        acc.extend_distinct(vec![sol(&[("x", "a")]), sol(&[("x", "b")])]);
        assert_eq!(acc.into_vec(), vec![sol(&[("x", "a")]), sol(&[("x", "b")])]);
    }

    #[test]
    fn frequency_estimator_falls_back_to_default() {
        let tp = TriplePattern::new(
            TermPattern::var("s"),
            Term::iri("http://e/p"),
            TermPattern::var("o"),
        );
        let est = FrequencyEstimator::new([(tp.clone(), 7u64)], 99);
        use rdfmesh_sparql::CardinalityEstimator as _;
        assert_eq!(est.estimate(&tp), 7);
        let other = TriplePattern::new(
            TermPattern::var("s"),
            Term::iri("http://e/q"),
            TermPattern::var("o"),
        );
        assert_eq!(est.estimate(&other), 99);
    }
}
