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
use rdfmesh_obs::{names, phase, QueryTrace};
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
use crate::planner::{self, PatternRow, Plan, PlanObjective};
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
        Ok(self.execute_traced(initiator, query)?.0)
    }

    /// Like [`Engine::execute`], but also returns the query's
    /// [`QueryTrace`]: every phase a span, every inter-site message charged
    /// to the enclosing phase. The trace is the query's only account — the
    /// returned [`QueryStats`] are read from it.
    pub fn execute_traced(
        &mut self,
        initiator: NodeId,
        query: &str,
    ) -> Result<(Execution, QueryTrace), EngineError> {
        let (execution, _, trace) = self.run(initiator, query, None)?;
        Ok((execution, trace))
    }

    /// Plans the primitive strategy from location-table statistics for
    /// the given objective (the Sect. V future-work optimizer), then
    /// executes. Returns the execution together with the plan that was
    /// chosen. Planning reads each pattern's row once, and the join
    /// orderer is handed the same rows, so the reported costs are those
    /// of the chosen strategy's run.
    pub fn execute_with_objective(
        &mut self,
        initiator: NodeId,
        query: &str,
        objective: PlanObjective,
    ) -> Result<(Execution, Plan), EngineError> {
        let (execution, plan, _) = self.run(initiator, query, Some(objective))?;
        Ok((execution, plan.expect("an objective run plans")))
    }

    /// Runs one query under a fresh [`QueryTrace`], its only account:
    /// `query` is parsed inside the trace, planned (for `objective`, when
    /// given) and answered, and the trace, finished at the response time,
    /// is read into the execution's [`QueryStats`].
    fn run(
        &mut self,
        initiator: NodeId,
        query: &str,
        objective: Option<PlanObjective>,
    ) -> Result<(Execution, Option<Plan>, QueryTrace), EngineError> {
        let trace = QueryTrace::new();
        let guard = rdfmesh_obs::set_current(trace.clone());
        let query = parse(query)?;
        self.backend.check_initiator(initiator)?;
        self.backend.initiator = initiator;
        self.backend.dataset_graphs = query.dataset.default.clone();
        if self.backend.cache.is_some() {
            // Row-change notifications from index nodes flow to this
            // initiator from now on (idempotent).
            self.backend.overlay.subscribe_cache(initiator);
        }
        let saved = self.backend.cfg;
        let answered = self.answer(&query, objective);
        self.backend.cfg = saved;
        let (result, ready, plan) = answered?;
        rdfmesh_obs::advance_current(phase::POST_PROCESS, ready.0);
        rdfmesh_obs::count_current("result_size", result.len() as u64);
        drop(guard);
        trace.finish(ready.0);
        let stats = QueryStats::from_trace(&trace);
        self.finish_query(stats.response_time);
        Ok((Execution { result, stats }, plan, trace))
    }

    /// Optimizes and answers `query` at the initiator under the query's
    /// trace. Global query optimization (Fig. 3) is algebraic rewrites,
    /// with joins ordered by location-table frequencies when enabled; the
    /// optimize span takes zero simulated time itself, while the
    /// statistics pass opens nested key-resolution spans that carry the
    /// lookup traffic. The pass runs once, and an objective's plan and
    /// the join orderer share its rows.
    fn answer(
        &mut self,
        query: &AlgebraQuery,
        objective: Option<PlanObjective>,
    ) -> Result<(QueryResult, SimTime, Option<Plan>), EngineError> {
        let span = rdfmesh_obs::begin_current(phase::OPTIMIZE, "rewrites + join ordering", 0);
        let optimized = self.optimize(&query.pattern, objective);
        rdfmesh_obs::end_current(span, 0);
        let (pattern, plan) = optimized?;
        rdfmesh_obs::metrics().add("engine.queries", 1);

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
        Ok((result, ready, plan))
    }

    /// The statistics pass, the plan and the rewrites: reads the rows when
    /// an objective or the join orderer needs them, plans the objective's
    /// configuration from them (which the query then runs under), and
    /// orders joins by them.
    fn optimize(
        &mut self,
        pattern: &GraphPattern,
        objective: Option<PlanObjective>,
    ) -> Result<(GraphPattern, Option<Plan>), EngineError> {
        let rows = if objective.is_some() || self.backend.cfg.frequency_join_order {
            self.backend.statistics(pattern)?
        } else {
            Vec::new()
        };
        let plan = objective.map(|objective| self.plan(&rows, objective)).transpose()?;
        if let Some(plan) = &plan {
            self.backend.cfg = plan.config;
        }
        let cfg = &self.backend.cfg;
        if !cfg.frequency_join_order {
            return Ok((optimizer::optimize(pattern.clone(), &cfg.optimizer), plan));
        }
        // An all-variable pattern has no row: worst case, schedule it last.
        let keyless = rows.iter().any(|(_, row)| row.is_none());
        let estimator = FrequencyEstimator::new(
            rows.into_iter().filter_map(|(tp, row)| Some((tp, row?.iter().sum()))),
            if keyless { u64::MAX / 2 } else { 1 },
        );
        Ok((optimizer::optimize_with(pattern.clone(), &cfg.optimizer, &estimator), plan))
    }

    /// Prices the query's rows for `objective` on the initiator's view of
    /// the network: the latency from its entry index node to another index
    /// node, and the link bandwidth.
    fn plan(&self, rows: &[PatternRow], objective: PlanObjective) -> Result<Plan, EngineError> {
        let entry = self.backend.entry_index(self.backend.initiator)?;
        let net = &self.backend.overlay.net;
        let peer = self.backend.overlay.index_nodes().into_iter().find(|&n| n != entry);
        let latency = peer.map_or(SimTime::millis(1), |peer| net.latency(entry, peer));
        Ok(planner::plan(rows, objective, self.backend.cfg, latency, net.bandwidth()))
    }

    /// End-of-query bookkeeping: records the response time in the
    /// metrics registry and advances the attached cache's clock past this
    /// query (response time plus 1 ms think time), so routing TTLs age
    /// across queries even though each query's network clock restarts at
    /// zero.
    fn finish_query(&mut self, rt: SimTime) {
        rdfmesh_obs::metrics().observe(names::ENGINE_RESPONSE_TIME_US, rt.0);
        if let Some(cache) = self.backend.cache.as_mut() {
            cache.advance_clock(rt + SimTime::millis(1));
        }
    }
}

/// Parses a query inside the current trace: parsing runs locally at the
/// initiator, zero simulated time and zero bytes — the span records that
/// the phase happened.
fn parse(query: &str) -> Result<AlgebraQuery, ParseError> {
    let span = rdfmesh_obs::begin_current(phase::PARSE, query.lines().next().unwrap_or(""), 0);
    let parsed = rdfmesh_sparql::parse_query(query);
    rdfmesh_obs::end_current(span, 0);
    parsed
}

/// Builds a single [`TripleStore`] holding the union of every storage
/// node's triples — the oracle dataset ("the union of all triples stored
/// in all storage nodes", Sect. IV-A) used to validate distributed
/// results against local evaluation.
pub fn global_store(overlay: &Overlay) -> TripleStore {
    let mut store = TripleStore::new();
    for addr in overlay.storage_nodes() {
        if let Some(node) = overlay.storage_node(addr) {
            node.store.for_each_triple(|t| { store.insert(&t.to_triple()); });
        }
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfmesh_rdf::{Term, TermPattern, Variable};
    use rdfmesh_sparql::{Rows, Solution};

    fn sol(pairs: &[(&str, &str)]) -> Solution {
        Solution::from_pairs(
            pairs.iter().map(|(v, t)| (Variable::new(*v), Term::iri(&format!("http://e/{t}")))),
        )
    }

    #[test]
    fn distinct_accumulation_drops_exact_duplicates_only() {
        let mut acc = Rows::from_solutions(&[sol(&[("x", "a")])]);
        acc.append(Rows::from_solutions(&[sol(&[("x", "a")]), sol(&[("x", "b")])]));
        assert_eq!(acc.distinct(), vec![sol(&[("x", "a")]), sol(&[("x", "b")])]);
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
