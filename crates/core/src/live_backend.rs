//! The [`MeshBackend`] that runs plans on the thread-backed live mesh.
//!
//! [`crate::SimBackend`] executes a compiled [`crate::ExecPlan`] against
//! the deterministic simulator; this module executes the *same plan*
//! against the live mesh's real threads, sockets and processes, through
//! [`RoundClient`] — the one [`SolutionRounds`] implementation both hosts
//! share. That is what takes the live mesh from single-pattern rounds to
//! full SPARQL: conjunctive patterns, UNION / OPTIONAL, FILTER pushdown,
//! DISTINCT and the other solution modifiers.
//!
//! The division of labour mirrors the paper's Fig. 3 on a real
//! transport:
//!
//! * every plan primitive becomes one live *solution round*
//!   ([`RoundClient::query_solutions`]): the coordinator resolves providers
//!   through the two-level index, ships the pattern (with its
//!   pushed-down filter), and gathers solution mappings under the
//!   fault-tolerant ack/retry/purge machinery of [`crate::live`];
//! * a bind-join chain step is `exec::bind_step`, the one the simulator
//!   takes too: the round ([`SolutionRounds::keyed_round`]) is handed the
//!   current intermediates' *join keys*, one id batch, and gets back
//!   their compatible extensions (Sect. IV-D), which are joined back onto
//!   the rows kept here. Which side travels is the
//!   coordinator's choice per provider (move-small, by the index row's
//!   frequencies: the keys, or the provider's matches joined with the
//!   keys at the coordinator); the answer is the same set either way;
//! * binary operators (JOIN / UNION / OPTIONAL) combine gathered sets
//!   locally at the coordinator — the live mesh has no simulated-cost
//!   notion of a cheaper third site, so the query site is always the
//!   assembly site;
//! * delivery and post-processing are [`exec::answer`]'s, the tail the
//!   simulator runs too — so DESCRIBE fetches its resources' triples
//!   through further rounds, counted and fault-reported like the rest.
//!
//! Faults surface in the result instead of hanging the query: a crashed
//! provider makes the affected round — and therefore the whole
//! [`LiveExecution`] — report `complete == false` and name the failed
//! providers, while still returning every solution that survived.
//! `docs/EXECUTION.md` tabulates these sim-vs-live semantic differences.

use std::time::Duration;

use rdfmesh_net::{NodeId, SimTime};
use rdfmesh_rdf::{TriplePattern, Variable};
use rdfmesh_sparql::{solution, Expression, QueryResult, Rows};

use crate::config::{DistStrategy, ExecConfig};
use crate::exec::{self, Mat, MeshBackend, OpKind, PrimitiveOp};
use crate::live::{LiveAnswer, RoundClient, COORDINATOR};

/// Anything that can resolve one live *solution round*. [`RoundClient`]
/// is the implementation — the loopback [`crate::LiveMesh`] and the serve-mode
/// [`crate::MeshNode`] each own one — so [`LiveBackend`], and through it
/// the whole Fig. 3 pipeline, runs unchanged on threads, loopback
/// sockets, and multi-process deployments (`docs/DEPLOYMENT.md`). The
/// trait stays a seam for wrappers that observe rounds from outside
/// (the repo benchmark's tracing wrapper).
pub trait SolutionRounds {
    /// Resolves `pattern` into solution mappings through the live
    /// protocol, extending `bound` intermediates when given and applying
    /// `filter` at the providers. Blocks up to `wait`; `None` means the
    /// caller-side wait expired first.
    fn solution_round(
        &self,
        pattern: TriplePattern,
        filter: Option<Expression>,
        bound: Option<Vec<solution::Solution>>,
        wait: Duration,
    ) -> Option<LiveAnswer>;

    /// A bind step's keyed round: resolves `pattern` extending the join
    /// `keys`, handed over as the id batch the step built. [`RoundClient`]
    /// submits the batch as it is, so the coordinator joins a fetched
    /// provider's matches with it directly and turns it into
    /// [`Solution`](solution::Solution)s only for a provider it ships the
    /// keys to. This default body converts the batch and takes
    /// [`SolutionRounds::solution_round`]; it exists only because the
    /// repo benchmark's tracing wrapper implements this trait without the
    /// method, and goes when that wrapper does.
    fn keyed_round(&self, pattern: TriplePattern, keys: Rows, wait: Duration) -> Option<LiveAnswer> {
        self.solution_round(pattern, None, Some(keys.into_solutions()), wait)
    }

    /// Resolves a whole multi-pattern BGP in one distributed round —
    /// HyperCube shuffle or partial-evaluation-and-assembly — through
    /// the live protocol. Blocks up to `wait`; `None` means the
    /// caller-side wait expired first.
    fn multiway_round(
        &self,
        patterns: Vec<TriplePattern>,
        join_vars: Vec<Variable>,
        strategy: DistStrategy,
        wait: Duration,
    ) -> Option<LiveAnswer>;
}

impl SolutionRounds for RoundClient {
    fn solution_round(
        &self,
        pattern: TriplePattern,
        filter: Option<Expression>,
        bound: Option<Vec<solution::Solution>>,
        wait: Duration,
    ) -> Option<LiveAnswer> {
        self.query_solutions(pattern, filter, bound, wait)
    }

    fn keyed_round(&self, pattern: TriplePattern, keys: Rows, wait: Duration) -> Option<LiveAnswer> {
        self.submit_keyed(pattern, None, Some(keys)).wait(wait)
    }

    fn multiway_round(
        &self,
        patterns: Vec<TriplePattern>,
        join_vars: Vec<Variable>,
        strategy: DistStrategy,
        wait: Duration,
    ) -> Option<LiveAnswer> {
        self.query_multiway(patterns, join_vars, strategy, wait)
    }
}

/// Why a live execution failed outright (as opposed to completing with
/// `complete == false`, which is a *partial answer*, not an error).
#[derive(Debug, Clone, PartialEq)]
pub enum LiveError {
    /// The query text did not parse.
    Parse(rdfmesh_sparql::ParseError),
    /// The query carries the named dataset clause. The mesh's peers
    /// publish no graph IRI, so it cannot scope a query as the simulator
    /// does (`SimBackend::in_scope`) — and answering over every provider
    /// instead would be a wrong answer, not a partial one.
    Dataset(String),
    /// A solution round outlived the caller-side wait — the protocol's
    /// own deadlines should answer long before this fires, so a timeout
    /// means the mesh was shut down or the wait was set below
    /// [`crate::LiveConfig::query_deadline`].
    Timeout,
    /// Admission control turned the query away: the in-flight window
    /// and the wait queue were both full (or the queue wait outlived
    /// the deadline). The query consumed no coordinator state and no
    /// provider rounds; the endpoint maps this to HTTP 503 with the
    /// suggested `Retry-After`.
    Overloaded {
        /// How long the client should back off before resubmitting.
        retry_after: Duration,
    },
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::Parse(e) => write!(f, "live query parse error: {e}"),
            LiveError::Dataset(clause) => write!(
                f,
                "the live mesh publishes no named graphs and cannot scope a query to `{clause}`"
            ),
            LiveError::Timeout => write!(f, "live query timed out waiting for a solution round"),
            LiveError::Overloaded { retry_after } => write!(
                f,
                "live mesh overloaded; retry after {:.1}s",
                retry_after.as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for LiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LiveError::Parse(e) => Some(e),
            LiveError::Dataset(_) | LiveError::Timeout | LiveError::Overloaded { .. } => None,
        }
    }
}

impl From<rdfmesh_sparql::ParseError> for LiveError {
    fn from(e: rdfmesh_sparql::ParseError) -> Self {
        LiveError::Parse(e)
    }
}

/// What one full query run on the live mesh produced.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveExecution {
    /// The post-processed result (solutions / boolean / graph).
    pub result: QueryResult,
    /// `true` iff every solution round completed with every selected
    /// provider answering in time.
    pub complete: bool,
    /// Providers that failed during any round (deduplicated, sorted).
    pub failed_providers: Vec<NodeId>,
    /// Solution rounds issued — one per plan primitive or bound
    /// sub-query.
    pub rounds: u64,
}

/// Executes [`crate::ExecPlan`]s by issuing live solution rounds.
///
/// One backend drives one query: it accumulates the rounds' fault
/// reports so the final [`LiveExecution`] can say exactly how much of
/// the answer survived.
pub struct LiveBackend<'a> {
    mesh: &'a dyn SolutionRounds,
    wait: Duration,
    complete: bool,
    failed: Vec<NodeId>,
    rounds: u64,
}

impl<'a> LiveBackend<'a> {
    /// A backend issuing rounds on `mesh` (any [`SolutionRounds`]
    /// implementation), blocking up to `wait` per round for the
    /// caller-side wait (the protocol's own deadlines answer well before
    /// a generous `wait`).
    pub fn new(mesh: &'a dyn SolutionRounds, wait: Duration) -> Self {
        LiveBackend { mesh, wait, complete: true, failed: Vec::new(), rounds: 0 }
    }

    /// Books one round's outcome — a caller-side timeout, or the fault
    /// report the answer carries — and materializes its solutions at the
    /// coordinator.
    fn absorb(&mut self, answer: Option<LiveAnswer>) -> Result<Mat, LiveError> {
        self.rounds += 1;
        let answer = answer.ok_or(LiveError::Timeout)?;
        self.complete &= answer.complete;
        for p in answer.failed_providers {
            if !self.failed.contains(&p) {
                self.failed.push(p);
            }
        }
        Ok(Mat { solutions: answer.solutions, site: COORDINATOR, ready: SimTime::ZERO })
    }
}

impl MeshBackend for LiveBackend<'_> {
    type Error = LiveError;

    fn home(&self) -> NodeId {
        COORDINATOR
    }

    /// Site hints and the range index are simulator placement
    /// optimizations; the live mesh always gathers at the coordinator,
    /// so both are ignored (plans are compiled with them disabled).
    fn exec_primitive(
        &mut self,
        op: &PrimitiveOp,
        _depart: SimTime,
        _hint: Option<NodeId>,
        _use_range: bool,
    ) -> Result<Mat, LiveError> {
        let (pattern, filter) = (op.pattern.clone(), op.filter.clone());
        let answer = self.mesh.solution_round(pattern, filter, None, self.wait);
        self.absorb(answer)
    }

    /// The shared bind step, its keyed round one live solution round
    /// that carries the key batch as it is.
    fn exec_bound(&mut self, pattern: &TriplePattern, current: Mat) -> Result<Mat, LiveError> {
        exec::bind_step(pattern, current.solutions, |keys| {
            let answer = self.mesh.keyed_round(pattern.clone(), keys, self.wait);
            self.absorb(answer)
        })
    }

    fn exec_multiway(
        &mut self,
        patterns: &[TriplePattern],
        join_vars: &[Variable],
        strategy: DistStrategy,
        _depart: SimTime,
    ) -> Result<Mat, LiveError> {
        let answer =
            self.mesh.multiway_round(patterns.to_vec(), join_vars.to_vec(), strategy, self.wait);
        self.absorb(answer)
    }

    fn exec_binary(&mut self, op: &OpKind, left: Mat, right: Mat) -> Mat {
        let solutions = op.apply(left.solutions, right.solutions);
        Mat { solutions, site: COORDINATOR, ready: SimTime::ZERO }
    }

    /// The live mesh has no third-site placement: everything assembles
    /// at the coordinator, so there is never a common site to propose.
    fn exec_common_site(
        &mut self,
        _a: &TriplePattern,
        _b: &TriplePattern,
    ) -> Result<Option<NodeId>, LiveError> {
        Ok(None)
    }

    /// The gathered materialization already lives at the coordinator.
    fn deliver(&mut self, mat: Mat) -> Mat {
        mat
    }
}

/// Parses, optimizes, compiles and executes a full SPARQL query through
/// live solution rounds on any [`SolutionRounds`] mesh — the complete
/// Fig. 3 pipeline over a real transport. `cfg` carries the conjunctive
/// strategy ([`ExecConfig::bind_join`]) and the distribution strategy for
/// multi-pattern BGPs ([`ExecConfig::dist`]: chained shipping, HyperCube
/// shuffle, partial-evaluation-and-assembly, or shape-driven `Auto`).
/// Placement-dependent knobs (`overlap_aware`, `range_index`) are forced
/// off: they are simulator cost-model optimizations with no live
/// equivalent. `wait` bounds the caller-side wait per solution round;
/// set it comfortably above [`crate::LiveConfig::query_deadline`].
pub fn live_execute_with(
    mesh: &dyn SolutionRounds,
    query: &str,
    cfg: &ExecConfig,
    wait: Duration,
) -> Result<LiveExecution, LiveError> {
    let parsed = rdfmesh_sparql::parse_query(query)?;
    let dataset = &parsed.dataset;
    let named = dataset.named.first().map(|g| format!("FROM NAMED {g}"));
    if let Some(clause) = dataset.default.first().map(|g| format!("FROM {g}")).or(named) {
        return Err(LiveError::Dataset(clause));
    }
    // Placement-dependent decisions (overlap hints, range probing) are
    // meaningless on a live transport; compile them out so the plan
    // contains only what the live protocol implements.
    let cfg = ExecConfig { overlap_aware: false, range_index: false, ..*cfg };
    let pattern = rdfmesh_sparql::optimize(parsed.pattern.clone(), &cfg.optimizer);
    let mut backend = LiveBackend::new(mesh, wait);
    let (result, _) = exec::answer(&mut backend, &parsed, &pattern, &cfg)?;
    backend.failed.sort();
    Ok(LiveExecution {
        result,
        complete: backend.complete,
        failed_providers: backend.failed,
        rounds: backend.rounds,
    })
}

impl RoundClient {
    /// Parses, optimizes, compiles and runs a full SPARQL query over the
    /// live protocol with the default [`ExecConfig`] and the given
    /// conjunctive strategy: `bind_join == true` ships intermediates with
    /// each sub-query (Sect. IV-D bound evaluation), `false` gathers each
    /// pattern independently and joins at the coordinator.
    pub fn execute(
        &self,
        query: &str,
        bind_join: bool,
        wait: Duration,
    ) -> Result<LiveExecution, LiveError> {
        self.execute_with(query, &ExecConfig { bind_join, ..ExecConfig::default() }, wait)
    }

    /// [`live_execute_with`] through this client, gated by admission
    /// control: the whole execution holds one permit, and a rejected
    /// query returns [`LiveError::Overloaded`] before allocating any
    /// query id or issuing any round. The full [`ExecConfig`] selects
    /// the distribution strategy (`cfg.dist`) for multi-pattern BGPs.
    pub fn execute_with(
        &self,
        query: &str,
        cfg: &ExecConfig,
        wait: Duration,
    ) -> Result<LiveExecution, LiveError> {
        let _permit = self
            .admission()
            .acquire(self.config().query_deadline)
            .map_err(|retry_after| LiveError::Overloaded { retry_after })?;
        live_execute_with(self, query, cfg, wait)
    }
}
