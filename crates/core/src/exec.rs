//! The backend-agnostic distributed execution core.
//!
//! The paper's pipeline (Fig. 3) separates *what* a query does — resolve
//! primitive patterns against the two-level index, ship sub-queries,
//! combine intermediate solutions — from *where* it runs. This module
//! makes that separation explicit:
//!
//! * [`ExecPlan`] is a small operator IR compiled by
//!   [`crate::planner::compile`] from the optimized algebra. Every
//!   configuration-dependent decision (bind join vs ship-and-join,
//!   overlap-aware chain hints, range-index eligibility, filter
//!   pushdown) is baked into the plan at compile time, so executing a
//!   plan is deterministic given a backend.
//! * [`MeshBackend`] is the contract a mesh must satisfy to execute
//!   plans: resolve one primitive pattern through the two-level index
//!   (shipping the sub-query to the selected providers), run a
//!   bound-pattern sub-query against an intermediate result, combine
//!   two materializations, propose a common assembly site, and deliver
//!   the final materialization to the initiator.
//! * `bind_step` is the one bind join: keys out, extensions joined
//!   back. Both backends hand it the same keyed round — the mesh over its
//!   transport, the simulator on the mesh's own roles over the simulated
//!   network.
//! * [`run`] walks a plan over any backend. The same executor drives
//!   the deterministic simulator ([`crate::engine::Engine`] via
//!   `SimBackend`) and the thread-backed live mesh
//!   ([`crate::live::LiveMesh`] via [`crate::live_backend::LiveBackend`]),
//!   which is what lets the live mesh answer full SPARQL instead of
//!   single-pattern primitives.
//!
//! `docs/EXECUTION.md` documents the IR, the backend contract, and the
//! sim-vs-live semantics table.

use std::cell::RefCell;

use crate::config::{DistStrategy, ExecConfig};
use rdfmesh_net::{NodeId, SimTime};
use rdfmesh_rdf::{TriplePattern, TripleRef, Variable};
use rdfmesh_sparql::{
    algebra::AlgebraQuery,
    eval::{instantiate, Graph},
    expr::{Bindings, Expression},
    GraphPattern, QueryResult, Rows,
};

/// A solution set materialized at a site at a point in simulated time.
#[derive(Debug, Clone)]
pub struct Mat {
    /// The solutions, as one id-row batch — the batch [`answer`] hands
    /// `finalize`, which a SELECT answer leaves as.
    pub solutions: Rows,
    /// Where they currently live.
    pub site: NodeId,
    /// When they are complete at that site.
    pub ready: SimTime,
}

/// One primitive sub-query: a triple pattern with its pushed-down
/// source-side filter (Sect. IV-G) and range-index eligibility.
#[derive(Debug, Clone, PartialEq)]
pub struct PrimitiveOp {
    /// The pattern every selected provider matches locally.
    pub pattern: TriplePattern,
    /// Filter shipped with the sub-query and applied at the sources.
    pub filter: Option<Expression>,
    /// Whether the numeric range index may serve this primitive
    /// (compiled in only for filter-derived primitives under
    /// `ExecConfig::range_index`; a site hint disables it at run time).
    pub try_range: bool,
}

/// A binary operator over two materializations (Sect. II, IV-E/F).
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Natural join on shared variables.
    Join,
    /// Set union of compatible solution sets.
    Union,
    /// Left outer join, optionally guarded by an `OPTIONAL ... FILTER`.
    LeftJoin(Option<Expression>),
}

impl OpKind {
    /// Combines two solution sets standing at one site — the operator
    /// table every backend's [`MeshBackend::exec_binary`] applies once it
    /// has decided where. The oracle, `eval::evaluate_pattern`, applies
    /// the nested-loop definitions (`solution::naive`) instead.
    pub fn apply(&self, mut left: Rows, right: Rows) -> Rows {
        match self {
            OpKind::Join => left.join(&right),
            OpKind::Union => {
                left.append(right);
                left
            }
            OpKind::LeftJoin(None) => left.left_join(&right),
            OpKind::LeftJoin(Some(cond)) => {
                let cond = cond.compile();
                left.left_join_filtered(&right, |m| cond.satisfied_by(m))
            }
        }
    }
}

/// One node of the operator IR. The tree mirrors the optimized algebra,
/// with the engine's execution decisions made explicit.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecNode {
    /// The empty basic graph pattern: one unit solution at the
    /// initiator.
    Unit,
    /// Resolve one primitive pattern through the two-level index.
    Primitive(PrimitiveOp),
    /// One step of a conjunctive (multi-pattern BGP) evaluation: run
    /// `left`, short-circuit on an empty intermediate, then either bind
    /// the next pattern to the intermediate (`bind`, Sect. IV-D's bound
    /// evaluation) or resolve the pattern independently and join.
    Chain {
        /// The accumulated plan for the preceding patterns.
        left: Box<ExecNode>,
        /// The next pattern in optimizer order.
        right: TriplePattern,
        /// Bind join (`bind_step`): the intermediate's distinct join
        /// keys travel with the sub-query, and the extensions that come
        /// back are joined onto the rows the coordinator kept.
        bind: bool,
        /// Overlap optimization: end the right pattern's provider chain
        /// at the intermediate's site (`ExecConfig::overlap_aware`).
        hint_from_left: bool,
    },
    /// An algebra-level binary operator (JOIN / UNION / OPTIONAL).
    Binary {
        /// How the two materializations combine.
        op: OpKind,
        /// Left operand plan.
        left: Box<ExecNode>,
        /// Right operand plan.
        right: Box<ExecNode>,
        /// The Sect. IV-D/IV-F shared-site optimization: both operands
        /// are single primitives, so ask the backend for a common
        /// provider both chains can end at (set only under
        /// `ExecConfig::overlap_aware`).
        common_site: bool,
    },
    /// A residual filter that could not ship with a primitive: applied
    /// to the materialization where it stands (no extra traffic).
    Filter {
        /// The (flattened) filter condition.
        expr: Expression,
        /// The plan producing the filtered materialization.
        input: Box<ExecNode>,
    },
    /// A whole multi-pattern BGP evaluated as one distributed multiway
    /// join (HyperCube shuffle or partial-evaluation-and-assembly)
    /// instead of a chain of sequential rounds. The planner only emits
    /// this node when [`crate::config::ExecConfig::dist`] selects a
    /// non-chained strategy *and* the shape supports it.
    MultiJoin {
        /// Every pattern of the BGP, in optimizer order.
        patterns: Vec<TriplePattern>,
        /// The variables shared by *all* patterns, sorted — the
        /// HyperCube shuffle hashes on these (empty for partial
        /// evaluation of non-star shapes).
        join_vars: Vec<Variable>,
        /// Which multiway strategy executes the node (never
        /// [`DistStrategy::Chained`] — chains compile to
        /// [`ExecNode::Chain`]).
        strategy: DistStrategy,
    },
}

/// An executable plan: the operator tree produced by
/// [`crate::planner::compile`]. Post-processing (projection, DISTINCT,
/// ORDER/LIMIT, result shaping) is the implicit final stage, performed
/// by the orchestrator at the initiator after [`run`] returns — it
/// depends only on the query form, never on the backend.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecPlan {
    /// The root operator.
    pub root: ExecNode,
}

impl ExecPlan {
    /// Number of operator nodes in the plan.
    pub fn node_count(&self) -> usize {
        fn count(n: &ExecNode) -> usize {
            match n {
                ExecNode::Unit | ExecNode::Primitive(_) => 1,
                ExecNode::Chain { left, .. } => 1 + count(left),
                ExecNode::Binary { left, right, .. } => 1 + count(left) + count(right),
                ExecNode::Filter { input, .. } => 1 + count(input),
                ExecNode::MultiJoin { .. } => 1,
            }
        }
        count(&self.root)
    }
}

impl std::fmt::Display for ExecPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn node(n: &ExecNode, f: &mut std::fmt::Formatter<'_>, depth: usize) -> std::fmt::Result {
            let pad = "  ".repeat(depth);
            match n {
                ExecNode::Unit => writeln!(f, "{pad}Unit"),
                ExecNode::Primitive(op) => writeln!(
                    f,
                    "{pad}Primitive {}{}{}",
                    op.pattern,
                    if op.filter.is_some() { " +filter" } else { "" },
                    if op.try_range { " +range" } else { "" },
                ),
                ExecNode::Chain { left, right, bind, hint_from_left } => {
                    writeln!(
                        f,
                        "{pad}Chain {right}{}{}",
                        if *bind { " bind" } else { "" },
                        if *hint_from_left { " hinted" } else { "" },
                    )?;
                    node(left, f, depth + 1)
                }
                ExecNode::Binary { op, left, right, common_site } => {
                    writeln!(
                        f,
                        "{pad}{op:?}{}",
                        if *common_site { " common-site" } else { "" }
                    )?;
                    node(left, f, depth + 1)?;
                    node(right, f, depth + 1)
                }
                ExecNode::Filter { input, .. } => {
                    writeln!(f, "{pad}Filter")?;
                    node(input, f, depth + 1)
                }
                ExecNode::MultiJoin { patterns, join_vars, strategy } => {
                    write!(f, "{pad}MultiJoin[{strategy}] k={}", patterns.len())?;
                    if !join_vars.is_empty() {
                        write!(f, " on")?;
                        for v in join_vars {
                            write!(f, " {v}")?;
                        }
                    }
                    writeln!(f)
                }
            }
        }
        node(&self.root, f, 0)
    }
}

/// The contract between the execution core and a mesh. A backend knows
/// how to locate providers via the two-level index, ship sub-queries,
/// execute them at storage nodes, combine intermediate results, and
/// report what the work cost (hops, bytes, failed providers) through
/// its own statistics channel.
pub trait MeshBackend {
    /// Backend-specific failure type.
    type Error;

    /// The site where the query was submitted and where the final
    /// materialization must be delivered.
    fn home(&self) -> NodeId;

    /// Resolves one primitive sub-query: locate providers through the
    /// two-level index, ship the (optionally filtered) pattern, gather
    /// the providers' solutions. `hint` asks chained strategies to end
    /// their provider sequence at the given site; `use_range` permits
    /// the numeric range index when the op is eligible.
    fn exec_primitive(
        &mut self,
        op: &PrimitiveOp,
        depart: SimTime,
        hint: Option<NodeId>,
        use_range: bool,
    ) -> Result<Mat, Self::Error>;

    /// Resolves a bound-pattern sub-query against the current
    /// intermediate (the bind-join step of Sect. IV-D): every backend
    /// takes `bind_step`, running its keyed round its own way.
    fn exec_bound(&mut self, pattern: &TriplePattern, current: Mat)
        -> Result<Mat, Self::Error>;

    /// Combines two materializations, choosing the join site by the
    /// backend's placement policy and charging any shipping.
    fn exec_binary(&mut self, op: &OpKind, left: Mat, right: Mat) -> Mat;

    /// The Sect. IV-D/IV-F overlap optimization: a provider serving
    /// both patterns, at which both chains should end. `None` when the
    /// provider sets do not intersect (or the backend has no site
    /// notion).
    fn exec_common_site(
        &mut self,
        a: &TriplePattern,
        b: &TriplePattern,
    ) -> Result<Option<NodeId>, Self::Error>;

    /// Evaluates a whole multi-pattern BGP as one distributed multiway
    /// join round ([`ExecNode::MultiJoin`]): HyperCube shuffle across
    /// the provider union, or partial-evaluation-and-assembly. The
    /// returned materialization is the full join of the patterns.
    fn exec_multiway(
        &mut self,
        patterns: &[TriplePattern],
        join_vars: &[Variable],
        strategy: DistStrategy,
        depart: SimTime,
    ) -> Result<Mat, Self::Error>;

    /// Delivers a finished materialization to the initiator, charging
    /// the final transfer.
    fn deliver(&mut self, mat: Mat) -> Mat;
}

/// Executes a plan over a backend. The walk is identical for every
/// backend; only the operator implementations differ.
pub fn run<B: MeshBackend>(
    backend: &mut B,
    plan: &ExecPlan,
    depart: SimTime,
) -> Result<Mat, B::Error> {
    let metrics = rdfmesh_obs::metrics();
    metrics.add(rdfmesh_obs::names::EXEC_PLANS, 1);
    metrics.observe(rdfmesh_obs::names::EXEC_PLAN_NODES, plan.node_count() as u64);
    eval(backend, &plan.root, depart, None)
}

fn eval<B: MeshBackend>(
    backend: &mut B,
    node: &ExecNode,
    depart: SimTime,
    hint: Option<NodeId>,
) -> Result<Mat, B::Error> {
    let metrics = rdfmesh_obs::metrics();
    match node {
        ExecNode::Unit => Ok(Mat {
            solutions: Rows::unit(),
            site: backend.home(),
            ready: depart,
        }),
        ExecNode::Primitive(op) => {
            metrics.add(rdfmesh_obs::names::EXEC_PRIMITIVES, 1);
            // A common-site hint pins the chain end, which bypasses the
            // range-index fast path (the bucketed providers need not
            // include the hinted site).
            if hint.is_some() {
                backend.exec_primitive(op, depart, hint, false)
            } else {
                backend.exec_primitive(op, depart, None, op.try_range)
            }
        }
        ExecNode::Chain { left, right, bind, hint_from_left } => {
            let current = eval(backend, left, depart, None)?;
            if current.solutions.is_empty() {
                // Joining with nothing yields nothing: stop shipping work.
                return Ok(current);
            }
            if *bind {
                metrics.add(rdfmesh_obs::names::EXEC_BOUND_SUBQUERIES, 1);
                backend.exec_bound(right, current)
            } else {
                metrics.add(rdfmesh_obs::names::EXEC_PRIMITIVES, 1);
                metrics.add(rdfmesh_obs::names::EXEC_BINARY_OPS, 1);
                let h = hint_from_left.then_some(current.site);
                let op = PrimitiveOp {
                    pattern: right.clone(),
                    filter: None,
                    try_range: false,
                };
                let r = backend.exec_primitive(&op, depart, h, false)?;
                Ok(backend.exec_binary(&OpKind::Join, current, r))
            }
        }
        ExecNode::Binary { op, left, right, common_site } => {
            metrics.add(rdfmesh_obs::names::EXEC_BINARY_OPS, 1);
            let h = if *common_site {
                match (left.as_ref(), right.as_ref()) {
                    (ExecNode::Primitive(lp), ExecNode::Primitive(rp)) => {
                        backend.exec_common_site(&lp.pattern, &rp.pattern)?
                    }
                    // The compiler only sets `common_site` over two
                    // primitives; anything else skips the optimization.
                    _ => None,
                }
            } else {
                None
            };
            let l = eval(backend, left, depart, h)?;
            let r = eval(backend, right, depart, h)?;
            Ok(backend.exec_binary(op, l, r))
        }
        ExecNode::Filter { expr, input } => {
            metrics.add(rdfmesh_obs::names::EXEC_RESIDUAL_FILTERS, 1);
            let mut mat = eval(backend, input, depart, None)?;
            let expr = expr.compile();
            mat.solutions.retain(|row| expr.satisfied_by(row));
            Ok(mat)
        }
        ExecNode::MultiJoin { patterns, join_vars, strategy } => {
            metrics.add(rdfmesh_obs::names::EXEC_MULTIWAY_JOINS, 1);
            backend.exec_multiway(patterns, join_vars, *strategy, depart)
        }
    }
}

/// The bind step of a conjunctive chain (Sect. IV-D), for every backend.
/// `round` is handed the *join keys* — the distinct projection of `rows`
/// onto the pattern's variables — and answers their compatible
/// extensions: all a provider needs, since each extension binds exactly
/// the pattern's variables. Joining them back onto the rows kept here
/// gives what shipping the rows whole would have — a set, so rows that
/// extend to the same mapping (duplicates, or an OPTIONAL's rows that
/// differ only in what the pattern goes on to bind) are merged. When
/// every row already lies within the pattern's variables the keys *are*
/// the rows and the round's answer is the join.
/// The rows and the keys stay id batches throughout: `round` is handed
/// the key batch itself, which the coordinator joins a fetched
/// provider's matches with as it is, and turns into
/// [`Solution`](rdfmesh_sparql::Solution)s only for the frame of a
/// provider it ships them to.
pub(crate) fn bind_step<E>(
    pattern: &TriplePattern,
    rows: Rows,
    round: impl FnOnce(Rows) -> Result<Mat, E>,
) -> Result<Mat, E> {
    let vars: Vec<Variable> = pattern.variables().into_iter().cloned().collect();
    if rows.iter().all(|row| row.iter().all(|(v, _)| vars.contains(v))) {
        return round(rows.distinct());
    }
    let keys = rows.project(&vars).distinct();
    let Mat { solutions: extensions, site, ready } = round(keys)?;
    Ok(Mat { solutions: rows.join(&extensions).distinct(), site, ready })
}

// ---- the pipeline's tail (Fig. 3), written once ----------------------

/// "The union of all triples stored in all storage nodes" (Sect. IV-A)
/// as the [`Graph`] that [`rdfmesh_sparql::finalize`] reads DESCRIBE's
/// resource triples through: each pattern asked of it is one primitive
/// sub-query on the backend, departing when the last answer was home and
/// delivered to the initiator. Carries that time and the first error (a
/// graph cannot return one; once set, nothing further is asked).
struct MeshGraph<'b, B: MeshBackend>(RefCell<(&'b mut B, SimTime, Option<B::Error>)>);

impl<B: MeshBackend> Graph for MeshGraph<'_, B> {
    fn for_each_match(&self, pattern: &TriplePattern, f: &mut dyn FnMut(TripleRef<'_>)) {
        let (backend, ready, failed) = &mut *self.0.borrow_mut();
        if failed.is_some() {
            return;
        }
        let op = PrimitiveOp { pattern: pattern.clone(), filter: None, try_range: false };
        // The fetch leaves when the rows naming its resource are home.
        let mat = match backend.exec_primitive(&op, *ready, None, false) {
            Ok(mat) => backend.deliver(mat),
            Err(e) => return *failed = Some(e),
        };
        *ready = (*ready).max(mat.ready);
        for triple in mat.solutions.iter().filter_map(|row| instantiate(pattern, &row)) {
            f((&triple).into());
        }
    }
}

/// Answers `query`, whose optimized graph pattern is `pattern`, on any
/// backend: compile, [`run`], deliver to the initiator, post-process
/// there. The one place a plan's materialization becomes a
/// [`QueryResult`] — DESCRIBE's resource fetches included, so they are
/// priced (simulator) or counted as rounds with their faults reported
/// (mesh) like any other primitive. Returns the result and when it
/// stands complete at the initiator.
pub fn answer<B: MeshBackend>(
    backend: &mut B,
    query: &AlgebraQuery,
    pattern: &GraphPattern,
    cfg: &ExecConfig,
) -> Result<(QueryResult, SimTime), B::Error> {
    let plan = crate::planner::compile(pattern, cfg);
    let mat = run(backend, &plan, SimTime::ZERO)?;
    let mat = backend.deliver(mat);
    let mesh = MeshGraph(RefCell::new((backend, mat.ready, None)));
    let result = rdfmesh_sparql::finalize(&mesh, query, mat.solutions);
    let (_, ready, failed) = mesh.0.into_inner();
    failed.map_or(Ok((result, ready)), Err)
}

// ---- shared multiway helpers ----------------------------------------

/// The shuffle target for one solution: an FNV-1a hash of the
/// wire-encoded bindings of the join variables, mod `buckets`.
/// Deterministic across backends and processes, so the sim cost model,
/// the thread mesh, and the socket mesh all partition identically.
/// Solutions that agree on every join variable land in the same bucket,
/// which is what makes the per-target local joins exhaustive.
pub(crate) fn shuffle_partition<B: Bindings + ?Sized>(
    sol: &B,
    join_vars: &[Variable],
    buckets: usize,
) -> usize {
    let mut bytes = Vec::new();
    for v in join_vars {
        match sol.get(v) {
            Some(t) => {
                bytes.push(1);
                rdfmesh_rdf::codec::put_term(&mut bytes, t);
            }
            None => bytes.push(0),
        }
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    (h % buckets.max(1) as u64) as usize
}

/// The variables common to *every* pattern, sorted — the HyperCube hash
/// attributes. Empty when the patterns do not all share a variable.
pub(crate) fn common_join_vars(patterns: &[TriplePattern]) -> Vec<Variable> {
    let Some(first) = patterns.first() else { return Vec::new() };
    let mut common: Vec<Variable> = first.variables().into_iter().cloned().collect();
    for p in &patterns[1..] {
        let vars = p.variables();
        common.retain(|v| vars.contains(&v));
    }
    common.sort();
    common.dedup();
    common
}

// ---- shared algebra-shape helpers -----------------------------------

/// Extracts the single triple pattern (and optional source-side filter)
/// when `pattern` is `BGP(t)` or `Filter(C, BGP(t))` with `C` covered by
/// `t`'s variables.
pub(crate) fn single_pattern_of(
    pattern: &GraphPattern,
) -> Option<(&TriplePattern, Option<&Expression>)> {
    match pattern {
        GraphPattern::Bgp(tps) if tps.len() == 1 => Some((&tps[0], None)),
        GraphPattern::Filter(expr, inner) => match inner.as_ref() {
            GraphPattern::Bgp(tps) if tps.len() == 1 && covers(&tps[0], expr) => {
                Some((&tps[0], Some(expr)))
            }
            _ => None,
        },
        _ => None,
    }
}

/// Whether every variable the filter mentions is bound by the pattern —
/// the condition for shipping the filter to the data sources.
pub(crate) fn covers(tp: &TriplePattern, expr: &Expression) -> bool {
    let vars = tp.variables();
    expr.variables().iter().all(|v| vars.contains(&v))
}

/// Extracts `[lo, hi]` bounds the expression's conjuncts place on `var`
/// via numeric comparisons. Returns `None` when no bound exists (an
/// unbounded filter gains nothing from the range index). One-sided
/// bounds yield infinities on the open side, clamped by the caller.
pub(crate) fn extract_numeric_range(
    expr: &Expression,
    var: &rdfmesh_rdf::Variable,
) -> Option<(f64, f64)> {
    fn walk(
        e: &Expression,
        var: &rdfmesh_rdf::Variable,
        lo: &mut f64,
        hi: &mut f64,
        found: &mut bool,
    ) {
        match e {
            Expression::And(a, b) => {
                walk(a, var, lo, hi, found);
                walk(b, var, lo, hi, found);
            }
            Expression::Compare(op, a, b) => {
                use rdfmesh_sparql::ComparisonOp::*;
                let (v, n, op) = match (a.as_ref(), b.as_ref()) {
                    (Expression::Var(v), Expression::Const(t)) => {
                        (v, t.as_literal().and_then(rdfmesh_rdf::Literal::as_f64), *op)
                    }
                    (Expression::Const(t), Expression::Var(v)) => {
                        // Mirror: c < ?v  ≡  ?v > c, etc.
                        let flipped = match *op {
                            Lt => Gt,
                            Le => Ge,
                            Gt => Lt,
                            Ge => Le,
                            other => other,
                        };
                        (v, t.as_literal().and_then(rdfmesh_rdf::Literal::as_f64), flipped)
                    }
                    _ => return,
                };
                if v != var {
                    return;
                }
                let Some(n) = n else { return };
                match op {
                    Lt | Le => {
                        *hi = hi.min(n);
                        *found = true;
                    }
                    Gt | Ge => {
                        *lo = lo.max(n);
                        *found = true;
                    }
                    Eq => {
                        *lo = lo.max(n);
                        *hi = hi.min(n);
                        *found = true;
                    }
                    Neq => {}
                }
            }
            _ => {}
        }
    }
    let mut lo = f64::NEG_INFINITY;
    let mut hi = f64::INFINITY;
    let mut found = false;
    walk(expr, var, &mut lo, &mut hi, &mut found);
    found.then_some((lo, hi))
}

/// Collects every triple pattern in an algebra tree (frequency
/// pre-fetch for join ordering).
pub(crate) fn collect_patterns(pattern: &GraphPattern, out: &mut Vec<TriplePattern>) {
    match pattern {
        GraphPattern::Bgp(tps) => out.extend(tps.iter().cloned()),
        GraphPattern::Join(a, b) | GraphPattern::Union(a, b) => {
            collect_patterns(a, out);
            collect_patterns(b, out);
        }
        GraphPattern::LeftJoin(a, b, _) => {
            collect_patterns(a, out);
            collect_patterns(b, out);
        }
        GraphPattern::Filter(_, p) => collect_patterns(p, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfmesh_rdf::{Term, TermPattern, Variable};
    use rdfmesh_sparql::Solution;

    fn tp(p: &str) -> TriplePattern {
        TriplePattern::new(
            TermPattern::var("x"),
            Term::iri(&format!("http://e/{p}")),
            TermPattern::var("n"),
        )
    }

    #[test]
    fn single_pattern_of_recognizes_filtered_bgp() {
        let bgp = GraphPattern::Bgp(vec![tp("p")]);
        assert!(single_pattern_of(&bgp).is_some());

        let covered = GraphPattern::Filter(
            Expression::Bound(Variable::new("n")),
            Box::new(GraphPattern::Bgp(vec![tp("p")])),
        );
        let (got, filter) = single_pattern_of(&covered).expect("covered filter");
        assert_eq!(got, &tp("p"));
        assert!(filter.is_some());

        // A filter over variables the pattern does not bind cannot ship.
        let uncovered = GraphPattern::Filter(
            Expression::Bound(Variable::new("zzz")),
            Box::new(GraphPattern::Bgp(vec![tp("p")])),
        );
        assert!(single_pattern_of(&uncovered).is_none());

        // Multi-pattern BGPs are not primitive.
        let multi = GraphPattern::Bgp(vec![tp("p"), tp("p")]);
        assert!(single_pattern_of(&multi).is_none());
    }

    #[test]
    fn covers_requires_all_filter_variables() {
        assert!(covers(&tp("p"), &Expression::Bound(Variable::new("n"))));
        let both = Expression::And(
            Box::new(Expression::Bound(Variable::new("x"))),
            Box::new(Expression::Bound(Variable::new("missing"))),
        );
        assert!(!covers(&tp("p"), &both));
    }

    #[test]
    fn collect_patterns_walks_every_operator() {
        let pattern = GraphPattern::Filter(
            Expression::boolean(true),
            Box::new(GraphPattern::Union(
                Box::new(GraphPattern::Join(
                    Box::new(GraphPattern::Bgp(vec![tp("a")])),
                    Box::new(GraphPattern::Bgp(vec![tp("b")])),
                )),
                Box::new(GraphPattern::LeftJoin(
                    Box::new(GraphPattern::Bgp(vec![tp("c")])),
                    Box::new(GraphPattern::Bgp(vec![tp("d")])),
                    None,
                )),
            )),
        );
        let mut out = Vec::new();
        collect_patterns(&pattern, &mut out);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn plan_display_and_node_count_follow_the_tree() {
        let plan = ExecPlan {
            root: ExecNode::Binary {
                op: OpKind::Union,
                left: Box::new(ExecNode::Primitive(PrimitiveOp {
                    pattern: tp("a"),
                    filter: None,
                    try_range: false,
                })),
                right: Box::new(ExecNode::Chain {
                    left: Box::new(ExecNode::Primitive(PrimitiveOp {
                        pattern: tp("b"),
                        filter: None,
                        try_range: false,
                    })),
                    right: tp("c"),
                    bind: true,
                    hint_from_left: false,
                }),
                common_site: false,
            },
        };
        assert_eq!(plan.node_count(), 4);
        let text = plan.to_string();
        assert!(text.contains("Union"));
        assert!(text.contains("Chain"));
        assert!(text.contains("bind"));
    }

    #[test]
    fn multi_join_counts_as_one_node_and_displays_its_shape() {
        let plan = ExecPlan {
            root: ExecNode::MultiJoin {
                patterns: vec![tp("a"), tp("b"), tp("c")],
                join_vars: vec![Variable::new("x")],
                strategy: DistStrategy::HyperCube,
            },
        };
        assert_eq!(plan.node_count(), 1);
        let text = plan.to_string();
        assert!(text.contains("MultiJoin[hypercube] k=3 on ?x"));
    }

    #[test]
    fn common_join_vars_intersects_and_sorts() {
        // tp() binds ?x and ?n in every pattern.
        assert_eq!(
            common_join_vars(&[tp("a"), tp("b")]),
            vec![Variable::new("n"), Variable::new("x")]
        );
        let disjoint = TriplePattern::new(
            TermPattern::var("other"),
            Term::iri("http://e/q"),
            TermPattern::var("thing"),
        );
        assert!(common_join_vars(&[tp("a"), disjoint]).is_empty());
        assert!(common_join_vars(&[]).is_empty());
    }

    #[test]
    fn shuffle_partition_is_deterministic_and_binding_driven() {
        let a = Solution::from_pairs([(Variable::new("x"), Term::iri("http://e/alice"))]);
        let b = Solution::from_pairs([
            (Variable::new("x"), Term::iri("http://e/alice")),
            (Variable::new("y"), Term::iri("http://e/ignored")),
        ]);
        let vars = [Variable::new("x")];
        // Same join-variable bindings land in the same bucket no matter
        // what else the solution binds.
        for buckets in 1..7 {
            assert_eq!(
                shuffle_partition(&a, &vars, buckets),
                shuffle_partition(&b, &vars, buckets)
            );
            assert!(shuffle_partition(&a, &vars, buckets) < buckets);
        }
        // Hashing on no variables degenerates to a single bucket choice.
        assert_eq!(shuffle_partition(&a, &[], 1), 0);
    }
}
