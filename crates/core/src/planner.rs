//! Cost-based strategy selection — the paper's future work, implemented.
//!
//! Sect. V closes: "We have yet to investigate, in a fully-distributed
//! context, how to process and optimize SPARQL queries in the face of a
//! mixture of such objectives and come up with 'good' query plans."
//!
//! [`plan`] does exactly that: it prices each primitive strategy from the
//! location-table frequencies (the only statistics the system has) and
//! the network's latency/bandwidth parameters, then picks the strategy
//! that minimizes the requested blend of the two objectives. The
//! estimates use the same formulas the executor realizes, so the chosen
//! plan's predicted ranking matches the measured one (validated by §E11
//! and the tests below).

use rdfmesh_net::SimTime;
use rdfmesh_rdf::TriplePattern;
use rdfmesh_sparql::{expr::Expression, GraphPattern, Rows};

use crate::config::{DistChoice, DistStrategy, ExecConfig, PrimitiveStrategy};
use crate::exec::{
    common_join_vars, covers, single_pattern_of, ExecNode, ExecPlan, OpKind, PrimitiveOp,
};
use crate::sim_backend::{forwarding_list_len, solutions_len, subquery_len};
use rdfmesh_rdf::TermPattern;

/// What the planner optimizes for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlanObjective {
    /// Minimize total inter-site bytes.
    MinBytes,
    /// Minimize response time.
    MinResponseTime,
    /// Minimize `w·bytes + (1-w)·time`, both normalized to the worst
    /// candidate. `w = 1` degenerates to [`PlanObjective::MinBytes`],
    /// `w = 0` to [`PlanObjective::MinResponseTime`].
    Balanced(f64),
}

/// Predicted cost of running one strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Predicted inter-site bytes.
    pub bytes: f64,
    /// Predicted response time.
    pub time: SimTime,
}

/// Bytes one solution mapping of a pattern adds to a `Solutions` frame:
/// `1 + 4.6 × vars`. A row binding nothing is the codec's one byte; the
/// slope is the row-weighted least-squares fit through that point of the
/// codec's bytes per row, measured per provider on `exec_golden.rs`'s
/// FOAF (120 persons, 6 peers, seed 2026) and university (4 departments,
/// seed 77) testbeds over every predicate's `(?x p ?y)`, `(?x p o)` for
/// its first three objects, and `(?s ?p ?o)`: 14.6, 11.1 and 13.7 B per
/// row at one, two and three variables. The front-coded terms, not the
/// column count, make up most of a row.
fn solution_bytes(pattern: &TriplePattern) -> f64 {
    1.0 + 4.6 * pattern.variables().len() as f64
}

/// Prices one primitive strategy for a pattern with the given provider
/// frequencies, on a network with uniform `latency` and `bandwidth`
/// (bytes/µs). `to_initiator` charges the final result transfer.
pub fn estimate_primitive(
    strategy: PrimitiveStrategy,
    pattern: &TriplePattern,
    frequencies: &[u64],
    latency: SimTime,
    bandwidth: f64,
) -> CostEstimate {
    let k = frequencies.len();
    if k == 0 {
        return CostEstimate { bytes: 0.0, time: latency };
    }
    let sol = solution_bytes(pattern);
    let total: u64 = frequencies.iter().sum();
    // The frames the simulator charges: the pattern's `SubQuerySol`, and
    // the `Solutions` frame around an empty batch.
    let subquery = subquery_len(pattern, None) as f64;
    let framing = solutions_len(&mut Rows::new()) as f64;
    let wire_time = |bytes: f64| SimTime::micros((bytes / bandwidth).ceil() as u64);
    let lat = latency;

    match strategy {
        PrimitiveStrategy::Basic => {
            // Fan-out: k sub-queries, k result returns, one union to the
            // initiator. Parallel: time = 2 hops + the largest return.
            let returns: f64 = frequencies
                .iter()
                .map(|&f| framing + f as f64 * sol)
                .sum();
            let union_bytes = framing + total as f64 * sol;
            let bytes = k as f64 * subquery + returns + union_bytes;
            let max_return = frequencies.iter().copied().max().unwrap_or(0) as f64 * sol;
            let time = lat + lat + wire_time(max_return) + lat + wire_time(union_bytes);
            CostEstimate { bytes, time }
        }
        PrimitiveStrategy::Chained | PrimitiveStrategy::FrequencyOrdered => {
            let mut order: Vec<u64> = frequencies.to_vec();
            if strategy == PrimitiveStrategy::FrequencyOrdered {
                order.sort();
            }
            // Hop i carries the sub-query, the forwarding list and
            // everything accumulated so far; the final hop ships the full
            // union to the initiator.
            let list = forwarding_list_len(k) as f64;
            let mut bytes = 0.0;
            let mut time = lat; // reach the assembly index node
            let mut acc = 0.0;
            for &f in &order {
                let payload = subquery + list + framing + acc;
                bytes += payload;
                time += lat + wire_time(payload);
                acc += f as f64 * sol;
            }
            let final_bytes = framing + acc;
            bytes += final_bytes;
            time += lat + wire_time(final_bytes);
            CostEstimate { bytes, time }
        }
    }
}

/// The outcome of planning: the chosen configuration and the per-strategy
/// estimates that justified it.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The configuration to execute with.
    pub config: ExecConfig,
    /// `(strategy, estimate)` for every candidate, in [`PrimitiveStrategy::ALL`] order.
    pub candidates: Vec<(PrimitiveStrategy, CostEstimate)>,
}

/// One pattern of a query with its location-table row in the query's
/// dataset: the providers' frequencies, `None` for the keyless pattern.
pub type PatternRow = (TriplePattern, Option<Vec<u64>>);

/// Prices every primitive strategy for the query's location-table rows —
/// each pattern with its providers' frequencies in the query's dataset,
/// as the simulator's statistics pass reads them — and returns the
/// configuration minimizing `objective`. `base` supplies every other knob
/// (join sites, optimizer rules).
pub fn plan(
    rows: &[PatternRow],
    objective: PlanObjective,
    base: ExecConfig,
    latency: SimTime,
    bandwidth: f64,
) -> Plan {
    let mut candidates = Vec::new();
    for strategy in PrimitiveStrategy::ALL {
        let mut bytes = 0.0;
        let mut time = SimTime::ZERO;
        // The all-variable pattern has no row: the same flood cost everywhere.
        for (tp, freqs) in rows.iter().filter_map(|(tp, row)| Some((tp, row.as_ref()?))) {
            let est = estimate_primitive(strategy, tp, freqs, latency, bandwidth);
            bytes += est.bytes;
            // Patterns evaluate in parallel branches but join sequentially
            // in the worst case; summing is the conservative choice.
            time += est.time;
        }
        candidates.push((strategy, CostEstimate { bytes, time }));
    }

    let worst_bytes = candidates.iter().map(|(_, e)| e.bytes).fold(1.0f64, f64::max);
    let worst_time = candidates
        .iter()
        .map(|(_, e)| e.time.as_micros() as f64)
        .fold(1.0f64, f64::max);
    let score = |e: &CostEstimate| -> f64 {
        match objective {
            PlanObjective::MinBytes => e.bytes,
            PlanObjective::MinResponseTime => e.time.as_micros() as f64,
            PlanObjective::Balanced(w) => {
                let w = w.clamp(0.0, 1.0);
                w * e.bytes / worst_bytes + (1.0 - w) * e.time.as_micros() as f64 / worst_time
            }
        }
    };
    let best = candidates
        .iter()
        .min_by(|a, b| score(&a.1).partial_cmp(&score(&b.1)).expect("finite scores"))
        .map(|(s, _)| *s)
        .expect("non-empty candidates");

    let metrics = rdfmesh_obs::metrics();
    metrics.add("planner.plans", 1);
    metrics.add(
        match best {
            PrimitiveStrategy::Basic => "planner.chose.basic",
            PrimitiveStrategy::Chained => "planner.chose.chained",
            PrimitiveStrategy::FrequencyOrdered => "planner.chose.frequency_ordered",
        },
        1,
    );
    Plan { config: ExecConfig { primitive: best, ..base }, candidates }
}

// ---- algebra → operator IR ------------------------------------------

/// Compiles an optimized algebra tree into an executable [`ExecPlan`].
///
/// Compilation is pure — it touches no network — and bakes every
/// configuration-dependent execution decision into the plan:
///
/// * multi-pattern BGPs become left-deep [`ExecNode::Chain`] steps in
///   optimizer order, carrying `ExecConfig::bind_join` (ship the
///   intermediate with the sub-query) and `ExecConfig::overlap_aware`
///   (end the next provider chain at the intermediate's site);
/// * nested filters are flattened into one conjunction; a filter whose
///   variables a single-pattern core binds ships with the sub-query
///   ([`PrimitiveOp::filter`], Sect. IV-G) and is marked range-eligible
///   under `ExecConfig::range_index`, anything else becomes a residual
///   [`ExecNode::Filter`];
/// * algebra JOIN / UNION / OPTIONAL become [`ExecNode::Binary`], with
///   the Sect. IV-D/IV-F common-site probe compiled in exactly when
///   both operands are single primitives under
///   `ExecConfig::overlap_aware`.
pub fn compile(pattern: &GraphPattern, cfg: &ExecConfig) -> ExecPlan {
    ExecPlan { root: compile_node(pattern, cfg) }
}

fn compile_node(pattern: &GraphPattern, cfg: &ExecConfig) -> ExecNode {
    match pattern {
        GraphPattern::Bgp(tps) if tps.is_empty() => ExecNode::Unit,
        GraphPattern::Bgp(tps) if tps.len() == 1 => ExecNode::Primitive(PrimitiveOp {
            pattern: tps[0].clone(),
            filter: None,
            try_range: false,
        }),
        GraphPattern::Bgp(tps) => match select_dist(tps, cfg.dist) {
            DistStrategy::Chained => {
                note_dist_choice(DistStrategy::Chained);
                let mut node = ExecNode::Primitive(PrimitiveOp {
                    pattern: tps[0].clone(),
                    filter: None,
                    try_range: false,
                });
                for tp in &tps[1..] {
                    node = ExecNode::Chain {
                        left: Box::new(node),
                        right: tp.clone(),
                        bind: cfg.bind_join,
                        hint_from_left: cfg.overlap_aware,
                    };
                }
                node
            }
            strategy => {
                note_dist_choice(strategy);
                ExecNode::MultiJoin {
                    patterns: tps.clone(),
                    join_vars: common_join_vars(tps),
                    strategy,
                }
            }
        },
        GraphPattern::Filter(expr, inner) => {
            // Nested filters (the optimizer pushes conjuncts one at a
            // time) are one conjunction over the same core pattern;
            // flatten them so the whole condition ships together.
            let mut combined = expr.clone();
            let mut core: &GraphPattern = inner;
            while let GraphPattern::Filter(e2, deeper) = core {
                combined = Expression::And(Box::new(combined), Box::new(e2.clone()));
                core = deeper;
            }
            if let GraphPattern::Bgp(tps) = core {
                if tps.len() == 1 && covers(&tps[0], &combined) {
                    return ExecNode::Primitive(PrimitiveOp {
                        pattern: tps[0].clone(),
                        filter: Some(combined),
                        try_range: cfg.range_index,
                    });
                }
            }
            ExecNode::Filter { expr: combined, input: Box::new(compile_node(core, cfg)) }
        }
        GraphPattern::Join(a, b) => binary(OpKind::Join, a, b, cfg),
        GraphPattern::LeftJoin(a, b, expr) => binary(OpKind::LeftJoin(expr.clone()), a, b, cfg),
        GraphPattern::Union(a, b) => binary(OpKind::Union, a, b, cfg),
    }
}

/// Selects the distribution strategy for a multi-pattern BGP from its
/// join-graph shape (see `docs/EXECUTION.md` for the matrix):
///
/// * any all-variable pattern floods every provider and is excluded
///   from the multiway protocols — fall back to chained;
/// * HyperCube needs at least one variable common to *all* patterns
///   (partitioning on it routes joinable solutions to one target);
/// * partial evaluation needs a connected join graph (a cartesian
///   product has no cross-site matches to stitch);
/// * `Auto` prefers HyperCube for common-variable (star) shapes,
///   partial evaluation for connected cyclic shapes, chained otherwise.
fn select_dist(tps: &[TriplePattern], choice: DistChoice) -> DistStrategy {
    if tps.len() < 2 || choice == DistChoice::Chained || tps.iter().any(all_variable) {
        return DistStrategy::Chained;
    }
    let star = !common_join_vars(tps).is_empty();
    let (connected, cyclic) = join_graph_shape(tps);
    match choice {
        DistChoice::Chained => DistStrategy::Chained,
        DistChoice::HyperCube if star => DistStrategy::HyperCube,
        DistChoice::PartialEval if connected => DistStrategy::PartialEval,
        DistChoice::Auto if star => DistStrategy::HyperCube,
        DistChoice::Auto if connected && cyclic => DistStrategy::PartialEval,
        _ => DistStrategy::Chained,
    }
}

/// An all-variable (keyless) pattern — unindexable, served by flooding.
fn all_variable(tp: &TriplePattern) -> bool {
    matches!(tp.subject, TermPattern::Var(_))
        && matches!(tp.predicate, TermPattern::Var(_))
        && matches!(tp.object, TermPattern::Var(_))
}

/// `(connected, cyclic)` of the join graph whose nodes are patterns and
/// whose edges link patterns sharing at least one variable. A connected
/// graph with as many edges as nodes (or more) contains a cycle.
fn join_graph_shape(tps: &[TriplePattern]) -> (bool, bool) {
    let n = tps.len();
    let vars: Vec<Vec<&rdfmesh_rdf::Variable>> = tps.iter().map(|t| t.variables()).collect();
    let mut edges = 0usize;
    let mut adj = vec![Vec::new(); n];
    for i in 0..n {
        for j in i + 1..n {
            if vars[i].iter().any(|v| vars[j].contains(v)) {
                edges += 1;
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    let mut seen = vec![false; n];
    let mut stack = vec![0usize];
    seen[0] = true;
    let mut reached = 1;
    while let Some(i) = stack.pop() {
        for &j in &adj[i] {
            if !seen[j] {
                seen[j] = true;
                reached += 1;
                stack.push(j);
            }
        }
    }
    let connected = reached == n;
    (connected, connected && edges >= n)
}

/// Bumps the `exec.strategy.*.chosen` counter for a multi-pattern BGP.
fn note_dist_choice(strategy: DistStrategy) {
    rdfmesh_obs::metrics().add(
        match strategy {
            DistStrategy::Chained => rdfmesh_obs::names::EXEC_STRATEGY_CHAINED,
            DistStrategy::HyperCube => rdfmesh_obs::names::EXEC_STRATEGY_HYPERCUBE,
            DistStrategy::PartialEval => rdfmesh_obs::names::EXEC_STRATEGY_PARTIAL_EVAL,
        },
        1,
    );
}

fn binary(op: OpKind, a: &GraphPattern, b: &GraphPattern, cfg: &ExecConfig) -> ExecNode {
    // The common-site probe fires exactly when the pre-IR engine's
    // `common_site_hints` would have: overlap awareness on and both
    // operands reducible to one (optionally filtered) triple pattern.
    let common_site =
        cfg.overlap_aware && single_pattern_of(a).is_some() && single_pattern_of(b).is_some();
    ExecNode::Binary {
        op,
        left: Box::new(compile_node(a, cfg)),
        right: Box::new(compile_node(b, cfg)),
        common_site,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfmesh_rdf::{Term, TermPattern};

    fn pattern() -> TriplePattern {
        TriplePattern::new(
            TermPattern::var("x"),
            Term::iri("http://xmlns.com/foaf/0.1/knows"),
            Term::iri("http://example.org/t"),
        )
    }

    const LAT: SimTime = SimTime(1000);
    const BW: f64 = 12.5;

    #[test]
    fn basic_is_fastest_with_many_providers() {
        let freqs = [10u64; 8];
        let basic = estimate_primitive(PrimitiveStrategy::Basic, &pattern(), &freqs, LAT, BW);
        let chain = estimate_primitive(PrimitiveStrategy::Chained, &pattern(), &freqs, LAT, BW);
        assert!(basic.time < chain.time);
    }

    #[test]
    fn frequency_ordering_cheapest_bytes_under_skew() {
        let freqs = [500u64, 5, 5, 5];
        let basic = estimate_primitive(PrimitiveStrategy::Basic, &pattern(), &freqs, LAT, BW);
        let freq = estimate_primitive(
            PrimitiveStrategy::FrequencyOrdered,
            &pattern(),
            &freqs,
            LAT,
            BW,
        );
        assert!(freq.bytes < basic.bytes, "freq {} vs basic {}", freq.bytes, basic.bytes);
    }

    #[test]
    fn frequency_ordering_never_worse_than_unsorted_chain() {
        for freqs in [[500u64, 5, 5, 5], [5, 5, 5, 500], [7, 7, 7, 7]] {
            let chain =
                estimate_primitive(PrimitiveStrategy::Chained, &pattern(), &freqs, LAT, BW);
            let freq = estimate_primitive(
                PrimitiveStrategy::FrequencyOrdered,
                &pattern(),
                &freqs,
                LAT,
                BW,
            );
            assert!(freq.bytes <= chain.bytes, "{freqs:?}");
        }
    }

    #[test]
    fn empty_provider_list_costs_one_lookup() {
        let e = estimate_primitive(PrimitiveStrategy::Basic, &pattern(), &[], LAT, BW);
        assert_eq!(e.bytes, 0.0);
        assert_eq!(e.time, LAT);
    }

    #[test]
    fn balanced_objective_interpolates() {
        // Under skew: MinBytes must pick freq-ordered, MinResponseTime
        // must pick basic, and the extreme Balanced weights must agree
        // with them.
        let freqs = vec![400u64, 4, 4, 4, 4];
        let ests: Vec<(PrimitiveStrategy, CostEstimate)> = PrimitiveStrategy::ALL
            .iter()
            .map(|&s| (s, estimate_primitive(s, &pattern(), &freqs, LAT, BW)))
            .collect();
        let by_bytes = ests
            .iter()
            .min_by(|a, b| a.1.bytes.partial_cmp(&b.1.bytes).unwrap())
            .unwrap()
            .0;
        let by_time = ests.iter().min_by_key(|e| e.1.time).unwrap().0;
        assert_eq!(by_bytes, PrimitiveStrategy::FrequencyOrdered);
        assert_eq!(by_time, PrimitiveStrategy::Basic);
    }

    #[test]
    fn fully_bound_pattern_ships_one_byte_solutions() {
        // ASK-shaped pattern: no variables, so each solution mapping is
        // just the codec's one byte per row. Result transfers must
        // reflect that and stay far below a one-variable pattern's cost.
        let bound = TriplePattern::new(
            Term::iri("http://example.org/alice"),
            Term::iri("http://xmlns.com/foaf/0.1/knows"),
            Term::iri("http://example.org/bob"),
        );
        assert_eq!(solution_bytes(&bound), 1.0);
        let freqs = [20u64, 20];
        let b = estimate_primitive(PrimitiveStrategy::Basic, &bound, &freqs, LAT, BW);
        let one_var = estimate_primitive(PrimitiveStrategy::Basic, &pattern(), &freqs, LAT, BW);
        assert!(b.bytes > 0.0);
        assert!(b.bytes < one_var.bytes);
    }

    #[test]
    fn all_variable_pattern_prices_three_bindings_per_solution() {
        // `?s ?p ?o` binds three variables; every matched triple ships
        // three terms, the most expensive per-solution shape there is.
        let all = TriplePattern::new(
            TermPattern::var("s"),
            TermPattern::var("p"),
            TermPattern::var("o"),
        );
        assert_eq!(solution_bytes(&all), 1.0 + 3.0 * 4.6);
        let a = estimate_primitive(PrimitiveStrategy::Chained, &all, &[10], LAT, BW);
        let one = estimate_primitive(PrimitiveStrategy::Chained, &pattern(), &[10], LAT, BW);
        assert!(a.bytes > one.bytes);
        assert!(a.time > one.time);
    }

    #[test]
    fn frequency_estimator_default_feeds_unknown_patterns() {
        // The engine's frequency estimator falls back to its default for
        // patterns absent from the location tables (e.g. the all-variable
        // flood pattern); the planner must accept that default as a
        // provider frequency without misbehaving.
        use rdfmesh_sparql::CardinalityEstimator as _;
        let est = crate::engine::FrequencyEstimator::new([(pattern(), 7u64)], 1000);
        let unknown = TriplePattern::new(
            TermPattern::var("s"),
            TermPattern::var("p"),
            TermPattern::var("o"),
        );
        assert_eq!(est.estimate(&unknown), 1000);
        let defaulted =
            estimate_primitive(PrimitiveStrategy::Basic, &unknown, &[est.estimate(&unknown)], LAT, BW);
        let known =
            estimate_primitive(PrimitiveStrategy::Basic, &pattern(), &[est.estimate(&pattern())], LAT, BW);
        assert!(defaulted.bytes > known.bytes);
        assert!(defaulted.bytes.is_finite() && defaulted.time > SimTime::ZERO);
    }

    #[test]
    fn an_empty_one_provider_leg_is_priced_at_the_frames_the_simulator_charges() {
        use crate::sim_backend::SimBackend;
        use rdfmesh_net::{LatencyModel, Network, NodeId};
        use rdfmesh_overlay::Overlay;
        use rdfmesh_rdf::Triple;

        let net = Network::new(LatencyModel::Uniform(LAT), BW);
        let mut overlay = Overlay::new(32, 4, 2, net);
        for i in 0..3u64 {
            let addr = NodeId(1000 + i);
            let pos = overlay.ring().space().hash(&addr.0.to_be_bytes());
            overlay.add_index_node(addr, pos).unwrap();
        }
        let knows = Term::iri("http://xmlns.com/foaf/0.1/knows");
        let person = |n: &str| Term::iri(&format!("http://example.org/{n}"));
        let triples = vec![
            Triple::new(person("alice"), knows.clone(), person("bob")),
            Triple::new(person("bob"), knows.clone(), person("carol")),
        ];
        let provider = NodeId(1);
        overlay.add_storage_node(provider, NodeId(1000), triples).unwrap();
        // `?x knows ?x` is looked up under `knows`, but no triple is
        // reflexive: the one provider is sent the sub-query and answers
        // with no row.
        let reflexive = TriplePattern::new(TermPattern::var("x"), knows, TermPattern::var("x"));
        overlay.net.reset();
        let basic = ExecConfig { primitive: PrimitiveStrategy::Basic, ..ExecConfig::default() };
        let mut sim = SimBackend::new(&mut overlay, basic);
        sim.initiator = NodeId(1000);
        let mat = sim.primitive(&reflexive, None, SimTime::ZERO, None).unwrap();
        assert!(mat.solutions.is_empty());
        let traffic = overlay.net.stats().per_node[&provider];
        // The sub-query, the provider's reply, and the union's delivery.
        let est = estimate_primitive(PrimitiveStrategy::Basic, &reflexive, &[0], LAT, BW);
        assert_eq!(est.bytes, (traffic.bytes_in + 2 * traffic.bytes_out) as f64);
    }

    // ---- compile() shape tests --------------------------------------

    fn tp(p: &str) -> TriplePattern {
        TriplePattern::new(TermPattern::var("s"), Term::iri(p), TermPattern::var("o"))
    }

    #[test]
    fn compile_folds_bgp_into_left_deep_chain() {
        let bgp = GraphPattern::Bgp(vec![tp("http://e/a"), tp("http://e/b"), tp("http://e/c")]);
        let cfg = ExecConfig { bind_join: true, ..ExecConfig::default() };
        let plan = compile(&bgp, &cfg);
        assert_eq!(plan.node_count(), 3);
        match &plan.root {
            ExecNode::Chain { left, right, bind, hint_from_left } => {
                assert_eq!(right, &tp("http://e/c"));
                assert!(*bind && *hint_from_left);
                match left.as_ref() {
                    ExecNode::Chain { left: inner, right, bind, .. } => {
                        assert_eq!(right, &tp("http://e/b"));
                        assert!(*bind);
                        assert!(matches!(inner.as_ref(), ExecNode::Primitive(op)
                            if op.pattern == tp("http://e/a")));
                    }
                    other => panic!("expected inner chain, got {other:?}"),
                }
            }
            other => panic!("expected chain, got {other:?}"),
        }
    }

    #[test]
    fn compile_pushes_covered_filter_into_the_primitive() {
        let filtered = GraphPattern::Filter(
            Expression::Bound(rdfmesh_rdf::Variable::new("o")),
            Box::new(GraphPattern::Bgp(vec![tp("http://e/a")])),
        );
        let plan = compile(&filtered, &ExecConfig::default());
        match &plan.root {
            ExecNode::Primitive(op) => {
                assert!(op.filter.is_some(), "covered filter must ship with the sub-query");
                assert!(op.try_range, "range probing on under the default config");
            }
            other => panic!("expected pushed-down primitive, got {other:?}"),
        }
        // Range probing is a config decision, baked in at compile time.
        let no_range =
            compile(&filtered, &ExecConfig { range_index: false, ..ExecConfig::default() });
        assert!(matches!(&no_range.root, ExecNode::Primitive(op) if !op.try_range));
    }

    #[test]
    fn compile_leaves_uncovered_filter_residual() {
        // The filter mentions ?x which the core pattern never binds, so
        // it cannot ship with the sub-query and must run post-join.
        let filtered = GraphPattern::Filter(
            Expression::Bound(rdfmesh_rdf::Variable::new("x")),
            Box::new(GraphPattern::Bgp(vec![tp("http://e/a")])),
        );
        let plan = compile(&filtered, &ExecConfig::default());
        match &plan.root {
            ExecNode::Filter { input, .. } => {
                assert!(matches!(input.as_ref(), ExecNode::Primitive(op) if op.filter.is_none()));
            }
            other => panic!("expected residual filter, got {other:?}"),
        }
    }

    #[test]
    fn compile_marks_common_site_only_for_single_pattern_operands() {
        let single = GraphPattern::Bgp(vec![tp("http://e/a")]);
        let double = GraphPattern::Bgp(vec![tp("http://e/b"), tp("http://e/c")]);
        let cfg = ExecConfig::default();
        assert!(cfg.overlap_aware);

        let eligible =
            compile(&GraphPattern::Union(Box::new(single.clone()), Box::new(single.clone())), &cfg);
        assert!(matches!(&eligible.root, ExecNode::Binary { common_site: true, .. }));

        let ineligible =
            compile(&GraphPattern::Join(Box::new(single.clone()), Box::new(double)), &cfg);
        assert!(matches!(&ineligible.root, ExecNode::Binary { common_site: false, .. }));

        let overlap_off = ExecConfig { overlap_aware: false, ..ExecConfig::default() };
        let disabled = compile(
            &GraphPattern::Union(Box::new(single.clone()), Box::new(single)),
            &overlap_off,
        );
        assert!(matches!(&disabled.root, ExecNode::Binary { common_site: false, .. }));
    }

    // ---- distribution-strategy selection -----------------------------

    fn tpv(s: &str, p: &str, o: &str) -> TriplePattern {
        TriplePattern::new(
            TermPattern::var(s),
            Term::iri(&format!("http://e/{p}")),
            TermPattern::var(o),
        )
    }

    fn cfg_with(dist: DistChoice) -> ExecConfig {
        ExecConfig { dist, ..ExecConfig::default() }
    }

    /// `?x a ?a . ?x b ?b . ?x c ?c` — every pattern shares `?x`.
    fn star() -> GraphPattern {
        GraphPattern::Bgp(vec![tpv("x", "a", "a0"), tpv("x", "b", "b0"), tpv("x", "c", "c0")])
    }

    /// `?a p ?b . ?b q ?c . ?c r ?d` — pairwise links, no common var.
    fn chain3() -> GraphPattern {
        GraphPattern::Bgp(vec![tpv("a", "p", "b"), tpv("b", "q", "c"), tpv("c", "r", "d")])
    }

    /// `?a p ?b . ?b q ?c . ?c r ?a` — a triangle: connected and cyclic,
    /// but no variable common to all three patterns.
    fn cycle3() -> GraphPattern {
        GraphPattern::Bgp(vec![tpv("a", "p", "b"), tpv("b", "q", "c"), tpv("c", "r", "a")])
    }

    #[test]
    fn dist_auto_picks_hypercube_for_stars_and_partial_eval_for_cycles() {
        let cfg = cfg_with(DistChoice::Auto);
        assert!(matches!(
            compile(&star(), &cfg).root,
            ExecNode::MultiJoin { strategy: DistStrategy::HyperCube, ref join_vars, .. }
                if join_vars == &[rdfmesh_rdf::Variable::new("x")]
        ));
        assert!(matches!(
            compile(&cycle3(), &cfg).root,
            ExecNode::MultiJoin { strategy: DistStrategy::PartialEval, ref join_vars, .. }
                if join_vars.is_empty()
        ));
        // An acyclic chain without a common variable stays chained.
        assert!(matches!(compile(&chain3(), &cfg).root, ExecNode::Chain { .. }));
    }

    #[test]
    fn dist_default_config_never_emits_multiway_nodes() {
        for shape in [star(), chain3(), cycle3()] {
            let plan = compile(&shape, &ExecConfig::default());
            assert!(
                !matches!(plan.root, ExecNode::MultiJoin { .. }),
                "default dist=chained compiled a MultiJoin for {shape:?}"
            );
        }
    }

    #[test]
    fn dist_single_pattern_compiles_to_primitive_under_every_choice() {
        let single = GraphPattern::Bgp(vec![tpv("x", "a", "y")]);
        for dist in [DistChoice::Chained, DistChoice::HyperCube, DistChoice::PartialEval, DistChoice::Auto] {
            assert!(matches!(compile(&single, &cfg_with(dist)).root, ExecNode::Primitive(_)));
        }
    }

    #[test]
    fn dist_all_variable_flood_falls_back_to_chained() {
        // `?s ?p ?o` is keyless (answered by flooding); the multiway
        // protocols exclude it, so every choice falls back to chained.
        let flood = GraphPattern::Bgp(vec![
            tpv("x", "a", "s"),
            TriplePattern::new(TermPattern::var("s"), TermPattern::var("p"), TermPattern::var("o")),
        ]);
        for dist in [DistChoice::HyperCube, DistChoice::PartialEval, DistChoice::Auto] {
            assert!(
                matches!(compile(&flood, &cfg_with(dist)).root, ExecNode::Chain { .. }),
                "{dist} must not build a multiway plan over a flood pattern"
            );
        }
    }

    #[test]
    fn dist_cartesian_product_falls_back_to_chained() {
        let product = GraphPattern::Bgp(vec![tpv("a", "p", "b"), tpv("c", "q", "d")]);
        for dist in [DistChoice::HyperCube, DistChoice::PartialEval, DistChoice::Auto] {
            assert!(
                matches!(compile(&product, &cfg_with(dist)).root, ExecNode::Chain { .. }),
                "{dist} must not build a multiway plan over a cartesian product"
            );
        }
    }

    #[test]
    fn dist_forced_strategies_apply_where_the_shape_allows() {
        // A 2-pattern join is star-shaped (the shared var is common to
        // all patterns), so both forcings engage on it.
        let pair = GraphPattern::Bgp(vec![tpv("x", "a", "y"), tpv("y", "b", "z")]);
        assert!(matches!(
            compile(&pair, &cfg_with(DistChoice::HyperCube)).root,
            ExecNode::MultiJoin { strategy: DistStrategy::HyperCube, .. }
        ));
        assert!(matches!(
            compile(&pair, &cfg_with(DistChoice::PartialEval)).root,
            ExecNode::MultiJoin { strategy: DistStrategy::PartialEval, .. }
        ));
        // HyperCube forced onto a common-var-free cycle cannot hash;
        // partial evaluation still can (the graph is connected).
        assert!(matches!(
            compile(&cycle3(), &cfg_with(DistChoice::HyperCube)).root,
            ExecNode::Chain { .. }
        ));
        assert!(matches!(
            compile(&cycle3(), &cfg_with(DistChoice::PartialEval)).root,
            ExecNode::MultiJoin { strategy: DistStrategy::PartialEval, .. }
        ));
    }
}
