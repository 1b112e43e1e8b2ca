//! The traced run: four [`MeshNode`]s over loopback TCP inside this
//! process plus a [`SparqlEndpoint`], one client, spans recorded from the
//! benchmark's side of every public call.
//!
//! Nothing inside the program records a span (that is ROADMAP item 4), so
//! each query is run twice in a row on the same mesh: once as a real HTTP
//! request (`endpoint.request`, timed around the socket exchange), once
//! as a *replay* of what the endpoint's handler does — the body of
//! `live_execute_with` stage by stage, then `to_json` — with one span per
//! public call and a backend wrapper that opens a span per solution
//! round and per coordinator-side join. The replay is a model of what ran
//! inside the request, not a recording of it; `endpoint.overhead_us` is
//! the part of the request the replay does not account for.
//!
//! Spans stay in memory and are written to `out/trace-<workload>.jsonl`
//! when the run ends. Per-layer times are means per query, because means
//! add up to the mean request and medians do not.

use std::cell::RefCell;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rdfmesh::core::exec::{self, Mat, MeshBackend, OpKind, PrimitiveOp};
use rdfmesh::core::{
    planner, DistChoice, DistStrategy, ExecConfig, LiveAnswer, LiveBackend, LiveConfig, LiveError,
    SolutionRounds,
};
use rdfmesh::net::{NodeId, SimTime};
use rdfmesh::rdf::{SharedStore, Term, TermPattern, TriplePattern, Variable};
use rdfmesh::sparql::eval::NoGraph;
use rdfmesh::sparql::{finalize, optimize, parse_query, to_json, Expression, Solution};
use rdfmesh::{MeshNode, PersistentStore, ServeOptions, SparqlEndpoint};

use crate::inputs::{binding_rows, count_binding_rows, Inputs, PoolQuery};
use crate::json::{obj, Value};
use crate::layers::{self, Echo};
use crate::load::percentile;
use crate::mesh;
use crate::report::{mean, Report};

/// The caller-side wait per round `rdfmesh serve` configures.
fn round_wait(cfg: &LiveConfig) -> Duration {
    cfg.query_deadline * 4 + Duration::from_secs(5)
}

/// What `rdfmesh serve` runs: bind joins, chained distribution.
fn serve_config(dist: DistChoice) -> ExecConfig {
    ExecConfig {
        bind_join: true,
        overlap_aware: false,
        range_index: false,
        dist,
        ..ExecConfig::default()
    }
}

pub struct Span {
    id: u32,
    parent: Option<u32>,
    query: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// An in-memory span recorder for one thread of control.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    query: u32,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            query: 0,
        }
    }

    fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            query: self.query,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }
}

/// Runs `f` inside a span. The recorder is borrowed only to open and to
/// close the span, so `f` may open children.
fn span<R>(tracer: &RefCell<Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = tracer.borrow_mut().enter(name);
    let out = f();
    tracer.borrow_mut().exit(id);
    out
}

/// One solution round's inputs, kept so the layers inside the round can
/// be priced on exactly what it carried.
pub struct CapturedRound {
    pub pattern: TriplePattern,
    pub filter: Option<Expression>,
    pub bound: Option<Vec<Solution>>,
}

#[derive(Default)]
struct RoundLog {
    complete: bool,
    rounds: u64,
    rows_in: u64,
    rows_out: u64,
    /// `Some` while the query's rounds are being captured.
    captured: Option<Vec<CapturedRound>>,
}

/// [`SolutionRounds`] over a [`MeshNode`], with a span around each round.
struct TracedRounds<'a> {
    node: &'a MeshNode,
    tracer: &'a RefCell<Tracer>,
    log: RefCell<RoundLog>,
}

impl TracedRounds<'_> {
    fn note(&self, rows_in: usize, answer: &Option<LiveAnswer>) {
        let mut log = self.log.borrow_mut();
        log.rounds += 1;
        log.rows_in += rows_in as u64;
        match answer {
            Some(a) => {
                log.rows_out += a.solutions.len() as u64;
                log.complete &= a.complete;
            }
            None => log.complete = false,
        }
    }
}

impl SolutionRounds for TracedRounds<'_> {
    fn solution_round(
        &self,
        pattern: TriplePattern,
        filter: Option<Expression>,
        bound: Option<Vec<Solution>>,
        wait: Duration,
    ) -> Option<LiveAnswer> {
        let capturing = self.log.borrow().captured.is_some();
        let kept = capturing.then(|| (pattern.clone(), filter.clone(), bound.clone()));
        let rows_in = bound.as_ref().map_or(0, Vec::len);
        let answer = span(self.tracer, "live.round", || {
            self.node.query_solutions(pattern, filter, bound, wait)
        });
        self.note(rows_in, &answer);
        if let (Some((pattern, filter, bound)), Some(captured)) =
            (kept, self.log.borrow_mut().captured.as_mut())
        {
            captured.push(CapturedRound {
                pattern,
                filter,
                bound,
            });
        }
        answer
    }

    fn multiway_round(
        &self,
        patterns: Vec<TriplePattern>,
        join_vars: Vec<Variable>,
        strategy: DistStrategy,
        wait: Duration,
    ) -> Option<LiveAnswer> {
        let answer = span(self.tracer, "live.round", || {
            self.node
                .query_multiway(patterns, join_vars, strategy, wait)
        });
        self.note(0, &answer);
        answer
    }
}

/// [`LiveBackend`] with a span around each coordinator-side binary
/// operator; everything else is delegated untouched.
struct TracedBackend<'a> {
    inner: LiveBackend<'a>,
    tracer: &'a RefCell<Tracer>,
    join_rows_out: u64,
}

impl MeshBackend for TracedBackend<'_> {
    type Error = LiveError;

    fn home(&self) -> NodeId {
        self.inner.home()
    }

    fn exec_primitive(
        &mut self,
        op: &PrimitiveOp,
        depart: SimTime,
        hint: Option<NodeId>,
        use_range: bool,
    ) -> Result<Mat, LiveError> {
        self.inner.exec_primitive(op, depart, hint, use_range)
    }

    fn exec_bound(&mut self, pattern: &TriplePattern, current: Mat) -> Result<Mat, LiveError> {
        self.inner.exec_bound(pattern, current)
    }

    fn exec_binary(&mut self, op: &OpKind, left: Mat, right: Mat) -> Mat {
        let out = span(self.tracer, "sparql.join", || {
            self.inner.exec_binary(op, left, right)
        });
        self.join_rows_out += out.solutions.len() as u64;
        out
    }

    fn exec_common_site(
        &mut self,
        a: &TriplePattern,
        b: &TriplePattern,
    ) -> Result<Option<NodeId>, LiveError> {
        self.inner.exec_common_site(a, b)
    }

    fn exec_multiway(
        &mut self,
        patterns: &[TriplePattern],
        join_vars: &[Variable],
        strategy: DistStrategy,
        depart: SimTime,
    ) -> Result<Mat, LiveError> {
        self.inner
            .exec_multiway(patterns, join_vars, strategy, depart)
    }

    fn deliver(&mut self, mat: Mat) -> Mat {
        self.inner.deliver(mat)
    }
}

/// What one replayed query produced besides its spans.
struct Replayed {
    json: String,
    complete: bool,
    rows: usize,
    plan_nodes: usize,
    join_rows_out: u64,
    rounds: u64,
    rows_in: u64,
    rows_out: u64,
    captured: Option<Vec<CapturedRound>>,
}

/// The endpoint handler's work after it has the query text, one span per
/// public call: `MeshNode::execute` (admission, then the body of
/// `live_execute_with`) followed by `to_json`.
fn replay(
    node: &MeshNode,
    tracer: &RefCell<Tracer>,
    query: &str,
    capture: bool,
) -> Result<Replayed, String> {
    let live = node.config();
    let cfg = serve_config(DistChoice::Chained);
    let rounds = TracedRounds {
        node,
        tracer,
        log: RefCell::new(RoundLog {
            complete: true,
            captured: capture.then(Vec::new),
            ..RoundLog::default()
        }),
    };
    let mut plan_nodes = 0;
    let mut join_rows_out = 0;
    let json = span(tracer, "replay", || -> Result<String, String> {
        let result = span(tracer, "live.execute", || -> Result<_, String> {
            let _permit = span(tracer, "admission.acquire", || {
                node.admission().acquire(live.query_deadline)
            })
            .map_err(|_| "admission refused a lone query".to_string())?;
            let parsed =
                span(tracer, "sparql.parse", || parse_query(query)).map_err(|e| e.to_string())?;
            let pattern = span(tracer, "sparql.optimize", || {
                optimize(parsed.pattern.clone(), &cfg.optimizer)
            });
            let plan = span(tracer, "planner.compile", || {
                planner::compile(&pattern, &cfg)
            });
            plan_nodes = plan.node_count();
            let mut backend = TracedBackend {
                inner: LiveBackend::new(&rounds, round_wait(&live)),
                tracer,
                join_rows_out: 0,
            };
            let mat = span(tracer, "exec.run", || {
                exec::run(&mut backend, &plan, SimTime::ZERO)
            })
            .map_err(|e| e.to_string())?;
            join_rows_out = backend.join_rows_out;
            let mat = backend.deliver(mat);
            Ok(span(tracer, "sparql.finalize", || {
                finalize(&NoGraph, &parsed, mat.solutions)
            }))
        })?;
        Ok(span(tracer, "sparql.to_json", || to_json(&result)))
    })?;
    let log = rounds.log.into_inner();
    Ok(Replayed {
        rows: count_binding_rows(json.as_bytes()).unwrap_or(0),
        json,
        complete: log.complete,
        plan_nodes,
        join_rows_out,
        rounds: log.rounds,
        rows_in: log.rows_in,
        rows_out: log.rows_out,
        captured: log.captured,
    })
}

/// Four mesh nodes and an endpoint inside this process, on the same
/// files the `serve` processes load.
struct LocalMesh {
    nodes: Vec<Arc<MeshNode>>,
    stores: Vec<SharedStore>,
    endpoint: SparqlEndpoint,
}

impl Drop for LocalMesh {
    fn drop(&mut self) {
        self.endpoint.shutdown();
        for node in &self.nodes {
            node.shutdown();
        }
    }
}

fn load_store(file: &Path, store_dir: Option<&Path>) -> Result<SharedStore, String> {
    match store_dir {
        Some(dir) => {
            let mut store =
                PersistentStore::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            store
                .bulk_load_path(file, &rdfmesh::LoadConfig::default())
                .map_err(|e| format!("{}: {e}", file.display()))?;
            Ok(store.into_shared())
        }
        None => {
            let text =
                std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
            layers::load_memory(&text).map_err(|e| format!("{}: {e}", file.display()))
        }
    }
}

impl LocalMesh {
    fn start(inputs: &Inputs, scratch: &Path, report: &mut Report) -> Result<LocalMesh, String> {
        let deadline = Duration::from_millis(mesh::PROVIDER_DEADLINE_MS);
        let cfg = LiveConfig {
            ack_timeout: deadline,
            lookup_timeout: deadline,
            ..LiveConfig::default()
        };
        let store_root = scratch.join("traced-stores");
        let mut stores = Vec::new();
        for (i, file) in inputs.files.iter().enumerate() {
            let dir = inputs
                .workload
                .durable
                .then(|| store_root.join(format!("p{}", i + 1)));
            stores.push(load_store(file, dir.as_deref())?);
        }
        let mut start_ms = Vec::new();
        let mut nodes = Vec::new();
        for (i, store) in stores.iter().enumerate() {
            let began = Instant::now();
            let node = MeshNode::start("127.0.0.1:0", i as u64 + 1, store.clone(), cfg)
                .map_err(|e| format!("MeshNode::start: {e}"))?;
            start_ms.push(began.elapsed().as_secs_f64() * 1e3);
            nodes.push(Arc::new(node));
        }
        report.put("live.node_start_ms", mean(&start_ms), "ms");

        // Join → full roster everywhere → every pool query answered as
        // the oracle answers it (index publication trails the roster).
        let began = Instant::now();
        let deadline = began + Duration::from_secs(60);
        for node in &nodes[1..] {
            if !node.join(nodes[0].local_addr()) {
                return Err("an in-process node could not reach the first".into());
            }
        }
        while nodes.iter().any(|n| n.member_count() < nodes.len()) {
            if Instant::now() > deadline {
                return Err("the in-process roster never converged".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        for q in inputs.distinct() {
            while !typed_answer_matches(&nodes[0], q) {
                if Instant::now() > deadline {
                    return Err(format!(
                        "the in-process mesh never answered correctly: {}",
                        q.text
                    ));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        report.put(
            "live.join_converge_ms",
            began.elapsed().as_secs_f64() * 1e3,
            "ms",
        );

        let endpoint = SparqlEndpoint::serve(
            "127.0.0.1:0",
            Arc::clone(&nodes[0]),
            ServeOptions {
                bind_join: true,
                wait: round_wait(&cfg),
                ..ServeOptions::default()
            },
        )
        .map_err(|e| format!("SparqlEndpoint::serve: {e}"))?;
        Ok(LocalMesh {
            nodes,
            stores,
            endpoint,
        })
    }
}

/// The typed comparison: a [`rdfmesh::core::LiveExecution`] against the
/// oracle's rows, order-insensitively.
fn typed_answer_matches(node: &MeshNode, q: &PoolQuery) -> bool {
    node.execute(&q.text, true, round_wait(&node.config()))
        .is_ok_and(|exec| {
            exec.complete
                && binding_rows(&to_json(&exec.result)).is_some_and(|rows| rows == q.expected)
        })
}

/// Totals over all spans of one name.
#[derive(Default, Clone, Copy)]
struct Total {
    count: u64,
    dur_ns: u64,
    self_ns: u64,
}

fn totals(spans: &[Span]) -> std::collections::HashMap<&'static str, Total> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: std::collections::HashMap<&'static str, Total> = Default::default();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.dur_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns[s.id as usize]);
    }
    out
}

fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        obj([
            ("query", Value::Num(f64::from(s.query))),
            ("id", Value::Num(f64::from(s.id))),
            (
                "parent",
                s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
            ),
            ("name", Value::Str(s.name.into())),
            ("start_ns", Value::Num(s.start_ns as f64)),
            ("end_ns", Value::Num(s.end_ns as f64)),
        ])
        .write(&mut out);
        out.push('\n');
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// The traced run of one workload. `total` is the run's `--seconds`; the
/// traced phase takes 0.4 of it and the untraced reference 0.15.
pub fn run(
    inputs: &Inputs,
    scratch: &Path,
    total: Duration,
    echo: &Echo,
    report: &mut Report,
) -> Result<(), String> {
    let mesh = LocalMesh::start(inputs, scratch, report)?;
    let node = &mesh.nodes[0];
    let addr = mesh.endpoint.local_addr().to_string();
    let requests: Vec<Vec<u8>> = inputs
        .pool
        .iter()
        .map(|q| mesh::sparql_request(&addr, &q.text))
        .collect();

    // Tracing off: the same endpoint, requests only.
    let mut untraced_ms = Vec::new();
    let until = Instant::now() + total.mul_f64(0.15);
    let mut i = 0;
    while Instant::now() < until {
        let q = i % requests.len();
        let sent = Instant::now();
        let response = mesh::http(&addr, &requests[q]);
        untraced_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        report.attempted += 1;
        report.failed += u64::from(!mesh::answer_has_rows(&response, &inputs.pool[q]));
        i += 1;
    }

    // Tracing on: request, then replay, query by query.
    let tracer = RefCell::new(Tracer::new());
    let mut captured: Vec<Vec<CapturedRound>> = Vec::new();
    let (mut queries, mut rows, mut plan_nodes, mut join_rows) = (0u64, 0u64, 0u64, 0u64);
    let (mut rounds, mut rows_in, mut rows_out) = (0u64, 0u64, 0u64);
    let mut request_ms = Vec::new();
    let until = Instant::now() + total.mul_f64(0.4);
    let mut i = 0;
    while Instant::now() < until || i < requests.len() {
        let q = i % requests.len();
        tracer.borrow_mut().query = i as u32;
        let sent = Instant::now();
        let response = span(&tracer, "endpoint.request", || {
            mesh::http(&addr, &requests[q])
        });
        request_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        let first_cycle = i < requests.len();
        let replayed = replay(node, &tracer, &inputs.pool[q].text, first_cycle)?;
        // First cycle: the typed result against the oracle, row for row.
        // Afterwards: completeness and the row count.
        let replay_ok = replayed.complete
            && if first_cycle {
                binding_rows(&replayed.json).is_some_and(|r| r == inputs.pool[q].expected)
            } else {
                replayed.rows == inputs.pool[q].expected.len()
            };
        if first_cycle && !replay_ok {
            return Err(format!(
                "the traced replay differs from the oracle: {}",
                inputs.pool[q].text
            ));
        }
        report.attempted += 2;
        report.failed +=
            u64::from(!mesh::answer_has_rows(&response, &inputs.pool[q])) + u64::from(!replay_ok);
        queries += 1;
        rows += replayed.rows as u64;
        plan_nodes += replayed.plan_nodes as u64;
        join_rows += replayed.join_rows_out;
        rounds += replayed.rounds;
        rows_in += replayed.rows_in;
        rows_out += replayed.rows_out;
        captured.extend(replayed.captured);
        i += 1;
    }
    let tracer = tracer.into_inner();
    write_spans(
        &inputs
            .dir
            .with_file_name(format!("trace-{}.jsonl", inputs.workload.name)),
        &tracer.spans,
    )?;

    let t = totals(&tracer.spans);
    let of = |name: &str| t.get(name).copied().unwrap_or_default();
    let n = queries as f64;
    let per_query_us = |ns: u64| ns as f64 / 1e3 / n;
    let request = of("endpoint.request");
    let replay_total = of("replay");
    report.put("endpoint.request_us", per_query_us(request.dur_ns), "us");
    report.put(
        "endpoint.overhead_us",
        per_query_us(request.dur_ns) - per_query_us(replay_total.dur_ns),
        "us",
    );
    report.put(
        "live.execute_us",
        per_query_us(of("live.execute").dur_ns),
        "us",
    );
    report.put(
        "live.execute_self_us",
        per_query_us(of("live.execute").self_ns + replay_total.self_ns),
        "us",
    );
    report.put(
        "admission.acquire_ns",
        of("admission.acquire").dur_ns as f64 / n,
        "ns",
    );
    for (metric, name) in [
        ("sparql.parse_us", "sparql.parse"),
        ("sparql.optimize_us", "sparql.optimize"),
        ("planner.compile_us", "planner.compile"),
        ("sparql.finalize_us", "sparql.finalize"),
        ("sparql.to_json_us", "sparql.to_json"),
        ("sparql.join_us", "sparql.join"),
    ] {
        report.put(metric, per_query_us(of(name).dur_ns), "us");
    }
    report.put(
        "exec.run_self_us",
        per_query_us(of("exec.run").self_ns),
        "us",
    );
    report.put(
        "sparql.to_json_ns_per_row",
        of("sparql.to_json").dur_ns as f64 / rows.max(1) as f64,
        "ns",
    );
    report.put("sparql.join_rows_out", join_rows as f64 / n, "count");
    report.put("planner.plan_nodes", plan_nodes as f64 / n, "count");
    let round = of("live.round");
    let round_us = round.dur_ns as f64 / 1e3 / round.count.max(1) as f64;
    report.put("live.round_us", round_us, "us");
    report.put("live.rounds_per_query", rounds as f64 / n, "count");
    report.put(
        "live.round_rows_in",
        rows_in as f64 / rounds.max(1) as f64,
        "count",
    );
    report.put(
        "live.round_rows_out",
        rows_out as f64 / rounds.max(1) as f64,
        "count",
    );

    // Every span's self time, summed over a replay tree, must give back
    // the tree's root: anything else means spans overlap or are orphaned.
    let replay_self: u64 = [
        "replay",
        "live.execute",
        "admission.acquire",
        "sparql.parse",
        "sparql.optimize",
        "planner.compile",
        "exec.run",
        "live.round",
        "sparql.join",
        "sparql.finalize",
        "sparql.to_json",
    ]
    .iter()
    .map(|name| of(name).self_ns)
    .sum();
    report.put(
        "trace.partition_error_pct",
        100.0 * (replay_self as f64 - replay_total.dur_ns as f64).abs()
            / replay_total.dur_ns.max(1) as f64,
        "%",
    );
    untraced_ms.sort_by(f64::total_cmp);
    request_ms.sort_by(f64::total_cmp);
    report.put(
        "trace.overhead_pct",
        100.0 * (percentile(&request_ms, 0.5) / percentile(&untraced_ms, 0.5) - 1.0),
        "%",
    );

    // The lookup leg alone: a round on a key no process holds resolves
    // at the index node and never reaches a provider.
    let nowhere = TriplePattern::new(
        TermPattern::var("s"),
        TermPattern::Const(Term::iri("http://example.org/univ#noSuchPredicate")),
        TermPattern::var("o"),
    );
    let wait = round_wait(&node.config());
    let lookup_us = layers::mean_ns(200, |_| {
        let answer = node.query_solutions(nowhere.clone(), None, None, wait);
        assert!(answer.is_some_and(|a| a.complete && a.solutions.is_empty()));
    }) / 1e3;
    report.put("live.lookup_round_us", lookup_us, "us");
    report.put(
        "live.index_owner_ns",
        layers::mean_ns(20_000, |_| {
            std::hint::black_box(node.index_owner_of(std::hint::black_box(&nowhere)));
        }),
        "ns",
    );

    // The rounds' inner layers, priced on what the rounds carried.
    let captured: Vec<CapturedRound> = captured.into_iter().flatten().collect();
    let priced_us = layers::price_rounds(&captured, &mesh.stores, echo, report);
    report.put(
        "live.round_residual_us",
        round_us - lookup_us - priced_us,
        "us",
    );

    // The same queries under each distribution strategy (`serve` itself
    // runs chained): a sample of the pool, whole executions.
    let step = (inputs.pool.len() / 6).max(1);
    let sample: Vec<&PoolQuery> = inputs.pool.iter().step_by(step).take(6).collect();
    for (metric, dist) in [
        ("live.chained_us", DistChoice::Chained),
        ("live.multiway_us.hypercube", DistChoice::HyperCube),
        ("live.multiway_us.partial_eval", DistChoice::PartialEval),
    ] {
        let cfg = serve_config(dist);
        let mut us = Vec::new();
        for q in &sample {
            for _ in 0..3 {
                let began = Instant::now();
                let exec = node
                    .execute_with(&q.text, &cfg, wait)
                    .map_err(|e| e.to_string())?;
                us.push(began.elapsed().as_secs_f64() * 1e6);
                let rows = exec.result.solutions().map_or(0, <[Solution]>::len);
                report.attempted += 1;
                report.failed += u64::from(!exec.complete || rows != q.expected.len());
            }
        }
        report.put(metric, mean(&us), "us");
    }
    Ok(())
}
