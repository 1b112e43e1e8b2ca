//! §E20 — Throughput under concurrency: qps and latency vs. offered load.
//!
//! PR 8 makes the live mesh a multi-query engine: many queries pipeline
//! through one coordinator and admission control bounds the in-flight
//! window. This experiment prices that with the figure of merit the
//! north star actually needs — queries per second, not per-query bytes.
//! (PR 8 also coalesced concurrent rounds into batch frames; that layer
//! was deleted once counted. On 2026-10-01, five alternating runs a
//! side on 2 cores, this experiment sent 28 947–28 986 wire frames with
//! it — commit `e565636`, the twin's own submits kept off its socket —
//! and 28 940–28 965 without, at the commit after; the c16 socket rung
//! read a median 1 698 vs 1 701 qps. EXPERIMENTS.md §E20 has the runs.)
//!
//! An open-loop mixed FOAF+university workload is driven at a ladder of
//! offered loads (1, 4, 16 in-flight queries) over both live transports
//! (in-process channels and framed loopback TCP), with the simulator as
//! the inherently-serial baseline, measuring qps and p50/p99 latency at
//! each rung. Every storage link carries an emulated 2 ms WAN delay so
//! the ladder is latency-bound, as an ad-hoc mesh is: concurrency buys
//! throughput exactly when queries overlap their waiting.
//!
//! A final overload phase shrinks the admission window to force the
//! overflow path: offered load far above `max_inflight + queue_depth`
//! must produce *rejections* (HTTP 503 at the endpoint), never deadline
//! overruns — a rejected query costs nothing and says when to retry.
//!
//! The `e20.*` counters land in `BENCH_throughput.json` in CI. Set
//! `RDFMESH_E20_QUERIES` (e.g. `24`) to shrink the per-rung query count
//! for a quick run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use rdfmesh_core::{
    ExecConfig, FaultPlan, LiveConfig, LiveError, LiveMesh, Transport, COORDINATOR,
};
use rdfmesh_net::NodeId;
use rdfmesh_workload::university::{self, UniversityConfig};
use rdfmesh_workload::{foaf, FoafConfig};

use crate::{print_table, testbed_from};

/// The mixed workload: FOAF social queries and LUBM-style university
/// queries interleave round-robin, so consecutive in-flight queries hit
/// different providers and different plan shapes.
const QUERIES: &[(&str, &str)] = &[
    ("foaf-chain", "SELECT * WHERE { ?x foaf:knows ?y . ?y foaf:knows ?z . }"),
    ("foaf-star", "SELECT * WHERE { ?x foaf:name ?n . ?x foaf:age ?a . }"),
    ("foaf-filter", "SELECT * WHERE { ?x foaf:age ?a . FILTER (?a >= 30 && ?a < 60) }"),
    (
        "univ-member",
        "PREFIX ub: <http://example.org/univ#> SELECT ?s ?d WHERE { ?s ub:memberOf ?d . }",
    ),
    (
        "univ-advisor",
        "PREFIX ub: <http://example.org/univ#> \
         SELECT ?s ?p WHERE { ?s ub:advisor ?p . ?p ub:worksFor ?d . }",
    ),
    (
        "univ-students",
        "PREFIX ub: <http://example.org/univ#> SELECT ?x WHERE { ?x rdf:type ub:Student . }",
    ),
];

/// Offered-load ladder: in-flight queries per rung.
const LADDER: &[usize] = &[1, 4, 16];
/// Emulated WAN hop on every coordinator → storage link.
const WAN_HOP: Duration = Duration::from_millis(2);
/// Offered load for the overload phase (window is 2 + 2).
const OVERLOAD_OFFERED: usize = 24;

/// Counter names are built per rung; the registry wants `&'static str`.
fn leak(name: String) -> &'static str {
    Box::leak(name.into_boxed_str())
}

fn queries_per_rung() -> usize {
    std::env::var("RDFMESH_E20_QUERIES").ok().and_then(|v| v.parse().ok()).unwrap_or(96)
}

/// The mixed corpus: four FOAF peers plus three university departments,
/// one storage node each, over four index nodes.
fn datasets() -> Vec<Vec<rdfmesh_rdf::Triple>> {
    let social = foaf::generate(&FoafConfig { persons: 32, peers: 4, ..Default::default() });
    let campus = university::generate(&UniversityConfig { departments: 3, ..Default::default() });
    let mut sets = social.peers;
    sets.extend(campus.peers);
    sets
}

/// Every coordinator → storage link carries the emulated WAN hop, so a
/// solution round costs at least one delay and overlapping rounds is
/// the only way to raise throughput.
fn wan_plan(storage_nodes: usize) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for i in 0..storage_nodes {
        plan = plan.delay(COORDINATOR, NodeId(1 + i as u64), WAN_HOP);
    }
    plan
}

struct Rung {
    qps: f64,
    p50: Duration,
    p99: Duration,
}

/// Drives `total` queries through `mesh` with `workers` of them in
/// flight at a time, collecting per-query latency.
fn drive(mesh: &LiveMesh, workers: usize, total: usize) -> Rung {
    let next = AtomicUsize::new(0);
    let latencies = Mutex::new(Vec::with_capacity(total));
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let (label, query) = QUERIES[i % QUERIES.len()];
                let begun = Instant::now();
                let exec = mesh
                    .execute(query, false, Duration::from_secs(30))
                    .unwrap_or_else(|e| panic!("{label} admitted under ample window: {e:?}"));
                let latency = begun.elapsed();
                assert!(exec.complete, "{label} completes on the fault-free mesh");
                assert!(!exec.result.is_empty(), "{label} finds solutions in the corpus");
                latencies.lock().unwrap().push(latency);
            });
        }
    });
    let wall = started.elapsed();
    let mut lats = latencies.into_inner().unwrap();
    lats.sort();
    assert_eq!(lats.len(), total);
    let at = |p: f64| lats[((lats.len() - 1) as f64 * p).round() as usize];
    Rung { qps: total as f64 / wall.as_secs_f64(), p50: at(0.5), p99: at(0.99) }
}

/// Saturates a tiny admission window (2 in flight + 2 queued) with
/// [`OVERLOAD_OFFERED`] simultaneous queries: overflow must come back as
/// immediate rejections carrying `Retry-After`, never as deadline
/// overruns, and every admitted query must still complete in time.
fn overload_phase(mesh: &LiveMesh, deadline: Duration) -> (usize, usize) {
    let gate = Barrier::new(OVERLOAD_OFFERED);
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..OVERLOAD_OFFERED)
            .map(|i| {
                let gate = &gate;
                let (label, query) = QUERIES[i % QUERIES.len()];
                s.spawn(move || {
                    gate.wait();
                    let begun = Instant::now();
                    let result = mesh.execute(query, false, Duration::from_secs(30));
                    (label, result, begun.elapsed())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no worker panics")).collect()
    });

    let mut admitted = 0usize;
    let mut rejected = 0usize;
    for (label, result, took) in outcomes {
        match result {
            Ok(exec) => {
                admitted += 1;
                assert!(exec.complete, "admitted {label} completes");
                assert!(took < deadline * 2, "admitted {label} answers in time: {took:?}");
            }
            Err(LiveError::Overloaded { retry_after }) => {
                rejected += 1;
                assert!(retry_after >= Duration::from_secs(1), "503 carries a Retry-After");
                assert!(took < deadline, "rejection is immediate, not a deadline overrun");
            }
            Err(other) => panic!("overload must reject, not fail: {label}: {other:?}"),
        }
    }
    (admitted, rejected)
}

/// Runs the ladder on both backends and both transports, then the
/// overload phase, and prints the table.
pub fn run() {
    let total = queries_per_rung();
    if total != 96 {
        println!("\n(quick mode: RDFMESH_E20_QUERIES caps each rung at {total} queries)");
    }
    let metrics = rdfmesh_obs::metrics();
    let sets = datasets();
    let plan = wan_plan(sets.len());
    let mut rows = Vec::new();

    // Simulator baseline: the discrete-event backend executes one query
    // at a time by construction — the serialization PR 8 removes from
    // the live path. Wall-clock per query, offered load pinned at 1.
    let mut testbed = testbed_from(&sets, 4);
    let sim_cfg = ExecConfig { overlap_aware: false, range_index: false, ..ExecConfig::default() };
    let started = Instant::now();
    let mut sim_lats = Vec::with_capacity(total);
    for i in 0..total {
        let begun = Instant::now();
        let exec = testbed.run_full(sim_cfg, QUERIES[i % QUERIES.len()].1);
        assert!(!exec.result.is_empty());
        sim_lats.push(begun.elapsed());
    }
    let sim_wall = started.elapsed();
    sim_lats.sort();
    let sim_at = |p: f64| sim_lats[((sim_lats.len() - 1) as f64 * p).round() as usize];
    let sim_qps = total as f64 / sim_wall.as_secs_f64();
    metrics.add("e20.sim.c1.qps_x100", (sim_qps * 100.0) as u64);
    metrics.add("e20.sim.c1.p50_us", sim_at(0.5).as_micros() as u64);
    metrics.add("e20.sim.c1.p99_us", sim_at(0.99).as_micros() as u64);
    rows.push(vec![
        "sim".into(),
        "—".into(),
        "1".into(),
        total.to_string(),
        format!("{sim_qps:.0}"),
        format!("{:.2}", sim_at(0.5).as_secs_f64() * 1e3),
        format!("{:.2}", sim_at(0.99).as_secs_f64() * 1e3),
    ]);

    // Live backend: the offered-load ladder on both transports.
    let cfg = LiveConfig::default();
    let mut socket_qps = std::collections::BTreeMap::new();
    for (name, transport) in [("threads", Transport::Threads), ("sockets", Transport::Sockets)] {
        let mesh = LiveMesh::spawn_with_transport(&testbed.overlay, cfg, plan.clone(), transport)
            .expect("transport binds");
        for &workers in LADDER {
            // Scale the stream with the offered load so every rung
            // measures a steady state, not thread spawn and drain.
            let stream = total * workers;
            let rung = drive(&mesh, workers, stream);
            assert!(
                rung.p99 < cfg.query_deadline,
                "admitted p99 stays inside the query deadline: {:?}",
                rung.p99
            );
            let prefix = format!("e20.live.{name}.c{workers}");
            metrics.add(leak(format!("{prefix}.qps_x100")), (rung.qps * 100.0) as u64);
            metrics.add(leak(format!("{prefix}.p50_us")), rung.p50.as_micros() as u64);
            metrics.add(leak(format!("{prefix}.p99_us")), rung.p99.as_micros() as u64);
            if transport == Transport::Sockets {
                socket_qps.insert(workers, rung.qps);
            }
            rows.push(vec![
                "live".into(),
                name.into(),
                workers.to_string(),
                stream.to_string(),
                format!("{:.0}", rung.qps),
                format!("{:.2}", rung.p50.as_secs_f64() * 1e3),
                format!("{:.2}", rung.p99.as_secs_f64() * 1e3),
            ]);
        }
        let stats = mesh.stats();
        assert_eq!(stats.rejected, 0, "the default window admits the whole ladder");
        mesh.shutdown();
    }

    // The acceptance bar: pipelining must beat the serial baseline by
    // 4× on the socket transport at offered load 16.
    let serial = socket_qps[&1];
    let pipelined = socket_qps[&16];
    assert!(
        pipelined >= 4.0 * serial,
        "sockets c16 must reach 4× serial qps: {pipelined:.0} vs {serial:.0}"
    );

    // Overload: a tiny window (2 + 2) against 24 simultaneous queries.
    let tiny = LiveConfig { max_inflight: 2, queue_depth: 2, ..cfg };
    let mesh =
        LiveMesh::spawn_with_transport(&testbed.overlay, tiny, plan, Transport::Sockets)
            .expect("transport binds");
    let (admitted, rejected) = overload_phase(&mesh, tiny.query_deadline);
    let stats = mesh.stats();
    assert_eq!(stats.rejected, rejected as u64, "every rejection is counted");
    assert!(rejected > 0, "overload must trip the admission limit");
    assert!(admitted >= tiny.max_inflight, "the window itself stays fully used");
    assert_eq!(admitted + rejected, OVERLOAD_OFFERED);
    mesh.shutdown();
    metrics.add("e20.overload.offered", OVERLOAD_OFFERED as u64);
    metrics.add("e20.overload.admitted", admitted as u64);
    metrics.add("e20.overload.rejected", rejected as u64);

    print_table(
        &format!(
            "Throughput vs. offered load (mixed FOAF+university workload, 7 storage \
             nodes, {} ms emulated WAN hop per storage link)",
            WAN_HOP.as_millis()
        ),
        &["backend", "transport", "offered", "queries", "qps", "p50 ms", "p99 ms"],
        &rows,
    );
    println!(
        "\noverload (window 2+2, offered {OVERLOAD_OFFERED}): admitted={admitted} \
         rejected={rejected} — every overflow came back as an immediate 503-style \
         rejection with Retry-After; no admitted query missed its deadline"
    );
    println!("\nShape check: the serial rungs pay the WAN hop on every solution");
    println!("round, so one query at a time caps qps near 1/latency. Raising the");
    println!("offered load overlaps those waits through one coordinator — qps at");
    println!("16 in-flight clears 4× the serial socket baseline ({:.0} vs {:.0})", pipelined, serial);
    println!("while p99 stays inside the query deadline, and past the admission");
    println!("window the mesh sheds load by rejecting instantly instead of letting");
    println!("queries time out.");
}
