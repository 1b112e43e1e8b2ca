//! The closed-loop HTTP load on a real four-process mesh, and every
//! number that can be had from outside the processes: client-side
//! latency, `GET /metrics` counters and `/proc/<pid>` accounting,
//! differenced across the measured windows.
//!
//! Closed loop, because a SPARQL caller waits for its answer before it
//! sends the next query, and a generator held to `nproc` connections
//! cannot model independent arrivals honestly.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::host::Sampler;
use crate::inputs::{count_binding_rows, Inputs};
use crate::mesh::{self, answer_matches, Mesh, ProcStat};
use crate::report::Report;

/// Untimed closed-loop traffic before the first window, so lazily made
/// connections, caches and allocator pools are in their steady state.
const WARM_UP: Duration = Duration::from_millis(1500);

pub struct Plan {
    /// Meshes started one after another; `setup_s` is the median.
    pub setups: usize,
    pub windows: usize,
    pub window: Duration,
    /// After the windows, SIGKILL one provider and restart it.
    pub restart: bool,
}

/// `GET /metrics` and `/proc` of every process at one instant.
struct Snapshot {
    counters: Vec<HashMap<String, u64>>,
    procs: Vec<ProcStat>,
}

impl Snapshot {
    fn take(mesh: &Mesh) -> Result<Snapshot, String> {
        Ok(Snapshot {
            counters: mesh
                .procs
                .iter()
                .map(|p| mesh::metrics(&p.http))
                .collect::<Result<_, _>>()?,
            procs: mesh
                .procs
                .iter()
                .map(|p| mesh::proc_stat(p.pid()))
                .collect::<Result<_, _>>()?,
        })
    }

    /// Σ over processes of counter `name`.
    fn total(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .map(|c| c.get(name).copied().unwrap_or(0) as f64)
            .sum()
    }
}

/// What the client threads saw in one window.
#[derive(Default)]
struct Window {
    /// Connect → last body byte, per request, milliseconds. A failed
    /// request is entered at the window's length: it misses any latency
    /// figure.
    latencies_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    http_503: u64,
    body_bytes: u64,
    seconds: f64,
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn run_window(
    entry: &str,
    inputs: &Inputs,
    next: &AtomicUsize,
    clients: usize,
    length: Duration,
) -> Window {
    let requests: Vec<Vec<u8>> = inputs
        .pool
        .iter()
        .map(|q| mesh::sparql_request(entry, &q.text))
        .collect();
    let started = Instant::now();
    let deadline = started + length;
    let fail_ms = length.as_secs_f64() * 1e3;
    let parts: Vec<Window> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut w = Window::default();
                    while Instant::now() < deadline {
                        let q = next.fetch_add(1, Ordering::Relaxed) % requests.len();
                        let sent = Instant::now();
                        let response = mesh::http(entry, &requests[q]);
                        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                        w.attempted += 1;
                        let ok = mesh::answer_has_rows(&response, &inputs.pool[q]);
                        if let Ok(r) = &response {
                            w.http_503 += u64::from(r.status == 503);
                            w.body_bytes += r.body.len() as u64;
                        }
                        if ok {
                            w.latencies_ms.push(latency_ms);
                        } else {
                            w.failed += 1;
                            w.latencies_ms.push(fail_ms);
                        }
                    }
                    w
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Window {
        seconds: started.elapsed().as_secs_f64(),
        ..Window::default()
    };
    for w in parts {
        all.latencies_ms.extend(w.latencies_ms);
        all.attempted += w.attempted;
        all.failed += w.failed;
        all.http_503 += w.http_503;
        all.body_bytes += w.body_bytes;
    }
    all.latencies_ms.sort_by(f64::total_cmp);
    all
}

/// Starts the mesh `plan.setups` times, checks every pool answer against
/// the oracle, then measures `plan.windows` closed-loop windows.
///
/// Timed figures are reported twice: `<name>.raw` as the clock read, and
/// `<name>` scaled by the host's speed during that very window (see
/// [`crate::host`]).
pub fn run(
    bin: &Path,
    inputs: &Inputs,
    scratch: &Path,
    plan: &Plan,
    report: &mut Report,
) -> Result<(), String> {
    let workload = inputs.workload;
    let store_root = scratch.join("stores");
    let (mut setups, mut setups_raw) = (Vec::new(), Vec::new());
    let mut mesh = None;
    for _ in 0..plan.setups.max(1) {
        // One mesh at a time: the previous one is killed, reaped and its
        // stores deleted before the next is timed.
        drop(mesh.take());
        let _ = std::fs::remove_dir_all(&store_root);
        let sampler = Sampler::start();
        let started = Mesh::start(
            bin,
            inputs,
            workload.durable.then_some(store_root.as_path()),
        )?;
        setups.push(started.setup_s * sampler.speed());
        setups_raw.push(started.setup_s);
        mesh = Some(started);
    }
    let mut mesh = mesh.expect("at least one set-up");
    report.windowed("setup_s", "s", &setups);
    report.windowed("setup_s.raw", "s", &setups_raw);

    // The untimed comparison: every distinct query's full binding set
    // against the oracle, order-insensitively, no retries.
    for q in inputs.distinct() {
        let response = mesh::http(mesh.entry(), &mesh::sparql_request(mesh.entry(), &q.text))
            .map_err(|e| format!("{}: {e}", q.text))?;
        if !answer_matches(&response, q) {
            return Err(format!(
                "answer differs from the oracle's {} rows (HTTP {}, {} rows): {}",
                q.expected.len(),
                response.status,
                count_binding_rows(&response.body).map_or("no".into(), |n| n.to_string()),
                q.text
            ));
        }
    }
    let next = AtomicUsize::new(0);
    run_window(mesh.entry(), inputs, &next, workload.clients, WARM_UP);

    let mut snapshots = vec![Snapshot::take(&mesh)?];
    let (mut attempted, mut failed, mut http_503, mut body_bytes) = (0u64, 0u64, 0u64, 0u64);
    let mut per_window: HashMap<String, (&'static str, Vec<f64>)> = HashMap::new();
    for _ in 0..plan.windows {
        let sampler = Sampler::start();
        let w = run_window(mesh.entry(), inputs, &next, workload.clients, plan.window);
        let speed = sampler.speed();
        snapshots.push(Snapshot::take(&mesh)?);
        let [.., before, after] = &snapshots[..] else {
            unreachable!("two snapshots")
        };
        let correct = (w.attempted - w.failed).max(1) as f64;
        let cpu = |i: usize| after.procs[i].cpu_ms - before.procs[i].cpu_ms;
        let cpu_all: f64 = (0..mesh.procs.len()).map(cpu).sum();
        let switches: u64 = (0..mesh.procs.len())
            .map(|i| {
                after.procs[i]
                    .ctx_switches
                    .saturating_sub(before.procs[i].ctx_switches)
            })
            .sum();
        let bytes = after.total("transport.bytes_sent") - before.total("transport.bytes_sent");
        let (p50, p95, p99) = (
            percentile(&w.latencies_ms, 0.50),
            percentile(&w.latencies_ms, 0.95),
            percentile(&w.latencies_ms, 0.99),
        );
        let qps = (w.attempted - w.failed) as f64 / w.seconds;
        eprintln!(
            "#   window: {} requests in {:.2} s at host speed {speed:.3}: p50 {p50:.3} ms, \
             p95 {p95:.3} ms, {qps:.1} 1/s, cpu {:.3} ms/query",
            w.attempted,
            w.seconds,
            cpu_all / correct
        );
        let mut put = |name: &str, unit, v: f64| {
            per_window
                .entry(name.into())
                .or_insert((unit, Vec::new()))
                .1
                .push(v)
        };
        // Durations shrink on a faster host and rates grow: scale each
        // to the reference host, and keep what the clock read.
        let cpu_each = cpu_all / correct;
        for (name, unit, raw, scaled) in [
            ("query_p50_ms", "ms", p50, p50 * speed),
            ("query_p95_ms", "ms", p95, p95 * speed),
            ("tail.p99_ms", "ms", p99, p99 * speed),
            ("qps", "1/s", qps, qps / speed),
            ("cpu_ms_per_query", "ms", cpu_each, cpu_each * speed),
        ] {
            put(name, unit, scaled);
            put(&format!("{name}.raw"), unit, raw);
        }
        put("host.speed", "ratio", speed);
        put("wire_bytes_per_query", "B", bytes / correct);
        put("proc.cpu_ms_per_query.coordinator", "ms", cpu(0) / correct);
        let providers = (cpu_all - cpu(0)) / correct;
        put("proc.cpu_ms_per_query.providers", "ms", providers);
        let switches = switches as f64 / correct;
        put("proc.ctx_switches_per_query", "count", switches);
        attempted += w.attempted;
        failed += w.failed;
        http_503 += w.http_503;
        body_bytes += w.body_bytes;
    }
    for (name, (unit, values)) in &per_window {
        report.windowed(name, unit, values);
    }
    report.attempted += attempted;
    report.failed += failed;
    report.put(
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    let (first, last) = (&snapshots[0], &snapshots[snapshots.len() - 1]);
    // Σ over the processes: what the mesh needs on one machine. (The
    // largest process alone moves by a tenth from run to run with the
    // allocator's arenas; the sum holds to a few percent.)
    let peak: f64 = last.procs.iter().map(|p| p.peak_rss_mb).sum();
    report.put("peak_rss_mb", peak, "MB");

    // Counters over the whole measured phase, Σ over the four processes.
    let delta = |name: &str| last.total(name) - first.total(name);
    let correct = (attempted - failed).max(1) as f64;
    let rows_per_cycle: usize = inputs.pool.iter().map(|q| q.expected.len()).sum();
    let result_rows = rows_per_cycle as f64 / inputs.pool.len() as f64;
    let shipped = delta("live.solutions_shipped") / correct;
    report.put(
        "endpoint.response_bytes",
        body_bytes as f64 / attempted.max(1) as f64,
        "B",
    );
    report.put("endpoint.http_503", http_503 as f64, "count");
    report.put("live.solutions_shipped_per_query", shipped, "count");
    report.put(
        "live.solution_bytes_per_query",
        delta("live.solution_bytes") / correct,
        "B",
    );
    report.put(
        "live.useful_row_ratio",
        result_rows / shipped.max(f64::MIN_POSITIVE),
        "ratio",
    );
    for name in [
        "live.retries",
        "live.ack_timeouts",
        "live.lookup_failures",
        "live.incomplete_queries",
        "live.queued",
        "live.rejected",
        "live.batches",
        "tcp.reconnects",
        "tcp.send_failures",
        "tcp.decode_errors",
    ] {
        report.put(name, delta(&name.replace("tcp.", "transport.")), "count");
    }
    let rounds = delta("live.solution_rounds");
    report.put(
        "live.batched_rounds_ratio",
        delta("live.batched_rounds") / rounds.max(1.0),
        "ratio",
    );
    let frames = delta("transport.frames_sent");
    report.put("tcp.frames_per_query", frames / correct, "count");
    report.put(
        "tcp.bytes_per_frame",
        delta("transport.bytes_sent") / frames.max(1.0),
        "B",
    );

    if plan.restart {
        // A process kill with the OS page cache intact — not a
        // power-loss test: unflushed file data survives in the cache.
        let on_disk = workload.durable.then_some(store_root.as_path());
        let (seconds, correct) = mesh.kill_and_restart(bin, 2, on_disk, inputs)?;
        report.put("store.serve_restart_ms", seconds * 1e3, "ms");
        eprintln!(
            "#   provider 3 killed and restarted {}: roster whole again after {:.0} ms; \
             process 1 then answers {correct} of {} pool queries as the oracle does",
            if workload.durable {
                "on its store directory alone"
            } else {
                "from its file"
            },
            seconds * 1e3,
            inputs.distinct().count(),
        );
    }
    drop(mesh);
    let _ = std::fs::remove_dir_all(&store_root);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.50), 1.0);
    }
}
