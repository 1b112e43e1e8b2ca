//! Real `rdfmesh serve` processes on ephemeral loopback ports, and the
//! outside view of them: HTTP requests, `GET /metrics`, `/proc/<pid>`.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::inputs::{binding_rows, count_binding_rows, Inputs, PoolQuery};

/// How long a mesh may take to form and converge before the run fails.
const CONVERGE: Duration = Duration::from_secs(60);

/// Builds `rdfmesh` (release) into the target directory this benchmark
/// itself was built into, and returns the binary's path. A path
/// dependency builds the library only, so the `serve` binary needs its
/// own `cargo build`; it is a no-op when up to date.
pub fn build_serve_binary() -> Result<PathBuf, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let release_dir = exe
        .parent()
        .ok_or("benchmark binary has no parent directory")?;
    let target_dir = release_dir
        .parent()
        .ok_or("release directory has no parent")?;
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "rdfmesh",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target_dir)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build --bin rdfmesh: {status}"));
    }
    let bin = release_dir.join("rdfmesh");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after the build", bin.display()))
    }
}

/// The ack and lookup deadlines every mesh runs with, milliseconds. The
/// defaults (150 ms) are tuned for a provider that answers at once; a
/// filtered scan over four providers sharing one CPU can take longer,
/// and a provider that misses its deadline twice is struck from the
/// index for good — after which answers are short of rows but still
/// marked complete. No workload here is about fault handling, so the
/// deadlines are set where a healthy provider never meets them.
pub const PROVIDER_DEADLINE_MS: u64 = 2000;

/// One `serve` child. Killed and reaped on drop, so no exit path —
/// panics included — leaves an orphan.
pub struct Proc {
    child: Child,
    pub mesh: String,
    pub http: String,
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Proc {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn spawn(
        bin: &Path,
        id: usize,
        load: Option<&Path>,
        store_dir: Option<&Path>,
        join: Option<&str>,
    ) -> Result<Child, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--node-id", &id.to_string()])
            .args(["--listen", "127.0.0.1:0", "--http", "127.0.0.1:0"])
            .args(["--ack-timeout-ms", &PROVIDER_DEADLINE_MS.to_string()])
            .args(["--lookup-timeout-ms", &PROVIDER_DEADLINE_MS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(file) = load {
            cmd.arg("--load").arg(file);
        }
        if let Some(dir) = store_dir {
            cmd.arg("--store-dir").arg(dir);
        }
        if let Some(seed) = join {
            cmd.args(["--join", seed]);
        }
        cmd.spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))
    }

    /// Reads the two start-up lines (`mesh node … listening on A`,
    /// `sparql endpoint on http://B/sparql`); they are printed once the
    /// process has loaded its triples and bound both listeners.
    fn await_startup(mut child: Child) -> Result<Proc, String> {
        let stdout = child.stdout.take().ok_or("child stdout not piped")?;
        let mut lines = BufReader::new(stdout).lines();
        let mut next = |what: &str| -> Result<String, String> {
            match lines.next() {
                Some(Ok(line)) => Ok(line),
                _ => Err(format!("serve exited before printing its {what} line")),
            }
        };
        let parsed = (|| {
            let mesh_line = next("mesh")?;
            let http_line = next("http")?;
            let mesh = mesh_line
                .split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .ok_or_else(|| format!("no mesh address in {mesh_line:?}"))?;
            let http = http_line
                .split("http://")
                .nth(1)
                .and_then(|rest| rest.strip_suffix("/sparql"))
                .ok_or_else(|| format!("no http address in {http_line:?}"))?;
            Ok((mesh.to_string(), http.to_string()))
        })();
        match parsed {
            Ok((mesh, http)) => Ok(Proc { child, mesh, http }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }
}

/// An HTTP response as the client sees it.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

/// One blocking HTTP/1.1 exchange over a fresh connection (the endpoint
/// answers `Connection: close`), read to the last body byte.
pub fn http(addr: &str, request: &[u8]) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.write_all(request)?;
    let mut raw = Vec::with_capacity(4096);
    stream.read_to_end(&mut raw)?;
    let status = raw
        .get(9..12)
        .and_then(|s| std::str::from_utf8(s).ok())
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = match raw.windows(4).position(|w| w == b"\r\n\r\n") {
        Some(i) => raw.split_off(i + 4),
        None => Vec::new(),
    };
    Ok(Response { status, body })
}

pub fn sparql_request(addr: &str, query: &str) -> Vec<u8> {
    format!(
        "POST /sparql HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/sparql-query\r\nContent-Length: {}\r\n\r\n{query}",
        query.len()
    )
    .into_bytes()
}

fn get(addr: &str, path: &str) -> std::io::Result<Response> {
    http(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes(),
    )
}

/// Whether `body` is a complete answer carrying exactly the oracle's rows.
pub fn answer_matches(response: &Response, query: &PoolQuery) -> bool {
    let Ok(body) = std::str::from_utf8(&response.body) else {
        return false;
    };
    response.status == 200
        && body.contains("\"complete\":true")
        && binding_rows(body).is_some_and(|rows| rows == query.expected)
}

/// The check every timed request gets: status 200, `"complete":true`
/// and as many binding rows as the oracle has.
pub fn answer_has_rows(response: &std::io::Result<Response>, query: &PoolQuery) -> bool {
    const COMPLETE: &[u8] = b"\"complete\":true";
    response.as_ref().is_ok_and(|r| {
        r.status == 200
            && r.body.windows(COMPLETE.len()).any(|w| w == COMPLETE)
            && count_binding_rows(&r.body) == Some(query.expected.len())
    })
}

/// `GET /metrics` parsed into `name → value`.
pub fn metrics(addr: &str) -> Result<HashMap<String, u64>, String> {
    let response = get(addr, "/metrics").map_err(|e| format!("GET /metrics: {e}"))?;
    Ok(String::from_utf8_lossy(&response.body)
        .lines()
        .filter_map(|line| {
            let (name, value) = line.split_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect())
}

/// What `/proc/<pid>` says about one process.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    /// User + system CPU time, milliseconds.
    pub cpu_ms: f64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
    /// Peak resident set (`VmHWM`), MB.
    pub peak_rss_mb: f64,
}

pub fn proc_stat(pid: u32) -> Result<ProcStat, String> {
    let read = |path: String| std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"));
    let field = |text: &str, key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // Per-thread figures summed over the live threads: `schedstat` counts
    // on-CPU nanoseconds where `stat` counts 10 ms ticks, and `status`
    // counts context switches per thread. `serve` keeps its threads for
    // the life of the process, so the sums only grow.
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task"))
        .map_err(|e| format!("/proc/{pid}/task: {e}"))?;
    let (mut cpu_ns, mut ctx_switches) = (0u64, 0u64);
    for task in tasks.flatten() {
        let dir = task.path();
        let Ok(sched) = std::fs::read_to_string(dir.join("schedstat")) else {
            continue;
        };
        cpu_ns += sched
            .split_whitespace()
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let Ok(status) = std::fs::read_to_string(dir.join("status")) else {
            continue;
        };
        ctx_switches += field(&status, "voluntary_ctxt_switches:")
            + field(&status, "nonvoluntary_ctxt_switches:");
    }
    let status = read(format!("/proc/{pid}/status"))?;
    Ok(ProcStat {
        cpu_ms: cpu_ns as f64 / 1e6,
        ctx_switches,
        peak_rss_mb: field(&status, "VmHWM:") as f64 / 1024.0,
    })
}

/// Polls `p`'s `/health` until it reports `members` members.
fn await_roster(p: &Proc, members: usize, deadline: Instant) -> Result<(), String> {
    let want = format!("\"members\":{members}");
    loop {
        let healthy = get(&p.http, "/health")
            .is_ok_and(|r| r.status == 200 && String::from_utf8_lossy(&r.body).contains(&want));
        if healthy {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("{} never saw {want}", p.http));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Four `serve` processes forming one mesh. Queries go to process 1.
pub struct Mesh {
    pub procs: Vec<Proc>,
    /// Seconds from the first spawn to the moment every pool query had
    /// been answered exactly as the oracle answers it.
    pub setup_s: f64,
}

impl Mesh {
    /// Spawns the mesh on `inputs`' files and waits until it answers
    /// every pool query correctly. `store_root` puts each process on
    /// `--store-dir <store_root>/p<i>` (bulk-loading its file there).
    pub fn start(bin: &Path, inputs: &Inputs, store_root: Option<&Path>) -> Result<Mesh, String> {
        let started = Instant::now();
        let store_dir = |i: usize| store_root.map(|root| root.join(format!("p{}", i + 1)));
        // Process 1 first: the others join through its mesh address,
        // which it prints once it has loaded. The other three then load
        // side by side.
        let first = Proc::await_startup(Proc::spawn(
            bin,
            1,
            Some(&inputs.files[0]),
            store_dir(0).as_deref(),
            None,
        )?)?;
        let joiners: Vec<Child> = (1..inputs.files.len())
            .map(|i| {
                Proc::spawn(
                    bin,
                    i + 1,
                    Some(&inputs.files[i]),
                    store_dir(i).as_deref(),
                    Some(&first.mesh),
                )
            })
            .collect::<Result<_, _>>()?;
        let mut procs = vec![first];
        // Wrap every child before checking any, so an early error still
        // reaps them all.
        let started_joiners: Vec<Result<Proc, String>> =
            joiners.into_iter().map(Proc::await_startup).collect();
        for p in started_joiners {
            procs.push(p?);
        }
        let mut mesh = Mesh {
            procs,
            setup_s: 0.0,
        };
        mesh.await_members(started + CONVERGE)?;
        mesh.await_correct(inputs, started + CONVERGE)?;
        mesh.setup_s = started.elapsed().as_secs_f64();
        Ok(mesh)
    }

    pub fn entry(&self) -> &str {
        &self.procs[0].http
    }

    /// Polls `/health` on every process until each reports the full roster.
    pub fn await_members(&self, deadline: Instant) -> Result<(), String> {
        self.procs
            .iter()
            .try_for_each(|p| await_roster(p, self.procs.len(), deadline))
    }

    /// Sends every pool query until its answer equals the oracle's: index
    /// publication converges a moment after the roster does.
    pub fn await_correct(&self, inputs: &Inputs, deadline: Instant) -> Result<(), String> {
        for q in inputs.distinct() {
            let request = sparql_request(self.entry(), &q.text);
            while !http(self.entry(), &request).is_ok_and(|r| answer_matches(&r, q)) {
                if Instant::now() > deadline {
                    return Err(format!("the mesh never answered correctly: {}", q.text));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        Ok(())
    }

    /// Kills process `i` (SIGKILL, no flush) and restarts it under its
    /// old id — on its store directory alone when it has one, reloading
    /// its file otherwise. Returns seconds from the spawn until the new
    /// process and process 1 both report the full roster again, and how
    /// many distinct pool queries process 1 then answers as the oracle does.
    ///
    /// The second figure is reported, not required: a member that rejoins
    /// under its old id is announced only to the member it joined
    /// through, so the others neither learn its new address nor
    /// republish their keys to its (empty) index slice.
    pub fn kill_and_restart(
        &mut self,
        bin: &Path,
        i: usize,
        store_root: Option<&Path>,
        inputs: &Inputs,
    ) -> Result<(f64, usize), String> {
        let store_dir = store_root.map(|root| root.join(format!("p{}", i + 1)));
        let file = store_dir.is_none().then(|| inputs.files[i].as_path());
        // The old process must be gone before the new one opens the
        // directory.
        drop(self.procs.remove(i));
        let started = Instant::now();
        let spawned = Proc::spawn(
            bin,
            i + 1,
            file,
            store_dir.as_deref(),
            Some(&self.procs[0].mesh),
        )?;
        self.procs.insert(i, Proc::await_startup(spawned)?);
        for p in [&self.procs[i], &self.procs[0]] {
            await_roster(p, self.procs.len(), started + CONVERGE)?;
        }
        let seconds = started.elapsed().as_secs_f64();
        let correct = inputs
            .distinct()
            .filter(|q| {
                http(self.entry(), &sparql_request(self.entry(), &q.text))
                    .is_ok_and(|r| answer_matches(&r, q))
            })
            .count();
        Ok((seconds, correct))
    }
}
