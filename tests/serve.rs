//! End-to-end test of `rdfmesh serve`: three real OS processes form a
//! mesh over loopback TCP, and HTTP SPARQL queries against one of them
//! return exactly the bindings the simulator backend produces for the
//! same data — the acceptance walkthrough of `docs/DEPLOYMENT.md`, run
//! by the test harness instead of a human.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rdfmesh::{parse_query, SharingSystem, Triple};

/// Kills the child process on drop so a failed assertion cannot leak
/// orphan `serve` processes.
struct Guard(Child);

impl Drop for Guard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `rdfmesh serve` and parses the two startup lines for the mesh
/// and HTTP addresses (stdout is line-buffered, so they arrive promptly).
fn spawn_node(id: u64, data: &Path, join: Option<&str>) -> (Guard, String, String) {
    spawn_node_with(id, Some(data), join, None)
}

/// [`spawn_node`] with an optional `--store-dir` (persistent backend)
/// and an optional `--load` file — a store dir alone reopens whatever
/// was flushed there before.
fn spawn_node_with(
    id: u64,
    data: Option<&Path>,
    join: Option<&str>,
    store_dir: Option<&Path>,
) -> (Guard, String, String) {
    spawn_node_flags(id, data, join, store_dir, &[])
}

/// [`spawn_node_with`] plus arbitrary extra `serve` flags (admission
/// window sizing in the overload test below).
fn spawn_node_flags(
    id: u64,
    data: Option<&Path>,
    join: Option<&str>,
    store_dir: Option<&Path>,
    extra: &[&str],
) -> (Guard, String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rdfmesh"));
    cmd.args(["serve", "--node-id", &id.to_string()])
        .args(["--listen", "127.0.0.1:0", "--http", "127.0.0.1:0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(data) = data {
        cmd.args(["--load", data.to_str().unwrap()]);
    }
    if let Some(dir) = store_dir {
        cmd.args(["--store-dir", dir.to_str().unwrap()]);
    }
    if let Some(seed) = join {
        cmd.args(["--join", seed]);
    }
    let mut child = cmd.spawn().expect("spawn rdfmesh serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let mesh_line = lines.next().expect("mesh line").expect("read mesh line");
    let http_line = lines.next().expect("http line").expect("read http line");
    let mesh_addr = mesh_line
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("mesh address in startup line")
        .to_string();
    let http_addr = http_line
        .split("http://")
        .nth(1)
        .and_then(|rest| rest.strip_suffix("/sparql"))
        .expect("http address in startup line")
        .to_string();
    (Guard(child), mesh_addr, http_addr)
}

/// One blocking HTTP/1.1 request; returns (status line, body).
fn http(addr: &str, request: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect endpoint");
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    stream.write_all(request.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response.lines().next().unwrap_or_default().to_string();
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

fn http_get_sparql(addr: &str, query: &str) -> (String, String) {
    let encoded: String = query
        .bytes()
        .map(|b| match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                (b as char).to_string()
            }
            b => format!("%{b:02X}"),
        })
        .collect();
    http(addr, &format!("GET /sparql?query={encoded} HTTP/1.1\r\nHost: {addr}\r\n\r\n"))
}

fn http_post_sparql(addr: &str, query: &str) -> (String, String) {
    http(
        addr,
        &format!(
            "POST /sparql HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{query}",
            query.len()
        ),
    )
}

/// Extracts the `"bindings":[...]` objects from a SPARQL JSON results
/// document as a sorted set, so documents can be compared independent of
/// solution order.
fn bindings_of(json: &str) -> Vec<String> {
    let start = json.find("\"bindings\":[").map(|i| i + "\"bindings\":[".len());
    let Some(start) = start else { panic!("no bindings array in {json}") };
    let mut rows = Vec::new();
    let mut depth = 0usize;
    let mut row = String::new();
    for c in json[start..].chars() {
        match c {
            '{' => {
                depth += 1;
                row.push(c);
            }
            '}' => {
                depth -= 1;
                row.push(c);
                if depth == 0 {
                    rows.push(std::mem::take(&mut row));
                }
            }
            ']' if depth == 0 => break,
            _ if depth > 0 => row.push(c),
            _ => {}
        }
    }
    rows.sort();
    rows
}

/// The N-Triples lines of a `{"triples":"…"}` graph document, sorted.
/// They stay JSON-escaped — both sides of a comparison are — so a line
/// ends at the escape sequence `\n` and the document at the first bare
/// quote.
fn triples_of(json: &str) -> Vec<String> {
    let start = json.find("\"triples\":\"").map(|i| i + "\"triples\":\"".len());
    let Some(start) = start else { panic!("no triples document in {json}") };
    let mut doc = &json[start..];
    let mut end = 0;
    while !doc[end..].starts_with('"') {
        end += if doc[end..].starts_with('\\') { 2 } else { 1 };
    }
    doc = &doc[..end];
    let mut lines: Vec<String> =
        doc.split("\\n").filter(|l| !l.is_empty()).map(str::to_string).collect();
    lines.sort();
    lines
}

/// The simulator oracle: the same data on the in-process backend, its
/// answer as the JSON document the endpoint would send.
fn sim_json(per_node: &[Vec<Triple>], query: &str) -> String {
    let mut sys = SharingSystem::new();
    let ix = sys.add_index_node().unwrap();
    for triples in per_node {
        sys.add_peer(triples.clone()).unwrap();
    }
    let exec = sys.query(ix, query).unwrap();
    rdfmesh::sparql::to_json(&exec.result)
}

fn sim_bindings(per_node: &[Vec<Triple>], query: &str) -> Vec<String> {
    bindings_of(&sim_json(per_node, query))
}

fn nt(lines: &[&str]) -> Vec<Triple> {
    rdfmesh::rdf::parse_document(&lines.join("\n")).expect("test data parses")
}

#[test]
fn three_serve_processes_answer_http_queries_like_the_simulator() {
    let knows = "<http://xmlns.com/foaf/0.1/knows>";
    let mbox = "<http://xmlns.com/foaf/0.1/mbox>";
    let person = |n: &str| format!("<http://example.org/{n}>");
    let datasets: Vec<Vec<String>> = vec![
        vec![
            format!("{} {knows} {} .", person("alice"), person("bob")),
            format!("{} {mbox} {} .", person("alice"), person("mailto-alice")),
        ],
        vec![format!("{} {knows} {} .", person("bob"), person("carol"))],
        vec![format!("{} {knows} {} .", person("dave"), person("bob"))],
    ];

    let dir = std::env::temp_dir().join(format!("rdfmesh-serve-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let files: Vec<PathBuf> = datasets
        .iter()
        .enumerate()
        .map(|(i, lines)| {
            let path = dir.join(format!("node{}.nt", i + 1));
            std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();
            path
        })
        .collect();

    let (_g1, mesh1, http1) = spawn_node(1, &files[0], None);
    let (_g2, _mesh2, http2) = spawn_node(2, &files[1], Some(&mesh1));
    let (_g3, _mesh3, http3) = spawn_node(3, &files[2], Some(&mesh1));

    // Every process must converge on the full three-member roster before
    // queries can see all providers.
    let deadline = Instant::now() + Duration::from_secs(15);
    for addr in [&http1, &http2, &http3] {
        loop {
            let (status, body) =
                http(addr, &format!("GET /health HTTP/1.1\r\nHost: {addr}\r\n\r\n"));
            assert!(status.contains("200"), "health check failed: {status}");
            if body.contains("\"members\":3") {
                break;
            }
            assert!(Instant::now() < deadline, "roster never reached 3 members: {body}");
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    let triples: Vec<Vec<Triple>> =
        datasets.iter().map(|lines| nt(&lines.iter().map(String::as_str).collect::<Vec<_>>())).collect();

    // A conjunctive query whose join spans processes: alice→bob lives on
    // node 1, bob→carol on node 2, dave→bob on node 3.
    let conjunctive = "SELECT ?x ?y WHERE { ?x foaf:knows ?y . ?y foaf:knows ?z . }";
    assert!(parse_query(conjunctive).is_ok());
    let (status, body) = http_get_sparql(&http3, conjunctive);
    assert!(status.contains("200"), "conjunctive query failed: {status} {body}");
    assert!(body.contains("\"complete\":true"), "answer degraded: {body}");
    assert!(body.contains("\"failed_providers\":[]"), "unexpected failures: {body}");
    assert_eq!(bindings_of(&body), sim_bindings(&triples, conjunctive));

    // The coordinating process's /metrics after that bind join: every
    // protocol counter the repo benchmark reads (benchmark/src/load.rs)
    // prints, zero or not, those the query must move above zero, and the
    // socket counters as before. (`live.batches` and `live.batched_rounds`,
    // which it also reads, are counted nowhere.)
    let (status, body) = http(&http3, &format!("GET /metrics HTTP/1.1\r\nHost: {http3}\r\n\r\n"));
    assert!(status.contains("200"), "metrics route failed: {status}");
    let metric = |name: &str| -> Option<u64> {
        body.lines().find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
    };
    for name in [
        "live.retries",
        "live.ack_timeouts",
        "live.lookup_failures",
        "live.incomplete_queries",
        "live.queued",
        "live.rejected",
    ] {
        assert!(metric(name).is_some(), "{name} missing from /metrics: {body}");
    }
    for name in [
        "live.solution_rounds",
        "live.solutions_shipped",
        "live.solution_bytes",
        "transport.bytes_sent",
        "transport.frames_sent",
    ] {
        assert!(metric(name).is_some_and(|v| v > 0), "{name} not moved in /metrics: {body}");
    }
    // Every socket counter prints once: the node's two counter sets are
    // merged into one map by name, where a shared name would overwrite.
    for name in [
        "transport.frames_sent",
        "transport.frames_received",
        "transport.bytes_sent",
        "transport.bytes_received",
        "transport.connects",
        "transport.reconnects",
        "transport.send_failures",
        "transport.decode_errors",
    ] {
        let lines = body.lines().filter(|line| line.split(' ').next() == Some(name)).count();
        assert_eq!(lines, 1, "{name} printed {lines} times in /metrics: {body}");
    }

    // OPTIONAL over the same mesh, via POST with a raw query body: only
    // alice has a mailbox, so one row binds ?m and two leave it out.
    let optional =
        "SELECT ?p ?m WHERE { ?p foaf:knows ?q . OPTIONAL { ?p foaf:mbox ?m . } }";
    let (status, body) = http_post_sparql(&http2, optional);
    assert!(status.contains("200"), "optional query failed: {status} {body}");
    assert!(body.contains("\"complete\":true"), "answer degraded: {body}");
    assert_eq!(bindings_of(&body), sim_bindings(&triples, optional));

    // A raw body is the query even when the text `query=` occurs in it:
    // alice and dave know bob.
    let named_query =
        "SELECT * WHERE { ?s ?p ?query FILTER(?query=<http://example.org/bob>) }";
    let (status, body) = http_post_sparql(&http1, named_query);
    assert!(status.contains("200"), "a variable named ?query is no form field: {status} {body}");
    assert_eq!(bindings_of(&body).len(), 2, "{body}");
    assert_eq!(bindings_of(&body), sim_bindings(&triples, named_query));

    // DESCRIBE: the resources' triples live in other processes and come
    // through further rounds — an IRI target, a variable one, and one
    // chosen after ORDER BY / LIMIT (alice, who alone is described).
    for (describe, lines) in [
        ("DESCRIBE <http://example.org/alice>", 2),
        ("DESCRIBE ?y WHERE { ?x foaf:knows ?y . }", 1),
        ("DESCRIBE ?x WHERE { ?x foaf:knows ?y . } ORDER BY ?x LIMIT 1", 2),
    ] {
        let (status, body) = http_post_sparql(&http3, describe);
        assert!(status.contains("200"), "{describe} failed: {status} {body}");
        assert!(body.contains("\"complete\":true"), "answer degraded: {body}");
        assert!(!body.contains("\"rounds\":0"), "the triples take a round to fetch: {body}");
        assert_eq!(triples_of(&body).len(), lines, "{describe}: {body}");
        assert_eq!(triples_of(&body), triples_of(&sim_json(&triples, describe)), "{describe}");
    }

    // A dataset clause names a graph no serve peer publishes; the mesh
    // cannot scope to it and says so instead of answering unscoped.
    let scoped = "SELECT * FROM <http://ex/nosuchgraph> WHERE { ?x foaf:knows ?y . }";
    let (status, body) = http_post_sparql(&http1, scoped);
    assert!(status.contains("400"), "expected 400 for a dataset clause: {status} {body}");
    assert!(body.starts_with("{\"error\":"), "{body}");
    assert!(body.contains("FROM <http://ex/nosuchgraph>"), "the error names the clause: {body}");

    // Malformed SPARQL is a client error, not a mesh failure.
    let (status, _) = http_post_sparql(&http1, "SELECT WHERE {");
    assert!(status.contains("400"), "expected 400 for a parse error: {status}");
    // The error quotes what the lexer choked on; a raw control character
    // there must reach the client escaped, or the body is not JSON.
    let (status, body) = http_post_sparql(&http1, "SELECT * WHERE { ?s ?p \"a\\\u{1}b\" }");
    assert!(status.contains("400"), "expected 400 for an unknown escape: {status}");
    assert!(body.contains("unknown escape \\\\\\u0001"), "the error names the escape: {body}");
    assert!(body.bytes().all(|b| b >= 0x20), "raw control character in {body:?}");

    // A body over the 16 MiB cap is refused on its declared length: no
    // body byte is sent, and the answer arrives without the server
    // waiting for one.
    let oversized = format!(
        "POST /sparql HTTP/1.1\r\nHost: {http1}\r\nContent-Length: {}\r\n\r\n",
        16 * 1024 * 1024 + 1
    );
    let (status, body) = http(&http1, &oversized);
    assert!(status.contains("413"), "expected 413 for an oversized body: {status} {body}");
    assert!(body.contains("\"error\""), "the refusal says why: {body}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Waits until `addr`'s /health reports the expected roster size.
fn await_members(addr: &str, members: usize) {
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let (status, body) = http(addr, &format!("GET /health HTTP/1.1\r\nHost: {addr}\r\n\r\n"));
        assert!(status.contains("200"), "health check failed: {status}");
        if body.contains(&format!("\"members\":{members}")) {
            break;
        }
        assert!(Instant::now() < deadline, "roster never reached {members}: {body}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn overloaded_node_sheds_load_with_503_and_exposes_metrics() {
    // A corpus big enough that one query holds its admission slot for a
    // visible interval: 4 departments, three-pattern chain below.
    let cfg = rdfmesh::workload::university::UniversityConfig {
        departments: 4,
        ..Default::default()
    };
    let dir = std::env::temp_dir().join(format!("rdfmesh-serve-overload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("univ.nt");
    let mut out = std::fs::File::create(&corpus).unwrap();
    rdfmesh::workload::university::write_corpus(&cfg, &mut out).unwrap();
    drop(out);

    // The tightest window the flags allow: one query at a time, no queue.
    let (_guard, _, addr) = spawn_node_flags(
        20,
        Some(&corpus),
        None,
        None,
        &["--max-inflight", "1", "--queue-depth", "0"],
    );
    await_members(&addr, 1);

    let query = "SELECT ?s ?p ?c WHERE { ?s <http://example.org/univ#advisor> ?p . \
                 ?p <http://example.org/univ#worksFor> ?d . \
                 ?s <http://example.org/univ#takesCourse> ?c . }";
    let (status, body) = http_get_sparql(&addr, query);
    assert!(status.contains("200"), "warm-up query failed: {status} {body}");
    assert!(body.contains("\"complete\":true"), "warm-up degraded: {body}");

    // Volleys of simultaneous queries against the 1-slot window: the
    // overflow must come back as 503, not as errors or deadline blows.
    // (Scheduling decides how many overlap, so retry a few volleys
    // rather than assert on one race.)
    let mut served = 0usize;
    let mut rejected = 0usize;
    for _ in 0..5 {
        let outcomes: Vec<(String, String)> = std::thread::scope(|s| {
            let handles: Vec<_> =
                (0..8).map(|_| s.spawn(|| http_get_sparql(&addr, query))).collect();
            handles.into_iter().map(|h| h.join().expect("no request panics")).collect()
        });
        for (status, body) in outcomes {
            if status.contains("503") {
                rejected += 1;
                assert!(body.contains("overloaded"), "503 names the cause: {body}");
            } else {
                assert!(status.contains("200"), "only 200 or 503 under overload: {status}");
                assert!(body.contains("\"complete\":true"), "admitted query degraded: {body}");
                served += 1;
            }
        }
        if rejected > 0 {
            break;
        }
    }
    assert!(rejected > 0, "8 simultaneous queries never tripped the 1-slot window");
    assert!(served > 0, "the window itself keeps serving");

    // /metrics: the obs registry as flat name-value lines, admission
    // gauges included — observable without log scraping.
    let (status, body) = http(&addr, &format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\n\r\n"));
    assert!(status.contains("200"), "metrics route failed: {status}");
    let gauge = |name: &str| -> u64 {
        body.lines()
            .find_map(|line| line.strip_prefix(name).and_then(|v| v.trim().parse().ok()))
            .unwrap_or_else(|| panic!("{name} missing from /metrics: {body}"))
    };
    assert!(gauge("live.admitted ") > served as u64, "warm-up plus every 200 was admitted");
    assert_eq!(gauge("live.rejected "), rejected as u64, "every 503 was counted");
    assert!(gauge("live.solution_rounds ") >= 3, "the chain query ran its rounds");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persistent_store_node_answers_byte_identically_to_in_memory() {
    // A LUBM-style corpus big enough to exercise segments without
    // slowing the suite: 4 departments ≈ 600 statements.
    let cfg = rdfmesh::workload::university::UniversityConfig {
        departments: 4,
        ..Default::default()
    };
    let dir = std::env::temp_dir().join(format!("rdfmesh-serve-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = dir.join("univ.nt");
    let mut out = std::fs::File::create(&corpus).unwrap();
    rdfmesh::workload::university::write_corpus(&cfg, &mut out).unwrap();
    drop(out);
    let store_dir = dir.join("store");

    // Two independent single-node meshes over the same corpus: one on
    // the in-memory TripleStore, one on the persistent backend.
    let (_mem_guard, _, http_mem) = spawn_node_with(10, Some(&corpus), None, None);
    let (store_guard, _, http_store) =
        spawn_node_with(11, Some(&corpus), None, Some(&store_dir));
    await_members(&http_mem, 1);
    await_members(&http_store, 1);

    let queries = [
        "SELECT ?s ?p ?d WHERE { ?s <http://example.org/univ#advisor> ?p . \
         ?p <http://example.org/univ#worksFor> ?d . }",
        "SELECT ?c ?n WHERE { ?c <http://example.org/univ#credits> ?n . FILTER (?n >= 4) }",
        "SELECT DISTINCT ?prof WHERE { ?s <http://example.org/univ#advisor> ?prof . \
         OPTIONAL { ?prof <http://example.org/univ#teacherOf> ?c . } } ORDER BY ?prof",
    ];
    let mut expected = Vec::new();
    for query in &queries {
        let (status, mem_body) = http_get_sparql(&http_mem, query);
        assert!(status.contains("200"), "in-memory query failed: {status} {mem_body}");
        let (status, store_body) = http_get_sparql(&http_store, query);
        assert!(status.contains("200"), "persistent query failed: {status} {store_body}");
        let rows = bindings_of(&mem_body);
        assert!(!rows.is_empty(), "parity queries must match something: {query}");
        assert_eq!(rows, bindings_of(&store_body), "backends disagree on: {query}");
        expected.push(rows);
    }

    // Restart the persistent node from its store directory alone — the
    // flushed segments and dictionary must reproduce the same answers
    // without re-loading any N-Triples.
    drop(store_guard);
    let (_reopened, _, http_reopened) = spawn_node_with(11, None, None, Some(&store_dir));
    await_members(&http_reopened, 1);
    for (query, rows) in queries.iter().zip(&expected) {
        let (status, body) = http_get_sparql(&http_reopened, query);
        assert!(status.contains("200"), "reopened query failed: {status} {body}");
        assert_eq!(&bindings_of(&body), rows, "reopened store disagrees on: {query}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_store_node_recovers_unflushed_writes_after_restart() {
    // Populate a store directory with acknowledged but *unflushed*
    // writes — they exist only in the write-ahead log — and "crash" by
    // dropping the store without a flush.
    let dir = std::env::temp_dir().join(format!("rdfmesh-serve-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store_dir = dir.join("store");
    let knows = "http://xmlns.com/foaf/0.1/knows";
    let person = |n: &str| rdfmesh::rdf::Term::iri(&format!("http://example.org/{n}"));
    {
        let mut store = rdfmesh::PersistentStore::open(&store_dir).expect("create store");
        let mut insert = |s: &str, o: &str| {
            assert!(store
                .try_insert(&Triple::new(person(s), rdfmesh::rdf::Term::iri(knows), person(o)))
                .expect("durable insert"));
        };
        insert("alice", "bob");
        insert("bob", "carol");
        insert("carol", "dave");
        // No flush: the segments know nothing about these triples.
    }

    // A serve process over that directory must replay the WAL and answer.
    let query = "SELECT ?x ?z WHERE { ?x foaf:knows ?y . ?y foaf:knows ?z . }";
    let (guard, _, addr) = spawn_node_with(30, None, None, Some(&store_dir));
    await_members(&addr, 1);
    let (status, body) = http_get_sparql(&addr, query);
    assert!(status.contains("200"), "query after WAL replay failed: {status} {body}");
    assert!(body.contains("\"complete\":true"), "degraded answer: {body}");
    let rows = bindings_of(&body);
    assert_eq!(rows.len(), 2, "alice→carol and bob→dave: {body}");

    // SIGKILL the process — no graceful shutdown, no flush — and restart
    // it from the directory alone: the answers must be identical.
    drop(guard);
    let (_guard2, _, addr2) = spawn_node_with(30, None, None, Some(&store_dir));
    await_members(&addr2, 1);
    let (status, body) = http_get_sparql(&addr2, query);
    assert!(status.contains("200"), "query after kill+restart failed: {status} {body}");
    assert_eq!(bindings_of(&body), rows, "restart changed the answer");

    let _ = std::fs::remove_dir_all(&dir);
}
