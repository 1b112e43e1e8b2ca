//! A minimal HTTP/1.1 SPARQL endpoint over a [`MeshNode`].
//!
//! `rdfmesh serve` mounts this on top of a serve-mode mesh process so
//! ordinary HTTP clients (curl, a browser, a SPARQL library) can query
//! the ad-hoc mesh. The surface follows the SPARQL 1.1 Protocol where it
//! is cheap to do so and documents where it deviates:
//!
//! * `GET /sparql?query=<percent-encoded>` and `POST /sparql` (raw query
//!   body, or `query=` form-encoded) run one query each;
//! * responses are SPARQL JSON results with one extension: a top-level
//!   `"rdfmesh"` object carrying the live execution's fault metadata —
//!   `complete`, `failed_providers`, `rounds` — so clients can tell a
//!   full answer from one that survived a provider crash;
//! * `GET /health` reports the process's roster size, for liveness
//!   probes and the `docs/DEPLOYMENT.md` walkthrough;
//! * `GET /metrics` dumps the process-wide [`rdfmesh_obs`] registry and
//!   the node's own counters — its protocol's ([`rdfmesh_core::LiveStats`],
//!   under their `live.*` / `exec.strategy.*` names) and its socket wire's
//!   (`transport.*`) — as flat `name value` text, one metric per line.
//!
//! A bounded pool of handler threads drains accepted connections from a
//! bounded hand-off queue, `Connection: close` semantics: concurrent
//! connections pipeline their queries through the shared [`MeshNode`]
//! coordinator, and arrivals beyond the queue are turned away
//! immediately with `503 Service Unavailable` + `Retry-After` instead
//! of piling up unbounded threads. Queries that pass the connection
//! layer still face the mesh's own admission window
//! ([`rdfmesh_core::Admission`]), which produces the same 503 shape.

use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use rdfmesh_core::{LiveError, MeshNode};
use rdfmesh_net::{lock, DeadlineStream};
use rdfmesh_sparql::results::push_json_escaped;
use rdfmesh_sparql::to_json;

/// How a served query is executed: the conjunctive strategy and the
/// caller-side wait per solution round.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Ship intermediates with each sub-query (Sect. IV-D bound
    /// evaluation) instead of joining independently-gathered patterns.
    pub bind_join: bool,
    /// Caller-side wait per solution round; keep it comfortably above
    /// `LiveConfig::query_deadline`.
    pub wait: Duration,
    /// Handler threads draining accepted connections — the hard cap on
    /// concurrently *served* requests at the HTTP layer.
    pub handlers: usize,
    /// Accepted connections allowed to wait for a free handler; beyond
    /// this, arrivals get an immediate `503` + `Retry-After`.
    pub backlog: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            bind_join: true,
            wait: Duration::from_secs(30),
            handlers: 8,
            backlog: 32,
        }
    }
}

/// A running HTTP front-end bound to one [`MeshNode`].
pub struct SparqlEndpoint {
    addr: SocketAddr,
    closing: Arc<AtomicBool>,
    accept: Mutex<Option<JoinHandle<()>>>,
    handlers: Mutex<Vec<JoinHandle<()>>>,
}

impl SparqlEndpoint {
    /// Binds `listen` and serves queries against `node` until
    /// [`SparqlEndpoint::shutdown`].
    pub fn serve(
        listen: impl ToSocketAddrs,
        node: Arc<MeshNode>,
        options: ServeOptions,
    ) -> io::Result<SparqlEndpoint> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let closing = Arc::new(AtomicBool::new(false));
        // Bounded hand-off: accept → queue → handler pool. The single
        // shared Receiver sits behind a mutex (std's channel is
        // single-consumer); an idle handler holds the lock only while
        // blocked on recv, releasing it the moment it takes a stream.
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(options.backlog);
        let rx = Arc::new(Mutex::new(rx));
        let handlers = (0..options.handlers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let node = Arc::clone(&node);
                std::thread::Builder::new()
                    .name(format!("rdfmesh-http-{i}"))
                    .spawn(move || {
                        while let Some(stream) = next_stream(&rx) {
                            let _ = handle_connection(stream, &node, options);
                        }
                    })
                    .expect("spawn http handler")
            })
            .collect();
        let accept = {
            let closing = Arc::clone(&closing);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if closing.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    match tx.try_send(stream) {
                        Ok(()) => {}
                        Err(TrySendError::Full(stream)) => {
                            // Queue full: shed load at the door without
                            // reading the request.
                            let _ = Response::overloaded(1, "endpoint connection queue full")
                                .send(stream);
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
                // Dropping `tx` here retires the pool: handlers drain
                // what was queued, then see the channel close and exit.
            })
        };
        Ok(SparqlEndpoint {
            addr,
            closing,
            accept: Mutex::new(Some(accept)),
            handlers: Mutex::new(handlers),
        })
    }

    /// The address the HTTP listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections, then joins the accept thread and the
    /// handler pool (queued connections are still served).
    pub fn shutdown(&self) {
        if self.closing.swap(true, Ordering::Relaxed) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = lock(&self.accept).take() {
            let _ = handle.join();
        }
        for handle in lock(&self.handlers).drain(..) {
            let _ = handle.join();
        }
    }
}

/// Takes the next accepted stream off the shared hand-off queue, or
/// `None` once the accept loop is gone and the queue is drained.
fn next_stream(rx: &Mutex<Receiver<TcpStream>>) -> Option<TcpStream> {
    lock(rx).recv().ok()
}

impl Drop for SparqlEndpoint {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One parsed HTTP request: method, path (query string split off), the
/// body and what it declares itself to be.
struct Request {
    method: String,
    path: String,
    query_string: String,
    /// The `Content-Type` media type, lower-cased, parameters dropped.
    content_type: Option<String>,
    body: Vec<u8>,
}

/// Longest request line or header line accepted, terminator included.
const MAX_LINE: usize = 8 * 1024;
/// Most header lines accepted.
const MAX_HEADERS: usize = 64;
/// Largest request body accepted.
const MAX_BODY: usize = 16 * 1024 * 1024;

/// A request turned away while reading it: the status line to answer
/// with and the text of the JSON `error` member.
type Refusal = (&'static str, &'static str);

const TOO_LARGE_HEADERS: Refusal = (
    "431 Request Header Fields Too Large",
    "request line and header lines are limited to 8 KiB each, headers to 64",
);

/// Reads the next line into `line`; `false` when it exceeds [`MAX_LINE`].
/// At most `MAX_LINE` bytes are ever buffered for it.
fn read_line_bounded(reader: &mut impl BufRead, line: &mut String) -> io::Result<bool> {
    line.clear();
    let n = reader.take(MAX_LINE as u64).read_line(line)?;
    Ok(n < MAX_LINE || line.ends_with('\n'))
}

/// How long a client has to send its whole request: line, headers and
/// body together. The request is read through one [`DeadlineStream`], so
/// a client that trickles one byte per read cannot stretch it.
const REQUEST_DEADLINE: Duration = Duration::from_secs(10);

/// How long a client has to take its whole response. One that stops
/// reading gives its handler back when this has passed.
const RESPONSE_DEADLINE: Duration = REQUEST_DEADLINE;

/// Reads one request, refusing — without reading any further — a line
/// or header count over the limits, a body whose declared length is
/// over [`MAX_BODY`] or not a number, and a request not complete within
/// [`REQUEST_DEADLINE`].
fn read_request(stream: &mut TcpStream) -> io::Result<Result<Request, Refusal>> {
    let reader = BufReader::new(DeadlineStream::after(stream.try_clone()?, REQUEST_DEADLINE));
    match parse_request(reader) {
        // An expired socket timeout reads as either kind, by platform.
        Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
            Ok(Err(("408 Request Timeout", "the whole request must arrive within 10 s")))
        }
        outcome => outcome,
    }
}

fn parse_request(mut reader: impl BufRead) -> io::Result<Result<Request, Refusal>> {
    let mut line = String::new();
    if !read_line_bounded(&mut reader, &mut line)? {
        return Ok(Err(TOO_LARGE_HEADERS));
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let target = parts.next().unwrap_or_default().to_string();
    let (path, query_string) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };
    let mut content_length = 0usize;
    let mut content_type = None;
    let mut headers = 0usize;
    loop {
        if !read_line_bounded(&mut reader, &mut line)? {
            return Ok(Err(TOO_LARGE_HEADERS));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Ok(Err(TOO_LARGE_HEADERS));
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = match value.trim().parse() {
                    Ok(n) if n <= MAX_BODY => n,
                    Ok(_) => {
                        return Ok(Err(("413 Payload Too Large", "request body is limited to 16 MiB")))
                    }
                    Err(_) => return Ok(Err(("400 Bad Request", "Content-Length is not a number"))),
                };
            } else if name.eq_ignore_ascii_case("content-type") {
                let media_type = value.split(';').next().unwrap_or_default();
                content_type = Some(media_type.trim().to_ascii_lowercase());
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Ok(Request { method, path, query_string, content_type, body }))
}

/// What a request is answered with.
struct Response {
    status: &'static str,
    content_type: &'static str,
    /// Raw header lines, each `\r\n`-terminated, e.g. `Retry-After` on a
    /// 503.
    extra_headers: String,
    body: String,
}

impl Response {
    fn new(status: &'static str, content_type: &'static str, body: String) -> Response {
        Response { status, content_type, extra_headers: String::new(), body }
    }

    /// `{"error":"<message>"}` under `status`.
    fn error(status: &'static str, message: &str) -> Response {
        let mut body = String::from("{\"error\":\"");
        push_json_escaped(&mut body, message);
        body.push_str("\"}");
        Response::new(status, "application/json", body)
    }

    /// A `503` that says when to come back.
    fn overloaded(retry_after_s: u64, message: &str) -> Response {
        Response {
            extra_headers: format!("Retry-After: {retry_after_s}\r\n"),
            ..Response::error("503 Service Unavailable", message)
        }
    }

    /// Writes the response to `stream`, the client taking all of it
    /// within [`RESPONSE_DEADLINE`].
    fn send(&self, stream: TcpStream) -> io::Result<()> {
        respond_with(&mut DeadlineStream::after(stream, RESPONSE_DEADLINE), self)
    }
}

/// A body up to this size leaves in the same write as its head; a larger
/// one is not copied for it and leaves in a second.
const ONE_WRITE_BODY: usize = 64 * 1024;

fn respond_with(stream: &mut impl Write, response: &Response) -> io::Result<()> {
    let Response { status, content_type, extra_headers, body } = response;
    let mut head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{extra_headers}Connection: close\r\n\r\n",
        body.len()
    );
    if body.len() <= ONE_WRITE_BODY {
        head.push_str(body);
        stream.write_all(head.as_bytes())
    } else {
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())
    }
}

/// Renders an obs [`rdfmesh_obs::Snapshot`] as flat `name value` text:
/// one line per counter, and per histogram its `count`/`sum`/`min`/
/// `max`/`p50`/`p99` as dotted sub-names. Stable, grep-friendly, no
/// markup — the `GET /metrics` format.
fn render_metrics(snap: &rdfmesh_obs::Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        out.push_str(&format!("{name} {value}\n"));
    }
    for (name, h) in &snap.histograms {
        if h.count() == 0 {
            continue;
        }
        out.push_str(&format!("{name}.count {}\n", h.count()));
        out.push_str(&format!("{name}.sum {}\n", h.sum()));
        out.push_str(&format!("{name}.min {}\n", h.min()));
        out.push_str(&format!("{name}.max {}\n", h.max()));
        out.push_str(&format!("{name}.p50 {}\n", h.quantile(0.50)));
        out.push_str(&format!("{name}.p99 {}\n", h.quantile(0.99)));
    }
    out
}

/// Percent-decodes one URL component, mapping `+` to space.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| std::str::from_utf8(h).ok());
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// The `query` parameter of a form-encoded or query-string payload.
fn query_param(encoded: &str) -> Option<String> {
    encoded
        .split('&')
        .find_map(|pair| pair.strip_prefix("query="))
        .map(percent_decode)
}

/// Extracts the SPARQL text from a request per the SPARQL 1.1 Protocol:
/// `GET` carries it percent-encoded in the query string, `POST` as the
/// raw body (`application/sparql-query`) or form-encoded
/// (`application/x-www-form-urlencoded`, a `query=` pair). A body that
/// does not say which is a form only if it has a `query` pair — the text
/// `query=` inside a query (`FILTER(?query=<…>)`) does not make it one.
fn sparql_text(req: &Request) -> Option<String> {
    match req.method.as_str() {
        "GET" => query_param(&req.query_string),
        "POST" => {
            let body = String::from_utf8_lossy(&req.body);
            if body.trim().is_empty() {
                return query_param(&req.query_string);
            }
            match req.content_type.as_deref() {
                Some("application/sparql-query") => Some(body.into_owned()),
                Some("application/x-www-form-urlencoded") => query_param(&body),
                _ => query_param(&body).or_else(|| Some(body.into_owned())),
            }
        }
        _ => None,
    }
}

/// Splices the `"rdfmesh"` metadata object into a SPARQL JSON results
/// document (which is always a single top-level object), in place.
fn with_metadata(mut results_json: String, exec: &rdfmesh_core::LiveExecution) -> String {
    if !results_json.ends_with('}') {
        return results_json;
    }
    results_json.pop();
    if !results_json.ends_with('{') {
        results_json.push(',');
    }
    let complete = exec.complete;
    let _ = write!(results_json, "\"rdfmesh\":{{\"complete\":{complete},\"failed_providers\":[");
    for (i, provider) in exec.failed_providers.iter().enumerate() {
        let separator = if i > 0 { "," } else { "" };
        let _ = write!(results_json, "{separator}{}", provider.0);
    }
    let _ = write!(results_json, "],\"rounds\":{}}}}}", exec.rounds);
    results_json
}

/// What `req` is answered with.
fn answer(req: &Request, node: &MeshNode, options: ServeOptions) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => Response::new(
            "200 OK",
            "application/json",
            format!(
                "{{\"status\":\"ok\",\"node\":{},\"members\":{},\"mesh_addr\":\"{}\"}}",
                node.id(),
                node.member_count(),
                node.local_addr()
            ),
        ),
        ("GET", "/metrics") => {
            let mut snap = rdfmesh_obs::metrics().snapshot();
            let own = node.stats().named().into_iter().chain(node.transport_stats().named());
            for (name, value) in own {
                snap.counters.insert(name.to_string(), value);
            }
            Response::new("200 OK", "text/plain; charset=utf-8", render_metrics(&snap))
        }
        ("GET" | "POST", "/sparql") => {
            let Some(query) = sparql_text(req) else {
                return Response::error("400 Bad Request", "missing query parameter");
            };
            match node.execute(&query, options.bind_join, options.wait) {
                Ok(exec) => Response::new(
                    "200 OK",
                    "application/sparql-results+json",
                    with_metadata(to_json(&exec.result), &exec),
                ),
                Err(LiveError::Parse(e)) => Response::error("400 Bad Request", &e.to_string()),
                Err(e @ LiveError::Dataset(_)) => {
                    Response::error("400 Bad Request", &e.to_string())
                }
                Err(LiveError::Timeout) => {
                    Response::error("504 Gateway Timeout", "solution round timed out")
                }
                Err(LiveError::Overloaded { retry_after }) => Response::overloaded(
                    retry_after.as_secs().max(1),
                    "mesh overloaded; retry later",
                ),
            }
        }
        _ => Response::error(
            "404 Not Found",
            "routes: GET|POST /sparql, GET /health, GET /metrics",
        ),
    }
}

fn handle_connection(
    mut stream: TcpStream,
    node: &MeshNode,
    options: ServeOptions,
) -> io::Result<()> {
    let response = match read_request(&mut stream)? {
        Ok(req) => answer(&req, node, options),
        Err((status, error)) => Response::error(status, error),
    };
    response.send(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// Runs [`read_request`] on the server side of a loopback connection
    /// while `client` writes to the other side from its own thread. The
    /// client's socket stays open until the read has returned, so an
    /// early return is never an end-of-stream in disguise.
    fn served(
        client: impl FnOnce(&mut TcpStream) + Send + 'static,
    ) -> Result<Request, Refusal> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut far, _) = listener.accept().unwrap();
        let writer = std::thread::spawn(move || {
            client(&mut near);
            near
        });
        let outcome = read_request(&mut far).expect("no I/O error");
        drop(far);
        writer.join().unwrap();
        outcome
    }

    fn sent(request: Vec<u8>) -> Result<Request, Refusal> {
        served(move |stream| {
            let _ = stream.write_all(&request);
        })
    }

    fn status_of(outcome: Result<Request, Refusal>) -> &'static str {
        outcome.err().expect("the request is refused").0
    }

    #[test]
    fn over_long_lines_and_too_many_headers_are_refused_with_431() {
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE));
        assert!(status_of(sent(long_target.into_bytes())).starts_with("431"));
        let long_header = format!("GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(MAX_LINE));
        assert!(status_of(sent(long_header.into_bytes())).starts_with("431"));
        let many = format!("GET / HTTP/1.1\r\n{}\r\n", "X-H: v\r\n".repeat(MAX_HEADERS + 1));
        assert!(status_of(sent(many.into_bytes())).starts_with("431"));
    }

    #[test]
    fn an_endless_header_line_is_refused_after_a_bounded_read() {
        let started = Instant::now();
        let outcome = served(|stream| {
            let _ = stream.write_all(b"GET / HTTP/1.1\r\nX-Endless: ");
            // Stops once the far side has hung up.
            while stream.write_all(&[b'a'; 4096]).is_ok() {}
        });
        assert!(status_of(outcome).starts_with("431"));
        assert!(started.elapsed() < Duration::from_secs(10), "refused before the read timeout");
    }

    #[test]
    fn a_trickled_request_is_refused_when_the_request_deadline_passes() {
        let started = Instant::now();
        let outcome = served(|stream| {
            let _ = stream.write_all(b"GET / HTTP/1.1\r\nX-Slow: ");
            // One header byte per 300 ms, each far inside any per-read
            // timeout. Stops once the far side has hung up.
            while stream.write_all(b"a").is_ok() {
                std::thread::sleep(Duration::from_millis(300));
            }
        });
        assert!(status_of(outcome).starts_with("408"));
        assert!(started.elapsed() < Duration::from_secs(12), "held past the request deadline");
    }

    #[test]
    fn body_lengths_over_the_cap_or_not_numeric_are_refused_unread() {
        // No body byte is ever sent and the socket stays open: a reader
        // that waited for the body would time out instead of refusing.
        let declare = |length: &str| {
            format!("POST /sparql HTTP/1.1\r\nContent-Length: {length}\r\n\r\n").into_bytes()
        };
        assert!(status_of(sent(declare(&(MAX_BODY + 1).to_string()))).starts_with("413"));
        assert!(status_of(sent(declare("lots"))).starts_with("400"));
        assert!(status_of(sent(declare("-1"))).starts_with("400"));
    }

    #[test]
    fn a_request_at_every_limit_is_accepted_whole() {
        let pad = |prefix: &str| format!("{prefix}{}\r\n", "a".repeat(MAX_LINE - prefix.len() - 2));
        let request_line = format!("POST /sparql?{} HTTP/1.1\r\n", "q".repeat(MAX_LINE - 24));
        assert_eq!(request_line.len(), MAX_LINE);
        let mut request = request_line.into_bytes();
        request.extend_from_slice(pad("X-Pad: ").as_bytes());
        request.extend_from_slice(format!("Content-Length: {MAX_BODY}\r\n").as_bytes());
        request.extend_from_slice("X-H: v\r\n".repeat(MAX_HEADERS - 2).as_bytes());
        request.extend_from_slice(b"\r\n");
        request.extend(std::iter::repeat_n(b'b', MAX_BODY));
        let req = sent(request).expect("every limit is inclusive");
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/sparql"));
        assert_eq!(req.query_string.len(), MAX_LINE - 24);
        assert_eq!(req.body.len(), MAX_BODY);
        assert!(req.body.iter().all(|&b| b == b'b'));
    }

    #[test]
    fn percent_decoding_handles_spaces_and_hex() {
        assert_eq!(percent_decode("a+b%20c%3Fd"), "a b c?d");
        assert_eq!(percent_decode("plain"), "plain");
        assert_eq!(percent_decode("bad%zz"), "bad%zz");
        assert_eq!(percent_decode("trail%2"), "trail%2");
    }

    #[test]
    fn query_param_finds_the_query_pair() {
        assert_eq!(
            query_param("format=json&query=SELECT+%2A").as_deref(),
            Some("SELECT *")
        );
        assert_eq!(query_param("format=json"), None);
    }

    /// The SPARQL text taken from a `POST /sparql` of `body`.
    fn posted(content_type: Option<&str>, body: &str) -> Option<String> {
        let declared = content_type.map(|t| format!("Content-Type: {t}\r\n")).unwrap_or_default();
        let request =
            format!("POST /sparql HTTP/1.1\r\n{declared}Content-Length: {}\r\n\r\n{body}", body.len());
        sparql_text(&sent(request.into_bytes()).expect("within every limit"))
    }

    #[test]
    fn a_posted_body_is_read_as_its_content_type_says() {
        // `query=` inside the query, and an `&`-pair starting with it
        // inside a literal: neither makes a declared raw body a form.
        let raw = "SELECT * WHERE { ?s ?p ?query FILTER(?query=<http://e/o>) }";
        let decoy = "SELECT * WHERE { ?s ?p \"a+b&query=c%20d\" }";
        for query in [raw, decoy] {
            assert_eq!(posted(Some("application/sparql-query"), query).as_deref(), Some(query));
            let with_charset = Some("Application/SPARQL-Query; charset=utf-8");
            assert_eq!(posted(with_charset, query).as_deref(), Some(query));
        }
        let form = Some("application/x-www-form-urlencoded");
        assert_eq!(posted(form, "format=json&query=ASK+%7B%7D").as_deref(), Some("ASK {}"));
        assert_eq!(posted(form, raw), None, "a declared form without a query pair has no query");
        // Undeclared: a form when a pair starts with `query=`, else verbatim.
        assert_eq!(posted(None, "query=ASK+%7B%7D").as_deref(), Some("ASK {}"));
        assert_eq!(posted(None, raw).as_deref(), Some(raw));
    }

    #[test]
    fn metrics_render_as_flat_name_value_lines() {
        let mut snap = rdfmesh_obs::Snapshot::default();
        snap.counters.insert("live.admitted".into(), 7);
        snap.counters.insert("live.rejected".into(), 2);
        let text = render_metrics(&snap);
        assert_eq!(text, "live.admitted 7\nlive.rejected 2\n");
        assert_eq!(render_metrics(&rdfmesh_obs::Snapshot::default()), "");
    }

    /// `GET /metrics` reports the node's own socket counters, whatever
    /// the process-wide registry holds: here it is switched off, and a
    /// second node's join has put frames on the first one's wire.
    #[test]
    fn metrics_report_the_nodes_own_transport_counters() {
        rdfmesh_obs::metrics().disable();
        let store = || rdfmesh_rdf::TripleStore::new();
        let cfg = rdfmesh_core::LiveConfig::default();
        let node = Arc::new(MeshNode::start("127.0.0.1:0", 1, store(), cfg).unwrap());
        let peer = MeshNode::start("127.0.0.1:0", 2, store(), cfg).unwrap();
        assert!(node.join(peer.local_addr()));
        let endpoint =
            SparqlEndpoint::serve("127.0.0.1:0", Arc::clone(&node), ServeOptions::default())
                .unwrap();
        let before = node.transport_stats();
        let mut stream = TcpStream::connect(endpoint.local_addr()).unwrap();
        stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: rdfmesh\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let after = node.transport_stats();
        let metric = |name: &str| -> u64 {
            let line = response.lines().find_map(|l| l.strip_prefix(name)?.strip_prefix(' '));
            line.and_then(|v| v.parse().ok()).unwrap_or_else(|| panic!("no {name}: {response}"))
        };
        let bytes = metric("transport.bytes_sent");
        let frames = metric("transport.frames_sent");
        assert!(before.frames_sent > 0, "the join crossed the wire: {before:?}");
        assert!((before.bytes_sent..=after.bytes_sent).contains(&bytes), "{bytes} B");
        assert!((before.frames_sent..=after.frames_sent).contains(&frames), "{frames} frames");
        endpoint.shutdown();
        peer.shutdown();
        node.shutdown();
    }

    /// `GET /metrics` inserts the node's two counter sets into one map by
    /// name: a name in both, or twice in one, would overwrite a value.
    #[test]
    fn the_nodes_counter_sets_list_every_name_once() {
        let live = rdfmesh_core::LiveStatsSnapshot::default().named();
        let wire = rdfmesh_net::TransportSnapshot::default().named();
        let names: std::collections::BTreeSet<&str> =
            live.iter().chain(&wire).map(|(name, _)| *name).collect();
        assert_eq!(names.len(), live.len() + wire.len(), "a name listed twice: {names:?}");
        assert_eq!(wire.len(), 8);
        assert!(wire.iter().all(|(name, _)| name.starts_with("transport.")), "{wire:?}");
    }

    #[test]
    fn metadata_splices_into_result_objects() {
        let exec = rdfmesh_core::LiveExecution {
            result: rdfmesh_sparql::QueryResult::Boolean(true),
            complete: false,
            failed_providers: vec![rdfmesh_net::NodeId(3), rdfmesh_net::NodeId(9)],
            rounds: 2,
        };
        let spliced = with_metadata("{\"head\":{},\"boolean\":true}".to_string(), &exec);
        assert_eq!(
            spliced,
            "{\"head\":{},\"boolean\":true,\"rdfmesh\":{\"complete\":false,\"failed_providers\":[3,9],\"rounds\":2}}"
        );
        let empty = with_metadata("{}".to_string(), &exec);
        assert_eq!(
            empty,
            "{\"rdfmesh\":{\"complete\":false,\"failed_providers\":[3,9],\"rounds\":2}}"
        );
    }

    /// Counts the `write` calls made on it and keeps the bytes. It takes
    /// whatever it is handed, so `write_all` is one call.
    #[derive(Default)]
    struct Counting {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write_and_a_large_one_two() {
        let small = Response::overloaded(3, "come back");
        let mut out = Counting::default();
        respond_with(&mut out, &small).unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(
            String::from_utf8(out.bytes).unwrap(),
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
             Content-Length: 21\r\nRetry-After: 3\r\nConnection: close\r\n\r\n\
             {\"error\":\"come back\"}"
        );

        for (len, writes) in [(ONE_WRITE_BODY, 1), (ONE_WRITE_BODY + 1, 2), (300 * 1024, 2)] {
            let body: String = ('a'..='z').cycle().take(len).collect();
            let large = Response::new("200 OK", "application/sparql-results+json", body.clone());
            let mut out = Counting::default();
            respond_with(&mut out, &large).unwrap();
            assert_eq!(out.writes, writes, "{len} bytes");
            let expected = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/sparql-results+json\r\n\
                 Content-Length: {len}\r\nConnection: close\r\n\r\n{body}"
            );
            assert!(out.bytes == expected.as_bytes(), "{len} bytes");
        }
    }

    /// Both ends of a loopback connection: (client side, server side).
    fn connected() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (far, _) = listener.accept().unwrap();
        (near, far)
    }

    /// More than a loopback connection buffers for a client that is not
    /// reading.
    const MORE_THAN_THE_SOCKET_HOLDS: usize = 64 * 1024 * 1024;

    #[test]
    fn a_client_that_never_reads_releases_its_handler_at_the_deadline() {
        let (near, far) = connected();
        let response =
            Response::new("200 OK", "text/plain", "x".repeat(MORE_THAN_THE_SOCKET_HOLDS));
        let allowed = Duration::from_millis(500);
        let started = Instant::now();
        let outcome = respond_with(&mut DeadlineStream::after(far, allowed), &response);
        let held = started.elapsed();
        // An expired socket timeout reads as either kind, by platform.
        let kind = outcome.expect_err("the response cannot have been taken").kind();
        assert!(matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut), "{kind:?}");
        assert!(held >= allowed, "gave up after {held:?}, before the deadline");
        assert!(held < allowed + Duration::from_secs(5), "held for {held:?}");
        drop(near);
    }

    #[test]
    fn a_prompt_reader_gets_exactly_content_length_bytes() {
        let (mut near, far) = connected();
        let body: String = ('a'..='z').cycle().take(3 * 1024 * 1024 + 17).collect();
        let response = Response::new("200 OK", "text/plain", body.clone());
        let reader = std::thread::spawn(move || {
            let mut taken = Vec::new();
            near.read_to_end(&mut taken).unwrap();
            taken
        });
        response.send(far).expect("a reader that keeps up is served whole");
        let taken = reader.join().unwrap();
        let split = taken.windows(4).position(|w| w == b"\r\n\r\n").expect("a head") + 4;
        let head = std::str::from_utf8(&taken[..split]).unwrap();
        let declared: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("a Content-Length")
            .parse()
            .unwrap();
        assert_eq!(declared, body.len());
        assert!(&taken[split..] == body.as_bytes(), "{} body bytes", taken.len() - split);
    }

    /// The text inside a JSON string literal, unescaped; `None` unless it
    /// is one by RFC 8259 §7.
    fn json_unescape(inside: &str) -> Option<String> {
        let mut out = String::new();
        let mut chars = inside.chars();
        while let Some(c) = chars.next() {
            match c {
                '"' => return None,
                c if (c as u32) < 0x20 => return None,
                '\\' => match chars.next()? {
                    c @ ('"' | '\\' | '/') => out.push(c),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let hex: String = chars.by_ref().take(4).collect();
                        out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                    }
                    _ => return None,
                },
                c => out.push(c),
            }
        }
        Some(out)
    }

    #[test]
    fn a_parse_error_naming_a_control_character_is_still_json() {
        let error = rdfmesh_sparql::parse_query("SELECT * WHERE { ?s ?p \"a\\\u{1}b\" }")
            .expect_err("\\ before U+0001 is no escape")
            .to_string();
        assert!(error.contains('\u{1}'), "the message quotes the character: {error:?}");
        let response = Response::error("400 Bad Request", &error);
        assert!(response.body.bytes().all(|b| b >= 0x20), "{:?}", response.body);
        let inside = response
            .body
            .strip_prefix("{\"error\":\"")
            .and_then(|rest| rest.strip_suffix("\"}"))
            .expect("one error member");
        assert_eq!(json_unescape(inside).as_deref(), Some(error.as_str()));
    }
}
