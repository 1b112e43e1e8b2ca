//! Layers priced one public call at a time, outside any mesh: the socket
//! transport (a two-node echo), the wire codec and provider-local
//! evaluation on the traced rounds' own inputs, the two triple stores on
//! process 1's file, and index-key derivation.

use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rdfmesh::chord::IdSpace;
use rdfmesh::core::{LiveMsg, QueryId};
use rdfmesh::net::{Envelope, FaultPlan, NodeId, Outbox, TcpCluster, WireFault, WireMsg};
use rdfmesh::overlay::keys_for_triple;
use rdfmesh::rdf::{parse_document, SharedStore, Term, TermPattern, Triple, TriplePattern};
use rdfmesh::sparql::eval::evaluate_pattern_with;
use rdfmesh::sparql::Solution;
use rdfmesh::workload::university::ub;
use rdfmesh::{LoadConfig, PatternSource, PersistentStore};

use crate::inputs::Inputs;
use crate::report::Report;
use crate::trace::CapturedRound;

/// Seconds of `f`.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let began = Instant::now();
    let out = f();
    (out, began.elapsed().as_secs_f64())
}

/// Mean nanoseconds of `f` over `reps` calls.
pub fn mean_ns(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let began = Instant::now();
    for i in 0..reps {
        f(i);
    }
    began.elapsed().as_secs_f64() * 1e9 / reps.max(1) as f64
}

/// An in-memory store filled the way `serve --load` fills one:
/// statement by statement, with no intermediate `Vec<Triple>`.
pub fn load_memory(ntriples: &str) -> Result<SharedStore, rdfmesh::rdf::ParseError> {
    let store = SharedStore::memory();
    for statement in rdfmesh::rdf::parse_statements(ntriples) {
        store.insert(&statement?.1);
    }
    Ok(store)
}

/// An opaque payload for the echo: the transport's framing, socket
/// writes and reads, and mailbox hand-offs, with a codec that only copies.
struct Ping(Vec<u8>);

impl WireMsg for Ping {
    fn encode_wire(&self) -> Vec<u8> {
        self.0.clone()
    }
    fn decode_wire(bytes: &[u8]) -> Result<Self, WireFault> {
        Ok(Ping(bytes.to_vec()))
    }
}

/// Echo round-trip times by payload size, and the one-way cost they
/// imply for a frame of any size (piecewise linear in between).
pub struct Echo {
    /// `(payload bytes, round trip µs)`, ascending.
    points: Vec<(f64, f64)>,
}

impl Echo {
    pub fn one_way_us(&self, bytes: usize) -> f64 {
        let x = bytes as f64;
        let segment = self
            .points
            .windows(2)
            .find(|w| x <= w[1].0)
            .unwrap_or(&self.points[self.points.len() - 2..]);
        let ((x0, y0), (x1, y1)) = (segment[0], segment[1]);
        let rtt = y0 + (x.max(x0) - x0) * (y1 - y0) / (x1 - x0);
        rtt / 2.0
    }
}

/// `tcp.echo_rtt_us.*`: node 1 → socket → node 2 → socket → node 1 on a
/// two-node [`TcpCluster`] whose every send crosses its listener.
pub fn tcp_echo(report: &mut Report) -> Result<Echo, String> {
    let (tx, rx) = mpsc::channel::<usize>();
    let cluster = TcpCluster::<Ping>::spawn_loopback(
        vec![
            (
                NodeId(1),
                Box::new(move |env: Envelope<Ping>, _: &Outbox<Ping>| {
                    let _ = tx.send(env.payload.0.len());
                }),
            ),
            (
                NodeId(2),
                Box::new(|env: Envelope<Ping>, out: &Outbox<Ping>| {
                    out.send(env.from, env.payload);
                }),
            ),
        ],
        FaultPlan::new(),
    )
    .map_err(|e| format!("echo cluster: {e}"))?;
    let mut points = Vec::new();
    for (label, bytes, reps) in [
        ("64B", 64usize, 2000usize),
        ("64KiB", 64 << 10, 300),
        ("1MiB", 1 << 20, 40),
    ] {
        let round_trip = || -> Result<(), String> {
            cluster.inject(NodeId(1), NodeId(2), Ping(vec![0x5a; bytes]));
            match rx.recv_timeout(Duration::from_secs(10)) {
                Ok(n) if n == bytes => Ok(()),
                other => Err(format!("echo of {bytes} bytes came back as {other:?}")),
            }
        };
        for _ in 0..reps / 10 {
            round_trip()?;
        }
        let began = Instant::now();
        for _ in 0..reps {
            round_trip()?;
        }
        let rtt_us = began.elapsed().as_secs_f64() * 1e6 / reps as f64;
        report.put(&format!("tcp.echo_rtt_us.{label}"), rtt_us, "us");
        points.push((bytes as f64, rtt_us));
    }
    cluster.shutdown();
    Ok(Echo { points })
}

/// Seconds to encode and to decode `msg` — the faster of three goes, so
/// a first call's cold caches do not price a ten-row frame — and its
/// encoded size.
fn codec(msg: &LiveMsg) -> (f64, f64, usize) {
    let (mut encode_s, mut decode_s, mut len) = (f64::INFINITY, f64::INFINITY, 0);
    for _ in 0..3 {
        let (bytes, e) = timed(|| msg.encode_wire());
        let (decoded, d) = timed(|| LiveMsg::decode_wire(&bytes));
        assert!(decoded.is_ok(), "a frame the codec wrote must decode");
        (encode_s, decode_s, len) = (encode_s.min(e), decode_s.min(d), bytes.len());
    }
    (encode_s, decode_s, len)
}

/// Prices what sits inside the traced rounds, on the rounds' own inputs:
/// per provider the sub-query frame out, provider-local evaluation (with
/// the pushed-down filter) and the solutions frame back, each through
/// the public codec, plus the transport at those frame sizes. The whole
/// benchmark runs on one CPU, so the providers' parts add up instead of
/// overlapping. Returns the mean priced microseconds per round; reports
/// `live_wire.*` and `sparql.filter_ns_per_row`.
pub fn price_rounds(
    rounds: &[CapturedRound],
    stores: &[SharedStore],
    echo: &Echo,
    report: &mut Report,
) -> f64 {
    let unit = vec![Solution::new()];
    let (mut priced_s, mut encode_s, mut decode_s) = (0.0, 0.0, 0.0);
    let (mut solutions, mut bytes, mut filter_s, mut filter_rows) = (0usize, 0usize, 0.0, 0usize);
    for round in rounds {
        let out = LiveMsg::SubQuerySol {
            qid: QueryId(1),
            pattern: round.pattern.clone(),
            filter: round.filter.clone(),
            bound: round.bound.clone(),
            reply_to: NodeId(1),
        };
        let (out_encode_s, out_decode_s, out_bytes) = codec(&out);
        let bound = round.bound.as_deref().unwrap_or(&unit);
        // The providers the index names: the processes holding a triple
        // under the pattern's key.
        for store in stores
            .iter()
            .filter(|s| s.count_pattern(&round.pattern) > 0)
        {
            let (mut answer, scan_s) =
                timed(|| evaluate_pattern_with(store, &round.pattern, bound));
            if let Some(filter) = &round.filter {
                filter_rows += answer.len();
                let ((), s) = timed(|| answer.retain(|sol| filter.satisfied_by(sol)));
                filter_s += s;
                priced_s += s;
            }
            let shipped = answer.len();
            let reply = LiveMsg::Solutions {
                qid: QueryId(1),
                solutions: answer,
            };
            let (reply_encode_s, reply_decode_s, reply_bytes) = codec(&reply);
            encode_s += reply_encode_s;
            decode_s += reply_decode_s;
            solutions += shipped;
            bytes += reply_bytes;
            priced_s += out_encode_s + out_decode_s + scan_s + reply_encode_s + reply_decode_s;
            priced_s += (echo.one_way_us(out_bytes) + echo.one_way_us(reply_bytes)) / 1e6;
        }
    }
    let per = |total_s: f64, n: usize| total_s * 1e9 / n.max(1) as f64;
    report.put(
        "live_wire.encode_ns_per_solution",
        per(encode_s, solutions),
        "ns",
    );
    report.put(
        "live_wire.decode_ns_per_solution",
        per(decode_s, solutions),
        "ns",
    );
    report.put(
        "live_wire.bytes_per_solution",
        bytes as f64 / solutions.max(1) as f64,
        "B",
    );
    report.put("sparql.filter_ns_per_row", per(filter_s, filter_rows), "ns");
    let lookup = LiveMsg::Lookup {
        qid: QueryId(1),
        pattern: TriplePattern::new(
            TermPattern::var("s"),
            TermPattern::Const(Term::iri(ub::MEMBER_OF)),
            TermPattern::var("d"),
        ),
        reply_to: NodeId(1),
    };
    report.put(
        "live_wire.small_frame_encode_ns",
        mean_ns(20_000, |_| {
            std::hint::black_box(std::hint::black_box(&lookup).encode_wire());
        }),
        "ns",
    );
    priced_s * 1e6 / rounds.len().max(1) as f64
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// `rdf_store.*`, `store.*` and `overlay.keys_for_triple_ns`, all on the
/// file process 1 loads.
pub fn stores(inputs: &Inputs, scratch: &Path, report: &mut Report) -> Result<(), String> {
    let file = &inputs.files[0];
    let text = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
    let triples = parse_document(&text).map_err(|e| format!("{}: {e}", file.display()))?;
    let scan = TriplePattern::new(
        TermPattern::var("s"),
        TermPattern::Const(Term::iri(ub::TAKES_COURSE)),
        TermPattern::var("c"),
    );
    // Bound-subject lookups spread over the whole file, so consecutive
    // ones land in different blocks.
    let lookups: Vec<TriplePattern> = triples
        .iter()
        .filter(|t| t.predicate == Term::iri(ub::MEMBER_OF))
        .step_by(7)
        .take(400)
        .map(|t| {
            TriplePattern::new(
                TermPattern::Const(t.subject.clone()),
                TermPattern::Const(Term::iri(ub::MEMBER_OF)),
                TermPattern::var("d"),
            )
        })
        .collect();
    if lookups.is_empty() {
        return Err(format!("{} holds no memberOf triples", file.display()));
    }
    let measure_reads = |store: &dyn PatternSource| {
        let point = mean_ns(lookups.len() * 5, |i| {
            assert_eq!(store.match_pattern(&lookups[i % lookups.len()]).len(), 1);
        });
        let (matched, scan_s) = timed(|| store.match_pattern(&scan).len());
        (point, scan_s * 1e9 / matched.max(1) as f64)
    };

    // In memory, loaded the way `serve --load` loads it.
    let (memory, load_s) = timed(|| load_memory(&text));
    let memory = memory.map_err(|e| format!("{}: {e}", file.display()))?;
    report.put(
        "rdf_store.load_triples_per_s",
        triples.len() as f64 / load_s,
        "1/s",
    );
    let (point, per_triple) = memory.with(|s| measure_reads(s));
    report.put("rdf_store.point_lookup_ns", point, "ns");
    report.put("rdf_store.scan_ns_per_triple", per_triple, "ns");

    // On disk, loaded the way `serve --store-dir --load` loads it.
    let dir = scratch.join("layer-store");
    let _ = std::fs::remove_dir_all(&dir);
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    let mut store = PersistentStore::open(&dir).map_err(io)?;
    let load = store
        .bulk_load_path(file, &LoadConfig::default())
        .map_err(|e| e.to_string())?;
    report.put(
        "store.bulk_load_triples_per_s",
        load.triples_per_sec(),
        "1/s",
    );
    report.put(
        "store.bytes_per_triple",
        dir_bytes(&dir) as f64 / PatternSource::len(&store).max(1) as f64,
        "B",
    );
    drop(store);
    let (reopened, reopen_s) = timed(|| PersistentStore::open(&dir));
    let mut store = reopened.map_err(io)?;
    report.put("store.reopen_ms", reopen_s * 1e3, "ms");
    // Cold: the process's block cache is empty (the OS page cache is
    // not). Each key once, straight after the reopen.
    let cold = mean_ns(lookups.len(), |i| {
        assert_eq!(store.match_pattern(&lookups[i]).len(), 1);
    });
    report.put("store.cold_point_lookup_ns", cold, "ns");
    let (point, per_triple) = measure_reads(&store);
    report.put("store.point_lookup_ns", point, "ns");
    report.put("store.scan_ns_per_triple", per_triple, "ns");
    // The write path: acknowledged (WAL-appended, fsynced) inserts, then
    // the flush that seals them.
    let fresh: Vec<Triple> = (0..200)
        .map(|i| {
            Triple::new(
                Term::iri(&format!("http://example.org/univ/bench/student{i}")),
                Term::iri(ub::MEMBER_OF),
                Term::iri("http://example.org/univ/bench/dept0"),
            )
        })
        .collect();
    let mut inserted = Ok(true);
    let ack_ns = mean_ns(fresh.len(), |i| {
        if let Ok(true) = inserted {
            inserted = store.try_insert(&fresh[i]);
        }
    });
    if !matches!(inserted, Ok(true)) {
        return Err(format!("a fresh triple was not inserted: {inserted:?}"));
    }
    report.put("store.insert_ack_us", ack_ns / 1e3, "us");
    let (flushed, flush_s) = timed(|| store.flush());
    let flushed = flushed.map_err(io)?;
    report.put("store.flush_ms", flush_s * 1e3, "ms");
    report.put(
        "store.write_amp",
        flushed.keys_written as f64 / flushed.sealed.max(1) as f64,
        "ratio",
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    let space = IdSpace::new(32);
    report.put(
        "overlay.keys_for_triple_ns",
        mean_ns(triples.len().min(20_000), |i| {
            std::hint::black_box(keys_for_triple(space, std::hint::black_box(&triples[i])));
        }),
        "ns",
    );
    Ok(())
}
