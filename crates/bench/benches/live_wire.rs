//! Micro-benchmarks of the live wire codec: encode/decode of the
//! batched solution-shipping frames (`SubmitSolBatch`,
//! `SubQuerySolBatch`, `SolutionsBatch`) that PR 8's submit pump and
//! coordinator coalescing put on every loaded link, plus the singleton
//! `SubQuerySol` they replace. `encode_wire` pre-sizes its buffer from
//! a size hint; these benches price that allocation path at realistic
//! batch widths.

use criterion::{criterion_group, criterion_main, Criterion};
use rdfmesh_core::{LiveMsg, QueryId, SolRound};
use rdfmesh_net::{NodeId, WireMsg};
use rdfmesh_rdf::{Term, TermPattern, TriplePattern, Variable};
use rdfmesh_sparql::Solution;

fn solution(n: u64) -> Solution {
    Solution::from_pairs([
        (Variable::new("x"), Term::iri(&format!("http://example.org/person/{n}"))),
        (Variable::new("y"), Term::iri(&format!("http://example.org/person/{}", n * 7 % 1000))),
    ])
}

fn pattern() -> TriplePattern {
    TriplePattern::new(
        TermPattern::var("x"),
        Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS),
        TermPattern::var("y"),
    )
}

fn round(qid: u64, bound: usize) -> SolRound {
    SolRound {
        qid: QueryId(qid),
        pattern: pattern(),
        filter: None,
        bound: (bound > 0).then(|| (0..bound as u64).map(solution).collect()),
    }
}

/// The frames a loaded mesh actually ships: a singleton sub-query, a
/// submission of one round and of eight, the sub-query batched 32-wide,
/// and the storage node's batched reply (8 queries × 16 solutions).
fn messages() -> Vec<(&'static str, LiveMsg)> {
    let single = {
        let r = round(1, 16);
        LiveMsg::SubQuerySol {
            qid: r.qid,
            pattern: r.pattern,
            filter: r.filter,
            bound: r.bound,
            reply_to: NodeId(7),
        }
    };
    vec![
        ("subquery_sol_single_16b", single),
        // What a lone round's submission is since the singleton
        // `SubmitSol` frame was retired: a batch of one.
        ("submit_sol_batch_1", LiveMsg::SubmitSolBatch { rounds: vec![round(0, 16)] }),
        (
            "submit_sol_batch_8",
            LiveMsg::SubmitSolBatch { rounds: (0..8).map(|q| round(q, 16)).collect() },
        ),
        (
            "subquery_sol_batch_32",
            LiveMsg::SubQuerySolBatch {
                rounds: (0..32).map(|q| round(q, 16)).collect(),
                reply_to: NodeId(7),
            },
        ),
        (
            "solutions_batch_8x16",
            LiveMsg::SolutionsBatch {
                entries: (0..8)
                    .map(|q| (QueryId(q), (0..16u64).map(solution).collect()))
                    .collect(),
            },
        ),
    ]
}

fn bench(c: &mut Criterion) {
    let mut encode = c.benchmark_group("live_wire_encode");
    for (label, msg) in messages() {
        encode.bench_function(label, |b| {
            b.iter(|| std::hint::black_box(msg.encode_wire()).len());
        });
    }
    encode.finish();

    let mut decode = c.benchmark_group("live_wire_decode");
    for (label, msg) in messages() {
        let bytes = msg.encode_wire();
        decode.bench_function(label, |b| {
            b.iter(|| {
                let decoded = LiveMsg::decode_wire(std::hint::black_box(&bytes))
                    .expect("round-trips");
                std::hint::black_box(decoded)
            });
        });
    }
    decode.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
