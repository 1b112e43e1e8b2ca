//! Micro-benchmarks of the live wire codec: encode/decode of the two
//! frames a chained round puts on every provider link — the
//! `SubQuerySol` that ships a bind round's intermediates and the
//! `Solutions` that answers it. `encode_wire` pre-sizes its buffer from
//! a size hint; these benches price that allocation path at realistic
//! row counts.

use criterion::{criterion_group, criterion_main, Criterion};
use rdfmesh_core::{LiveMsg, QueryId};
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

/// A sub-query with 16 bound rows, a bare one, and replies of 16 and
/// 256 solutions.
fn messages() -> Vec<(&'static str, LiveMsg)> {
    let sub_query = |bound: u64| LiveMsg::SubQuerySol {
        qid: QueryId(1),
        pattern: pattern(),
        filter: None,
        bound: (bound > 0).then(|| (0..bound).map(solution).collect()),
        reply_to: NodeId(7),
    };
    let reply =
        |rows: u64| LiveMsg::Solutions { qid: QueryId(1), solutions: (0..rows).map(solution).collect() };
    vec![
        ("subquery_sol_unbound", sub_query(0)),
        ("subquery_sol_single_16b", sub_query(16)),
        ("solutions_16", reply(16)),
        ("solutions_256", reply(256)),
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
