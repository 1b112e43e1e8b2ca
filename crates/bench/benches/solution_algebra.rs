//! Wall-clock cost of the solution-mapping algebra operators: the hash
//! implementation (interned bindings + shared-variable probe tables)
//! versus the naive nested-loop transcription of Sect. IV-A, at FOAF-
//! and university-workload scales. Experiment E23 times the small end,
//! where the nested loop still wins, on the same inputs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdfmesh_bench::algebra_inputs::{foaf_join_inputs, university_join_inputs};
use rdfmesh_sparql::solution::{hashed, naive};

fn bench_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("solution_join");
    group.sample_size(10);
    for &persons in &[200usize, 1000] {
        let (l, r) = foaf_join_inputs(persons);
        group.bench_with_input(
            BenchmarkId::new("naive", persons),
            &persons,
            |b, _| b.iter(|| std::hint::black_box(naive::join(&l, &r)).len()),
        );
        group.bench_with_input(
            BenchmarkId::new("hash", persons),
            &persons,
            |b, _| b.iter(|| std::hint::black_box(hashed::join(&l, &r)).len()),
        );
    }
    group.finish();
}

fn bench_left_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("solution_left_join");
    group.sample_size(10);
    let (l, r) = university_join_inputs(30);
    group.bench_function("naive", |b| {
        b.iter(|| std::hint::black_box(naive::left_join(&l, &r)).len())
    });
    group.bench_function("hash", |b| {
        b.iter(|| std::hint::black_box(hashed::left_join(&l, &r)).len())
    });
    group.finish();
}

fn bench_distinct(c: &mut Criterion) {
    let mut group = c.benchmark_group("solution_distinct");
    group.sample_size(10);
    let (l, r) = foaf_join_inputs(600);
    let mut rows = l.clone();
    rows.extend(r);
    rows.extend(l); // guaranteed duplicates
    group.bench_function("naive", |b| {
        b.iter(|| std::hint::black_box(naive::distinct(rows.clone())).len())
    });
    group.bench_function("hash", |b| {
        b.iter(|| std::hint::black_box(rdfmesh_sparql::distinct(rows.clone())).len())
    });
    group.finish();
}

criterion_group!(benches, bench_join, bench_left_join, bench_distinct);
criterion_main!(benches);
