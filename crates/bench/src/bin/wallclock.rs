//! Wall-clock before/after measurement of the hash-based solution
//! algebra — the repo's perf-trajectory seed.
//!
//! ```sh
//! cargo run -p rdfmesh-bench --bin wallclock --release                 # full
//! cargo run -p rdfmesh-bench --bin wallclock --release -- --quick     # CI
//! cargo run -p rdfmesh-bench --bin wallclock --release -- --json out.json
//! ```
//!
//! One suite: the algebra operators (join, left join, union, distinct)
//! on identical inputs under the naive nested-loop implementation and
//! the hash implementation, at FOAF and university scales. (The
//! end-to-end sweep under a forced implementation went with the switch
//! that forced it; docs/PERFORMANCE.md keeps its last figures.)
//!
//! Output is a JSON array of records with `ns_naive`, `ns_hash` and the
//! resulting `speedup` (committed as `BENCH_wallclock.json`).

use std::time::Instant;

use rdfmesh_bench::algebra_inputs::{
    foaf_chain_inputs, foaf_join_inputs, university_join_inputs,
};
use rdfmesh_obs::json::{object, Value};
use rdfmesh_sparql::solution::{hashed, naive, Solution};

/// One measurement: a named workload timed under both implementations.
struct Record {
    suite: &'static str,
    name: String,
    rows_left: usize,
    rows_right: usize,
    output_rows: usize,
    ns_naive: u64,
    ns_hash: u64,
}

impl Record {
    fn speedup(&self) -> f64 {
        if self.ns_hash == 0 {
            return 0.0;
        }
        self.ns_naive as f64 / self.ns_hash as f64
    }

    fn json(&self) -> String {
        // speedup ×100 keeps the writer integer-only (`5.43x` → 543).
        object(&[
            ("suite", Value::Str(self.suite.to_string())),
            ("name", Value::Str(self.name.clone())),
            ("rows_left", Value::U64(self.rows_left as u64)),
            ("rows_right", Value::U64(self.rows_right as u64)),
            ("output_rows", Value::U64(self.output_rows as u64)),
            ("ns_naive", Value::U64(self.ns_naive)),
            ("ns_hash", Value::U64(self.ns_hash)),
            ("speedup_x100", Value::U64((self.speedup() * 100.0) as u64)),
        ])
    }
}

/// Times `f` over `reps` repetitions, returning total ns / reps and the
/// last result's row count.
fn time_op<F: FnMut() -> usize>(reps: u32, mut f: F) -> (u64, usize) {
    let mut rows = 0;
    let start = Instant::now();
    for _ in 0..reps {
        rows = std::hint::black_box(f());
    }
    let total = start.elapsed().as_nanos() as u64;
    (total / u64::from(reps.max(1)), rows)
}

/// Repetition count adapted to the pair product so the naive side of the
/// largest scale stays under a few seconds.
fn reps_for(l: usize, r: usize, quick: bool) -> u32 {
    let product = l.saturating_mul(r);
    let base = if product > 5_000_000 {
        1
    } else if product > 500_000 {
        3
    } else {
        10
    };
    if quick {
        base.min(2)
    } else {
        base
    }
}

fn micro_record(
    name: String,
    l: &[Solution],
    r: &[Solution],
    quick: bool,
    naive_op: impl Fn(&[Solution], &[Solution]) -> Vec<Solution>,
    hash_op: impl Fn(&[Solution], &[Solution]) -> Vec<Solution>,
) -> Record {
    let reps = reps_for(l.len(), r.len(), quick);
    let (ns_naive, out_n) = time_op(reps, || naive_op(l, r).len());
    let (ns_hash, out_h) = time_op(reps, || hash_op(l, r).len());
    assert_eq!(out_n, out_h, "{name}: implementations disagree");
    Record {
        suite: "micro",
        name,
        rows_left: l.len(),
        rows_right: r.len(),
        output_rows: out_h,
        ns_naive,
        ns_hash,
    }
}

fn micro_suite(quick: bool) -> Vec<Record> {
    let mut out = Vec::new();
    let foaf_scales: &[usize] = if quick { &[200, 1000] } else { &[500, 2000, 8000] };
    for &persons in foaf_scales {
        let (l, r) = foaf_join_inputs(persons);
        out.push(micro_record(
            format!("foaf_join_{persons}"),
            &l,
            &r,
            quick,
            naive::join,
            hashed::join,
        ));
        out.push(micro_record(
            format!("foaf_left_join_{persons}"),
            &l,
            &r,
            quick,
            naive::left_join,
            hashed::left_join,
        ));
    }

    // The join-heavy headline: friend-of-friend chains fan out on the
    // shared middle variable, so the naive product scan is worst-case.
    let chain_scales: &[usize] = if quick { &[500] } else { &[1000, 4000] };
    for &persons in chain_scales {
        let (l, r) = foaf_chain_inputs(persons);
        out.push(micro_record(
            format!("foaf_chain_join_{persons}"),
            &l,
            &r,
            quick,
            naive::join,
            hashed::join,
        ));
    }

    let univ_scales: &[usize] = if quick { &[10] } else { &[15, 60] };
    for &departments in univ_scales {
        let (l, r) = university_join_inputs(departments);
        out.push(micro_record(
            format!("univ_advisor_join_{departments}"),
            &l,
            &r,
            quick,
            naive::join,
            hashed::join,
        ));
    }

    // Union is a concatenation in both implementations — recorded to show
    // parity, not speedup.
    let (l, r) = foaf_join_inputs(if quick { 500 } else { 2000 });
    out.push(micro_record(
        format!("foaf_union_{}", if quick { 500 } else { 2000 }),
        &l,
        &r,
        quick,
        rdfmesh_sparql::solution::union,
        rdfmesh_sparql::solution::union,
    ));

    // Distinct over a set that is two-thirds duplicates.
    let mut rows = l.clone();
    rows.extend(r.iter().cloned());
    rows.extend(l.iter().cloned());
    let reps = reps_for(rows.len(), rows.len() / 64, quick);
    let (ns_naive, out_n) = time_op(reps, || naive::distinct(rows.clone()).len());
    let (ns_hash, out_h) = time_op(reps, || rdfmesh_sparql::distinct(rows.clone()).len());
    assert_eq!(out_n, out_h, "distinct: implementations disagree");
    out.push(Record {
        suite: "micro",
        name: format!("distinct_{}", rows.len()),
        rows_left: rows.len(),
        rows_right: 0,
        output_rows: out_h,
        ns_naive,
        ns_hash,
    });

    out
}

fn main() {
    let mut quick = false;
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--json" => {
                json_path = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--json requires a path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let records = micro_suite(quick);

    println!(
        "{:<28} {:>9} {:>9} {:>10} {:>12} {:>12} {:>9}",
        "benchmark", "left", "right", "out", "naive_ns", "hash_ns", "speedup"
    );
    for r in &records {
        println!(
            "{:<28} {:>9} {:>9} {:>10} {:>12} {:>12} {:>8.2}x",
            r.name, r.rows_left, r.rows_right, r.output_rows, r.ns_naive, r.ns_hash,
            r.speedup()
        );
    }

    if let Some(path) = json_path {
        let mut out = String::from("[\n");
        for (i, r) in records.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("  ");
            out.push_str(&r.json());
        }
        out.push_str("\n]\n");
        if let Err(e) = std::fs::write(&path, out) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {} wall-clock record(s) to {path}", records.len());
    }
}
