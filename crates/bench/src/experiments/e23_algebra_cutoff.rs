//! §E23 — Where the nested loop stops paying: batches against the oracle.
//!
//! `solution::{join, left_join, difference}` run the id-row batch
//! operators (`Rows`) whatever the input size: the operands become
//! batches, the operator runs, the rows become solutions again. This
//! experiment times them beside the nested-loop oracle `naive::*` on the
//! same inputs over a ladder of pair products `|Ω1|·|Ω2|`, so what the
//! conversion costs on small inputs is a measurement. Inputs are the FOAF
//! friend-lookup pair of `algebra_inputs.rs` (`?x knows ?y` against
//! `?x name ?n`), cut to sides of equal length — the shape kindest to
//! hashing, which pays the sum of the sides where the nested loop pays
//! their product.
//!
//! Wall-clock, so nothing here is asserted beyond the two
//! implementations returning the same rows; the table is in
//! docs/PERFORMANCE.md. Per cell the registry gets
//! the median of nine timings in ns per call and their spread,
//! `(max − min) / median` in percent.

use std::hint::black_box;
use std::time::Instant;

use rdfmesh_rdf::Variable;
use rdfmesh_sparql::solution::{self, naive, Solution};

use crate::algebra_inputs::foaf_join_inputs;
use crate::print_table;

/// Pair products timed; both sides are `√product` rows long.
const PRODUCTS: &[usize] = &[1, 16, 64, 256, 1_024, 4_096, 9_216, 16_384, 65_536];
/// Timings per cell, each the mean over enough calls to fill ~1 ms.
const TRIALS: usize = 9;

type Op = fn(&[Solution], &[Solution]) -> Vec<Solution>;

fn leak(name: String) -> &'static str {
    Box::leak(name.into_boxed_str())
}

/// `(median ns per call, spread %)` of `op` over `TRIALS` timings.
fn time(op: Op, l: &[Solution], r: &[Solution]) -> (u64, u64) {
    let reps = (400_000 / (l.len() * r.len()).max(16)).max(16) as u32;
    let mut ns: Vec<u64> = (0..TRIALS)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..reps {
                black_box(op(black_box(l), black_box(r)));
            }
            started.elapsed().as_nanos() as u64 / u64::from(reps)
        })
        .collect();
    ns.sort_unstable();
    (ns[TRIALS / 2], (ns[TRIALS - 1] - ns[0]) * 100 / ns[TRIALS / 2].max(1))
}

/// Times every operator × implementation × pair product and prints the
/// crossover table.
pub fn run() {
    let (knows, names) = foaf_join_inputs(400);
    let x = Variable::new("x");
    let ops: [(&str, [Op; 2]); 3] = [
        ("join", [solution::join, naive::join]),
        ("left_join", [solution::left_join, naive::left_join]),
        ("difference", [solution::difference, naive::difference]),
    ];
    let metrics = rdfmesh_obs::metrics();
    let mut rows = Vec::new();
    for &product in PRODUCTS {
        let side = (product as f64).sqrt() as usize;
        // The first `side` names, and as many `knows` rows, half of them
        // about those persons: every operator has rows to keep and to drop.
        let r = &names[..side];
        let named = |s: &&Solution| r.iter().any(|n| n.get(&x) == s.get(&x));
        let mut l: Vec<Solution> =
            knows.iter().filter(named).take(side.div_ceil(2)).cloned().collect();
        l.extend(knows.iter().filter(|s| !named(s)).take(side - l.len()).cloned());
        for (name, impls) in &ops {
            let out = impls[1](&l, r);
            assert!(impls.iter().all(|op| op(&l, r) == out), "{name} @ {product} disagrees");
            let mut row = vec![name.to_string(), product.to_string(), out.len().to_string()];
            for (which, op) in ["rows", "naive"].iter().zip(impls) {
                let (ns, spread) = time(*op, &l, r);
                let counter = format!("algebra.cutoff.{name}.p{product}.{which}");
                metrics.add(leak(format!("{counter}_ns")), ns);
                metrics.add(leak(format!("{counter}_spread_pct")), spread);
                row.push(format!("{ns} ±{spread}%"));
            }
            rows.push(row);
        }
    }
    print_table(
        "Batch operators vs the nested-loop oracle (median ns per call ± spread)",
        &["operator", "pair product", "rows out", "rows", "naive"],
        &rows,
    );
}
