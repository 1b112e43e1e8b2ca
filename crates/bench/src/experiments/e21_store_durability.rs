//! §E21 — Durable writes: WAL overhead, flush latency, write amplification.
//!
//! PR 9 closes the durability hole in `rdfmesh-store`: every
//! `insert`/`remove` is write-ahead logged before acknowledgment, and
//! `flush` seals the overlay into a new small segment generation instead
//! of rewriting the whole store — adjacent generations merge only when
//! the size-ratio trigger fires, so a flush writes keys proportional to
//! the overlay, not the store. This experiment climbs the E19 scale
//! ladder (10⁴ → 10⁶ statements of the university corpus), bulk-loads
//! each rung as an immutable base, then applies a scripted write
//! workload — batches of durable inserts plus tombstones of base
//! triples, each batch sealed with a flush. (The PR 7 rewrite-everything
//! policy it was once compared against is gone; EXPERIMENTS.md §E21
//! keeps its last measured figures.)
//!
//! Columns: acknowledged write latency (dict sync + WAL fsync per
//! operation), flush latency, total keys written vs. overlay keys sealed
//! (write amplification), and recovery (reopen) time. Per-rung counters
//! land in `BENCH_store_durability.json` in CI.
//!
//! Set `RDFMESH_E21_MAX_TRIPLES` (e.g. `100000`) to cap the ladder for a
//! quick run; CI's quick mode climbs the two small rungs only.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use rdfmesh_rdf::{PatternSource, Term, Triple};
use rdfmesh_store::{LoadConfig, PersistentStore};
use rdfmesh_workload::university::{self, UniversityConfig};

use crate::print_table;

const RUNGS: &[u64] = &[10_000, 100_000, 1_000_000];
/// Flush-sealed write batches per rung.
const BATCHES: usize = 4;
/// Fresh durable inserts per batch.
const INSERTS_PER_BATCH: usize = 96;
/// Base triples tombstoned per batch.
const REMOVES_PER_BATCH: usize = 16;

/// Counter names are built per rung; the registry wants `&'static str`.
fn leak(name: String) -> &'static str {
    Box::leak(name.into_boxed_str())
}

fn ladder() -> Vec<u64> {
    match std::env::var("RDFMESH_E21_MAX_TRIPLES").ok().and_then(|v| v.parse::<u64>().ok()) {
        Some(cap) => {
            let kept: Vec<u64> = RUNGS.iter().copied().filter(|r| *r <= cap).collect();
            if kept.is_empty() {
                vec![RUNGS[0]]
            } else {
                kept
            }
        }
        None => RUNGS.to_vec(),
    }
}

/// A fresh (never-in-the-corpus) triple for durable-insert batches.
fn fresh_triple(batch: usize, i: usize) -> Triple {
    Triple::new(
        Term::iri(&format!("http://example.org/durable/b{batch}/s{i}")),
        Term::iri("http://example.org/univ#auditedBy"),
        Term::iri(&format!("http://example.org/durable/auditor{}", i % 7)),
    )
}

struct Outcome {
    writes: u64,
    write_us_avg: u64,
    sealed: u64,
    keys_written: u64,
    compactions: u64,
    levels: usize,
    flush_us_avg: u64,
    flush_us_max: u64,
    reopen_us: u64,
    final_len: u64,
}

/// Runs the scripted write workload against the bulk-loaded base store
/// in `dir` and measures every durability-relevant number.
fn drive(dir: &Path, cfg: &UniversityConfig) -> Outcome {
    let mut store = PersistentStore::open(dir).expect("open base store");

    // Tombstone victims: real base triples spread across departments.
    let mut victims = Vec::new();
    let mut dept = 0usize;
    while victims.len() < BATCHES * REMOVES_PER_BATCH && dept < cfg.departments {
        victims.extend(university::department_triples(cfg, dept).into_iter().step_by(11));
        dept += (cfg.departments / 13).max(1);
    }
    victims.truncate(BATCHES * REMOVES_PER_BATCH);

    let mut writes = 0u64;
    let mut write_us = 0u64;
    let mut sealed = 0u64;
    let mut keys_written = 0u64;
    let mut compactions = 0u64;
    let mut flush_us = Vec::with_capacity(BATCHES);
    let mut levels = store.level_count();
    for batch in 0..BATCHES {
        let started = Instant::now();
        for i in 0..INSERTS_PER_BATCH {
            assert!(
                store.try_insert(&fresh_triple(batch, i)).expect("durable insert"),
                "fresh triples always take effect"
            );
            writes += 1;
        }
        for victim in &victims[batch * REMOVES_PER_BATCH..(batch + 1) * REMOVES_PER_BATCH] {
            assert!(
                store.try_remove(victim).expect("durable remove"),
                "victims are sampled from the loaded base"
            );
            writes += 1;
        }
        write_us += started.elapsed().as_micros() as u64;

        let started = Instant::now();
        let report = store.flush().expect("flush seals the batch");
        flush_us.push(started.elapsed().as_micros() as u64);
        sealed += report.sealed;
        keys_written += report.keys_written;
        compactions += u64::from(report.compactions);
        levels = report.levels;
    }

    let expected_len = store.len() as u64;
    drop(store);
    let started = Instant::now();
    let reopened = PersistentStore::open(dir).expect("reopen store");
    let reopen_us = started.elapsed().as_micros() as u64;
    assert_eq!(reopened.len() as u64, expected_len, "recovery sees every acknowledged write");
    assert_eq!(reopened.wal_replayed(), 0, "a flushed store has an empty WAL");
    assert!(reopened.contains(&fresh_triple(0, 0)));
    assert!(!reopened.contains(&victims[0]), "tombstones survive recovery");
    drop(reopened);

    Outcome {
        writes,
        write_us_avg: write_us / writes.max(1),
        sealed,
        keys_written,
        compactions,
        levels,
        flush_us_avg: flush_us.iter().sum::<u64>() / flush_us.len().max(1) as u64,
        flush_us_max: flush_us.iter().copied().max().unwrap_or(0),
        reopen_us,
        final_len: expected_len,
    }
}

/// Climbs the ladder and prints the durability table.
pub fn run() {
    let rungs = ladder();
    if rungs.len() < RUNGS.len() {
        println!(
            "\n(quick mode: RDFMESH_E21_MAX_TRIPLES caps the ladder at {} statements)",
            rungs.last().expect("ladder has a rung")
        );
    }
    let metrics = rdfmesh_obs::metrics();
    let scratch = std::env::temp_dir().join(format!("rdfmesh-e21-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let per_dept = university::triples_per_department(&UniversityConfig::default()) as u64;

    let mut rows = Vec::new();
    for &target in &rungs {
        let departments = target.div_ceil(per_dept) as usize;
        let cfg = UniversityConfig { departments, ..UniversityConfig::default() };

        // Stream the corpus to disk and bulk-load the immutable base.
        let corpus = scratch.join(format!("corpus-{target}.nt"));
        let mut out = BufWriter::new(std::fs::File::create(&corpus).expect("corpus file"));
        university::write_corpus(&cfg, &mut out).expect("write corpus");
        out.flush().expect("flush corpus");
        drop(out);
        let base_dir = scratch.join(format!("base-{target}"));
        let _ = std::fs::remove_dir_all(&base_dir);
        let mut base = PersistentStore::open(&base_dir).expect("open base store");
        base.bulk_load_path(&corpus, &LoadConfig::default()).expect("bulk load base");
        let base_triples = base.len() as u64;
        drop(base);
        let _ = std::fs::remove_file(&corpus);

        let o = drive(&base_dir, &cfg);
        let amp = o.keys_written as f64 / o.sealed.max(1) as f64;

        let prefix = format!("store.durability.{target}.incremental");
        let counter = |suffix: &str, value: u64| {
            metrics.add(leak(format!("{prefix}.{suffix}")), value);
        };
        counter("base_triples", base_triples);
        counter("writes", o.writes);
        counter("write_us_avg", o.write_us_avg);
        counter("sealed", o.sealed);
        counter("keys_written", o.keys_written);
        counter("write_amp_x100", (amp * 100.0) as u64);
        counter("compactions", o.compactions);
        counter("levels_final", o.levels as u64);
        counter("flush_us_avg", o.flush_us_avg);
        counter("flush_us_max", o.flush_us_max);
        counter("reopen_us", o.reopen_us);
        counter("final_triples", o.final_len);

        rows.push(vec![
            target.to_string(),
            o.writes.to_string(),
            o.write_us_avg.to_string(),
            o.sealed.to_string(),
            o.keys_written.to_string(),
            format!("{amp:.1}"),
            o.compactions.to_string(),
            o.levels.to_string(),
            format!("{:.1}", o.flush_us_avg as f64 / 1e3),
            format!("{:.1}", o.flush_us_max as f64 / 1e3),
            format!("{:.1}", o.reopen_us as f64 / 1e3),
        ]);

        // The acceptance gate: sealing a small overlay on a big base
        // must not rewrite the full segment set.
        assert!(
            o.keys_written < base_triples / 2,
            "flushes must write keys proportional to the overlay: {} keys vs base {base_triples}",
            o.keys_written
        );
        assert!(o.levels > 1, "small seals stay in their own levels");
        let _ = std::fs::remove_dir_all(&base_dir);
    }
    let _ = std::fs::remove_dir_all(&scratch);

    print_table(
        "Durable-write cost (university corpus base)",
        &[
            "base",
            "writes",
            "write µs",
            "sealed",
            "keys written",
            "amp",
            "merges",
            "levels",
            "flush ms avg",
            "flush ms max",
            "reopen ms",
        ],
        &rows,
    );
    println!(
        "\nEvery write pays one dictionary sync plus one WAL fsync before it is \
         acknowledged — flat in store size. Sealing a batch writes keys proportional \
         to the batch, so write amplification stays near 1 and flush latency stays \
         flat as the base grows."
    );
}
