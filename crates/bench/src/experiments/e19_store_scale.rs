//! §E19 — Persistent-store scale ladder: bulk load, lookup, memory.
//!
//! PR 7 adds `rdfmesh-store`: a persistent triple store with a string
//! dictionary, delta-compressed sorted segments in three permutations,
//! and a parallel bulk-load pipeline. This experiment climbs a scale
//! ladder (10⁴ → 10⁶ statements of the LUBM-style university corpus,
//! streamed department-by-department so the generator never holds the
//! corpus in memory), bulk-loads each rung into a fresh store, and
//! measures: load throughput, on-disk size vs. the N-Triples corpus,
//! resident memory, reopen (recovery) time, and three lookup shapes —
//! point `contains`, bounded-subject scans, and a low-selectivity class
//! count that exercises the block-footer counting fast path. Per-rung
//! counters land in `BENCH_store_scale.json` in CI.
//!
//! The 10⁴ rung is loaded a second time with a 1 024-triple run buffer,
//! so that the loader's spill-and-merge path runs on the corpus too: it
//! must spill at least two runs and leave the same triples and the same
//! bytes on disk as the unspilled load, and its load rate is reported
//! beside the unspilled one.
//!
//! Set `RDFMESH_E19_MAX_TRIPLES` (e.g. `100000`) to cap the ladder for a
//! quick run; CI's quick mode climbs the two small rungs only.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use rdfmesh_rdf::{vocab, PatternSource, Term, TermPattern, TriplePattern};
use rdfmesh_store::{LoadConfig, PersistentStore};
use rdfmesh_workload::university::{self, ub, UniversityConfig};

use crate::print_table;

const RUNGS: &[u64] = &[10_000, 100_000, 1_000_000];
/// Point `contains` probes per rung.
const POINT_PROBES: usize = 1_000;
/// Bounded-subject scan probes per rung.
const SCAN_PROBES: usize = 500;
/// Low-selectivity class-count probes per rung.
const COUNT_PROBES: usize = 100;
/// The rung loaded a second time through the spill path.
const SPILL_RUNG: u64 = 10_000;
/// The spilled load's run buffer: about ten runs on the spill rung.
const SPILL_RUN_TRIPLES: usize = 1_024;

/// Counter names are built per rung; the registry wants `&'static str`.
fn leak(name: String) -> &'static str {
    Box::leak(name.into_boxed_str())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten().filter_map(|entry| entry.metadata().ok()).map(|meta| meta.len()).sum()
        })
        .unwrap_or(0)
}

/// Every file of a store directory with its bytes, sorted by name.
fn dir_files(dir: &Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("store dir")
        .flatten()
        .map(|entry| (entry.file_name(), std::fs::read(entry.path()).expect("store file")))
        .collect();
    files.sort();
    files
}

fn ladder() -> Vec<u64> {
    match std::env::var("RDFMESH_E19_MAX_TRIPLES").ok().and_then(|v| v.parse::<u64>().ok()) {
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

/// Climbs the ladder and prints the scale table.
pub fn run() {
    let rungs = ladder();
    if rungs.len() < RUNGS.len() {
        println!(
            "\n(quick mode: RDFMESH_E19_MAX_TRIPLES caps the ladder at {} statements)",
            rungs.last().expect("ladder has a rung")
        );
    }
    let metrics = rdfmesh_obs::metrics();
    let scratch = std::env::temp_dir().join(format!("rdfmesh-e19-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let per_dept = university::triples_per_department(&UniversityConfig::default()) as u64;

    let mut rows = Vec::new();
    for &target in &rungs {
        let departments = target.div_ceil(per_dept) as usize;
        let cfg = UniversityConfig { departments, ..UniversityConfig::default() };

        // Stream the corpus to disk; peak memory stays one department.
        let corpus = scratch.join(format!("corpus-{target}.nt"));
        let mut out = BufWriter::new(std::fs::File::create(&corpus).expect("corpus file"));
        let statements = university::write_corpus(&cfg, &mut out).expect("write corpus");
        out.flush().expect("flush corpus");
        drop(out);
        let corpus_bytes = std::fs::metadata(&corpus).expect("corpus metadata").len();

        // Bulk-load into a fresh store.
        let store_dir = scratch.join(format!("store-{target}"));
        let _ = std::fs::remove_dir_all(&store_dir);
        let mut store = PersistentStore::open(&store_dir).expect("open store");
        let report =
            store.bulk_load_path(&corpus, &LoadConfig::default()).expect("bulk load succeeds");
        assert_eq!(report.statements, statements, "every statement reaches the pipeline");
        assert_eq!(report.bytes, corpus_bytes, "every byte is consumed");
        let disk = dir_bytes(&store_dir);
        let rss_kb = rdfmesh_store::rss::resident_kb().unwrap_or(0);

        // Point lookups: `contains` on triples sampled across departments.
        let mut samples = Vec::new();
        let mut d = 0usize;
        while samples.len() < POINT_PROBES && d < departments {
            samples.extend(university::department_triples(&cfg, d).into_iter().step_by(7));
            d += (departments / 20).max(1);
        }
        samples.truncate(POINT_PROBES);
        let started = Instant::now();
        let hits = samples.iter().filter(|t| store.contains(t)).count();
        let point_ns = started.elapsed().as_nanos() as u64 / samples.len().max(1) as u64;
        assert_eq!(hits, samples.len(), "every sampled triple is loaded");

        // Bounded-subject scans: all triples of students spread over the corpus.
        let started = Instant::now();
        let mut scanned = 0usize;
        for i in 0..SCAN_PROBES {
            let dept = (i * departments) / SCAN_PROBES;
            let student = Term::iri(&format!(
                "http://example.org/univ/d{dept}/student{}",
                i % cfg.students_per_department
            ));
            let pattern =
                TriplePattern::new(student, TermPattern::var("p"), TermPattern::var("o"));
            scanned += store.match_pattern(&pattern).len();
        }
        let scan_us = started.elapsed().as_micros() as u64 / SCAN_PROBES as u64;
        assert!(scanned >= SCAN_PROBES * 3, "each student has ≥3 triples");

        // Low-selectivity class count (block-footer counting fast path).
        let class_pattern = TriplePattern::new(
            TermPattern::var("x"),
            Term::iri(vocab::rdf::TYPE),
            Term::iri(ub::STUDENT),
        );
        let started = Instant::now();
        let mut students = 0;
        for _ in 0..COUNT_PROBES {
            students = store.count_pattern(&class_pattern);
        }
        let count_us = started.elapsed().as_micros() as u64 / COUNT_PROBES as u64;
        assert_eq!(students, departments * cfg.students_per_department);

        // The spill path: the same corpus through a small run buffer.
        let spilled = (target == SPILL_RUNG).then(|| {
            let dir = scratch.join(format!("store-{target}-spilled"));
            let _ = std::fs::remove_dir_all(&dir);
            let mut spilled = PersistentStore::open(&dir).expect("open spilled store");
            let cfg = LoadConfig { run_triples: SPILL_RUN_TRIPLES, ..LoadConfig::default() };
            let report = spilled.bulk_load_path(&corpus, &cfg).expect("spilled bulk load succeeds");
            assert!(report.runs >= 2, "the spilled load spills runs: {}", report.runs);
            let all = TriplePattern::new(
                TermPattern::var("s"),
                TermPattern::var("p"),
                TermPattern::var("o"),
            );
            assert!(
                spilled.match_pattern(&all) == store.match_pattern(&all),
                "the spilled load holds the same triples"
            );
            drop(spilled);
            assert!(
                dir_files(&dir) == dir_files(&store_dir),
                "the spilled load writes the same bytes"
            );
            let _ = std::fs::remove_dir_all(&dir);
            report
        });

        // Reopen: replay the dictionary log and manifest from disk.
        drop(store);
        let started = Instant::now();
        let reopened = PersistentStore::open(&store_dir).expect("reopen store");
        let reopen_us = started.elapsed().as_micros() as u64;
        assert_eq!(reopened.len() as u64, report.added, "reopen sees every triple");
        drop(reopened);

        let prefix = format!("store.scale.{target}");
        let counter = |suffix: &str, value: u64| {
            metrics.add(leak(format!("{prefix}.{suffix}")), value);
        };
        counter("departments", departments as u64);
        counter("statements", report.statements);
        counter("triples", report.added);
        counter("load_micros", report.elapsed.as_micros() as u64);
        counter("load_triples_per_sec", report.triples_per_sec() as u64);
        counter("runs", report.runs as u64);
        counter("corpus_bytes", corpus_bytes);
        counter("store_disk_bytes", disk);
        counter("rss_kb", rss_kb);
        counter("point_lookup_ns", point_ns);
        counter("subject_scan_us", scan_us);
        counter("class_count_us", count_us);
        counter("reopen_micros", reopen_us);
        if let Some(spilled) = &spilled {
            counter("spilled_runs", spilled.runs as u64);
            counter("spilled_load_micros", spilled.elapsed.as_micros() as u64);
            counter("spilled_load_triples_per_sec", spilled.triples_per_sec() as u64);
        }

        rows.push(vec![
            target.to_string(),
            departments.to_string(),
            report.added.to_string(),
            format!("{:.2}", report.elapsed.as_secs_f64()),
            format!("{:.0}k", report.triples_per_sec() / 1e3),
            report.runs.to_string(),
            spilled.as_ref().map_or("–".into(), |r| {
                format!("{:.0}k ({} runs)", r.triples_per_sec() / 1e3, r.runs)
            }),
            format!("{:.1}", disk as f64 / 1e6),
            format!("{:.1}", corpus_bytes as f64 / 1e6),
            format!("{:.0}", rss_kb as f64 / 1e3),
            point_ns.to_string(),
            scan_us.to_string(),
            count_us.to_string(),
            format!("{:.1}", reopen_us as f64 / 1e3),
        ]);

        let _ = std::fs::remove_file(&corpus);
        let _ = std::fs::remove_dir_all(&store_dir);
    }
    let _ = std::fs::remove_dir_all(&scratch);

    print_table(
        "Persistent-store scale ladder (university corpus)",
        &[
            "statements",
            "depts",
            "triples",
            "load s",
            "load/s",
            "runs",
            "spilled load/s",
            "disk MB",
            "nt MB",
            "RSS MB",
            "point ns",
            "scan µs",
            "count µs",
            "reopen ms",
        ],
        &rows,
    );
    println!(
        "\nDelta-compressed segments undercut the N-Triples corpus on disk while \
         answering point lookups in microseconds; the class count stays flat with \
         corpus size because interior blocks are counted from the footer without \
         decoding. Spilling sorted runs costs load rate, not a triple or a byte."
    );
}
