//! Parallel bulk ingest of N-Triples into a [`PersistentStore`].
//!
//! The pipeline (Sect. "data import" of the storage design,
//! `docs/STORAGE.md`):
//!
//! 1. a **reader** thread splits the input into ~4 MiB chunks on line
//!    boundaries and round-robins them to parser workers over bounded
//!    channels;
//! 2. **parser workers** run the hardened N-Triples parser on each chunk
//!    (line numbers stay absolute, so a garbage line is reported exactly);
//! 3. the **collector** (the calling thread) reorders chunks back into
//!    document order, interns terms sequentially — keeping id assignment
//!    deterministic — and buffers dictionary-encoded keys;
//! 4. full buffers are **spilled as sorted runs** (the three permutations
//!    sorted and written as ordinary segment files, one thread each);
//! 5. the store's one generation writer **shadow-merges**
//!    ([`crate::merge`]) all runs and the sorted tail, above the write
//!    overlay and every sealed level, into one fresh generation, and the
//!    one commit publishes it in place of all of them (the load *is* a
//!    full compaction: tombstones resolve and drop away).
//!
//! Ingest throughput and volume are recorded into the process metrics
//! registry under `store.load.*`.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rdfmesh_obs::{metrics, names};
use rdfmesh_rdf::{parse_statements_from, ParseError, PatternSource, Perm, Triple};

use crate::merge::ShadowSource;
use crate::pstore::{per_perm, PersistentStore};
use crate::segment::{Key, SegmentFile, SegmentWriter};

/// Tuning knobs for [`PersistentStore::bulk_load`].
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Parser worker threads; `0` picks from available parallelism.
    pub workers: usize,
    /// Keys buffered in memory before spilling a sorted run to disk.
    pub run_triples: usize,
    /// Target chunk size handed to each parser worker, in bytes.
    pub chunk_bytes: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig { workers: 0, run_triples: 2_000_000, chunk_bytes: 4 << 20 }
    }
}

impl LoadConfig {
    fn worker_count(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism().map(|n| n.get().saturating_sub(1)).unwrap_or(1).clamp(1, 8)
    }
}

/// What a bulk load accomplished.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// N-Triples statements parsed (before deduplication).
    pub statements: u64,
    /// Distinct triples the store grew by.
    pub added: u64,
    /// Input bytes consumed.
    pub bytes: u64,
    /// Sorted runs spilled to disk (0 = everything fit in memory).
    pub runs: usize,
    /// Wall-clock duration of the whole load.
    pub elapsed: Duration,
}

impl LoadReport {
    /// Parsed statements per second of wall-clock time.
    pub fn triples_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.statements as f64 / secs
        } else {
            0.0
        }
    }
}

/// Why a bulk load failed. Parse errors carry the absolute line number.
#[derive(Debug)]
pub enum LoadError {
    /// Reading the input or writing runs/segments failed.
    Io(io::Error),
    /// A line of the input was not valid N-Triples.
    Parse(ParseError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "bulk load I/O error: {e}"),
            LoadError::Parse(e) => write!(f, "bulk load parse error: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

impl From<ParseError> for LoadError {
    fn from(e: ParseError) -> Self {
        LoadError::Parse(e)
    }
}

/// One in-memory buffer of keys, spillable as a sorted on-disk run.
struct RunSpiller {
    dir: PathBuf,
    buf: Vec<Key>,
    capacity: usize,
    runs: usize,
}

impl RunSpiller {
    fn run_path(&self, idx: usize, perm: Perm) -> PathBuf {
        self.dir.join(format!("run-{idx}.{}", perm.name()))
    }

    fn push(&mut self, key: Key) -> io::Result<()> {
        self.buf.push(key);
        if self.buf.len() >= self.capacity {
            self.spill()?;
        }
        Ok(())
    }

    /// Sorts the buffer in all three permutations and writes them as
    /// segment-format run files, one thread each.
    fn spill(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let idx = self.runs;
        let sorted = sort_permutations(&self.buf);
        per_perm(|perm| -> io::Result<()> {
            let mut w = SegmentWriter::create(self.run_path(idx, perm))?;
            for &k in &sorted[perm as usize] {
                w.push(k)?;
            }
            w.finish().map(drop)
        })
        .into_iter()
        .collect::<io::Result<()>>()?;
        self.buf.clear();
        self.runs += 1;
        Ok(())
    }
}

/// The buffer's keys sorted per permutation, on three threads.
fn sort_permutations(buf: &[Key]) -> [Vec<Key>; 3] {
    per_perm(|perm| {
        let mut keys: Vec<Key> = buf.iter().map(|&k| perm.encode(k)).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    })
}

impl PersistentStore {
    /// Bulk-loads N-Triples from `reader` through the parallel pipeline,
    /// leaving the store fully flushed (the load *is* a compaction).
    pub fn bulk_load(
        &mut self,
        reader: impl Read + Send,
        cfg: &LoadConfig,
    ) -> Result<LoadReport, LoadError> {
        let start = Instant::now();
        let before = PatternSource::len(self) as u64;
        let workers = cfg.worker_count();
        let mut spiller = RunSpiller {
            dir: self.dir().to_path_buf(),
            buf: Vec::new(),
            capacity: cfg.run_triples.max(1024),
            runs: 0,
        };

        let stop = AtomicBool::new(false);
        let mut statements = 0u64;
        let mut first_error: Option<(usize, ParseError)> = None;
        let chunk_bytes = cfg.chunk_bytes.max(64 << 10);

        let bytes = std::thread::scope(|scope| -> Result<u64, LoadError> {
            let mut chunk_txs = Vec::with_capacity(workers);
            let (res_tx, res_rx) = mpsc::sync_channel::<(usize, Result<Vec<Triple>, ParseError>)>(
                workers * 2,
            );
            for _ in 0..workers {
                let (tx, rx) = mpsc::sync_channel::<(usize, usize, String)>(2);
                chunk_txs.push(tx);
                let res_tx = res_tx.clone();
                let stop = &stop;
                scope.spawn(move || {
                    while let Ok((seq, first_line, text)) = rx.recv() {
                        // After a failure the pipeline only drains; the
                        // chunks are dropped unparsed.
                        if stop.load(Ordering::Relaxed) {
                            continue;
                        }
                        let parsed: Result<Vec<Triple>, ParseError> =
                            parse_statements_from(&text, first_line)
                                .map(|r| r.map(|(_, t)| t))
                                .collect();
                        if parsed.is_err() {
                            stop.store(true, Ordering::Relaxed);
                        }
                        if res_tx.send((seq, parsed)).is_err() {
                            return;
                        }
                    }
                });
            }
            drop(res_tx);

            let stop_ref = &stop;
            let reader_handle = scope.spawn(move || -> io::Result<u64> {
                let mut input = BufReader::new(reader);
                let mut bytes = 0u64;
                let mut seq = 0usize;
                let mut first_line = 1usize;
                loop {
                    if stop_ref.load(Ordering::Relaxed) {
                        break;
                    }
                    let mut chunk = String::with_capacity(chunk_bytes + 4096);
                    let mut lines = 0usize;
                    loop {
                        let n = input.read_line(&mut chunk)?;
                        if n == 0 {
                            break;
                        }
                        lines += 1;
                        if chunk.len() >= chunk_bytes {
                            break;
                        }
                    }
                    if chunk.is_empty() {
                        break;
                    }
                    bytes += chunk.len() as u64;
                    if chunk_txs[seq % chunk_txs.len()].send((seq, first_line, chunk)).is_err() {
                        break;
                    }
                    seq += 1;
                    first_line += lines;
                }
                Ok(bytes)
            });

            // Collector: reorder into document order, intern, spill.
            let mut pending: BTreeMap<usize, Vec<Triple>> = BTreeMap::new();
            let mut next_seq = 0usize;
            while let Ok((seq, parsed)) = res_rx.recv() {
                match parsed {
                    Ok(batch) => {
                        pending.insert(seq, batch);
                        while let Some(batch) = pending.remove(&next_seq) {
                            next_seq += 1;
                            statements += batch.len() as u64;
                            for t in &batch {
                                let key = self.intern_triple(t);
                                spiller.push(key)?;
                            }
                        }
                    }
                    Err(e) => {
                        if first_error.as_ref().is_none_or(|(s, _)| seq < *s) {
                            first_error = Some((seq, e));
                        }
                    }
                }
            }
            let bytes = reader_handle.join().expect("reader thread")?;
            Ok(bytes)
        })?;

        if let Some((_, e)) = first_error {
            cleanup_runs(&spiller);
            return Err(LoadError::Parse(e));
        }

        // New terms must be durable before any segment references them.
        self.sync_dict()?;
        let runs = spiller.runs;
        let merged = self.merge_all(&spiller)?;
        cleanup_runs(&spiller);

        let report = LoadReport {
            statements,
            added: merged.saturating_sub(before),
            bytes,
            runs,
            elapsed: start.elapsed(),
        };
        let m = metrics();
        m.add(names::STORE_LOAD_STATEMENTS, report.statements);
        m.add(names::STORE_LOAD_TRIPLES, report.added);
        m.add(names::STORE_LOAD_BYTES, report.bytes);
        m.add(names::STORE_LOAD_MICROS, report.elapsed.as_micros() as u64);
        m.add(names::STORE_LOAD_RUNS, report.runs as u64);
        Ok(report)
    }

    /// Bulk-loads an N-Triples file from `path`.
    pub fn bulk_load_path(
        &mut self,
        path: impl AsRef<std::path::Path>,
        cfg: &LoadConfig,
    ) -> Result<LoadReport, LoadError> {
        let file = std::fs::File::open(path)?;
        self.bulk_load(file, cfg)
    }

    /// Writes and commits the next generation as the shadow merge of
    /// every spilled run, the final in-memory buffer, the write overlay
    /// and every sealed level, replacing all of them. Fresh input sits at
    /// rank 0 (so a bulk load re-asserts triples the overlay had
    /// tombstoned), the overlay at rank 1, levels below; tombstones drop
    /// away. Returns the live triples committed.
    fn merge_all(&mut self, spiller: &RunSpiller) -> io::Result<u64> {
        let tail = sort_permutations(&spiller.buf);
        let [spo, pos, osp] = Perm::ALL.map(|perm| {
            (0..spiller.runs)
                .map(|idx| SegmentFile::open(spiller.run_path(idx, perm)))
                .collect::<io::Result<Vec<_>>>()
        });
        let runs = [spo?, pos?, osp?];
        let gen = self.generation() + 1;
        let (merged, _) = self.write_generation(gen, true, |perm| {
            let mut sources: Vec<ShadowSource<'_>> = runs[perm as usize]
                .iter()
                .map(|run| ShadowSource { rank: 0, is_del: false, iter: Box::new(run.iter()) })
                .collect();
            let tail = tail[perm as usize].iter().copied();
            sources.push(ShadowSource { rank: 0, is_del: false, iter: Box::new(tail) });
            sources.extend(self.sources(perm, None, true, 0..self.level_count(), 1));
            sources
        })?;
        self.publish(gen, (merged, 0), 0..self.level_count(), merged, true)?;
        Ok(merged)
    }
}

fn cleanup_runs(spiller: &RunSpiller) {
    for idx in 0..spiller.runs {
        for perm in Perm::ALL {
            let _ = std::fs::remove_file(spiller.run_path(idx, perm));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfmesh_rdf::{Term, TermPattern, Triple, TriplePattern};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rdfmesh-bulk-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn doc(n: usize) -> String {
        let mut out = String::new();
        out.push_str("# generated test corpus\n\n");
        for i in 0..n {
            out.push_str(&format!(
                "<http://e/s{}> <http://e/p{}> \"value {i}\" .\n",
                i % 97,
                i % 7
            ));
        }
        out
    }

    #[test]
    fn bulk_load_matches_incremental_inserts() {
        let n = 5000;
        let text = doc(n);
        let dir = tmpdir("matches");
        let mut store = PersistentStore::open(&dir).unwrap();
        let report = store
            .bulk_load(text.as_bytes(), &LoadConfig { workers: 3, ..LoadConfig::default() })
            .unwrap();
        assert_eq!(report.statements, n as u64);
        assert_eq!(report.bytes as usize, text.len());

        let mut mem = rdfmesh_rdf::TripleStore::new();
        for t in rdfmesh_rdf::parse_document(&text).unwrap() {
            mem.insert(&t);
        }
        assert_eq!(PatternSource::len(&store), mem.len());
        assert_eq!(report.added as usize, mem.len());
        let pat = TriplePattern::new(
            TermPattern::var("s"),
            Term::iri("http://e/p3"),
            TermPattern::var("o"),
        );
        let mut a = store.match_pattern(&pat);
        let mut b = mem.match_pattern(&pat);
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn small_runs_spill_and_merge() {
        let n = 3000;
        let text = doc(n);
        let dir = tmpdir("spill");
        let mut store = PersistentStore::open(&dir).unwrap();
        let cfg = LoadConfig { workers: 2, run_triples: 1024, chunk_bytes: 64 << 10 };
        let report = store.bulk_load(text.as_bytes(), &cfg).unwrap();
        assert!(report.runs >= 1, "expected at least one spilled run");
        // Run files are cleaned up after the merge.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("run-"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let mem = rdfmesh_rdf::TripleStore::from_triples(
            rdfmesh_rdf::parse_document(&text).unwrap(),
        );
        assert_eq!(PatternSource::len(&store), mem.len());
    }

    #[test]
    fn bulk_load_merges_into_existing_store() {
        let dir = tmpdir("incremental");
        let mut store = PersistentStore::open(&dir).unwrap();
        let a = Triple::new(
            Term::iri("http://e/pre"),
            Term::iri("http://e/p"),
            Term::literal("existing"),
        );
        store.insert(&a);
        store.flush().unwrap();
        let gone = Triple::new(
            Term::iri("http://e/s0"),
            Term::iri("http://e/p0"),
            Term::literal("value 0"),
        );
        // Overlay state at load time: one unflushed insert + a tombstone
        // that the load itself re-asserts.
        let b = Triple::new(
            Term::iri("http://e/over"),
            Term::iri("http://e/p"),
            Term::literal("overlay"),
        );
        store.insert(&b);
        let text = doc(100);
        store.bulk_load(text.as_bytes(), &LoadConfig::default()).unwrap();
        assert!(store.contains(&a));
        assert!(store.contains(&b));
        assert!(store.contains(&gone));
        assert_eq!(store.overlay_len(), 0, "load compacts the overlay");
        let reopened = PersistentStore::open(&dir).unwrap();
        assert_eq!(PatternSource::len(&reopened), PatternSource::len(&store));
    }

    #[test]
    fn parse_errors_carry_absolute_line_numbers() {
        let mut text = doc(50);
        text.push_str("this is not n-triples\n");
        let dir = tmpdir("error");
        let mut store = PersistentStore::open(&dir).unwrap();
        let err = store.bulk_load(text.as_bytes(), &LoadConfig::default()).unwrap_err();
        match err {
            LoadError::Parse(e) => {
                // 2 header lines + 50 statements + 1 garbage line.
                assert!(e.to_string().contains("53"), "{e}");
            }
            other => panic!("expected parse error, got {other}"),
        }
    }
}
