//! The persistent triple store: immutable sorted segments + write overlay.
//!
//! A [`PersistentStore`] keeps its triples in a small stack of
//! *generations* — immutable on-disk levels, each holding three
//! permutation segments (SPO, POS, OSP — mirroring the in-memory
//! [`rdfmesh_rdf::TripleStore`] layout) plus an optional tombstone
//! segment trio — fronted by an in-memory overlay of unflushed inserts
//! and deletes. The overlay is two [`TripleIndex`]es and the terms live
//! in a [`Dictionary`], the in-memory store's own index and dictionary;
//! a pattern is answered from the same [`Plan`], its range read from the
//! overlay and every level. Reads resolve newest-first: the overlay
//! shadows every level, a newer level shadows an older one
//! ([`crate::merge`]).
//!
//! **Durability contract** (see `docs/STORAGE.md`): every overlay
//! mutation is recorded in a checksummed write-ahead log
//! ([`crate::wal`]) *before* it is acknowledged, with any new dictionary
//! entries synced first — so [`open`] reconstructs the overlay after a
//! crash instead of dropping it. The manifest counts the synced terms,
//! and [`open`] refuses a `dict.log` that falls short of that count. [`flush`] seals the overlay into a new
//! small generation instead of rewriting the whole store; adjacent
//! generations merge only when the size-ratio trigger
//! (`COMPACTION_RATIO`) fires.
//!
//! **One writer, one commit.** A flush, a compaction and a bulk load
//! differ only in the shadow-merge sources they hand the one writer
//! (`write_generation`, built by `sources`) and in the levels the one
//! commit (`publish`) replaces. The commit point is the `MANIFEST`
//! rename, strictly after the segment files, the dictionary tail and the
//! directory entries are synced; a retired WAL or generation is deleted
//! only after the manifest that supersedes it is durable.
//!
//! [`open`]: PersistentStore::open
//! [`flush`]: PersistentStore::flush

use std::fs::File;
use std::io::{self, Read};
use std::ops::Range;
use std::path::{Path, PathBuf};

use rdfmesh_obs::{metrics, names};
use rdfmesh_rdf::index::{ID_MAX, ID_MIN};
use rdfmesh_rdf::{
    Dictionary, Perm, Plan, PatternSource, SharedStore, Term, TermId, Triple, TripleIndex,
    TriplePattern, TripleRef,
};

use crate::dict::DictLog;
use crate::fail;
use crate::merge::{ShadowMerge, ShadowSource};
use crate::segment::{Key, SegmentFile, SegmentWriter};
use crate::wal::{Wal, WalOp};

/// Runs `f` once per permutation, each on its own thread: the store's
/// one three-way fan-out.
pub(crate) fn per_perm<T: Send>(f: impl Fn(Perm) -> T + Sync) -> [T; 3] {
    let f = &f;
    std::thread::scope(|scope| {
        Perm::ALL
            .map(|perm| scope.spawn(move || f(perm)))
            .map(|h| h.join().expect("permutation thread"))
    })
}

/// Every key: the bounds of an unbounded range.
const ALL_KEYS: (Key, Key) = ((ID_MIN, ID_MIN, ID_MIN), (ID_MAX, ID_MAX, ID_MAX));

/// One permutation trio of an on-disk level.
struct PermFiles {
    spo: SegmentFile,
    pos: SegmentFile,
    osp: SegmentFile,
}

impl PermFiles {
    fn open(dir: &Path, gen: u64, prefix: &str) -> io::Result<PermFiles> {
        Ok(PermFiles {
            spo: SegmentFile::open(level_path(dir, gen, prefix, Perm::Spo))?,
            pos: SegmentFile::open(level_path(dir, gen, prefix, Perm::Pos))?,
            osp: SegmentFile::open(level_path(dir, gen, prefix, Perm::Osp))?,
        })
    }

    fn seg(&self, perm: Perm) -> &SegmentFile {
        match perm {
            Perm::Spo => &self.spo,
            Perm::Pos => &self.pos,
            Perm::Osp => &self.osp,
        }
    }
}

/// One immutable generation: add segments, optional tombstone segments.
pub(crate) struct Level {
    gen: u64,
    adds: PermFiles,
    dels: Option<PermFiles>,
    add_count: u64,
    del_count: u64,
}

impl Level {
    fn open(dir: &Path, gen: u64, add_count: u64, del_count: u64) -> io::Result<Level> {
        let adds = PermFiles::open(dir, gen, "seg")?;
        let dels =
            if del_count > 0 { Some(PermFiles::open(dir, gen, "del")?) } else { None };
        // The manifest and the segment footers must agree on this
        // level's cardinality — a mismatch means a foreign or damaged
        // file sits where a published segment should be.
        if adds.spo.count() != add_count
            || dels.as_ref().is_some_and(|d| d.spo.count() != del_count)
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("generation {gen}: segment counts disagree with MANIFEST"),
            ));
        }
        Ok(Level { gen, adds, dels, add_count, del_count })
    }

    /// Size metric driving the compaction trigger.
    fn size(&self) -> u64 {
        self.add_count + self.del_count
    }

    /// This level's verdict on `spo`, if it mentions the key at all.
    /// Adds win over tombstones within a level (a merged level may carry
    /// both when its newer constituent re-asserted a deleted key).
    fn verdict(&self, spo: Key) -> Option<bool> {
        if self.adds.spo.contains(spo).expect("segment readable") {
            return Some(true);
        }
        if let Some(dels) = &self.dels {
            if dels.spo.contains(spo).expect("segment readable") {
                return Some(false);
            }
        }
        None
    }
}

/// `flush` merges two adjacent generations only when the newer one has
/// grown to within `1/COMPACTION_RATIO` of the older one's size
/// (`newer_size * COMPACTION_RATIO >= older_size`), so flushing a small
/// overlay into a big store writes keys proportional to the overlay, not
/// the store.
const COMPACTION_RATIO: u64 = 8;

/// What one [`PersistentStore::flush`] did — the write-amplification
/// ledger for the durability experiment (E21).
#[derive(Debug, Default, Clone, Copy)]
pub struct FlushReport {
    /// Overlay entries (adds + deletes) sealed into the new generation.
    pub sealed: u64,
    /// Logical keys written across the seal and any triggered
    /// compactions — divide by `sealed` for write amplification.
    pub keys_written: u64,
    /// Generation merges the size-ratio trigger fired.
    pub compactions: u32,
    /// On-disk generations after the flush.
    pub levels: usize,
}

/// A persistent, dictionary-encoded triple store rooted at a directory.
///
/// I/O errors on the *read* path (segment files vanishing or corrupting
/// underneath an open store) are treated as fatal and panic; the write
/// paths ([`flush`](PersistentStore::flush),
/// [`try_insert`](PersistentStore::try_insert) and friends, the bulk
/// loader) return `io::Result` so callers can surface them. The
/// infallible [`PatternSource`] `insert`/`remove` wrappers panic if the
/// write-ahead log cannot be appended — a mutation that cannot be made
/// durable is never silently acknowledged.
pub struct PersistentStore {
    dir: PathBuf,
    dict: Dictionary,
    log: DictLog,
    synced_terms: usize,
    /// Newest generation number in use (0 = nothing sealed yet).
    generation: u64,
    /// Sealed generations, newest first.
    levels: Vec<Level>,
    /// Live triples across all sealed generations.
    sealed_live: u64,
    /// The overlay: unflushed inserts, and unflushed deletes of sealed
    /// triples.
    adds: TripleIndex,
    dels: TripleIndex,
    wal: Wal,
    wal_id: u64,
    wal_replayed: u64,
}

impl std::fmt::Debug for PersistentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PersistentStore({}, gen {}, {} levels, {} sealed + {} overlay - {} deleted)",
            self.dir.display(),
            self.generation,
            self.levels.len(),
            self.sealed_live,
            self.adds.len(),
            self.dels.len()
        )
    }
}

fn level_path(dir: &Path, generation: u64, prefix: &str, perm: Perm) -> PathBuf {
    dir.join(format!("{prefix}-{generation}.{}", perm.name()))
}

pub(crate) fn seg_path(dir: &Path, generation: u64, perm: Perm) -> PathBuf {
    level_path(dir, generation, "seg", perm)
}

pub(crate) fn del_path(dir: &Path, generation: u64, perm: Perm) -> PathBuf {
    level_path(dir, generation, "del", perm)
}

fn wal_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("wal-{id}.log"))
}

impl PersistentStore {
    /// Opens (creating if needed) the store rooted at `dir`: replays the
    /// dictionary log, maps every generation in the manifest, removes
    /// stale temporaries orphaned by a crash (`MANIFEST.tmp`, segments
    /// of unpublished generations, retired WALs, bulk-load runs), and
    /// replays the write-ahead log to reconstruct the overlay.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<PersistentStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        // A crash between `MANIFEST.tmp` being written and renamed
        // leaves the temporary behind forever; it is dead weight (the
        // rename never published it) and must not survive.
        let tmp = dir.join("MANIFEST.tmp");
        if tmp.exists() {
            fail::remove_file(&tmp)?;
        }
        let manifest = read_manifest(&dir)?.unwrap_or_default();
        let (log, terms) = DictLog::open(dir.join("dict.log"), manifest.terms)?;
        let damaged = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut dict = Dictionary::new();
        for term in terms {
            let id = dict.len();
            if dict.intern_owned(term).index() != id {
                return Err(damaged("dict.log: a term is logged twice"));
            }
        }
        let synced_terms = dict.len();
        let mut levels = Vec::with_capacity(manifest.levels.len());
        for &(gen, add_count, del_count) in &manifest.levels {
            levels.push(Level::open(&dir, gen, add_count, del_count)?);
        }
        gc_orphans(&dir, &manifest);
        let (wal, ops) = Wal::open(wal_path(&dir, manifest.wal_id))?;
        let mut store = PersistentStore {
            dir,
            dict,
            log,
            synced_terms,
            generation: manifest.generation,
            levels,
            sealed_live: manifest.triples,
            adds: TripleIndex::new(),
            dels: TripleIndex::new(),
            wal,
            wal_id: manifest.wal_id,
            wal_replayed: 0,
        };
        for op in ops {
            let (WalOp::Insert((s, p, o)) | WalOp::Remove((s, p, o))) = op;
            if s.max(p).max(o) as usize >= synced_terms {
                return Err(damaged("write-ahead log names a term dict.log lacks"));
            }
            match op {
                WalOp::Insert(spo) => store.apply_insert_ids(spo),
                WalOp::Remove(spo) => store.apply_remove_ids(spo),
            };
            store.wal_replayed += 1;
        }
        metrics().add(names::STORE_WAL_REPLAYED, store.wal_replayed);
        Ok(store)
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The newest segment generation (0 = nothing flushed yet).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of sealed on-disk generations.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Write-ahead-log records replayed into the overlay by
    /// [`open`](PersistentStore::open) — acknowledged writes a crash
    /// would previously have dropped.
    pub fn wal_replayed(&self) -> u64 {
        self.wal_replayed
    }

    /// Number of triples in the unflushed overlay (inserts + deletes).
    pub fn overlay_len(&self) -> usize {
        self.adds.len() + self.dels.len()
    }

    /// Wraps this store in a [`SharedStore`] handle for the mesh seams.
    pub fn into_shared(self) -> SharedStore {
        SharedStore::new(Box::new(self))
    }

    pub(crate) fn intern_triple(&mut self, t: &Triple) -> Key {
        let s = self.dict.intern(&t.subject).0;
        let p = self.dict.intern(&t.predicate).0;
        let o = self.dict.intern(&t.object).0;
        (s, p, o)
    }

    fn ids_of(&self, t: &Triple) -> Option<Key> {
        let s = self.dict.id(&t.subject)?.0;
        let p = self.dict.id(&t.predicate)?.0;
        let o = self.dict.id(&t.object)?.0;
        Some((s, p, o))
    }

    /// Whether `spo` is live in the sealed tree (ignoring the overlay):
    /// the newest level mentioning the key decides.
    fn sealed_contains(&self, spo: Key) -> bool {
        for level in &self.levels {
            if let Some(live) = level.verdict(spo) {
                return live;
            }
        }
        false
    }

    pub(crate) fn contains_ids(&self, spo: Key) -> bool {
        if self.adds.contains(spo) {
            return true;
        }
        if self.dels.contains(spo) {
            return false;
        }
        self.sealed_contains(spo)
    }

    /// Invokes `f` with the SPO key of every live triple `plan` matches,
    /// in ascending `plan.perm`-key order: a shadow merge of the overlay
    /// and every level.
    fn scan(&self, plan: &Plan, f: &mut dyn FnMut(Key)) {
        let range = Some((plan.lo, plan.hi));
        let sources = self.sources(plan.perm, range, true, 0..self.levels.len(), 0);
        for (key, live) in ShadowMerge::new(sources) {
            let spo = plan.perm.decode(key);
            if live && plan.admits(spo) {
                f(spo);
            }
        }
    }

    /// Inserts a triple, returning whether the store changed. The
    /// mutation is recorded in the write-ahead log (with any new
    /// dictionary terms synced first) *before* the overlay is touched —
    /// `Ok(true)` means the write is durable.
    pub fn try_insert(&mut self, triple: &Triple) -> io::Result<bool> {
        let spo = self.intern_triple(triple);
        if self.adds.contains(spo)
            || (self.sealed_contains(spo) && !self.dels.contains(spo))
        {
            return Ok(false); // already live: no-op, nothing to log
        }
        self.sync_dict()?;
        let bytes = self.wal.append(WalOp::Insert(spo))?;
        let m = metrics();
        m.add(names::STORE_WAL_APPENDS, 1);
        m.add(names::STORE_WAL_BYTES, bytes as u64);
        let changed = self.apply_insert_ids(spo);
        debug_assert!(changed, "logged inserts always take effect");
        Ok(changed)
    }

    /// Removes a triple, returning whether the store changed; durable
    /// exactly like [`try_insert`](PersistentStore::try_insert).
    pub fn try_remove(&mut self, triple: &Triple) -> io::Result<bool> {
        let Some(spo) = self.ids_of(triple) else {
            return Ok(false);
        };
        let effect = self.adds.contains(spo)
            || (self.sealed_contains(spo) && !self.dels.contains(spo));
        if !effect {
            return Ok(false);
        }
        self.sync_dict()?;
        let bytes = self.wal.append(WalOp::Remove(spo))?;
        let m = metrics();
        m.add(names::STORE_WAL_APPENDS, 1);
        m.add(names::STORE_WAL_BYTES, bytes as u64);
        let changed = self.apply_remove_ids(spo);
        debug_assert!(changed, "logged removes always take effect");
        Ok(changed)
    }

    /// Applies an insert to the overlay — the shared effect of a live
    /// call (after its WAL record is durable) and of WAL replay.
    fn apply_insert_ids(&mut self, spo: Key) -> bool {
        if self.adds.contains(spo) {
            return false;
        }
        if self.sealed_contains(spo) {
            // Present in the sealed tree: inserting either un-deletes
            // it or is a no-op; the overlay never duplicates sealed
            // triples.
            return self.dels.remove(spo);
        }
        self.adds.insert(spo)
    }

    /// Applies a remove to the overlay; mirror of
    /// [`apply_insert_ids`](Self::apply_insert_ids).
    fn apply_remove_ids(&mut self, spo: Key) -> bool {
        if self.adds.remove(spo) {
            return true;
        }
        if self.sealed_contains(spo) && !self.dels.contains(spo) {
            self.dels.insert(spo);
            return true;
        }
        false
    }

    /// Seals the overlay into a new segment generation (its adds, and
    /// its tombstones if any), retires the write-ahead log with the same
    /// commit, and merges adjacent generations while the size-ratio
    /// trigger (`COMPACTION_RATIO`) fires. A no-op (beyond syncing the
    /// dictionary tail) when the overlay is empty.
    pub fn flush(&mut self) -> io::Result<FlushReport> {
        self.sync_dict()?;
        if self.overlay_len() == 0 {
            return Ok(FlushReport { levels: self.levels.len(), ..FlushReport::default() });
        }
        let gen = self.generation + 1;
        let (adds, dels) =
            self.write_generation(gen, false, |perm| self.sources(perm, None, true, 0..0, 0))?;
        self.publish(gen, (adds, dels), 0..0, self.sealed_live - dels + adds, true)?;
        let sealed = adds + dels;
        let mut report = FlushReport {
            sealed,
            keys_written: sealed,
            compactions: 0,
            levels: self.levels.len(),
        };
        let m = metrics();
        m.add(names::STORE_FLUSH_COUNT, 1);
        m.add(names::STORE_FLUSH_KEYS, sealed);
        m.add(names::STORE_WAL_SEALS, 1);
        self.maybe_compact(&mut report)?;
        report.levels = self.levels.len();
        Ok(report)
    }

    /// Switches to the write-ahead log `id`, deleting the retired one.
    fn reset_wal(&mut self, id: u64) -> io::Result<()> {
        let (wal, ops) = Wal::open(wal_path(&self.dir, id))?;
        debug_assert!(ops.is_empty(), "a fresh WAL has no records");
        let old_path = self.wal.path().clone();
        self.wal = wal;
        self.wal_id = id;
        let _ = fail::remove_file(&old_path);
        Ok(())
    }

    /// Runs the size-ratio merge trigger until it no longer fires.
    fn maybe_compact(&mut self, report: &mut FlushReport) -> io::Result<()> {
        while let Some(i) = (0..self.levels.len().saturating_sub(1))
            .find(|&i| self.levels[i].size() * COMPACTION_RATIO >= self.levels[i + 1].size())
        {
            report.keys_written += self.merge_levels(i)?;
            report.compactions += 1;
        }
        Ok(())
    }

    /// Merges levels `i` and `i + 1` (newest-first indices) into one new
    /// generation. Tombstones are dropped when the merge reaches the
    /// oldest level — there is nothing older left to shadow. Returns the
    /// logical keys written.
    fn merge_levels(&mut self, i: usize) -> io::Result<u64> {
        let gen = self.generation + 1;
        let reaches_oldest = i + 2 == self.levels.len();
        let levels = |perm| self.sources(perm, None, false, i..i + 2, 0);
        let (adds, dels) = self.write_generation(gen, reaches_oldest, levels)?;
        self.publish(gen, (adds, dels), i..i + 2, self.sealed_live, false)?;
        let written = adds + dels;
        let m = metrics();
        m.add(names::STORE_COMPACT_COUNT, 1);
        m.add(names::STORE_COMPACT_KEYS, written);
        Ok(written)
    }

    /// The shadow-merge sources over the overlay (when `overlay`) at
    /// `base_rank`, then `levels[levels]`, newest first, one rank each.
    /// `Some((lo, hi))` reads the keys in `lo..=hi` through the block
    /// cache, as a scan does; `None` streams every key past it, as a
    /// rewrite must, so that a compaction or a load does not flood it.
    pub(crate) fn sources(
        &self,
        perm: Perm,
        range: Option<(Key, Key)>,
        overlay: bool,
        levels: Range<usize>,
        base_rank: u32,
    ) -> Vec<ShadowSource<'_>> {
        let mut sources = Vec::with_capacity(2 + 2 * levels.len());
        let mut rank = base_rank;
        if overlay {
            let (lo, hi) = range.unwrap_or(ALL_KEYS);
            sources.push(ShadowSource {
                rank,
                is_del: false,
                iter: Box::new(self.adds.range(perm, lo, hi)),
            });
            if !self.dels.is_empty() {
                sources.push(ShadowSource {
                    rank,
                    is_del: true,
                    iter: Box::new(self.dels.range(perm, lo, hi)),
                });
            }
            rank += 1;
        }
        for level in &self.levels[levels] {
            for (is_del, files) in [(false, Some(&level.adds)), (true, level.dels.as_ref())] {
                let Some(file) = files.map(|f| f.seg(perm)) else { continue };
                let iter: Box<dyn Iterator<Item = Key> + '_> = match range {
                    Some((lo, hi)) => Box::new(file.range(lo, hi)),
                    None => Box::new(file.iter()),
                };
                sources.push(ShadowSource { rank, is_del, iter });
            }
            rank += 1;
        }
        sources
    }

    /// Writes generation `gen` from the shadow merge of `sources(perm)`,
    /// one thread per permutation: live keys to `seg-<gen>.*`, and
    /// tombstones to `del-<gen>.*` — created when the first one arrives —
    /// unless `drop_dels`. Returns the `(adds, dels)` it wrote.
    pub(crate) fn write_generation<'a>(
        &'a self,
        gen: u64,
        drop_dels: bool,
        sources: impl Fn(Perm) -> Vec<ShadowSource<'a>> + Sync,
    ) -> io::Result<(u64, u64)> {
        let [spo, pos, osp] = per_perm(|perm| -> io::Result<(u64, u64)> {
            let mut adds = SegmentWriter::create(seg_path(&self.dir, gen, perm))?;
            let mut dels = None;
            for (key, live) in ShadowMerge::new(sources(perm)) {
                if live {
                    adds.push(key)?;
                } else if !drop_dels {
                    let w = match &mut dels {
                        Some(w) => w,
                        None => dels.insert(SegmentWriter::create(del_path(&self.dir, gen, perm))?),
                    };
                    w.push(key)?;
                }
            }
            Ok((adds.finish()?, dels.map_or(Ok(0), SegmentWriter::finish)?))
        });
        let (spo, pos, osp) = (spo?, pos?, osp?);
        debug_assert!(spo == pos && pos == osp, "permutations must agree on the key sets");
        Ok(spo)
    }

    /// The one commit: publishes generation `gen`, holding `(adds, dels)`,
    /// in place of `levels[replace]`, with `live` triples sealed. Syncs
    /// the directory, swaps the manifest, opens the level (or deletes its
    /// files when it holds nothing) and splices it in; when the
    /// generation `sealed_overlay`, clears the overlay and starts the next
    /// write-ahead log; then deletes the replaced generations' files.
    pub(crate) fn publish(
        &mut self,
        gen: u64,
        (adds, dels): (u64, u64),
        replace: Range<usize>,
        live: u64,
        sealed_overlay: bool,
    ) -> io::Result<()> {
        // New files' directory entries must be durable before a
        // manifest referencing them is.
        fail::sync_dir(&self.dir)?;
        let holds = adds + dels > 0;
        let wal_id = self.wal_id + u64::from(sealed_overlay);
        let meta = |l: &Level| (l.gen, l.add_count, l.del_count);
        let mut levels: Vec<_> = self.levels[..replace.start].iter().map(meta).collect();
        if holds {
            levels.push((gen, adds, dels));
        }
        levels.extend(self.levels[replace.end..].iter().map(meta));
        let terms = self.synced_terms as u64;
        let manifest = Manifest { generation: gen, wal_id, triples: live, terms, levels };
        write_manifest(&self.dir, &manifest)?;
        let level = if holds {
            Some(Level::open(&self.dir, gen, adds, dels)?)
        } else {
            for perm in Perm::ALL {
                let _ = fail::remove_file(&seg_path(&self.dir, gen, perm));
            }
            None
        };
        let retired: Vec<u64> = self.levels.splice(replace, level).map(|l| l.gen).collect();
        self.generation = gen;
        self.sealed_live = live;
        if sealed_overlay {
            self.adds.clear();
            self.dels.clear();
            // The WAL's contents are now in segments the manifest owns; a
            // crash past this point replays the (empty) successor log.
            self.reset_wal(wal_id)?;
        }
        for old in retired {
            for perm in Perm::ALL {
                let _ = fail::remove_file(&seg_path(&self.dir, old, perm));
                let _ = fail::remove_file(&del_path(&self.dir, old, perm));
            }
        }
        Ok(())
    }

    /// Appends and syncs any dictionary entries newer than the last sync.
    pub(crate) fn sync_dict(&mut self) -> io::Result<()> {
        self.log.append(&self.dict.terms()[self.synced_terms..])?;
        self.synced_terms = self.dict.len();
        Ok(())
    }
}

impl PatternSource for PersistentStore {
    fn for_each_match(
        &self,
        pattern: &TriplePattern,
        f: &mut dyn FnMut(TripleRef<'_>, [TermId; 3]),
    ) {
        let Some(plan) = Plan::new(&self.dict, pattern) else { return };
        self.scan(&plan, &mut |(s, p, o)| {
            let ids = [TermId(s), TermId(p), TermId(o)];
            let [subject, predicate, object] = ids.map(|id| self.dict.term(id));
            f(TripleRef { subject, predicate, object }, ids)
        });
    }

    fn term(&self, id: TermId) -> &Term {
        self.dict.term(id)
    }

    fn id(&self, term: &Term) -> Option<TermId> {
        self.dict.id(term)
    }

    fn count_pattern(&self, pattern: &TriplePattern) -> usize {
        let Some(plan) = Plan::new(&self.dict, pattern) else { return 0 };
        let tombstone_free = self.dels.is_empty() && self.levels.iter().all(|l| l.del_count == 0);
        if tombstone_free && !plan.filters() {
            let Plan { perm, lo, hi, .. } = plan;
            // Fast path: with no tombstones anywhere, every level's add
            // set is disjoint from the others and from the overlay, so
            // the footer index can count whole interior blocks without
            // decoding them.
            let sealed: u64 = self
                .levels
                .iter()
                .map(|l| l.adds.seg(perm).count_range(lo, hi).expect("segment readable"))
                .sum();
            return sealed as usize + self.adds.range(perm, lo, hi).count();
        }
        let mut n = 0usize;
        self.scan(&plan, &mut |_| n += 1);
        n
    }

    fn len(&self) -> usize {
        (self.sealed_live - self.dels.len() as u64) as usize + self.adds.len()
    }

    fn insert(&mut self, triple: &Triple) -> bool {
        self.try_insert(triple).expect("write-ahead log append (see docs/STORAGE.md)")
    }

    fn remove(&mut self, triple: &Triple) -> bool {
        self.try_remove(triple).expect("write-ahead log append (see docs/STORAGE.md)")
    }

    fn contains(&self, triple: &Triple) -> bool {
        match self.ids_of(triple) {
            Some(spo) => self.contains_ids(spo),
            None => false,
        }
    }
}

/// The decoded `MANIFEST`: the commit record naming every live file.
#[derive(Debug, Clone, Default)]
struct Manifest {
    /// Newest generation number in use.
    generation: u64,
    /// The live write-ahead log's id (`wal-<id>.log`).
    wal_id: u64,
    /// Live triples across all levels.
    triples: u64,
    /// Dictionary terms synced at the commit: the least `dict.log` holds.
    terms: u64,
    /// `(generation, add_count, del_count)` per level, newest first.
    levels: Vec<(u64, u64, u64)>,
}

fn read_manifest(dir: &Path) -> io::Result<Option<Manifest>> {
    let path = dir.join("MANIFEST");
    let mut text = String::new();
    match File::open(&path) {
        Ok(mut f) => f.read_to_string(&mut text)?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "malformed MANIFEST");
    let mut versioned = false;
    let mut generation = None;
    let mut wal_id = 0;
    let mut triples = 0;
    let mut terms = 0;
    let mut levels = Vec::new();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next()) {
            (Some("rdfmesh-store"), Some("2")) => versioned = true,
            (Some("rdfmesh-store"), Some(v)) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unsupported MANIFEST version {v}"),
                ))
            }
            (Some("generation"), Some(v)) => generation = v.parse().ok(),
            (Some("wal"), Some(v)) => wal_id = v.parse().map_err(|_| bad())?,
            (Some("triples"), Some(v)) => triples = v.parse().unwrap_or(0),
            (Some("terms"), Some(v)) => terms = v.parse().map_err(|_| bad())?,
            (Some("level"), Some(gen)) => {
                let gen = gen.parse().map_err(|_| bad())?;
                let adds =
                    parts.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
                let dels =
                    parts.next().and_then(|v| v.parse().ok()).ok_or_else(bad)?;
                levels.push((gen, adds, dels));
            }
            _ => {}
        }
    }
    match generation {
        Some(generation) if versioned => {
            Ok(Some(Manifest { generation, wal_id, triples, terms, levels }))
        }
        _ => Err(bad()),
    }
}

/// Writes the manifest durably: temp file → fsync → rename → directory
/// fsync. The rename is the store's only commit point.
fn write_manifest(dir: &Path, m: &Manifest) -> io::Result<()> {
    let tmp = dir.join("MANIFEST.tmp");
    let mut f = fail::create(&tmp)?;
    let mut text = format!(
        "rdfmesh-store 2\ngeneration {}\nwal {}\ntriples {}\nterms {}\n",
        m.generation, m.wal_id, m.triples, m.terms
    );
    for (gen, adds, dels) in &m.levels {
        text.push_str(&format!("level {gen} {adds} {dels}\n"));
    }
    fail::write_all(&mut f, text.as_bytes())?;
    fail::sync_all(&f)?;
    drop(f);
    fail::rename(&tmp, &dir.join("MANIFEST"))?;
    // The rename itself must be durable before the caller acknowledges
    // anything that depends on the new generation.
    fail::sync_dir(dir)
}

/// Deletes files a crash orphaned: segments of generations the manifest
/// does not own, retired write-ahead logs, and bulk-load run files.
/// Best-effort — an undeletable orphan is dead weight, not corruption.
fn gc_orphans(dir: &Path, manifest: &Manifest) {
    let live: std::collections::HashSet<u64> =
        manifest.levels.iter().map(|&(gen, _, _)| gen).collect();
    let live_wal = format!("wal-{}.log", manifest.wal_id);
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale_level = ["seg-", "del-"].iter().any(|prefix| {
            name.strip_prefix(prefix)
                .and_then(|rest| rest.split('.').next())
                .and_then(|gen| gen.parse::<u64>().ok())
                .is_some_and(|gen| !live.contains(&gen))
        });
        let stale_wal = name.starts_with("wal-") && name != live_wal;
        let stale_run = name.starts_with("run-");
        if stale_level || stale_wal || stale_run {
            let _ = fail::remove_file(&entry.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfmesh_rdf::{Term, TermPattern};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rdfmesh-pstore-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn iri(s: &str) -> Term {
        Term::iri(&format!("http://e/{s}"))
    }

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(iri(s), iri(p), iri(o))
    }

    fn demo_triples() -> Vec<Triple> {
        vec![
            t("a", "knows", "b"),
            t("a", "knows", "c"),
            t("b", "knows", "c"),
            t("a", "name", "b"),
            Triple::new(iri("a"), iri("name"), Term::literal("Alice")),
            Triple::new(iri("c"), iri("knows"), iri("c")),
        ]
    }

    /// Every live SPO key, in the order the full scan yields them.
    fn iter_ids(store: &PersistentStore) -> Vec<Key> {
        let v = TermPattern::var;
        let mut out = Vec::new();
        let plan = Plan::new(&store.dict, &TriplePattern::new(v("s"), v("p"), v("o"))).unwrap();
        store.scan(&plan, &mut |k| out.push(k));
        out
    }

    fn sorted(mut v: Vec<Triple>) -> Vec<Triple> {
        v.sort();
        v
    }

    /// A scan of a store with one level and nothing in the overlay for
    /// the pattern reads that level's keys straight through; an overlay
    /// insert or a tombstone in its range brings the merge back.
    #[test]
    fn a_one_level_scan_passes_through_until_the_overlay_holds_its_range() {
        let dir = tmpdir("pass-through");
        let mut store = PersistentStore::open(&dir).unwrap();
        for tr in demo_triples() {
            store.insert(&tr);
        }
        store.flush().unwrap();
        let v = TermPattern::var;
        let knows = TriplePattern::new(v("s"), TermPattern::Const(iri("knows")), v("o"));
        let passes_through = |store: &PersistentStore| {
            let plan = Plan::new(&store.dict, &knows).unwrap();
            let range = Some((plan.lo, plan.hi));
            let sources = store.sources(plan.perm, range, true, 0..store.levels.len(), 0);
            ShadowMerge::new(sources).passes_through()
        };
        assert!(passes_through(&store));
        store.insert(&t("a", "name", "c")); // outside the range
        assert!(passes_through(&store));
        store.insert(&t("c", "knows", "a"));
        assert!(!passes_through(&store), "an overlay insert in range");
        store.flush().unwrap();
        assert_eq!(store.level_count(), 1, "the small flush compacted into one level");
        assert!(passes_through(&store));
        store.remove(&t("a", "knows", "b"));
        assert!(!passes_through(&store), "a tombstone in range");
        let mut got = Vec::new();
        store.for_each_match(&knows, &mut |t, _| got.push(t.to_triple()));
        assert_eq!(sorted(got), sorted(vec![t("a", "knows", "c"), t("b", "knows", "c"), t("c", "knows", "a"), t("c", "knows", "c")]));
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overlay_matches_before_and_after_flush() {
        let dir = tmpdir("overlay-flush");
        let mut store = PersistentStore::open(&dir).unwrap();
        for tr in demo_triples() {
            assert!(store.insert(&tr));
        }
        let mem = rdfmesh_rdf::TripleStore::from_triples(demo_triples());
        let v = TermPattern::var;
        let pats = [
            TriplePattern::new(v("s"), v("p"), v("o")),
            TriplePattern::new(iri("a"), v("p"), v("o")),
            TriplePattern::new(v("s"), iri("knows"), v("o")),
            TriplePattern::new(v("s"), v("p"), iri("c")),
            TriplePattern::new(iri("a"), iri("knows"), v("o")),
            TriplePattern::new(v("s"), iri("knows"), iri("c")),
            TriplePattern::new(iri("a"), v("p"), iri("b")),
            TriplePattern::new(iri("b"), iri("knows"), iri("c")),
            TriplePattern::new(v("x"), iri("knows"), v("x")),
        ];
        let check = |store: &PersistentStore, label: &str| {
            for pat in &pats {
                assert_eq!(
                    sorted(store.match_pattern(pat)),
                    sorted(mem.match_pattern(pat)),
                    "{label}: {pat:?}"
                );
                assert_eq!(store.count_pattern(pat), mem.count_pattern(pat), "{label}: {pat:?}");
            }
            assert_eq!(PatternSource::len(store), mem.len(), "{label}");
        };
        check(&store, "pre-flush");
        let report = store.flush().unwrap();
        assert_eq!(report.sealed, demo_triples().len() as u64);
        assert_eq!(store.generation(), 1);
        assert_eq!(store.overlay_len(), 0);
        check(&store, "post-flush");

        // Reopen from disk: everything must still be there.
        drop(store);
        let store = PersistentStore::open(&dir).unwrap();
        assert_eq!(store.wal_replayed(), 0, "flushed stores replay nothing");
        check(&store, "reopened");
    }

    #[test]
    fn unflushed_overlay_survives_reopen_via_wal() {
        let dir = tmpdir("wal-reopen");
        let mut store = PersistentStore::open(&dir).unwrap();
        store.insert(&t("a", "knows", "b"));
        store.insert(&t("b", "knows", "c"));
        store.flush().unwrap();
        // Unflushed tail: one insert, one tombstone, one un-delete.
        store.insert(&t("c", "knows", "d"));
        store.remove(&t("a", "knows", "b"));
        store.remove(&t("b", "knows", "c"));
        store.insert(&t("b", "knows", "c"));
        assert_eq!(store.overlay_len(), 2); // add c-d + tombstone a-b
        drop(store); // simulated crash: no flush

        let store = PersistentStore::open(&dir).unwrap();
        assert_eq!(store.wal_replayed(), 4, "every acknowledged write replays");
        assert_eq!(store.overlay_len(), 2);
        assert!(store.contains(&t("c", "knows", "d")));
        assert!(store.contains(&t("b", "knows", "c")));
        assert!(!store.contains(&t("a", "knows", "b")));
        assert_eq!(PatternSource::len(&store), 2);

        // A second reopen replays the same log to the same state.
        drop(store);
        let store = PersistentStore::open(&dir).unwrap();
        assert_eq!(store.wal_replayed(), 4);
        assert_eq!(PatternSource::len(&store), 2);
    }

    #[test]
    fn deletes_tombstone_base_triples_and_compact_away() {
        let dir = tmpdir("dels");
        let mut store = PersistentStore::open(&dir).unwrap();
        for tr in demo_triples() {
            store.insert(&tr);
        }
        store.flush().unwrap();
        assert!(store.remove(&t("a", "knows", "b")));
        assert!(!store.remove(&t("a", "knows", "b")));
        assert!(!store.contains(&t("a", "knows", "b")));
        assert_eq!(PatternSource::len(&store), 5);
        let pat = TriplePattern::new(TermPattern::var("x"), iri("knows"), TermPattern::var("o"));
        assert_eq!(store.count_pattern(&pat), 3);
        assert_eq!(store.match_pattern(&pat).len(), 3);

        // Re-inserting a tombstoned base triple restores it.
        assert!(store.insert(&t("a", "knows", "b")));
        assert!(store.contains(&t("a", "knows", "b")));
        assert!(!store.insert(&t("a", "knows", "b")));

        store.remove(&t("a", "knows", "b"));
        let report = store.flush().unwrap();
        // The tombstone seal is tiny next to the base, but the default
        // ratio-8 trigger still fires at this scale and folds the
        // tombstone into the oldest level, where it is dropped.
        assert!(report.compactions >= 1);
        assert_eq!(store.level_count(), 1);
        assert_eq!(PatternSource::len(&store), 5);
        assert!(!store.contains(&t("a", "knows", "b")));

        let reopened = PersistentStore::open(&dir).unwrap();
        assert_eq!(PatternSource::len(&reopened), 5);
        assert!(!reopened.contains(&t("a", "knows", "b")));
        assert!(reopened.contains(&t("b", "knows", "c")));
    }

    #[test]
    fn mixed_base_and_overlay_states_answer_patterns() {
        let dir = tmpdir("mixed");
        let mut store = PersistentStore::open(&dir).unwrap();
        store.insert(&t("a", "knows", "b"));
        store.insert(&t("b", "knows", "c"));
        store.flush().unwrap();
        store.insert(&t("c", "knows", "d")); // overlay add
        store.remove(&t("a", "knows", "b")); // tombstone
        let pat = TriplePattern::new(
            TermPattern::var("s"),
            iri("knows"),
            TermPattern::var("o"),
        );
        let got = sorted(store.match_pattern(&pat));
        assert_eq!(got, sorted(vec![t("b", "knows", "c"), t("c", "knows", "d")]));
        assert_eq!(store.count_pattern(&pat), 2);
        assert_eq!(PatternSource::len(&store), 2);
        let all = iter_ids(&store);
        assert_eq!(all.len(), 2);
        assert!(all.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn retired_generation_files_are_removed() {
        let dir = tmpdir("gens");
        let mut store = PersistentStore::open(&dir).unwrap();
        store.insert(&t("a", "p", "b"));
        store.flush().unwrap();
        store.insert(&t("b", "p", "c"));
        let report = store.flush().unwrap();
        // Two same-sized levels trip the ratio trigger immediately.
        assert_eq!(report.compactions, 1);
        assert_eq!(store.level_count(), 1);
        let gen = store.generation();
        assert!(seg_path(&dir, gen, Perm::Spo).exists());
        for old in 1..gen {
            assert!(!seg_path(&dir, old, Perm::Spo).exists(), "gen {old} retired");
        }
        // Exactly one WAL file remains: the live (empty) one.
        let wals: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
            .collect();
        assert_eq!(wals.len(), 1, "{wals:?}");
    }

    #[test]
    fn incremental_flush_keeps_small_levels_separate() {
        let dir = tmpdir("levels");
        let mut store = PersistentStore::open(&dir).unwrap();
        // A big base...
        for i in 0..200 {
            store.insert(&t(&format!("s{i}"), "p", &format!("o{i}")));
        }
        store.flush().unwrap();
        assert_eq!(store.level_count(), 1);
        // ...then a small overlay: sealing it must not rewrite the base.
        store.insert(&t("tiny", "p", "x"));
        let report = store.flush().unwrap();
        assert_eq!(report.compactions, 0, "1 * 8 < 200: no merge");
        assert_eq!(report.keys_written, 1, "only the overlay was written");
        assert_eq!(store.level_count(), 2);
        assert_eq!(PatternSource::len(&store), 201);
        // A second small overlay folds into the first (3 * 8 >= 1) and
        // stops there (4 * 8 < 200): the cost follows the overlay.
        for i in 0..3 {
            store.insert(&t(&format!("tiny{i}"), "p", "x"));
        }
        let report = store.flush().unwrap();
        assert_eq!(report.compactions, 1);
        assert_eq!(report.keys_written, 3 + 4, "seal + merge of the two small levels");
        assert_eq!(store.level_count(), 2);

        // Reopened stores see both levels.
        drop(store);
        let store = PersistentStore::open(&dir).unwrap();
        assert_eq!(store.level_count(), 2);
        assert_eq!(PatternSource::len(&store), 204);
        assert!(store.contains(&t("tiny", "p", "x")));
        assert!(store.contains(&t("s0", "p", "o0")));
        // The footer-counting fast path spans levels.
        let pat =
            TriplePattern::new(TermPattern::var("s"), iri("p"), TermPattern::var("o"));
        assert_eq!(store.count_pattern(&pat), 204);
    }

    #[test]
    fn manifest_versions_other_than_2_are_rejected() {
        let dir = tmpdir("versions");
        {
            let mut store = PersistentStore::open(&dir).unwrap();
            store.insert(&t("a", "p", "b"));
            store.flush().unwrap();
        }
        let manifest = dir.join("MANIFEST");
        let current = std::fs::read_to_string(&manifest).unwrap();
        assert!(current.starts_with("rdfmesh-store 2\n"));
        for (version, message) in [
            ("1", "unsupported MANIFEST version 1"),
            ("3", "unsupported MANIFEST version 3"),
            ("two", "unsupported MANIFEST version two"),
        ] {
            let text = current.replacen("rdfmesh-store 2", &format!("rdfmesh-store {version}"), 1);
            std::fs::write(&manifest, text).unwrap();
            let err = PersistentStore::open(&dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(err.to_string(), message);
        }
        // No version line at all is not a manifest.
        std::fs::write(&manifest, current.replacen("rdfmesh-store 2\n", "", 1)).unwrap();
        assert_eq!(PersistentStore::open(&dir).unwrap_err().to_string(), "malformed MANIFEST");
        std::fs::write(&manifest, current).unwrap();
        assert_eq!(PatternSource::len(&PersistentStore::open(&dir).unwrap()), 1);
    }

    #[test]
    fn stale_manifest_tmp_is_removed_on_open() {
        let dir = tmpdir("staletmp");
        {
            let mut store = PersistentStore::open(&dir).unwrap();
            store.insert(&t("a", "p", "b"));
            store.flush().unwrap();
        }
        // Simulate a crash between writing MANIFEST.tmp and renaming it.
        let tmp = dir.join("MANIFEST.tmp");
        std::fs::write(&tmp, "rdfmesh-store 2\ngeneration 99\ntriples 0\n").unwrap();
        let store = PersistentStore::open(&dir).unwrap();
        assert!(!tmp.exists(), "open removes the stale temporary");
        // The uncommitted generation 99 is invisible.
        assert_eq!(store.generation(), 1);
        assert_eq!(PatternSource::len(&store), 1);
    }

    #[test]
    fn crashed_compaction_leftovers_are_garbage_collected() {
        let dir = tmpdir("orphans");
        {
            let mut store = PersistentStore::open(&dir).unwrap();
            store.insert(&t("a", "p", "b"));
            store.flush().unwrap();
        }
        // Fake a crash that left an unpublished generation, a retired
        // WAL, and a bulk-load run behind.
        std::fs::write(seg_path(&dir, 77, Perm::Spo), b"junk").unwrap();
        std::fs::write(del_path(&dir, 77, Perm::Pos), b"junk").unwrap();
        std::fs::write(dir.join("wal-0.log"), b"").unwrap();
        std::fs::write(dir.join("run-3.spo"), b"junk").unwrap();
        let store = PersistentStore::open(&dir).unwrap();
        assert!(!seg_path(&dir, 77, Perm::Spo).exists());
        assert!(!del_path(&dir, 77, Perm::Pos).exists());
        assert!(!dir.join("run-3.spo").exists());
        let wals: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("wal-"))
            .collect();
        assert_eq!(wals, vec![format!("wal-{}.log", 1)], "only the live WAL survives");
        assert_eq!(PatternSource::len(&store), 1);
    }

    #[test]
    fn unknown_constants_short_circuit() {
        let dir = tmpdir("unknown");
        let mut store = PersistentStore::open(&dir).unwrap();
        store.insert(&t("a", "p", "b"));
        let pat =
            TriplePattern::new(TermPattern::var("s"), iri("nope"), TermPattern::var("o"));
        assert!(store.match_pattern(&pat).is_empty());
        assert_eq!(store.count_pattern(&pat), 0);
        assert!(!store.contains(&t("zz", "p", "b")));
        assert!(!store.remove(&t("zz", "p", "b")));
    }

    #[test]
    fn shared_store_wraps_persistent_backend() {
        let dir = tmpdir("shared");
        let store = PersistentStore::open(&dir).unwrap().into_shared();
        store.insert(&t("a", "p", "b"));
        assert_eq!(store.len(), 1);
        assert!(store.contains(&t("a", "p", "b")));
    }
}
