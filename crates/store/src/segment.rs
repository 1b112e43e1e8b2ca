//! Immutable sorted runs of ID-triples, delta-compressed in blocks.
//!
//! A segment file holds one permutation (SPO, POS or OSP) of a set of
//! dictionary-encoded triples as strictly increasing `(u32, u32, u32)`
//! keys, grouped into blocks of up to [`BLOCK_TRIPLES`] keys. Each block
//! is LEB128 delta-compressed: the first key is stored absolutely, every
//! following key stores only the components that changed. A footer holds
//! the per-block index (first key, offset, length) that is kept in
//! memory and binary-searched, so a bound-prefix lookup touches only the
//! blocks that can contain matches — the small-footprint layout of
//! P2P/edge RDF stores.
//!
//! Layout: `[magic][block 0][block 1]…[footer][footer offset][magic]`.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::fail;
use crate::varint;

/// A dictionary-encoded triple in some permutation's component order.
pub use rdfmesh_rdf::IdTriple as Key;

/// Keys per compressed block. 1024 keys ≈ 12 KiB decoded; small enough
/// that point lookups stay cheap, large enough that deltas amortize.
pub const BLOCK_TRIPLES: usize = 1024;

/// Decoded blocks cached per open segment file (FIFO). Bounds resident
/// memory at roughly `64 × 12 KiB` per permutation file.
const CACHE_BLOCKS: usize = 64;

const MAGIC: &[u8; 8] = b"RMSTSEG1";

#[derive(Debug, Clone, Copy)]
struct BlockMeta {
    first: Key,
    offset: u64,
    len: u32,
    count: u32,
}

fn encode_block(keys: &[Key], out: &mut Vec<u8>) {
    let mut prev = keys[0];
    varint::put(out, u64::from(prev.0));
    varint::put(out, u64::from(prev.1));
    varint::put(out, u64::from(prev.2));
    for &k in &keys[1..] {
        let da = k.0 - prev.0;
        varint::put(out, u64::from(da));
        if da > 0 {
            varint::put(out, u64::from(k.1));
            varint::put(out, u64::from(k.2));
        } else {
            let db = k.1 - prev.1;
            varint::put(out, u64::from(db));
            if db > 0 {
                varint::put(out, u64::from(k.2));
            } else {
                varint::put(out, u64::from(k.2 - prev.2));
            }
        }
        prev = k;
    }
}

fn decode_block(bytes: &[u8], count: usize) -> io::Result<Vec<Key>> {
    let bad = || io::Error::new(io::ErrorKind::InvalidData, "corrupt segment block");
    let mut pos = 0usize;
    let mut keys = Vec::with_capacity(count);
    let get = |pos: &mut usize| varint::get(bytes, pos).ok_or_else(bad);
    let a = get(&mut pos)? as u32;
    let b = get(&mut pos)? as u32;
    let c = get(&mut pos)? as u32;
    let mut prev: Key = (a, b, c);
    keys.push(prev);
    for _ in 1..count {
        let da = get(&mut pos)? as u32;
        prev = if da > 0 {
            (prev.0 + da, get(&mut pos)? as u32, get(&mut pos)? as u32)
        } else {
            let db = get(&mut pos)? as u32;
            if db > 0 {
                (prev.0, prev.1 + db, get(&mut pos)? as u32)
            } else {
                (prev.0, prev.1, prev.2 + get(&mut pos)? as u32)
            }
        };
        keys.push(prev);
    }
    if pos != bytes.len() {
        return Err(bad());
    }
    Ok(keys)
}

/// Streams strictly increasing keys into a new segment file. Duplicate
/// pushes are silently deduplicated (the merge paths rely on this);
/// out-of-order pushes are a logic error and panic.
pub struct SegmentWriter {
    out: BufWriter<File>,
    path: PathBuf,
    buf: Vec<Key>,
    metas: Vec<BlockMeta>,
    offset: u64,
    count: u64,
    last: Option<Key>,
}

impl SegmentWriter {
    /// Creates (truncating) the segment at `path`.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<SegmentWriter> {
        let path = path.into();
        let mut out = BufWriter::new(fail::create(&path)?);
        fail::write_all(&mut out, MAGIC)?;
        Ok(SegmentWriter {
            out,
            path,
            buf: Vec::with_capacity(BLOCK_TRIPLES),
            metas: Vec::new(),
            offset: MAGIC.len() as u64,
            count: 0,
            last: None,
        })
    }

    /// Appends one key (must be ≥ every previous key; equal keys dedup).
    pub fn push(&mut self, key: Key) -> io::Result<()> {
        if let Some(last) = self.last {
            if key == last {
                return Ok(());
            }
            assert!(key > last, "segment keys must be pushed in sorted order");
        }
        self.last = Some(key);
        self.buf.push(key);
        self.count += 1;
        if self.buf.len() >= BLOCK_TRIPLES {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let mut bytes = Vec::with_capacity(self.buf.len() * 4);
        encode_block(&self.buf, &mut bytes);
        self.metas.push(BlockMeta {
            first: self.buf[0],
            offset: self.offset,
            len: bytes.len() as u32,
            count: self.buf.len() as u32,
        });
        fail::write_all(&mut self.out, &bytes)?;
        self.offset += bytes.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Writes the footer and syncs the file. Returns the key count.
    pub fn finish(mut self) -> io::Result<u64> {
        self.flush_block()?;
        let footer_offset = self.offset;
        let mut footer = Vec::with_capacity(self.metas.len() * 28 + 16);
        for m in &self.metas {
            footer.extend_from_slice(&m.first.0.to_le_bytes());
            footer.extend_from_slice(&m.first.1.to_le_bytes());
            footer.extend_from_slice(&m.first.2.to_le_bytes());
            footer.extend_from_slice(&m.offset.to_le_bytes());
            footer.extend_from_slice(&m.len.to_le_bytes());
            footer.extend_from_slice(&m.count.to_le_bytes());
        }
        footer.extend_from_slice(&(self.metas.len() as u32).to_le_bytes());
        footer.extend_from_slice(&footer_offset.to_le_bytes());
        footer.extend_from_slice(&MAGIC[..4]);
        fail::write_all(&mut self.out, &footer)?;
        self.out.flush()?;
        fail::sync_all(self.out.get_ref())?;
        let _ = self.path;
        Ok(self.count)
    }
}

/// An open, immutable segment file: the in-memory block index plus a
/// bounded cache of decoded blocks.
pub struct SegmentFile {
    file: File,
    blocks: Vec<BlockMeta>,
    count: u64,
    cache: Mutex<BlockCache>,
}

struct BlockCache {
    map: HashMap<u32, Arc<Vec<Key>>>,
    order: std::collections::VecDeque<u32>,
}

impl std::fmt::Debug for SegmentFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SegmentFile({} keys, {} blocks)", self.count, self.blocks.len())
    }
}

impl SegmentFile {
    /// Opens a segment written by [`SegmentWriter`].
    pub fn open(path: impl AsRef<Path>) -> io::Result<SegmentFile> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let mut file = File::open(path)?;
        let total = file.metadata()?.len();
        if total < (MAGIC.len() + 16) as u64 {
            return Err(bad("segment file too short"));
        }
        let mut head = [0u8; 8];
        file.seek(SeekFrom::Start(0))?;
        file.read_exact(&mut head)?;
        if &head != MAGIC {
            return Err(bad("bad segment magic"));
        }
        let mut tail = [0u8; 16];
        file.seek(SeekFrom::Start(total - 16))?;
        file.read_exact(&mut tail)?;
        if tail[12..] != MAGIC[..4] {
            return Err(bad("bad segment trailer"));
        }
        let block_count = u32::from_le_bytes(tail[0..4].try_into().unwrap()) as usize;
        let footer_offset = u64::from_le_bytes(tail[4..12].try_into().unwrap());
        let footer_len = (block_count * 28) as u64;
        if footer_offset + footer_len + 16 != total {
            return Err(bad("inconsistent segment footer"));
        }
        let mut footer = vec![0u8; footer_len as usize];
        file.seek(SeekFrom::Start(footer_offset))?;
        file.read_exact(&mut footer)?;
        let mut blocks = Vec::with_capacity(block_count);
        let mut count = 0u64;
        for chunk in footer.chunks_exact(28) {
            let u32le = |i: usize| u32::from_le_bytes(chunk[i..i + 4].try_into().unwrap());
            let meta = BlockMeta {
                first: (u32le(0), u32le(4), u32le(8)),
                offset: u64::from_le_bytes(chunk[12..20].try_into().unwrap()),
                len: u32le(20),
                count: u32le(24),
            };
            count += u64::from(meta.count);
            blocks.push(meta);
        }
        Ok(SegmentFile {
            file,
            blocks,
            count,
            cache: Mutex::new(BlockCache {
                map: HashMap::new(),
                order: std::collections::VecDeque::new(),
            }),
        })
    }

    /// Number of keys stored.
    pub fn count(&self) -> u64 {
        self.count
    }

    fn read_block_raw(&self, meta: &BlockMeta) -> io::Result<Vec<Key>> {
        let mut bytes = vec![0u8; meta.len as usize];
        read_exact_at(&self.file, &mut bytes, meta.offset)?;
        decode_block(&bytes, meta.count as usize)
    }

    fn block(&self, idx: usize) -> io::Result<Arc<Vec<Key>>> {
        let id = idx as u32;
        {
            let cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(hit) = cache.map.get(&id) {
                return Ok(Arc::clone(hit));
            }
        }
        let keys = Arc::new(self.read_block_raw(&self.blocks[idx])?);
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        if cache.map.len() >= CACHE_BLOCKS {
            if let Some(evict) = cache.order.pop_front() {
                cache.map.remove(&evict);
            }
        }
        if cache.map.insert(id, Arc::clone(&keys)).is_none() {
            cache.order.push_back(id);
        }
        Ok(keys)
    }

    /// Number of keys in `lo..=hi`.
    pub fn count_range(&self, lo: Key, hi: Key) -> io::Result<u64> {
        let mut n = 0u64;
        // Whole blocks strictly inside the range need no decoding — the
        // footer already knows their cardinality.
        if self.blocks.is_empty() || lo > hi {
            return Ok(0);
        }
        let start = self.blocks.partition_point(|m| m.first <= lo).saturating_sub(1);
        for idx in start..self.blocks.len() {
            if self.blocks[idx].first > hi {
                break;
            }
            let interior = self.blocks[idx].first >= lo
                && idx + 1 < self.blocks.len()
                && self.blocks[idx + 1].first <= hi;
            if interior {
                n += u64::from(self.blocks[idx].count);
                continue;
            }
            let keys = self.block(idx)?;
            let from = keys.partition_point(|&k| k < lo);
            let to = keys.partition_point(|&k| k <= hi);
            n += (to - from) as u64;
        }
        Ok(n)
    }

    /// True if the exact key is present.
    pub fn contains(&self, key: Key) -> io::Result<bool> {
        if self.blocks.is_empty() {
            return Ok(false);
        }
        let idx = self.blocks.partition_point(|m| m.first <= key).saturating_sub(1);
        if self.blocks[idx].first > key {
            return Ok(false);
        }
        let keys = self.block(idx)?;
        Ok(keys.binary_search(&key).is_ok())
    }

    /// A streaming iterator over all keys in sorted order (for merges).
    /// Reads blocks sequentially, bypassing the cache.
    pub fn iter(&self) -> SegmentIter<'_> {
        SegmentIter { seg: self, block: 0, keys: Vec::new(), pos: 0 }
    }

    /// A bounded iterator over the keys in `lo..=hi`, in sorted order,
    /// for feeding a scan's shadow merge. Binary-searches the block index
    /// and decodes only candidate blocks, through the block cache. Panics
    /// if the file turns unreadable mid-iteration (read-path convention).
    pub fn range(&self, lo: Key, hi: Key) -> SegmentRange<'_> {
        let idx = if self.blocks.is_empty() || lo > hi {
            self.blocks.len()
        } else {
            self.blocks.partition_point(|m| m.first <= lo).saturating_sub(1)
        };
        SegmentRange { seg: self, idx, keys: None, pos: 0, lo, hi }
    }
}

/// Iterator returned by [`SegmentFile::range`].
pub struct SegmentRange<'a> {
    seg: &'a SegmentFile,
    idx: usize,
    keys: Option<Arc<Vec<Key>>>,
    pos: usize,
    lo: Key,
    hi: Key,
}

impl Iterator for SegmentRange<'_> {
    type Item = Key;

    fn next(&mut self) -> Option<Key> {
        loop {
            if let Some(keys) = &self.keys {
                if self.pos < keys.len() {
                    let k = keys[self.pos];
                    self.pos += 1;
                    if k > self.hi {
                        self.idx = self.seg.blocks.len();
                        self.keys = None;
                        return None;
                    }
                    return Some(k);
                }
                self.keys = None;
                self.idx += 1;
            }
            if self.idx >= self.seg.blocks.len() || self.seg.blocks[self.idx].first > self.hi {
                return None;
            }
            let keys = self.seg.block(self.idx).expect("segment readable");
            self.pos = keys.partition_point(|&k| k < self.lo);
            self.keys = Some(keys);
        }
    }
}

/// Iterator returned by [`SegmentFile::iter`]. Panics if the underlying
/// file turns unreadable mid-scan (compaction treats that as fatal).
pub struct SegmentIter<'a> {
    seg: &'a SegmentFile,
    block: usize,
    keys: Vec<Key>,
    pos: usize,
}

impl Iterator for SegmentIter<'_> {
    type Item = Key;

    fn next(&mut self) -> Option<Key> {
        loop {
            if self.pos < self.keys.len() {
                let k = self.keys[self.pos];
                self.pos += 1;
                return Some(k);
            }
            if self.block >= self.seg.blocks.len() {
                return None;
            }
            self.keys = self
                .seg
                .read_block_raw(&self.seg.blocks[self.block])
                .expect("segment block readable during merge");
            self.block += 1;
            self.pos = 0;
        }
    }
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    // Positioned reads need a mutable seek on non-unix std; cloning the
    // handle keeps the shared `&File` API.
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfmesh_rdf::index::ID_MAX;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rdfmesh-seg-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&dir);
        dir
    }

    fn build(keys: &[Key], name: &str) -> SegmentFile {
        let path = tmp(name);
        let mut w = SegmentWriter::create(&path).unwrap();
        for &k in keys {
            w.push(k).unwrap();
        }
        assert_eq!(w.finish().unwrap(), keys.len() as u64);
        SegmentFile::open(&path).unwrap()
    }

    #[test]
    fn round_trips_across_many_blocks() {
        let mut sorted: Vec<Key> =
            (0..5000u32).map(|i| (i / 100, i % 100, i.wrapping_mul(7) % 13)).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let seg = build(&sorted, "roundtrip");
        assert_eq!(seg.count(), sorted.len() as u64);
        let got: Vec<Key> = seg.iter().collect();
        assert_eq!(got, sorted);
    }

    #[test]
    fn range_scans_and_counts_agree_with_linear_filtering() {
        let mut sorted: Vec<Key> = (0..4000u32).map(|i| (i / 64, (i / 8) % 8, i % 8)).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let seg = build(&sorted, "ranges");
        for (lo, hi) in [
            ((0, 0, 0), (ID_MAX, ID_MAX, ID_MAX)),
            ((3, 0, 0), (3, ID_MAX, ID_MAX)),
            ((10, 2, 0), (10, 2, ID_MAX)),
            ((62, 7, 7), (62, 7, 7)),
            ((7, 7, 7), (3, 0, 0)), // empty: lo > hi
            ((9999, 0, 0), (9999, ID_MAX, ID_MAX)),
        ] {
            let expect: Vec<Key> =
                sorted.iter().copied().filter(|&k| k >= lo && k <= hi).collect();
            let got: Vec<Key> = seg.range(lo, hi).collect();
            assert_eq!(got, expect, "range {lo:?}..{hi:?}");
            assert_eq!(seg.count_range(lo, hi).unwrap(), expect.len() as u64);
        }
    }

    #[test]
    fn contains_finds_only_present_keys() {
        let sorted: Vec<Key> = (0..2000u32).map(|i| (i, i * 2, i * 3)).collect();
        let seg = build(&sorted, "contains");
        assert!(seg.contains((10, 20, 30)).unwrap());
        assert!(!seg.contains((10, 20, 31)).unwrap());
        assert!(!seg.contains((ID_MAX, 0, 0)).unwrap());
    }

    #[test]
    fn writer_dedups_equal_keys() {
        let path = tmp("dedup");
        let mut w = SegmentWriter::create(&path).unwrap();
        for k in [(1, 1, 1), (1, 1, 1), (2, 2, 2)] {
            w.push(k).unwrap();
        }
        assert_eq!(w.finish().unwrap(), 2);
        let seg = SegmentFile::open(&path).unwrap();
        assert_eq!(seg.iter().collect::<Vec<_>>(), vec![(1, 1, 1), (2, 2, 2)]);
    }

    #[test]
    fn empty_segment_round_trips() {
        let path = tmp("empty");
        let w = SegmentWriter::create(&path).unwrap();
        assert_eq!(w.finish().unwrap(), 0);
        let seg = SegmentFile::open(&path).unwrap();
        assert_eq!(seg.count(), 0);
        assert!(!seg.contains((0, 0, 0)).unwrap());
        assert_eq!(seg.range((0, 0, 0), (ID_MAX, ID_MAX, ID_MAX)).count(), 0);
    }
}
