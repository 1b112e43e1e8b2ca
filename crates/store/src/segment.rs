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
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use rdfmesh_rdf::codec::{put_u32, put_u64, put_varint, DecodeError, Reader};

use crate::fail;

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

/// The trailer: `[u32 block count][u64 footer offset][magic's first 4]`.
const TRAILER_LEN: u64 = 16;
/// One footer entry: `[u32 ×3 first key][u64 offset][u32 len][u32 count]`.
const ENTRY_LEN: usize = 28;
/// The fewest bytes a key takes in a block: three one-byte varints.
const KEY_MIN_LEN: usize = 3;

fn encode_block(keys: &[Key], out: &mut Vec<u8>) {
    let put = |out: &mut Vec<u8>, id: u32| put_varint(out, u64::from(id));
    let mut prev = keys[0];
    put(out, prev.0);
    put(out, prev.1);
    put(out, prev.2);
    for &k in &keys[1..] {
        let da = k.0 - prev.0;
        put(out, da);
        if da > 0 {
            put(out, k.1);
            put(out, k.2);
        } else {
            let db = k.1 - prev.1;
            put(out, db);
            if db > 0 {
                put(out, k.2);
            } else {
                put(out, k.2 - prev.2);
            }
        }
        prev = k;
    }
}

fn id(r: &mut Reader<'_>) -> Result<u32, DecodeError> {
    u32::try_from(r.varint()?).map_err(|_| DecodeError("segment id beyond u32"))
}

fn plus(base: u32, delta: u32) -> Result<u32, DecodeError> {
    base.checked_add(delta).ok_or(DecodeError("segment delta overflows"))
}

/// Decodes the block `meta` indexes. Refuses — before allocating for a
/// count the bytes cannot hold — a block that is not what the writer
/// wrote: a key count beyond its bytes, a delta that overflows, keys
/// that do not strictly increase, a first key other than the footer's,
/// and bytes left over.
fn decode_block(bytes: &[u8], meta: &BlockMeta) -> Result<Vec<Key>, DecodeError> {
    let mut r = Reader::new(bytes);
    let count = r.bounded(meta.count as usize, KEY_MIN_LEN)?;
    let mut keys = Vec::with_capacity(count);
    let mut prev: Key = (id(&mut r)?, id(&mut r)?, id(&mut r)?);
    if prev != meta.first {
        return Err(DecodeError("segment block's first key is not the footer's"));
    }
    keys.push(prev);
    for _ in 1..count {
        // A non-zero delta makes the key larger; only a zero last one
        // would repeat its predecessor.
        let da = id(&mut r)?;
        prev = if da > 0 {
            (plus(prev.0, da)?, id(&mut r)?, id(&mut r)?)
        } else {
            let db = id(&mut r)?;
            if db > 0 {
                (prev.0, plus(prev.1, db)?, id(&mut r)?)
            } else {
                match id(&mut r)? {
                    0 => return Err(DecodeError("segment keys do not strictly increase")),
                    dc => (prev.0, prev.1, plus(prev.2, dc)?),
                }
            }
        };
        keys.push(prev);
    }
    r.finish()?;
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
        let mut footer = Vec::with_capacity(self.metas.len() * ENTRY_LEN + TRAILER_LEN as usize);
        for m in &self.metas {
            for id in [m.first.0, m.first.1, m.first.2] {
                put_u32(&mut footer, id);
            }
            put_u64(&mut footer, m.offset);
            put_u32(&mut footer, m.len);
            put_u32(&mut footer, m.count);
        }
        put_u32(&mut footer, self.metas.len() as u32);
        put_u64(&mut footer, footer_offset);
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
    /// Opens a segment written by [`SegmentWriter`]. Refuses with
    /// `InvalidData` a file whose magic, trailer or footer is not
    /// consistent with its length, or whose block index does not tile the
    /// data region in order: each block non-empty, starting where the one
    /// before ends, with a first key above the one before.
    pub fn open(path: impl AsRef<Path>) -> io::Result<SegmentFile> {
        let bad = |msg: &'static str| io::Error::from(DecodeError(msg));
        let file = File::open(path)?;
        let total = file.metadata()?.len();
        let data_start = MAGIC.len() as u64;
        if total < data_start + TRAILER_LEN {
            return Err(bad("segment file too short"));
        }
        let mut head = [0u8; MAGIC.len()];
        read_exact_at(&file, &mut head, 0)?;
        let mut tail = [0u8; TRAILER_LEN as usize];
        let tail_at = total - TRAILER_LEN;
        read_exact_at(&file, &mut tail, tail_at)?;
        let mut r = Reader::new(&tail);
        let (block_count, footer_offset) = (r.u32()? as usize, r.u64()?);
        if &head != MAGIC || r.take(4)? != &MAGIC[..4] {
            return Err(bad("bad segment magic"));
        }
        let footer_len = tail_at.checked_sub(footer_offset);
        if footer_offset < data_start || footer_len != Some(block_count as u64 * ENTRY_LEN as u64) {
            return Err(bad("inconsistent segment footer"));
        }
        let mut footer = vec![0u8; block_count * ENTRY_LEN];
        read_exact_at(&file, &mut footer, footer_offset)?;
        let mut r = Reader::new(&footer);
        let mut blocks: Vec<BlockMeta> = Vec::with_capacity(block_count);
        let (mut end, mut count) = (data_start, 0u64);
        for _ in 0..block_count {
            let first = (r.u32()?, r.u32()?, r.u32()?);
            let meta = BlockMeta { first, offset: r.u64()?, len: r.u32()?, count: r.u32()? };
            if meta.offset != end
                || meta.count == 0
                || blocks.last().is_some_and(|before| before.first >= meta.first)
            {
                return Err(bad("inconsistent segment block index"));
            }
            end += u64::from(meta.len);
            count += u64::from(meta.count);
            blocks.push(meta);
        }
        if end != footer_offset {
            return Err(bad("segment blocks do not end at the footer"));
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
        Ok(decode_block(&bytes, meta)?)
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
    use std::io::{Read, Seek, SeekFrom};
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

    /// Writes `keys` as a segment, lets `edit` damage its bytes, and
    /// opens what is left.
    fn damaged(keys: &[Key], name: &str, edit: impl FnOnce(&mut Vec<u8>)) -> io::Result<SegmentFile> {
        let path = tmp(name);
        build(keys, name);
        let mut bytes = std::fs::read(&path).unwrap();
        edit(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        SegmentFile::open(&path)
    }

    fn assert_invalid<T: std::fmt::Debug>(got: io::Result<T>, what: &str) {
        let err = got.expect_err(what);
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
    }

    #[test]
    fn a_forged_block_count_is_refused_before_it_is_allocated() {
        let keys: Vec<Key> = golden_keys().collect();
        let footer_at = |bytes: &[u8]| {
            let at = bytes.len() - 12;
            u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
        };
        // Block 1's count (the last field of its 28-byte footer entry).
        let seg = damaged(&keys, "forged-count", |bytes| {
            let at = footer_at(bytes) + 28 + 24;
            bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        });
        match seg {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}"),
            Ok(seg) => {
                let first = seg.blocks[1].first;
                assert_invalid(seg.contains(first), "a count beyond the block's bytes");
            }
        }
    }

    #[test]
    fn a_flipped_byte_in_a_block_is_refused_not_decoded_out_of_order() {
        let keys = [(0xFFFF_FFF0, 0, 0), (0xFFFF_FFF1, 0, 0)];
        // The block: the first key absolute (a five-byte varint, then 0,
        // 0), then the second key's deltas (1, 0, 0).
        let seg = damaged(&keys, "flipped-delta", |bytes| {
            assert_eq!(bytes[MAGIC.len() + 7..MAGIC.len() + 10], [1, 0, 0]);
            bytes[MAGIC.len() + 7] = 0x41; // a delta that overflows u32
        })
        .unwrap();
        assert_invalid(seg.contains(keys[0]), "an overflowing delta");
        assert_invalid(seg.count_range(keys[0], keys[1]), "an overflowing delta");
        let seg = damaged(&keys, "flipped-first", |bytes| bytes[MAGIC.len()] ^= 1).unwrap();
        assert_invalid(seg.contains(keys[0]), "a first key other than the footer's");
    }

    #[test]
    fn a_damaged_trailer_or_block_index_is_refused_at_open() {
        let keys: Vec<Key> = golden_keys().collect();
        let entry = |bytes: &[u8], block: usize, field: usize| {
            let at = bytes.len() - 12;
            u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize + block * 28 + field
        };
        let n = keys.len();
        for (what, edit) in [
            ("footer offset past the trailer", Box::new(|b: &mut Vec<u8>| {
                let at = b.len() - 12;
                b[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            }) as Box<dyn Fn(&mut Vec<u8>)>),
            ("block count past the footer", Box::new(|b: &mut Vec<u8>| {
                let at = b.len() - 16;
                b[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            })),
            ("a block offset out of the data region", Box::new(move |b: &mut Vec<u8>| {
                let at = entry(b, 2, 12);
                b[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            })),
            ("a block length past the footer", Box::new(move |b: &mut Vec<u8>| {
                let at = entry(b, 2, 20);
                b[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            })),
            ("an empty block", Box::new(move |b: &mut Vec<u8>| {
                let at = entry(b, 0, 24);
                b[at..at + 4].copy_from_slice(&0u32.to_le_bytes());
            })),
            ("first keys out of order", Box::new(move |b: &mut Vec<u8>| {
                let at = entry(b, 1, 0);
                b[at..at + 12].fill(0);
            })),
            ("bad magic", Box::new(|b: &mut Vec<u8>| b[0] ^= 1)),
        ] {
            assert_invalid(damaged(&keys, "index", edit), what);
        }
        assert_eq!(damaged(&keys, "index", |_| {}).unwrap().count(), n as u64);
    }

    #[test]
    fn a_component_beyond_u32_is_refused_not_truncated() {
        let meta = BlockMeta { first: (0, 0, 0), offset: 0, len: 7, count: 1 };
        let mut block = Vec::new();
        for id in [1 << 32, 0, 0] {
            put_varint(&mut block, id);
        }
        assert_eq!(block.len(), 7);
        assert_eq!(decode_block(&block, &meta), Err(DecodeError("segment id beyond u32")));
    }

    /// The golden keys' segment as bytes, with its block index.
    fn fixture(name: &str) -> (PathBuf, Vec<u8>, Vec<BlockMeta>) {
        let keys: Vec<Key> = golden_keys().collect();
        let path = tmp(name);
        let seg = build(&keys, name);
        assert_eq!(seg.blocks.len(), 3);
        let bytes = std::fs::read(&path).unwrap();
        (path, bytes, seg.blocks)
    }

    /// A decoded block is what the writer wrote: strictly increasing,
    /// the footer's count of keys, the footer's first key.
    fn assert_well_formed(keys: &[Key], meta: &BlockMeta) {
        assert_eq!(keys.len(), meta.count as usize);
        assert_eq!(keys[0], meta.first);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys strictly increase");
    }

    /// Opens `bytes` as a segment at `path` and reads every block through
    /// the `io::Result` APIs: each answer is `Ok` or `InvalidData`, and a
    /// block that decodes is well formed.
    fn survives(path: &Path, bytes: &[u8]) {
        std::fs::write(path, bytes).unwrap();
        let invalid = |e: io::Error| assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
        let seg = match SegmentFile::open(path) {
            Ok(seg) => seg,
            Err(e) => return invalid(e),
        };
        let everything = ((0, 0, 0), (ID_MAX, ID_MAX, ID_MAX));
        let _ = seg.count_range(everything.0, everything.1).map_err(invalid);
        let _ = seg.contains(everything.1).map_err(invalid);
        for (idx, meta) in seg.blocks.iter().enumerate() {
            let _ = seg.contains(meta.first).map_err(invalid);
            match seg.block(idx) {
                Ok(keys) => assert_well_formed(&keys, meta),
                Err(e) => invalid(e),
            }
        }
    }

    #[test]
    fn every_truncation_and_footer_byte_flip_is_refused_or_well_formed() {
        let (path, bytes, blocks) = fixture("hostile-footer");
        for cut in 0..bytes.len() {
            survives(&path, &bytes[..cut]);
        }
        let footer = blocks.last().map(|m| m.offset + u64::from(m.len)).unwrap() as usize;
        for at in footer..bytes.len() {
            for mask in [0x01, 0x10, 0x80, 0xFF] {
                let mut hostile = bytes.clone();
                hostile[at] ^= mask;
                survives(&path, &hostile);
            }
        }
    }

    #[test]
    fn every_byte_flip_in_the_first_block_is_refused_or_well_formed() {
        // In memory: the block decoder alone, over every byte of block 0.
        let (_, bytes, blocks) = fixture("hostile-block");
        let meta = blocks[0];
        let block = &bytes[meta.offset as usize..(meta.offset + u64::from(meta.len)) as usize];
        assert_well_formed(&decode_block(block, &meta).unwrap(), &meta);
        for at in 0..block.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let mut hostile = block.to_vec();
                hostile[at] ^= mask;
                if let Ok(keys) = decode_block(&hostile, &meta) {
                    assert_well_formed(&keys, &meta);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(128))]

        #[test]
        fn a_random_byte_mutation_is_refused_or_well_formed(at in 0usize..1 << 20, mask in 1u8..=255) {
            let (path, mut bytes, _) = fixture("hostile-random");
            let at = at % bytes.len();
            bytes[at] ^= mask;
            survives(&path, &bytes);
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// 2 700 keys in three blocks (1 024, 1 024, 652): every delta branch
    /// (a new first component, a new second, a new third), one- to
    /// three-byte varints.
    fn golden_keys() -> impl Iterator<Item = (u32, u32, u32)> {
        [0u32, 1, 70_000].into_iter().flat_map(|a| {
            (0..30u32).flat_map(move |b| (0..30u32).map(move |c| (a, b * 5, c * 9 + b)))
        })
    }

    /// Golden bytes: a change to the writer (or to the codec it writes
    /// through) that moves a byte of the format fails here. The segment is
    /// pinned by its head, its whole footer and trailer, and its length
    /// and CRC-32.
    #[test]
    fn segment_bytes_are_pinned() {
        let path = tmp("golden");
        let mut w = SegmentWriter::create(&path).unwrap();
        for key in golden_keys() {
            w.push(key).unwrap();
        }
        assert_eq!(w.finish().unwrap(), 2700);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            hex(&bytes[..32]),
            "524d535453454731000000000009000009000009000009000009000009000009",
            "magic, then the first key absolute and its successors' deltas"
        );
        assert_eq!(
            hex(&bytes[bytes.len() - 100..]),
            concat!(
                "0000000000000000000000000800000000000000000c00000004000001000000",
                "1400000028000000080c000000000000020c0000000400007011010028000000",
                "500000000a18000000000000a60700008c02000003000000b01f000000000000",
                "524d5354",
            ),
            "three footer entries, then block count, footer offset, magic"
        );
        assert_eq!((bytes.len(), crate::wal::crc32(&bytes)), (8212, 0xb59a_9849));
    }
}
