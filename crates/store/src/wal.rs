//! Write-ahead log for the overlay: acknowledged writes survive crashes.
//!
//! Every `insert`/`remove` against the in-memory overlay is recorded
//! here *before* it is acknowledged, so [`crate::PersistentStore::open`]
//! can reconstruct the overlay after a crash instead of silently
//! dropping it. One log file exists per *overlay epoch* — `wal-<id>.log`,
//! with the live id recorded in the manifest's `wal` line — because a
//! WAL's records only make sense against the sealed tree they were
//! applied over: sealing the overlay bumps the id and retires the old
//! log wholesale (the manifest rename is the commit point; a log whose
//! id is not the manifest's is by construction already folded into
//! segments and is deleted on open). The id is deliberately *not* the
//! segment generation number: compaction bumps the generation without
//! touching the overlay, and must not orphan a live log.
//!
//! Record format, mirroring the dictionary log's length-prefixed shape
//! but with an integrity checksum (a torn page can damage *earlier*
//! bytes of the tail record, not just cut it short):
//!
//! ```text
//! [u32 LE payload length][payload][u32 LE CRC-32 of payload]
//! payload = [u8 op: 1=insert 2=remove][u32 LE s][u32 LE p][u32 LE o]
//! ```
//!
//! Replay ([`crate::log::replay`], the dictionary log's too) walks
//! records until the file ends or a record fails its length, checksum or
//! op byte, then truncates the torn tail away — safe for the
//! same reason the dictionary log's truncation is: a record is only
//! acknowledged after its bytes are synced, so a torn tail was never
//! acknowledged to any caller.

use std::fs::File;
use std::io;
use std::path::PathBuf;

use rdfmesh_rdf::codec::{put_u32, DecodeError, Reader};

use crate::segment::Key;
use crate::{fail, log};

/// CRC-32 (IEEE) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// One replayed overlay operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WalOp {
    /// The SPO key was inserted into the overlay.
    Insert(Key),
    /// The SPO key was removed (tombstoned or un-added).
    Remove(Key),
}

const OP_INSERT: u8 = 1;
const OP_REMOVE: u8 = 2;
const PAYLOAD_LEN: usize = 13; // op byte + three u32 components
const RECORD_LEN: usize = 4 + PAYLOAD_LEN + 4;

/// Reads one record: its length must be the payload's, its checksum the
/// payload's CRC, and its op one of the two.
fn read_record(r: &mut Reader<'_>) -> Result<WalOp, DecodeError> {
    let len = r.u32()?;
    let payload = r.take(PAYLOAD_LEN)?;
    if len as usize != PAYLOAD_LEN || r.u32()? != crc32(payload) {
        return Err(DecodeError("torn WAL record"));
    }
    let mut p = Reader::new(payload);
    let (op, key) = (p.u8()?, (p.u32()?, p.u32()?, p.u32()?));
    match op {
        OP_INSERT => Ok(WalOp::Insert(key)),
        OP_REMOVE => Ok(WalOp::Remove(key)),
        _ => Err(DecodeError("unknown WAL op")),
    }
}

/// The open append handle for one generation's log.
pub(crate) struct Wal {
    file: File,
    path: PathBuf,
    /// Records appended or replayed — what a reopen must reproduce.
    records: u64,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Wal({}, {} records)", self.path.display(), self.records)
    }
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, replaying every
    /// intact record; a torn or checksum-failing tail is truncated off.
    pub(crate) fn open(path: impl Into<PathBuf>) -> io::Result<(Wal, Vec<WalOp>)> {
        let path = path.into();
        let (file, ops) = log::replay(&path, 0, read_record)?;
        let records = ops.len() as u64;
        Ok((Wal { file, path, records }, ops))
    }

    /// Appends one record and syncs it to disk. Returns the record's
    /// byte size. The caller must not acknowledge the operation (or
    /// apply it to the overlay) until this returns `Ok`.
    pub(crate) fn append(&mut self, op: WalOp) -> io::Result<usize> {
        let (tag, (s, p, o)) = match op {
            WalOp::Insert(k) => (OP_INSERT, k),
            WalOp::Remove(k) => (OP_REMOVE, k),
        };
        let mut record = Vec::with_capacity(RECORD_LEN);
        put_u32(&mut record, PAYLOAD_LEN as u32);
        record.push(tag);
        for id in [s, p, o] {
            put_u32(&mut record, id);
        }
        let crc = crc32(&record[4..]);
        put_u32(&mut record, crc);
        fail::write_all(&mut self.file, &record)?;
        fail::sync_data(&self.file)?;
        self.records += 1;
        Ok(RECORD_LEN)
    }

    /// Records appended or replayed into this log so far.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn records(&self) -> u64 {
        self.records
    }

    /// This log's file path.
    pub(crate) fn path(&self) -> &PathBuf {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("rdfmesh-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn append_then_reopen_replays_in_order() {
        let path = tmp("replay");
        let ops = [
            WalOp::Insert((1, 2, 3)),
            WalOp::Insert((4, 5, 6)),
            WalOp::Remove((1, 2, 3)),
            WalOp::Insert((u32::MAX, 0, 7)),
        ];
        {
            let (mut wal, existing) = Wal::open(&path).unwrap();
            assert!(existing.is_empty());
            for &op in &ops {
                wal.append(op).unwrap();
            }
            assert_eq!(wal.records(), ops.len() as u64);
        }
        let (wal, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed, ops);
        assert_eq!(wal.records(), ops.len() as u64);
    }

    #[test]
    fn torn_tail_is_truncated_and_log_stays_appendable() {
        let path = tmp("torn");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(WalOp::Insert((1, 1, 1))).unwrap();
            wal.append(WalOp::Insert((2, 2, 2))).unwrap();
        }
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let (mut wal, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed, vec![WalOp::Insert((1, 1, 1))]);
        wal.append(WalOp::Remove((1, 1, 1))).unwrap();
        let (_wal, again) = Wal::open(&path).unwrap();
        assert_eq!(again, vec![WalOp::Insert((1, 1, 1)), WalOp::Remove((1, 1, 1))]);
    }

    #[test]
    fn corrupted_byte_in_tail_record_fails_its_checksum() {
        let path = tmp("crc");
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            wal.append(WalOp::Insert((1, 1, 1))).unwrap();
            wal.append(WalOp::Insert((9, 9, 9))).unwrap();
        }
        // Flip a payload byte inside the *last* record: the length
        // prefix still reads fine, only the CRC catches it.
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 6] ^= 0x40;
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(&bytes).unwrap();
        drop(f);
        let (_wal, replayed) = Wal::open(&path).unwrap();
        assert_eq!(replayed, vec![WalOp::Insert((1, 1, 1))]);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn every_truncation_and_byte_flip_replays_the_records_before_it() {
        let path = tmp("hostile");
        let ops = [
            WalOp::Insert((1, 2, 3)),
            WalOp::Remove((1, 2, 3)),
            WalOp::Insert((u32::MAX, 0, 70_000)),
            WalOp::Insert((0, 0, 0)),
        ];
        {
            let (mut wal, _) = Wal::open(&path).unwrap();
            for &op in &ops {
                wal.append(op).unwrap();
            }
        }
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), ops.len() * RECORD_LEN);
        // A cut keeps the whole records before it, and the file is
        // truncated to them.
        for cut in 0..=bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (_wal, replayed) = Wal::open(&path).unwrap();
            assert_eq!(replayed, ops[..cut / RECORD_LEN], "cut at {cut}");
            let kept = std::fs::metadata(&path).unwrap().len() as usize;
            assert_eq!(kept, cut / RECORD_LEN * RECORD_LEN, "cut at {cut}");
        }
        // The checksum covers the op and the key, the length is checked
        // on its own: any changed byte ends replay at its record.
        for at in 0..bytes.len() {
            for mask in [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF] {
                let mut hostile = bytes.clone();
                hostile[at] ^= mask;
                std::fs::write(&path, &hostile).unwrap();
                let (_wal, replayed) = Wal::open(&path).unwrap();
                assert_eq!(replayed, ops[..at / RECORD_LEN], "byte {at} ^ {mask:#x}");
            }
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Golden bytes: a change to the writer (or to the codec it writes
    /// through) that moves a byte of the format fails here.
    #[test]
    fn wal_bytes_are_pinned() {
        let path = tmp("golden");
        let (mut wal, _) = Wal::open(&path).unwrap();
        for op in
            [WalOp::Insert((1, 2, 3)), WalOp::Remove((1, 2, 3)), WalOp::Insert((u32::MAX, 0, 70_000))]
        {
            wal.append(op).unwrap();
        }
        drop(wal);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            hex(&bytes),
            concat!(
                "0d000000", "01", "010000000200000003000000", "fb7bd719",
                "0d000000", "02", "010000000200000003000000", "35171da4",
                "0d000000", "01", "ffffffff0000000070110100", "0dfe0839",
            )
        );
    }
}
