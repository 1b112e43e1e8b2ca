//! Append-only dictionary log.
//!
//! The persistent store's `Term ↔ TermId` mapping is durably recorded as
//! a simple append-only log: one `[u32 LE length][N-Triples term text]`
//! record per interned term, in id order. Reopening replays the log to
//! rebuild the in-memory [`rdfmesh_rdf::Dictionary`]. The manifest counts
//! the terms synced when it was committed, and that count is a floor: a
//! record below it that does not parse is damage, and the open fails with
//! the file left as it is. A torn record above it (crash mid-append) is
//! truncated away, which drops only ids that no flushed segment can
//! reference — the manifest is renamed into place strictly after the log
//! is synced.

use std::fs::File;
use std::io;
use std::path::PathBuf;

use rdfmesh_rdf::codec::{put_str, DecodeError};
use rdfmesh_rdf::{parse_term_str, Term};

use crate::{fail, log};

/// The open append handle plus the replayed terms.
pub struct DictLog {
    file: File,
    path: PathBuf,
}

impl std::fmt::Debug for DictLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DictLog({})", self.path.display())
    }
}

impl DictLog {
    /// Opens (creating if absent) the log at `path`, replaying every
    /// intact record. The first `floor` records must be intact, or the
    /// open fails with `InvalidData` and the file is not touched; a torn
    /// tail past them is truncated off the file.
    pub fn open(path: impl Into<PathBuf>, floor: u64) -> io::Result<(DictLog, Vec<Term>)> {
        let path = path.into();
        let (file, terms) = log::replay(&path, floor, |r| {
            parse_term_str(r.str()?).map_err(|_| DecodeError("not an N-Triples term"))
        })?;
        Ok((DictLog { file, path }, terms))
    }

    /// Appends `terms` as one buffered write, then syncs to disk. Call
    /// before publishing any segment — or acknowledging any WAL record —
    /// that references their ids.
    pub fn append(&mut self, terms: &[Term]) -> io::Result<()> {
        if terms.is_empty() {
            return Ok(());
        }
        let mut buf = Vec::new();
        for term in terms {
            put_str(&mut buf, &term.to_string());
        }
        fail::write_all(&mut self.file, &buf)?;
        fail::sync_data(&self.file)
    }

    /// The log's current size in bytes, from the open handle.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn len_bytes(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfmesh_rdf::{Iri, Literal};
    use std::fs::OpenOptions;

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("rdfmesh-dict-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sample_terms() -> Vec<Term> {
        vec![
            Term::iri("http://example.org/s"),
            Term::literal("plain \"quoted\"\nline"),
            Term::from(Literal::lang("chat", "fr")),
            Term::from(Literal::typed(
                "42",
                Iri::new("http://www.w3.org/2001/XMLSchema#integer").unwrap(),
            )),
            Term::blank("b0"),
        ]
    }

    #[test]
    fn append_then_reopen_replays_in_order() {
        let path = tmp("replay");
        let terms = sample_terms();
        {
            let (mut log, existing) = DictLog::open(&path, 0).unwrap();
            assert!(existing.is_empty());
            log.append(&terms).unwrap();
        }
        let (_log, replayed) = DictLog::open(&path, 0).unwrap();
        assert_eq!(replayed, terms);
    }

    #[test]
    fn torn_tail_is_truncated() -> io::Result<()> {
        let path = tmp("torn");
        let terms = sample_terms();
        let len = {
            let (mut log, _) = DictLog::open(&path, 0)?;
            log.append(&terms)?;
            // Sized through the open handle — an I/O failure here is a
            // propagated error, not a panic.
            log.len_bytes()?
        };
        // Simulate a crash mid-append: chop the last record in half.
        let f = OpenOptions::new().write(true).open(&path)?;
        f.set_len(len - 3)?;
        drop(f);
        let (mut log, replayed) = DictLog::open(&path, 0)?;
        assert_eq!(replayed, terms[..terms.len() - 1]);
        assert!(log.len_bytes()? < len - 3, "torn record truncated away");
        // The log stays appendable after truncation.
        log.append(&[Term::iri("http://example.org/new")])?;
        let (_log, again) = DictLog::open(&path, 0)?;
        assert_eq!(again.len(), terms.len());
        assert_eq!(again.last().unwrap(), &Term::iri("http://example.org/new"));
        Ok(())
    }

    #[test]
    fn every_truncation_and_byte_flip_replays_a_prefix_or_fails_below_the_floor() {
        let path = tmp("hostile");
        let terms = golden_terms();
        {
            let (mut log, _) = DictLog::open(&path, 0).unwrap();
            log.append(&terms).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        // Where each record ends.
        let ends: Vec<usize> = terms
            .iter()
            .scan(0, |end, t| {
                *end += 4 + t.to_string().len();
                Some(*end)
            })
            .collect();
        assert_eq!(ends.last(), Some(&bytes.len()));
        let whole = |len: usize| ends.iter().take_while(|&&end| end <= len).count();
        let floor = terms.len() as u64;
        for cut in 0..=bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            if cut < bytes.len() {
                let err = DictLog::open(&path, floor).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}: {err}");
                assert_eq!(std::fs::read(&path).unwrap(), bytes[..cut], "left as it was");
            }
            let (_log, replayed) = DictLog::open(&path, 0).unwrap();
            assert_eq!(replayed, terms[..whole(cut)], "cut at {cut}");
        }
        // The log has no checksum, so a changed byte inside a term's text
        // may still spell a term; the records before it replay unchanged,
        // and none is invented past the ones written.
        for at in 0..bytes.len() {
            for mask in [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0xFF] {
                let mut hostile = bytes.clone();
                hostile[at] ^= mask;
                std::fs::write(&path, &hostile).unwrap();
                let before = whole(at);
                match DictLog::open(&path, floor) {
                    Ok((_, replayed)) => assert_eq!(replayed.len(), terms.len()),
                    Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}"),
                }
                std::fs::write(&path, &hostile).unwrap();
                let (_log, replayed) = DictLog::open(&path, 0).unwrap();
                assert!(replayed.len() <= terms.len(), "byte {at} ^ {mask:#x}");
                assert_eq!(replayed[..before], terms[..before], "byte {at} ^ {mask:#x}");
            }
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The dictionary log's fixture: one term of each kind.
    fn golden_terms() -> Vec<Term> {
        vec![
            Term::iri("http://e/s"),
            Term::blank("b0"),
            Term::literal("say \"hi\"\n"),
            Term::from(Literal::lang("chat", "fr")),
            Term::from(Literal::typed(
                "42",
                Iri::new("http://www.w3.org/2001/XMLSchema#integer").unwrap(),
            )),
        ]
    }

    /// Golden bytes: a change to the writer (or to the codec it writes
    /// through) that moves a byte of the format fails here.
    #[test]
    fn dict_log_bytes_are_pinned() {
        let path = tmp("golden");
        let (mut log, _) = DictLog::open(&path, 0).unwrap();
        log.append(&golden_terms()).unwrap();
        drop(log);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            hex(&bytes),
            concat!(
                "0c000000", "3c687474703a2f2f652f733e",
                "04000000", "5f3a6230",
                "0e000000", "22736179205c2268695c225c6e22",
                "09000000", "226368617422406672",
                "30000000", "223432225e5e3c687474703a2f2f7777772e77332e6f72672f",
                "323030312f584d4c536368656d6123696e74656765723e",
            )
        );
    }
}
