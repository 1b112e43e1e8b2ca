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

use std::fs::{File, OpenOptions};
use std::io::{self, Read};
use std::path::PathBuf;

use rdfmesh_rdf::{parse_term_str, Term};

use crate::fail;

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
        let mut file = OpenOptions::new().read(true).append(true).create(true).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut terms = Vec::new();
        let mut pos = 0usize;
        let mut good = 0usize;
        while pos + 4 <= bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            let Some(text) = bytes.get(pos + 4..pos + 4 + len) else { break };
            let Ok(text) = std::str::from_utf8(text) else { break };
            let Ok(term) = parse_term_str(text) else { break };
            terms.push(term);
            pos += 4 + len;
            good = pos;
        }
        if (terms.len() as u64) < floor {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "dict.log: record {} of the {floor} the MANIFEST counts is damaged or missing",
                    terms.len() + 1
                ),
            ));
        }
        if good < bytes.len() {
            fail::set_len(&file, good as u64)?;
        }
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
            let text = term.to_string();
            buf.extend_from_slice(&(text.len() as u32).to_le_bytes());
            buf.extend_from_slice(text.as_bytes());
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

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("rdfmesh-dict-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sample_terms() -> Vec<Term> {
        use rdfmesh_rdf::{Iri, Literal};
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
}
