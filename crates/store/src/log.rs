//! Replay of the store's two append-only logs, the WAL and `dict.log`.
//!
//! Both are a run of records that are appended, synced, and only then
//! acknowledged, so a crash can leave at most one torn record at the
//! tail. Reopening either reads the file, parses records from the start
//! through the one byte reader ([`rdfmesh_rdf::codec::Reader`]) until the
//! file ends or a record does not parse, and truncates what follows the
//! last good record — unless fewer records parsed than the MANIFEST says
//! were committed, which is damage, not a torn tail.

use std::fs::{File, OpenOptions};
use std::io::{self, Read};
use std::path::Path;

use rdfmesh_rdf::codec::{DecodeError, Reader};

use crate::fail;

/// Opens (creating if absent) the log at `path` for appending and reads
/// back its records with `record`, which parses one record off the reader
/// or fails. The first `floor` records must parse, or the open fails with
/// `InvalidData` and the file is not touched; a tail past the last record
/// that parses is truncated off the file.
pub(crate) fn replay<T>(
    path: &Path,
    floor: u64,
    mut record: impl FnMut(&mut Reader<'_>) -> Result<T, DecodeError>,
) -> io::Result<(File, Vec<T>)> {
    let mut file = OpenOptions::new().read(true).append(true).create(true).open(path)?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    let mut r = Reader::new(&bytes);
    let mut records = Vec::new();
    let mut good = 0;
    while r.remaining() > 0 {
        let Ok(parsed) = record(&mut r) else { break };
        records.push(parsed);
        good = r.position();
    }
    if (records.len() as u64) < floor {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{}: record {} of the {floor} the MANIFEST counts is damaged or missing",
                path.file_name().unwrap_or_default().to_string_lossy(),
                records.len() + 1
            ),
        ));
    }
    if good < bytes.len() {
        fail::set_len(&file, good as u64)?;
    }
    Ok((file, records))
}
