//! # rdfmesh-store — persistent, compressed triple storage
//!
//! The on-disk backend behind `rdfmesh serve --store-dir`: a
//! dictionary-encoded triple store whose base lives in immutable,
//! delta-compressed segment files (one per SPO/POS/OSP permutation, the
//! same three orderings the in-memory [`rdfmesh_rdf::TripleStore`]
//! keeps), fronted by a write-ahead-logged in-memory overlay with
//! explicit [`flush`] and incremental levelled compaction, plus a
//! parallel bulk-load pipeline for N-Triples corpora.
//!
//! Every acknowledged `insert`/`remove` is durable: it is recorded in a
//! checksummed WAL before the overlay is touched, and
//! [`PersistentStore::open`] replays the log after a crash. The store
//! plugs into every mesh seam through [`rdfmesh_rdf::PatternSource`], so
//! simulator storage nodes, live mesh providers and the RDFPeers
//! baseline run unchanged on either backend. On-disk layout, the
//! durability contract and fault semantics are documented in
//! `docs/STORAGE.md`.
//!
//! ```
//! use rdfmesh_rdf::{PatternSource, Term, Triple};
//! use rdfmesh_store::PersistentStore;
//!
//! let dir = std::env::temp_dir().join(format!("store-doc-{}", std::process::id()));
//! let mut store = PersistentStore::open(&dir).unwrap();
//! store.insert(&Triple::new(
//!     Term::iri("http://example.org/alice"),
//!     Term::iri("http://xmlns.com/foaf/0.1/knows"),
//!     Term::iri("http://example.org/bob"),
//! ));
//! store.flush().unwrap(); // compact the overlay into segment files
//! assert_eq!(store.len(), 1);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! [`flush`]: PersistentStore::flush

#![warn(missing_docs)]

mod bulk;
mod dict;
pub mod fail;
mod log;
mod merge;
mod pstore;
pub mod rss;
mod segment;
mod wal;

pub use bulk::{LoadConfig, LoadError, LoadReport};
pub use pstore::{FlushReport, PersistentStore};
