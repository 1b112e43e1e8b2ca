//! # rdfmesh-rdf — RDF substrate
//!
//! The RDF data model used across the ad-hoc Semantic Web data sharing
//! system: [`Term`]s, [`Triple`]s, [`TriplePattern`]s (the eight kinds of
//! the paper's Sect. IV-C), N-Triples I/O, dictionary encoding, the
//! three-permutation [`TripleIndex`], the indexed in-memory
//! [`TripleStore`] each storage node runs locally, and the one byte
//! [`codec`] every frame and file is written in.
//!
//! ```
//! use rdfmesh_rdf::{Term, Triple, TriplePattern, TermPattern, TripleStore};
//!
//! let mut store = TripleStore::new();
//! store.insert(&Triple::new(
//!     Term::iri("http://example.org/alice"),
//!     Term::iri("http://xmlns.com/foaf/0.1/name"),
//!     Term::literal("Alice Smith"),
//! ));
//! let pattern = TriplePattern::new(
//!     TermPattern::var("who"),
//!     Term::iri("http://xmlns.com/foaf/0.1/name"),
//!     TermPattern::var("name"),
//! );
//! assert_eq!(store.match_pattern(&pattern).len(), 1);
//! ```

#![warn(missing_docs)]

pub mod codec;
pub mod dictionary;
pub mod fxhash;
pub mod index;
pub mod ntriples;
pub mod source;
pub mod store;
pub mod term;
pub mod triple;
pub mod vocab;

pub use dictionary::{Dictionary, TermId};
pub use index::{IdTriple, Perm, Plan, TripleIndex};
pub use ntriples::{
    parse_document, parse_line, parse_statements, parse_statements_from, parse_term_str,
    write_document, ParseError, Statements,
};
pub use source::{PatternSource, SharedStore};
pub use store::TripleStore;
pub use term::{BlankNode, Iri, Literal, LiteralKind, Term, TermError};
pub use triple::{
    PatternKind, RepeatedVars, TermPattern, Triple, TriplePattern, TripleRef, Variable,
};
