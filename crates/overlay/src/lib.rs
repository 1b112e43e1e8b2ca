//! # rdfmesh-overlay — the hybrid P2P overlay
//!
//! The paper's Sect. III architecture: index nodes on a Chord ring hold a
//! two-level distributed index (six hashed keys per triple → location
//! tables with provider frequencies); storage nodes attach to index nodes
//! and keep their own data. Includes the Sect. III-C/D maintenance
//! protocols: key-range transfer on join, hand-over on departure,
//! replica-based recovery from failure, and lazy purging of dead storage
//! nodes.
//!
//! ```
//! use rdfmesh_chord::Id;
//! use rdfmesh_net::{Network, NodeId, SimTime};
//! use rdfmesh_overlay::Overlay;
//! use rdfmesh_rdf::{Term, TermPattern, Triple, TriplePattern};
//!
//! let mut overlay = Overlay::new(16, 3, 2, Network::lan());
//! overlay.add_index_node(NodeId(100), Id(0)).unwrap();
//! overlay.add_storage_node(NodeId(1), NodeId(100), vec![Triple::new(
//!     Term::iri("http://example.org/alice"),
//!     Term::iri("http://xmlns.com/foaf/0.1/knows"),
//!     Term::iri("http://example.org/bob"),
//! )]).unwrap();
//!
//! let pattern = TriplePattern::new(
//!     TermPattern::var("x"),
//!     Term::iri("http://xmlns.com/foaf/0.1/knows"),
//!     TermPattern::var("y"),
//! );
//! let located = overlay.locate(NodeId(100), &pattern, SimTime::ZERO).unwrap().unwrap();
//! assert_eq!(located.providers.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod key;
pub mod location;
pub mod overlay;
pub mod wire;

pub use key::{
    key_counts, key_for_pattern, key_for_triple, keys_for_triple, IndexKey, KeyKind, NumericBuckets,
};
pub use location::{LocationTable, Provider};
pub use overlay::{JoinReport, Located, Overlay, OverlayError, PublishReport, StorageNode};
