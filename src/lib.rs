//! # rdfmesh — ad-hoc Semantic Web data sharing with distributed SPARQL
//!
//! A reproduction of *"Distributed Query Processing in an Ad-Hoc Semantic
//! Web Data Sharing System"* (Zhou, v. Bochmann & Shi, 2013): a hybrid
//! P2P overlay (index nodes on a Chord ring, storage nodes keeping their
//! own RDF data), a two-level distributed index hashing each triple six
//! ways, and a distributed SPARQL engine with the paper's full strategy
//! space.
//!
//! This facade re-exports the workspace crates; start with
//! [`SharingSystem`]:
//!
//! ```
//! use rdfmesh::{SharingSystem, Term, Triple};
//!
//! let mut sys = SharingSystem::new();
//! let ix = sys.add_index_node().unwrap();
//! sys.add_peer(vec![Triple::new(
//!     Term::iri("http://example.org/alice"),
//!     Term::iri("http://xmlns.com/foaf/0.1/knows"),
//!     Term::iri("http://example.org/bob"),
//! )]).unwrap();
//! let exec = sys.query(ix, "SELECT ?x WHERE { ?x foaf:knows ?y . }").unwrap();
//! assert_eq!(exec.result.len(), 1);
//! println!("cost: {}", exec.stats);
//! ```

#![warn(missing_docs)]

pub mod endpoint;

pub use rdfmesh_chord as chord;
pub use rdfmesh_core as core;
pub use rdfmesh_net as net;
pub use rdfmesh_obs as obs;
pub use rdfmesh_overlay as overlay;
pub use rdfmesh_rdf as rdf;
pub use rdfmesh_sparql as sparql;
pub use rdfmesh_store as store;
pub use rdfmesh_workload as workload;

pub use endpoint::{ServeOptions, SparqlEndpoint};
pub use rdfmesh_chord::{ChordRing, Id};
pub use rdfmesh_core::{
    global_store, Engine, EngineError, ExecConfig, Execution, JoinSiteStrategy, MeshNode,
    PrimitiveStrategy, QueryStats, SharingSystem, SystemBuilder,
};
pub use rdfmesh_net::{LatencyModel, Network, NodeId, SimTime};
pub use rdfmesh_overlay::Overlay;
pub use rdfmesh_rdf::{
    PatternSource, SharedStore, Term, TermPattern, Triple, TriplePattern, TripleStore,
};
pub use rdfmesh_sparql::{parse_query, QueryResult, Solution};
pub use rdfmesh_store::{LoadConfig, LoadReport, PersistentStore};
