//! # rdfmesh-chord — Chord DHT substrate
//!
//! The structured-P2P layer of the hybrid architecture (paper Sect. III):
//! index nodes organize into a Chord ring (Stoica et al.) over an m-bit
//! identifier space, with finger tables for `O(log N)` lookups and
//! successor lists for failure resilience. The SHA-1 hash used for key
//! assignment is implemented in-tree.
//!
//! ```
//! use rdfmesh_chord::{ChordRing, Id};
//!
//! // The paper's Fig. 1 ring: N1, N4, N7, N12, N15 in a 4-bit space.
//! let ring = ChordRing::bootstrapped(4, 3, &[Id(1), Id(4), Id(7), Id(12), Id(15)]);
//! let lookup = ring.lookup_from(Id(1), Id(5)).unwrap();
//! assert_eq!(lookup.owner, Id(7)); // N7 is the successor of key 5
//! ```

#![warn(missing_docs)]

pub mod hash;
pub mod id;
pub mod ring;

pub use hash::{sha1, sha1_kernel, sha1_u64, Sha1};
pub use id::{Id, IdSpace};
pub use ring::{ChordRing, Lookup, NodeState, RingError};
