//! Wire-size constants for the overlay's own messages (bytes).
//!
//! The mesh sends none of these messages in this shape: its lookups take
//! one hop (every node holds the ring view), it publishes a whole key
//! batch in one frame, and it has no key-range hand-over, no
//! invalidation push and no bare ack. So the simulator prices them with
//! this fixed schedule, chosen to approximate small binary headers. A
//! message that carries a sub-query or solutions is not priced here: the
//! simulator charges it at the length of the `LiveMsg` frame the mesh
//! sends for it.

/// One step of iterative Chord routing (request + key + return address).
pub const LOOKUP_STEP: usize = 48;
/// A publish request from a storage node to its index node.
pub const PUBLISH_REQUEST: usize = 64;
/// One location-table entry (key + node address + frequency).
pub const ENTRY: usize = 20;
/// A query acknowledgement / control message.
pub const ACK: usize = 16;
/// Fixed header on a cache-invalidation notification pushed to
/// subscribed query initiators (the per-key payload adds 8 bytes per
/// invalidated key).
pub const INVALIDATION: usize = 24;
