//! The routing cache: `index key → owning index node`.
//!
//! Remembers where a level-1 Chord walk terminated so a repeated lookup
//! for the same key can go to the owner in **one** message instead of
//! O(log N) finger hops. Entries carry the ring epoch observed at fill
//! time and a simulated-time TTL; either going stale invalidates the
//! entry on its next use (validate-on-use — a stale entry is never
//! served, only dropped).

use std::collections::HashMap;

use rdfmesh_chord::Id;
use rdfmesh_net::{NodeId, SimTime};

use crate::Miss;

/// One remembered key-owner binding.
#[derive(Debug, Clone, Copy)]
struct RoutingEntry {
    owner: NodeId,
    epoch: u64,
    expires: SimTime,
}

/// A bounded TTL'd map from index keys to their owning index node.
#[derive(Debug)]
pub struct RoutingCache {
    entries: HashMap<Id, RoutingEntry>,
    capacity: usize,
}

impl RoutingCache {
    /// An empty cache holding at most `capacity` bindings.
    pub fn new(capacity: usize) -> Self {
        RoutingCache { entries: HashMap::new(), capacity: capacity.max(1) }
    }

    /// The owner remembered for `key`, if fresh at simulated time `now`
    /// under ring epoch `epoch`. Stale entries are dropped, not served.
    pub fn get(&mut self, key: Id, now: SimTime, epoch: u64) -> Result<NodeId, Miss> {
        match self.entries.get(&key) {
            None => Err(Miss::Absent),
            Some(e) if e.epoch == epoch && e.expires > now => Ok(e.owner),
            Some(_) => {
                self.entries.remove(&key);
                Err(Miss::Stale)
            }
        }
    }

    /// Remembers that `owner` held `key` under `epoch`, valid until
    /// `expires`. When full, the entry expiring soonest (ties broken by
    /// key, for determinism) is evicted first.
    pub fn insert(&mut self, key: Id, owner: NodeId, epoch: u64, expires: SimTime) {
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some(victim) =
                self.entries.iter().map(|(k, e)| (e.expires, *k)).min().map(|(_, k)| k)
            {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(key, RoutingEntry { owner, epoch, expires });
    }

    /// Number of live entries (stale ones included until touched).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no bindings are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every binding.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ttl_expiry_drops_entry() {
        let mut c = RoutingCache::new(8);
        c.insert(Id(1), NodeId(9), 0, SimTime::millis(10));
        assert_eq!(c.get(Id(1), SimTime::millis(5), 0), Ok(NodeId(9)));
        assert_eq!(c.get(Id(1), SimTime::millis(10), 0), Err(Miss::Stale));
        // The stale entry was dropped, not retained.
        assert_eq!(c.get(Id(1), SimTime::ZERO, 0), Err(Miss::Absent));
    }

    #[test]
    fn epoch_change_invalidates() {
        let mut c = RoutingCache::new(8);
        c.insert(Id(1), NodeId(9), 3, SimTime::millis(100));
        assert_eq!(c.get(Id(1), SimTime::ZERO, 4), Err(Miss::Stale));
    }

    #[test]
    fn capacity_evicts_soonest_expiring() {
        let mut c = RoutingCache::new(2);
        c.insert(Id(1), NodeId(1), 0, SimTime::millis(5));
        c.insert(Id(2), NodeId(2), 0, SimTime::millis(50));
        c.insert(Id(3), NodeId(3), 0, SimTime::millis(20));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(Id(1), SimTime::ZERO, 0), Err(Miss::Absent));
        assert_eq!(c.get(Id(2), SimTime::ZERO, 0), Ok(NodeId(2)));
        assert_eq!(c.get(Id(3), SimTime::ZERO, 0), Ok(NodeId(3)));
    }
}
