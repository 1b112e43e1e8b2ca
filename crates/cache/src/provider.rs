//! The provider-set cache: `index key → location-table row snapshot`.
//!
//! A hit short-circuits *both* index levels — the initiator already
//! knows which storage nodes provide the key (and with what
//! frequencies), so sub-queries fan out directly with zero lookup
//! messages. Correctness rests on the snapshot carrying the row's
//! version counter and the ring epoch observed at fill time; the
//! overlay bumps the version on every publish/unpublish/purge touching
//! the key and the epoch on every index-ring membership change, so a
//! mismatched snapshot is dropped on use rather than served.

use std::collections::{HashMap, VecDeque};

use rdfmesh_chord::Id;
use rdfmesh_net::NodeId;
use rdfmesh_overlay::Provider;

use crate::Miss;

/// One cached location-table row.
#[derive(Debug, Clone)]
struct ProviderEntry {
    owner: NodeId,
    providers: Vec<Provider>,
    version: u64,
    epoch: u64,
}

/// A bounded FIFO map from index keys to provider-row snapshots.
#[derive(Debug)]
pub struct ProviderCache {
    entries: HashMap<Id, ProviderEntry>,
    order: VecDeque<Id>,
    capacity: usize,
}

impl ProviderCache {
    /// An empty cache holding at most `capacity` row snapshots.
    pub fn new(capacity: usize) -> Self {
        ProviderCache { entries: HashMap::new(), order: VecDeque::new(), capacity: capacity.max(1) }
    }

    /// The snapshot for `key`, if its recorded row version and ring
    /// epoch still match the authoritative ones. Stale snapshots are
    /// dropped, not served.
    pub fn get(
        &mut self,
        key: Id,
        version: u64,
        epoch: u64,
    ) -> Result<(NodeId, Vec<Provider>), Miss> {
        match self.entries.get(&key) {
            None => Err(Miss::Absent),
            Some(e) if e.version == version && e.epoch == epoch => {
                Ok((e.owner, e.providers.clone()))
            }
            Some(_) => {
                self.entries.remove(&key);
                Err(Miss::Stale)
            }
        }
    }

    /// Stores a row snapshot taken from `owner` at (`version`, `epoch`).
    /// When full, the oldest-inserted key is evicted.
    pub fn insert(
        &mut self,
        key: Id,
        owner: NodeId,
        providers: Vec<Provider>,
        version: u64,
        epoch: u64,
    ) {
        if !self.entries.contains_key(&key) {
            while self.entries.len() >= self.capacity {
                match self.order.pop_front() {
                    // The queue can hold keys already dropped by
                    // validate-on-use; skip those.
                    Some(old) if self.entries.remove(&old).is_some() => break,
                    Some(_) => continue,
                    None => break,
                }
            }
            self.order.push_back(key);
        }
        self.entries.insert(key, ProviderEntry { owner, providers, version, epoch });
    }

    /// Number of live snapshots (stale ones included until touched).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no snapshots are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every snapshot.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Vec<Provider> {
        vec![Provider { node: NodeId(7), frequency: 3 }]
    }

    #[test]
    fn version_mismatch_invalidates() {
        let mut c = ProviderCache::new(8);
        c.insert(Id(1), NodeId(100), row(), 2, 0);
        assert!(c.get(Id(1), 2, 0).is_ok());
        assert_eq!(c.get(Id(1), 3, 0), Err(Miss::Stale));
        assert_eq!(c.get(Id(1), 2, 0), Err(Miss::Absent));
    }

    #[test]
    fn epoch_mismatch_invalidates() {
        let mut c = ProviderCache::new(8);
        c.insert(Id(1), NodeId(100), row(), 0, 5);
        assert_eq!(c.get(Id(1), 0, 6), Err(Miss::Stale));
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let mut c = ProviderCache::new(2);
        c.insert(Id(1), NodeId(1), row(), 0, 0);
        c.insert(Id(2), NodeId(2), row(), 0, 0);
        c.insert(Id(3), NodeId(3), row(), 0, 0);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(Id(1), 0, 0), Err(Miss::Absent));
        assert!(c.get(Id(2), 0, 0).is_ok());
        assert!(c.get(Id(3), 0, 0).is_ok());
    }
}
