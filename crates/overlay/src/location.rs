//! Location tables (Table I).
//!
//! Each index node maintains a table mapping a key `Ki` to the storage
//! nodes that share triples with that key, together with a *frequency* —
//! "the number of triples that share the same hash value for their
//! attribute(s)". The frequency drives query optimization (Sect. IV).
//!
//! One type serves the simulator's overlay and the live mesh's index
//! nodes. A row is allocated at its exact length and kept sorted by
//! node, so a peer pays 16 bytes per provider entry; the map hashes with
//! the default keyed hasher, because a live index files keys that arrive
//! from sockets.

use std::collections::HashMap;

use rdfmesh_chord::Id;
use rdfmesh_net::NodeId;

/// One row's entry: a provider and how many of its triples carry the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Provider {
    /// The storage node that holds matching triples.
    pub node: NodeId,
    /// Number of that node's triples sharing the key.
    pub frequency: u64,
}

/// A location table: `key → [(storage node, frequency)]`, each row sorted
/// by node, never empty and holding no zero frequency.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LocationTable {
    rows: HashMap<Id, Box<[Provider]>>,
}

impl LocationTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// `node`'s frequency for `key`, if the row names it.
    fn frequency(&self, key: Id, node: NodeId) -> Option<u64> {
        self.providers(key).iter().find(|p| p.node == node).map(|p| p.frequency)
    }

    /// Files `node`'s frequency for `key`, replacing any it had: a
    /// republished count converges instead of adding up. A new provider
    /// is inserted in node order; a zero frequency removes the entry, and
    /// the row with its last entry. The one place a row changes shape.
    pub fn set(&mut self, key: Id, node: NodeId, frequency: u64) {
        let row = self.rows.entry(key).or_default();
        match (row.binary_search_by_key(&node, |p| p.node), frequency) {
            (Ok(i), 0) => *row = row[..i].iter().chain(&row[i + 1..]).copied().collect(),
            (Ok(i), _) => row[i].frequency = frequency,
            (Err(_), 0) => {}
            (Err(i), _) => {
                let (before, after) = row.split_at(i);
                let new = Provider { node, frequency };
                *row = before.iter().copied().chain([new]).chain(after.iter().copied()).collect();
            }
        }
        if row.is_empty() {
            self.rows.remove(&key);
        }
    }

    /// Adds `count` occurrences of `key` for `node`.
    pub fn add(&mut self, key: Id, node: NodeId, count: u64) {
        self.set(key, node, self.frequency(key, node).unwrap_or(0) + count);
    }

    /// Removes up to `count` occurrences; drops the entry (and row) when
    /// the frequency reaches zero. Returns `true` if anything changed.
    pub fn remove(&mut self, key: Id, node: NodeId, count: u64) -> bool {
        let Some(held) = self.frequency(key, node) else { return false };
        self.set(key, node, held.saturating_sub(count));
        true
    }

    /// Removes every entry for `node` across all keys (storage-node
    /// departure/failure cleanup, Sect. III-D). Returns entries removed.
    pub fn purge_node(&mut self, node: NodeId) -> usize {
        self.purge_node_keys(node).len()
    }

    /// Like [`LocationTable::purge_node`], but returns the keys whose
    /// rows changed, in key order — the invalidation set pushed to cache
    /// subscribers.
    pub fn purge_node_keys(&mut self, node: NodeId) -> Vec<Id> {
        let mut touched: Vec<Id> = self
            .rows
            .iter()
            .filter(|(_, row)| row.iter().any(|p| p.node == node))
            .map(|(&key, _)| key)
            .collect();
        touched.sort_unstable();
        for &key in &touched {
            self.set(key, node, 0);
        }
        touched
    }

    /// The providers for `key`, in ascending node order.
    pub fn providers(&self, key: Id) -> &[Provider] {
        self.rows.get(&key).map_or(&[], |row| row)
    }

    /// Number of keys with at least one provider.
    pub fn key_count(&self) -> usize {
        self.rows.len()
    }

    /// Total (key, node) entries — the table's storage footprint.
    pub fn entry_count(&self) -> usize {
        self.rows.values().map(|row| row.len()).sum()
    }

    /// Serialized size in bytes when shipped during an index-node join
    /// (8-byte key + 12 bytes per provider entry).
    pub fn serialized_len(&self) -> usize {
        self.rows.values().map(|row| 8 + 12 * row.len()).sum()
    }

    /// Splits off and returns the rows whose key satisfies `belongs`,
    /// leaving the rest. This implements the Sect. III-C hand-over: "the
    /// transfer of a portion of the location table to the new node from
    /// its \[successor\]".
    pub fn split_off_where<F: Fn(Id) -> bool>(&mut self, belongs: F) -> LocationTable {
        let mut moved = HashMap::new();
        self.rows.retain(|&key, row| {
            let stays = !belongs(key);
            if !stays {
                moved.insert(key, std::mem::take(row));
            }
            stays
        });
        LocationTable { rows: moved }
    }

    /// Keeps only the rows whose key satisfies `keep`, dropping the rest
    /// in place: what an index node does with the rows a new ring view
    /// gives to other nodes, which nobody wants split off into a table.
    pub fn retain(&mut self, keep: impl Fn(Id) -> bool) {
        self.rows.retain(|&key, _| keep(key));
    }

    /// Absorbs all rows of `other` (index-node departure: the successor
    /// "take\[s\] over its location table").
    pub fn merge(&mut self, other: LocationTable) {
        for (key, row) in other.rows {
            for p in row.iter() {
                self.add(key, p.node, p.frequency);
            }
        }
    }

    /// Iterates over `(key, providers)` rows in key order.
    pub fn iter(&self) -> impl Iterator<Item = (Id, &[Provider])> + '_ {
        let mut rows: Vec<(Id, &[Provider])> =
            self.rows.iter().map(|(&key, row)| (key, &**row)).collect();
        rows.sort_unstable_by_key(|&(key, _)| key);
        rows.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape() {
        // Table I: K2 → D1 (10), D3 (20), D4 (15).
        let mut t = LocationTable::new();
        let k2 = Id(2);
        t.add(k2, NodeId(1), 10);
        t.add(k2, NodeId(3), 20);
        t.add(k2, NodeId(4), 15);
        let provs = t.providers(k2);
        assert_eq!(provs.len(), 3);
        assert_eq!(provs[1], Provider { node: NodeId(3), frequency: 20 });
    }

    #[test]
    fn add_accumulates_frequency() {
        let mut t = LocationTable::new();
        t.add(Id(1), NodeId(7), 2);
        t.add(Id(1), NodeId(7), 3);
        assert_eq!(t.providers(Id(1))[0].frequency, 5);
        t.add(Id(1), NodeId(7), 0); // no-op
        assert_eq!(t.providers(Id(1))[0].frequency, 5);
        t.add(Id(2), NodeId(7), 0); // files nothing
        assert_eq!(t.key_count(), 1);
    }

    #[test]
    fn set_replaces_inserts_in_node_order_and_removes_at_zero() {
        let mut t = LocationTable::new();
        for (node, frequency) in [(5, 1), (2, 4), (9, 2), (5, 3)] {
            t.set(Id(1), NodeId(node), frequency);
        }
        let row = |t: &LocationTable| -> Vec<(u64, u64)> {
            t.providers(Id(1)).iter().map(|p| (p.node.0, p.frequency)).collect()
        };
        assert_eq!(row(&t), [(2, 4), (5, 3), (9, 2)]);
        t.set(Id(1), NodeId(5), 0);
        t.set(Id(1), NodeId(6), 0);
        assert_eq!(row(&t), [(2, 4), (9, 2)]);
        t.set(Id(1), NodeId(2), 0);
        t.set(Id(1), NodeId(9), 0);
        assert_eq!(t.key_count(), 0, "the last entry takes its row with it");
    }

    #[test]
    fn remove_decrements_and_cleans_up() {
        let mut t = LocationTable::new();
        t.add(Id(1), NodeId(7), 5);
        assert!(t.remove(Id(1), NodeId(7), 2));
        assert_eq!(t.providers(Id(1))[0].frequency, 3);
        assert!(t.remove(Id(1), NodeId(7), 99));
        assert!(t.providers(Id(1)).is_empty());
        assert_eq!(t.key_count(), 0);
        assert!(!t.remove(Id(1), NodeId(7), 1));
    }

    #[test]
    fn purge_node_removes_across_keys() {
        let mut t = LocationTable::new();
        t.add(Id(1), NodeId(7), 5);
        t.add(Id(2), NodeId(7), 1);
        t.add(Id(2), NodeId(8), 1);
        assert_eq!(t.purge_node(NodeId(7)), 2);
        assert_eq!(t.key_count(), 1);
        assert_eq!(t.providers(Id(2)).len(), 1);
    }

    #[test]
    fn split_off_moves_matching_rows() {
        let mut t = LocationTable::new();
        t.add(Id(3), NodeId(1), 1);
        t.add(Id(8), NodeId(2), 1);
        t.add(Id(12), NodeId(3), 1);
        let moved = t.split_off_where(|k| k.0 <= 8);
        assert_eq!(moved.key_count(), 2);
        assert_eq!(t.key_count(), 1);
        assert_eq!(t.providers(Id(12)).len(), 1);
    }

    #[test]
    fn merge_combines_frequencies() {
        let mut a = LocationTable::new();
        a.add(Id(1), NodeId(1), 2);
        let mut b = LocationTable::new();
        b.add(Id(1), NodeId(1), 3);
        b.add(Id(2), NodeId(2), 1);
        a.merge(b);
        assert_eq!(a.providers(Id(1))[0].frequency, 5);
        assert_eq!(a.key_count(), 2);
    }

    #[test]
    fn iter_yields_rows_in_key_order() {
        let mut t = LocationTable::new();
        for key in [40, 3, 17, 8] {
            t.add(Id(key), NodeId(key), 1);
        }
        let keys: Vec<u64> = t.iter().map(|(key, _)| key.0).collect();
        assert_eq!(keys, [3, 8, 17, 40]);
    }

    #[test]
    fn serialized_len_tracks_entries() {
        let mut t = LocationTable::new();
        assert_eq!(t.serialized_len(), 0);
        t.add(Id(1), NodeId(1), 1);
        assert_eq!(t.serialized_len(), 20);
        t.add(Id(1), NodeId(2), 1);
        assert_eq!(t.serialized_len(), 32);
        t.add(Id(2), NodeId(1), 1);
        assert_eq!(t.serialized_len(), 52);
    }
}
