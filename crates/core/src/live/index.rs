//! The index-node role: one location table, routed to by ring position.

use std::collections::HashMap;
use std::sync::Arc;

use rdfmesh_net::{lock, rlock, Cluster, NodeId};
use rdfmesh_overlay::{key_counts, key_for_pattern};
use rdfmesh_rdf::SharedStore;

use super::{Action, LiveMsg, RingView, SharedTable};
use crate::stats::LiveStats;

pub(crate) struct IndexNode {
    me: NodeId,
    /// This node's location table (Table I), touched only through its
    /// methods. Shared with the host, so tests and operators can observe
    /// publication and the lazy removal without an extra probe protocol,
    /// and a serve process can drop the rows it stops owning.
    table: SharedTable,
    space: rdfmesh_chord::IdSpace,
    /// `(ring position, address)` of every index node, sorted by
    /// position — the routing view. A live deployment would walk fingers
    /// hop by hop; one-shot resolution keeps the thread demo focused on
    /// the query protocol itself.
    ring_view: RingView,
    stats: Arc<LiveStats>,
}

impl IndexNode {
    /// The index node at `me`, serving `table`, routing by the shared
    /// `ring_view`.
    pub(crate) fn new(
        me: NodeId,
        table: SharedTable,
        space: rdfmesh_chord::IdSpace,
        ring_view: RingView,
        stats: Arc<LiveStats>,
    ) -> Self {
        IndexNode { me, table, space, ring_view, stats }
    }

    fn owner_of(&self, key: u64) -> NodeId {
        owner_in_view(&rlock(&self.ring_view), key)
    }

    /// Answers a lookup from the location table, purges a dead provider
    /// from it, or files a publication — routing the first two on to the
    /// key's owner when that is another index node.
    pub(crate) fn on_event(&mut self, _from: NodeId, msg: LiveMsg) -> Vec<Action> {
        match msg {
            LiveMsg::Lookup { qid, pattern, reply_to } => {
                let Some(k) = key_for_pattern(self.space, &pattern) else {
                    let msg = LiveMsg::Providers { qid, pattern, providers: Vec::new() };
                    return vec![Action::Send { to: reply_to, msg }];
                };
                let owner = self.owner_of(k.id.0);
                if owner != self.me {
                    let msg = LiveMsg::Lookup { qid, pattern, reply_to };
                    return vec![Action::Send { to: owner, msg }];
                }
                let table = lock(&self.table);
                let row = table.providers(k.id).iter().map(|p| (p.node, p.frequency));
                let msg = LiveMsg::Providers { qid, pattern, providers: row.collect() };
                vec![Action::Send { to: reply_to, msg }]
            }
            LiveMsg::ProviderDead { pattern, provider } => {
                let Some(k) = key_for_pattern(self.space, &pattern) else { return Vec::new() };
                let owner = self.owner_of(k.id.0);
                if owner != self.me {
                    let msg = LiveMsg::ProviderDead { pattern, provider };
                    return vec![Action::Send { to: owner, msg }];
                }
                let purged = lock(&self.table).remove(k.id, provider, u64::MAX);
                self.stats.add_providers_purged(u64::from(purged));
                Vec::new()
            }
            LiveMsg::Publish { keys, provider } => {
                // Registration is idempotent: a republished count replaces
                // the provider's entry, so a serve-mode republish after a
                // membership change converges instead of adding up.
                let mut table = lock(&self.table);
                for (key, frequency) in keys {
                    table.set(rdfmesh_chord::Id(key), provider, frequency);
                }
                Vec::new()
            }
            _ => Vec::new(),
        }
    }
}

pub(crate) fn owner_in_view(ring_view: &[(u64, NodeId)], key: u64) -> NodeId {
    ring_view
        .iter()
        .find(|(pos, _)| *pos >= key)
        .or_else(|| ring_view.first())
        .map(|(_, addr)| *addr)
        .expect("non-empty ring view")
}

/// The index-key ids of `store`'s triples (six per triple, Sect. III-B),
/// sorted, each with its frequency — the overlay's [`key_counts`], summed
/// over the kinds that share an id — what its storage node publishes.
/// One pass over the store's lending scan: no triple is cloned. Allocated
/// at its exact length: a serve process keeps it to republish.
pub(crate) fn index_keys(space: rdfmesh_chord::IdSpace, store: &SharedStore) -> Vec<(u64, u64)> {
    let counts = key_counts(space, None, store.len(), |f| store.for_each_triple(f));
    let ids = counts.chunk_by(|(a, _), (b, _)| a.id == b.id);
    let mut keys = Vec::with_capacity(ids.clone().count());
    keys.extend(ids.map(|run| (run[0].0.id.0, run.iter().map(|(_, n)| n).sum())));
    keys
}

/// Registers `provider` for `keys` at each key's owner in `ring`: one
/// [`LiveMsg::Publish`] per owner, injected as if `provider` sent it. The
/// one way a location-table row is filled, on every host.
pub(crate) fn publish(
    cluster: &Cluster<LiveMsg>,
    ring: &[(u64, NodeId)],
    provider: NodeId,
    keys: &[(u64, u64)],
) {
    let mut by_owner: HashMap<NodeId, Vec<(u64, u64)>> = HashMap::new();
    for &entry in keys {
        by_owner.entry(owner_in_view(ring, entry.0)).or_default().push(entry);
    }
    for (owner, keys) in by_owner {
        cluster.inject(provider, owner, LiveMsg::Publish { keys, provider });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live_wire::peak_by;
    use rdfmesh_rdf::{PatternSource, Triple};
    use rdfmesh_workload::university::{department_triples, UniversityConfig};

    /// What the key pass may hold at once per triple of the store: six
    /// 8-byte key columns (48 B), the counts made of them (24 B per
    /// distinct key) and the published ids (16 B per distinct id) — and
    /// no copy of a triple, which alone would take several hundred.
    const PEAK_BYTES_PER_TRIPLE: usize = 160;

    fn corpus() -> Vec<Triple> {
        // The repo benchmark's departments: ≈ 1 250 triples each.
        let cfg = UniversityConfig {
            professors_per_department: 10,
            students_per_department: 200,
            courses_per_professor: 2,
            courses_per_student: 3,
            ..UniversityConfig::default()
        };
        (0..8).flat_map(|d| department_triples(&cfg, d)).collect()
    }

    /// `index_keys` over `store`, asserting its peak heap stays in budget.
    fn keys_in_budget(store: &SharedStore, host: &str) -> Vec<(u64, u64)> {
        let space = rdfmesh_chord::IdSpace::new(32);
        let (keys, peak) = peak_by(|| index_keys(space, store));
        let per_triple = peak / store.len();
        assert!(
            per_triple <= PEAK_BYTES_PER_TRIPLE,
            "{host}: {peak} B at peak over {} triples = {per_triple} B per triple",
            store.len()
        );
        keys
    }

    #[test]
    fn the_key_pass_never_holds_the_store_twice() {
        let triples = corpus();
        let memory: SharedStore = triples.iter().cloned().collect();
        let dir = std::env::temp_dir()
            .join(format!("rdfmesh-index-keys-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut persistent = rdfmesh_store::PersistentStore::open(&dir).expect("open");
        for t in &triples {
            persistent.insert(t);
        }
        persistent.flush().expect("flush");
        let persistent = persistent.into_shared();
        assert!(memory.len() > 5_000, "{} triples", memory.len());
        assert_eq!(persistent.len(), memory.len());
        let keys = keys_in_budget(&memory, "in memory");
        assert_eq!(keys_in_budget(&persistent, "persistent"), keys);
        let published: u64 = keys.iter().map(|(_, n)| n).sum();
        assert_eq!(published, 6 * memory.len() as u64, "six keys per triple");
        drop(persistent);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
