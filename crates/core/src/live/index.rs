//! The index-node role: one location table, routed to by ring position.

use std::collections::HashMap;
use std::sync::Arc;

use rdfmesh_net::{Cluster, Envelope, Handler, NodeId, Outbox};
use rdfmesh_overlay::{key_for_pattern, keys_for_triple};
use rdfmesh_rdf::SharedStore;

use super::{lock, rlock, LiveMsg, RingView, SharedTable};
use crate::stats::LiveStats;

pub(crate) struct IndexNode {
    /// key id → providers (this node's location table). Shared with the
    /// [`LiveMesh`] handle so tests and operators can observe the lazy
    /// removal without an extra probe protocol.
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
    /// An index node serving `table`, routing by the shared `ring_view`.
    pub(crate) fn new(
        table: SharedTable,
        space: rdfmesh_chord::IdSpace,
        ring_view: RingView,
        stats: Arc<LiveStats>,
    ) -> Self {
        IndexNode { table, space, ring_view, stats }
    }

    fn owner_of(&self, key: u64) -> NodeId {
        owner_in_view(&rlock(&self.ring_view), key)
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
/// sorted and deduplicated — what its storage node publishes.
pub(crate) fn index_keys(space: rdfmesh_chord::IdSpace, store: &SharedStore) -> Vec<u64> {
    let mut keys: Vec<u64> =
        store.iter().flat_map(|t| keys_for_triple(space, &t).map(|k| k.id.0)).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Registers `provider` for `keys` at each key's owner in `ring`: one
/// [`LiveMsg::Publish`] per owner, injected as if `provider` sent it. The
/// one way a location-table row is filled, on every host.
pub(crate) fn publish(
    cluster: &Cluster<LiveMsg>,
    ring: &[(u64, NodeId)],
    provider: NodeId,
    keys: &[u64],
) {
    let mut by_owner: HashMap<NodeId, Vec<u64>> = HashMap::new();
    for &key in keys {
        by_owner.entry(owner_in_view(ring, key)).or_default().push(key);
    }
    for (owner, keys) in by_owner {
        cluster.inject(provider, owner, LiveMsg::Publish { keys, provider });
    }
}

impl Handler<LiveMsg> for IndexNode {
    fn on_message(&mut self, envelope: Envelope<LiveMsg>, out: &Outbox<LiveMsg>) {
        match envelope.payload {
            LiveMsg::Lookup { qid, pattern, reply_to } => {
                match key_for_pattern(self.space, &pattern) {
                    None => {
                        out.send(
                            reply_to,
                            LiveMsg::Providers { qid, pattern, providers: Vec::new() },
                        );
                    }
                    Some(k) => {
                        let owner = self.owner_of(k.id.0);
                        if owner == out.me() {
                            let providers =
                                lock(&self.table).get(&k.id.0).cloned().unwrap_or_default();
                            out.send(reply_to, LiveMsg::Providers { qid, pattern, providers });
                        } else {
                            out.send(owner, LiveMsg::Lookup { qid, pattern, reply_to });
                        }
                    }
                }
            }
            LiveMsg::ProviderDead { pattern, provider } => {
                let Some(k) = key_for_pattern(self.space, &pattern) else { return };
                let owner = self.owner_of(k.id.0);
                if owner != out.me() {
                    out.send(owner, LiveMsg::ProviderDead { pattern, provider });
                    return;
                }
                let mut table = lock(&self.table);
                if let Some(row) = table.get_mut(&k.id.0) {
                    let before = row.len();
                    row.retain(|p| *p != provider);
                    let removed = (before - row.len()) as u64;
                    if row.is_empty() {
                        table.remove(&k.id.0);
                    }
                    drop(table);
                    self.stats.add_providers_purged(removed);
                }
            }
            LiveMsg::Publish { keys, provider } => {
                // Registration: idempotent row inserts, so a serve-mode
                // republish after a membership change converges instead
                // of duplicating.
                let mut table = lock(&self.table);
                for key in keys {
                    let row = table.entry(key).or_default();
                    if !row.contains(&provider) {
                        row.push(provider);
                    }
                }
            }
            _ => {}
        }
    }
}
