//! The hybrid P2P overlay (paper Sect. III).
//!
//! Index nodes form a Chord ring and host location tables; storage nodes
//! attach to an index node and keep their own triples — "data is
//! maintained by its own provider". [`Overlay`] composes the Chord
//! substrate, the location tables and the network cost model into the
//! two-level distributed index:
//!
//! 1. **Level 1** — route `Hash(attributes)` over the ring to the index
//!    node owning the key (charged per hop).
//! 2. **Level 2** — that node's location table yields the storage nodes
//!    (with frequencies) that provide matching triples.
//!
//! Maintenance follows Sect. III-C/D: an index-node join transfers the
//! key range from its successor; graceful departure hands the table over;
//! abrupt failure is masked by replicas on successor nodes; storage-node
//! failure leaves stale entries that are purged lazily when queries time
//! out.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};

use rdfmesh_chord::{ChordRing, Id, RingError};
use rdfmesh_net::{Network, NodeId, SimTime};
use rdfmesh_rdf::{SharedStore, Triple, TriplePattern, TripleStore};

use crate::key::{key_counts, key_for_pattern, IndexKey, KeyKind, NumericBuckets};
use crate::location::{LocationTable, Provider};
use crate::wire;

/// A storage node: its local repository and its attachment point.
///
/// The repository is held behind a [`SharedStore`] handle, so a storage
/// node can run on the in-memory [`TripleStore`] (the default) or on the
/// persistent `rdfmesh-store` backend. Cloning the node *shares* the
/// repository.
#[derive(Debug, Clone)]
pub struct StorageNode {
    /// The node's own RDF data repository.
    pub store: SharedStore,
    /// The chord id of the index node it is attached to.
    pub attached_to: Id,
    /// The IRI naming this node's dataset, when the provider published
    /// one. A query with `FROM <iri>` clauses (Sect. IV-A) restricts its
    /// dataset to providers whose graph IRI is listed; queries without a
    /// dataset clause range over every provider — the harder case the
    /// paper focuses on.
    pub graph: Option<rdfmesh_rdf::Iri>,
}

/// Report of an index-node join (Sect. III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinReport {
    /// Chord lookup hops to find the join position.
    pub lookup_hops: usize,
    /// Location-table rows transferred from the successor.
    pub transferred_keys: usize,
    /// Bytes of location-table state moved.
    pub transferred_bytes: usize,
}

/// Report of publishing a storage node's triples into the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PublishReport {
    /// Distinct index keys published (≤ 6 × triples).
    pub keys: usize,
    /// Ring routing messages spent.
    pub routing_messages: usize,
    /// Total bytes sent (routing + entries + replication).
    pub bytes: u64,
}

/// Result of a two-level index lookup for one triple pattern.
#[derive(Debug, Clone)]
pub struct Located {
    /// The key that was routed on.
    pub key: IndexKey,
    /// The index node (network address) owning the key.
    pub index_node: NodeId,
    /// Storage nodes providing matching triples, with frequencies.
    pub providers: Vec<Provider>,
    /// Ring hops taken.
    pub hops: usize,
    /// Simulated time at which the providers list is known at the index
    /// node.
    pub arrival: SimTime,
}

/// Errors from overlay operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OverlayError {
    /// Underlying ring error.
    Ring(RingError),
    /// The address does not name a live index node.
    UnknownIndexNode(NodeId),
    /// The address does not name a live storage node.
    UnknownStorageNode(NodeId),
    /// The address is already in use.
    AddressInUse(NodeId),
    /// The overlay has no index nodes.
    NoIndexNodes,
}

impl From<RingError> for OverlayError {
    fn from(e: RingError) -> Self {
        OverlayError::Ring(e)
    }
}

impl std::fmt::Display for OverlayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OverlayError::Ring(e) => write!(f, "ring error: {e}"),
            OverlayError::UnknownIndexNode(n) => write!(f, "unknown index node {n}"),
            OverlayError::UnknownStorageNode(n) => write!(f, "unknown storage node {n}"),
            OverlayError::AddressInUse(n) => write!(f, "address {n} already in use"),
            OverlayError::NoIndexNodes => write!(f, "no index nodes in the overlay"),
        }
    }
}

impl std::error::Error for OverlayError {}

/// Per-key query-hit counting and hot-row replication state (the
/// adaptive layer of `rdfmesh-cache`). Lives behind a [`RefCell`] so the
/// read-only [`Overlay::locate`] path can count hits and push replicas.
#[derive(Debug, Default)]
struct HotState {
    /// Hits after which a key's row is pushed to the owner's successors.
    threshold: u64,
    /// Per-key query-hit counters at the owning index nodes.
    hits: HashMap<Id, u64>,
    /// key → chord ids of the successor nodes now holding a hot copy.
    replicas: HashMap<Id, Vec<Id>>,
}

/// The hybrid overlay: ring + location tables + storage nodes + network.
#[derive(Debug)]
pub struct Overlay {
    ring: ChordRing,
    /// chord id → network address of index nodes.
    index_addr: BTreeMap<Id, NodeId>,
    addr_index: HashMap<NodeId, Id>,
    /// Primary location table per index node (keyed by chord id).
    tables: HashMap<Id, LocationTable>,
    /// Replica tables per index node: copies of rows owned by predecessors.
    replicas: HashMap<Id, LocationTable>,
    storage: BTreeMap<NodeId, StorageNode>,
    /// Total copies of each row (primary + replicas).
    replication: usize,
    /// Range-index bucketing for numeric objects, when enabled.
    buckets: Option<NumericBuckets>,
    /// Bumped on every index-node join/leave/failure/repair. Caches keyed
    /// on ring state (routing, provider sets) are only valid within one
    /// epoch.
    ring_epoch: u64,
    /// Per-key row versions, bumped whenever a location-table row's
    /// content changes (publish, unpublish, purge). Provider-set and
    /// result caches validate against these on use.
    versions: HashMap<Id, u64>,
    /// Query initiators subscribed to row-change notifications; each
    /// batched row change charges one message per subscriber.
    cache_subscribers: Vec<NodeId>,
    /// Adaptive hot-key replication, when enabled.
    hot: RefCell<Option<HotState>>,
    /// The cost-accounting network.
    pub net: Network,
}

impl Overlay {
    /// An empty overlay over an `bits`-bit ring with the given successor
    /// list length and replication factor, on `net`.
    pub fn new(bits: u32, successor_list_len: usize, replication: usize, net: Network) -> Self {
        Overlay {
            ring: ChordRing::new(bits, successor_list_len),
            index_addr: BTreeMap::new(),
            addr_index: HashMap::new(),
            tables: HashMap::new(),
            replicas: HashMap::new(),
            storage: BTreeMap::new(),
            replication: replication.max(1),
            buckets: None,
            ring_epoch: 0,
            versions: HashMap::new(),
            cache_subscribers: Vec::new(),
            hot: RefCell::new(None),
            net,
        }
    }

    // ---- cache-coherence surface (rdfmesh-cache) ----------------------

    /// The current ring epoch: bumped on every index-node membership
    /// change. Cached routing/provider/result entries from an older epoch
    /// are invalid.
    pub fn ring_epoch(&self) -> u64 {
        self.ring_epoch
    }

    /// The current version of a key's location-table row (0 if the key
    /// never had a row). Bumped on every row-content change.
    pub fn key_version(&self, key: Id) -> u64 {
        self.versions.get(&key).copied().unwrap_or(0)
    }

    /// Subscribes a query initiator to row-change notifications: every
    /// batched row mutation afterwards charges one
    /// [`wire::INVALIDATION`]-sized message (plus 8 bytes per key) from
    /// the owning index node to each subscriber. Idempotent.
    pub fn subscribe_cache(&mut self, addr: NodeId) {
        if !self.cache_subscribers.contains(&addr) {
            self.cache_subscribers.push(addr);
        }
    }

    /// Enables adaptive hot-key replication: index nodes count per-key
    /// query hits, and once a key reaches `threshold` hits its row is
    /// pushed to the owner's successor-list neighbors so later lookups
    /// terminate as soon as the ring walk touches any holder.
    pub fn enable_hot_replication(&mut self, threshold: u64) {
        *self.hot.get_mut() = Some(HotState {
            threshold: threshold.max(1),
            ..HotState::default()
        });
    }

    /// Number of keys currently hot-replicated (for tests and metrics).
    pub fn hot_replica_count(&self) -> usize {
        self.hot.borrow().as_ref().map_or(0, |h| h.replicas.len())
    }

    /// Authoritative providers for `key` as seen at index node `owner`
    /// (primary row, falling back to the node's replica set). Used by the
    /// routing cache's short-circuited level-2 fetch.
    pub fn providers_for_key(&self, owner: NodeId, key: Id) -> Vec<Provider> {
        self.chord_id_of(owner).map_or_else(Vec::new, |id| self.row(id, key).to_vec())
    }

    /// `key`'s row at index node `holder`: the primary row, falling back to
    /// the node's replica set when the primary copy died with a
    /// predecessor (replication in action).
    fn row(&self, holder: Id, key: Id) -> &[Provider] {
        let primary = self.tables.get(&holder).map(|t| t.providers(key)).unwrap_or_default();
        match self.replicas.get(&holder) {
            Some(replica) if primary.is_empty() => replica.providers(key),
            _ => primary,
        }
    }

    /// Charges one [`wire::LOOKUP_STEP`] per hop of a ring walk leaving at
    /// `depart`, returning when it reaches the walk's last node.
    fn walk(&self, path: &[Id], depart: SimTime) -> Result<SimTime, OverlayError> {
        let mut arrival = depart;
        for pair in path.windows(2) {
            let a = self.addr_of(pair[0]).ok_or(OverlayError::NoIndexNodes)?;
            let b = self.addr_of(pair[1]).ok_or(OverlayError::NoIndexNodes)?;
            arrival = self.net.send(a, b, wire::LOOKUP_STEP, arrival);
        }
        Ok(arrival)
    }

    /// The index key `pattern` resolves to in this overlay's identifier
    /// space, if it has one (the all-variable pattern does not). Lets
    /// cache layers address their entries exactly as [`Overlay::locate`]
    /// would.
    pub fn index_key_for(&self, pattern: &TriplePattern) -> Option<IndexKey> {
        key_for_pattern(self.ring.space(), pattern)
    }

    /// The network address of the index node that authoritatively owns
    /// `key` under the current ring membership.
    pub fn owner_addr(&self, key: Id) -> Option<NodeId> {
        self.ring.ideal_owner(key).ok().and_then(|id| self.addr_of(id))
    }

    /// Bumps the ring epoch and drops all hot-replication state (ring
    /// membership changed, so successor sets and ownership may differ).
    fn bump_epoch(&mut self) {
        self.ring_epoch += 1;
        if let Some(hot) = self.hot.get_mut().as_mut() {
            hot.hits.clear();
            hot.replicas.clear();
        }
    }

    /// Records that the rows for `keys` changed at the index node
    /// `owner`: bumps their versions, drops their hot replicas, and
    /// charges one notification message per subscriber.
    fn note_row_changes(&mut self, owner: Id, keys: &[Id]) {
        if keys.is_empty() {
            return;
        }
        for k in keys {
            *self.versions.entry(*k).or_insert(0) += 1;
        }
        if let Some(hot) = self.hot.get_mut().as_mut() {
            for k in keys {
                hot.hits.remove(k);
                hot.replicas.remove(k);
            }
        }
        if !self.cache_subscribers.is_empty() {
            if let Some(from) = self.addr_of(owner) {
                let bytes = wire::INVALIDATION + 8 * keys.len();
                for sub in self.cache_subscribers.clone() {
                    if sub != from {
                        self.net.send(from, sub, bytes, SimTime::ZERO);
                    }
                }
            }
            rdfmesh_obs::metrics().add("overlay.cache.invalidations", keys.len() as u64);
        }
    }

    /// Enables the numeric range index (an extension beyond the paper):
    /// every triple with a numeric object additionally publishes a
    /// `(predicate, bucket(object))` key, so range queries contact only
    /// providers whose values fall in overlapping buckets. Must be set
    /// before storage nodes publish.
    pub fn enable_numeric_buckets(&mut self, buckets: NumericBuckets) {
        assert!(
            self.storage.is_empty(),
            "numeric buckets must be configured before any triples publish"
        );
        self.buckets = Some(buckets);
    }

    /// The configured numeric bucketing, if any.
    pub fn numeric_buckets(&self) -> Option<NumericBuckets> {
        self.buckets
    }

    /// The Chord ring (read-only).
    pub fn ring(&self) -> &ChordRing {
        &self.ring
    }

    /// Live index-node addresses, in chord-id order.
    pub fn index_nodes(&self) -> Vec<NodeId> {
        self.index_addr.values().copied().collect()
    }

    /// Live storage-node addresses, in address order.
    pub fn storage_nodes(&self) -> Vec<NodeId> {
        self.storage.keys().copied().collect()
    }

    /// The chord id of an index node address.
    pub fn chord_id_of(&self, addr: NodeId) -> Option<Id> {
        self.addr_index.get(&addr).copied()
    }

    /// The network address of a chord id.
    pub fn addr_of(&self, id: Id) -> Option<NodeId> {
        self.index_addr.get(&id).copied()
    }

    /// A storage node's state, if alive.
    pub fn storage_node(&self, addr: NodeId) -> Option<&StorageNode> {
        self.storage.get(&addr)
    }

    /// True if `addr` names a live storage node.
    pub fn is_storage_alive(&self, addr: NodeId) -> bool {
        self.storage.contains_key(&addr)
    }

    /// Evaluates a triple pattern at a storage node's local repository —
    /// the "local query execution" of Fig. 3. `None` when the node is
    /// dead (the caller's query-ack timeout fires, Sect. III-D).
    pub fn match_at(&self, addr: NodeId, pattern: &TriplePattern) -> Option<Vec<Triple>> {
        self.storage.get(&addr).map(|s| s.store.match_pattern(pattern))
    }

    fn check_addr_free(&self, addr: NodeId) -> Result<(), OverlayError> {
        if self.addr_index.contains_key(&addr) || self.storage.contains_key(&addr) {
            return Err(OverlayError::AddressInUse(addr));
        }
        Ok(())
    }

    // ---- index node membership (Sect. III-C/D) -----------------------

    /// Adds an index node with the given ring position. The first node
    /// bootstraps the ring; later joins route through an existing node and
    /// receive their key range from the successor.
    pub fn add_index_node(&mut self, addr: NodeId, chord_id: Id) -> Result<JoinReport, OverlayError> {
        self.check_addr_free(addr)?;
        // Truncate into the ring's identifier space up front so every map
        // keyed by chord id agrees with the ring's own view.
        let chord_id = self.ring.space().id(chord_id.0);
        let bootstrap = self.index_addr.keys().next().copied();
        let lookup_hops = self.ring.join(chord_id, bootstrap)?;
        self.ring.stabilize_until_converged(128);
        self.index_addr.insert(chord_id, addr);
        self.addr_index.insert(addr, chord_id);
        self.tables.insert(chord_id, LocationTable::new());
        self.replicas.insert(chord_id, LocationTable::new());

        // Transfer the new node's key range from its successor.
        let mut transferred_keys = 0;
        let mut transferred_bytes = 0;
        let succ = self.ring.node(chord_id)?.successor();
        if succ != chord_id {
            let space = self.ring.space();
            let pred = self.ring.node(chord_id)?.predecessor.unwrap_or(succ);
            if let Some(succ_table) = self.tables.get_mut(&succ) {
                let moved = succ_table.split_off_where(|k| space.in_open_closed(k, pred, chord_id));
                transferred_keys = moved.key_count();
                transferred_bytes = moved.serialized_len();
                if transferred_bytes > 0 {
                    let from = self.index_addr[&succ];
                    self.net.send(from, addr, transferred_bytes, SimTime::ZERO);
                }
                self.tables.entry(chord_id).or_default().merge(moved);
            }
        }
        self.refresh_replicas();
        self.bump_epoch();
        Ok(JoinReport { lookup_hops, transferred_keys, transferred_bytes })
    }

    /// Graceful index-node departure: its successor takes over the
    /// location table (Sect. III-D).
    pub fn remove_index_node(&mut self, addr: NodeId) -> Result<(), OverlayError> {
        let id = *self.addr_index.get(&addr).ok_or(OverlayError::UnknownIndexNode(addr))?;
        let succ = self.ring.node(id)?.successor();
        let table = self.tables.remove(&id).unwrap_or_default();
        self.replicas.remove(&id);
        if succ != id {
            let bytes = table.serialized_len();
            if bytes > 0 {
                self.net.send(addr, self.index_addr[&succ], bytes, SimTime::ZERO);
            }
            self.tables.entry(succ).or_default().merge(table);
        }
        self.ring.leave(id)?;
        self.index_addr.remove(&id);
        self.addr_index.remove(&addr);
        self.ring.stabilize_until_converged(128);
        self.reattach(|_, at| at == id);
        self.refresh_replicas();
        self.bump_epoch();
        Ok(())
    }

    /// Abrupt index-node failure: its primary table vanishes; recovery
    /// relies on the successor list and the replicas (Sect. III-D).
    pub fn fail_index_node(&mut self, addr: NodeId) -> Result<(), OverlayError> {
        let id = *self.addr_index.get(&addr).ok_or(OverlayError::UnknownIndexNode(addr))?;
        self.tables.remove(&id);
        self.replicas.remove(&id);
        self.ring.fail(id)?;
        self.index_addr.remove(&id);
        self.addr_index.remove(&addr);
        self.bump_epoch();
        Ok(())
    }

    /// Runs ring stabilization and promotes replica rows to their new
    /// owners after churn. Call after failures (periodic maintenance).
    pub fn repair(&mut self) {
        self.ring.stabilize_until_converged(128);
        // Promote: every replica row whose ideal owner is its holder moves
        // into the holder's primary table (unless already there).
        let holders: Vec<Id> = self.replicas.keys().copied().collect();
        for holder in holders {
            let Some(replica) = self.replicas.get_mut(&holder) else { continue };
            let promoted = replica.split_off_where(|k| {
                matches!(self.ring.ideal_owner(k), Ok(owner) if owner == holder)
            });
            if promoted.key_count() > 0 {
                let primary = self.tables.entry(holder).or_default();
                // Merge without double-counting rows the primary already
                // has: replica copies mirror primary rows exactly, so only
                // missing keys move over.
                for (key, provs) in promoted.iter() {
                    if primary.providers(key).is_empty() {
                        for p in provs {
                            primary.add(key, p.node, p.frequency);
                        }
                    }
                }
            }
        }
        // Re-attach storage nodes whose index node disappeared.
        self.reattach(|ring, at| !ring.contains(at));
        self.refresh_replicas();
        self.bump_epoch();
    }

    /// Rebuilds replica tables: each index node's primary rows are copied
    /// to its `replication - 1` successors.
    fn refresh_replicas(&mut self) {
        for r in self.replicas.values_mut() {
            *r = LocationTable::new();
        }
        if self.replication < 2 {
            return;
        }
        let owners: Vec<Id> = self.tables.keys().copied().collect();
        for owner in owners {
            let rows: Vec<(Id, &[Provider])> = self.tables[&owner].iter().collect();
            let succs: Vec<Id> = self
                .ring
                .node(owner)
                .map(|s| s.successors.clone())
                .unwrap_or_default()
                .into_iter()
                .filter(|s| *s != owner)
                .take(self.replication - 1)
                .collect();
            for s in succs {
                let table = self.replicas.entry(s).or_default();
                for &(key, provs) in &rows {
                    for p in provs {
                        table.add(key, p.node, p.frequency);
                    }
                }
            }
        }
    }

    /// Moves every storage node whose index node `orphaned` picks to that
    /// index node's ideal owner on the ring as it is now.
    fn reattach(&mut self, orphaned: impl Fn(&ChordRing, Id) -> bool) {
        let moves: Vec<(NodeId, Id)> = self
            .storage
            .iter()
            .filter(|(_, s)| orphaned(&self.ring, s.attached_to))
            .filter_map(|(&addr, s)| Some((addr, self.ring.ideal_owner(s.attached_to).ok()?)))
            .collect();
        for (addr, to) in moves {
            if let Some(node) = self.storage.get_mut(&addr) {
                node.attached_to = to;
            }
        }
    }

    // ---- storage node membership (Sect. III-B/D) ----------------------

    /// Adds a storage node attached to the index node at `attach`, and
    /// publishes six index entries per shared triple (Sect. III-B).
    pub fn add_storage_node(
        &mut self,
        addr: NodeId,
        attach: NodeId,
        triples: impl IntoIterator<Item = Triple>,
    ) -> Result<PublishReport, OverlayError> {
        self.add_storage_node_with_graph(addr, attach, triples, None)
    }

    /// [`Overlay::add_storage_node`] with a dataset (graph) IRI the
    /// provider publishes under, targetable by `FROM` clauses.
    pub fn add_storage_node_with_graph(
        &mut self,
        addr: NodeId,
        attach: NodeId,
        triples: impl IntoIterator<Item = Triple>,
        graph: Option<rdfmesh_rdf::Iri>,
    ) -> Result<PublishReport, OverlayError> {
        self.check_addr_free(addr)?;
        let attach_id =
            *self.addr_index.get(&attach).ok_or(OverlayError::UnknownIndexNode(attach))?;
        let store = SharedStore::from(TripleStore::from_triples(triples));
        self.storage.insert(addr, StorageNode { store, attached_to: attach_id, graph });
        self.publish(addr)
    }

    /// The storage nodes whose graph IRI appears in `graphs` — the
    /// dataset of a query with `FROM` clauses.
    pub fn providers_in_graphs(&self, graphs: &[rdfmesh_rdf::Iri]) -> Vec<NodeId> {
        self.storage
            .iter()
            .filter(|(_, n)| n.graph.as_ref().is_some_and(|g| graphs.contains(g)))
            .map(|(&a, _)| a)
            .collect()
    }

    /// (Re-)publishes every triple of `addr` into the distributed index.
    fn publish(&mut self, addr: NodeId) -> Result<PublishReport, OverlayError> {
        let node = self.storage.get(&addr).ok_or(OverlayError::UnknownStorageNode(addr))?;
        let attach_id = node.attached_to;
        let store = &node.store;
        let counts =
            key_counts(self.ring.space(), self.buckets, store.len(), |f| store.for_each_triple(f));
        self.publish_deltas(addr, attach_id, counts, true)
    }

    /// Adds triples to an existing storage node's local repository and
    /// publishes the corresponding index deltas (shares grow over time in
    /// an ad-hoc system). Returns the publication cost.
    pub fn add_triples(
        &mut self,
        addr: NodeId,
        triples: impl IntoIterator<Item = Triple>,
    ) -> Result<PublishReport, OverlayError> {
        let (space, buckets) = (self.ring.space(), self.buckets);
        let node =
            self.storage.get_mut(&addr).ok_or(OverlayError::UnknownStorageNode(addr))?;
        let attach_id = node.attached_to;
        // Only genuinely new triples create index deltas.
        let triples = triples.into_iter();
        let counts = key_counts(space, buckets, triples.size_hint().0, |f| {
            triples.filter(|t| node.store.insert(t)).for_each(|t| f((&t).into()))
        });
        self.publish_deltas(addr, attach_id, counts, true)
    }

    /// Removes triples from a storage node and withdraws the index
    /// deltas. Triples the node does not hold are ignored.
    pub fn remove_triples(
        &mut self,
        addr: NodeId,
        triples: impl IntoIterator<Item = Triple>,
    ) -> Result<PublishReport, OverlayError> {
        let (space, buckets) = (self.ring.space(), self.buckets);
        let node =
            self.storage.get_mut(&addr).ok_or(OverlayError::UnknownStorageNode(addr))?;
        let attach_id = node.attached_to;
        let triples = triples.into_iter();
        let counts = key_counts(space, buckets, triples.size_hint().0, |f| {
            triples.filter(|t| node.store.remove(t)).for_each(|t| f((&t).into()))
        });
        self.publish_deltas(addr, attach_id, counts, false)
    }

    /// Routes one message per key delta, in `(id, kind)` order, and
    /// applies it (and its replicas). Index nodes that die while an operation is in flight
    /// are skipped — the delta still lands at the owner, we just do not
    /// charge hops through dead addresses — instead of panicking.
    fn publish_deltas(
        &mut self,
        addr: NodeId,
        attach_id: Id,
        keys: Vec<(IndexKey, u64)>,
        add: bool,
    ) -> Result<PublishReport, OverlayError> {
        let mut report = PublishReport { keys: keys.len(), ..Default::default() };
        // owner → changed keys, batched for one notification per owner.
        let mut changed: BTreeMap<Id, Vec<Id>> = BTreeMap::new();
        for (key, count) in keys {
            let path = self.ring.lookup_path_from(attach_id, key.id)?;
            let owner = *path.last().ok_or(OverlayError::NoIndexNodes)?;
            let mut t = match self.addr_of(attach_id) {
                Some(attach_addr) => {
                    self.net.send(addr, attach_addr, wire::PUBLISH_REQUEST, SimTime::ZERO)
                }
                // The attachment point died mid-operation: the request
                // re-routes from time zero without the first hop's charge.
                None => SimTime::ZERO,
            };
            for pair in path.windows(2) {
                let (Some(from), Some(to)) = (self.addr_of(pair[0]), self.addr_of(pair[1]))
                else {
                    continue;
                };
                t = self.net.send(from, to, wire::LOOKUP_STEP, t);
                report.routing_messages += 1;
            }
            report.bytes +=
                (wire::PUBLISH_REQUEST + path.len().saturating_sub(1) * wire::LOOKUP_STEP) as u64;
            let table = self.tables.entry(owner).or_default();
            let row_changed = if add {
                table.add(key.id, addr, count);
                count > 0
            } else {
                table.remove(key.id, addr, count)
            };
            if row_changed {
                changed.entry(owner).or_default().push(key.id);
            }
            if self.replication >= 2 {
                let succs: Vec<Id> = self
                    .ring
                    .node(owner)?
                    .successors
                    .clone()
                    .into_iter()
                    .filter(|s| *s != owner)
                    .take(self.replication - 1)
                    .collect();
                for sid in succs {
                    let (Some(from), Some(to)) = (self.addr_of(owner), self.addr_of(sid)) else {
                        continue;
                    };
                    self.net.send(from, to, wire::ENTRY, t);
                    report.bytes += wire::ENTRY as u64;
                    let replica = self.replicas.entry(sid).or_default();
                    if add {
                        replica.add(key.id, addr, count);
                    } else {
                        replica.remove(key.id, addr, count);
                    }
                }
            }
        }
        for (owner, keys) in changed {
            self.note_row_changes(owner, &keys);
        }
        Ok(report)
    }

    /// Graceful storage-node departure: withdraws its index entries, then
    /// removes the node.
    pub fn remove_storage_node(&mut self, addr: NodeId) -> Result<(), OverlayError> {
        if !self.storage.contains_key(&addr) {
            return Err(OverlayError::UnknownStorageNode(addr));
        }
        self.purge_storage_entries(addr);
        self.storage.remove(&addr);
        Ok(())
    }

    /// Abrupt storage-node failure: the node vanishes but its index
    /// entries remain — "the location table … may remain inconsistent for
    /// a while" (Sect. III-D). Queries hitting the dead node time out and
    /// call [`Overlay::purge_storage_entries`].
    pub fn fail_storage_node(&mut self, addr: NodeId) -> Result<(), OverlayError> {
        self.storage.remove(&addr).map(|_| ()).ok_or(OverlayError::UnknownStorageNode(addr))
    }

    /// Removes every index entry pointing at `addr` (the lazy cleanup
    /// after a query-ack timeout). Returns entries removed. Each affected
    /// row's version bumps and subscribers are notified, so cached
    /// provider sets naming the dead node are dropped rather than served
    /// again.
    pub fn purge_storage_entries(&mut self, addr: NodeId) -> usize {
        let mut removed = 0;
        let mut changed: Vec<(Id, Vec<Id>)> = Vec::new();
        for (&holder, table) in self.tables.iter_mut() {
            let keys = table.purge_node_keys(addr);
            removed += keys.len();
            if !keys.is_empty() {
                changed.push((holder, keys));
            }
        }
        for table in self.replicas.values_mut() {
            table.purge_node(addr);
        }
        changed.sort_by_key(|(holder, _)| *holder);
        for (holder, keys) in changed {
            self.note_row_changes(holder, &keys);
        }
        removed
    }

    // ---- the two-level lookup (Sect. III-B) ---------------------------

    /// Resolves the storage nodes able to answer `pattern`, starting the
    /// ring routing at the index node `from` at time `depart`.
    ///
    /// Returns `None` for the all-variable pattern, which has no index key
    /// and must be flooded to every storage node instead.
    pub fn locate(
        &self,
        from: NodeId,
        pattern: &TriplePattern,
        depart: SimTime,
    ) -> Result<Option<Located>, OverlayError> {
        let from_id = *self.addr_index.get(&from).ok_or(OverlayError::UnknownIndexNode(from))?;
        let Some(key) = key_for_pattern(self.ring.space(), pattern) else {
            return Ok(None);
        };
        let mut path = self.ring.lookup_path_from(from_id, key.id)?;
        let owner = *path.last().ok_or(OverlayError::NoIndexNodes)?;
        // Adaptive hot-key replication: the walk terminates at the first
        // node on the path already holding a hot copy of the row (Chord
        // approaches a key from its predecessors, so a holder can appear
        // at the walk's start or — after churn — anywhere along it).
        let full_hops = path.len() - 1;
        if let Some(hot) = self.hot.borrow().as_ref() {
            if let Some(holders) = hot.replicas.get(&key.id) {
                if let Some(pos) =
                    path.iter().position(|id| *id == owner || holders.contains(id))
                {
                    path.truncate(pos + 1);
                }
            }
        }
        let hops = path.len() - 1;
        // Observability: the ring walk is one key-resolution span; the
        // LOOKUP_STEP sends below charge their bytes to it.
        let span = rdfmesh_obs::begin_current(
            rdfmesh_obs::phase::KEY_RESOLUTION,
            &format!("locate {:?} ({} hops)", key.kind, hops),
            depart.0,
        );
        let arrival = self.walk(&path, depart)?;
        rdfmesh_obs::end_current(span, arrival.0);
        let metrics = rdfmesh_obs::metrics();
        metrics.add("overlay.locates", 1);
        metrics.add("overlay.index_hops", hops as u64);
        metrics.observe("overlay.index_hops_per_locate", hops as u64);
        if hops < full_hops {
            metrics.add("overlay.hot.short_circuits", 1);
            metrics.add("overlay.hot.hops_saved", (full_hops - hops) as u64);
        }
        // The owner's row. Hot copies mirror the authoritative row exactly
        // (they are dropped on any row change), so a truncated walk reads
        // the same providers.
        let providers = self.row(owner, key.id);
        self.record_key_hit(key.id, owner, providers, arrival);
        let providers = providers.to_vec();
        Ok(Some(Located {
            key,
            index_node: self
                .addr_of(*path.last().ok_or(OverlayError::NoIndexNodes)?)
                .ok_or(OverlayError::NoIndexNodes)?,
            providers,
            hops,
            arrival,
        }))
    }

    /// Counts a query hit on `key` at its owning index node; when the key
    /// crosses the hot threshold, its row is pushed to the owner's
    /// successor-list neighbors (one [`wire::ENTRY`]-per-provider message
    /// each) so later walks terminate early.
    fn record_key_hit(&self, key: Id, owner: Id, row: &[Provider], at: SimTime) {
        let mut hot_slot = self.hot.borrow_mut();
        let Some(hot) = hot_slot.as_mut() else { return };
        let hits = hot.hits.entry(key).or_insert(0);
        *hits += 1;
        if *hits < hot.threshold || hot.replicas.contains_key(&key) || row.is_empty() {
            return;
        }
        let succs: Vec<Id> = self
            .ring
            .node(owner)
            .map(|s| s.successors.clone())
            .unwrap_or_default()
            .into_iter()
            .filter(|s| *s != owner)
            .collect();
        if succs.is_empty() {
            return;
        }
        let bytes = wire::ENTRY * row.len();
        if let Some(from) = self.addr_of(owner) {
            for s in &succs {
                if let Some(to) = self.addr_of(*s) {
                    self.net.send(from, to, bytes, at);
                }
            }
        }
        hot.replicas.insert(key, succs);
        rdfmesh_obs::metrics().add("overlay.hot.replications", 1);
    }

    /// Resolves the providers holding triples `(?s, predicate, ?o)` with
    /// numeric `?o ∈ [lo, hi]`, via the bucketed range keys. Returns
    /// `None` when the range index is not enabled. Providers are the
    /// union over overlapping buckets (a superset of the exact answer —
    /// the shipped filter removes bucket-granularity false positives).
    pub fn locate_numeric_range(
        &self,
        from: NodeId,
        predicate: &rdfmesh_rdf::Term,
        lo: f64,
        hi: f64,
        depart: SimTime,
    ) -> Result<Option<Located>, OverlayError> {
        let Some(buckets) = self.buckets else { return Ok(None) };
        let from_id = *self.addr_index.get(&from).ok_or(OverlayError::UnknownIndexNode(from))?;
        let space = self.ring.space();
        let mut providers: Vec<Provider> = Vec::new();
        let mut hops = 0usize;
        let mut arrival = depart;
        let mut last_owner = from_id;
        let span = rdfmesh_obs::begin_current(
            rdfmesh_obs::phase::KEY_RESOLUTION,
            &format!("locate range {predicate} [{lo}, {hi}]"),
            depart.0,
        );
        for bucket in buckets.buckets_for_range(lo, hi) {
            let key = buckets.key(space, predicate, bucket);
            let path = self.ring.lookup_path_from(from_id, key)?;
            last_owner = *path.last().expect("non-empty");
            hops += path.len() - 1;
            // Bucket lookups run in parallel.
            arrival = arrival.max(self.walk(&path, depart)?);
            for &p in self.row(last_owner, key) {
                match providers.iter_mut().find(|q| q.node == p.node) {
                    Some(q) => q.frequency += p.frequency,
                    None => providers.push(p),
                }
            }
        }
        rdfmesh_obs::end_current(span, arrival.0);
        let metrics = rdfmesh_obs::metrics();
        metrics.add("overlay.locates", 1);
        metrics.add("overlay.index_hops", hops as u64);
        metrics.observe("overlay.index_hops_per_locate", hops as u64);
        providers.sort_by_key(|p| p.node);
        Ok(Some(Located {
            key: IndexKey { kind: KeyKind::PON, id: buckets.key(space, predicate, 0) },
            index_node: self.addr_of(last_owner).ok_or(OverlayError::NoIndexNodes)?,
            providers,
            hops,
            arrival,
        }))
    }

    /// The primary location table of an index node (for inspection and
    /// the Table I example).
    pub fn location_table(&self, addr: NodeId) -> Option<&LocationTable> {
        self.addr_index.get(&addr).and_then(|id| self.tables.get(id))
    }

    /// Total location-table entries across all index nodes (primaries).
    pub fn total_index_entries(&self) -> usize {
        self.tables.values().map(LocationTable::entry_count).sum()
    }

    /// Per-index-node primary entry counts, for load-balance studies.
    pub fn index_load(&self) -> Vec<(NodeId, usize)> {
        self.index_addr
            .iter()
            .map(|(id, &addr)| (addr, self.tables.get(id).map_or(0, LocationTable::entry_count)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfmesh_net::LatencyModel;
    use rdfmesh_rdf::{Term, TermPattern};

    fn net() -> Network {
        Network::new(LatencyModel::Uniform(SimTime::millis(1)), 12.5)
    }

    fn person(n: &str) -> Term {
        Term::iri(&format!("http://example.org/{n}"))
    }

    fn knows() -> Term {
        Term::iri("http://xmlns.com/foaf/0.1/knows")
    }

    /// The paper's Fig. 1 overlay: index N1,N4,N7,N12,N15; storage D1-D4.
    fn fig1() -> (Overlay, [NodeId; 4]) {
        let mut o = Overlay::new(16, 3, 2, net());
        // Index addresses 101..105 on ring positions 1,4,7,12,15 scaled
        // into the 16-bit space (positions only matter relatively).
        for (addr, pos) in [(101, 1u64), (104, 4), (107, 7), (112, 12), (115, 15)] {
            o.add_index_node(NodeId(addr), Id(pos * 4096)).unwrap();
        }
        let d = [NodeId(1), NodeId(2), NodeId(3), NodeId(4)];
        let people = ["alice", "bob", "carol", "dave"];
        for (i, &addr) in d.iter().enumerate() {
            let me = person(people[i]);
            let triples: Vec<Triple> = people
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, other)| Triple::new(me.clone(), knows(), person(other)))
                .collect();
            o.add_storage_node(addr, NodeId(101), triples).unwrap();
        }
        (o, d)
    }

    #[test]
    fn publish_creates_six_keys_per_triple() {
        let mut o = Overlay::new(16, 2, 1, net());
        o.add_index_node(NodeId(100), Id(0)).unwrap();
        let t = Triple::new(person("a"), knows(), person("b"));
        let report = o.add_storage_node(NodeId(1), NodeId(100), vec![t]).unwrap();
        assert_eq!(report.keys, 6);
        assert_eq!(o.total_index_entries(), 6);
    }

    #[test]
    fn locate_finds_providers_with_frequencies() {
        let (o, d) = fig1();
        // (?x knows bob): alice, carol and dave each have exactly one.
        let pat = TriplePattern::new(TermPattern::var("x"), knows(), person("bob"));
        let located = o.locate(NodeId(101), &pat, SimTime::ZERO).unwrap().unwrap();
        let mut providers: Vec<NodeId> = located.providers.iter().map(|p| p.node).collect();
        providers.sort();
        assert_eq!(providers, vec![d[0], d[2], d[3]]);
        assert!(located.providers.iter().all(|p| p.frequency == 1));
    }

    #[test]
    fn locate_uses_frequency_aggregation() {
        let mut o = Overlay::new(16, 2, 1, net());
        o.add_index_node(NodeId(100), Id(0)).unwrap();
        // One node with 3 triples sharing predicate `knows`.
        let triples = vec![
            Triple::new(person("a"), knows(), person("b")),
            Triple::new(person("a"), knows(), person("c")),
            Triple::new(person("b"), knows(), person("c")),
        ];
        o.add_storage_node(NodeId(1), NodeId(100), triples).unwrap();
        let pat = TriplePattern::new(TermPattern::var("s"), knows(), TermPattern::var("o"));
        let located = o.locate(NodeId(100), &pat, SimTime::ZERO).unwrap().unwrap();
        assert_eq!(located.providers.len(), 1);
        assert_eq!(located.providers[0].frequency, 3);
    }

    #[test]
    fn all_variable_pattern_has_no_locate() {
        let (o, _) = fig1();
        let pat = TriplePattern::new(
            TermPattern::var("s"),
            TermPattern::var("p"),
            TermPattern::var("o"),
        );
        assert!(o.locate(NodeId(101), &pat, SimTime::ZERO).unwrap().is_none());
    }

    #[test]
    fn locate_charges_routing_messages() {
        let (o, _) = fig1();
        o.net.reset();
        let pat = TriplePattern::new(TermPattern::var("x"), knows(), person("bob"));
        let located = o.locate(NodeId(101), &pat, SimTime::ZERO).unwrap().unwrap();
        assert_eq!(o.net.stats().messages as usize, located.hops);
        if located.hops > 0 {
            assert!(located.arrival > SimTime::ZERO);
        }
    }

    #[test]
    fn index_join_transfers_key_range() {
        let (mut o, _) = fig1();
        let before_entries = o.total_index_entries();
        let report = o.add_index_node(NodeId(109), Id(9 * 4096)).unwrap();
        // The ring has data for many keys; the new node between N7 and N12
        // should receive the keys in (7*4096, 9*4096].
        assert_eq!(o.total_index_entries(), before_entries);
        let own_table = o.location_table(NodeId(109)).unwrap();
        assert_eq!(own_table.key_count(), report.transferred_keys);
        // Every key it now owns must hash into its range.
        let space = o.ring().space();
        for (k, _) in own_table.iter() {
            assert!(space.in_open_closed(k, Id(7 * 4096), Id(9 * 4096)));
        }
        // Lookups still resolve every pattern correctly.
        let pat = TriplePattern::new(TermPattern::var("x"), knows(), person("bob"));
        let located = o.locate(NodeId(101), &pat, SimTime::ZERO).unwrap().unwrap();
        assert_eq!(located.providers.len(), 3);
    }

    #[test]
    fn graceful_index_leave_hands_over_table() {
        let (mut o, _) = fig1();
        let before = o.total_index_entries();
        o.remove_index_node(NodeId(107)).unwrap();
        assert_eq!(o.total_index_entries(), before);
        let pat = TriplePattern::new(TermPattern::var("x"), knows(), person("bob"));
        let located = o.locate(NodeId(101), &pat, SimTime::ZERO).unwrap().unwrap();
        assert_eq!(located.providers.len(), 3);
    }

    #[test]
    fn index_failure_recovers_via_replicas() {
        let (mut o, _) = fig1();
        let before = o.total_index_entries();
        o.fail_index_node(NodeId(112)).unwrap();
        o.repair();
        assert_eq!(o.total_index_entries(), before, "replication must recover all entries");
        for pat in [
            TriplePattern::new(TermPattern::var("x"), knows(), person("bob")),
            TriplePattern::new(person("alice"), knows(), TermPattern::var("y")),
            TriplePattern::new(TermPattern::var("x"), knows(), TermPattern::var("y")),
        ] {
            let located = o.locate(NodeId(101), &pat, SimTime::ZERO).unwrap().unwrap();
            assert!(!located.providers.is_empty(), "pattern {pat} lost its providers");
        }
    }

    #[test]
    fn index_failure_without_replication_loses_entries() {
        let mut o = Overlay::new(16, 3, 1, net());
        for (addr, pos) in [(101, 1u64), (107, 7), (112, 12)] {
            o.add_index_node(NodeId(addr), Id(pos * 4096)).unwrap();
        }
        o.add_storage_node(
            NodeId(1),
            NodeId(101),
            vec![Triple::new(person("a"), knows(), person("b"))],
        )
        .unwrap();
        let before = o.total_index_entries();
        assert_eq!(before, 6);
        o.fail_index_node(NodeId(107)).unwrap();
        o.repair();
        // Whatever N107 owned is gone for good with replication = 1.
        assert!(o.total_index_entries() <= before);
    }

    #[test]
    fn storage_failure_leaves_stale_entries_until_purge() {
        let (mut o, d) = fig1();
        let pat = TriplePattern::new(TermPattern::var("x"), knows(), person("bob"));
        o.fail_storage_node(d[0]).unwrap();
        // Entries still present (inconsistent window).
        let located = o.locate(NodeId(101), &pat, SimTime::ZERO).unwrap().unwrap();
        assert!(located.providers.iter().any(|p| p.node == d[0]));
        assert!(!o.is_storage_alive(d[0]));
        assert!(o.match_at(d[0], &pat).is_none());
        // After the timeout-driven purge they are gone.
        let removed = o.purge_storage_entries(d[0]);
        assert!(removed > 0);
        let located = o.locate(NodeId(101), &pat, SimTime::ZERO).unwrap().unwrap();
        assert!(located.providers.iter().all(|p| p.node != d[0]));
    }

    #[test]
    fn graceful_storage_leave_withdraws_entries() {
        let (mut o, d) = fig1();
        o.remove_storage_node(d[1]).unwrap();
        let pat = TriplePattern::new(person("bob"), knows(), TermPattern::var("y"));
        let located = o.locate(NodeId(101), &pat, SimTime::ZERO).unwrap().unwrap();
        assert!(located.providers.is_empty());
    }

    #[test]
    fn reattachment_after_index_departure() {
        let (mut o, d) = fig1();
        let attach_of = |o: &Overlay, a: NodeId| o.storage_node(a).unwrap().attached_to;
        let old = attach_of(&o, d[0]);
        let old_addr = o.addr_of(old).unwrap();
        o.remove_index_node(old_addr).unwrap();
        let new = attach_of(&o, d[0]);
        assert_ne!(new, old);
        assert!(o.ring().contains(new));
    }

    #[test]
    fn duplicate_addresses_rejected() {
        let (mut o, d) = fig1();
        assert!(matches!(
            o.add_index_node(NodeId(101), Id(3)),
            Err(OverlayError::AddressInUse(_))
        ));
        assert!(matches!(
            o.add_storage_node(d[0], NodeId(101), vec![]),
            Err(OverlayError::AddressInUse(_))
        ));
    }

    #[test]
    fn add_triples_updates_index_incrementally() {
        let (mut o, d) = fig1();
        let pat = TriplePattern::new(TermPattern::var("x"), knows(), person("eve"));
        let before = o.locate(NodeId(101), &pat, SimTime::ZERO).unwrap().unwrap();
        assert!(before.providers.is_empty());

        let report = o
            .add_triples(d[0], vec![Triple::new(person("alice"), knows(), person("eve"))])
            .unwrap();
        assert_eq!(report.keys, 6);
        let after = o.locate(NodeId(101), &pat, SimTime::ZERO).unwrap().unwrap();
        assert_eq!(after.providers.len(), 1);
        assert_eq!(after.providers[0].node, d[0]);
        assert_eq!(after.providers[0].frequency, 1);

        // Inserting the same triple again is a no-op.
        let report = o
            .add_triples(d[0], vec![Triple::new(person("alice"), knows(), person("eve"))])
            .unwrap();
        assert_eq!(report.keys, 0);
        let again = o.locate(NodeId(101), &pat, SimTime::ZERO).unwrap().unwrap();
        assert_eq!(again.providers[0].frequency, 1);
    }

    #[test]
    fn remove_triples_withdraws_index_entries() {
        let (mut o, d) = fig1();
        // Add a triple with a unique object, then take it back.
        let t = Triple::new(person("alice"), knows(), person("eve"));
        o.add_triples(d[0], vec![t.clone()]).unwrap();
        let pat = TriplePattern::new(TermPattern::var("x"), knows(), person("eve"));
        let before = o.locate(NodeId(101), &pat, SimTime::ZERO).unwrap().unwrap();
        assert_eq!(before.providers.len(), 1);

        o.remove_triples(d[0], vec![t]).unwrap();
        let after = o.locate(NodeId(101), &pat, SimTime::ZERO).unwrap().unwrap();
        assert!(after.providers.is_empty(), "the PO key had only this triple");
        assert!(o.match_at(d[0], &pat).unwrap().is_empty());

        // Removing a triple the node never had is a no-op.
        let report = o
            .remove_triples(d[1], vec![Triple::new(person("nobody"), knows(), person("x"))])
            .unwrap();
        assert_eq!(report.keys, 0);
    }

    #[test]
    fn frequency_decrements_but_survives_partial_removal() {
        let (mut o, d) = fig1();
        // alice knows bob & carol & dave → P-key frequency 3 at d[0].
        let pat = TriplePattern::new(TermPattern::var("x"), knows(), TermPattern::var("y"));
        let before = o.locate(NodeId(101), &pat, SimTime::ZERO).unwrap().unwrap();
        let freq_before = before.providers.iter().find(|p| p.node == d[0]).unwrap().frequency;
        o.remove_triples(d[0], vec![Triple::new(person("alice"), knows(), person("bob"))])
            .unwrap();
        let after = o.locate(NodeId(101), &pat, SimTime::ZERO).unwrap().unwrap();
        let freq_after = after.providers.iter().find(|p| p.node == d[0]).unwrap().frequency;
        assert_eq!(freq_after, freq_before - 1);
    }

    #[test]
    fn match_at_runs_local_evaluation() {
        let (o, d) = fig1();
        let pat = TriplePattern::new(person("alice"), knows(), TermPattern::var("y"));
        let matches = o.match_at(d[0], &pat).unwrap();
        assert_eq!(matches.len(), 3);
        // Other nodes hold no alice-subject triples.
        assert!(o.match_at(d[1], &pat).unwrap().is_empty());
    }
}
