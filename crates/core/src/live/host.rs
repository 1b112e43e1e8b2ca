//! The one host of the mesh's roles: whatever runs index, storage and
//! coordinator nodes on a [`Cluster`] — every peer of an in-process
//! [`crate::LiveMesh`], or the three nodes of one [`crate::MeshNode`]
//! process — is a [`Host`] built from a [`Placement`] and a [`Wire`].

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, RwLock};
use std::time::Instant;

use rdfmesh_net::{lock, rlock, wlock, Cluster, FaultPlan, Handler, NodeId, TransportSnapshot};
use rdfmesh_overlay::{key_for_pattern, Provider};
use rdfmesh_rdf::{SharedStore, TriplePattern};

use super::{
    owner_in_view, publish, CoordinatorCore, IndexNode, LiveMsg, LiveStorage, RingView, Role,
    RoundClient, SharedFlood, SharedTable, Transport,
};
use crate::config::LiveConfig;
use crate::stats::LiveStats;

/// Which nodes a [`Host`] runs, and the ring they route over.
pub(crate) struct Placement {
    /// The key ring's identifier space.
    pub(crate) space: rdfmesh_chord::IdSpace,
    /// `(ring position, index node)` of every index node of the ring.
    pub(crate) ring: Vec<(u64, NodeId)>,
    /// The index nodes this host runs.
    pub(crate) index: Vec<NodeId>,
    /// The storage nodes this host runs, each with its store. They are
    /// the flood list until a view is installed.
    pub(crate) storage: Vec<(NodeId, SharedStore)>,
    /// The coordinator this host runs, and the index node it asks first.
    pub(crate) coordinator: (NodeId, NodeId),
}

/// What carries a [`Host`]'s frames.
pub(crate) enum Wire {
    /// Channels between threads, or loopback sockets for every frame,
    /// under a fault plan.
    Local(Transport, FaultPlan),
    /// A listener bound to the first of these addresses that binds;
    /// frames to other processes go to the routes the host is given.
    Bound(Vec<SocketAddr>),
}

/// The roles of one [`Placement`] on one [`Cluster`], with the counters
/// they share ([`LiveStats`], the host's only ledger), the client that
/// fronts its coordinator, the view of the ring its roles route by, the
/// flood list and the location tables of its index nodes.
pub(crate) struct Host {
    pub(crate) client: RoundClient,
    pub(crate) cluster: Arc<Cluster<LiveMsg>>,
    space: rdfmesh_chord::IdSpace,
    pub(crate) ring_view: RingView,
    flood: SharedFlood,
    pub(crate) tables: HashMap<NodeId, SharedTable>,
}

impl Host {
    /// Builds every role of `placement` and starts them on `wire`. Only a
    /// socket wire can fail (binding its listener).
    pub(crate) fn start(placement: Placement, cfg: LiveConfig, wire: Wire) -> io::Result<Host> {
        let Placement { space, mut ring, index, storage, coordinator: (coordinator, entry) } =
            placement;
        ring.sort();
        let ring_view: RingView = Arc::new(RwLock::new(ring));
        let stats = Arc::new(LiveStats::default());
        let pending = Arc::default();
        let mut flood: Vec<NodeId> = storage.iter().map(|(id, _)| *id).collect();
        flood.sort();
        let flood: SharedFlood = Arc::new(RwLock::new(flood));
        let mut tables = HashMap::new();
        let mut nodes: Vec<(NodeId, Box<dyn Handler<LiveMsg>>)> = Vec::new();
        for ix in index {
            let table = SharedTable::default();
            tables.insert(ix, Arc::clone(&table));
            let node = IndexNode::new(ix, table, space, Arc::clone(&ring_view), Arc::clone(&stats));
            nodes.push((ix, Box::new(Role::Index(node))));
        }
        for (id, store) in storage {
            let node = LiveStorage::new(id, store, Arc::clone(&stats));
            nodes.push((id, Box::new(Role::Storage(node))));
        }
        let (flood_of, stats_of) = (Arc::clone(&flood), Arc::clone(&stats));
        let core = CoordinatorCore::new(coordinator, entry, cfg, space, flood_of, stats_of);
        let epoch = Instant::now();
        nodes.push((coordinator, Box::new(Role::Coordinator(core, Arc::clone(&pending), epoch))));
        let cluster = Arc::new(match wire {
            Wire::Local(Transport::Threads, plan) => Cluster::spawn_with(nodes, plan),
            Wire::Local(Transport::Sockets, plan) => Cluster::spawn_loopback(nodes, plan)?,
            Wire::Bound(listen) => Cluster::bind(&listen[..], nodes, FaultPlan::new())?,
        });
        let view = (space, Arc::clone(&ring_view));
        let client = RoundClient::new(cfg, pending, stats, Arc::clone(&cluster), coordinator, view);
        Ok(Host { client, cluster, space, ring_view, flood, tables })
    }

    /// Registers `storage` for `keys` at their owners in the current view.
    pub(crate) fn publish(&self, storage: NodeId, keys: &[(u64, u64)]) {
        publish(&self.cluster, &rlock(&self.ring_view), storage, keys);
    }

    /// Installs a new view of the ring: the routing view and the flood
    /// list every hosted role reads, each hosted index node keeping only
    /// the rows the view leaves it; then republishes `storage`'s `keys`
    /// to their owners in that view. Idempotent.
    pub(crate) fn install(
        &self,
        mut ring: Vec<(u64, NodeId)>,
        mut flood: Vec<NodeId>,
        storage: NodeId,
        keys: &[(u64, u64)],
    ) {
        ring.sort();
        flood.sort();
        *wlock(&self.ring_view) = ring.clone();
        for (&index, table) in &self.tables {
            lock(table).retain(|key| owner_in_view(&ring, key.0) == index);
        }
        *wlock(&self.flood) = flood;
        publish(&self.cluster, &ring, storage, keys);
    }

    /// The owner index node's current location-table row for `pattern`,
    /// sorted by node, when this host runs that index node.
    pub(crate) fn providers_of(&self, pattern: &TriplePattern) -> Vec<Provider> {
        let Some(key) = key_for_pattern(self.space, pattern) else { return Vec::new() };
        let owner = owner_in_view(&rlock(&self.ring_view), key.id.0);
        let Some(table) = self.tables.get(&owner) else { return Vec::new() };
        lock(table).providers(key.id).to_vec()
    }

    /// Socket-layer counters, or `None` over channels.
    pub(crate) fn transport_stats(&self) -> Option<TransportSnapshot> {
        self.cluster.transport_stats()
    }

    /// Stops every node thread.
    pub(crate) fn shutdown(&self) {
        self.cluster.shutdown();
    }
}
