//! A deployable mesh node: one OS process whose `live::Host` runs a storage
//! node, an index node and a coordinator behind one bound listener.
//!
//! [`crate::LiveMesh`] hosts a whole overlay's placement inside one
//! process; [`MeshNode`] hosts one peer's, and is the shape `rdfmesh
//! serve` runs and `docs/DEPLOYMENT.md` documents. Both are a `Host`:
//! the same roles, counters, client and view of the ring. A process
//! carries three logical nodes:
//!
//! * a **storage node** (`NodeId(n)`) holding the process's triples;
//! * an **index node** (`NodeId(INDEX_BASE + n)`) owning the slice of
//!   the key ring its position covers, routing [`LiveMsg::Lookup`] /
//!   [`LiveMsg::ProviderDead`] hop-by-hop to the current owner;
//! * a **coordinator** (`NodeId(COORD_BASE + n)`) running the per-query
//!   state machine for queries submitted *at this process*, through the
//!   [`RoundClient`] the node dereferences to.
//!
//! What a [`MeshNode`] adds to its host is membership — deliberately
//! simple, an ad-hoc sharing system, not a consensus group. A joiner
//! sends `JOIN` to any member; that member answers `WELCOME` with the
//! full roster and broadcasts `PEER_JOINED` to everyone else. Every
//! membership event is one view installed on the host, which drops the
//! rows the view gives another index node and **republishes** the local
//! keys ([`LiveMsg::Publish`] rows are idempotent), so location tables
//! converge on the final ring without coordination. One filed later from
//! a peer's older view lingers until the next change, unread, since
//! lookups and purges route to the *current* owner.
//!
//! [`LiveMsg::Lookup`]: crate::LiveMsg::Lookup
//! [`LiveMsg::ProviderDead`]: crate::LiveMsg::ProviderDead
//! [`LiveMsg::Publish`]: crate::LiveMsg::Publish

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rdfmesh_net::{lock, NodeId, TransportSnapshot};
use rdfmesh_rdf::codec::{put_str, put_u32, put_u64, DecodeError, Reader};
#[cfg(test)]
use rdfmesh_rdf::TripleStore;

use crate::config::LiveConfig;
use crate::live::host::{Host, Placement, Wire};
use crate::live::{index_keys, RoundClient};

/// Offset of a process's index-node id from its base id `n`.
pub const INDEX_BASE: u64 = 1 << 32;
/// Offset of a process's coordinator id from its base id `n`.
pub const COORD_BASE: u64 = 1 << 33;

// Control-frame tags (the `kind = CONTROL` payload's first byte).
const CTRL_JOIN: u8 = 1;
const CTRL_WELCOME: u8 = 2;
const CTRL_PEER_JOINED: u8 = 3;

/// Ring-position space shared by every serve-mode process. All members
/// must agree on it for key ownership to agree; 32 bits matches the
/// simulator's default overlay.
const RING_BITS: u32 = 32;

/// The smallest encoding of a [`Member`]: two `u64`s and an empty address.
const MEMBER_MIN_LEN: usize = 20;

/// One member of the mesh, as carried in control frames.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Member {
    /// Base id `n` (storage `NodeId(n)`, index `NodeId(INDEX_BASE+n)`,
    /// coordinator `NodeId(COORD_BASE+n)`).
    id: u64,
    /// Ring position of the member's index node.
    pos: u64,
    /// The member's listener, as dialable text (`host:port`).
    addr: String,
}

fn put_member(out: &mut Vec<u8>, m: &Member) {
    put_u64(out, m.id);
    put_u64(out, m.pos);
    put_str(out, &m.addr);
}

fn read_member(r: &mut Reader<'_>) -> Result<Member, DecodeError> {
    let id = r.u64()?;
    let pos = r.u64()?;
    let addr = r.str()?.to_string();
    Ok(Member { id, pos, addr })
}

/// A membership control message.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Control {
    /// A new member announces itself to any existing member.
    Join(Member),
    /// The contacted member's answer to the joiner: the full roster.
    Welcome(Vec<Member>),
    /// Broadcast to the rest of the roster when someone joins.
    PeerJoined(Member),
}

impl Control {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Control::Join(m) => {
                out.push(CTRL_JOIN);
                put_member(&mut out, m);
            }
            Control::Welcome(members) => {
                out.push(CTRL_WELCOME);
                put_u32(&mut out, members.len() as u32);
                for m in members {
                    put_member(&mut out, m);
                }
            }
            Control::PeerJoined(m) => {
                out.push(CTRL_PEER_JOINED);
                put_member(&mut out, m);
            }
        }
        out
    }

    fn decode(bytes: &[u8]) -> Result<Control, DecodeError> {
        let mut r = Reader::new(bytes);
        let ctrl = match r.u8()? {
            CTRL_JOIN => Control::Join(read_member(&mut r)?),
            CTRL_WELCOME => {
                let count = r.u32_count(MEMBER_MIN_LEN)?;
                let mut members = Vec::with_capacity(count);
                for _ in 0..count {
                    members.push(read_member(&mut r)?);
                }
                Control::Welcome(members)
            }
            CTRL_PEER_JOINED => Control::PeerJoined(read_member(&mut r)?),
            _ => return Err(DecodeError("unknown control tag")),
        };
        r.finish()?;
        Ok(ctrl)
    }
}

/// State the membership thread and the public handle both touch.
struct NodeShared {
    me: Member,
    /// Base id → member, including `me`.
    members: Mutex<HashMap<u64, Member>>,
    /// The local store's index-key ids and their frequencies, precomputed
    /// at start — what this process republishes after every membership
    /// change.
    keys: Vec<(u64, u64)>,
    /// How long the start-up pass that counted `keys` took.
    key_pass: Duration,
    host: Host,
}

impl NodeShared {
    /// Routes to every member's listener, then installs the roster's view
    /// of the ring on the host, which drops the local rows the view gives
    /// another index node and republishes the local keys to their current
    /// owners. Idempotent; called after every membership event.
    fn refresh(&self) {
        let members: Vec<Member> = lock(&self.members).values().cloned().collect();
        let cluster = &self.host.cluster;
        for m in members.iter().filter(|m| m.id != self.me.id) {
            if let Some(addr) = resolve(&m.addr) {
                cluster.add_peer(NodeId(m.id), addr);
                cluster.add_peer(NodeId(INDEX_BASE + m.id), addr);
                cluster.add_peer(NodeId(COORD_BASE + m.id), addr);
            }
        }
        let ring = members.iter().map(|m| (m.pos, NodeId(INDEX_BASE + m.id))).collect();
        let flood = members.iter().map(|m| NodeId(m.id)).collect();
        self.host.install(ring, flood, NodeId(self.me.id), &self.keys);
    }

    fn roster(&self) -> Vec<Member> {
        let mut members: Vec<Member> = lock(&self.members).values().cloned().collect();
        members.sort_by_key(|m| m.id);
        members
    }

    /// Sends `ctrl` to the member listening at `addr`.
    fn send(&self, addr: &str, ctrl: &Control) {
        if let Some(addr) = resolve(addr) {
            self.host.cluster.send_control(addr, &ctrl.encode());
        }
    }

    /// Applies one control message, answering `JOIN` with `WELCOME` and
    /// fanning `PEER_JOINED` out to the rest of the roster.
    fn on_control(&self, ctrl: Control) {
        match ctrl {
            Control::Join(member) => {
                let (fresh, others) = {
                    let mut members = lock(&self.members);
                    // A known id at a new address is a member that
                    // restarted: the rest of the roster still routes to
                    // its old listener and owes its empty index slice a
                    // republish, so it is announced like a newcomer.
                    let fresh = members
                        .insert(member.id, member.clone())
                        .is_none_or(|known| known.addr != member.addr);
                    let others: Vec<Member> = members
                        .values()
                        .filter(|m| m.id != self.me.id && m.id != member.id)
                        .cloned()
                        .collect();
                    (fresh, others)
                };
                self.refresh();
                self.send(&member.addr, &Control::Welcome(self.roster()));
                if fresh {
                    for other in others {
                        self.send(&other.addr, &Control::PeerJoined(member.clone()));
                    }
                }
            }
            Control::Welcome(roster) => {
                lock(&self.members).extend(roster.into_iter().map(|m| (m.id, m)));
                self.refresh();
            }
            Control::PeerJoined(member) => {
                lock(&self.members).insert(member.id, member);
                self.refresh();
            }
        }
    }
}

fn resolve(addr: &str) -> Option<SocketAddr> {
    addr.to_socket_addrs().ok()?.next()
}

/// One deployable mesh process: storage + index + coordinator behind a
/// TCP listener, with ad-hoc membership. Queries submitted at this
/// process go through the [`RoundClient`] it dereferences to. See the
/// module docs and `docs/DEPLOYMENT.md`.
pub struct MeshNode {
    shared: Arc<NodeShared>,
    closing: Arc<AtomicBool>,
    membership: Mutex<Option<JoinHandle<()>>>,
}

impl std::ops::Deref for MeshNode {
    type Target = RoundClient;

    fn deref(&self) -> &RoundClient {
        &self.shared.host.client
    }
}

impl MeshNode {
    /// Binds `listen` and starts the process's three logical nodes. The
    /// node begins as a mesh of one (itself); call [`MeshNode::join`] to
    /// enter an existing mesh through any member.
    ///
    /// `id` is the process's base node id and must be unique across the
    /// mesh and below [`INDEX_BASE`] (`InvalidInput` otherwise); `store`
    /// is the process's local triples — an in-memory
    /// [`rdfmesh_rdf::TripleStore`] or any
    /// [`SharedStore`](rdfmesh_rdf::SharedStore) handle (e.g. a
    /// persistent `rdfmesh-store` backend).
    pub fn start(
        listen: impl ToSocketAddrs,
        id: u64,
        store: impl Into<rdfmesh_rdf::SharedStore>,
        cfg: LiveConfig,
    ) -> io::Result<MeshNode> {
        if id >= INDEX_BASE {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("node id {id} is not below {INDEX_BASE} (index-node ids start there)"),
            ));
        }
        let store = store.into();
        let space = rdfmesh_chord::IdSpace::new(RING_BITS);
        let index_id = NodeId(INDEX_BASE + id);
        let pos = space.hash(&id.to_be_bytes()).0;

        let started = Instant::now();
        let keys = index_keys(space, &store);
        let key_pass = started.elapsed();

        let placement = Placement {
            space,
            ring: vec![(pos, index_id)],
            index: vec![index_id],
            storage: vec![(NodeId(id), store)],
            coordinator: (NodeId(COORD_BASE + id), index_id),
        };
        let listen = listen.to_socket_addrs()?.collect();
        let host = Host::start(placement, cfg, Wire::Bound(listen))?;
        let addr = host.cluster.local_addr().expect("a bound cluster has a listener");
        let me = Member { id, pos, addr: addr.to_string() };
        let members = Mutex::new(HashMap::from([(id, me.clone())]));
        let shared = Arc::new(NodeShared { me, members, keys, key_pass, host });
        // Seed this process's own location-table slice.
        shared.refresh();

        let closing = Arc::new(AtomicBool::new(false));
        let membership = {
            let shared = Arc::clone(&shared);
            let closing = Arc::clone(&closing);
            std::thread::spawn(move || {
                while !closing.load(Ordering::Relaxed) {
                    let control = shared.host.cluster.recv_control(Duration::from_millis(200));
                    if let Some(ctrl) = control.and_then(|bytes| Control::decode(&bytes).ok()) {
                        shared.on_control(ctrl);
                    }
                }
            })
        };
        Ok(MeshNode { shared, closing, membership: Mutex::new(Some(membership)) })
    }

    /// Announces this node to the member listening at `seed`. Membership
    /// converges asynchronously; poll [`MeshNode::member_count`] to
    /// observe the roster growing.
    pub fn join(&self, seed: impl ToSocketAddrs) -> bool {
        let Some(addr) = seed.to_socket_addrs().ok().and_then(|mut a| a.next()) else {
            return false;
        };
        let join = Control::Join(self.shared.me.clone()).encode();
        self.shared.host.cluster.send_control(addr, &join)
    }

    /// Members this node currently knows, itself included.
    pub fn member_count(&self) -> usize {
        lock(&self.shared.members).len()
    }

    /// The address the process listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.host.cluster.local_addr().expect("a bound cluster has a listener")
    }

    /// This node's base id.
    pub fn id(&self) -> u64 {
        self.shared.me.id
    }

    /// How many index-key ids the local store publishes, and how long the
    /// start-up pass that counted them took.
    pub fn key_pass(&self) -> (usize, Duration) {
        (self.shared.keys.len(), self.shared.key_pass)
    }

    /// Socket-layer counters (`transport.*` metric names).
    pub fn transport_stats(&self) -> TransportSnapshot {
        self.shared.host.transport_stats().expect("a bound cluster has a socket wire")
    }

    /// Stops the membership thread and every node thread.
    pub fn shutdown(&self) {
        self.closing.store(true, Ordering::Relaxed);
        if let Some(handle) = lock(&self.membership).take() {
            let _ = handle.join();
        }
        self.shared.host.shutdown();
    }
}

impl Drop for MeshNode {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::owner_in_view;
    use rdfmesh_chord::Id;
    use rdfmesh_net::rlock;
    use rdfmesh_overlay::LocationTable;
    use rdfmesh_rdf::{Term, Triple};

    /// A copy of `node`'s index-node location table.
    fn table(node: &MeshNode) -> LocationTable {
        lock(&node.shared.host.tables[&NodeId(INDEX_BASE + node.id())]).clone()
    }

    fn store(rows: &[(&str, &str, &str)]) -> TripleStore {
        let mut s = TripleStore::new();
        for (subj, pred, obj) in rows {
            s.insert(&Triple::new(
                Term::iri(&format!("http://example.org/{subj}")),
                Term::iri(&format!("http://example.org/{pred}")),
                Term::iri(&format!("http://example.org/{obj}")),
            ));
        }
        s
    }

    fn wait_members(nodes: &[&MeshNode], want: usize) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while nodes.iter().any(|n| n.member_count() < want) {
            assert!(std::time::Instant::now() < deadline, "membership never converged");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn control_frames_round_trip() {
        let m = Member { id: 7, pos: 42, addr: "127.0.0.1:9999".into() };
        for ctrl in [
            Control::Join(m.clone()),
            Control::Welcome(vec![m.clone(), Member { id: 8, pos: 1, addr: "h:1".into() }]),
            Control::PeerJoined(m),
        ] {
            assert_eq!(Control::decode(&ctrl.encode()).unwrap(), ctrl);
        }
        assert!(Control::decode(&[0xEE]).is_err());
        assert!(Control::decode(&[]).is_err());
    }

    #[test]
    fn a_welcome_count_the_frame_cannot_hold_is_refused_before_allocating() {
        use crate::live_wire::{allocated_by, ALLOC_PER_FRAME_BYTE};
        // The unit a roster's count is checked against is the smallest member.
        let mut smallest = Vec::new();
        put_member(&mut smallest, &Member { id: 0, pos: 0, addr: String::new() });
        assert_eq!(smallest.len(), MEMBER_MIN_LEN);
        let mut bytes = vec![CTRL_WELCOME];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let (decoded, allocated) = allocated_by(|| Control::decode(&bytes));
        assert_eq!(decoded.unwrap_err().0, "count exceeds the bytes left");
        assert!(allocated <= ALLOC_PER_FRAME_BYTE * bytes.len(), "{allocated} B");
    }

    /// One of each membership frame: a JOIN, a PEER_JOINED, and WELCOMEs of
    /// 0, 1 and 3 members, multibyte addresses among them.
    fn control_frames() -> Vec<Control> {
        let member = |id: u64, addr: &str| Member { id, pos: !id, addr: addr.into() };
        let roster = vec![
            member(1, "127.0.0.1:7301"),
            member(u64::MAX, "hôte-ü.example:7302"),
            member(0, "[::1]:7303"),
        ];
        vec![
            Control::Join(member(7, "knoten-ß.example:9999")),
            Control::PeerJoined(member(8, "h:1")),
            Control::Welcome(Vec::new()),
            Control::Welcome(roster[1..2].to_vec()),
            Control::Welcome(roster),
        ]
    }

    /// Every truncation and every single-byte mutation of every control
    /// frame: `Control::decode` refuses the bytes or returns a frame that
    /// encodes to exactly them, never panics, and allocates at most
    /// `ALLOC_PER_FRAME_BYTE` per byte of what it was given.
    #[test]
    fn mutated_and_truncated_control_frames_decode_to_themselves_or_are_refused() {
        use crate::live_wire::{allocated_by, ALLOC_PER_FRAME_BYTE};
        let (mut refused, mut accepted) = (0, 0);
        for frame in control_frames().iter().map(Control::encode) {
            let truncations = (0..frame.len()).map(|len| frame[..len].to_vec());
            let mutations = (0..frame.len()).flat_map(|at| {
                let frame = &frame;
                (0..=u8::MAX).filter(move |&b| b != frame[at]).map(move |b| {
                    let mut bytes = frame.clone();
                    bytes[at] = b;
                    bytes
                })
            });
            for bytes in truncations.chain(mutations) {
                let (decoded, allocated) = allocated_by(|| Control::decode(&bytes));
                assert!(
                    allocated <= ALLOC_PER_FRAME_BYTE * bytes.len(),
                    "decoding a {} B frame allocated {allocated} B",
                    bytes.len()
                );
                match decoded {
                    Err(_) => refused += 1,
                    Ok(ctrl) => {
                        accepted += 1;
                        assert_eq!(ctrl.encode(), bytes, "a decoded mutant re-encodes to itself");
                    }
                }
            }
        }
        assert!(refused > 0 && accepted > 0, "{refused} refused, {accepted} accepted");
    }

    fn arb_member() -> impl proptest::strategy::Strategy<Value = Member> {
        use proptest::prelude::*;
        // Addresses of one- to four-byte characters.
        let addr = "[a-z0-9.:\\-ß-ü一-龥😀-🙏]{0,24}";
        (any::<u64>(), any::<u64>(), addr).prop_map(|(id, pos, addr)| Member { id, pos, addr })
    }

    proptest::proptest! {
        #[test]
        fn control_frames_of_arbitrary_members_round_trip(
            joining in arb_member(),
            roster in proptest::collection::vec(arb_member(), 0..6),
        ) {
            for ctrl in [
                Control::Join(joining.clone()),
                Control::PeerJoined(joining.clone()),
                Control::Welcome(roster.clone()),
            ] {
                proptest::prop_assert_eq!(Control::decode(&ctrl.encode()), Ok(ctrl));
            }
        }
    }

    #[test]
    fn three_processes_answer_a_conjunctive_query() {
        let n1 = MeshNode::start(
            "127.0.0.1:0",
            1,
            store(&[("alice", "knows", "bob")]),
            LiveConfig::default(),
        )
        .unwrap();
        let n2 = MeshNode::start(
            "127.0.0.1:0",
            2,
            store(&[("bob", "knows", "carol")]),
            LiveConfig::default(),
        )
        .unwrap();
        let n3 = MeshNode::start(
            "127.0.0.1:0",
            3,
            store(&[("carol", "age", "forty")]),
            LiveConfig::default(),
        )
        .unwrap();
        assert!(n2.join(n1.local_addr()));
        assert!(n3.join(n1.local_addr()));
        wait_members(&[&n1, &n2, &n3], 3);

        let query = "PREFIX ex: <http://example.org/> \
                     SELECT ?x ?y WHERE { ?x ex:knows ?y . ?y ex:knows ?z }";
        // Query from a node that holds neither pattern's full answer:
        // both rounds must cross process boundaries.
        let exec = n3.execute(query, false, Duration::from_secs(10)).unwrap();
        assert!(exec.complete, "no faults planned: {:?}", exec.failed_providers);
        let rows = exec.result.solutions().expect("SELECT result");
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].get_by_name("x").unwrap(),
            &Term::iri("http://example.org/alice")
        );
        n1.shutdown();
        n2.shutdown();
        n3.shutdown();
    }

    #[test]
    fn forged_submits_from_a_socket_open_no_round() {
        use crate::live::QueryId;
        use crate::live_wire::wire_v4;
        let a = MeshNode::start("127.0.0.1:0", 1, store(&[]), LiveConfig::default()).unwrap();
        let b = MeshNode::start(
            "127.0.0.1:0",
            2,
            store(&[("bob", "knows", "carol")]),
            LiveConfig::default(),
        )
        .unwrap();
        assert!(b.join(a.local_addr()));
        wait_members(&[&a, &b], 2);
        // B's row has reached the index before anything is forged.
        let query = "SELECT * WHERE { ?s <http://example.org/knows> ?o }";
        let parsed = rdfmesh_sparql::parse_query(query).unwrap();
        let rdfmesh_sparql::algebra::GraphPattern::Bgp(tps) = &parsed.pattern else {
            panic!("a single-pattern query")
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while a.execute(query, true, Duration::from_secs(10)).unwrap().result.len() != 1 {
            assert!(std::time::Instant::now() < deadline, "B's row never became visible at A");
            std::thread::sleep(Duration::from_millis(10));
        }
        let (shipped, errors) = (b.stats().solutions_shipped, a.transport_stats().decode_errors);

        // A stranger finishes the handshake with A and submits, in wire
        // version 4's layout for the two submit commands, rounds at A's
        // coordinator for the pattern only B holds.
        let forged = [
            wire_v4::submit_sol_batch(QueryId(9001), &tps[0]),
            wire_v4::submit_multi(QueryId(9002), &tps[0]),
        ];
        let _peer = wire_v4::forge_at(a.local_addr(), NodeId(COORD_BASE + 1), &forged);
        // Both are refused where they are decoded, so B is never asked.
        while a.transport_stats().decode_errors < errors + 2 {
            assert!(std::time::Instant::now() < deadline, "{:?}", a.transport_stats());
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(a.transport_stats().decode_errors, errors + 2);
        assert_eq!(b.stats().solutions_shipped, shipped, "B answered a round nobody asked for");
        a.shutdown();
        b.shutdown();
    }

    /// Twelve triples with predicates all of node `n`'s own, so every
    /// node's rows hang off index keys spread over the whole ring.
    fn numbered_store(n: u64) -> TripleStore {
        let rows: Vec<[String; 3]> =
            (0..12).map(|k| ["s", "p", "o"].map(|part| format!("{part}{n}_{k}"))).collect();
        let rows: Vec<(&str, &str, &str)> =
            rows.iter().map(|[s, p, o]| (s.as_str(), p.as_str(), o.as_str())).collect();
        store(&rows)
    }

    /// The table each of `nodes`' index nodes holds once the mesh has
    /// settled: every store's keys at their owner in that node's view.
    fn owned_rows(nodes: &[MeshNode], node: &MeshNode) -> LocationTable {
        let index = NodeId(INDEX_BASE + node.id());
        let ring = rlock(&node.shared.host.ring_view).clone();
        let mut table = LocationTable::new();
        for provider in nodes {
            for &(key, frequency) in &provider.shared.keys {
                if owner_in_view(&ring, key) == index {
                    table.set(Id(key), NodeId(provider.id()), frequency);
                }
            }
        }
        table
    }

    #[test]
    fn index_nodes_drop_the_rows_they_no_longer_own() {
        let start = |id| {
            MeshNode::start("127.0.0.1:0", id, numbered_store(id), LiveConfig::default()).unwrap()
        };
        // Process 2's slice of the final ring is the smallest (38 of the
        // 216 keys), so it starts the mesh: alone, it files all 72 of its own.
        let nodes = [start(2), start(1), start(3)];
        // One joiner at a time, each view's publications filed before the
        // next member joins: a row filed from an older view may linger
        // until the next change, and none can arrive late here.
        for joined in 2..=nodes.len() {
            let mesh = &nodes[..joined];
            assert!(mesh[joined - 1].join(nodes[0].local_addr()));
            wait_members(&mesh.iter().collect::<Vec<_>>(), joined);
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            for node in mesh {
                while table(node) != owned_rows(mesh, node) {
                    let id = node.id();
                    assert!(std::time::Instant::now() < deadline, "node {id} never settled");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
            for node in mesh {
                let index = NodeId(INDEX_BASE + node.id());
                assert!(node.shared.host.cluster.barrier(index, Duration::from_secs(5)));
            }
        }
        for node in &nodes {
            let ring = rlock(&node.shared.host.ring_view).clone();
            let index = NodeId(INDEX_BASE + node.id());
            let table = table(node);
            assert!(table.iter().all(|(key, _)| owner_in_view(&ring, key.0) == index));
        }
        let first = table(&nodes[0]).key_count();
        assert!(first < nodes[0].shared.keys.len(), "{first} rows kept");
    }

    #[test]
    fn member_restarted_at_a_new_address_is_announced_to_the_whole_roster() {
        let start = |id| {
            MeshNode::start("127.0.0.1:0", id, numbered_store(id), LiveConfig::default()).unwrap()
        };
        let (a, b, c) = (start(1), start(2), start(3));
        assert!(b.join(a.local_addr()));
        assert!(c.join(a.local_addr()));
        wait_members(&[&a, &b, &c], 3);

        // C comes back under its old id on another port — bound before
        // the old listener closes, so the port cannot repeat — with an
        // empty index slice, and joins through A. B hears of it only if
        // A passes the news on.
        let restarted = start(3);
        c.shutdown();
        assert!(restarted.join(a.local_addr()));
        wait_members(&[&restarted], 3);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while b.shared.host.cluster.route_of(NodeId(3)) != Some(restarted.local_addr()) {
            assert!(std::time::Instant::now() < deadline, "B never learned C's new address");
            std::thread::sleep(Duration::from_millis(10));
        }

        // Coordinated at B, every node's rows: C's own (served from the
        // new address), and those whose index key the rejoiner's slice
        // owns (looked up there, after A and B republished to it).
        let mut central = TripleStore::new();
        for n in 1..=3 {
            for t in numbered_store(n).iter() {
                central.insert(&t);
            }
        }
        let mut rejoiner_owns = 0;
        for n in 1..=3 {
            for k in 0..12 {
                let query =
                    format!("SELECT * WHERE {{ ?s <http://example.org/p{n}_{k}> ?o . }}");
                let parsed = rdfmesh_sparql::parse_query(&query).unwrap();
                let rdfmesh_sparql::algebra::GraphPattern::Bgp(tps) = &parsed.pattern else {
                    panic!("a single-pattern query")
                };
                rejoiner_owns +=
                    usize::from(b.index_owner_of(&tps[0]) == Some(NodeId(INDEX_BASE + 3)));
                let expected = rdfmesh_sparql::evaluate_query(&central, &parsed);
                // Publication trails the roster: poll, but only so long.
                loop {
                    let exec = b.execute(&query, true, Duration::from_secs(10)).unwrap();
                    if exec.complete && exec.result == expected {
                        break;
                    }
                    assert!(std::time::Instant::now() < deadline, "B never answered {query}");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
        assert!(rejoiner_owns > 0, "the rejoiner's index slice must be exercised");
        a.shutdown();
        b.shutdown();
        restarted.shutdown();
    }
}
