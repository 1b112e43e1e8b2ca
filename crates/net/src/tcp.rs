//! A TCP socket transport implementing the same cluster/[`Outbox`](crate::Outbox)
//! contract as the thread-backed [`Cluster`].
//!
//! Every process binds one listener; logical nodes (storage, index,
//! coordinator) live inside the process as mailbox threads exactly as in
//! the thread cluster, and envelopes addressed to nodes routed to a
//! remote address leave through a framed TCP connection instead of a
//! channel. Two modes:
//!
//! * [`TcpCluster::spawn_loopback`] — every node is local **and** routed
//!   through the process's own listener, so all inter-node traffic
//!   genuinely crosses a socket. This is the twin-test mode: the PR 4
//!   fault suite runs unmodified because the shared [`FaultPlan`] still
//!   adjudicates each send before it reaches the wire.
//! * [`TcpCluster::bind`] — serve mode: local nodes use mailboxes,
//!   remote nodes are registered with [`TcpCluster::add_peer`], and an
//!   opaque control channel carries membership messages between
//!   processes (`rdfmesh serve --join`).
//!
//! Wire format (normative spec in `docs/DEPLOYMENT.md`): a connection
//! starts with a 6-byte handshake `"RDFM" <version> <reserved>`; after
//! that, each frame is `[u32 LE length][u8 kind][body]` where `length`
//! counts the kind byte plus the body. Envelope bodies are
//! `[u64 LE from][u64 LE to][payload]` with the payload encoded by the
//! message type's [`WireMsg`] impl. Connections are one-directional:
//! replies flow over the receiving process's own dial-back link, and a
//! failed write triggers one reconnect attempt before the send is
//! reported failed (the contract's "detectable timeout").

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};

use crate::cluster::{Cluster, ClusterParts, Envelope, Handler, Packet, RemoteRoute};
use crate::fault::FaultPlan;
use crate::network::NodeId;

/// Connection-handshake magic: the first four bytes on every connection.
pub const WIRE_MAGIC: [u8; 4] = *b"RDFM";
/// Wire-format version, negotiated (exact-match) by the handshake.
/// Version 2 added the batched solution frames (payload tags 12–14): a
/// v1 peer would reject the new tags mid-stream, so the handshake
/// refuses the mix up front. Version 3 replaced the solution-set layout
/// inside every solution-carrying payload with the compact dictionary frame
/// (`docs/DEPLOYMENT.md` §1.3.1): same tags, different bytes, so a v2
/// peer would misparse rather than reject them. Version 4 retired six
/// payload tags (the triple round, the singleton submit, the multiway
/// lookup pair) and widened the internal `Deadline` frame's lookup
/// stage by a slot index; the surviving tags kept their layouts.
/// Version 5 retired five more — the three batch frames of version 2
/// and the two commands (`Deadline`, `SubmitMulti`) that never left
/// their process but could be forged into it; eleven tags remain, their
/// layouts unchanged, and a v4 peer still sending batches is refused.
pub const WIRE_VERSION: u8 = 5;
/// Upper bound on a single frame's length field; larger values mean a
/// corrupt or hostile stream and close the connection.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Frame kind: a routed [`Envelope`] (`[u64 from][u64 to][payload]`).
pub const KIND_ENVELOPE: u8 = 1;
/// Frame kind: an opaque control message (membership), delivered to the
/// process's control channel rather than a node mailbox.
pub const KIND_CONTROL: u8 = 2;
/// Frame kind: a flush barrier (`[u64 to][u64 token]`), acknowledged by
/// the target node's thread after every earlier frame on the connection.
pub const KIND_BARRIER: u8 = 3;

const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// A decode failure reported by a [`WireMsg`] implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireFault(pub &'static str);

impl fmt::Display for WireFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode: {}", self.0)
    }
}
impl std::error::Error for WireFault {}

/// A message type that can cross the socket transport: a self-describing
/// binary encoding plus a decoder that must reject malformed bytes
/// rather than trust them.
pub trait WireMsg: Send + Sized + 'static {
    /// Serializes the message payload (framing is the transport's job).
    fn encode_wire(&self) -> Vec<u8>;
    /// Parses a payload produced by [`WireMsg::encode_wire`].
    fn decode_wire(bytes: &[u8]) -> Result<Self, WireFault>;
}

/// One length-prefixed frame as read off a connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame kind ([`KIND_ENVELOPE`], [`KIND_CONTROL`], [`KIND_BARRIER`]).
    pub kind: u8,
    /// Kind-specific body bytes.
    pub body: Vec<u8>,
}

/// Encodes one frame: `[u32 LE length][kind][body]` with
/// `length = 1 + body.len()`.
pub fn encode_frame(kind: u8, body: &[u8]) -> Vec<u8> {
    let len = 1 + body.len() as u32;
    let mut out = Vec::with_capacity(5 + body.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(body);
    out
}

/// Reads one frame. Returns `Ok(None)` on a clean end of stream (EOF at
/// a frame boundary) and an `InvalidData` error for malformed input: a
/// zero or oversized length field, or a body truncated mid-frame.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len);
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside 1..={MAX_FRAME}"),
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(io::ErrorKind::InvalidData, "frame truncated mid-body")
        } else {
            e
        }
    })?;
    let body = buf.split_off(1);
    Ok(Some(Frame { kind: buf[0], body }))
}

/// Writes the 6-byte connection handshake: magic, version, reserved.
pub fn write_handshake(w: &mut impl Write) -> io::Result<()> {
    let mut hello = [0u8; 6];
    hello[..4].copy_from_slice(&WIRE_MAGIC);
    hello[4] = WIRE_VERSION;
    w.write_all(&hello)
}

/// Reads and validates the connection handshake, rejecting wrong magic
/// or a version mismatch with `InvalidData`.
pub fn read_handshake(r: &mut impl Read) -> io::Result<()> {
    let mut hello = [0u8; 6];
    r.read_exact(&mut hello)?;
    if hello[..4] != WIRE_MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad handshake magic"));
    }
    if hello[4] != WIRE_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("wire version {} != {WIRE_VERSION}", hello[4]),
        ));
    }
    Ok(())
}

/// Shared socket-level counters, mirrored into the obs registry under
/// the `transport.*` names (`rdfmesh_obs::names`).
#[derive(Debug, Default)]
pub struct TransportStats {
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    connects: AtomicU64,
    reconnects: AtomicU64,
    send_failures: AtomicU64,
    decode_errors: AtomicU64,
}

impl TransportStats {
    fn bump(&self, counter: &AtomicU64, name: &'static str, delta: u64) {
        counter.fetch_add(delta, Ordering::Relaxed);
        rdfmesh_obs::metrics().add(name, delta);
    }

    fn frame_sent(&self, wire_bytes: u64) {
        self.bump(&self.frames_sent, rdfmesh_obs::names::TRANSPORT_FRAMES_SENT, 1);
        self.bump(&self.bytes_sent, rdfmesh_obs::names::TRANSPORT_BYTES_SENT, wire_bytes);
    }

    fn frame_received(&self, wire_bytes: u64) {
        self.bump(&self.frames_received, rdfmesh_obs::names::TRANSPORT_FRAMES_RECEIVED, 1);
        self.bump(&self.bytes_received, rdfmesh_obs::names::TRANSPORT_BYTES_RECEIVED, wire_bytes);
    }

    fn connect(&self, again: bool) {
        self.bump(&self.connects, rdfmesh_obs::names::TRANSPORT_CONNECTS, 1);
        if again {
            self.bump(&self.reconnects, rdfmesh_obs::names::TRANSPORT_RECONNECTS, 1);
        }
    }

    fn send_failure(&self) {
        self.bump(&self.send_failures, rdfmesh_obs::names::TRANSPORT_SEND_FAILURES, 1);
    }

    fn decode_error(&self) {
        self.bump(&self.decode_errors, rdfmesh_obs::names::TRANSPORT_DECODE_ERRORS, 1);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> TransportSnapshot {
        TransportSnapshot {
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            frames_received: self.frames_received.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            connects: self.connects.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            send_failures: self.send_failures.load(Ordering::Relaxed),
            decode_errors: self.decode_errors.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`TransportStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportSnapshot {
    /// Frames written to sockets.
    pub frames_sent: u64,
    /// Frames decoded off sockets.
    pub frames_received: u64,
    /// On-wire bytes written (headers included, handshakes excluded).
    pub bytes_sent: u64,
    /// On-wire bytes read (headers included, handshakes excluded).
    pub bytes_received: u64,
    /// Successful outbound connections (first connects and reconnects).
    pub connects: u64,
    /// Successful outbound connections that replaced a broken one.
    pub reconnects: u64,
    /// Sends that failed after the reconnect attempt.
    pub send_failures: u64,
    /// Handshake failures, malformed frames, and undecodable payloads.
    pub decode_errors: u64,
}

/// One outbound connection to a peer process, lazily connected and
/// re-dialed once per send after a broken write.
struct PeerLink {
    addr: SocketAddr,
    conn: Mutex<Option<TcpStream>>,
    ever_connected: AtomicBool,
}

impl PeerLink {
    fn new(addr: SocketAddr) -> Self {
        PeerLink { addr, conn: Mutex::new(None), ever_connected: AtomicBool::new(false) }
    }

    /// Writes one pre-encoded frame. Holding the lock across the write
    /// keeps frames from interleaving when many node threads share the
    /// link, and makes the per-link frame order the per-connection order
    /// (which the barrier frames rely on).
    fn send_frame(&self, frame: &[u8], stats: &TransportStats) -> bool {
        let mut guard = self.conn.lock();
        for _ in 0..2 {
            if guard.is_none() {
                let Ok(mut s) = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT) else {
                    continue;
                };
                if write_handshake(&mut s).is_err() {
                    continue;
                }
                let _ = s.set_nodelay(true);
                stats.connect(self.ever_connected.swap(true, Ordering::Relaxed));
                *guard = Some(s);
            }
            if let Some(s) = guard.as_mut() {
                if s.write_all(frame).is_ok() {
                    stats.frame_sent(frame.len() as u64);
                    return true;
                }
                *guard = None;
            }
        }
        stats.send_failure();
        false
    }
}

/// State shared between the cluster's sender side (as the router's
/// remote hook), the listener's reader threads, and the public handle.
struct TcpShared<M: WireMsg> {
    listen: SocketAddr,
    mailboxes: Arc<HashMap<NodeId, Sender<Packet<M>>>>,
    routes: RwLock<HashMap<NodeId, SocketAddr>>,
    links: Mutex<HashMap<SocketAddr, Arc<PeerLink>>>,
    stats: TransportStats,
    /// Loopback twin mode: local destinations go over the socket too.
    force_socket: bool,
    control_tx: Sender<Vec<u8>>,
    barriers: Mutex<HashMap<u64, Sender<()>>>,
    barrier_seq: AtomicU64,
    closing: AtomicBool,
}

impl<M: WireMsg> TcpShared<M> {
    fn link(&self, addr: SocketAddr) -> Arc<PeerLink> {
        Arc::clone(self.links.lock().entry(addr).or_insert_with(|| Arc::new(PeerLink::new(addr))))
    }

    fn send_envelope(&self, addr: SocketAddr, env: &Envelope<M>) -> bool {
        let payload = env.payload.encode_wire();
        let mut body = Vec::with_capacity(16 + payload.len());
        body.extend_from_slice(&env.from.0.to_le_bytes());
        body.extend_from_slice(&env.to.0.to_le_bytes());
        body.extend_from_slice(&payload);
        self.link(addr).send_frame(&encode_frame(KIND_ENVELOPE, &body), &self.stats)
    }

    fn on_frame(&self, frame: Frame) {
        self.stats.frame_received(5 + frame.body.len() as u64);
        match frame.kind {
            KIND_ENVELOPE => {
                if frame.body.len() < 16 {
                    self.stats.decode_error();
                    return;
                }
                let from = NodeId(u64::from_le_bytes(frame.body[..8].try_into().expect("8")));
                let to = NodeId(u64::from_le_bytes(frame.body[8..16].try_into().expect("8")));
                match M::decode_wire(&frame.body[16..]) {
                    Ok(payload) => {
                        if let Some(tx) = self.mailboxes.get(&to) {
                            let _ = tx.send(Packet::Deliver(Envelope { from, to, payload }));
                        }
                    }
                    Err(_) => self.stats.decode_error(),
                }
            }
            KIND_BARRIER => {
                if frame.body.len() != 16 {
                    self.stats.decode_error();
                    return;
                }
                let to = NodeId(u64::from_le_bytes(frame.body[..8].try_into().expect("8")));
                let token = u64::from_le_bytes(frame.body[8..16].try_into().expect("8"));
                if let Some(ack) = self.barriers.lock().remove(&token) {
                    if let Some(tx) = self.mailboxes.get(&to) {
                        let _ = tx.send(Packet::Barrier(ack));
                    }
                }
            }
            KIND_CONTROL => {
                let _ = self.control_tx.send(frame.body);
            }
            _ => self.stats.decode_error(),
        }
    }
}

impl<M: WireMsg> RemoteRoute<M> for TcpShared<M> {
    fn route(&self, env: Envelope<M>) -> Result<bool, Envelope<M>> {
        let local = self.mailboxes.contains_key(&env.to);
        // What a node addresses to itself never crosses a socket, not
        // even in the twin: message types need no encoding for it.
        if local && (!self.force_socket || env.from == env.to) {
            return Err(env);
        }
        let addr = self.routes.read().get(&env.to).copied();
        match addr {
            Some(addr) => Ok(self.send_envelope(addr, &env)),
            None if local => Err(env),
            None => Ok(false),
        }
    }

    fn reaches(&self, to: NodeId) -> bool {
        self.routes.read().contains_key(&to)
    }

    fn peer_ids(&self) -> Vec<NodeId> {
        self.routes.read().keys().copied().collect()
    }
}

fn run_reader<M: WireMsg>(mut stream: TcpStream, shared: Arc<TcpShared<M>>) {
    if read_handshake(&mut stream).is_err() {
        shared.stats.decode_error();
        return;
    }
    let mut r = io::BufReader::new(stream);
    loop {
        match read_frame(&mut r) {
            Ok(Some(frame)) => shared.on_frame(frame),
            Ok(None) => return,
            Err(_) => {
                shared.stats.decode_error();
                return;
            }
        }
    }
}

/// A cluster whose inter-node traffic crosses TCP sockets — the same
/// [`Outbox`](crate::Outbox)/[`Handler`] contract as [`Cluster`], so the live-mesh
/// protocol and the PR 4 fault suite run on it unmodified. See the
/// module docs for the two modes and `docs/DEPLOYMENT.md` for the wire
/// specification.
pub struct TcpCluster<M: WireMsg> {
    cluster: Cluster<M>,
    shared: Arc<TcpShared<M>>,
    accept: Mutex<Option<JoinHandle<()>>>,
    control_rx: Mutex<Receiver<Vec<u8>>>,
}

impl<M: WireMsg> TcpCluster<M> {
    /// Spawns a loopback twin cluster: one listener on an ephemeral
    /// `127.0.0.1` port, every node local, and **all** inter-node sends
    /// routed through the socket. The [`FaultPlan`] adjudicates each
    /// send before it reaches the wire, exactly as in
    /// [`Cluster::spawn_with`].
    pub fn spawn_loopback(
        nodes: Vec<(NodeId, Box<dyn Handler<M>>)>,
        plan: FaultPlan,
    ) -> io::Result<Self> {
        Self::start("127.0.0.1:0", nodes, plan, true)
    }

    /// Binds `listen` and spawns the local nodes in serve mode: local
    /// destinations use in-process mailboxes, remote destinations must
    /// be registered with [`TcpCluster::add_peer`], and inbound control
    /// frames surface on [`TcpCluster::recv_control`].
    pub fn bind(
        listen: impl ToSocketAddrs,
        nodes: Vec<(NodeId, Box<dyn Handler<M>>)>,
        plan: FaultPlan,
    ) -> io::Result<Self> {
        Self::start(listen, nodes, plan, false)
    }

    fn start(
        listen: impl ToSocketAddrs,
        nodes: Vec<(NodeId, Box<dyn Handler<M>>)>,
        plan: FaultPlan,
        force_socket: bool,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let parts = ClusterParts::prepare(nodes, plan);
        let (control_tx, control_rx) = unbounded();
        let mut routes = HashMap::new();
        if force_socket {
            for id in parts.mailboxes.keys() {
                routes.insert(*id, addr);
            }
        }
        let shared = Arc::new(TcpShared {
            listen: addr,
            mailboxes: Arc::clone(&parts.mailboxes),
            routes: RwLock::new(routes),
            links: Mutex::new(HashMap::new()),
            stats: TransportStats::default(),
            force_socket,
            control_tx,
            barriers: Mutex::new(HashMap::new()),
            barrier_seq: AtomicU64::new(0),
            closing: AtomicBool::new(false),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.closing.load(Ordering::Relaxed) {
                        break;
                    }
                    if let Ok(s) = stream {
                        let shared = Arc::clone(&shared);
                        std::thread::spawn(move || run_reader(s, shared));
                    }
                }
            })
        };
        let hook: Arc<dyn RemoteRoute<M>> = Arc::clone(&shared) as _;
        let cluster = parts.finish(Some(hook));
        Ok(TcpCluster {
            cluster,
            shared,
            accept: Mutex::new(Some(accept)),
            control_rx: Mutex::new(control_rx),
        })
    }

    /// The address the process listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.listen
    }

    /// Routes envelopes addressed to `node` to the process listening at
    /// `addr`. Re-registering an id replaces its route (a peer that came
    /// back on a new port).
    pub fn add_peer(&self, node: NodeId, addr: SocketAddr) {
        self.shared.routes.write().insert(node, addr);
    }

    /// The registered route for `node`, if any.
    pub fn route_of(&self, node: NodeId) -> Option<SocketAddr> {
        self.shared.routes.read().get(&node).copied()
    }

    /// Sends an opaque control frame (membership traffic) to the process
    /// listening at `addr`. Returns `false` if the connection could not
    /// be established or the write failed after a reconnect.
    pub fn send_control(&self, addr: SocketAddr, bytes: &[u8]) -> bool {
        self.shared.link(addr).send_frame(&encode_frame(KIND_CONTROL, bytes), &self.shared.stats)
    }

    /// Receives the next inbound control frame, waiting up to `timeout`.
    /// `None` means the wait expired. Behind a mutex so a membership
    /// thread can poll through a shared [`Arc<TcpCluster>`].
    pub fn recv_control(&self, timeout: Duration) -> Option<Vec<u8>> {
        self.control_rx.lock().recv_timeout(timeout).ok()
    }

    /// Injects a message from the outside world; see [`Cluster::inject`].
    /// In loopback mode the injection crosses the socket like any send,
    /// unless `from == to`: a node's message to itself is delivered to
    /// its mailbox on every transport.
    pub fn inject(&self, from: NodeId, to: NodeId, payload: M) -> bool {
        self.cluster.inject(from, to, payload)
    }

    /// Crashes `node`; see [`Cluster::crash`].
    pub fn crash(&self, node: NodeId) -> bool {
        self.cluster.crash(node)
    }

    /// Restarts a crashed `node`; see [`Cluster::restart`].
    pub fn restart(&self, node: NodeId) -> bool {
        self.cluster.restart(node)
    }

    /// Whether `node` is currently crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.cluster.is_crashed(node)
    }

    /// Flush fence; see [`Cluster::barrier`]. In loopback mode the fence
    /// travels the socket path itself (a [`KIND_BARRIER`] frame on the
    /// same connection as earlier sends), so it orders after every frame
    /// already written — a mailbox-only fence could overtake in-flight
    /// socket traffic.
    pub fn barrier(&self, node: NodeId, timeout: Duration) -> bool {
        let addr = if self.shared.force_socket { self.route_of(node) } else { None };
        let Some(addr) = addr else {
            return self.cluster.barrier(node, timeout);
        };
        let token = self.shared.barrier_seq.fetch_add(1, Ordering::Relaxed);
        let (ack_tx, ack_rx) = bounded(1);
        self.shared.barriers.lock().insert(token, ack_tx);
        let mut body = Vec::with_capacity(16);
        body.extend_from_slice(&node.0.to_le_bytes());
        body.extend_from_slice(&token.to_le_bytes());
        if !self.shared.link(addr).send_frame(&encode_frame(KIND_BARRIER, &body), &self.shared.stats)
        {
            self.shared.barriers.lock().remove(&token);
            return false;
        }
        ack_rx.recv_timeout(timeout).is_ok()
    }

    /// Messages delivered so far (sender-side count, transport-agnostic).
    pub fn message_count(&self) -> u64 {
        self.cluster.message_count()
    }

    /// Messages lost so far; see [`Cluster::dropped_count`].
    pub fn dropped_count(&self) -> u64 {
        self.cluster.dropped_count()
    }

    /// A snapshot of the socket-level counters.
    pub fn transport_stats(&self) -> TransportSnapshot {
        self.shared.stats.snapshot()
    }

    /// Stops the node threads, unblocks the listener, and closes every
    /// outbound connection.
    pub fn shutdown(&self) {
        self.cluster.shutdown();
        if !self.shared.closing.swap(true, Ordering::SeqCst) {
            // Unblock the accept loop with a throwaway connection.
            let _ = TcpStream::connect_timeout(&self.shared.listen, CONNECT_TIMEOUT);
            if let Some(h) = self.accept.lock().take() {
                let _ = h.join();
            }
            // Dropping the links closes outbound streams; loopback
            // reader threads then exit on EOF.
            self.shared.links.lock().clear();
        }
    }
}

impl<M: WireMsg> Drop for TcpCluster<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Outbox;
    use std::sync::atomic::AtomicU32;

    /// A trivial wire message for transport tests: one tag byte plus a
    /// u32 value.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct TestMsg(u32);

    impl WireMsg for TestMsg {
        fn encode_wire(&self) -> Vec<u8> {
            let mut out = vec![0x7e];
            out.extend_from_slice(&self.0.to_le_bytes());
            out
        }
        fn decode_wire(bytes: &[u8]) -> Result<Self, WireFault> {
            if bytes.len() != 5 || bytes[0] != 0x7e {
                return Err(WireFault("bad TestMsg"));
            }
            Ok(TestMsg(u32::from_le_bytes(bytes[1..5].try_into().expect("4"))))
        }
    }

    #[test]
    fn frame_and_handshake_round_trip() {
        let mut buf = Vec::new();
        write_handshake(&mut buf).unwrap();
        buf.extend_from_slice(&encode_frame(KIND_ENVELOPE, b"hello"));
        buf.extend_from_slice(&encode_frame(KIND_CONTROL, &[]));
        let mut r = io::Cursor::new(buf);
        read_handshake(&mut r).unwrap();
        let f1 = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(f1, Frame { kind: KIND_ENVELOPE, body: b"hello".to_vec() });
        let f2 = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(f2, Frame { kind: KIND_CONTROL, body: vec![] });
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn malformed_frames_are_rejected() {
        // Wrong magic.
        let mut r = io::Cursor::new(b"RDFX\x01\x00".to_vec());
        assert!(read_handshake(&mut r).is_err());
        // Wrong version — in particular the previous one, whose peers
        // still send tags this build retired.
        for version in [0x63, WIRE_VERSION - 1] {
            let mut r = io::Cursor::new([b"RDFM".as_slice(), &[version, 0]].concat());
            assert!(read_handshake(&mut r).is_err());
        }
        // Zero-length frame.
        let mut r = io::Cursor::new(0u32.to_le_bytes().to_vec());
        assert!(read_frame(&mut r).is_err());
        // Oversized length field.
        let mut r = io::Cursor::new((MAX_FRAME + 1).to_le_bytes().to_vec());
        assert!(read_frame(&mut r).is_err());
        // Body truncated mid-frame.
        let mut bytes = 10u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[KIND_ENVELOPE, 1, 2]);
        let mut r = io::Cursor::new(bytes);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn loopback_cluster_delivers_over_sockets() {
        let hits = Arc::new(AtomicU32::new(0));
        let (done_tx, done_rx) = unbounded::<()>();
        let forward = |env: Envelope<TestMsg>, out: &Outbox<TestMsg>| {
            out.send(NodeId(2), TestMsg(env.payload.0 + 1));
        };
        let counter = Arc::clone(&hits);
        let sink = move |env: Envelope<TestMsg>, _out: &Outbox<TestMsg>| {
            counter.fetch_add(env.payload.0, Ordering::SeqCst);
            let _ = done_tx.send(());
        };
        let cluster = TcpCluster::spawn_loopback(
            vec![
                (NodeId(1), Box::new(forward) as Box<dyn Handler<TestMsg>>),
                (NodeId(2), Box::new(sink)),
            ],
            FaultPlan::new(),
        )
        .unwrap();
        assert!(cluster.inject(NodeId(99), NodeId(1), TestMsg(41)));
        done_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 42);
        let t = cluster.transport_stats();
        assert!(t.frames_sent >= 2, "inject and forward both crossed the socket: {t:?}");
        assert_eq!(t.frames_sent, t.frames_received, "loopback receives what it sends");
        assert_eq!(t.decode_errors, 0);
        cluster.shutdown();
    }

    #[test]
    fn fault_plan_applies_before_the_wire() {
        // The 1st message on 1→2 is dropped by the plan: it must never
        // reach the socket, and the sender still observes success.
        let (seen_tx, seen_rx) = unbounded::<u32>();
        let (sent_tx, sent_rx) = unbounded::<bool>();
        let relay = move |env: Envelope<TestMsg>, out: &Outbox<TestMsg>| {
            let _ = sent_tx.send(out.send(NodeId(2), env.payload));
        };
        let sink = move |env: Envelope<TestMsg>, _out: &Outbox<TestMsg>| {
            let _ = seen_tx.send(env.payload.0);
        };
        let cluster = TcpCluster::spawn_loopback(
            vec![
                (NodeId(1), Box::new(relay) as Box<dyn Handler<TestMsg>>),
                (NodeId(2), Box::new(sink)),
            ],
            FaultPlan::new().drop_nth(NodeId(1), NodeId(2), 1),
        )
        .unwrap();
        cluster.inject(NodeId(99), NodeId(1), TestMsg(7));
        cluster.inject(NodeId(99), NodeId(1), TestMsg(8));
        assert!(sent_rx.recv_timeout(Duration::from_secs(5)).unwrap(), "dropped send looks ok");
        assert!(sent_rx.recv_timeout(Duration::from_secs(5)).unwrap());
        assert_eq!(seen_rx.recv_timeout(Duration::from_secs(5)).unwrap(), 8, "7 was dropped");
        assert_eq!(cluster.dropped_count(), 1);

        // Crash node 2: the next relayed send fails fast (Refuse), no
        // socket traffic for it.
        assert!(cluster.crash(NodeId(2)));
        cluster.inject(NodeId(99), NodeId(1), TestMsg(9));
        assert!(!sent_rx.recv_timeout(Duration::from_secs(5)).unwrap(), "crashed peer refuses");
        cluster.shutdown();
    }

    #[test]
    fn socket_barrier_fences_socket_traffic() {
        let seen = Arc::new(AtomicU32::new(0));
        let counter = Arc::clone(&seen);
        let node = move |_env: Envelope<TestMsg>, _out: &Outbox<TestMsg>| {
            counter.fetch_add(1, Ordering::SeqCst);
        };
        let cluster = TcpCluster::spawn_loopback(
            vec![(NodeId(1), Box::new(node) as Box<dyn Handler<TestMsg>>)],
            FaultPlan::new(),
        )
        .unwrap();
        for _ in 0..100 {
            assert!(cluster.inject(NodeId(0), NodeId(1), TestMsg(1)));
        }
        assert!(cluster.barrier(NodeId(1), Duration::from_secs(5)));
        assert_eq!(seen.load(Ordering::SeqCst), 100);
        cluster.shutdown();
    }

    #[test]
    fn peer_link_reconnects_after_broken_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stats = TransportStats::default();
        let link = PeerLink::new(addr);

        let frame = encode_frame(KIND_CONTROL, b"one");
        assert!(link.send_frame(&frame, &stats));
        // Accept and immediately drop the server side of connection 1.
        let (mut s1, _) = listener.accept().unwrap();
        read_handshake(&mut s1).unwrap();
        drop(s1);

        // Keep writing until the broken pipe surfaces and the link
        // re-dials (the first write after a drop can still land in the
        // kernel buffer and "succeed").
        let mut reconnected = false;
        for _ in 0..50 {
            link.send_frame(&frame, &stats);
            if stats.snapshot().reconnects > 0 {
                reconnected = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(reconnected, "link never re-dialed: {:?}", stats.snapshot());
        let (mut s2, _) = listener.accept().unwrap();
        read_handshake(&mut s2).unwrap();
        let f = read_frame(&mut s2).unwrap().unwrap();
        assert_eq!(f.body, b"one");

        // A dead address fails the send after the reconnect attempt.
        drop(listener);
        let before = stats.snapshot().send_failures;
        let dead = PeerLink::new(addr);
        assert!(!dead.send_frame(&frame, &stats));
        assert!(stats.snapshot().send_failures > before);
    }

    #[test]
    fn undecodable_payloads_are_counted_not_trusted() {
        let cluster = TcpCluster::spawn_loopback(
            vec![(
                NodeId(1),
                Box::new(|_e: Envelope<TestMsg>, _o: &Outbox<TestMsg>| {})
                    as Box<dyn Handler<TestMsg>>,
            )],
            FaultPlan::new(),
        )
        .unwrap();
        // Speak the protocol by hand: valid handshake and frame, but a
        // payload TestMsg::decode_wire rejects.
        let mut s = TcpStream::connect(cluster.local_addr()).unwrap();
        write_handshake(&mut s).unwrap();
        let mut body = Vec::new();
        body.extend_from_slice(&9u64.to_le_bytes());
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(b"garbage");
        s.write_all(&encode_frame(KIND_ENVELOPE, &body)).unwrap();
        s.flush().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while cluster.transport_stats().decode_errors == 0 {
            assert!(std::time::Instant::now() < deadline, "decode error never counted");
            std::thread::sleep(Duration::from_millis(10));
        }
        cluster.shutdown();
    }
}
