//! The socket wire of the one [`Cluster`]: the same nodes, [`Outbox`](crate::Outbox)
//! contract and fault plan as over channels, with envelopes framed onto TCP.
//!
//! Every process binds one listener; logical nodes (storage, index,
//! coordinator) live inside the process as mailbox threads exactly as on
//! the channel wire, and envelopes addressed to nodes routed to a
//! remote address leave through a framed TCP connection instead of a
//! channel. Two modes, two constructors of the same [`Cluster`]:
//!
//! * [`Cluster::spawn_loopback`] — every node is local **and** routed
//!   through the process's own listener, so all inter-node traffic
//!   genuinely crosses a socket. This is the twin-test mode: the fault
//!   suite runs unmodified because the shared [`FaultPlan`] still
//!   adjudicates each send before it reaches the wire.
//! * [`Cluster::bind`] — serve mode: local nodes use mailboxes,
//!   remote nodes are registered with [`Cluster::add_peer`], and an
//!   opaque control channel carries membership messages between
//!   processes (`rdfmesh serve --join`).
//!
//! On a cluster spawned over channels the socket-only methods
//! ([`Cluster::local_addr`], [`Cluster::add_peer`], [`Cluster::route_of`],
//! [`Cluster::send_control`], [`Cluster::recv_control`],
//! [`Cluster::transport_stats`]) answer `None` / `false`.
//! [`TcpCluster`] is another name for [`Cluster`].
//!
//! Wire format (normative spec in `docs/DEPLOYMENT.md`): a connection
//! starts with a 6-byte handshake `"RDFM" <version> <reserved>`, which
//! must arrive within [`HANDSHAKE_TIMEOUT`]; after
//! that, each frame is `[u32 LE length][u8 kind][body]` where `length`
//! counts the kind byte plus the body; once a frame's length has arrived,
//! the rest of it must follow within the same deadline. Envelope bodies
//! are `[u64 LE from][u64 LE to][payload]` with the payload encoded by the
//! message type's [`WireMsg`] impl. Connections are one-directional:
//! replies flow over the receiving process's own dial-back link, and a
//! failed write triggers one reconnect attempt before the send is
//! reported failed (the contract's "detectable timeout").

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use crate::cluster::{Cluster, Envelope, Handler, Hub, Packet};
use crate::fault::FaultPlan;
use crate::network::NodeId;
use crate::sync::{lock, rlock, wlock};

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
/// Version 6 gave `Publish` and `Providers` the location table's
/// frequency column: same tags, each entry `[u64][u32]` where version 5
/// wrote a lone `[u64]`, so a v5 peer would misparse them rather than
/// reject them.
pub const WIRE_VERSION: u8 = 6;
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

/// How long an accepted connection may take to send its handshake, and a
/// frame whose length field has arrived the rest of its bytes, before the
/// connection is closed and counted as a decode error. Between frames the
/// connection may idle indefinitely.
pub const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// What [`read_frame`] reserves for a body before any of it arrives: a
/// length field alone claims at most this much memory, and a longer body
/// grows the buffer as its bytes are read.
const BODY_RESERVE: usize = 16 * 1024;

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
/// `length = 1 + body.len()`. Panics if the frame would exceed
/// [`MAX_FRAME`], which every reader refuses.
pub fn encode_frame(kind: u8, body: &[u8]) -> Vec<u8> {
    frame_of(kind, &[body]).expect("a frame within MAX_FRAME")
}

/// One frame in one buffer: the length field, `kind`, then `parts` in
/// order as the body. `None` if the frame would exceed [`MAX_FRAME`].
fn frame_of(kind: u8, parts: &[&[u8]]) -> Option<Vec<u8>> {
    let body: usize = parts.iter().map(|p| p.len()).sum();
    let len = u32::try_from(body + 1).ok().filter(|&len| len <= MAX_FRAME)?;
    let mut out = Vec::with_capacity(5 + body);
    out.extend_from_slice(&len.to_le_bytes());
    out.push(kind);
    for part in parts {
        out.extend_from_slice(part);
    }
    Some(out)
}

/// Reads one frame. Returns `Ok(None)` on a clean end of stream (EOF at
/// a frame boundary) and an `InvalidData` error for malformed input: a
/// zero or oversized length field, or a body truncated mid-frame. The
/// body buffer grows with the bytes that actually arrive, so a header
/// claiming [`MAX_FRAME`] costs nothing until its body follows.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Frame>> {
    read_frame_then(r, |_, _| {})
}

/// [`read_frame`], calling `started(r, length)` once the length field is
/// in and valid, before the rest of the frame is read.
fn read_frame_then<R: Read>(
    r: &mut R,
    started: impl FnOnce(&mut R, u32),
) -> io::Result<Option<Frame>> {
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
    started(r, len);
    let truncated = || io::Error::new(io::ErrorKind::InvalidData, "frame truncated mid-body");
    let mut kind = [0u8; 1];
    r.read_exact(&mut kind).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => truncated(),
        _ => e,
    })?;
    let body_len = len as usize - 1;
    let mut body = Vec::with_capacity(body_len.min(BODY_RESERVE));
    r.take(u64::from(len - 1)).read_to_end(&mut body)?;
    if body.len() < body_len {
        return Err(truncated());
    }
    Ok(Some(Frame { kind: kind[0], body }))
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

rdfmesh_obs::counters! {
    /// Shared socket-level counters. They are the cluster's own: the host
    /// that runs the cluster reports them, under the `transport.*` names
    /// ([`TransportSnapshot::named`]).
    pub struct TransportStats / TransportSnapshot;
    /// Frames written to sockets.
    frames_sent, add_frames_sent => TRANSPORT_FRAMES_SENT;
    /// Frames decoded off sockets.
    frames_received, add_frames_received => TRANSPORT_FRAMES_RECEIVED;
    /// On-wire bytes written (headers included, handshakes excluded).
    bytes_sent, add_bytes_sent => TRANSPORT_BYTES_SENT;
    /// On-wire bytes read (headers included, handshakes excluded).
    bytes_received, add_bytes_received => TRANSPORT_BYTES_RECEIVED;
    /// Successful outbound connections (first connects and reconnects).
    connects, add_connects => TRANSPORT_CONNECTS;
    /// Successful outbound connections that replaced a broken one.
    reconnects, add_reconnects => TRANSPORT_RECONNECTS;
    /// Sends that failed after the reconnect attempt.
    send_failures, add_send_failures => TRANSPORT_SEND_FAILURES;
    /// Handshake failures, malformed frames, and undecodable payloads.
    decode_errors, add_decode_errors => TRANSPORT_DECODE_ERRORS;
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
        let mut guard = lock(&self.conn);
        for _ in 0..2 {
            if guard.is_none() {
                let Ok(mut s) = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT) else {
                    continue;
                };
                if write_handshake(&mut s).is_err() {
                    continue;
                }
                let _ = s.set_nodelay(true);
                stats.add_connects(1);
                stats.add_reconnects(u64::from(self.ever_connected.swap(true, Ordering::Relaxed)));
                *guard = Some(s);
            }
            if let Some(s) = guard.as_mut() {
                if s.write_all(frame).is_ok() {
                    stats.add_frames_sent(1);
                    stats.add_bytes_sent(frame.len() as u64);
                    return true;
                }
                *guard = None;
            }
        }
        stats.add_send_failures(1);
        false
    }
}

/// The socket half of a [`Cluster`] spawned by [`Cluster::spawn_loopback`]
/// or [`Cluster::bind`]: the listener's address, the route table, the
/// outbound links, the barrier frames in flight and the control channel.
pub(crate) struct Wire<M> {
    listen: SocketAddr,
    routes: RwLock<HashMap<NodeId, SocketAddr>>,
    links: Mutex<HashMap<SocketAddr, Arc<PeerLink>>>,
    stats: TransportStats,
    /// Loopback twin mode: local destinations go over the socket too.
    force_socket: bool,
    /// The message type's [`WireMsg::encode_wire`], fixed by the socket
    /// constructor, so a cluster over channels needs no encoding.
    encode: fn(&M) -> Vec<u8>,
    control_tx: Sender<Vec<u8>>,
    /// Behind a mutex so a membership thread can poll through a shared
    /// [`Arc<Cluster>`].
    control_rx: Mutex<Receiver<Vec<u8>>>,
    barriers: Mutex<HashMap<u64, SyncSender<()>>>,
    barrier_seq: AtomicU64,
    closing: AtomicBool,
}

impl<M> Wire<M> {
    /// Sends the frame of `kind` whose body is `parts`, written into one
    /// buffer. A frame over [`MAX_FRAME`] is not sent — the reader would
    /// refuse it and close the connection under every frame behind it —
    /// and counts as a send failure.
    fn send_frame(&self, addr: SocketAddr, kind: u8, parts: &[&[u8]]) -> bool {
        let Some(frame) = frame_of(kind, parts) else {
            self.stats.add_send_failures(1);
            return false;
        };
        let link = Arc::clone(
            lock(&self.links).entry(addr).or_insert_with(|| Arc::new(PeerLink::new(addr))),
        );
        link.send_frame(&frame, &self.stats)
    }

    pub(crate) fn send_envelope(&self, addr: SocketAddr, env: &Envelope<M>) -> bool {
        self.send_payload(addr, env.from, env.to, &(self.encode)(&env.payload))
    }

    /// Sends the envelope frame of an encoded `payload` from `from` to `to`.
    pub(crate) fn send_payload(
        &self,
        addr: SocketAddr,
        from: NodeId,
        to: NodeId,
        payload: &[u8],
    ) -> bool {
        let (from, to) = (from.0.to_le_bytes(), to.0.to_le_bytes());
        self.send_frame(addr, KIND_ENVELOPE, &[&from, &to, payload])
    }

    /// Where a message from `from` to `to` leaves through a socket, if it
    /// does: a remote destination always, a `local` one only in the
    /// loopback twin. What a node addresses to itself never crosses a
    /// socket, not even in the twin: message types need no encoding for it.
    pub(crate) fn route(&self, from: NodeId, to: NodeId, local: bool) -> Option<SocketAddr> {
        if local && (!self.force_socket || from == to) {
            return None;
        }
        rlock(&self.routes).get(&to).copied()
    }

    /// Whether `to` is reachable through this wire.
    pub(crate) fn reaches(&self, to: NodeId) -> bool {
        rlock(&self.routes).contains_key(&to)
    }

    /// Whether a flush fence for `node` travels this wire: in the loopback
    /// twin, where `node`'s deliveries do.
    pub(crate) fn fences(&self, node: NodeId) -> bool {
        self.force_socket && self.reaches(node)
    }

    /// Sends a [`KIND_BARRIER`] frame for `node` down its route; the
    /// receiving reader hands `ack` to the node's mailbox.
    pub(crate) fn send_fence(&self, node: NodeId, ack: SyncSender<()>) -> bool {
        let Some(addr) = rlock(&self.routes).get(&node).copied() else { return false };
        let token = self.barrier_seq.fetch_add(1, Ordering::Relaxed);
        lock(&self.barriers).insert(token, ack);
        if !self.send_frame(addr, KIND_BARRIER, &[&node.0.to_le_bytes(), &token.to_le_bytes()]) {
            lock(&self.barriers).remove(&token);
            return false;
        }
        true
    }

    /// Unblocks the accept loop with a throwaway connection; idempotent.
    pub(crate) fn stop_accepting(&self) {
        if !self.closing.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.listen, CONNECT_TIMEOUT);
        }
    }

    /// Dropping the links closes outbound streams; loopback reader
    /// threads then exit on EOF.
    pub(crate) fn hang_up(&self) {
        lock(&self.links).clear();
    }
}

fn on_frame<M: WireMsg>(hub: &Hub<M>, wire: &Wire<M>, frame: Frame) {
    wire.stats.add_frames_received(1);
    wire.stats.add_bytes_received(5 + frame.body.len() as u64);
    match frame.kind {
        KIND_ENVELOPE => {
            if frame.body.len() < 16 {
                wire.stats.add_decode_errors(1);
                return;
            }
            let from = NodeId(u64::from_le_bytes(frame.body[..8].try_into().expect("8")));
            let to = NodeId(u64::from_le_bytes(frame.body[8..16].try_into().expect("8")));
            match M::decode_wire(&frame.body[16..]) {
                Ok(payload) => {
                    if let Some(tx) = hub.mailboxes.get(&to) {
                        let _ = tx.send(Packet::Deliver(Envelope { from, to, payload }));
                    }
                }
                Err(_) => wire.stats.add_decode_errors(1),
            }
        }
        KIND_BARRIER => {
            if frame.body.len() != 16 {
                wire.stats.add_decode_errors(1);
                return;
            }
            let to = NodeId(u64::from_le_bytes(frame.body[..8].try_into().expect("8")));
            let token = u64::from_le_bytes(frame.body[8..16].try_into().expect("8"));
            if let Some(ack) = lock(&wire.barriers).remove(&token) {
                if let Some(tx) = hub.mailboxes.get(&to) {
                    let _ = tx.send(Packet::Barrier(ack));
                }
            }
        }
        KIND_CONTROL => {
            let _ = wire.control_tx.send(frame.body);
        }
        _ => wire.stats.add_decode_errors(1),
    }
}

/// A socket whose every read and write is held to one deadline while one
/// is set: each call re-arms the socket's timeout with the time left, so
/// a peer that trickles (or takes) one byte per call cannot hold its
/// thread for a timeout per byte, and a call once the deadline has passed
/// fails `TimedOut` at once. With the deadline lifted, calls are unbounded.
///
/// The wire's reader holds a connection's handshake, and the rest of a
/// frame once its length is in, to [`HANDSHAKE_TIMEOUT`], and lifts the
/// deadline between frames. The HTTP endpoint holds a whole request to
/// one deadline, and the whole response to another.
#[derive(Debug)]
pub struct DeadlineStream {
    stream: TcpStream,
    by: Option<Instant>,
    /// Whether the socket still carries the read (`[0]`) or write (`[1]`)
    /// timeout of a lifted deadline, to be cleared before the next
    /// unbounded call.
    armed: [bool; 2],
}

impl DeadlineStream {
    /// `stream` with every call due `allowed` from now.
    pub fn after(stream: TcpStream, allowed: Duration) -> Self {
        DeadlineStream { stream, by: Some(Instant::now() + allowed), armed: [false; 2] }
    }

    /// Holds every later call to `by`, or lifts the deadline for `None`.
    pub fn set_deadline(&mut self, by: Option<Instant>) {
        self.by = by;
    }

    /// Gives the socket's read or write timeout the time left, or clears
    /// the one a lifted deadline left behind.
    fn arm(&mut self, write: bool) -> io::Result<()> {
        let armed = &mut self.armed[usize::from(write)];
        let timeout = match self.by {
            Some(by) => {
                let left = by.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(io::ErrorKind::TimedOut.into());
                }
                Some(left)
            }
            None if *armed => None,
            None => return Ok(()),
        };
        *armed = timeout.is_some();
        if write {
            self.stream.set_write_timeout(timeout)
        } else {
            self.stream.set_read_timeout(timeout)
        }
    }
}

impl Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.arm(false)?;
        self.stream.read(buf)
    }
}

impl Write for DeadlineStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.arm(true)?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

fn run_reader<M: WireMsg>(stream: TcpStream, hub: &Hub<M>) {
    let wire = hub.wire.as_ref().expect("readers run on a socket wire");
    // The handshake has a deadline, and so has the rest of a frame once
    // its length is in; the wait for the next frame has none.
    let mut conn = DeadlineStream::after(stream, HANDSHAKE_TIMEOUT);
    if read_handshake(&mut conn).is_err() {
        wire.stats.add_decode_errors(1);
        return;
    }
    conn.set_deadline(None);
    let mut r = io::BufReader::new(conn);
    loop {
        // A body already buffered costs no deadline (and no syscall).
        let frame = read_frame_then(&mut r, |r, len| {
            if r.buffer().len() < len as usize {
                r.get_mut().set_deadline(Some(Instant::now() + HANDSHAKE_TIMEOUT));
            }
        });
        r.get_mut().set_deadline(None);
        match frame {
            Ok(Some(frame)) => on_frame(hub, wire, frame),
            Ok(None) => return,
            Err(_) => {
                wire.stats.add_decode_errors(1);
                return;
            }
        }
    }
}

/// The name the socket constructors went by before the two wires became
/// one cluster; the same type.
pub type TcpCluster<M> = Cluster<M>;

impl<M: WireMsg> Cluster<M> {
    /// Spawns a loopback twin cluster: one listener on an ephemeral
    /// `127.0.0.1` port, every node local, and **all** inter-node sends
    /// routed through the socket. The [`FaultPlan`] adjudicates each
    /// send before it reaches the wire, exactly as in
    /// [`Cluster::spawn_with`].
    pub fn spawn_loopback(
        nodes: Vec<(NodeId, Box<dyn Handler<M>>)>,
        plan: FaultPlan,
    ) -> io::Result<Self> {
        Self::listen("127.0.0.1:0", nodes, plan, true)
    }

    /// Binds `listen` and spawns the local nodes in serve mode: local
    /// destinations use in-process mailboxes, remote destinations must
    /// be registered with [`Cluster::add_peer`], and inbound control
    /// frames surface on [`Cluster::recv_control`].
    pub fn bind(
        listen: impl ToSocketAddrs,
        nodes: Vec<(NodeId, Box<dyn Handler<M>>)>,
        plan: FaultPlan,
    ) -> io::Result<Self> {
        Self::listen(listen, nodes, plan, false)
    }

    fn listen(
        listen: impl ToSocketAddrs,
        nodes: Vec<(NodeId, Box<dyn Handler<M>>)>,
        plan: FaultPlan,
        force_socket: bool,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let routes = nodes.iter().filter(|_| force_socket).map(|(id, _)| (*id, addr)).collect();
        let (control_tx, control_rx) = mpsc::channel();
        let wire = Wire {
            listen: addr,
            routes: RwLock::new(routes),
            links: Mutex::new(HashMap::new()),
            stats: TransportStats::default(),
            force_socket,
            encode: M::encode_wire,
            control_tx,
            control_rx: Mutex::new(control_rx),
            barriers: Mutex::new(HashMap::new()),
            barrier_seq: AtomicU64::new(0),
            closing: AtomicBool::new(false),
        };
        let cluster = Cluster::start(nodes, plan, Some(wire));
        let hub = Arc::clone(&cluster.hub);
        lock(&cluster.handles).push(std::thread::spawn(move || {
            for stream in listener.incoming() {
                if hub.wire.as_ref().is_some_and(|w| w.closing.load(Ordering::Relaxed)) {
                    break;
                }
                if let Ok(s) = stream {
                    let hub = Arc::clone(&hub);
                    std::thread::spawn(move || run_reader(s, &hub));
                }
            }
        }));
        Ok(cluster)
    }
}

impl<M: Send + 'static> Cluster<M> {
    /// The address the process listener is bound to, or `None` on a
    /// cluster over channels.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.hub.wire.as_ref().map(|w| w.listen)
    }

    /// Routes envelopes addressed to `node` to the process listening at
    /// `addr`. Re-registering an id replaces its route (a peer that came
    /// back on a new port). Returns `false` on a cluster over channels,
    /// which has nowhere to route to.
    pub fn add_peer(&self, node: NodeId, addr: SocketAddr) -> bool {
        self.hub.wire.as_ref().map(|w| wlock(&w.routes).insert(node, addr)).is_some()
    }

    /// The registered route for `node`, if any.
    pub fn route_of(&self, node: NodeId) -> Option<SocketAddr> {
        rlock(&self.hub.wire.as_ref()?.routes).get(&node).copied()
    }

    /// Sends an opaque control frame (membership traffic) to the process
    /// listening at `addr`. Returns `false` if the connection could not
    /// be established, the write failed after a reconnect, or the
    /// cluster runs over channels.
    pub fn send_control(&self, addr: SocketAddr, bytes: &[u8]) -> bool {
        self.hub.wire.as_ref().is_some_and(|w| w.send_frame(addr, KIND_CONTROL, &[bytes]))
    }

    /// Receives the next inbound control frame, waiting up to `timeout`.
    /// `None` means the wait expired, or that the cluster runs over
    /// channels and no control frame can arrive.
    pub fn recv_control(&self, timeout: Duration) -> Option<Vec<u8>> {
        lock(&self.hub.wire.as_ref()?.control_rx).recv_timeout(timeout).ok()
    }

    /// A snapshot of the socket-level counters, or `None` on a cluster
    /// over channels, where no wire exists.
    pub fn transport_stats(&self) -> Option<TransportSnapshot> {
        self.hub.wire.as_ref().map(|w| w.stats.snapshot())
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
        // Wrong version — in particular the previous two: a v4 peer still
        // sends tags this build retired, and a v5 peer writes publications
        // and provider rows without their frequencies.
        for version in [0x63, 4, 5] {
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
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let forward = |env: Envelope<TestMsg>, out: &Outbox<TestMsg>| {
            out.send(NodeId(2), TestMsg(env.payload.0 + 1));
        };
        let counter = Arc::clone(&hits);
        let sink = move |env: Envelope<TestMsg>, _out: &Outbox<TestMsg>| {
            counter.fetch_add(env.payload.0, Ordering::SeqCst);
            let _ = done_tx.send(());
        };
        let cluster = Cluster::spawn_loopback(
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
        // A sender counts its frame once the write returns, which can be
        // after the receiver has already handled it: let the count settle.
        let settled = std::time::Instant::now() + Duration::from_secs(5);
        let mut t = cluster.transport_stats().expect("a socket wire");
        while t.frames_sent != t.frames_received && std::time::Instant::now() < settled {
            std::thread::sleep(Duration::from_millis(5));
            t = cluster.transport_stats().expect("a socket wire");
        }
        assert!(t.frames_sent >= 2, "inject and forward both crossed the socket: {t:?}");
        assert_eq!(t.frames_sent, t.frames_received, "loopback receives what it sends");
        assert_eq!(t.decode_errors, 0);
        cluster.shutdown();
    }

    #[test]
    fn fault_plan_applies_before_the_wire() {
        // The 1st message on 1→2 is dropped by the plan: it must never
        // reach the socket, and the sender still observes success.
        let (seen_tx, seen_rx) = mpsc::channel::<u32>();
        let (sent_tx, sent_rx) = mpsc::channel::<bool>();
        let relay = move |env: Envelope<TestMsg>, out: &Outbox<TestMsg>| {
            let _ = sent_tx.send(out.send(NodeId(2), env.payload));
        };
        let sink = move |env: Envelope<TestMsg>, _out: &Outbox<TestMsg>| {
            let _ = seen_tx.send(env.payload.0);
        };
        let cluster = Cluster::spawn_loopback(
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

    /// An encoded send is a send: on channels and on sockets the same
    /// message arrives, the fault plan drops the same one, the cluster
    /// counts the same messages, and on sockets the bytes leave as they
    /// were handed over, in one frame each.
    #[test]
    fn an_encoded_send_is_a_send_on_either_wire() {
        for sockets in [false, true] {
            let (seen_tx, seen_rx) = mpsc::channel::<u32>();
            let relay = move |env: Envelope<TestMsg>, out: &Outbox<TestMsg>| {
                let v = env.payload.0;
                assert!(out.send_encoded(NodeId(2), TestMsg(v + 1).encode_wire()));
                assert_eq!(out.send_encoded(NodeId(2), vec![0]), sockets, "undecodable bytes");
            };
            let sink = move |env: Envelope<TestMsg>, _out: &Outbox<TestMsg>| {
                let _ = seen_tx.send(env.payload.0);
            };
            let nodes = vec![
                (NodeId(1), Box::new(relay) as Box<dyn Handler<TestMsg>>),
                (NodeId(2), Box::new(sink)),
            ];
            let plan = FaultPlan::new().drop_nth(NodeId(1), NodeId(2), 1);
            let cluster = match sockets {
                true => Cluster::spawn_loopback(nodes, plan).unwrap(),
                false => Cluster::spawn_with(nodes, plan),
            };
            cluster.inject(NodeId(99), NodeId(1), TestMsg(7));
            cluster.inject(NodeId(99), NodeId(1), TestMsg(8));
            // The relay has sent all it will, and node 2 has read it.
            for node in [NodeId(1), NodeId(2)] {
                assert!(cluster.barrier(node, Duration::from_secs(5)));
            }
            assert_eq!(seen_rx.try_iter().collect::<Vec<_>>(), [9], "8 was dropped");
            assert_eq!(cluster.dropped_count(), 1);
            // Two injects, and the relay's three sends past the plan.
            assert_eq!(cluster.message_count(), 2 + 3);
            if let Some(t) = cluster.transport_stats() {
                // The injects, the three sends and the two fences; the
                // two undecodable payloads are refused by the reader.
                assert_eq!(t.frames_sent, 2 + 3 + 2);
                assert_eq!(t.decode_errors, 2);
            }
            cluster.shutdown();
        }
    }

    #[test]
    fn socket_barrier_fences_socket_traffic() {
        let seen = Arc::new(AtomicU32::new(0));
        let counter = Arc::clone(&seen);
        let node = move |_env: Envelope<TestMsg>, _out: &Outbox<TestMsg>| {
            counter.fetch_add(1, Ordering::SeqCst);
        };
        let cluster = Cluster::spawn_loopback(
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
        let cluster = Cluster::spawn_loopback(
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
        let mut s = TcpStream::connect(cluster.local_addr().expect("bound")).unwrap();
        write_handshake(&mut s).unwrap();
        let mut body = Vec::new();
        body.extend_from_slice(&9u64.to_le_bytes());
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(b"garbage");
        s.write_all(&encode_frame(KIND_ENVELOPE, &body)).unwrap();
        s.flush().unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while cluster.transport_stats().expect("a socket wire").decode_errors == 0 {
            assert!(std::time::Instant::now() < deadline, "decode error never counted");
            std::thread::sleep(Duration::from_millis(10));
        }
        cluster.shutdown();
    }
}
