//! The one cluster: every node is an OS thread with a mailbox, and its
//! messages travel one of two wires.
//!
//! The discrete-event [`crate::Network`] gives deterministic *costs*; this
//! module demonstrates the same protocols running under real concurrency.
//! Nodes are user-supplied handler closures; the cluster routes
//! envelopes, counts traffic with atomics, and shuts down cleanly.
//!
//! [`Cluster::spawn`] / [`Cluster::spawn_with`] carry every envelope over
//! std's channels. `Cluster::spawn_loopback` / `Cluster::bind`
//! (`crate::tcp`) give the same cluster a socket wire: a listener, framed
//! TCP links and a route table, so envelopes to remote processes — or, in
//! the loopback twin, to local nodes as well — leave through a socket.
//! The threads, the [`Outbox`] contract and the fault plan are the same
//! on both wires (see `docs/DEPLOYMENT.md`).
//!
//! Fault tolerance is exercised through [`crate::FaultPlan`] (declarative
//! crash / drop / delay schedules) and [`Cluster::crash`] /
//! [`Cluster::restart`] (runtime liveness control). Each node's thread
//! keeps its own time: it waits on its mailbox until its handler's next
//! wake-up ([`Handler::wake_at`]) or the next send the fault plan delayed
//! in its [`Outbox`], whichever comes first — the building block for the
//! paper's query-ack timeouts (Sect. III-D) on real threads. See
//! `docs/FAULTS.md`.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::fault::{FaultPlan, FaultState, SendFate};
use crate::network::NodeId;
use crate::sync::lock;
use crate::tcp::{Wire, WireMsg};

/// A routed message.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Sender.
    pub from: NodeId,
    /// Recipient.
    pub to: NodeId,
    /// Payload.
    pub payload: M,
}

pub(crate) enum Packet<M> {
    Deliver(Envelope<M>),
    /// Flush marker: acknowledged by the node thread itself (even while
    /// the node is crashed), after every previously queued packet.
    Barrier(SyncSender<()>),
    /// The node was restarted: a wake-up it skipped while crashed is
    /// served now.
    Resume,
    Shutdown,
}

/// Shared traffic counters for a running cluster.
#[derive(Debug, Default)]
pub struct ClusterStats {
    /// Messages delivered between distinct nodes.
    pub messages: AtomicU64,
    /// Messages silently lost by the fault plan (drops), plus deliveries
    /// discarded because the destination was crashed at delivery time.
    pub dropped: AtomicU64,
}

/// What every thread of one cluster shares: the local mailboxes, the
/// socket wire when the cluster has one, the traffic counters and the
/// fault state.
pub(crate) struct Hub<M> {
    pub(crate) mailboxes: HashMap<NodeId, Sender<Packet<M>>>,
    pub(crate) wire: Option<Wire<M>>,
    stats: ClusterStats,
    faults: FaultState,
}

/// Where a posted message goes: out through the socket wire, or to the
/// local mailbox, if any.
enum Route<'h, M> {
    Wire(&'h Wire<M>, SocketAddr),
    Local(Option<&'h Sender<Packet<M>>>),
}

impl<M> Hub<M> {
    /// Counts a message from `from` to `to` as traffic and routes it:
    /// through the wire when the wire claims it, to the local mailbox
    /// otherwise. A node's message to itself (a local command) is no
    /// inter-node message, and the wire never claims it.
    fn route(&self, from: NodeId, to: NodeId) -> Route<'_, M> {
        if from != to {
            self.stats.messages.fetch_add(1, Ordering::Relaxed);
        }
        let local = self.mailboxes.get(&to);
        if let Some(wire) = &self.wire {
            if let Some(addr) = wire.route(from, to, local.is_some()) {
                return Route::Wire(wire, addr);
            }
        }
        Route::Local(local)
    }

    /// Counts `env` as traffic and delivers it where [`Hub::route`] says.
    fn post(&self, env: Envelope<M>) -> bool {
        match self.route(env.from, env.to) {
            Route::Wire(wire, addr) => wire.send_envelope(addr, &env),
            Route::Local(local) => local.is_some_and(|tx| tx.send(Packet::Deliver(env)).is_ok()),
        }
    }

    /// Whether `to` is a known destination (local or remote).
    fn knows(&self, to: NodeId) -> bool {
        self.mailboxes.contains_key(&to) || self.wire.as_ref().is_some_and(|w| w.reaches(to))
    }
}

/// Handle through which a node handler sends messages to peers. It
/// belongs to its node's thread, which also posts the sends the fault
/// plan delays.
pub struct Outbox<M> {
    me: NodeId,
    hub: Arc<Hub<M>>,
    /// The sends the fault plan delayed, in the order they fall due.
    delayed: RefCell<VecDeque<(Instant, Envelope<M>)>>,
}

impl<M> Outbox<M> {
    /// This node's identity.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Sends `payload` to `to`. Returns `false` if the peer is unknown or
    /// crashed (mailbox unreachable) — the ad-hoc setting treats that as
    /// a detectable timeout, not an error. A send the fault plan drops or
    /// delays still returns `true`: the loss is only observable through
    /// the sender's own deadlines (Sect. III-D). On the socket wire
    /// an unreachable process likewise fails the send (connection
    /// refused), so the contract is wire-independent.
    pub fn send(&self, to: NodeId, payload: M) -> bool {
        let env = Envelope { from: self.me, to, payload };
        match self.fate(to) {
            SendFate::Refuse => false,
            SendFate::Drop => true,
            SendFate::Delay(by) => self.delay(by, env),
            SendFate::Deliver => self.hub.post(env),
        }
    }

    /// What becomes of a send to `to`: refused when the peer is unknown,
    /// else the fault plan's fate for it, a drop counted as one.
    fn fate(&self, to: NodeId) -> SendFate {
        if !self.hub.knows(to) {
            return SendFate::Refuse;
        }
        let fate = self.hub.faults.on_send(self.me, to);
        if matches!(fate, SendFate::Drop) {
            self.hub.stats.dropped.fetch_add(1, Ordering::Relaxed);
        }
        fate
    }

    /// Holds `env` back by `by`, behind every delayed send due earlier.
    fn delay(&self, by: Duration, env: Envelope<M>) -> bool {
        let due = Instant::now() + by;
        let mut delayed = self.delayed.borrow_mut();
        let at = delayed.partition_point(|(d, _)| *d <= due);
        delayed.insert(at, (due, env));
        true
    }

    /// [`Outbox::send`] of a payload its sender already encoded, as
    /// [`WireMsg::encode_wire`] would: on a socket route the bytes leave
    /// as they are, and only a local mailbox — or a send the fault plan
    /// delays — decodes them, once. The fault plan's fate (a `drop_nth`
    /// counts it as any send), the cluster's `messages` and the wire's
    /// transport counters are [`Outbox::send`]'s. Bytes that do not decode
    /// reach no handler: a local mailbox is not sent them (`false`), and a
    /// peer's reader counts a decode error.
    pub fn send_encoded(&self, to: NodeId, payload: Vec<u8>) -> bool
    where
        M: WireMsg,
    {
        let decoded = |from| Some(Envelope { from, to, payload: M::decode_wire(&payload).ok()? });
        match self.fate(to) {
            SendFate::Refuse => false,
            SendFate::Drop => true,
            SendFate::Delay(by) => decoded(self.me).is_some_and(|env| self.delay(by, env)),
            SendFate::Deliver => match self.hub.route(self.me, to) {
                Route::Wire(wire, addr) => wire.send_payload(addr, self.me, to, &payload),
                Route::Local(local) => decoded(self.me).is_some_and(|env| {
                    local.is_some_and(|tx| tx.send(Packet::Deliver(env)).is_ok())
                }),
            },
        }
    }

    /// When the earliest delayed send falls due.
    fn next_delayed(&self) -> Option<Instant> {
        self.delayed.borrow().front().map(|(at, _)| *at)
    }

    /// Posts every delayed send due by `now`, earliest first.
    fn post_delayed(&self, now: Instant) {
        let mut delayed = self.delayed.borrow_mut();
        while delayed.front().is_some_and(|(at, _)| *at <= now) {
            let (_, env) = delayed.pop_front().expect("a due send");
            self.hub.post(env);
        }
    }
}

/// A running set of node threads, over channels or over sockets (see the
/// module docs).
pub struct Cluster<M: Send + 'static> {
    pub(crate) hub: Arc<Hub<M>>,
    /// Every node and, on the socket wire, the accept loop.
    pub(crate) handles: Mutex<Vec<JoinHandle<()>>>,
}

/// A node's behaviour: invoked once per delivered envelope, and whenever
/// a wake-up it asked for falls due.
pub trait Handler<M>: Send + 'static {
    /// Reacts to one message; may send further messages via `out`.
    fn on_message(&mut self, envelope: Envelope<M>, out: &Outbox<M>);

    /// When the handler next wants [`Handler::on_wake`], if it waits for
    /// anything: asked again after every message and wake-up.
    fn wake_at(&self) -> Option<Instant> {
        None
    }

    /// Reacts to [`Handler::wake_at`] having passed. Never called while
    /// the node is crashed: a wake-up that fell due during a crash is
    /// served right after the restart.
    fn on_wake(&mut self, _out: &Outbox<M>) {}
}

impl<M, F> Handler<M> for F
where
    F: FnMut(Envelope<M>, &Outbox<M>) + Send + 'static,
{
    fn on_message(&mut self, envelope: Envelope<M>, out: &Outbox<M>) {
        self(envelope, out)
    }
}

/// One node's thread: it serves its mailbox, its handler's wake-ups and
/// its outbox's delayed sends, each when it falls due, until shutdown. A
/// wake-up that is due is served before the next packet, so a stream of
/// messages cannot starve it.
fn run_node<M: 'static>(
    rx: Receiver<Packet<M>>,
    mut handler: Box<dyn Handler<M>>,
    outbox: Outbox<M>,
) {
    let (id, hub) = (outbox.me, &outbox.hub);
    loop {
        let (wake, delayed) = (handler.wake_at(), outbox.next_delayed());
        let mut wait = None;
        if wake.is_some() || delayed.is_some() {
            let now = Instant::now();
            if delayed.is_some_and(|at| at <= now) {
                outbox.post_delayed(now);
            }
            if wake.is_some_and(|at| at <= now) && !hub.faults.is_crashed(id) {
                handler.on_wake(&outbox);
                continue;
            }
            // A crashed node's due wake-up waits for its restart.
            let next = wake.filter(|at| *at > now).into_iter().chain(outbox.next_delayed()).min();
            wait = next.map(|at| at - now);
        }
        let packet = match wait {
            Some(wait) => match rx.recv_timeout(wait) {
                Ok(packet) => packet,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return,
            },
            None => match rx.recv() {
                Ok(packet) => packet,
                Err(_) => return,
            },
        };
        match packet {
            Packet::Deliver(env) => {
                // A crashed node is a running thread that discards its
                // deliveries; restart makes it responsive again with
                // state intact.
                if hub.faults.is_crashed(id) {
                    hub.stats.dropped.fetch_add(1, Ordering::Relaxed);
                } else {
                    handler.on_message(env, &outbox);
                }
            }
            Packet::Barrier(ack) => {
                let _ = ack.send(());
            }
            Packet::Resume => {}
            Packet::Shutdown => return,
        }
    }
}

impl<M: Send + 'static> Cluster<M> {
    /// Spawns one thread per `(id, handler)` pair with no planned faults.
    /// All nodes can reach each other by id (IP addresses in the paper's
    /// architecture).
    pub fn spawn(nodes: Vec<(NodeId, Box<dyn Handler<M>>)>) -> Self {
        Self::spawn_with(nodes, FaultPlan::new())
    }

    /// [`Cluster::spawn`] under a [`FaultPlan`]: nodes listed as crashed
    /// start unresponsive, and the plan's link drops/delays apply to
    /// every [`Outbox::send`].
    pub fn spawn_with(nodes: Vec<(NodeId, Box<dyn Handler<M>>)>, plan: FaultPlan) -> Self {
        Self::start(nodes, plan, None)
    }

    /// Spawns the node threads, carrying envelopes over `wire` when one
    /// is given and over channels alone otherwise.
    pub(crate) fn start(
        nodes: Vec<(NodeId, Box<dyn Handler<M>>)>,
        plan: FaultPlan,
        wire: Option<Wire<M>>,
    ) -> Self {
        let mut mailboxes = HashMap::new();
        let mut inboxes = Vec::new();
        for (id, handler) in nodes {
            let (tx, rx) = mpsc::channel();
            mailboxes.insert(id, tx);
            inboxes.push((id, rx, handler));
        }
        let hub = Arc::new(Hub {
            mailboxes,
            wire,
            stats: ClusterStats::default(),
            faults: FaultState::from_plan(plan),
        });
        let handles = inboxes
            .into_iter()
            .map(|(me, rx, handler)| {
                let (hub, delayed) = (Arc::clone(&hub), RefCell::default());
                let outbox = Outbox { me, hub, delayed };
                std::thread::spawn(move || run_node(rx, handler, outbox))
            })
            .collect();
        Cluster { hub, handles: Mutex::new(handles) }
    }

    /// Injects a message from the outside world (e.g. the external
    /// application submitting a query in Fig. 3). `from` names the logical
    /// origin. Injection is a test-harness facility: it bypasses the
    /// fault plan's link faults (but a crashed destination still discards
    /// the delivery). On the loopback twin the injection crosses the
    /// socket like any send, unless `from == to`: a node's message to
    /// itself is delivered to its mailbox on every wire.
    pub fn inject(&self, from: NodeId, to: NodeId, payload: M) -> bool {
        self.hub.knows(to) && self.hub.post(Envelope { from, to, payload })
    }

    /// Crashes `node` at runtime: it stops processing deliveries and
    /// sends addressed to it fail fast. Returns `false` if it was already
    /// crashed or unknown.
    pub fn crash(&self, node: NodeId) -> bool {
        self.hub.mailboxes.contains_key(&node) && self.hub.faults.crash(node)
    }

    /// Restarts a crashed `node`: its thread (never actually stopped)
    /// resumes processing with its handler state intact, and serves a
    /// wake-up that fell due while it was down at once. Messages that
    /// arrived while it was down are lost. Returns `false` if it was not
    /// crashed.
    pub fn restart(&self, node: NodeId) -> bool {
        let Some(mailbox) = self.hub.mailboxes.get(&node) else { return false };
        let restarted = self.hub.faults.restart(node);
        if restarted {
            let _ = mailbox.send(Packet::Resume);
        }
        restarted
    }

    /// Whether `node` is currently crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.hub.faults.is_crashed(node)
    }

    /// Blocks until `node` has drained every packet queued before this
    /// call, or `timeout` elapses. Mailboxes are FIFO, so a `true` return
    /// means every earlier delivery to `node` has been fully processed —
    /// the deterministic fence the fault tests use instead of sleeping.
    /// Works on crashed nodes too (their thread still drains packets). In
    /// the loopback twin the fence travels the socket path itself (a
    /// [`crate::tcp::KIND_BARRIER`] frame on the same connection as earlier
    /// sends), so it orders after every frame already written — a
    /// mailbox-only fence could overtake in-flight socket traffic.
    pub fn barrier(&self, node: NodeId, timeout: Duration) -> bool {
        let (ack, acked) = mpsc::sync_channel(1);
        let sent = match &self.hub.wire {
            Some(wire) if wire.fences(node) => wire.send_fence(node, ack),
            _ => {
                let mailbox = self.hub.mailboxes.get(&node);
                mailbox.is_some_and(|tx| tx.send(Packet::Barrier(ack)).is_ok())
            }
        };
        sent && acked.recv_timeout(timeout).is_ok()
    }

    /// Messages delivered so far (sender-side count, wire-agnostic).
    pub fn message_count(&self) -> u64 {
        self.hub.stats.messages.load(Ordering::Relaxed)
    }

    /// Messages lost so far (fault-plan drops plus deliveries discarded
    /// at crashed nodes).
    pub fn dropped_count(&self) -> u64 {
        self.hub.stats.dropped.load(Ordering::Relaxed)
    }

    /// Stops every node thread and waits for them to finish; on the
    /// socket wire, also unblocks the listener and closes every outbound
    /// connection.
    pub fn shutdown(&self) {
        for tx in self.hub.mailboxes.values() {
            let _ = tx.send(Packet::Shutdown);
        }
        let wire = self.hub.wire.as_ref();
        if let Some(wire) = wire {
            wire.stop_accepting();
        }
        let mut handles = lock(&self.handles);
        for h in handles.drain(..) {
            let _ = h.join();
        }
        if let Some(wire) = wire {
            wire.hang_up();
        }
    }
}

impl<M: Send + 'static> Drop for Cluster<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_round_trip() {
        #[derive(Debug)]
        enum Msg {
            Ping(u32, Sender<u32>),
            Pong(u32, Sender<u32>),
        }
        let pinger = |env: Envelope<Msg>, out: &Outbox<Msg>| {
            if let Msg::Ping(n, reply) = env.payload {
                out.send(NodeId(2), Msg::Pong(n + 1, reply));
            }
        };
        let ponger = |env: Envelope<Msg>, _out: &Outbox<Msg>| {
            if let Msg::Pong(n, reply) = env.payload {
                let _ = reply.send(n + 1);
            }
        };
        let cluster = Cluster::spawn(vec![
            (NodeId(1), Box::new(pinger) as Box<dyn Handler<Msg>>),
            (NodeId(2), Box::new(ponger)),
        ]);
        let (tx, rx) = mpsc::channel();
        cluster.inject(NodeId(99), NodeId(1), Msg::Ping(0, tx));
        assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap(), 2);
        assert!(cluster.message_count() >= 2);
        cluster.shutdown();
    }

    #[test]
    fn send_to_unknown_peer_reports_failure() {
        let nop = |_env: Envelope<u8>, _out: &Outbox<u8>| {};
        let cluster = Cluster::spawn(vec![(NodeId(1), Box::new(nop) as Box<dyn Handler<u8>>)]);
        assert!(!cluster.inject(NodeId(0), NodeId(42), 7));
        cluster.shutdown();
    }

    #[test]
    fn fan_out_reaches_all_nodes() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let hits = Arc::new(AtomicU32::new(0));
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let mut nodes: Vec<(NodeId, Box<dyn Handler<u8>>)> = Vec::new();
        for i in 1..=8u64 {
            let hits = Arc::clone(&hits);
            let done = done_tx.clone();
            nodes.push((
                NodeId(i),
                Box::new(move |_env: Envelope<u8>, _out: &Outbox<u8>| {
                    if hits.fetch_add(1, Ordering::SeqCst) + 1 == 8 {
                        let _ = done.send(());
                    }
                }),
            ));
        }
        let cluster = Cluster::spawn(nodes);
        for i in 1..=8u64 {
            cluster.inject(NodeId(0), NodeId(i), 1);
        }
        done_rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 8);
        cluster.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let nop = |_env: Envelope<u8>, _out: &Outbox<u8>| {};
        let cluster = Cluster::spawn(vec![(NodeId(1), Box::new(nop) as Box<dyn Handler<u8>>)]);
        cluster.shutdown();
        cluster.shutdown();
        drop(cluster);
    }

    #[test]
    fn barrier_fences_prior_deliveries() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let seen = Arc::new(AtomicU32::new(0));
        let counter = Arc::clone(&seen);
        let node = move |_env: Envelope<u8>, _out: &Outbox<u8>| {
            counter.fetch_add(1, Ordering::SeqCst);
        };
        let cluster = Cluster::spawn(vec![(NodeId(1), Box::new(node) as Box<dyn Handler<u8>>)]);
        for _ in 0..100 {
            cluster.inject(NodeId(0), NodeId(1), 1);
        }
        assert!(cluster.barrier(NodeId(1), Duration::from_secs(5)));
        assert_eq!(seen.load(Ordering::SeqCst), 100);
        cluster.shutdown();
    }
}
