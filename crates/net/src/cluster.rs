//! A thread-backed transport: every node is an OS thread, messages move
//! over crossbeam channels.
//!
//! The discrete-event [`crate::Network`] gives deterministic *costs*; this
//! module demonstrates the same protocols running under real concurrency.
//! Nodes are user-supplied handler closures; the cluster routes
//! envelopes, counts traffic with atomics, and shuts down cleanly.
//!
//! Routing goes through a small internal `Router`: local nodes are
//! crossbeam mailboxes, and an optional `RemoteRoute` hook lets a
//! socket transport claim destinations before the mailbox lookup. The
//! thread cluster installs no hook; [`crate::tcp::TcpCluster`] installs
//! one that frames envelopes onto TCP connections — same [`Outbox`]
//! contract, different wire (see `docs/DEPLOYMENT.md`).
//!
//! Fault tolerance is exercised through [`crate::FaultPlan`] (declarative
//! crash / drop / delay schedules), [`Cluster::crash`] /
//! [`Cluster::restart`] (runtime liveness control), and a per-cluster
//! timer thread so handlers can schedule deadline messages to themselves
//! with [`Outbox::schedule`] — the building block for the paper's
//! query-ack timeouts (Sect. III-D) on real threads. See `docs/FAULTS.md`.

use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use crate::fault::{FaultPlan, FaultState, SendFate};
use crate::network::NodeId;

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
    Barrier(Sender<()>),
    Shutdown,
}

type PendingNode<M> = (NodeId, Receiver<Packet<M>>, Box<dyn Handler<M>>);

/// Shared traffic counters for a running cluster.
#[derive(Debug, Default)]
pub struct ClusterStats {
    /// Messages delivered between distinct nodes.
    pub messages: AtomicU64,
    /// Messages silently lost by the fault plan (drops), plus deliveries
    /// discarded because the destination was crashed at delivery time.
    pub dropped: AtomicU64,
}

/// A transport hook consulted by the [`Router`] before the local mailbox
/// lookup. Implemented by the TCP transport so envelopes addressed to
/// remote processes (or, in loopback twin mode, to local nodes as well)
/// leave through a socket instead of a channel.
pub(crate) trait RemoteRoute<M>: Send + Sync {
    /// Tries to route `env` remotely. `Ok(delivered)` means the hook
    /// claimed the envelope (it was written to a socket, or the write
    /// failed); `Err(env)` returns it for local mailbox delivery.
    fn route(&self, env: Envelope<M>) -> Result<bool, Envelope<M>>;
    /// Whether `to` is reachable through this hook.
    fn reaches(&self, to: NodeId) -> bool;
    /// Node ids reachable through this hook (for [`Outbox::peers`]).
    fn peer_ids(&self) -> Vec<NodeId>;
}

/// Message routing for one cluster: local mailboxes plus an optional
/// remote transport hook.
pub(crate) struct Router<M> {
    mailboxes: Arc<HashMap<NodeId, Sender<Packet<M>>>>,
    remote: Option<Arc<dyn RemoteRoute<M>>>,
}

impl<M> Router<M> {
    /// Delivers `env`, letting the remote hook claim it first.
    pub(crate) fn deliver(&self, env: Envelope<M>) -> bool {
        let env = match &self.remote {
            Some(hook) => match hook.route(env) {
                Ok(delivered) => return delivered,
                Err(env) => env,
            },
            None => env,
        };
        self.deliver_local(env)
    }

    /// Delivers `env` straight to a local mailbox.
    fn deliver_local(&self, env: Envelope<M>) -> bool {
        match self.mailboxes.get(&env.to) {
            Some(tx) => tx.send(Packet::Deliver(env)).is_ok(),
            None => false,
        }
    }

    /// Whether `to` is a known destination (local or remote).
    pub(crate) fn knows(&self, to: NodeId) -> bool {
        self.mailboxes.contains_key(&to)
            || self.remote.as_ref().is_some_and(|r| r.reaches(to))
    }

    fn peer_ids(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.mailboxes.keys().copied().collect();
        if let Some(remote) = &self.remote {
            ids.extend(remote.peer_ids());
        }
        ids.sort();
        ids.dedup();
        ids
    }
}

/// An entry in the timer thread's deadline heap: deliver `payload` from
/// `from` to `to` at `at`. Ordered by `(at, seq)` so equal deadlines fire
/// in schedule order.
struct TimerEntry<M> {
    at: Instant,
    seq: u64,
    from: NodeId,
    to: NodeId,
    payload: M,
}

impl<M> PartialEq for TimerEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for TimerEntry<M> {}
impl<M> PartialOrd for TimerEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for TimerEntry<M> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

enum TimerCmd<M> {
    Schedule(TimerEntry<M>),
    Shutdown,
}

/// Handle through which a node handler sends messages to peers.
pub struct Outbox<M> {
    me: NodeId,
    router: Arc<Router<M>>,
    stats: Arc<ClusterStats>,
    faults: Arc<FaultState>,
    timer: Sender<TimerCmd<M>>,
    timer_seq: Arc<AtomicU64>,
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
    /// the sender's own deadlines (Sect. III-D). On the socket transport
    /// an unreachable process likewise fails the send (connection
    /// refused), so the contract is transport-independent.
    pub fn send(&self, to: NodeId, payload: M) -> bool {
        if !self.router.knows(to) {
            return false;
        }
        match self.faults.on_send(self.me, to) {
            SendFate::Refuse => false,
            SendFate::Drop => {
                self.stats.dropped.fetch_add(1, Ordering::Relaxed);
                true
            }
            SendFate::Delay(by) => {
                self.schedule_entry(by, self.me, to, payload);
                true
            }
            SendFate::Deliver => {
                if to != self.me {
                    self.stats.messages.fetch_add(1, Ordering::Relaxed);
                }
                self.router.deliver(Envelope { from: self.me, to, payload })
            }
        }
    }

    /// Schedules `payload` for delivery to *this node itself* after
    /// `after` — a deadline message. Self-deadlines bypass the fault
    /// plan's link faults (they never cross the network) but are
    /// discarded like any delivery if the node is crashed when they fire.
    pub fn schedule(&self, after: Duration, payload: M) {
        self.schedule_entry(after, self.me, self.me, payload);
    }

    fn schedule_entry(&self, after: Duration, from: NodeId, to: NodeId, payload: M) {
        let entry = TimerEntry {
            at: Instant::now() + after,
            seq: self.timer_seq.fetch_add(1, Ordering::Relaxed),
            from,
            to,
            payload,
        };
        let _ = self.timer.send(TimerCmd::Schedule(entry));
    }

    /// The node ids reachable from this node.
    pub fn peers(&self) -> Vec<NodeId> {
        self.router.peer_ids()
    }
}

/// A running set of node threads.
pub struct Cluster<M: Send + 'static> {
    mailboxes: Arc<HashMap<NodeId, Sender<Packet<M>>>>,
    router: Arc<Router<M>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    stats: Arc<ClusterStats>,
    faults: Arc<FaultState>,
    timer: Sender<TimerCmd<M>>,
}

/// A node's behaviour: invoked once per delivered envelope.
pub trait Handler<M>: Send + 'static {
    /// Reacts to one message; may send further messages via `out`.
    fn on_message(&mut self, envelope: Envelope<M>, out: &Outbox<M>);
}

impl<M, F> Handler<M> for F
where
    F: FnMut(Envelope<M>, &Outbox<M>) + Send + 'static,
{
    fn on_message(&mut self, envelope: Envelope<M>, out: &Outbox<M>) {
        self(envelope, out)
    }
}

fn run_timer<M: Send + 'static>(
    rx: Receiver<TimerCmd<M>>,
    router: Arc<Router<M>>,
    stats: Arc<ClusterStats>,
) {
    let mut heap: BinaryHeap<TimerEntry<M>> = BinaryHeap::new();
    loop {
        // Fire everything due.
        let now = Instant::now();
        while heap.peek().is_some_and(|e| e.at <= now) {
            let e = heap.pop().expect("peeked");
            // A self-deadline is no inter-node message, and `deliver`
            // keeps it off the network on every transport.
            if e.from != e.to {
                stats.messages.fetch_add(1, Ordering::Relaxed);
            }
            router.deliver(Envelope { from: e.from, to: e.to, payload: e.payload });
        }
        // Sleep until the next deadline or the next command.
        let cmd = match heap.peek() {
            Some(e) => {
                let wait = e.at.saturating_duration_since(Instant::now());
                match rx.recv_timeout(wait) {
                    Ok(cmd) => Some(cmd),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            }
            None => match rx.recv() {
                Ok(cmd) => Some(cmd),
                Err(_) => return,
            },
        };
        match cmd {
            Some(TimerCmd::Schedule(e)) => heap.push(e),
            Some(TimerCmd::Shutdown) => return,
            None => {}
        }
    }
}

/// The pre-spawn pieces of a cluster: mailbox channels, shared stats and
/// fault state. The TCP transport prepares these first so its listener
/// threads can deliver into the mailboxes, then finishes the spawn with
/// its remote-route hook installed.
pub(crate) struct ClusterParts<M: Send + 'static> {
    pub(crate) mailboxes: Arc<HashMap<NodeId, Sender<Packet<M>>>>,
    pub(crate) stats: Arc<ClusterStats>,
    pub(crate) faults: Arc<FaultState>,
    pending: Vec<PendingNode<M>>,
}

impl<M: Send + 'static> ClusterParts<M> {
    pub(crate) fn prepare(nodes: Vec<(NodeId, Box<dyn Handler<M>>)>, plan: FaultPlan) -> Self {
        let mut mailboxes = HashMap::new();
        let mut pending: Vec<PendingNode<M>> = Vec::new();
        for (id, handler) in nodes {
            let (tx, rx) = unbounded();
            mailboxes.insert(id, tx);
            pending.push((id, rx, handler));
        }
        ClusterParts {
            mailboxes: Arc::new(mailboxes),
            stats: Arc::new(ClusterStats::default()),
            faults: Arc::new(FaultState::from_plan(plan)),
            pending,
        }
    }

    /// Spawns the timer and node threads, routing through `remote` when
    /// one is given.
    pub(crate) fn finish(self, remote: Option<Arc<dyn RemoteRoute<M>>>) -> Cluster<M> {
        let router = Arc::new(Router { mailboxes: Arc::clone(&self.mailboxes), remote });
        let (timer_tx, timer_rx) = unbounded();
        let timer_seq = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        handles.push({
            let router = Arc::clone(&router);
            let stats = Arc::clone(&self.stats);
            std::thread::spawn(move || run_timer(timer_rx, router, stats))
        });
        for (id, rx, mut handler) in self.pending {
            let outbox = Outbox {
                me: id,
                router: Arc::clone(&router),
                stats: Arc::clone(&self.stats),
                faults: Arc::clone(&self.faults),
                timer: timer_tx.clone(),
                timer_seq: Arc::clone(&timer_seq),
            };
            let faults = Arc::clone(&self.faults);
            handles.push(std::thread::spawn(move || {
                while let Ok(packet) = rx.recv() {
                    match packet {
                        Packet::Deliver(env) => {
                            // A crashed node is a running thread that
                            // discards its deliveries; restart makes it
                            // responsive again with state intact.
                            if faults.is_crashed(id) {
                                outbox.stats.dropped.fetch_add(1, Ordering::Relaxed);
                            } else {
                                handler.on_message(env, &outbox);
                            }
                        }
                        Packet::Barrier(ack) => {
                            let _ = ack.send(());
                        }
                        Packet::Shutdown => break,
                    }
                }
            }));
        }
        Cluster {
            mailboxes: self.mailboxes,
            router,
            handles: Mutex::new(handles),
            stats: self.stats,
            faults: self.faults,
            timer: timer_tx,
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
        ClusterParts::prepare(nodes, plan).finish(None)
    }

    /// Injects a message from the outside world (e.g. the external
    /// application submitting a query in Fig. 3). `from` names the logical
    /// origin. Injection is a test-harness facility: it bypasses the
    /// fault plan's link faults (but a crashed destination still discards
    /// the delivery).
    pub fn inject(&self, from: NodeId, to: NodeId, payload: M) -> bool {
        if !self.router.knows(to) {
            return false;
        }
        if from != to {
            self.stats.messages.fetch_add(1, Ordering::Relaxed);
        }
        self.router.deliver(Envelope { from, to, payload })
    }

    /// Crashes `node` at runtime: it stops processing deliveries and
    /// sends addressed to it fail fast. Returns `false` if it was already
    /// crashed or unknown.
    pub fn crash(&self, node: NodeId) -> bool {
        self.mailboxes.contains_key(&node) && self.faults.crash(node)
    }

    /// Restarts a crashed `node`: its thread (never actually stopped)
    /// resumes processing with its handler state intact. Messages that
    /// arrived while it was down are lost. Returns `false` if it was not
    /// crashed.
    pub fn restart(&self, node: NodeId) -> bool {
        self.mailboxes.contains_key(&node) && self.faults.restart(node)
    }

    /// Whether `node` is currently crashed.
    pub fn is_crashed(&self, node: NodeId) -> bool {
        self.faults.is_crashed(node)
    }

    /// Blocks until `node` has drained every packet queued before this
    /// call, or `timeout` elapses. Mailboxes are FIFO, so a `true` return
    /// means every earlier delivery to `node` has been fully processed —
    /// the deterministic fence the fault tests use instead of sleeping.
    /// Works on crashed nodes too (their thread still drains packets).
    pub fn barrier(&self, node: NodeId, timeout: Duration) -> bool {
        let Some(tx) = self.mailboxes.get(&node) else { return false };
        let (ack_tx, ack_rx) = bounded(1);
        if tx.send(Packet::Barrier(ack_tx)).is_err() {
            return false;
        }
        ack_rx.recv_timeout(timeout).is_ok()
    }

    /// Messages delivered so far.
    pub fn message_count(&self) -> u64 {
        self.stats.messages.load(Ordering::Relaxed)
    }

    /// Messages lost so far (fault-plan drops plus deliveries discarded
    /// at crashed nodes).
    pub fn dropped_count(&self) -> u64 {
        self.stats.dropped.load(Ordering::Relaxed)
    }

    /// Stops every node thread and waits for them to finish.
    pub fn shutdown(&self) {
        for tx in self.mailboxes.values() {
            let _ = tx.send(Packet::Shutdown);
        }
        let _ = self.timer.send(TimerCmd::Shutdown);
        let mut handles = self.handles.lock();
        for h in handles.drain(..) {
            let _ = h.join();
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
    use crossbeam::channel::unbounded as chan;

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
        let (tx, rx) = chan();
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
        let (done_tx, done_rx) = chan::<()>();
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
