//! Integration tests of the network substrate: the cluster's fault
//! scenarios on both of its wires, the socket wire's defences against a
//! hostile peer, and the cost model composed with the scheduler.

use std::cell::Cell;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rdfmesh_net::tcp::{
    encode_frame, read_frame, write_handshake, HANDSHAKE_TIMEOUT, KIND_ENVELOPE, MAX_FRAME,
};
use rdfmesh_net::{
    Cluster, Envelope, FaultPlan, Handler, LatencyModel, Network, NodeId, Outbox, Scheduler,
    SimTime, WireFault, WireMsg,
};

/// Counts the bytes the current thread asks the allocator for, so a test
/// can bound what reading one frame costs. Per thread, because the
/// harness runs the other tests of this binary beside it.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator outlives a dying thread's locals.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes));
}

// SAFETY: every request is handed to `System` unchanged; the only
// addition is a thread-local integer with no destructor and no
// allocation of its own, so it cannot re-enter the allocator.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's contract, passed through.
        unsafe { std::alloc::System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: the caller's contract, passed through.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new: usize) -> *mut u8 {
        count(new);
        // SAFETY: the caller's contract, passed through.
        unsafe { std::alloc::System.realloc(ptr, layout, new) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The scenarios' message: one number, which crosses either wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Tag(u64);

impl WireMsg for Tag {
    fn encode_wire(&self) -> Vec<u8> {
        self.0.to_le_bytes().to_vec()
    }
    fn decode_wire(bytes: &[u8]) -> Result<Self, WireFault> {
        Ok(Tag(u64::from_le_bytes(bytes.try_into().map_err(|_| WireFault("not 8 bytes"))?)))
    }
}

type Nodes = Vec<(NodeId, Box<dyn Handler<Tag>>)>;

/// The same nodes under the same plan on each wire: a cluster over
/// channels, then one over loopback sockets, where every send between
/// distinct nodes crosses the listener.
fn on_both_wires(nodes: impl Fn() -> Nodes, plan: FaultPlan) -> [Cluster<Tag>; 2] {
    [
        Cluster::spawn_with(nodes(), plan.clone()),
        Cluster::spawn_loopback(nodes(), plan).expect("loopback binds"),
    ]
}

/// An echo node: reports every tag it receives, with its own id.
fn echo(reply: &Sender<(NodeId, u64)>) -> Box<dyn Handler<Tag>> {
    let reply = reply.clone();
    Box::new(move |env: Envelope<Tag>, out: &Outbox<Tag>| {
        let _ = reply.send((out.me(), env.payload.0));
    })
}

#[test]
fn cluster_survives_a_message_flood() {
    // A ring of 16 nodes forwarding a token around 1000 times.
    struct Forward {
        next: NodeId,
        seen: Arc<AtomicU64>,
        done: Sender<u64>,
    }
    impl Handler<Tag> for Forward {
        fn on_message(&mut self, env: Envelope<Tag>, out: &Outbox<Tag>) {
            self.seen.fetch_add(1, Ordering::Relaxed);
            match env.payload.0 {
                0 => {
                    let _ = self.done.send(self.seen.load(Ordering::Relaxed));
                }
                remaining => {
                    out.send(self.next, Tag(remaining - 1));
                }
            }
        }
    }

    let n = 16u64;
    let (tx, rx) = channel();
    let nodes = || -> Nodes {
        let seen = Arc::new(AtomicU64::new(0));
        (0..n)
            .map(|i| {
                let next = NodeId((i + 1) % n);
                let node = Forward { next, seen: Arc::clone(&seen), done: tx.clone() };
                (NodeId(i), Box::new(node) as Box<dyn Handler<Tag>>)
            })
            .collect()
    };
    for cluster in on_both_wires(nodes, FaultPlan::new()) {
        cluster.inject(NodeId(99), NodeId(0), Tag(1000));
        let total = rx.recv_timeout(Duration::from_secs(30)).expect("token returned");
        assert!(total >= 1000);
        assert!(cluster.message_count() >= 1000);
        cluster.shutdown();
    }
}

#[test]
fn fault_plan_drops_exactly_the_nth_message() {
    // A relay that forwards each tag from node 1 to node 2; the plan
    // loses the 2nd message on that link.
    let relay = |env: Envelope<Tag>, out: &Outbox<Tag>| {
        assert!(out.send(NodeId(2), env.payload), "dropped sends still report success");
    };
    let (tx, rx) = channel();
    let nodes = || -> Nodes { vec![(NodeId(1), Box::new(relay)), (NodeId(2), echo(&tx))] };
    let plan = FaultPlan::new().drop_nth(NodeId(1), NodeId(2), 2);
    for cluster in on_both_wires(nodes, plan) {
        for tag in 0..3u64 {
            cluster.inject(NodeId(0), NodeId(1), Tag(tag));
        }
        let mut tags = Vec::new();
        while let Ok((_, tag)) = rx.recv_timeout(Duration::from_secs(2)) {
            tags.push(tag);
        }
        assert_eq!(tags, vec![0, 2], "exactly the 2nd relay message is lost");
        assert_eq!(cluster.dropped_count(), 1);
        cluster.shutdown();
    }
}

#[test]
fn crash_makes_sends_fail_and_restart_recovers_state() {
    // A counter node: proves restart resumes with handler state intact.
    struct Count {
        n: u64,
        report: Sender<u64>,
    }
    impl Handler<Tag> for Count {
        fn on_message(&mut self, _env: Envelope<Tag>, _out: &Outbox<Tag>) {
            self.n += 1;
            let _ = self.report.send(self.n);
        }
    }
    let (tx, rx) = channel();
    let nodes = || -> Nodes {
        // A prober so we can exercise Outbox::send (inject bypasses faults).
        let refused = tx.clone();
        let probe = move |_env: Envelope<Tag>, out: &Outbox<Tag>| {
            if !out.send(NodeId(1), Tag(0)) {
                let _ = refused.send(u64::MAX); // send refused
            }
        };
        vec![
            (NodeId(1), Box::new(Count { n: 0, report: tx.clone() })),
            (NodeId(9), Box::new(probe)),
        ]
    };
    for cluster in on_both_wires(nodes, FaultPlan::new()) {
        cluster.inject(NodeId(0), NodeId(9), Tag(0));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 1);

        assert!(cluster.crash(NodeId(1)));
        assert!(cluster.is_crashed(NodeId(1)));
        cluster.inject(NodeId(0), NodeId(9), Tag(0));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), u64::MAX);

        assert!(cluster.restart(NodeId(1)));
        cluster.inject(NodeId(0), NodeId(9), Tag(0));
        // The pre-crash count survives: 1 + 1 = 2 (the refused probe never
        // reached the counter).
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 2);
        cluster.shutdown();
    }
}

#[test]
fn delayed_link_delivers_after_direct_messages() {
    // Node 1 relays to node 2 over a delayed link, then reports directly:
    // the delayed copy must arrive at node 2 after a fresh direct send.
    let relay = |_env: Envelope<Tag>, out: &Outbox<Tag>| {
        out.send(NodeId(2), Tag(1)); // delayed 300 ms
        out.send(NodeId(3), Tag(2)); // undelayed relay via node 3
    };
    let hop = |env: Envelope<Tag>, out: &Outbox<Tag>| {
        out.send(NodeId(2), env.payload);
    };
    let (tx, rx) = channel();
    let nodes = || -> Nodes {
        vec![(NodeId(1), Box::new(relay)), (NodeId(2), echo(&tx)), (NodeId(3), Box::new(hop))]
    };
    let plan = FaultPlan::new().delay(NodeId(1), NodeId(2), Duration::from_millis(300));
    for cluster in on_both_wires(nodes, plan) {
        cluster.inject(NodeId(0), NodeId(1), Tag(0));
        let first = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let second = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((first.1, second.1), (2, 1), "the delayed message lands last");
        cluster.shutdown();
    }
}

/// A node that keeps its own alarms: each message arms one wake-up per
/// `(after, tag)` of `arm`, and each wake-up reports the tags of the
/// alarms that are due, earliest first.
struct Alarms {
    arm: Vec<(Duration, u64)>,
    armed: Vec<(Instant, u64)>,
    reply: Sender<(NodeId, u64)>,
}

impl Handler<Tag> for Alarms {
    fn on_message(&mut self, _env: Envelope<Tag>, _out: &Outbox<Tag>) {
        let now = Instant::now();
        let arm = self.arm.drain(..).map(|(after, tag)| (now + after, tag));
        self.armed.extend(arm);
    }

    fn wake_at(&self) -> Option<Instant> {
        self.armed.iter().map(|(at, _)| *at).min()
    }

    fn on_wake(&mut self, out: &Outbox<Tag>) {
        let now = Instant::now();
        self.armed.sort();
        let due = self.armed.iter().take_while(|(at, _)| *at <= now).count();
        for (_, tag) in self.armed.drain(..due) {
            let _ = self.reply.send((out.me(), tag));
        }
    }
}

fn alarms(arm: &[(u64, u64)], reply: &Sender<(NodeId, u64)>) -> Box<dyn Handler<Tag>> {
    let arm = arm.iter().map(|&(ms, tag)| (Duration::from_millis(ms), tag)).collect();
    Box::new(Alarms { arm, armed: Vec::new(), reply: reply.clone() })
}

#[test]
fn a_handler_is_woken_at_the_times_it_asks_for_earliest_first() {
    // A node arms two wake-ups, out of order; they must come
    // earliest-first, neither early, and neither as network traffic.
    let (tx, rx) = channel();
    let nodes = || -> Nodes { vec![(NodeId(1), alarms(&[(200, 10), (20, 20)], &tx))] };
    for cluster in on_both_wires(nodes, FaultPlan::new()) {
        let before = cluster.message_count();
        let armed = Instant::now();
        cluster.inject(NodeId(0), NodeId(1), Tag(0));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap().1, 20);
        assert!(armed.elapsed() >= Duration::from_millis(20), "woken early");
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap().1, 10);
        assert!(armed.elapsed() >= Duration::from_millis(200), "woken early");
        // Wake-ups are not network traffic.
        assert_eq!(cluster.message_count(), before + 1);
        cluster.shutdown();
    }
}

#[test]
fn a_due_wake_up_is_served_while_messages_keep_arriving() {
    let (tx, rx) = channel();
    let nodes = || -> Nodes { vec![(NodeId(1), alarms(&[(20, 7)], &tx))] };
    for cluster in on_both_wires(nodes, FaultPlan::new()) {
        let flooding = Instant::now() + Duration::from_secs(10);
        let mut woken = None;
        while woken.is_none() && Instant::now() < flooding {
            cluster.inject(NodeId(0), NodeId(1), Tag(0));
            woken = rx.try_recv().ok();
        }
        assert_eq!(woken.map(|(_, tag)| tag), Some(7), "starved by a stream of messages");
        cluster.shutdown();
    }
}

#[test]
fn a_crashed_node_is_woken_only_after_its_restart() {
    let (tx, rx) = channel();
    let nodes = || -> Nodes { vec![(NodeId(1), alarms(&[(300, 7)], &tx))] };
    for cluster in on_both_wires(nodes, FaultPlan::new()) {
        cluster.inject(NodeId(0), NodeId(1), Tag(0));
        assert!(cluster.barrier(NodeId(1), Duration::from_secs(5)), "the alarm is armed");
        assert!(cluster.crash(NodeId(1)));
        assert!(rx.recv_timeout(Duration::from_millis(500)).is_err(), "woken while crashed");
        assert!(cluster.restart(NodeId(1)));
        let woken = rx.recv_timeout(Duration::from_secs(5)).expect("woken after the restart");
        assert_eq!(woken, (NodeId(1), 7));
        cluster.shutdown();
    }
}

#[test]
fn spawn_with_pre_crashed_node_refuses_sends() {
    let (tx, rx) = channel();
    let nodes = || -> Nodes {
        let reply = tx.clone();
        let probe = move |_env: Envelope<Tag>, out: &Outbox<Tag>| {
            let ok = out.send(NodeId(2), Tag(0));
            let _ = reply.send((out.me(), ok as u64));
        };
        vec![(NodeId(1), Box::new(probe)), (NodeId(2), echo(&tx))]
    };
    for cluster in on_both_wires(nodes, FaultPlan::new().crash(NodeId(2))) {
        cluster.inject(NodeId(0), NodeId(1), Tag(0));
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), (NodeId(1), 0));
        cluster.shutdown();
    }
}

#[test]
fn barrier_works_on_a_crashed_node() {
    let (tx, _rx) = channel();
    let nodes = || -> Nodes { vec![(NodeId(1), echo(&tx)), (NodeId(2), echo(&tx))] };
    for cluster in on_both_wires(nodes, FaultPlan::new()) {
        assert!(cluster.crash(NodeId(1)));
        cluster.inject(NodeId(0), NodeId(1), Tag(7));
        // The crashed node still drains (and discards) its mailbox.
        assert!(cluster.barrier(NodeId(1), Duration::from_secs(5)));
        assert!(cluster.dropped_count() >= 1);
        cluster.shutdown();
    }
}

#[test]
fn a_header_claiming_max_frame_then_eof_is_refused_before_the_body_is_allocated() {
    // Five bytes — a length field claiming the largest legal frame and
    // its kind byte — and then the stream ends.
    let mut header = MAX_FRAME.to_le_bytes().to_vec();
    header.push(KIND_ENVELOPE);
    let mut stream = io::Cursor::new(header);
    let before = ALLOCATED.with(Cell::get);
    let refused = read_frame(&mut stream).expect_err("a truncated body is refused");
    let allocated = ALLOCATED.with(Cell::get) - before;
    assert_eq!(refused.kind(), io::ErrorKind::InvalidData);
    assert!(allocated <= 64 << 10, "a 5-byte header cost {allocated} B");
}

#[test]
fn a_connection_that_never_says_hello_is_closed_at_the_handshake_deadline() {
    let nop = |_env: Envelope<Tag>, _out: &Outbox<Tag>| {};
    let nodes: Nodes = vec![(NodeId(1), Box::new(nop))];
    let cluster = Cluster::spawn_loopback(nodes, FaultPlan::new()).expect("loopback binds");
    let mut silent = TcpStream::connect(cluster.local_addr().expect("bound")).unwrap();
    let patience = HANDSHAKE_TIMEOUT + Duration::from_secs(5);
    silent.set_read_timeout(Some(patience)).unwrap();
    let began = Instant::now();
    let read = silent.read(&mut [0u8; 1]);
    assert_eq!(read.expect("closed by the peer, not timed out here"), 0, "EOF");
    assert!(began.elapsed() < patience);
    let counted = Instant::now() + Duration::from_secs(5);
    while cluster.transport_stats().expect("a socket wire").decode_errors != 1 {
        assert!(Instant::now() < counted, "{:?}", cluster.transport_stats());
        std::thread::sleep(Duration::from_millis(10));
    }
    cluster.shutdown();
}

/// Waits up to `by` for the cluster's socket wire to count `want` decode
/// errors.
fn await_decode_errors(cluster: &Cluster<Tag>, want: u64, by: Instant) {
    while cluster.transport_stats().expect("a socket wire").decode_errors != want {
        assert!(Instant::now() < by, "{:?}", cluster.transport_stats());
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn a_frame_stalled_mid_body_is_closed_at_the_deadline() {
    let nop = |_env: Envelope<Tag>, _out: &Outbox<Tag>| {};
    let nodes: Nodes = vec![(NodeId(1), Box::new(nop))];
    let cluster = Cluster::spawn_loopback(nodes, FaultPlan::new()).expect("loopback binds");
    let mut stalled = TcpStream::connect(cluster.local_addr().expect("bound")).unwrap();
    write_handshake(&mut stalled).unwrap();
    // A header claiming 64 KiB, then 10 of those bytes, then silence.
    let mut start = (64u32 << 10).to_le_bytes().to_vec();
    start.push(KIND_ENVELOPE);
    start.extend_from_slice(&[0; 9]);
    stalled.write_all(&start).unwrap();
    let patience = HANDSHAKE_TIMEOUT + Duration::from_secs(1);
    let began = Instant::now();
    stalled.set_read_timeout(Some(patience)).unwrap();
    let read = stalled.read(&mut [0u8; 1]);
    assert_eq!(read.expect("closed by the peer, not timed out here"), 0, "EOF");
    await_decode_errors(&cluster, 1, began + patience);
    cluster.shutdown();
}

#[test]
fn a_connection_idle_between_frames_past_the_deadline_still_delivers_both() {
    let (tx, rx) = channel();
    let nodes: Nodes = vec![(NodeId(1), echo(&tx))];
    let cluster = Cluster::spawn_loopback(nodes, FaultPlan::new()).expect("loopback binds");
    let mut peer = TcpStream::connect(cluster.local_addr().expect("bound")).unwrap();
    write_handshake(&mut peer).unwrap();
    let frame = |tag: u64| {
        let body = [9u64.to_le_bytes(), 1u64.to_le_bytes(), tag.to_le_bytes()].concat();
        encode_frame(KIND_ENVELOPE, &body)
    };
    // The first frame arrives in two writes, so its rest is read under
    // the deadline, which must be lifted again for the idle wait.
    let first = frame(1);
    peer.write_all(&first[..4]).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    peer.write_all(&first[4..]).unwrap();
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), (NodeId(1), 1));
    std::thread::sleep(HANDSHAKE_TIMEOUT + Duration::from_millis(500));
    peer.write_all(&frame(2)).unwrap();
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), (NodeId(1), 2));
    assert_eq!(cluster.transport_stats().expect("a socket wire").decode_errors, 0);
    cluster.shutdown();
}

#[test]
fn parallel_fanout_vs_chain_latency_model() {
    // The cost model must show the paper's core latency asymmetry:
    // fan-out to k nodes costs one latency; a chain costs k.
    let net = Network::new(LatencyModel::Uniform(SimTime::millis(5)), f64::INFINITY);
    let k = 10u64;
    let start = SimTime::ZERO;
    let mut fanout_done = SimTime::ZERO;
    for i in 1..=k {
        fanout_done = fanout_done.max(net.send(NodeId(0), NodeId(i), 100, start));
    }
    let mut chain_done = start;
    for i in 1..=k {
        chain_done = net.send(NodeId(i - 1), NodeId(i), 100, chain_done);
    }
    assert_eq!(fanout_done, SimTime::millis(5));
    assert_eq!(chain_done, SimTime::millis(5 * k));
}

#[test]
fn scheduler_drives_network_events_deterministically() {
    // Two runs of the same scripted workload must produce identical
    // statistics.
    fn run() -> (u64, u64) {
        let net = Network::new(LatencyModel::Hashed {
            min: SimTime::micros(100),
            max: SimTime::millis(2),
            seed: 99,
        }, 10.0);
        let mut sched: Scheduler<(u64, u64, usize)> = Scheduler::new();
        for i in 0..50u64 {
            sched.schedule_at(SimTime(i * 1000), (i % 7, (i + 3) % 7, 64 + i as usize));
        }
        while let Some((t, (from, to, bytes))) = sched.next() {
            net.send(NodeId(from), NodeId(to), bytes, t);
        }
        let s = net.stats();
        (s.messages, s.total_bytes)
    }
    assert_eq!(run(), run());
}

#[test]
fn hashed_latency_affects_arrival_times() {
    let net = Network::new(
        LatencyModel::Hashed { min: SimTime::micros(500), max: SimTime::millis(3), seed: 5 },
        f64::INFINITY,
    );
    let a = net.send(NodeId(1), NodeId(2), 10, SimTime::ZERO);
    let b = net.send(NodeId(1), NodeId(3), 10, SimTime::ZERO);
    // Deterministic per pair, almost surely different across pairs.
    assert_eq!(a, net.send(NodeId(1), NodeId(2), 10, SimTime::ZERO));
    assert_ne!(a, b);
}

/// A message of any size: its payload is that many zero bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Blob(usize);

impl WireMsg for Blob {
    fn encode_wire(&self) -> Vec<u8> {
        vec![0; self.0]
    }
    fn decode_wire(bytes: &[u8]) -> Result<Self, WireFault> {
        Ok(Blob(bytes.len()))
    }
}

#[test]
fn an_envelope_over_max_frame_fails_at_the_sender_and_its_connection_carries_the_next() {
    let (tx, rx) = channel();
    let seen = move |env: Envelope<Blob>, _out: &Outbox<Blob>| {
        let _ = tx.send(env.payload.0);
    };
    let nodes: Vec<(NodeId, Box<dyn Handler<Blob>>)> = vec![(NodeId(1), Box::new(seen))];
    let cluster = Cluster::spawn_loopback(nodes, FaultPlan::new()).expect("loopback binds");
    // Kind byte, from and to (17 bytes) and the payload: one byte too many.
    let oversized = Blob(MAX_FRAME as usize - 16);
    assert!(cluster.inject(NodeId(9), NodeId(1), Blob(8)));
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(8), "the first frame arrives");
    assert!(!cluster.inject(NodeId(9), NodeId(1), oversized), "refused at the sender");
    assert!(cluster.inject(NodeId(9), NodeId(1), Blob(16)));
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(16), "the next frame arrives");
    let stats = cluster.transport_stats().expect("a socket wire");
    assert_eq!(stats.send_failures, 1, "{stats:?}");
    assert_eq!(stats.frames_sent, 2, "{stats:?}");
    assert_eq!((stats.connects, stats.reconnects), (1, 0), "one connection throughout: {stats:?}");
    assert_eq!(stats.decode_errors, 0, "{stats:?}");
    cluster.shutdown();
}
