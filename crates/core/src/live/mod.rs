//! The query protocol's three roles — coordinator, index node, storage
//! node — and the one host that runs them on a cluster.
//!
//! Every role is a pure state machine: `CoordinatorCore`, `IndexNode` and
//! `LiveStorage` each consume one event, `on_event(from, msg)`, and
//! return the actions it calls for — send a frame, schedule a deadline
//! to itself, finish a round. None holds a channel, a thread, a clock or
//! an [`rdfmesh_net::Outbox`]; each is told its own address at
//! construction. `Role` is the one [`Handler`] that runs those actions on
//! a cluster's `Outbox`, and the simulator's role runner
//! (`SimBackend::run_round`, for a multiway round and a bind step) runs
//! the same coordinator and storage roles over its discrete-event network
//! instead, pricing each frame at its codec length.
//!
//! Real threads lose messages and crash mid-query, so the coordinator is
//! a **per-query state machine** keyed by a fresh [`QueryId`] carried in
//! every [`LiveMsg`]. There is one machine for every kind of round — a
//! chained solution round over one pattern, a HyperCube shuffle or a
//! partial evaluation over a whole BGP: each pattern is a *slot* looked
//! up with an ordinary [`LiveMsg::Lookup`], the exec frame fans out to
//! the slots' provider union, and the strategies differ only in that
//! frame's shape, the reply it earns, and what happens to the gathered
//! replies at the end:
//!
//! * every awaited reply has a deadline (a scheduled
//!   [`LiveMsg::Deadline`] the coordinator delivers to itself);
//! * an expired query-ack deadline retransmits once (bounded by
//!   [`LiveConfig::retries`]), then declares the provider dead — the
//!   Sect. III-D query-ack timeout;
//! * a bind-join round moves the smaller side to each provider (the
//!   paper's move-small rule, counted in rows): its key set when it holds
//!   fewer rows than the provider's frequency for the pattern's key, and
//!   otherwise the bare pattern, whose matches the coordinator joins with
//!   the key set when the round ends;
//! * a dead provider triggers a [`LiveMsg::ProviderDead`] notification
//!   to the owning index node, which lazily drops the provider from its
//!   location-table row (Sect. III-C/D's lazy cleanup);
//! * a failed send (crashed peer) is treated as an immediate ack timeout
//!   instead of being silently ignored;
//! * replies that name no in-flight query — late, duplicated, or from a
//!   previous query — are counted and dropped, never applied.
//!
//! A query therefore always terminates within its deadline, returning a
//! [`LiveAnswer`] whose `complete` flag and `failed_providers` list say
//! exactly what survived. `docs/FAULTS.md` describes the failure model;
//! the fault-injection harness lives in [`rdfmesh_net::FaultPlan`].
//!
//! The same roles run on one [`rdfmesh_net::Cluster`] over either of its
//! wires — channels ([`Transport::Threads`]), loopback sockets
//! ([`Transport::Sockets`]) or one process per peer ([`crate::MeshNode`])
//! — and every host fills its index tables the same way, by
//! [`LiveMsg::Publish`]; nothing here touches shared state beyond the
//! observable location tables and counters. Callers reach a coordinator
//! through the one [`RoundClient`], which both hosts own: it allocates
//! query ids, hands each round to its coordinator as one local command,
//! gates executions on admission and hands answers back.
//!
//! A round is one frame per provider: whatever else is in flight, a
//! chained round ships as [`LiveMsg::SubQuerySol`] and is answered with
//! [`LiveMsg::Solutions`]. The commands that never leave their process —
//! [`LiveMsg::SubmitSol`], [`LiveMsg::SubmitMulti`], [`LiveMsg::Deadline`]
//! — have no wire encoding at all (`live_wire.rs`); every transport
//! delivers an envelope a node addresses to itself to its own mailbox.
//!
//! [`Handler`]: rdfmesh_net::Handler
//! [`LiveConfig::retries`]: crate::config::LiveConfig::retries

mod client;
mod coordinator;
mod index;
mod mesh;
mod storage;

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use crossbeam::channel::Sender;
use rdfmesh_net::{Envelope, Handler, NodeId, Outbox};
use rdfmesh_overlay::LocationTable;
use rdfmesh_rdf::{TriplePattern, Variable};
use rdfmesh_sparql::expr::Expression;
use rdfmesh_sparql::{Rows, Solution};

use crate::config::DistStrategy;

pub use client::{RoundClient, RoundHandle};
pub(crate) use coordinator::{CoordinatorCore, SendKey};
pub(crate) use index::{index_keys, owner_in_view, publish, IndexNode};
pub use mesh::{LiveMesh, Transport, COORDINATOR};
pub(crate) use storage::LiveStorage;

/// What a role asks its host to do. Pure data, so tests drive a role
/// without threads or timers and the simulator prices what it sends.
#[derive(Debug, Clone)]
pub(crate) enum Action {
    /// Send `msg` to `to`.
    Send { to: NodeId, msg: LiveMsg },
    /// Deliver `msg` to the acting node itself after `after`: a deadline.
    Schedule { after: Duration, msg: LiveMsg },
    /// Round `qid` is over: hand `answer` to whoever waits for it.
    Finish { qid: QueryId, answer: LiveAnswer },
}

/// One role as a cluster node hosts it; the coordinator carries the map
/// its finished answers are handed to.
pub(crate) enum Role {
    Coordinator(CoordinatorCore, PendingMap),
    Index(IndexNode),
    Storage(LiveStorage),
}

impl Handler<LiveMsg> for Role {
    /// Runs the role's actions in order, every frame sent as it stands.
    /// A failed send feeds back into the coordinator, whose reaction (a
    /// retransmission, a purge, a finish) joins the queue; the index and
    /// storage roles have nothing to react with.
    fn on_message(&mut self, envelope: Envelope<LiveMsg>, out: &Outbox<LiveMsg>) {
        let (from, msg) = (envelope.from, envelope.payload);
        let mut actions: VecDeque<Action> = match self {
            Role::Coordinator(core, _) => core.on_event(from, msg),
            Role::Index(index) => index.on_event(from, msg),
            Role::Storage(storage) => storage.on_event(from, msg),
        }
        .into();
        while let Some(action) = actions.pop_front() {
            match (action, &mut *self) {
                (Action::Send { to, msg }, Role::Coordinator(core, _)) => {
                    let key = SendKey::of(&msg);
                    if !out.send(to, msg) {
                        actions.extend(core.on_send_failed(to, key));
                    }
                }
                (Action::Send { to, msg }, _) => {
                    out.send(to, msg);
                }
                (Action::Schedule { after, msg }, _) => out.schedule(after, msg),
                (Action::Finish { qid, answer }, role) => {
                    // Removing the sender is what makes "done" single-shot.
                    let Role::Coordinator(_, pending) = role else { continue };
                    if let Some(tx) = lock(pending).remove(&qid) {
                        let _ = tx.send(answer);
                    }
                }
            }
        }
    }
}

/// Identifies one in-flight live query. Every protocol message carries
/// the id of the query it belongs to, so a late or duplicated reply from
/// query *N* can never contaminate the state of query *N+1*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

/// Which awaited event a [`LiveMsg::Deadline`] guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineStage {
    /// One pattern slot's provider lookup at the index node (a chained
    /// round has the single slot 0); `attempt` is the lookup attempt the
    /// deadline was armed for (a stale deadline from an earlier attempt
    /// is ignored).
    Lookup {
        /// Pattern slot within the round (0-based).
        slot: u32,
        /// Attempt number at schedule time (0-based).
        attempt: u8,
    },
    /// One provider's query-ack deadline (Sect. III-D). A deadline armed
    /// for an earlier attempt, or for a HyperCube generation the round
    /// has since abandoned, is ignored.
    Ack {
        /// The storage node awaited.
        provider: NodeId,
        /// Attempt number at schedule time (0-based).
        attempt: u8,
        /// The round's shuffle generation at schedule time (always 0
        /// outside a HyperCube round).
        generation: u32,
    },
    /// The whole-query backstop: fire whatever is still outstanding and
    /// answer with what was collected.
    Overall,
}

/// Protocol messages of the live mesh.
#[derive(Debug, Clone)]
pub enum LiveMsg {
    /// Ask an index node which storage nodes can answer `pattern`.
    Lookup {
        /// The owning query.
        qid: QueryId,
        /// The pattern being resolved.
        pattern: TriplePattern,
        /// Where to send the provider list.
        reply_to: NodeId,
    },
    /// An index node's answer: the location-table row for the pattern's
    /// key (Table I). The coordinator files it under every still-open slot
    /// of round `qid` whose pattern equals the `pattern` echo.
    Providers {
        /// The owning query.
        qid: QueryId,
        /// The looked-up pattern, echoed verbatim.
        pattern: TriplePattern,
        /// Storage nodes holding matching triples, each with its
        /// frequency: how many of its triples carry the key.
        providers: Vec<(NodeId, u64)>,
    },
    /// A solution-round sub-query shipped to a storage node.
    SubQuerySol {
        /// The owning query.
        qid: QueryId,
        /// The pattern to match locally.
        pattern: TriplePattern,
        /// Source-side filter to apply before answering.
        filter: Option<Expression>,
        /// Intermediate solutions to extend (`None` starts from the
        /// unit solution).
        bound: Option<Vec<Solution>>,
        /// Where to send the solutions.
        reply_to: NodeId,
    },
    /// A storage node's local solutions for a solution round.
    Solutions {
        /// The owning query.
        qid: QueryId,
        /// The (filtered, extended) solution mappings.
        solutions: Rows,
    },
    /// The external application submits one *solution round* at the
    /// coordinator: the providers answer with solution mappings,
    /// optionally extending shipped intermediate results (the bind-join
    /// step of Sect. IV-D) and applying a pushed-down filter at the
    /// source (Sect. IV-G). A local command: it has no wire encoding.
    SubmitSol {
        /// Fresh id allocated by [`RoundClient::submit_solutions`].
        qid: QueryId,
        /// The pattern to resolve.
        pattern: TriplePattern,
        /// Source-side filter every returned solution must satisfy.
        filter: Option<Expression>,
        /// The bind join's keys, which the providers extend (`None`
        /// starts from the unit solution): one id batch, kept as it is
        /// until a provider is sent them.
        bound: Option<Rows>,
    },
    /// Coordinator → index node: `provider` missed its query-ack
    /// deadline for `pattern`'s key; lazily drop it from the owner's
    /// location-table row (Sect. III-C/D). Routed hop-by-hop like a
    /// [`LiveMsg::Lookup`].
    ProviderDead {
        /// The pattern whose key row names the dead provider.
        pattern: TriplePattern,
        /// The storage node that failed to answer.
        provider: NodeId,
    },
    /// A deadline the coordinator scheduled to itself, which its host
    /// delivers on the cluster timer ([`rdfmesh_net::Outbox::schedule`]) or
    /// the simulator's clock. A local command: it has no wire encoding, so
    /// no peer can expire another coordinator's rounds.
    Deadline {
        /// The owning query.
        qid: QueryId,
        /// Which awaited event expired.
        stage: DeadlineStage,
    },
    /// Storage node → owning index node: register `provider` in the
    /// location-table rows for `keys` — how every host fills its index.
    /// Idempotent: a republished count replaces the provider's entry, never
    /// adds to it, so the serve-mode mesh ([`crate::MeshNode`]) re-sends it
    /// after every membership change and the tables converge on the final
    /// ring view (`docs/DEPLOYMENT.md`).
    Publish {
        /// `(index-key id, frequency)`: each key the provider holds
        /// triples for, with how many of them carry it.
        keys: Vec<(u64, u64)>,
        /// The storage node registering itself.
        provider: NodeId,
    },
    /// The external application submits a whole multi-pattern BGP at
    /// the coordinator, to be joined in a single distributed round by
    /// the named strategy (HyperCube shuffle or
    /// partial-evaluation-and-assembly) instead of pattern-by-pattern
    /// chained shipping. A local command: it has no wire encoding.
    SubmitMulti {
        /// Fresh id allocated by [`RoundClient::submit_multiway`].
        qid: QueryId,
        /// The conjunctive patterns to join.
        patterns: Vec<TriplePattern>,
        /// The variables every pattern shares — the shuffle hash key.
        join_vars: Vec<Variable>,
        /// Which multiway strategy resolves the round.
        strategy: DistStrategy,
    },
    /// Coordinator → every provider: run the HyperCube shuffle for this
    /// BGP. Each provider evaluates every pattern locally, partitions
    /// the solutions by hashing their `join_vars` bindings over
    /// `peers`, ships each partition to its target once, joins the
    /// fragment it receives, and answers with [`LiveMsg::Solutions`].
    ShuffleExec {
        /// The owning query.
        qid: QueryId,
        /// Shuffle generation: bumped when the coordinator re-issues the
        /// round over the surviving peers after declaring one dead, so
        /// partitions from the abandoned generation cannot pollute the
        /// restarted one.
        round: u32,
        /// The conjunctive patterns to evaluate locally.
        patterns: Vec<TriplePattern>,
        /// The hash key: variables shared by every pattern.
        join_vars: Vec<Variable>,
        /// Every participating provider, in the same order in every
        /// peer's frame — the partition targets.
        peers: Vec<NodeId>,
        /// Where to send the locally-joined fragment.
        reply_to: NodeId,
    },
    /// Provider → provider: one shuffle partition, `parts[i]` holding
    /// the sender's pattern-`i` solutions that hash to the receiver.
    ShufflePart {
        /// The owning query.
        qid: QueryId,
        /// The shuffle generation the partition belongs to (matches the
        /// [`LiveMsg::ShuffleExec`] that triggered the scatter).
        round: u32,
        /// Per-pattern solution sets destined for the receiver.
        parts: Vec<Rows>,
    },
    /// Coordinator → every provider: evaluate the whole BGP over local
    /// data only (partial evaluation) and ship the per-pattern solution
    /// sets back for assembly at the coordinator.
    PartialExec {
        /// The owning query.
        qid: QueryId,
        /// The conjunctive patterns to evaluate locally.
        patterns: Vec<TriplePattern>,
        /// Where to send the per-pattern matches.
        reply_to: NodeId,
    },
    /// A provider's partial-evaluation answer: its local solutions for
    /// every pattern slot, assembled (joined) at the coordinator.
    PartialMatches {
        /// The owning query.
        qid: QueryId,
        /// `per_pattern[i]` = local solutions of pattern `i`.
        per_pattern: Vec<Rows>,
    },
    /// Coordinator → providers: the multiway round finished; drop any
    /// retained shuffle state for `qid`.
    MultiDone {
        /// The finished query.
        qid: QueryId,
    },
}

/// What one live round returned. Instead of hanging on churn, the
/// protocol reports exactly how much of the answer survived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveAnswer {
    /// Deduplicated solution mappings from every provider that answered
    /// in time, as one id-row batch. The per-gather dedup mirrors the
    /// simulator's in-network aggregation: identical solutions from
    /// replicated triples collapse.
    pub solutions: Rows,
    /// `true` iff every selected provider answered before its deadline
    /// (an empty provider set is complete).
    pub complete: bool,
    /// Providers that never answered: crashed, unreachable, or lost
    /// behind dropped messages. Sorted when set by the overall deadline.
    pub failed_providers: Vec<NodeId>,
}

pub(crate) type PendingMap = Arc<Mutex<HashMap<QueryId, Sender<LiveAnswer>>>>;
/// An index node's location table (Table I): the overlay's own type,
/// shared between the index role and its host.
pub(crate) type SharedTable = Arc<Mutex<LocationTable>>;
/// The index nodes' routing view, `(ring position, address)` sorted by
/// position. Shared mutable so serve-mode membership can extend it.
pub(crate) type RingView = Arc<RwLock<Vec<(u64, NodeId)>>>;
/// The keyless-pattern flood list (every storage node, sorted). Shared
/// mutable for the same reason.
pub(crate) type SharedFlood = Arc<RwLock<Vec<NodeId>>>;

pub(crate) fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

pub(crate) fn rlock<T>(m: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    m.read().unwrap_or_else(|e| e.into_inner())
}

pub(crate) fn wlock<T>(m: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    m.write().unwrap_or_else(|e| e.into_inner())
}
