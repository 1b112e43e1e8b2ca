//! The query protocol on real threads, fault-tolerant end to end.
//!
//! The deterministic [`rdfmesh_net::Network`] measures costs; this module
//! demonstrates that the same two-level protocol *runs* under genuine
//! concurrency: every index and storage node is an OS thread, and the
//! Sect. IV-C basic scheme plays out purely through messages — lookup to
//! the index node, provider resolution from its location table, parallel
//! sub-queries to the storage nodes, assembly of their answers.
//!
//! Unlike the simulator, real threads really do lose messages and crash
//! mid-query, so the coordinator is a **per-query state machine** keyed
//! by a fresh [`QueryId`] carried in every [`LiveMsg`]:
//!
//! * every awaited reply has a deadline ([`Outbox::schedule`] delivers
//!   the coordinator a [`LiveMsg::Deadline`] message to itself);
//! * an expired query-ack deadline retransmits once (bounded by
//!   [`LiveConfig::retries`]), then declares the provider dead — the
//!   Sect. III-D query-ack timeout on real threads;
//! * a dead provider triggers a [`LiveMsg::ProviderDead`] notification
//!   to the owning index node, which lazily drops the provider from its
//!   location-table row (Sect. III-C/D's lazy cleanup);
//! * a failed [`Outbox::send`] (crashed peer) is treated as an immediate
//!   ack timeout instead of being silently ignored;
//! * replies that name no in-flight query — late, duplicated, or from a
//!   previous query — are counted and dropped, never applied.
//!
//! A query therefore always terminates within its deadline, returning a
//! [`LiveAnswer`] whose `complete` flag and `failed_providers` list say
//! exactly what survived. `docs/FAULTS.md` contrasts this live failure
//! model with the simulator's; the fault-injection harness lives in
//! [`rdfmesh_net::FaultPlan`].
//!
//! Swapping [`rdfmesh_net::Cluster`] for a socket transport would make
//! this a deployable system; nothing here touches shared state beyond
//! the observable location tables and counters.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use rdfmesh_net::{Cluster, Envelope, FaultPlan, Handler, NodeId, Outbox, TcpCluster, TransportSnapshot};
use rdfmesh_overlay::{key_for_pattern, keys_for_triple, Overlay};
use rdfmesh_rdf::{SharedStore, Triple, TriplePattern, Variable};
use rdfmesh_sparql::expr::Expression;
use rdfmesh_sparql::solution::{wire, DistinctBuffer, Solution};

use crate::config::{DistStrategy, LiveConfig};
use crate::stats::{LiveStats, LiveStatsSnapshot};

/// Identifies one in-flight live query. Every protocol message carries
/// the id of the query it belongs to, so a late or duplicated reply from
/// query *N* can never contaminate the state of query *N+1*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub u64);

/// Which awaited event a [`LiveMsg::Deadline`] guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineStage {
    /// The provider lookup at the index node; `attempt` is the lookup
    /// attempt the deadline was armed for (a stale deadline from an
    /// earlier attempt is ignored).
    Lookup {
        /// Attempt number at schedule time (0-based).
        attempt: u8,
    },
    /// One provider's query-ack deadline (Sect. III-D).
    Ack {
        /// The storage node awaited.
        provider: NodeId,
        /// Attempt number at schedule time (0-based).
        attempt: u8,
    },
    /// One pattern's provider lookup within a multiway round; `idx`
    /// names the pattern slot the lookup resolves.
    MultiLookup {
        /// Pattern slot within the multiway BGP (0-based).
        idx: u32,
        /// Attempt number at schedule time (0-based).
        attempt: u8,
    },
    /// The whole-query backstop: fire whatever is still outstanding and
    /// answer with what was collected.
    Overall,
}

/// One query's solution round: everything a [`LiveMsg::SubmitSol`] /
/// [`LiveMsg::SubQuerySol`] carries, minus the addressing. The batched
/// messages ship several of these in one frame so N concurrent queries
/// amortize framing and socket syscalls instead of paying them N times.
#[derive(Debug, Clone)]
pub struct SolRound {
    /// The owning query.
    pub qid: QueryId,
    /// The pattern to resolve.
    pub pattern: TriplePattern,
    /// Source-side filter every returned solution must satisfy.
    pub filter: Option<Expression>,
    /// Intermediate solutions the providers extend (`None` starts from
    /// the unit solution).
    pub bound: Option<Vec<Solution>>,
}

/// Protocol messages of the live mesh.
#[derive(Debug, Clone)]
pub enum LiveMsg {
    /// The external application submits a query at the coordinator.
    Submit {
        /// Fresh id allocated by [`LiveMesh::query`].
        qid: QueryId,
        /// The pattern to resolve.
        pattern: TriplePattern,
    },
    /// The external application submits a *solution round* at the
    /// coordinator: the providers answer with solution mappings instead
    /// of raw triples, optionally extending shipped intermediate
    /// results (the bind-join step of Sect. IV-D) and applying a
    /// pushed-down filter at the source (Sect. IV-G).
    SubmitSol {
        /// Fresh id allocated by [`LiveMesh::query_solutions`].
        qid: QueryId,
        /// The pattern to resolve.
        pattern: TriplePattern,
        /// Source-side filter every returned solution must satisfy.
        filter: Option<Expression>,
        /// Intermediate solutions the providers extend (`None` starts
        /// from the unit solution).
        bound: Option<Vec<Solution>>,
    },
    /// Ask an index node which storage nodes can answer `pattern`.
    Lookup {
        /// The owning query.
        qid: QueryId,
        /// The pattern being resolved.
        pattern: TriplePattern,
        /// Where to send the provider list.
        reply_to: NodeId,
    },
    /// An index node's answer: the providers for the pattern.
    Providers {
        /// The owning query.
        qid: QueryId,
        /// The pattern this answers.
        pattern: TriplePattern,
        /// Storage nodes holding matching triples.
        providers: Vec<NodeId>,
    },
    /// A sub-query shipped to a storage node.
    SubQuery {
        /// The owning query.
        qid: QueryId,
        /// The pattern to match locally.
        pattern: TriplePattern,
        /// Where to send the matches.
        reply_to: NodeId,
    },
    /// A storage node's local matches.
    Matches {
        /// The owning query.
        qid: QueryId,
        /// The matching triples.
        triples: Vec<Triple>,
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
        solutions: Vec<Solution>,
    },
    /// Several queries' round submissions coalesced into one message by
    /// the submit pump (group commit): under load, concurrent callers'
    /// rounds pile up while the previous inject is in flight and the
    /// coordinator starts them all in a single handler turn.
    SubmitSolBatch {
        /// One entry per submitted round.
        rounds: Vec<SolRound>,
    },
    /// Several queries' solution sub-queries for the *same* storage
    /// node, coalesced per provider within one coordinator turn.
    SubQuerySolBatch {
        /// One entry per query's sub-query.
        rounds: Vec<SolRound>,
        /// Where to send the batched solutions.
        reply_to: NodeId,
    },
    /// A storage node's answers to a [`LiveMsg::SubQuerySolBatch`]: one
    /// solution set per batched query, in one frame.
    SolutionsBatch {
        /// `(query, its solutions)` per batched sub-query.
        entries: Vec<(QueryId, Vec<Solution>)>,
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
    /// A deadline the coordinator scheduled to itself via the cluster
    /// timer ([`Outbox::schedule`]).
    Deadline {
        /// The owning query.
        qid: QueryId,
        /// Which awaited event expired.
        stage: DeadlineStage,
    },
    /// Storage node → owning index node: register `provider` in the
    /// location-table rows for `keys`. Idempotent, so the serve-mode
    /// mesh ([`crate::MeshNode`]) re-sends it after every membership
    /// change and the tables converge on the final ring view
    /// (`docs/DEPLOYMENT.md`).
    Publish {
        /// Index-key ids the provider holds matching triples for.
        keys: Vec<u64>,
        /// The storage node registering itself.
        provider: NodeId,
    },
    /// The external application submits a whole multi-pattern BGP at
    /// the coordinator, to be joined in a single distributed round by
    /// the named strategy (HyperCube shuffle or
    /// partial-evaluation-and-assembly) instead of pattern-by-pattern
    /// chained shipping.
    SubmitMulti {
        /// Fresh id allocated by [`LiveMesh::submit_multiway`].
        qid: QueryId,
        /// The conjunctive patterns to join.
        patterns: Vec<TriplePattern>,
        /// The variables every pattern shares — the shuffle hash key.
        join_vars: Vec<Variable>,
        /// Which multiway strategy resolves the round.
        strategy: DistStrategy,
    },
    /// Ask an index node which storage nodes can answer pattern slot
    /// `idx` of a multiway round. Routed hop-by-hop like a
    /// [`LiveMsg::Lookup`].
    MultiLookup {
        /// The owning query.
        qid: QueryId,
        /// Pattern slot within the multiway BGP (0-based).
        idx: u32,
        /// The pattern being resolved.
        pattern: TriplePattern,
        /// Where to send the provider list.
        reply_to: NodeId,
    },
    /// An index node's answer to a [`LiveMsg::MultiLookup`].
    MultiProviders {
        /// The owning query.
        qid: QueryId,
        /// The pattern slot this answers.
        idx: u32,
        /// Storage nodes holding matching triples for the slot.
        providers: Vec<NodeId>,
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
        /// Every participating provider, sorted — the partition targets.
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
        parts: Vec<Vec<Solution>>,
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
        per_pattern: Vec<Vec<Solution>>,
    },
    /// Coordinator → providers: the multiway round finished; drop any
    /// retained shuffle state for `qid`.
    MultiDone {
        /// The finished query.
        qid: QueryId,
    },
}

/// What one live query returned. Instead of hanging on churn, the
/// protocol reports exactly how much of the answer survived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveAnswer {
    /// Deduplicated matches from every provider that answered in time
    /// (triple rounds only; empty for solution rounds).
    pub triples: Vec<Triple>,
    /// Deduplicated solution mappings from every provider that answered
    /// in time (solution rounds only; empty for triple rounds). The
    /// per-gather dedup mirrors the simulator's in-network aggregation:
    /// identical solutions from replicated triples collapse.
    pub solutions: Vec<Solution>,
    /// `true` iff every selected provider answered before its deadline
    /// (an empty provider set is complete).
    pub complete: bool,
    /// Providers that never answered: crashed, unreachable, or lost
    /// behind dropped messages. Sorted when set by the overall deadline.
    pub failed_providers: Vec<NodeId>,
}

// ---- the coordinator state machine ----------------------------------

/// What the state machine asks its host to do. Pure data, so property
/// tests can drive arbitrary interleavings without threads or timers.
#[derive(Debug, Clone)]
enum Action {
    Send { to: NodeId, msg: LiveMsg },
    Schedule { after: Duration, msg: LiveMsg },
    Finish { qid: QueryId, answer: LiveAnswer },
}

/// Monotonic fault counters the core accumulates; the handler diffs them
/// into the shared [`LiveStats`] after every message.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LiveCounters {
    retries: u64,
    ack_timeouts: u64,
    send_failures: u64,
    stale_replies: u64,
    incomplete_queries: u64,
    lookup_failures: u64,
    stitched_rows: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    AwaitProviders,
    Gather,
}

/// What a query round asks the providers for: raw triple matches (the
/// original single-pattern protocol) or solution mappings (the
/// sub-queries the distributed execution core ships).
#[derive(Debug, Clone)]
enum RoundKind {
    Triples,
    Solutions { filter: Option<Expression>, bound: Option<Vec<Solution>> },
}

#[derive(Debug)]
struct InFlight {
    pattern: TriplePattern,
    kind: RoundKind,
    phase: Phase,
    lookup_attempt: u8,
    /// provider → current sub-query attempt (0-based).
    outstanding: HashMap<NodeId, u8>,
    failed: Vec<NodeId>,
    collected: Vec<Triple>,
    /// Hash-indexed so the per-gather dedup stays linear even when many
    /// replicated providers ship the same large solution sets.
    collected_solutions: DistinctBuffer,
}

/// One multiway (HyperCube / partial-evaluation) round's coordinator
/// state. Kept apart from [`InFlight`]: the round resolves *several*
/// patterns' providers concurrently and gathers from their union.
#[derive(Debug)]
struct MultiFlight {
    patterns: Vec<TriplePattern>,
    join_vars: Vec<Variable>,
    strategy: DistStrategy,
    phase: Phase,
    /// Per-pattern lookup attempt (0-based), indexed like `patterns`.
    lookup_attempts: Vec<u8>,
    /// Per-pattern provider sets; `None` until the slot's lookup answers.
    providers: Vec<Option<Vec<NodeId>>>,
    /// The provider union (sorted) once every slot resolved. Shrinks
    /// when a HyperCube restart drops peers declared dead.
    peers: Vec<NodeId>,
    /// HyperCube shuffle generation: bumped on every restart over the
    /// surviving peers, so stale partitions and deadlines are ignored.
    round: u32,
    /// provider → current exec attempt (0-based, within `round`).
    outstanding: HashMap<NodeId, u8>,
    failed: Vec<NodeId>,
    /// HyperCube: locally-joined fragments gathered from the peers.
    collected: DistinctBuffer,
    /// Partial evaluation: the deduped union of every provider's local
    /// solutions, per pattern slot — the assembly operator's input.
    per_pattern: Vec<DistinctBuffer>,
    /// Partial evaluation: rows some single provider could already join
    /// locally. Assembly rows beyond these stitched cross-site matches.
    local_complete: DistinctBuffer,
}

/// The per-query coordinator state machine. Every transition consumes
/// one event and returns the actions to perform; it owns no channels,
/// threads, or clocks, which is what makes it exhaustively testable.
#[derive(Debug)]
pub(crate) struct CoordinatorCore {
    me: NodeId,
    index: NodeId,
    cfg: LiveConfig,
    space: rdfmesh_chord::IdSpace,
    /// Every storage node, sorted — the recipients of a keyless
    /// (all-variable) pattern, which has no location-table row and is
    /// flooded to all sources instead (Sect. IV-B). Shared so the
    /// serve-mode membership protocol can extend it as peers join.
    flood: SharedFlood,
    in_flight: HashMap<QueryId, InFlight>,
    multi: HashMap<QueryId, MultiFlight>,
    counters: LiveCounters,
}

impl CoordinatorCore {
    pub(crate) fn new(
        me: NodeId,
        index: NodeId,
        cfg: LiveConfig,
        space: rdfmesh_chord::IdSpace,
        flood: SharedFlood,
    ) -> Self {
        CoordinatorCore {
            me,
            index,
            cfg,
            space,
            flood,
            in_flight: HashMap::new(),
            multi: HashMap::new(),
            counters: LiveCounters::default(),
        }
    }

    fn on_event(&mut self, from: NodeId, msg: LiveMsg) -> Vec<Action> {
        match msg {
            LiveMsg::Submit { qid, pattern } => self.on_submit(qid, pattern, RoundKind::Triples),
            LiveMsg::SubmitSol { qid, pattern, filter, bound } => {
                self.on_submit(qid, pattern, RoundKind::Solutions { filter, bound })
            }
            LiveMsg::SubmitSolBatch { rounds } => {
                let mut actions = Vec::new();
                for r in rounds {
                    actions.extend(self.on_submit(
                        r.qid,
                        r.pattern,
                        RoundKind::Solutions { filter: r.filter, bound: r.bound },
                    ));
                }
                actions
            }
            LiveMsg::Providers { qid, pattern, providers } => {
                self.on_providers(qid, pattern, providers)
            }
            LiveMsg::Matches { qid, triples } => self.on_matches(qid, from, triples),
            LiveMsg::Solutions { qid, solutions } => self.on_solutions(qid, from, solutions),
            LiveMsg::SolutionsBatch { entries } => {
                let mut actions = Vec::new();
                for (qid, solutions) in entries {
                    actions.extend(self.on_solutions(qid, from, solutions));
                }
                actions
            }
            LiveMsg::SubmitMulti { qid, patterns, join_vars, strategy } => {
                self.on_submit_multi(qid, patterns, join_vars, strategy)
            }
            LiveMsg::MultiProviders { qid, idx, providers } => {
                self.on_multi_providers(qid, idx, providers)
            }
            LiveMsg::PartialMatches { qid, per_pattern } => {
                self.on_partial_matches(qid, from, per_pattern)
            }
            LiveMsg::Deadline { qid, stage } => match stage {
                DeadlineStage::Lookup { attempt } => self.on_lookup_timeout(qid, attempt),
                DeadlineStage::MultiLookup { idx, attempt } => {
                    self.on_multi_lookup_timeout(qid, idx, attempt)
                }
                DeadlineStage::Ack { provider, attempt } => {
                    self.on_ack_timeout(qid, provider, attempt)
                }
                DeadlineStage::Overall => self.on_overall_deadline(qid),
            },
            // Strays addressed to other roles are ignored.
            LiveMsg::Lookup { .. }
            | LiveMsg::SubQuery { .. }
            | LiveMsg::SubQuerySol { .. }
            | LiveMsg::SubQuerySolBatch { .. }
            | LiveMsg::ProviderDead { .. }
            | LiveMsg::MultiLookup { .. }
            | LiveMsg::ShuffleExec { .. }
            | LiveMsg::ShufflePart { .. }
            | LiveMsg::PartialExec { .. }
            | LiveMsg::MultiDone { .. }
            | LiveMsg::Publish { .. } => Vec::new(),
        }
    }

    /// The sub-query message one provider receives, shaped by the
    /// round's kind. Used by the initial fan-out, retransmissions, and
    /// the keyless-pattern flood alike.
    fn subquery_for(&self, qid: QueryId, q: &InFlight) -> LiveMsg {
        match &q.kind {
            RoundKind::Triples => {
                LiveMsg::SubQuery { qid, pattern: q.pattern.clone(), reply_to: self.me }
            }
            RoundKind::Solutions { filter, bound } => LiveMsg::SubQuerySol {
                qid,
                pattern: q.pattern.clone(),
                filter: filter.clone(),
                bound: bound.clone(),
                reply_to: self.me,
            },
        }
    }

    fn on_submit(&mut self, qid: QueryId, pattern: TriplePattern, kind: RoundKind) -> Vec<Action> {
        if self.in_flight.contains_key(&qid) {
            return Vec::new(); // duplicate submission
        }
        let keyless = key_for_pattern(self.space, &pattern).is_none();
        self.in_flight.insert(
            qid,
            InFlight {
                pattern: pattern.clone(),
                kind,
                phase: Phase::AwaitProviders,
                lookup_attempt: 0,
                outstanding: HashMap::new(),
                failed: Vec::new(),
                collected: Vec::new(),
                collected_solutions: DistinctBuffer::new(),
            },
        );
        if keyless {
            // No location-table row exists for the all-variable pattern:
            // skip the lookup and flood every storage node (Sect. IV-B).
            let flood = rlock(&self.flood).clone();
            let mut actions = self.on_providers(qid, pattern, flood);
            actions.push(Action::Schedule {
                after: self.cfg.query_deadline,
                msg: LiveMsg::Deadline { qid, stage: DeadlineStage::Overall },
            });
            return actions;
        }
        vec![
            Action::Send {
                to: self.index,
                msg: LiveMsg::Lookup { qid, pattern, reply_to: self.me },
            },
            Action::Schedule {
                after: self.cfg.lookup_timeout,
                msg: LiveMsg::Deadline { qid, stage: DeadlineStage::Lookup { attempt: 0 } },
            },
            Action::Schedule {
                after: self.cfg.query_deadline,
                msg: LiveMsg::Deadline { qid, stage: DeadlineStage::Overall },
            },
        ]
    }

    /// The `pattern` echo in the reply is informational; the sub-queries
    /// are rebuilt from the round's own state, which the echo must match
    /// (the index node answers with the looked-up pattern verbatim).
    fn on_providers(
        &mut self,
        qid: QueryId,
        _pattern: TriplePattern,
        providers: Vec<NodeId>,
    ) -> Vec<Action> {
        let Some(q) = self.in_flight.get_mut(&qid) else {
            self.counters.stale_replies += 1;
            return Vec::new();
        };
        if q.phase != Phase::AwaitProviders {
            // E.g. the answer to a retransmitted lookup when the first
            // answer already arrived.
            self.counters.stale_replies += 1;
            return Vec::new();
        }
        if providers.is_empty() {
            return self.finish(qid, true);
        }
        q.phase = Phase::Gather;
        let mut seen = HashSet::new();
        let mut targets = Vec::new();
        for p in providers {
            if seen.insert(p) {
                q.outstanding.insert(p, 0);
                targets.push(p);
            }
        }
        let q = &self.in_flight[&qid];
        let mut actions = Vec::new();
        for p in targets {
            actions.push(Action::Send { to: p, msg: self.subquery_for(qid, q) });
            actions.push(Action::Schedule {
                after: self.cfg.ack_timeout,
                msg: LiveMsg::Deadline {
                    qid,
                    stage: DeadlineStage::Ack { provider: p, attempt: 0 },
                },
            });
        }
        actions
    }

    fn on_matches(&mut self, qid: QueryId, from: NodeId, triples: Vec<Triple>) -> Vec<Action> {
        let stale = match self.in_flight.get_mut(&qid) {
            None => true,
            Some(q) => q.phase != Phase::Gather || q.outstanding.remove(&from).is_none(),
        };
        if stale {
            self.counters.stale_replies += 1;
            return Vec::new();
        }
        let q = self.in_flight.get_mut(&qid).expect("checked in flight");
        for t in triples {
            if !q.collected.contains(&t) {
                q.collected.push(t);
            }
        }
        if q.outstanding.is_empty() {
            let complete = q.failed.is_empty();
            return self.finish(qid, complete);
        }
        Vec::new()
    }

    fn on_solutions(&mut self, qid: QueryId, from: NodeId, solutions: Vec<Solution>) -> Vec<Action> {
        if self.multi.contains_key(&qid) {
            // A shuffle target's locally-joined fragment.
            return self.on_multi_solutions(qid, from, solutions);
        }
        let stale = match self.in_flight.get_mut(&qid) {
            None => true,
            Some(q) => q.phase != Phase::Gather || q.outstanding.remove(&from).is_none(),
        };
        if stale {
            self.counters.stale_replies += 1;
            return Vec::new();
        }
        let q = self.in_flight.get_mut(&qid).expect("checked in flight");
        q.collected_solutions.extend_distinct(solutions);
        if q.outstanding.is_empty() {
            let complete = q.failed.is_empty();
            return self.finish(qid, complete);
        }
        Vec::new()
    }

    fn on_lookup_timeout(&mut self, qid: QueryId, attempt: u8) -> Vec<Action> {
        let Some(q) = self.in_flight.get_mut(&qid) else { return Vec::new() };
        if q.phase != Phase::AwaitProviders || q.lookup_attempt != attempt {
            return Vec::new(); // answered, or a stale deadline
        }
        if attempt < self.cfg.retries {
            q.lookup_attempt = attempt + 1;
            self.counters.retries += 1;
            let pattern = q.pattern.clone();
            vec![
                Action::Send {
                    to: self.index,
                    msg: LiveMsg::Lookup { qid, pattern, reply_to: self.me },
                },
                Action::Schedule {
                    after: self.cfg.lookup_timeout,
                    msg: LiveMsg::Deadline {
                        qid,
                        stage: DeadlineStage::Lookup { attempt: attempt + 1 },
                    },
                },
            ]
        } else {
            self.counters.lookup_failures += 1;
            self.finish(qid, false)
        }
    }

    fn on_ack_timeout(&mut self, qid: QueryId, provider: NodeId, attempt: u8) -> Vec<Action> {
        if self.multi.contains_key(&qid) {
            return self.on_multi_ack_timeout(qid, provider, attempt);
        }
        let Some(q) = self.in_flight.get_mut(&qid) else { return Vec::new() };
        if q.phase != Phase::Gather || q.outstanding.get(&provider) != Some(&attempt) {
            return Vec::new(); // answered, escalated, or a stale deadline
        }
        if attempt < self.cfg.retries {
            q.outstanding.insert(provider, attempt + 1);
            self.counters.retries += 1;
            let q = &self.in_flight[&qid];
            vec![
                Action::Send { to: provider, msg: self.subquery_for(qid, q) },
                Action::Schedule {
                    after: self.cfg.ack_timeout,
                    msg: LiveMsg::Deadline {
                        qid,
                        stage: DeadlineStage::Ack { provider, attempt: attempt + 1 },
                    },
                },
            ]
        } else {
            q.outstanding.remove(&provider);
            q.failed.push(provider);
            self.counters.ack_timeouts += 1;
            let mut actions = vec![Action::Send {
                to: self.index,
                msg: LiveMsg::ProviderDead { pattern: q.pattern.clone(), provider },
            }];
            if q.outstanding.is_empty() {
                actions.extend(self.finish(qid, false));
            }
            actions
        }
    }

    fn on_overall_deadline(&mut self, qid: QueryId) -> Vec<Action> {
        if let Some(q) = self.multi.get_mut(&qid) {
            let mut remaining: Vec<NodeId> = q.outstanding.keys().copied().collect();
            remaining.sort();
            q.failed.extend(remaining);
            q.outstanding.clear();
            return self.finish_multi(qid, false);
        }
        let Some(q) = self.in_flight.get_mut(&qid) else { return Vec::new() };
        // Whatever is still outstanding has failed; no ProviderDead here —
        // the backstop fires on slow queries too, and purging the table on
        // a merely-slow provider would be too eager (Sect. III-D purges
        // only after the per-provider ack timeout).
        let mut remaining: Vec<NodeId> = q.outstanding.keys().copied().collect();
        remaining.sort();
        q.failed.extend(remaining);
        q.outstanding.clear();
        self.finish(qid, false)
    }

    /// A synchronously failed send is an immediate ack timeout at the
    /// target's current attempt (Sect. III-D): the transport already
    /// knows the peer is unreachable, so waiting out the deadline would
    /// only delay the retry/purge.
    fn on_send_failed(&mut self, to: NodeId, msg: LiveMsg) -> Vec<Action> {
        self.counters.send_failures += 1;
        match msg {
            LiveMsg::SubQuery { qid, .. } | LiveMsg::SubQuerySol { qid, .. } => {
                match self.in_flight.get(&qid).and_then(|q| q.outstanding.get(&to)).copied() {
                    Some(attempt) => self.on_ack_timeout(qid, to, attempt),
                    None => Vec::new(),
                }
            }
            // One failed frame fails every round it carried: each
            // becomes an immediate ack timeout at its current attempt.
            LiveMsg::SubQuerySolBatch { rounds, .. } => {
                let mut actions = Vec::new();
                for r in rounds {
                    if let Some(attempt) =
                        self.in_flight.get(&r.qid).and_then(|q| q.outstanding.get(&to)).copied()
                    {
                        actions.extend(self.on_ack_timeout(r.qid, to, attempt));
                    }
                }
                actions
            }
            LiveMsg::Lookup { qid, .. } => match self.in_flight.get(&qid).map(|q| q.lookup_attempt)
            {
                Some(attempt) => self.on_lookup_timeout(qid, attempt),
                None => Vec::new(),
            },
            LiveMsg::ShuffleExec { qid, .. } | LiveMsg::PartialExec { qid, .. } => {
                match self.multi.get(&qid).and_then(|q| q.outstanding.get(&to)).copied() {
                    Some(attempt) => self.on_multi_ack_timeout(qid, to, attempt),
                    None => Vec::new(),
                }
            }
            LiveMsg::MultiLookup { qid, idx, .. } => {
                match self.multi.get(&qid).and_then(|q| q.lookup_attempts.get(idx as usize)).copied()
                {
                    Some(attempt) => self.on_multi_lookup_timeout(qid, idx, attempt),
                    None => Vec::new(),
                }
            }
            // A lost ProviderDead or MultiDone only postpones lazy cleanup.
            _ => Vec::new(),
        }
    }

    fn finish(&mut self, qid: QueryId, complete: bool) -> Vec<Action> {
        let Some(q) = self.in_flight.remove(&qid) else { return Vec::new() };
        if !complete {
            self.counters.incomplete_queries += 1;
        }
        vec![Action::Finish {
            qid,
            answer: LiveAnswer {
                triples: q.collected,
                solutions: q.collected_solutions.into_vec(),
                complete,
                failed_providers: q.failed,
            },
        }]
    }

    // ---- the multiway round (HyperCube / partial evaluation) ---------

    /// The exec frame one provider of a multiway round receives, shaped
    /// by the round's strategy. Used by the fan-out and retransmissions.
    fn multi_subquery_for(&self, qid: QueryId, q: &MultiFlight) -> LiveMsg {
        match q.strategy {
            DistStrategy::HyperCube => LiveMsg::ShuffleExec {
                qid,
                round: q.round,
                patterns: q.patterns.clone(),
                join_vars: q.join_vars.clone(),
                peers: q.peers.clone(),
                reply_to: self.me,
            },
            _ => LiveMsg::PartialExec { qid, patterns: q.patterns.clone(), reply_to: self.me },
        }
    }

    fn on_submit_multi(
        &mut self,
        qid: QueryId,
        patterns: Vec<TriplePattern>,
        join_vars: Vec<Variable>,
        strategy: DistStrategy,
    ) -> Vec<Action> {
        if self.multi.contains_key(&qid) || self.in_flight.contains_key(&qid) {
            return Vec::new(); // duplicate submission
        }
        if patterns.is_empty() {
            return vec![Action::Finish {
                qid,
                answer: LiveAnswer {
                    triples: Vec::new(),
                    solutions: Vec::new(),
                    complete: true,
                    failed_providers: Vec::new(),
                },
            }];
        }
        let n = patterns.len();
        self.multi.insert(
            qid,
            MultiFlight {
                patterns: patterns.clone(),
                join_vars,
                strategy,
                phase: Phase::AwaitProviders,
                lookup_attempts: vec![0; n],
                providers: vec![None; n],
                peers: Vec::new(),
                round: 0,
                outstanding: HashMap::new(),
                failed: Vec::new(),
                collected: DistinctBuffer::new(),
                per_pattern: (0..n).map(|_| DistinctBuffer::new()).collect(),
                local_complete: DistinctBuffer::new(),
            },
        );
        let mut actions = Vec::new();
        for (idx, pattern) in patterns.iter().enumerate() {
            let idx = idx as u32;
            if key_for_pattern(self.space, pattern).is_none() {
                // Keyless slot (the planner avoids these, but the wire
                // allows them): flood every storage node, no lookup.
                let flood = rlock(&self.flood).clone();
                actions.extend(self.on_multi_providers(qid, idx, flood));
                // The round may already have finished (an empty flood
                // list finishes it complete-and-empty).
                if !self.multi.contains_key(&qid) {
                    actions.push(Action::Schedule {
                        after: self.cfg.query_deadline,
                        msg: LiveMsg::Deadline { qid, stage: DeadlineStage::Overall },
                    });
                    return actions;
                }
            } else {
                actions.push(Action::Send {
                    to: self.index,
                    msg: LiveMsg::MultiLookup {
                        qid,
                        idx,
                        pattern: pattern.clone(),
                        reply_to: self.me,
                    },
                });
                actions.push(Action::Schedule {
                    after: self.cfg.lookup_timeout,
                    msg: LiveMsg::Deadline {
                        qid,
                        stage: DeadlineStage::MultiLookup { idx, attempt: 0 },
                    },
                });
            }
        }
        actions.push(Action::Schedule {
            after: self.cfg.query_deadline,
            msg: LiveMsg::Deadline { qid, stage: DeadlineStage::Overall },
        });
        actions
    }

    fn on_multi_providers(&mut self, qid: QueryId, idx: u32, providers: Vec<NodeId>) -> Vec<Action> {
        let i = idx as usize;
        let stale = match self.multi.get(&qid) {
            None => true,
            Some(q) => q.phase != Phase::AwaitProviders || i >= q.providers.len()
                || q.providers[i].is_some(),
        };
        if stale {
            self.counters.stale_replies += 1;
            return Vec::new();
        }
        if providers.is_empty() {
            // One pattern matches nothing, so the conjunction is empty —
            // a complete answer, no provider contacted.
            return self.finish_multi(qid, true);
        }
        let q = self.multi.get_mut(&qid).expect("checked in flight");
        let mut seen = HashSet::new();
        let mut dedup = Vec::new();
        for p in providers {
            if seen.insert(p) {
                dedup.push(p);
            }
        }
        q.providers[i] = Some(dedup);
        if q.providers.iter().any(|slot| slot.is_none()) {
            return Vec::new(); // other slots still resolving
        }
        // Every slot resolved: fan the exec frames out to the union.
        q.phase = Phase::Gather;
        let mut peers: Vec<NodeId> = Vec::new();
        let mut seen = HashSet::new();
        for slot in &q.providers {
            for p in slot.as_deref().unwrap_or_default() {
                if seen.insert(*p) {
                    peers.push(*p);
                }
            }
        }
        peers.sort();
        for p in &peers {
            q.outstanding.insert(*p, 0);
        }
        q.peers = peers.clone();
        let q = &self.multi[&qid];
        let mut actions = Vec::new();
        for p in peers {
            actions.push(Action::Send { to: p, msg: self.multi_subquery_for(qid, q) });
            actions.push(Action::Schedule {
                after: self.cfg.ack_timeout,
                msg: LiveMsg::Deadline {
                    qid,
                    stage: DeadlineStage::Ack { provider: p, attempt: 0 },
                },
            });
        }
        actions
    }

    /// A shuffle target's locally-joined fragment (HyperCube gathers
    /// through plain [`LiveMsg::Solutions`] frames).
    fn on_multi_solutions(
        &mut self,
        qid: QueryId,
        from: NodeId,
        solutions: Vec<Solution>,
    ) -> Vec<Action> {
        let stale = match self.multi.get_mut(&qid) {
            None => true,
            Some(q) => q.phase != Phase::Gather || q.outstanding.remove(&from).is_none(),
        };
        if stale {
            self.counters.stale_replies += 1;
            return Vec::new();
        }
        let q = self.multi.get_mut(&qid).expect("checked in flight");
        q.collected.extend_distinct(solutions);
        if q.outstanding.is_empty() {
            let complete = q.failed.is_empty();
            return self.finish_multi(qid, complete);
        }
        Vec::new()
    }

    fn on_partial_matches(
        &mut self,
        qid: QueryId,
        from: NodeId,
        per_pattern: Vec<Vec<Solution>>,
    ) -> Vec<Action> {
        let stale = match self.multi.get_mut(&qid) {
            None => true,
            Some(q) => q.phase != Phase::Gather
                || per_pattern.len() != q.per_pattern.len()
                || q.outstanding.remove(&from).is_none(),
        };
        if stale {
            self.counters.stale_replies += 1;
            return Vec::new();
        }
        let q = self.multi.get_mut(&qid).expect("checked in flight");
        // The provider's own cross-pattern join: everything it could
        // answer without help. Assembly rows beyond the union of these
        // are the stitched cross-site matches.
        let mut local = vec![Solution::new()];
        for (buf, sols) in q.per_pattern.iter_mut().zip(&per_pattern) {
            let mut mine = DistinctBuffer::new();
            for s in sols {
                mine.push(s.clone());
                buf.push(s.clone());
            }
            local = rdfmesh_sparql::solution::join(&local, mine.as_slice());
        }
        q.local_complete.extend_distinct(local);
        if q.outstanding.is_empty() {
            let complete = q.failed.is_empty();
            return self.finish_multi(qid, complete);
        }
        Vec::new()
    }

    fn on_multi_lookup_timeout(&mut self, qid: QueryId, idx: u32, attempt: u8) -> Vec<Action> {
        let i = idx as usize;
        let Some(q) = self.multi.get_mut(&qid) else { return Vec::new() };
        if q.phase != Phase::AwaitProviders
            || i >= q.lookup_attempts.len()
            || q.providers[i].is_some()
            || q.lookup_attempts[i] != attempt
        {
            return Vec::new(); // answered, or a stale deadline
        }
        if attempt < self.cfg.retries {
            q.lookup_attempts[i] = attempt + 1;
            self.counters.retries += 1;
            let pattern = q.patterns[i].clone();
            vec![
                Action::Send {
                    to: self.index,
                    msg: LiveMsg::MultiLookup { qid, idx, pattern, reply_to: self.me },
                },
                Action::Schedule {
                    after: self.cfg.lookup_timeout,
                    msg: LiveMsg::Deadline {
                        qid,
                        stage: DeadlineStage::MultiLookup { idx, attempt: attempt + 1 },
                    },
                },
            ]
        } else {
            self.counters.lookup_failures += 1;
            self.finish_multi(qid, false)
        }
    }

    fn on_multi_ack_timeout(&mut self, qid: QueryId, provider: NodeId, attempt: u8) -> Vec<Action> {
        let Some(q) = self.multi.get_mut(&qid) else { return Vec::new() };
        if q.phase != Phase::Gather || q.outstanding.get(&provider) != Some(&attempt) {
            return Vec::new(); // answered, escalated, or a stale deadline
        }
        if attempt < self.cfg.retries {
            q.outstanding.insert(provider, attempt + 1);
            self.counters.retries += 1;
            let q = &self.multi[&qid];
            vec![
                Action::Send { to: provider, msg: self.multi_subquery_for(qid, q) },
                Action::Schedule {
                    after: self.cfg.ack_timeout,
                    msg: LiveMsg::Deadline {
                        qid,
                        stage: DeadlineStage::Ack { provider, attempt: attempt + 1 },
                    },
                },
            ]
        } else {
            q.outstanding.remove(&provider);
            q.failed.push(provider);
            self.counters.ack_timeouts += 1;
            // Purge the dead provider from every pattern row that named
            // it — each slot's key may live at a different index owner.
            let dead_for: Vec<TriplePattern> = q
                .providers
                .iter()
                .zip(&q.patterns)
                .filter(|(slot, _)| slot.as_deref().is_some_and(|ps| ps.contains(&provider)))
                .map(|(_, pattern)| pattern.clone())
                .collect();
            // A HyperCube generation cannot finish without every peer's
            // partitions — the surviving targets are stalled waiting for
            // the dead peer's scatter. Re-issue the round over the
            // survivors under a bumped generation; partitions from the
            // abandoned one are fenced off by the round tag.
            let restart = q.strategy == DistStrategy::HyperCube;
            if restart {
                q.peers.retain(|p| *p != provider);
                q.round += 1;
                q.outstanding = q.peers.iter().map(|p| (*p, 0)).collect();
            }
            let done = q.outstanding.is_empty();
            let mut actions: Vec<Action> = dead_for
                .into_iter()
                .map(|pattern| Action::Send {
                    to: self.index,
                    msg: LiveMsg::ProviderDead { pattern, provider },
                })
                .collect();
            if done {
                actions.extend(self.finish_multi(qid, false));
            } else if restart {
                let q = &self.multi[&qid];
                let peers = q.peers.clone();
                for p in peers {
                    actions.push(Action::Send { to: p, msg: self.multi_subquery_for(qid, q) });
                    actions.push(Action::Schedule {
                        after: self.cfg.ack_timeout,
                        msg: LiveMsg::Deadline {
                            qid,
                            stage: DeadlineStage::Ack { provider: p, attempt: 0 },
                        },
                    });
                }
            }
            actions
        }
    }

    fn finish_multi(&mut self, qid: QueryId, complete: bool) -> Vec<Action> {
        let Some(q) = self.multi.remove(&qid) else { return Vec::new() };
        if !complete {
            self.counters.incomplete_queries += 1;
        }
        let solutions = match q.strategy {
            DistStrategy::HyperCube => q.collected.into_vec(),
            _ => {
                // Assembly (partial evaluation): fold-join the deduped
                // per-pattern unions in pattern order.
                let mut acc = vec![Solution::new()];
                for buf in &q.per_pattern {
                    acc = rdfmesh_sparql::solution::join(&acc, buf.as_slice());
                }
                let mut assembled = DistinctBuffer::new();
                assembled.extend_distinct(acc);
                self.counters.stitched_rows +=
                    assembled.len().saturating_sub(q.local_complete.len()) as u64;
                assembled.into_vec()
            }
        };
        // Let the providers retire any retained shuffle state.
        let mut actions: Vec<Action> = q
            .peers
            .iter()
            .map(|p| Action::Send { to: *p, msg: LiveMsg::MultiDone { qid } })
            .collect();
        actions.push(Action::Finish {
            qid,
            answer: LiveAnswer {
                triples: Vec::new(),
                solutions,
                complete,
                failed_providers: q.failed,
            },
        });
        actions
    }
}

// ---- the node handlers ----------------------------------------------

pub(crate) type PendingMap = Arc<Mutex<HashMap<QueryId, Sender<LiveAnswer>>>>;
pub(crate) type SharedTable = Arc<Mutex<HashMap<u64, Vec<NodeId>>>>;
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

/// The coordinator node: hosts the state machine, executes its actions
/// (turning failed sends back into events), and hands finished answers
/// to the waiting caller.
pub(crate) struct Coordinator {
    pub(crate) core: CoordinatorCore,
    pub(crate) pending: PendingMap,
    pub(crate) shared: Arc<LiveStats>,
    pub(crate) synced: LiveCounters,
}

impl Coordinator {
    /// Executes the state machine's actions. Solution sub-queries are
    /// not sent one by one: within one handler turn every
    /// `SubQuerySol` bound for the same storage node is buffered and
    /// flushed as a single frame — a lone round keeps its original
    /// message (byte-identical to the unbatched protocol, which is what
    /// the E17/E18 parity experiments pin down), while two or more
    /// coalesce into a [`LiveMsg::SubQuerySolBatch`]. A failed flush
    /// feeds back into the state machine per carried round, which may
    /// buffer retransmissions — hence the outer loop.
    fn run(&mut self, first: Vec<Action>, out: &Outbox<LiveMsg>) {
        let mut actions: VecDeque<Action> = first.into();
        loop {
            let mut buffered: Vec<(NodeId, Vec<SolRound>)> = Vec::new();
            while let Some(action) = actions.pop_front() {
                match action {
                    Action::Send {
                        to,
                        msg: LiveMsg::SubQuerySol { qid, pattern, filter, bound, .. },
                    } => {
                        let round = SolRound { qid, pattern, filter, bound };
                        match buffered.iter_mut().find(|(node, _)| *node == to) {
                            Some((_, rounds)) => rounds.push(round),
                            None => buffered.push((to, vec![round])),
                        }
                    }
                    Action::Send { to, msg } => {
                        if !out.send(to, msg.clone()) {
                            actions.extend(self.core.on_send_failed(to, msg));
                        }
                    }
                    Action::Schedule { after, msg } => out.schedule(after, msg),
                    Action::Finish { qid, answer } => {
                        // Removing the sender is what makes "done" single-shot.
                        if let Some(tx) = lock(&self.pending).remove(&qid) {
                            let _ = tx.send(answer);
                        }
                    }
                }
            }
            if buffered.is_empty() {
                break;
            }
            for (to, mut rounds) in buffered {
                let msg = if rounds.len() == 1 {
                    let r = rounds.pop().expect("one round");
                    LiveMsg::SubQuerySol {
                        qid: r.qid,
                        pattern: r.pattern,
                        filter: r.filter,
                        bound: r.bound,
                        reply_to: self.core.me,
                    }
                } else {
                    self.shared.add_batches(1);
                    self.shared.add_batched_rounds(rounds.len() as u64);
                    LiveMsg::SubQuerySolBatch { rounds, reply_to: self.core.me }
                };
                if !out.send(to, msg.clone()) {
                    actions.extend(self.core.on_send_failed(to, msg));
                }
            }
            if actions.is_empty() {
                break;
            }
        }
        self.sync_counters();
    }

    fn sync_counters(&mut self) {
        let now = self.core.counters;
        let last = self.synced;
        self.shared.add_retries(now.retries - last.retries);
        self.shared.add_ack_timeouts(now.ack_timeouts - last.ack_timeouts);
        self.shared.add_send_failures(now.send_failures - last.send_failures);
        self.shared.add_stale_replies(now.stale_replies - last.stale_replies);
        self.shared.add_incomplete_queries(now.incomplete_queries - last.incomplete_queries);
        self.shared.add_lookup_failures(now.lookup_failures - last.lookup_failures);
        self.shared.add_stitched_rows(now.stitched_rows - last.stitched_rows);
        self.synced = now;
    }
}

impl Handler<LiveMsg> for Coordinator {
    fn on_message(&mut self, envelope: Envelope<LiveMsg>, out: &Outbox<LiveMsg>) {
        let actions = self.core.on_event(envelope.from, envelope.payload);
        self.run(actions, out);
    }
}

pub(crate) struct IndexNode {
    /// key id → providers (this node's location table). Shared with the
    /// [`LiveMesh`] handle so tests and operators can observe the lazy
    /// removal without an extra probe protocol.
    pub(crate) table: SharedTable,
    pub(crate) space: rdfmesh_chord::IdSpace,
    /// `(ring position, address)` of every index node, sorted by
    /// position — the routing view. A live deployment would walk fingers
    /// hop by hop; one-shot resolution keeps the thread demo focused on
    /// the query protocol itself.
    pub(crate) ring_view: RingView,
    pub(crate) stats: Arc<LiveStats>,
}

impl IndexNode {
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
            LiveMsg::MultiLookup { qid, idx, pattern, reply_to } => {
                // Same owner routing as a plain lookup; the reply echoes
                // the pattern slot so the coordinator can fill it in.
                match key_for_pattern(self.space, &pattern) {
                    None => {
                        out.send(
                            reply_to,
                            LiveMsg::MultiProviders { qid, idx, providers: Vec::new() },
                        );
                    }
                    Some(k) => {
                        let owner = self.owner_of(k.id.0);
                        if owner == out.me() {
                            let providers =
                                lock(&self.table).get(&k.id.0).cloned().unwrap_or_default();
                            out.send(reply_to, LiveMsg::MultiProviders { qid, idx, providers });
                        } else {
                            out.send(owner, LiveMsg::MultiLookup { qid, idx, pattern, reply_to });
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
                // Serve-mode registration: idempotent row inserts, so a
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

/// Per-query state a storage node keeps while a HyperCube shuffle is in
/// flight: the exec frame and its peers' partitions can arrive in any
/// order, and a retransmitted exec must re-ship the finished answer
/// instead of re-scattering partitions.
/// The retained copy of a [`LiveMsg::ShuffleExec`] frame's fields.
#[derive(Debug)]
pub(crate) struct ShuffleExecFrame {
    patterns: Vec<TriplePattern>,
    peers: Vec<NodeId>,
    reply_to: NodeId,
}

#[derive(Debug, Default)]
pub(crate) struct ShuffleState {
    /// The shuffle generation the retained state belongs to. Frames
    /// tagged with a newer generation supersede everything here (the
    /// coordinator restarted the round over the surviving peers); frames
    /// from an older one are dropped.
    round: u32,
    /// The exec frame's fields, once it arrived (`join_vars` are
    /// consumed by the scatter and not retained).
    exec: Option<ShuffleExecFrame>,
    /// origin peer → its per-pattern partitions destined for this node.
    /// Keyed by origin, so a retransmitted partition frame is idempotent.
    received: HashMap<NodeId, Vec<Vec<Solution>>>,
    /// The shipped local join, kept for retransmit resends.
    answer: Option<Vec<Solution>>,
}

/// Shuffle entries for more queries than this trigger an eviction of
/// finished entries — the backstop for lost [`LiveMsg::MultiDone`]s.
const SHUFFLE_STATE_CAP: usize = 1024;

pub(crate) struct LiveStorage {
    pub(crate) store: SharedStore,
    pub(crate) stats: Arc<LiveStats>,
    /// In-flight HyperCube rounds this node participates in.
    pub(crate) shuffle: HashMap<QueryId, ShuffleState>,
}

impl LiveStorage {
    /// Local execution (Fig. 3): match the pattern against the local
    /// store — extending the shipped intermediates when the round is a
    /// bind join — then apply the pushed-down filter at the source
    /// (Sect. IV-G).
    fn answer(&self, round: &SolRound) -> Vec<Solution> {
        let unit = vec![Solution::new()];
        let partial = round.bound.as_deref().unwrap_or(&unit);
        let mut solutions =
            rdfmesh_sparql::eval::evaluate_pattern_with(&self.store, &round.pattern, partial);
        if let Some(f) = &round.filter {
            solutions.retain(|s| f.satisfied_by(s));
        }
        self.stats.add_solutions_shipped(solutions.len() as u64);
        self.stats.add_solution_bytes(wire::encoded_len(&solutions) as u64);
        solutions
    }

    /// Admits a new shuffle entry, evicting finished ones first when a
    /// lost `MultiDone` let the map grow past the cap.
    fn shuffle_entry(&mut self, qid: QueryId) -> &mut ShuffleState {
        if self.shuffle.len() >= SHUFFLE_STATE_CAP && !self.shuffle.contains_key(&qid) {
            self.shuffle.retain(|_, st| st.answer.is_none());
        }
        self.shuffle.entry(qid).or_default()
    }

    /// Ships the local join once the exec frame and every peer's
    /// partitions are in. The per-pattern fragment this node joins is
    /// the union (deduped) of its own partition slice and every
    /// [`LiveMsg::ShufflePart`] addressed to it — solutions that agree
    /// on the join variables land at the same target, so the union of
    /// all targets' local joins is the full join.
    fn try_finish_shuffle(&mut self, qid: QueryId, out: &Outbox<LiveMsg>) {
        let Some(st) = self.shuffle.get_mut(&qid) else { return };
        let Some(ShuffleExecFrame { patterns, peers, reply_to }) = &st.exec else { return };
        if st.answer.is_some() || st.received.len() < peers.len() {
            return;
        }
        let mut acc = vec![Solution::new()];
        for pi in 0..patterns.len() {
            let mut fragment = DistinctBuffer::new();
            for parts in st.received.values() {
                fragment.extend_distinct(parts.get(pi).cloned().unwrap_or_default());
            }
            acc = rdfmesh_sparql::solution::join(&acc, fragment.as_slice());
        }
        let mut distinct = DistinctBuffer::new();
        distinct.extend_distinct(acc);
        let solutions = distinct.into_vec();
        self.stats.add_solutions_shipped(solutions.len() as u64);
        self.stats.add_solution_bytes(wire::encoded_len(&solutions) as u64);
        out.send(*reply_to, LiveMsg::Solutions { qid, solutions: solutions.clone() });
        st.answer = Some(solutions);
    }
}

impl Handler<LiveMsg> for LiveStorage {
    fn on_message(&mut self, envelope: Envelope<LiveMsg>, out: &Outbox<LiveMsg>) {
        let from = envelope.from;
        match envelope.payload {
            LiveMsg::SubQuery { qid, pattern, reply_to } => {
                let triples = self.store.match_pattern(&pattern);
                out.send(reply_to, LiveMsg::Matches { qid, triples });
            }
            LiveMsg::SubQuerySol { qid, pattern, filter, bound, reply_to } => {
                let solutions = self.answer(&SolRound { qid, pattern, filter, bound });
                out.send(reply_to, LiveMsg::Solutions { qid, solutions });
            }
            LiveMsg::SubQuerySolBatch { rounds, reply_to } => {
                // Several queries' sub-queries in one frame: answer them
                // all in one frame too, so the reply path amortizes the
                // same framing the request path did.
                let entries: Vec<(QueryId, Vec<Solution>)> =
                    rounds.iter().map(|r| (r.qid, self.answer(r))).collect();
                self.stats.add_batches(1);
                self.stats.add_batched_rounds(entries.len() as u64);
                out.send(reply_to, LiveMsg::SolutionsBatch { entries });
            }
            LiveMsg::ShuffleExec { qid, round, patterns, join_vars, peers, reply_to } => {
                // A newer generation supersedes any retained state: the
                // coordinator restarted the round over the survivors.
                if self.shuffle.get(&qid).is_some_and(|st| round > st.round) {
                    self.shuffle.remove(&qid);
                }
                if let Some(st) = self.shuffle.get(&qid) {
                    if round < st.round {
                        return; // exec from an abandoned generation
                    }
                    if let Some(answer) = st.answer.clone() {
                        // Retransmitted exec after the answer already
                        // shipped: resend it (the coordinator dedups).
                        out.send(reply_to, LiveMsg::Solutions { qid, solutions: answer });
                        return;
                    }
                }
                let me = out.me();
                self.shuffle_entry(qid).round = round;
                if self.shuffle_entry(qid).exec.is_none() {
                    // Evaluate every pattern locally and scatter each
                    // solution to the peer its join-variable bindings
                    // hash to. Empty partitions ship too: a target can
                    // only join once it heard from every peer.
                    let k = peers.len().max(1);
                    let unit = vec![Solution::new()];
                    let mut parts: Vec<Vec<Vec<Solution>>> =
                        vec![vec![Vec::new(); patterns.len()]; k];
                    for (pi, pattern) in patterns.iter().enumerate() {
                        let sols = rdfmesh_sparql::eval::evaluate_pattern_with(
                            &self.store,
                            pattern,
                            &unit,
                        );
                        for s in sols {
                            let target = crate::exec::shuffle_partition(&s, &join_vars, k);
                            parts[target][pi].push(s);
                        }
                    }
                    for (slot, peer) in peers.iter().enumerate() {
                        let mine = std::mem::take(&mut parts[slot]);
                        if *peer == me {
                            self.shuffle_entry(qid).received.insert(me, mine);
                        } else {
                            let shipped: usize = mine.iter().map(Vec::len).sum();
                            let bytes: usize =
                                mine.iter().map(|set| wire::encoded_len(set)).sum();
                            self.stats.add_shuffle_parts(shipped as u64);
                            self.stats.add_shuffle_bytes(bytes as u64);
                            out.send(*peer, LiveMsg::ShufflePart { qid, round, parts: mine });
                        }
                    }
                    self.shuffle_entry(qid).exec =
                        Some(ShuffleExecFrame { patterns, peers, reply_to });
                }
                self.try_finish_shuffle(qid, out);
            }
            LiveMsg::ShufflePart { qid, round, parts } => {
                // A partition of a newer generation can outrun its exec
                // frame: drop the abandoned generation's state and start
                // collecting under the new one.
                if self.shuffle.get(&qid).is_some_and(|st| round > st.round) {
                    self.shuffle.remove(&qid);
                }
                let entry = self.shuffle_entry(qid);
                if round < entry.round {
                    return; // partition from an abandoned generation
                }
                entry.round = round;
                entry.received.entry(from).or_insert(parts);
                self.try_finish_shuffle(qid, out);
            }
            LiveMsg::PartialExec { qid, patterns, reply_to } => {
                // Partial evaluation: answer every pattern over local
                // data in one shot. Stateless, so a retransmission just
                // recomputes the same reply.
                let unit = vec![Solution::new()];
                let per_pattern: Vec<Vec<Solution>> = patterns
                    .iter()
                    .map(|p| rdfmesh_sparql::eval::evaluate_pattern_with(&self.store, p, &unit))
                    .collect();
                let shipped: usize = per_pattern.iter().map(Vec::len).sum();
                let bytes: usize = per_pattern.iter().map(|set| wire::encoded_len(set)).sum();
                self.stats.add_solutions_shipped(shipped as u64);
                self.stats.add_solution_bytes(bytes as u64);
                out.send(reply_to, LiveMsg::PartialMatches { qid, per_pattern });
            }
            LiveMsg::MultiDone { qid } => {
                self.shuffle.remove(&qid);
            }
            _ => {}
        }
    }
}

// ---- the mesh handle -------------------------------------------------

/// Which substrate carries a [`LiveMesh`]'s protocol messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transport {
    /// Crossbeam channels between threads in one process — the original
    /// live mesh.
    Threads,
    /// Framed TCP over loopback: every inter-node message crosses a real
    /// socket through the process's own listener, exercising the
    /// `docs/DEPLOYMENT.md` wire protocol end to end while the
    /// [`FaultPlan`] keeps its sender-side semantics.
    Sockets,
}

/// The cluster behind a [`LiveMesh`]: same `Outbox` contract, different
/// wires. Both variants expose identical control/observation surfaces,
/// which is what lets the fault suite run unmodified on either.
enum MeshCluster {
    Threads(Cluster<LiveMsg>),
    Sockets(TcpCluster<LiveMsg>),
}

impl MeshCluster {
    fn inject(&self, from: NodeId, to: NodeId, msg: LiveMsg) -> bool {
        match self {
            MeshCluster::Threads(c) => c.inject(from, to, msg),
            MeshCluster::Sockets(c) => c.inject(from, to, msg),
        }
    }

    fn crash(&self, node: NodeId) -> bool {
        match self {
            MeshCluster::Threads(c) => c.crash(node),
            MeshCluster::Sockets(c) => c.crash(node),
        }
    }

    fn restart(&self, node: NodeId) -> bool {
        match self {
            MeshCluster::Threads(c) => c.restart(node),
            MeshCluster::Sockets(c) => c.restart(node),
        }
    }

    fn barrier(&self, node: NodeId, timeout: Duration) -> bool {
        match self {
            MeshCluster::Threads(c) => c.barrier(node, timeout),
            MeshCluster::Sockets(c) => c.barrier(node, timeout),
        }
    }

    fn message_count(&self) -> u64 {
        match self {
            MeshCluster::Threads(c) => c.message_count(),
            MeshCluster::Sockets(c) => c.message_count(),
        }
    }

    fn dropped_count(&self) -> u64 {
        match self {
            MeshCluster::Threads(c) => c.dropped_count(),
            MeshCluster::Sockets(c) => c.dropped_count(),
        }
    }

    fn shutdown(&self) {
        match self {
            MeshCluster::Threads(c) => c.shutdown(),
            MeshCluster::Sockets(c) => c.shutdown(),
        }
    }
}

/// How many round submissions one submit-pump drain coalesces into a
/// single [`LiveMsg::SubmitSolBatch`] at most.
pub(crate) const SUBMIT_COALESCE: usize = 64;

/// The group-commit submit pump: callers enqueue rounds without
/// blocking; the pump injects whatever has piled up while the previous
/// inject was in flight as one message. At low load every round still
/// travels alone (zero added latency — the blocking `recv` forwards it
/// immediately); batches only form under concurrency, which is exactly
/// when the framing amortization pays.
pub(crate) fn spawn_submit_pump<F>(rx: Receiver<SolRound>, stats: Arc<LiveStats>, inject: F)
where
    F: Fn(LiveMsg) + Send + 'static,
{
    std::thread::Builder::new()
        .name("rdfmesh-submit-pump".into())
        .spawn(move || {
            while let Ok(first) = rx.recv() {
                let mut rounds = vec![first];
                while rounds.len() < SUBMIT_COALESCE {
                    match rx.try_recv() {
                        Ok(r) => rounds.push(r),
                        Err(_) => break,
                    }
                }
                let msg = if rounds.len() == 1 {
                    let r = rounds.pop().expect("one round");
                    LiveMsg::SubmitSol {
                        qid: r.qid,
                        pattern: r.pattern,
                        filter: r.filter,
                        bound: r.bound,
                    }
                } else {
                    stats.add_batches(1);
                    stats.add_batched_rounds(rounds.len() as u64);
                    LiveMsg::SubmitSolBatch { rounds }
                };
                inject(msg);
            }
        })
        .expect("spawn submit pump");
}

/// A submitted-but-not-yet-awaited solution round: the non-blocking
/// half of [`LiveMesh::query_solutions`] (and
/// [`crate::MeshNode::submit_solutions`]). Callers submit any number of
/// rounds and wait on each handle afterwards, so concurrent executions
/// pipeline through one coordinator instead of serializing on the
/// caller side.
#[derive(Debug)]
pub struct RoundHandle {
    qid: QueryId,
    rx: Receiver<LiveAnswer>,
    pending: PendingMap,
}

impl RoundHandle {
    pub(crate) fn new(qid: QueryId, rx: Receiver<LiveAnswer>, pending: PendingMap) -> Self {
        RoundHandle { qid, rx, pending }
    }

    /// The id the round was submitted under.
    pub fn qid(&self) -> QueryId {
        self.qid
    }

    /// Blocks up to `timeout` for the round's answer. `None` abandons
    /// the wait (the coordinator's own deadlines still retire the
    /// round's protocol state).
    pub fn wait(self, timeout: Duration) -> Option<LiveAnswer> {
        let answer = self.rx.recv_timeout(timeout).ok();
        if answer.is_none() {
            lock(&self.pending).remove(&self.qid);
        }
        answer
    }
}

/// A live mesh: one thread per node, built from an existing overlay's
/// data placement.
pub struct LiveMesh {
    cluster: Arc<MeshCluster>,
    coordinator: NodeId,
    cfg: LiveConfig,
    next_qid: AtomicU64,
    pending: PendingMap,
    submit: Sender<SolRound>,
    admission: crate::admission::Admission,
    stats: Arc<LiveStats>,
    space: rdfmesh_chord::IdSpace,
    ring_view: RingView,
    tables: HashMap<NodeId, SharedTable>,
}

/// The coordinator's well-known address in the live mesh.
pub const COORDINATOR: NodeId = NodeId(u64::MAX);

impl LiveMesh {
    /// Spawns node threads mirroring `overlay`'s index placement and
    /// storage contents, with default timeouts and no planned faults.
    pub fn spawn(overlay: &Overlay) -> Self {
        Self::spawn_with(overlay, LiveConfig::default(), FaultPlan::new())
    }

    /// [`LiveMesh::spawn`] with explicit fault-tolerance configuration
    /// and a [`FaultPlan`] to exercise it. For simplicity the live index
    /// is one thread per index node, each holding the full
    /// key → providers map it would own (ring routing is already
    /// exercised by the simulator; the live mesh demonstrates the
    /// messaging).
    pub fn spawn_with(overlay: &Overlay, cfg: LiveConfig, plan: FaultPlan) -> Self {
        Self::spawn_with_transport(overlay, cfg, plan, Transport::Threads)
            .expect("thread transport cannot fail to bind")
    }

    /// [`LiveMesh::spawn_with`] on an explicit [`Transport`]. Only
    /// [`Transport::Sockets`] can fail (binding the loopback listener);
    /// the protocol, fault semantics and observable counters are
    /// identical on both substrates.
    pub fn spawn_with_transport(
        overlay: &Overlay,
        cfg: LiveConfig,
        plan: FaultPlan,
        transport: Transport,
    ) -> std::io::Result<Self> {
        let space = overlay.ring().space();
        // Build each index node's location table view from storage data.
        let index_nodes = overlay.index_nodes();
        assert!(!index_nodes.is_empty(), "live mesh needs an index node");
        let mut tables: HashMap<NodeId, HashMap<u64, Vec<NodeId>>> = HashMap::new();
        for storage in overlay.storage_nodes() {
            let node = overlay.storage_node(storage).expect("listed");
            for triple in node.store.iter() {
                for key in keys_for_triple(space, &triple) {
                    let owner = overlay
                        .ring()
                        .ideal_owner(key.id)
                        .ok()
                        .and_then(|id| overlay.addr_of(id))
                        .unwrap_or(index_nodes[0]);
                    let row = tables.entry(owner).or_default().entry(key.id.0).or_default();
                    if !row.contains(&storage) {
                        row.push(storage);
                    }
                }
            }
        }

        let mut ring_view: Vec<(u64, NodeId)> = index_nodes
            .iter()
            .filter_map(|&addr| overlay.chord_id_of(addr).map(|id| (id.0, addr)))
            .collect();
        ring_view.sort();
        let ring_view: RingView = Arc::new(RwLock::new(ring_view));
        let stats = Arc::new(LiveStats::default());
        let pending: PendingMap = Arc::new(Mutex::new(HashMap::new()));
        let mut shared_tables: HashMap<NodeId, SharedTable> = HashMap::new();
        let mut nodes: Vec<(NodeId, Box<dyn Handler<LiveMsg>>)> = Vec::new();
        for ix in &index_nodes {
            let table: SharedTable = Arc::new(Mutex::new(tables.remove(ix).unwrap_or_default()));
            shared_tables.insert(*ix, Arc::clone(&table));
            nodes.push((
                *ix,
                Box::new(IndexNode {
                    table,
                    space,
                    ring_view: Arc::clone(&ring_view),
                    stats: Arc::clone(&stats),
                }),
            ));
        }
        let mut flood: Vec<NodeId> = Vec::new();
        for storage in overlay.storage_nodes() {
            let store = overlay.storage_node(storage).expect("listed").store.clone();
            nodes.push((
                storage,
                Box::new(LiveStorage {
                    store,
                    stats: Arc::clone(&stats),
                    shuffle: HashMap::new(),
                }),
            ));
            flood.push(storage);
        }
        flood.sort();
        let flood: SharedFlood = Arc::new(RwLock::new(flood));
        nodes.push((
            COORDINATOR,
            Box::new(Coordinator {
                core: CoordinatorCore::new(COORDINATOR, index_nodes[0], cfg, space, flood),
                pending: Arc::clone(&pending),
                shared: Arc::clone(&stats),
                synced: LiveCounters::default(),
            }),
        ));
        let cluster = match transport {
            Transport::Threads => MeshCluster::Threads(Cluster::spawn_with(nodes, plan)),
            Transport::Sockets => MeshCluster::Sockets(TcpCluster::spawn_loopback(nodes, plan)?),
        };
        let cluster = Arc::new(cluster);
        let (submit, submit_rx) = unbounded();
        let pump_cluster = Arc::clone(&cluster);
        spawn_submit_pump(submit_rx, Arc::clone(&stats), move |msg| {
            pump_cluster.inject(COORDINATOR, COORDINATOR, msg);
        });
        Ok(LiveMesh {
            cluster,
            coordinator: COORDINATOR,
            cfg,
            next_qid: AtomicU64::new(1),
            pending,
            submit,
            admission: crate::admission::Admission::new(&cfg, Arc::clone(&stats)),
            stats,
            space,
            ring_view,
            tables: shared_tables,
        })
    }

    /// Resolves one triple pattern through the live protocol, blocking up
    /// to `timeout` for the caller-side wait. The protocol's own
    /// deadlines ([`LiveConfig`]) guarantee an answer well before a
    /// generous `timeout`; `None` means the caller gave up first.
    pub fn query(&self, pattern: TriplePattern, timeout: Duration) -> Option<LiveAnswer> {
        let qid = QueryId(self.next_qid.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = bounded(1);
        lock(&self.pending).insert(qid, tx);
        self.cluster.inject(self.coordinator, self.coordinator, LiveMsg::Submit { qid, pattern });
        let answer = rx.recv_timeout(timeout).ok();
        if answer.is_none() {
            lock(&self.pending).remove(&qid);
        }
        answer
    }

    /// Resolves one *solution round* through the live protocol: the
    /// selected providers answer with solution mappings — extending the
    /// shipped `bound` intermediates when given (bind join, Sect. IV-D)
    /// and applying `filter` at the source (Sect. IV-G) — instead of raw
    /// triples. The distributed execution core's [`crate::LiveBackend`]
    /// issues one such round per plan primitive or bound sub-query.
    pub fn query_solutions(
        &self,
        pattern: TriplePattern,
        filter: Option<Expression>,
        bound: Option<Vec<Solution>>,
        timeout: Duration,
    ) -> Option<LiveAnswer> {
        self.submit_solutions(pattern, filter, bound).wait(timeout)
    }

    /// The non-blocking half of [`LiveMesh::query_solutions`]: enqueues
    /// the round at the submit pump and returns immediately with a
    /// [`RoundHandle`] to wait on. Rounds submitted concurrently
    /// pipeline through the coordinator (and coalesce into batched
    /// frames under load).
    pub fn submit_solutions(
        &self,
        pattern: TriplePattern,
        filter: Option<Expression>,
        bound: Option<Vec<Solution>>,
    ) -> RoundHandle {
        self.stats.add_solution_rounds(1);
        let qid = QueryId(self.next_qid.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = bounded(1);
        lock(&self.pending).insert(qid, tx);
        let _ = self.submit.send(SolRound { qid, pattern, filter, bound });
        RoundHandle::new(qid, rx, Arc::clone(&self.pending))
    }

    /// Resolves a whole multi-pattern BGP in a single distributed round
    /// — HyperCube shuffle or partial-evaluation-and-assembly — instead
    /// of pattern-by-pattern chained shipping, blocking up to `timeout`.
    pub fn query_multiway(
        &self,
        patterns: Vec<TriplePattern>,
        join_vars: Vec<Variable>,
        strategy: DistStrategy,
        timeout: Duration,
    ) -> Option<LiveAnswer> {
        self.submit_multiway(patterns, join_vars, strategy).wait(timeout)
    }

    /// The non-blocking half of [`LiveMesh::query_multiway`]. Multiway
    /// rounds bypass the submit pump (they never coalesce with chained
    /// rounds) and inject directly at the coordinator.
    pub fn submit_multiway(
        &self,
        patterns: Vec<TriplePattern>,
        join_vars: Vec<Variable>,
        strategy: DistStrategy,
    ) -> RoundHandle {
        self.stats.add_solution_rounds(1);
        let qid = QueryId(self.next_qid.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = bounded(1);
        lock(&self.pending).insert(qid, tx);
        self.cluster.inject(
            self.coordinator,
            self.coordinator,
            LiveMsg::SubmitMulti { qid, patterns, join_vars, strategy },
        );
        RoundHandle::new(qid, rx, Arc::clone(&self.pending))
    }

    /// The admission gate bounding concurrent query *executions* (one
    /// SPARQL query = one permit, covering all its solution rounds).
    /// [`LiveMesh::execute`] acquires from it; raw round submissions
    /// are ungated internals.
    pub fn admission(&self) -> &crate::admission::Admission {
        &self.admission
    }

    /// The fault-tolerance configuration the mesh was spawned with.
    pub fn config(&self) -> LiveConfig {
        self.cfg
    }

    /// Test-harness facility: delivers a hand-crafted protocol message as
    /// if `from` had sent it, bypassing link faults (see
    /// [`Cluster::inject`]). Fault tests use it to forge late replies
    /// from earlier queries.
    pub fn inject(&self, from: NodeId, to: NodeId, msg: LiveMsg) {
        self.cluster.inject(from, to, msg);
    }

    /// Crashes `node` at runtime: it stops answering and sends to it fail
    /// fast. See [`Cluster::crash`].
    pub fn crash(&self, node: NodeId) -> bool {
        self.cluster.crash(node)
    }

    /// Restarts a crashed `node` with its state intact. Its purged
    /// location-table entries stay purged until it republishes — exactly
    /// the paper's rejoin behaviour. See [`Cluster::restart`].
    pub fn restart(&self, node: NodeId) -> bool {
        self.cluster.restart(node)
    }

    /// Blocks until `node` has processed everything delivered to it
    /// before this call — the deterministic fence the fault tests use
    /// instead of sleeping. See [`Cluster::barrier`].
    pub fn barrier(&self, node: NodeId, timeout: Duration) -> bool {
        self.cluster.barrier(node, timeout)
    }

    /// The index node whose location table owns `pattern`'s key, or
    /// `None` for the all-variable pattern (which has no key).
    pub fn index_owner_of(&self, pattern: &TriplePattern) -> Option<NodeId> {
        key_for_pattern(self.space, pattern)
            .map(|k| owner_in_view(&rlock(&self.ring_view), k.id.0))
    }

    /// The owner index node's current location-table row for `pattern`
    /// (sorted) — the observable target of the lazy removal protocol.
    pub fn providers_of(&self, pattern: &TriplePattern) -> Vec<NodeId> {
        let Some(key) = key_for_pattern(self.space, pattern) else { return Vec::new() };
        let owner = owner_in_view(&rlock(&self.ring_view), key.id.0);
        let Some(table) = self.tables.get(&owner) else { return Vec::new() };
        let mut row = lock(table).get(&key.id.0).cloned().unwrap_or_default();
        row.sort();
        row
    }

    /// Fault-tolerance counters accumulated so far.
    pub fn stats(&self) -> LiveStatsSnapshot {
        self.stats.snapshot()
    }

    /// Messages delivered so far (across all threads).
    pub fn message_count(&self) -> u64 {
        self.cluster.message_count()
    }

    /// Messages lost so far to the fault plan or crashed nodes.
    pub fn dropped_count(&self) -> u64 {
        self.cluster.dropped_count()
    }

    /// Socket-layer counters (`transport.*` metric names), or `None` on
    /// [`Transport::Threads`] where no wire exists.
    pub fn transport_stats(&self) -> Option<TransportSnapshot> {
        match &*self.cluster {
            MeshCluster::Threads(_) => None,
            MeshCluster::Sockets(c) => Some(c.transport_stats()),
        }
    }

    /// Stops every node thread.
    pub fn shutdown(&self) {
        self.cluster.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfmesh_net::{LatencyModel, Network, SimTime};
    use rdfmesh_rdf::{Term, TermPattern};

    fn overlay() -> Overlay {
        let net = Network::new(LatencyModel::Uniform(SimTime::millis(1)), 12.5);
        let mut o = Overlay::new(32, 4, 2, net);
        for i in 0..3u64 {
            let addr = NodeId(1000 + i);
            let pos = o.ring().space().hash(&addr.0.to_be_bytes());
            o.add_index_node(addr, pos).unwrap();
        }
        let person = |n: &str| Term::iri(&format!("http://example.org/{n}"));
        let knows = Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS);
        o.add_storage_node(
            NodeId(1),
            NodeId(1000),
            vec![
                Triple::new(person("alice"), knows.clone(), person("bob")),
                Triple::new(person("alice"), knows.clone(), person("carol")),
            ],
        )
        .unwrap();
        o.add_storage_node(
            NodeId(2),
            NodeId(1001),
            vec![Triple::new(person("dave"), knows, person("bob"))],
        )
        .unwrap();
        o
    }

    fn knows_pattern(target: &str) -> TriplePattern {
        TriplePattern::new(
            TermPattern::var("x"),
            Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS),
            Term::iri(&format!("http://example.org/{target}")),
        )
    }

    #[test]
    fn live_query_matches_simulated_results() {
        let o = overlay();
        let mesh = LiveMesh::spawn(&o);
        let pattern = knows_pattern("bob");
        let live = mesh.query(pattern.clone(), Duration::from_secs(10)).expect("no timeout");
        assert!(live.complete);
        assert!(live.failed_providers.is_empty());
        assert_eq!(live.triples.len(), 2);
        // Oracle agreement.
        let mut expected: Vec<Triple> = crate::engine::global_store(&o).match_pattern(&pattern);
        let mut got = live.triples;
        expected.sort();
        got.sort();
        assert_eq!(got, expected);
        // Protocol shape: 1 lookup + 1 providers + k subqueries + k answers.
        assert!(mesh.message_count() >= 4);
        mesh.shutdown();
    }

    #[test]
    fn live_query_empty_when_no_providers() {
        let o = overlay();
        let mesh = LiveMesh::spawn(&o);
        let pattern = TriplePattern::new(
            TermPattern::var("x"),
            Term::iri("http://example.org/never-used"),
            TermPattern::var("y"),
        );
        let live = mesh.query(pattern, Duration::from_secs(10)).expect("no timeout");
        assert!(live.complete);
        assert!(live.triples.is_empty());
        mesh.shutdown();
    }

    #[test]
    fn sequential_queries_reuse_the_mesh() {
        let o = overlay();
        let mesh = LiveMesh::spawn(&o);
        for (target, expect) in [("bob", 2), ("carol", 1), ("nobody", 0)] {
            let live =
                mesh.query(knows_pattern(target), Duration::from_secs(10)).expect("no timeout");
            assert!(live.complete, "target {target}");
            assert_eq!(live.triples.len(), expect, "target {target}");
        }
        mesh.shutdown();
    }

    #[test]
    fn concurrent_submissions_answer_independently() {
        // The non-blocking path end-to-end: many rounds in flight at
        // once through one coordinator, each answer routed back to its
        // own handle.
        let o = overlay();
        let mesh = Arc::new(LiveMesh::spawn(&o));
        let handles: Vec<(usize, RoundHandle)> = (0..12)
            .map(|i| {
                let target = ["bob", "carol", "nobody"][i % 3];
                (i % 3, mesh.submit_solutions(knows_pattern(target), None, None))
            })
            .collect();
        for (kind, handle) in handles {
            let answer = handle.wait(Duration::from_secs(10)).expect("no timeout");
            assert!(answer.complete);
            let expect = [2, 1, 0][kind];
            assert_eq!(answer.solutions.len(), expect, "target kind {kind}");
        }
        mesh.shutdown();
    }

    #[test]
    fn batched_submit_coalesces_provider_traffic() {
        // One SubmitSolBatch whose rounds fan out to the same storage
        // nodes in one coordinator turn must travel as batched
        // SubQuerySol / Solutions frames — the group-commit shipping
        // path — while answering each round independently. The
        // all-variable pattern floods immediately (no lookup
        // round-trip), so both rounds leave in the same turn.
        let o = overlay();
        let mesh = LiveMesh::spawn(&o);
        let p = TriplePattern::new(
            TermPattern::var("s"),
            TermPattern::var("p"),
            TermPattern::var("o"),
        );
        let (tx1, rx1) = bounded(1);
        let (tx2, rx2) = bounded(1);
        let (q1, q2) = (QueryId(501), QueryId(502));
        lock(&mesh.pending).insert(q1, tx1);
        lock(&mesh.pending).insert(q2, tx2);
        mesh.inject(
            COORDINATOR,
            COORDINATOR,
            LiveMsg::SubmitSolBatch {
                rounds: vec![
                    SolRound { qid: q1, pattern: p.clone(), filter: None, bound: None },
                    SolRound { qid: q2, pattern: p, filter: None, bound: None },
                ],
            },
        );
        let a1 = rx1.recv_timeout(Duration::from_secs(10)).expect("q1 answers");
        let a2 = rx2.recv_timeout(Duration::from_secs(10)).expect("q2 answers");
        assert!(a1.complete && a2.complete);
        assert_eq!(a1.solutions, a2.solutions, "same pattern, same answer");
        assert_eq!(a1.solutions.len(), 3, "one solution per stored triple");
        let s = mesh.stats();
        // Two storage nodes: each got one 2-round SubQuerySolBatch and
        // answered one 2-entry SolutionsBatch.
        assert!(s.batches >= 4, "expected coalesced frames, got {} batches", s.batches);
        assert!(s.batched_rounds >= 8, "rounds carried in batches: {}", s.batched_rounds);
        mesh.shutdown();
    }

    // ---- state-machine unit + property tests -------------------------

    mod state_machine {
        use super::*;
        use proptest::prelude::*;

        const IX: NodeId = NodeId(1000);
        const P1: NodeId = NodeId(1);
        const P2: NodeId = NodeId(2);
        const P3: NodeId = NodeId(3);

        fn pattern() -> TriplePattern {
            TriplePattern::new(
                TermPattern::var("x"),
                Term::iri("http://example.org/p"),
                TermPattern::var("y"),
            )
        }

        fn triple(n: u64) -> Triple {
            Triple::new(
                Term::iri(&format!("http://example.org/s{n}")),
                Term::iri("http://example.org/p"),
                Term::iri(&format!("http://example.org/o{n}")),
            )
        }

        fn core() -> CoordinatorCore {
            CoordinatorCore::new(
                COORDINATOR,
                IX,
                LiveConfig::default(),
                rdfmesh_chord::IdSpace::new(32),
                Arc::new(RwLock::new(vec![P1, P2, P3])),
            )
        }

        fn finishes(actions: &[Action]) -> Vec<(QueryId, LiveAnswer)> {
            actions
                .iter()
                .filter_map(|a| match a {
                    Action::Finish { qid, answer } => Some((*qid, answer.clone())),
                    _ => None,
                })
                .collect()
        }

        #[test]
        fn duplicate_matches_are_dropped_not_underflowed() {
            // The seed bug: `expect -= 1` panicked (debug) or wrapped
            // (release) on a duplicate or post-completion reply.
            let mut c = core();
            let qid = QueryId(1);
            c.on_event(COORDINATOR, LiveMsg::Submit { qid, pattern: pattern() });
            c.on_event(
                IX,
                LiveMsg::Providers { qid, pattern: pattern(), providers: vec![P1, P2] },
            );
            let a1 = c.on_event(P1, LiveMsg::Matches { qid, triples: vec![triple(1)] });
            assert!(finishes(&a1).is_empty());
            // Duplicate from P1: dropped, not applied.
            let dup = c.on_event(P1, LiveMsg::Matches { qid, triples: vec![triple(9)] });
            assert!(dup.is_empty());
            assert_eq!(c.counters.stale_replies, 1);
            let a2 = c.on_event(P2, LiveMsg::Matches { qid, triples: vec![triple(2)] });
            let done = finishes(&a2);
            assert_eq!(done.len(), 1);
            assert!(done[0].1.complete);
            assert_eq!(done[0].1.triples, vec![triple(1), triple(2)]);
            // Post-completion reply: dropped.
            let late = c.on_event(P2, LiveMsg::Matches { qid, triples: vec![triple(3)] });
            assert!(late.is_empty());
            assert_eq!(c.counters.stale_replies, 2);
        }

        #[test]
        fn cross_query_replies_cannot_contaminate() {
            let mut c = core();
            let q1 = QueryId(1);
            let q2 = QueryId(2);
            c.on_event(COORDINATOR, LiveMsg::Submit { qid: q1, pattern: pattern() });
            c.on_event(IX, LiveMsg::Providers { qid: q1, pattern: pattern(), providers: vec![P1] });
            let done = c.on_event(P1, LiveMsg::Matches { qid: q1, triples: vec![triple(1)] });
            assert_eq!(finishes(&done).len(), 1);
            // Query 2 starts; a late reply tagged with q1 arrives.
            c.on_event(COORDINATOR, LiveMsg::Submit { qid: q2, pattern: pattern() });
            c.on_event(
                IX,
                LiveMsg::Providers { qid: q2, pattern: pattern(), providers: vec![P1, P2] },
            );
            assert!(c.on_event(P1, LiveMsg::Matches { qid: q1, triples: vec![triple(8)] })
                .is_empty());
            let a1 = c.on_event(P1, LiveMsg::Matches { qid: q2, triples: vec![triple(2)] });
            assert!(finishes(&a1).is_empty());
            let a2 = c.on_event(P2, LiveMsg::Matches { qid: q2, triples: vec![triple(3)] });
            let done = finishes(&a2);
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].1.triples, vec![triple(2), triple(3)], "q1's late reply excluded");
        }

        #[test]
        fn exhausted_ack_deadline_purges_and_reports_partial() {
            let mut c = core();
            let qid = QueryId(7);
            c.on_event(COORDINATOR, LiveMsg::Submit { qid, pattern: pattern() });
            c.on_event(
                IX,
                LiveMsg::Providers { qid, pattern: pattern(), providers: vec![P1, P2] },
            );
            c.on_event(P1, LiveMsg::Matches { qid, triples: vec![triple(1)] });
            // P2 never answers: deadline at attempt 0 retries...
            let retry = c.on_event(
                COORDINATOR,
                LiveMsg::Deadline { qid, stage: DeadlineStage::Ack { provider: P2, attempt: 0 } },
            );
            assert!(retry.iter().any(|a| matches!(
                a,
                Action::Send { to, msg: LiveMsg::SubQuery { .. } } if *to == P2
            )));
            assert_eq!(c.counters.retries, 1);
            // ...and the deadline at attempt 1 gives up.
            let give_up = c.on_event(
                COORDINATOR,
                LiveMsg::Deadline { qid, stage: DeadlineStage::Ack { provider: P2, attempt: 1 } },
            );
            assert!(give_up.iter().any(|a| matches!(
                a,
                Action::Send { to, msg: LiveMsg::ProviderDead { provider, .. } }
                    if *to == IX && *provider == P2
            )));
            let done = finishes(&give_up);
            assert_eq!(done.len(), 1);
            let answer = &done[0].1;
            assert!(!answer.complete);
            assert_eq!(answer.failed_providers, vec![P2]);
            assert_eq!(answer.triples, vec![triple(1)]);
            assert_eq!(c.counters.ack_timeouts, 1);
        }

        #[test]
        fn failed_send_is_an_immediate_ack_timeout() {
            let mut c = core();
            let qid = QueryId(3);
            c.on_event(COORDINATOR, LiveMsg::Submit { qid, pattern: pattern() });
            let acts =
                c.on_event(IX, LiveMsg::Providers { qid, pattern: pattern(), providers: vec![P1] });
            let sub = acts
                .iter()
                .find_map(|a| match a {
                    Action::Send { to, msg } if *to == P1 => Some(msg.clone()),
                    _ => None,
                })
                .expect("subquery sent");
            // First failure retries (attempt 0 -> 1), second gives up.
            let retry = c.on_send_failed(P1, sub.clone());
            assert!(retry
                .iter()
                .any(|a| matches!(a, Action::Send { msg: LiveMsg::SubQuery { .. }, .. })));
            let give_up = c.on_send_failed(P1, sub);
            let done = finishes(&give_up);
            assert_eq!(done.len(), 1);
            assert!(!done[0].1.complete);
            assert_eq!(done[0].1.failed_providers, vec![P1]);
            assert_eq!(c.counters.send_failures, 2);
        }

        #[test]
        fn lookup_timeout_retries_then_fails_within_deadline() {
            let mut c = core();
            let qid = QueryId(4);
            c.on_event(COORDINATOR, LiveMsg::Submit { qid, pattern: pattern() });
            let retry = c.on_event(
                COORDINATOR,
                LiveMsg::Deadline { qid, stage: DeadlineStage::Lookup { attempt: 0 } },
            );
            assert!(retry
                .iter()
                .any(|a| matches!(a, Action::Send { msg: LiveMsg::Lookup { .. }, .. })));
            let give_up = c.on_event(
                COORDINATOR,
                LiveMsg::Deadline { qid, stage: DeadlineStage::Lookup { attempt: 1 } },
            );
            let done = finishes(&give_up);
            assert_eq!(done.len(), 1);
            assert!(!done[0].1.complete);
            assert_eq!(c.counters.lookup_failures, 1);
        }

        fn xsol(n: u64) -> Solution {
            Solution::from_pairs([(
                rdfmesh_rdf::Variable::new("x"),
                Term::iri(&format!("http://example.org/s{n}")),
            )])
        }

        #[test]
        fn solution_round_gathers_and_dedups_across_providers() {
            let mut c = core();
            let qid = QueryId(11);
            c.on_event(
                COORDINATOR,
                LiveMsg::SubmitSol { qid, pattern: pattern(), filter: None, bound: None },
            );
            c.on_event(
                IX,
                LiveMsg::Providers { qid, pattern: pattern(), providers: vec![P1, P2] },
            );
            let a1 = c.on_event(P1, LiveMsg::Solutions { qid, solutions: vec![xsol(1), xsol(2)] });
            assert!(finishes(&a1).is_empty());
            // P2 repeats xsol(2) (a replicated triple): it collapses.
            let a2 = c.on_event(P2, LiveMsg::Solutions { qid, solutions: vec![xsol(2), xsol(3)] });
            let done = finishes(&a2);
            assert_eq!(done.len(), 1);
            assert!(done[0].1.complete);
            assert_eq!(done[0].1.solutions, vec![xsol(1), xsol(2), xsol(3)]);
            assert!(done[0].1.triples.is_empty());
        }

        #[test]
        fn solution_round_retry_reships_filter_and_bound() {
            // An expired ack deadline on a solution round must retransmit
            // the full SubQuerySol — same filter, same bound set — not a
            // bare triple sub-query.
            let mut c = core();
            let qid = QueryId(12);
            let bound = vec![xsol(1)];
            let filter = Expression::Bound(rdfmesh_rdf::Variable::new("x"));
            c.on_event(
                COORDINATOR,
                LiveMsg::SubmitSol {
                    qid,
                    pattern: pattern(),
                    filter: Some(filter.clone()),
                    bound: Some(bound.clone()),
                },
            );
            c.on_event(IX, LiveMsg::Providers { qid, pattern: pattern(), providers: vec![P1] });
            let retry = c.on_event(
                COORDINATOR,
                LiveMsg::Deadline { qid, stage: DeadlineStage::Ack { provider: P1, attempt: 0 } },
            );
            let resent = retry
                .iter()
                .find_map(|a| match a {
                    Action::Send { to, msg: LiveMsg::SubQuerySol { filter, bound, .. } }
                        if *to == P1 =>
                    {
                        Some((filter.clone(), bound.clone()))
                    }
                    _ => None,
                })
                .expect("retransmitted solution sub-query");
            assert_eq!(resent, (Some(filter), Some(bound)));
        }

        #[test]
        fn keyless_pattern_floods_the_storage_nodes_without_lookup() {
            let mut c = core();
            let qid = QueryId(13);
            let all = TriplePattern::new(
                TermPattern::var("s"),
                TermPattern::var("p"),
                TermPattern::var("o"),
            );
            let acts = c.on_event(
                COORDINATOR,
                LiveMsg::SubmitSol { qid, pattern: all, filter: None, bound: None },
            );
            assert!(
                !acts.iter().any(|a| matches!(a, Action::Send { msg: LiveMsg::Lookup { .. }, .. })),
                "the all-variable pattern has no key to look up"
            );
            let targets: Vec<NodeId> = acts
                .iter()
                .filter_map(|a| match a {
                    Action::Send { to, msg: LiveMsg::SubQuerySol { .. } } => Some(*to),
                    _ => None,
                })
                .collect();
            assert_eq!(targets, vec![P1, P2, P3], "flooded to every storage node in order");
            c.on_event(P1, LiveMsg::Solutions { qid, solutions: vec![xsol(1)] });
            c.on_event(P2, LiveMsg::Solutions { qid, solutions: Vec::new() });
            let done = finishes(&c.on_event(P3, LiveMsg::Solutions { qid, solutions: Vec::new() }));
            assert_eq!(done.len(), 1);
            assert!(done[0].1.complete);
            assert_eq!(done[0].1.solutions, vec![xsol(1)]);
        }

        #[test]
        fn submit_sol_batch_opens_each_round_independently() {
            let mut c = core();
            let (q1, q2) = (QueryId(21), QueryId(22));
            c.on_event(
                COORDINATOR,
                LiveMsg::SubmitSolBatch {
                    rounds: vec![
                        SolRound { qid: q1, pattern: pattern(), filter: None, bound: None },
                        SolRound { qid: q2, pattern: pattern(), filter: None, bound: None },
                    ],
                },
            );
            c.on_event(IX, LiveMsg::Providers { qid: q1, pattern: pattern(), providers: vec![P1] });
            c.on_event(IX, LiveMsg::Providers { qid: q2, pattern: pattern(), providers: vec![P2] });
            // q2 finishes first; q1 is untouched by it.
            let d2 = finishes(&c.on_event(P2, LiveMsg::Solutions { qid: q2, solutions: vec![xsol(2)] }));
            assert_eq!(d2.len(), 1);
            assert_eq!(d2[0].0, q2);
            assert_eq!(d2[0].1.solutions, vec![xsol(2)]);
            let d1 = finishes(&c.on_event(P1, LiveMsg::Solutions { qid: q1, solutions: vec![xsol(1)] }));
            assert_eq!(d1.len(), 1);
            assert_eq!(d1[0].0, q1);
            assert_eq!(d1[0].1.solutions, vec![xsol(1)]);
            assert!(c.in_flight.is_empty());
        }

        #[test]
        fn solutions_batch_answers_several_queries_in_one_frame() {
            let mut c = core();
            let (q1, q2) = (QueryId(31), QueryId(32));
            for qid in [q1, q2] {
                c.on_event(
                    COORDINATOR,
                    LiveMsg::SubmitSol { qid, pattern: pattern(), filter: None, bound: None },
                );
                c.on_event(IX, LiveMsg::Providers { qid, pattern: pattern(), providers: vec![P1] });
            }
            // One batched reply frame from P1 settles both rounds; a
            // stale entry rides along and is dropped without effect.
            let done = finishes(&c.on_event(
                P1,
                LiveMsg::SolutionsBatch {
                    entries: vec![
                        (q1, vec![xsol(1)]),
                        (q2, vec![xsol(2)]),
                        (QueryId(999), vec![xsol(9)]),
                    ],
                },
            ));
            assert_eq!(done.len(), 2);
            assert_eq!(done[0].0, q1);
            assert_eq!(done[0].1.solutions, vec![xsol(1)]);
            assert_eq!(done[1].0, q2);
            assert_eq!(done[1].1.solutions, vec![xsol(2)]);
            assert!(c.in_flight.is_empty());
        }

        #[test]
        fn failed_batch_send_times_out_every_carried_round() {
            let mut c = core();
            let (q1, q2) = (QueryId(41), QueryId(42));
            for qid in [q1, q2] {
                c.on_event(
                    COORDINATOR,
                    LiveMsg::SubmitSol { qid, pattern: pattern(), filter: None, bound: None },
                );
                c.on_event(IX, LiveMsg::Providers { qid, pattern: pattern(), providers: vec![P1] });
            }
            let batch = LiveMsg::SubQuerySolBatch {
                rounds: vec![
                    SolRound { qid: q1, pattern: pattern(), filter: None, bound: None },
                    SolRound { qid: q2, pattern: pattern(), filter: None, bound: None },
                ],
                reply_to: COORDINATOR,
            };
            // First failure retries both rounds; the second gives up on
            // both, each finishing as a partial answer naming P1.
            let retry = c.on_send_failed(P1, batch.clone());
            assert!(finishes(&retry).is_empty());
            let give_up = c.on_send_failed(P1, batch);
            let done = finishes(&give_up);
            assert_eq!(done.len(), 2);
            for (_, answer) in &done {
                assert!(!answer.complete);
                assert_eq!(answer.failed_providers, vec![P1]);
            }
            assert!(c.in_flight.is_empty());
        }

        #[test]
        fn distinct_buffer_gather_matches_naive_contains_dedup() {
            // Twin run: the same duplicated reply stream through the
            // state machine (DistinctBuffer gather) and through the old
            // Vec-plus-contains accumulator must agree exactly —
            // first-seen order included.
            let streams: Vec<(NodeId, Vec<u64>)> =
                vec![(P1, vec![1, 2, 2, 3]), (P2, vec![2, 3, 4, 1]), (P3, vec![4, 4, 5, 1])];
            let mut naive: Vec<Solution> = Vec::new();
            for (_, vals) in &streams {
                for v in vals {
                    let s = xsol(*v);
                    if !naive.contains(&s) {
                        naive.push(s);
                    }
                }
            }
            let mut c = core();
            let qid = QueryId(71);
            c.on_event(
                COORDINATOR,
                LiveMsg::SubmitSol { qid, pattern: pattern(), filter: None, bound: None },
            );
            c.on_event(
                IX,
                LiveMsg::Providers { qid, pattern: pattern(), providers: vec![P1, P2, P3] },
            );
            let mut done = Vec::new();
            for (from, vals) in streams {
                done.extend(finishes(&c.on_event(
                    from,
                    LiveMsg::Solutions { qid, solutions: vals.into_iter().map(xsol).collect() },
                )));
            }
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].1.solutions, naive);
        }

        // ---- multiway rounds (HyperCube / partial evaluation) --------

        fn pattern2() -> TriplePattern {
            TriplePattern::new(
                TermPattern::var("x"),
                Term::iri("http://example.org/q"),
                TermPattern::var("z"),
            )
        }

        fn star2() -> Vec<TriplePattern> {
            vec![pattern(), pattern2()]
        }

        fn xvar() -> Vec<Variable> {
            vec![Variable::new("x")]
        }

        fn xy(x: u64, y: u64) -> Solution {
            Solution::from_pairs([
                (Variable::new("x"), Term::iri(&format!("http://example.org/s{x}"))),
                (Variable::new("y"), Term::iri(&format!("http://example.org/o{y}"))),
            ])
        }

        fn xz(x: u64, z: u64) -> Solution {
            Solution::from_pairs([
                (Variable::new("x"), Term::iri(&format!("http://example.org/s{x}"))),
                (Variable::new("z"), Term::iri(&format!("http://example.org/u{z}"))),
            ])
        }

        #[test]
        fn hypercube_round_resolves_every_slot_then_shuffles_and_gathers() {
            let mut c = core();
            let qid = QueryId(51);
            let acts = c.on_event(
                COORDINATOR,
                LiveMsg::SubmitMulti {
                    qid,
                    patterns: star2(),
                    join_vars: xvar(),
                    strategy: DistStrategy::HyperCube,
                },
            );
            let lookups: Vec<u32> = acts
                .iter()
                .filter_map(|a| match a {
                    Action::Send { to, msg: LiveMsg::MultiLookup { idx, .. } } if *to == IX => {
                        Some(*idx)
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(lookups, vec![0, 1], "one lookup per pattern slot");
            // Slot 1 resolves first; nothing fans out until slot 0 does.
            let idle =
                c.on_event(IX, LiveMsg::MultiProviders { qid, idx: 1, providers: vec![P2, P3] });
            assert!(idle.is_empty());
            let fan =
                c.on_event(IX, LiveMsg::MultiProviders { qid, idx: 0, providers: vec![P1, P2] });
            let execs: Vec<(NodeId, Vec<NodeId>)> = fan
                .iter()
                .filter_map(|a| match a {
                    Action::Send { to, msg: LiveMsg::ShuffleExec { peers, .. } } => {
                        Some((*to, peers.clone()))
                    }
                    _ => None,
                })
                .collect();
            // The exec frame goes to the provider union, every frame
            // naming the full sorted union as the partition targets.
            assert_eq!(execs.iter().map(|(to, _)| *to).collect::<Vec<_>>(), vec![P1, P2, P3]);
            for (_, peers) in &execs {
                assert_eq!(peers, &vec![P1, P2, P3]);
            }
            // Targets answer with locally-joined fragments; duplicates
            // across fragments collapse, and the round retires its peers.
            assert!(finishes(&c.on_event(P1, LiveMsg::Solutions { qid, solutions: vec![xsol(1)] }))
                .is_empty());
            assert!(finishes(
                &c.on_event(P2, LiveMsg::Solutions { qid, solutions: vec![xsol(1), xsol(2)] })
            )
            .is_empty());
            let last = c.on_event(P3, LiveMsg::Solutions { qid, solutions: vec![xsol(3)] });
            let done = finishes(&last);
            assert_eq!(done.len(), 1);
            assert!(done[0].1.complete);
            assert_eq!(done[0].1.solutions, vec![xsol(1), xsol(2), xsol(3)]);
            let retire = last
                .iter()
                .filter(|a| matches!(a, Action::Send { msg: LiveMsg::MultiDone { .. }, .. }))
                .count();
            assert_eq!(retire, 3, "MultiDone broadcast to every peer");
            assert!(c.multi.is_empty(), "no state leaks after completion");
        }

        #[test]
        fn partial_eval_assembles_cross_site_rows_and_counts_stitches() {
            let mut c = core();
            let qid = QueryId(52);
            c.on_event(
                COORDINATOR,
                LiveMsg::SubmitMulti {
                    qid,
                    patterns: star2(),
                    join_vars: xvar(),
                    strategy: DistStrategy::PartialEval,
                },
            );
            c.on_event(IX, LiveMsg::MultiProviders { qid, idx: 0, providers: vec![P1] });
            let fan = c.on_event(IX, LiveMsg::MultiProviders { qid, idx: 1, providers: vec![P2] });
            assert!(fan.iter().any(|a| matches!(
                a,
                Action::Send { to, msg: LiveMsg::PartialExec { .. } } if *to == P1
            )));
            // P1 holds only pattern-0 rows and P2 only pattern-1 rows:
            // no provider joins anything locally, so the one assembled
            // row is a stitched cross-site match.
            c.on_event(
                P1,
                LiveMsg::PartialMatches {
                    qid,
                    per_pattern: vec![vec![xy(1, 1), xy(2, 1)], Vec::new()],
                },
            );
            let done = finishes(&c.on_event(
                P2,
                LiveMsg::PartialMatches { qid, per_pattern: vec![Vec::new(), vec![xz(1, 5)]] },
            ));
            assert_eq!(done.len(), 1);
            assert!(done[0].1.complete);
            let expect = rdfmesh_sparql::solution::join(&[xy(1, 1)], &[xz(1, 5)]);
            assert_eq!(done[0].1.solutions, expect, "only the compatible pair assembles");
            assert_eq!(c.counters.stitched_rows, 1);
        }

        #[test]
        fn multiway_dead_provider_retries_then_purges_every_slot_it_served() {
            let mut c = core();
            let qid = QueryId(53);
            c.on_event(
                COORDINATOR,
                LiveMsg::SubmitMulti {
                    qid,
                    patterns: star2(),
                    join_vars: xvar(),
                    strategy: DistStrategy::HyperCube,
                },
            );
            c.on_event(IX, LiveMsg::MultiProviders { qid, idx: 0, providers: vec![P1, P2] });
            c.on_event(IX, LiveMsg::MultiProviders { qid, idx: 1, providers: vec![P2] });
            c.on_event(P1, LiveMsg::Solutions { qid, solutions: vec![xsol(1)] });
            // P2 misses its deadline: first a full exec retransmission...
            let retry = c.on_event(
                COORDINATOR,
                LiveMsg::Deadline { qid, stage: DeadlineStage::Ack { provider: P2, attempt: 0 } },
            );
            assert!(retry.iter().any(|a| matches!(
                a,
                Action::Send { to, msg: LiveMsg::ShuffleExec { .. } } if *to == P2
            )));
            // ...then it is declared dead, purged from *both* pattern
            // rows, and the shuffle restarts over the survivors under a
            // bumped generation (round-0 targets were stalled waiting
            // for P2's partitions, so their fragments cannot be trusted
            // to ever arrive).
            let give_up = c.on_event(
                COORDINATOR,
                LiveMsg::Deadline { qid, stage: DeadlineStage::Ack { provider: P2, attempt: 1 } },
            );
            let dead: usize = give_up
                .iter()
                .filter(|a| matches!(
                    a,
                    Action::Send { to, msg: LiveMsg::ProviderDead { provider, .. } }
                        if *to == IX && *provider == P2
                ))
                .count();
            assert_eq!(dead, 2, "one purge per pattern row naming P2");
            assert!(finishes(&give_up).is_empty(), "the restarted round is still in flight");
            let restarts: Vec<(NodeId, u32, Vec<NodeId>)> = give_up
                .iter()
                .filter_map(|a| match a {
                    Action::Send { to, msg: LiveMsg::ShuffleExec { round, peers, .. } } => {
                        Some((*to, *round, peers.clone()))
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(
                restarts,
                vec![(P1, 1, vec![P1])],
                "generation 1 re-executes over the surviving peer only"
            );
            // The survivor's generation-1 fragment finishes the round
            // partial: P2's data is lost, everything else survives.
            let done = finishes(&c.on_event(P1, LiveMsg::Solutions { qid, solutions: vec![xsol(1)] }));
            assert_eq!(done.len(), 1);
            assert!(!done[0].1.complete);
            assert_eq!(done[0].1.failed_providers, vec![P2]);
            assert_eq!(done[0].1.solutions, vec![xsol(1)]);
        }

        #[test]
        fn multiway_empty_provider_slot_finishes_complete_and_empty() {
            let mut c = core();
            let qid = QueryId(54);
            c.on_event(
                COORDINATOR,
                LiveMsg::SubmitMulti {
                    qid,
                    patterns: star2(),
                    join_vars: xvar(),
                    strategy: DistStrategy::HyperCube,
                },
            );
            // One pattern matches nothing anywhere: the conjunction is
            // empty, so the round finishes before contacting providers.
            let done = finishes(&c.on_event(
                IX,
                LiveMsg::MultiProviders { qid, idx: 0, providers: Vec::new() },
            ));
            assert_eq!(done.len(), 1);
            assert!(done[0].1.complete);
            assert!(done[0].1.solutions.is_empty());
            assert!(c.multi.is_empty());
        }

        #[test]
        fn multiway_lookup_timeout_retries_per_slot_then_fails() {
            let mut c = core();
            let qid = QueryId(55);
            c.on_event(
                COORDINATOR,
                LiveMsg::SubmitMulti {
                    qid,
                    patterns: star2(),
                    join_vars: xvar(),
                    strategy: DistStrategy::PartialEval,
                },
            );
            c.on_event(IX, LiveMsg::MultiProviders { qid, idx: 0, providers: vec![P1] });
            // A stale deadline for the already-resolved slot is inert.
            assert!(c
                .on_event(
                    COORDINATOR,
                    LiveMsg::Deadline {
                        qid,
                        stage: DeadlineStage::MultiLookup { idx: 0, attempt: 0 },
                    },
                )
                .is_empty());
            // Slot 1's lookup never answers: retry, then give up.
            let retry = c.on_event(
                COORDINATOR,
                LiveMsg::Deadline { qid, stage: DeadlineStage::MultiLookup { idx: 1, attempt: 0 } },
            );
            assert!(retry.iter().any(|a| matches!(
                a,
                Action::Send { msg: LiveMsg::MultiLookup { idx: 1, .. }, .. }
            )));
            let give_up = c.on_event(
                COORDINATOR,
                LiveMsg::Deadline { qid, stage: DeadlineStage::MultiLookup { idx: 1, attempt: 1 } },
            );
            let done = finishes(&give_up);
            assert_eq!(done.len(), 1);
            assert!(!done[0].1.complete);
            assert_eq!(c.counters.lookup_failures, 1);
            assert!(c.multi.is_empty());
        }

        /// One abstract protocol event for the interleaving property.
        #[derive(Debug, Clone)]
        enum Ev {
            Providers { stale: bool, providers: Vec<NodeId> },
            Matches { stale_qid: bool, from: NodeId, triples: Vec<Triple> },
            AckDeadline { provider: NodeId, attempt: u8 },
            LookupDeadline { attempt: u8 },
            Overall,
        }

        fn arb_provider() -> impl Strategy<Value = NodeId> {
            prop_oneof![Just(P1), Just(P2), Just(P3), Just(NodeId(99))]
        }

        fn arb_event() -> impl Strategy<Value = Ev> {
            prop_oneof![
                (any::<bool>(), proptest::collection::vec(arb_provider(), 0..4))
                    .prop_map(|(stale, providers)| Ev::Providers { stale, providers }),
                (any::<bool>(), arb_provider(), proptest::collection::vec(0u64..6, 0..3))
                    .prop_map(|(stale_qid, from, ts)| Ev::Matches {
                        stale_qid,
                        from,
                        triples: ts.into_iter().map(triple).collect(),
                    }),
                (arb_provider(), 0u8..3)
                    .prop_map(|(provider, attempt)| Ev::AckDeadline { provider, attempt }),
                (0u8..3).prop_map(|attempt| Ev::LookupDeadline { attempt }),
                Just(Ev::Overall),
            ]
        }

        proptest! {
            /// Arbitrary interleavings of in-order, late, duplicate, and
            /// dropped replies: the machine never panics, never finishes
            /// a query twice, always terminates once the overall deadline
            /// fires, and only reports `complete` when no provider
            /// failed.
            #[test]
            fn interleavings_terminate_exactly_once(
                events in proptest::collection::vec(arb_event(), 0..40)
            ) {
                let mut c = core();
                let qid = QueryId(1);
                let stale = QueryId(999);
                let mut done: Vec<LiveAnswer> = Vec::new();
                let record = |actions: Vec<Action>, done: &mut Vec<LiveAnswer>| {
                    for (q, answer) in finishes(&actions) {
                        prop_assert_eq!(q, qid, "only the submitted query can finish");
                        done.push(answer);
                    }
                    Ok(())
                };
                record(
                    c.on_event(COORDINATOR, LiveMsg::Submit { qid, pattern: pattern() }),
                    &mut done,
                )?;
                for ev in &events {
                    let actions = match ev.clone() {
                        Ev::Providers { stale: s, providers } => c.on_event(
                            IX,
                            LiveMsg::Providers {
                                qid: if s { stale } else { qid },
                                pattern: pattern(),
                                providers,
                            },
                        ),
                        Ev::Matches { stale_qid, from, triples } => c.on_event(
                            from,
                            LiveMsg::Matches { qid: if stale_qid { stale } else { qid }, triples },
                        ),
                        Ev::AckDeadline { provider, attempt } => c.on_event(
                            COORDINATOR,
                            LiveMsg::Deadline {
                                qid,
                                stage: DeadlineStage::Ack { provider, attempt },
                            },
                        ),
                        Ev::LookupDeadline { attempt } => c.on_event(
                            COORDINATOR,
                            LiveMsg::Deadline { qid, stage: DeadlineStage::Lookup { attempt } },
                        ),
                        Ev::Overall => c.on_event(
                            COORDINATOR,
                            LiveMsg::Deadline { qid, stage: DeadlineStage::Overall },
                        ),
                    };
                    record(actions, &mut done)?;
                }
                // The overall deadline always fires eventually.
                record(
                    c.on_event(COORDINATOR, LiveMsg::Deadline { qid, stage: DeadlineStage::Overall }),
                    &mut done,
                )?;
                prop_assert_eq!(done.len(), 1, "exactly one completion, never two");
                let answer = &done[0];
                if answer.complete {
                    prop_assert!(answer.failed_providers.is_empty());
                }
                // Dedup invariant: no triple reported twice.
                let mut seen = std::collections::HashSet::new();
                for t in &answer.triples {
                    prop_assert!(seen.insert(t.clone()), "duplicate triple in answer");
                }
                prop_assert!(c.in_flight.is_empty(), "no state leaks after completion");
            }
        }

        // ---- N simultaneous queries through one machine --------------

        /// Number of concurrently-submitted rounds in the multi-query
        /// interleaving property.
        const NQ: usize = 3;

        fn qid_of(q: usize) -> QueryId {
            QueryId(q as u64 + 1)
        }

        /// Query `q`'s private solution universe — value ranges are
        /// disjoint across queries, so any cross-query buffer leak
        /// surfaces as a foreign solution in an answer.
        fn usol(q: usize, v: u64) -> Solution {
            xsol(1000 * (q as u64 + 1) + v)
        }

        /// One abstract event aimed at one of the [`NQ`] queries.
        #[derive(Debug, Clone)]
        enum MEv {
            Providers { q: usize, stale: bool, providers: Vec<NodeId> },
            Solutions { q: usize, stale_qid: bool, from: NodeId, vals: Vec<u64> },
            Batch { from: NodeId, entries: Vec<(usize, u64)> },
            AckDeadline { q: usize, provider: NodeId, attempt: u8 },
            LookupDeadline { q: usize, attempt: u8 },
            Overall { q: usize },
        }

        fn arb_mev() -> impl Strategy<Value = MEv> {
            prop_oneof![
                (0..NQ, any::<bool>(), proptest::collection::vec(arb_provider(), 0..4))
                    .prop_map(|(q, stale, providers)| MEv::Providers { q, stale, providers }),
                (0..NQ, any::<bool>(), arb_provider(), proptest::collection::vec(0u64..6, 0..3))
                    .prop_map(|(q, stale_qid, from, vals)| MEv::Solutions {
                        q,
                        stale_qid,
                        from,
                        vals,
                    }),
                (arb_provider(), proptest::collection::vec((0..NQ, 0u64..6), 0..4))
                    .prop_map(|(from, entries)| MEv::Batch { from, entries }),
                (0..NQ, arb_provider(), 0u8..3)
                    .prop_map(|(q, provider, attempt)| MEv::AckDeadline { q, provider, attempt }),
                (0..NQ, 0u8..3).prop_map(|(q, attempt)| MEv::LookupDeadline { q, attempt }),
                (0..NQ).prop_map(|q| MEv::Overall { q }),
            ]
        }

        proptest! {
            /// [`NQ`] queries submitted in one batched frame, then an
            /// arbitrary interleaving of per-query providers, plain and
            /// batched replies, stale frames, and deadlines: every query
            /// finishes exactly once, within its own deadline, with only
            /// solutions from its own universe — and the machine retires
            /// all per-query state.
            #[test]
            fn concurrent_queries_finish_once_without_contamination(
                events in proptest::collection::vec(arb_mev(), 0..60)
            ) {
                let mut c = core();
                let stale = QueryId(999);
                let mut done: Vec<Vec<LiveAnswer>> = vec![Vec::new(); NQ];
                let record = |actions: Vec<Action>, done: &mut Vec<Vec<LiveAnswer>>| {
                    for (q, answer) in finishes(&actions) {
                        let idx = (q.0 - 1) as usize;
                        prop_assert!(idx < NQ, "only submitted queries can finish");
                        done[idx].push(answer);
                    }
                    Ok(())
                };
                record(
                    c.on_event(
                        COORDINATOR,
                        LiveMsg::SubmitSolBatch {
                            rounds: (0..NQ)
                                .map(|q| SolRound {
                                    qid: qid_of(q),
                                    pattern: pattern(),
                                    filter: None,
                                    bound: None,
                                })
                                .collect(),
                        },
                    ),
                    &mut done,
                )?;
                for ev in &events {
                    let actions = match ev.clone() {
                        MEv::Providers { q, stale: s, providers } => c.on_event(
                            IX,
                            LiveMsg::Providers {
                                qid: if s { stale } else { qid_of(q) },
                                pattern: pattern(),
                                providers,
                            },
                        ),
                        MEv::Solutions { q, stale_qid, from, vals } => c.on_event(
                            from,
                            LiveMsg::Solutions {
                                qid: if stale_qid { stale } else { qid_of(q) },
                                solutions: vals.into_iter().map(|v| usol(q, v)).collect(),
                            },
                        ),
                        MEv::Batch { from, entries } => c.on_event(
                            from,
                            LiveMsg::SolutionsBatch {
                                entries: entries
                                    .into_iter()
                                    .map(|(q, v)| (qid_of(q), vec![usol(q, v)]))
                                    .collect(),
                            },
                        ),
                        MEv::AckDeadline { q, provider, attempt } => c.on_event(
                            COORDINATOR,
                            LiveMsg::Deadline {
                                qid: qid_of(q),
                                stage: DeadlineStage::Ack { provider, attempt },
                            },
                        ),
                        MEv::LookupDeadline { q, attempt } => c.on_event(
                            COORDINATOR,
                            LiveMsg::Deadline {
                                qid: qid_of(q),
                                stage: DeadlineStage::Lookup { attempt },
                            },
                        ),
                        MEv::Overall { q } => c.on_event(
                            COORDINATOR,
                            LiveMsg::Deadline { qid: qid_of(q), stage: DeadlineStage::Overall },
                        ),
                    };
                    record(actions, &mut done)?;
                }
                // Every query's overall deadline fires eventually.
                for q in 0..NQ {
                    record(
                        c.on_event(
                            COORDINATOR,
                            LiveMsg::Deadline { qid: qid_of(q), stage: DeadlineStage::Overall },
                        ),
                        &mut done,
                    )?;
                }
                for (q, finished) in done.iter().enumerate() {
                    prop_assert_eq!(finished.len(), 1, "query {} must finish exactly once", q);
                    let answer = &finished[0];
                    if answer.complete {
                        prop_assert!(answer.failed_providers.is_empty());
                    }
                    let universe: Vec<Solution> = (0..6).map(|v| usol(q, v)).collect();
                    let mut seen: Vec<&Solution> = Vec::new();
                    for s in &answer.solutions {
                        prop_assert!(
                            universe.contains(s),
                            "query {} leaked a foreign solution", q
                        );
                        prop_assert!(!seen.contains(&s), "duplicate solution in answer");
                        seen.push(s);
                    }
                }
                prop_assert!(c.in_flight.is_empty(), "no per-query state leaks");
            }
        }
    }
}
