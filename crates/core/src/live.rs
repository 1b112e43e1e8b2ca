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
//! by a fresh [`QueryId`] carried in every [`LiveMsg`]. There is one
//! machine for every kind of round — a chained solution round over one
//! pattern, a HyperCube shuffle or a partial evaluation over a whole BGP:
//! each pattern is a *slot* looked up with an ordinary
//! [`LiveMsg::Lookup`], the exec frame fans out to the slots' provider
//! union, and the strategies differ only in that frame's shape, the
//! reply it earns, and what happens to the gathered replies at the end:
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
//! The same handlers run over [`rdfmesh_net::Cluster`] threads, loopback
//! sockets ([`Transport::Sockets`]) and one process per peer
//! ([`crate::MeshNode`]); nothing here touches shared state beyond the
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

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use crossbeam::channel::{bounded, Receiver, Sender};
use rdfmesh_net::{Cluster, Envelope, FaultPlan, Handler, NodeId, Outbox, TcpCluster, TransportSnapshot};
use rdfmesh_overlay::{key_for_pattern, keys_for_triple, Overlay};
use rdfmesh_rdf::{SharedStore, TriplePattern, Variable};
use rdfmesh_sparql::expr::Expression;
use rdfmesh_sparql::solution::{wire, DistinctBuffer, Solution};

use crate::admission::Admission;
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
    /// One provider's query-ack deadline (Sect. III-D).
    Ack {
        /// The storage node awaited.
        provider: NodeId,
        /// Attempt number at schedule time (0-based).
        attempt: u8,
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
    /// An index node's answer: the providers for the pattern. The
    /// coordinator files it under every still-open slot of round `qid`
    /// whose pattern equals the `pattern` echo.
    Providers {
        /// The owning query.
        qid: QueryId,
        /// The looked-up pattern, echoed verbatim.
        pattern: TriplePattern,
        /// Storage nodes holding matching triples.
        providers: Vec<NodeId>,
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
        /// Intermediate solutions the providers extend (`None` starts
        /// from the unit solution).
        bound: Option<Vec<Solution>>,
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
    /// timer ([`Outbox::schedule`]). A local command: it has no wire
    /// encoding, so no peer can expire another coordinator's rounds.
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

/// What one live round returned. Instead of hanging on churn, the
/// protocol reports exactly how much of the answer survived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveAnswer {
    /// Deduplicated solution mappings from every provider that answered
    /// in time. The per-gather dedup mirrors the simulator's in-network
    /// aggregation: identical solutions from replicated triples collapse.
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

/// What a frame's failed send has to be traced back to — taken from the
/// frame before it moves into [`Outbox::send`], so the path that succeeds
/// never copies one.
#[derive(Debug)]
enum SendKey {
    /// A provider's exec frame of round `qid`.
    Exec(QueryId),
    /// The index lookup of `pattern` for round `qid`.
    Lookup(QueryId, TriplePattern),
    /// `ProviderDead` or `MultiDone`: losing one only postpones lazy
    /// cleanup.
    Cleanup,
}

impl SendKey {
    fn of(msg: &LiveMsg) -> SendKey {
        match msg {
            LiveMsg::SubQuerySol { qid, .. }
            | LiveMsg::ShuffleExec { qid, .. }
            | LiveMsg::PartialExec { qid, .. } => SendKey::Exec(*qid),
            LiveMsg::Lookup { qid, pattern, .. } => SendKey::Lookup(*qid, pattern.clone()),
            _ => SendKey::Cleanup,
        }
    }
}

/// One pattern of a round and the state of its provider lookup.
#[derive(Debug)]
struct Slot {
    pattern: TriplePattern,
    /// Current lookup attempt (0-based).
    lookup_attempt: u8,
    /// The pattern's providers as the index named them; `None` until
    /// its lookup answers.
    providers: Option<Vec<NodeId>>,
}

/// Where the distribution strategies differ: the exec frame a provider
/// receives, the reply it sends back, and what the coordinator does with
/// the gathered replies. Everything else — lookup, fan-out, ack/retry/
/// purge, deadlines — is the one [`Round`] machine.
#[derive(Debug)]
enum RoundKind {
    /// One pattern shipped as a [`LiveMsg::SubQuerySol`]; the providers'
    /// [`LiveMsg::Solutions`] are the answer.
    Chained { filter: Option<Expression>, bound: Option<Vec<Solution>> },
    /// A [`LiveMsg::ShuffleExec`] to the provider union; the shuffle
    /// targets answer with locally-joined [`LiveMsg::Solutions`]
    /// fragments.
    HyperCube {
        join_vars: Vec<Variable>,
        /// Shuffle generation: bumped on every restart over the
        /// surviving peers, so stale partitions are fenced off.
        generation: u32,
    },
    /// A [`LiveMsg::PartialExec`] to the provider union; the
    /// [`LiveMsg::PartialMatches`] replies are assembled at finish.
    PartialEval {
        /// The deduped union of every provider's local solutions, per
        /// pattern slot — the assembly operator's input.
        per_pattern: Vec<DistinctBuffer>,
        /// Rows some single provider could already join locally.
        /// Assembly rows beyond these stitched cross-site matches.
        local_complete: DistinctBuffer,
    },
}

/// One in-flight round's coordinator state, whatever its strategy: the
/// slots resolve their providers concurrently, then the exec frame fans
/// out to the provider union and the replies gather under the
/// Sect. III-D ack/retry/purge rules.
#[derive(Debug)]
struct Round {
    slots: Vec<Slot>,
    kind: RoundKind,
    /// The provider union once every slot resolved, in the order the
    /// index named them (so a chained round contacts its providers in
    /// location-table order) — empty until then. Shrinks when a HyperCube restart drops a dead peer.
    peers: Vec<NodeId>,
    /// provider → current exec attempt (0-based).
    outstanding: HashMap<NodeId, u8>,
    failed: Vec<NodeId>,
    /// Hash-indexed so the per-gather dedup stays linear even when many
    /// replicated providers ship the same large solution sets.
    gathered: DistinctBuffer,
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
    in_flight: HashMap<QueryId, Round>,
    /// The host's shared counters, bumped where each event is counted —
    /// so they are published before the answer they describe.
    stats: Arc<LiveStats>,
}

impl CoordinatorCore {
    pub(crate) fn new(
        me: NodeId,
        index: NodeId,
        cfg: LiveConfig,
        space: rdfmesh_chord::IdSpace,
        flood: SharedFlood,
        stats: Arc<LiveStats>,
    ) -> Self {
        CoordinatorCore {
            me,
            index,
            cfg,
            space,
            flood,
            in_flight: HashMap::new(),
            stats,
        }
    }

    fn on_event(&mut self, from: NodeId, msg: LiveMsg) -> Vec<Action> {
        match msg {
            LiveMsg::SubmitSol { qid, pattern, filter, bound } => {
                self.on_submit(qid, vec![pattern], RoundKind::Chained { filter, bound })
            }
            LiveMsg::SubmitMulti { qid, patterns, join_vars, strategy } => {
                let kind = match strategy {
                    DistStrategy::HyperCube => RoundKind::HyperCube { join_vars, generation: 0 },
                    _ => RoundKind::PartialEval {
                        per_pattern: patterns.iter().map(|_| DistinctBuffer::new()).collect(),
                        local_complete: DistinctBuffer::new(),
                    },
                };
                self.on_submit(qid, patterns, kind)
            }
            LiveMsg::Providers { qid, pattern, providers } => {
                self.on_providers(qid, &pattern, providers)
            }
            LiveMsg::Solutions { qid, solutions } => self.on_solutions(qid, from, solutions),
            LiveMsg::PartialMatches { qid, per_pattern } => {
                self.on_partial_matches(qid, from, per_pattern)
            }
            LiveMsg::Deadline { qid, stage } => match stage {
                DeadlineStage::Lookup { slot, attempt } => {
                    self.on_lookup_timeout(qid, slot as usize, attempt)
                }
                DeadlineStage::Ack { provider, attempt } => {
                    self.on_ack_timeout(qid, provider, attempt)
                }
                DeadlineStage::Overall => self.on_overall_deadline(qid),
            },
            // Strays addressed to other roles are ignored.
            LiveMsg::Lookup { .. }
            | LiveMsg::SubQuerySol { .. }
            | LiveMsg::ProviderDead { .. }
            | LiveMsg::ShuffleExec { .. }
            | LiveMsg::ShufflePart { .. }
            | LiveMsg::PartialExec { .. }
            | LiveMsg::MultiDone { .. }
            | LiveMsg::Publish { .. } => Vec::new(),
        }
    }

    /// The exec frame one provider receives, shaped by the round's
    /// kind. Used by the fan-out and retransmissions alike.
    fn exec_frame(&self, qid: QueryId, q: &Round) -> LiveMsg {
        let patterns = || q.slots.iter().map(|s| s.pattern.clone()).collect();
        match &q.kind {
            RoundKind::Chained { filter, bound } => LiveMsg::SubQuerySol {
                qid,
                pattern: q.slots[0].pattern.clone(),
                filter: filter.clone(),
                bound: bound.clone(),
                reply_to: self.me,
            },
            RoundKind::HyperCube { join_vars, generation } => LiveMsg::ShuffleExec {
                qid,
                round: *generation,
                patterns: patterns(),
                join_vars: join_vars.clone(),
                peers: q.peers.clone(),
                reply_to: self.me,
            },
            RoundKind::PartialEval { .. } => {
                LiveMsg::PartialExec { qid, patterns: patterns(), reply_to: self.me }
            }
        }
    }

    /// The exec frame and a fresh ack deadline for every current peer.
    fn fan_out(&self, qid: QueryId, q: &Round) -> Vec<Action> {
        let mut actions = Vec::new();
        for &p in &q.peers {
            actions.push(Action::Send { to: p, msg: self.exec_frame(qid, q) });
            actions.push(self.ack_deadline(qid, p, 0));
        }
        actions
    }

    fn ack_deadline(&self, qid: QueryId, provider: NodeId, attempt: u8) -> Action {
        Action::Schedule {
            after: self.cfg.ack_timeout,
            msg: LiveMsg::Deadline { qid, stage: DeadlineStage::Ack { provider, attempt } },
        }
    }

    /// One slot's lookup at the index node and the deadline guarding it.
    fn lookup(&self, qid: QueryId, slot: usize, pattern: TriplePattern, attempt: u8) -> [Action; 2] {
        [
            Action::Send {
                to: self.index,
                msg: LiveMsg::Lookup { qid, pattern, reply_to: self.me },
            },
            Action::Schedule {
                after: self.cfg.lookup_timeout,
                msg: LiveMsg::Deadline {
                    qid,
                    stage: DeadlineStage::Lookup { slot: slot as u32, attempt },
                },
            },
        ]
    }

    fn on_submit(
        &mut self,
        qid: QueryId,
        patterns: Vec<TriplePattern>,
        kind: RoundKind,
    ) -> Vec<Action> {
        if self.in_flight.contains_key(&qid) {
            return Vec::new(); // duplicate submission
        }
        if patterns.is_empty() {
            let answer =
                LiveAnswer { solutions: Vec::new(), complete: true, failed_providers: Vec::new() };
            return vec![Action::Finish { qid, answer }];
        }
        let slots = patterns
            .iter()
            .map(|p| Slot { pattern: p.clone(), lookup_attempt: 0, providers: None })
            .collect();
        self.in_flight.insert(
            qid,
            Round {
                slots,
                kind,
                peers: Vec::new(),
                outstanding: HashMap::new(),
                failed: Vec::new(),
                gathered: DistinctBuffer::new(),
            },
        );
        let mut actions = Vec::new();
        for (slot, pattern) in patterns.into_iter().enumerate() {
            // The flood of an earlier keyless slot also filled every slot
            // with an equal pattern — or, the flood list being empty,
            // finished the round complete-and-empty.
            let Some(q) = self.in_flight.get(&qid) else { break };
            if q.slots[slot].providers.is_some() {
                continue;
            }
            if key_for_pattern(self.space, &pattern).is_some() {
                actions.extend(self.lookup(qid, slot, pattern, 0));
            } else {
                // No location-table row exists for the all-variable
                // pattern: skip the lookup and flood every storage node
                // (Sect. IV-B).
                let flood = rlock(&self.flood).clone();
                actions.extend(self.on_providers(qid, &pattern, flood));
            }
        }
        actions.push(Action::Schedule {
            after: self.cfg.query_deadline,
            msg: LiveMsg::Deadline { qid, stage: DeadlineStage::Overall },
        });
        actions
    }

    /// Files the provider list under every still-open slot whose pattern
    /// equals the reply's `pattern` echo (the index node answers with the
    /// looked-up pattern verbatim), and fans the exec frames out once no
    /// slot is left open. An echo that matches no open slot — the answer
    /// to a retransmitted lookup whose first answer already arrived, or
    /// a reply to some other round — is stale.
    fn on_providers(
        &mut self,
        qid: QueryId,
        pattern: &TriplePattern,
        providers: Vec<NodeId>,
    ) -> Vec<Action> {
        let open: Vec<&mut Slot> = self
            .in_flight
            .get_mut(&qid)
            .into_iter()
            .flat_map(|q| &mut q.slots)
            .filter(|s| s.providers.is_none() && s.pattern == *pattern)
            .collect();
        if open.is_empty() {
            self.stats.add_stale_replies(1);
            return Vec::new();
        }
        if providers.is_empty() {
            // A pattern matches nothing, so the conjunction is empty — a
            // complete answer, no provider contacted.
            return self.finish(qid, true);
        }
        for slot in open {
            slot.providers = Some(providers.clone());
        }
        let q = self.in_flight.get_mut(&qid).expect("checked in flight");
        if q.slots.iter().any(|s| s.providers.is_none()) {
            return Vec::new(); // other slots still resolving
        }
        let mut seen = HashSet::new();
        let named = q.slots.iter().flat_map(|s| s.providers.iter().flatten().copied());
        q.peers = named.filter(|p| seen.insert(*p)).collect();
        q.outstanding = q.peers.iter().map(|p| (*p, 0)).collect();
        self.fan_out(qid, &self.in_flight[&qid])
    }

    /// Takes `from` off the round's outstanding set if the round awaits
    /// its reply and `accepts` the reply's shape; anything else — late,
    /// duplicated, from another query, or the wrong frame for the
    /// round's kind — is counted and dropped, never applied.
    fn awaited(
        &mut self,
        qid: QueryId,
        from: NodeId,
        accepts: impl FnOnce(&RoundKind) -> bool,
    ) -> Option<&mut Round> {
        let q = self.in_flight.get_mut(&qid).and_then(|q| {
            (accepts(&q.kind) && q.outstanding.remove(&from).is_some()).then_some(q)
        });
        if q.is_none() {
            self.stats.add_stale_replies(1);
        }
        q
    }

    /// Finishes the round once its last awaited provider is settled.
    fn settle(&mut self, qid: QueryId) -> Vec<Action> {
        match self.in_flight.get(&qid).map(|q| (q.outstanding.is_empty(), q.failed.is_empty())) {
            Some((true, complete)) => self.finish(qid, complete),
            _ => Vec::new(),
        }
    }

    /// A provider's solutions for a chained round, or a shuffle target's
    /// locally-joined fragment for a HyperCube one.
    fn on_solutions(&mut self, qid: QueryId, from: NodeId, solutions: Vec<Solution>) -> Vec<Action> {
        let accepts = |kind: &RoundKind| !matches!(kind, RoundKind::PartialEval { .. });
        let Some(q) = self.awaited(qid, from, accepts) else { return Vec::new() };
        q.gathered.extend_distinct(solutions);
        self.settle(qid)
    }

    fn on_partial_matches(
        &mut self,
        qid: QueryId,
        from: NodeId,
        sets: Vec<Vec<Solution>>,
    ) -> Vec<Action> {
        let accepts = |kind: &RoundKind| {
            matches!(kind, RoundKind::PartialEval { per_pattern, .. } if per_pattern.len() == sets.len())
        };
        let Some(q) = self.awaited(qid, from, accepts) else { return Vec::new() };
        let RoundKind::PartialEval { per_pattern, local_complete } = &mut q.kind else {
            unreachable!("accepted only by a partial-evaluation round")
        };
        // The provider's own cross-pattern join: everything it could
        // answer without help. Assembly rows beyond the union of these
        // are the stitched cross-site matches.
        let mut local = vec![Solution::new()];
        for (buf, sols) in per_pattern.iter_mut().zip(sets) {
            let mut mine = DistinctBuffer::new();
            for s in sols {
                mine.push(s.clone());
                buf.push(s);
            }
            local = rdfmesh_sparql::solution::join(&local, mine.as_slice());
        }
        local_complete.extend_distinct(local);
        self.settle(qid)
    }

    fn on_lookup_timeout(&mut self, qid: QueryId, slot: usize, attempt: u8) -> Vec<Action> {
        let Some(s) = self.in_flight.get_mut(&qid).and_then(|q| q.slots.get_mut(slot)) else {
            return Vec::new();
        };
        if s.providers.is_some() || s.lookup_attempt != attempt {
            return Vec::new(); // answered, or a stale deadline
        }
        if attempt < self.cfg.retries {
            s.lookup_attempt = attempt + 1;
            self.stats.add_retries(1);
            let pattern = s.pattern.clone();
            self.lookup(qid, slot, pattern, attempt + 1).into()
        } else {
            self.stats.add_lookup_failures(1);
            self.finish(qid, false)
        }
    }

    fn on_ack_timeout(&mut self, qid: QueryId, provider: NodeId, attempt: u8) -> Vec<Action> {
        let Some(q) = self.in_flight.get_mut(&qid) else { return Vec::new() };
        if q.outstanding.get(&provider) != Some(&attempt) {
            return Vec::new(); // answered, escalated, or a stale deadline
        }
        if attempt < self.cfg.retries {
            q.outstanding.insert(provider, attempt + 1);
            self.stats.add_retries(1);
            let q = &self.in_flight[&qid];
            return vec![
                Action::Send { to: provider, msg: self.exec_frame(qid, q) },
                self.ack_deadline(qid, provider, attempt + 1),
            ];
        }
        q.outstanding.remove(&provider);
        q.failed.push(provider);
        self.stats.add_ack_timeouts(1);
        // Purge the dead provider from every pattern row that named it —
        // each slot's key may live at a different index owner.
        let mut actions: Vec<Action> = q
            .slots
            .iter()
            .filter(|s| s.providers.as_deref().is_some_and(|ps| ps.contains(&provider)))
            .map(|s| Action::Send {
                to: self.index,
                msg: LiveMsg::ProviderDead { pattern: s.pattern.clone(), provider },
            })
            .collect();
        // A HyperCube generation cannot finish without every peer's
        // partitions — the surviving targets are stalled waiting for the
        // dead peer's scatter. Re-issue the round over the survivors
        // under a bumped generation; partitions from the abandoned one
        // are fenced off by the generation tag.
        if let RoundKind::HyperCube { generation, .. } = &mut q.kind {
            *generation += 1;
            q.peers.retain(|p| *p != provider);
            q.outstanding = q.peers.iter().map(|p| (*p, 0)).collect();
            actions.extend(self.fan_out(qid, &self.in_flight[&qid]));
        }
        actions.extend(self.settle(qid));
        actions
    }

    fn on_overall_deadline(&mut self, qid: QueryId) -> Vec<Action> {
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

    /// The attempt `provider`'s exec frame for round `qid` is on, if the
    /// round still awaits its reply.
    fn exec_attempt(&self, qid: QueryId, provider: NodeId) -> Option<u8> {
        self.in_flight.get(&qid)?.outstanding.get(&provider).copied()
    }

    /// A synchronously failed send is an immediate timeout at the
    /// target's current attempt (Sect. III-D): the transport already
    /// knows the peer is unreachable, so waiting out the deadline would
    /// only delay the retry/purge.
    fn on_send_failed(&mut self, to: NodeId, key: SendKey) -> Vec<Action> {
        self.stats.add_send_failures(1);
        match key {
            SendKey::Exec(qid) => match self.exec_attempt(qid, to) {
                Some(attempt) => self.on_ack_timeout(qid, to, attempt),
                None => Vec::new(),
            },
            // The first open slot awaiting this pattern: equal patterns
            // in one round are interchangeable.
            SendKey::Lookup(qid, pattern) => {
                let open = |s: &&Slot| s.providers.is_none() && s.pattern == pattern;
                let slots = self.in_flight.get(&qid).into_iter().flat_map(|q| &q.slots);
                match slots.enumerate().find(|(_, s)| open(s)).map(|(i, s)| (i, s.lookup_attempt)) {
                    Some((slot, attempt)) => self.on_lookup_timeout(qid, slot, attempt),
                    None => Vec::new(),
                }
            }
            SendKey::Cleanup => Vec::new(),
        }
    }

    fn finish(&mut self, qid: QueryId, complete: bool) -> Vec<Action> {
        let Some(q) = self.in_flight.remove(&qid) else { return Vec::new() };
        if !complete {
            self.stats.add_incomplete_queries(1);
        }
        // Let a multiway round's providers retire retained shuffle state.
        let mut actions: Vec<Action> = match q.kind {
            RoundKind::Chained { .. } => Vec::new(),
            _ => q
                .peers
                .iter()
                .map(|p| Action::Send { to: *p, msg: LiveMsg::MultiDone { qid } })
                .collect(),
        };
        let solutions = match q.kind {
            RoundKind::PartialEval { per_pattern, local_complete } => {
                // Assembly: fold-join the deduped per-pattern unions in
                // pattern order.
                let mut acc = vec![Solution::new()];
                for buf in &per_pattern {
                    acc = rdfmesh_sparql::solution::join(&acc, buf.as_slice());
                }
                let mut assembled = DistinctBuffer::new();
                assembled.extend_distinct(acc);
                let stitched = assembled.len().saturating_sub(local_complete.len());
                self.stats.add_stitched_rows(stitched as u64);
                assembled.into_vec()
            }
            _ => q.gathered.into_vec(),
        };
        let answer = LiveAnswer { solutions, complete, failed_providers: q.failed };
        actions.push(Action::Finish { qid, answer });
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
}

impl Coordinator {
    /// Executes the state machine's actions in order, every frame sent
    /// as it stands. A failed send feeds back into the state machine,
    /// whose reaction (a retransmission, a purge, a finish) joins the
    /// queue.
    fn run(&mut self, first: Vec<Action>, out: &Outbox<LiveMsg>) {
        let mut actions: VecDeque<Action> = first.into();
        while let Some(action) = actions.pop_front() {
            match action {
                Action::Send { to, msg } => {
                    let key = SendKey::of(&msg);
                    if !out.send(to, msg) {
                        actions.extend(self.core.on_send_failed(to, key));
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

/// Shuffle entries for more queries than this trigger an eviction: of
/// finished entries (their [`LiveMsg::MultiDone`] was lost) and, if that
/// frees nothing, of entries no exec frame vouches for (partitions that
/// arrived after their round's `MultiDone`).
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
    fn answer(
        &self,
        pattern: &TriplePattern,
        filter: Option<&Expression>,
        bound: Option<&[Solution]>,
    ) -> Vec<Solution> {
        let unit = vec![Solution::new()];
        let partial = bound.unwrap_or(&unit);
        let mut solutions =
            rdfmesh_sparql::eval::evaluate_pattern_with(&self.store, pattern, partial);
        if let Some(f) = filter {
            solutions.retain(|s| f.satisfied_by(s));
        }
        self.stats.add_solutions_shipped(solutions.len() as u64);
        self.stats.add_solution_bytes(wire::encoded_len(&solutions) as u64);
        solutions
    }

    /// Admits a new shuffle entry, evicting retired rounds' leftovers
    /// first when the map reached the cap.
    fn shuffle_entry(&mut self, qid: QueryId) -> &mut ShuffleState {
        if self.shuffle.len() >= SHUFFLE_STATE_CAP && !self.shuffle.contains_key(&qid) {
            self.shuffle.retain(|_, st| st.answer.is_none());
            if self.shuffle.len() >= SHUFFLE_STATE_CAP {
                self.shuffle.retain(|_, st| st.exec.is_some());
            }
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
            LiveMsg::SubQuerySol { qid, pattern, filter, bound, reply_to } => {
                let solutions = self.answer(&pattern, filter.as_ref(), bound.as_deref());
                out.send(reply_to, LiveMsg::Solutions { qid, solutions });
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

/// Delivers a [`LiveMsg`] to the coordinator a [`RoundClient`] fronts, as
/// if the coordinator had sent it to itself.
type Inject = Box<dyn Fn(LiveMsg) + Send + Sync>;

/// A submitted-but-not-yet-awaited solution round: the non-blocking
/// half of [`RoundClient::query_solutions`]. Callers submit any number
/// of rounds and wait on each handle afterwards, so concurrent
/// executions pipeline through one coordinator instead of serializing on
/// the caller side.
#[derive(Debug)]
pub struct RoundHandle {
    qid: QueryId,
    rx: Receiver<LiveAnswer>,
    pending: PendingMap,
}

impl RoundHandle {
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

/// The client side of one coordinator: allocates query ids, registers
/// the channel each answer comes back on, injects every round straight
/// at the coordinator, and gates whole query executions on admission
/// control. It owns no thread. [`LiveMesh`] and
/// [`crate::MeshNode`] each own one and dereference to it; they differ
/// only in how a message reaches their coordinator, which is the
/// `inject` closure each gives it at construction.
pub struct RoundClient {
    cfg: LiveConfig,
    next_qid: AtomicU64,
    pending: PendingMap,
    inject: Inject,
    admission: Admission,
    stats: Arc<LiveStats>,
}

impl RoundClient {
    /// A client for the coordinator that shares `pending` and `stats`
    /// and receives what `inject` is handed.
    pub(crate) fn new<F>(
        cfg: LiveConfig,
        pending: PendingMap,
        stats: Arc<LiveStats>,
        inject: F,
    ) -> Self
    where
        F: Fn(LiveMsg) + Send + Sync + 'static,
    {
        RoundClient {
            cfg,
            next_qid: AtomicU64::new(1),
            pending,
            inject: Box::new(inject),
            admission: Admission::new(&cfg, Arc::clone(&stats)),
            stats,
        }
    }

    /// Allocates a query id and registers the channel its answer will
    /// arrive on.
    fn open_round(&self) -> RoundHandle {
        self.stats.add_solution_rounds(1);
        let qid = QueryId(self.next_qid.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = bounded(1);
        lock(&self.pending).insert(qid, tx);
        RoundHandle { qid, rx, pending: Arc::clone(&self.pending) }
    }

    /// Resolves one *solution round* through the live protocol: the
    /// selected providers answer with solution mappings — extending the
    /// shipped `bound` intermediates when given (bind join, Sect. IV-D)
    /// and applying `filter` at the source (Sect. IV-G). The distributed
    /// execution core's [`crate::LiveBackend`] issues one such round per
    /// plan primitive or bound sub-query. Blocks up to `timeout`; the
    /// protocol's own deadlines ([`LiveConfig`]) answer well before a
    /// generous one.
    pub fn query_solutions(
        &self,
        pattern: TriplePattern,
        filter: Option<Expression>,
        bound: Option<Vec<Solution>>,
        timeout: Duration,
    ) -> Option<LiveAnswer> {
        self.submit_solutions(pattern, filter, bound).wait(timeout)
    }

    /// The non-blocking half of [`RoundClient::query_solutions`]:
    /// injects the round at the coordinator and returns immediately
    /// with a [`RoundHandle`] to wait on. Rounds submitted concurrently
    /// pipeline through the coordinator.
    pub fn submit_solutions(
        &self,
        pattern: TriplePattern,
        filter: Option<Expression>,
        bound: Option<Vec<Solution>>,
    ) -> RoundHandle {
        let handle = self.open_round();
        (self.inject)(LiveMsg::SubmitSol { qid: handle.qid, pattern, filter, bound });
        handle
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

    /// The non-blocking half of [`RoundClient::query_multiway`].
    pub fn submit_multiway(
        &self,
        patterns: Vec<TriplePattern>,
        join_vars: Vec<Variable>,
        strategy: DistStrategy,
    ) -> RoundHandle {
        let handle = self.open_round();
        (self.inject)(LiveMsg::SubmitMulti { qid: handle.qid, patterns, join_vars, strategy });
        handle
    }

    /// The admission gate bounding concurrent query *executions* (one
    /// SPARQL query = one permit, covering all its solution rounds).
    /// [`RoundClient::execute_with`] acquires from it; raw round
    /// submissions are ungated internals.
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// The fault-tolerance configuration the host was started with.
    pub fn config(&self) -> LiveConfig {
        self.cfg
    }

    /// Fault-tolerance counters accumulated so far.
    pub fn stats(&self) -> LiveStatsSnapshot {
        self.stats.snapshot()
    }
}

/// A live mesh: one thread per node, built from an existing overlay's
/// data placement. Queries go through the [`RoundClient`] it
/// dereferences to.
pub struct LiveMesh {
    client: RoundClient,
    cluster: Arc<MeshCluster>,
    space: rdfmesh_chord::IdSpace,
    ring_view: RingView,
    tables: HashMap<NodeId, SharedTable>,
}

impl std::ops::Deref for LiveMesh {
    type Target = RoundClient;

    fn deref(&self) -> &RoundClient {
        &self.client
    }
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
                core: CoordinatorCore::new(
                    COORDINATOR,
                    index_nodes[0],
                    cfg,
                    space,
                    flood,
                    Arc::clone(&stats),
                ),
                pending: Arc::clone(&pending),
            }),
        ));
        let cluster = match transport {
            Transport::Threads => MeshCluster::Threads(Cluster::spawn_with(nodes, plan)),
            Transport::Sockets => MeshCluster::Sockets(TcpCluster::spawn_loopback(nodes, plan)?),
        };
        let cluster = Arc::new(cluster);
        let inject_at = Arc::clone(&cluster);
        let client = RoundClient::new(cfg, pending, stats, move |msg| {
            inject_at.inject(COORDINATOR, COORDINATOR, msg);
        });
        Ok(LiveMesh { client, cluster, space, ring_view, tables: shared_tables })
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
    use rdfmesh_rdf::{Term, TermPattern, Triple, TripleStore};

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
        let live = mesh
            .query_solutions(pattern.clone(), None, None, Duration::from_secs(10))
            .expect("no timeout");
        assert!(live.complete);
        assert!(live.failed_providers.is_empty());
        assert_eq!(live.solutions.len(), 2);
        // Oracle agreement: the central store's matches, as bindings.
        let mut expected: Vec<Solution> = crate::engine::global_store(&o)
            .match_pattern(&pattern)
            .iter()
            .filter_map(|t| rdfmesh_sparql::eval::extend(&pattern, t, &Solution::new()))
            .collect();
        let mut got = live.solutions;
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
        let live =
            mesh.query_solutions(pattern, None, None, Duration::from_secs(10)).expect("no timeout");
        assert!(live.complete);
        assert!(live.solutions.is_empty());
        mesh.shutdown();
    }

    #[test]
    fn sequential_queries_reuse_the_mesh() {
        let o = overlay();
        let mesh = LiveMesh::spawn(&o);
        for (target, expect) in [("bob", 2), ("carol", 1), ("nobody", 0)] {
            let live = mesh
                .query_solutions(knows_pattern(target), None, None, Duration::from_secs(10))
                .expect("no timeout");
            assert!(live.complete, "target {target}");
            assert_eq!(live.solutions.len(), expect, "target {target}");
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
    fn forged_deadlines_cannot_cut_a_waiting_round_short() {
        use crate::live_wire::wire_v4;
        // The sub-query to storage node 2 dawdles on its link, well
        // inside the ack timeout: the round is in flight, awaiting that
        // one reply, while the forged frames arrive.
        let o = overlay();
        let cfg = LiveConfig {
            ack_timeout: Duration::from_secs(5),
            query_deadline: Duration::from_secs(20),
            ..LiveConfig::default()
        };
        let plan = FaultPlan::new().delay(COORDINATOR, NodeId(2), Duration::from_millis(300));
        let mesh = LiveMesh::spawn_with_transport(&o, cfg, plan, Transport::Sockets).unwrap();
        let MeshCluster::Sockets(twin) = &*mesh.cluster else { unreachable!("spawned on sockets") };
        let round = mesh.submit_solutions(knows_pattern("bob"), None, None);
        // Any peer can finish the handshake, and query ids count up from
        // 1: as wire version 4 laid it out, "your round N is overdue".
        let forged: Vec<_> = (1..=8).map(|qid| wire_v4::deadline_overall(QueryId(qid))).collect();
        let _peer = wire_v4::forge_at(twin.local_addr(), COORDINATOR, &forged);
        let answer = round.wait(Duration::from_secs(30)).expect("no timeout");
        assert!(answer.complete, "cut short, missing {:?}", answer.failed_providers);
        assert_eq!(answer.solutions.len(), 2, "the oracle's rows, as in the unforged run above");
        assert_eq!(mesh.stats().incomplete_queries, 0);
        // Every forged frame was refused where it was decoded.
        let refused = std::time::Instant::now() + Duration::from_secs(10);
        while twin.transport_stats().decode_errors < 8 {
            assert!(std::time::Instant::now() < refused, "{:?}", twin.transport_stats());
            std::thread::sleep(Duration::from_millis(5));
        }
        mesh.shutdown();
    }

    /// A storage node that reports its shuffle-map size after every
    /// message, so a test can watch it from outside the node's thread.
    struct WatchedStorage {
        inner: LiveStorage,
        entries: Arc<AtomicU64>,
    }

    impl Handler<LiveMsg> for WatchedStorage {
        fn on_message(&mut self, envelope: Envelope<LiveMsg>, out: &Outbox<LiveMsg>) {
            self.inner.on_message(envelope, out);
            self.entries.store(self.inner.shuffle.len() as u64, Ordering::SeqCst);
        }
    }

    #[test]
    fn partitions_arriving_after_multi_done_cannot_grow_the_shuffle_map_unboundedly() {
        let (node, peer) = (NodeId(1), NodeId(2));
        let entries = Arc::new(AtomicU64::new(0));
        let storage = WatchedStorage {
            inner: LiveStorage {
                store: TripleStore::new().into(),
                stats: Arc::new(LiveStats::default()),
                shuffle: HashMap::new(),
            },
            entries: Arc::clone(&entries),
        };
        let cluster = Cluster::spawn(vec![(node, Box::new(storage) as Box<dyn Handler<LiveMsg>>)]);
        // Every round below is already retired when its partition lands:
        // no exec frame will ever come, and no second MultiDone.
        cluster.inject(peer, node, LiveMsg::MultiDone { qid: QueryId(0) });
        for q in 0..=SHUFFLE_STATE_CAP as u64 {
            let part = LiveMsg::ShufflePart { qid: QueryId(q), round: 0, parts: vec![Vec::new()] };
            cluster.inject(peer, node, part);
        }
        assert!(cluster.barrier(node, Duration::from_secs(10)));
        let left = entries.load(Ordering::SeqCst) as usize;
        assert!((1..=SHUFFLE_STATE_CAP).contains(&left), "{left} orphaned entries retained");
        cluster.shutdown();
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

        fn pattern2() -> TriplePattern {
            TriplePattern::new(
                TermPattern::var("x"),
                Term::iri("http://example.org/q"),
                TermPattern::var("z"),
            )
        }

        fn core() -> CoordinatorCore {
            CoordinatorCore::new(
                COORDINATOR,
                IX,
                LiveConfig::default(),
                rdfmesh_chord::IdSpace::new(32),
                Arc::new(RwLock::new(vec![P1, P2, P3])),
                Arc::new(LiveStats::default()),
            )
        }

        /// Opens a chained solution round over [`pattern`].
        fn submit(c: &mut CoordinatorCore, qid: QueryId) -> Vec<Action> {
            let (filter, bound) = (None, None);
            c.on_event(COORDINATOR, LiveMsg::SubmitSol { qid, pattern: pattern(), filter, bound })
        }

        /// Opens a multiway round over `patterns`, joined on `?x`.
        fn submit_multi(
            c: &mut CoordinatorCore,
            qid: QueryId,
            patterns: Vec<TriplePattern>,
            strategy: DistStrategy,
        ) -> Vec<Action> {
            let join_vars = vec![Variable::new("x")];
            c.on_event(COORDINATOR, LiveMsg::SubmitMulti { qid, patterns, join_vars, strategy })
        }

        /// The index node's answer to the lookup of `pattern`.
        fn providers(
            c: &mut CoordinatorCore,
            qid: QueryId,
            pattern: TriplePattern,
            providers: Vec<NodeId>,
        ) -> Vec<Action> {
            c.on_event(IX, LiveMsg::Providers { qid, pattern, providers })
        }

        fn solutions(
            c: &mut CoordinatorCore,
            from: NodeId,
            qid: QueryId,
            solutions: Vec<Solution>,
        ) -> Vec<Action> {
            c.on_event(from, LiveMsg::Solutions { qid, solutions })
        }

        fn deadline(c: &mut CoordinatorCore, qid: QueryId, stage: DeadlineStage) -> Vec<Action> {
            c.on_event(COORDINATOR, LiveMsg::Deadline { qid, stage })
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

        fn xsol(n: u64) -> Solution {
            Solution::from_pairs([(
                Variable::new("x"),
                Term::iri(&format!("http://example.org/s{n}")),
            )])
        }

        #[test]
        fn duplicate_solutions_are_dropped_not_underflowed() {
            // The seed bug: `expect -= 1` panicked (debug) or wrapped
            // (release) on a duplicate or post-completion reply.
            let mut c = core();
            let qid = QueryId(1);
            submit(&mut c, qid);
            providers(&mut c, qid, pattern(), vec![P1, P2]);
            let a1 = solutions(&mut c, P1, qid, vec![xsol(1)]);
            assert!(finishes(&a1).is_empty());
            // Duplicate from P1: dropped, not applied.
            let dup = solutions(&mut c, P1, qid, vec![xsol(9)]);
            assert!(dup.is_empty());
            assert_eq!(c.stats.snapshot().stale_replies, 1);
            let done = finishes(&solutions(&mut c, P2, qid, vec![xsol(2)]));
            assert_eq!(done.len(), 1);
            assert!(done[0].1.complete);
            assert_eq!(done[0].1.solutions, vec![xsol(1), xsol(2)]);
            // Post-completion reply: dropped.
            let late = solutions(&mut c, P2, qid, vec![xsol(3)]);
            assert!(late.is_empty());
            assert_eq!(c.stats.snapshot().stale_replies, 2);
        }

        #[test]
        fn cross_query_replies_cannot_contaminate() {
            let mut c = core();
            let q1 = QueryId(1);
            let q2 = QueryId(2);
            submit(&mut c, q1);
            providers(&mut c, q1, pattern(), vec![P1]);
            let done = solutions(&mut c, P1, q1, vec![xsol(1)]);
            assert_eq!(finishes(&done).len(), 1);
            // Query 2 starts; a late reply tagged with q1 arrives.
            submit(&mut c, q2);
            providers(&mut c, q2, pattern(), vec![P1, P2]);
            assert!(solutions(&mut c, P1, q1, vec![xsol(8)]).is_empty());
            let a1 = solutions(&mut c, P1, q2, vec![xsol(2)]);
            assert!(finishes(&a1).is_empty());
            let done = finishes(&solutions(&mut c, P2, q2, vec![xsol(3)]));
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].1.solutions, vec![xsol(2), xsol(3)], "q1's late reply excluded");
        }

        #[test]
        fn exhausted_ack_deadline_purges_and_reports_partial() {
            let mut c = core();
            let qid = QueryId(7);
            submit(&mut c, qid);
            providers(&mut c, qid, pattern(), vec![P1, P2]);
            solutions(&mut c, P1, qid, vec![xsol(1)]);
            // P2 never answers: deadline at attempt 0 retries...
            let retry = deadline(&mut c, qid, DeadlineStage::Ack { provider: P2, attempt: 0 });
            assert!(retry.iter().any(|a| matches!(
                a,
                Action::Send { to, msg: LiveMsg::SubQuerySol { .. } } if *to == P2
            )));
            assert_eq!(c.stats.snapshot().retries, 1);
            // ...and the deadline at attempt 1 gives up.
            let give_up = deadline(&mut c, qid, DeadlineStage::Ack { provider: P2, attempt: 1 });
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
            assert_eq!(answer.solutions, vec![xsol(1)]);
            assert_eq!(c.stats.snapshot().ack_timeouts, 1);
        }

        #[test]
        fn failed_send_is_an_immediate_ack_timeout() {
            let mut c = core();
            let qid = QueryId(3);
            submit(&mut c, qid);
            let acts = providers(&mut c, qid, pattern(), vec![P1]);
            let sub = acts
                .iter()
                .find_map(|a| match a {
                    Action::Send { to, msg } if *to == P1 => Some(msg),
                    _ => None,
                })
                .expect("subquery sent");
            // First failure retries (attempt 0 -> 1), second gives up.
            let retry = c.on_send_failed(P1, SendKey::of(sub));
            assert!(retry
                .iter()
                .any(|a| matches!(a, Action::Send { msg: LiveMsg::SubQuerySol { .. }, .. })));
            let give_up = c.on_send_failed(P1, SendKey::of(sub));
            let done = finishes(&give_up);
            assert_eq!(done.len(), 1);
            assert!(!done[0].1.complete);
            assert_eq!(done[0].1.failed_providers, vec![P1]);
            assert_eq!(c.stats.snapshot().send_failures, 2);
        }

        #[test]
        fn lookup_timeout_retries_then_fails_within_deadline() {
            let mut c = core();
            let qid = QueryId(4);
            submit(&mut c, qid);
            let retry = deadline(&mut c, qid, DeadlineStage::Lookup { slot: 0, attempt: 0 });
            assert!(retry
                .iter()
                .any(|a| matches!(a, Action::Send { msg: LiveMsg::Lookup { .. }, .. })));
            let give_up = deadline(&mut c, qid, DeadlineStage::Lookup { slot: 0, attempt: 1 });
            let done = finishes(&give_up);
            assert_eq!(done.len(), 1);
            assert!(!done[0].1.complete);
            assert_eq!(c.stats.snapshot().lookup_failures, 1);
        }

        #[test]
        fn failed_lookup_send_is_an_immediate_lookup_timeout() {
            let mut c = core();
            let qid = QueryId(5);
            let lookup = submit(&mut c, qid)
                .into_iter()
                .find_map(|a| match a {
                    Action::Send { msg: msg @ LiveMsg::Lookup { .. }, .. } => Some(msg),
                    _ => None,
                })
                .expect("lookup sent");
            let retry = c.on_send_failed(IX, SendKey::of(&lookup));
            assert!(retry
                .iter()
                .any(|a| matches!(a, Action::Send { msg: LiveMsg::Lookup { .. }, .. })));
            let done = finishes(&c.on_send_failed(IX, SendKey::of(&lookup)));
            assert_eq!(done.len(), 1);
            assert!(!done[0].1.complete);
            let s = c.stats.snapshot();
            assert_eq!((s.send_failures, s.lookup_failures), (2, 1));
        }

        #[test]
        fn solution_round_gathers_and_dedups_across_providers() {
            let mut c = core();
            let qid = QueryId(11);
            submit(&mut c, qid);
            providers(&mut c, qid, pattern(), vec![P1, P2]);
            let a1 = solutions(&mut c, P1, qid, vec![xsol(1), xsol(2)]);
            assert!(finishes(&a1).is_empty());
            // P2 repeats xsol(2) (a replicated triple): it collapses.
            let done = finishes(&solutions(&mut c, P2, qid, vec![xsol(2), xsol(3)]));
            assert_eq!(done.len(), 1);
            assert!(done[0].1.complete);
            assert_eq!(done[0].1.solutions, vec![xsol(1), xsol(2), xsol(3)]);
        }

        #[test]
        fn solution_round_retry_reships_filter_and_bound() {
            // An expired ack deadline must retransmit the full
            // SubQuerySol — same filter, same bound set.
            let mut c = core();
            let qid = QueryId(12);
            let bound = vec![xsol(1)];
            let filter = Expression::Bound(rdfmesh_rdf::Variable::new("x"));
            let round = LiveMsg::SubmitSol {
                qid,
                pattern: pattern(),
                filter: Some(filter.clone()),
                bound: Some(bound.clone()),
            };
            c.on_event(COORDINATOR, round);
            providers(&mut c, qid, pattern(), vec![P1]);
            let retry = deadline(&mut c, qid, DeadlineStage::Ack { provider: P1, attempt: 0 });
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
            solutions(&mut c, P1, qid, vec![xsol(1)]);
            solutions(&mut c, P2, qid, Vec::new());
            let done = finishes(&solutions(&mut c, P3, qid, Vec::new()));
            assert_eq!(done.len(), 1);
            assert!(done[0].1.complete);
            assert_eq!(done[0].1.solutions, vec![xsol(1)]);
        }

        #[test]
        fn rounds_submitted_back_to_back_stay_independent() {
            let mut c = core();
            let (q1, q2) = (QueryId(21), QueryId(22));
            submit(&mut c, q1);
            submit(&mut c, q2);
            providers(&mut c, q1, pattern(), vec![P1]);
            providers(&mut c, q2, pattern(), vec![P2]);
            // q2 finishes first; q1 is untouched by it.
            let d2 = finishes(&solutions(&mut c, P2, q2, vec![xsol(2)]));
            assert_eq!(d2.len(), 1);
            assert_eq!(d2[0].0, q2);
            assert_eq!(d2[0].1.solutions, vec![xsol(2)]);
            let d1 = finishes(&solutions(&mut c, P1, q1, vec![xsol(1)]));
            assert_eq!(d1.len(), 1);
            assert_eq!(d1[0].0, q1);
            assert_eq!(d1[0].1.solutions, vec![xsol(1)]);
            assert!(c.in_flight.is_empty());
        }

        #[test]
        fn distinct_buffer_gather_matches_naive_contains_dedup() {
            // Twin run: the same duplicated reply stream through the
            // state machine (DistinctBuffer gather) and through a
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
            submit(&mut c, qid);
            providers(&mut c, qid, pattern(), vec![P1, P2, P3]);
            let mut done = Vec::new();
            for (from, vals) in streams {
                let sols = vals.into_iter().map(xsol).collect();
                done.extend(finishes(&solutions(&mut c, from, qid, sols)));
            }
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].1.solutions, naive);
        }

        // ---- multiway rounds (HyperCube / partial evaluation) --------

        fn star2() -> Vec<TriplePattern> {
            vec![pattern(), pattern2()]
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
            let acts = submit_multi(&mut c, qid, star2(), DistStrategy::HyperCube);
            let lookups: Vec<TriplePattern> = acts
                .iter()
                .filter_map(|a| match a {
                    Action::Send { to, msg: LiveMsg::Lookup { pattern, .. } } if *to == IX => {
                        Some(pattern.clone())
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(lookups, star2(), "one ordinary lookup per pattern slot");
            // Slot 1 resolves first; nothing fans out until slot 0 does.
            let idle = providers(&mut c, qid, pattern2(), vec![P2, P3]);
            assert!(idle.is_empty());
            let fan = providers(&mut c, qid, pattern(), vec![P1, P2]);
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
            // naming the full union as the partition targets.
            assert_eq!(execs.iter().map(|(to, _)| *to).collect::<Vec<_>>(), vec![P1, P2, P3]);
            for (_, peers) in &execs {
                assert_eq!(peers, &vec![P1, P2, P3]);
            }
            // Targets answer with locally-joined fragments; duplicates
            // across fragments collapse, and the round retires its peers.
            assert!(finishes(&solutions(&mut c, P1, qid, vec![xsol(1)])).is_empty());
            assert!(finishes(&solutions(&mut c, P2, qid, vec![xsol(1), xsol(2)])).is_empty());
            let last = solutions(&mut c, P3, qid, vec![xsol(3)]);
            let done = finishes(&last);
            assert_eq!(done.len(), 1);
            assert!(done[0].1.complete);
            assert_eq!(done[0].1.solutions, vec![xsol(1), xsol(2), xsol(3)]);
            let retire = last
                .iter()
                .filter(|a| matches!(a, Action::Send { msg: LiveMsg::MultiDone { .. }, .. }))
                .count();
            assert_eq!(retire, 3, "MultiDone broadcast to every peer");
            assert!(c.in_flight.is_empty(), "no state leaks after completion");
        }

        #[test]
        fn one_providers_reply_fills_every_open_slot_with_an_equal_pattern() {
            let mut c = core();
            let qid = QueryId(56);
            let patterns = vec![pattern(), pattern2(), pattern()];
            submit_multi(&mut c, qid, patterns, DistStrategy::PartialEval);
            // Slots 0 and 2 ask for the same pattern: the first answer
            // serves both, so only slot 1 is still open afterwards...
            assert!(providers(&mut c, qid, pattern(), vec![P1]).is_empty());
            assert_eq!(c.stats.snapshot().stale_replies, 0);
            // ...the answer to the twin lookup finds no open slot, like
            // an echo that names none of the round's patterns...
            assert!(providers(&mut c, qid, pattern(), vec![P3]).is_empty());
            assert!(providers(&mut c, qid, knows_pattern("bob"), vec![P3]).is_empty());
            assert_eq!(c.stats.snapshot().stale_replies, 2);
            // ...and slot 1's answer completes the fan-out over {P1, P2}.
            let fan = providers(&mut c, qid, pattern2(), vec![P2]);
            let targets: Vec<NodeId> = fan
                .iter()
                .filter_map(|a| match a {
                    Action::Send { to, msg: LiveMsg::PartialExec { patterns, .. } } => {
                        assert_eq!(patterns.len(), 3);
                        Some(*to)
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(targets, vec![P1, P2]);
        }

        #[test]
        fn a_round_accepts_only_the_reply_frame_of_its_kind() {
            let mut c = core();
            let (partial, chained) = (QueryId(57), QueryId(58));
            submit_multi(&mut c, partial, star2(), DistStrategy::PartialEval);
            providers(&mut c, partial, pattern(), vec![P1]);
            providers(&mut c, partial, pattern2(), vec![P1]);
            submit(&mut c, chained);
            providers(&mut c, chained, pattern(), vec![P1]);
            // Swapped frames settle nothing: P1 stays awaited by both.
            assert!(solutions(&mut c, P1, partial, vec![xsol(1)]).is_empty());
            let sets = vec![vec![xsol(1)], vec![xsol(1)]];
            let swapped = LiveMsg::PartialMatches { qid: chained, per_pattern: sets.clone() };
            assert!(c.on_event(P1, swapped).is_empty());
            assert_eq!(c.stats.snapshot().stale_replies, 2);
            let right = LiveMsg::PartialMatches { qid: partial, per_pattern: sets };
            assert_eq!(finishes(&c.on_event(P1, right))[0].1.solutions, vec![xsol(1)]);
            assert_eq!(finishes(&solutions(&mut c, P1, chained, vec![xsol(2)])).len(), 1);
        }

        #[test]
        fn partial_eval_assembles_cross_site_rows_and_counts_stitches() {
            let mut c = core();
            let qid = QueryId(52);
            submit_multi(&mut c, qid, star2(), DistStrategy::PartialEval);
            providers(&mut c, qid, pattern(), vec![P1]);
            let fan = providers(&mut c, qid, pattern2(), vec![P2]);
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
            assert_eq!(c.stats.snapshot().stitched_rows, 1);
        }

        #[test]
        fn multiway_dead_provider_retries_then_purges_every_slot_it_served() {
            let mut c = core();
            let qid = QueryId(53);
            submit_multi(&mut c, qid, star2(), DistStrategy::HyperCube);
            providers(&mut c, qid, pattern(), vec![P1, P2]);
            providers(&mut c, qid, pattern2(), vec![P2]);
            solutions(&mut c, P1, qid, vec![xsol(1)]);
            // P2 misses its deadline: first a full exec retransmission...
            let retry = deadline(&mut c, qid, DeadlineStage::Ack { provider: P2, attempt: 0 });
            assert!(retry.iter().any(|a| matches!(
                a,
                Action::Send { to, msg: LiveMsg::ShuffleExec { .. } } if *to == P2
            )));
            // ...then it is declared dead, purged from *both* pattern
            // rows, and the shuffle restarts over the survivors under a
            // bumped generation (round-0 targets were stalled waiting
            // for P2's partitions, so their fragments cannot be trusted
            // to ever arrive).
            let give_up = deadline(&mut c, qid, DeadlineStage::Ack { provider: P2, attempt: 1 });
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
            let done = finishes(&solutions(&mut c, P1, qid, vec![xsol(1)]));
            assert_eq!(done.len(), 1);
            assert!(!done[0].1.complete);
            assert_eq!(done[0].1.failed_providers, vec![P2]);
            assert_eq!(done[0].1.solutions, vec![xsol(1)]);
        }

        #[test]
        fn multiway_empty_provider_slot_finishes_complete_and_empty() {
            let mut c = core();
            let qid = QueryId(54);
            submit_multi(&mut c, qid, star2(), DistStrategy::HyperCube);
            // One pattern matches nothing anywhere: the conjunction is
            // empty, so the round finishes before contacting providers.
            let done = finishes(&providers(&mut c, qid, pattern(), Vec::new()));
            assert_eq!(done.len(), 1);
            assert!(done[0].1.complete);
            assert!(done[0].1.solutions.is_empty());
            assert!(c.in_flight.is_empty());
        }

        #[test]
        fn multiway_lookup_timeout_retries_per_slot_then_fails() {
            let mut c = core();
            let qid = QueryId(55);
            submit_multi(&mut c, qid, star2(), DistStrategy::PartialEval);
            providers(&mut c, qid, pattern(), vec![P1]);
            // A stale deadline for the already-resolved slot is inert.
            let stale = deadline(&mut c, qid, DeadlineStage::Lookup { slot: 0, attempt: 0 });
            assert!(stale.is_empty());
            // Slot 1's lookup never answers: retry, then give up.
            let retry = deadline(&mut c, qid, DeadlineStage::Lookup { slot: 1, attempt: 0 });
            assert!(retry.iter().any(|a| matches!(
                a,
                Action::Send { msg: LiveMsg::Lookup { pattern, .. }, .. } if *pattern == pattern2()
            )));
            let give_up = deadline(&mut c, qid, DeadlineStage::Lookup { slot: 1, attempt: 1 });
            let done = finishes(&give_up);
            assert_eq!(done.len(), 1);
            assert!(!done[0].1.complete);
            assert_eq!(c.stats.snapshot().lookup_failures, 1);
            assert!(c.in_flight.is_empty());
        }

        fn arb_provider() -> impl Strategy<Value = NodeId> {
            prop_oneof![Just(P1), Just(P2), Just(P3), Just(NodeId(99))]
        }

        // ---- N simultaneous rounds of every kind through one machine -

        /// Number of concurrently-submitted rounds in the interleaving
        /// property.
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

        /// One abstract event aimed at one of the [`NQ`] rounds. A
        /// `second` pattern is the round's slot 1 for a multiway round
        /// and an echo naming none of its slots for a chained one.
        #[derive(Debug, Clone)]
        enum Ev {
            Providers { q: usize, stale: bool, second: bool, providers: Vec<NodeId> },
            Solutions { q: usize, stale_qid: bool, from: NodeId, vals: Vec<u64> },
            Partial { q: usize, from: NodeId, sets: Vec<Vec<u64>> },
            AckDeadline { q: usize, provider: NodeId, attempt: u8 },
            LookupDeadline { q: usize, slot: u32, attempt: u8 },
            Overall { q: usize },
        }

        /// How a round is submitted: chained (`None`), or as a multiway
        /// round under the given strategy.
        fn arb_kind() -> impl Strategy<Value = Option<DistStrategy>> {
            prop_oneof![
                Just(None),
                Just(Some(DistStrategy::HyperCube)),
                Just(Some(DistStrategy::PartialEval)),
            ]
        }

        fn arb_vals() -> impl Strategy<Value = Vec<u64>> {
            proptest::collection::vec(0u64..6, 0..3)
        }

        fn arb_event() -> impl Strategy<Value = Ev> {
            prop_oneof![
                (0..NQ, any::<bool>(), any::<bool>(), proptest::collection::vec(arb_provider(), 0..4))
                    .prop_map(|(q, stale, second, providers)| Ev::Providers {
                        q,
                        stale,
                        second,
                        providers,
                    }),
                (0..NQ, any::<bool>(), arb_provider(), arb_vals()).prop_map(
                    |(q, stale_qid, from, vals)| Ev::Solutions { q, stale_qid, from, vals }
                ),
                (0..NQ, arb_provider(), proptest::collection::vec(arb_vals(), 1..4))
                    .prop_map(|(q, from, sets)| Ev::Partial { q, from, sets }),
                (0..NQ, arb_provider(), 0u8..3)
                    .prop_map(|(q, provider, attempt)| Ev::AckDeadline { q, provider, attempt }),
                (0..NQ, 0u32..3, 0u8..3)
                    .prop_map(|(q, slot, attempt)| Ev::LookupDeadline { q, slot, attempt }),
                (0..NQ).prop_map(|q| Ev::Overall { q }),
            ]
        }

        proptest! {
            /// [`NQ`] rounds of arbitrary kinds — chained ones over one
            /// slot, HyperCube and partial-evaluation ones over two,
            /// each submitted on its own — then an arbitrary
            /// interleaving of in-order, late, duplicate, foreign and
            /// dropped provider lists, solution replies, partial
            /// matches of the right and the wrong width, and deadlines
            /// of current and abandoned attempts: the machine never
            /// panics, every round finishes exactly once, `complete`
            /// means no provider failed, answers hold only solutions
            /// from the round's own universe, each once — and once every
            /// overall deadline has fired the in-flight map is empty.
            #[test]
            fn concurrent_rounds_of_every_kind_finish_once_without_contamination(
                kinds in proptest::collection::vec(arb_kind(), NQ..NQ + 1),
                events in proptest::collection::vec(arb_event(), 0..60)
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
                for (q, kind) in kinds.iter().enumerate() {
                    let opened = match *kind {
                        None => submit(&mut c, qid_of(q)),
                        Some(strategy) => submit_multi(&mut c, qid_of(q), star2(), strategy),
                    };
                    record(opened, &mut done)?;
                }
                for ev in &events {
                    let actions = match ev.clone() {
                        Ev::Providers { q, stale: s, second, providers: ps } => providers(
                            &mut c,
                            if s { stale } else { qid_of(q) },
                            if second { pattern2() } else { pattern() },
                            ps,
                        ),
                        Ev::Solutions { q, stale_qid, from, vals } => solutions(
                            &mut c,
                            from,
                            if stale_qid { stale } else { qid_of(q) },
                            vals.into_iter().map(|v| usol(q, v)).collect(),
                        ),
                        Ev::Partial { q, from, sets } => c.on_event(
                            from,
                            LiveMsg::PartialMatches {
                                qid: qid_of(q),
                                per_pattern: sets
                                    .into_iter()
                                    .map(|vals| vals.into_iter().map(|v| usol(q, v)).collect())
                                    .collect(),
                            },
                        ),
                        Ev::AckDeadline { q, provider, attempt } => deadline(
                            &mut c,
                            qid_of(q),
                            DeadlineStage::Ack { provider, attempt },
                        ),
                        Ev::LookupDeadline { q, slot, attempt } => deadline(
                            &mut c,
                            qid_of(q),
                            DeadlineStage::Lookup { slot, attempt },
                        ),
                        Ev::Overall { q } => deadline(&mut c, qid_of(q), DeadlineStage::Overall),
                    };
                    record(actions, &mut done)?;
                }
                // Every query's overall deadline fires eventually.
                for q in 0..NQ {
                    record(deadline(&mut c, qid_of(q), DeadlineStage::Overall), &mut done)?;
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
