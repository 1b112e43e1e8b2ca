//! The coordinator role: the per-query [`Round`] state machine
//! ([`CoordinatorCore`]).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use rdfmesh_net::{rlock, NodeId};
use rdfmesh_overlay::key_for_pattern;
use rdfmesh_rdf::{TriplePattern, Variable};
use rdfmesh_sparql::expr::Expression;
use rdfmesh_sparql::Rows;

use super::{Action, LiveAnswer, LiveMsg, QueryId, SharedFlood};
use crate::config::{DistStrategy, LiveConfig};
use crate::provider;
use crate::stats::LiveStats;

/// What a frame's failed send has to be traced back to — taken from the
/// frame before the host sends it, so the path that succeeds never
/// copies one.
#[derive(Debug)]
pub(crate) enum SendKey {
    /// A provider's exec frame of round `qid`.
    Exec(QueryId),
    /// The index lookup of `pattern` for round `qid`.
    Lookup(QueryId, TriplePattern),
    /// `ProviderDead` or `MultiDone`: losing one only postpones lazy
    /// cleanup.
    Cleanup,
}

impl SendKey {
    pub(crate) fn of(msg: &LiveMsg) -> SendKey {
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
    /// When the current lookup attempt times out; read while the slot is
    /// open (`providers` is `None`).
    lookup_due: Duration,
    /// The pattern's providers as the index named them, each with its
    /// frequency (`None` for a flooded provider: no row names it); `None`
    /// until its lookup answers.
    providers: Option<Vec<(NodeId, Option<u64>)>>,
}

/// Move-small (Sect. II), for one provider of a bind-join round, counted
/// in rows: the round's `keys` travel to the provider only while they are
/// fewer than the triples it holds under the pattern's key (its
/// `frequency`); otherwise the provider's matches travel instead and are
/// joined with the keys at the coordinator. Either way the round's answer
/// is the same set, so a stale or colliding frequency can only make it
/// dearer. A filtered round, and a provider of unknown frequency, ship the
/// keys.
fn ships_keys(keys: usize, frequency: Option<u64>, filtered: bool) -> bool {
    filtered || frequency.is_none_or(|f| (keys as u64) < f)
}

/// The extensions of `keys` that the providers sent the bare pattern
/// would have computed (`provider::answer`'s bind join, done once here):
/// their `fetched` matches joined with the key batch as it is.
fn join_fetched(keys: Rows, fetched: Vec<Rows>) -> Rows {
    let mut matches = Rows::new();
    fetched.into_iter().for_each(|reply| matches.append(reply));
    keys.join(&matches.distinct())
}

/// A provider whose reply a round awaits: the exec attempt its frame is
/// on (0-based) and when that attempt times out.
#[derive(Debug, Clone, Copy)]
struct Awaited {
    attempt: u8,
    due: Duration,
}

/// Where the distribution strategies differ: the exec frame a provider
/// receives, the reply it sends back, and what the coordinator does with
/// the gathered replies. Everything else — lookup, fan-out, ack/retry/
/// purge, deadlines — is the one [`Round`] machine.
#[derive(Debug)]
enum RoundKind {
    /// One pattern shipped as a [`LiveMsg::SubQuerySol`]; the providers'
    /// [`LiveMsg::Solutions`] are the answer.
    Chained {
        filter: Option<Expression>,
        /// The bind join's key set (`None` starts from the unit solution),
        /// boxed: a batch outweighs the other kinds many times over.
        bound: Option<Box<Rows>>,
        /// The providers sent the bare pattern instead of `bound`
        /// ([`ships_keys`] said no), decided once at fan-out.
        fetch_from: Vec<NodeId>,
        /// Their replies, kept apart from the extensions and joined with
        /// `bound` when the round finishes.
        fetched: Vec<Rows>,
    },
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
        /// Every answering provider's per-pattern local solutions, in
        /// arrival order — the input of [`provider::assemble`].
        replies: Vec<Vec<Rows>>,
    },
}

/// One in-flight round's coordinator state, whatever its strategy: the
/// slots resolve their providers concurrently, then the exec frame fans
/// out to the provider union and the replies gather under the
/// Sect. III-D ack/retry/purge rules. Every wait is a due time here, on
/// the host's clock: an open slot's lookup, an awaited provider's ack and
/// the round's deadline. A finished round is gone, and its waits with it.
#[derive(Debug)]
struct Round {
    slots: Vec<Slot>,
    kind: RoundKind,
    /// The provider union once every slot resolved, in the order the
    /// index named them (so a chained round contacts its providers in
    /// location-table order) — empty until then. Shrinks when a HyperCube restart drops a dead peer.
    peers: Vec<NodeId>,
    /// The providers whose replies the round awaits.
    outstanding: HashMap<NodeId, Awaited>,
    failed: Vec<NodeId>,
    /// Every reply's rows, in arrival order: deduplicated once, when the
    /// round finishes (identical rows from replicated triples collapse).
    gathered: Rows,
    /// When the whole round gives up: the query deadline after its
    /// submission.
    deadline: Duration,
}

impl Round {
    /// The earliest of the round's due times.
    fn next_due(&self) -> Duration {
        let lookups = self.slots.iter().filter(|s| s.providers.is_none()).map(|s| s.lookup_due);
        let acks = self.outstanding.values().map(|a| a.due);
        lookups.chain(acks).fold(self.deadline, Duration::min)
    }
}

/// The per-query coordinator state machine. Every transition consumes
/// one event and returns the actions to perform; it owns no channels or
/// threads and reads no clock. Its host hands it `now`, the time since
/// the host's epoch, with every event, asks [`CoordinatorCore::next_wake`]
/// when its earliest wait runs out and calls [`CoordinatorCore::on_wake`]
/// then — which is what makes it exhaustively testable.
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

    /// Consumes one message that arrived at `now`.
    pub(crate) fn on_event(&mut self, now: Duration, from: NodeId, msg: LiveMsg) -> Vec<Action> {
        match msg {
            LiveMsg::SubmitSol { qid, pattern, filter, bound } => {
                let (fetch_from, fetched) = (Vec::new(), Vec::new());
                let bound = bound.map(Box::new);
                let kind = RoundKind::Chained { filter, bound, fetch_from, fetched };
                self.on_submit(now, qid, vec![pattern], kind)
            }
            LiveMsg::SubmitMulti { qid, patterns, join_vars, strategy } => {
                let kind = match strategy {
                    DistStrategy::HyperCube => RoundKind::HyperCube { join_vars, generation: 0 },
                    _ => RoundKind::PartialEval { replies: Vec::new() },
                };
                self.on_submit(now, qid, patterns, kind)
            }
            LiveMsg::Providers { qid, pattern, providers } => {
                let named = providers.into_iter().map(|(p, f)| (p, Some(f))).collect();
                self.on_providers(now, qid, &pattern, named)
            }
            LiveMsg::Solutions { qid, solutions } => self.on_solutions(qid, from, solutions),
            LiveMsg::PartialMatches { qid, per_pattern } => {
                self.on_partial_matches(qid, from, per_pattern)
            }
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

    /// The exec frame provider `to` receives, shaped by the round's kind
    /// (and, in a chained round, by whether `to` is sent the keys). Used
    /// by the fan-out and retransmissions alike.
    fn exec_frame(&self, qid: QueryId, q: &Round, to: NodeId) -> LiveMsg {
        let patterns = || q.slots.iter().map(|s| s.pattern.clone()).collect();
        match &q.kind {
            RoundKind::Chained { filter, bound, fetch_from, .. } => {
                // The frame's field is `Vec<Solution>`: the one place the
                // keys leave their batch, once per provider sent them.
                let bound = match bound {
                    Some(keys) if !fetch_from.contains(&to) => Some(keys.to_solutions()),
                    _ => None,
                };
                self.stats.add_bound_keys_shipped(bound.as_ref().map_or(0, Vec::len) as u64);
                LiveMsg::SubQuerySol {
                    qid,
                    pattern: q.slots[0].pattern.clone(),
                    filter: filter.clone(),
                    bound,
                    reply_to: self.me,
                }
            }
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

    /// The exec frame for every current peer of round `qid`, each awaited
    /// at a first attempt due an ack timeout from `now`.
    fn fan_out(&mut self, now: Duration, qid: QueryId) -> Vec<Action> {
        let awaited = Awaited { attempt: 0, due: now + self.cfg.ack_timeout };
        let q = self.in_flight.get_mut(&qid).expect("a round in flight fans out");
        q.outstanding = q.peers.iter().map(|&p| (p, awaited)).collect();
        let q = &self.in_flight[&qid];
        q.peers.iter().map(|&p| Action::Send { to: p, msg: self.exec_frame(qid, q, p) }).collect()
    }

    /// One slot's lookup at the index node.
    fn lookup(&self, qid: QueryId, pattern: TriplePattern) -> Action {
        Action::Send { to: self.index, msg: LiveMsg::Lookup { qid, pattern, reply_to: self.me } }
    }

    fn on_submit(
        &mut self,
        now: Duration,
        qid: QueryId,
        patterns: Vec<TriplePattern>,
        kind: RoundKind,
    ) -> Vec<Action> {
        if self.in_flight.contains_key(&qid) {
            return Vec::new(); // duplicate submission
        }
        if patterns.is_empty() {
            let answer =
                LiveAnswer { solutions: Rows::new(), complete: true, failed_providers: Vec::new() };
            return vec![Action::Finish { qid, answer }];
        }
        let lookup_due = now + self.cfg.lookup_timeout;
        let slots = patterns
            .iter()
            .map(|p| Slot { pattern: p.clone(), lookup_attempt: 0, lookup_due, providers: None })
            .collect();
        self.in_flight.insert(
            qid,
            Round {
                slots,
                kind,
                peers: Vec::new(),
                outstanding: HashMap::new(),
                failed: Vec::new(),
                gathered: Rows::new(),
                deadline: now + self.cfg.query_deadline,
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
                actions.push(self.lookup(qid, pattern));
            } else {
                // No location-table row exists for the all-variable
                // pattern: skip the lookup and flood every storage node
                // (Sect. IV-B), whose frequencies no row gives.
                let flood = rlock(&self.flood).iter().map(|&p| (p, None)).collect();
                actions.extend(self.on_providers(now, qid, &pattern, flood));
            }
        }
        actions
    }

    /// Files the provider list under every still-open slot whose pattern
    /// equals the reply's `pattern` echo (the index node answers with the
    /// looked-up pattern verbatim), and fans the exec frames out once no
    /// slot is left open — a bind-join round's key set only to the
    /// providers [`ships_keys`] picks. An echo that matches no open slot —
    /// the answer to a retransmitted lookup whose first answer already
    /// arrived, or a reply to some other round — is stale.
    fn on_providers(
        &mut self,
        now: Duration,
        qid: QueryId,
        pattern: &TriplePattern,
        providers: Vec<(NodeId, Option<u64>)>,
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
        let named = q.slots.iter().flat_map(|s| s.providers.iter().flatten().map(|(p, _)| *p));
        q.peers = named.filter(|p| seen.insert(*p)).collect();
        if let RoundKind::Chained { filter, bound: Some(keys), fetch_from, .. } = &mut q.kind {
            let row = q.slots[0].providers.iter().flatten();
            let fetch = row.filter(|(_, f)| !ships_keys(keys.len(), *f, filter.is_some()));
            *fetch_from = fetch.map(|(p, _)| *p).collect();
            self.stats.add_gathered_legs(fetch_from.len() as u64);
        }
        self.fan_out(now, qid)
    }

    /// Takes `from` off the round's outstanding set if the round awaits
    /// its reply and `accepts` the reply's shape; anything else — late,
    /// duplicated, from another query, or the wrong frame for the
    /// round's kind — is counted and dropped, never applied.
    fn awaited(
        &mut self,
        qid: QueryId,
        from: NodeId,
        accepts: impl FnOnce(&Round) -> bool,
    ) -> Option<&mut Round> {
        let q = self.in_flight.get_mut(&qid).and_then(|q| {
            (accepts(q) && q.outstanding.remove(&from).is_some()).then_some(q)
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

    /// A provider's solutions for a chained round — extensions of the
    /// keys, or the matches of a provider sent the bare pattern — or a
    /// shuffle target's locally-joined fragment for a HyperCube one.
    fn on_solutions(&mut self, qid: QueryId, from: NodeId, solutions: Rows) -> Vec<Action> {
        let accepts = |q: &Round| !matches!(q.kind, RoundKind::PartialEval { .. });
        let Some(q) = self.awaited(qid, from, accepts) else { return Vec::new() };
        match &mut q.kind {
            RoundKind::Chained { fetch_from, fetched, .. } if fetch_from.contains(&from) => {
                fetched.push(solutions)
            }
            _ => q.gathered.append(solutions),
        }
        self.settle(qid)
    }

    fn on_partial_matches(
        &mut self,
        qid: QueryId,
        from: NodeId,
        sets: Vec<Rows>,
    ) -> Vec<Action> {
        let accepts = |q: &Round| {
            matches!(q.kind, RoundKind::PartialEval { .. }) && q.slots.len() == sets.len()
        };
        let Some(q) = self.awaited(qid, from, accepts) else { return Vec::new() };
        let RoundKind::PartialEval { replies } = &mut q.kind else {
            unreachable!("accepted only by a partial-evaluation round")
        };
        replies.push(sets);
        self.settle(qid)
    }

    /// When the earliest wait of any round in flight runs out; `None`
    /// while no round is in flight.
    pub(crate) fn next_wake(&self) -> Option<Duration> {
        self.in_flight.values().map(Round::next_due).min()
    }

    /// Runs whatever is due at `now`, round by round in query-id order: a
    /// round past its deadline finishes with what it gathered; otherwise
    /// each open slot whose lookup is due, in slot order, then each
    /// awaited provider whose ack is due, in the order the exec frames
    /// went out, retries or gives up.
    pub(crate) fn on_wake(&mut self, now: Duration) -> Vec<Action> {
        let in_flight = self.in_flight.iter();
        let mut due: Vec<QueryId> =
            in_flight.filter(|(_, q)| q.next_due() <= now).map(|(&qid, _)| qid).collect();
        due.sort_unstable();
        let mut actions = Vec::new();
        for qid in due {
            let q = &self.in_flight[&qid];
            if q.deadline <= now {
                actions.extend(self.on_overall_deadline(qid));
                continue;
            }
            let open = |s: &Slot| s.providers.is_none() && s.lookup_due <= now;
            let lookups: Vec<usize> = (0..q.slots.len()).filter(|&i| open(&q.slots[i])).collect();
            let awaited = |p: &NodeId| q.outstanding.get(p).is_some_and(|a| a.due <= now);
            let acks: Vec<NodeId> = q.peers.iter().copied().filter(awaited).collect();
            for slot in lookups {
                actions.extend(self.expire_lookup(now, qid, slot));
            }
            for provider in acks {
                // A HyperCube restart re-arms the survivors: an earlier
                // provider's death may have put this one's wait ahead.
                let q = self.in_flight.get(&qid);
                if q.and_then(|q| q.outstanding.get(&provider)).is_some_and(|a| a.due <= now) {
                    actions.extend(self.expire_ack(now, qid, provider));
                }
            }
        }
        actions
    }

    /// Open slot `slot`'s lookup timed out at `now`: ask again, or once
    /// its retries are spent fail the round.
    fn expire_lookup(&mut self, now: Duration, qid: QueryId, slot: usize) -> Vec<Action> {
        let Some(s) = self.in_flight.get_mut(&qid).map(|q| &mut q.slots[slot]) else {
            return Vec::new();
        };
        if s.lookup_attempt < self.cfg.retries {
            s.lookup_attempt += 1;
            s.lookup_due = now + self.cfg.lookup_timeout;
            self.stats.add_retries(1);
            let pattern = s.pattern.clone();
            vec![self.lookup(qid, pattern)]
        } else {
            self.stats.add_lookup_failures(1);
            self.finish(qid, false)
        }
    }

    /// `provider`'s current attempt timed out at `now`: retransmit its
    /// exec frame, or once its retries are spent declare it dead — the
    /// Sect. III-D query-ack timeout.
    fn expire_ack(&mut self, now: Duration, qid: QueryId, provider: NodeId) -> Vec<Action> {
        let Some(q) = self.in_flight.get_mut(&qid) else { return Vec::new() };
        let Some(awaited) = q.outstanding.get_mut(&provider) else { return Vec::new() };
        if awaited.attempt < self.cfg.retries {
            *awaited = Awaited { attempt: awaited.attempt + 1, due: now + self.cfg.ack_timeout };
            self.stats.add_retries(1);
            let q = &self.in_flight[&qid];
            return vec![Action::Send { to: provider, msg: self.exec_frame(qid, q, provider) }];
        }
        q.outstanding.remove(&provider);
        q.failed.push(provider);
        self.stats.add_ack_timeouts(1);
        // Purge the dead provider from every pattern row that named it —
        // each slot's key may live at a different index owner.
        let mut actions: Vec<Action> = q
            .slots
            .iter()
            .filter(|s| s.providers.iter().flatten().any(|(p, _)| *p == provider))
            .map(|s| Action::Send {
                to: self.index,
                msg: LiveMsg::ProviderDead { pattern: s.pattern.clone(), provider },
            })
            .collect();
        // A HyperCube generation cannot finish without every peer's
        // partitions — the surviving targets are stalled waiting for the
        // dead peer's scatter. Re-issue the round over the survivors
        // under a bumped generation, each awaited afresh; partitions from
        // the abandoned one are fenced off by the generation tag.
        if let RoundKind::HyperCube { generation, .. } = &mut q.kind {
            *generation += 1;
            q.peers.retain(|p| *p != provider);
            actions.extend(self.fan_out(now, qid));
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

    /// A synchronously failed send at `now` is an immediate timeout at
    /// the target's current attempt (Sect. III-D): the transport already
    /// knows the peer is unreachable, so waiting out the deadline would
    /// only delay the retry/purge.
    pub(crate) fn on_send_failed(
        &mut self,
        now: Duration,
        to: NodeId,
        key: SendKey,
    ) -> Vec<Action> {
        self.stats.add_send_failures(1);
        match key {
            SendKey::Exec(qid) => self.expire_ack(now, qid, to),
            // The first open slot awaiting this pattern: equal patterns
            // in one round are interchangeable.
            SendKey::Lookup(qid, pattern) => {
                let open = |s: &Slot| s.providers.is_none() && s.pattern == pattern;
                match self.in_flight.get(&qid).and_then(|q| q.slots.iter().position(open)) {
                    Some(slot) => self.expire_lookup(now, qid, slot),
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
            RoundKind::PartialEval { replies } => {
                let (assembled, stitched) = provider::assemble(q.slots.len(), &replies);
                self.stats.add_stitched_rows(stitched as u64);
                assembled
            }
            RoundKind::Chained { bound: Some(keys), fetched, .. } if !fetched.is_empty() => {
                let mut gathered = q.gathered;
                gathered.append(join_fetched(*keys, fetched));
                gathered.distinct()
            }
            _ => q.gathered.distinct(),
        };
        let answer = LiveAnswer { solutions, complete, failed_providers: q.failed };
        actions.push(Action::Finish { qid, answer });
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::COORDINATOR;
    use rdfmesh_sparql::Solution;
    use rdfmesh_rdf::{Term, TermPattern};
    use std::sync::RwLock;

    fn knows_pattern(target: &str) -> TriplePattern {
        TriplePattern::new(
            TermPattern::var("x"),
            Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS),
            Term::iri(&format!("http://example.org/{target}")),
        )
    }

    // ---- state-machine unit + property tests -------------------------

    mod state_machine {
        use super::*;
        use proptest::prelude::*;

        const IX: NodeId = NodeId(1000);
        /// The host's clock when a test does not care what it reads.
        const T0: Duration = Duration::ZERO;
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
            let round = LiveMsg::SubmitSol { qid, pattern: pattern(), filter, bound };
            c.on_event(T0, COORDINATOR, round)
        }

        /// Opens a multiway round over `patterns`, joined on `?x`.
        fn submit_multi(
            c: &mut CoordinatorCore,
            qid: QueryId,
            patterns: Vec<TriplePattern>,
            strategy: DistStrategy,
        ) -> Vec<Action> {
            let join_vars = vec![Variable::new("x")];
            c.on_event(T0, COORDINATOR, LiveMsg::SubmitMulti { qid, patterns, join_vars, strategy })
        }

        /// The index node's answer to the lookup of `pattern`: `providers`,
        /// each at a frequency no key set reaches, so a bind-join round
        /// sends every one of them its keys.
        fn providers(
            c: &mut CoordinatorCore,
            qid: QueryId,
            pattern: TriplePattern,
            providers: Vec<NodeId>,
        ) -> Vec<Action> {
            row(c, qid, pattern, providers.into_iter().map(|p| (p, u64::MAX)).collect())
        }

        /// The index node's answer to the lookup of `pattern`: the row's
        /// `(provider, frequency)` entries.
        fn row(
            c: &mut CoordinatorCore,
            qid: QueryId,
            pattern: TriplePattern,
            providers: Vec<(NodeId, u64)>,
        ) -> Vec<Action> {
            c.on_event(T0, IX, LiveMsg::Providers { qid, pattern, providers })
        }

        /// `sols` as the one id batch a bind step hands its round.
        fn batch(sols: &[Solution]) -> Rows {
            Rows::from_solutions(sols)
        }

        fn solutions(
            c: &mut CoordinatorCore,
            from: NodeId,
            qid: QueryId,
            solutions: Vec<Solution>,
        ) -> Vec<Action> {
            let solutions = Rows::from_solutions(&solutions);
            c.on_event(T0, from, LiveMsg::Solutions { qid, solutions })
        }

        /// A partial evaluation's reply: `sets[slot]` for every slot.
        fn partial_matches(qid: QueryId, sets: Vec<Vec<Solution>>) -> LiveMsg {
            let per_pattern = sets.iter().map(|set| Rows::from_solutions(set)).collect();
            LiveMsg::PartialMatches { qid, per_pattern }
        }

        /// The default configuration's waits.
        fn ack() -> Duration {
            LiveConfig::default().ack_timeout
        }

        fn lookup_wait() -> Duration {
            LiveConfig::default().lookup_timeout
        }

        fn query_deadline() -> Duration {
            LiveConfig::default().query_deadline
        }

        fn ms(n: u64) -> Duration {
            Duration::from_millis(n)
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
            // P2 never answers: nothing is due a moment before its wait
            // runs out, and its first attempt's timeout retries...
            assert!(c.on_wake(ack() - Duration::from_micros(1)).is_empty());
            let retry = c.on_wake(ack());
            assert!(retry.iter().any(|a| matches!(
                a,
                Action::Send { to, msg: LiveMsg::SubQuerySol { .. } } if *to == P2
            )));
            assert_eq!(c.stats.snapshot().retries, 1);
            // ...and its second's gives up.
            let give_up = c.on_wake(ack() * 2);
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
            let retry = c.on_send_failed(T0, P1, SendKey::of(sub));
            assert!(retry
                .iter()
                .any(|a| matches!(a, Action::Send { msg: LiveMsg::SubQuerySol { .. }, .. })));
            let give_up = c.on_send_failed(T0, P1, SendKey::of(sub));
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
            let retry = c.on_wake(lookup_wait());
            assert!(retry
                .iter()
                .any(|a| matches!(a, Action::Send { msg: LiveMsg::Lookup { .. }, .. })));
            let give_up = c.on_wake(lookup_wait() * 2);
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
            let retry = c.on_send_failed(T0, IX, SendKey::of(&lookup));
            assert!(retry
                .iter()
                .any(|a| matches!(a, Action::Send { msg: LiveMsg::Lookup { .. }, .. })));
            let done = finishes(&c.on_send_failed(T0, IX, SendKey::of(&lookup)));
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
                bound: Some(batch(&bound)),
            };
            c.on_event(T0, COORDINATOR, round);
            providers(&mut c, qid, pattern(), vec![P1]);
            let retry = c.on_wake(ack());
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
                T0,
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
            // state machine (its batch gather) and through a
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

        // ---- bind-join rounds: move-small per provider ----------------

        fn xy(x: u64, y: u64) -> Solution {
            Solution::from_pairs([
                (Variable::new("x"), Term::iri(&format!("http://example.org/s{x}"))),
                (Variable::new("y"), Term::iri(&format!("http://example.org/o{y}"))),
            ])
        }

        /// Opens a chained round over `pattern` extending `keys`.
        fn submit_keyed(
            c: &mut CoordinatorCore,
            qid: QueryId,
            pattern: TriplePattern,
            filter: Option<Expression>,
            keys: Rows,
        ) -> Vec<Action> {
            let round = LiveMsg::SubmitSol { qid, pattern, filter, bound: Some(keys) };
            c.on_event(T0, COORDINATOR, round)
        }

        /// `(recipient, keys shipped)` of every sub-query frame in
        /// `actions` — `None` for a provider sent the bare pattern.
        fn sub_queries(actions: &[Action]) -> Vec<(NodeId, Option<usize>)> {
            actions
                .iter()
                .filter_map(|a| match a {
                    Action::Send { to, msg: LiveMsg::SubQuerySol { bound, .. } } => {
                        Some((*to, bound.as_ref().map(Vec::len)))
                    }
                    _ => None,
                })
                .collect()
        }

        fn sorted(rows: Rows) -> Vec<Solution> {
            let mut rows = rows.to_solutions();
            rows.sort();
            rows
        }

        /// The fetch branch joins the key batch, as the bind step built
        /// it, with the providers' bare matches: that must be what the
        /// same providers, sent the keys, would have answered — on keys
        /// that leave `?y` unbound, bind only `?y`, bind nothing, repeat
        /// or extend to nothing.
        #[test]
        fn the_fetch_join_equals_what_key_shipping_providers_answer() {
            let y = |n: u64| (Variable::new("y"), Term::iri(&format!("http://example.org/o{n}")));
            let triple = |x: u64, o: u64| {
                let s = Term::iri(&format!("http://example.org/s{x}"));
                rdfmesh_rdf::Triple::new(s, Term::iri("http://example.org/p"), y(o).1)
            };
            let stores = [
                rdfmesh_rdf::TripleStore::from_triples([triple(1, 1), triple(1, 2), triple(2, 2)]),
                rdfmesh_rdf::TripleStore::from_triples([triple(2, 3), triple(3, 1), triple(1, 1)]),
            ];
            let keys = [
                xy(1, 1),
                xsol(2),
                Solution::from_pairs([y(1)]),
                xy(1, 1),
                Solution::new(),
                xsol(9),
            ];
            let answer = |store: &rdfmesh_rdf::TripleStore, keys| {
                provider::answer(store, &pattern(), None, keys).to_rows()
            };
            let shipped: Vec<Solution> =
                stores.iter().flat_map(|store| answer(store, Some(&keys[..])).to_solutions()).collect();
            let fetched = stores.iter().map(|store| answer(store, None)).collect();
            let joined = join_fetched(batch(&keys), fetched);
            let set = |mut rows: Vec<Solution>| {
                rows.sort();
                rows.dedup();
                rows
            };
            assert_eq!(sorted(joined.distinct()), set(shipped));
        }

        #[test]
        fn keys_go_to_exactly_the_providers_whose_frequency_exceeds_their_count() {
            let mut c = core();
            let qid = QueryId(31);
            submit_keyed(&mut c, qid, pattern(), None, batch(&[xsol(1), xsol(2), xsol(3)]));
            let fan = row(&mut c, qid, pattern(), vec![(P1, 2), (P2, 3), (P3, 4)]);
            // Three keys: fewer than P3's four triples, not fewer than
            // P2's three or P1's two.
            assert_eq!(sub_queries(&fan), vec![(P1, None), (P2, None), (P3, Some(3))]);
            let s = c.stats.snapshot();
            assert_eq!((s.gathered_legs, s.bound_keys_shipped), (2, 3));
            // P1 and P2 answer with their raw matches — one of which
            // extends no key — and P3 with the extension it computed.
            solutions(&mut c, P1, qid, vec![xy(1, 1), xy(4, 1)]);
            solutions(&mut c, P3, qid, vec![xy(3, 3)]);
            let done = finishes(&solutions(&mut c, P2, qid, vec![xy(2, 2), xy(1, 1)]));
            assert_eq!(done.len(), 1);
            assert!(done[0].1.complete);
            assert_eq!(sorted(done[0].1.solutions.clone()), vec![xy(1, 1), xy(2, 2), xy(3, 3)]);
        }

        #[test]
        fn a_retransmission_resends_the_frame_shape_its_provider_was_given() {
            let mut c = core();
            let qid = QueryId(32);
            submit_keyed(&mut c, qid, pattern(), None, batch(&[xsol(1), xsol(2)]));
            let fan = row(&mut c, qid, pattern(), vec![(P1, 1), (P2, 10)]);
            assert_eq!(sub_queries(&fan), vec![(P1, None), (P2, Some(2))]);
            assert_eq!(sub_queries(&c.on_wake(ack())), vec![(P1, None), (P2, Some(2))]);
            assert_eq!(c.stats.snapshot().bound_keys_shipped, 4, "two keys in each of P2's frames");
            // The retransmitted bare pattern is answered like the first.
            solutions(&mut c, P1, qid, vec![xy(1, 5)]);
            let done = finishes(&solutions(&mut c, P2, qid, vec![xy(2, 6)]));
            assert_eq!(sorted(done[0].1.solutions.clone()), vec![xy(1, 5), xy(2, 6)]);
        }

        #[test]
        fn a_round_cut_short_by_the_overall_deadline_joins_the_matches_that_arrived() {
            let mut c = core();
            let qid = QueryId(33);
            submit_keyed(&mut c, qid, pattern(), None, batch(&[xsol(1), xsol(2)]));
            row(&mut c, qid, pattern(), vec![(P1, 2), (P2, 2)]);
            solutions(&mut c, P1, qid, vec![xy(1, 1), xy(3, 1)]);
            let done = finishes(&c.on_wake(query_deadline()));
            assert_eq!(done.len(), 1);
            assert!(!done[0].1.complete);
            assert_eq!(done[0].1.failed_providers, vec![P2]);
            assert_eq!(done[0].1.solutions, vec![xy(1, 1)], "P1's match that extends a key");
        }

        #[test]
        fn a_keyless_flood_and_a_filtered_round_ship_their_keys() {
            let mut c = core();
            let (flood, filtered) = (QueryId(34), QueryId(35));
            let all = TriplePattern::new(
                TermPattern::var("x"),
                TermPattern::var("p"),
                TermPattern::var("o"),
            );
            // No row, so no frequency: every storage node is sent the keys.
            let fan = submit_keyed(&mut c, flood, all, None, batch(&[xsol(1), xsol(2)]));
            assert_eq!(sub_queries(&fan), vec![(P1, Some(2)), (P2, Some(2)), (P3, Some(2))]);
            let filter = Some(Expression::Bound(Variable::new("y")));
            submit_keyed(&mut c, filtered, pattern(), filter, batch(&[xsol(1), xsol(2)]));
            let fan = row(&mut c, filtered, pattern(), vec![(P1, 1)]);
            assert_eq!(sub_queries(&fan), vec![(P1, Some(2))]);
            assert_eq!(c.stats.snapshot().gathered_legs, 0);
        }

        // ---- multiway rounds (HyperCube / partial evaluation) --------

        fn star2() -> Vec<TriplePattern> {
            vec![pattern(), pattern2()]
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
            let swapped = partial_matches(chained, sets.clone());
            assert!(c.on_event(T0, P1, swapped).is_empty());
            assert_eq!(c.stats.snapshot().stale_replies, 2);
            let right = partial_matches(partial, sets);
            assert_eq!(finishes(&c.on_event(T0, P1, right))[0].1.solutions, vec![xsol(1)]);
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
            c.on_event(T0, P1, partial_matches(qid, vec![vec![xy(1, 1), xy(2, 1)], Vec::new()]));
            let last = partial_matches(qid, vec![Vec::new(), vec![xz(1, 5)]]);
            let done = finishes(&c.on_event(T0, P2, last));
            assert_eq!(done.len(), 1);
            assert!(done[0].1.complete);
            let expect = rdfmesh_sparql::solution::naive::join(&[xy(1, 1)], &[xz(1, 5)]);
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
            let retry = c.on_wake(ack());
            assert!(retry.iter().any(|a| matches!(
                a,
                Action::Send { to, msg: LiveMsg::ShuffleExec { .. } } if *to == P2
            )));
            // ...then it is declared dead, purged from *both* pattern
            // rows, and the shuffle restarts over the survivors under a
            // bumped generation (round-0 targets were stalled waiting
            // for P2's partitions, so their fragments cannot be trusted
            // to ever arrive).
            let give_up = c.on_wake(ack() * 2);
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
        fn a_hypercube_restart_rearms_the_survivors() {
            let mut c = core();
            let qid = QueryId(59);
            submit_multi(&mut c, qid, star2(), DistStrategy::HyperCube);
            providers(&mut c, qid, pattern(), vec![P1, P2]);
            let fan = providers(&mut c, qid, pattern2(), vec![P2]);
            let exec = fan
                .iter()
                .find_map(|a| match a {
                    Action::Send { to, msg } if *to == P1 => Some(msg),
                    _ => None,
                })
                .expect("P1's exec frame");
            assert_eq!(c.next_wake(), Some(ack()), "both peers are awaited from the fan-out");
            // P1's exec frame fails to send 10 ms in, and so does its
            // retransmission: P1 is dead, and the round restarts over P2.
            c.on_send_failed(ms(10), P1, SendKey::of(exec));
            let restart = c.on_send_failed(ms(10), P1, SendKey::of(exec));
            // The generations of the exec frames `actions` send P2.
            let to_p2 = |actions: &[Action]| -> Vec<u32> {
                actions
                    .iter()
                    .filter_map(|a| match a {
                        Action::Send { to: P2, msg: LiveMsg::ShuffleExec { round, .. } } => {
                            Some(*round)
                        }
                        _ => None,
                    })
                    .collect()
            };
            assert_eq!(to_p2(&restart), vec![1], "generation 1, over the survivor");
            // The restart awaits P2 afresh, from the restart: its
            // fan-out wait no longer counts...
            assert_eq!(c.next_wake(), Some(ms(10) + ack()));
            assert!(c.on_wake(ack()).is_empty());
            assert_eq!(c.stats.snapshot().retries, 1, "P1's retransmission only");
            // ...and generation 1's wait retransmits as any expired one.
            assert_eq!(to_p2(&c.on_wake(ms(10) + ack())), vec![1]);
            assert_eq!(c.next_wake(), Some(ms(10) + ack() * 2));
        }

        #[test]
        fn a_retransmission_rearms_only_its_providers_wait() {
            let mut c = core();
            let qid = QueryId(60);
            assert_eq!(c.next_wake(), None, "nothing in flight, nothing to wake for");
            let round = LiveMsg::SubmitSol { qid, pattern: pattern(), filter: None, bound: None };
            c.on_event(ms(0), COORDINATOR, round);
            assert_eq!(c.next_wake(), Some(lookup_wait()), "the lookup's wait");
            let providers = vec![(P1, u64::MAX), (P2, u64::MAX)];
            c.on_event(ms(10), IX, LiveMsg::Providers { qid, pattern: pattern(), providers });
            assert_eq!(c.next_wake(), Some(ms(10) + ack()), "both acks, from the fan-out");
            let one = Rows::from_solutions(&[xsol(1)]);
            c.on_event(ms(20), P1, LiveMsg::Solutions { qid, solutions: one });
            assert_eq!(c.next_wake(), Some(ms(10) + ack()), "P2 is still awaited");
            let retry = c.on_wake(ms(10) + ack());
            assert_eq!(sub_queries(&retry), vec![(P2, None)], "P2 alone is sent again");
            assert_eq!(c.next_wake(), Some(ms(10) + ack() * 2), "from the retransmission");
            let two = Rows::from_solutions(&[xsol(2)]);
            let done = c.on_event(ms(30) + ack(), P2, LiveMsg::Solutions { qid, solutions: two });
            assert_eq!(finishes(&done).len(), 1);
            assert_eq!(c.next_wake(), None, "a finished round has no due times");
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
            // Slot 1's lookup never answers: it alone is asked again —
            // the resolved slot 0 waits for nothing — then the round
            // gives up.
            let retry = c.on_wake(lookup_wait());
            let asked: Vec<&TriplePattern> = retry
                .iter()
                .filter_map(|a| match a {
                    Action::Send { msg: LiveMsg::Lookup { pattern, .. }, .. } => Some(pattern),
                    _ => None,
                })
                .collect();
            assert_eq!(asked, vec![&pattern2()]);
            let give_up = c.on_wake(lookup_wait() * 2);
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

        /// One abstract event: a message aimed at one of the [`NQ`]
        /// rounds, or the host's clock advancing by `ms` and waking the
        /// machine. A `second` pattern is the round's slot 1 for a
        /// multiway round and an echo naming none of its slots for a
        /// chained one.
        #[derive(Debug, Clone)]
        enum Ev {
            Providers { q: usize, stale: bool, second: bool, providers: Vec<(NodeId, u64)> },
            Solutions { q: usize, stale_qid: bool, from: NodeId, vals: Vec<u64> },
            Partial { q: usize, from: NodeId, sets: Vec<Vec<u64>> },
            Advance { ms: u64 },
        }

        /// How a round is submitted: chained — from the unit solution, or
        /// extending two keys, which a provider is sent only when its
        /// frequency exceeds two — or as a multiway round under a
        /// strategy.
        #[derive(Debug, Clone, Copy)]
        enum Kind {
            Chained { keyed: bool },
            Multi(DistStrategy),
        }

        fn arb_kind() -> impl Strategy<Value = Kind> {
            prop_oneof![
                Just(Kind::Chained { keyed: false }),
                Just(Kind::Chained { keyed: true }),
                Just(Kind::Multi(DistStrategy::HyperCube)),
                Just(Kind::Multi(DistStrategy::PartialEval)),
            ]
        }

        fn arb_vals() -> impl Strategy<Value = Vec<u64>> {
            proptest::collection::vec(0u64..6, 0..3)
        }

        fn arb_event() -> impl Strategy<Value = Ev> {
            prop_oneof![
                (
                    0..NQ,
                    any::<bool>(),
                    any::<bool>(),
                    proptest::collection::vec((arb_provider(), 0u64..4), 0..4)
                )
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
                // Up to about two ack and lookup waits at a time.
                (0u64..320).prop_map(|ms| Ev::Advance { ms }),
            ]
        }

        proptest! {
            /// [`NQ`] rounds of arbitrary kinds — chained ones over one
            /// slot, with or without keys, HyperCube and
            /// partial-evaluation ones over two, each submitted on its
            /// own — then an arbitrary interleaving of in-order, late,
            /// duplicate, foreign and dropped provider rows of any
            /// frequencies, solution replies, partial matches of the
            /// right and the wrong width, and clock advances that wake
            /// the machine: the machine never panics, a wake-up leaves
            /// nothing due, every round finishes exactly once,
            /// `complete` means no provider failed, answers hold only
            /// solutions from the round's own universe, each once — and
            /// once every round's deadline has passed the in-flight map
            /// is empty and no wake-up is pending.
            #[test]
            fn concurrent_rounds_of_every_kind_finish_once_without_contamination(
                kinds in proptest::collection::vec(arb_kind(), NQ..NQ + 1),
                events in proptest::collection::vec(arb_event(), 0..60)
            ) {
                let mut c = core();
                let mut now = T0;
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
                        Kind::Chained { keyed: false } => submit(&mut c, qid_of(q)),
                        Kind::Chained { keyed: true } => {
                            let bound = Some(batch(&[usol(q, 0), usol(q, 1)]));
                            let (qid, pattern) = (qid_of(q), pattern());
                            let round = LiveMsg::SubmitSol { qid, pattern, filter: None, bound };
                            c.on_event(T0, COORDINATOR, round)
                        }
                        Kind::Multi(strategy) => submit_multi(&mut c, qid_of(q), star2(), strategy),
                    };
                    record(opened, &mut done)?;
                }
                for ev in &events {
                    let actions = match ev.clone() {
                        Ev::Providers { q, stale: s, second, providers } => {
                            let qid = if s { stale } else { qid_of(q) };
                            let pattern = if second { pattern2() } else { pattern() };
                            c.on_event(now, IX, LiveMsg::Providers { qid, pattern, providers })
                        }
                        Ev::Solutions { q, stale_qid, from, vals } => {
                            let qid = if stale_qid { stale } else { qid_of(q) };
                            let rows: Vec<Solution> = vals.iter().map(|&v| usol(q, v)).collect();
                            let solutions = Rows::from_solutions(&rows);
                            c.on_event(now, from, LiveMsg::Solutions { qid, solutions })
                        }
                        Ev::Partial { q, from, sets } => {
                            let sets = sets
                                .into_iter()
                                .map(|vals| vals.into_iter().map(|v| usol(q, v)).collect())
                                .collect();
                            c.on_event(now, from, partial_matches(qid_of(q), sets))
                        }
                        Ev::Advance { ms: by } => {
                            now += ms(by);
                            let woken = c.on_wake(now);
                            prop_assert!(c.next_wake().is_none_or(|due| due > now));
                            woken
                        }
                    };
                    record(actions, &mut done)?;
                }
                // Every round's deadline passes eventually.
                record(c.on_wake(now + query_deadline()), &mut done)?;
                for (q, finished) in done.iter().enumerate() {
                    prop_assert_eq!(finished.len(), 1, "query {} must finish exactly once", q);
                    let answer = &finished[0];
                    if answer.complete {
                        prop_assert!(answer.failed_providers.is_empty());
                    }
                    let universe: Vec<Solution> = (0..6).map(|v| usol(q, v)).collect();
                    let mut seen: Vec<Solution> = Vec::new();
                    for s in answer.solutions.to_solutions() {
                        prop_assert!(
                            universe.contains(&s),
                            "query {} leaked a foreign solution", q
                        );
                        prop_assert!(!seen.contains(&s), "duplicate solution in answer");
                        seen.push(s);
                    }
                }
                prop_assert!(c.in_flight.is_empty(), "no per-query state leaks");
                prop_assert_eq!(c.next_wake(), None, "nothing in flight, nothing to wake for");
            }
        }
    }
}
