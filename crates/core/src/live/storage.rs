//! The storage-node role: local execution of shipped sub-queries and
//! the provider side of the multiway rounds.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use rdfmesh_net::{NodeId, WireMsg};
use rdfmesh_rdf::{SharedStore, TriplePattern};
use rdfmesh_sparql::Rows;

use super::{Action, LiveMsg, QueryId};
use crate::stats::LiveStats;
use crate::{live_wire, provider};

/// The retained copy of a [`LiveMsg::ShuffleExec`] frame's fields.
#[derive(Debug)]
pub(crate) struct ShuffleExecFrame {
    patterns: Vec<TriplePattern>,
    peers: Vec<NodeId>,
    reply_to: NodeId,
}

/// Per-query state a storage node keeps while a HyperCube shuffle is in
/// flight: the exec frame and its peers' partitions can arrive in any
/// order, and a retransmitted exec must re-ship the finished answer
/// instead of re-scattering partitions.
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
    /// Keyed by origin, so a retransmitted partition frame is idempotent,
    /// and ordered, so the fold's rows come out in the same order on every
    /// run (the simulator's are reproducible bit for bit).
    received: BTreeMap<NodeId, Vec<Rows>>,
    /// The shipped local join — its row count and frame — kept for
    /// retransmit resends.
    answer: Option<(usize, Vec<u8>)>,
}

/// Shuffle entries for more queries than this trigger an eviction: of
/// finished entries (their [`LiveMsg::MultiDone`] was lost) and, if that
/// frees nothing, of entries no exec frame vouches for (partitions that
/// arrived after their round's `MultiDone`).
const SHUFFLE_STATE_CAP: usize = 1024;

pub(crate) struct LiveStorage {
    me: NodeId,
    store: SharedStore,
    stats: Arc<LiveStats>,
    /// In-flight HyperCube rounds this node participates in.
    shuffle: HashMap<QueryId, ShuffleState>,
}

impl LiveStorage {
    /// The storage node at `me` over `store`, counting into the host's
    /// `stats`.
    pub(crate) fn new(me: NodeId, store: SharedStore, stats: Arc<LiveStats>) -> Self {
        LiveStorage { me, store, stats, shuffle: HashMap::new() }
    }

    /// A reply or partition frame to send as it was written, with the
    /// solutions it carries counted: its `rows` and the bytes of its
    /// solution sets, as shuffle traffic for a peer-to-peer
    /// [`LiveMsg::ShufflePart`] and as shipped solutions for everything
    /// that returns to the coordinator.
    fn ship(stats: &LiveStats, to: NodeId, rows: usize, frame: Vec<u8>) -> Action {
        let (bytes, peer_to_peer) = live_wire::solution_sets(&frame);
        let (rows, bytes) = (rows as u64, bytes as u64);
        if peer_to_peer {
            stats.add_shuffle_parts(rows);
            stats.add_shuffle_bytes(bytes);
        } else {
            stats.add_solutions_shipped(rows);
            stats.add_solution_bytes(bytes);
        }
        Action::SendEncoded { to, frame }
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

    /// The frame shipping the local join ([`provider::fold`]) of this
    /// node's own partition slice and every [`LiveMsg::ShufflePart`]
    /// addressed to it, once the exec frame and every peer's partitions
    /// are in.
    fn try_finish_shuffle(&mut self, qid: QueryId) -> Option<Action> {
        let st = self.shuffle.get_mut(&qid)?;
        let ShuffleExecFrame { patterns, peers, reply_to } = st.exec.as_ref()?;
        if st.answer.is_some() || st.received.len() < peers.len() {
            return None;
        }
        let solutions = provider::fold(patterns.len(), st.received.values());
        let rows = solutions.len();
        let frame = LiveMsg::Solutions { qid, solutions }.encode_wire();
        let shipped = Self::ship(&self.stats, *reply_to, rows, frame.clone());
        st.answer = Some((rows, frame));
        Some(shipped)
    }

    /// Answers a sub-query or a partial evaluation from the local store,
    /// or takes one step of a HyperCube shuffle: scatter on the exec
    /// frame, collect on a partition, ship the local join once both are
    /// complete, retire on [`LiveMsg::MultiDone`].
    pub(crate) fn on_event(&mut self, from: NodeId, msg: LiveMsg) -> Vec<Action> {
        match msg {
            LiveMsg::SubQuerySol { qid, pattern, filter, bound, reply_to } => {
                // The answer lends the store's terms: its frame is written
                // under the one borrow of the store.
                let (rows, frame) = self.store.with(|store| {
                    let (filter, bound) = (filter.as_ref(), bound.as_deref());
                    let answer = provider::answer(store, &pattern, filter, bound);
                    (answer.len(), live_wire::solutions_frame(qid, &answer))
                });
                vec![Self::ship(&self.stats, reply_to, rows, frame)]
            }
            LiveMsg::ShuffleExec { qid, round, patterns, join_vars, peers, reply_to } => {
                // A newer generation supersedes any retained state: the
                // coordinator restarted the round over the survivors.
                if self.shuffle.get(&qid).is_some_and(|st| round > st.round) {
                    self.shuffle.remove(&qid);
                }
                if let Some(st) = self.shuffle.get(&qid) {
                    if round < st.round {
                        return Vec::new(); // exec from an abandoned generation
                    }
                    if let Some((rows, frame)) = st.answer.clone() {
                        // Retransmitted exec after the answer already
                        // shipped: resend it (the coordinator dedups),
                        // counted like the first.
                        return vec![Self::ship(&self.stats, reply_to, rows, frame)];
                    }
                }
                let me = self.me;
                let mut actions = Vec::new();
                self.shuffle_entry(qid).round = round;
                if self.shuffle_entry(qid).exec.is_none() {
                    let parts = self.store.with(|store| {
                        provider::scatter(store, &patterns, &join_vars, peers.len())
                    });
                    for (peer, mine) in peers.iter().zip(parts) {
                        if *peer == me {
                            self.shuffle_entry(qid).received.insert(me, mine);
                        } else {
                            let rows = mine.iter().map(Rows::len).sum();
                            let part = LiveMsg::ShufflePart { qid, round, parts: mine };
                            actions.push(Self::ship(&self.stats, *peer, rows, part.encode_wire()));
                        }
                    }
                    self.shuffle_entry(qid).exec =
                        Some(ShuffleExecFrame { patterns, peers, reply_to });
                }
                actions.extend(self.try_finish_shuffle(qid));
                actions
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
                    return Vec::new(); // partition from an abandoned generation
                }
                entry.round = round;
                entry.received.entry(from).or_insert(parts);
                self.try_finish_shuffle(qid).into_iter().collect()
            }
            LiveMsg::PartialExec { qid, patterns, reply_to } => {
                // Partial evaluation: answer every pattern over local
                // data in one shot. Stateless, so a retransmission just
                // recomputes the same reply.
                let per_pattern: Vec<Rows> = self.store.with(|store| {
                    let answers = patterns.iter().map(|p| provider::answer(store, p, None, None));
                    answers.map(|answer| answer.to_rows()).collect()
                });
                let rows = per_pattern.iter().map(Rows::len).sum();
                let reply = LiveMsg::PartialMatches { qid, per_pattern };
                vec![Self::ship(&self.stats, reply_to, rows, reply.encode_wire())]
            }
            LiveMsg::MultiDone { qid } => {
                self.shuffle.remove(&qid);
                Vec::new()
            }
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfmesh_rdf::{Term, TermPattern, Triple, TripleStore, Variable};

    const ME: NodeId = NodeId(1);
    const COORDINATOR: NodeId = NodeId(9);

    fn storage(triples: &[Triple]) -> LiveStorage {
        let mut store = TripleStore::new();
        for t in triples {
            store.insert(t);
        }
        LiveStorage::new(ME, store.into(), Arc::new(LiveStats::default()))
    }

    #[test]
    fn partitions_arriving_after_multi_done_cannot_grow_the_shuffle_map_unboundedly() {
        let (mut node, peer) = (storage(&[]), NodeId(2));
        // Every round below is already retired when its partition lands:
        // no exec frame will ever come, and no second MultiDone.
        node.on_event(peer, LiveMsg::MultiDone { qid: QueryId(0) });
        for q in 0..=SHUFFLE_STATE_CAP as u64 {
            let part = LiveMsg::ShufflePart { qid: QueryId(q), round: 0, parts: vec![Rows::new()] };
            assert!(node.on_event(peer, part).is_empty(), "no exec frame, nothing to ship");
        }
        let left = node.shuffle.len();
        assert!((1..=SHUFFLE_STATE_CAP).contains(&left), "{left} orphaned entries retained");
    }

    /// A sub-query's reply is the frame of its answer's batch, written
    /// from the store's terms; what it ships is counted off that frame:
    /// its rows, and its set's codec length.
    #[test]
    fn a_sub_query_ships_its_batchs_frame_and_counts_its_set() {
        use rdfmesh_sparql::solution::wire::rows_encoded_len;
        let knows = Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS);
        let person = |n: &str| Term::iri(&format!("http://example.org/{n}"));
        let mut node = storage(&[
            Triple::new(person("alice"), knows.clone(), person("bob")),
            Triple::new(person("bob"), knows.clone(), person("alice")),
            Triple::new(person("carol"), knows.clone(), person("bob")),
        ]);
        let pattern = TriplePattern::new(TermPattern::var("x"), knows, TermPattern::var("y"));
        let (qid, reply_to) = (QueryId(3), COORDINATOR);
        let request = LiveMsg::SubQuerySol {
            qid,
            pattern: pattern.clone(),
            filter: None,
            bound: None,
            reply_to,
        };
        let actions = node.on_event(COORDINATOR, request);
        let [Action::SendEncoded { to, frame }] = &actions[..] else {
            panic!("one encoded frame, got {actions:?}")
        };
        assert_eq!(*to, COORDINATOR);
        let batch =
            node.store.with(|store| provider::answer(store, &pattern, None, None).to_rows());
        assert_eq!(batch.len(), 3);
        let expected = LiveMsg::Solutions { qid, solutions: batch.clone() }.encode_wire();
        assert_eq!(*frame, expected);
        let shipped = node.stats.snapshot();
        assert_eq!(shipped.solutions_shipped, 3);
        assert_eq!(shipped.solution_bytes, rows_encoded_len(&batch) as u64);
    }

    #[test]
    fn a_retransmitted_shuffle_exec_resends_the_answer_and_counts_it() {
        let knows = Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS);
        let person = |n: &str| Term::iri(&format!("http://example.org/{n}"));
        let mut node = storage(&[
            Triple::new(person("alice"), knows.clone(), person("bob")),
            Triple::new(person("carol"), knows.clone(), person("bob")),
        ]);
        let exec = LiveMsg::ShuffleExec {
            qid: QueryId(7),
            round: 0,
            patterns: vec![TriplePattern::new(TermPattern::var("x"), knows, TermPattern::var("y"))],
            join_vars: vec![Variable::new("x")],
            peers: vec![ME],
            reply_to: COORDINATOR,
        };
        // A shuffle over this node alone: its own partition completes it.
        let answer = |actions: &[Action]| match actions {
            [Action::SendEncoded { to, frame }] => {
                assert_eq!(*to, COORDINATOR);
                let Ok(LiveMsg::Solutions { qid: QueryId(7), solutions }) =
                    LiveMsg::decode_wire(frame)
                else {
                    panic!("expected a Solutions frame")
                };
                solutions
            }
            other => panic!("expected one encoded frame, got {other:?}"),
        };
        let first = answer(&node.on_event(COORDINATOR, exec.clone()));
        assert_eq!(first.len(), 2);
        let once = node.stats.snapshot();
        assert_eq!(once.solutions_shipped, 2);
        assert_eq!(answer(&node.on_event(COORDINATOR, exec)), first, "the retained answer");
        let twice = node.stats.snapshot();
        assert_eq!(twice.solutions_shipped, 2 * once.solutions_shipped);
        assert_eq!(twice.solution_bytes, 2 * once.solution_bytes);
        assert_eq!(twice.shuffle_parts, 0, "no partition is scattered again");
    }
}
