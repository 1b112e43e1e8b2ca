//! The storage-node role: local execution of shipped sub-queries and
//! the provider side of the multiway rounds.

use std::collections::HashMap;
use std::sync::Arc;

use rdfmesh_net::{Envelope, Handler, NodeId, Outbox};
use rdfmesh_rdf::{SharedStore, TriplePattern};
use rdfmesh_sparql::solution::{wire, Solution};

use super::{LiveMsg, QueryId};
use crate::provider;
use crate::stats::LiveStats;

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
    store: SharedStore,
    stats: Arc<LiveStats>,
    /// In-flight HyperCube rounds this node participates in.
    shuffle: HashMap<QueryId, ShuffleState>,
}

impl LiveStorage {
    /// A storage node over `store`, counting into the host's `stats`.
    pub(crate) fn new(store: SharedStore, stats: Arc<LiveStats>) -> Self {
        LiveStorage { store, stats, shuffle: HashMap::new() }
    }

    /// Ships a reply or partition frame, counting the solutions it
    /// carries: rows and their encoded bytes, as shuffle traffic for a
    /// peer-to-peer [`LiveMsg::ShufflePart`] and as shipped solutions
    /// for everything that returns to the coordinator.
    fn ship(stats: &LiveStats, out: &Outbox<LiveMsg>, to: NodeId, frame: LiveMsg) {
        let sets = match &frame {
            LiveMsg::Solutions { solutions, .. } => std::slice::from_ref(solutions),
            LiveMsg::PartialMatches { per_pattern: sets, .. }
            | LiveMsg::ShufflePart { parts: sets, .. } => sets.as_slice(),
            _ => &[],
        };
        let rows = sets.iter().map(Vec::len).sum::<usize>() as u64;
        let bytes = sets.iter().map(|set| wire::encoded_len(set)).sum::<usize>() as u64;
        if matches!(frame, LiveMsg::ShufflePart { .. }) {
            stats.add_shuffle_parts(rows);
            stats.add_shuffle_bytes(bytes);
        } else {
            stats.add_solutions_shipped(rows);
            stats.add_solution_bytes(bytes);
        }
        out.send(to, frame);
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

    /// Ships the local join ([`provider::fold`]) of this node's own
    /// partition slice and every [`LiveMsg::ShufflePart`] addressed to
    /// it, once the exec frame and every peer's partitions are in.
    fn try_finish_shuffle(&mut self, qid: QueryId, out: &Outbox<LiveMsg>) {
        let Some(st) = self.shuffle.get_mut(&qid) else { return };
        let Some(ShuffleExecFrame { patterns, peers, reply_to }) = &st.exec else { return };
        if st.answer.is_some() || st.received.len() < peers.len() {
            return;
        }
        let solutions = provider::fold(patterns.len(), st.received.values());
        let reply = LiveMsg::Solutions { qid, solutions: solutions.clone() };
        Self::ship(&self.stats, out, *reply_to, reply);
        st.answer = Some(solutions);
    }
}

impl Handler<LiveMsg> for LiveStorage {
    fn on_message(&mut self, envelope: Envelope<LiveMsg>, out: &Outbox<LiveMsg>) {
        let from = envelope.from;
        match envelope.payload {
            LiveMsg::SubQuerySol { qid, pattern, filter, bound, reply_to } => {
                let solutions =
                    provider::answer(&self.store, &pattern, filter.as_ref(), bound.as_deref());
                Self::ship(&self.stats, out, reply_to, LiveMsg::Solutions { qid, solutions });
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
                    let parts = provider::scatter(&self.store, &patterns, &join_vars, peers.len());
                    for (peer, mine) in peers.iter().zip(parts) {
                        if *peer == me {
                            self.shuffle_entry(qid).received.insert(me, mine);
                        } else {
                            let part = LiveMsg::ShufflePart { qid, round, parts: mine };
                            Self::ship(&self.stats, out, *peer, part);
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
                let per_pattern = patterns
                    .iter()
                    .map(|p| provider::answer(&self.store, p, None, None))
                    .collect();
                let reply = LiveMsg::PartialMatches { qid, per_pattern };
                Self::ship(&self.stats, out, reply_to, reply);
            }
            LiveMsg::MultiDone { qid } => {
                self.shuffle.remove(&qid);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfmesh_net::Cluster;
    use rdfmesh_rdf::TripleStore;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

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
            inner: LiveStorage::new(TripleStore::new().into(), Arc::new(LiveStats::default())),
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
}
