//! The client side of one coordinator: query ids, answer channels and
//! the admission gate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::Duration;

use rdfmesh_net::{lock, rlock, Cluster, NodeId};
use rdfmesh_overlay::key_for_pattern;
use rdfmesh_rdf::{TriplePattern, Variable};
use rdfmesh_sparql::expr::Expression;
use rdfmesh_sparql::{Rows, Solution};

use super::{owner_in_view, LiveAnswer, LiveMsg, PendingMap, QueryId, RingView};
use crate::admission::Admission;
use crate::config::{DistStrategy, LiveConfig};
use crate::stats::{LiveStats, LiveStatsSnapshot};

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

/// The client side of one host's coordinator: allocates query ids,
/// registers the channel each answer comes back on, injects every round
/// straight at the coordinator, gates whole query executions on
/// admission control, and reads the host's view of the ring. It owns no
/// thread. The host builds it; [`crate::LiveMesh`] and
/// [`crate::MeshNode`] dereference to it.
pub struct RoundClient {
    cfg: LiveConfig,
    next_qid: AtomicU64,
    pending: PendingMap,
    cluster: Arc<Cluster<LiveMsg>>,
    coordinator: NodeId,
    view: (rdfmesh_chord::IdSpace, RingView),
    admission: Admission,
    stats: Arc<LiveStats>,
}

impl RoundClient {
    /// A client for `coordinator` on `cluster`, sharing its `pending`
    /// answers and its host's `stats` and `view` of the ring.
    pub(crate) fn new(
        cfg: LiveConfig,
        pending: PendingMap,
        stats: Arc<LiveStats>,
        cluster: Arc<Cluster<LiveMsg>>,
        coordinator: NodeId,
        view: (rdfmesh_chord::IdSpace, RingView),
    ) -> Self {
        let (next_qid, admission) = (AtomicU64::new(1), Admission::new(&cfg, Arc::clone(&stats)));
        RoundClient { cfg, next_qid, pending, cluster, coordinator, view, admission, stats }
    }

    /// Hands `msg` to the coordinator, as if it had sent it to itself.
    fn inject(&self, msg: LiveMsg) {
        self.cluster.inject(self.coordinator, self.coordinator, msg);
    }

    /// Allocates a query id and registers the channel its answer will
    /// arrive on.
    fn open_round(&self) -> RoundHandle {
        self.stats.add_solution_rounds(1);
        let qid = QueryId(self.next_qid.fetch_add(1, Ordering::Relaxed));
        let (tx, rx) = mpsc::sync_channel(1);
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
    /// pipeline through the coordinator. `bound` becomes one id batch
    /// here, at entry; the bind step submits its key batch as it is
    /// ([`SolutionRounds::keyed_round`](crate::SolutionRounds::keyed_round)).
    pub fn submit_solutions(
        &self,
        pattern: TriplePattern,
        filter: Option<Expression>,
        bound: Option<Vec<Solution>>,
    ) -> RoundHandle {
        self.submit_keyed(pattern, filter, bound.as_deref().map(Rows::from_solutions))
    }

    /// [`RoundClient::submit_solutions`] with the keys already a batch.
    pub(crate) fn submit_keyed(
        &self,
        pattern: TriplePattern,
        filter: Option<Expression>,
        bound: Option<Rows>,
    ) -> RoundHandle {
        let handle = self.open_round();
        self.inject(LiveMsg::SubmitSol { qid: handle.qid, pattern, filter, bound });
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
        self.inject(LiveMsg::SubmitMulti { qid: handle.qid, patterns, join_vars, strategy });
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

    /// The host's counters so far.
    pub fn stats(&self) -> LiveStatsSnapshot {
        self.stats.snapshot()
    }

    /// The index node whose location table owns `pattern`'s key in the
    /// host's current view of the ring, or `None` for the all-variable
    /// pattern (which has no key).
    pub fn index_owner_of(&self, pattern: &TriplePattern) -> Option<NodeId> {
        let (space, ring) = &self.view;
        key_for_pattern(*space, pattern).map(|k| owner_in_view(&rlock(ring), k.id.0))
    }
}
