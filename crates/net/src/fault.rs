//! Deterministic fault injection for the [`crate::Cluster`], on either wire.
//!
//! The discrete-event [`crate::Network`] models churn analytically
//! (Sect. III-D's failures are a cost term); the [`crate::Cluster`] runs
//! the same protocols on real threads, so its faults have to be *made to
//! happen*. A [`FaultPlan`] declares, up front and reproducibly, which
//! nodes start crashed, which link messages are lost in transit, and
//! which links are slow; [`crate::Cluster::crash`] /
//! [`crate::Cluster::restart`] steer liveness at runtime.
//!
//! Two failure flavours, matching how real peers disappear:
//!
//! * **Crash** — the node stops processing; sends *to* it fail fast
//!   (`Outbox::send` returns `false`, the transport's analogue of a
//!   connection refusal). Messages already queued at the node are
//!   discarded. [`crate::Cluster::restart`] resumes the node with its
//!   in-memory state intact — the paper's node that "comes back".
//! * **Drop / delay** — the send *succeeds* from the sender's point of
//!   view but the message is silently lost (the Nth message on a link)
//!   or delivered late (a per-link delay). Only deadlines can detect
//!   these — exactly the Sect. III-D query-ack-timeout situation.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Mutex;
use std::time::Duration;

use crate::network::NodeId;
use crate::sync::lock;

/// A declarative fault schedule for a [`crate::Cluster`].
///
/// Built with a small builder DSL and handed to
/// [`crate::Cluster::spawn_with`]:
///
/// ```
/// use rdfmesh_net::{FaultPlan, NodeId};
/// use std::time::Duration;
///
/// let plan = FaultPlan::new()
///     .crash(NodeId(3))                                   // down from the start
///     .drop_nth(NodeId(1), NodeId(2), 1)                  // lose 1st msg 1→2
///     .delay(NodeId(2), NodeId(1), Duration::from_millis(50)); // slow link
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    pub(crate) crashed: HashSet<NodeId>,
    pub(crate) drops: HashMap<(NodeId, NodeId), BTreeSet<u64>>,
    pub(crate) delays: HashMap<(NodeId, NodeId), Duration>,
}

impl FaultPlan {
    /// An empty plan: no faults until steered at runtime.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `node` as crashed from the moment the cluster starts.
    pub fn crash(mut self, node: NodeId) -> Self {
        self.crashed.insert(node);
        self
    }

    /// Silently drops the `n`th message (1-based) sent on the directed
    /// link `from → to`. The sender still observes a successful send.
    pub fn drop_nth(mut self, from: NodeId, to: NodeId, n: u64) -> Self {
        assert!(n >= 1, "messages on a link are counted from 1");
        self.drops.entry((from, to)).or_default().insert(n);
        self
    }

    /// Delays every message on the directed link `from → to` by `by`
    /// (held in the sender's outbox and posted by the sender's own thread
    /// when due, so the link keeps its send order).
    pub fn delay(mut self, from: NodeId, to: NodeId, by: Duration) -> Self {
        self.delays.insert((from, to), by);
        self
    }
}

/// What the fault layer decides for one attempted send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SendFate {
    /// Deliver normally.
    Deliver,
    /// Destination is crashed: fail the send (detectable).
    Refuse,
    /// Lose the message silently (sender sees success).
    Drop,
    /// Deliver after the link's configured delay.
    Delay(Duration),
}

/// Shared runtime fault state: the plan plus per-link send counters and
/// the live crashed set.
#[derive(Debug)]
pub(crate) struct FaultState {
    inner: Mutex<FaultInner>,
}

#[derive(Debug)]
struct FaultInner {
    crashed: HashSet<NodeId>,
    drops: HashMap<(NodeId, NodeId), BTreeSet<u64>>,
    delays: HashMap<(NodeId, NodeId), Duration>,
    sent: HashMap<(NodeId, NodeId), u64>,
}

impl FaultState {
    pub(crate) fn from_plan(plan: FaultPlan) -> Self {
        FaultState {
            inner: Mutex::new(FaultInner {
                crashed: plan.crashed,
                drops: plan.drops,
                delays: plan.delays,
                sent: HashMap::new(),
            }),
        }
    }

    pub(crate) fn is_crashed(&self, node: NodeId) -> bool {
        lock(&self.inner).crashed.contains(&node)
    }

    /// Marks `node` crashed. Returns whether it was previously alive.
    pub(crate) fn crash(&self, node: NodeId) -> bool {
        lock(&self.inner).crashed.insert(node)
    }

    /// Clears the crash mark. Returns whether it was previously crashed.
    pub(crate) fn restart(&self, node: NodeId) -> bool {
        lock(&self.inner).crashed.remove(&node)
    }

    /// Adjudicates one send on `from → to`, advancing the link counter.
    pub(crate) fn on_send(&self, from: NodeId, to: NodeId) -> SendFate {
        let mut inner = lock(&self.inner);
        if inner.crashed.contains(&to) {
            return SendFate::Refuse;
        }
        let n = inner.sent.entry((from, to)).or_insert(0);
        *n += 1;
        let nth = *n;
        if inner.drops.get(&(from, to)).is_some_and(|set| set.contains(&nth)) {
            return SendFate::Drop;
        }
        match inner.delays.get(&(from, to)) {
            Some(d) => SendFate::Delay(*d),
            None => SendFate::Deliver,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_accumulates() {
        let plan = FaultPlan::new()
            .crash(NodeId(7))
            .drop_nth(NodeId(1), NodeId(2), 2)
            .drop_nth(NodeId(1), NodeId(2), 3)
            .delay(NodeId(2), NodeId(1), Duration::from_millis(5));
        assert!(plan.crashed.contains(&NodeId(7)));
        assert_eq!(plan.drops[&(NodeId(1), NodeId(2))].len(), 2);
        assert!(plan.delays.contains_key(&(NodeId(2), NodeId(1))));
    }

    #[test]
    fn drop_counts_per_link_and_direction() {
        let state =
            FaultState::from_plan(FaultPlan::new().drop_nth(NodeId(1), NodeId(2), 2));
        assert_eq!(state.on_send(NodeId(1), NodeId(2)), SendFate::Deliver);
        // Other links don't advance this link's counter.
        assert_eq!(state.on_send(NodeId(2), NodeId(1)), SendFate::Deliver);
        assert_eq!(state.on_send(NodeId(1), NodeId(2)), SendFate::Drop);
        assert_eq!(state.on_send(NodeId(1), NodeId(2)), SendFate::Deliver);
    }

    #[test]
    fn crash_and_restart_flip_refusal() {
        let state = FaultState::from_plan(FaultPlan::new());
        assert_eq!(state.on_send(NodeId(1), NodeId(2)), SendFate::Deliver);
        assert!(state.crash(NodeId(2)));
        assert_eq!(state.on_send(NodeId(1), NodeId(2)), SendFate::Refuse);
        assert!(state.restart(NodeId(2)));
        assert_eq!(state.on_send(NodeId(1), NodeId(2)), SendFate::Deliver);
    }
}
