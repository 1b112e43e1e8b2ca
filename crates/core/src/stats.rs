//! Per-query execution statistics.
//!
//! [`QueryStats`] is maintained two ways at once: the engine bumps the
//! legacy counters inline as it executes, and mirrors every bump into the
//! active [`rdfmesh_obs::QueryTrace`] (when one is installed). The two
//! views are provably equal — [`QueryStats::from_trace`] reconstructs the
//! stats from the trace alone, and the engine's correctness tests assert
//! the reconstruction matches the hand-counted values exactly.

use rdfmesh_net::{NetStats, SimTime};

/// What one distributed query cost — the quantities the paper's deferred
/// evaluation (and our EXPERIMENTS.md) reports.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Simulated response time: from submission at the initiator to the
    /// final solutions arriving back at the initiator. One of the two
    /// optimization objectives of Sect. IV-C ("the time used to answer
    /// the query").
    pub response_time: SimTime,
    /// Total inter-site bytes moved on behalf of the query (routing,
    /// sub-queries, intermediate results, final results). The other
    /// Sect. IV-C objective ("the total amount of data transmission").
    pub total_bytes: u64,
    /// Total inter-site messages. Not an explicit paper objective, but
    /// each message carries the fixed per-hop latency that dominates the
    /// response time of small transfers (Sect. V's experiment setup).
    pub messages: u64,
    /// Chord routing hops spent resolving index keys — the O(log N)
    /// first level of the two-level lookup of Sect. III-B.
    pub index_hops: usize,
    /// Storage nodes that received a sub-query: the providers selected
    /// from the location tables (Sect. III-C, Table I) plus any flooded
    /// recipients for the all-variable pattern (Sect. IV-B).
    pub providers_contacted: usize,
    /// Contacted storage nodes that turned out dead (query-ack timeout
    /// fired) — the lazy failure detection of Sect. III-D, after which
    /// their stale index entries are purged.
    pub dead_providers: usize,
    /// Intermediate solution mappings produced before post-processing —
    /// the "size of intermediate results" the paper's join-ordering
    /// optimization targets (Sect. IV-D).
    pub intermediate_solutions: usize,
    /// Solutions (or triples / boolean) in the final result, counted
    /// after the post-processing step of Fig. 3.
    pub result_size: usize,
}

impl QueryStats {
    /// Folds a network-stats delta into the query stats.
    pub fn absorb_net(&mut self, delta: &NetStats) {
        self.total_bytes += delta.total_bytes;
        self.messages += delta.messages;
    }

    /// Reconstructs the statistics from a query trace alone, making the
    /// legacy stats a derived view: bytes/messages come from the span
    /// tree's charges, the response time from the trace's critical-path
    /// frontier, and the remaining counters from the trace's named
    /// counts. For a query run under [`crate::Engine::execute_traced`]
    /// this equals the engine's hand-counted [`QueryStats`] exactly.
    pub fn from_trace(trace: &rdfmesh_obs::QueryTrace) -> QueryStats {
        QueryStats {
            response_time: SimTime(trace.response_time_us()),
            total_bytes: trace.total_bytes(),
            messages: trace.total_messages(),
            index_hops: trace.counter("index_hops") as usize,
            providers_contacted: trace.counter("providers_contacted") as usize,
            dead_providers: trace.counter("dead_providers") as usize,
            intermediate_solutions: trace.counter("intermediate_solutions") as usize,
            result_size: trace.counter("result_size") as usize,
        }
    }
}

impl std::fmt::Display for QueryStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "time={} bytes={} msgs={} hops={} providers={} (dead {}) intermediate={} results={}",
            self.response_time,
            self.total_bytes,
            self.messages,
            self.index_hops,
            self.providers_contacted,
            self.dead_providers,
            self.intermediate_solutions,
            self.result_size,
        )
    }
}

/// Shared fault-tolerance counters of one [`crate::LiveMesh`].
///
/// Bumped by the coordinator's state machine and the index nodes as the
/// live protocol detects churn; every bump is mirrored into the global
/// [`rdfmesh_obs::metrics()`] registry under the `live.*` names so the
/// soak experiment (§E16) and dashboards see the same numbers.
#[derive(Debug, Default)]
pub struct LiveStats {
    retries: std::sync::atomic::AtomicU64,
    ack_timeouts: std::sync::atomic::AtomicU64,
    send_failures: std::sync::atomic::AtomicU64,
    stale_replies: std::sync::atomic::AtomicU64,
    providers_purged: std::sync::atomic::AtomicU64,
    incomplete_queries: std::sync::atomic::AtomicU64,
    lookup_failures: std::sync::atomic::AtomicU64,
    solution_rounds: std::sync::atomic::AtomicU64,
    solutions_shipped: std::sync::atomic::AtomicU64,
    solution_bytes: std::sync::atomic::AtomicU64,
    admitted: std::sync::atomic::AtomicU64,
    queued: std::sync::atomic::AtomicU64,
    rejected: std::sync::atomic::AtomicU64,
    shuffle_parts: std::sync::atomic::AtomicU64,
    shuffle_bytes: std::sync::atomic::AtomicU64,
    stitched_rows: std::sync::atomic::AtomicU64,
}

/// A point-in-time copy of [`LiveStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveStatsSnapshot {
    /// Sub-query/lookup retransmissions after an expired ack deadline.
    pub retries: u64,
    /// Providers declared dead after the bounded retries were exhausted.
    pub ack_timeouts: u64,
    /// Failed `Outbox::send`s, each treated as an immediate ack timeout.
    pub send_failures: u64,
    /// Replies dropped as stale (wrong/finished query, duplicate sender).
    pub stale_replies: u64,
    /// Location-table entries lazily purged via `ProviderDead`.
    pub providers_purged: u64,
    /// Queries answered with `complete == false`.
    pub incomplete_queries: u64,
    /// Lookups the index node never answered within the deadline.
    pub lookup_failures: u64,
    /// Solution rounds issued (one per plan primitive or bound
    /// sub-query executed through [`crate::RoundClient::query_solutions`]).
    pub solution_rounds: u64,
    /// Solution mappings shipped by storage nodes answering solution
    /// rounds.
    pub solutions_shipped: u64,
    /// Wire bytes of those solutions, sized by the
    /// `rdfmesh_sparql::solution::wire` codec.
    pub solution_bytes: u64,
    /// Query executions admitted into the bounded in-flight window.
    pub admitted: u64,
    /// Admitted executions that first waited in the bounded queue.
    pub queued: u64,
    /// Executions rejected under overload (queue full or wait expired).
    pub rejected: u64,
    /// Solution partitions shipped peer-to-peer by HyperCube shuffles.
    pub shuffle_parts: u64,
    /// Wire bytes of those peer-to-peer shuffle partitions.
    pub shuffle_bytes: u64,
    /// Assembled rows stitched from more than one provider's partial
    /// matches (partial-evaluation queries only).
    pub stitched_rows: u64,
}

impl LiveStats {
    fn bump(counter: &std::sync::atomic::AtomicU64, name: &'static str, delta: u64) {
        if delta > 0 {
            counter.fetch_add(delta, std::sync::atomic::Ordering::Relaxed);
            rdfmesh_obs::metrics().add(name, delta);
        }
    }

    /// Adds `delta` retransmissions.
    pub fn add_retries(&self, delta: u64) {
        Self::bump(&self.retries, rdfmesh_obs::names::LIVE_RETRIES, delta);
    }

    /// Adds `delta` exhausted-retry provider deaths.
    pub fn add_ack_timeouts(&self, delta: u64) {
        Self::bump(&self.ack_timeouts, rdfmesh_obs::names::LIVE_ACK_TIMEOUTS, delta);
    }

    /// Adds `delta` failed sends.
    pub fn add_send_failures(&self, delta: u64) {
        Self::bump(&self.send_failures, rdfmesh_obs::names::LIVE_SEND_FAILURES, delta);
    }

    /// Adds `delta` stale replies.
    pub fn add_stale_replies(&self, delta: u64) {
        Self::bump(&self.stale_replies, rdfmesh_obs::names::LIVE_STALE_REPLIES, delta);
    }

    /// Adds `delta` lazily purged location-table entries.
    pub fn add_providers_purged(&self, delta: u64) {
        Self::bump(&self.providers_purged, rdfmesh_obs::names::LIVE_PROVIDERS_PURGED, delta);
    }

    /// Adds `delta` incomplete query completions.
    pub fn add_incomplete_queries(&self, delta: u64) {
        Self::bump(&self.incomplete_queries, rdfmesh_obs::names::LIVE_INCOMPLETE_QUERIES, delta);
    }

    /// Adds `delta` abandoned lookups.
    pub fn add_lookup_failures(&self, delta: u64) {
        Self::bump(&self.lookup_failures, rdfmesh_obs::names::LIVE_LOOKUP_FAILURES, delta);
    }

    /// Adds `delta` solution rounds.
    pub fn add_solution_rounds(&self, delta: u64) {
        Self::bump(&self.solution_rounds, rdfmesh_obs::names::LIVE_SOLUTION_ROUNDS, delta);
    }

    /// Adds `delta` shipped solution mappings.
    pub fn add_solutions_shipped(&self, delta: u64) {
        Self::bump(&self.solutions_shipped, rdfmesh_obs::names::LIVE_SOLUTIONS_SHIPPED, delta);
    }

    /// Adds `delta` wire bytes of shipped solutions.
    pub fn add_solution_bytes(&self, delta: u64) {
        Self::bump(&self.solution_bytes, rdfmesh_obs::names::LIVE_SOLUTION_BYTES, delta);
    }

    /// Adds `delta` admitted query executions.
    pub fn add_admitted(&self, delta: u64) {
        Self::bump(&self.admitted, rdfmesh_obs::names::LIVE_ADMITTED, delta);
    }

    /// Adds `delta` executions that waited in the admission queue.
    pub fn add_queued(&self, delta: u64) {
        Self::bump(&self.queued, rdfmesh_obs::names::LIVE_QUEUED, delta);
    }

    /// Adds `delta` executions rejected under overload.
    pub fn add_rejected(&self, delta: u64) {
        Self::bump(&self.rejected, rdfmesh_obs::names::LIVE_REJECTED, delta);
    }

    /// Adds `delta` peer-to-peer shuffle partitions.
    pub fn add_shuffle_parts(&self, delta: u64) {
        Self::bump(&self.shuffle_parts, rdfmesh_obs::names::EXEC_STRATEGY_SHUFFLE_PARTS, delta);
    }

    /// Adds `delta` wire bytes of shuffle partitions.
    pub fn add_shuffle_bytes(&self, delta: u64) {
        Self::bump(&self.shuffle_bytes, rdfmesh_obs::names::EXEC_STRATEGY_SHUFFLE_BYTES, delta);
    }

    /// Adds `delta` cross-provider stitched assembly rows.
    pub fn add_stitched_rows(&self, delta: u64) {
        Self::bump(&self.stitched_rows, rdfmesh_obs::names::EXEC_STRATEGY_STITCHED_ROWS, delta);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> LiveStatsSnapshot {
        use std::sync::atomic::Ordering::Relaxed;
        LiveStatsSnapshot {
            retries: self.retries.load(Relaxed),
            ack_timeouts: self.ack_timeouts.load(Relaxed),
            send_failures: self.send_failures.load(Relaxed),
            stale_replies: self.stale_replies.load(Relaxed),
            providers_purged: self.providers_purged.load(Relaxed),
            incomplete_queries: self.incomplete_queries.load(Relaxed),
            lookup_failures: self.lookup_failures.load(Relaxed),
            solution_rounds: self.solution_rounds.load(Relaxed),
            solutions_shipped: self.solutions_shipped.load(Relaxed),
            solution_bytes: self.solution_bytes.load(Relaxed),
            admitted: self.admitted.load(Relaxed),
            queued: self.queued.load(Relaxed),
            rejected: self.rejected.load(Relaxed),
            shuffle_parts: self.shuffle_parts.load(Relaxed),
            shuffle_bytes: self.shuffle_bytes.load(Relaxed),
            stitched_rows: self.stitched_rows.load(Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfmesh_net::NodeId;

    #[test]
    fn absorb_net_accumulates() {
        let mut q = QueryStats::default();
        let mut n = NetStats::default();
        n.record(NodeId(1), NodeId(2), 100, SimTime(5));
        n.record(NodeId(2), NodeId(3), 50, SimTime(9));
        q.absorb_net(&n);
        assert_eq!(q.total_bytes, 150);
        assert_eq!(q.messages, 2);
    }

    #[test]
    fn display_is_single_line() {
        let q = QueryStats::default();
        assert!(!q.to_string().contains('\n'));
    }

    #[test]
    fn from_trace_reads_charges_counters_and_frontier() {
        let trace = rdfmesh_obs::QueryTrace::new();
        let span = trace.begin(rdfmesh_obs::phase::SHIPPING, "s", 0);
        trace.charge(120);
        trace.charge(80);
        trace.end(span, 500);
        trace.advance(rdfmesh_obs::phase::SHIPPING, 500);
        trace.count("index_hops", 3);
        trace.count("providers_contacted", 2);
        trace.count("intermediate_solutions", 7);
        trace.count("result_size", 4);
        trace.advance(rdfmesh_obs::phase::POST_PROCESS, 650);
        trace.finish(650);
        let q = QueryStats::from_trace(&trace);
        assert_eq!(q.response_time, SimTime(650));
        assert_eq!(q.total_bytes, 200);
        assert_eq!(q.messages, 2);
        assert_eq!(q.index_hops, 3);
        assert_eq!(q.providers_contacted, 2);
        assert_eq!(q.intermediate_solutions, 7);
        assert_eq!(q.dead_providers, 0);
        assert_eq!(q.result_size, 4);
    }
}
