//! Per-query execution statistics.
//!
//! A simulated query's only account of what it cost is its
//! [`rdfmesh_obs::QueryTrace`]: the engine runs every query under a fresh
//! trace, the network charges each message to it, and the simulator counts
//! hops, contacts, intermediates and dead providers into it.
//! [`QueryStats`] is read from that trace ([`QueryStats::from_trace`]), and
//! the engine's correctness tests hold the trace's totals to the network's
//! own ledger.

use rdfmesh_net::SimTime;

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
    /// Reads the statistics from a query trace: bytes/messages come from
    /// the span tree's charges, the response time from the trace's
    /// critical-path frontier, and the remaining counters from the trace's
    /// named counts. This is how the engine builds every
    /// [`crate::Execution`]'s stats.
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

rdfmesh_obs::counters! {
    /// Shared protocol counters of one host of the mesh's roles.
    ///
    /// Bumped by all three roles — the coordinator's state machine, the
    /// index nodes and the storage nodes — of the one host that shares
    /// them: a [`crate::LiveMesh`] or [`crate::MeshNode`], or the
    /// simulator's role runner, which counts each round into a fresh set.
    /// They are that host's alone: nothing here writes the global
    /// [`rdfmesh_obs::metrics()`] registry, so a simulated round never
    /// counts as mesh traffic. A serve process's `GET /metrics` reports
    /// its node's set under the `live.*` / `exec.strategy.*` names
    /// ([`LiveStatsSnapshot::named`]).
    pub struct LiveStats / LiveStatsSnapshot;
    /// Sub-query/lookup retransmissions after an expired ack deadline.
    retries, add_retries => LIVE_RETRIES;
    /// Providers declared dead after the bounded retries were exhausted.
    ack_timeouts, add_ack_timeouts => LIVE_ACK_TIMEOUTS;
    /// Failed `Outbox::send`s, each treated as an immediate ack timeout.
    send_failures, add_send_failures => LIVE_SEND_FAILURES;
    /// Replies dropped as stale (wrong/finished query, duplicate sender).
    stale_replies, add_stale_replies => LIVE_STALE_REPLIES;
    /// Location-table entries lazily purged via `ProviderDead`.
    providers_purged, add_providers_purged => LIVE_PROVIDERS_PURGED;
    /// Queries answered with `complete == false`.
    incomplete_queries, add_incomplete_queries => LIVE_INCOMPLETE_QUERIES;
    /// Lookups the index node never answered within the deadline.
    lookup_failures, add_lookup_failures => LIVE_LOOKUP_FAILURES;
    /// Solution rounds issued (one per plan primitive or bound
    /// sub-query executed through [`crate::RoundClient::query_solutions`]).
    solution_rounds, add_solution_rounds => LIVE_SOLUTION_ROUNDS;
    /// Solution mappings shipped by storage nodes answering solution
    /// rounds.
    solutions_shipped, add_solutions_shipped => LIVE_SOLUTIONS_SHIPPED;
    /// Wire bytes of those solutions, sized by the
    /// `rdfmesh_sparql::solution::wire` codec.
    solution_bytes, add_solution_bytes => LIVE_SOLUTION_BYTES;
    /// Bind-join key rows sent in sub-query frames, counted once per
    /// provider frame (retransmissions included).
    bound_keys_shipped, add_bound_keys_shipped => LIVE_BOUND_KEYS_SHIPPED;
    /// Bind-join provider legs sent the bare pattern instead of the keys
    /// (move-small), their matches joined at the coordinator.
    gathered_legs, add_gathered_legs => LIVE_GATHERED_LEGS;
    /// Query executions admitted into the bounded in-flight window.
    admitted, add_admitted => LIVE_ADMITTED;
    /// Admitted executions that first waited in the bounded queue.
    queued, add_queued => LIVE_QUEUED;
    /// Executions rejected under overload (queue full or wait expired).
    rejected, add_rejected => LIVE_REJECTED;
    /// Solution partitions shipped peer-to-peer by HyperCube shuffles.
    shuffle_parts, add_shuffle_parts => EXEC_STRATEGY_SHUFFLE_PARTS;
    /// Wire bytes of those peer-to-peer shuffle partitions.
    shuffle_bytes, add_shuffle_bytes => EXEC_STRATEGY_SHUFFLE_BYTES;
    /// Assembled rows stitched from more than one provider's partial
    /// matches (partial-evaluation queries only).
    stitched_rows, add_stitched_rows => EXEC_STRATEGY_STITCHED_ROWS;
}

#[cfg(test)]
mod tests {
    use super::*;

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
