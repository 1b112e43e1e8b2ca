//! Execution strategies and engine configuration.
//!
//! Mirrors the strategy space the paper lays out: three processing
//! schemes for primitive queries (Sect. IV-C), join site selection
//! policies from the distributed-database literature (Sect. II), and the
//! overlap-aware site selection for conjunctive patterns (Sect. IV-D).
//! The two (sometimes conflicting) optimization objectives of Sect. V are
//! [`crate::PlanObjective`], which the planner prices per query.

use rdfmesh_net::SimTime;
use rdfmesh_sparql::OptimizerConfig;

/// How a primitive (single-triple-pattern) sub-query is processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimitiveStrategy {
    /// *Basic query processing* (Sect. IV-C): the index node fans the
    /// sub-query out to every target storage node in parallel, unions the
    /// answers at the assembly site, and forwards the union to the
    /// initiator. Low response time, high transmission overhead.
    Basic,
    /// *Optimization* (Sect. IV-C): the sub-query travels through the
    /// target nodes in sequence; each node merges its matches into the
    /// accumulated set before forwarding — in-network aggregation. The
    /// last node returns the final mappings to the initiator.
    Chained,
    /// *Further optimization* (Sect. IV-C): like [`Chained`], but the
    /// sequence is sorted by **ascending frequency**, so the node with the
    /// largest number of target triples is last and its (largest) local
    /// contribution never crosses the network before the final hop.
    /// Minimizes total inter-site bytes at the cost of response time.
    ///
    /// [`Chained`]: PrimitiveStrategy::Chained
    FrequencyOrdered,
}

impl PrimitiveStrategy {
    /// All strategies, for sweeps.
    pub const ALL: [PrimitiveStrategy; 3] = [
        PrimitiveStrategy::Basic,
        PrimitiveStrategy::Chained,
        PrimitiveStrategy::FrequencyOrdered,
    ];
}

impl std::fmt::Display for PrimitiveStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrimitiveStrategy::Basic => write!(f, "basic"),
            PrimitiveStrategy::Chained => write!(f, "chained"),
            PrimitiveStrategy::FrequencyOrdered => write!(f, "freq-ordered"),
        }
    }
}

/// How a *multi-pattern* conjunctive query (BGP) is distributed across
/// the provider set — the pluggable distribution-strategy seam.
///
/// The paper's execution model is sequential solution shipping through
/// the coordinator ([`DistStrategy::Chained`]); the other two families
/// come from the distributed-SPARQL literature and trade coordinator
/// bytes and rounds differently (see `docs/EXECUTION.md` for the
/// selection matrix; `tests/live_exec.rs` counts rounds and coordinator
/// bytes per strategy, the repo benchmark's `live.multiway_us.*` times
/// them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistStrategy {
    /// The paper's scheme: resolve each pattern in sequence through the
    /// coordinator, joining (or bind-joining) intermediates as they
    /// arrive. `k` patterns cost `k` coordinator round trips.
    Chained,
    /// One-round HyperCube-style shuffle (cf. D-FDB): every provider
    /// evaluates every pattern locally, partitions its solutions across
    /// the provider set by hashing the bindings of the variables common
    /// to *all* patterns, ships each partition once peer-to-peer, and
    /// joins locally at each shuffle target. The coordinator receives
    /// only joined rows. Applicable when the patterns share at least
    /// one common variable (star shapes and 2-pattern joins).
    HyperCube,
    /// Partial-evaluation-and-assembly (cf. Peng et al.): every
    /// provider evaluates the whole BGP over local data in one round
    /// and ships its per-pattern partial matches; an assembly operator
    /// at the coordinator stitches cross-site matches. Applicable to
    /// any connected BGP (including cyclic shapes HyperCube's
    /// common-variable hashing cannot cover).
    PartialEval,
}

impl std::fmt::Display for DistStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistStrategy::Chained => write!(f, "chained"),
            DistStrategy::HyperCube => write!(f, "hypercube"),
            DistStrategy::PartialEval => write!(f, "partial-eval"),
        }
    }
}

/// Which distribution strategy the planner bakes into the plan for
/// multi-pattern BGPs. Forced choices fall back to
/// [`DistStrategy::Chained`] when the shape does not support the
/// strategy (no common variable for HyperCube, disconnected product for
/// partial evaluation, any all-variable flood pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistChoice {
    /// Always chain (the paper's behavior; the default).
    Chained,
    /// Prefer HyperCube shuffle where applicable.
    HyperCube,
    /// Prefer partial-evaluation-and-assembly where applicable.
    PartialEval,
    /// Select per query shape: HyperCube for common-variable (star)
    /// shapes, partial evaluation for cyclic shapes, chained otherwise.
    Auto,
}

impl std::fmt::Display for DistChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistChoice::Chained => write!(f, "chained"),
            DistChoice::HyperCube => write!(f, "hypercube"),
            DistChoice::PartialEval => write!(f, "partial-eval"),
            DistChoice::Auto => write!(f, "auto"),
        }
    }
}

/// Where a binary operation (join / left join / union) between two
/// materialized intermediate results is performed (Sect. II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinSiteStrategy {
    /// *Move-Small*: ship the smaller operand to the site of the larger
    /// one (Cornell & Yu). The paper adopts this for OPTIONAL patterns
    /// (Sect. IV-E).
    MoveSmall,
    /// *Query-Site*: ship both operands to the node that submitted the
    /// query and operate there.
    QuerySite,
    /// *Third-Site*: pick the cheapest site among both operand sites and
    /// the query site, accounting for link latencies (Ye et al. use QoS
    /// measurements; our cost model uses the configured latency matrix).
    ThirdSite,
}

impl JoinSiteStrategy {
    /// All strategies, for sweeps.
    pub const ALL: [JoinSiteStrategy; 3] = [
        JoinSiteStrategy::MoveSmall,
        JoinSiteStrategy::QuerySite,
        JoinSiteStrategy::ThirdSite,
    ];
}

impl std::fmt::Display for JoinSiteStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinSiteStrategy::MoveSmall => write!(f, "move-small"),
            JoinSiteStrategy::QuerySite => write!(f, "query-site"),
            JoinSiteStrategy::ThirdSite => write!(f, "third-site"),
        }
    }
}

/// Fault-tolerance knobs for the thread-backed [`crate::LiveMesh`].
///
/// The simulator charges [`ExecConfig::ack_timeout`] as a *cost* when a
/// query hits a dead provider; the live mesh has to actually *wait*, so
/// these are wall-clock durations driving the coordinator's per-query
/// state machine (see `docs/FAULTS.md` and Sect. III-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveConfig {
    /// How long the coordinator waits for a storage node to answer a
    /// sub-query before retransmitting (and, after [`LiveConfig::retries`]
    /// retransmissions, declaring the provider dead).
    pub ack_timeout: std::time::Duration,
    /// How long the coordinator waits for the index node's provider list.
    pub lookup_timeout: std::time::Duration,
    /// Hard per-query deadline: the query completes (possibly with
    /// `complete == false`) no later than this after submission.
    pub query_deadline: std::time::Duration,
    /// Bounded retransmissions per provider (and per lookup) before
    /// giving up. The paper's lazy failure detection needs only one.
    pub retries: u8,
    /// Admission control: how many query executions may run concurrently
    /// through one coordinator before new arrivals queue.
    pub max_inflight: usize,
    /// Admission control: how many arrivals may wait for an in-flight
    /// slot before further arrivals are rejected outright (HTTP 503 at
    /// the endpoint).
    pub queue_depth: usize,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            ack_timeout: std::time::Duration::from_millis(150),
            lookup_timeout: std::time::Duration::from_millis(150),
            query_deadline: std::time::Duration::from_secs(5),
            retries: 1,
            max_inflight: 64,
            queue_depth: 256,
        }
    }
}

/// Full engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Primitive-query scheme.
    pub primitive: PrimitiveStrategy,
    /// Binary-operation site selection.
    pub join_site: JoinSiteStrategy,
    /// Use the Sect. IV-D overlap-aware site selection for conjunctive
    /// patterns (route pattern chains to end at a shared provider).
    pub overlap_aware: bool,
    /// Algebraic rewrites applied before planning (Fig. 3's Global Query
    /// Optimizer). Disable individual rules for ablations.
    pub optimizer: OptimizerConfig,
    /// Order BGP members by location-table frequency estimates rather
    /// than syntactic shape.
    pub frequency_join_order: bool,
    /// Extra latency charged when a contacted storage node turns out to
    /// be dead (the Sect. III-D query-ack timeout before purging).
    pub ack_timeout: SimTime,
    /// Use the numeric range index (bucketed `(p, bucket(o))` keys) when
    /// the overlay has it enabled: a range filter over a single pattern
    /// contacts only providers with values in overlapping buckets. An
    /// extension beyond the paper (cf. RDFPeers' locality-preserving
    /// hashing).
    pub range_index: bool,
    /// Bind-join propagation for conjunctive patterns: the current
    /// intermediate's distinct join keys travel *with* each sub-query so
    /// providers return only compatible extensions (or, to a provider
    /// holding fewer matches than there are keys, the bare pattern goes
    /// and its matches come back: move-small per leg), and the extensions
    /// are joined back onto the rows at the coordinator. One bind step on
    /// both backends — the simulator runs the mesh's keyed round. An
    /// extension beyond the paper's gather-then-join scheme, drawn from the
    /// distributed-QP literature it builds on (Kossmann \[15\]); off by
    /// default for paper fidelity.
    pub bind_join: bool,
    /// Distribution strategy for multi-pattern BGPs (the pluggable
    /// seam): chained shipping, HyperCube shuffle, partial evaluation,
    /// or per-shape automatic selection. Defaults to
    /// [`DistChoice::Chained`] for paper fidelity.
    pub dist: DistChoice,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            primitive: PrimitiveStrategy::Chained,
            join_site: JoinSiteStrategy::MoveSmall,
            overlap_aware: true,
            optimizer: OptimizerConfig::default(),
            frequency_join_order: true,
            ack_timeout: SimTime::millis(200),
            range_index: true,
            bind_join: false,
            dist: DistChoice::Chained,
        }
    }
}

impl ExecConfig {
    /// The unoptimized baseline: basic fan-out, query-site joins, no
    /// rewrites — the "basic query processing" of Sect. IV.
    pub fn baseline() -> Self {
        ExecConfig {
            primitive: PrimitiveStrategy::Basic,
            join_site: JoinSiteStrategy::QuerySite,
            overlap_aware: false,
            optimizer: OptimizerConfig::disabled(),
            frequency_join_order: false,
            range_index: false,
            ..ExecConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_recommendations() {
        let c = ExecConfig::default();
        assert_eq!(c.join_site, JoinSiteStrategy::MoveSmall);
        assert!(c.overlap_aware);
    }

    #[test]
    fn baseline_disables_everything() {
        let c = ExecConfig::baseline();
        assert_eq!(c.primitive, PrimitiveStrategy::Basic);
        assert!(!c.overlap_aware);
        assert!(!c.optimizer.push_filters);
    }

    #[test]
    fn strategy_displays() {
        assert_eq!(PrimitiveStrategy::FrequencyOrdered.to_string(), "freq-ordered");
        assert_eq!(JoinSiteStrategy::ThirdSite.to_string(), "third-site");
        assert_eq!(DistStrategy::HyperCube.to_string(), "hypercube");
        assert_eq!(DistChoice::Auto.to_string(), "auto");
    }

    #[test]
    fn default_dist_strategy_is_chained_for_paper_fidelity() {
        assert_eq!(ExecConfig::default().dist, DistChoice::Chained);
        assert_eq!(ExecConfig::baseline().dist, DistChoice::Chained);
    }
}
