//! Canonical metric names for the caching subsystem.
//!
//! `rdfmesh-cache`, the engine and the network all record cache
//! behaviour into the [`crate::metrics()`] registry; centralizing the
//! names here keeps producers and dashboards (EXPERIMENTS.md §E15,
//! `BENCH_experiments.json`) in agreement.

/// Routing-cache hit: a level-1 Chord walk was replaced by one direct
/// message to the remembered owner.
pub const CACHE_ROUTING_HITS: &str = "cache.routing.hits";
/// Routing-cache miss (absent, expired TTL, or stale ring epoch).
pub const CACHE_ROUTING_MISSES: &str = "cache.routing.misses";
/// Provider-set cache hit: both index levels short-circuited.
pub const CACHE_PROVIDER_HITS: &str = "cache.provider.hits";
/// Provider-set cache miss (absent, stale row version, or stale epoch).
pub const CACHE_PROVIDER_MISSES: &str = "cache.provider.misses";
/// Sub-query result cache hit: the primitive pattern was answered at the
/// initiator without contacting any provider.
pub const CACHE_RESULT_HITS: &str = "cache.result.hits";
/// Sub-query result cache miss.
pub const CACHE_RESULT_MISSES: &str = "cache.result.misses";
/// Result-cache candidates rejected by the frequency-sketch admission
/// policy (their estimated popularity did not beat the eviction victim).
pub const CACHE_RESULT_REJECTED: &str = "cache.result.admission_rejected";
/// Entries dropped on use because their version or epoch was stale.
pub const CACHE_STALE_DROPS: &str = "cache.stale_drops";
/// Bytes sent while executing a query path that began with a cache hit.
pub const NET_BYTES_CACHE_HIT_PATH: &str = "net.bytes.cache_hit_path";
/// Bytes sent while executing a cold (cache-miss) query path.
pub const NET_BYTES_CACHE_MISS_PATH: &str = "net.bytes.cache_miss_path";
/// Per-query end-to-end response time in simulated microseconds.
pub const ENGINE_RESPONSE_TIME_US: &str = "engine.response_time_us";

// ---- live-mesh fault tolerance (docs/FAULTS.md) ----------------------

/// Sub-query or lookup retransmissions after an ack deadline expired.
pub const LIVE_RETRIES: &str = "live.retries";
/// Providers declared dead after the bounded retries were exhausted
/// (the Sect. III-D query-ack timeout on real threads).
pub const LIVE_ACK_TIMEOUTS: &str = "live.ack_timeouts";
/// `Outbox::send` failures (crashed/unknown peer), each treated as an
/// immediate ack timeout.
pub const LIVE_SEND_FAILURES: &str = "live.send_failures";
/// Replies dropped because they named no in-flight query, a provider
/// that already answered, or an already-finished query.
pub const LIVE_STALE_REPLIES: &str = "live.stale_replies";
/// Location-table entries lazily removed by `ProviderDead` notifications
/// (Sect. III-C/D lazy cleanup, live protocol).
pub const LIVE_PROVIDERS_PURGED: &str = "live.providers_purged";
/// Queries that completed with `complete == false` (lost providers or
/// expired deadlines) instead of hanging.
pub const LIVE_INCOMPLETE_QUERIES: &str = "live.incomplete_queries";
/// Lookups abandoned because the index node never answered within the
/// lookup deadline (after the bounded retry).
pub const LIVE_LOOKUP_FAILURES: &str = "live.lookup_failures";

// ---- TCP socket transport (docs/DEPLOYMENT.md) -----------------------

/// Frames written to peer sockets (envelopes, control, barriers).
pub const TRANSPORT_FRAMES_SENT: &str = "transport.frames_sent";
/// Frames decoded off inbound connections.
pub const TRANSPORT_FRAMES_RECEIVED: &str = "transport.frames_received";
/// On-wire bytes written, frame headers included.
pub const TRANSPORT_BYTES_SENT: &str = "transport.bytes_sent";
/// On-wire bytes read, frame headers included.
pub const TRANSPORT_BYTES_RECEIVED: &str = "transport.bytes_received";
/// Successful outbound connections (first dials and re-dials).
pub const TRANSPORT_CONNECTS: &str = "transport.connects";
/// Re-dials that replaced a broken connection.
pub const TRANSPORT_RECONNECTS: &str = "transport.reconnects";
/// Sends that failed even after the reconnect attempt (the socket
/// analogue of `Outbox::send` returning `false`).
pub const TRANSPORT_SEND_FAILURES: &str = "transport.send_failures";
/// Handshake failures, malformed frames, and undecodable payloads.
pub const TRANSPORT_DECODE_ERRORS: &str = "transport.decode_errors";

// ---- backend-agnostic execution core (docs/EXECUTION.md) -------------

/// Plans executed through the backend-agnostic executor (`exec::run`).
pub const EXEC_PLANS: &str = "exec.plans";
/// Operator-node count per executed plan (histogram).
pub const EXEC_PLAN_NODES: &str = "exec.plan_nodes";
/// Primitive sub-queries resolved through a mesh backend.
pub const EXEC_PRIMITIVES: &str = "exec.primitives";
/// Bound-pattern sub-queries (intermediate solutions shipped with the
/// pattern) resolved through a mesh backend.
pub const EXEC_BOUND_SUBQUERIES: &str = "exec.bound_subqueries";
/// Binary operators (join / union / left join) executed over
/// materializations.
pub const EXEC_BINARY_OPS: &str = "exec.binary_ops";
/// Residual filters applied to a materialization by the executor.
pub const EXEC_RESIDUAL_FILTERS: &str = "exec.residual_filters";
/// Multiway BGP joins executed as one distributed round (HyperCube
/// shuffle or partial-evaluation-and-assembly).
pub const EXEC_MULTIWAY_JOINS: &str = "exec.multiway_joins";

// ---- distribution-strategy seam (docs/EXECUTION.md) ------------------

/// Multi-pattern BGPs the planner compiled to chained shipping.
pub const EXEC_STRATEGY_CHAINED: &str = "exec.strategy.chained.chosen";
/// Multi-pattern BGPs the planner compiled to HyperCube shuffle.
pub const EXEC_STRATEGY_HYPERCUBE: &str = "exec.strategy.hypercube.chosen";
/// Multi-pattern BGPs the planner compiled to
/// partial-evaluation-and-assembly.
pub const EXEC_STRATEGY_PARTIAL_EVAL: &str = "exec.strategy.partial_eval.chosen";
/// Solution partitions shipped peer-to-peer by HyperCube shuffles.
pub const EXEC_STRATEGY_SHUFFLE_PARTS: &str = "exec.strategy.shuffle_parts";
/// Wire bytes of peer-to-peer shuffle partitions.
pub const EXEC_STRATEGY_SHUFFLE_BYTES: &str = "exec.strategy.shuffle_bytes";
/// Assembled rows that stitched partial matches from more than one
/// provider (rows no single provider could produce locally).
pub const EXEC_STRATEGY_STITCHED_ROWS: &str = "exec.strategy.assembly_stitched_rows";
// ---- persistent store bulk ingest (docs/STORAGE.md) ------------------

/// N-Triples statements parsed by the bulk-load pipeline (pre-dedup).
pub const STORE_LOAD_STATEMENTS: &str = "store.load.statements";
/// Distinct triples added to the store by bulk loads.
pub const STORE_LOAD_TRIPLES: &str = "store.load.triples";
/// Input bytes consumed by bulk loads.
pub const STORE_LOAD_BYTES: &str = "store.load.bytes";
/// Wall-clock microseconds spent inside bulk loads.
pub const STORE_LOAD_MICROS: &str = "store.load.micros";
/// Sorted runs spilled to disk during bulk loads.
pub const STORE_LOAD_RUNS: &str = "store.load.runs";

// ---- persistent store durability (docs/STORAGE.md) -------------------

/// Records appended (and fsynced) to the write-ahead log.
pub const STORE_WAL_APPENDS: &str = "store.wal.appends";
/// Bytes appended to the write-ahead log.
pub const STORE_WAL_BYTES: &str = "store.wal.bytes";
/// WAL records replayed into the overlay at open — acknowledged writes
/// that a crash would previously have dropped.
pub const STORE_WAL_REPLAYED: &str = "store.wal.replayed";
/// Write-ahead logs retired by sealing the overlay into a generation.
pub const STORE_WAL_SEALS: &str = "store.wal.seals";
/// Overlay flushes that sealed at least one key.
pub const STORE_FLUSH_COUNT: &str = "store.flush.count";
/// Overlay entries (adds + tombstones) sealed by flushes.
pub const STORE_FLUSH_KEYS: &str = "store.flush.keys";
/// Generation merges performed by the compaction policy.
pub const STORE_COMPACT_COUNT: &str = "store.compact.count";
/// Logical keys written by compaction merges (write amplification).
pub const STORE_COMPACT_KEYS: &str = "store.compact.keys";

/// Solution-gathering rounds issued by the live execution backend.
pub const LIVE_SOLUTION_ROUNDS: &str = "live.solution_rounds";
/// Solution mappings shipped as intermediate results by live storage
/// nodes.
pub const LIVE_SOLUTIONS_SHIPPED: &str = "live.solutions_shipped";
/// Wire bytes of shipped solution sets (bound sets out, extensions
/// back), measured with the `solution::wire` codec.
pub const LIVE_SOLUTION_BYTES: &str = "live.solution_bytes";
/// Bind-join key rows the coordinator sent in sub-query frames, counted
/// per provider frame.
pub const LIVE_BOUND_KEYS_SHIPPED: &str = "live.bound_keys_shipped";
/// Bind-join provider legs sent the bare pattern (their key set was not
/// the smaller side) and joined with the keys at the coordinator.
pub const LIVE_GATHERED_LEGS: &str = "live.gathered_legs";

// ---- multi-query admission control (docs/EXECUTION.md) ----

/// Query executions admitted into the bounded in-flight window
/// (immediately or after waiting in the queue).
pub const LIVE_ADMITTED: &str = "live.admitted";
/// Query executions that had to wait in the bounded queue before a
/// window slot opened.
pub const LIVE_QUEUED: &str = "live.queued";
/// Query executions rejected under overload (queue full, or the queue
/// wait outlived the query deadline) — surfaced as HTTP 503.
pub const LIVE_REJECTED: &str = "live.rejected";
