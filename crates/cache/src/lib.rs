//! Query-path caching and adaptive hot-key replication for rdfmesh.
//!
//! The paper's two-level distributed index charges every sub-query an
//! O(log N) Chord walk (level 1) plus a location-table read (level 2)
//! before any triple moves. This crate removes that cost for repeated
//! work with three initiator-side caches, layered by how much of the
//! query path each short-circuits:
//!
//! 1. **Routing cache** ([`RoutingCache`]) — key → owning index node.
//!    A hit replaces the ring walk with one direct message. Invalidated
//!    by a TTL in simulated time and by the overlay's ring epoch, which
//!    bumps on every index join/leave/failure/repair.
//! 2. **Provider-set cache** ([`ProviderCache`]) — key → row snapshot
//!    with the row's version counter. A hit skips both index levels.
//!    The overlay bumps the version on every publish/unpublish/purge
//!    touching the key, and pushes invalidation notifications to
//!    subscribed initiators.
//! 3. **Result cache** ([`ResultCache`]) — primitive pattern →
//!    solutions, byte-budgeted with TinyLFU-style sketch admission. A
//!    hit answers the pattern locally with zero messages.
//!
//! The fourth layer — adaptive hot-key replication — lives in the
//! overlay itself (`Overlay::enable_hot_replication`): index nodes
//! count per-key lookups and push hot rows to their ring successors so
//! level-1 walks terminate early even for *cold* caches.
//!
//! Everything is deterministic: time is [`SimTime`] advanced by the
//! engine, popularity uses a seeded sketch, and no entry is ever served
//! without validating its version/epoch/liveness on use. Every hit,
//! miss, admission rejection and stale drop is recorded in the
//! `rdfmesh-obs` metrics registry under the names in
//! [`rdfmesh_obs::names`]. See `docs/CACHING.md` for the design
//! rationale and the coherence argument.

#![warn(missing_docs)]

mod provider;
mod results;
mod routing;
mod sketch;

use rdfmesh_chord::Id;
use rdfmesh_net::{NodeId, SimTime};
use rdfmesh_obs::names;
use rdfmesh_overlay::Provider;
use rdfmesh_rdf::TriplePattern;
use rdfmesh_sparql::Rows;

pub use provider::ProviderCache;
pub use results::{ResultCache, ResultEntry};
pub use routing::RoutingCache;
pub use sketch::FrequencySketch;

/// Why a lookup in one of the three caches served nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Miss {
    /// No entry for the key or pattern.
    Absent,
    /// An entry existed but was stale — an expired TTL, an older row
    /// version or ring epoch, or a recorded provider no longer alive —
    /// and has been dropped.
    Stale,
}

/// Sizing and policy knobs for a [`QueryCache`]. `Copy`, so call sites
/// can embed it in larger `Copy` configs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// How long a routing entry stays fresh on the cache's simulated
    /// clock (epoch staleness invalidates sooner regardless).
    pub routing_ttl: SimTime,
    /// Maximum key → owner bindings held by the routing cache.
    pub routing_capacity: usize,
    /// Maximum row snapshots held by the provider-set cache.
    pub provider_capacity: usize,
    /// Serialized-byte budget for the result cache.
    pub result_budget_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            routing_ttl: SimTime::millis(30_000),
            routing_capacity: 4096,
            provider_capacity: 4096,
            result_budget_bytes: 256 * 1024,
        }
    }
}

/// Running hit/miss/coherence counters, readable without the metrics
/// registry (which may be disabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Routing-cache hits.
    pub routing_hits: u64,
    /// Routing-cache misses (absent, expired, or stale epoch).
    pub routing_misses: u64,
    /// Provider-set cache hits.
    pub provider_hits: u64,
    /// Provider-set cache misses.
    pub provider_misses: u64,
    /// Result-cache hits.
    pub result_hits: u64,
    /// Result-cache misses.
    pub result_misses: u64,
    /// Result candidates rejected by sketch admission.
    pub admission_rejected: u64,
    /// Entries of any layer dropped on use for staleness.
    pub stale_drops: u64,
}

/// The per-initiator cache stack the engine consults before every
/// index lookup.
///
/// Owns a simulated clock that the engine advances after each query;
/// the routing TTL is measured against it. All staleness checks take
/// the authoritative version/epoch as arguments — the cache never
/// reaches into the overlay itself, which keeps it usable from any
/// execution context.
#[derive(Debug)]
pub struct QueryCache {
    cfg: CacheConfig,
    clock: SimTime,
    routing: RoutingCache,
    providers: ProviderCache,
    results: ResultCache,
    stats: CacheStats,
}

impl QueryCache {
    /// An empty cache stack with the given configuration.
    pub fn new(cfg: CacheConfig) -> Self {
        QueryCache {
            cfg,
            clock: SimTime::ZERO,
            routing: RoutingCache::new(cfg.routing_capacity),
            providers: ProviderCache::new(cfg.provider_capacity),
            results: ResultCache::new(cfg.result_budget_bytes),
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// The cache's current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Advances the simulated clock (the engine calls this once per
    /// executed query with the query's response time plus think time, so
    /// routing TTLs expire across queries even though per-query network
    /// clocks restart at zero).
    pub fn advance_clock(&mut self, elapsed: SimTime) {
        self.clock += elapsed;
    }

    /// Accumulated hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Looks up the remembered owner for `key` under ring epoch `epoch`.
    pub fn lookup_route(&mut self, key: Id, epoch: u64) -> Option<NodeId> {
        let m = rdfmesh_obs::metrics();
        match self.routing.get(key, self.clock, epoch) {
            Ok(owner) => {
                self.stats.routing_hits += 1;
                m.add(names::CACHE_ROUTING_HITS, 1);
                Some(owner)
            }
            Err(miss) => {
                self.stats.routing_misses += 1;
                m.add(names::CACHE_ROUTING_MISSES, 1);
                if miss == Miss::Stale {
                    self.stats.stale_drops += 1;
                    m.add(names::CACHE_STALE_DROPS, 1);
                }
                None
            }
        }
    }

    /// Remembers `owner` for `key`, fresh for the configured TTL.
    pub fn store_route(&mut self, key: Id, owner: NodeId, epoch: u64) {
        self.routing.insert(key, owner, epoch, self.clock + self.cfg.routing_ttl);
    }

    /// Looks up the provider-row snapshot for `key`, valid only at
    /// (`version`, `epoch`).
    pub fn lookup_providers(
        &mut self,
        key: Id,
        version: u64,
        epoch: u64,
    ) -> Option<(NodeId, Vec<Provider>)> {
        let m = rdfmesh_obs::metrics();
        match self.providers.get(key, version, epoch) {
            Ok(hit) => {
                self.stats.provider_hits += 1;
                m.add(names::CACHE_PROVIDER_HITS, 1);
                Some(hit)
            }
            Err(miss) => {
                self.stats.provider_misses += 1;
                m.add(names::CACHE_PROVIDER_MISSES, 1);
                if miss == Miss::Stale {
                    self.stats.stale_drops += 1;
                    m.add(names::CACHE_STALE_DROPS, 1);
                }
                None
            }
        }
    }

    /// Stores a provider-row snapshot taken at (`version`, `epoch`).
    pub fn store_providers(
        &mut self,
        key: Id,
        owner: NodeId,
        providers: Vec<Provider>,
        version: u64,
        epoch: u64,
    ) {
        self.providers.insert(key, owner, providers, version, epoch);
    }

    /// Looks up a cached result for `pattern`. `alive` must report
    /// storage-node liveness; any dead recorded provider voids the entry
    /// (matching the cold path, which would lose that provider's
    /// solutions to a timeout).
    pub fn lookup_result(
        &mut self,
        pattern: &TriplePattern,
        version: u64,
        epoch: u64,
        alive: &dyn Fn(NodeId) -> bool,
    ) -> Option<Rows> {
        self.results.touch(pattern);
        let m = rdfmesh_obs::metrics();
        match self.results.get(pattern, version, epoch, alive) {
            Ok(solutions) => {
                self.stats.result_hits += 1;
                m.add(names::CACHE_RESULT_HITS, 1);
                Some(solutions)
            }
            Err(miss) => {
                self.stats.result_misses += 1;
                m.add(names::CACHE_RESULT_MISSES, 1);
                if miss == Miss::Stale {
                    self.stats.stale_drops += 1;
                    m.add(names::CACHE_STALE_DROPS, 1);
                }
                None
            }
        }
    }

    /// Offers a result for sketch-gated admission; returns whether it
    /// was stored.
    pub fn store_result(&mut self, pattern: TriplePattern, entry: ResultEntry) -> bool {
        let admitted = self.results.insert(pattern, entry);
        if !admitted {
            self.stats.admission_rejected += 1;
            rdfmesh_obs::metrics().add(names::CACHE_RESULT_REJECTED, 1);
        }
        admitted
    }

    /// Live entry counts per layer: (routing, providers, results).
    pub fn sizes(&self) -> (usize, usize, usize) {
        (self.routing.len(), self.providers.len(), self.results.len())
    }

    /// Drops every cached entry (counters and clock are kept).
    pub fn clear(&mut self) {
        self.routing.clear();
        self.providers.clear();
        self.results.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_track_hits_misses_and_stale_drops() {
        let mut c = QueryCache::new(CacheConfig::default());
        assert_eq!(c.lookup_route(Id(1), 0), None);
        c.store_route(Id(1), NodeId(5), 0);
        assert_eq!(c.lookup_route(Id(1), 0), Some(NodeId(5)));
        // Epoch bump: stale drop, then absent.
        assert_eq!(c.lookup_route(Id(1), 1), None);
        let s = c.stats();
        assert_eq!(s.routing_hits, 1);
        assert_eq!(s.routing_misses, 2);
        assert_eq!(s.stale_drops, 1);
    }

    #[test]
    fn clock_drives_routing_ttl() {
        let cfg = CacheConfig { routing_ttl: SimTime::millis(10), ..CacheConfig::default() };
        let mut c = QueryCache::new(cfg);
        c.store_route(Id(1), NodeId(5), 0);
        c.advance_clock(SimTime::millis(9));
        assert_eq!(c.lookup_route(Id(1), 0), Some(NodeId(5)));
        c.advance_clock(SimTime::millis(1));
        assert_eq!(c.lookup_route(Id(1), 0), None, "expires exactly at TTL");
    }

    #[test]
    fn provider_roundtrip_with_version_invalidation() {
        let mut c = QueryCache::new(CacheConfig::default());
        let row = vec![Provider { node: NodeId(7), frequency: 2 }];
        c.store_providers(Id(9), NodeId(100), row.clone(), 4, 1);
        assert_eq!(c.lookup_providers(Id(9), 4, 1), Some((NodeId(100), row)));
        assert_eq!(c.lookup_providers(Id(9), 5, 1), None);
        assert_eq!(c.stats().stale_drops, 1);
    }
}
