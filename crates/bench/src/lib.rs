//! # rdfmesh-bench — the experiment harness
//!
//! Shared testbed construction and table rendering for the deferred
//! evaluation suite (EXPERIMENTS.md §E1-§E21). The `experiments` binary
//! regenerates every table and can emit a machine-readable summary:
//!
//! ```sh
//! cargo run -p rdfmesh-bench --bin experiments --release        # all
//! cargo run -p rdfmesh-bench --bin experiments --release -- e3  # one
//! cargo run -p rdfmesh-bench --bin experiments --release -- --json out.json e2 e15
//! ```
//!
//! Wall-clock on the live mesh is not measured here: the repo benchmark
//! (`benchmark/`, `BENCHMARK.json`) times real `serve` processes end to
//! end and layer by layer.

#![warn(missing_docs)]

pub mod experiments;

use rdfmesh_core::{CacheConfig, CacheStats, Engine, ExecConfig, Execution, QueryCache, QueryStats};
use rdfmesh_net::{LatencyModel, Network, NodeId, SimTime};
use rdfmesh_overlay::Overlay;
use rdfmesh_rdf::Triple;
use rdfmesh_workload::{foaf, FoafConfig};

/// A ready-to-query overlay plus the address queries are submitted from.
pub struct Testbed {
    /// The overlay under test.
    pub overlay: Overlay,
    /// The query initiator (the first index node).
    pub initiator: NodeId,
    /// The initiator's query-path cache, when enabled (persists across
    /// `run*` calls so repeated queries can hit).
    cache: Option<QueryCache>,
}

/// Index-node addresses start here; storage nodes count from 1.
pub const INDEX_BASE: u64 = 100_000;

/// Builds an overlay with `index_nodes` ring members (hashed positions)
/// and one storage node per entry of `datasets`, attached round-robin.
pub fn testbed_from(datasets: &[Vec<Triple>], index_nodes: usize) -> Testbed {
    testbed_with_net(datasets, index_nodes, lan())
}

/// [`testbed_from`] with an explicit network (latency experiments).
pub fn testbed_with_net(datasets: &[Vec<Triple>], index_nodes: usize, net: Network) -> Testbed {
    assert!(index_nodes > 0);
    let mut overlay = Overlay::new(32, 4, 2, net);
    for i in 0..index_nodes as u64 {
        let addr = NodeId(INDEX_BASE + i);
        let pos = overlay.ring().space().hash(&addr.0.to_be_bytes());
        overlay.add_index_node(addr, pos).expect("index join");
    }
    for (i, triples) in datasets.iter().enumerate() {
        let attach = NodeId(INDEX_BASE + (i as u64 % index_nodes as u64));
        overlay
            .add_storage_node(NodeId(1 + i as u64), attach, triples.clone())
            .expect("storage join");
    }
    Testbed { overlay, initiator: NodeId(INDEX_BASE), cache: None }
}

/// A FOAF testbed from generator configuration.
pub fn foaf_testbed(cfg: &FoafConfig, index_nodes: usize) -> Testbed {
    let data = foaf::generate(cfg);
    testbed_from(&data.peers, index_nodes)
}

/// The default 1 ms / 100 Mbit network.
pub fn lan() -> Network {
    Network::new(LatencyModel::Uniform(SimTime::millis(1)), 12.5)
}

impl Testbed {
    /// Attaches a query-path cache that persists across `run*` calls, so
    /// repeated queries exercise the hit paths. Call with a fresh config
    /// to reset it.
    pub fn enable_cache(&mut self, cfg: CacheConfig) {
        self.cache = Some(QueryCache::new(cfg));
    }

    /// Detaches the cache, restoring exactly-uncached execution.
    pub fn disable_cache(&mut self) {
        self.cache = None;
    }

    /// The attached cache's hit/miss statistics, if one is attached.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Runs one query under `cfg` with fresh network counters.
    pub fn run(&mut self, cfg: ExecConfig, query: &str) -> QueryStats {
        self.run_full(cfg, query).stats
    }

    /// Runs one query and also returns the result size for recall checks.
    pub fn run_counting(&mut self, cfg: ExecConfig, query: &str) -> (QueryStats, usize) {
        let exec = self.run_full(cfg, query);
        let n = exec.result.len();
        (exec.stats, n)
    }

    /// Runs one query and returns the full [`Execution`] (stats plus the
    /// actual result, for cached-vs-cold divergence checks).
    pub fn run_full(&mut self, cfg: ExecConfig, query: &str) -> Execution {
        self.overlay.net.reset();
        match self.cache.as_mut() {
            Some(cache) => Engine::with_cache(&mut self.overlay, cfg, cache)
                .execute(self.initiator, query)
                .expect("query execution"),
            None => Engine::new(&mut self.overlay, cfg)
                .execute(self.initiator, query)
                .expect("query execution"),
        }
    }

    /// Runs one query recording a full lifecycle trace (see
    /// `docs/OBSERVABILITY.md`): every phase a span, every message
    /// charged to its phase, with the per-phase breakdown summing
    /// exactly to the returned statistics.
    pub fn run_traced(
        &mut self,
        cfg: ExecConfig,
        query: &str,
    ) -> (QueryStats, rdfmesh_obs::QueryTrace) {
        self.overlay.net.reset();
        let (exec, trace) = Engine::new(&mut self.overlay, cfg)
            .execute_traced(self.initiator, query)
            .expect("query execution");
        (exec.stats, trace)
    }
}

/// Renders a Markdown table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n### {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(4)))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let seps: Vec<String> = widths.iter().map(|w| format!("{:->w$}", "", w = w)).collect();
    println!("|-{}-|", seps.join("-|-"));
    for row in rows {
        line(row);
    }
}

/// Formats simulated time as milliseconds.
pub fn fmt_ms(t: SimTime) -> String {
    format!("{:.2}", t.as_millis_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_builds_and_answers() {
        let mut tb = foaf_testbed(&FoafConfig { persons: 20, peers: 4, ..Default::default() }, 3);
        let stats = tb.run(ExecConfig::default(), "SELECT ?x WHERE { ?x foaf:knows ?y . }");
        assert!(stats.result_size > 0);
    }

    #[test]
    fn run_resets_counters_between_queries() {
        let mut tb = foaf_testbed(&FoafConfig { persons: 20, peers: 4, ..Default::default() }, 3);
        let q = "SELECT ?x WHERE { ?x foaf:knows ?y . }";
        let a = tb.run(ExecConfig::default(), q);
        let b = tb.run(ExecConfig::default(), q);
        assert_eq!(a.total_bytes, b.total_bytes, "identical reruns must cost the same");
    }
}
