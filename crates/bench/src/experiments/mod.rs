//! The deferred-evaluation experiment suite (EXPERIMENTS.md §E1-§E21).
//!
//! Each module prints one or more Markdown tables; `run_all` regenerates
//! the whole of EXPERIMENTS.md's measured data. The simulator
//! experiments are seeded and deterministic; E19 and E21 time the store
//! in-process. Nothing here times the live mesh: that stopwatch is the
//! repo benchmark's (`benchmark/`), and E17, E18, E20 and E22, which held
//! one, are retired numbers, as is E23, which timed the solution algebra
//! (EXPERIMENTS.md §Retired). Each run also returns the experiment's
//! metrics [`Snapshot`](rdfmesh_obs::Snapshot) so callers (the
//! `experiments` binary) can emit machine-readable summaries.

pub mod e01_chord_scalability;
pub mod e02_primitive_strategies;
pub mod e03_frequency_skew;
pub mod e04_join_ordering;
pub mod e05_overlap_sites;
pub mod e06_optional_movesmall;
pub mod e07_union_sharednode;
pub mod e08_filter_pushing;
pub mod e09_join_site_selection;
pub mod e10_churn;
pub mod e11_adaptive;
pub mod e12_rdfpeers;
pub mod e13_system_scalability;
pub mod e14_range_index;
pub mod e15_cache;
pub mod e16_live_churn;
pub mod e19_store_scale;
pub mod e21_store_durability;

/// `(id, description, runner)` for every experiment.
pub fn all() -> Vec<(&'static str, &'static str, fn())> {
    vec![
        ("e1", "Chord lookup scalability and index balance", e01_chord_scalability::run),
        ("e2", "Primitive strategies: bytes vs response time", e02_primitive_strategies::run),
        ("e3", "Provider skew: where frequency-ordered chains win", e03_frequency_skew::run),
        ("e4", "Frequency-driven join ordering", e04_join_ordering::run),
        ("e5", "Overlap-aware site selection for conjunctions", e05_overlap_sites::run),
        ("e6", "Move-small for OPTIONAL patterns", e06_optional_movesmall::run),
        ("e7", "Shared-node assembly for UNION patterns", e07_union_sharednode::run),
        ("e8", "Filter pushing to the data sources", e08_filter_pushing::run),
        ("e9", "Join-site selection under heterogeneous links", e09_join_site_selection::run),
        ("e10", "Churn: resilience of the two-level index", e10_churn::run),
        ("e11", "Cost-based strategy selection under mixed objectives", e11_adaptive::run),
        ("e12", "Architectural comparison against RDFPeers", e12_rdfpeers::run),
        ("e13", "Whole-system scalability", e13_system_scalability::run),
        ("e14", "Numeric range queries: bucketed index vs gather vs RDFPeers", e14_range_index::run),
        ("e15", "Query-path caching and adaptive hot-key replication", e15_cache::run),
        ("e16", "Live-mesh churn soak: fault tolerance on real threads", e16_live_churn::run),
        ("e19", "Persistent-store scale ladder: bulk load, lookup, memory", e19_store_scale::run),
        ("e21", "Durable writes: WAL overhead, flush latency, write amplification", e21_store_durability::run),
    ]
}

/// One experiment's identity plus the metrics it recorded while running.
pub struct ExperimentRecord {
    /// Registry id (`e1` … `e21`).
    pub id: &'static str,
    /// Human-readable title from the registry.
    pub title: &'static str,
    /// Metrics snapshot captured over exactly this experiment's run.
    pub snapshot: rdfmesh_obs::Snapshot,
}

/// Runs one experiment with the metrics registry recording, then prints
/// the per-experiment snapshot: a human-readable table always, plus
/// JSON-lines (scoped by experiment id) when `RDFMESH_METRICS_JSON` is
/// set in the environment. Returns the captured snapshot.
fn run_instrumented(id: &'static str, title: &'static str, runner: fn()) -> ExperimentRecord {
    println!("\n## {} — {}", id.to_uppercase(), title);
    let metrics = rdfmesh_obs::metrics();
    metrics.reset();
    metrics.enable();
    runner();
    metrics.disable();
    let snap = metrics.snapshot();
    if !snap.is_empty() {
        println!("\n### {id} metrics\n");
        println!("```");
        print!("{}", snap.render_table());
        println!("```");
        if std::env::var_os("RDFMESH_METRICS_JSON").is_some() {
            print!("{}", snap.to_json_lines(id));
        }
    }
    ExperimentRecord { id, title, snapshot: snap }
}

/// Runs every experiment in order, returning one record per experiment.
pub fn run_all() -> Vec<ExperimentRecord> {
    all()
        .into_iter()
        .map(|(id, title, runner)| run_instrumented(id, title, runner))
        .collect()
}

/// Runs one experiment by a registry id. The set of valid ids is exactly
/// what [`all`] lists — unknown ids return `None` so the caller can show
/// the registry-derived choices.
pub fn run_one(id: &str) -> Option<ExperimentRecord> {
    all()
        .into_iter()
        .find(|(eid, _, _)| *eid == id)
        .map(|(eid, title, runner)| run_instrumented(eid, title, runner))
}

#[cfg(test)]
mod tests {
    use super::{all, run_one};
    use std::collections::HashSet;

    /// Numbers of retired experiments (EXPERIMENTS.md §Retired). Like a
    /// wire tag, a retired number is never handed to a new experiment.
    const RETIRED: [u32; 4] = [17, 18, 20, 22];

    /// The registry is the single source of truth for ids, titles, and
    /// the unknown-id error message — so it must stay self-consistent:
    /// ids `eN` unique, titles non-empty, and a retired number never
    /// handed to a new experiment.
    #[test]
    fn registry_is_self_consistent() {
        let reg = all();
        assert!(!reg.is_empty());
        let mut seen = HashSet::new();
        for (id, title, _) in &reg {
            let number: u32 = id
                .strip_prefix('e')
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("experiment id {id} is not `e<number>`"));
            assert!(!RETIRED.contains(&number), "{id} reuses a retired number");
            assert!(seen.insert(*id), "duplicate experiment id {id}");
            assert!(!title.is_empty(), "experiment {id} needs a title");
        }
        assert!(run_one("e17").is_none(), "a retired id is unknown to the binary");
    }
}
