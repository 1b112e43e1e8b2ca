//! Golden twin-run regression for the backend-agnostic execution core.
//!
//! The fixture `fixtures/exec_golden.txt` was captured from the
//! pre-refactor `Engine` (the monolithic engine.rs that executed the
//! distributed pipeline directly against the simulated overlay), by
//! running `RDFMESH_UPDATE_GOLDEN=1 cargo test -p rdfmesh-bench --test
//! exec_golden` at the commit *before* the `MeshBackend`/`ExecPlan`
//! extraction. Every line is one `(workload, query, config)` cell:
//! the full [`QueryStats`] (bytes, messages, simulated response time,
//! index hops, providers contacted, dead providers, intermediate
//! solutions, result size) plus an FNV-1a digest of the query result's
//! debug rendering.
//!
//! The refactored engine — planning to an [`ExecPlan`] and executing it
//! through `SimBackend` — must reproduce every line byte-for-byte. The
//! simulated testbeds are deterministic, so any drift means the backend
//! seam changed observable behaviour, not just code layout.
//!
//! The fixture was re-cut twice since. First, when the simulator's bind
//! step became the mesh's keyed round: only the `bind_join` lines whose
//! query has a bind step moved (fewer bytes, more messages, the same
//! results; one digest differs by row order alone). Second, when every
//! message carrying a sub-query or solutions came to be charged at the
//! length of the `LiveMsg` frame the mesh sends for it instead of by an
//! N-Triples size model: `bytes` and `rt` moved on every line that ships
//! one (the ASK lines only by their sub-query frames), and `digest`,
//! `results`, `hops`, `prov`, `dead`, `inter` and `msgs` stayed as they
//! were on every line.

use rdfmesh_bench::{foaf_testbed, testbed_from, Testbed};
use rdfmesh_core::{ExecConfig, PrimitiveStrategy};
use rdfmesh_rdf::Term;
use rdfmesh_workload::{
    foaf, queries,
    rng::Rng,
    university::{self, ub, UniversityConfig},
    FoafConfig,
};

const FIXTURE: &str = include_str!("fixtures/exec_golden.txt");

fn foaf_cfg() -> FoafConfig {
    FoafConfig { persons: 120, peers: 6, seed: 2026, ..FoafConfig::default() }
}

fn univ_cfg() -> UniversityConfig {
    UniversityConfig { departments: 4, seed: 77, ..UniversityConfig::default() }
}

/// Same operator coverage as the algebra twin-run, plus an ASK (fast
/// path) and an all-variable pattern (flood path).
fn foaf_queries() -> Vec<String> {
    let dataset = foaf::generate(&foaf_cfg());
    let pool: Vec<_> = dataset.peers.iter().flatten().cloned().collect();
    let mut rng = Rng::new(42);
    let knows = Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS);
    let name = Term::iri(rdfmesh_rdf::vocab::foaf::NAME);
    let nick = Term::iri(rdfmesh_rdf::vocab::foaf::NICK);
    vec![
        queries::star_query(&pool, 2, &mut rng),
        queries::star_query(&pool, 3, &mut rng),
        queries::chain_query(&knows, 2),
        queries::union_query(&name, &nick),
        queries::optional_query(&name, &nick),
        queries::filter_query(&name, &knows, "a"),
        format!("SELECT DISTINCT ?x WHERE {{ ?x <{}> ?y . }}", rdfmesh_rdf::vocab::foaf::KNOWS),
        format!("ASK {{ ?x <{}> ?y . }}", rdfmesh_rdf::vocab::foaf::KNOWS),
    ]
}

fn univ_queries() -> Vec<String> {
    let advisor = Term::iri(ub::ADVISOR);
    let works_for = Term::iri(ub::WORKS_FOR);
    let teacher_of = Term::iri(ub::TEACHER_OF);
    let takes = Term::iri(ub::TAKES_COURSE);
    vec![
        queries::chain_query(&advisor, 1),
        queries::union_query(&works_for, &teacher_of),
        queries::optional_query(&takes, &advisor),
        format!(
            "SELECT * WHERE {{ ?s <{}> ?prof . ?prof <{}> ?dept . }}",
            ub::ADVISOR,
            ub::WORKS_FOR
        ),
    ]
}

/// The configs sweep every compile-time branch of the plan: primitive
/// strategy dispatch, bind-join vs ship-and-join, and the paper
/// baseline (no overlap hints, no frequency ordering, no range index).
fn configs() -> Vec<(&'static str, ExecConfig)> {
    vec![
        ("default", ExecConfig::default()),
        ("chained", ExecConfig { primitive: PrimitiveStrategy::Chained, ..ExecConfig::default() }),
        (
            "freq",
            ExecConfig { primitive: PrimitiveStrategy::FrequencyOrdered, ..ExecConfig::default() },
        ),
        ("bind_join", ExecConfig { bind_join: true, ..ExecConfig::default() }),
        ("baseline", ExecConfig::baseline()),
    ]
}

/// FNV-1a, 64-bit: stable across platforms and rustc versions (unlike
/// `DefaultHasher`), so the digest can live in a committed fixture.
fn fnv64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn sweep(label: &str, testbed: &mut Testbed, queries: &[String], out: &mut Vec<String>) {
    for (qi, q) in queries.iter().enumerate() {
        for (cname, cfg) in configs() {
            let exec = testbed.run_full(cfg, q);
            let s = &exec.stats;
            out.push(format!(
                "{label}|q{qi}|{cname}|bytes={} msgs={} rt={} hops={} prov={} dead={} inter={} results={} digest={:016x}",
                s.total_bytes,
                s.messages,
                s.response_time.0,
                s.index_hops,
                s.providers_contacted,
                s.dead_providers,
                s.intermediate_solutions,
                s.result_size,
                fnv64(&format!("{:?}", exec.result)),
            ));
        }
    }
}

fn current_lines() -> Vec<String> {
    let mut out = Vec::new();
    let mut tb = foaf_testbed(&foaf_cfg(), 4);
    sweep("foaf", &mut tb, &foaf_queries(), &mut out);
    let univ_data = university::generate(&univ_cfg());
    let mut tb = testbed_from(&univ_data.peers, 3);
    sweep("univ", &mut tb, &univ_queries(), &mut out);
    out
}

#[test]
fn engine_matches_pre_refactor_golden_fixture() {
    let lines = current_lines();
    if std::env::var_os("RDFMESH_UPDATE_GOLDEN").is_some() {
        let path =
            concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/exec_golden.txt");
        std::fs::write(path, lines.join("\n") + "\n").expect("write fixture");
        eprintln!("rewrote {path} ({} lines)", lines.len());
        return;
    }
    let expected: Vec<&str> = FIXTURE.lines().collect();
    assert_eq!(
        lines.len(),
        expected.len(),
        "sweep shape changed; regenerate the fixture only from the pre-refactor engine"
    );
    for (i, (got, want)) in lines.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "golden divergence at sweep entry {i}");
    }
}
