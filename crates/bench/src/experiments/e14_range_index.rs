//! §E14 — Numeric range queries: gather-and-filter vs the bucketed range
//! index vs RDFPeers' locality-preserving hashing.
//!
//! §E12 showed RDFPeers dominating narrow ranges because its numeric
//! objects sit on contiguous ring arcs. The bucketed `(p, bucket(o))`
//! extension (DESIGN.md) retrofits that capability onto the two-level
//! index without giving up provider-resident data: range queries contact
//! only the providers owning overlapping buckets.

use rdfmesh_chord::IdSpace;
use rdfmesh_core::{Engine, ExecConfig};
use rdfmesh_net::NodeId;
use rdfmesh_overlay::{NumericBuckets, Overlay};
use rdfmesh_rdfpeers::RdfPeers;
use rdfmesh_rdf::{Literal, Term, Triple};
use rdfmesh_workload::Rng;

use crate::{fmt_ms, lan, print_table, INDEX_BASE};

const PROVIDERS: u64 = 10;

/// Ages clustered per provider: provider d's persons are mostly in one
/// decade (ad-hoc shares are often thematically clustered — a sports
/// club's roster, a class register).
fn datasets() -> Vec<Vec<Triple>> {
    let age = Term::iri(rdfmesh_rdf::vocab::foaf::AGE);
    let mut rng = Rng::new(0xE14);
    let mut person = 0;
    (0..PROVIDERS)
        .map(|d| {
            (0..12)
                .map(|_| {
                    person += 1;
                    let years = (10 * d + rng.below(10)) as i64;
                    Triple::new(
                        Term::iri(&format!("http://example.org/e14/p{person}")),
                        age.clone(),
                        Term::Literal(Literal::integer(years)),
                    )
                })
                .collect()
        })
        .collect()
}

fn build_mesh(bucketed: bool) -> Overlay {
    let mut overlay = Overlay::new(32, 4, 2, lan());
    if bucketed {
        overlay.enable_numeric_buckets(NumericBuckets::new(0.0, 100.0, 10));
    }
    for i in 0..6u64 {
        let addr = NodeId(INDEX_BASE + i);
        let pos = overlay.ring().space().hash(&addr.0.to_be_bytes());
        overlay.add_index_node(addr, pos).unwrap();
    }
    for (i, t) in datasets().iter().enumerate() {
        overlay
            .add_storage_node(NodeId(1 + i as u64), NodeId(INDEX_BASE + (i as u64 % 6)), t.clone())
            .unwrap();
    }
    overlay
}

fn build_peers() -> RdfPeers {
    let mut repo = RdfPeers::new(32, lan(), 0.0, 100.0);
    for i in 0..6u64 {
        let addr = NodeId(INDEX_BASE + i);
        repo.add_node(addr, IdSpace::new(32).hash(&addr.0.to_be_bytes())).unwrap();
    }
    for (i, t) in datasets().iter().enumerate() {
        repo.store(NodeId(1 + i as u64), t.clone()).unwrap();
    }
    repo
}

/// Runs the experiment and prints its table.
pub fn run() {
    let age = Term::iri(rdfmesh_rdf::vocab::foaf::AGE);
    let mut rows = Vec::new();
    for (lo, hi) in [(42i64, 44), (30, 50), (20, 80), (0, 100)] {
        let q = format!(
            "SELECT ?x ?a WHERE {{ ?x foaf:age ?a . FILTER(?a >= {lo} && ?a < {hi}) }}"
        );
        // (a) paper-faithful gather-and-filter.
        let mut plain = build_mesh(false);
        plain.net.reset();
        let e1 = Engine::new(&mut plain, ExecConfig::default())
            .execute(NodeId(INDEX_BASE + 4), &q)
            .unwrap();
        // (b) bucketed range index.
        let mut bucketed = build_mesh(true);
        bucketed.net.reset();
        let e2 = Engine::new(&mut bucketed, ExecConfig::default())
            .execute(NodeId(INDEX_BASE + 4), &q)
            .unwrap();
        assert_eq!(e1.result.len(), e2.result.len(), "bucketing must not change answers");
        // (c) RDFPeers.
        let peers = build_peers();
        peers.net.reset();
        let rep = peers
            .range_query(NodeId(INDEX_BASE + 4), &age, lo as f64, (hi - 1) as f64)
            .unwrap();
        assert_eq!(rep.matches.len(), e1.result.len());

        rows.push(vec![
            format!("[{lo}, {hi})"),
            e1.result.len().to_string(),
            format!("{} ({}p)", e1.stats.total_bytes, e1.stats.providers_contacted),
            format!("{} ({}p)", e2.stats.total_bytes, e2.stats.providers_contacted),
            format!("{}", peers.net.stats().total_bytes),
            fmt_ms(e1.stats.response_time),
            fmt_ms(e2.stats.response_time),
            fmt_ms(rep.finished),
        ]);
    }
    print_table(
        "Range over foaf:age, decade-clustered providers (p = providers contacted)",
        &[
            "range",
            "matches",
            "gather B",
            "bucketed B",
            "RDFPeers B",
            "gather ms",
            "bucketed ms",
            "RDFPeers ms",
        ],
        &rows,
    );
    println!("\nShape check: gather-and-filter contacts all 10 providers whatever");
    println!("the range; the bucket index narrows to the overlapping decades while");
    println!("the data never leaves its providers. RDFPeers' one-arc walk still");
    println!("ships the least at every width: the hybrid index pays a sub-query");
    println!("per contacted provider, and all ten at full width.");
}
