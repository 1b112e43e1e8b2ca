//! §E15 — Query-path caching and adaptive hot-key replication.
//!
//! The `rdfmesh-cache` subsystem claims three things:
//!
//! 1. On a repeated-query workload, the initiator-side cache stack
//!    (routing → provider-set → result) removes most level-1 lookup
//!    messages and a large share of total bytes and response time.
//! 2. Adaptive hot-key replication lets *uncached* initiators benefit
//!    too: once a key crosses the hit threshold, its row is pushed to
//!    the owner's ring successors and later walks terminate early.
//! 3. Under churn (publish/unpublish, storage and index failures), a
//!    cached engine returns **exactly** the answers a cold engine
//!    returns — validate-on-use coherence, never stale results.
//!
//! Three parts measure exactly those claims.

use rdfmesh_core::{CacheConfig, Engine, ExecConfig, Execution};
use rdfmesh_net::NodeId;
use rdfmesh_overlay::Overlay;
use rdfmesh_rdf::{Term, Triple};
use rdfmesh_workload::{foaf, FoafConfig};

use crate::{foaf_testbed, lan, print_table, Testbed, INDEX_BASE};

/// The repeated-query FOAF workload: five hot primitive patterns plus
/// one conjunctive query, cycled for `rounds` rounds.
fn workload(rounds: usize) -> Vec<String> {
    let mut queries = Vec::new();
    for _ in 0..rounds {
        for target in 1..=5usize {
            queries.push(format!(
                "SELECT ?x WHERE {{ ?x foaf:knows <http://example.org/people/p{target}> . }}"
            ));
        }
        queries.push(
            "SELECT ?x ?n WHERE { ?x foaf:knows <http://example.org/people/p2> . \
             ?x foaf:name ?n . }"
                .to_string(),
        );
    }
    queries
}

fn fresh_testbed() -> Testbed {
    foaf_testbed(&FoafConfig { persons: 120, peers: 10, ..Default::default() }, 8)
}

struct WorkloadOutcome {
    lookup_msgs: usize,
    bytes: u64,
    mean_resp_ms: f64,
    stats: Option<rdfmesh_core::CacheStats>,
}

fn run_workload(cached: bool) -> WorkloadOutcome {
    let mut tb = fresh_testbed();
    if cached {
        tb.enable_cache(CacheConfig::default());
        tb.overlay.enable_hot_replication(3);
    }
    let queries = workload(20);
    let (mut lookup_msgs, mut bytes, mut resp_us) = (0usize, 0u64, 0u64);
    for q in &queries {
        let stats = tb.run(ExecConfig::default(), q);
        lookup_msgs += stats.index_hops;
        bytes += stats.total_bytes;
        resp_us += stats.response_time.0;
    }
    WorkloadOutcome {
        lookup_msgs,
        bytes,
        mean_resp_ms: resp_us as f64 / queries.len() as f64 / 1000.0,
        stats: tb.cache_stats(),
    }
}

/// Part A: the cache stack on the repeated workload.
fn part_a() {
    let off = run_workload(false);
    let on = run_workload(true);
    let s = on.stats.expect("cache attached");
    let rows = vec![
        vec![
            "off".to_string(),
            off.lookup_msgs.to_string(),
            off.bytes.to_string(),
            format!("{:.2}", off.mean_resp_ms),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
        ],
        vec![
            "on".to_string(),
            on.lookup_msgs.to_string(),
            on.bytes.to_string(),
            format!("{:.2}", on.mean_resp_ms),
            s.result_hits.to_string(),
            s.provider_hits.to_string(),
            s.routing_hits.to_string(),
        ],
    ];
    print_table(
        "Repeated FOAF workload (120 queries): cache stack on vs off",
        &[
            "cache",
            "level-1 lookup msgs",
            "total bytes",
            "mean resp ms",
            "result hits",
            "provider hits",
            "routing hits",
        ],
        &rows,
    );
    println!(
        "\nReductions: lookups {:.0}%, bytes {:.0}%, response time {:.0}%",
        100.0 * (1.0 - on.lookup_msgs as f64 / off.lookup_msgs as f64),
        100.0 * (1.0 - on.bytes as f64 / off.bytes as f64),
        100.0 * (1.0 - on.mean_resp_ms / off.mean_resp_ms),
    );
    // The §E15 headline claims, guarded.
    assert!(
        on.lookup_msgs * 2 <= off.lookup_msgs,
        "cache must remove at least half the level-1 lookup messages \
         (on {} vs off {})",
        on.lookup_msgs,
        off.lookup_msgs
    );
    assert!(on.bytes < off.bytes, "cache must reduce total bytes");
    assert!(on.mean_resp_ms < off.mean_resp_ms, "cache must reduce response time");
    assert!(s.result_hits > 0 && s.provider_hits > 0, "both layers must engage: {s:?}");
}

/// Part B: hot-key replication for uncached initiators. Queries rotate
/// through every index node as initiator; once the hot threshold trips,
/// walks from initiators holding a replica terminate immediately.
fn part_b() {
    let data = foaf::generate(&FoafConfig { persons: 120, peers: 10, ..Default::default() });
    // Longer successor lists than the default testbed: pushed rows land
    // on 6 of the 8 ring members, so most initiators hold a copy.
    let mut overlay = Overlay::new(32, 6, 2, lan());
    let mut index_addrs = Vec::new();
    for i in 0..8u64 {
        let addr = NodeId(INDEX_BASE + i);
        let pos = overlay.ring().space().hash(&addr.0.to_be_bytes());
        overlay.add_index_node(addr, pos).expect("index join");
        index_addrs.push(addr);
    }
    for (i, triples) in data.peers.iter().enumerate() {
        overlay
            .add_storage_node(NodeId(1 + i as u64), index_addrs[i % index_addrs.len()], triples.clone())
            .expect("storage join");
    }
    overlay.enable_hot_replication(3);
    let q = "SELECT ?x WHERE { ?x foaf:knows <http://example.org/people/p1> . }";
    let mut rows = Vec::new();
    let mut per_phase = Vec::new();
    for (phase, label) in [(0usize, "cold (replication arming)"), (1, "hot (replicas placed)")] {
        let mut hops = 0usize;
        for i in 0..8usize {
            overlay.net.reset();
            let initiator = index_addrs[(phase * 8 + i) % index_addrs.len()];
            let exec = Engine::new(&mut overlay, ExecConfig::default())
                .execute(initiator, q)
                .expect("hot-replication query");
            hops += exec.stats.index_hops;
        }
        rows.push(vec![
            label.to_string(),
            "8".to_string(),
            hops.to_string(),
            format!("{:.2}", hops as f64 / 8.0),
            overlay.hot_replica_count().to_string(),
        ]);
        per_phase.push(hops);
    }
    print_table(
        "Hot-key replication, uncached initiators rotating over 8 index nodes",
        &["phase", "queries", "lookup hops", "avg hops/query", "hot keys replicated"],
        &rows,
    );
    assert!(overlay.hot_replica_count() >= 1, "the hot key must have replicated");
    assert!(
        per_phase[1] < per_phase[0],
        "replicated rows must shorten walks ({} -> {})",
        per_phase[0],
        per_phase[1]
    );
}

/// Canonical form of a SELECT result for divergence checks (order is an
/// implementation detail; the solution *set* is the contract).
fn canon(exec: &Execution) -> Vec<String> {
    let mut v: Vec<String> = exec
        .result
        .solutions()
        .unwrap_or_default()
        .iter()
        .map(|s| format!("{s:?}"))
        .collect();
    v.sort();
    v
}

/// Part C: the coherence sweep. Twin testbeds (identical builds) churn
/// in lockstep; after every event each query is answered by both the
/// cached and the cold engine, twice (once against possibly-stale
/// entries, once warm), and the answers must never diverge.
fn part_c() {
    let mut cold = fresh_testbed();
    let mut cached = fresh_testbed();
    cached.enable_cache(CacheConfig::default());
    cached.overlay.enable_hot_replication(3);
    let queries = workload(1);
    let extra_peer = NodeId(900);
    let new_triples = vec![
        Triple::new(
            Term::iri("http://example.org/people/p901"),
            Term::iri("http://xmlns.com/foaf/0.1/knows"),
            Term::iri("http://example.org/people/p1"),
        ),
        Triple::new(
            Term::iri("http://example.org/people/p901"),
            Term::iri("http://xmlns.com/foaf/0.1/name"),
            Term::literal("Nine-Oh-One"),
        ),
    ];
    type ChurnEvent<'a> = (&'a str, Box<dyn Fn(&mut Overlay)>);
    let events: Vec<ChurnEvent> = vec![
        ("baseline", Box::new(|_| {})),
        ("peer joins + publishes", {
            let t = new_triples.clone();
            Box::new(move |o: &mut Overlay| {
                o.add_storage_node(extra_peer, NodeId(INDEX_BASE), t.clone()).expect("join");
            })
        }),
        ("peer unpublishes a triple", {
            let t = vec![new_triples[0].clone()];
            Box::new(move |o: &mut Overlay| {
                o.remove_triples(extra_peer, t.clone()).expect("unshare");
            })
        }),
        ("storage node fails silently", Box::new(|o: &mut Overlay| {
            o.fail_storage_node(NodeId(2)).expect("fail storage");
        })),
        ("index node joins", Box::new(|o: &mut Overlay| {
            let addr = NodeId(INDEX_BASE + 50);
            let pos = o.ring().space().hash(&addr.0.to_be_bytes());
            o.add_index_node(addr, pos).expect("index join");
        })),
        ("index node fails, ring repairs", Box::new(|o: &mut Overlay| {
            o.fail_index_node(NodeId(INDEX_BASE + 7)).expect("fail index");
            o.repair();
        })),
    ];
    let mut rows = Vec::new();
    let mut divergences = 0usize;
    for (label, event) in &events {
        event(&mut cold.overlay);
        event(&mut cached.overlay);
        let mut compared = 0usize;
        let mut results = 0usize;
        // Two passes: the first exercises stale-entry validation, the
        // second exercises warm re-filled entries.
        for _pass in 0..2 {
            for q in &queries {
                let a = cold.run_full(ExecConfig::default(), q);
                let b = cached.run_full(ExecConfig::default(), q);
                compared += 1;
                results = a.result.len();
                if canon(&a) != canon(&b) {
                    divergences += 1;
                }
            }
        }
        let s = cached.cache_stats().expect("cache attached");
        rows.push(vec![
            label.to_string(),
            compared.to_string(),
            results.to_string(),
            if divergences == 0 { "yes".to_string() } else { format!("NO ({divergences})") },
            s.stale_drops.to_string(),
            s.result_hits.to_string(),
        ]);
    }
    print_table(
        "Churn coherence sweep: cached vs cold answers after each event",
        &[
            "event",
            "queries compared",
            "last result rows",
            "identical",
            "stale drops",
            "result hits",
        ],
        &rows,
    );
    assert_eq!(divergences, 0, "cached answers must never diverge from cold answers");
    let s = cached.cache_stats().expect("cache attached");
    assert!(s.stale_drops > 0, "churn must actually exercise invalidation: {s:?}");
    println!("\nShape check: every churn event that changes a row bumps its version");
    println!("(or the ring epoch), so stale entries are dropped on use and refilled;");
    println!("a silently failed storage node voids result entries via the liveness");
    println!("check while cold and cached engines pay the same discovery timeout.");
}

/// Runs the experiment and prints all three tables.
pub fn run() {
    part_a();
    part_b();
    part_c();
}
