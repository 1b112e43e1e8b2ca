//! Fault-injection tests for the live mesh (docs/FAULTS.md).
//!
//! Every assertion here is deterministic: where an outcome depends on
//! another thread having processed a message, the test fences with
//! [`LiveMesh::barrier`] (FIFO mailboxes make "barrier acked" imply
//! "everything delivered earlier was handled") instead of sleeping.
//!
//! Every scenario is **transport-parameterized**: the same function runs
//! once on [`Transport::Threads`] (std's channels) and once on
//! [`Transport::Sockets`] (framed TCP over loopback), asserting the same
//! outcomes byte for byte. That is the contract `docs/DEPLOYMENT.md`
//! promises: [`rdfmesh_net::FaultPlan`] semantics are adjudicated on the
//! sender's side of the wire, so crash / drop-nth / delay behave
//! identically whether or not a socket sits in the middle.

use std::time::Duration;

use rdfmesh_core::{
    FaultPlan, LiveAnswer, LiveConfig, LiveMesh, LiveMsg, QueryId, Transport, COORDINATOR,
};
use rdfmesh_net::{LatencyModel, Network, NodeId, SimTime};
use rdfmesh_overlay::{Overlay, Provider};
use rdfmesh_rdf::{Term, TermPattern, Triple, TriplePattern, Variable};
use rdfmesh_sparql::{eval::extend, Rows, Solution};

const STORAGE_A: NodeId = NodeId(1);
const STORAGE_B: NodeId = NodeId(2);

/// Three index nodes (1000–1002) and two storage nodes: A holds two
/// `x foaf:knows bob/carol` triples, B holds one `dave foaf:knows bob`.
fn overlay() -> Overlay {
    let net = Network::new(LatencyModel::Uniform(SimTime::millis(1)), 12.5);
    let mut o = Overlay::new(32, 4, 2, net);
    for i in 0..3u64 {
        let addr = NodeId(1000 + i);
        let pos = o.ring().space().hash(&addr.0.to_be_bytes());
        o.add_index_node(addr, pos).unwrap();
    }
    let person = |n: &str| Term::iri(&format!("http://example.org/{n}"));
    let knows = Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS);
    o.add_storage_node(
        STORAGE_A,
        NodeId(1000),
        vec![
            Triple::new(person("alice"), knows.clone(), person("bob")),
            Triple::new(person("alice"), knows.clone(), person("carol")),
        ],
    )
    .unwrap();
    o.add_storage_node(
        STORAGE_B,
        NodeId(1001),
        vec![Triple::new(person("dave"), knows, person("bob"))],
    )
    .unwrap();
    o
}

fn knows_bob() -> TriplePattern {
    TriplePattern::new(
        TermPattern::var("x"),
        Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS),
        Term::iri("http://example.org/bob"),
    )
}

/// Simulator-side oracle: the matches the overlay's storage nodes would
/// produce, restricted to the given live nodes, as bindings of the
/// pattern's variables.
fn oracle(o: &Overlay, pattern: &TriplePattern, live: &[NodeId]) -> Vec<Solution> {
    let mut expected: Vec<Solution> = live
        .iter()
        .flat_map(|n| o.storage_node(*n).expect("storage node").store.match_pattern(pattern))
        .filter_map(|t| extend(pattern, &t, &Solution::new()))
        .collect();
    expected.sort();
    expected.dedup();
    expected
}

/// A location-table row from its `(storage node, frequency)` entries.
fn row(entries: &[(NodeId, u64)]) -> Vec<Provider> {
    entries.iter().map(|&(node, frequency)| Provider { node, frequency }).collect()
}

fn sorted(solutions: Rows) -> Vec<Solution> {
    let mut solutions = solutions.to_solutions();
    solutions.sort();
    solutions
}

/// One solution round over `pattern`, no filter, no bound intermediates.
fn query(mesh: &LiveMesh, pattern: &TriplePattern, wait: Duration) -> LiveAnswer {
    mesh.query_solutions(pattern.clone(), None, None, wait).expect("within deadline")
}

fn tight() -> LiveConfig {
    LiveConfig {
        ack_timeout: Duration::from_millis(50),
        lookup_timeout: Duration::from_millis(50),
        query_deadline: Duration::from_secs(2),
        retries: 1,
        ..LiveConfig::default()
    }
}

fn spawn(o: &Overlay, cfg: LiveConfig, plan: FaultPlan, transport: Transport) -> LiveMesh {
    LiveMesh::spawn_with_transport(o, cfg, plan, transport).expect("transport binds")
}

/// Fences the ProviderDead path: the notification enters at the
/// coordinator's entry index node and is forwarded at most once to the
/// key owner, so fencing every index node twice (in any order) fences
/// the whole route.
fn fence_index_nodes(mesh: &LiveMesh, o: &Overlay) {
    for _ in 0..2 {
        for ix in o.index_nodes() {
            assert!(mesh.barrier(ix, Duration::from_secs(5)), "barrier on {ix:?}");
        }
    }
}

// ---- the scenarios, shared verbatim by both transports ---------------

fn crashed_provider_scenario(transport: Transport) {
    let o = overlay();
    let cfg = tight();
    // Storage B is down from the start: sends to it fail fast, which the
    // coordinator treats as immediate ack timeouts (Sect. III-D).
    let mesh = spawn(&o, cfg, FaultPlan::new().crash(STORAGE_B), transport);
    let pattern = knows_bob();

    // Before the query, the owner's location table still lists B: the
    // index learns about the crash only lazily, from a failed query.
    let before = mesh.providers_of(&pattern);
    assert_eq!(before, row(&[(STORAGE_A, 1), (STORAGE_B, 1)]));

    let answer = query(&mesh, &pattern, cfg.query_deadline);
    assert!(!answer.complete, "a lost provider must be reported");
    assert_eq!(answer.failed_providers, vec![STORAGE_B]);
    assert_eq!(sorted(answer.solutions), oracle(&o, &pattern, &[STORAGE_A]));

    // Lazy removal: the ProviderDead notification was enqueued before the
    // answer was released, so fencing the index route makes it visible.
    fence_index_nodes(&mesh, &o);
    assert_eq!(mesh.providers_of(&pattern), row(&[(STORAGE_A, 1)]));

    let stats = mesh.stats();
    assert_eq!(stats.ack_timeouts, 1);
    assert_eq!(stats.providers_purged, 1);
    assert_eq!(stats.incomplete_queries, 1);
    assert!(stats.send_failures >= 2, "initial send and its retry both fail");

    // Restart does not resurrect the purged entry (the node must
    // republish, as in the paper's rejoin): the next query is complete
    // over the remaining provider alone.
    assert!(mesh.restart(STORAGE_B));
    let again = query(&mesh, &pattern, cfg.query_deadline);
    assert!(again.complete);
    assert_eq!(sorted(again.solutions), oracle(&o, &pattern, &[STORAGE_A]));
    mesh.shutdown();
}

fn dropped_subquery_scenario(transport: Transport) {
    let o = overlay();
    let cfg = tight();
    // Silently lose the first coordinator → A message: that is the
    // sub-query, whose ack deadline must retransmit it.
    let mesh =
        spawn(&o, cfg, FaultPlan::new().drop_nth(COORDINATOR, STORAGE_A, 1), transport);
    let pattern = knows_bob();
    let answer = query(&mesh, &pattern, cfg.query_deadline);
    assert!(answer.complete, "one bounded retry must recover a single drop");
    assert!(answer.failed_providers.is_empty());
    assert_eq!(sorted(answer.solutions), oracle(&o, &pattern, &[STORAGE_A, STORAGE_B]));
    assert_eq!(mesh.dropped_count(), 1);
    let stats = mesh.stats();
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.ack_timeouts, 0, "the provider answered on the retry");
    assert_eq!(stats.incomplete_queries, 0);
    mesh.shutdown();
}

fn dropped_answer_scenario(transport: Transport) {
    let o = overlay();
    let cfg = tight();
    // Silently lose the first A → coordinator message: that is A's
    // answer, a frame A's storage role wrote itself and handed its outbox
    // encoded. The ack deadline retransmits the sub-query, and A answers
    // again.
    let mesh =
        spawn(&o, cfg, FaultPlan::new().drop_nth(STORAGE_A, COORDINATOR, 1), transport);
    let pattern = knows_bob();
    let answer = query(&mesh, &pattern, cfg.query_deadline);
    assert!(answer.complete, "one bounded retry must recover a lost answer");
    assert!(answer.failed_providers.is_empty());
    assert_eq!(sorted(answer.solutions), oracle(&o, &pattern, &[STORAGE_A, STORAGE_B]));
    assert_eq!(mesh.dropped_count(), 1);
    let stats = mesh.stats();
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.ack_timeouts, 0, "the provider answered on the retry");
    // A shipped its one row twice, the lost answer and the retry's; B once.
    assert_eq!(stats.solutions_shipped, 3);
    mesh.shutdown();
}

fn stale_reply_scenario(transport: Transport) {
    let o = overlay();
    let mesh = spawn(&o, LiveConfig::default(), FaultPlan::new(), transport);
    let pattern = knows_bob();

    let first = query(&mesh, &pattern, Duration::from_secs(10));
    assert!(first.complete);
    assert_eq!(first.solutions.len(), 2);

    // Forge a delayed duplicate of query 1's reply, carrying query 1's
    // id (ids start at 1) and a binding that exists nowhere, arriving
    // between the two queries: on the socket transport the forgery
    // crosses the twin's listener while query 2's submission goes
    // straight to the coordinator's mailbox, so fence the coordinator
    // before submitting.
    let bogus =
        Solution::from_pairs([(Variable::new("x"), Term::iri("http://example.org/mallory"))]);
    mesh.inject(
        STORAGE_A,
        COORDINATOR,
        LiveMsg::Solutions { qid: QueryId(1), solutions: Rows::from_solutions(std::slice::from_ref(&bogus)) },
    );
    assert!(mesh.barrier(COORDINATOR, Duration::from_secs(10)));

    let second = query(&mesh, &pattern, Duration::from_secs(10));
    assert!(second.complete);
    let leaked = second.solutions.iter().any(|row| row.to_solution() == bogus);
    assert!(!leaked, "stale reply leaked into the next query");
    assert_eq!(sorted(second.solutions), oracle(&o, &pattern, &[STORAGE_A, STORAGE_B]));
    assert_eq!(mesh.stats().stale_replies, 1);
    mesh.shutdown();
}

fn unreachable_index_scenario(transport: Transport) {
    let o = overlay();
    let cfg = tight();
    let mut plan = FaultPlan::new();
    for ix in o.index_nodes() {
        plan = plan.crash(ix);
    }
    let mesh = spawn(&o, cfg, plan, transport);
    let answer = query(&mesh, &knows_bob(), cfg.query_deadline);
    assert!(!answer.complete);
    assert!(answer.solutions.is_empty());
    let stats = mesh.stats();
    assert_eq!(stats.lookup_failures, 1);
    assert_eq!(stats.send_failures, 2, "initial lookup and its retry");
    assert_eq!(stats.incomplete_queries, 1);
    mesh.shutdown();
}

fn runtime_crash_scenario(transport: Transport) {
    let o = overlay();
    let cfg = tight();
    let mesh = spawn(&o, cfg, FaultPlan::new(), transport);
    let pattern = knows_bob();

    let healthy = query(&mesh, &pattern, cfg.query_deadline);
    assert!(healthy.complete);
    assert_eq!(sorted(healthy.solutions), oracle(&o, &pattern, &[STORAGE_A, STORAGE_B]));

    // B crashes at runtime; the very next query degrades gracefully.
    assert!(mesh.crash(STORAGE_B));
    let degraded = query(&mesh, &pattern, cfg.query_deadline);
    assert!(!degraded.complete);
    assert_eq!(degraded.failed_providers, vec![STORAGE_B]);
    assert_eq!(sorted(degraded.solutions), oracle(&o, &pattern, &[STORAGE_A]));

    fence_index_nodes(&mesh, &o);
    assert_eq!(mesh.providers_of(&pattern), row(&[(STORAGE_A, 1)]));
    assert_eq!(mesh.stats().providers_purged, 1);

    // With the dead entry purged, the mesh answers complete again.
    let recovered = query(&mesh, &pattern, cfg.query_deadline);
    assert!(recovered.complete);
    assert_eq!(sorted(recovered.solutions), oracle(&o, &pattern, &[STORAGE_A]));
    mesh.shutdown();
}

/// For every index key of every shared triple, asserts that the live
/// owner and row — providers *and* frequencies — equal the overlay's
/// location-table placement. Returns how many keys it checked.
fn assert_rows_are_the_overlays(mesh: &LiveMesh, o: &Overlay) -> usize {
    let mut keys = 0;
    for storage in o.storage_nodes() {
        let mut triples = Vec::new();
        o.storage_node(storage).expect("listed").store.for_each_triple(|t| triples.push(t.to_triple()));
        for t in triples {
            let (s, p, obj) = (&t.subject, &t.predicate, &t.object);
            let [x, y, z] = ["x", "y", "z"].map(TermPattern::var);
            for pattern in [
                TriplePattern::new(s.clone(), x.clone(), y.clone()),
                TriplePattern::new(x.clone(), p.clone(), y.clone()),
                TriplePattern::new(x.clone(), y.clone(), obj.clone()),
                TriplePattern::new(s.clone(), p.clone(), z.clone()),
                TriplePattern::new(z.clone(), p.clone(), obj.clone()),
                TriplePattern::new(s.clone(), z, obj.clone()),
            ] {
                let key = o.index_key_for(&pattern).expect("a bound pattern has a key");
                let owner = o.owner_addr(key.id).expect("a ring owns every key");
                let table = o.location_table(owner).expect("an index node has a table");
                assert_eq!(mesh.index_owner_of(&pattern), Some(owner), "{pattern:?}");
                assert_eq!(mesh.providers_of(&pattern), table.providers(key.id), "{pattern:?}");
                keys += 1;
            }
        }
    }
    keys
}

/// A coordinator that is down while its round falls due finishes the
/// round on its first wake-up after the restart: `complete: false`, with
/// what it had gathered — here nothing, its lookup having been lost.
fn coordinator_crash_scenario(transport: Transport) {
    let o = overlay();
    // The lookup's own wait outlasts the test, so only the round's
    // deadline can end it.
    let cfg = LiveConfig {
        lookup_timeout: Duration::from_secs(30),
        query_deadline: Duration::from_millis(300),
        ..tight()
    };
    let entry = o.index_nodes()[0];
    let mesh = spawn(&o, cfg, FaultPlan::new().drop_nth(COORDINATOR, entry, 1), transport);
    let round = mesh.submit_solutions(knows_bob(), None, None);
    assert!(mesh.barrier(COORDINATOR, Duration::from_secs(5)), "the round is open");
    assert!(mesh.crash(COORDINATOR));
    // Not a fence: the round's deadline has to pass while it is down.
    std::thread::sleep(cfg.query_deadline + Duration::from_millis(200));
    assert!(mesh.restart(COORDINATOR));
    let answer = round.wait(Duration::from_secs(5)).expect("finished after the restart");
    assert!(!answer.complete);
    assert!(answer.solutions.is_empty());
    assert!(answer.failed_providers.is_empty(), "no provider was ever asked");
    let stats = mesh.stats();
    assert_eq!((stats.incomplete_queries, stats.lookup_failures, stats.retries), (1, 0, 0));
    mesh.shutdown();
}

/// Every storage node publishes its keys and their frequencies to their
/// owners at spawn: the live rows equal the overlay's location tables — a
/// storage node down from the start included, since publication is what
/// the index knows until a query finds the node dead. Publishing the
/// same counts again, as a serve process does after every membership
/// change, replaces them: no count doubles. A zero count removes the
/// entry it names and files nothing where there is none.
fn publication_scenario(transport: Transport) {
    let o = overlay();
    // A frequency above one, so that a doubled count would show.
    let knows = TriplePattern::new(
        TermPattern::var("x"),
        Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS),
        TermPattern::var("y"),
    );
    for plan in [FaultPlan::new(), FaultPlan::new().crash(STORAGE_B)] {
        let mesh = spawn(&o, tight(), plan, transport);
        assert_eq!(mesh.providers_of(&knows), row(&[(STORAGE_A, 2), (STORAGE_B, 1)]));
        assert_eq!(assert_rows_are_the_overlays(&mesh, &o), 6 * 3, "six keys per shared triple");
        for ix in o.index_nodes() {
            let table = o.location_table(ix).expect("an index node has a table");
            for provider in o.storage_nodes() {
                let keys: Vec<(u64, u64)> = table
                    .iter()
                    .filter_map(|(key, row)| {
                        row.iter().find(|p| p.node == provider).map(|p| (key.0, p.frequency))
                    })
                    .collect();
                if !keys.is_empty() {
                    mesh.inject(provider, ix, LiveMsg::Publish { keys, provider });
                }
            }
        }
        fence_index_nodes(&mesh, &o);
        assert_eq!(mesh.providers_of(&knows), row(&[(STORAGE_A, 2), (STORAGE_B, 1)]));
        assert_eq!(assert_rows_are_the_overlays(&mesh, &o), 6 * 3);

        let nobody = TriplePattern::new(
            TermPattern::var("x"),
            Term::iri(rdfmesh_rdf::vocab::foaf::KNOWS),
            Term::iri("http://example.org/nobody"),
        );
        for (pattern, provider) in [(&knows, STORAGE_B), (&nobody, STORAGE_A)] {
            let key = o.index_key_for(pattern).expect("a bound pattern has a key").id.0;
            let owner = mesh.index_owner_of(pattern).expect("a keyed pattern has an owner");
            mesh.inject(provider, owner, LiveMsg::Publish { keys: vec![(key, 0)], provider });
        }
        fence_index_nodes(&mesh, &o);
        assert_eq!(mesh.providers_of(&knows), row(&[(STORAGE_A, 2)]));
        assert_eq!(mesh.providers_of(&nobody), row(&[]), "a zero files no entry");
        mesh.shutdown();
    }
}

// ---- thread transport ------------------------------------------------

#[test]
fn publication_fills_the_index_as_the_overlay_places_it() {
    publication_scenario(Transport::Threads);
}

#[test]
fn crashed_provider_yields_partial_result_and_lazy_purge() {
    crashed_provider_scenario(Transport::Threads);
}

#[test]
fn dropped_subquery_is_retried_to_a_complete_answer() {
    dropped_subquery_scenario(Transport::Threads);
}

#[test]
fn dropped_answer_is_answered_again_on_the_retry() {
    dropped_answer_scenario(Transport::Threads);
}

#[test]
fn stale_reply_from_an_earlier_query_cannot_contaminate_the_next() {
    stale_reply_scenario(Transport::Threads);
}

#[test]
fn unreachable_index_fails_the_lookup_within_the_deadline() {
    unreachable_index_scenario(Transport::Threads);
}

#[test]
fn runtime_crash_between_queries_degrades_then_purges() {
    runtime_crash_scenario(Transport::Threads);
}

#[test]
fn a_coordinator_restarted_after_its_rounds_deadline_finishes_it_incomplete() {
    coordinator_crash_scenario(Transport::Threads);
}

// ---- socket transport: the same scenarios over loopback TCP ----------

#[test]
fn publication_fills_the_index_as_the_overlay_places_it_over_sockets() {
    publication_scenario(Transport::Sockets);
}

#[test]
fn crashed_provider_yields_partial_result_and_lazy_purge_over_sockets() {
    crashed_provider_scenario(Transport::Sockets);
}

#[test]
fn dropped_subquery_is_retried_to_a_complete_answer_over_sockets() {
    dropped_subquery_scenario(Transport::Sockets);
}

#[test]
fn dropped_answer_is_answered_again_on_the_retry_over_sockets() {
    dropped_answer_scenario(Transport::Sockets);
}

#[test]
fn stale_reply_from_an_earlier_query_cannot_contaminate_the_next_over_sockets() {
    stale_reply_scenario(Transport::Sockets);
}

#[test]
fn unreachable_index_fails_the_lookup_within_the_deadline_over_sockets() {
    unreachable_index_scenario(Transport::Sockets);
}

#[test]
fn runtime_crash_between_queries_degrades_then_purges_over_sockets() {
    runtime_crash_scenario(Transport::Sockets);
}

#[test]
fn a_coordinator_restarted_after_its_rounds_deadline_finishes_it_incomplete_over_sockets() {
    coordinator_crash_scenario(Transport::Sockets);
}

// ---- twin assertion: answers are identical across transports ---------

/// Runs the crashed-provider query on both transports and asserts the
/// [`rdfmesh_core::LiveAnswer`]s are *equal*, not merely both partial —
/// same surviving solutions, same failure report. The socket transport
/// must also have pushed every protocol message through real frames.
#[test]
fn socket_and_thread_transports_return_identical_answers() {
    let pattern = knows_bob();
    let answers: Vec<_> = [Transport::Threads, Transport::Sockets]
        .into_iter()
        .map(|t| {
            let o = overlay();
            let cfg = tight();
            let mesh = spawn(&o, cfg, FaultPlan::new().crash(STORAGE_B), t);
            let mut answer = query(&mesh, &pattern, cfg.query_deadline);
            answer.solutions = Rows::from_solutions(&sorted(answer.solutions));
            if t == Transport::Sockets {
                let wire = mesh.transport_stats().expect("socket transport has wire stats");
                assert!(wire.frames_sent > 0, "protocol must actually cross the socket");
                assert_eq!(wire.decode_errors, 0);
            } else {
                assert!(mesh.transport_stats().is_none(), "threads have no wire");
            }
            mesh.shutdown();
            answer
        })
        .collect();
    assert_eq!(answers[0], answers[1], "transports disagreed on the same scenario");
}
