//! Property-based tests for the two-level distributed index: whatever the
//! data placement, `locate` must return exactly the storage nodes with at
//! least one matching triple, with exact frequencies — and churn must not
//! corrupt that invariant. The location table itself is checked against a
//! model under random sequences of its operations.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rdfmesh_chord::Id;
use rdfmesh_net::{LatencyModel, Network, NodeId, SimTime};
use rdfmesh_overlay::{LocationTable, Overlay, Provider};
use rdfmesh_rdf::{PatternKind, Term, TermPattern, Triple, TriplePattern};

fn arb_triple() -> impl Strategy<Value = Triple> {
    (
        (0u8..5).prop_map(|i| Term::iri(&format!("http://example.org/s{i}"))),
        (0u8..3).prop_map(|i| Term::iri(&format!("http://example.org/p{i}"))),
        (0u8..5).prop_map(|i| Term::iri(&format!("http://example.org/o{i}"))),
    )
        .prop_map(|(s, p, o)| Triple::new(s, p, o))
}

fn build(datasets: &[Vec<Triple>]) -> Overlay {
    let net = Network::new(LatencyModel::Uniform(SimTime::millis(1)), 12.5);
    let mut o = Overlay::new(32, 4, 2, net);
    for i in 0..4u64 {
        let addr = NodeId(1000 + i);
        let pos = o.ring().space().hash(&addr.0.to_be_bytes());
        o.add_index_node(addr, pos).unwrap();
    }
    for (i, t) in datasets.iter().enumerate() {
        o.add_storage_node(NodeId(1 + i as u64), NodeId(1000 + (i as u64 % 4)), t.clone())
            .unwrap();
    }
    o
}

fn pattern_of(kind: PatternKind, t: &Triple) -> TriplePattern {
    let s = || TermPattern::Const(t.subject.clone());
    let p = || TermPattern::Const(t.predicate.clone());
    let o = || TermPattern::Const(t.object.clone());
    let v = TermPattern::var;
    match kind {
        PatternKind::None => TriplePattern::new(v("s"), v("p"), v("o")),
        PatternKind::S => TriplePattern::new(s(), v("p"), v("o")),
        PatternKind::P => TriplePattern::new(v("s"), p(), v("o")),
        PatternKind::O => TriplePattern::new(v("s"), v("p"), o()),
        PatternKind::SP => TriplePattern::new(s(), p(), v("o")),
        PatternKind::PO => TriplePattern::new(v("s"), p(), o()),
        PatternKind::SO => TriplePattern::new(s(), v("p"), o()),
        PatternKind::SPO => TriplePattern::new(s(), p(), o()),
    }
}

const KINDS: [PatternKind; 7] = [
    PatternKind::S,
    PatternKind::P,
    PatternKind::O,
    PatternKind::SP,
    PatternKind::PO,
    PatternKind::SO,
    PatternKind::SPO,
];

/// Checks the locate invariant for one pattern against ground truth.
fn check_locate(o: &Overlay, pattern: &TriplePattern) -> Result<(), TestCaseError> {
    let located = o
        .locate(NodeId(1000), pattern, SimTime::ZERO)
        .expect("locate")
        .expect("keyed pattern");
    let mut expected: Vec<(NodeId, u64)> = o
        .storage_nodes()
        .into_iter()
        .filter_map(|addr| {
            let count = o.storage_node(addr).unwrap().store.count_pattern(pattern) as u64;
            (count > 0).then_some((addr, count))
        })
        .collect();
    expected.sort();
    let mut got: Vec<(NodeId, u64)> =
        located.providers.iter().map(|p| (p.node, p.frequency)).collect();
    got.sort();
    // Hash collisions may add providers whose *key* matches but whose
    // triples don't (filtered locally at query time); in a 32-bit space
    // with this tiny vocabulary they are absent, so require equality —
    // except frequencies, which count key-sharing triples and must be
    // at least the matching count.
    let got_nodes: Vec<NodeId> = got.iter().map(|(n, _)| *n).collect();
    for (node, count) in &expected {
        prop_assert!(got_nodes.contains(node), "missing provider {node} for {pattern}");
        let freq = got.iter().find(|(n, _)| n == node).unwrap().1;
        prop_assert!(freq >= *count, "frequency {freq} < matches {count} at {node}");
    }
    // No provider may lack key-sharing triples entirely.
    for (node, freq) in &got {
        prop_assert!(*freq > 0);
        prop_assert!(
            o.is_storage_alive(*node),
            "provider {node} is dead but listed for {pattern}"
        );
    }
    Ok(())
}

/// One operation on a location table, over a few keys and nodes so that
/// rows collide.
#[derive(Debug, Clone)]
enum Op {
    Add(u64, u64, u64),
    Set(u64, u64, u64),
    Remove(u64, u64, u64),
    PurgeNode(u64),
    /// Split off the keys below the bound, then merge them back when the
    /// flag is set.
    SplitOff(u64, bool),
    /// Keep only the keys below the bound.
    Retain(u64),
    /// Merge a table holding these `add`s.
    Merge(Vec<(u64, u64, u64)>),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let entry = || (0u64..6, 0u64..5, 0u64..4);
    prop_oneof![
        3 => entry().prop_map(|(k, n, c)| Op::Add(k, n, c)),
        3 => entry().prop_map(|(k, n, c)| Op::Set(k, n, c)),
        2 => entry().prop_map(|(k, n, c)| Op::Remove(k, n, c)),
        1 => (0u64..5).prop_map(Op::PurgeNode),
        1 => (0u64..7, any::<bool>()).prop_map(|(bound, back)| Op::SplitOff(bound, back)),
        1 => (0u64..7).prop_map(Op::Retain),
        1 => proptest::collection::vec(entry(), 0..6).prop_map(Op::Merge),
    ]
}

/// The model: `(key, node) → frequency`, never holding a zero.
type Model = BTreeMap<(Id, NodeId), u64>;

fn model_set(model: &mut Model, key: u64, node: u64, frequency: u64) {
    match frequency {
        0 => model.remove(&(Id(key), NodeId(node))),
        f => model.insert((Id(key), NodeId(node)), f),
    };
}

fn model_held(model: &Model, key: u64, node: u64) -> Option<u64> {
    model.get(&(Id(key), NodeId(node))).copied()
}

/// Rows sorted by node, keys in order, no zero and no empty row, and
/// `providers`, `key_count` and `entry_count` all read the model.
fn check_table(table: &LocationTable, model: &Model) -> Result<(), TestCaseError> {
    let keys: Vec<Id> = table.iter().map(|(key, _)| key).collect();
    prop_assert!(keys.windows(2).all(|w| w[0] < w[1]), "rows out of key order: {keys:?}");
    for (key, row) in table.iter() {
        prop_assert!(!row.is_empty(), "empty row at {key}");
        prop_assert!(row.windows(2).all(|w| w[0].node < w[1].node), "row {key} unsorted");
        prop_assert!(row.iter().all(|p| p.frequency > 0), "a zero at {key}");
    }
    for key in 0..6 {
        let want: Vec<Provider> = model
            .range((Id(key), NodeId(0))..=(Id(key), NodeId(u64::MAX)))
            .map(|(&(_, node), &frequency)| Provider { node, frequency })
            .collect();
        prop_assert_eq!(table.providers(Id(key)), &want[..]);
    }
    let distinct: std::collections::BTreeSet<Id> = model.keys().map(|&(key, _)| key).collect();
    prop_assert_eq!(table.key_count(), distinct.len());
    prop_assert_eq!(table.entry_count(), model.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn location_table_agrees_with_its_model(ops in proptest::collection::vec(arb_op(), 1..40)) {
        let (mut table, mut model) = (LocationTable::new(), Model::new());
        for op in ops {
            match op {
                Op::Add(k, n, c) => {
                    table.add(Id(k), NodeId(n), c);
                    let held = model_held(&model, k, n).unwrap_or(0);
                    model_set(&mut model, k, n, held + c);
                }
                Op::Set(k, n, f) => {
                    table.set(Id(k), NodeId(n), f);
                    model_set(&mut model, k, n, f);
                }
                Op::Remove(k, n, c) => {
                    let held = model_held(&model, k, n);
                    prop_assert_eq!(table.remove(Id(k), NodeId(n), c), held.is_some());
                    if let Some(f) = held {
                        model_set(&mut model, k, n, f.saturating_sub(c));
                    }
                }
                Op::PurgeNode(n) => {
                    let before = model.len();
                    model.retain(|&(_, node), _| node != NodeId(n));
                    prop_assert_eq!(table.purge_node(NodeId(n)), before - model.len());
                }
                Op::SplitOff(bound, back) => {
                    let moved = table.split_off_where(|key| key.0 < bound);
                    let stays = model.split_off(&(Id(bound), NodeId(0)));
                    check_table(&moved, &model)?;
                    if back {
                        table.merge(moved);
                        model.extend(stays);
                    } else {
                        model = stays;
                    }
                }
                Op::Retain(bound) => {
                    table.retain(|key| key.0 < bound);
                    model.split_off(&(Id(bound), NodeId(0)));
                }
                Op::Merge(adds) => {
                    let mut other = LocationTable::new();
                    for (k, n, c) in adds {
                        other.add(Id(k), NodeId(n), c);
                        let held = model_held(&model, k, n).unwrap_or(0);
                        model_set(&mut model, k, n, held + c);
                    }
                    table.merge(other);
                }
            }
            check_table(&table, &model)?;
        }
    }

    #[test]
    fn locate_returns_exactly_the_matching_providers(
        datasets in proptest::collection::vec(
            proptest::collection::vec(arb_triple(), 0..12), 1..5),
        pick in any::<prop::sample::Index>(),
    ) {
        let o = build(&datasets);
        let all: Vec<Triple> = datasets.iter().flatten().cloned().collect();
        prop_assume!(!all.is_empty());
        let anchor = &all[pick.index(all.len())];
        for kind in KINDS {
            check_locate(&o, &pattern_of(kind, anchor))?;
        }
    }

    #[test]
    fn index_entry_count_is_conserved_by_index_churn(
        datasets in proptest::collection::vec(
            proptest::collection::vec(arb_triple(), 1..10), 1..4),
        new_pos in 0u64..u32::MAX as u64,
    ) {
        let mut o = build(&datasets);
        let before = o.total_index_entries();
        // A new index node joins…
        if o.add_index_node(NodeId(2000), Id(new_pos)).is_ok() {
            prop_assert_eq!(o.total_index_entries(), before, "join must conserve entries");
            // …and gracefully leaves again.
            o.remove_index_node(NodeId(2000)).unwrap();
            prop_assert_eq!(o.total_index_entries(), before, "leave must conserve entries");
        }
    }

    #[test]
    fn replicated_failure_recovers_all_entries(
        datasets in proptest::collection::vec(
            proptest::collection::vec(arb_triple(), 1..10), 1..4),
        victim in 0u64..4,
    ) {
        let mut o = build(&datasets);
        let before = o.total_index_entries();
        o.fail_index_node(NodeId(1000 + victim)).unwrap();
        o.repair();
        prop_assert_eq!(
            o.total_index_entries(),
            before,
            "replication factor 2 must survive one failure"
        );
    }

    #[test]
    fn graceful_storage_leave_withdraws_all_entries(
        datasets in proptest::collection::vec(
            proptest::collection::vec(arb_triple(), 1..10), 2..5),
        victim in any::<prop::sample::Index>(),
    ) {
        let mut o = build(&datasets);
        let nodes = o.storage_nodes();
        let addr = nodes[victim.index(nodes.len())];
        o.remove_storage_node(addr).unwrap();
        // No table anywhere may still reference the departed node.
        for ix in o.index_nodes() {
            if let Some(table) = o.location_table(ix) {
                for (_, provs) in table.iter() {
                    prop_assert!(provs.iter().all(|p| p.node != addr));
                }
            }
        }
    }

    #[test]
    fn publish_report_counts_match_table_state(
        triples in proptest::collection::vec(arb_triple(), 1..15),
    ) {
        let o = build(std::slice::from_ref(&triples));
        // Distinct (key, node) entries == sum over distinct keys of 1.
        let store = &o.storage_node(NodeId(1)).unwrap().store;
        let mut keys = std::collections::BTreeSet::new();
        store.for_each_triple(|t| {
            for k in rdfmesh_overlay::keys_for_triple(o.ring().space(), t) {
                keys.insert(k.id);
            }
        });
        prop_assert_eq!(o.total_index_entries(), keys.len());
    }
}
