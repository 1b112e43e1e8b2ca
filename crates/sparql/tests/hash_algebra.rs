//! Property tests pinning the id-row batch algebra ([`Rows`]) to the naive
//! nested-loop reference oracle.
//!
//! Every operator is checked for *exact* equality — same solutions, same
//! multiplicities, same order — over random solution sets that mix
//! unbound variables, shared variables, heterogeneous domains, the unit
//! solution and duplicates, with the right operand's dictionary numbering
//! its terms differently from the left one's. This is the guarantee that
//! lets the engine run every operator on batches without perturbing a
//! single simulated metric or a single frame.

use proptest::prelude::*;
use rdfmesh_rdf::{Term, Variable};
use rdfmesh_sparql::solution::{self, naive, Solution};
use rdfmesh_sparql::Rows;

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0u8..5).prop_map(|i| Term::iri(&format!("http://example.org/r{i}"))),
        (0u8..5).prop_map(|i| Term::literal(&format!("v{i}"))),
    ]
}

fn arb_solution() -> impl Strategy<Value = Solution> {
    // Variables x0..x3: small pool so random sets share variables often,
    // sizes 0..4 so unbound positions and the empty mapping both occur.
    proptest::collection::btree_map(0u8..4, arb_term(), 0..4).prop_map(|m| {
        Solution::from_pairs(m.into_iter().map(|(v, t)| (Variable::new(format!("x{v}")), t)))
    })
}

fn arb_solution_set() -> impl Strategy<Value = Vec<Solution>> {
    proptest::collection::vec(arb_solution(), 0..12)
}

/// A deterministic filter condition keyed on bound terms — exercises the
/// extended/unextended split of the conditional left join.
fn cond(s: &Solution) -> bool {
    s.get(&Variable::new("x0")).is_none_or(|t| t.to_string().len() % 2 == 0)
}

/// `solutions` as a batch whose dictionary numbers the terms as a left
/// operand's would not: a decoy row binding every term of the pool in
/// reverse order is interned first, then dropped.
fn skewed(solutions: &[Solution]) -> Rows {
    let mut pool: Vec<Term> = (0..5)
        .flat_map(|i| {
            [Term::iri(&format!("http://example.org/r{i}")), Term::literal(&format!("v{i}"))]
        })
        .collect();
    pool.reverse();
    let decoy = Solution::from_pairs(
        pool.into_iter().enumerate().map(|(i, t)| (Variable::new(format!("d{i}")), t)),
    );
    let mut all = vec![decoy];
    all.extend_from_slice(solutions);
    let mut rows = Rows::from_solutions(&all);
    let mut first = true;
    rows.retain(|_| !std::mem::take(&mut first));
    rows
}

fn left(solutions: &[Solution]) -> Rows {
    Rows::from_solutions(solutions)
}

proptest! {
    #[test]
    fn rows_join_equals_naive(l in arb_solution_set(), r in arb_solution_set()) {
        prop_assert_eq!(left(&l).join(&skewed(&r)).to_solutions(), naive::join(&l, &r));
    }

    #[test]
    fn rows_difference_equals_naive(l in arb_solution_set(), r in arb_solution_set()) {
        prop_assert_eq!(left(&l).difference(&skewed(&r)).to_solutions(), naive::difference(&l, &r));
    }

    #[test]
    fn rows_left_join_equals_naive(l in arb_solution_set(), r in arb_solution_set()) {
        prop_assert_eq!(left(&l).left_join(&skewed(&r)).to_solutions(), naive::left_join(&l, &r));
    }

    #[test]
    fn rows_left_join_filtered_equals_naive(l in arb_solution_set(), r in arb_solution_set()) {
        let got = left(&l).left_join_filtered(&skewed(&r), |row| cond(&row.to_solution()));
        prop_assert_eq!(got.to_solutions(), naive::left_join_filtered(&l, &r, cond));
    }

    #[test]
    fn rows_distinct_equals_naive_dedup(rows in arb_solution_set()) {
        prop_assert_eq!(left(&rows).distinct().to_solutions(), naive::distinct(rows));
    }

    #[test]
    fn rows_union_is_concatenation(l in arb_solution_set(), r in arb_solution_set()) {
        let mut union = left(&l);
        union.append(skewed(&r));
        prop_assert_eq!(union.to_solutions(), solution::union(&l, &r));
    }

    #[test]
    fn projection_then_distinct_equals_naive(
        rows in arb_solution_set(),
        keep in proptest::collection::vec(any::<bool>(), 4..5),
    ) {
        let vars: Vec<Variable> =
            (0..4).filter(|i| keep[*i]).map(|i| Variable::new(format!("x{i}"))).collect();
        let projected: Vec<Solution> = rows.iter().map(|s| s.project(&vars)).collect();
        prop_assert_eq!(
            skewed(&rows).project(&vars).distinct().to_solutions(),
            naive::distinct(projected)
        );
    }

    #[test]
    fn solutions_round_trip(rows in arb_solution_set()) {
        let batch = skewed(&rows);
        prop_assert_eq!(batch.to_solutions(), rows.clone());
        prop_assert_eq!(batch.clone().into_solutions(), rows.clone());
        prop_assert_eq!(batch.len(), rows.len());
    }
}

#[test]
fn the_unit_row_joins_with_everything_and_dedups_to_one() {
    let unit = vec![Solution::new()];
    let x = Solution::from_pairs([(Variable::new("x"), Term::iri("http://example.org/a"))]);
    let some = vec![x.clone(), Solution::new(), x];
    assert_eq!(Rows::unit().join(&left(&some)).to_solutions(), naive::join(&unit, &some));
    assert_eq!(left(&some).join(&Rows::unit()).to_solutions(), naive::join(&some, &unit));
    assert_eq!(left(&some).difference(&Rows::unit()).to_solutions(), Vec::<Solution>::new());
    let units = left(&[Solution::new(), Solution::new(), Solution::new()]);
    assert_eq!(units.len(), 3);
    assert_eq!(units.distinct().to_solutions(), unit);
}

#[test]
fn empty_operands_give_the_oracle_rows() {
    let some: Vec<Solution> = vec![
        Solution::from_pairs([(Variable::new("x"), Term::literal("v1"))]),
        Solution::new(),
    ];
    let none: Vec<Solution> = Vec::new();
    for (l, r) in [(&some, &none), (&none, &some), (&none, &none)] {
        assert_eq!(left(l).join(&skewed(r)).to_solutions(), naive::join(l, r));
        assert_eq!(left(l).difference(&skewed(r)).to_solutions(), naive::difference(l, r));
        assert_eq!(left(l).left_join(&skewed(r)).to_solutions(), naive::left_join(l, r));
    }
}
