//! Local evaluation of algebra expressions over a graph.
//!
//! This is the "Local Query Execution" stage of the paper's workflow
//! (Fig. 3): every storage node evaluates sub-queries against its own RDF
//! data repository with this engine, and the same engine serves as the
//! ground-truth oracle that the distributed executor is tested against.

use std::cmp::Ordering;
use std::collections::HashSet;

use rdfmesh_rdf::{
    Literal, Term, TermPattern, Triple, TriplePattern, TripleRef, TripleStore, Variable,
};

use crate::algebra::{AlgebraQuery, GraphPattern};
use crate::ast::{DescribeTarget, Duplicates, Modifiers, QueryForm};
use crate::expr::{Bindings, Compiled};
use crate::rows::Rows;
use crate::solution::{self, Solution, SolutionSet};

/// Anything that can enumerate triples matching a pattern.
///
/// [`TripleStore`] implements it for local data; the distributed engine
/// implements it for "the union of all triples stored in all storage
/// nodes" (Sect. IV-A).
pub trait Graph {
    /// Lends every triple matching `pattern` to `f`: the terms belong to
    /// the graph and are valid for that call only, and `f` must not call
    /// back into the graph (a shared store holds its read lock meanwhile).
    fn for_each_match(&self, pattern: &TriplePattern, f: &mut dyn FnMut(TripleRef<'_>));

    /// All triples matching `pattern`, cloned.
    fn matching(&self, pattern: &TriplePattern) -> Vec<Triple> {
        let mut out = Vec::new();
        self.for_each_match(pattern, &mut |t| out.push(t.to_triple()));
        out
    }
}

impl Graph for TripleStore {
    fn for_each_match(&self, pattern: &TriplePattern, f: &mut dyn FnMut(TripleRef<'_>)) {
        TripleStore::for_each_match(self, pattern, f);
    }
}

impl Graph for rdfmesh_rdf::SharedStore {
    fn for_each_match(&self, pattern: &TriplePattern, f: &mut dyn FnMut(TripleRef<'_>)) {
        rdfmesh_rdf::SharedStore::for_each_match(self, pattern, f);
    }
}

/// A graph with no triples.
///
/// Post-processing ([`finalize`]) operates on solution sets that already
/// arrived at the query initiator; the graph argument is only consulted
/// by DESCRIBE. A caller that finalizes a form it knows is not DESCRIBE
/// passes `NoGraph`; the distributed engines pass the mesh itself, every
/// pattern asked of it one primitive sub-query.
pub struct NoGraph;

impl Graph for NoGraph {
    fn for_each_match(&self, _pattern: &TriplePattern, _f: &mut dyn FnMut(TripleRef<'_>)) {}
}

/// Substitutes the bindings of `solution` into `pattern`, producing a more
/// specific pattern (used when extending partial solutions).
pub fn substitute(pattern: &TriplePattern, solution: &Solution) -> TriplePattern {
    let sub = |tp: &TermPattern| match tp {
        TermPattern::Var(v) => match solution.get(v) {
            Some(t) => TermPattern::Const(t.clone()),
            None => tp.clone(),
        },
        c => c.clone(),
    };
    TriplePattern::new(sub(&pattern.subject), sub(&pattern.predicate), sub(&pattern.object))
}

/// A triple seen through the pattern it matched, over the partial
/// solution being extended: the row that extension *would* produce,
/// before it exists. A filter evaluated on it ([`Bindings`]) decides
/// whether [`Matched::to_solution`] is worth its clones.
#[derive(Debug, Clone, Copy)]
pub struct Matched<'a> {
    /// The pattern the triple matched.
    pub pattern: &'a TriplePattern,
    /// The triple, lent by its graph.
    pub triple: TripleRef<'a>,
    /// The solution the match extends.
    pub partial: &'a Solution,
}

impl<'a> Matched<'a> {
    fn positions(&self) -> [(&'a TermPattern, &'a Term); 3] {
        [
            (&self.pattern.subject, self.triple.subject),
            (&self.pattern.predicate, self.triple.predicate),
            (&self.pattern.object, self.triple.object),
        ]
    }

    /// The extended solution's bindings, `partial`'s first; a variable
    /// the pattern names twice comes twice, and the triple may bind it to
    /// two terms — a conflict, which leaves no extended solution.
    pub fn bindings(&self) -> impl Iterator<Item = (&'a Variable, &'a Term)> + Clone {
        let matched = self.positions().into_iter().filter_map(|(tp, term)| Some((tp.as_var()?, term)));
        self.partial.iter().chain(matched)
    }

    /// The extended solution, materialised: `partial` plus the bindings
    /// the triple induces for the pattern's variables. `None` on conflict.
    pub fn to_solution(&self) -> Option<Solution> {
        let mut out = self.partial.clone();
        for (tp, term) in self.positions() {
            if let TermPattern::Var(v) = tp {
                if !out.bind(v.clone(), term.clone()) {
                    return None;
                }
            }
        }
        Some(out)
    }
}

impl Bindings for Matched<'_> {
    fn get(&self, var: &Variable) -> Option<&Term> {
        // Where the triple and `partial` both bind a variable they agree,
        // or there is no extended solution to ask about.
        self.positions()
            .into_iter()
            .find_map(|(tp, term)| (tp.as_var() == Some(var)).then_some(term))
            .or_else(|| self.partial.get(var))
    }
}

/// Extends `solution` with the bindings a `triple` induces for `pattern`'s
/// variables. Returns `None` on conflict.
pub fn extend(pattern: &TriplePattern, triple: &Triple, solution: &Solution) -> Option<Solution> {
    Matched { pattern, triple: triple.into(), partial: solution }.to_solution()
}

/// Lends `f` every row that matching `pattern` against `graph` adds to
/// one of the `partial` solutions, none of them materialised.
pub fn for_each_extension<G: Graph>(
    graph: &G,
    pattern: &TriplePattern,
    partial: &[Solution],
    mut f: impl FnMut(Matched<'_>),
) {
    for sol in partial {
        let bound = substitute(pattern, sol);
        graph.for_each_match(&bound, &mut |triple| {
            f(Matched { pattern: &bound, triple, partial: sol })
        });
    }
}

/// Evaluates one triple pattern against a graph, extending each of the
/// given partial solutions, into an id-row batch.
pub fn evaluate_pattern_with<G: Graph>(
    graph: &G,
    pattern: &TriplePattern,
    partial: &[Solution],
) -> Rows {
    let mut out = Rows::new();
    for_each_extension(graph, pattern, partial, |row| {
        out.push_bindings(row.bindings());
    });
    out
}

/// Evaluates a graph pattern over `graph`, per the Sect. IV-B semantics.
pub fn evaluate_pattern<G: Graph>(graph: &G, pattern: &GraphPattern) -> SolutionSet {
    match pattern {
        GraphPattern::Bgp(tps) => {
            let mut current = vec![Solution::new()];
            for tp in tps {
                if current.is_empty() {
                    break;
                }
                current = evaluate_pattern_with(graph, tp, &current).into();
            }
            current
        }
        GraphPattern::Join(a, b) => {
            let oa = evaluate_pattern(graph, a);
            if oa.is_empty() {
                return Vec::new();
            }
            let ob = evaluate_pattern(graph, b);
            solution::join(&oa, &ob)
        }
        GraphPattern::Union(a, b) => {
            let oa = evaluate_pattern(graph, a);
            let ob = evaluate_pattern(graph, b);
            solution::union(&oa, &ob)
        }
        GraphPattern::LeftJoin(a, b, expr) => {
            let oa = evaluate_pattern(graph, a);
            let ob = evaluate_pattern(graph, b);
            match expr {
                None => solution::left_join(&oa, &ob),
                Some(cond) => {
                    let cond = cond.compile();
                    solution::left_join_filtered(&oa, &ob, |m| cond.satisfied_by(m))
                }
            }
        }
        GraphPattern::Filter(cond, p) => {
            let cond = cond.compile();
            let mut rows = evaluate_pattern(graph, p);
            rows.retain(|s| cond.satisfied_by(s));
            rows
        }
    }
}

/// The result of a query, shaped by its query form.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// SELECT: a solution sequence.
    Solutions(Vec<Solution>),
    /// ASK: a boolean.
    Boolean(bool),
    /// CONSTRUCT / DESCRIBE: an RDF graph.
    Graph(Vec<Triple>),
}

impl QueryResult {
    /// The solutions, if this is a SELECT result.
    pub fn solutions(&self) -> Option<&[Solution]> {
        match self {
            QueryResult::Solutions(s) => Some(s),
            _ => None,
        }
    }

    /// Number of solutions / triples, or 0/1 for ASK.
    pub fn len(&self) -> usize {
        match self {
            QueryResult::Solutions(s) => s.len(),
            QueryResult::Boolean(b) => usize::from(*b),
            QueryResult::Graph(g) => g.len(),
        }
    }

    /// True if the result carries nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Evaluates a complete query over `graph` — pattern evaluation followed
/// by the post-processing stage of Fig. 3 (modifiers + query form).
pub fn evaluate_query<G: Graph>(graph: &G, query: &AlgebraQuery) -> QueryResult {
    let raw = evaluate_pattern(graph, &query.pattern);
    finalize(graph, query, raw)
}

/// Applies the query form and solution modifiers to raw pattern solutions
/// — a [`SolutionSet`], or an id-row batch ([`Rows`]), whose rows become
/// solutions here.
///
/// Split from [`evaluate_query`] so the distributed engine can run pattern
/// evaluation remotely and post-process at the query initiator.
pub fn finalize<G: Graph>(
    graph: &G,
    query: &AlgebraQuery,
    raw: impl Into<SolutionSet>,
) -> QueryResult {
    let raw = raw.into();
    match &query.form {
        QueryForm::Ask => QueryResult::Boolean(!raw.is_empty()),
        QueryForm::Select { duplicates, projection } => {
            let mut rows = raw;
            apply_order(&mut rows, &query.modifiers);
            if !projection.is_empty() {
                rows.iter_mut().for_each(|s| s.retain(projection));
            }
            let deduped = match duplicates {
                Duplicates::All => rows,
                Duplicates::Distinct | Duplicates::Reduced => solution::distinct(rows),
            };
            QueryResult::Solutions(apply_slice(deduped, &query.modifiers))
        }
        QueryForm::Construct(template) => {
            let mut rows = raw;
            apply_order(&mut rows, &query.modifiers);
            let rows = apply_slice(rows, &query.modifiers);
            let mut triples = Vec::new();
            let mut seen = HashSet::new();
            for sol in &rows {
                for tp in template {
                    if let Some(t) = instantiate(tp, sol) {
                        if seen.insert(t.clone()) {
                            triples.push(t);
                        }
                    }
                }
            }
            QueryResult::Graph(triples)
        }
        QueryForm::Describe(targets) => {
            let mut rows = raw;
            apply_order(&mut rows, &query.modifiers);
            let rows = apply_slice(rows, &query.modifiers);
            let mut resources: Vec<Term> = Vec::new();
            for target in targets {
                match target {
                    DescribeTarget::Iri(iri) => resources.push(Term::Iri(iri.clone())),
                    DescribeTarget::Var(v) => {
                        for sol in &rows {
                            if let Some(t) = sol.get(v) {
                                if !resources.contains(t) {
                                    resources.push(t.clone());
                                }
                            }
                        }
                    }
                }
            }
            let mut triples = Vec::new();
            let mut seen = HashSet::new();
            for r in resources {
                let pat = TriplePattern::new(
                    TermPattern::Const(r),
                    TermPattern::var("p"),
                    TermPattern::var("o"),
                );
                for t in graph.matching(&pat) {
                    if seen.insert(t.clone()) {
                        triples.push(t);
                    }
                }
            }
            QueryResult::Graph(triples)
        }
    }
}

/// Instantiates a pattern under a solution — a CONSTRUCT template, or
/// the pattern a solution answered, back into the triple it matched.
/// `None` when a variable is unbound or a literal would land in an
/// invalid position.
pub fn instantiate<B: Bindings + ?Sized>(tp: &TriplePattern, sol: &B) -> Option<Triple> {
    let resolve = |p: &TermPattern| -> Option<Term> {
        match p {
            TermPattern::Const(t) => Some(t.clone()),
            TermPattern::Var(v) => sol.get(v).cloned(),
        }
    };
    let subject = resolve(&tp.subject)?;
    let predicate = resolve(&tp.predicate)?;
    let object = resolve(&tp.object)?;
    if subject.is_literal() || !predicate.is_iri() {
        return None;
    }
    Some(Triple { subject, predicate, object })
}

fn apply_order(rows: &mut [Solution], modifiers: &Modifiers) {
    if modifiers.order_by.is_empty() {
        return;
    }
    let keys: Vec<(Compiled<'_>, bool)> =
        modifiers.order_by.iter().map(|cmp| (cmp.expression.compile(), cmp.descending)).collect();
    rows.sort_by(|a, b| {
        for (key, descending) in &keys {
            let ord = compare_for_order(key, a, b);
            let ord = if *descending { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
}

/// Total order used by ORDER BY: errors/unbound sort lowest, then
/// numerics by value, then everything else by serialized form.
fn compare_for_order(expr: &Compiled<'_>, a: &Solution, b: &Solution) -> Ordering {
    let ka = expr.evaluate(a).ok();
    let kb = expr.evaluate(b).ok();
    match (ka, kb) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(ta), Some(tb)) => {
            let na = ta.as_literal().and_then(Literal::as_f64);
            let nb = tb.as_literal().and_then(Literal::as_f64);
            match (na, nb) {
                (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
                _ => ta.to_string().cmp(&tb.to_string()),
            }
        }
    }
}

fn apply_slice(mut rows: Vec<Solution>, modifiers: &Modifiers) -> Vec<Solution> {
    if let Some(offset) = modifiers.offset {
        rows.drain(..offset.min(rows.len()));
    }
    if let Some(limit) = modifiers.limit {
        rows.truncate(limit);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{algebra, parser};
    use rdfmesh_rdf::vocab::foaf;

    fn store() -> TripleStore {
        let person = |n: &str| Term::iri(&format!("http://example.org/{n}"));
        let mut s = TripleStore::new();
        let mut add = |a: Term, p: &str, b: Term| {
            s.insert(&Triple::new(a, Term::iri(p), b));
        };
        add(person("alice"), foaf::NAME, Term::literal("Alice Smith"));
        add(person("bob"), foaf::NAME, Term::literal("Bob Jones"));
        add(person("carol"), foaf::NAME, Term::literal("Carol Smith"));
        add(person("alice"), foaf::KNOWS, person("bob"));
        add(person("alice"), foaf::KNOWS, person("carol"));
        add(person("bob"), foaf::KNOWS, person("carol"));
        add(person("carol"), foaf::NICK, Term::literal("Shrek"));
        add(person("alice"), foaf::AGE, Term::Literal(Literal::integer(30)));
        add(person("bob"), foaf::AGE, Term::Literal(Literal::integer(17)));
        s
    }

    fn run(src: &str) -> QueryResult {
        let ast = parser::parse(src).unwrap();
        let q = algebra::translate(&ast);
        evaluate_query(&store(), &q)
    }

    fn names(result: &QueryResult, var: &str) -> Vec<String> {
        result
            .solutions()
            .unwrap()
            .iter()
            .map(|s| s.get_by_name(var).unwrap().to_string())
            .collect()
    }

    #[test]
    fn bgp_single_pattern() {
        let r = run("SELECT ?x WHERE { ?x foaf:knows <http://example.org/carol> . }");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn bgp_join_two_patterns() {
        let r = run("SELECT ?x ?n WHERE { ?x foaf:knows <http://example.org/carol> . ?x foaf:name ?n . }");
        let mut got = names(&r, "n");
        got.sort();
        assert_eq!(got, ["\"Alice Smith\"", "\"Bob Jones\""]);
    }

    #[test]
    fn filter_regex_selects_smiths() {
        let r = run("SELECT ?x WHERE { ?x foaf:name ?n . FILTER regex(?n, \"Smith\") }");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn filter_numeric_comparison() {
        let r = run("SELECT ?x WHERE { ?x foaf:age ?a . FILTER (?a >= 18) }");
        assert_eq!(r.len(), 1);
        assert_eq!(names(&r, "x"), ["<http://example.org/alice>"]);
    }

    #[test]
    fn optional_keeps_unextended_rows() {
        let r = run(
            "SELECT ?x ?nick WHERE { ?x foaf:name ?n . OPTIONAL { ?x foaf:nick ?nick . } }",
        );
        assert_eq!(r.len(), 3);
        let with_nick = r
            .solutions()
            .unwrap()
            .iter()
            .filter(|s| s.get_by_name("nick").is_some())
            .count();
        assert_eq!(with_nick, 1);
    }

    #[test]
    fn union_combines_branches() {
        let r = run(
            "SELECT ?x WHERE { { ?x foaf:nick \"Shrek\" . } UNION { ?x foaf:age ?a . FILTER(?a < 18) } }",
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn ask_true_and_false() {
        assert_eq!(run("ASK { ?x foaf:nick \"Shrek\" . }"), QueryResult::Boolean(true));
        assert_eq!(run("ASK { ?x foaf:nick \"Donkey\" . }"), QueryResult::Boolean(false));
    }

    #[test]
    fn construct_builds_graph() {
        let r = run(
            "CONSTRUCT { ?y <http://example.org/knownBy> ?x . } WHERE { ?x foaf:knows ?y . }",
        );
        let QueryResult::Graph(g) = r else { panic!() };
        assert_eq!(g.len(), 3);
        assert!(g.iter().all(|t| t.predicate == Term::iri("http://example.org/knownBy")));
    }

    #[test]
    fn describe_returns_subject_triples() {
        let r = run("DESCRIBE <http://example.org/alice>");
        let QueryResult::Graph(g) = r else { panic!() };
        assert_eq!(g.len(), 4); // name, knows x2, age
    }

    #[test]
    fn order_by_desc_and_limit() {
        let r = run("SELECT ?x ?a WHERE { ?x foaf:age ?a . } ORDER BY DESC(?a) LIMIT 1");
        assert_eq!(names(&r, "x"), ["<http://example.org/alice>"]);
        let r = run("SELECT ?x ?a WHERE { ?x foaf:age ?a . } ORDER BY ?a LIMIT 1");
        assert_eq!(names(&r, "x"), ["<http://example.org/bob>"]);
    }

    #[test]
    fn offset_skips_rows() {
        let r = run("SELECT ?x WHERE { ?x foaf:name ?n . } ORDER BY ?n OFFSET 1 LIMIT 1");
        assert_eq!(r.len(), 1);
        assert_eq!(names(&r, "x"), ["<http://example.org/bob>"]);
    }

    #[test]
    fn distinct_removes_duplicates() {
        // ?x knows someone — alice appears twice without DISTINCT.
        let all = run("SELECT ?x WHERE { ?x foaf:knows ?y . }");
        assert_eq!(all.len(), 3);
        let distinct = run("SELECT DISTINCT ?x WHERE { ?x foaf:knows ?y . }");
        assert_eq!(distinct.len(), 2);
    }

    #[test]
    fn projection_narrows_bindings() {
        let r = run("SELECT ?n WHERE { ?x foaf:name ?n . ?x foaf:age ?a . }");
        for s in r.solutions().unwrap() {
            assert!(s.get_by_name("x").is_none());
            assert!(s.get_by_name("n").is_some());
        }
    }

    #[test]
    fn select_star_keeps_all_variables() {
        let r = run("SELECT * WHERE { ?x foaf:age ?a . }");
        for s in r.solutions().unwrap() {
            assert!(s.get_by_name("x").is_some());
            assert!(s.get_by_name("a").is_some());
        }
    }

    #[test]
    fn empty_bgp_yields_unit_solution() {
        let r = run("SELECT * WHERE { }");
        assert_eq!(r.len(), 1);
        assert!(r.solutions().unwrap()[0].is_empty());
    }

    #[test]
    fn optional_with_filter_condition_fig7_shape() {
        // Fig. 7: OPTIONAL branch matches only "Shrek" nicks.
        let r = run(
            "SELECT ?x ?y WHERE { ?x foaf:name \"Alice Smith\" . ?x foaf:knows ?y . OPTIONAL { ?y foaf:nick \"Shrek\" . } }",
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn paper_fig4_query_end_to_end() {
        // The Fig. 4 query needs knowsNothingAbout data; extend the store.
        let mut s = store();
        let person = |n: &str| Term::iri(&format!("http://example.org/{n}"));
        s.insert(&Triple::new(
            person("alice"),
            Term::iri(rdfmesh_rdf::vocab::ns::KNOWS_NOTHING_ABOUT),
            person("bob"),
        ));
        let ast = parser::parse(
            "SELECT ?x ?y ?z WHERE { ?x foaf:name ?name . ?x foaf:knows ?z . ?x ns:knowsNothingAbout ?y . ?y foaf:knows ?z . FILTER regex(?name, \"Smith\") } ORDER BY DESC(?x)",
        )
        .unwrap();
        let q = algebra::translate(&ast);
        let r = evaluate_query(&s, &q);
        // alice knows carol, alice knowsNothingAbout bob, bob knows carol:
        // ?x=alice, ?y=bob, ?z=carol.
        assert_eq!(r.len(), 1);
        let sol = &r.solutions().unwrap()[0];
        assert_eq!(sol.get_by_name("x").unwrap(), &person("alice"));
        assert_eq!(sol.get_by_name("y").unwrap(), &person("bob"));
        assert_eq!(sol.get_by_name("z").unwrap(), &person("carol"));
    }

    /// SELECT post-processing as it was before it worked on the rows it
    /// owns: every row rebuilt by the cloning `Solution::project`, the
    /// slice taken through an iterator. What [`finalize`] must equal.
    fn finalize_by_projection(query: &AlgebraQuery, raw: SolutionSet) -> QueryResult {
        let QueryForm::Select { duplicates, projection } = &query.form else {
            unreachable!("the differential generates SELECT only")
        };
        let mut rows = raw;
        apply_order(&mut rows, &query.modifiers);
        let projected: Vec<Solution> = if projection.is_empty() {
            rows
        } else {
            rows.iter().map(|s| s.project(projection)).collect()
        };
        let deduped = match duplicates {
            Duplicates::All => projected,
            Duplicates::Distinct | Duplicates::Reduced => solution::distinct(projected),
        };
        let offset = query.modifiers.offset.unwrap_or(0);
        let limit = query.modifiers.limit.unwrap_or(usize::MAX);
        QueryResult::Solutions(deduped.into_iter().skip(offset).take(limit).collect())
    }

    mod generated {
        use super::*;
        use crate::ast::{Dataset, OrderComparator};
        use crate::expr::Expression;
        use proptest::prelude::*;

        const VARS: [&str; 4] = ["a", "b", "c", "d"];

        fn var(i: usize) -> Variable {
            Variable::new(VARS[i])
        }

        /// Rows binding any subset of four variables to one of three
        /// values: duplicates, differing domains and ORDER BY ties are
        /// all common.
        fn arb_rows() -> impl Strategy<Value = SolutionSet> {
            let cell = (0usize..4, 0i64..3);
            let row = proptest::collection::vec(cell, 0..5).prop_map(|cells| {
                Solution::from_pairs(
                    cells.into_iter().map(|(v, n)| (var(v), Term::Literal(Literal::integer(n)))),
                )
            });
            proptest::collection::vec(row, 0..12)
        }

        /// A SELECT over no pattern: the projection (empty is `*`; may
        /// name a variable no row binds, or one twice), the duplicate
        /// rule, up to two ORDER BY keys, OFFSET and LIMIT — each absent,
        /// zero, inside and past the end.
        fn arb_query() -> impl Strategy<Value = AlgebraQuery> {
            let duplicates = proptest::sample::select(
                &[Duplicates::All, Duplicates::Distinct, Duplicates::Reduced][..],
            );
            let key = (0usize..4, any::<bool>()).prop_map(|(v, descending)| OrderComparator {
                expression: Expression::Var(var(v)),
                descending,
            });
            let slice = || prop_oneof![2 => Just(None), 3 => (0usize..15).prop_map(Some)];
            (
                proptest::collection::vec(0usize..4, 0..4),
                duplicates,
                proptest::collection::vec(key, 0..3),
                slice(),
                slice(),
            )
                .prop_map(|(projection, duplicates, order_by, offset, limit)| AlgebraQuery {
                    form: QueryForm::Select {
                        duplicates,
                        projection: projection.into_iter().map(var).collect(),
                    },
                    dataset: Dataset::default(),
                    pattern: GraphPattern::Bgp(Vec::new()),
                    modifiers: Modifiers { order_by, limit, offset },
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            #[test]
            fn finalize_in_place_equals_finalize_by_projection(
                rows in arb_rows(),
                query in arb_query(),
            ) {
                prop_assert_eq!(
                    finalize(&NoGraph, &query, rows.clone()),
                    finalize_by_projection(&query, rows)
                );
            }
        }
    }
}
