//! Local evaluation of algebra expressions over a graph.
//!
//! Two things live here. The "Local Query Execution" stage of the
//! paper's workflow (Fig. 3): a storage node matches a triple pattern
//! against its own RDF data repository through [`for_each_extension`],
//! and the initiator post-processes the gathered id-row batch with
//! [`finalize`]. And the ground-truth oracle the distributed executor is
//! tested against, [`evaluate_query`]: it evaluates on [`Solution`]s
//! alone, every operator by its nested-loop definition
//! ([`solution::naive`]) and every modifier by its own code, so a wrong
//! row from the batch algebra ([`Rows`]) cannot appear on both sides of a
//! differential test. What the two share only reads finished rows: the
//! CONSTRUCT / DESCRIBE tail. ORDER BY is written twice on purpose:
//! [`finalize`] sorts by each row's key values, computed once, and the
//! oracle compares by evaluating both keys on every comparison.

use std::cmp::Ordering;
use std::collections::HashSet;

use rdfmesh_rdf::{
    Literal, Term, TermPattern, Triple, TriplePattern, TripleRef, TripleStore, Variable,
};

use crate::algebra::{AlgebraQuery, GraphPattern};
use crate::answer::QueryResult;
use crate::ast::{DescribeTarget, Duplicates, Modifiers, QueryForm};
use crate::expr::{Bindings, Compiled};
use crate::rows::Rows;
use crate::solution::{self, naive, Solution, SolutionSet};

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

/// Evaluates a graph pattern over `graph`, per the Sect. IV-B semantics:
/// the oracle's pattern evaluation, on [`Solution`]s alone — a BGP one
/// triple pattern at a time, every binary operator by its nested-loop
/// definition ([`naive`]).
pub fn evaluate_pattern<G: Graph>(graph: &G, pattern: &GraphPattern) -> SolutionSet {
    let both = |a: &GraphPattern, b: &GraphPattern| {
        (evaluate_pattern(graph, a), evaluate_pattern(graph, b))
    };
    match pattern {
        GraphPattern::Bgp(tps) => {
            let mut current = vec![Solution::new()];
            for tp in tps {
                let mut next = Vec::new();
                for_each_extension(graph, tp, &current, |m| next.extend(m.to_solution()));
                current = next;
            }
            current
        }
        GraphPattern::Join(a, b) => {
            let (oa, ob) = both(a, b);
            naive::join(&oa, &ob)
        }
        GraphPattern::Union(a, b) => {
            let (oa, ob) = both(a, b);
            solution::union(&oa, &ob)
        }
        GraphPattern::LeftJoin(a, b, None) => {
            let (oa, ob) = both(a, b);
            naive::left_join(&oa, &ob)
        }
        GraphPattern::LeftJoin(a, b, Some(cond)) => {
            let (oa, ob) = both(a, b);
            let cond = cond.compile();
            naive::left_join_filtered(&oa, &ob, |m| cond.satisfied_by(m))
        }
        GraphPattern::Filter(cond, p) => {
            let cond = cond.compile();
            let mut rows = evaluate_pattern(graph, p);
            rows.retain(|s| cond.satisfied_by(s));
            rows
        }
    }
}

/// Evaluates a complete query over `graph` — pattern evaluation followed
/// by the post-processing stage of Fig. 3 (modifiers + query form). This
/// is the central oracle every distributed answer is tested against: it
/// runs on [`Solution`]s from the first triple to the answer. Of what
/// the engines run on their batches ([`Rows`]) and [`finalize`], it
/// shares only what reads finished rows: the CONSTRUCT / DESCRIBE tail.
pub fn evaluate_query<G: Graph>(graph: &G, query: &AlgebraQuery) -> QueryResult {
    post_process(graph, query, evaluate_pattern(graph, &query.pattern))
}

/// The oracle's post-processing, on [`Solution`]s: a stable sort, every
/// SELECT row rebuilt by the cloning [`Solution::project`], duplicates
/// dropped by the nested-loop [`naive::distinct`], the slice taken
/// through an iterator. What [`finalize`] must equal.
fn post_process<G: Graph>(graph: &G, query: &AlgebraQuery, mut rows: SolutionSet) -> QueryResult {
    if matches!(query.form, QueryForm::Ask) {
        return QueryResult::Boolean(!rows.is_empty());
    }
    let keys = order_keys(&query.modifiers);
    rows.sort_by(|a, b| compare_rows(&keys, a, b));
    if let QueryForm::Select { duplicates, projection } = &query.form {
        if !projection.is_empty() {
            rows = rows.iter().map(|s| s.project(projection)).collect();
        }
        if *duplicates != Duplicates::All {
            rows = naive::distinct(rows);
        }
    }
    let offset = query.modifiers.offset.unwrap_or(0);
    let limit = query.modifiers.limit.unwrap_or(usize::MAX);
    let rows: SolutionSet = rows.into_iter().skip(offset).take(limit).collect();
    match &query.form {
        QueryForm::Select { .. } => QueryResult::Solutions(rows.into()),
        form => graph_form(graph, form, &rows),
    }
}

/// Applies the query form and solution modifiers to raw pattern solutions
/// — an id-row batch, ordered, projected, deduplicated and sliced in
/// place; a SELECT answer leaves as that batch.
///
/// Split from pattern evaluation: the distributed engine evaluates the
/// pattern remotely and post-processes at the query initiator.
pub fn finalize<G: Graph>(graph: &G, query: &AlgebraQuery, mut rows: Rows) -> QueryResult {
    if matches!(query.form, QueryForm::Ask) {
        return QueryResult::Boolean(!rows.is_empty());
    }
    if !query.modifiers.order_by.is_empty() {
        let keys = order_keys(&query.modifiers);
        let width = keys.len();
        let values: Vec<OrderValue> = rows
            .iter()
            .flat_map(|row| keys.iter().map(move |(key, _)| OrderValue::of(key, &row)))
            .collect();
        rows.sort_by_index(|&a, &b| {
            for (k, (_, descending)) in keys.iter().enumerate() {
                let ord = values[a * width + k].cmp(&values[b * width + k]);
                let ord = if *descending { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }
    if let QueryForm::Select { duplicates, projection } = &query.form {
        if !projection.is_empty() {
            rows.keep_columns(projection);
        }
        if *duplicates != Duplicates::All {
            rows = rows.distinct();
        }
    }
    rows.slice(query.modifiers.offset.unwrap_or(0), query.modifiers.limit);
    match &query.form {
        QueryForm::Select { .. } => QueryResult::Solutions(rows.into()),
        form => graph_form(graph, form, &rows.iter().collect::<Vec<_>>()),
    }
}

/// The CONSTRUCT / DESCRIBE graph of the finished `rows`, each triple
/// once in first-built order. It reads rows and modifies none, so
/// [`finalize`] and the oracle share it.
fn graph_form<G: Graph, B: Bindings>(graph: &G, form: &QueryForm, rows: &[B]) -> QueryResult {
    let mut triples = Vec::new();
    let mut seen = HashSet::new();
    let mut keep = |t: Triple| {
        if seen.insert(t.clone()) {
            triples.push(t);
        }
    };
    match form {
        QueryForm::Construct(template) => {
            for row in rows {
                template.iter().filter_map(|tp| instantiate(tp, row)).for_each(&mut keep);
            }
        }
        QueryForm::Describe(targets) => {
            let mut resources: Vec<Term> = Vec::new();
            for target in targets {
                match target {
                    DescribeTarget::Iri(iri) => resources.push(Term::Iri(iri.clone())),
                    DescribeTarget::Var(v) => {
                        for t in rows.iter().filter_map(|row| row.get(v)) {
                            if !resources.contains(t) {
                                resources.push(t.clone());
                            }
                        }
                    }
                }
            }
            for r in resources {
                let pat = TriplePattern::new(
                    TermPattern::Const(r),
                    TermPattern::var("p"),
                    TermPattern::var("o"),
                );
                graph.matching(&pat).into_iter().for_each(&mut keep);
            }
        }
        QueryForm::Select { .. } | QueryForm::Ask => unreachable!("not a graph form"),
    }
    QueryResult::Graph(triples)
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

/// The ORDER BY comparators, compiled, each with its direction.
fn order_keys(modifiers: &Modifiers) -> Vec<(Compiled<'_>, bool)> {
    modifiers.order_by.iter().map(|cmp| (cmp.expression.compile(), cmp.descending)).collect()
}

/// Two rows in the order `keys` give: the first key that tells them apart.
fn compare_rows<B: Bindings>(keys: &[(Compiled<'_>, bool)], a: &B, b: &B) -> Ordering {
    for (key, descending) in keys {
        let ord = compare_for_order(key, a, b);
        let ord = if *descending { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// One row's value under one ORDER BY key, evaluated once: its rank,
/// its number if it is a numeric literal, and its N-Triples form. It
/// orders as [`compare_for_order`] orders the terms, so [`finalize`]
/// sorts by values computed once per row where the oracle re-evaluates
/// both keys on every comparison.
struct OrderValue {
    /// 0 for an error or an unbound key, then blank nodes, IRIs, literals.
    rank: u8,
    number: Option<f64>,
    /// Empty for rank 0.
    text: String,
}

impl OrderValue {
    fn of<B: Bindings>(expr: &Compiled<'_>, row: &B) -> OrderValue {
        let Ok(term) = expr.evaluate(row) else {
            return OrderValue { rank: 0, number: None, text: String::new() };
        };
        let rank = match term {
            Term::Blank(_) => 1,
            Term::Iri(_) => 2,
            Term::Literal(_) => 3,
        };
        let number = term.as_literal().and_then(Literal::as_f64);
        OrderValue { rank, number, text: term.to_string() }
    }

    fn cmp(&self, other: &OrderValue) -> Ordering {
        let by_value = || match (self.number, other.number) {
            (Some(x), Some(y)) => x.total_cmp(&y),
            (x, y) => y.is_some().cmp(&x.is_some()),
        };
        self.rank.cmp(&other.rank).then_with(by_value).then_with(|| self.text.cmp(&other.text))
    }
}

/// The total order ORDER BY sorts by (SPARQL 1.1 §15.1): an error or
/// an unbound key first, then blank nodes, IRIs, and literals last.
/// Numeric literals precede the other literals and compare by value
/// ([`f64::total_cmp`]); everything else compares by its N-Triples form,
/// which also breaks ties in value, so only identical terms are equal.
/// The oracle's comparison, both keys evaluated on every call; the
/// reference [`OrderValue`] is held to.
fn compare_for_order<B: Bindings>(expr: &Compiled<'_>, a: &B, b: &B) -> Ordering {
    let rank = |t: &Option<Term>| match t {
        None => 0,
        Some(Term::Blank(_)) => 1,
        Some(Term::Iri(_)) => 2,
        Some(Term::Literal(_)) => 3,
    };
    let number = |t: &Term| t.as_literal().and_then(Literal::as_f64);
    let (ka, kb) = (expr.evaluate(a).ok(), expr.evaluate(b).ok());
    rank(&ka).cmp(&rank(&kb)).then_with(|| match (ka, kb) {
        (Some(ta), Some(tb)) => {
            let by_value = match (number(&ta), number(&tb)) {
                (Some(x), Some(y)) => x.total_cmp(&y),
                (x, y) => y.is_some().cmp(&x.is_some()),
            };
            by_value.then_with(|| ta.to_string().cmp(&tb.to_string()))
        }
        _ => Ordering::Equal,
    })
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

    fn int(n: i64) -> Term {
        Term::Literal(Literal::integer(n))
    }

    /// One row per entry of `terms`, binding `?o` to it or leaving `?o`
    /// unbound, post-processed by `query` on the batch and by the oracle.
    fn both_ways(query: &str, terms: &[Option<Term>]) -> [QueryResult; 2] {
        let q = algebra::translate(&parser::parse(query).unwrap());
        let o = Variable::new("o");
        let row = |t: &Option<Term>| Solution::from_pairs(t.iter().map(|t| (o.clone(), t.clone())));
        let rows: SolutionSet = terms.iter().map(row).collect();
        [finalize(&NoGraph, &q, Rows::from_solutions(&rows)), post_process(&NoGraph, &q, rows)]
    }

    #[test]
    fn order_by_is_total_over_mixed_kinds() {
        // Numbers by value and the rest by string made 10 < "5x" < 9 < 10
        // a cycle: the first row depended on the input order.
        let (nine, ten, word) = (int(9), int(10), Term::literal("5x"));
        let query = "SELECT ?o WHERE { } ORDER BY ?o LIMIT 1";
        for terms in [
            [&nine, &ten, &word],
            [&nine, &word, &ten],
            [&ten, &nine, &word],
            [&ten, &word, &nine],
            [&word, &nine, &ten],
            [&word, &ten, &nine],
        ] {
            let terms: Vec<Option<Term>> = terms.into_iter().cloned().map(Some).collect();
            for result in both_ways(query, &terms) {
                assert_eq!(result.solutions().unwrap()[0].get_by_name("o"), Some(&nine));
            }
        }
    }

    #[test]
    fn order_by_ranks_unbound_blank_nodes_iris_then_literals_numbers_first() {
        let decimal = rdfmesh_rdf::Iri::new(rdfmesh_rdf::vocab::xsd::DECIMAL).unwrap();
        let ordered = vec![
            None,
            Some(Term::blank("b")),
            Some(Term::iri("http://e/a")),
            Some(int(2)),
            Some(Term::Literal(Literal::typed("2.0", decimal))),
            Some(int(10)),
            Some(Term::literal("10x")),
            Some(Term::literal("a")),
        ];
        let mut shuffled = ordered.clone();
        shuffled.reverse();
        shuffled.swap(1, 4);
        for result in both_ways("SELECT ?o WHERE { } ORDER BY ?o", &shuffled) {
            let got: Vec<Option<&Term>> =
                result.solutions().unwrap().iter().map(|s| s.get_by_name("o")).collect();
            assert_eq!(got, ordered.iter().map(Option::as_ref).collect::<Vec<_>>());
        }
    }

    mod generated {
        use super::*;
        use crate::ast::{Dataset, OrderComparator};
        use crate::expr::Expression;
        use proptest::prelude::*;

        /// The variables rows bind; a projection or an ORDER BY key names
        /// only the first four, so `?e` is bound outside every projection.
        const VARS: [&str; 5] = ["a", "b", "c", "d", "e"];

        fn var(i: usize) -> Variable {
            Variable::new(VARS[i])
        }

        /// One of three integers or three IRIs.
        fn value(iri: bool, n: i64) -> Term {
            match iri {
                true => Term::iri(&format!("http://e/{n}")),
                false => Term::Literal(Literal::integer(n)),
            }
        }

        /// Rows binding any subset of five variables to one of six
        /// values: duplicates, differing domains and ORDER BY ties are
        /// all common.
        fn arb_rows() -> impl Strategy<Value = SolutionSet> {
            let cell = (0usize..VARS.len(), any::<bool>(), 0i64..3);
            let row = proptest::collection::vec(cell, 0..6).prop_map(|cells| {
                Solution::from_pairs(cells.into_iter().map(|(v, iri, n)| (var(v), value(iri, n))))
            });
            proptest::collection::vec(row, 0..12)
        }

        /// A CONSTRUCT template position: a variable or a constant.
        fn arb_position() -> impl Strategy<Value = TermPattern> {
            prop_oneof![
                3 => (0usize..VARS.len()).prop_map(|v| TermPattern::Var(var(v))),
                1 => (any::<bool>(), 0i64..3).prop_map(|(iri, n)| TermPattern::Const(value(iri, n))),
            ]
        }

        /// SELECT (the projection — empty is `*`; may name a variable no
        /// row binds, or one twice — and the duplicate rule), ASK or
        /// CONSTRUCT over no pattern, with up to two ORDER BY keys,
        /// OFFSET and LIMIT — each absent, zero, inside and past the end.
        fn arb_query() -> impl Strategy<Value = AlgebraQuery> {
            let duplicates = proptest::sample::select(
                &[Duplicates::All, Duplicates::Distinct, Duplicates::Reduced][..],
            );
            let select = (proptest::collection::vec(0usize..4, 0..4), duplicates).prop_map(
                |(projection, duplicates)| QueryForm::Select {
                    duplicates,
                    projection: projection.into_iter().map(var).collect(),
                },
            );
            let pattern = (arb_position(), arb_position(), arb_position())
                .prop_map(|(s, p, o)| TriplePattern::new(s, p, o));
            let form = prop_oneof![
                4 => select,
                1 => Just(QueryForm::Ask),
                2 => proptest::collection::vec(pattern, 1..3).prop_map(QueryForm::Construct),
            ];
            let key = (0usize..4, any::<bool>()).prop_map(|(v, descending)| OrderComparator {
                expression: Expression::Var(var(v)),
                descending,
            });
            let slice = || prop_oneof![2 => Just(None), 3 => (0usize..15).prop_map(Some)];
            (form, proptest::collection::vec(key, 0..3), slice(), slice()).prop_map(
                |(form, order_by, offset, limit)| AlgebraQuery {
                    form,
                    dataset: Dataset::default(),
                    pattern: GraphPattern::Bgp(Vec::new()),
                    modifiers: Modifiers { order_by, limit, offset },
                },
            )
        }

        /// Every kind of term, with numbers of two datatypes that tie in
        /// value and literals that look numeric but do not parse.
        fn mixed_term() -> impl Strategy<Value = Term> {
            let decimal = rdfmesh_rdf::Iri::new(rdfmesh_rdf::vocab::xsd::DECIMAL).unwrap();
            proptest::sample::select(&[
                Term::blank("b0"),
                Term::blank("b1"),
                Term::iri("http://e/10"),
                Term::iri("http://e/9"),
                Term::Literal(Literal::integer(9)),
                Term::Literal(Literal::integer(10)),
                Term::Literal(Literal::typed("9.0", decimal)),
                Term::literal("10"),
                Term::literal("5x"),
                Term::Literal(Literal::lang("5x", "en")),
            ])
        }

        /// Rows binding any subset of the four ORDER BY variables.
        fn mixed_rows() -> impl Strategy<Value = SolutionSet> {
            let row = proptest::collection::vec((0usize..4, mixed_term()), 0..5)
                .prop_map(|cells| Solution::from_pairs(cells.into_iter().map(|(v, t)| (var(v), t))));
            proptest::collection::vec(row, 0..10)
        }

        /// `items` in the order of their `keys`.
        fn shuffle<T: Clone>(items: &[T], keys: &[u32]) -> Vec<T> {
            let mut order: Vec<usize> = (0..items.len()).collect();
            order.sort_by_key(|&i| keys[i]);
            order.into_iter().map(|i| items[i].clone()).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            #[test]
            fn finalize_in_place_equals_the_oracles_post_processing(
                rows in arb_rows(),
                query in arb_query(),
            ) {
                prop_assert_eq!(
                    finalize(&NoGraph, &query, Rows::from_solutions(&rows)),
                    post_process(&NoGraph, &query, rows)
                );
            }

            /// ORDER BY every variable, so that only identical rows tie:
            /// LIMIT then cuts the same rows whatever order they came in —
            /// a total order, on the batch and in the oracle alike.
            #[test]
            fn order_by_and_limit_ignore_the_input_order(
                rows in mixed_rows(),
                row_keys in proptest::collection::vec(any::<u32>(), 10),
                var_keys in proptest::collection::vec(any::<u32>(), 4),
                descending in proptest::collection::vec(any::<bool>(), 4),
                limit in 0usize..6,
            ) {
                let shuffled = shuffle(&rows, &row_keys);
                let vars = shuffle(&[0, 1, 2, 3], &var_keys);
                let order_by = vars.into_iter().zip(descending).map(|(v, descending)| {
                    OrderComparator { expression: Expression::Var(var(v)), descending }
                });
                let query = AlgebraQuery {
                    form: QueryForm::Select { duplicates: Duplicates::All, projection: Vec::new() },
                    dataset: Dataset::default(),
                    pattern: GraphPattern::Bgp(Vec::new()),
                    modifiers: Modifiers { order_by: order_by.collect(), limit: Some(limit), offset: None },
                };
                let oracle = post_process(&NoGraph, &query, rows.clone());
                prop_assert_eq!(&post_process(&NoGraph, &query, shuffled.clone()), &oracle);
                prop_assert_eq!(&finalize(&NoGraph, &query, Rows::from_solutions(&rows)), &oracle);
                prop_assert_eq!(&finalize(&NoGraph, &query, Rows::from_solutions(&shuffled)), &oracle);
            }
        }
    }
}
