//! The SPARQL algebra and the AST → algebra translation.
//!
//! Graph pattern expressions are evaluated per the compositional
//! semantics of Pérez et al. that the paper reproduces in Sect. IV-B:
//! `AND` ↦ join, `UNION` ↦ set union, `OPT` ↦ left outer join, `FILTER`
//! ↦ selection. The translation of `OPTIONAL { … FILTER C }` into
//! `LeftJoin(P1, P2, C)` follows the W3C rules referenced in Sect. IV-E.

use std::fmt;

use rdfmesh_rdf::{TriplePattern, Variable};

use crate::ast;
use crate::expr::Expression;

/// A graph pattern algebra expression.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphPattern {
    /// A Basic Graph Pattern: a set of triple patterns joined by AND.
    Bgp(Vec<TriplePattern>),
    /// `Join(P1, P2)` — ⟦P1⟧ ⋈ ⟦P2⟧.
    Join(Box<GraphPattern>, Box<GraphPattern>),
    /// `LeftJoin(P1, P2, expr)` — ⟦P1⟧ ⟕ ⟦P2⟧ with an optional embedded
    /// filter condition (`true` when absent, per the translation rules).
    LeftJoin(Box<GraphPattern>, Box<GraphPattern>, Option<Expression>),
    /// `Union(P1, P2)` — ⟦P1⟧ ∪ ⟦P2⟧.
    Union(Box<GraphPattern>, Box<GraphPattern>),
    /// `Filter(R, P)` — the solutions of ⟦P⟧ satisfying `R`.
    Filter(Expression, Box<GraphPattern>),
}

impl GraphPattern {
    /// An empty BGP — the identity of join.
    pub fn unit() -> Self {
        GraphPattern::Bgp(Vec::new())
    }

    /// True if this is the empty BGP.
    pub fn is_unit(&self) -> bool {
        matches!(self, GraphPattern::Bgp(tps) if tps.is_empty())
    }

    /// Joins two patterns, simplifying away the unit pattern and merging
    /// adjacent BGPs (which is sound because BGP evaluation is itself an
    /// all-pairs join).
    pub fn join(self, other: GraphPattern) -> GraphPattern {
        match (self, other) {
            (a, b) if a.is_unit() => b,
            (a, b) if b.is_unit() => a,
            (GraphPattern::Bgp(mut a), GraphPattern::Bgp(b)) => {
                a.extend(b);
                GraphPattern::Bgp(a)
            }
            (a, b) => GraphPattern::Join(Box::new(a), Box::new(b)),
        }
    }

    /// All variables occurring anywhere in the pattern (including inside
    /// filter expressions), deduplicated in first-occurrence order.
    pub fn variables(&self) -> Vec<Variable> {
        let mut out = Vec::new();
        self.collect_variables(&mut out);
        out
    }

    fn collect_variables(&self, out: &mut Vec<Variable>) {
        match self {
            GraphPattern::Bgp(tps) => {
                for tp in tps {
                    for v in tp.variables() {
                        if !out.contains(v) {
                            out.push(v.clone());
                        }
                    }
                }
            }
            GraphPattern::Join(a, b) | GraphPattern::Union(a, b) => {
                a.collect_variables(out);
                b.collect_variables(out);
            }
            GraphPattern::LeftJoin(a, b, expr) => {
                a.collect_variables(out);
                b.collect_variables(out);
                if let Some(e) = expr {
                    for v in e.variables() {
                        if !out.contains(&v) {
                            out.push(v);
                        }
                    }
                }
            }
            GraphPattern::Filter(e, p) => {
                p.collect_variables(out);
                for v in e.variables() {
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
        }
    }

    /// Variables *certainly bound* by every solution of this pattern.
    ///
    /// Used by filter pushing: a filter may be pushed into a sub-pattern
    /// only if the sub-pattern certainly binds all of the filter's
    /// variables. Optional branches do not certainly bind anything.
    pub fn certain_variables(&self) -> Vec<Variable> {
        match self {
            GraphPattern::Bgp(_) => self.variables(),
            GraphPattern::Join(a, b) => {
                let mut out = a.certain_variables();
                for v in b.certain_variables() {
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
                out
            }
            GraphPattern::LeftJoin(a, _, _) => a.certain_variables(),
            GraphPattern::Union(a, b) => {
                // Only variables bound on *both* branches are certain.
                let bs = b.certain_variables();
                a.certain_variables().into_iter().filter(|v| bs.contains(v)).collect()
            }
            GraphPattern::Filter(_, p) => p.certain_variables(),
        }
    }

    /// Number of triple patterns in the expression.
    pub fn triple_pattern_count(&self) -> usize {
        match self {
            GraphPattern::Bgp(tps) => tps.len(),
            GraphPattern::Join(a, b) | GraphPattern::Union(a, b) => {
                a.triple_pattern_count() + b.triple_pattern_count()
            }
            GraphPattern::LeftJoin(a, b, _) => a.triple_pattern_count() + b.triple_pattern_count(),
            GraphPattern::Filter(_, p) => p.triple_pattern_count(),
        }
    }
}

impl fmt::Display for GraphPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphPattern::Bgp(tps) => {
                write!(f, "BGP(")?;
                for (i, tp) in tps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{tp}")?;
                }
                write!(f, ")")
            }
            GraphPattern::Join(a, b) => write!(f, "Join({a}, {b})"),
            GraphPattern::LeftJoin(a, b, Some(_)) => write!(f, "LeftJoin({a}, {b}, expr)"),
            GraphPattern::LeftJoin(a, b, None) => write!(f, "LeftJoin({a}, {b}, true)"),
            GraphPattern::Union(a, b) => write!(f, "Union({a}, {b})"),
            GraphPattern::Filter(_, p) => write!(f, "Filter(expr, {p})"),
        }
    }
}

/// A fully translated query: algebra plus form, dataset and modifiers.
#[derive(Debug, Clone, PartialEq)]
pub struct AlgebraQuery {
    /// The query form.
    pub form: ast::QueryForm,
    /// The dataset clause.
    pub dataset: ast::Dataset,
    /// The WHERE clause as algebra.
    pub pattern: GraphPattern,
    /// Solution sequence modifiers.
    pub modifiers: ast::Modifiers,
}

/// Translates a parsed query into the algebra (the paper's Query
/// Transformation stage, Fig. 3).
pub fn translate(query: &ast::Query) -> AlgebraQuery {
    AlgebraQuery {
        form: query.form.clone(),
        dataset: query.dataset.clone(),
        pattern: translate_group(&query.where_clause),
        modifiers: query.modifiers.clone(),
    }
}

/// Translates one group graph pattern `{ … }` following the W3C
/// translation algorithm: elements are folded left-to-right (OPTIONAL
/// becomes LeftJoin against everything accumulated so far); FILTERs apply
/// to the whole group and wrap the result.
pub fn translate_group(group: &ast::GroupPattern) -> GraphPattern {
    let mut current = GraphPattern::unit();
    let mut filters: Vec<Expression> = Vec::new();

    for element in &group.elements {
        match element {
            ast::Element::Triples(tps) => {
                current = current.join(GraphPattern::Bgp(tps.clone()));
            }
            ast::Element::Union(branches) => {
                let translated = branches
                    .iter()
                    .map(translate_group)
                    .reduce(|a, b| GraphPattern::Union(Box::new(a), Box::new(b)))
                    .unwrap_or_else(GraphPattern::unit);
                current = current.join(translated);
            }
            ast::Element::Optional(inner) => {
                let translated = translate_group(inner);
                // OPTIONAL { P FILTER C } becomes LeftJoin(G, P, C).
                current = match translated {
                    GraphPattern::Filter(c, p) => {
                        GraphPattern::LeftJoin(Box::new(current), p, Some(c))
                    }
                    p => GraphPattern::LeftJoin(Box::new(current), Box::new(p), None),
                };
            }
            ast::Element::Filter(e) => filters.push(e.clone()),
        }
    }

    match filters.into_iter().reduce(|a, b| Expression::And(Box::new(a), Box::new(b))) {
        Some(cond) => GraphPattern::Filter(cond, Box::new(current)),
        None => current,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfmesh_rdf::{Term, TermPattern, Variable};

    fn tp(s: &str, p: &str, o: &str) -> TriplePattern {
        let part = |x: &str| {
            if let Some(name) = x.strip_prefix('?') {
                TermPattern::var(name)
            } else {
                TermPattern::Const(Term::iri(&format!("http://e/{x}")))
            }
        };
        TriplePattern::new(part(s), part(p), part(o))
    }

    fn group(elements: Vec<ast::Element>) -> ast::GroupPattern {
        ast::GroupPattern { elements }
    }

    #[test]
    fn single_bgp_translation() {
        // Fig. 5: BGP(P) for a single triple pattern.
        let g = group(vec![ast::Element::Triples(vec![tp("?x", "knows", "me")])]);
        assert_eq!(translate_group(&g), GraphPattern::Bgp(vec![tp("?x", "knows", "me")]));
    }

    #[test]
    fn conjunction_merges_into_one_bgp() {
        // Fig. 6: BGP(P1 . P2).
        let g = group(vec![
            ast::Element::Triples(vec![tp("?x", "knows", "?z")]),
            ast::Element::Triples(vec![tp("?x", "kna", "?y")]),
        ]);
        match translate_group(&g) {
            GraphPattern::Bgp(tps) => assert_eq!(tps.len(), 2),
            other => panic!("expected merged BGP, got {other}"),
        }
    }

    #[test]
    fn optional_translates_to_leftjoin_true() {
        // Fig. 7: LeftJoin(BGP(P1), BGP(P2), true).
        let g = group(vec![
            ast::Element::Triples(vec![tp("?x", "name", "?n"), tp("?x", "knows", "?y")]),
            ast::Element::Optional(group(vec![ast::Element::Triples(vec![tp(
                "?y", "nick", "?k",
            )])])),
        ]);
        match translate_group(&g) {
            GraphPattern::LeftJoin(a, b, None) => {
                assert_eq!(a.triple_pattern_count(), 2);
                assert_eq!(b.triple_pattern_count(), 1);
            }
            other => panic!("expected LeftJoin, got {other}"),
        }
    }

    #[test]
    fn optional_with_inner_filter_embeds_condition() {
        let cond = Expression::Bound(Variable::new("k"));
        let g = group(vec![
            ast::Element::Triples(vec![tp("?x", "name", "?n")]),
            ast::Element::Optional(group(vec![
                ast::Element::Triples(vec![tp("?y", "nick", "?k")]),
                ast::Element::Filter(cond.clone()),
            ])),
        ]);
        match translate_group(&g) {
            GraphPattern::LeftJoin(_, _, Some(c)) => assert_eq!(c, cond),
            other => panic!("expected LeftJoin with condition, got {other}"),
        }
    }

    #[test]
    fn union_translates_to_union_node() {
        // Fig. 8: Union(BGP(P1), BGP(P2)).
        let g = group(vec![ast::Element::Union(vec![
            group(vec![ast::Element::Triples(vec![tp("?x", "name", "?n")])]),
            group(vec![ast::Element::Triples(vec![tp("?x", "mbox", "?m")])]),
        ])]);
        match translate_group(&g) {
            GraphPattern::Union(a, b) => {
                assert_eq!(a.triple_pattern_count(), 1);
                assert_eq!(b.triple_pattern_count(), 1);
            }
            other => panic!("expected Union, got {other}"),
        }
    }

    #[test]
    fn filter_wraps_whole_group() {
        // Fig. 9 shape: Filter(C1, LeftJoin(BGP(P1 . P2), BGP(P3), true)).
        let cond = Expression::Bound(Variable::new("name"));
        let g = group(vec![
            ast::Element::Triples(vec![tp("?x", "name", "?name"), tp("?x", "kna", "?y")]),
            ast::Element::Filter(cond.clone()),
            ast::Element::Optional(group(vec![ast::Element::Triples(vec![tp(
                "?y", "knows", "?z",
            )])])),
        ]);
        match translate_group(&g) {
            GraphPattern::Filter(c, inner) => {
                assert_eq!(c, cond);
                assert!(matches!(*inner, GraphPattern::LeftJoin(_, _, None)));
            }
            other => panic!("expected Filter, got {other}"),
        }
    }

    #[test]
    fn multiple_filters_conjoin() {
        let c1 = Expression::Bound(Variable::new("a"));
        let c2 = Expression::Bound(Variable::new("b"));
        let g = group(vec![
            ast::Element::Triples(vec![tp("?a", "p", "?b")]),
            ast::Element::Filter(c1.clone()),
            ast::Element::Filter(c2.clone()),
        ]);
        match translate_group(&g) {
            GraphPattern::Filter(Expression::And(a, b), _) => {
                assert_eq!(*a, c1);
                assert_eq!(*b, c2);
            }
            other => panic!("expected conjoined filter, got {other}"),
        }
    }

    #[test]
    fn certain_variables_exclude_optional_branch() {
        let g = group(vec![
            ast::Element::Triples(vec![tp("?x", "name", "?n")]),
            ast::Element::Optional(group(vec![ast::Element::Triples(vec![tp(
                "?x", "nick", "?k",
            )])])),
        ]);
        let p = translate_group(&g);
        let certain: Vec<String> =
            p.certain_variables().iter().map(|v| v.as_str().to_string()).collect();
        assert!(certain.contains(&"x".to_string()));
        assert!(certain.contains(&"n".to_string()));
        assert!(!certain.contains(&"k".to_string()));
        // but `k` is still in variables()
        assert!(p.variables().iter().any(|v| v.as_str() == "k"));
    }

    #[test]
    fn union_certain_variables_are_intersection() {
        let g = group(vec![ast::Element::Union(vec![
            group(vec![ast::Element::Triples(vec![tp("?x", "name", "?n")])]),
            group(vec![ast::Element::Triples(vec![tp("?x", "mbox", "?m")])]),
        ])]);
        let p = translate_group(&g);
        let certain: Vec<String> =
            p.certain_variables().iter().map(|v| v.as_str().to_string()).collect();
        assert_eq!(certain, ["x"]);
    }

    #[test]
    fn join_with_unit_simplifies() {
        let bgp = GraphPattern::Bgp(vec![tp("?x", "p", "?y")]);
        assert_eq!(GraphPattern::unit().join(bgp.clone()), bgp);
        assert_eq!(bgp.clone().join(GraphPattern::unit()), bgp);
    }

    #[test]
    fn display_matches_paper_notation() {
        let g = group(vec![
            ast::Element::Triples(vec![tp("?x", "knows", "?z")]),
        ]);
        let p = translate_group(&g);
        assert!(p.to_string().starts_with("BGP("));
    }

}
