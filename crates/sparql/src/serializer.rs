//! Serialization of algebra back to SPARQL query strings.
//!
//! Sub-queries do not cross the network as text: the live mesh ships
//! patterns, filters and solutions in the binary `live_wire` codec of
//! `rdfmesh-core` (built on `rdfmesh_rdf::codec`, with
//! [`crate::solution::wire`] and [`crate::expr::wire`]). This module is for people and tools: it
//! renders any [`GraphPattern`] (and whole [`AlgebraQuery`]s) as standard
//! SPARQL text, and the round-trip `parse(serialize(q))` reproduces the
//! algebra — property-tested in `tests/properties.rs`.

use std::fmt::Write as _;

use rdfmesh_rdf::{TermPattern, TriplePattern};

use crate::algebra::{AlgebraQuery, GraphPattern};
use crate::ast::{DescribeTarget, Duplicates, QueryForm};
use crate::expr::{ArithOp, ComparisonOp, Expression};

fn term_pattern(tp: &TermPattern) -> String {
    tp.to_string() // variables print as `?x`, terms in N-Triples form
}

fn triple_pattern(tp: &TriplePattern) -> String {
    format!(
        "{} {} {} .",
        term_pattern(&tp.subject),
        term_pattern(&tp.predicate),
        term_pattern(&tp.object)
    )
}

/// Renders an expression in SPARQL surface syntax (fully parenthesized,
/// so no precedence information is lost).
pub fn expression(e: &Expression) -> String {
    match e {
        Expression::Var(v) => v.to_string(),
        Expression::Const(t) => t.to_string(),
        Expression::Or(a, b) => format!("({} || {})", expression(a), expression(b)),
        Expression::And(a, b) => format!("({} && {})", expression(a), expression(b)),
        Expression::Not(x) => format!("(! {})", expression(x)),
        Expression::Neg(x) => format!("(- {})", expression(x)),
        Expression::Compare(op, a, b) => {
            let op = match op {
                ComparisonOp::Eq => "=",
                ComparisonOp::Neq => "!=",
                ComparisonOp::Lt => "<",
                ComparisonOp::Le => "<=",
                ComparisonOp::Gt => ">",
                ComparisonOp::Ge => ">=",
            };
            format!("({} {} {})", expression(a), op, expression(b))
        }
        Expression::Arith(op, a, b) => {
            let op = match op {
                ArithOp::Add => "+",
                ArithOp::Sub => "-",
                ArithOp::Mul => "*",
                ArithOp::Div => "/",
            };
            format!("({} {} {})", expression(a), op, expression(b))
        }
        Expression::Bound(v) => format!("BOUND({v})"),
        Expression::Str(x) => format!("STR({})", expression(x)),
        Expression::Lang(x) => format!("LANG({})", expression(x)),
        Expression::Datatype(x) => format!("DATATYPE({})", expression(x)),
        Expression::IsIri(x) => format!("isIRI({})", expression(x)),
        Expression::IsBlank(x) => format!("isBLANK({})", expression(x)),
        Expression::IsLiteral(x) => format!("isLITERAL({})", expression(x)),
        Expression::SameTerm(a, b) => {
            format!("sameTerm({}, {})", expression(a), expression(b))
        }
        Expression::LangMatches(a, b) => {
            format!("langMatches({}, {})", expression(a), expression(b))
        }
        Expression::Regex(t, p, f) => match f {
            Some(f) => format!(
                "REGEX({}, {}, {})",
                expression(t),
                expression(p),
                expression(f)
            ),
            None => format!("REGEX({}, {})", expression(t), expression(p)),
        },
    }
}

/// Renders a graph pattern as the body of a group graph pattern (without
/// the outer braces).
fn pattern_body(p: &GraphPattern, out: &mut String) {
    match p {
        GraphPattern::Bgp(tps) => {
            for tp in tps {
                let _ = write!(out, " {}", triple_pattern(tp));
            }
        }
        GraphPattern::Join(a, b) => {
            // Join of groups: nested groups concatenated.
            let _ = write!(out, " {{{} }}", group(a));
            let _ = write!(out, " {{{} }}", group(b));
        }
        GraphPattern::Union(a, b) => {
            let _ = write!(out, " {{{} }} UNION {{{} }}", group(a), group(b));
        }
        GraphPattern::LeftJoin(a, b, expr) => {
            pattern_body(a, out);
            match expr {
                None => {
                    let _ = write!(out, " OPTIONAL {{{} }}", group(b));
                }
                Some(e) => {
                    // Re-embed the condition inside the optional group,
                    // inverting the translation rule. The extra parens
                    // keep bare-term conditions grammatical.
                    let _ = write!(
                        out,
                        " OPTIONAL {{{} FILTER ({}) }}",
                        group(b),
                        expression(e)
                    );
                }
            }
        }
        GraphPattern::Filter(e, inner) => {
            pattern_body(inner, out);
            // Always parenthesize: `FILTER <bare term>` is not in the
            // grammar, `FILTER (expr)` always is.
            let _ = write!(out, " FILTER ({})", expression(e));
        }
    }
}

fn group(p: &GraphPattern) -> String {
    let mut out = String::new();
    pattern_body(p, &mut out);
    out
}

/// Renders a graph pattern as a complete group graph pattern `{ … }`.
pub fn graph_pattern(p: &GraphPattern) -> String {
    format!("{{{} }}", group(p))
}

/// Renders a full query (form, dataset, pattern, modifiers) as SPARQL.
pub fn query(q: &AlgebraQuery) -> String {
    let mut out = String::new();
    match &q.form {
        QueryForm::Select { duplicates, projection } => {
            out.push_str("SELECT ");
            match duplicates {
                Duplicates::Distinct => out.push_str("DISTINCT "),
                Duplicates::Reduced => out.push_str("REDUCED "),
                Duplicates::All => {}
            }
            if projection.is_empty() {
                out.push('*');
            } else {
                let vars: Vec<String> = projection.iter().map(|v| v.to_string()).collect();
                out.push_str(&vars.join(" "));
            }
        }
        QueryForm::Ask => out.push_str("ASK"),
        QueryForm::Construct(template) => {
            out.push_str("CONSTRUCT {");
            for tp in template {
                let _ = write!(out, " {}", triple_pattern(tp));
            }
            out.push_str(" }");
        }
        QueryForm::Describe(targets) => {
            out.push_str("DESCRIBE");
            for t in targets {
                match t {
                    DescribeTarget::Var(v) => {
                        let _ = write!(out, " {v}");
                    }
                    DescribeTarget::Iri(iri) => {
                        let _ = write!(out, " {iri}");
                    }
                }
            }
        }
    }
    for g in &q.dataset.default {
        let _ = write!(out, " FROM {g}");
    }
    for g in &q.dataset.named {
        let _ = write!(out, " FROM NAMED {g}");
    }
    let _ = write!(out, " WHERE {}", graph_pattern(&q.pattern));
    if !q.modifiers.order_by.is_empty() {
        out.push_str(" ORDER BY");
        for c in &q.modifiers.order_by {
            if c.descending {
                let _ = write!(out, " DESC({})", expression(&c.expression));
            } else {
                let _ = write!(out, " ({})", expression(&c.expression));
            }
        }
    }
    if let Some(l) = q.modifiers.limit {
        let _ = write!(out, " LIMIT {l}");
    }
    if let Some(o) = q.modifiers.offset {
        let _ = write!(out, " OFFSET {o}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    fn round_trip(src: &str) {
        let original = parse_query(src).unwrap();
        let rendered = query(&original);
        let reparsed = parse_query(&rendered)
            .unwrap_or_else(|e| panic!("rendered query failed to parse: {e}\n{rendered}"));
        assert_eq!(original.form, reparsed.form, "{rendered}");
        assert_eq!(original.dataset, reparsed.dataset, "{rendered}");
        assert_eq!(original.modifiers, reparsed.modifiers, "{rendered}");
        // Patterns must be *semantically* identical; structural equality
        // holds for everything the renderer emits except that nested
        // groups become Joins — compare evaluation on a sample store.
        let store = sample_store();
        let mut a = crate::eval::evaluate_pattern(&store, &original.pattern);
        let mut b = crate::eval::evaluate_pattern(&store, &reparsed.pattern);
        a.sort();
        b.sort();
        assert_eq!(a, b, "{rendered}");
    }

    fn sample_store() -> rdfmesh_rdf::TripleStore {
        use rdfmesh_rdf::{Literal, Term, Triple};
        let mut s = rdfmesh_rdf::TripleStore::new();
        let p = |n: &str| Term::iri(&format!("http://example.org/{n}"));
        let foaf = |n: &str| Term::iri(&format!("http://xmlns.com/foaf/0.1/{n}"));
        s.insert(&Triple::new(p("a"), foaf("knows"), p("b")));
        s.insert(&Triple::new(p("b"), foaf("knows"), p("c")));
        s.insert(&Triple::new(p("a"), foaf("name"), Term::literal("Alice Smith")));
        s.insert(&Triple::new(p("b"), foaf("name"), Term::literal("Bob")));
        s.insert(&Triple::new(p("b"), foaf("nick"), Term::literal("Shrek")));
        s.insert(&Triple::new(p("a"), foaf("age"), Term::Literal(Literal::integer(30))));
        s
    }

    #[test]
    fn round_trips_paper_queries() {
        round_trip("SELECT ?x WHERE { ?x foaf:knows <http://example.org/b> . }");
        round_trip(
            "SELECT ?x ?y ?z WHERE { ?x foaf:knows ?z . ?x ns:knowsNothingAbout ?y . }",
        );
        round_trip(
            "SELECT ?x ?y WHERE { ?x foaf:name \"Smith\" . ?x foaf:knows ?y . OPTIONAL { ?y foaf:nick \"Shrek\" . } }",
        );
        round_trip(
            "SELECT * WHERE { { ?x foaf:name ?v . } UNION { ?x foaf:nick ?v . } }",
        );
        round_trip(
            "SELECT ?x ?y WHERE { ?x foaf:name ?n ; foaf:knows ?y . FILTER regex(?n, \"Smith\") }",
        );
        round_trip(
            "SELECT DISTINCT ?x FROM <http://example.org/g> WHERE { ?x foaf:knows ?y . } ORDER BY DESC(?x) LIMIT 3 OFFSET 1",
        );
        round_trip("ASK { ?x foaf:age ?a . FILTER(?a >= 18 && ?a < 65) }");
        round_trip("CONSTRUCT { ?y foaf:knows ?x . } WHERE { ?x foaf:knows ?y . }");
        round_trip("DESCRIBE ?x WHERE { ?x foaf:nick \"Shrek\" . }");
    }

    #[test]
    fn optional_with_condition_re_embeds_filter() {
        let q = parse_query(
            "SELECT * WHERE { ?x foaf:knows ?y . OPTIONAL { ?y foaf:age ?a . FILTER(?a > 18) } }",
        )
        .unwrap();
        let rendered = query(&q);
        assert!(rendered.contains("OPTIONAL {"), "{rendered}");
        assert!(rendered.contains("FILTER"), "{rendered}");
        round_trip(
            "SELECT * WHERE { ?x foaf:knows ?y . OPTIONAL { ?y foaf:age ?a . FILTER(?a > 18) } }",
        );
    }

    #[test]
    fn expressions_render_all_builtins() {
        for src in [
            "ASK { ?x foaf:name ?n . FILTER (STR(?x) = \"a\") }",
            "ASK { ?x foaf:name ?n . FILTER (LANG(?n) = \"en\") }",
            "ASK { ?x foaf:name ?n . FILTER isIRI(?x) }",
            "ASK { ?x foaf:name ?n . FILTER isLITERAL(?n) }",
            "ASK { ?x foaf:name ?n . FILTER sameTerm(?x, ?x) }",
            "ASK { ?x foaf:name ?n . FILTER langMatches(LANG(?n), \"*\") }",
            "ASK { ?x foaf:age ?a . FILTER (?a * 2 + 1 > 7) }",
            "ASK { ?x foaf:age ?a . FILTER (!BOUND(?a) || ?a != 0) }",
            "ASK { ?x foaf:name ?n . FILTER REGEX(?n, \"a\", \"i\") }",
            "ASK { ?x foaf:name ?n . FILTER (DATATYPE(?n) = xsd:string) }",
        ] {
            round_trip(src);
        }
    }
}
