//! The expression evaluator on generated expressions × generated rows.
//!
//! A pushed-down FILTER runs compiled against the pattern it scans, on
//! triples its store only lends ([`for_each_kept`]): each variable is
//! read from the triple's position, or from the shipped key that binds
//! it. Everything else calls `Expression::evaluate` / `satisfied_by` on a
//! materialised [`Solution`]. Three things must not be able to tell those
//! apart, and a fourth pins what "the same answer" means across the
//! rewrite:
//!
//! 1. the rows the pattern-compiled filter keeps ≡ the extensions the
//!    filter keeps once materialised — with variables the pattern names,
//!    the key binds, both, the pattern names twice, or nobody binds;
//! 2. a `regex` compiled once from constants ≡ the same `regex` compiled
//!    per row from variables bound to those constants;
//! 3. both ≡ [`reference`], the evaluator as it was before it ran on
//!    borrowed values: every intermediate an owned `Term`, every regex
//!    compiled per call.

use proptest::prelude::*;
use rdfmesh_rdf::vocab::xsd;
use rdfmesh_rdf::{Iri, Literal, Term, TermPattern, Triple, TriplePattern, TripleStore, Variable};
use rdfmesh_sparql::eval::{for_each_extension, for_each_kept};
use rdfmesh_sparql::expr::{ArithOp, ComparisonOp, Expression};
use rdfmesh_sparql::regex::Regex;
use rdfmesh_sparql::Solution;

fn var(i: u8) -> Variable {
    Variable::new(format!("x{i}"))
}

/// Terms of every kind the evaluator distinguishes: a small pool, so
/// that comparisons and `sameTerm` hit equal operands.
fn pool() -> Vec<Term> {
    let typed = |lexical: &str, datatype: &str| {
        Term::Literal(Literal::typed(lexical, Iri::new_unchecked(datatype)))
    };
    vec![
        Term::iri("http://example.org/a"),
        Term::iri("http://example.org/b"),
        Term::blank("b0"),
        Term::literal("a"),
        Term::literal("Smith"),
        Term::literal("smith & sons"),
        Term::literal(""),
        Term::literal("3"), // plain, yet numeric to the evaluator
        Term::Literal(Literal::lang("chat", "fr")),
        Term::Literal(Literal::lang("cat", "en-GB")),
        Term::Literal(Literal::integer(3)),
        Term::Literal(Literal::integer(0)),
        Term::Literal(Literal::double(2.5)),
        Term::Literal(Literal::boolean(true)),
        Term::Literal(Literal::boolean(false)),
        typed("1", xsd::BOOLEAN),
        typed("maybe", xsd::BOOLEAN), // ill-formed
        typed("a", xsd::STRING),
        typed("2013-05-20", "http://www.w3.org/2001/XMLSchema#date"),
        // As regex patterns and flags: valid, anchored, invalid.
        Term::literal("^s"),
        Term::literal("(a|S)m+"),
        Term::literal("(unclosed"),
        Term::literal("i"),
        Term::literal("q"),
        Term::literal("en"),
        Term::literal("*"),
    ]
}

fn arb_term() -> impl Strategy<Value = Term> {
    proptest::sample::select(&pool()[..])
}

fn arb_expression() -> impl Strategy<Value = Expression> {
    let leaf = prop_oneof![
        3 => (0u8..5).prop_map(|i| Expression::Var(var(i))),
        2 => arb_term().prop_map(Expression::Const),
        1 => (0u8..5).prop_map(|i| Expression::Bound(var(i))),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        let one = || inner.clone().prop_map(Box::new);
        let comparison = proptest::sample::select(
            &[
                ComparisonOp::Eq,
                ComparisonOp::Neq,
                ComparisonOp::Lt,
                ComparisonOp::Le,
                ComparisonOp::Gt,
                ComparisonOp::Ge,
            ][..],
        );
        let arithmetic =
            proptest::sample::select(&[ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div][..]);
        prop_oneof![
            (one(), one()).prop_map(|(a, b)| Expression::Or(a, b)),
            (one(), one()).prop_map(|(a, b)| Expression::And(a, b)),
            one().prop_map(Expression::Not),
            (comparison, one(), one()).prop_map(|(op, a, b)| Expression::Compare(op, a, b)),
            (arithmetic, one(), one()).prop_map(|(op, a, b)| Expression::Arith(op, a, b)),
            one().prop_map(Expression::Neg),
            one().prop_map(Expression::Str),
            one().prop_map(Expression::Lang),
            one().prop_map(Expression::Datatype),
            one().prop_map(Expression::IsIri),
            one().prop_map(Expression::IsBlank),
            one().prop_map(Expression::IsLiteral),
            (one(), one()).prop_map(|(a, b)| Expression::SameTerm(a, b)),
            (one(), one()).prop_map(|(a, b)| Expression::LangMatches(a, b)),
            (one(), one()).prop_map(|(t, p)| Expression::Regex(t, p, None)),
            (one(), one(), one()).prop_map(|(t, p, f)| Expression::Regex(t, p, Some(f))),
        ]
    })
}

/// A position of the matched pattern: `?x0` … `?x3` (a pattern may name
/// one twice), or with `choice` 4 the very term the triple has there.
fn position(choice: u8, term: &Term) -> TermPattern {
    match choice {
        4 => TermPattern::Const(term.clone()),
        i => TermPattern::Var(var(i)),
    }
}

/// A shipped key: each `(i, agree, term)` binds `?xi` — to the term the
/// triple has where the pattern names `?xi` when `agree`, so that the key
/// and the pattern bind it alike, and to `term` otherwise (a key the
/// triple may not extend). A second binding of one variable is dropped.
fn key(cells: &[(u8, bool, Term)], pattern: &TriplePattern, triple: &Triple) -> Solution {
    let at = [
        (&pattern.subject, &triple.subject),
        (&pattern.predicate, &triple.predicate),
        (&pattern.object, &triple.object),
    ];
    let mut key = Solution::new();
    for (i, agree, term) in cells {
        let v = var(*i);
        let named = at
            .iter()
            .find(|(tp, _)| tp.as_var() == Some(&v))
            .map(|(_, t)| *t);
        let term = if *agree { named.unwrap_or(term) } else { term };
        if key.get(&v).is_none() {
            key.bind(v, term.clone());
        }
    }
    key
}

/// The evaluator as it was: owned terms all the way, regexes compiled on
/// every call. `Err(())` is a SPARQL type error.
fn reference(expr: &Expression, row: &Solution) -> Result<Term, ()> {
    let boolean = |b: bool| Ok(Term::Literal(Literal::boolean(b)));
    let number = |n: f64| {
        Ok(Term::Literal(
            if n.fract() == 0.0 && n.abs() < i64::MAX as f64 {
                Literal::integer(n as i64)
            } else {
                Literal::double(n)
            },
        ))
    };
    let numeric = |t: Term| t.as_literal().and_then(Literal::as_f64).ok_or(());
    let string = |t: Term| match t {
        Term::Literal(l) => Ok(l.lexical().to_string()),
        Term::Iri(i) => Ok(i.as_str().to_string()),
        Term::Blank(_) => Err(()),
    };
    let truth = |e: &Expression| reference(e, row).and_then(|t| reference_ebv(&t));
    match expr {
        Expression::Var(v) => row.get(v).cloned().ok_or(()),
        Expression::Const(t) => Ok(t.clone()),
        Expression::Or(a, b) => match (truth(a), truth(b)) {
            (Ok(true), _) | (_, Ok(true)) => boolean(true),
            (Ok(false), Ok(false)) => boolean(false),
            _ => Err(()),
        },
        Expression::And(a, b) => match (truth(a), truth(b)) {
            (Ok(false), _) | (_, Ok(false)) => boolean(false),
            (Ok(true), Ok(true)) => boolean(true),
            _ => Err(()),
        },
        Expression::Not(e) => boolean(!truth(e)?),
        Expression::Compare(op, a, b) => {
            use ComparisonOp::*;
            let (a, b) = (reference(a, row)?, reference(b, row)?);
            if let (Some(x), Some(y)) = (
                a.as_literal().and_then(Literal::as_f64),
                b.as_literal().and_then(Literal::as_f64),
            ) {
                return boolean(match op {
                    Eq => x == y,
                    Neq => x != y,
                    Lt => x < y,
                    Le => x <= y,
                    Gt => x > y,
                    Ge => x >= y,
                });
            }
            let ordered = |t: &Term| {
                t.as_literal()
                    .filter(|l| l.datatype().is_none_or(|d| d.as_str() == xsd::STRING))
                    .map(|l| l.lexical().to_string())
            };
            match (op, ordered(&a), ordered(&b)) {
                (Eq, ..) => boolean(a == b),
                (Neq, ..) => boolean(a != b),
                (Lt, Some(x), Some(y)) => boolean(x < y),
                (Le, Some(x), Some(y)) => boolean(x <= y),
                (Gt, Some(x), Some(y)) => boolean(x > y),
                (Ge, Some(x), Some(y)) => boolean(x >= y),
                _ => Err(()),
            }
        }
        Expression::Arith(op, a, b) => {
            let (x, y) = (numeric(reference(a, row)?)?, numeric(reference(b, row)?)?);
            match op {
                ArithOp::Add => number(x + y),
                ArithOp::Sub => number(x - y),
                ArithOp::Mul => number(x * y),
                ArithOp::Div if y == 0.0 => Err(()),
                ArithOp::Div => number(x / y),
            }
        }
        Expression::Neg(e) => number(-numeric(reference(e, row)?)?),
        Expression::Bound(v) => boolean(row.get(v).is_some()),
        Expression::Str(e) => string(reference(e, row)?).map(|s| Term::literal(&s)),
        Expression::Lang(e) => match reference(e, row)? {
            Term::Literal(l) => Ok(Term::literal(l.language().unwrap_or(""))),
            _ => Err(()),
        },
        Expression::Datatype(e) => match reference(e, row)? {
            Term::Literal(l) => match (l.datatype(), l.language()) {
                (Some(d), _) => Ok(Term::Iri(d.clone())),
                (None, None) => Ok(Term::iri(xsd::STRING)),
                (None, Some(_)) => Err(()),
            },
            _ => Err(()),
        },
        Expression::IsIri(e) => boolean(reference(e, row)?.is_iri()),
        Expression::IsBlank(e) => boolean(reference(e, row)?.is_blank()),
        Expression::IsLiteral(e) => boolean(reference(e, row)?.is_literal()),
        Expression::SameTerm(a, b) => boolean(reference(a, row)? == reference(b, row)?),
        Expression::LangMatches(tag, range) => {
            let tag = string(reference(tag, row)?)?.to_ascii_lowercase();
            let range = string(reference(range, row)?)?.to_ascii_lowercase();
            boolean(
                !tag.is_empty()
                    && (range == "*" || tag == range || tag.starts_with(&format!("{range}-"))),
            )
        }
        Expression::Regex(text, pattern, flags) => {
            let text = string(reference(text, row)?)?;
            let pattern = string(reference(pattern, row)?)?;
            let flags = match flags {
                Some(f) => string(reference(f, row)?)?,
                None => String::new(),
            };
            boolean(
                Regex::with_flags(&pattern, &flags)
                    .map_err(|_| ())?
                    .is_match(&text),
            )
        }
    }
}

fn reference_ebv(term: &Term) -> Result<bool, ()> {
    let Term::Literal(l) = term else {
        return Err(());
    };
    match l.datatype().map(Iri::as_str) {
        Some(xsd::BOOLEAN) => l.as_bool().ok_or(()),
        Some(d) if xsd::is_numeric(d) => Ok(l.as_f64().is_some_and(|n| n != 0.0)),
        Some(xsd::STRING) | None => Ok(!l.lexical().is_empty()),
        Some(_) => Err(()),
    }
}

/// `expr` with every constant replaced by a fresh variable that `row`
/// then binds to it: the same condition, but nothing in it is known when
/// it is compiled.
fn abstracted(expr: &Expression, row: &mut Solution) -> Expression {
    if let Expression::Const(t) = expr {
        let k = Variable::new(format!("k{}", row.len()));
        row.bind(k.clone(), t.clone());
        return Expression::Var(k);
    }
    let mut go = |e: &Expression| Box::new(abstracted(e, row));
    match expr {
        Expression::Const(_) | Expression::Var(_) | Expression::Bound(_) => expr.clone(),
        Expression::Or(a, b) => Expression::Or(go(a), go(b)),
        Expression::And(a, b) => Expression::And(go(a), go(b)),
        Expression::Not(e) => Expression::Not(go(e)),
        Expression::Compare(op, a, b) => Expression::Compare(*op, go(a), go(b)),
        Expression::Arith(op, a, b) => Expression::Arith(*op, go(a), go(b)),
        Expression::Neg(e) => Expression::Neg(go(e)),
        Expression::Str(e) => Expression::Str(go(e)),
        Expression::Lang(e) => Expression::Lang(go(e)),
        Expression::Datatype(e) => Expression::Datatype(go(e)),
        Expression::IsIri(e) => Expression::IsIri(go(e)),
        Expression::IsBlank(e) => Expression::IsBlank(go(e)),
        Expression::IsLiteral(e) => Expression::IsLiteral(go(e)),
        Expression::SameTerm(a, b) => Expression::SameTerm(go(a), go(b)),
        Expression::LangMatches(a, b) => Expression::LangMatches(go(a), go(b)),
        Expression::Regex(t, p, f) => {
            let (t, p) = (go(t), go(p));
            Expression::Regex(t, p, f.as_ref().map(|f| go(f)))
        }
    }
}

/// Every operator on every term, and on every pair of terms, of the
/// pool — what generated trees reach only by luck.
#[test]
fn every_operator_on_every_pair_of_pool_terms_agrees_with_the_reference() {
    use ArithOp::*;
    use ComparisonOp::*;
    type Unary = fn(Box<Expression>) -> Expression;
    let unary: [Unary; 8] = [
        Expression::Not,
        Expression::Neg,
        Expression::Str,
        Expression::Lang,
        Expression::Datatype,
        Expression::IsIri,
        Expression::IsBlank,
        Expression::IsLiteral,
    ];
    let row = Solution::new();
    let constant = |t: &Term| Box::new(Expression::Const(t.clone()));
    let check = |expr: Expression| {
        assert_eq!(
            expr.evaluate(&row).map_err(|_| ()),
            reference(&expr, &row),
            "{expr:?}"
        );
    };
    for a in &pool() {
        for op in unary {
            check(op(constant(a)));
            // EBV and numeric value of what the builtin returned.
            check(Expression::Not(Box::new(op(constant(a)))));
        }
        for b in &pool() {
            for op in [Eq, Neq, Lt, Le, Gt, Ge] {
                check(Expression::Compare(op, constant(a), constant(b)));
            }
            for op in [Add, Sub, Mul, Div] {
                check(Expression::Arith(op, constant(a), constant(b)));
            }
            check(Expression::Or(constant(a), constant(b)));
            check(Expression::And(constant(a), constant(b)));
            check(Expression::SameTerm(constant(a), constant(b)));
            check(Expression::LangMatches(
                Box::new(Expression::Lang(constant(a))),
                constant(b),
            ));
            check(Expression::Regex(constant(a), constant(b), None));
            check(Expression::Regex(
                constant(a),
                constant(b),
                Some(constant(&Term::literal("i"))),
            ));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn a_filter_cannot_tell_a_lent_row_from_a_built_one_nor_when_it_was_compiled(
        expr in arb_expression(),
        spo in (arb_term(), arb_term(), arb_term(), 0u8..3),
        shape in (0u8..5, 0u8..5, 0u8..5),
        keys in proptest::collection::vec(
            proptest::collection::vec((0u8..4, (0u8..4).prop_map(|a| a > 0), arb_term()), 0..3),
            1..3,
        ),
    ) {
        // The pattern names some of ?x0 … ?x3 (maybe one twice) and the
        // triple's own terms elsewhere; the keys bind some of ?x0 … ?x3,
        // mostly agreeing with the triple; ?x4 is never bound. One triple
        // in three has its subject for object, so that `?x p ?x` matches.
        let object = if spo.3 == 0 { spo.0.clone() } else { spo.2 };
        let triple = Triple::new(spo.0, spo.1, object);
        let pattern = TriplePattern::new(
            position(shape.0, &triple.subject),
            position(shape.1, &triple.predicate),
            position(shape.2, &triple.object),
        );
        let keys: Vec<Solution> = keys.iter().map(|cells| key(cells, &pattern, &triple)).collect();
        let store = TripleStore::from_triples([triple]);

        let compiled = expr.compile();
        let mut kept = Vec::new();
        for_each_kept(&store, &pattern, &keys, Some(&compiled), |_, m, _| {
            kept.extend(m.to_solution());
        });
        let mut want = Vec::new();
        let mut failure = None;
        for_each_extension(&store, &pattern, &keys, |m| {
            let Some(row) = m.to_solution() else { return };
            let value = expr.evaluate(&row).map_err(|_| ());
            let mut wider = row.clone();
            let late = abstracted(&expr, &mut wider);
            let checks = [
                (value.clone(), reference(&expr, &row), "compiled vs reference"),
                (late.evaluate(&wider).map_err(|_| ()), value.clone(), "per-row regex vs compiled"),
            ];
            for (got, expected, what) in checks {
                if got != expected && failure.is_none() {
                    failure = Some(format!("{what}: {got:?} != {expected:?} for {expr:?} on {row}"));
                }
            }
            if value.and_then(|t| reference_ebv(&t)) == Ok(true) {
                want.push(row);
            }
        });
        prop_assert!(failure.is_none(), "{}", failure.unwrap_or_default());
        prop_assert_eq!(kept, want, "{:?} over {:?} with keys {:?}", &expr, &pattern, &keys);
    }
}
