//! SPARQL expressions (`FILTER` conditions) and their evaluation.
//!
//! Implements the built-in conditions `R` of filter graph patterns
//! (Sect. IV-G): logical connectives, comparisons, arithmetic and the
//! builtin functions used in practice (`regex`, `bound`, `str`, `lang`,
//! `datatype`, `isIRI`, `isBlank`, `isLiteral`, `sameTerm`,
//! `langMatches`).
//!
//! Evaluation follows the W3C error semantics: a type error is a genuine
//! third truth value — `FILTER` drops rows whose condition errors, and
//! `||`/`&&` recover from errors when the other operand decides the
//! result.
//!
//! There is one evaluator, and it runs on a [`Compiled`] expression over
//! any [`Bindings`]: [`Expression::compile`] is paid once per filter (it
//! compiles every `regex` whose pattern and flags are constants), each
//! row then costs no allocation unless it does arithmetic — intermediate
//! values borrow from the row and the expression. That is how a filter
//! pushed to a data source (Sect. IV-G) runs on rows the store only
//! *lends* ([`crate::eval::Matched`]), before any of them is materialised.
//! [`Expression::evaluate`] and [`Expression::satisfied_by`] compile and
//! evaluate in one call, for one-off uses.

use std::borrow::Cow;
use std::fmt;

use rdfmesh_rdf::vocab::xsd;
use rdfmesh_rdf::{BlankNode, Iri, Literal, LiteralKind, Term, Variable};

use crate::regex::Regex;
use crate::solution::Solution;

/// A SPARQL expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expression {
    /// A variable reference.
    Var(Variable),
    /// A constant RDF term (IRI or literal).
    Const(Term),
    /// `e1 || e2`.
    Or(Box<Expression>, Box<Expression>),
    /// `e1 && e2`.
    And(Box<Expression>, Box<Expression>),
    /// `! e`.
    Not(Box<Expression>),
    /// A comparison `e1 <op> e2`.
    Compare(ComparisonOp, Box<Expression>, Box<Expression>),
    /// An arithmetic operation `e1 <op> e2`.
    Arith(ArithOp, Box<Expression>, Box<Expression>),
    /// Unary minus.
    Neg(Box<Expression>),
    /// `BOUND(?v)`.
    Bound(Variable),
    /// `STR(e)`.
    Str(Box<Expression>),
    /// `LANG(e)`.
    Lang(Box<Expression>),
    /// `DATATYPE(e)`.
    Datatype(Box<Expression>),
    /// `isIRI(e)` / `isURI(e)`.
    IsIri(Box<Expression>),
    /// `isBLANK(e)`.
    IsBlank(Box<Expression>),
    /// `isLITERAL(e)`.
    IsLiteral(Box<Expression>),
    /// `sameTerm(e1, e2)`.
    SameTerm(Box<Expression>, Box<Expression>),
    /// `langMatches(e1, e2)`.
    LangMatches(Box<Expression>, Box<Expression>),
    /// `REGEX(text, pattern)` or `REGEX(text, pattern, flags)`.
    Regex(Box<Expression>, Box<Expression>, Option<Box<Expression>>),
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComparisonOp {
    /// `=`
    Eq,
    /// `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// An evaluation error (SPARQL type error). Filters treat it as "drop the
/// row"; logical connectives may recover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExprError(pub String);

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expression type error: {}", self.0)
    }
}

impl std::error::Error for ExprError {}

type EvalResult = Result<Term, ExprError>;

fn err(msg: impl Into<String>) -> ExprError {
    ExprError(msg.into())
}

/// Anything that resolves a variable to a term it holds — what an
/// expression is evaluated over.
pub trait Bindings {
    /// The term bound to `var`, if any.
    fn get(&self, var: &Variable) -> Option<&Term>;
}

impl Bindings for Solution {
    fn get(&self, var: &Variable) -> Option<&Term> {
        Solution::get(self, var)
    }
}

impl Expression {
    /// Convenience: a boolean constant.
    pub fn boolean(b: bool) -> Expression {
        Expression::Const(Term::Literal(Literal::boolean(b)))
    }

    /// All variables mentioned by the expression, deduplicated.
    ///
    /// This is the `vars(R)` used by the filter-pushing rewrite
    /// (Sect. IV-G): a filter may be pushed into a sub-pattern only if
    /// that sub-pattern binds every variable of the filter.
    pub fn variables(&self) -> Vec<Variable> {
        let mut out = Vec::new();
        self.collect_variables(&mut out);
        out
    }

    fn collect_variables(&self, out: &mut Vec<Variable>) {
        let mut push = |v: &Variable| {
            if !out.contains(v) {
                out.push(v.clone());
            }
        };
        match self {
            Expression::Var(v) | Expression::Bound(v) => push(v),
            Expression::Const(_) => {}
            Expression::Or(a, b)
            | Expression::And(a, b)
            | Expression::Compare(_, a, b)
            | Expression::Arith(_, a, b)
            | Expression::SameTerm(a, b)
            | Expression::LangMatches(a, b) => {
                a.collect_variables(out);
                b.collect_variables(out);
            }
            Expression::Not(e)
            | Expression::Neg(e)
            | Expression::Str(e)
            | Expression::Lang(e)
            | Expression::Datatype(e)
            | Expression::IsIri(e)
            | Expression::IsBlank(e)
            | Expression::IsLiteral(e) => e.collect_variables(out),
            Expression::Regex(t, p, f) => {
                t.collect_variables(out);
                p.collect_variables(out);
                if let Some(f) = f {
                    f.collect_variables(out);
                }
            }
        }
    }

    /// Prepares the expression for evaluation over many rows: the same
    /// tree, with every `regex` whose pattern and flags are constants
    /// compiled now instead of per row.
    pub fn compile(&self) -> Compiled<'_> {
        Compiled(self.node())
    }

    fn node(&self) -> Node<'_> {
        fn unary(op: UnaryOp, e: &Expression) -> Node<'_> {
            Node::Unary(op, Box::new(e.node()))
        }
        fn binary<'e>(op: BinaryOp, a: &'e Expression, b: &'e Expression) -> Node<'e> {
            Node::Binary(op, Box::new(a.node()), Box::new(b.node()))
        }
        fn connective<'e>(decisive: bool, a: &'e Expression, b: &'e Expression) -> Node<'e> {
            Node::Connective { decisive, a: Box::new(a.node()), b: Box::new(b.node()) }
        }
        fn constant(e: &Expression) -> Option<Value<'_>> {
            match e {
                Expression::Const(t) => Some(Value::from(t)),
                _ => None,
            }
        }
        match self {
            Expression::Var(v) => Node::Var(v),
            Expression::Const(t) => Node::Const(Value::from(t)),
            Expression::Bound(v) => Node::Bound(v),
            Expression::Not(e) => unary(UnaryOp::Not, e),
            Expression::Neg(e) => unary(UnaryOp::Neg, e),
            Expression::Str(e) => unary(UnaryOp::Str, e),
            Expression::Lang(e) => unary(UnaryOp::Lang, e),
            Expression::Datatype(e) => unary(UnaryOp::Datatype, e),
            Expression::IsIri(e) => unary(UnaryOp::IsIri, e),
            Expression::IsBlank(e) => unary(UnaryOp::IsBlank, e),
            Expression::IsLiteral(e) => unary(UnaryOp::IsLiteral, e),
            Expression::Or(a, b) => connective(true, a, b),
            Expression::And(a, b) => connective(false, a, b),
            Expression::Compare(op, a, b) => binary(BinaryOp::Compare(*op), a, b),
            Expression::Arith(op, a, b) => binary(BinaryOp::Arith(*op), a, b),
            Expression::SameTerm(a, b) => binary(BinaryOp::SameTerm, a, b),
            Expression::LangMatches(a, b) => binary(BinaryOp::LangMatches, a, b),
            Expression::Regex(text, pattern, flags) => {
                let matcher = match (constant(pattern), flags.as_deref().map(constant)) {
                    (Some(p), None) => Matcher::Constant(compile_regex(&p, None)),
                    (Some(p), Some(Some(f))) => Matcher::Constant(compile_regex(&p, Some(&f))),
                    _ => Matcher::PerRow {
                        pattern: Box::new(pattern.node()),
                        flags: flags.as_deref().map(|f| Box::new(f.node())),
                    },
                };
                Node::Regex { text: Box::new(text.node()), matcher }
            }
        }
    }

    /// Evaluates the expression under solution `µ`, producing a term.
    pub fn evaluate<B: Bindings + ?Sized>(&self, solution: &B) -> EvalResult {
        self.compile().evaluate(solution)
    }

    /// Evaluates the expression as a filter condition: `true` only if it
    /// evaluates without error to a term whose effective boolean value is
    /// true.
    pub fn satisfied_by<B: Bindings + ?Sized>(&self, solution: &B) -> bool {
        self.compile().satisfied_by(solution)
    }
}

/// An [`Expression`] prepared by [`Expression::compile`], borrowing its
/// variables and constants from it.
#[derive(Debug)]
pub struct Compiled<'e>(Node<'e>);

impl Compiled<'_> {
    /// Evaluates the expression over `row`, producing a term.
    pub fn evaluate<B: Bindings + ?Sized>(&self, row: &B) -> EvalResult {
        self.0.eval(row).map(Value::into_term)
    }

    /// Evaluates the expression as a filter condition: `true` only if it
    /// evaluates without error to a term whose effective boolean value is
    /// true.
    pub fn satisfied_by<B: Bindings + ?Sized>(&self, row: &B) -> bool {
        self.0.eval(row).and_then(|v| v.ebv()).unwrap_or(false)
    }
}

#[derive(Debug)]
enum Node<'e> {
    Var(&'e Variable),
    Const(Value<'e>),
    Bound(&'e Variable),
    Unary(UnaryOp, Box<Node<'e>>),
    Binary(BinaryOp, Box<Node<'e>>, Box<Node<'e>>),
    /// `||` (`decisive` is true) or `&&` (false).
    Connective { decisive: bool, a: Box<Node<'e>>, b: Box<Node<'e>> },
    Regex { text: Box<Node<'e>>, matcher: Matcher<'e> },
}

#[derive(Debug, Clone, Copy)]
enum UnaryOp {
    Not,
    Neg,
    Str,
    Lang,
    Datatype,
    IsIri,
    IsBlank,
    IsLiteral,
}

#[derive(Debug, Clone, Copy)]
enum BinaryOp {
    Compare(ComparisonOp),
    Arith(ArithOp),
    SameTerm,
    LangMatches,
}

#[derive(Debug)]
enum Matcher<'e> {
    /// Pattern and flags are constants: compiled with the expression
    /// (to the error every row gets, if they do not compile).
    Constant(Result<Regex, ExprError>),
    /// Compiled from what pattern and flags evaluate to on each row.
    PerRow { pattern: Box<Node<'e>>, flags: Option<Box<Node<'e>>> },
}

/// Where every `regex` pattern is compiled, constant or not.
fn compile_regex(pattern: &Value<'_>, flags: Option<&Value<'_>>) -> Result<Regex, ExprError> {
    let pattern = pattern.string_value()?;
    let flags = flags.map_or(Ok(""), Value::string_value)?;
    Regex::with_flags(pattern, flags).map_err(|e| err(e.to_string()))
}

impl Node<'_> {
    fn eval<'a, B: Bindings + ?Sized>(&'a self, row: &'a B) -> Result<Value<'a>, ExprError> {
        match self {
            Node::Var(v) => {
                row.get(v).map(Value::from).ok_or_else(|| err(format!("unbound variable {v}")))
            }
            Node::Const(value) => Ok(value.clone()),
            Node::Bound(v) => Ok(Value::boolean(row.get(v).is_some())),
            Node::Unary(op, e) => {
                let value = e.eval(row)?;
                match op {
                    UnaryOp::Not => Ok(Value::boolean(!value.ebv()?)),
                    UnaryOp::Neg => Ok(Value::number(-value.numeric()?)),
                    UnaryOp::Str => match value {
                        Value::Iri(iri) => Ok(Value::plain(iri)),
                        Value::Literal { lexical, .. } => {
                            Ok(Value::Literal { lexical, kind: Kind::Plain })
                        }
                        Value::Blank(_) => Err(err("STR of a blank node")),
                    },
                    UnaryOp::Lang => match value {
                        Value::Literal { kind: Kind::Lang(tag), .. } => Ok(Value::plain(tag)),
                        Value::Literal { .. } => Ok(Value::plain("")),
                        _ => Err(err("LANG of a non-literal")),
                    },
                    UnaryOp::Datatype => match value {
                        Value::Literal { kind: Kind::Typed(datatype), .. } => {
                            Ok(Value::Iri(datatype))
                        }
                        Value::Literal { kind: Kind::Plain, .. } => Ok(Value::Iri(xsd::STRING)),
                        Value::Literal { kind: Kind::Lang(_), .. } => {
                            Err(err("DATATYPE of a language-tagged literal"))
                        }
                        _ => Err(err("DATATYPE of a non-literal")),
                    },
                    UnaryOp::IsIri => Ok(Value::boolean(matches!(value, Value::Iri(_)))),
                    UnaryOp::IsBlank => Ok(Value::boolean(matches!(value, Value::Blank(_)))),
                    UnaryOp::IsLiteral => {
                        Ok(Value::boolean(matches!(value, Value::Literal { .. })))
                    }
                }
            }
            Node::Connective { decisive, a, b } => {
                // SPARQL's 3-valued logic: one operand with the decisive
                // value (true for `||`, false for `&&`) beats an error
                // in the other.
                let truth = |e: &'a Node<'_>| e.eval(row).and_then(|v| v.ebv());
                match truth(a) {
                    Ok(t) if t == *decisive => Ok(Value::boolean(t)),
                    Ok(_) => truth(b).map(Value::boolean),
                    Err(e) => match truth(b) {
                        Ok(t) if t == *decisive => Ok(Value::boolean(t)),
                        _ => Err(e),
                    },
                }
            }
            Node::Binary(op, a, b) => {
                let (a, b) = (a.eval(row)?, b.eval(row)?);
                match op {
                    BinaryOp::Compare(op) => compare_terms(*op, &a, &b).map(Value::boolean),
                    BinaryOp::Arith(op) => {
                        let (na, nb) = (a.numeric()?, b.numeric()?);
                        Ok(Value::number(match op {
                            ArithOp::Add => na + nb,
                            ArithOp::Sub => na - nb,
                            ArithOp::Mul => na * nb,
                            ArithOp::Div if nb == 0.0 => return Err(err("division by zero")),
                            ArithOp::Div => na / nb,
                        }))
                    }
                    BinaryOp::SameTerm => Ok(Value::boolean(a == b)),
                    BinaryOp::LangMatches => {
                        Ok(Value::boolean(lang_matches(a.string_value()?, b.string_value()?)))
                    }
                }
            }
            Node::Regex { text, matcher } => {
                let text = text.eval(row)?;
                let text = text.string_value()?;
                let matched = match matcher {
                    Matcher::Constant(regex) => regex.as_ref().map_err(Clone::clone)?.is_match(text),
                    Matcher::PerRow { pattern, flags } => {
                        let pattern = pattern.eval(row)?;
                        let flags = flags.as_ref().map(|f| f.eval(row)).transpose()?;
                        compile_regex(&pattern, flags.as_ref())?.is_match(text)
                    }
                };
                Ok(Value::boolean(matched))
            }
        }
    }
}

/// A term as the evaluator sees it: the strings of a row's or the
/// expression's [`Term`], borrowed, or a computed value — which borrows
/// too (`STR`, `LANG`, `DATATYPE`, booleans) unless it is a number.
#[derive(Debug, Clone, PartialEq)]
enum Value<'a> {
    Iri(&'a str),
    Blank(&'a str),
    Literal { lexical: Cow<'a, str>, kind: Kind<'a> },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind<'a> {
    Plain,
    Lang(&'a str),
    Typed(&'a str),
}

impl<'a> From<&'a Term> for Value<'a> {
    fn from(term: &'a Term) -> Self {
        match term {
            Term::Iri(iri) => Value::Iri(iri.as_str()),
            Term::Blank(blank) => Value::Blank(blank.as_str()),
            Term::Literal(literal) => Value::Literal {
                lexical: Cow::Borrowed(literal.lexical()),
                kind: match literal.kind() {
                    LiteralKind::Plain => Kind::Plain,
                    LiteralKind::LanguageTagged(tag) => Kind::Lang(tag),
                    LiteralKind::Typed(datatype) => Kind::Typed(datatype.as_str()),
                },
            },
        }
    }
}

impl<'a> Value<'a> {
    fn plain(lexical: &'a str) -> Self {
        Value::Literal { lexical: Cow::Borrowed(lexical), kind: Kind::Plain }
    }

    fn boolean(b: bool) -> Self {
        let lexical = Cow::Borrowed(if b { "true" } else { "false" });
        Value::Literal { lexical, kind: Kind::Typed(xsd::BOOLEAN) }
    }

    fn number(n: f64) -> Self {
        let (lexical, datatype) = if n.fract() == 0.0 && n.abs() < i64::MAX as f64 {
            ((n as i64).to_string(), xsd::INTEGER)
        } else {
            (n.to_string(), xsd::DOUBLE)
        };
        Value::Literal { lexical: Cow::Owned(lexical), kind: Kind::Typed(datatype) }
    }

    fn into_term(self) -> Term {
        match self {
            Value::Iri(iri) => Term::Iri(Iri::new_unchecked(iri)),
            Value::Blank(label) => Term::Blank(BlankNode::new_unchecked(label)),
            Value::Literal { lexical, kind } => Term::Literal(match kind {
                Kind::Plain => Literal::plain(lexical),
                Kind::Lang(tag) => Literal::lang(lexical, tag),
                Kind::Typed(datatype) => Literal::typed(lexical, Iri::new_unchecked(datatype)),
            }),
        }
    }

    /// The numeric interpretation [`Literal::as_f64`] gives the term.
    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Literal { lexical, kind: Kind::Plain } => lexical.parse().ok(),
            Value::Literal { lexical, kind: Kind::Typed(datatype) } if xsd::is_numeric(datatype) => {
                lexical.parse().ok()
            }
            _ => None,
        }
    }

    fn numeric(&self) -> Result<f64, ExprError> {
        self.as_f64().ok_or_else(|| err("not a number"))
    }

    fn string_value(&self) -> Result<&str, ExprError> {
        match self {
            Value::Literal { lexical, .. } => Ok(lexical),
            Value::Iri(iri) => Ok(iri),
            Value::Blank(_) => Err(err("string value of a blank node")),
        }
    }

    /// The SPARQL effective boolean value (EBV).
    fn ebv(&self) -> Result<bool, ExprError> {
        let Value::Literal { lexical, kind } = self else {
            return Err(err("EBV of a non-literal"));
        };
        match kind {
            Kind::Typed(datatype) if *datatype == xsd::BOOLEAN => match lexical.as_ref() {
                "true" | "1" => Ok(true),
                "false" | "0" => Ok(false),
                _ => Err(err("ill-formed boolean")),
            },
            Kind::Typed(datatype) if xsd::is_numeric(datatype) => {
                Ok(self.as_f64().is_some_and(|n| n != 0.0))
            }
            Kind::Typed(datatype) if *datatype != xsd::STRING => {
                Err(err("no boolean value for this datatype"))
            }
            // Plain, language-tagged and xsd:string literals: non-empty is true.
            _ => Ok(!lexical.is_empty()),
        }
    }
}

/// The SPARQL effective boolean value (EBV) of a term.
pub fn effective_boolean_value(term: &Term) -> Result<bool, ExprError> {
    Value::from(term).ebv()
}

fn lang_matches(tag: &str, range: &str) -> bool {
    if tag.is_empty() {
        return false;
    }
    if range == "*" {
        return true;
    }
    let tag = tag.to_ascii_lowercase();
    let range = range.to_ascii_lowercase();
    tag == range || tag.starts_with(&format!("{range}-"))
}

/// SPARQL `=`/ordering comparison of two terms.
fn compare_terms(op: ComparisonOp, a: &Value<'_>, b: &Value<'_>) -> Result<bool, ExprError> {
    use ComparisonOp::*;
    // Numeric comparison when both sides are numeric literals.
    if let (Some(na), Some(nb)) = (a.as_f64(), b.as_f64()) {
        return Ok(match op {
            Eq => na == nb,
            Neq => na != nb,
            Lt => na < nb,
            Le => na <= nb,
            Gt => na > nb,
            Ge => na >= nb,
        });
    }
    // Ordering is defined for comparable literals (string compare of
    // untyped and xsd:string literals); anything else is a type error.
    fn orderable<'v>(v: &'v Value<'_>) -> Option<&'v str> {
        match v {
            Value::Literal { kind: Kind::Typed(datatype), .. } if *datatype != xsd::STRING => None,
            Value::Literal { lexical, .. } => Some(lexical),
            _ => None,
        }
    }
    match op {
        Eq => Ok(a == b),
        Neq => Ok(a != b),
        _ => match (orderable(a), orderable(b)) {
            (Some(sa), Some(sb)) => Ok(match op {
                Lt => sa < sb,
                Le => sa <= sb,
                Gt => sa > sb,
                Ge => sa >= sb,
                Eq | Neq => unreachable!("matched above"),
            }),
            _ => Err(err("terms are not order-comparable")),
        },
    }
}

/// A binary codec for expression trees, built on the primitives of
/// [`rdfmesh_rdf::codec`].
///
/// The live mesh pushes `FILTER` conditions down to the data sources
/// (Sect. IV-G), so a socket transport has to ship expression trees
/// inside its sub-query frames. Layout: one tag byte per node, children
/// in order; operators are a second tag byte; variables are
/// length-prefixed names; constants reuse the term encoding. Decoding is
/// depth-bounded so a malicious frame cannot overflow the stack.
pub mod wire {
    use rdfmesh_rdf::codec::{put_str, put_term, DecodeError, Reader};
    use rdfmesh_rdf::Variable;

    use super::{ArithOp, ComparisonOp, Expression};

    const TAG_VAR: u8 = 0;
    const TAG_CONST: u8 = 1;
    const TAG_OR: u8 = 2;
    const TAG_AND: u8 = 3;
    const TAG_NOT: u8 = 4;
    const TAG_COMPARE: u8 = 5;
    const TAG_ARITH: u8 = 6;
    const TAG_NEG: u8 = 7;
    const TAG_BOUND: u8 = 8;
    const TAG_STR: u8 = 9;
    const TAG_LANG: u8 = 10;
    const TAG_DATATYPE: u8 = 11;
    const TAG_IS_IRI: u8 = 12;
    const TAG_IS_BLANK: u8 = 13;
    const TAG_IS_LITERAL: u8 = 14;
    const TAG_SAME_TERM: u8 = 15;
    const TAG_LANG_MATCHES: u8 = 16;
    const TAG_REGEX: u8 = 17;

    /// Decoding recursion bound: deeper frames are rejected as malformed
    /// (parsed queries never approach this; only hostile bytes do).
    const MAX_DEPTH: u32 = 128;

    fn cmp_tag(op: ComparisonOp) -> u8 {
        match op {
            ComparisonOp::Eq => 0,
            ComparisonOp::Neq => 1,
            ComparisonOp::Lt => 2,
            ComparisonOp::Le => 3,
            ComparisonOp::Gt => 4,
            ComparisonOp::Ge => 5,
        }
    }

    fn arith_tag(op: ArithOp) -> u8 {
        match op {
            ArithOp::Add => 0,
            ArithOp::Sub => 1,
            ArithOp::Mul => 2,
            ArithOp::Div => 3,
        }
    }

    /// Appends `expr`'s wire bytes to `out`.
    pub fn put_expr(out: &mut Vec<u8>, expr: &Expression) {
        match expr {
            Expression::Var(v) => {
                out.push(TAG_VAR);
                put_str(out, v.as_str());
            }
            Expression::Const(t) => {
                out.push(TAG_CONST);
                put_term(out, t);
            }
            Expression::Or(a, b) => {
                out.push(TAG_OR);
                put_expr(out, a);
                put_expr(out, b);
            }
            Expression::And(a, b) => {
                out.push(TAG_AND);
                put_expr(out, a);
                put_expr(out, b);
            }
            Expression::Not(e) => {
                out.push(TAG_NOT);
                put_expr(out, e);
            }
            Expression::Compare(op, a, b) => {
                out.push(TAG_COMPARE);
                out.push(cmp_tag(*op));
                put_expr(out, a);
                put_expr(out, b);
            }
            Expression::Arith(op, a, b) => {
                out.push(TAG_ARITH);
                out.push(arith_tag(*op));
                put_expr(out, a);
                put_expr(out, b);
            }
            Expression::Neg(e) => {
                out.push(TAG_NEG);
                put_expr(out, e);
            }
            Expression::Bound(v) => {
                out.push(TAG_BOUND);
                put_str(out, v.as_str());
            }
            Expression::Str(e) => {
                out.push(TAG_STR);
                put_expr(out, e);
            }
            Expression::Lang(e) => {
                out.push(TAG_LANG);
                put_expr(out, e);
            }
            Expression::Datatype(e) => {
                out.push(TAG_DATATYPE);
                put_expr(out, e);
            }
            Expression::IsIri(e) => {
                out.push(TAG_IS_IRI);
                put_expr(out, e);
            }
            Expression::IsBlank(e) => {
                out.push(TAG_IS_BLANK);
                put_expr(out, e);
            }
            Expression::IsLiteral(e) => {
                out.push(TAG_IS_LITERAL);
                put_expr(out, e);
            }
            Expression::SameTerm(a, b) => {
                out.push(TAG_SAME_TERM);
                put_expr(out, a);
                put_expr(out, b);
            }
            Expression::LangMatches(a, b) => {
                out.push(TAG_LANG_MATCHES);
                put_expr(out, a);
                put_expr(out, b);
            }
            Expression::Regex(text, pattern, flags) => {
                out.push(TAG_REGEX);
                out.push(u8::from(flags.is_some()));
                put_expr(out, text);
                put_expr(out, pattern);
                if let Some(f) = flags {
                    put_expr(out, f);
                }
            }
        }
    }

    /// Reads one expression tree off `r` (inverse of [`put_expr`]).
    pub fn read_expr(r: &mut Reader<'_>) -> Result<Expression, DecodeError> {
        read_at(r, 0)
    }

    fn read_at(r: &mut Reader<'_>, depth: u32) -> Result<Expression, DecodeError> {
        if depth >= MAX_DEPTH {
            return Err(DecodeError("expression nesting too deep"));
        }
        let one = |r: &mut Reader<'_>| read_at(r, depth + 1).map(Box::new);
        Ok(match r.u8()? {
            TAG_VAR => Expression::Var(Variable::new(r.str()?)),
            TAG_CONST => Expression::Const(r.term()?),
            TAG_OR => Expression::Or(one(r)?, one(r)?),
            TAG_AND => Expression::And(one(r)?, one(r)?),
            TAG_NOT => Expression::Not(one(r)?),
            TAG_COMPARE => {
                let op = match r.u8()? {
                    0 => ComparisonOp::Eq,
                    1 => ComparisonOp::Neq,
                    2 => ComparisonOp::Lt,
                    3 => ComparisonOp::Le,
                    4 => ComparisonOp::Gt,
                    5 => ComparisonOp::Ge,
                    _ => return Err(DecodeError("unknown comparison operator")),
                };
                Expression::Compare(op, one(r)?, one(r)?)
            }
            TAG_ARITH => {
                let op = match r.u8()? {
                    0 => ArithOp::Add,
                    1 => ArithOp::Sub,
                    2 => ArithOp::Mul,
                    3 => ArithOp::Div,
                    _ => return Err(DecodeError("unknown arithmetic operator")),
                };
                Expression::Arith(op, one(r)?, one(r)?)
            }
            TAG_NEG => Expression::Neg(one(r)?),
            TAG_BOUND => Expression::Bound(Variable::new(r.str()?)),
            TAG_STR => Expression::Str(one(r)?),
            TAG_LANG => Expression::Lang(one(r)?),
            TAG_DATATYPE => Expression::Datatype(one(r)?),
            TAG_IS_IRI => Expression::IsIri(one(r)?),
            TAG_IS_BLANK => Expression::IsBlank(one(r)?),
            TAG_IS_LITERAL => Expression::IsLiteral(one(r)?),
            TAG_SAME_TERM => Expression::SameTerm(one(r)?, one(r)?),
            TAG_LANG_MATCHES => Expression::LangMatches(one(r)?, one(r)?),
            TAG_REGEX => {
                let has_flags = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(DecodeError("invalid regex flags marker")),
                };
                let text = one(r)?;
                let pattern = one(r)?;
                let flags = if has_flags { Some(one(r)?) } else { None };
                Expression::Regex(text, pattern, flags)
            }
            _ => return Err(DecodeError("unknown expression tag")),
        })
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use rdfmesh_rdf::Term;

        fn round_trip(expr: &Expression) {
            let mut bytes = Vec::new();
            put_expr(&mut bytes, expr);
            let mut r = Reader::new(&bytes);
            let back = read_expr(&mut r).expect("decodes");
            r.finish().expect("fully consumed");
            assert_eq!(&back, expr);
        }

        #[test]
        fn every_variant_round_trips() {
            let v = |n: &str| Box::new(Expression::Var(Variable::new(n)));
            let c = |n: i64| {
                Box::new(Expression::Const(Term::Literal(rdfmesh_rdf::Literal::integer(n))))
            };
            let exprs = [
                Expression::Var(Variable::new("x")),
                Expression::Const(Term::iri("http://e/a")),
                Expression::Or(v("a"), v("b")),
                Expression::And(v("a"), v("b")),
                Expression::Not(v("a")),
                Expression::Compare(ComparisonOp::Le, v("a"), c(5)),
                Expression::Arith(ArithOp::Mul, c(2), c(3)),
                Expression::Neg(c(1)),
                Expression::Bound(Variable::new("y")),
                Expression::Str(v("a")),
                Expression::Lang(v("a")),
                Expression::Datatype(v("a")),
                Expression::IsIri(v("a")),
                Expression::IsBlank(v("a")),
                Expression::IsLiteral(v("a")),
                Expression::SameTerm(v("a"), v("b")),
                Expression::LangMatches(Box::new(Expression::Lang(v("a"))), c(0)),
                Expression::Regex(v("a"), c(0), None),
                Expression::Regex(v("a"), c(0), Some(c(1))),
            ];
            for e in &exprs {
                round_trip(e);
            }
            // A nested composite, as the optimizer's pushed-down filters
            // actually look.
            round_trip(&Expression::And(
                Box::new(Expression::Compare(ComparisonOp::Ge, v("age"), c(30))),
                Box::new(Expression::Compare(ComparisonOp::Lt, v("age"), c(60))),
            ));
        }

        #[test]
        fn malformed_bytes_are_rejected_not_trusted() {
            // Unknown tag.
            assert!(read_expr(&mut Reader::new(&[200])).is_err());
            // Truncated operand.
            let mut bytes = Vec::new();
            put_expr(&mut bytes, &Expression::And(
                Box::new(Expression::Bound(Variable::new("x"))),
                Box::new(Expression::Bound(Variable::new("y"))),
            ));
            bytes.truncate(bytes.len() - 2);
            assert!(read_expr(&mut Reader::new(&bytes)).is_err());
            // Unknown operator byte.
            assert!(read_expr(&mut Reader::new(&[TAG_COMPARE, 9])).is_err());
            // A deeply nested bomb stays an error, not a stack overflow.
            let mut bomb = vec![TAG_NOT; 100_000];
            bomb.push(TAG_BOUND);
            assert!(read_expr(&mut Reader::new(&bomb)).is_err());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(name: &str) -> Variable {
        Variable::new(name)
    }

    fn sol(pairs: &[(&str, Term)]) -> Solution {
        Solution::from_pairs(pairs.iter().map(|(n, t)| (v(n), t.clone())))
    }

    fn int(n: i64) -> Term {
        Term::Literal(Literal::integer(n))
    }

    fn bool_term(b: bool) -> Term {
        Term::Literal(Literal::boolean(b))
    }

    #[test]
    fn variable_lookup_and_unbound_error() {
        let s = sol(&[("x", int(5))]);
        assert_eq!(Expression::Var(v("x")).evaluate(&s), Ok(int(5)));
        assert!(Expression::Var(v("y")).evaluate(&s).is_err());
    }

    #[test]
    fn numeric_comparisons() {
        let s = sol(&[("x", int(5))]);
        let lt = Expression::Compare(
            ComparisonOp::Lt,
            Box::new(Expression::Var(v("x"))),
            Box::new(Expression::Const(int(10))),
        );
        assert!(lt.satisfied_by(&s));
        let gt = Expression::Compare(
            ComparisonOp::Gt,
            Box::new(Expression::Var(v("x"))),
            Box::new(Expression::Const(int(10))),
        );
        assert!(!gt.satisfied_by(&s));
    }

    #[test]
    fn string_ordering() {
        let s = sol(&[("a", Term::literal("apple")), ("b", Term::literal("banana"))]);
        let cmp = Expression::Compare(
            ComparisonOp::Lt,
            Box::new(Expression::Var(v("a"))),
            Box::new(Expression::Var(v("b"))),
        );
        assert!(cmp.satisfied_by(&s));
    }

    #[test]
    fn iri_equality_but_no_ordering() {
        let s = sol(&[("x", Term::iri("http://e/a"))]);
        let eq = Expression::Compare(
            ComparisonOp::Eq,
            Box::new(Expression::Var(v("x"))),
            Box::new(Expression::Const(Term::iri("http://e/a"))),
        );
        assert!(eq.satisfied_by(&s));
        let lt = Expression::Compare(
            ComparisonOp::Lt,
            Box::new(Expression::Var(v("x"))),
            Box::new(Expression::Const(Term::iri("http://e/b"))),
        );
        assert!(lt.evaluate(&s).is_err());
    }

    #[test]
    fn arithmetic_and_division_by_zero() {
        let s = sol(&[("x", int(6))]);
        let twice = Expression::Arith(
            ArithOp::Mul,
            Box::new(Expression::Var(v("x"))),
            Box::new(Expression::Const(int(2))),
        );
        assert_eq!(twice.evaluate(&s), Ok(int(12)));
        let div0 = Expression::Arith(
            ArithOp::Div,
            Box::new(Expression::Var(v("x"))),
            Box::new(Expression::Const(int(0))),
        );
        assert!(div0.evaluate(&s).is_err());
        let half = Expression::Arith(
            ArithOp::Div,
            Box::new(Expression::Const(int(3))),
            Box::new(Expression::Const(int(2))),
        );
        assert_eq!(half.evaluate(&s).unwrap().as_literal().unwrap().as_f64(), Some(1.5));
    }

    #[test]
    fn bound_builtin() {
        let s = sol(&[("x", int(1))]);
        assert!(Expression::Bound(v("x")).satisfied_by(&s));
        assert!(!Expression::Bound(v("y")).satisfied_by(&s));
    }

    #[test]
    fn or_recovers_from_error() {
        // (?missing < 3) || true  ==> true, per 3-valued logic.
        let s = Solution::new();
        let e = Expression::Or(
            Box::new(Expression::Compare(
                ComparisonOp::Lt,
                Box::new(Expression::Var(v("missing"))),
                Box::new(Expression::Const(int(3))),
            )),
            Box::new(Expression::boolean(true)),
        );
        assert!(e.satisfied_by(&s));
        // false || error ==> error ==> filter drops.
        let e2 = Expression::Or(
            Box::new(Expression::boolean(false)),
            Box::new(Expression::Var(v("missing"))),
        );
        assert!(!e2.satisfied_by(&s));
    }

    #[test]
    fn and_short_circuits_errors_on_false() {
        let s = Solution::new();
        let e = Expression::And(
            Box::new(Expression::boolean(false)),
            Box::new(Expression::Var(v("missing"))),
        );
        assert_eq!(e.evaluate(&s), Ok(bool_term(false)));
    }

    #[test]
    fn regex_builtin_matches_paper_example() {
        // FILTER regex(?name, "Smith") from Fig. 4.
        let s = sol(&[("name", Term::literal("Agent Smith"))]);
        let e = Expression::Regex(
            Box::new(Expression::Var(v("name"))),
            Box::new(Expression::Const(Term::literal("Smith"))),
            None,
        );
        assert!(e.satisfied_by(&s));
        let s2 = sol(&[("name", Term::literal("Neo"))]);
        assert!(!e.satisfied_by(&s2));
    }

    #[test]
    fn regex_with_flags() {
        let s = sol(&[("name", Term::literal("SMITH"))]);
        let e = Expression::Regex(
            Box::new(Expression::Var(v("name"))),
            Box::new(Expression::Const(Term::literal("smith"))),
            Some(Box::new(Expression::Const(Term::literal("i")))),
        );
        assert!(e.satisfied_by(&s));
    }

    #[test]
    fn str_lang_datatype() {
        let s = sol(&[
            ("i", Term::iri("http://e/x")),
            ("l", Term::Literal(Literal::lang("chat", "fr"))),
            ("n", int(5)),
        ]);
        assert_eq!(
            Expression::Str(Box::new(Expression::Var(v("i")))).evaluate(&s),
            Ok(Term::literal("http://e/x"))
        );
        assert_eq!(
            Expression::Lang(Box::new(Expression::Var(v("l")))).evaluate(&s),
            Ok(Term::literal("fr"))
        );
        assert_eq!(
            Expression::Datatype(Box::new(Expression::Var(v("n")))).evaluate(&s),
            Ok(Term::iri(rdfmesh_rdf::vocab::xsd::INTEGER))
        );
    }

    #[test]
    fn type_check_builtins() {
        let s = sol(&[("i", Term::iri("http://e/x")), ("l", Term::literal("a")), ("b", Term::blank("z"))]);
        assert!(Expression::IsIri(Box::new(Expression::Var(v("i")))).satisfied_by(&s));
        assert!(Expression::IsLiteral(Box::new(Expression::Var(v("l")))).satisfied_by(&s));
        assert!(Expression::IsBlank(Box::new(Expression::Var(v("b")))).satisfied_by(&s));
        assert!(!Expression::IsIri(Box::new(Expression::Var(v("l")))).satisfied_by(&s));
    }

    #[test]
    fn same_term_is_exact() {
        let s = sol(&[("a", int(1)), ("b", Term::literal("1"))]);
        let e = Expression::SameTerm(
            Box::new(Expression::Var(v("a"))),
            Box::new(Expression::Var(v("b"))),
        );
        assert!(!e.satisfied_by(&s)); // 1^^xsd:integer != "1" as terms
    }

    #[test]
    fn lang_matches_ranges() {
        assert!(lang_matches("en", "en"));
        assert!(lang_matches("en-us", "en"));
        assert!(lang_matches("en", "*"));
        assert!(!lang_matches("", "*"));
        assert!(!lang_matches("fr", "en"));
    }

    #[test]
    fn ebv_rules() {
        assert_eq!(effective_boolean_value(&Term::literal("")), Ok(false));
        assert_eq!(effective_boolean_value(&Term::literal("x")), Ok(true));
        assert_eq!(effective_boolean_value(&int(0)), Ok(false));
        assert_eq!(effective_boolean_value(&int(3)), Ok(true));
        assert!(effective_boolean_value(&Term::iri("http://e/x")).is_err());
    }

    #[test]
    fn variables_collects_all_mentions() {
        let e = Expression::And(
            Box::new(Expression::Regex(
                Box::new(Expression::Var(v("name"))),
                Box::new(Expression::Const(Term::literal("Smith"))),
                None,
            )),
            Box::new(Expression::Bound(v("y"))),
        );
        let vars: Vec<String> = e.variables().iter().map(|x| x.as_str().to_string()).collect();
        assert_eq!(vars, ["name", "y"]);
    }
}
