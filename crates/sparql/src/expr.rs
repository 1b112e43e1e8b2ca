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
//! There is one evaluator, and it runs on a [`Compiled`] expression:
//! [`Expression::compile`] is paid once per filter. It numbers the
//! expression's variables, parses its numeric constants and compiles
//! every `regex` whose pattern and flags are constants. Each row then
//! costs no allocation unless it does arithmetic: intermediate values
//! borrow from the row and the expression, booleans stay `bool`, and an
//! error is a static message. A row is anything that lends a term per
//! variable: a [`Bindings`] by name (a [`Solution`], a batch's row), or a
//! triple the store lends, read by position — how a filter pushed to a
//! data source (Sect. IV-G) runs before any row is materialised
//! ([`crate::eval::for_each_kept`]). [`Expression::evaluate`] and
//! [`Expression::satisfied_by`] compile and evaluate in one call, for
//! one-off uses.

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExprError(pub &'static str);

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "expression type error: {}", self.0)
    }
}

impl std::error::Error for ExprError {}

type EvalResult = Result<Term, ExprError>;

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

/// A row as a [`Compiled`] expression reads it: the term bound to its
/// `i`-th variable ([`Compiled::variables`]), if any.
pub(crate) trait Slots {
    fn slot(&self, i: usize) -> Option<&Term>;
}

/// A [`Bindings`] row, its variables looked up by name.
struct ByName<'r, B: ?Sized> {
    row: &'r B,
    vars: &'r [&'r Variable],
}

impl<B: Bindings + ?Sized> Slots for ByName<'_, B> {
    fn slot(&self, i: usize) -> Option<&Term> {
        self.row.get(self.vars[i])
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
    /// tree, with its variables numbered, its numeric constants parsed
    /// and every `regex` whose pattern and flags are constants compiled
    /// now instead of per row.
    pub fn compile(&self) -> Compiled<'_> {
        let mut vars = Vec::new();
        let root = self.node(&mut vars);
        Compiled { root, vars }
    }

    fn node<'e>(&'e self, vars: &mut Vec<&'e Variable>) -> Node<'e> {
        fn slot<'e>(vars: &mut Vec<&'e Variable>, v: &'e Variable) -> usize {
            vars.iter().position(|&known| known == v).unwrap_or_else(|| {
                vars.push(v);
                vars.len() - 1
            })
        }
        let mut node = |e: &'e Expression| Box::new(e.node(vars));
        fn constant_text(e: &Expression) -> Option<Result<Cow<'_, str>, ExprError>> {
            match e {
                Expression::Const(t) => Some(Value::from(t).into_text()),
                _ => None,
            }
        }
        let test = Node::Test;
        match self {
            Expression::Var(v) => Node::Var(slot(vars, v)),
            Expression::Const(t) => {
                let value = Value::from(t);
                let number = value.as_f64();
                Node::Const(value, number)
            }
            Expression::Neg(e) => Node::Term(TermOp::Neg, node(e)),
            Expression::Str(e) => Node::Term(TermOp::Str, node(e)),
            Expression::Lang(e) => Node::Term(TermOp::Lang, node(e)),
            Expression::Datatype(e) => Node::Term(TermOp::Datatype, node(e)),
            Expression::Arith(op, a, b) => Node::Arith(*op, node(a), node(b)),
            Expression::Bound(v) => test(Test::Bound(slot(vars, v))),
            Expression::Not(e) => test(Test::Not(node(e))),
            Expression::IsIri(e) => test(Test::Is(IsKind::Iri, node(e))),
            Expression::IsBlank(e) => test(Test::Is(IsKind::Blank, node(e))),
            Expression::IsLiteral(e) => test(Test::Is(IsKind::Literal, node(e))),
            Expression::Or(a, b) | Expression::And(a, b) => {
                // `||` and `&&` are commutative in SPARQL's three-valued
                // logic (only which of two errors is reported may differ),
                // so the cheaper operand runs first: when it decides, the
                // dearer one is never run.
                let (a, b) = (node(a), node(b));
                let (a, b) = if b.cost() < a.cost() { (b, a) } else { (a, b) };
                test(Test::Connective { decisive: matches!(self, Expression::Or(..)), a, b })
            }
            Expression::Compare(op, a, b) => test(Test::Compare(*op, node(a), node(b))),
            Expression::SameTerm(a, b) => test(Test::SameTerm(node(a), node(b))),
            Expression::LangMatches(a, b) => test(Test::LangMatches(node(a), node(b))),
            Expression::Regex(text, pattern, flags) => {
                let text = node(text);
                let matcher = match (constant_text(pattern), flags.as_deref().map(constant_text)) {
                    (Some(p), None) => Matcher::Constant(p.and_then(|p| compile_regex(&p, ""))),
                    (Some(p), Some(Some(f))) => {
                        Matcher::Constant(p.and_then(|p| compile_regex(&p, &f?)))
                    }
                    _ => Matcher::PerRow {
                        pattern: node(pattern),
                        flags: flags.as_deref().map(&mut node),
                    },
                };
                test(Test::Regex { text, matcher })
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
pub struct Compiled<'e> {
    root: Node<'e>,
    /// The variables the expression names, each once: `Node::Var(i)` and
    /// `Test::Bound(i)` read `vars[i]`.
    vars: Vec<&'e Variable>,
}

impl<'e> Compiled<'e> {
    /// Evaluates the expression over `row`, producing a term.
    pub fn evaluate<B: Bindings + ?Sized>(&self, row: &B) -> EvalResult {
        self.root.eval(&ByName { row, vars: &self.vars }).map(Value::into_term)
    }

    /// Evaluates the expression as a filter condition: `true` only if it
    /// evaluates without error to a term whose effective boolean value is
    /// true.
    pub fn satisfied_by<B: Bindings + ?Sized>(&self, row: &B) -> bool {
        self.keeps(&ByName { row, vars: &self.vars })
    }

    /// The variables the expression names, in the order [`Slots`] numbers
    /// them.
    pub(crate) fn variables(&self) -> &[&'e Variable] {
        &self.vars
    }

    /// [`Compiled::satisfied_by`] over a row that lends its terms by slot.
    pub(crate) fn keeps<S: Slots>(&self, row: &S) -> bool {
        self.root.truth(row).unwrap_or(false)
    }
}

/// A compiled expression node. A node whose value is an `xsd:boolean`
/// is a [`Test`], evaluated to a `bool` ([`Node::truth`]); the others
/// to a [`Value`] ([`Node::eval`]).
#[derive(Debug)]
enum Node<'e> {
    /// A variable, by its index in [`Compiled::vars`].
    Var(usize),
    /// A constant, with its numeric value.
    Const(Value<'e>, Option<f64>),
    /// A builtin of one term whose value is a term.
    Term(TermOp, Box<Node<'e>>),
    Arith(ArithOp, Box<Node<'e>>, Box<Node<'e>>),
    Test(Test<'e>),
}

#[derive(Debug, Clone, Copy)]
enum TermOp {
    Neg,
    Str,
    Lang,
    Datatype,
}

#[derive(Debug)]
enum Test<'e> {
    Bound(usize),
    Not(Box<Node<'e>>),
    Is(IsKind, Box<Node<'e>>),
    Compare(ComparisonOp, Box<Node<'e>>, Box<Node<'e>>),
    SameTerm(Box<Node<'e>>, Box<Node<'e>>),
    LangMatches(Box<Node<'e>>, Box<Node<'e>>),
    /// `||` (`decisive` is true) or `&&` (false).
    Connective { decisive: bool, a: Box<Node<'e>>, b: Box<Node<'e>> },
    Regex { text: Box<Node<'e>>, matcher: Matcher<'e> },
}

/// `isIRI`, `isBlank`, `isLiteral`.
#[derive(Debug, Clone, Copy)]
enum IsKind {
    Iri,
    Blank,
    Literal,
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
fn compile_regex(pattern: &str, flags: &str) -> Result<Regex, ExprError> {
    Regex::with_flags(pattern, flags).map_err(|_| ExprError("invalid regular expression"))
}

impl Node<'_> {
    /// What evaluating the node costs a row, roughly, in term reads: a
    /// number parsed from a term counts 4, a regex compiled per row 64.
    fn cost(&self) -> u32 {
        let parse = |e: &Node<'_>| if matches!(e, Node::Const(..)) { 0 } else { 4 };
        match self {
            Node::Const(..) => 0,
            Node::Var(_) | Node::Test(Test::Bound(_)) => 1,
            Node::Term(_, e) | Node::Test(Test::Not(e) | Test::Is(_, e)) => 1 + e.cost(),
            Node::Arith(_, a, b) | Node::Test(Test::Compare(_, a, b)) => {
                1 + a.cost() + b.cost() + parse(a) + parse(b)
            }
            Node::Test(
                Test::SameTerm(a, b) | Test::LangMatches(a, b) | Test::Connective { a, b, .. },
            ) => 1 + a.cost() + b.cost(),
            Node::Test(Test::Regex { text, matcher }) => {
                let per_row = match matcher {
                    Matcher::Constant(_) => 1,
                    Matcher::PerRow { .. } => 64,
                };
                1 + text.cost() + per_row
            }
        }
    }
}

/// The evaluator: [`Node::eval`] gives a node's value, and three
/// accessors give what an operator asks of its operands — a truth value,
/// a number, a string — without building the value where the node can
/// answer directly (a test its `bool`, a variable its term's parts, a
/// constant what was computed with the expression, arithmetic its `f64`).
/// Each asks [`Node::eval`] otherwise, so every operator is defined once.
impl Node<'_> {
    /// The node's value. A variable or a constant is read in place, not
    /// through a call: most operands are one.
    #[inline]
    fn eval<'a, S: Slots>(&'a self, row: &'a S) -> Result<Value<'a>, ExprError> {
        match self {
            Node::Var(i) => row.slot(*i).map(Value::from).ok_or(UNBOUND),
            Node::Const(value, _) => Ok(value.clone()),
            _ => self.compute(row),
        }
    }

    /// The value of a node that is not a leaf.
    fn compute<'a, S: Slots>(&'a self, row: &'a S) -> Result<Value<'a>, ExprError> {
        match self {
            Node::Var(_) | Node::Const(..) => self.eval(row),
            Node::Term(TermOp::Neg, _) | Node::Arith(..) => self.arithmetic(row).map(Value::number),
            Node::Term(TermOp::Str, e) => Ok(Value::Literal { lexical: e.text(row)?, kind: Kind::Plain }),
            Node::Term(TermOp::Lang, e) => match e.eval(row)? {
                Value::Literal { kind: Kind::Lang(tag), .. } => Ok(Value::plain(tag)),
                Value::Literal { .. } | Value::Bool(_) => Ok(Value::plain("")),
                _ => Err(ExprError("LANG of a non-literal")),
            },
            Node::Term(TermOp::Datatype, e) => match e.eval(row)? {
                Value::Literal { kind: Kind::Typed(datatype), .. } => Ok(Value::Iri(datatype)),
                Value::Literal { kind: Kind::Plain, .. } => Ok(Value::Iri(xsd::STRING)),
                Value::Literal { kind: Kind::Lang(_), .. } => {
                    Err(ExprError("DATATYPE of a language-tagged literal"))
                }
                Value::Bool(_) => Ok(Value::Iri(xsd::BOOLEAN)),
                _ => Err(ExprError("DATATYPE of a non-literal")),
            },
            Node::Test(test) => test.truth(row).map(Value::Bool),
        }
    }

    /// The node's effective boolean value (EBV): what a filter and a
    /// connective ask of it.
    #[inline]
    fn truth<S: Slots>(&self, row: &S) -> Result<bool, ExprError> {
        match self {
            Node::Test(test) => test.truth(row),
            _ => self.eval(row)?.ebv(),
        }
    }

    /// The node's numeric interpretation ([`Literal::as_f64`]): `None` for
    /// a term that is not a number.
    #[inline]
    fn number<S: Slots>(&self, row: &S) -> Result<Option<f64>, ExprError> {
        match self {
            Node::Var(i) => Ok(row.slot(*i).ok_or(UNBOUND)?.as_literal().and_then(Literal::as_f64)),
            Node::Const(_, number) => Ok(*number),
            Node::Term(TermOp::Neg, _) | Node::Arith(..) => self.arithmetic(row).map(Some),
            Node::Test(test) => test.truth(row).map(|_| None),
            Node::Term(..) => Ok(self.compute(row)?.as_f64()),
        }
    }

    /// The value of unary minus or of arithmetic, as the `f64` that
    /// [`Value::number`] writes out.
    fn arithmetic<S: Slots>(&self, row: &S) -> Result<f64, ExprError> {
        let operand = |e: &Node<'_>| e.number(row)?.ok_or(NAN);
        match self {
            Node::Term(TermOp::Neg, e) => Ok(-operand(e)?),
            Node::Arith(op, a, b) => {
                let (a, b) = (operand(a)?, operand(b)?);
                Ok(match op {
                    ArithOp::Add => a + b,
                    ArithOp::Sub => a - b,
                    ArithOp::Mul => a * b,
                    ArithOp::Div if b == 0.0 => return Err(ExprError("division by zero")),
                    ArithOp::Div => a / b,
                })
            }
            _ => unreachable!("not arithmetic"),
        }
    }

    /// The node's string value: an IRI's or a literal's text; an error
    /// for a blank node.
    #[inline]
    fn text<'a, S: Slots>(&'a self, row: &'a S) -> Result<Cow<'a, str>, ExprError> {
        match self {
            Node::Var(i) => match row.slot(*i).ok_or(UNBOUND)? {
                Term::Iri(iri) => Ok(Cow::Borrowed(iri.as_str())),
                Term::Literal(literal) => Ok(Cow::Borrowed(literal.lexical())),
                Term::Blank(_) => Err(BLANK_TEXT),
            },
            // STR keeps the string value; of a blank node, both are errors.
            Node::Term(TermOp::Str, e) => e.text(row),
            _ => self.eval(row)?.into_text(),
        }
    }
}

impl Test<'_> {
    fn truth<S: Slots>(&self, row: &S) -> Result<bool, ExprError> {
        match self {
            Test::Bound(i) => Ok(row.slot(*i).is_some()),
            Test::Not(e) => Ok(!e.truth(row)?),
            Test::Is(kind, e) => Ok(matches!(
                (kind, e.eval(row)?),
                (IsKind::Iri, Value::Iri(_))
                    | (IsKind::Blank, Value::Blank(_))
                    | (IsKind::Literal, Value::Literal { .. } | Value::Bool(_))
            )),
            Test::Connective { decisive, a, b } => {
                // SPARQL's 3-valued logic: one operand with the decisive
                // value (true for `||`, false for `&&`) beats an error
                // in the other.
                match a.truth(row) {
                    Ok(t) if t == *decisive => Ok(t),
                    Ok(_) => b.truth(row),
                    Err(e) => match b.truth(row) {
                        Ok(t) if t == *decisive => Ok(t),
                        _ => Err(e),
                    },
                }
            }
            Test::Compare(op, a, b) => match (a.number(row)?, b.number(row)?) {
                // Numeric comparison when both sides are numeric literals.
                (Some(a), Some(b)) => Ok(match op {
                    ComparisonOp::Eq => a == b,
                    ComparisonOp::Neq => a != b,
                    ComparisonOp::Lt => a < b,
                    ComparisonOp::Le => a <= b,
                    ComparisonOp::Gt => a > b,
                    ComparisonOp::Ge => a >= b,
                }),
                _ => compare_terms(*op, &a.eval(row)?, &b.eval(row)?),
            },
            Test::SameTerm(a, b) => Ok(a.eval(row)? == b.eval(row)?),
            Test::LangMatches(a, b) => Ok(lang_matches(&a.text(row)?, &b.text(row)?)),
            Test::Regex { text, matcher } => {
                let text = text.text(row)?;
                match matcher {
                    Matcher::Constant(regex) => Ok(regex.as_ref().map_err(|e| *e)?.is_match(&text)),
                    Matcher::PerRow { pattern, flags } => {
                        let pattern = pattern.text(row)?;
                        let flags = match flags {
                            Some(f) => f.text(row)?,
                            None => Cow::Borrowed(""),
                        };
                        Ok(compile_regex(&pattern, &flags)?.is_match(&text))
                    }
                }
            }
        }
    }
}

const UNBOUND: ExprError = ExprError("unbound variable");
const BLANK_TEXT: ExprError = ExprError("string value of a blank node");
const NAN: ExprError = ExprError("not a number");

/// A term as the evaluator sees it: the strings of a row's or the
/// expression's [`Term`], borrowed, or a computed value — which borrows
/// too (`STR`, `LANG`, `DATATYPE`) unless it is a number, or is a `bool`.
#[derive(Debug, Clone)]
enum Value<'a> {
    Iri(&'a str),
    Blank(&'a str),
    Literal { lexical: Cow<'a, str>, kind: Kind<'a> },
    /// An `xsd:boolean` computed by the expression: the literal
    /// `"true"` or `"false"`.
    Bool(bool),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind<'a> {
    Plain,
    Lang(&'a str),
    Typed(&'a str),
}

fn bool_lexical(b: bool) -> &'static str {
    if b {
        "true"
    } else {
        "false"
    }
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

/// Term equality: a [`Value::Bool`] is the `xsd:boolean` literal it
/// stands for.
impl PartialEq for Value<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Iri(a), Value::Iri(b)) | (Value::Blank(a), Value::Blank(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => match (self.literal(), other.literal()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
        }
    }
}

impl<'a> Value<'a> {
    fn plain(lexical: &'a str) -> Self {
        Value::Literal { lexical: Cow::Borrowed(lexical), kind: Kind::Plain }
    }

    fn number(n: f64) -> Self {
        let (lexical, datatype) = if n.fract() == 0.0 && n.abs() < i64::MAX as f64 {
            ((n as i64).to_string(), xsd::INTEGER)
        } else {
            (n.to_string(), xsd::DOUBLE)
        };
        Value::Literal { lexical: Cow::Owned(lexical), kind: Kind::Typed(datatype) }
    }

    /// A literal's lexical form and kind; `None` for an IRI or a blank node.
    fn literal(&self) -> Option<(&str, Kind<'a>)> {
        match self {
            Value::Literal { lexical, kind } => Some((lexical, *kind)),
            Value::Bool(b) => Some((bool_lexical(*b), Kind::Typed(xsd::BOOLEAN))),
            Value::Iri(_) | Value::Blank(_) => None,
        }
    }

    fn into_term(self) -> Term {
        match self {
            Value::Iri(iri) => Term::Iri(Iri::new_unchecked(iri)),
            Value::Blank(label) => Term::Blank(BlankNode::new_unchecked(label)),
            Value::Bool(b) => Term::Literal(Literal::boolean(b)),
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

    /// The string value: an IRI's or a literal's text.
    fn into_text(self) -> Result<Cow<'a, str>, ExprError> {
        match self {
            Value::Literal { lexical, .. } => Ok(lexical),
            Value::Bool(b) => Ok(Cow::Borrowed(bool_lexical(b))),
            Value::Iri(iri) => Ok(Cow::Borrowed(iri)),
            Value::Blank(_) => Err(BLANK_TEXT),
        }
    }

    /// The SPARQL effective boolean value (EBV).
    fn ebv(&self) -> Result<bool, ExprError> {
        let (lexical, kind) = match self {
            Value::Bool(b) => return Ok(*b),
            Value::Literal { lexical, kind } => (lexical, kind),
            Value::Iri(_) | Value::Blank(_) => return Err(ExprError("EBV of a non-literal")),
        };
        match kind {
            Kind::Typed(datatype) if *datatype == xsd::BOOLEAN => match lexical.as_ref() {
                "true" | "1" => Ok(true),
                "false" | "0" => Ok(false),
                _ => Err(ExprError("ill-formed boolean")),
            },
            Kind::Typed(datatype) if xsd::is_numeric(datatype) => {
                Ok(self.as_f64().is_some_and(|n| n != 0.0))
            }
            Kind::Typed(datatype) if *datatype != xsd::STRING => {
                Err(ExprError("no boolean value for this datatype"))
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

/// Whether language `tag` is in `range` (RFC 4647 basic filtering):
/// ASCII case aside, the tag is the range or starts with it and a `-`.
fn lang_matches(tag: &str, range: &str) -> bool {
    if tag.is_empty() {
        return false;
    }
    if range == "*" {
        return true;
    }
    let (tag, range) = (tag.as_bytes(), range.as_bytes());
    tag.get(..range.len()).is_some_and(|head| head.eq_ignore_ascii_case(range))
        && tag.get(range.len()).is_none_or(|&next| next == b'-')
}

/// SPARQL `=`/ordering comparison of two terms that are not both
/// numbers (those compare by value).
fn compare_terms(op: ComparisonOp, a: &Value<'_>, b: &Value<'_>) -> Result<bool, ExprError> {
    use ComparisonOp::*;
    // Ordering is defined for comparable literals (string compare of
    // untyped and xsd:string literals); anything else is a type error.
    fn orderable<'v>(v: &'v Value<'_>) -> Option<&'v str> {
        match v.literal()? {
            (_, Kind::Typed(datatype)) if datatype != xsd::STRING => None,
            (lexical, _) => Some(lexical),
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
            _ => Err(ExprError("terms are not order-comparable")),
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
    fn a_connective_runs_its_cheaper_operand_first() {
        let k = || Box::new(Expression::Var(v("k")));
        let at_least_one = Expression::Compare(ComparisonOp::Ge, k(), Box::new(Expression::Const(int(1))));
        let suffix = Expression::Regex(
            Box::new(Expression::Str(Box::new(Expression::Var(v("c"))))),
            Box::new(Expression::Const(Term::literal("/course9$"))),
            None,
        );
        let both = Expression::And(Box::new(at_least_one), Box::new(suffix));
        let Node::Test(Test::Connective { a, .. }) = both.compile().root else { panic!() };
        assert!(matches!(*a, Node::Test(Test::Regex { .. })), "the regex, which parses no number");
        // The answers are the written order's, on either operand deciding.
        let row = |c: &str, k: Term| sol(&[("c", Term::iri(c)), ("k", k)]);
        assert!(both.satisfied_by(&row("http://e/d4/course9", int(3))));
        assert!(!both.satisfied_by(&row("http://e/d4/course9", int(0))));
        assert!(!both.satisfied_by(&row("http://e/d4/course8", Term::iri("http://e/x"))));
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
