//! Triples and triple patterns.
//!
//! A triple pattern "resembles an RDF triple except that its subject,
//! predicate and/or object may be a variable" (paper, footnote 4). The
//! eight possible pattern kinds enumerated in Sect. IV-C are modelled by
//! [`PatternKind`].

use std::fmt;

use crate::term::Term;

/// An RDF triple `(subject, predicate, object)`.
///
/// Following the RDF abstract syntax the subject may be an IRI or blank
/// node and the predicate an IRI; we do not enforce this structurally
/// (generators always produce well-formed triples, and the N-Triples
/// parser validates positions).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triple {
    /// The subject term.
    pub subject: Term,
    /// The predicate term.
    pub predicate: Term,
    /// The object term.
    pub object: Term,
}

impl Triple {
    /// Creates a triple from its three components.
    pub fn new(subject: impl Into<Term>, predicate: impl Into<Term>, object: impl Into<Term>) -> Self {
        Triple { subject: subject.into(), predicate: predicate.into(), object: object.into() }
    }

    /// The serialized (N-Triples) size in bytes, including separators and
    /// the terminating ` .`: what moving the triple as text costs on the
    /// wire.
    pub fn serialized_len(&self) -> usize {
        self.subject.serialized_len() + self.predicate.serialized_len() + self.object.serialized_len() + 4
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

/// A triple lent by the store that holds it: three references into the
/// store's own dictionary, valid for as long as the store is borrowed.
/// What a scan hands its callback, so that only the rows a caller keeps
/// are ever cloned ([`TripleRef::to_triple`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TripleRef<'a> {
    /// The subject term.
    pub subject: &'a Term,
    /// The predicate term.
    pub predicate: &'a Term,
    /// The object term.
    pub object: &'a Term,
}

impl TripleRef<'_> {
    /// An owned copy of the three terms.
    pub fn to_triple(self) -> Triple {
        Triple {
            subject: self.subject.clone(),
            predicate: self.predicate.clone(),
            object: self.object.clone(),
        }
    }
}

impl<'a> From<&'a Triple> for TripleRef<'a> {
    fn from(t: &'a Triple) -> Self {
        TripleRef { subject: &t.subject, predicate: &t.predicate, object: &t.object }
    }
}

/// A variable name, without the leading `?` or `$`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Variable(String);

impl Variable {
    /// Creates a variable from a bare name (no `?`/`$` sigil).
    pub fn new(name: impl Into<String>) -> Self {
        Variable(name.into())
    }

    /// The variable name without sigil.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Variable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

/// One position of a triple pattern: either a variable or a concrete term.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TermPattern {
    /// A variable such as `?x`.
    Var(Variable),
    /// A concrete RDF term.
    Const(Term),
}

impl TermPattern {
    /// Convenience constructor for a variable position.
    pub fn var(name: &str) -> Self {
        TermPattern::Var(Variable::new(name))
    }

    /// True if this position is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, TermPattern::Var(_))
    }

    /// The variable, if this position is one.
    pub fn as_var(&self) -> Option<&Variable> {
        match self {
            TermPattern::Var(v) => Some(v),
            TermPattern::Const(_) => None,
        }
    }

    /// The concrete term, if this position is bound.
    pub fn as_const(&self) -> Option<&Term> {
        match self {
            TermPattern::Var(_) => None,
            TermPattern::Const(t) => Some(t),
        }
    }

    /// True if this position matches the given term (variables match
    /// anything).
    pub fn matches(&self, term: &Term) -> bool {
        match self {
            TermPattern::Var(_) => true,
            TermPattern::Const(t) => t == term,
        }
    }
}

impl fmt::Display for TermPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TermPattern::Var(v) => v.fmt(f),
            TermPattern::Const(t) => t.fmt(f),
        }
    }
}

impl From<Term> for TermPattern {
    fn from(value: Term) -> Self {
        TermPattern::Const(value)
    }
}

impl From<Variable> for TermPattern {
    fn from(value: Variable) -> Self {
        TermPattern::Var(value)
    }
}

/// The eight triple-pattern kinds of Sect. IV-C, named by which positions
/// are **bound** (concrete): e.g. [`PatternKind::SP`] is `(si, pi, ?o)`.
///
/// The kind determines which of the six distributed index keys (`s`, `p`,
/// `o`, `sp`, `po`, `so`) can be used to locate candidate storage nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternKind {
    /// `(?s, ?p, ?o)` — nothing bound; requires flooding / full scan.
    None,
    /// `(si, ?p, ?o)`.
    S,
    /// `(?s, pi, ?o)`.
    P,
    /// `(?s, ?p, oi)`.
    O,
    /// `(si, pi, ?o)`.
    SP,
    /// `(?s, pi, oi)`.
    PO,
    /// `(si, ?p, oi)`.
    SO,
    /// `(si, pi, oi)` — fully bound; an existence test.
    SPO,
}

impl PatternKind {
    /// Number of bound positions.
    pub fn bound_count(self) -> usize {
        match self {
            PatternKind::None => 0,
            PatternKind::S | PatternKind::P | PatternKind::O => 1,
            PatternKind::SP | PatternKind::PO | PatternKind::SO => 2,
            PatternKind::SPO => 3,
        }
    }
}

/// The pairs of positions in which a pattern repeats a variable
/// ([`TriplePattern::repeated_vars`]). Position-wise matching cannot see
/// them, so every scan checks them per triple — a store on its own
/// dictionary ids, where equal terms are equal integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepeatedVars {
    sp: bool,
    so: bool,
    po: bool,
}

impl RepeatedVars {
    /// True if any variable occurs twice.
    pub fn any(self) -> bool {
        self.sp || self.so || self.po
    }

    /// True if the three components (terms, or their ids) are equal
    /// wherever the pattern repeats a variable.
    pub fn consistent<T: PartialEq>(self, s: T, p: T, o: T) -> bool {
        (!self.sp || s == p) && (!self.so || s == o) && (!self.po || p == o)
    }
}

/// A triple pattern: three [`TermPattern`] positions.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TriplePattern {
    /// The subject position.
    pub subject: TermPattern,
    /// The predicate position.
    pub predicate: TermPattern,
    /// The object position.
    pub object: TermPattern,
}

impl TriplePattern {
    /// Creates a triple pattern from its three positions.
    pub fn new(
        subject: impl Into<TermPattern>,
        predicate: impl Into<TermPattern>,
        object: impl Into<TermPattern>,
    ) -> Self {
        TriplePattern { subject: subject.into(), predicate: predicate.into(), object: object.into() }
    }

    /// Which of the eight Sect. IV-C pattern kinds this pattern is.
    pub fn kind(&self) -> PatternKind {
        match (self.subject.is_var(), self.predicate.is_var(), self.object.is_var()) {
            (true, true, true) => PatternKind::None,
            (false, true, true) => PatternKind::S,
            (true, false, true) => PatternKind::P,
            (true, true, false) => PatternKind::O,
            (false, false, true) => PatternKind::SP,
            (true, false, false) => PatternKind::PO,
            (false, true, false) => PatternKind::SO,
            (false, false, false) => PatternKind::SPO,
        }
    }

    /// True if the triple matches this pattern position-wise, ignoring
    /// variable repetition (use the evaluator for join-consistent matching).
    pub fn matches(&self, triple: &Triple) -> bool {
        self.subject.matches(&triple.subject)
            && self.predicate.matches(&triple.predicate)
            && self.object.matches(&triple.object)
            && self.repeated_vars().consistent(&triple.subject, &triple.predicate, &triple.object)
    }

    /// Which positions repeat a variable (e.g. `?x ?p ?x`).
    pub fn repeated_vars(&self) -> RepeatedVars {
        let same = |a: &TermPattern, b: &TermPattern| match (a, b) {
            (TermPattern::Var(x), TermPattern::Var(y)) => x == y,
            _ => false,
        };
        RepeatedVars {
            sp: same(&self.subject, &self.predicate),
            so: same(&self.subject, &self.object),
            po: same(&self.predicate, &self.object),
        }
    }

    /// The set of variables occurring in the pattern — `var(t)` of Pérez
    /// et al. (Sect. IV-B). Deduplicated, in first-occurrence order.
    pub fn variables(&self) -> Vec<&Variable> {
        let mut out: Vec<&Variable> = Vec::with_capacity(3);
        for tp in [&self.subject, &self.predicate, &self.object] {
            if let TermPattern::Var(v) = tp {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }
}

impl fmt::Display for TriplePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} .", self.subject, self.predicate, self.object)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    #[test]
    fn triple_display_is_ntriples_statement() {
        let tr = Triple::new(Term::iri("http://e/s"), Term::iri("http://e/p"), Term::literal("v"));
        assert_eq!(tr.to_string(), "<http://e/s> <http://e/p> \"v\" .");
        assert_eq!(tr.serialized_len(), tr.to_string().len());
    }

    #[test]
    fn pattern_kind_classification_covers_all_eight() {
        use PatternKind::*;
        let s = || TermPattern::Const(Term::iri("http://e/s"));
        let p = || TermPattern::Const(Term::iri("http://e/p"));
        let o = || TermPattern::Const(Term::iri("http://e/o"));
        let v = |n: &str| TermPattern::var(n);
        let cases = [
            (TriplePattern::new(v("s"), v("p"), v("o")), None),
            (TriplePattern::new(s(), v("p"), v("o")), S),
            (TriplePattern::new(v("s"), p(), v("o")), P),
            (TriplePattern::new(v("s"), v("p"), o()), O),
            (TriplePattern::new(s(), p(), v("o")), SP),
            (TriplePattern::new(v("s"), p(), o()), PO),
            (TriplePattern::new(s(), v("p"), o()), SO),
            (TriplePattern::new(s(), p(), o()), SPO),
        ];
        for (pat, kind) in cases {
            assert_eq!(pat.kind(), kind, "pattern {pat}");
        }
    }

    #[test]
    fn bound_count_matches_kind() {
        assert_eq!(PatternKind::None.bound_count(), 0);
        assert_eq!(PatternKind::SO.bound_count(), 2);
        assert_eq!(PatternKind::SPO.bound_count(), 3);
    }

    #[test]
    fn pattern_matches_bound_positions() {
        let pat = TriplePattern::new(
            TermPattern::var("x"),
            Term::iri("http://e/p"),
            TermPattern::var("y"),
        );
        assert!(pat.matches(&t("http://e/a", "http://e/p", "http://e/b")));
        assert!(!pat.matches(&t("http://e/a", "http://e/q", "http://e/b")));
    }

    #[test]
    fn repeated_variable_requires_equal_terms() {
        let pat = TriplePattern::new(
            TermPattern::var("x"),
            Term::iri("http://e/p"),
            TermPattern::var("x"),
        );
        assert!(pat.matches(&t("http://e/a", "http://e/p", "http://e/a")));
        assert!(!pat.matches(&t("http://e/a", "http://e/p", "http://e/b")));
    }

    #[test]
    fn variables_are_deduplicated_in_order() {
        let pat = TriplePattern::new(
            TermPattern::var("x"),
            TermPattern::var("p"),
            TermPattern::var("x"),
        );
        let vars: Vec<&str> = pat.variables().iter().map(|v| v.as_str()).collect();
        assert_eq!(vars, ["x", "p"]);
    }
}
