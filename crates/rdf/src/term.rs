//! RDF terms: IRIs, literals and blank nodes.
//!
//! The term model follows the RDF 1.0 abstract syntax (Klyne & Carroll,
//! W3C Recommendation 2004) that the paper builds on: a term is an IRI,
//! a literal (plain, language-tagged or typed) or a blank node.

use std::borrow::Cow;
use std::fmt;

/// An IRI (Internationalized Resource Identifier) reference.
///
/// Stored in full, without angle brackets. Equality is codepoint equality;
/// no normalization is performed (matching the behaviour of N-Triples).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Iri(String);

impl Iri {
    /// Creates an IRI from the given string.
    ///
    /// Performs the well-formedness check N-Triples round-tripping needs:
    /// the string must hold none of the characters IRIREF excludes
    /// (U+0000–U+0020, `<`, `>`, `"`, `{`, `}`, `|`, `^`, `` ` ``, `\`)
    /// and no other whitespace, so that [`Display`](fmt::Display) writes
    /// an IRI every reader takes back.
    pub fn new(iri: impl Into<String>) -> Result<Self, TermError> {
        let iri = iri.into();
        if iri.is_empty() {
            return Err(TermError::EmptyIri);
        }
        if let Some(c) = iri.chars().find(|&c| {
            c <= ' '
                || c.is_whitespace()
                || matches!(c, '<' | '>' | '"' | '{' | '}' | '|' | '^' | '`' | '\\')
        }) {
            return Err(TermError::InvalidIriChar(c));
        }
        Ok(Iri(iri))
    }

    /// Creates an IRI without validation.
    ///
    /// Intended for compile-time-known vocabulary constants.
    pub fn new_unchecked(iri: impl Into<String>) -> Self {
        Iri(iri.into())
    }

    /// The IRI string, without angle brackets.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Iri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}>", self.0)
    }
}

impl AsRef<str> for Iri {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// A blank node, identified by a local label.
///
/// Blank-node labels are scoped to the document or store that produced
/// them; two blank nodes with the same label in different graphs are not
/// necessarily the same node.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlankNode(String);

impl BlankNode {
    /// Creates a blank node with the given label (without the `_:` prefix):
    /// ASCII letters, digits, `_`, `-` and `.`, not starting with `-` or
    /// `.` and not ending with `.`, the labels N-Triples reads back.
    pub fn new(label: impl Into<String>) -> Result<Self, TermError> {
        let label = label.into();
        if label.is_empty() {
            return Err(TermError::EmptyBlankNodeLabel);
        }
        let inner = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.');
        if !label.chars().all(inner) || label.starts_with(['-', '.']) || label.ends_with('.') {
            return Err(TermError::InvalidBlankNodeLabel(label));
        }
        Ok(BlankNode(label))
    }

    /// Creates a blank node without validation.
    pub fn new_unchecked(label: impl Into<String>) -> Self {
        BlankNode(label.into())
    }

    /// The label, without the `_:` prefix.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for BlankNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "_:{}", self.0)
    }
}

/// A literal: a lexical form plus an optional language tag or datatype IRI.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Literal {
    lexical: String,
    kind: LiteralKind,
}

/// Distinguishes plain, language-tagged and typed literals.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LiteralKind {
    /// A plain literal with no language tag or datatype.
    Plain,
    /// A language-tagged literal, e.g. `"chat"@fr`. The tag is stored
    /// lower-cased (language tags are case-insensitive).
    LanguageTagged(String),
    /// A typed literal, e.g. `"42"^^<http://www.w3.org/2001/XMLSchema#integer>`.
    Typed(Iri),
}

impl Literal {
    /// A plain (untyped, untagged) literal.
    pub fn plain(lexical: impl Into<String>) -> Self {
        Literal { lexical: lexical.into(), kind: LiteralKind::Plain }
    }

    /// A language-tagged literal. The tag is normalized to lowercase.
    pub fn lang(lexical: impl Into<String>, tag: impl Into<String>) -> Self {
        let mut tag = tag.into();
        tag.make_ascii_lowercase();
        Literal { lexical: lexical.into(), kind: LiteralKind::LanguageTagged(tag) }
    }

    /// A typed literal with the given datatype IRI.
    pub fn typed(lexical: impl Into<String>, datatype: Iri) -> Self {
        Literal { lexical: lexical.into(), kind: LiteralKind::Typed(datatype) }
    }

    /// An `xsd:integer` literal.
    pub fn integer(value: i64) -> Self {
        Literal::typed(value.to_string(), Iri::new_unchecked(crate::vocab::xsd::INTEGER))
    }

    /// An `xsd:decimal`-style literal from a float (rendered as `xsd:double`).
    pub fn double(value: f64) -> Self {
        Literal::typed(value.to_string(), Iri::new_unchecked(crate::vocab::xsd::DOUBLE))
    }

    /// An `xsd:boolean` literal.
    pub fn boolean(value: bool) -> Self {
        Literal::typed(value.to_string(), Iri::new_unchecked(crate::vocab::xsd::BOOLEAN))
    }

    /// The lexical form.
    pub fn lexical(&self) -> &str {
        &self.lexical
    }

    /// The language tag, if any.
    pub fn language(&self) -> Option<&str> {
        match &self.kind {
            LiteralKind::LanguageTagged(t) => Some(t),
            _ => None,
        }
    }

    /// The datatype IRI, if this is a typed literal.
    pub fn datatype(&self) -> Option<&Iri> {
        match &self.kind {
            LiteralKind::Typed(d) => Some(d),
            _ => None,
        }
    }

    /// The literal kind (plain / language-tagged / typed).
    pub fn kind(&self) -> &LiteralKind {
        &self.kind
    }

    /// Attempts a numeric interpretation of this literal.
    ///
    /// Returns `Some` for literals typed with an XSD numeric datatype whose
    /// lexical form parses, and also for plain literals that parse as a
    /// number (a pragmatic extension used by range workloads).
    pub fn as_f64(&self) -> Option<f64> {
        match &self.kind {
            LiteralKind::Typed(dt) if crate::vocab::xsd::is_numeric(dt.as_str()) => {
                self.lexical.parse().ok()
            }
            LiteralKind::Plain => self.lexical.parse().ok(),
            _ => None,
        }
    }

    /// Attempts an integer interpretation (see [`Literal::as_f64`]).
    pub fn as_i64(&self) -> Option<i64> {
        match &self.kind {
            LiteralKind::Typed(dt) if crate::vocab::xsd::is_numeric(dt.as_str()) => {
                self.lexical.parse().ok()
            }
            LiteralKind::Plain => self.lexical.parse().ok(),
            _ => None,
        }
    }

    /// Attempts a boolean interpretation per `xsd:boolean`.
    pub fn as_bool(&self) -> Option<bool> {
        match self.lexical.as_str() {
            "true" | "1" => Some(true),
            "false" | "0" => Some(false),
            _ => None,
        }
    }
}

/// Escapes a string for inclusion in an N-Triples quoted literal.
pub fn escape_literal(s: &str) -> Cow<'_, str> {
    if !s.chars().any(|c| matches!(c, '"' | '\\' | '\n' | '\r' | '\t')) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    Cow::Owned(out)
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}\"", escape_literal(&self.lexical))?;
        match &self.kind {
            LiteralKind::Plain => Ok(()),
            LiteralKind::LanguageTagged(tag) => write!(f, "@{tag}"),
            LiteralKind::Typed(dt) => write!(f, "^^{dt}"),
        }
    }
}

/// An RDF term: the union of IRIs, literals and blank nodes.
///
/// This is the set `U` of the paper's Sect. IV-A ("a set of RDF terms
/// including all IRIs, RDF literals, and blank nodes").
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// An IRI reference.
    Iri(Iri),
    /// A literal value.
    Literal(Literal),
    /// A blank node.
    Blank(BlankNode),
}

impl Term {
    /// Convenience constructor for an IRI term (panics on invalid input;
    /// use [`Iri::new`] for fallible construction).
    pub fn iri(iri: &str) -> Self {
        Term::Iri(Iri::new(iri).expect("invalid IRI"))
    }

    /// Convenience constructor for a plain literal term.
    pub fn literal(lexical: &str) -> Self {
        Term::Literal(Literal::plain(lexical))
    }

    /// Convenience constructor for a blank node term.
    pub fn blank(label: &str) -> Self {
        Term::Blank(BlankNode::new(label).expect("invalid blank node label"))
    }

    /// True if this term is an IRI.
    pub fn is_iri(&self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// True if this term is a literal.
    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// True if this term is a blank node.
    pub fn is_blank(&self) -> bool {
        matches!(self, Term::Blank(_))
    }

    /// The IRI, if this term is one.
    pub fn as_iri(&self) -> Option<&Iri> {
        match self {
            Term::Iri(i) => Some(i),
            _ => None,
        }
    }

    /// The literal, if this term is one.
    pub fn as_literal(&self) -> Option<&Literal> {
        match self {
            Term::Literal(l) => Some(l),
            _ => None,
        }
    }

    /// The serialized N-Triples length in bytes: what a triple moved as
    /// text costs on the wire (the RDFPeers baseline's publications and
    /// hand-overs). Sub-queries and solutions are charged at their frame
    /// length instead.
    pub fn serialized_len(&self) -> usize {
        // Display allocates; measure via a counting writer to stay cheap.
        struct Counter(usize);
        impl fmt::Write for Counter {
            fn write_str(&mut self, s: &str) -> fmt::Result {
                self.0 += s.len();
                Ok(())
            }
        }
        use fmt::Write as _;
        let mut c = Counter(0);
        let _ = write!(c, "{self}");
        c.0
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Iri(i) => i.fmt(f),
            Term::Literal(l) => l.fmt(f),
            Term::Blank(b) => b.fmt(f),
        }
    }
}

impl From<Iri> for Term {
    fn from(value: Iri) -> Self {
        Term::Iri(value)
    }
}

impl From<Literal> for Term {
    fn from(value: Literal) -> Self {
        Term::Literal(value)
    }
}

impl From<BlankNode> for Term {
    fn from(value: BlankNode) -> Self {
        Term::Blank(value)
    }
}

/// Errors raised while constructing terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TermError {
    /// The IRI string was empty.
    EmptyIri,
    /// The IRI contained a character not allowed in N-Triples IRIs.
    InvalidIriChar(char),
    /// The blank node label was empty.
    EmptyBlankNodeLabel,
    /// The blank node label contained invalid characters.
    InvalidBlankNodeLabel(String),
}

impl fmt::Display for TermError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TermError::EmptyIri => write!(f, "empty IRI"),
            TermError::InvalidIriChar(c) => write!(f, "invalid character {c:?} in IRI"),
            TermError::EmptyBlankNodeLabel => write!(f, "empty blank node label"),
            TermError::InvalidBlankNodeLabel(l) => write!(f, "invalid blank node label {l:?}"),
        }
    }
}

impl std::error::Error for TermError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iri_display_wraps_in_angle_brackets() {
        let iri = Iri::new("http://example.org/a").unwrap();
        assert_eq!(iri.to_string(), "<http://example.org/a>");
        assert_eq!(iri.as_str(), "http://example.org/a");
    }

    #[test]
    fn iri_rejects_whitespace_and_delimiters() {
        assert!(Iri::new("http://example.org/a b").is_err());
        assert!(Iri::new("http://example.org/<x>").is_err());
        assert!(Iri::new("").is_err());
    }

    #[test]
    fn iri_rejects_the_rest_of_the_iriref_excluded_set() {
        // `\` and U+0000–U+0020: an IRI holding one prints as no
        // N-Triples reader takes back.
        for c in ('\u{0}'..=' ').chain(['\\', '\u{85}', '\u{a0}', '\u{2028}']) {
            let text = format!("http://e/a{c}b");
            assert_eq!(Iri::new(text.as_str()), Err(TermError::InvalidIriChar(c)), "{text:?}");
        }
        assert!(Iri::new("http://e/\u{7f}/é/%5C").is_ok());
    }

    #[test]
    fn blank_node_display() {
        let b = BlankNode::new("b1").unwrap();
        assert_eq!(b.to_string(), "_:b1");
    }

    #[test]
    fn blank_node_rejects_bad_labels() {
        assert!(BlankNode::new("").is_err());
        assert!(BlankNode::new("a b").is_err());
        // N-Triples reads none of these back as the same label.
        for label in ["-x", ".x", "x.", "."] {
            assert!(BlankNode::new(label).is_err(), "{label}");
        }
        for label in ["_x", "0", "a.b-c", "x-"] {
            assert!(BlankNode::new(label).is_ok(), "{label}");
        }
    }

    #[test]
    fn plain_literal_display() {
        assert_eq!(Literal::plain("Smith").to_string(), "\"Smith\"");
    }

    #[test]
    fn lang_literal_display_and_lowercase_tag() {
        let l = Literal::lang("chat", "FR");
        assert_eq!(l.to_string(), "\"chat\"@fr");
        assert_eq!(l.language(), Some("fr"));
    }

    #[test]
    fn typed_literal_display() {
        let l = Literal::integer(42);
        assert_eq!(l.to_string(), "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>");
        assert_eq!(l.as_i64(), Some(42));
        assert_eq!(l.as_f64(), Some(42.0));
    }

    #[test]
    fn literal_escaping_round_trip_characters() {
        let l = Literal::plain("a\"b\\c\nd\te\r");
        assert_eq!(l.to_string(), "\"a\\\"b\\\\c\\nd\\te\\r\"");
    }

    #[test]
    fn boolean_literal_interpretation() {
        assert_eq!(Literal::boolean(true).as_bool(), Some(true));
        assert_eq!(Literal::plain("0").as_bool(), Some(false));
        assert_eq!(Literal::plain("yes").as_bool(), None);
    }

    #[test]
    fn plain_literal_numeric_interpretation() {
        assert_eq!(Literal::plain("3.5").as_f64(), Some(3.5));
        assert_eq!(Literal::lang("3.5", "en").as_f64(), None);
    }

    #[test]
    fn term_predicates() {
        assert!(Term::iri("http://e.org/x").is_iri());
        assert!(Term::literal("x").is_literal());
        assert!(Term::blank("b").is_blank());
    }

    #[test]
    fn serialized_len_matches_display() {
        for t in [
            Term::iri("http://example.org/person/1"),
            Term::literal("Smith"),
            Term::Literal(Literal::lang("hola", "es")),
            Term::Literal(Literal::integer(7)),
            Term::blank("n1"),
        ] {
            assert_eq!(t.serialized_len(), t.to_string().len());
        }
    }

    #[test]
    fn term_ordering_is_total_and_stable() {
        let mut v = vec![Term::literal("b"), Term::iri("http://a"), Term::blank("z")];
        v.sort();
        let mut w = v.clone();
        w.sort();
        assert_eq!(v, w);
    }
}
