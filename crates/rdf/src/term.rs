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
        if let Some(c) = first_excluded(&iri) {
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

/// How [`first_excluded`] classes a byte.
#[derive(Clone, Copy)]
enum Byte {
    Allowed,
    Excluded,
    /// Not ASCII: the start or the continuation of a wider character.
    Wide,
}

/// [`Byte`] per byte value: U+0000–U+0020 (ASCII's whitespace among
/// them) and the nine IRIREF excludes are [`Byte::Excluded`], every byte
/// from 0x80 on is [`Byte::Wide`].
const BYTE_CLASS: [Byte; 256] = {
    let mut table = [Byte::Allowed; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = match b as u8 {
            0..=0x20 | b'<' | b'>' | b'"' | b'{' | b'}' | b'|' | b'^' | b'`' | b'\\' => {
                Byte::Excluded
            }
            0x80.. => Byte::Wide,
            _ => Byte::Allowed,
        };
        b += 1;
    }
    table
};

/// The first character of `iri` an IRI may not hold (see [`Iri::new`]).
/// ASCII is checked a byte at a time through [`BYTE_CLASS`]; from the
/// first non-ASCII byte on the rest is walked by `char`, since whitespace
/// beyond ASCII (U+0085, U+00A0, U+2000, …) is excluded too.
fn first_excluded(iri: &str) -> Option<char> {
    for (i, &b) in iri.as_bytes().iter().enumerate() {
        match BYTE_CLASS[usize::from(b)] {
            Byte::Allowed => {}
            Byte::Excluded => return Some(char::from(b)),
            Byte::Wide => return iri[i..].chars().find(|&c| excluded_char(c)),
        }
    }
    None
}

/// Whether an IRI may not hold `c`.
fn excluded_char(c: char) -> bool {
    c <= ' '
        || c.is_whitespace()
        || matches!(c, '<' | '>' | '"' | '{' | '}' | '|' | '^' | '`' | '\\')
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

/// `lexical.parse::<f64>()`, bit for bit, with integers read without the
/// float parser: an optional sign and at most 19 digits fits a `u64`,
/// whose conversion to `f64` rounds to nearest, ties to even — as the
/// parser rounds the same value. Anything else (more digits, a point, an
/// exponent, `inf`, `NaN`) is the parser's.
fn parse_f64(lexical: &str) -> Option<f64> {
    let (negative, digits) = match lexical.as_bytes().first() {
        Some(b'-') => (true, &lexical[1..]),
        Some(b'+') => (false, &lexical[1..]),
        _ => (false, lexical),
    };
    if (1..=19).contains(&digits.len()) && digits.bytes().all(|b| b.is_ascii_digit()) {
        let n = digits.bytes().fold(0u64, |n, b| n * 10 + u64::from(b - b'0'));
        let x = n as f64;
        return Some(if negative { -x } else { x });
    }
    lexical.parse().ok()
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
                parse_f64(&self.lexical)
            }
            LiteralKind::Plain => parse_f64(&self.lexical),
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

    /// The check `Iri::new` ran before it read ASCII a byte at a time:
    /// the first excluded character, walking `char`s.
    fn char_walk(iri: &str) -> Result<(), TermError> {
        if iri.is_empty() {
            return Err(TermError::EmptyIri);
        }
        match iri.chars().find(|&c| {
            c <= ' '
                || c.is_whitespace()
                || matches!(c, '<' | '>' | '"' | '{' | '}' | '|' | '^' | '`' | '\\')
        }) {
            Some(c) => Err(TermError::InvalidIriChar(c)),
            None => Ok(()),
        }
    }

    /// Characters from every class the check tells apart: allowed ASCII
    /// (DEL among it), the excluded ASCII set with `\x0B`, whitespace
    /// beyond ASCII, and other non-ASCII text of two, three and four bytes.
    fn arb_iri_char() -> impl proptest::strategy::Strategy<Value = char> {
        use proptest::prelude::*;
        let excluded: Vec<char> =
            (0u8..=0x20).map(char::from).chain("<>\"{}|^`\\".chars()).collect();
        let wide_space = [
            '\u{85}', '\u{a0}', '\u{1680}', '\u{2000}', '\u{2001}', '\u{2002}', '\u{2003}',
            '\u{2004}', '\u{2005}', '\u{2006}', '\u{2007}', '\u{2008}', '\u{2009}', '\u{200a}',
            '\u{2028}', '\u{2029}', '\u{202f}', '\u{205f}', '\u{3000}',
        ];
        let wide = ['é', 'ß', '\u{200b}', '\u{feff}', '€', '中', '\u{1f600}', '\u{10ffff}'];
        prop_oneof![
            6 => (0x21u8..=0x7f).prop_map(char::from),
            1 => proptest::sample::select(&excluded[..]),
            1 => proptest::sample::select(&wide_space[..]),
            1 => proptest::sample::select(&wide[..]),
            1 => (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        #[test]
        fn the_byte_check_names_what_the_char_walk_names(
            chars in proptest::collection::vec(arb_iri_char(), 0..48),
        ) {
            let iri: String = chars.into_iter().collect();
            let checked = Iri::new(iri.as_str()).map(|_| ());
            proptest::prop_assert_eq!(checked, char_walk(&iri), "{:?}", iri);
        }

        /// The integer path of `as_f64` is the float parser's answer, bit
        /// for bit: signs, leading zeros, 15 to 20 digits and beyond
        /// `i64`, and the forms only the parser reads.
        #[test]
        fn as_f64_reads_integers_as_the_float_parser_does(
            sign in proptest::sample::select(&["", "-", "+"][..]),
            zeros in 0usize..4,
            digits in "[0-9]{0,22}",
            form in proptest::sample::select(&[
                "", "1e3", ".5", "inf", "-inf", "NaN", "1.", "-0", "+007", "00", "1_0", " 1",
                "0x10",
            ][..]),
        ) {
            let lexical = format!("{sign}{}{digits}{form}", "0".repeat(zeros));
            let plain = Literal::plain(lexical.as_str()).as_f64().map(f64::to_bits);
            let double = Iri::new_unchecked(crate::vocab::xsd::DOUBLE);
            let typed = Literal::typed(lexical.as_str(), double);
            let expected = lexical.parse::<f64>().ok().map(f64::to_bits);
            proptest::prop_assert_eq!(plain, expected, "{:?}", lexical);
            proptest::prop_assert_eq!(typed.as_f64().map(f64::to_bits), expected, "{:?}", lexical);
        }
    }

    /// Named integers: signed zeros and leading zeros, the longest
    /// exact run, halfway cases above 2^53, 2^54 and 2^63 (both paths
    /// round them to even), the 19-digit edge, and no digits at all.
    #[test]
    fn as_f64_named_integers_match_the_float_parser() {
        for lexical in [
            "-0", "+0", "0", "00", "+007", "-007", "123456789012345", "999999999999999",
            "1234567890123456", "9007199254740993", "18014398509481986", "9223372036854776832",
            "-9223372036854776833", "9999999999999999999", "12345678901234567890",
            "99999999999999999999", "-9223372036854775809", "18446744073709551616", "-", "+", "",
        ] {
            let got = Literal::plain(lexical).as_f64().map(f64::to_bits);
            assert_eq!(got, lexical.parse::<f64>().ok().map(f64::to_bits), "{lexical:?}");
        }
    }
}
