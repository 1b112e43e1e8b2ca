//! N-Triples parsing and serialization.
//!
//! N-Triples is the line-oriented RDF serialization used to move triples
//! between storage nodes. The grammar implemented here is the W3C
//! N-Triples subset sufficient for the system: IRIs in angle brackets,
//! blank nodes, and quoted literals with `\`-escapes, language tags and
//! `^^` datatypes. Comments (`#`) and blank lines are skipped.

use std::fmt;

use crate::term::{BlankNode, Iri, Literal, Term};
use crate::triple::Triple;

/// A parse error with 1-based line number context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending statement.
    pub line: usize,
    /// Human-readable description of the problem.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N-Triples parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses an entire N-Triples document, returning the triples in document
/// order.
pub fn parse_document(input: &str) -> Result<Vec<Triple>, ParseError> {
    parse_statements(input).map(|r| r.map(|(_, t)| t)).collect()
}

/// A streaming parser over the statements of an N-Triples document:
/// yields `(line_number, triple)` per statement without collecting the
/// document, skipping comments and blank lines. Garbage lines surface as
/// a line-numbered [`ParseError`] — never silently dropped.
///
/// The iterator is the bulk-ingest building block: chunked loaders feed
/// each chunk through [`parse_statements_from`] with the chunk's first
/// absolute line number, so errors report positions in the original file.
pub fn parse_statements(input: &str) -> Statements<'_> {
    parse_statements_from(input, 1)
}

/// [`parse_statements`] with an explicit 1-based number for the first
/// line of `input` (for parsing one chunk of a larger document).
pub fn parse_statements_from(input: &str, first_line: usize) -> Statements<'_> {
    Statements { lines: input.lines(), next_line: first_line }
}

/// Iterator returned by [`parse_statements`].
#[derive(Debug, Clone)]
pub struct Statements<'a> {
    lines: std::str::Lines<'a>,
    next_line: usize,
}

impl Iterator for Statements<'_> {
    type Item = Result<(usize, Triple), ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let line = self.lines.next()?;
            let line_no = self.next_line;
            self.next_line += 1;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            return Some(parse_line(trimmed, line_no).map(|t| (line_no, t)));
        }
    }
}

/// Parses a single RDF term in N-Triples syntax (an IRI in angle
/// brackets, a blank node, or a literal). The whole string must be
/// consumed. Used by `rdfmesh-store` to round-trip dictionary entries.
pub fn parse_term_str(text: &str) -> Result<Term, ParseError> {
    let mut p = LineParser { bytes: text.as_bytes(), pos: 0, line: 1, src: text };
    let term = p.parse_term()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing content after term"));
    }
    Ok(term)
}

/// Parses a single N-Triples statement (one line, `.`-terminated).
pub fn parse_line(line: &str, line_no: usize) -> Result<Triple, ParseError> {
    let mut p = LineParser { bytes: line.as_bytes(), pos: 0, line: line_no, src: line };
    let subject = p.parse_term()?;
    p.skip_ws();
    let predicate = p.parse_term()?;
    p.skip_ws();
    let object = p.parse_term()?;
    p.skip_ws();
    if !p.eat(b'.') {
        return Err(p.err("expected '.' terminating the statement"));
    }
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing content after '.'"));
    }
    match (&subject, &predicate) {
        (Term::Literal(_), _) => Err(p.err("literal not allowed in subject position")),
        (_, Term::Literal(_)) | (_, Term::Blank(_)) => {
            Err(p.err("predicate must be an IRI"))
        }
        _ => Ok(Triple { subject, predicate, object }),
    }
}

struct LineParser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    src: &'a str,
}

impl<'a> LineParser<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError { line: self.line, message: format!("{} (in {:?})", message.into(), self.src) }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
            self.pos += 1;
        }
    }

    fn parse_term(&mut self) -> Result<Term, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'<') => self.parse_iri().map(Term::Iri),
            Some(b'_') => self.parse_blank().map(Term::Blank),
            Some(b'"') => self.parse_literal().map(Term::Literal),
            Some(c) => Err(self.err(format!("unexpected character {:?} starting a term", c as char))),
            None => Err(self.err("unexpected end of line, expected a term")),
        }
    }

    // The dispatching caller guarantees the opening delimiter, but it
    // must still be *consumed* unconditionally — `debug_assert!(eat())`
    // would compile the consumption out of release builds.

    fn parse_iri(&mut self) -> Result<Iri, ParseError> {
        let opened = self.eat(b'<');
        debug_assert!(opened);
        let text = self.unescape(b'>', "unterminated IRI", "dangling escape in IRI", |p, esc| {
            match esc {
                // The N-Triples grammar allows only UCHAR (\uXXXX /
                // \UXXXXXXXX) escapes inside IRIREF.
                b'u' | b'U' => p.unicode_escape(esc),
                other => Err(p.err(format!(
                    "only \\u/\\U escapes are allowed in IRIs, found \\{}",
                    other as char
                ))),
            }
        })?;
        Iri::new(text).map_err(|e| self.err(e.to_string()))
    }

    /// Reads through the closing `stop` byte, decoding each escape with
    /// `escape` (handed the byte after the `\`). The text between
    /// escapes is copied a run at a time, so an escape-free term is one
    /// exact allocation.
    fn unescape(
        &mut self,
        stop: u8,
        unterminated: &str,
        dangling: &str,
        escape: impl Fn(&mut Self, u8) -> Result<char, ParseError>,
    ) -> Result<String, ParseError> {
        let mut out = String::new();
        loop {
            let start = self.pos;
            let Some(len) = self.bytes[start..].iter().position(|&b| b == stop || b == b'\\')
            else {
                return Err(self.err(unterminated));
            };
            // `stop` and `\` are ASCII, so the run ends on a character
            // boundary.
            let run = &self.src[start..start + len];
            self.pos += len + 1;
            if self.bytes[start + len] == stop {
                // Every escape decodes to a character, so an empty `out`
                // means none was met.
                if out.is_empty() {
                    return Ok(run.to_owned());
                }
                out.push_str(run);
                return Ok(out);
            }
            out.push_str(run);
            let esc = self.peek().ok_or_else(|| self.err(dangling))?;
            self.pos += 1;
            out.push(escape(self, esc)?);
        }
    }

    /// Decodes the digits of a `\uXXXX` / `\UXXXXXXXX` escape; `esc` is
    /// the already-consumed `u`/`U`. Rejects invalid hex, surrogate code
    /// points and values beyond U+10FFFF.
    fn unicode_escape(&mut self, esc: u8) -> Result<char, ParseError> {
        let digits = if esc == b'u' { 4 } else { 8 };
        let end = self.pos + digits;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        // Checked as bytes: a multi-byte character among the digits is
        // not hex (slicing the text first would split it and panic).
        if !self.bytes[self.pos..end].iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err("invalid hex in \\u escape"));
        }
        let hex = &self.src[self.pos..end];
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid hex in \\u escape"))?;
        let ch =
            char::from_u32(cp).ok_or_else(|| self.err("invalid code point in \\u escape"))?;
        self.pos = end;
        Ok(ch)
    }

    fn parse_blank(&mut self) -> Result<BlankNode, ParseError> {
        let opened = self.eat(b'_');
        debug_assert!(opened);
        if !self.eat(b':') {
            return Err(self.err("expected ':' after '_' in blank node"));
        }
        match self.peek() {
            Some(c) if c.is_ascii_alphanumeric() || c == b'_' => {}
            _ => return Err(self.err("blank node label must start with a letter, digit or '_'")),
        }
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        // A label may contain dots but not end with one (the grammar's
        // PN_CHARS tail rule); trailing dots belong to the statement.
        while self.pos > start && self.bytes[self.pos - 1] == b'.' {
            self.pos -= 1;
        }
        BlankNode::new(&self.src[start..self.pos]).map_err(|e| self.err(e.to_string()))
    }

    fn parse_literal(&mut self) -> Result<Literal, ParseError> {
        let opened = self.eat(b'"');
        debug_assert!(opened);
        let lexical = self.unescape(b'"', "unterminated literal", "dangling escape", |p, esc| {
            match esc {
                b'"' => Ok('"'),
                b'\'' => Ok('\''),
                b'\\' => Ok('\\'),
                b'n' => Ok('\n'),
                b'r' => Ok('\r'),
                b't' => Ok('\t'),
                b'b' => Ok('\u{0008}'),
                b'f' => Ok('\u{000C}'),
                b'u' | b'U' => p.unicode_escape(esc),
                other => Err(p.err(format!("unknown escape \\{}", other as char))),
            }
        })?;
        // Optional language tag or datatype.
        match self.peek() {
            Some(b'@') => {
                self.pos += 1;
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == b'-' {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                if self.pos == start {
                    return Err(self.err("empty language tag"));
                }
                Ok(Literal::lang(lexical, &self.src[start..self.pos]))
            }
            Some(b'^') => {
                self.pos += 1;
                if !self.eat(b'^') {
                    return Err(self.err("expected '^^' before datatype"));
                }
                if self.peek() != Some(b'<') {
                    return Err(self.err("expected IRI after '^^'"));
                }
                let dt = self.parse_iri()?;
                Ok(Literal::typed(lexical, dt))
            }
            _ => Ok(Literal::plain(lexical)),
        }
    }
}

/// Serializes triples as an N-Triples document (one statement per line).
pub fn write_document(triples: &[Triple]) -> String {
    let mut out = String::new();
    for t in triples {
        use std::fmt::Write as _;
        let _ = writeln!(out, "{t}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;

    #[test]
    fn parses_simple_statement() {
        let t = parse_line("<http://e/s> <http://e/p> <http://e/o> .", 1).unwrap();
        assert_eq!(t.subject, Term::iri("http://e/s"));
        assert_eq!(t.predicate, Term::iri("http://e/p"));
        assert_eq!(t.object, Term::iri("http://e/o"));
    }

    #[test]
    fn parses_literals_with_lang_and_datatype() {
        let t = parse_line("<http://e/s> <http://e/p> \"chat\"@fr .", 1).unwrap();
        assert_eq!(t.object.as_literal().unwrap().language(), Some("fr"));
        let t = parse_line(
            "<http://e/s> <http://e/p> \"42\"^^<http://www.w3.org/2001/XMLSchema#integer> .",
            1,
        )
        .unwrap();
        assert_eq!(t.object.as_literal().unwrap().as_i64(), Some(42));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let t = parse_line(r#"<http://e/s> <http://e/p> "a\"b\\c\ndA" ."#, 1).unwrap();
        assert_eq!(t.object.as_literal().unwrap().lexical(), "a\"b\\c\ndA");
    }

    #[test]
    fn parses_blank_nodes() {
        let t = parse_line("_:b1 <http://e/p> _:b2 .", 1).unwrap();
        assert!(t.subject.is_blank());
        assert!(t.object.is_blank());
    }

    #[test]
    fn rejects_literal_subject_and_non_iri_predicate() {
        assert!(parse_line("\"x\" <http://e/p> <http://e/o> .", 1).is_err());
        assert!(parse_line("<http://e/s> \"p\" <http://e/o> .", 1).is_err());
        assert!(parse_line("<http://e/s> _:b <http://e/o> .", 1).is_err());
    }

    #[test]
    fn rejects_malformed_statements() {
        assert!(parse_line("<http://e/s> <http://e/p> <http://e/o>", 1).is_err()); // no dot
        assert!(parse_line("<http://e/s> <http://e/p> .", 1).is_err()); // two terms
        assert!(parse_line("<http://e/s> <http://e/p> <http://e/o> . extra", 1).is_err());
        assert!(parse_line("<http://e/s <http://e/p> <http://e/o> .", 2).is_err()); // bad iri
    }

    #[test]
    fn document_round_trip() {
        let doc = "\
# a comment
<http://e/s> <http://e/p> \"v\\n\"@en .

<http://e/s2> <http://e/p> \"7\"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:b <http://e/p> <http://e/o> .
";
        let triples = parse_document(doc).unwrap();
        assert_eq!(triples.len(), 3);
        let written = write_document(&triples);
        let reparsed = parse_document(&written).unwrap();
        assert_eq!(triples, reparsed);
    }

    #[test]
    fn parse_error_reports_line_number() {
        let doc = "<http://e/s> <http://e/p> <http://e/o> .\nbogus line\n";
        let err = parse_document(doc).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn streaming_statements_carry_line_numbers() {
        let doc = "# header\n\n<http://e/a> <http://e/p> <http://e/b> .\n\n<http://e/c> <http://e/p> <http://e/d> .\n";
        let stmts: Vec<(usize, Triple)> =
            parse_statements(doc).collect::<Result<_, _>>().unwrap();
        assert_eq!(stmts.len(), 2);
        assert_eq!(stmts[0].0, 3);
        assert_eq!(stmts[1].0, 5);
        // Chunked parsing with an absolute offset keeps the numbering.
        let chunk: Vec<(usize, Triple)> =
            parse_statements_from("<http://e/a> <http://e/p> <http://e/b> .", 41)
                .collect::<Result<_, _>>()
                .unwrap();
        assert_eq!(chunk[0].0, 41);
    }

    #[test]
    fn streaming_statements_surface_garbage_lines() {
        let doc = "<http://e/a> <http://e/p> <http://e/b> .\ngarbage\n";
        let mut it = parse_statements(doc);
        assert!(it.next().unwrap().is_ok());
        let err = it.next().unwrap().unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn extended_echar_escapes_parse() {
        let t = parse_line(r#"<http://e/s> <http://e/p> "a\b\f\'z" ."#, 1).unwrap();
        assert_eq!(t.object.as_literal().unwrap().lexical(), "a\u{0008}\u{000C}'z");
    }

    #[test]
    fn iri_unicode_escapes_decode() {
        let t = parse_line(r#"<http://e/s\u002Fx> <http://e/p> <http://e/\U0000006F> ."#, 1)
            .unwrap();
        assert_eq!(t.subject, Term::iri("http://e/s/x"));
        assert_eq!(t.object, Term::iri("http://e/o"));
        // Only UCHAR is legal inside an IRI.
        assert!(parse_line(r#"<http://e/s\n> <http://e/p> <http://e/o> ."#, 1).is_err());
    }

    #[test]
    fn an_escape_decoding_to_an_excluded_iri_character_is_refused() {
        // `\u005C` once loaded as `http://e/a\b`, which prints as an
        // IRI no reader takes.
        for esc in [r"\u005C", r"\u0000", r"\u0020", r"\U0000003E"] {
            let line = format!("<http://e/s> <http://e/p> <http://e/a{esc}b> .");
            let err = parse_line(&line, 7).unwrap_err();
            assert_eq!(err.line, 7);
            assert!(err.message.starts_with("invalid character"), "{err}");
        }
    }

    #[test]
    fn surrogate_and_overflow_code_points_are_rejected() {
        assert!(parse_line(r#"<http://e/s> <http://e/p> "\uD800" ."#, 1).is_err());
        assert!(parse_line(r#"<http://e/s> <http://e/p> "\U00110000" ."#, 1).is_err());
        assert!(parse_line(r#"<http://e/s> <http://e/p> "\u12G4" ."#, 1).is_err());
    }

    #[test]
    fn blank_node_label_rules() {
        // A label may contain dots but not end with one: `_:b.` is the
        // label `b` followed by the statement terminator.
        let t = parse_line("<http://e/s> <http://e/p> _:b. .", 1);
        assert!(t.is_err(), "two terminators should not parse");
        let t = parse_line("<http://e/s> <http://e/p> _:b.c .", 1).unwrap();
        assert_eq!(t.object, Term::blank("b.c"));
        let t = parse_line("<http://e/s> <http://e/p> _:b.", 1).unwrap();
        assert_eq!(t.object, Term::blank("b"));
        assert!(parse_line("<http://e/s> <http://e/p> _:-x .", 1).is_err());
        assert!(parse_line("<http://e/s> <http://e/p> _: .", 1).is_err());
        let t = parse_line("<http://e/s> <http://e/p> _:0dig .", 1).unwrap();
        assert_eq!(t.object, Term::blank("0dig"));
    }

    #[test]
    fn parse_term_str_round_trips_every_term_kind() {
        for text in [
            "<http://e/x>",
            "_:blank1",
            "\"plain\"",
            "\"chat\"@fr",
            "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>",
            "\"quote \\\" slash \\\\ nl \\n\"",
        ] {
            let term = parse_term_str(text).unwrap();
            assert_eq!(parse_term_str(&term.to_string()).unwrap(), term, "{text}");
        }
        assert!(parse_term_str("<http://e/x> junk").is_err());
        assert!(parse_term_str("").is_err());
    }
}
