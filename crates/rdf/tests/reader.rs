//! The N-Triples reader against the character-at-a-time reader it
//! replaced: over generated statements that mix plain and escaped IRIs
//! and literals, excluded IRI characters and unterminated terms, both
//! return the same `Triple` or the same `ParseError`. And an escape-free
//! statement costs one allocation per term.

use proptest::prelude::*;
use proptest::sample::select;
use rdfmesh_rdf::ntriples::{parse_line, ParseError};

/// The reader as it was: every character pushed onto a growing `String`.
/// The oracle.
mod oracle {
    use rdfmesh_rdf::ntriples::ParseError;
    use rdfmesh_rdf::{BlankNode, Iri, Literal, Term, Triple};

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

    impl LineParser<'_> {
        fn err(&self, message: impl Into<String>) -> ParseError {
            ParseError {
                line: self.line,
                message: format!("{} (in {:?})", message.into(), self.src),
            }
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
                Some(c) => {
                    Err(self.err(format!("unexpected character {:?} starting a term", c as char)))
                }
                None => Err(self.err("unexpected end of line, expected a term")),
            }
        }

        fn parse_iri(&mut self) -> Result<Iri, ParseError> {
            self.eat(b'<');
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated IRI")),
                    Some(b'>') => {
                        self.pos += 1;
                        return Iri::new(out).map_err(|e| self.err(e.to_string()));
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let esc = self.peek().ok_or_else(|| self.err("dangling escape in IRI"))?;
                        self.pos += 1;
                        match esc {
                            b'u' | b'U' => out.push(self.unicode_escape(esc)?),
                            other => {
                                return Err(self.err(format!(
                                    "only \\u/\\U escapes are allowed in IRIs, found \\{}",
                                    other as char
                                )))
                            }
                        }
                    }
                    Some(_) => {
                        let ch = self.src[self.pos..].chars().next().expect("non-empty");
                        out.push(ch);
                        self.pos += ch.len_utf8();
                    }
                }
            }
        }

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
            let cp =
                u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid hex in \\u escape"))?;
            let ch =
                char::from_u32(cp).ok_or_else(|| self.err("invalid code point in \\u escape"))?;
            self.pos = end;
            Ok(ch)
        }

        fn parse_blank(&mut self) -> Result<BlankNode, ParseError> {
            self.eat(b'_');
            if !self.eat(b':') {
                return Err(self.err("expected ':' after '_' in blank node"));
            }
            match self.peek() {
                Some(c) if c.is_ascii_alphanumeric() || c == b'_' => {}
                _ => {
                    return Err(
                        self.err("blank node label must start with a letter, digit or '_'")
                    )
                }
            }
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c.is_ascii_alphanumeric() || c == b'_' || c == b'-' || c == b'.' {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            while self.pos > start && self.bytes[self.pos - 1] == b'.' {
                self.pos -= 1;
            }
            BlankNode::new(&self.src[start..self.pos]).map_err(|e| self.err(e.to_string()))
        }

        fn parse_literal(&mut self) -> Result<Literal, ParseError> {
            self.eat(b'"');
            let mut lexical = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated literal")),
                    Some(b'"') => {
                        self.pos += 1;
                        break;
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                        self.pos += 1;
                        match esc {
                            b'"' => lexical.push('"'),
                            b'\'' => lexical.push('\''),
                            b'\\' => lexical.push('\\'),
                            b'n' => lexical.push('\n'),
                            b'r' => lexical.push('\r'),
                            b't' => lexical.push('\t'),
                            b'b' => lexical.push('\u{0008}'),
                            b'f' => lexical.push('\u{000C}'),
                            b'u' | b'U' => lexical.push(self.unicode_escape(esc)?),
                            other => {
                                return Err(self.err(format!("unknown escape \\{}", other as char)))
                            }
                        }
                    }
                    Some(_) => {
                        let ch = self.src[self.pos..].chars().next().expect("non-empty");
                        lexical.push(ch);
                        self.pos += ch.len_utf8();
                    }
                }
            }
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
}

/// Strings of 0-4 pieces.
fn pieces(piece: impl Strategy<Value = String>) -> impl Strategy<Value = String> {
    prop::collection::vec(piece, 0..5).prop_map(|ps| ps.concat())
}

/// What goes between `<` and `>`: mostly well-formed (plain runs,
/// ASCII and not, and good escapes), sometimes hostile too (escapes of
/// excluded characters, bad escapes, raw excluded characters, a lone
/// `\`).
fn iri_body() -> impl Strategy<Value = String> {
    let good = || {
        prop_oneof![
            3 => "[a-z0-9/:.#%-]{1,8}",
            1 => select(&[r"\u0041", r"\u00E9", r"\U0001F600", "é", "😀"]).prop_map(String::from),
        ]
    };
    let hostile = prop_oneof![
        3 => good(),
        1 => "\\PC{1,3}",
        2 => select(&[
            r"\u005C", r"\u0020", r"\u0000", r"\u003E", r"\U00110000", r"\uD800", r"\u12G4",
            r"\u123é", r"\u12", r"\n", r"\", " ", "\t", "{", "|", "^", "`", "\"",
        ])
        .prop_map(String::from),
    ];
    prop_oneof![3 => pieces(good()), 1 => pieces(hostile)]
}

/// What goes between a literal's quotes, well-formed or hostile alike.
fn literal_body() -> impl Strategy<Value = String> {
    let good = || {
        prop_oneof![
            3 => "[a-zA-Z0-9 <>.@^#-]{1,8}",
            2 => select(&[
                r#"\""#, r"\\", r"\n", r"\r", r"\t", r"\b", r"\f", r"\'", r"\u00E9",
                r"\U0001F600", "é", "😀", "\t",
            ])
            .prop_map(String::from),
        ]
    };
    let hostile = prop_oneof![
        3 => good(),
        1 => "\\PC{1,3}",
        1 => select(&[r"\uDFFF", r"\U00110000", r"\u00G0", r"\u00", r"\q", r"\", "\""])
            .prop_map(String::from),
    ];
    prop_oneof![3 => pieces(good()), 1 => pieces(hostile)]
}

/// An IRI term, closed or (rarely) not.
fn iri() -> impl Strategy<Value = String> {
    (iri_body(), select(&[">", ">", ">", ">", ""]))
        .prop_map(|(body, close)| format!("<{body}{close}"))
}

fn term() -> impl Strategy<Value = String> {
    let literal = (
        literal_body(),
        select(&["\"", "\"", "\"", ""]),
        prop_oneof![
            3 => Just(String::new()),
            1 => select(&["@en", "@EN-gb", "@", "^x", "^^x", "^^"]).prop_map(String::from),
            1 => iri().prop_map(|dt| format!("^^{dt}")),
        ],
    )
        .prop_map(|(body, close, tail)| format!("\"{body}{close}{tail}"));
    prop_oneof![
        4 => iri(),
        3 => literal,
        1 => select(&["_:b1", "_:b.c", "_:", "_:-x", "_:b."]).prop_map(String::from),
    ]
}

/// What follows the object: the terminator, or not, or trailing junk,
/// or (after an unterminated object) a truncated escape.
fn end() -> impl Strategy<Value = &'static str> {
    select(&[" .", ".", " . ", "", " . junk", " ..", r"\u12"])
}

/// A statement's three terms; the predicate is mostly an IRI.
fn terms() -> impl Strategy<Value = (String, String, String)> {
    (term(), prop_oneof![4 => iri(), 1 => term()], term())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn the_reader_answers_every_statement_as_the_char_at_a_time_reader(
        spo in terms(),
        end in end(),
        line_no in 1usize..100_000,
    ) {
        let (s, p, o) = spo;
        let line = format!("{s} {p} {o}{end}");
        let got: Result<_, ParseError> = parse_line(&line, line_no);
        prop_assert_eq!(got, oracle::parse_line(&line, line_no), "{}", line);
    }
}

/// The generator reaches both sides: statements that parse, with and
/// without escapes, and every way of failing the reader reports.
#[test]
fn the_generated_statements_parse_and_fail_in_every_way() {
    use proptest::strategy::Strategy;
    let mut rng = proptest::test_runner::TestRng::new(7);
    let (mut parsed, mut escaped) = (0, 0);
    let mut failures = std::collections::BTreeSet::new();
    let statement = (terms(), end());
    for _ in 0..4096 {
        let ((s, p, o), end) = statement.generate(&mut rng);
        let line = format!("{s} {p} {o}{end}");
        match parse_line(&line, 1) {
            Ok(_) => {
                parsed += 1;
                escaped += usize::from(line.contains('\\'));
            }
            Err(e) => {
                failures.insert(e.message.split(" (in ").next().unwrap().to_owned());
            }
        }
    }
    assert!(parsed > 100 && escaped > 20, "{parsed} parsed, {escaped} with escapes");
    for kind in [
        "unterminated IRI",
        "unterminated literal",
        "invalid character '\\\\' in IRI",
        "invalid character ' ' in IRI",
        "only \\u/\\U escapes are allowed in IRIs, found \\n",
        "truncated \\u escape",
        "invalid hex in \\u escape",
        "invalid code point in \\u escape",
        "unknown escape \\q",
        "empty language tag",
        "predicate must be an IRI",
    ] {
        assert!(failures.contains(kind), "{kind:?} never generated: {failures:?}");
    }
}

/// Counts this thread's allocator calls (`alloc` and `realloc`) and the
/// bytes they ask for.
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    pub struct CountingAlloc;

    thread_local! {
        static CALLS: Cell<usize> = const { Cell::new(0) };
        static BYTES: Cell<usize> = const { Cell::new(0) };
    }

    fn count(bytes: usize) {
        // `try_with`: the allocator outlives a dying thread's locals.
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|b| b.set(b.get() + bytes));
    }

    // SAFETY: every request is handed to `System` unchanged; the only
    // addition is thread-local integers with no destructor and no
    // allocation of their own, so they cannot re-enter the allocator.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count(layout.size());
            // SAFETY: the caller's contract, passed through.
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: the caller's contract, passed through.
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new: usize) -> *mut u8 {
            count(new);
            // SAFETY: the caller's contract, passed through.
            unsafe { System.realloc(ptr, layout, new) }
        }
    }

    /// Runs `f`, returning its result, the allocator calls it made on
    /// this thread and the bytes they asked for.
    pub fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
        let (calls, bytes) = (CALLS.with(Cell::get), BYTES.with(Cell::get));
        let out = f();
        (out, CALLS.with(Cell::get) - calls, BYTES.with(Cell::get) - bytes)
    }
}

#[global_allocator]
static GLOBAL: counting::CountingAlloc = counting::CountingAlloc;

#[test]
fn an_escape_free_statement_of_three_iris_allocates_three_times() {
    let line = "<http://example.org/univ0/dept3/s> <http://example.org/ub#p> <http://e/o> .";
    let (triple, calls, bytes) = counting::allocations(|| parse_line(line, 1));
    let triple = triple.unwrap();
    assert_eq!(calls, 3, "one allocation per term");
    let texts = [&triple.subject, &triple.predicate, &triple.object]
        .map(|t| t.as_iri().unwrap().as_str().len());
    assert_eq!(bytes, texts.iter().sum::<usize>(), "each exactly its text");
}
