//! Tokenizer for the SPARQL subset.
//!
//! Produces a flat token stream consumed by the recursive-descent
//! [`crate::parser`]. Keywords are recognized case-insensitively, as the
//! SPARQL grammar requires.

use std::fmt;

/// A lexical token with its source position (byte offset).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// Byte offset of the token start in the query string.
    pub offset: usize,
}

/// Token kinds of the SPARQL subset grammar.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// A keyword such as `SELECT` (stored upper-cased).
    Keyword(String),
    /// A variable `?name` or `$name` (stored without sigil).
    Var(String),
    /// An IRI reference `<...>` (stored without brackets).
    IriRef(String),
    /// A prefixed name `foaf:knows` as `(prefix, local)`; the prefix may
    /// be empty (`:me`).
    PName(String, String),
    /// A quoted string literal, unescaped.
    String(String),
    /// A language tag following a string, e.g. `@en` (without `@`).
    LangTag(String),
    /// `^^` introducing a datatype.
    DoubleCaret,
    /// An integer literal.
    Integer(i64),
    /// A decimal/double literal.
    Decimal(f64),
    /// A boolean literal (`true` / `false`).
    Boolean(bool),
    /// A blank node label `_:b`.
    BlankNode(String),
    /// `a` — shorthand for `rdf:type`.
    A,
    /// `[`.
    LBracket,
    /// `]`.
    RBracket,
    /// `{`.
    LBrace,
    /// `}`.
    RBrace,
    /// `(`.
    LParen,
    /// `)`.
    RParen,
    /// `.`.
    Dot,
    /// `;`.
    Semicolon,
    /// `,`.
    Comma,
    /// `*`.
    Star,
    /// `=`.
    Eq,
    /// `!=`.
    Neq,
    /// `<`.
    Lt,
    /// `<=`.
    Le,
    /// `>`.
    Gt,
    /// `>=`.
    Ge,
    /// `&&`.
    AndAnd,
    /// `||`.
    OrOr,
    /// `!`.
    Bang,
    /// `+`.
    Plus,
    /// `-`.
    Minus,
    /// `/`.
    Slash,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Keyword(k) => write!(f, "{k}"),
            TokenKind::Var(v) => write!(f, "?{v}"),
            TokenKind::IriRef(i) => write!(f, "<{i}>"),
            TokenKind::PName(p, l) => write!(f, "{p}:{l}"),
            TokenKind::String(s) => write!(f, "{s:?}"),
            TokenKind::LangTag(t) => write!(f, "@{t}"),
            TokenKind::DoubleCaret => write!(f, "^^"),
            TokenKind::Integer(n) => write!(f, "{n}"),
            TokenKind::Decimal(d) => write!(f, "{d}"),
            TokenKind::Boolean(b) => write!(f, "{b}"),
            TokenKind::BlankNode(b) => write!(f, "_:{b}"),
            TokenKind::A => write!(f, "a"),
            TokenKind::LBracket => write!(f, "["),
            TokenKind::RBracket => write!(f, "]"),
            TokenKind::LBrace => write!(f, "{{"),
            TokenKind::RBrace => write!(f, "}}"),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::Dot => write!(f, "."),
            TokenKind::Semicolon => write!(f, ";"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Eq => write!(f, "="),
            TokenKind::Neq => write!(f, "!="),
            TokenKind::Lt => write!(f, "<"),
            TokenKind::Le => write!(f, "<="),
            TokenKind::Gt => write!(f, ">"),
            TokenKind::Ge => write!(f, ">="),
            TokenKind::AndAnd => write!(f, "&&"),
            TokenKind::OrOr => write!(f, "||"),
            TokenKind::Bang => write!(f, "!"),
            TokenKind::Plus => write!(f, "+"),
            TokenKind::Minus => write!(f, "-"),
            TokenKind::Slash => write!(f, "/"),
            TokenKind::Eof => write!(f, "<eof>"),
        }
    }
}

/// A lexical error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset of the error.
    pub offset: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at offset {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

const KEYWORDS: &[&str] = &[
    "SELECT", "CONSTRUCT", "ASK", "DESCRIBE", "WHERE", "FROM", "NAMED", "PREFIX", "BASE",
    "OPTIONAL", "UNION", "FILTER", "ORDER", "BY", "ASC", "DESC", "LIMIT", "OFFSET", "DISTINCT",
    "REDUCED", "GRAPH", "REGEX", "BOUND", "STR", "LANG", "DATATYPE", "ISIRI", "ISURI",
    "ISBLANK", "ISLITERAL", "SAMETERM", "LANGMATCHES",
];

/// Tokenizes a SPARQL query string.
pub fn tokenize(input: &str) -> Result<Vec<Token>, LexError> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut pos = 0usize;

    let err = |pos: usize, msg: &str| LexError { offset: pos, message: msg.to_string() };

    while pos < bytes.len() {
        let start = pos;
        let c = bytes[pos];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => {
                pos += 1;
                continue;
            }
            b'#' => {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
                continue;
            }
            b'[' => push(&mut tokens, TokenKind::LBracket, start, &mut pos, 1),
            b']' => push(&mut tokens, TokenKind::RBracket, start, &mut pos, 1),
            b'{' => push(&mut tokens, TokenKind::LBrace, start, &mut pos, 1),
            b'}' => push(&mut tokens, TokenKind::RBrace, start, &mut pos, 1),
            b'(' => push(&mut tokens, TokenKind::LParen, start, &mut pos, 1),
            b')' => push(&mut tokens, TokenKind::RParen, start, &mut pos, 1),
            b';' => push(&mut tokens, TokenKind::Semicolon, start, &mut pos, 1),
            b',' => push(&mut tokens, TokenKind::Comma, start, &mut pos, 1),
            b'*' => push(&mut tokens, TokenKind::Star, start, &mut pos, 1),
            b'/' => push(&mut tokens, TokenKind::Slash, start, &mut pos, 1),
            b'=' => push(&mut tokens, TokenKind::Eq, start, &mut pos, 1),
            b'!' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    push(&mut tokens, TokenKind::Neq, start, &mut pos, 2);
                } else {
                    push(&mut tokens, TokenKind::Bang, start, &mut pos, 1);
                }
            }
            b'&' => {
                if bytes.get(pos + 1) == Some(&b'&') {
                    push(&mut tokens, TokenKind::AndAnd, start, &mut pos, 2);
                } else {
                    return Err(err(pos, "expected '&&'"));
                }
            }
            b'|' => {
                if bytes.get(pos + 1) == Some(&b'|') {
                    push(&mut tokens, TokenKind::OrOr, start, &mut pos, 2);
                } else {
                    return Err(err(pos, "expected '||'"));
                }
            }
            b'^' => {
                if bytes.get(pos + 1) == Some(&b'^') {
                    push(&mut tokens, TokenKind::DoubleCaret, start, &mut pos, 2);
                } else {
                    return Err(err(pos, "expected '^^'"));
                }
            }
            b'<' => {
                // Either an IRI ref or a comparison operator. An IRI ref has
                // no whitespace before the closing '>'; disambiguate by
                // scanning ahead.
                if let Some(end) = scan_iri_ref(input, pos) {
                    let iri = &input[pos + 1..end];
                    tokens.push(Token { kind: TokenKind::IriRef(iri.to_string()), offset: start });
                    pos = end + 1;
                } else if bytes.get(pos + 1) == Some(&b'=') {
                    push(&mut tokens, TokenKind::Le, start, &mut pos, 2);
                } else {
                    push(&mut tokens, TokenKind::Lt, start, &mut pos, 1);
                }
            }
            b'>' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    push(&mut tokens, TokenKind::Ge, start, &mut pos, 2);
                } else {
                    push(&mut tokens, TokenKind::Gt, start, &mut pos, 1);
                }
            }
            b'?' | b'$' => {
                pos += 1;
                let name_start = pos;
                while pos < bytes.len() && is_name_char(bytes[pos]) {
                    pos += 1;
                }
                if pos == name_start {
                    return Err(err(start, "empty variable name"));
                }
                // Longer names do not fit a solution frame's variable table.
                if pos - name_start > crate::solution::wire::MAX_NAME {
                    return Err(err(start, "variable name too long"));
                }
                tokens.push(Token {
                    kind: TokenKind::Var(input[name_start..pos].to_string()),
                    offset: start,
                });
            }
            b'"' | b'\'' => {
                let quote = c;
                pos += 1;
                let mut s = String::new();
                loop {
                    if pos >= bytes.len() {
                        return Err(err(start, "unterminated string literal"));
                    }
                    let b = bytes[pos];
                    if b == quote {
                        pos += 1;
                        break;
                    }
                    if b == b'\\' {
                        pos += 1;
                        let esc = *bytes.get(pos).ok_or_else(|| err(pos, "dangling escape"))?;
                        pos += 1;
                        match esc {
                            b'"' => s.push('"'),
                            b'\'' => s.push('\''),
                            b'\\' => s.push('\\'),
                            b'n' => s.push('\n'),
                            b'r' => s.push('\r'),
                            b't' => s.push('\t'),
                            other => {
                                return Err(err(pos, &format!("unknown escape \\{}", other as char)))
                            }
                        }
                    } else {
                        let ch = input[pos..].chars().next().expect("in bounds");
                        s.push(ch);
                        pos += ch.len_utf8();
                    }
                }
                tokens.push(Token { kind: TokenKind::String(s), offset: start });
            }
            b'@' => {
                pos += 1;
                let tag_start = pos;
                while pos < bytes.len() && (bytes[pos].is_ascii_alphanumeric() || bytes[pos] == b'-') {
                    pos += 1;
                }
                if pos == tag_start {
                    return Err(err(start, "empty language tag"));
                }
                tokens.push(Token {
                    kind: TokenKind::LangTag(input[tag_start..pos].to_ascii_lowercase()),
                    offset: start,
                });
            }
            b'_' => {
                if bytes.get(pos + 1) != Some(&b':') {
                    return Err(err(pos, "expected ':' after '_'"));
                }
                pos += 2;
                let label_start = pos;
                while pos < bytes.len() && is_name_char(bytes[pos]) {
                    pos += 1;
                }
                if pos == label_start {
                    return Err(err(start, "empty blank node label"));
                }
                tokens.push(Token {
                    kind: TokenKind::BlankNode(input[label_start..pos].to_string()),
                    offset: start,
                });
            }
            b'0'..=b'9' => {
                let (kind, next) = scan_number(input, pos).map_err(|m| err(pos, &m))?;
                tokens.push(Token { kind, offset: start });
                pos = next;
            }
            b':' => {
                // Default-prefix prefixed name, e.g. `:me`.
                pos += 1;
                let local_start = pos;
                while pos < bytes.len() && is_name_char(bytes[pos]) {
                    pos += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::PName(String::new(), input[local_start..pos].to_string()),
                    offset: start,
                });
            }
            b'+' => push(&mut tokens, TokenKind::Plus, start, &mut pos, 1),
            b'-' => push(&mut tokens, TokenKind::Minus, start, &mut pos, 1),
            b'.' => {
                // Could begin a decimal like `.5`; we require a leading digit,
                // so a bare dot is always the triple separator.
                push(&mut tokens, TokenKind::Dot, start, &mut pos, 1);
            }
            _ => {
                // Bare word: keyword, `a`, boolean, or prefixed name.
                let word_start = pos;
                while pos < bytes.len() && is_name_char(bytes[pos]) {
                    pos += 1;
                }
                if pos == word_start {
                    return Err(err(pos, &format!("unexpected character {:?}", c as char)));
                }
                let word = &input[word_start..pos];
                if bytes.get(pos) == Some(&b':') {
                    // Prefixed name `prefix:local`.
                    pos += 1;
                    let local_start = pos;
                    while pos < bytes.len() && is_name_char(bytes[pos]) {
                        pos += 1;
                    }
                    tokens.push(Token {
                        kind: TokenKind::PName(word.to_string(), input[local_start..pos].to_string()),
                        offset: start,
                    });
                } else {
                    let upper = word.to_ascii_uppercase();
                    if word == "a" {
                        tokens.push(Token { kind: TokenKind::A, offset: start });
                    } else if word == "true" || word == "false" {
                        tokens.push(Token {
                            kind: TokenKind::Boolean(word == "true"),
                            offset: start,
                        });
                    } else if KEYWORDS.contains(&upper.as_str()) {
                        tokens.push(Token { kind: TokenKind::Keyword(upper), offset: start });
                    } else {
                        return Err(err(start, &format!("unknown word {word:?}")));
                    }
                }
            }
        }
    }
    tokens.push(Token { kind: TokenKind::Eof, offset: input.len() });
    Ok(tokens)
}

fn push(tokens: &mut Vec<Token>, kind: TokenKind, start: usize, pos: &mut usize, len: usize) {
    tokens.push(Token { kind, offset: start });
    *pos += len;
}

fn is_name_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Scans a `<...>` IRI reference starting at `pos` (which must point at
/// `<`). Returns the index of the closing `>` if the bracketed span is a
/// valid IRI ref (no whitespace or quotes inside), else `None`.
fn scan_iri_ref(input: &str, pos: usize) -> Option<usize> {
    let bytes = input.as_bytes();
    let mut i = pos + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'>' => return Some(i),
            b' ' | b'\t' | b'\r' | b'\n' | b'"' | b'{' | b'}' => return None,
            _ => i += 1,
        }
    }
    None
}

fn scan_number(input: &str, pos: usize) -> Result<(TokenKind, usize), String> {
    let bytes = input.as_bytes();
    let mut i = pos;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    let mut is_decimal = false;
    if i < bytes.len() && bytes[i] == b'.' && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
        is_decimal = true;
        i += 1;
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
    }
    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
        is_decimal = true;
        i += 1;
        if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
            i += 1;
        }
        while i < bytes.len() && bytes[i].is_ascii_digit() {
            i += 1;
        }
    }
    let text = &input[pos..i];
    if is_decimal {
        text.parse::<f64>()
            .map(|d| (TokenKind::Decimal(d), i))
            .map_err(|_| format!("invalid decimal {text:?}"))
    } else {
        text.parse::<i64>()
            .map(|n| (TokenKind::Integer(n), i))
            .map_err(|_| format!("invalid integer {text:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn tokenizes_select_skeleton() {
        let ks = kinds("SELECT ?x WHERE { ?x foaf:knows ns:me . }");
        assert_eq!(
            ks,
            vec![
                TokenKind::Keyword("SELECT".into()),
                TokenKind::Var("x".into()),
                TokenKind::Keyword("WHERE".into()),
                TokenKind::LBrace,
                TokenKind::Var("x".into()),
                TokenKind::PName("foaf".into(), "knows".into()),
                TokenKind::PName("ns".into(), "me".into()),
                TokenKind::Dot,
                TokenKind::RBrace,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(kinds("select")[0], TokenKind::Keyword("SELECT".into()));
        assert_eq!(kinds("OpTiOnAl")[0], TokenKind::Keyword("OPTIONAL".into()));
    }

    #[test]
    fn iri_vs_less_than_disambiguation() {
        let ks = kinds("<http://e/x> < 3");
        assert_eq!(ks[0], TokenKind::IriRef("http://e/x".into()));
        assert_eq!(ks[1], TokenKind::Lt);
        assert_eq!(ks[2], TokenKind::Integer(3));
        let ks = kinds("?x <= 5");
        assert_eq!(ks[1], TokenKind::Le);
    }

    #[test]
    fn strings_with_escapes_and_lang() {
        let ks = kinds(r#""a\"b"@en"#);
        assert_eq!(ks[0], TokenKind::String("a\"b".into()));
        assert_eq!(ks[1], TokenKind::LangTag("en".into()));
    }

    #[test]
    fn typed_literal_tokens() {
        let ks = kinds("\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>");
        assert_eq!(ks[0], TokenKind::String("42".into()));
        assert_eq!(ks[1], TokenKind::DoubleCaret);
        assert!(matches!(&ks[2], TokenKind::IriRef(i) if i.ends_with("integer")));
    }

    #[test]
    fn numbers_integer_and_decimal() {
        assert_eq!(kinds("42")[0], TokenKind::Integer(42));
        assert_eq!(kinds("3.5")[0], TokenKind::Decimal(3.5));
        assert_eq!(kinds("1e3")[0], TokenKind::Decimal(1000.0));
    }

    #[test]
    fn comments_are_skipped() {
        let ks = kinds("SELECT # comment ?y\n?x");
        assert_eq!(ks.len(), 3); // SELECT, ?x, EOF
    }

    #[test]
    fn operators() {
        assert_eq!(
            kinds("&& || ! != = >="),
            vec![
                TokenKind::AndAnd,
                TokenKind::OrOr,
                TokenKind::Bang,
                TokenKind::Neq,
                TokenKind::Eq,
                TokenKind::Ge,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn default_prefix_and_blank_nodes() {
        let ks = kinds(":me _:b1");
        assert_eq!(ks[0], TokenKind::PName("".into(), "me".into()));
        assert_eq!(ks[1], TokenKind::BlankNode("b1".into()));
    }

    #[test]
    fn a_keyword_and_booleans() {
        assert_eq!(kinds("a")[0], TokenKind::A);
        assert_eq!(kinds("true")[0], TokenKind::Boolean(true));
        assert_eq!(kinds("false")[0], TokenKind::Boolean(false));
    }

    #[test]
    fn errors_report_offsets() {
        let e = tokenize("SELECT \"unterminated").unwrap_err();
        assert_eq!(e.offset, 7);
        assert!(tokenize("SELECT ~").is_err());
        assert!(tokenize("? ").is_err());
        let max = crate::solution::wire::MAX_NAME;
        assert!(tokenize(&format!("?{}", "v".repeat(max))).is_ok());
        assert!(tokenize(&format!("?{}", "v".repeat(max + 1))).is_err());
    }
}
