//! Serialization of query results in the W3C exchange formats.
//!
//! Nodes in the data sharing system are heterogeneous; results crossing
//! system boundaries need standard encodings. Implements the SPARQL
//! Query Results JSON and XML formats plus tab-separated values for
//! SELECT/ASK, and N-Triples for CONSTRUCT/DESCRIBE graphs — all
//! hand-rolled (the sanctioned dependency list carries no serde_json).
//!
//! A SELECT document is written from the finished id-row batch ([`Rows`])
//! into one `String` by one row walker (`write_select`), which the three
//! formats differ in only by their `Layout` and their term fragments. It
//! pays per column and per distinct term, not per cell:
//!
//! - the header lists the columns some row binds, in first-appearance
//!   order, each name escaped once; a cell's key (JSON's `"name":`, XML's
//!   `<binding name="…">`) copies the name from there;
//! - a row writes its bound cells in variable-name order — the order a
//!   `Solution` iterates its bindings in — or, in TSV, a cell per header
//!   column, empty where unbound;
//! - a term's fragment (JSON's `{"type":…}`, XML's `<uri>…</uri>`, TSV's
//!   N-Triples form) is rendered at the first cell that names its
//!   dictionary id, and every later cell naming that id copies those
//!   bytes of the document (`String::extend_from_within`);
//! - an escaper (`push_escaped`) tests eight bytes at a time and copies
//!   clean runs whole;
//! - the document is sized from its first row, and a one-row document
//!   keeps no table of fragments.

use std::fmt::Write as _;

use rdfmesh_rdf::{LiteralKind, Term, Variable};

use crate::answer::QueryResult;
use crate::rows::{Rows, UNBOUND};

/// The variables bound anywhere in the batch, in first-appearance order
/// — each row's in variable-name order, as its [`Solution`] iterates
/// them: the result header.
///
/// [`Solution`]: crate::Solution
pub fn head_variables(rows: &Rows) -> Vec<Variable> {
    let mut head: Vec<Variable> = Vec::new();
    let mut seen = vec![false; rows.vars().len()];
    for_each_head_column(rows, &rows.columns_by_name(), |c| {
        let new = !std::mem::replace(&mut seen[c], true);
        if new {
            head.push(rows.vars()[c].clone());
        }
        new
    });
    head
}

/// Offers `new` each column a row binds — the rows in order, each row's
/// columns in `by_name` order — until it has accepted (returned `true`
/// for) every column. The header is the columns it accepts, in order.
fn for_each_head_column(rows: &Rows, by_name: &[usize], mut new: impl FnMut(usize) -> bool) {
    let mut accepted = 0;
    for row in rows.iter() {
        if accepted == by_name.len() {
            break;
        }
        for &c in by_name {
            if row.cells()[c] != UNBOUND && new(c) {
                accepted += 1;
            }
        }
    }
}

/// Eight copies of `b`, one per byte of a word.
const fn splat(b: u8) -> u64 {
    u64::from_ne_bytes([b; 8])
}

/// Whether some byte of `w` is below `n` (at most 0x80). Exact as a yes
/// or no: a byte of 0x80 or more never sets its flag (`!w` clears it),
/// and the borrow that may set a false flag starts only at a byte below
/// `n`, whose own flag is set.
const fn has_below(w: u64, n: u8) -> bool {
    w.wrapping_sub(splat(n)) & !w & splat(0x80) != 0
}

/// Whether some byte of `w` is `b`.
const fn has_byte(w: u64, b: u8) -> bool {
    has_below(w ^ splat(b), 1)
}

/// Appends `s` to `out` with each byte `replacement` names replaced.
/// `special` tells whether an eight-byte word of `s` (read little-endian)
/// holds such a byte: a word it clears is skipped whole, and clean runs
/// are copied whole. The last, short word is padded with spaces, which
/// no format replaces. Only ASCII bytes may be replaced, so every cut
/// falls on a character boundary.
fn push_escaped(
    out: &mut String,
    s: &str,
    special: impl Fn(u64) -> bool,
    replacement: impl Fn(u8) -> Option<&'static str>,
) {
    let bytes = s.as_bytes();
    let mut clean = 0;
    let mut escape = |out: &mut String, from: usize, to: usize| {
        for (i, &b) in bytes.iter().enumerate().take(to).skip(from) {
            if let Some(r) = replacement(b) {
                out.push_str(&s[clean..i]);
                out.push_str(r);
                clean = i + 1;
            }
        }
    };
    let words = bytes.chunks_exact(8);
    let rest = words.remainder();
    let tail = bytes.len() - rest.len();
    for (k, word) in words.enumerate() {
        if special(u64::from_le_bytes(word.try_into().expect("a word is eight bytes"))) {
            escape(out, 8 * k, 8 * k + 8);
        }
    }
    let mut last = [b' '; 8];
    last[..rest.len()].copy_from_slice(rest);
    if special(u64::from_le_bytes(last)) {
        escape(out, tail, bytes.len());
    }
    out.push_str(&s[clean..]);
}

/// The control characters as JSON writes them (RFC 8259 §7).
#[rustfmt::skip]
const JSON_CONTROL: [&str; 0x20] = [
    "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005", "\\u0006", "\\u0007",
    "\\u0008", "\\t",     "\\n",     "\\u000b", "\\u000c", "\\r",     "\\u000e", "\\u000f",
    "\\u0010", "\\u0011", "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017",
    "\\u0018", "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d", "\\u001e", "\\u001f",
];

/// Appends `s` as the inside of a JSON string literal: `"`, `\` and
/// every character below 0x20 escaped. Result documents and the HTTP
/// endpoint's error bodies are all written through it.
pub fn push_json_escaped(out: &mut String, s: &str) {
    push_escaped(
        out,
        s,
        |w| has_byte(w, b'"') | has_byte(w, b'\\') | has_below(w, 0x20),
        |b| match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            0..0x20 => Some(JSON_CONTROL[usize::from(b)]),
            _ => None,
        },
    );
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    push_json_escaped(out, s);
    out.push('"');
}

fn json_term(out: &mut String, term: &Term) {
    match term {
        Term::Iri(i) => {
            out.push_str("{\"type\":\"uri\",\"value\":");
            json_string(out, i.as_str());
        }
        Term::Blank(b) => {
            out.push_str("{\"type\":\"bnode\",\"value\":");
            json_string(out, b.as_str());
        }
        Term::Literal(l) => {
            out.push_str("{\"type\":\"literal\",\"value\":");
            json_string(out, l.lexical());
            match l.kind() {
                LiteralKind::Plain => {}
                LiteralKind::LanguageTagged(tag) => {
                    out.push_str(",\"xml:lang\":");
                    json_string(out, tag);
                }
                LiteralKind::Typed(dt) => {
                    out.push_str(",\"datatype\":");
                    json_string(out, dt.as_str());
                }
            }
        }
    }
    out.push('}');
}

fn push_xml_escaped(out: &mut String, s: &str) {
    push_escaped(
        out,
        s,
        |w| has_byte(w, b'&') | has_byte(w, b'<') | has_byte(w, b'>') | has_byte(w, b'"'),
        |b| match b {
            b'&' => Some("&amp;"),
            b'<' => Some("&lt;"),
            b'>' => Some("&gt;"),
            b'"' => Some("&quot;"),
            _ => None,
        },
    );
}

/// `<tag>text</tag>`, or `<tag name="value">text</tag>` with an
/// attribute: one element of the XML format, text and value escaped.
fn xml_element(out: &mut String, tag: &str, attribute: Option<(&str, &str)>, text: &str) {
    out.push('<');
    out.push_str(tag);
    if let Some((name, value)) = attribute {
        out.push(' ');
        out.push_str(name);
        out.push_str("=\"");
        push_xml_escaped(out, value);
        out.push('"');
    }
    out.push('>');
    push_xml_escaped(out, text);
    out.push_str("</");
    out.push_str(tag);
    out.push('>');
}

fn xml_term(out: &mut String, term: &Term) {
    match term {
        Term::Iri(i) => xml_element(out, "uri", None, i.as_str()),
        Term::Blank(b) => xml_element(out, "bnode", None, b.as_str()),
        Term::Literal(l) => {
            let attribute = match l.kind() {
                LiteralKind::Plain => None,
                LiteralKind::LanguageTagged(tag) => Some(("xml:lang", tag.as_str())),
                LiteralKind::Typed(dt) => Some(("datatype", dt.as_str())),
            };
            xml_element(out, "literal", attribute, l.lexical());
        }
    }
}

const XML_PROLOGUE: &str =
    "<?xml version=\"1.0\"?>\n<sparql xmlns=\"http://www.w3.org/2005/sparql-results#\">\n";

/// The SELECT formats: how a name is escaped and a term rendered.
#[derive(Clone, Copy)]
enum Format {
    Json,
    Xml,
    Tsv,
}

/// What a SELECT document writes around its header names, rows and
/// cells, in one format.
struct Layout {
    format: Format,
    /// Opens the document, before the first header name.
    open: &'static [&'static str],
    /// Before and after a header name, and between two.
    name: (&'static str, &'static str),
    names_between: &'static str,
    /// Closes the header, before the first row.
    head_close: &'static str,
    /// Before and after a row, and between two.
    row: (&'static str, &'static str),
    rows_between: &'static str,
    /// Before and after a cell's key — its column's escaped name, copied
    /// from the header — and after its term. TSV's cells have no key.
    key: Option<(&'static str, &'static str)>,
    cell_close: &'static str,
    cells_between: &'static str,
    /// A cell per header column, empty where the row leaves it unbound
    /// (TSV), or a cell per bound column, in variable-name order.
    every_column: bool,
    close: &'static str,
}

const JSON: Layout = Layout {
    format: Format::Json,
    open: &["{\"head\":{\"vars\":["],
    name: ("\"", "\""),
    names_between: ",",
    head_close: "]},\"results\":{\"bindings\":[",
    row: ("{", "}"),
    rows_between: ",",
    key: Some(("\"", "\":")),
    cell_close: "",
    cells_between: ",",
    every_column: false,
    close: "]}}",
};

const XML: Layout = Layout {
    format: Format::Xml,
    open: &[XML_PROLOGUE, "  <head>\n"],
    name: ("    <variable name=\"", "\"/>\n"),
    names_between: "",
    head_close: "  </head>\n  <results>\n",
    row: ("    <result>\n", "    </result>\n"),
    rows_between: "",
    key: Some(("      <binding name=\"", "\">")),
    cell_close: "</binding>\n",
    cells_between: "",
    every_column: false,
    close: "  </results>\n</sparql>\n",
};

const TSV: Layout = Layout {
    format: Format::Tsv,
    open: &[],
    name: ("?", ""),
    names_between: "\t",
    head_close: "\n",
    row: ("", "\n"),
    rows_between: "",
    key: None,
    cell_close: "",
    cells_between: "\t",
    every_column: true,
    close: "",
};

/// A byte range of the document being written. No name or fragment
/// starts at byte 0, so `(0, 0)` is one not written yet.
type Span = (usize, usize);
const UNWRITTEN: Span = (0, 0);

/// Writes a SELECT result as `l` says: the one row walker of the
/// three writers. Each header name is escaped once and each term's
/// fragment rendered once; every later key or cell copies their bytes.
/// Inlined into each writer, so that its layout's strings and format are
/// constants there (on the stage probe, JSON's `?s ub:takesCourse ?c`
/// took 1.7 times as long through one shared copy).
#[inline(always)]
fn write_select(l: &Layout, rows: &Rows) -> String {
    let by_name = rows.columns_by_name();
    let mut out = String::new();
    for part in l.open {
        out.push_str(part);
    }
    // Where each column's escaped name is in the header, and the header
    // columns in order (kept only where they are a row's cell order).
    let mut names = vec![UNWRITTEN; rows.vars().len()];
    let mut head = Vec::new();
    let mut named = 0;
    for_each_head_column(rows, &by_name, |c| {
        if names[c] != UNWRITTEN {
            return false;
        }
        if named > 0 {
            out.push_str(l.names_between);
        }
        named += 1;
        out.push_str(l.name.0);
        let start = out.len();
        let name = rows.vars()[c].as_str();
        match l.format {
            Format::Json => push_json_escaped(&mut out, name),
            Format::Xml => push_xml_escaped(&mut out, name),
            Format::Tsv => out.push_str(name),
        }
        names[c] = (start, out.len());
        out.push_str(l.name.1);
        if l.every_column {
            head.push(c);
        }
        true
    });
    out.push_str(l.head_close);
    let order = if l.every_column { &head } else { &by_name };
    // Where each term's fragment was first written, by dictionary id: a
    // one-row document repeats nothing and keeps no table.
    let mut fragments = if rows.len() > 1 { vec![UNWRITTEN; rows.dict.len()] } else { Vec::new() };
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push_str(l.rows_between);
        }
        let start = out.len();
        out.push_str(l.row.0);
        let mut first = true;
        for &c in order {
            let cell = row.cells()[c];
            if cell == UNBOUND && !l.every_column {
                continue;
            }
            if !first {
                out.push_str(l.cells_between);
            }
            first = false;
            if cell == UNBOUND {
                continue;
            }
            if let Some((before, after)) = l.key {
                out.push_str(before);
                out.extend_from_within(names[c].0..names[c].1);
                out.push_str(after);
            }
            let id = cell as usize - 1;
            match fragments.get(id) {
                Some(&(from, to)) if (from, to) != UNWRITTEN => out.extend_from_within(from..to),
                _ => {
                    let from = out.len();
                    let term = rows.term(cell);
                    match l.format {
                        Format::Json => json_term(&mut out, term),
                        Format::Xml => xml_term(&mut out, term),
                        // TSV's cell is the term as N-Triples writes it.
                        Format::Tsv => {
                            let _ = write!(out, "{term}");
                        }
                    }
                    if let Some(fragment) = fragments.get_mut(id) {
                        *fragment = (from, out.len());
                    }
                }
            }
            out.push_str(l.cell_close);
        }
        out.push_str(l.row.1);
        if i == 0 {
            // Rows of one result are alike: reserve the first row's size
            // and an eighth for each of the rest, so the document rarely
            // regrows.
            let first = out.len() - start + l.rows_between.len();
            out.reserve((first + first / 8) * (rows.len() - 1));
        }
    }
    out.push_str(l.close);
    out
}

/// Serializes a result in the SPARQL 1.1 Query Results JSON format.
///
/// CONSTRUCT/DESCRIBE graphs have no W3C JSON mapping; they serialize as
/// `{"triples": "<N-Triples document>"}`.
pub fn to_json(result: &QueryResult) -> String {
    match result {
        QueryResult::Boolean(b) => {
            let mut out = String::from("{\"head\":{},\"boolean\":");
            out.push_str(if *b { "true" } else { "false" });
            out.push('}');
            out
        }
        QueryResult::Solutions(selection) => write_select(&JSON, selection.rows()),
        QueryResult::Graph(triples) => {
            let mut out = String::from("{\"triples\":");
            json_string(&mut out, &rdfmesh_rdf::write_document(triples));
            out.push('}');
            out
        }
    }
}

/// Serializes a result in the SPARQL Query Results XML format. Graphs
/// (CONSTRUCT/DESCRIBE) fall back to N-Triples (returned as-is).
pub fn to_xml(result: &QueryResult) -> String {
    match result {
        QueryResult::Graph(triples) => rdfmesh_rdf::write_document(triples),
        QueryResult::Boolean(b) => {
            let mut out = String::from(XML_PROLOGUE);
            out.push_str("  <head/>\n  <boolean>");
            out.push_str(if *b { "true" } else { "false" });
            out.push_str("</boolean>\n</sparql>\n");
            out
        }
        QueryResult::Solutions(selection) => write_select(&XML, selection.rows()),
    }
}

/// Serializes SELECT results as tab-separated values with a `?var`
/// header row; ASK yields `true`/`false`, graphs yield N-Triples.
pub fn to_tsv(result: &QueryResult) -> String {
    match result {
        QueryResult::Boolean(b) => String::from(if *b { "true\n" } else { "false\n" }),
        QueryResult::Graph(triples) => rdfmesh_rdf::write_document(triples),
        QueryResult::Solutions(selection) => write_select(&TSV, selection.rows()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Selection, Solution};
    use proptest::prelude::*;
    use rdfmesh_rdf::{Iri, Literal, Triple};

    /// The three serializers as they were before they wrote into one
    /// buffer: a `String` per cell, per row and per document, over the
    /// rows as [`Solution`]s. What the writers above, which walk the
    /// batch, must reproduce byte for byte.
    mod oracle {
        use std::fmt::Write as _;

        use super::super::*;
        use crate::Solution;

        fn head_variables(solutions: &[Solution]) -> Vec<Variable> {
            let mut out: Vec<Variable> = Vec::new();
            for s in solutions {
                for (v, _) in s.iter() {
                    if !out.contains(v) {
                        out.push(v.clone());
                    }
                }
            }
            out
        }

        fn json_escape(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
            out
        }

        fn json_term(term: &Term) -> String {
            match term {
                Term::Iri(i) => {
                    format!("{{\"type\":\"uri\",\"value\":\"{}\"}}", json_escape(i.as_str()))
                }
                Term::Blank(b) => {
                    format!("{{\"type\":\"bnode\",\"value\":\"{}\"}}", json_escape(b.as_str()))
                }
                Term::Literal(l) => {
                    let mut out = format!(
                        "{{\"type\":\"literal\",\"value\":\"{}\"",
                        json_escape(l.lexical())
                    );
                    match l.kind() {
                        LiteralKind::Plain => {}
                        LiteralKind::LanguageTagged(tag) => {
                            let _ = write!(out, ",\"xml:lang\":\"{}\"", json_escape(tag));
                        }
                        LiteralKind::Typed(dt) => {
                            let _ = write!(out, ",\"datatype\":\"{}\"", json_escape(dt.as_str()));
                        }
                    }
                    out.push('}');
                    out
                }
            }
        }

        pub fn to_json(result: &QueryResult) -> String {
            match result {
                QueryResult::Boolean(b) => {
                    format!("{{\"head\":{{}},\"boolean\":{b}}}")
                }
                QueryResult::Solutions(selection) => {
                    let solutions = &selection.rows().to_solutions();
                    let vars = head_variables(solutions);
                    let head: Vec<String> =
                        vars.iter().map(|v| format!("\"{}\"", json_escape(v.as_str()))).collect();
                    let mut bindings = Vec::with_capacity(solutions.len());
                    for s in solutions {
                        let cells: Vec<String> = s
                            .iter()
                            .map(|(v, t)| {
                                format!("\"{}\":{}", json_escape(v.as_str()), json_term(t))
                            })
                            .collect();
                        bindings.push(format!("{{{}}}", cells.join(",")));
                    }
                    format!(
                        "{{\"head\":{{\"vars\":[{}]}},\"results\":{{\"bindings\":[{}]}}}}",
                        head.join(","),
                        bindings.join(",")
                    )
                }
                QueryResult::Graph(triples) => {
                    let doc = rdfmesh_rdf::write_document(triples);
                    format!("{{\"triples\":\"{}\"}}", json_escape(&doc))
                }
            }
        }

        fn xml_escape(s: &str) -> String {
            s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
        }

        fn xml_term(term: &Term) -> String {
            match term {
                Term::Iri(i) => format!("<uri>{}</uri>", xml_escape(i.as_str())),
                Term::Blank(b) => format!("<bnode>{}</bnode>", xml_escape(b.as_str())),
                Term::Literal(l) => match l.kind() {
                    LiteralKind::Plain => {
                        format!("<literal>{}</literal>", xml_escape(l.lexical()))
                    }
                    LiteralKind::LanguageTagged(tag) => format!(
                        "<literal xml:lang=\"{}\">{}</literal>",
                        xml_escape(tag),
                        xml_escape(l.lexical())
                    ),
                    LiteralKind::Typed(dt) => format!(
                        "<literal datatype=\"{}\">{}</literal>",
                        xml_escape(dt.as_str()),
                        xml_escape(l.lexical())
                    ),
                },
            }
        }

        pub fn to_xml(result: &QueryResult) -> String {
            match result {
                QueryResult::Graph(triples) => rdfmesh_rdf::write_document(triples),
                QueryResult::Boolean(b) => format!(
                    "<?xml version=\"1.0\"?>\n<sparql xmlns=\"http://www.w3.org/2005/sparql-results#\">\n  <head/>\n  <boolean>{b}</boolean>\n</sparql>\n"
                ),
                QueryResult::Solutions(selection) => {
                    let solutions = &selection.rows().to_solutions();
                    let vars = head_variables(solutions);
                    let mut out = String::from(
                        "<?xml version=\"1.0\"?>\n<sparql xmlns=\"http://www.w3.org/2005/sparql-results#\">\n  <head>\n",
                    );
                    for v in &vars {
                        let _ =
                            writeln!(out, "    <variable name=\"{}\"/>", xml_escape(v.as_str()));
                    }
                    out.push_str("  </head>\n  <results>\n");
                    for s in solutions {
                        out.push_str("    <result>\n");
                        for (v, t) in s.iter() {
                            let _ = writeln!(
                                out,
                                "      <binding name=\"{}\">{}</binding>",
                                xml_escape(v.as_str()),
                                xml_term(t)
                            );
                        }
                        out.push_str("    </result>\n");
                    }
                    out.push_str("  </results>\n</sparql>\n");
                    out
                }
            }
        }

        pub fn to_tsv(result: &QueryResult) -> String {
            match result {
                QueryResult::Boolean(b) => format!("{b}\n"),
                QueryResult::Graph(triples) => rdfmesh_rdf::write_document(triples),
                QueryResult::Solutions(selection) => {
                    let solutions = &selection.rows().to_solutions();
                    let vars = head_variables(solutions);
                    let mut out = String::new();
                    let header: Vec<String> =
                        vars.iter().map(|v| format!("?{}", v.as_str())).collect();
                    let _ = writeln!(out, "{}", header.join("\t"));
                    for s in solutions {
                        let row: Vec<String> = vars
                            .iter()
                            .map(|v| s.get(v).map(Term::to_string).unwrap_or_default())
                            .collect();
                        let _ = writeln!(out, "{}", row.join("\t"));
                    }
                    out
                }
            }
        }
    }

    /// The characters an escaper replaces, in one format or another.
    const SPECIAL: [char; 14] =
        ['"', '\\', '\n', '\r', '\t', '&', '<', '>', '\0', '\u{1}', '\u{8}', '\u{b}', '\u{c}', '\u{1f}'];

    /// Strings of up to about 40 bytes, mostly ASCII: over everything an
    /// escaper replaces beside plain, other control and non-ASCII
    /// characters, and a lone special character after a plain run of any
    /// length, so that the word test meets one at every offset of an
    /// eight-byte word and in the padded last word.
    fn arb_text() -> impl Strategy<Value = String> {
        let other = ['\'', '/', ' ', '\u{7f}', 'é', 'İ', '中', '\u{2028}', '🦀'];
        let ch = prop_oneof![
            12 => (b'a'..=b'z').prop_map(char::from),
            2 => proptest::sample::select(&SPECIAL[..]),
            1 => proptest::sample::select(&other[..]),
        ];
        let mixed = proptest::collection::vec(ch, 0..40).prop_map(|cs| cs.into_iter().collect());
        let lone = (0usize..40, proptest::sample::select(&SPECIAL[..]), 0usize..9).prop_map(
            |(before, c, after)| {
                let mut s = "p".repeat(before);
                s.push(c);
                s.push_str(&"q".repeat(after));
                s
            },
        );
        prop_oneof![3 => mixed, 1 => lone]
    }

    fn arb_term() -> impl Strategy<Value = Term> {
        prop_oneof![
            arb_text().prop_map(|s| Term::Iri(Iri::new_unchecked(s))),
            arb_text().prop_map(|s| Term::Blank(rdfmesh_rdf::BlankNode::new_unchecked(s))),
            arb_text().prop_map(|s| Term::Literal(Literal::plain(s))),
            (arb_text(), arb_text()).prop_map(|(s, tag)| Term::Literal(Literal::lang(s, tag))),
            (arb_text(), arb_text())
                .prop_map(|(s, dt)| Term::Literal(Literal::typed(s, Iri::new_unchecked(dt)))),
        ]
    }

    /// A variable name every format escapes.
    const ESCAPED_NAME: &str = "e\"&<\\\u{1}>";

    /// Batches over a few variable names — one of them always
    /// [`ESCAPED_NAME`], some others needing escapes too — each row
    /// binding its own subset in its own order, so columns come in no
    /// name order, domains differ and repeat, and a header variable may be
    /// bound by no row at all. The cells are drawn from a small pool of
    /// terms per batch, so one term fills several columns and rows that
    /// are not neighbours.
    fn arb_batch() -> impl Strategy<Value = Rows> {
        let names = proptest::collection::vec(arb_text(), 1..4);
        let pool = proptest::collection::vec(arb_term(), 1..6);
        (names, pool).prop_flat_map(|(names, pool)| {
            let names: Vec<String> = ["x", "n", ESCAPED_NAME]
                .into_iter()
                .map(String::from)
                .chain(names)
                .collect();
            let cell = (proptest::sample::select(&names[..]), 0..pool.len());
            let row = proptest::collection::vec(cell, 0..5);
            // Runs of one row repeated: neighbours with equal domains.
            let runs = proptest::collection::vec((row, 1usize..4), 0..8);
            let unbound = proptest::collection::vec(proptest::sample::select(&names[..]), 0..2);
            (unbound, runs).prop_map(move |(unbound, runs)| {
                let mut header: Vec<Variable> = Vec::new();
                for v in unbound.into_iter().map(Variable::new) {
                    if !header.contains(&v) {
                        header.push(v);
                    }
                }
                let mut rows = Rows::with_vars(header);
                for (row, n) in runs {
                    let row: Vec<(Variable, Term)> =
                        row.into_iter().map(|(v, t)| (Variable::new(v), pool[t].clone())).collect();
                    for _ in 0..n {
                        rows.push_bindings(row.iter().map(|(v, t)| (v, t)));
                    }
                }
                rows
            })
        })
    }

    fn arb_result() -> impl Strategy<Value = QueryResult> {
        let triple =
            (arb_term(), arb_term(), arb_term()).prop_map(|(s, p, o)| Triple::new(s, p, o));
        prop_oneof![
            6 => arb_batch().prop_map(|rows| QueryResult::Solutions(rows.into())),
            1 => any::<bool>().prop_map(QueryResult::Boolean),
            1 => proptest::collection::vec(triple, 0..4).prop_map(QueryResult::Graph),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn every_format_is_byte_identical_to_its_oracle(result in arb_result()) {
            prop_assert_eq!(to_json(&result), oracle::to_json(&result));
            prop_assert_eq!(to_xml(&result), oracle::to_xml(&result));
            prop_assert_eq!(to_tsv(&result), oracle::to_tsv(&result));
        }
    }

    #[test]
    fn the_empty_result_matches_its_oracle() {
        let empty = QueryResult::Solutions(Rows::new().into());
        assert_eq!(to_json(&empty), "{\"head\":{\"vars\":[]},\"results\":{\"bindings\":[]}}");
        assert_eq!(to_json(&empty), oracle::to_json(&empty));
        assert_eq!(to_xml(&empty), oracle::to_xml(&empty));
        assert_eq!(to_tsv(&empty), oracle::to_tsv(&empty));
        // The unit solution: one row, no cell, no variable.
        let unit = QueryResult::Solutions(Rows::unit().into());
        assert_eq!(to_json(&unit), "{\"head\":{\"vars\":[]},\"results\":{\"bindings\":[{}]}}");
        assert_eq!(to_json(&unit), oracle::to_json(&unit));
        assert_eq!(to_xml(&unit), oracle::to_xml(&unit));
        assert_eq!(to_tsv(&unit), oracle::to_tsv(&unit));
    }

    #[test]
    fn a_long_uniform_result_is_written_without_regrowing() {
        let rows: Vec<Solution> = (0..2000)
            .map(|i| {
                Solution::from_pairs([(
                    Variable::new("x"),
                    Term::iri(&format!("http://example.org/department{}/student{}", i % 7, i)),
                )])
            })
            .collect();
        let result = QueryResult::Solutions(rows.into());
        for (written, expected) in [
            (to_json(&result), oracle::to_json(&result)),
            (to_xml(&result), oracle::to_xml(&result)),
            (to_tsv(&result), oracle::to_tsv(&result)),
        ] {
            assert_eq!(written, expected);
            // Reserved from the first (shortest) row plus an eighth: the
            // buffer was sized once, not doubled past the document.
            assert!(written.capacity() < written.len() + written.len() / 4, "{}", written.len());
        }
    }

    #[test]
    fn a_long_result_over_few_terms_is_written_without_regrowing() {
        let (x, y) = (Variable::new("x"), Variable::new("y"));
        // Students and courses, as `?s ub:takesCourse ?c` binds them: rows
        // alike in length, as the writers' sizing rule expects.
        let terms: Vec<Term> = (0..50)
            .map(|i| {
                let kind = if i % 2 == 0 { "student" } else { "course" };
                Term::iri(&format!("http://example.org/univ/dept{}/{kind}{i}", i % 7))
            })
            .collect();
        let mut rows = Rows::with_vars(vec![x.clone(), y.clone()]);
        for i in 0..10_000 {
            rows.push_bindings([(&x, &terms[i % 50]), (&y, &terms[(i * 7 + 3) % 50])]);
        }
        let result = QueryResult::Solutions(rows.into());
        for (written, expected) in [
            (to_json(&result), oracle::to_json(&result)),
            (to_xml(&result), oracle::to_xml(&result)),
            (to_tsv(&result), oracle::to_tsv(&result)),
        ] {
            assert_eq!(written, expected);
            assert!(written.capacity() < written.len() + written.len() / 4, "{}", written.len());
        }
    }

    #[test]
    fn the_word_tests_find_a_special_byte_at_every_offset() {
        for len in 0..24 {
            for at in 0..len {
                for &c in &SPECIAL {
                    let mut s = "a".repeat(len);
                    s.replace_range(at..at + 1, &c.to_string());
                    let (mut json, mut xml) = (String::new(), String::new());
                    push_json_escaped(&mut json, &s);
                    push_xml_escaped(&mut xml, &s);
                    let escapes = |out: &str| out.len() != s.len();
                    assert_eq!(escapes(&json), matches!(c, '"' | '\\') || c < ' ', "{s:?}");
                    assert_eq!(escapes(&xml), matches!(c, '"' | '&' | '<' | '>'), "{s:?}");
                }
            }
        }
    }

    fn sols() -> QueryResult {
        QueryResult::Solutions(Selection::from(vec![
            Solution::from_pairs([
                (Variable::new("x"), Term::iri("http://e/a")),
                (Variable::new("n"), Term::Literal(Literal::lang("Ann \"A\"", "en"))),
            ]),
            Solution::from_pairs([
                (Variable::new("x"), Term::blank("b0")),
                (Variable::new("age"), Term::Literal(Literal::integer(30))),
            ]),
        ]))
    }

    #[test]
    fn json_select_structure() {
        let j = to_json(&sols());
        assert!(j.starts_with("{\"head\":{\"vars\":["));
        assert!(j.contains("\"type\":\"uri\",\"value\":\"http://e/a\""));
        assert!(j.contains("\"xml:lang\":\"en\""));
        assert!(j.contains("\\\"A\\\"")); // escaped quotes in the literal
        assert!(j.contains("\"type\":\"bnode\",\"value\":\"b0\""));
        assert!(j.contains("XMLSchema#integer"));
    }

    #[test]
    fn json_ask() {
        assert_eq!(to_json(&QueryResult::Boolean(true)), "{\"head\":{},\"boolean\":true}");
    }

    #[test]
    fn json_control_characters_escape() {
        let r = QueryResult::Solutions(Selection::from(vec![Solution::from_pairs([(
            Variable::new("v"),
            Term::literal("a\nb\u{1}c"),
        )])]));
        let j = to_json(&r);
        assert!(j.contains("a\\nb\\u0001c"));
    }

    #[test]
    fn xml_select_structure() {
        let x = to_xml(&sols());
        assert!(x.contains("<variable name=\"x\"/>"));
        assert!(x.contains("<uri>http://e/a</uri>"));
        assert!(x.contains("xml:lang=\"en\""));
        assert!(x.contains("&quot;A&quot;"));
        assert!(x.contains("<bnode>b0</bnode>"));
        assert!(x.matches("<result>").count() == 2);
    }

    #[test]
    fn xml_ask() {
        let x = to_xml(&QueryResult::Boolean(false));
        assert!(x.contains("<boolean>false</boolean>"));
    }

    #[test]
    fn tsv_rows_align_with_header() {
        let t = to_tsv(&sols());
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        let cols = lines[0].split('\t').count();
        for l in &lines[1..] {
            assert_eq!(l.split('\t').count(), cols, "{l}");
        }
        // Unbound cells are empty.
        assert!(lines[1].split('\t').any(str::is_empty) || lines[2].split('\t').any(str::is_empty));
    }

    #[test]
    fn graph_results_fall_back_to_ntriples() {
        let g = QueryResult::Graph(vec![Triple::new(
            Term::iri("http://e/s"),
            Term::iri("http://e/p"),
            Term::literal("v"),
        )]);
        let t = to_tsv(&g);
        assert!(t.contains("<http://e/s> <http://e/p> \"v\" ."));
        let j = to_json(&g);
        assert!(j.starts_with("{\"triples\":"));
        // JSON-escaped N-Triples must round-trip the quote escapes.
        assert!(j.contains("\\\"v\\\""));
    }

    #[test]
    fn head_variables_in_first_appearance_order() {
        let QueryResult::Solutions(s) = sols() else { unreachable!() };
        let head = head_variables(s.rows());
        let vars: Vec<&str> = head.iter().map(|v| v.as_str()).collect();
        // Solution iteration is alphabetical within a solution: n, x, age.
        assert_eq!(vars, ["n", "x", "age"]);
    }
}
