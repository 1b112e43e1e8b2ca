//! Serialization of query results in the W3C exchange formats.
//!
//! Nodes in the data sharing system are heterogeneous; results crossing
//! system boundaries need standard encodings. Implements the SPARQL
//! Query Results JSON and XML formats plus tab-separated values for
//! SELECT/ASK, and N-Triples for CONSTRUCT/DESCRIBE graphs — all
//! hand-rolled (the sanctioned dependency list carries no serde_json).
//!
//! Each format is one writer into one `String`: every name and value is
//! escaped straight into the document (`push_escaped`; a TSV cell is
//! the term's own N-Triples `Display`), which is sized from its first
//! row (`push_rows`). A SELECT document is written from the finished
//! id-row batch ([`Rows`]): the header from the columns some row binds,
//! and each row's bound cells in variable-name order — the order a
//! `Solution` iterates its bindings in — with each term read from the
//! batch's dictionary.

use std::fmt::Write as _;

use rdfmesh_rdf::{LiteralKind, Term, Variable};

use crate::answer::QueryResult;
use crate::rows::{Row, Rows};

/// The variables bound anywhere in the batch, in first-appearance order
/// — each row's in variable-name order, as its [`Solution`] iterates
/// them: the result header.
///
/// [`Solution`]: crate::Solution
pub fn head_variables(rows: &Rows) -> Vec<Variable> {
    let head = head_columns(rows, &rows.columns_by_name());
    head.into_iter().map(|c| rows.vars()[c].clone()).collect()
}

/// [`head_variables`] as columns, given the columns in name order.
fn head_columns(rows: &Rows, by_name: &[usize]) -> Vec<usize> {
    let mut head = Vec::new();
    let mut seen = vec![false; by_name.len()];
    for row in rows.iter() {
        if head.len() == seen.len() {
            break;
        }
        for (c, _) in row.bound_in(by_name) {
            if !seen[c] {
                seen[c] = true;
                head.push(c);
            }
        }
    }
    head
}

/// Appends `s` to `out` with each byte `replacement` names replaced.
/// Clean runs are copied whole. Only ASCII bytes may be replaced, so
/// every cut falls on a character boundary.
fn push_escaped(out: &mut String, s: &str, replacement: impl Fn(u8) -> Option<&'static str>) {
    let mut clean = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if let Some(r) = replacement(b) {
            out.push_str(&s[clean..i]);
            out.push_str(r);
            clean = i + 1;
        }
    }
    out.push_str(&s[clean..]);
}

/// Writes each of `items` with `item`, `separator` between two.
fn push_separated<T>(
    out: &mut String,
    separator: &str,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    for (i, it) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(separator);
        }
        item(out, it);
    }
}

/// Writes each row with `row`, `between` between two. Once the first row
/// is written, reserves its size and an eighth for each of the rest: rows
/// of one result are alike, so the document rarely regrows.
fn push_rows(
    out: &mut String,
    rows: &Rows,
    between: &str,
    mut row: impl FnMut(&mut String, Row<'_>),
) {
    push_separated(out, between, rows.iter().enumerate(), |out, (i, r)| {
        let start = out.len();
        row(out, r);
        if i == 0 {
            let first = out.len() - start + between.len();
            out.reserve((first + first / 8) * (rows.len() - 1));
        }
    });
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
    push_escaped(out, s, |b| match b {
        b'"' => Some("\\\""),
        b'\\' => Some("\\\\"),
        0..0x20 => Some(JSON_CONTROL[usize::from(b)]),
        _ => None,
    });
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
        QueryResult::Solutions(selection) => {
            let rows = selection.rows();
            let by_name = rows.columns_by_name();
            let mut out = String::from("{\"head\":{\"vars\":[");
            push_separated(&mut out, ",", head_columns(rows, &by_name), |out, c| {
                json_string(out, rows.vars()[c].as_str());
            });
            out.push_str("]},\"results\":{\"bindings\":[");
            push_rows(&mut out, rows, ",", |out, row| {
                out.push('{');
                push_separated(out, ",", row.bound_in(&by_name), |out, (c, t)| {
                    json_string(out, rows.vars()[c].as_str());
                    out.push(':');
                    json_term(out, t);
                });
                out.push('}');
            });
            out.push_str("]}}");
            out
        }
        QueryResult::Graph(triples) => {
            let mut out = String::from("{\"triples\":");
            json_string(&mut out, &rdfmesh_rdf::write_document(triples));
            out.push('}');
            out
        }
    }
}

fn push_xml_escaped(out: &mut String, s: &str) {
    push_escaped(out, s, |b| match b {
        b'&' => Some("&amp;"),
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'"' => Some("&quot;"),
        _ => None,
    });
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
        QueryResult::Solutions(selection) => {
            let rows = selection.rows();
            let by_name = rows.columns_by_name();
            let mut out = String::from(XML_PROLOGUE);
            out.push_str("  <head>\n");
            for c in head_columns(rows, &by_name) {
                out.push_str("    <variable name=\"");
                push_xml_escaped(&mut out, rows.vars()[c].as_str());
                out.push_str("\"/>\n");
            }
            out.push_str("  </head>\n  <results>\n");
            push_rows(&mut out, rows, "", |out, row| {
                out.push_str("    <result>\n");
                for (c, t) in row.bound_in(&by_name) {
                    out.push_str("      <binding name=\"");
                    push_xml_escaped(out, rows.vars()[c].as_str());
                    out.push_str("\">");
                    xml_term(out, t);
                    out.push_str("</binding>\n");
                }
                out.push_str("    </result>\n");
            });
            out.push_str("  </results>\n</sparql>\n");
            out
        }
    }
}

/// Serializes SELECT results as tab-separated values with a `?var`
/// header row; ASK yields `true`/`false`, graphs yield N-Triples.
pub fn to_tsv(result: &QueryResult) -> String {
    match result {
        QueryResult::Boolean(b) => String::from(if *b { "true\n" } else { "false\n" }),
        QueryResult::Graph(triples) => rdfmesh_rdf::write_document(triples),
        QueryResult::Solutions(selection) => {
            let rows = selection.rows();
            let head = head_columns(rows, &rows.columns_by_name());
            let mut out = String::new();
            push_separated(&mut out, "\t", &head, |out, &c| {
                out.push('?');
                out.push_str(rows.vars()[c].as_str());
            });
            out.push('\n');
            push_rows(&mut out, rows, "", |out, row| {
                push_separated(out, "\t", &head, |out, &c| {
                    // A cell is the term as N-Triples writes it.
                    if let Some(t) = row.at(c) {
                        let _ = write!(out, "{t}");
                    }
                });
                out.push('\n');
            });
            out
        }
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

    /// Strings over everything an escaper treats specially — in any of
    /// the three formats — beside plain, control and non-ASCII characters.
    fn arb_text() -> impl Strategy<Value = String> {
        let chars = [
            'a', 'Z', '7', ' ', '"', '\\', '\n', '\r', '\t', '&', '<', '>', '\'', '/', '\0',
            '\u{1}', '\u{8}', '\u{b}', '\u{c}', '\u{1f}', '\u{7f}', 'é', 'İ', '中', '\u{2028}',
            '🦀',
        ];
        proptest::collection::vec(proptest::sample::select(&chars[..]), 0..8)
            .prop_map(|cs| cs.into_iter().collect())
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

    /// Batches over a few variable names — some needing escapes
    /// themselves — each row binding its own subset in its own order, so
    /// columns come in no name order, domains differ and repeat, and a
    /// header variable may be bound by no row at all.
    fn arb_batch() -> impl Strategy<Value = Rows> {
        let names = proptest::collection::vec(arb_text(), 1..4);
        names.prop_flat_map(|names| {
            let names: Vec<String> =
                ["x".to_string(), "n".to_string()].into_iter().chain(names).collect();
            let cell = (proptest::sample::select(&names[..]), arb_term());
            let row = proptest::collection::vec(cell, 0..5);
            // Runs of one row repeated: neighbours with equal domains.
            let runs = proptest::collection::vec((row, 1usize..4), 0..6);
            let unbound = proptest::collection::vec(proptest::sample::select(&names[..]), 0..2);
            (unbound, runs).prop_map(|(unbound, runs)| {
                let mut header: Vec<Variable> = Vec::new();
                for v in unbound.into_iter().map(Variable::new) {
                    if !header.contains(&v) {
                        header.push(v);
                    }
                }
                let mut rows = Rows::with_vars(header);
                for (row, n) in runs {
                    let row: Vec<(Variable, Term)> =
                        row.into_iter().map(|(v, t)| (Variable::new(v), t)).collect();
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
