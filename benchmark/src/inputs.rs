//! Workload definitions and everything generated from `--seed`: the
//! corpus (one N-Triples file per process), the query pool, and the
//! oracle's answer to every pool query.
//!
//! The program under test receives only the generated files and HTTP
//! requests; the oracle is a central [`TripleStore`] over the whole
//! corpus evaluated with `evaluate_query`, never the mesh.

use std::path::{Path, PathBuf};

use rdfmesh::rdf::{write_document, Triple, TripleStore};
use rdfmesh::sparql::{eval::evaluate_query, parse_query, to_json};
use rdfmesh::workload::university::{department_triples, UniversityConfig};
use rdfmesh::workload::Rng;

/// Processes in every mesh.
pub const PROCESSES: usize = 4;

const PROFESSORS: usize = 10;
const STUDENTS: usize = 200;
const COURSES_PER_PROFESSOR: usize = 2;
const COURSES: usize = PROFESSORS * COURSES_PER_PROFESSOR;

/// Departments per process. Corpus S is ≈ 10 k triples in all, corpus L
/// ≈ 200 k: 50 k per process, 49 blocks per segment permutation. That is
/// as large as three timed set-ups per run leave room for, and still
/// inside the store's 64-block cache per open segment.
const DEPARTMENTS_S: usize = 2;
const DEPARTMENTS_L: usize = 40;
const DEPARTMENTS_L_QUICK: usize = 10;

const PREFIX: &str = "PREFIX ub: <http://example.org/univ#>";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Point,
    Scan,
    Join,
    DurableFilter,
}

/// One workload. `name` and the reason it exists are declared in
/// `BENCHMARK.json`; this is how it runs.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Corpus L (`true`) or S.
    pub large: bool,
    /// Every process on `--store-dir`, bulk-loaded at start-up.
    pub durable: bool,
    /// Closed-loop client threads (at most `nproc`, which is 2 here).
    pub clients: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "point_c2",
        kind: Kind::Point,
        large: true,
        durable: false,
        clients: 2,
    },
    Workload {
        name: "scan_gather",
        kind: Kind::Scan,
        large: false,
        durable: false,
        clients: 1,
    },
    Workload {
        name: "bind_join",
        kind: Kind::Join,
        large: false,
        durable: false,
        clients: 1,
    },
    Workload {
        name: "durable_filter",
        kind: Kind::DurableFilter,
        large: true,
        durable: true,
        clients: 1,
    },
];

/// One distinct query and the oracle's answer to it.
pub struct PoolQuery {
    pub text: String,
    /// The oracle's binding rows as JSON objects, sorted — compared
    /// order-insensitively with what the mesh returns.
    pub expected: Vec<String>,
}

pub struct Inputs {
    pub workload: Workload,
    /// `benchmark/out/<workload>/`: the `.nt` files and `queries.txt`,
    /// kept so a run can be replayed.
    pub dir: PathBuf,
    /// One N-Triples file per process.
    pub files: Vec<PathBuf>,
    pub triples: usize,
    /// The distinct queries, in the order the closed loop cycles through
    /// them (request `i` sends `pool[i % pool.len()]`). A fixed cycle
    /// keeps every window's mix identical, so percentiles sit inside one
    /// query class and not on the border between two.
    pub pool: Vec<PoolQuery>,
}

fn department_config(seed: u64) -> UniversityConfig {
    UniversityConfig {
        departments: 0, // unused by `department_triples`
        professors_per_department: PROFESSORS,
        students_per_department: STUDENTS,
        courses_per_professor: COURSES_PER_PROFESSOR,
        courses_per_student: 3,
        seed,
    }
}

fn entity(kind: &str, dept: u64, i: u64) -> String {
    format!("<http://example.org/univ/d{dept}/{kind}{i}>")
}

/// The query texts of one workload, drawn from `rng`. `per_process` is
/// the number of departments each process holds.
///
/// What the seed picks is *which* entity a query names, never how the
/// work is spread: entity draws rotate over the four processes, so every
/// seed sends the same share of lookups to data held by the process that
/// also coordinates the query.
fn queries(kind: Kind, per_process: u64, rng: &mut Rng) -> Vec<String> {
    let select = |vars: &str, body: String| format!("{PREFIX} SELECT {vars} WHERE {{ {body} }}");
    let mut turn = 0u64;
    let mut dept = |rng: &mut Rng| {
        turn += 1;
        (turn % PROCESSES as u64) * per_process + rng.below(per_process)
    };
    match kind {
        // Bound-subject lookups, 1–2 rows, 1–2 rounds: two one-round
        // templates and one two-round template in equal shares.
        Kind::Point => (0..128)
            .flat_map(|_| {
                let student = entity("student", dept(rng), rng.below(STUDENTS as u64));
                let other = entity("student", dept(rng), rng.below(STUDENTS as u64));
                let prof = entity("prof", dept(rng), rng.below(PROFESSORS as u64));
                [
                    select("?d", format!("{student} ub:memberOf ?d")),
                    select(
                        "?a ?d",
                        format!("{other} ub:advisor ?a . ?a ub:worksFor ?d"),
                    ),
                    select("?c", format!("{prof} ub:teacherOf ?c")),
                ]
            })
            .collect(),
        // Unselective single patterns: every provider answers, 1.6 k to
        // 4.7 k rows come back.
        Kind::Scan => vec![
            select("?x", "?x rdf:type ub:Student".into()),
            select("?s ?c", "?s ub:takesCourse ?c".into()),
            select("?s ?d", "?s ub:memberOf ?d".into()),
        ],
        // Multi-pattern queries with large intermediates. The star's
        // department is always held by a process other than the
        // coordinator, so its rows cross the wire on every seed.
        Kind::Join => {
            let remote = per_process + rng.below(per_process * (PROCESSES as u64 - 1));
            let star = entity("dept", remote, 0);
            vec![
                select("?s ?p ?d", "?s ub:advisor ?p . ?p ub:worksFor ?d".into()),
                select(
                    "?s ?c ?p",
                    "?s ub:takesCourse ?c . ?p ub:teacherOf ?c . ?s ub:advisor ?p".into(),
                ),
                select(
                    "?s ?c ?k",
                    format!("?s ub:memberOf {star} . ?s ub:takesCourse ?c . ?c ub:credits ?k"),
                ),
                select(
                    "?s ?p ?c",
                    "?s ub:advisor ?p . OPTIONAL { ?p ub:teacherOf ?c }".into(),
                ),
                select(
                    "?x ?d",
                    "{ ?x ub:worksFor ?d } UNION { ?x ub:memberOf ?d }".into(),
                ),
            ]
        }
        // Provider-side filtered scans (every `credits` / `advisor` key
        // read, a handful of rows shipped) and random bound-object
        // lookups, one third each. Eight distinct scans of each kind
        // come round four times: they cost the same whatever they name,
        // and set-up checks each distinct query against the oracle.
        Kind::DurableFilter => {
            let scans: Vec<(u64, u64, u64)> = (0..8)
                .map(|_| {
                    // Department ids are not zero-padded, so `d{tens}[0-9]`
                    // names the ten departments 10·tens … 10·tens+9. They
                    // are drawn from those the coordinating process does
                    // not hold, so the matching rows cross the wire on
                    // every seed.
                    let lo = per_process.div_ceil(10).max(1);
                    let hi = (PROCESSES as u64 * per_process / 10 - 1).min(9);
                    let tens = lo + rng.below(hi - lo + 1);
                    (tens, rng.below(COURSES as u64), rng.below(STUDENTS as u64))
                })
                .collect();
            (0..32)
                .flat_map(|i| {
                    let course = entity("course", dept(rng), rng.below(COURSES as u64));
                    let (tens, c, s) = scans[i % scans.len()];
                    [
                        select(
                            "?c ?k",
                            format!(
                                "?c ub:credits ?k \
                                 FILTER(?k >= 1 && regex(str(?c), \"/d{tens}[0-9]/course{c}$\"))"
                            ),
                        ),
                        select(
                            "?s ?a",
                            format!(
                                "?s ub:advisor ?a \
                                 FILTER regex(str(?s), \"/d{tens}[0-9]/student{s}$\")"
                            ),
                        ),
                        select("?s", format!("?s ub:takesCourse {course}")),
                    ]
                })
                .collect()
        }
    }
}

/// Walks the `"bindings"` array of a SPARQL JSON results document and
/// calls `on_row` with the byte range of each row object. `None` when the
/// document has no such array or ends inside it.
fn for_each_binding_row(json: &[u8], mut on_row: impl FnMut(std::ops::Range<usize>)) -> Option<()> {
    const MARK: &[u8] = b"\"bindings\":[";
    let start = json.windows(MARK.len()).position(|w| w == MARK)? + MARK.len();
    let (mut depth, mut row_start, mut in_string, mut escaped) = (0usize, 0usize, false, false);
    for (i, b) in json.iter().enumerate().skip(start) {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => {
                if depth == 0 {
                    row_start = i;
                }
                depth += 1;
            }
            b'}' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    on_row(row_start..i + 1);
                }
            }
            b']' if depth == 0 => return Some(()),
            _ => {}
        }
    }
    None
}

/// The binding rows of a SPARQL JSON results document as sorted strings,
/// so two documents compare independent of solution order.
pub fn binding_rows(json: &str) -> Option<Vec<String>> {
    let mut rows = Vec::new();
    for_each_binding_row(json.as_bytes(), |row| rows.push(json[row].to_string()))?;
    rows.sort();
    Some(rows)
}

/// [`binding_rows`]`.len()` without building the rows — the check every
/// timed request gets.
pub fn count_binding_rows(json: &[u8]) -> Option<usize> {
    let mut rows = 0;
    for_each_binding_row(json, |_| rows += 1)?;
    Some(rows)
}

impl Inputs {
    /// The pool without repeats: each distinct query once, in pool order.
    pub fn distinct(&self) -> impl Iterator<Item = &PoolQuery> {
        let mut seen = std::collections::HashSet::new();
        self.pool
            .iter()
            .filter(move |q| seen.insert(q.text.as_str()))
    }

    /// Generates corpus, pool and oracle answers for `workload` under
    /// `out_root/<workload>/`. The same seed gives the same bytes.
    pub fn generate(
        workload: Workload,
        seed: u64,
        quick: bool,
        out_root: &Path,
    ) -> Result<Inputs, String> {
        let per_process = match (workload.large, quick) {
            (false, _) => DEPARTMENTS_S,
            (true, false) => DEPARTMENTS_L,
            (true, true) => DEPARTMENTS_L_QUICK,
        };
        let dir = out_root.join(workload.name);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let cfg = department_config(seed);
        let mut oracle = TripleStore::new();
        let mut files = Vec::new();
        for p in 0..PROCESSES {
            let triples: Vec<Triple> = (p * per_process..(p + 1) * per_process)
                .flat_map(|d| department_triples(&cfg, d))
                .collect();
            for t in &triples {
                oracle.insert(t);
            }
            let path = dir.join(format!("process{}.nt", p + 1));
            std::fs::write(&path, write_document(&triples))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            files.push(path);
        }

        // The query stream has its own generator, so the corpus for a
        // seed does not depend on how many draws the queries take.
        let mut rng = Rng::new(seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut pool: Vec<PoolQuery> = Vec::new();
        for text in queries(workload.kind, per_process as u64, &mut rng) {
            // A query that comes round again is evaluated once.
            let expected = match pool.iter().find(|q| q.text == text) {
                Some(earlier) => earlier.expected.clone(),
                None => {
                    let parsed = parse_query(&text).map_err(|e| format!("{text}: {e}"))?;
                    binding_rows(&to_json(&evaluate_query(&oracle, &parsed)))
                        .ok_or_else(|| format!("{text}: oracle result has no bindings"))?
                }
            };
            pool.push(PoolQuery { text, expected });
        }
        let listing: String = pool.iter().map(|q| format!("{}\n", q.text)).collect();
        std::fs::write(dir.join("queries.txt"), listing).map_err(|e| e.to_string())?;
        Ok(Inputs {
            workload,
            dir,
            files,
            triples: oracle.len(),
            pool,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"{"head":{"vars":["a","b"]},"results":{"bindings":[{"b":{"type":"literal","value":"x}]{\"y"},"a":{"type":"uri","value":"http://e/2"}},{"a":{"type":"uri","value":"http://e/1"}}]},"rdfmesh":{"complete":true}}"#;

    #[test]
    fn rows_are_split_at_depth_one_and_sorted() {
        let rows = binding_rows(DOC).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].starts_with(r#"{"a":{"type":"uri","value":"http://e/1"}"#));
        assert!(
            rows[1].contains(r#"x}]{\"y"#),
            "braces inside strings do not split rows"
        );
        assert_eq!(count_binding_rows(DOC.as_bytes()), Some(2));
    }

    #[test]
    fn empty_and_missing_binding_arrays() {
        let empty = r#"{"head":{"vars":[]},"results":{"bindings":[]}}"#;
        assert_eq!(binding_rows(empty), Some(vec![]));
        assert_eq!(count_binding_rows(empty.as_bytes()), Some(0));
        assert_eq!(binding_rows(r#"{"head":{},"boolean":true}"#), None);
        assert_eq!(
            count_binding_rows(br#"{"results":{"bindings":[{"a":1}"#),
            None
        );
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_every_query_has_rows() {
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        for workload in WORKLOADS {
            let a = Inputs::generate(workload, 7, true, &out.join("a")).unwrap();
            let b = Inputs::generate(workload, 7, true, &out.join("b")).unwrap();
            assert_eq!(a.pool.len(), b.pool.len());
            for (qa, qb) in a.pool.iter().zip(&b.pool) {
                assert_eq!(qa.text, qb.text);
                assert_eq!(qa.expected, qb.expected);
                assert!(!qa.expected.is_empty(), "{} matches nothing", qa.text);
            }
            for (fa, fb) in a.files.iter().zip(&b.files) {
                assert_eq!(std::fs::read(fa).unwrap(), std::fs::read(fb).unwrap());
            }
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}
