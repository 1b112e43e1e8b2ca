//! Solution mappings and the algebra over sets of them.
//!
//! Implements the semantics of Pérez, Arenas & Gutierrez that the paper
//! adopts in Sect. IV-A: a solution `µ` is a partial function from
//! variables to RDF terms; two solutions are *compatible* if every shared
//! variable is bound to the same term; and sets of solutions compose via
//! join (`⋈`), union (`∪`), difference (`−`) and left outer join (`⟕`).
//!
//! The operators are written once, over id-row batches
//! ([`crate::rows::Rows`]), which is what the distributed engine carries
//! from a frame to `finalize`. The functions here ([`join`],
//! [`difference`], [`left_join`], [`left_join_filtered`], [`distinct`])
//! are their [`Solution`] forms: the operands become batches, the batch
//! operator runs, and its rows become solutions again. [`naive`] is the
//! literal nested-loop transcription of the paper's definitions, kept as
//! the oracle the batch operators are property-tested against — same rows,
//! same order (`tests/hash_algebra.rs`).

use std::fmt;

use rdfmesh_rdf::{Term, Variable};

use crate::rows::Rows;

/// A solution mapping `µ : V → U` (partial).
///
/// Backed by `(variable, term)` pairs sorted by variable, one per
/// variable, so that solutions have a canonical form, which makes
/// `DISTINCT`, set difference and test assertions deterministic — and a
/// solution costs its bindings, not a map node. Its order, equality and
/// `Debug` text are those of a map from variable to term (the execution
/// golden digests the `Debug` text).
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Solution {
    bindings: Vec<(Variable, Term)>,
}

impl Solution {
    /// The empty solution `µ0` (defined on no variables).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a solution from `(variable, term)` pairs; of two pairs for
    /// one variable, the later wins.
    pub fn from_pairs<I>(pairs: I) -> Self
    where
        I: IntoIterator<Item = (Variable, Term)>,
    {
        let mut bindings: Vec<(Variable, Term)> = pairs.into_iter().collect();
        bindings.sort_by(|a, b| a.0.cmp(&b.0));
        bindings.dedup_by(|later, earlier| {
            let same = later.0 == earlier.0;
            if same {
                std::mem::swap(later, earlier);
            }
            same
        });
        Solution { bindings }
    }

    /// A solution from pairs already sorted by variable, one per variable.
    pub(crate) fn from_sorted(bindings: Vec<(Variable, Term)>) -> Self {
        debug_assert!(bindings.windows(2).all(|w| w[0].0 < w[1].0));
        Solution { bindings }
    }

    fn position(&self, var: &Variable) -> Result<usize, usize> {
        self.bindings.binary_search_by(|(v, _)| v.cmp(var))
    }

    /// The term bound to `var`, if any.
    pub fn get(&self, var: &Variable) -> Option<&Term> {
        self.position(var).ok().map(|i| &self.bindings[i].1)
    }

    /// The term bound to the variable named `name`, if any.
    pub fn get_by_name(&self, name: &str) -> Option<&Term> {
        self.get(&Variable::new(name))
    }

    /// Binds `var` to `term`. Returns `false` (and leaves the solution
    /// unchanged) if `var` is already bound to a different term.
    pub fn bind(&mut self, var: Variable, term: Term) -> bool {
        match self.position(&var) {
            Ok(i) => self.bindings[i].1 == term,
            Err(i) => {
                self.bindings.insert(i, (var, term));
                true
            }
        }
    }

    /// The domain `dom(µ)` — the variables on which this solution is
    /// defined.
    pub fn domain(&self) -> impl Iterator<Item = &Variable> {
        self.bindings.iter().map(|(v, _)| v)
    }

    /// Iterates over `(variable, term)` bindings in variable order.
    pub fn iter(&self) -> impl Iterator<Item = (&Variable, &Term)> + Clone {
        self.bindings.iter().map(|(v, t)| (v, t))
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// True if no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Compatibility: `µ1` and `µ2` are compatible when every variable in
    /// both domains maps to the same term.
    pub fn compatible(&self, other: &Solution) -> bool {
        // Iterate the smaller solution for speed.
        let (small, large) = if self.len() <= other.len() { (self, other) } else { (other, self) };
        small.iter().all(|(v, t)| large.get(v).is_none_or(|u| u == t))
    }

    /// `µ1 ∪ µ2` for compatible solutions; `None` if incompatible.
    pub fn merge(&self, other: &Solution) -> Option<Solution> {
        if !self.compatible(other) {
            return None;
        }
        let mut merged = self.clone();
        for (v, t) in other.iter() {
            if let Err(i) = merged.position(v) {
                merged.bindings.insert(i, (v.clone(), t.clone()));
            }
        }
        Some(merged)
    }

    /// Restricts the solution to the given variables (projection).
    pub fn project(&self, vars: &[Variable]) -> Solution {
        let kept = self.bindings.iter().filter(|(v, _)| vars.contains(v));
        Solution { bindings: kept.cloned().collect() }
    }

    /// Serialized size in bytes when shipped between sites: each binding
    /// costs `?name` + one separator + the N-Triples form of the term,
    /// plus a two-byte record frame. This is the unit in which the paper's
    /// "total amount of intersite data transmission" is accounted.
    pub fn serialized_len(&self) -> usize {
        2 + self.iter().map(|(v, t)| v.as_str().len() + 2 + t.serialized_len()).sum::<usize>()
    }
}

/// `Solution { bindings: {Variable("x"): …} }`, the pairs printed as a map.
impl fmt::Debug for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Map<'a>(&'a Solution);
        impl fmt::Debug for Map<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("Solution").field("bindings", &Map(self)).finish()
    }
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (v, t)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v} -> {t}")?;
        }
        write!(f, "}}")
    }
}

/// A set of solution mappings `Ω`.
///
/// Represented as a `Vec` because SPARQL solution *sequences* may carry
/// duplicates prior to `DISTINCT`; the set-algebra operations treat it as
/// a multiset, matching the W3C semantics.
pub type SolutionSet = Vec<Solution>;

/// `Ω1 ⋈ Ω2` — all merges of compatible pairs (Sect. IV-A), in
/// nested-loop order (ascending left index, then right index).
pub fn join(left: &[Solution], right: &[Solution]) -> SolutionSet {
    Rows::from_solutions(left).join(&Rows::from_solutions(right)).to_solutions()
}

/// [`join`] for a caller that owns `Ω1`: the same rows in the same order.
pub fn join_owned(left: Vec<Solution>, right: &[Solution]) -> SolutionSet {
    join(&left, right)
}

/// `Ω1 ∪ Ω2` — multiset union (Sect. IV-A).
pub fn union(left: &[Solution], right: &[Solution]) -> SolutionSet {
    let mut out = Vec::with_capacity(left.len() + right.len());
    out.extend_from_slice(left);
    out.extend_from_slice(right);
    out
}

/// `Ω1 − Ω2` — solutions of `Ω1` compatible with **no** solution of `Ω2`
/// (Sect. IV-A), in `Ω1` order.
pub fn difference(left: &[Solution], right: &[Solution]) -> SolutionSet {
    Rows::from_solutions(left).difference(&Rows::from_solutions(right)).to_solutions()
}

/// `Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 − Ω2)` — left outer join (Sect. IV-E).
pub fn left_join(left: &[Solution], right: &[Solution]) -> SolutionSet {
    Rows::from_solutions(left).left_join(&Rows::from_solutions(right)).to_solutions()
}

/// Left outer join with a filter condition on the joined rows, as required
/// by the algebra operator `LeftJoin(P1, P2, expr)`: rows of `Ω1 ⋈ Ω2`
/// must satisfy `cond`; rows of `Ω1` with no *satisfying* compatible
/// partner survive unextended.
pub fn left_join_filtered<F>(left: &[Solution], right: &[Solution], mut cond: F) -> SolutionSet
where
    F: FnMut(&Solution) -> bool,
{
    Rows::from_solutions(left)
        .left_join_filtered(&Rows::from_solutions(right), |row| cond(&row.to_solution()))
        .to_solutions()
}

/// Total serialized size of a solution set (for byte accounting).
pub fn serialized_len(solutions: &[Solution]) -> usize {
    solutions.iter().map(Solution::serialized_len).sum()
}

/// The nested-loop transcription of the Sect. IV-A operator definitions.
///
/// O(n·m) compatibility scans; retained verbatim as the reference oracle
/// the batch operators of [`crate::rows::Rows`] are property-tested
/// against.
pub mod naive {
    use super::{Solution, SolutionSet};

    /// `Ω1 ⋈ Ω2` by scanning every pair.
    pub fn join(left: &[Solution], right: &[Solution]) -> SolutionSet {
        let mut out = Vec::new();
        for l in left {
            for r in right {
                if let Some(m) = l.merge(r) {
                    out.push(m);
                }
            }
        }
        out
    }

    /// `Ω1 − Ω2` by scanning every pair.
    pub fn difference(left: &[Solution], right: &[Solution]) -> SolutionSet {
        left.iter()
            .filter(|l| !right.iter().any(|r| l.compatible(r)))
            .cloned()
            .collect()
    }

    /// `Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 − Ω2)` via the nested-loop parts.
    pub fn left_join(left: &[Solution], right: &[Solution]) -> SolutionSet {
        let mut out = join(left, right);
        out.extend(difference(left, right));
        out
    }

    /// Conditional left outer join by scanning every pair.
    pub fn left_join_filtered<F>(
        left: &[Solution],
        right: &[Solution],
        mut cond: F,
    ) -> SolutionSet
    where
        F: FnMut(&Solution) -> bool,
    {
        let mut out = Vec::new();
        for l in left {
            let mut extended = false;
            for r in right {
                if let Some(m) = l.merge(r) {
                    if cond(&m) {
                        out.push(m);
                        extended = true;
                    }
                }
            }
            if !extended {
                out.push(l.clone());
            }
        }
        out
    }

    /// First-seen-order duplicate elimination by linear scan — the old
    /// `merge_distinct` behaviour, kept as the [`super::distinct`] oracle.
    pub fn distinct(rows: Vec<Solution>) -> Vec<Solution> {
        let mut out: Vec<Solution> = Vec::new();
        for s in rows {
            if !out.contains(&s) {
                out.push(s);
            }
        }
        out
    }
}

/// The binary codec for solution sets — the wire format the socket
/// transport ships between sites.
///
/// The live mesh's solution rounds move id-row batches
/// ([`crate::rows::Rows`]) between storage nodes and the coordinator; this
/// codec fixes the byte layout so their transfer sizes can be accounted
/// (the `live.solution_bytes` counter) with the same number a real
/// deployment puts on the network. [`wire::put_rows`] maps the batch's
/// ids to frame ids through a vector, hashing no string, and
/// [`wire::read_rows`] fills a batch straight from the frame, interning
/// each entry — so a term the frame defines twice gets one id. The
/// [`Solution`] forms ([`wire::encode`], [`wire::decode`]) go through a
/// batch.
///
/// A set is one *compact frame*: the variable table once, then the rows
/// as cells of LEB128 term ids into a per-frame dictionary that is
/// defined inline, in one pass, at each term's first occurrence:
///
/// ```text
/// solutions := nvars:varint  var{nvars}  nrows:varint  row{nrows}
/// var       := len:varint  utf8{len}
/// row       := cell{nvars}          (one 0x00 pad byte when nvars = 0)
/// cell      := id:varint  [entry]   (0 = unbound; entry iff id = entries so far + 1)
/// entry     := kind:u8  [head:varint]  shared:varint  len:varint  suffix{len}
/// ```
///
/// An entry's body is the first `shared` bytes of the body last defined
/// in the same column followed by `suffix` (front coding; a column's
/// values resemble each other more than their row neighbours). For a
/// language-tagged or typed literal the body is the tag / datatype IRI
/// (`head` bytes of it) followed by the lexical form, so literals of one
/// datatype share it as a prefix; for every other kind the body is the
/// IRI, label or lexical form.
///
/// A term may be defined again under a new id. The encoder does so when
/// a bare id would make the decoder copy more than the frame has paid
/// for: a frame may make its decoder copy (names into cells, bodies by
/// id, front-coded prefixes) at most [`wire::EXPANSION`] bytes per byte
/// read so far, and names are at most [`wire::MAX_NAME`] bytes, so what
/// decoding allocates is linear in the frame whatever the frame says.
///
/// The primitive writers ([`wire::put_str`], [`wire::put_term`],
/// [`wire::put_u32`], [`wire::put_u64`]) and the [`wire::Reader`]
/// cursor are public so higher-level codecs — the live-protocol message
/// codec in `rdfmesh-core` and the [`crate::expr::wire`] expression
/// codec — compose the same primitives for their own fields (patterns,
/// expressions, ids) instead of reinventing term encoding.
/// `docs/DEPLOYMENT.md` specifies the full byte layout.
pub mod wire {
    use std::collections::HashSet;

    use rdfmesh_rdf::{BlankNode, Iri, Literal, LiteralKind, Term, Variable};

    use super::{Solution, SolutionSet};
    use crate::rows::{Rows, UNBOUND};

    /// A malformed byte stream handed to [`decode`] (or any of the
    /// [`Reader`] primitives).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireError(
        /// What was wrong with the stream.
        pub &'static str,
    );

    impl std::fmt::Display for WireError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "solution wire decode error: {}", self.0)
        }
    }

    impl std::error::Error for WireError {}

    const TAG_IRI: u8 = 0;
    const TAG_BLANK: u8 = 1;
    const TAG_PLAIN: u8 = 2;
    const TAG_LANG: u8 = 3;
    const TAG_TYPED: u8 = 4;

    /// How many bytes a frame may make its decoder *copy* — the name
    /// cloned into every bound cell, a body referenced by id, a
    /// front-coded prefix — per byte of the frame read so far. Without it
    /// a frame of `n` bytes could define one `n/2`-byte name or term and
    /// reference it `n/2` times, and decoding would clone O(n²) bytes.
    /// The encoder keeps every frame inside the budget (a cell that cannot
    /// afford to borrow spells its term out, which buys more budget); the
    /// decoder refuses a frame that is not.
    pub const EXPANSION: usize = 64;

    /// The longest variable name a frame may declare. A cell that borrows
    /// nothing is at least four bytes (id, kind, shared, length), so with
    /// names this short it always pays for the copy of its own name.
    pub const MAX_NAME: usize = 4 * EXPANSION;

    /// Appends a `u32`-length-prefixed UTF-8 string.
    pub fn put_str(out: &mut Vec<u8>, s: &str) {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(out: &mut Vec<u8>, n: u32) {
        out.extend_from_slice(&n.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(out: &mut Vec<u8>, n: u64) {
        out.extend_from_slice(&n.to_le_bytes());
    }

    /// Appends a tagged RDF term standing alone — a pattern constant, an
    /// expression operand — as a tag byte plus `u32`-length-prefixed
    /// strings. Terms inside a solution set go through the frame's
    /// dictionary instead.
    pub fn put_term(out: &mut Vec<u8>, term: &Term) {
        match term {
            Term::Iri(iri) => {
                out.push(TAG_IRI);
                put_str(out, iri.as_str());
            }
            Term::Blank(b) => {
                out.push(TAG_BLANK);
                put_str(out, b.as_str());
            }
            Term::Literal(lit) => match lit.kind() {
                LiteralKind::Plain => {
                    out.push(TAG_PLAIN);
                    put_str(out, lit.lexical());
                }
                LiteralKind::LanguageTagged(tag) => {
                    out.push(TAG_LANG);
                    put_str(out, lit.lexical());
                    put_str(out, tag);
                }
                LiteralKind::Typed(dt) => {
                    out.push(TAG_TYPED);
                    put_str(out, lit.lexical());
                    put_str(out, dt.as_str());
                }
            },
        }
    }

    /// Where the encoder walk writes: a frame buffer, or a byte counter
    /// that lets [`encoded_len`] price a set without building it.
    trait Sink {
        fn put(&mut self, bytes: &[u8]);
        /// Bytes held so far.
        fn len(&self) -> usize;
    }

    impl Sink for Vec<u8> {
        fn put(&mut self, bytes: &[u8]) {
            self.extend_from_slice(bytes);
        }
        fn len(&self) -> usize {
            self.len()
        }
    }

    struct ByteCount(usize);

    impl Sink for ByteCount {
        fn put(&mut self, bytes: &[u8]) {
            self.0 += bytes.len();
        }
        fn len(&self) -> usize {
            self.0
        }
    }

    /// Writes `n` as LEB128: 7 bits per byte, high bit = continuation.
    fn put_varint(out: &mut impl Sink, mut n: usize) {
        let mut buf = [0u8; 10];
        let mut len = 0;
        while n >= 0x80 {
            buf[len] = n as u8 | 0x80;
            n >>= 7;
            len += 1;
        }
        buf[len] = n as u8;
        out.put(&buf[..=len]);
    }

    /// Length of the longest common prefix, a word at a time.
    fn common_prefix(a: &[u8], b: &[u8]) -> usize {
        let mut n = 0;
        for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
            let x = u64::from_le_bytes(x.try_into().expect("8-byte chunk"));
            let y = u64::from_le_bytes(y.try_into().expect("8-byte chunk"));
            if x != y {
                return n + ((x ^ y).trailing_zeros() / 8) as usize;
            }
            n += 8;
        }
        n + a[n..].iter().zip(&b[n..]).take_while(|(x, y)| x == y).count()
    }

    /// A term as the dictionary stores it: its kind tag and its body in
    /// two pieces, `head ++ tail` — `head` is the language tag or datatype
    /// IRI of a tagged / typed literal and empty for every other kind.
    fn term_parts(term: &Term) -> (u8, &[u8], &[u8]) {
        let (kind, head, tail) = match term {
            Term::Iri(iri) => (TAG_IRI, "", iri.as_str()),
            Term::Blank(b) => (TAG_BLANK, "", b.as_str()),
            Term::Literal(lit) => match lit.kind() {
                LiteralKind::Plain => (TAG_PLAIN, "", lit.lexical()),
                LiteralKind::LanguageTagged(tag) => (TAG_LANG, tag.as_str(), lit.lexical()),
                LiteralKind::Typed(dt) => (TAG_TYPED, dt.as_str(), lit.lexical()),
            },
        };
        (kind, head.as_bytes(), tail.as_bytes())
    }

    /// The encoder's side of the per-frame dictionary: the frame id each
    /// batch id was last defined under (0 = not yet), per column its
    /// name's length and the body of the entry last defined there (to
    /// front-code the column's next one against), and the [`EXPANSION`]
    /// budget's two running figures. Bodies are borrowed from the batch.
    struct TermIds<'a> {
        rows: &'a Rows,
        ids: Vec<usize>,
        defined: usize,
        cols: Vec<(usize, &'a [u8], &'a [u8])>,
        /// Where the frame starts in the sink.
        start: usize,
        /// Bytes the frame so far makes its decoder copy.
        copied: usize,
    }

    impl TermIds<'_> {
        /// Writes one bound cell of column `col`: the term's id, followed
        /// by its dictionary entry if this is its first occurrence — or
        /// if the budget cannot afford the copy a bare id asks for.
        fn put(&mut self, out: &mut impl Sink, col: usize, cell: u32) {
            let (kind, head, tail) = term_parts(self.rows.term(cell));
            let body_len = head.len() + tail.len();
            let (name_len, prev_head, prev_tail) = self.cols[col];
            self.copied += name_len;
            // What this cell may borrow on top of its name.
            let room = (EXPANSION * (out.len() - self.start)).saturating_sub(self.copied);
            let id = &mut self.ids[cell as usize - 1];
            if *id != 0 && body_len <= room {
                self.copied += body_len;
                return put_varint(out, *id);
            }
            self.defined += 1;
            *id = self.defined;
            put_varint(out, *id);
            out.put(&[kind]);
            if matches!(kind, TAG_LANG | TAG_TYPED) {
                put_varint(out, head.len());
            }
            // Any prefix the two bodies really share is a valid `shared`;
            // this one stops at a head boundary unless the heads are equal,
            // which is the case that pays (one datatype, many values).
            let mut shared = common_prefix(prev_head, head);
            if shared == prev_head.len() && shared == head.len() {
                shared += common_prefix(prev_tail, tail);
            }
            let shared = shared.min(room);
            self.copied += shared;
            put_varint(out, shared);
            put_varint(out, body_len - shared);
            if shared < head.len() {
                out.put(&head[shared..]);
                out.put(tail);
            } else {
                out.put(&tail[shared - head.len()..]);
            }
            self.cols[col] = (name_len, head, tail);
        }
    }

    fn write_rows(out: &mut impl Sink, rows: &Rows) {
        let start = out.len();
        // The variable table: the union of the rows' domains in
        // first-seen order, each row's domain in `Variable` order, and no
        // column no row binds. Rows of one BGP all share one domain, which
        // the comparison with the row before recognizes without a walk.
        let mut by_name: Vec<usize> = (0..rows.vars.len()).collect();
        by_name.sort_by(|&a, &b| rows.vars[a].cmp(&rows.vars[b]));
        let mut table: Vec<usize> = Vec::new();
        let mut listed = vec![false; rows.vars.len()];
        let mut previous: Option<&[u32]> = None;
        for row in rows.cells.chunks_exact(rows.vars.len().max(1)).take(rows.len) {
            let bound = |cells: &[u32], c: usize| cells.get(c).is_some_and(|&id| id != UNBOUND);
            if previous.is_some_and(|p| (0..row.len()).all(|c| bound(p, c) == bound(row, c))) {
                continue;
            }
            for &c in &by_name {
                if bound(row, c) && !listed[c] {
                    listed[c] = true;
                    table.push(c);
                }
            }
            previous = Some(row);
        }
        put_varint(out, table.len());
        for &c in &table {
            let name = rows.vars[c].as_str();
            put_varint(out, name.len());
            out.put(name.as_bytes());
        }
        put_varint(out, rows.len);
        let mut terms = TermIds {
            rows,
            ids: vec![0; rows.dict.len()],
            defined: 0,
            cols: table.iter().map(|&c| (rows.vars[c].as_str().len(), &[][..], &[][..])).collect(),
            start,
            copied: 0,
        };
        let width = rows.vars.len();
        for i in 0..rows.len {
            if table.is_empty() {
                // A row always costs a byte, so a decoder can bound the
                // row count by the bytes that remain.
                out.put(&[0]);
            }
            for (col, &c) in table.iter().enumerate() {
                match rows.cells[i * width + c] {
                    UNBOUND => out.put(&[0]),
                    cell => terms.put(out, col, cell),
                }
            }
        }
    }

    /// Appends a batch (inverse of [`read_rows`]).
    pub fn put_rows(out: &mut Vec<u8>, rows: &Rows) {
        write_rows(out, rows);
    }

    /// `put_rows`'s byte count without building the bytes: the same
    /// encoder walk into a counting sink. For byte accounting at sites
    /// whose frame the transport encodes anyway.
    pub fn rows_encoded_len(rows: &Rows) -> usize {
        let mut count = ByteCount(0);
        write_rows(&mut count, rows);
        count.0
    }

    /// Appends a solution set: [`put_rows`] of its batch.
    pub fn put_solutions(out: &mut Vec<u8>, solutions: &[Solution]) {
        put_rows(out, &Rows::from_solutions(solutions));
    }

    /// Encodes a solution set into its wire bytes.
    pub fn encode(solutions: &[Solution]) -> Vec<u8> {
        let mut out = Vec::new();
        put_solutions(&mut out, solutions);
        out
    }

    /// `encode(solutions).len()` without building the bytes.
    pub fn encoded_len(solutions: &[Solution]) -> usize {
        rows_encoded_len(&Rows::from_solutions(solutions))
    }

    /// A checked cursor over wire bytes: every read validates bounds and
    /// returns a [`WireError`] instead of panicking, so a malformed or
    /// truncated frame from the network is rejected, never trusted.
    pub struct Reader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        /// A cursor positioned at the start of `bytes`.
        pub fn new(bytes: &'a [u8]) -> Self {
            Reader { bytes, pos: 0 }
        }

        /// Reads a little-endian `u32`.
        pub fn u32(&mut self) -> Result<u32, WireError> {
            let end = self.pos.checked_add(4).ok_or(WireError("length overflow"))?;
            let chunk = self.bytes.get(self.pos..end).ok_or(WireError("truncated integer"))?;
            self.pos = end;
            Ok(u32::from_le_bytes(chunk.try_into().expect("4-byte slice")))
        }

        /// Reads a little-endian `u64`.
        pub fn u64(&mut self) -> Result<u64, WireError> {
            let end = self.pos.checked_add(8).ok_or(WireError("length overflow"))?;
            let chunk = self.bytes.get(self.pos..end).ok_or(WireError("truncated integer"))?;
            self.pos = end;
            Ok(u64::from_le_bytes(chunk.try_into().expect("8-byte slice")))
        }

        /// Reads one tag byte.
        pub fn u8(&mut self) -> Result<u8, WireError> {
            let b = *self.bytes.get(self.pos).ok_or(WireError("truncated tag"))?;
            self.pos += 1;
            Ok(b)
        }

        /// Reads `len` raw bytes.
        fn take(&mut self, len: usize) -> Result<&'a [u8], WireError> {
            let end = self.pos.checked_add(len).ok_or(WireError("length overflow"))?;
            let chunk = self.bytes.get(self.pos..end).ok_or(WireError("truncated string"))?;
            self.pos = end;
            Ok(chunk)
        }

        /// Reads a `u32`-length-prefixed UTF-8 string.
        pub fn str(&mut self) -> Result<&'a str, WireError> {
            let len = self.u32()? as usize;
            utf8(self.take(len)?)
        }

        /// Reads a LEB128 integer (inverse of the solution-set encoder's
        /// counts, ids and lengths).
        fn varint(&mut self) -> Result<usize, WireError> {
            let mut value = 0usize;
            for shift in (0..usize::BITS).step_by(7) {
                let byte = self.u8()?;
                let bits = usize::from(byte & 0x7F);
                if (bits << shift) >> shift != bits {
                    break;
                }
                value |= bits << shift;
                if byte & 0x80 == 0 {
                    return Ok(value);
                }
            }
            Err(WireError("varint overflow"))
        }

        /// Reads a count of items that each occupy at least `unit` bytes
        /// of this frame, rejecting one the remaining bytes cannot hold —
        /// which makes the count safe to allocate for.
        fn count(&mut self, unit: usize) -> Result<usize, WireError> {
            let n = self.varint()?;
            self.fits(n, unit)
        }

        /// Reads a little-endian `u32` count of items that each occupy at
        /// least `unit` bytes of this frame, rejecting one the remaining
        /// bytes cannot hold — the live protocol's frames count this way.
        pub fn u32_count(&mut self, unit: usize) -> Result<usize, WireError> {
            let n = self.u32()? as usize;
            self.fits(n, unit)
        }

        fn fits(&self, n: usize, unit: usize) -> Result<usize, WireError> {
            match n.checked_mul(unit) {
                Some(bytes) if bytes <= self.bytes.len() - self.pos => Ok(n),
                _ => Err(WireError("count exceeds the frame")),
            }
        }

        /// Reads a tagged RDF term (inverse of [`put_term`]).
        pub fn term(&mut self) -> Result<Term, WireError> {
            let kind = self.u8()?;
            let first = self.str()?;
            let second = if matches!(kind, TAG_LANG | TAG_TYPED) { self.str()? } else { "" };
            build_term(kind, second, first)
        }
    }

    impl Reader<'_> {
        /// Asserts the stream was consumed exactly: trailing bytes are a
        /// framing error, not padding.
        pub fn finish(self) -> Result<(), WireError> {
            if self.pos != self.bytes.len() {
                return Err(WireError("trailing bytes"));
            }
            Ok(())
        }
    }

    fn utf8(bytes: &[u8]) -> Result<&str, WireError> {
        std::str::from_utf8(bytes).map_err(|_| WireError("invalid UTF-8"))
    }

    /// Validates and builds a term from its kind tag and the two pieces
    /// [`term_parts`] splits it into.
    fn build_term(kind: u8, head: &str, tail: &str) -> Result<Term, WireError> {
        match kind {
            TAG_IRI => Ok(Term::Iri(Iri::new(tail).map_err(|_| WireError("invalid IRI"))?)),
            TAG_BLANK => Ok(Term::Blank(
                BlankNode::new(tail).map_err(|_| WireError("invalid blank node"))?,
            )),
            TAG_PLAIN => Ok(Term::Literal(Literal::plain(tail))),
            TAG_LANG => Ok(Term::Literal(Literal::lang(tail, head))),
            TAG_TYPED => {
                let dt = Iri::new(head).map_err(|_| WireError("invalid datatype"))?;
                Ok(Term::Literal(Literal::typed(tail, dt)))
            }
            _ => Err(WireError("unknown term tag")),
        }
    }

    /// The decoder's side of the per-frame dictionary, and of the
    /// [`EXPANSION`] budget.
    struct TermTable {
        /// Per frame id, the batch id its entry was interned under — one
        /// batch id for a term the frame defines twice.
        ids: Vec<u32>,
        /// Per frame id, the length of its body.
        body_lens: Vec<usize>,
        /// Per column, the body of the entry last defined there, which
        /// the column's next entry is front-coded against.
        prev: Vec<Vec<u8>>,
        /// Where the frame starts in the reader.
        start: usize,
        /// Bytes the frame so far has made this decoder copy.
        copied: usize,
    }

    impl TermTable {
        /// Resolves a non-zero cell id of column `col`, whose name is
        /// `name_len` bytes, to a batch id: a term defined earlier, or —
        /// for the next unused id — the entry that follows on the wire,
        /// interned into `rows`. Each entry is validated once, here,
        /// however many cells repeat it.
        fn read(
            &mut self,
            r: &mut Reader<'_>,
            rows: &mut Rows,
            col: usize,
            name_len: usize,
            id: usize,
        ) -> Result<u32, WireError> {
            let borrowed = if let Some(&len) = self.body_lens.get(id - 1) {
                len
            } else if id == self.ids.len() + 1 {
                let kind = r.u8()?;
                let head_len = if matches!(kind, TAG_LANG | TAG_TYPED) { r.varint()? } else { 0 };
                let body = &mut self.prev[col];
                let shared = r.varint()?;
                if shared > body.len() {
                    return Err(WireError("shared prefix longer than the previous entry"));
                }
                let suffix_len = r.varint()?;
                let suffix = r.take(suffix_len)?;
                body.truncate(shared);
                body.extend_from_slice(suffix);
                // Front coding works on bytes, so a prefix may end inside a
                // code point: only the reconstructed pieces can be validated.
                if head_len > body.len() {
                    return Err(WireError("literal head longer than its body"));
                }
                let (head, tail) = body.split_at(head_len);
                let term = build_term(kind, utf8(head)?, utf8(tail)?)?;
                self.ids.push(rows.intern_owned(term));
                self.body_lens.push(body.len());
                shared
            } else {
                return Err(WireError("term id beyond the dictionary"));
            };
            self.copied += name_len + borrowed;
            if self.copied > EXPANSION * (r.pos - self.start) {
                return Err(WireError("frame copies more than its length allows"));
            }
            Ok(self.ids[id - 1])
        }
    }

    /// Reads a batch off `r`: its header is the frame's variable table,
    /// its dictionary the frame's entries, each interned.
    ///
    /// Rejects — without panicking and without allocating for them —
    /// counts the remaining bytes cannot hold, an over-long or duplicate
    /// variable in the table, ids beyond the dictionary, prefixes longer
    /// than the entry they borrow from, entries that do not reconstruct
    /// to a valid term, and a frame whose cells copy more than
    /// [`EXPANSION`] bytes per byte read.
    pub fn read_rows(r: &mut Reader<'_>) -> Result<Rows, WireError> {
        let start = r.pos;
        let nvars = r.count(1)?;
        let mut vars = Vec::with_capacity(nvars);
        // Names arrive from outside: the default, keyed hasher.
        let mut seen = HashSet::with_capacity(nvars);
        for _ in 0..nvars {
            let len = r.varint()?;
            if len > MAX_NAME {
                return Err(WireError("variable name too long"));
            }
            let name = utf8(r.take(len)?)?;
            if !seen.insert(name) {
                return Err(WireError("duplicate variable in the table"));
            }
            vars.push(Variable::new(name));
        }
        let nrows = r.count(nvars.max(1))?;
        let name_lens: Vec<usize> = vars.iter().map(|v| v.as_str().len()).collect();
        let mut rows = Rows::with_vars(vars);
        rows.cells.reserve(nrows * nvars);
        let mut terms = TermTable {
            ids: Vec::new(),
            body_lens: Vec::new(),
            prev: vec![Vec::new(); nvars],
            start,
            copied: 0,
        };
        for _ in 0..nrows {
            if nvars == 0 && r.u8()? != 0 {
                return Err(WireError("non-zero pad byte in a zero-column row"));
            }
            for (col, &name_len) in name_lens.iter().enumerate() {
                let cell = match r.varint()? {
                    0 => UNBOUND,
                    id => terms.read(r, &mut rows, col, name_len, id)?,
                };
                rows.cells.push(cell);
            }
        }
        rows.len = nrows;
        Ok(rows)
    }

    /// Reads a solution set off `r`: [`read_rows`], as solutions.
    pub fn read_solutions(r: &mut Reader<'_>) -> Result<SolutionSet, WireError> {
        read_rows(r).map(|rows| rows.to_solutions())
    }

    /// Decodes wire bytes back into a solution set. Exact inverse of
    /// [`encode`]; trailing bytes are an error.
    pub fn decode(bytes: &[u8]) -> Result<SolutionSet, WireError> {
        let mut r = Reader::new(bytes);
        let out = read_solutions(&mut r)?;
        r.finish()?;
        Ok(out)
    }
}

/// First-seen-order duplicate elimination — the rows of
/// [`naive::distinct`], by hashing ids instead of scanning solutions.
pub fn distinct(rows: Vec<Solution>) -> Vec<Solution> {
    Rows::from_solutions(&rows).distinct().to_solutions()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(name: &str) -> Variable {
        Variable::new(name)
    }

    fn sol(pairs: &[(&str, &str)]) -> Solution {
        Solution::from_pairs(
            pairs
                .iter()
                .map(|(n, val)| (v(n), Term::iri(&format!("http://e/{val}")))),
        )
    }

    #[test]
    fn empty_solution_is_compatible_with_everything() {
        let mu0 = Solution::new();
        let mu = sol(&[("x", "a")]);
        assert!(mu0.compatible(&mu));
        assert!(mu.compatible(&mu0));
        assert_eq!(mu0.merge(&mu), Some(mu.clone()));
    }

    #[test]
    fn compatibility_requires_agreement_on_shared_vars() {
        let a = sol(&[("x", "a"), ("y", "b")]);
        let b = sol(&[("y", "b"), ("z", "c")]);
        let c = sol(&[("y", "OTHER")]);
        assert!(a.compatible(&b));
        assert!(!a.compatible(&c));
    }

    #[test]
    fn merge_unions_domains() {
        let a = sol(&[("x", "a")]);
        let b = sol(&[("y", "b")]);
        let m = a.merge(&b).unwrap();
        assert_eq!(m.get(&v("x")), Some(&Term::iri("http://e/a")));
        assert_eq!(m.get(&v("y")), Some(&Term::iri("http://e/b")));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn bind_rejects_conflicting_rebinding() {
        let mut s = sol(&[("x", "a")]);
        assert!(s.bind(v("x"), Term::iri("http://e/a")));
        assert!(!s.bind(v("x"), Term::iri("http://e/b")));
        assert!(s.bind(v("y"), Term::iri("http://e/b")));
    }

    #[test]
    fn join_produces_compatible_merges_only() {
        let l = vec![sol(&[("x", "a"), ("y", "b")]), sol(&[("x", "q"), ("y", "r")])];
        let r = vec![sol(&[("y", "b"), ("z", "c")])];
        let j = join(&l, &r);
        assert_eq!(j.len(), 1);
        assert_eq!(j[0].get(&v("z")), Some(&Term::iri("http://e/c")));
    }

    #[test]
    fn difference_keeps_incompatible_rows() {
        let l = vec![sol(&[("x", "a")]), sol(&[("x", "b")])];
        let r = vec![sol(&[("x", "a"), ("z", "c")])];
        let d = difference(&l, &r);
        assert_eq!(d, vec![sol(&[("x", "b")])]);
    }

    #[test]
    fn left_join_is_join_union_difference() {
        // Paper Sect. IV-E: Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 − Ω2).
        let l = vec![sol(&[("x", "a")]), sol(&[("x", "b")])];
        let r = vec![sol(&[("x", "a"), ("y", "c")])];
        let mut lj = left_join(&l, &r);
        lj.sort();
        let mut expect = vec![sol(&[("x", "a"), ("y", "c")]), sol(&[("x", "b")])];
        expect.sort();
        assert_eq!(lj, expect);
    }

    #[test]
    fn left_join_filtered_drops_failing_extensions_but_keeps_bases() {
        let l = vec![sol(&[("x", "a")])];
        let r = vec![sol(&[("x", "a"), ("y", "c")])];
        // Condition rejects every extension: base row must survive bare.
        let out = left_join_filtered(&l, &r, |_| false);
        assert_eq!(out, vec![sol(&[("x", "a")])]);
        // Condition accepts: extension survives.
        let out = left_join_filtered(&l, &r, |_| true);
        assert_eq!(out, vec![sol(&[("x", "a"), ("y", "c")])]);
    }

    #[test]
    fn union_is_multiset() {
        let l = vec![sol(&[("x", "a")])];
        let r = vec![sol(&[("x", "a")])];
        assert_eq!(union(&l, &r).len(), 2);
    }

    #[test]
    fn projection_restricts_domain() {
        let s = sol(&[("x", "a"), ("y", "b"), ("z", "c")]);
        let p = s.project(&[v("x"), v("z")]);
        assert_eq!(p.len(), 2);
        assert!(p.get(&v("y")).is_none());
    }

    #[test]
    fn serialized_len_grows_with_bindings() {
        let s1 = sol(&[("x", "a")]);
        let s2 = sol(&[("x", "a"), ("y", "b")]);
        assert!(s2.serialized_len() > s1.serialized_len());
        assert_eq!(serialized_len(&[s1.clone(), s1.clone()]), 2 * s1.serialized_len());
    }

    #[test]
    fn pairs_keep_the_last_binding_and_print_as_the_map() {
        let (a, b, c) = (Term::iri("http://e/a"), Term::iri("http://e/b"), Term::iri("http://e/c"));
        let pairs = [(v("y"), b), (v("x"), a), (v("y"), c)];
        let map: std::collections::BTreeMap<Variable, Term> = pairs.clone().into_iter().collect();
        let s = Solution::from_pairs(pairs);
        assert_eq!(s.iter().collect::<Vec<_>>(), map.iter().collect::<Vec<_>>());
        assert_eq!(format!("{s:?}"), format!("Solution {{ bindings: {map:?} }}"));
    }

    #[test]
    fn display_is_readable() {
        let s = sol(&[("x", "a")]);
        assert_eq!(s.to_string(), "{?x -> <http://e/a>}");
    }

    fn mixed_sets() -> (Vec<Solution>, Vec<Solution>) {
        // Heterogeneous domains, shared vars, disjoint rows, duplicates.
        let left = vec![
            sol(&[("x", "a"), ("y", "b")]),
            sol(&[("x", "a")]),
            sol(&[("z", "q")]),
            sol(&[("x", "c"), ("y", "d")]),
            sol(&[("x", "a"), ("y", "b")]),
            Solution::new(),
        ];
        let right = vec![
            sol(&[("y", "b"), ("w", "e")]),
            sol(&[("x", "a"), ("w", "f")]),
            sol(&[("w", "g")]),
            sol(&[("x", "z")]),
            Solution::new(),
        ];
        (left, right)
    }

    #[test]
    fn join_matches_naive_exactly() {
        let (l, r) = mixed_sets();
        assert_eq!(join(&l, &r), naive::join(&l, &r));
        assert_eq!(join(&r, &l), naive::join(&r, &l));
    }

    #[test]
    fn difference_matches_naive_exactly() {
        let (l, r) = mixed_sets();
        assert_eq!(difference(&l, &r), naive::difference(&l, &r));
        assert_eq!(difference(&r, &l), naive::difference(&r, &l));
    }

    #[test]
    fn left_join_matches_naive_exactly() {
        let (l, r) = mixed_sets();
        assert_eq!(left_join(&l, &r), naive::left_join(&l, &r));
        assert_eq!(left_join(&r, &l), naive::left_join(&r, &l));
    }

    #[test]
    fn left_join_filtered_matches_naive_exactly() {
        let (l, r) = mixed_sets();
        let cond = |s: &Solution| s.get(&v("w")).is_none_or(|t| t.to_string().contains('e'));
        assert_eq!(left_join_filtered(&l, &r, cond), naive::left_join_filtered(&l, &r, cond));
    }

    #[test]
    fn operators_handle_empty_operands() {
        let (l, _) = mixed_sets();
        let empty: Vec<Solution> = Vec::new();
        assert!(join(&l, &empty).is_empty());
        assert!(join(&empty, &l).is_empty());
        assert_eq!(difference(&l, &empty), l);
        assert!(difference(&empty, &l).is_empty());
        assert_eq!(left_join(&l, &empty), l);
        assert_eq!(left_join_filtered(&l, &empty, |_| true), l);
    }

    #[test]
    fn distinct_preserves_first_seen_order() {
        let rows = vec![
            sol(&[("x", "b")]),
            sol(&[("x", "a")]),
            sol(&[("x", "b")]),
            sol(&[("x", "c")]),
            sol(&[("x", "a")]),
        ];
        let deduped = distinct(rows.clone());
        assert_eq!(deduped, naive::distinct(rows));
        assert_eq!(
            deduped,
            vec![sol(&[("x", "b")]), sol(&[("x", "a")]), sol(&[("x", "c")])]
        );
    }

    fn every_term_kind() -> Solution {
        let dt = rdfmesh_rdf::Iri::new("http://www.w3.org/2001/XMLSchema#integer").unwrap();
        Solution::from_pairs([
            (v("i"), Term::iri("http://e/α")),
            (v("b"), Term::blank("b1")),
            (v("p"), Term::literal("plain \"q\"")),
            (v("l"), Term::Literal(rdfmesh_rdf::Literal::lang("chat", "fr"))),
            (v("t"), Term::Literal(rdfmesh_rdf::Literal::typed("42", dt))),
        ])
    }

    #[test]
    fn wire_round_trips_every_term_kind() {
        let sets = [
            // Heterogeneous domains: the table is the union, cells unbound.
            vec![Solution::new(), every_term_kind(), sol(&[("x", "a")]), every_term_kind()],
            // One domain throughout, terms repeated across rows and columns.
            vec![sol(&[("x", "a"), ("y", "a")]), sol(&[("x", "b"), ("y", "a")])],
            vec![Solution::new(), Solution::new()],
            Vec::new(),
        ];
        for sols in sets {
            let bytes = wire::encode(&sols);
            assert_eq!(wire::decode(&bytes).unwrap(), sols);
            assert_eq!(wire::encoded_len(&sols), bytes.len());
        }
    }

    #[test]
    fn wire_repeats_cost_an_id_and_neighbours_share_prefixes() {
        let one = wire::encode(&[sol(&[("x", "a")])]);
        // nvars, var, nrows, id, kind, shared, len, the IRI itself.
        assert_eq!(one.len(), 1 + 2 + 1 + 1 + 1 + 1 + 1 + "http://e/a".len());
        // The layout this one replaced spent a u32 on each of: solution
        // count, binding count, name length, term length — plus a tag.
        assert!(one.len() <= 4 + 4 + (4 + 1) + 1 + (4 + "http://e/a".len()));
        let same = wire::encode(&[sol(&[("x", "a"), ("y", "a")])]);
        assert_eq!(same.len(), one.len() + 2 + 1, "a repeat is a second name and an id");
        let near = wire::encode(&[sol(&[("x", "a")]), sol(&[("x", "b")])]);
        assert_eq!(near.len(), one.len() + 4 + 1, "a neighbour is id, kind, shared, len + 1 byte");
    }

    #[test]
    fn wire_typed_literals_share_their_datatype() {
        // The datatype IRI leads the body, so a column of one datatype
        // front-codes it away: id, kind, head, shared, len and the digits
        // that differ — where spelling the 40-byte IRI out in every
        // entry would cost 46 B a row.
        let dt = rdfmesh_rdf::Iri::new("http://www.w3.org/2001/XMLSchema#integer").unwrap();
        let ages: Vec<Solution> = (0..1000)
            .map(|i| {
                let age = rdfmesh_rdf::Literal::typed(i.to_string(), dt.clone());
                Solution::from_pairs([(v("age"), Term::Literal(age))])
            })
            .collect();
        let bytes = wire::encode(&ages);
        assert_eq!(wire::decode(&bytes).unwrap(), ages);
        assert!(bytes.len() <= 8 * ages.len(), "{} B for {} rows", bytes.len(), ages.len());
    }

    /// What decoding `sols` copies beyond the frame's own bytes: every
    /// bound cell's name and, at most, its whole body.
    fn copied_at_most(sols: &[Solution]) -> usize {
        let cells = sols.iter().flat_map(Solution::iter);
        cells.map(|(v, t)| v.as_str().len() + t.to_string().len()).sum()
    }

    #[test]
    fn wire_spells_a_term_out_again_when_an_id_would_copy_too_much() {
        // One long body in every row: a bare id is a byte and would copy
        // the whole body, so only every so-manieth row can afford one.
        let long = Term::literal(&"é".repeat(600));
        let sols: Vec<Solution> =
            (0..400).map(|_| Solution::from_pairs([(v("x"), long.clone())])).collect();
        let bytes = wire::encode(&sols);
        assert_eq!(wire::decode(&bytes).unwrap(), sols);
        assert_eq!(wire::encoded_len(&sols), bytes.len());
        assert!(bytes.len() * wire::EXPANSION >= 400 * 1200, "{} B", bytes.len());
        assert!(bytes.len() * wire::EXPANSION <= 2 * copied_at_most(&sols), "{} B", bytes.len());
        // Short bodies never hit the budget: every repeat is one byte.
        let short: Vec<Solution> = (0..400).map(|_| sol(&[("x", "a")])).collect();
        // (and `nrows` grows into a second varint byte)
        assert_eq!(wire::encode(&short).len(), wire::encode(&short[..1]).len() + 399 + 1);
    }

    #[test]
    fn wire_caps_variable_names() {
        let named = |len: usize| {
            vec![Solution::from_pairs([(v(&"n".repeat(len)), Term::iri("http://e/a"))]); 50]
        };
        let fits = named(wire::MAX_NAME);
        assert_eq!(wire::decode(&wire::encode(&fits)).unwrap(), fits);
        assert!(wire::decode(&wire::encode(&named(wire::MAX_NAME + 1))).is_err());
    }

    /// `[{?x -> term}, {?x -> next}]` with the second entry written by
    /// hand: `kind`, then `rest` (head / shared / len / suffix).
    fn second_entry(first: &Term, kind: u8, rest: &[u8]) -> Vec<u8> {
        let mut bytes = wire::encode(&[Solution::from_pairs([(v("x"), first.clone())])]);
        bytes[3] = 2; // nrows
        bytes.extend_from_slice(&[2, kind]);
        bytes.extend_from_slice(rest);
        bytes
    }

    #[test]
    fn wire_rejects_malformed_streams() {
        let iri = Term::iri("http://e/a");
        let bytes = wire::encode(&[Solution::from_pairs([(v("x"), iri.clone())])]);
        // Truncations at every prefix length must error, never panic.
        for cut in 0..bytes.len() {
            assert!(wire::decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is rejected.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(wire::decode(&extended).is_err());

        // The hand-written second entry decodes when it is well formed…
        let ok = second_entry(&iri, 0, &[9, 1, b'b']);
        assert_eq!(wire::decode(&ok).unwrap()[1], sol(&[("x", "b")]));
        let reject = |bytes: Vec<u8>, why: &str| {
            assert!(wire::decode(&bytes).is_err(), "{why}");
        };
        // …and is rejected for each way it can be wrong.
        reject(second_entry(&iri, 9, &[9, 1, b'b']), "unknown term kind");
        reject(second_entry(&iri, 0, &[11, 1, b'b']), "prefix longer than the previous entry");
        reject(second_entry(&iri, 0, &[9, 2, b' ', b'b']), "reconstructed IRI is not one");
        reject(second_entry(&iri, 1, &[10, 0]), "reconstructed blank label is not one");
        reject(second_entry(&iri, 4, &[12, 10, 1, b'7']), "literal head longer than its body");
        let mut beyond = bytes;
        beyond[3] = 2;
        beyond.push(3);
        reject(beyond, "id 3 with one entry defined");
        // Front coding is on bytes: a prefix may end inside a code point,
        // which is fine when the suffix completes it and an error if not.
        let accent = Term::literal("é");
        let completed = second_entry(&accent, 2, &[1, 1, 0xA8]);
        assert_eq!(wire::decode(&completed).unwrap()[1].get(&v("x")), Some(&Term::literal("è")));
        reject(second_entry(&accent, 2, &[1, 0]), "half a code point");
        reject(second_entry(&accent, 2, &[1, 1, b'a']), "lead byte then ASCII");
        // A cell may not copy what the frame has not paid for: a ~400 B
        // frame buys ~26 kB of copies, each bare id of it another 64 B,
        // and each copies 401 B (name and body) — good for 78 of them.
        let greedy = |ids: u8| {
            let mut bytes = wire::encode(&[sol(&[("x", &"a".repeat(391))])]);
            bytes[3] = 1 + ids;
            bytes.extend(std::iter::repeat_n(1, usize::from(ids)));
            bytes
        };
        assert_eq!(wire::decode(&greedy(70)).unwrap().len(), 71);
        reject(greedy(90), "ids copying beyond the budget");

        // Table and counts.
        reject(vec![2, 1, b'x', 1, b'x', 0], "duplicate variable");
        reject(vec![5, 1, b'x', 0], "more variables than bytes");
        reject(vec![1, 1, b'x', 0x80, 0x80, 0x80, 0x80, 0x01], "more rows than bytes");
        reject(vec![2, 1, b'x', 1, b'y', 2, 0, 0, 0], "rows × columns beyond the frame");
        reject([&[0][..], &[0xFF; 9], &[0x7F]].concat(), "varint overflow");
        reject(vec![0, 2, 0, 1], "non-zero pad in a zero-column row");
        assert_eq!(wire::decode(&[0, 2, 0, 0]).unwrap(), vec![Solution::new(); 2]);
    }

    #[test]
    fn operators_agree_with_the_oracle_on_larger_inputs() {
        // Every left row shares ?x with the right rows whose index has its
        // parity, and binds ?n on its own; a third of them match nothing.
        let right: Vec<Solution> = (0..257)
            .map(|j| sol(&[("x", &format!("p{}", j % 2)), ("w", &format!("w{j}"))]))
            .collect();
        let left = |n: usize| -> Vec<Solution> {
            (0..n)
                .map(|i| match i % 3 {
                    0 => sol(&[("x", &format!("p{}", i % 2)), ("n", &format!("n{i}"))]),
                    1 => sol(&[("n", &format!("n{i}"))]),
                    _ => sol(&[("x", "none"), ("n", &format!("n{i}"))]),
                })
                .collect()
        };
        let cond = |s: &Solution| s.get(&v("w")).is_none_or(|t| t.to_string().ends_with("0>"));
        for (l, r) in [(15, 257), (16, 256), (40, 257)] {
            let (l, r) = (left(l), &right[..r]);
            assert_eq!(join(&l, r), naive::join(&l, r));
            assert_eq!(difference(&l, r), naive::difference(&l, r));
            assert_eq!(left_join(&l, r), naive::left_join(&l, r));
            assert_eq!(left_join_filtered(&l, r, cond), naive::left_join_filtered(&l, r, cond));
        }
    }
}
