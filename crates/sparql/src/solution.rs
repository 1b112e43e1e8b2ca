//! Solution mappings and the algebra over sets of them.
//!
//! Implements the semantics of Pérez, Arenas & Gutierrez that the paper
//! adopts in Sect. IV-A: a solution `µ` is a partial function from
//! variables to RDF terms; two solutions are *compatible* if every shared
//! variable is bound to the same term; and sets of solutions compose via
//! join (`⋈`), union (`∪`), difference (`−`) and left outer join (`⟕`).
//!
//! The operators the engines run are written once, over id-row batches
//! ([`crate::rows::Rows`]), which are what the distributed engine carries
//! from a frame to `finalize`. Over [`Solution`]s there is [`union`] and
//! [`naive`], the literal nested-loop transcription of the paper's
//! definitions: the central oracle (`eval::evaluate_query`) evaluates
//! with it, and the batch operators are property-tested against it —
//! same rows, same order (`tests/hash_algebra.rs`).

use std::fmt;

use rdfmesh_rdf::{Term, Variable};

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

/// `Ω1 ∪ Ω2` — multiset union (Sect. IV-A).
pub fn union(left: &[Solution], right: &[Solution]) -> SolutionSet {
    let mut out = Vec::with_capacity(left.len() + right.len());
    out.extend_from_slice(left);
    out.extend_from_slice(right);
    out
}

/// The nested-loop transcription of the Sect. IV-A operator definitions.
///
/// O(n·m) compatibility scans, kept deliberately plain: the central
/// oracle (`eval::evaluate_pattern`) joins with them, so it shares no
/// operator with the batches it judges, and the batch operators of
/// [`crate::rows::Rows`] are property-tested against them.
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

    /// First-seen-order duplicate elimination by linear scan: the
    /// oracle's DISTINCT, and [`crate::rows::Rows::distinct`]'s reference.
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
/// ids to frame ids through a vector, hashing no string; [`wire::put_lent`]
/// writes the same bytes for a [`crate::rows::LentRows`] batch, whose
/// cells name terms it borrows (a provider's answer, lent its store's
/// terms) — one frame writer reads either. [`wire::read_rows`] fills a
/// batch straight from the frame, its dictionary sized once, interning
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
/// The primitives — LEB128, the checked reader and the count rule, tagged
/// terms — are [`rdfmesh_rdf::codec`]'s, which the other frames (the
/// live-protocol message codec in `rdfmesh-core`, the
/// [`crate::expr::wire`] expression codec) and the persistent store's
/// files are written in too. `docs/DEPLOYMENT.md` specifies the full byte
/// layout.
pub mod wire {
    use std::collections::HashSet;

    use rdfmesh_rdf::codec::{
        build_term, has_head, leb128, term_parts, utf8, DecodeError, Reader,
    };
    use rdfmesh_rdf::{Dictionary, Term, TermId, Variable};

    use super::{Solution, SolutionSet};
    use crate::rows::{LentRows, Rows, UNBOUND};

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

    /// Writes `n` as LEB128.
    fn put_varint(out: &mut impl Sink, n: usize) {
        out.put(leb128(n as u64, &mut [0; 10]));
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

    /// Where a batch's cells find their terms: cell `c` names the `c`-th
    /// term — of a [`Rows`] batch's dictionary, or of a [`LentRows`]
    /// batch's table of borrowed terms. Either holds each term once.
    trait CellTerms {
        /// The term `cell` names. Panics on [`UNBOUND`] or beyond the table.
        fn term(&self, cell: u32) -> &Term;
        /// How many terms cells may name.
        fn count(&self) -> usize;
    }

    impl CellTerms for Dictionary {
        fn term(&self, cell: u32) -> &Term {
            Dictionary::term(self, TermId(cell - 1))
        }
        fn count(&self) -> usize {
            self.len()
        }
    }

    impl CellTerms for [&Term] {
        fn term(&self, cell: u32) -> &Term {
            self[cell as usize - 1]
        }
        fn count(&self) -> usize {
            self.len()
        }
    }

    /// The encoder's side of the per-frame dictionary: the frame id each
    /// batch id was last defined under (0 = not yet), per column its
    /// name's length and the body of the entry last defined there (to
    /// front-code the column's next one against), and the [`EXPANSION`]
    /// budget's two running figures. Bodies are borrowed from the batch's
    /// terms, wherever they live.
    struct TermIds<'a, T: CellTerms + ?Sized> {
        terms: &'a T,
        ids: Vec<usize>,
        defined: usize,
        cols: Vec<(usize, &'a [u8], &'a [u8])>,
        /// Where the frame starts in the sink.
        start: usize,
        /// Bytes the frame so far makes its decoder copy.
        copied: usize,
    }

    impl<T: CellTerms + ?Sized> TermIds<'_, T> {
        /// Writes one bound cell of column `col`: the term's id, followed
        /// by its dictionary entry if this is its first occurrence — or
        /// if the budget cannot afford the copy a bare id asks for.
        fn put(&mut self, out: &mut impl Sink, col: usize, cell: u32) {
            let (kind, head, tail) = term_parts(self.terms.term(cell));
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
            if has_head(kind) {
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

    /// The one frame writer: `len` rows over the columns `vars`, `cells`
    /// row-major, each bound cell's term found in `terms`.
    fn write_rows<T: CellTerms + ?Sized>(
        out: &mut impl Sink,
        vars: &[Variable],
        cells: &[u32],
        len: usize,
        terms: &T,
    ) {
        let start = out.len();
        // The variable table: the union of the rows' domains in
        // first-seen order, each row's domain in `Variable` order, and no
        // column no row binds. Rows of one BGP all share one domain, which
        // the comparison with the row before recognizes without a walk.
        let mut by_name: Vec<usize> = (0..vars.len()).collect();
        by_name.sort_by(|&a, &b| vars[a].cmp(&vars[b]));
        let mut table: Vec<usize> = Vec::new();
        let mut listed = vec![false; vars.len()];
        let mut previous: Option<&[u32]> = None;
        for row in cells.chunks_exact(vars.len().max(1)).take(len) {
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
            let name = vars[c].as_str();
            put_varint(out, name.len());
            out.put(name.as_bytes());
        }
        put_varint(out, len);
        let mut ids = TermIds {
            terms,
            ids: vec![0; terms.count()],
            defined: 0,
            cols: table.iter().map(|&c| (vars[c].as_str().len(), &[][..], &[][..])).collect(),
            start,
            copied: 0,
        };
        let width = vars.len();
        for i in 0..len {
            if table.is_empty() {
                // A row always costs a byte, so a decoder can bound the
                // row count by the bytes that remain.
                out.put(&[0]);
            }
            for (col, &c) in table.iter().enumerate() {
                match cells[i * width + c] {
                    UNBOUND => out.put(&[0]),
                    cell => ids.put(out, col, cell),
                }
            }
        }
    }

    /// Appends a batch (inverse of [`read_rows`]).
    pub fn put_rows(out: &mut Vec<u8>, rows: &Rows) {
        write_rows(out, &rows.vars, &rows.cells, rows.len, &rows.dict);
    }

    /// Appends a batch whose terms are lent: the bytes [`put_rows`] writes
    /// for [`LentRows::to_rows`], with no term cloned.
    pub fn put_lent(out: &mut Vec<u8>, rows: &LentRows<'_>) {
        write_rows(out, &rows.vars, &rows.cells, rows.len, &rows.terms[..]);
    }

    /// `put_rows`'s byte count without building the bytes: the same
    /// encoder walk into a counting sink.
    pub fn rows_encoded_len(rows: &Rows) -> usize {
        let mut count = ByteCount(0);
        write_rows(&mut count, &rows.vars, &rows.cells, rows.len, &rows.dict);
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

    /// The fewest bytes a dictionary entry takes, its cell id included:
    /// id, kind, shared-prefix length and suffix length (an empty plain
    /// literal). [`read_rows`] reserves a batch's dictionary once, for
    /// no more entries than the bytes left can hold at this size — what a
    /// hostile frame may make it reserve is linear in the frame: the worst
    /// mutant of `live_wire.rs`'s structural fuzz decodes at 26 B
    /// allocated per frame byte (19 B unreserved; one entry per byte left
    /// would be 51 B), inside the 64 B that test allows.
    const ENTRY_MIN_LEN: usize = 4;

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
        ) -> Result<u32, DecodeError> {
            let borrowed = if let Some(&len) = self.body_lens.get(id - 1) {
                len
            } else if id == self.ids.len() + 1 {
                let kind = r.u8()?;
                let head_len = if has_head(kind) { r.varint()? } else { 0 };
                let body = &mut self.prev[col];
                let shared = r.varint()?;
                if shared > body.len() {
                    return Err(DecodeError("shared prefix longer than the previous entry"));
                }
                let suffix_len = r.varint()?;
                let suffix = r.take(suffix_len)?;
                body.truncate(shared);
                body.extend_from_slice(suffix);
                // Front coding works on bytes, so a prefix may end inside a
                // code point: only the reconstructed pieces can be validated.
                if head_len > body.len() {
                    return Err(DecodeError("literal head longer than its body"));
                }
                let (head, tail) = body.split_at(head_len);
                let term = build_term(kind, utf8(head)?, utf8(tail)?)?;
                self.ids.push(rows.intern_owned(term));
                self.body_lens.push(body.len());
                shared
            } else {
                return Err(DecodeError("term id beyond the dictionary"));
            };
            self.copied += name_len + borrowed;
            if self.copied > EXPANSION * (r.position() - self.start) {
                return Err(DecodeError("frame copies more than its length allows"));
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
    pub fn read_rows(r: &mut Reader<'_>) -> Result<Rows, DecodeError> {
        let start = r.position();
        let nvars = r.count(1)?;
        let mut vars = Vec::with_capacity(nvars);
        // Names arrive from outside: the default, keyed hasher.
        let mut seen = HashSet::with_capacity(nvars);
        for _ in 0..nvars {
            let len = r.varint()?;
            if len > MAX_NAME {
                return Err(DecodeError("variable name too long"));
            }
            let name = utf8(r.take(len)?)?;
            if !seen.insert(name) {
                return Err(DecodeError("duplicate variable in the table"));
            }
            vars.push(Variable::new(name));
        }
        let nrows = r.count(nvars.max(1))?;
        let name_lens: Vec<usize> = vars.iter().map(|v| v.as_str().len()).collect();
        let mut rows = Rows::with_vars(vars);
        rows.cells.reserve(nrows * nvars);
        // Sized once: every cell may define a term, and an entry is at
        // least ENTRY_MIN_LEN bytes, so no more can follow than the bytes
        // left allow.
        rows.dict.reserve((nrows * nvars).min(r.remaining() / ENTRY_MIN_LEN));
        let mut terms = TermTable {
            ids: Vec::new(),
            body_lens: Vec::new(),
            prev: vec![Vec::new(); nvars],
            start,
            copied: 0,
        };
        for _ in 0..nrows {
            if nvars == 0 && r.u8()? != 0 {
                return Err(DecodeError("non-zero pad byte in a zero-column row"));
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
    pub fn read_solutions(r: &mut Reader<'_>) -> Result<SolutionSet, DecodeError> {
        read_rows(r).map(|rows| rows.to_solutions())
    }

    /// Decodes wire bytes back into a solution set. Exact inverse of
    /// [`encode`]; trailing bytes are an error.
    pub fn decode(bytes: &[u8]) -> Result<SolutionSet, DecodeError> {
        let mut r = Reader::new(bytes);
        let out = read_solutions(&mut r)?;
        r.finish()?;
        Ok(out)
    }
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
}
