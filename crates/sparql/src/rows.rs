//! Id-row batches: the one solution set the distributed engine carries
//! from a frame to the response bytes — through `finalize`, which orders,
//! projects, deduplicates and slices a batch in place, and the result
//! writers, which read the finished batch.
//!
//! A [`Solution`] owns its variables and terms: building one clones every
//! name and term, hashing one walks its strings, and comparing two
//! compares strings. A [`Rows`] batch holds the same rows as integers
//! instead:
//!
//! - a header of variables — the batch's columns;
//! - a [`Dictionary`] of the distinct terms its rows bind — the term
//!   dictionary the stores intern with, which holds each term once and
//!   finds it by hash;
//! - the rows, row-major, one `u32` cell per column: a term's dictionary
//!   id plus one, or [`UNBOUND`] where the row leaves the variable unbound
//!   (a solution is a *partial* function, so rows of one batch may bind
//!   different variables, as an OPTIONAL's do).
//!
//! Inside one batch equal ids mean equal terms and equal terms have equal
//! ids, so deduplication hashes and compares cells, and a join compares
//! ids. Everything that builds a batch interns — the codec's decoder
//! (`solution::wire::read_rows`), [`Rows::from_solutions`], the
//! operators' outputs — and an operator over two batches translates the
//! other side's dictionary once per distinct term, never once per cell.
//!
//! Every operator produces the rows, in the order, of the [`Solution`]
//! operator of `solution::naive` it stands for (property-tested in
//! `tests/hash_algebra.rs`): [`Rows::join`] and [`Rows::difference`] in
//! nested-loop order, [`Rows::left_join`] as the join followed by the
//! difference, [`Rows::append`] as concatenation and [`Rows::distinct`]
//! in first-seen order. The join probes a hash index over the right
//! operand, grouped by domain, so it costs O(n + m + output) where the
//! nested loop costs O(n·m).

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use rdfmesh_rdf::fxhash::FxHasher64;
use rdfmesh_rdf::{Dictionary, Term, TermId, Variable};

use crate::expr::Bindings;
use crate::solution::Solution;

type FxBuild = BuildHasherDefault<FxHasher64>;

/// The cell of a variable its row leaves unbound. A bound cell is its
/// term's dictionary id plus one.
pub const UNBOUND: u32 = 0;

/// End of a hash chain.
const NIL: u32 = u32::MAX;

/// A batch of solution rows over one header and one term dictionary.
#[derive(Clone, Default)]
pub struct Rows {
    /// The columns.
    pub(crate) vars: Vec<Variable>,
    /// The dictionary: cell `c` names term `c - 1`.
    pub(crate) dict: Dictionary,
    /// `len × vars.len()` cells, row-major.
    pub(crate) cells: Vec<u32>,
    /// The row count (zero-width rows have no cells to count).
    pub(crate) len: usize,
}

fn cells_hash(cells: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = FxHasher64::default();
    for c in cells {
        h.write_u32(c);
    }
    h.finish()
}

impl Rows {
    /// An empty batch: no columns, no rows.
    pub fn new() -> Rows {
        Rows::default()
    }

    /// The batch holding one row that binds nothing: the unit solution
    /// `µ0`, which every solution is compatible with.
    pub fn unit() -> Rows {
        Rows { len: 1, ..Rows::default() }
    }

    /// An empty batch over the columns `vars`, which must be distinct.
    pub fn with_vars(vars: Vec<Variable>) -> Rows {
        Rows { vars, ..Rows::default() }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The columns, in the batch's own order.
    pub fn vars(&self) -> &[Variable] {
        &self.vars
    }

    fn width(&self) -> usize {
        self.vars.len()
    }

    /// The cells of row `i`.
    fn cells_of(&self, i: usize) -> &[u32] {
        let w = self.width();
        &self.cells[i * w..(i + 1) * w]
    }

    /// Row `i`. Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> Row<'_> {
        assert!(i < self.len, "row {i} of {}", self.len);
        Row { rows: self, cells: self.cells_of(i) }
    }

    /// The rows, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Row<'_>> {
        (0..self.len).map(|i| Row { rows: self, cells: self.cells_of(i) })
    }

    /// The term cell `id` names. Panics on [`UNBOUND`] or an id beyond
    /// the dictionary.
    pub(crate) fn term(&self, id: u32) -> &Term {
        self.dict.term(TermId(id - 1))
    }

    fn column(&self, var: &Variable) -> Option<usize> {
        self.vars.iter().position(|v| v == var)
    }

    /// The column of `var`, added (every row unbound in it) if missing.
    fn column_or_add(&mut self, var: &Variable) -> usize {
        if let Some(c) = self.column(var) {
            return c;
        }
        let w = self.width();
        if self.len > 0 && w > 0 {
            let mut wider = Vec::with_capacity(self.len * (w + 1));
            for row in self.cells.chunks_exact(w) {
                wider.extend_from_slice(row);
                wider.push(UNBOUND);
            }
            self.cells = wider;
        } else {
            self.cells = vec![UNBOUND; self.len];
        }
        self.vars.push(var.clone());
        w
    }

    /// The cell of `term`, if the dictionary holds it.
    fn find(&self, term: &Term) -> Option<u32> {
        self.dict.id(term).map(|id| id.0 + 1)
    }

    /// The cell of `term`, stored (a clone) if the dictionary lacks it.
    pub fn intern(&mut self, term: &Term) -> u32 {
        self.dict.intern(term).0 + 1
    }

    /// [`Rows::intern`] of a term the caller owns.
    pub(crate) fn intern_owned(&mut self, term: Term) -> u32 {
        self.dict.intern_owned(term).0 + 1
    }

    /// The id here of `from`'s id `cell`, through the map `ids` (`from`'s
    /// id → id here, [`UNBOUND`] until first asked), so that each of
    /// `from`'s terms is interned once however many cells name it.
    fn translate(&mut self, from: &Rows, ids: &mut [u32], cell: u32) -> u32 {
        if cell == UNBOUND {
            return UNBOUND;
        }
        let id = &mut ids[cell as usize - 1];
        if *id == UNBOUND {
            *id = self.intern(from.term(cell));
        }
        *id
    }

    /// Appends one row given as its cells, one per column: [`UNBOUND`] or
    /// a cell [`Rows::intern`] returned for this batch. Panics if the row
    /// is not as wide as the batch.
    pub fn push_cells(&mut self, cells: &[u32]) {
        assert_eq!(cells.len(), self.width(), "one cell per column");
        debug_assert!(cells.iter().all(|&c| c as usize <= self.dict.len()), "a cell of this batch");
        self.cells.extend_from_slice(cells);
        self.len += 1;
    }

    /// Appends one row binding each variable of `bindings` to its term.
    /// A variable bound twice must be bound to one term; otherwise the
    /// row is not appended and `false` is returned.
    pub fn push_bindings<'t, I>(&mut self, bindings: I) -> bool
    where
        I: IntoIterator<Item = (&'t Variable, &'t Term)>,
        I::IntoIter: Clone,
    {
        let bindings = bindings.into_iter();
        for (var, _) in bindings.clone() {
            self.column_or_add(var);
        }
        let start = self.cells.len();
        self.cells.resize(start + self.width(), UNBOUND);
        for (var, term) in bindings {
            let col = start + self.column(var).expect("added above");
            let id = self.intern(term);
            if self.cells[col] != UNBOUND && self.cells[col] != id {
                self.cells.truncate(start);
                return false;
            }
            self.cells[col] = id;
        }
        self.len += 1;
        true
    }

    /// The batch holding `solutions`, in order.
    pub fn from_solutions(solutions: &[Solution]) -> Rows {
        let mut vars: Vec<Variable> = Vec::new();
        for sol in solutions {
            for v in sol.domain() {
                if !vars.contains(v) {
                    vars.push(v.clone());
                }
            }
        }
        let mut rows = Rows::with_vars(vars);
        rows.cells.reserve(solutions.len() * rows.width());
        for sol in solutions {
            rows.push_bindings(sol.iter());
        }
        rows
    }

    /// The rows as [`Solution`]s, in order.
    pub fn to_solutions(&self) -> Vec<Solution> {
        self.iter().map(|row| row.to_solution()).collect()
    }

    /// The columns in variable-name order: the order a [`Solution`]
    /// iterates its bindings in.
    pub(crate) fn columns_by_name(&self) -> Vec<usize> {
        let mut by_name: Vec<usize> = (0..self.width()).collect();
        by_name.sort_by(|&a, &b| self.vars[a].cmp(&self.vars[b]));
        by_name
    }

    /// [`Rows::to_solutions`] of a batch the caller gives up: each term is
    /// moved into the last cell that names it and cloned only for the
    /// others, and each row's bindings are built in variable order at
    /// their exact length.
    pub fn into_solutions(self) -> Vec<Solution> {
        let w = self.width();
        let by_name = self.columns_by_name();
        let mut uses = vec![0u32; self.dict.len()];
        for &cell in self.cells.iter().filter(|c| **c != UNBOUND) {
            uses[cell as usize - 1] += 1;
        }
        let mut terms: Vec<Option<Term>> = self.dict.into_terms().into_iter().map(Some).collect();
        let mut out = Vec::with_capacity(self.len);
        for i in 0..self.len {
            let row = &self.cells[i * w..(i + 1) * w];
            let bound = by_name.iter().filter(|&&c| row[c] != UNBOUND);
            let mut bindings = Vec::with_capacity(bound.clone().count());
            for &c in bound {
                let id = row[c] as usize - 1;
                uses[id] -= 1;
                let term = match uses[id] {
                    0 => terms[id].take().expect("moved at its last use"),
                    _ => terms[id].clone().expect("moved only at its last use"),
                };
                bindings.push((self.vars[c].clone(), term));
            }
            out.push(Solution::from_sorted(bindings));
        }
        out
    }

    /// Appends `other`'s rows after this batch's (`Ω1 ∪ Ω2`, a multiset
    /// union), adding its columns and interning its terms — moved, not
    /// cloned.
    pub fn append(&mut self, other: Rows) {
        if self.len == 0 && self.dict.is_empty() {
            *self = other;
            return;
        }
        let Rows { vars, dict, cells, len } = other;
        let cols: Vec<usize> = vars.iter().map(|v| self.column_or_add(v)).collect();
        self.dict.reserve(dict.len());
        let ids: Vec<u32> = dict.into_terms().into_iter().map(|t| self.intern_owned(t)).collect();
        let (w, other_w) = (self.width(), vars.len());
        self.cells.reserve(len * w);
        for i in 0..len {
            let start = self.cells.len();
            self.cells.resize(start + w, UNBOUND);
            for (&col, &cell) in cols.iter().zip(&cells[i * other_w..(i + 1) * other_w]) {
                if cell != UNBOUND {
                    self.cells[start + col] = ids[cell as usize - 1];
                }
            }
        }
        self.len += len;
    }

    /// Splits the rows into `parts` batches over this batch's header, row
    /// `i` into batch `part_of(row i)`, in order.
    pub fn partition(&self, parts: usize, mut part_of: impl FnMut(&Row<'_>) -> usize) -> Vec<Rows> {
        let mut out: Vec<Rows> = (0..parts).map(|_| Rows::with_vars(self.vars.clone())).collect();
        let mut ids = vec![vec![UNBOUND; self.dict.len()]; parts];
        for row in self.iter() {
            let p = part_of(&row);
            let (batch, ids) = (&mut out[p], &mut ids[p]);
            for &cell in row.cells {
                let id = batch.translate(self, ids, cell);
                batch.cells.push(id);
            }
            batch.len += 1;
        }
        out
    }

    /// Keeps the first occurrence of every row, in order.
    pub fn distinct(mut self) -> Rows {
        let w = self.width();
        // Sized once for the case of no duplicate: an answer's rows are
        // mostly distinct.
        let mut newest: HashMap<u64, u32, FxBuild> =
            HashMap::with_capacity_and_hasher(self.len, FxBuild::default());
        let mut chain: Vec<u32> = Vec::with_capacity(self.len);
        let mut kept = 0;
        let same = |cells: &[u32], k: usize, i: usize| {
            cells[k * w..(k + 1) * w] == cells[i * w..(i + 1) * w]
        };
        for i in 0..self.len {
            let h = cells_hash(self.cells[i * w..(i + 1) * w].iter().copied());
            let mut k = newest.get(&h).copied().unwrap_or(NIL);
            let previous = k;
            while k != NIL && !same(&self.cells, k as usize, i) {
                k = chain[k as usize];
            }
            if k != NIL {
                continue;
            }
            self.cells.copy_within(i * w..(i + 1) * w, kept * w);
            newest.insert(h, kept as u32);
            chain.push(previous);
            kept += 1;
        }
        self.cells.truncate(kept * w);
        self.len = kept;
        self
    }

    /// Keeps the rows `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&Row<'_>) -> bool) {
        let keeps: Vec<bool> = self.iter().map(|row| keep(&row)).collect();
        let w = self.width();
        let mut kept = 0;
        for (i, _) in keeps.iter().enumerate().filter(|(_, k)| **k) {
            self.cells.copy_within(i * w..(i + 1) * w, kept * w);
            kept += 1;
        }
        self.cells.truncate(kept * w);
        self.len = kept;
    }

    /// Sorts the rows by `cmp` of their indices, stably: equal rows keep
    /// their order.
    pub(crate) fn sort_by_index(&mut self, cmp: impl FnMut(&usize, &usize) -> Ordering) {
        let mut order: Vec<usize> = (0..self.len).collect();
        order.sort_by(cmp);
        let w = self.width();
        let mut cells = Vec::with_capacity(self.cells.len());
        for i in order {
            cells.extend_from_slice(&self.cells[i * w..(i + 1) * w]);
        }
        self.cells = cells;
    }

    /// Drops the first `offset` rows, then every row past `limit`.
    pub(crate) fn slice(&mut self, offset: usize, limit: Option<usize>) {
        let w = self.width();
        let offset = offset.min(self.len);
        self.cells.drain(..offset * w);
        self.len -= offset;
        if let Some(limit) = limit.filter(|&limit| limit < self.len) {
            self.cells.truncate(limit * w);
            self.len = limit;
        }
    }

    /// Drops, in place, every column whose variable `vars` does not name
    /// (projection). The dictionary keeps every term: a term no cell names
    /// any longer is never read.
    pub(crate) fn keep_columns(&mut self, vars: &[Variable]) {
        let keep: Vec<bool> = self.vars.iter().map(|v| vars.contains(v)).collect();
        if keep.iter().all(|k| *k) {
            return;
        }
        let kept = self.cells.chunks_exact(self.width()).flat_map(|row| {
            row.iter().zip(&keep).filter(|(_, k)| **k).map(|(c, _)| *c)
        });
        self.cells = kept.collect();
        let mut keep = keep.into_iter();
        self.vars.retain(|_| keep.next().expect("one flag per column"));
    }

    /// The rows restricted to the columns of `vars` (projection), in a
    /// batch whose dictionary holds only the terms those columns bind.
    pub fn project(&self, vars: &[Variable]) -> Rows {
        let cols: Vec<usize> =
            (0..self.width()).filter(|&c| vars.contains(&self.vars[c])).collect();
        let mut out = Rows::with_vars(cols.iter().map(|&c| self.vars[c].clone()).collect());
        out.cells.reserve(self.len * cols.len());
        let mut ids = vec![UNBOUND; self.dict.len()];
        for i in 0..self.len {
            let row = self.cells_of(i);
            for &c in &cols {
                let id = out.translate(self, &mut ids, row[c]);
                out.cells.push(id);
            }
        }
        out.len = self.len;
        out
    }

    /// `Ω1 ⋈ Ω2`: every merge of a compatible pair, in nested-loop order
    /// (ascending row of `self`, then of `right`). The output extends this
    /// batch's header and dictionary with `right`'s.
    pub fn join(self, right: &Rows) -> Rows {
        let mut join = Join::new(self, right);
        let mut hits = Vec::new();
        for i in 0..join.left.len {
            join.index.compatible_into(join.left.cells_of(i), &mut hits);
            for &j in &hits {
                join.push_merged(i, j);
            }
        }
        join.out
    }

    /// `Ω1 − Ω2`: the rows of this batch compatible with no row of
    /// `right`, in order.
    pub fn difference(mut self, right: &Rows) -> Rows {
        if right.is_empty() || self.is_empty() {
            return self;
        }
        let mut index = Index::new(&self, right);
        let keep: Vec<bool> =
            (0..self.len).map(|i| !index.any_compatible(self.cells_of(i))).collect();
        let mut keep = keep.into_iter();
        self.retain(|_| keep.next().expect("one flag per row"));
        self
    }

    /// `Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 − Ω2)` (Sect. IV-E): the join's rows,
    /// then the rows of this batch that joined with nothing.
    pub fn left_join(self, right: &Rows) -> Rows {
        let mut join = Join::new(self, right);
        let mut hits = Vec::new();
        let mut alone = Vec::new();
        for i in 0..join.left.len {
            join.index.compatible_into(join.left.cells_of(i), &mut hits);
            if hits.is_empty() {
                alone.push(i);
            }
            for &j in &hits {
                join.push_merged(i, j);
            }
        }
        for i in alone {
            join.push_left(i);
        }
        join.out
    }

    /// The algebra's `LeftJoin(P1, P2, cond)`: per row of this batch, its
    /// merges with the compatible rows of `right` that satisfy `cond`, or
    /// the row itself when none does.
    pub fn left_join_filtered(self, right: &Rows, mut cond: impl FnMut(&Row<'_>) -> bool) -> Rows {
        let mut join = Join::new(self, right);
        let mut hits = Vec::new();
        for i in 0..join.left.len {
            join.index.compatible_into(join.left.cells_of(i), &mut hits);
            let mut extended = false;
            for &j in &hits {
                join.push_merged(i, j);
                if cond(&join.out.row(join.out.len - 1)) {
                    extended = true;
                } else {
                    join.pop();
                }
            }
            if !extended {
                join.push_left(i);
            }
        }
        join.out
    }
}

/// A batch whose terms are lent: a [`Rows`] header and cells, each bound
/// cell naming a term borrowed from where the batch was built — a
/// provider's store, or a key shipped with its sub-query — rather than
/// held in a dictionary of its own. The frame writer
/// ([`crate::solution::wire::put_lent`]) reads it as it reads a batch, byte
/// for byte, and [`LentRows::to_rows`] clones each term once into one.
pub struct LentRows<'t> {
    pub(crate) vars: Vec<Variable>,
    /// Cell `c` names `terms[c - 1]`; no two entries are equal terms.
    pub(crate) terms: Vec<&'t Term>,
    pub(crate) cells: Vec<u32>,
    pub(crate) len: usize,
}

impl<'t> LentRows<'t> {
    /// The `len` rows over the columns `vars`, `cells` row-major: each
    /// [`UNBOUND`] or naming `terms[cell - 1]`. The terms must be distinct
    /// — equal terms share one cell, as in a [`Rows`] dictionary. Panics if
    /// the cells are not `len` rows as wide as `vars`.
    pub fn new(vars: Vec<Variable>, terms: Vec<&'t Term>, cells: Vec<u32>, len: usize) -> Self {
        assert_eq!(cells.len(), len * vars.len(), "one cell per column and row");
        debug_assert!(cells.iter().all(|&c| c as usize <= terms.len()), "a cell of the table");
        LentRows { vars, terms, cells, len }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The columns.
    pub fn vars(&self) -> &[Variable] {
        &self.vars
    }

    /// The rows as a [`Rows`] batch of their own: each term cloned once,
    /// into a dictionary whose ids are the cells'.
    pub fn to_rows(&self) -> Rows {
        let mut dict = Dictionary::new();
        dict.reserve(self.terms.len());
        for term in &self.terms {
            dict.intern(term);
        }
        assert_eq!(dict.len(), self.terms.len(), "a lent batch names each term once");
        Rows { vars: self.vars.clone(), dict, cells: self.cells.clone(), len: self.len }
    }
}

/// Two batches are equal when they hold equal rows in the same order,
/// whatever their headers and dictionaries.
impl PartialEq for Rows {
    fn eq(&self, other: &Rows) -> bool {
        self.len == other.len && self.iter().zip(other.iter()).all(|(a, b)| a.equals(&b))
    }
}

impl Eq for Rows {}

/// A batch equals a solution sequence holding its rows in its order.
impl PartialEq<Vec<Solution>> for Rows {
    fn eq(&self, other: &Vec<Solution>) -> bool {
        self.len == other.len()
            && self.iter().zip(other).all(|(row, sol)| row.to_solution() == *sol)
    }
}

impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One row of a [`Rows`] batch, lent.
#[derive(Clone, Copy)]
pub struct Row<'a> {
    rows: &'a Rows,
    cells: &'a [u32],
}

impl<'a> Row<'a> {
    /// The term the row binds `var` to, if any.
    pub fn get(&self, var: &Variable) -> Option<&'a Term> {
        self.at(self.rows.column(var)?)
    }

    /// The row's bindings, in column order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a Variable, &'a Term)> + 'a {
        let rows = self.rows;
        rows.vars
            .iter()
            .zip(self.cells)
            .filter(|(_, c)| **c != UNBOUND)
            .map(move |(v, c)| (v, rows.term(*c)))
    }

    /// The row's cells, one per column: [`UNBOUND`] or a term's id plus
    /// one in the batch's dictionary.
    pub(crate) fn cells(&self) -> &'a [u32] {
        self.cells
    }

    /// The term in column `col`, if the row binds it.
    pub(crate) fn at(&self, col: usize) -> Option<&'a Term> {
        let cell = self.cells[col];
        (cell != UNBOUND).then(|| self.rows.term(cell))
    }

    /// The row's bound cells among the columns `cols`, in that order, each
    /// as its column and term.
    pub(crate) fn bound_in<'c>(&self, cols: &'c [usize]) -> impl Iterator<Item = (usize, &'a Term)> + 'c
    where
        'a: 'c,
    {
        let row = *self;
        cols.iter().filter_map(move |&c| Some((c, row.at(c)?)))
    }

    /// The row as a [`Solution`].
    pub fn to_solution(&self) -> Solution {
        Solution::from_pairs(self.iter().map(|(v, t)| (v.clone(), t.clone())))
    }

    /// Whether the two rows bind the same variables to the same terms.
    fn equals(&self, other: &Row<'_>) -> bool {
        let count = |row: &Row<'_>| row.cells.iter().filter(|c| **c != UNBOUND).count();
        count(self) == count(other) && self.iter().all(|(v, t)| other.get(v) == Some(t))
    }
}

impl Bindings for Row<'_> {
    fn get(&self, var: &Variable) -> Option<&Term> {
        Row::get(self, var)
    }
}

/// Written as the row's [`Solution`] is: `{?a -> t, ...}`, bindings in
/// variable-name order.
impl fmt::Display for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (c, t)) in self.bound_in(&self.rows.columns_by_name()).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} -> {t}", self.rows.vars[c])?;
        }
        write!(f, "}}")
    }
}

/// Printed as the row's [`Solution`] is, so a batch prints as the
/// solution sequence it holds.
impl fmt::Debug for Row<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Map<'r>(Row<'r>);
        impl fmt::Debug for Map<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let row = self.0;
                let by_name = row.rows.columns_by_name();
                let bindings = row.bound_in(&by_name).map(|(c, t)| (&row.rows.vars[c], t));
                f.debug_map().entries(bindings).finish()
            }
        }
        f.debug_struct("Solution").field("bindings", &Map(*self)).finish()
    }
}

/// Right-operand rows sharing one domain.
struct Group {
    /// The bound columns, ascending.
    domain: Vec<usize>,
    /// Right rows, ascending.
    rows: Vec<u32>,
}

/// How a left row of one domain probes one [`Group`].
enum Probe {
    /// No variable in common: every row of the group is compatible (the
    /// Cartesian case).
    All,
    /// The shared variables, as `(left column, right column)`, and the
    /// group's rows chained by the hash of their cells there, translated
    /// to left ids: `heads[hash] = (first, last)` positions in the group,
    /// `next[position]` the following one. Rows binding a term the left
    /// dictionary lacks can match no left row and are left out.
    Keyed { pairs: Vec<(usize, usize)>, heads: HashMap<u64, (u32, u32), FxBuild>, next: Vec<u32> },
}

/// A hash index over the right operand of a join, probed with left rows
/// whose ids are the left batch's.
struct Index<'r> {
    right: &'r Rows,
    /// Per right column, the left column of the same variable.
    left_col: Vec<Option<usize>>,
    /// Per right id, the left id of its term ([`NIL`] if the left
    /// dictionary lacks it).
    as_left: Vec<u32>,
    groups: Vec<Group>,
    /// Per left domain seen, one probe per group.
    probes: Vec<Vec<Probe>>,
    by_domain: HashMap<Vec<usize>, usize, FxBuild>,
    /// The domain of the last left row probed, and its probes.
    last: Option<(Vec<usize>, usize)>,
}

impl<'r> Index<'r> {
    fn new(left: &Rows, right: &'r Rows) -> Index<'r> {
        let left_col = right.vars.iter().map(|v| left.column(v)).collect();
        let as_left = right.dict.terms().iter().map(|t| left.find(t).unwrap_or(NIL)).collect();
        let mut groups: Vec<Group> = Vec::new();
        let mut group_of: HashMap<Vec<usize>, usize, FxBuild> = HashMap::default();
        let mut domain = Vec::new();
        for i in 0..right.len {
            domain.clear();
            let cells = right.cells_of(i).iter().enumerate();
            domain.extend(cells.filter(|(_, c)| **c != UNBOUND).map(|(k, _)| k));
            let g = match group_of.get(&domain) {
                Some(&g) => g,
                None => {
                    group_of.insert(domain.clone(), groups.len());
                    groups.push(Group { domain: domain.clone(), rows: Vec::new() });
                    groups.len() - 1
                }
            };
            groups[g].rows.push(i as u32);
        }
        Index {
            right,
            left_col,
            as_left,
            groups,
            probes: Vec::new(),
            by_domain: HashMap::default(),
            last: None,
        }
    }

    /// The probes for the domain of `row`, built on first use.
    fn probes_for(&mut self, row: &[u32]) -> usize {
        let bound = |k: &usize| row[*k] != UNBOUND;
        if let Some((domain, p)) = &self.last {
            let same = domain.iter().all(bound)
                && row.iter().filter(|c| **c != UNBOUND).count() == domain.len();
            if same {
                return *p;
            }
        }
        let domain: Vec<usize> = (0..row.len()).filter(bound).collect();
        let p = match self.by_domain.get(&domain) {
            Some(&p) => p,
            None => {
                let probes = self.groups.iter().map(|g| self.build(&domain, g)).collect();
                self.probes.push(probes);
                self.by_domain.insert(domain.clone(), self.probes.len() - 1);
                self.probes.len() - 1
            }
        };
        self.last = Some((domain, p));
        p
    }

    fn build(&self, left_domain: &[usize], group: &Group) -> Probe {
        let pairs: Vec<(usize, usize)> = group
            .domain
            .iter()
            .filter_map(|&rc| {
                let lc = self.left_col[rc].filter(|lc| left_domain.contains(lc))?;
                Some((lc, rc))
            })
            .collect();
        if pairs.is_empty() {
            return Probe::All;
        }
        let mut heads: HashMap<u64, (u32, u32), FxBuild> = HashMap::default();
        let mut next = vec![NIL; group.rows.len()];
        'rows: for (pos, &r) in group.rows.iter().enumerate() {
            let cells = self.right.cells_of(r as usize);
            let mut h = FxHasher64::default();
            for &(_, rc) in &pairs {
                let id = self.as_left[cells[rc] as usize - 1];
                if id == NIL {
                    continue 'rows;
                }
                h.write_u32(id);
            }
            let pos = pos as u32;
            heads
                .entry(h.finish())
                .and_modify(|(_, last)| {
                    next[*last as usize] = pos;
                    *last = pos;
                })
                .or_insert((pos, pos));
        }
        Probe::Keyed { pairs, heads, next }
    }

    /// Collects into `out` the right rows compatible with the left row
    /// `row`, ascending — the candidates a nested loop would visit.
    fn compatible_into(&mut self, row: &[u32], out: &mut Vec<u32>) {
        out.clear();
        if self.right.is_empty() {
            return;
        }
        let p = self.probes_for(row);
        let mut sources = 0;
        for (group, probe) in self.groups.iter().zip(&self.probes[p]) {
            let before = out.len();
            match probe {
                Probe::All => out.extend_from_slice(&group.rows),
                Probe::Keyed { pairs, heads, next } => {
                    let key = cells_hash(pairs.iter().map(|&(lc, _)| row[lc]));
                    let Some(&(mut pos, _)) = heads.get(&key) else { continue };
                    while pos != NIL {
                        let r = group.rows[pos as usize];
                        let cells = self.right.cells_of(r as usize);
                        let as_left = |rc: usize| self.as_left[cells[rc] as usize - 1];
                        if pairs.iter().all(|&(lc, rc)| as_left(rc) == row[lc]) {
                            out.push(r);
                        }
                        pos = next[pos as usize];
                    }
                }
            }
            sources += usize::from(out.len() > before);
        }
        // Each group's hits ascend; hits of several groups interleave.
        if sources > 1 {
            out.sort_unstable();
        }
    }

    /// Whether any right row is compatible with the left row `row`.
    fn any_compatible(&mut self, row: &[u32]) -> bool {
        let mut hits = Vec::new();
        self.compatible_into(row, &mut hits);
        !hits.is_empty()
    }
}

/// A join in progress: the left operand, the index over the right one,
/// and the output batch, which extends the left operand's header and
/// takes over its dictionary.
struct Join<'r> {
    left: Rows,
    index: Index<'r>,
    out: Rows,
    /// Per right column, its output column.
    out_col: Vec<usize>,
    /// Per right id, its output id ([`UNBOUND`] until first used).
    as_out: Vec<u32>,
}

impl<'r> Join<'r> {
    fn new(mut left: Rows, right: &'r Rows) -> Join<'r> {
        let index = Index::new(&left, right);
        let mut out = Rows::with_vars(left.vars.clone());
        out.dict = std::mem::take(&mut left.dict);
        let out_col = right.vars.iter().map(|v| out.column_or_add(v)).collect();
        let as_out = index.as_left.iter().map(|&id| if id == NIL { UNBOUND } else { id }).collect();
        Join { left, index, out, out_col, as_out }
    }

    /// Appends left row `i`, unbound in the columns it lacks.
    fn push_left(&mut self, i: usize) {
        let w = self.left.width();
        self.out.cells.extend_from_slice(&self.left.cells[i * w..(i + 1) * w]);
        self.out.cells.resize(self.out.cells.len() + self.out.width() - w, UNBOUND);
        self.out.len += 1;
    }

    /// Appends the merge of left row `i` and the compatible right row `j`.
    fn push_merged(&mut self, i: usize, j: u32) {
        let start = self.out.cells.len();
        self.push_left(i);
        let right = self.index.right;
        for (k, &cell) in right.cells_of(j as usize).iter().enumerate() {
            let col = start + self.out_col[k];
            if self.out.cells[col] == UNBOUND {
                self.out.cells[col] = self.out.translate(right, &mut self.as_out, cell);
            }
        }
    }

    /// Drops the last row appended.
    fn pop(&mut self) {
        self.out.len -= 1;
        self.out.cells.truncate(self.out.len * self.out.width());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::naive;

    fn v(name: &str) -> Variable {
        Variable::new(name)
    }

    fn sol(pairs: &[(&str, &str)]) -> Solution {
        let iri = |val: &str| Term::iri(&format!("http://e/{val}"));
        Solution::from_pairs(pairs.iter().map(|(n, val)| (v(n), iri(val))))
    }

    #[test]
    fn solutions_round_trip_and_terms_are_stored_once() {
        let sols = vec![sol(&[("x", "a"), ("y", "a")]), sol(&[("z", "a")]), Solution::new()];
        let rows = Rows::from_solutions(&sols);
        assert_eq!(rows.to_solutions(), sols);
        assert_eq!(rows.dict.len(), 1, "one term, however many cells bind it");
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn a_column_added_late_leaves_earlier_rows_unbound() {
        let mut rows = Rows::new();
        let (a, b) = (Term::iri("http://e/a"), Term::iri("http://e/b"));
        assert!(rows.push_bindings([(&v("x"), &a)]));
        assert!(rows.push_bindings([(&v("y"), &b), (&v("x"), &a)]));
        assert!(!rows.push_bindings([(&v("x"), &a), (&v("x"), &b)]), "?x bound twice, differently");
        assert_eq!(rows.to_solutions(), vec![sol(&[("x", "a")]), sol(&[("x", "a"), ("y", "b")])]);
    }

    #[test]
    fn a_batch_prints_as_the_solutions_it_holds() {
        let sols = vec![sol(&[("y", "b"), ("x", "a")]), Solution::new(), sol(&[("z", "c")])];
        let rows = Rows::from_solutions(&sols);
        assert_eq!(format!("{rows:?}"), format!("{sols:?}"));
        for (row, sol) in rows.iter().zip(&sols) {
            assert_eq!(row.to_string(), sol.to_string());
        }
    }

    #[test]
    fn columns_slices_and_order_are_cut_in_place() {
        let sols: Vec<Solution> =
            ["c", "a", "b", "a"].iter().map(|val| sol(&[("x", val), ("y", "k")])).collect();
        let mut rows = Rows::from_solutions(&sols);
        rows.keep_columns(&[v("x")]);
        assert_eq!(rows.vars(), &[v("x")]);
        let x_of = |i: &usize| rows.row(*i).get(&v("x")).cloned();
        let keys: Vec<Option<Term>> = (0..rows.len()).map(|i| x_of(&i)).collect();
        rows.sort_by_index(|a, b| keys[*a].cmp(&keys[*b]));
        let x = |vals: &[&str]| vals.iter().map(|val| sol(&[("x", val)])).collect::<Vec<_>>();
        assert_eq!(rows.to_solutions(), x(&["a", "a", "b", "c"]));
        rows.slice(1, Some(2));
        assert_eq!(rows.to_solutions(), x(&["a", "b"]));
        rows.slice(5, None);
        assert!(rows.is_empty());
    }

    #[test]
    fn join_appends_the_right_columns_and_interns_its_terms_once() {
        let left = Rows::from_solutions(&[sol(&[("x", "a")]), sol(&[("x", "b")])]);
        let right =
            Rows::from_solutions(&[sol(&[("x", "a"), ("y", "c")]), sol(&[("x", "b"), ("y", "c")])]);
        let joined = left.join(&right);
        assert_eq!(joined.vars(), &[v("x"), v("y")]);
        assert_eq!(joined.dict.len(), 3, "a, b and one c");
        assert_eq!(
            joined.to_solutions(),
            vec![sol(&[("x", "a"), ("y", "c")]), sol(&[("x", "b"), ("y", "c")])]
        );
    }

    fn rows(solutions: &[Solution]) -> Rows {
        Rows::from_solutions(solutions)
    }

    #[test]
    fn join_produces_compatible_merges_only() {
        let l = rows(&[sol(&[("x", "a"), ("y", "b")]), sol(&[("x", "q"), ("y", "r")])]);
        let r = rows(&[sol(&[("y", "b"), ("z", "c")])]);
        let j = l.join(&r).to_solutions();
        assert_eq!(j.len(), 1);
        assert_eq!(j[0].get(&v("z")), Some(&Term::iri("http://e/c")));
    }

    #[test]
    fn difference_keeps_incompatible_rows() {
        let l = rows(&[sol(&[("x", "a")]), sol(&[("x", "b")])]);
        let r = rows(&[sol(&[("x", "a"), ("z", "c")])]);
        assert_eq!(l.difference(&r).to_solutions(), vec![sol(&[("x", "b")])]);
    }

    #[test]
    fn left_join_is_join_union_difference() {
        // Paper Sect. IV-E: Ω1 ⟕ Ω2 = (Ω1 ⋈ Ω2) ∪ (Ω1 − Ω2).
        let l = rows(&[sol(&[("x", "a")]), sol(&[("x", "b")])]);
        let r = rows(&[sol(&[("x", "a"), ("y", "c")])]);
        assert_eq!(
            l.left_join(&r).to_solutions(),
            vec![sol(&[("x", "a"), ("y", "c")]), sol(&[("x", "b")])]
        );
    }

    #[test]
    fn left_join_filtered_drops_failing_extensions_but_keeps_bases() {
        let l = rows(&[sol(&[("x", "a")])]);
        let r = rows(&[sol(&[("x", "a"), ("y", "c")])]);
        // Condition rejects every extension: base row must survive bare.
        let out = l.clone().left_join_filtered(&r, |_| false);
        assert_eq!(out.to_solutions(), vec![sol(&[("x", "a")])]);
        // Condition accepts: extension survives.
        let out = l.left_join_filtered(&r, |_| true);
        assert_eq!(out.to_solutions(), vec![sol(&[("x", "a"), ("y", "c")])]);
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

    /// Every batch operator over `l` and `r` against its nested-loop
    /// transcription, rows and order; `cond` guards the filtered left join.
    fn assert_operators_match_naive(l: &[Solution], r: &[Solution], cond: fn(&Solution) -> bool) {
        let (lr, rr) = (rows(l), rows(r));
        assert_eq!(lr.clone().join(&rr).to_solutions(), naive::join(l, r));
        assert_eq!(lr.clone().difference(&rr).to_solutions(), naive::difference(l, r));
        assert_eq!(lr.clone().left_join(&rr).to_solutions(), naive::left_join(l, r));
        let filtered = lr.left_join_filtered(&rr, |row| cond(&row.to_solution()));
        assert_eq!(filtered.to_solutions(), naive::left_join_filtered(l, r, cond));
    }

    #[test]
    fn operators_match_naive_exactly() {
        let (l, r) = mixed_sets();
        let cond = |s: &Solution| s.get(&v("w")).is_none_or(|t| t.to_string().contains('e'));
        assert_operators_match_naive(&l, &r, cond);
        assert_operators_match_naive(&r, &l, cond);
    }

    #[test]
    fn operators_handle_empty_operands() {
        let (l, _) = mixed_sets();
        let (some, none) = (rows(&l), Rows::new());
        assert!(some.clone().join(&none).is_empty());
        assert!(none.clone().join(&some).is_empty());
        assert_eq!(some.clone().difference(&none), l);
        assert!(none.clone().difference(&some).is_empty());
        assert_eq!(some.clone().left_join(&none), l);
        assert_eq!(some.left_join_filtered(&none, |_| true), l);
    }

    #[test]
    fn distinct_preserves_first_seen_order() {
        let sols = vec![
            sol(&[("x", "b")]),
            sol(&[("x", "a")]),
            sol(&[("x", "b")]),
            sol(&[("x", "c")]),
            sol(&[("x", "a")]),
        ];
        let deduped = rows(&sols).distinct().to_solutions();
        assert_eq!(deduped, naive::distinct(sols));
        assert_eq!(deduped, vec![sol(&[("x", "b")]), sol(&[("x", "a")]), sol(&[("x", "c")])]);
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
            assert_operators_match_naive(&left(l), &right[..r], cond);
        }
    }
}
