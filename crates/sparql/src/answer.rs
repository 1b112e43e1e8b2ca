//! What a query answers: [`QueryResult`], shaped by its query form.
//!
//! A SELECT answer is a [`Selection`]: the id-row batch ([`Rows`]) that
//! `finalize` ordered, projected, deduplicated and sliced, which the
//! result writers (`results.rs`) read as it is. Its rows become
//! [`Solution`]s only for a caller that asks ([`Selection::solutions`]);
//! nothing between a frame and the response bytes does.

use std::fmt;
use std::sync::OnceLock;

use rdfmesh_rdf::Triple;

use crate::rows::Rows;
use crate::solution::Solution;

/// The result of a query, shaped by its query form.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// SELECT: a solution sequence, as the finished id-row batch.
    Solutions(Selection),
    /// ASK: a boolean.
    Boolean(bool),
    /// CONSTRUCT / DESCRIBE: an RDF graph.
    Graph(Vec<Triple>),
}

impl QueryResult {
    /// The solutions, if this is a SELECT result (see
    /// [`Selection::solutions`]).
    pub fn solutions(&self) -> Option<&[Solution]> {
        match self {
            QueryResult::Solutions(s) => Some(s.solutions()),
            _ => None,
        }
    }

    /// Number of solutions / triples, or 0/1 for ASK.
    pub fn len(&self) -> usize {
        match self {
            QueryResult::Solutions(s) => s.rows().len(),
            QueryResult::Boolean(b) => usize::from(*b),
            QueryResult::Graph(g) => g.len(),
        }
    }

    /// True if the result carries nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A SELECT answer: the finished [`Rows`] batch, which the result writers
/// read, beside the same rows as [`Solution`]s, built the first time they
/// are asked for. Equality, `Debug` and `Clone` see the rows only.
pub struct Selection {
    rows: Rows,
    solutions: OnceLock<Vec<Solution>>,
}

impl Selection {
    /// The rows, as the batch `finalize` left them.
    pub fn rows(&self) -> &Rows {
        &self.rows
    }

    /// The rows as [`Solution`]s, in order: built from the batch on the
    /// first call.
    pub fn solutions(&self) -> &[Solution] {
        self.solutions.get_or_init(|| self.rows.to_solutions())
    }
}

impl From<Rows> for Selection {
    fn from(rows: Rows) -> Selection {
        Selection { rows, solutions: OnceLock::new() }
    }
}

impl From<Vec<Solution>> for Selection {
    fn from(solutions: Vec<Solution>) -> Selection {
        Selection { rows: Rows::from_solutions(&solutions), solutions: OnceLock::from(solutions) }
    }
}

impl From<Selection> for Vec<Solution> {
    fn from(selection: Selection) -> Vec<Solution> {
        let Selection { rows, solutions } = selection;
        solutions.into_inner().unwrap_or_else(|| rows.into_solutions())
    }
}

impl Clone for Selection {
    fn clone(&self) -> Selection {
        Selection::from(self.rows.clone())
    }
}

impl PartialEq for Selection {
    fn eq(&self, other: &Selection) -> bool {
        self.rows == other.rows
    }
}

impl fmt::Debug for Selection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.rows.fmt(f)
    }
}
