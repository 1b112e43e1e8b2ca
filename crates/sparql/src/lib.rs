//! # rdfmesh-sparql — SPARQL substrate
//!
//! A from-scratch SPARQL engine covering the fragment the paper works
//! with (Sect. IV): the four query forms, basic/conjunctive/optional/
//! union/filter graph patterns, solution sequence modifiers and the
//! Pérez-et-al. compositional semantics, plus the algebraic optimizer
//! (filter pushing, join re-ordering, constant folding) the paper's
//! Global Query Optimizer builds upon.
//!
//! ```
//! use rdfmesh_rdf::{Term, Triple, TripleStore};
//! use rdfmesh_sparql::{parse_query, evaluate_query};
//!
//! let mut store = TripleStore::new();
//! store.insert(&Triple::new(
//!     Term::iri("http://example.org/alice"),
//!     Term::iri("http://xmlns.com/foaf/0.1/name"),
//!     Term::literal("Alice Smith"),
//! ));
//! let query = parse_query(
//!     "SELECT ?x WHERE { ?x foaf:name ?n . FILTER regex(?n, \"Smith\") }",
//! ).unwrap();
//! let result = evaluate_query(&store, &query);
//! assert_eq!(result.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod algebra;
pub mod answer;
pub mod ast;
pub mod eval;
pub mod expr;
pub mod lexer;
pub mod optimizer;
pub mod parser;
pub mod regex;
pub mod results;
pub mod rows;
pub mod serializer;
pub mod solution;

pub use algebra::{translate, AlgebraQuery, GraphPattern};
pub use answer::{QueryResult, Selection};
pub use eval::{evaluate_pattern, evaluate_query, finalize, Graph};
pub use expr::{ArithOp, ComparisonOp, Expression, ExprError};
pub use optimizer::{optimize, optimize_with, CardinalityEstimator, OptimizerConfig};
pub use parser::{parse, ParseError};
pub use results::{to_json, to_tsv, to_xml};
pub use serializer::{graph_pattern as serialize_pattern, query as serialize_query};
pub use rows::{Row, Rows};
pub use solution::{distinct, Solution, SolutionSet};

/// Parses a query string and translates it to algebra in one call — the
/// Query Parsing + Query Transformation stages of Fig. 3.
pub fn parse_query(input: &str) -> Result<AlgebraQuery, ParseError> {
    parse(input).map(|q| translate(&q))
}
