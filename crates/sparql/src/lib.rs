//! # rdfa-sparql — a SPARQL 1.1 subset engine
//!
//! Parser, algebra, and one physical-plan executor for the SPARQL fragment
//! the RDF-Analytics system needs (§2.4 and Chapter 4 of the paper) —
//! every query form compiles to the same plan ([`plan`]): `SELECT` (with `DISTINCT`,
//! expression projections, and sub-selects), basic graph patterns, `FILTER`
//! with the full comparison/arithmetic/boolean operator set and the built-ins
//! used by derived attributes (`YEAR`, `MONTH`, `DAY`, …), `OPTIONAL`,
//! `UNION`, `VALUES`, `BIND`, property paths (`/`, `^`, `|`, `+`, `*`, `?`),
//! `GROUP BY` (variables and expressions), all standard aggregates, `HAVING`,
//! `ORDER BY`, `LIMIT`/`OFFSET`, `MINUS`, `EXISTS`, `CONSTRUCT`, `ASK` and
//! `DESCRIBE`, plus the update subset ([`update`]).
//!
//! ```
//! use rdfa_store::Store;
//! use rdfa_sparql::Engine;
//!
//! let mut store = Store::new();
//! store.load_turtle(r#"
//!   @prefix ex: <http://example.org/> .
//!   ex:l1 ex:price 900 ; ex:manufacturer ex:DELL .
//!   ex:l2 ex:price 1000 ; ex:manufacturer ex:DELL .
//! "#).unwrap();
//! let engine = Engine::builder(&store).build();
//! let prepared = engine.prepare(r#"
//!   PREFIX ex: <http://example.org/>
//!   SELECT ?m (AVG(?p) AS ?avg) WHERE { ?x ex:manufacturer ?m . ?x ex:price ?p . }
//!   GROUP BY ?m
//! "#).unwrap();
//! let results = prepared.execute().unwrap();
//! assert_eq!(results.solutions().unwrap().len(), 1);
//! // the compiled plan is reusable and explainable
//! assert!(prepared.explain().contains("physical plan:"));
//! ```

pub mod ast;
pub mod batch;
pub mod engine;
pub mod expr;
pub mod parser;
pub mod path;
pub mod plan;
pub mod results;
pub mod token;
pub mod update;
pub mod views;

pub use ast::{Query, QueryForm, SelectQuery};
pub use engine::{Engine, EngineBuilder, EvalOptions, PreparedQuery};
pub use rdfa_exec::{CancelFlag, EvalLimits, LimitError, LimitGuard, LimitKind, Tally};
pub use parser::parse_query;
pub use plan::{ExecStats, OpStats};
pub use results::{QueryResults, Solutions};
pub use update::{
    execute_update, execute_update_limited, execute_update_recording, UpdateOp, UpdateStats,
};
pub use views::{match_aggregate_shape, AggShape, ShapeMatch, ViewCatalog};

/// Errors from parsing or evaluating a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SparqlError {
    /// A parse or evaluation error, with a human-readable message.
    Query(String),
    /// Evaluation exceeded a configured resource budget (see [`EvalLimits`]).
    /// `limit` is the configured ceiling: milliseconds for
    /// [`LimitKind::Deadline`], a count otherwise.
    ResourceLimit { kind: LimitKind, limit: u64 },
}

impl SparqlError {
    /// A plain query error (the common case throughout the parser).
    pub fn new(message: impl Into<String>) -> Self {
        SparqlError::Query(message.into())
    }

    /// The human-readable message, whatever the variant.
    pub fn message(&self) -> String {
        match self {
            SparqlError::Query(m) => m.clone(),
            SparqlError::ResourceLimit { kind: LimitKind::Cancelled, .. } => {
                "query cancelled: client disconnected or server draining".to_owned()
            }
            SparqlError::ResourceLimit { kind, limit } => {
                format!("resource limit exceeded: {kind} (limit {limit})")
            }
        }
    }

    /// True when evaluation stopped because its [`CancelFlag`] was set
    /// (client gone or server draining) rather than a budget being exceeded.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, SparqlError::ResourceLimit { kind: LimitKind::Cancelled, .. })
    }

    /// True for the structured resource-limit variant. Callers use this to
    /// choose between failing and degrading gracefully (e.g. the analytics
    /// session falls back to direct functional evaluation).
    pub fn is_resource_limit(&self) -> bool {
        matches!(self, SparqlError::ResourceLimit { .. })
    }
}

impl From<LimitError> for SparqlError {
    fn from(e: LimitError) -> Self {
        SparqlError::ResourceLimit { kind: e.kind, limit: e.limit }
    }
}

impl std::fmt::Display for SparqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sparql error: {}", self.message())
    }
}

impl std::error::Error for SparqlError {}
