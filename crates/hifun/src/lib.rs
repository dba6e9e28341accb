//! # rdfa-hifun — the HIFUN functional analytics language over RDF
//!
//! HIFUN (§2.5 of the paper) views a dataset as a set of uniquely identified
//! items with *functional attributes*; an analytic query is an ordered triple
//! `(g, m, op)` of a grouping function, a measuring function, and an
//! aggregate operation, each possibly restricted:
//! `q = (gE/rg, mE/rm, opE/ro)`.
//!
//! This crate implements:
//!
//! - the query AST ([`query`]) with the functional algebra the paper uses —
//!   composition (`∘`), pairing (`⊗`), restriction (`/`), derived
//!   attributes (`month ∘ date`) and inverse attributes (`^p`) — and a root
//!   that holds what a faceted click says, so a state's intention is a
//!   [`Root`];
//! - the [analysis context](context) and its applicability checks (§4.1.1);
//! - the **translation to SPARQL** ([`translate`]) following Algorithms 1–4
//!   of Chapter 4 verbatim (simple case, compositions, pairings,
//!   pairings-over-compositions, the general case with restriction paths);
//! - a **direct functional evaluator** ([`direct`]) implementing HIFUN's
//!   grouping → measuring → reduction semantics natively; it serves as the
//!   reference for the translation-soundness property (Proposition 2);
//! - the **feature-creation operators** FCO1–FCO9 of Table 4.1 ([`fco`]),
//!   which transform RDF data that violates HIFUN's functionality assumption.
//!
//! ```
//! use rdfa_store::Store;
//! use rdfa_hifun::{AttrPath, HifunQuery, AggOp};
//!
//! let mut store = Store::new();
//! store.load_turtle(r#"
//!   @prefix ex: <http://example.org/> .
//!   ex:i1 ex:takesPlaceAt ex:b1 ; ex:inQuantity 200 .
//!   ex:i2 ex:takesPlaceAt ex:b1 ; ex:inQuantity 100 .
//!   ex:i3 ex:takesPlaceAt ex:b2 ; ex:inQuantity 400 .
//! "#).unwrap();
//!
//! // (takesPlaceAt, inQuantity, SUM)
//! let q = HifunQuery::new(AggOp::Sum)
//!     .group_by(AttrPath::prop("http://example.org/takesPlaceAt"))
//!     .measure(AttrPath::prop("http://example.org/inQuantity"));
//!
//! let sparql = rdfa_hifun::translate::to_sparql(&q);
//! assert!(sparql.contains("GROUP BY"));
//! let answer = rdfa_hifun::direct::evaluate(&store, &q).unwrap();
//! assert_eq!(answer.len(), 2);
//! ```

pub mod context;
pub mod direct;
pub mod fco;
pub mod parse;
pub mod query;
pub mod translate;

pub use context::{AnalysisContext, Applicability, RootSpec};
pub use direct::evaluate;
pub use parse::parse_hifun;
pub use query::{AggOp, AttrPath, CondOp, DerivedFn, HifunQuery, Restriction, Root, Step, Test};
pub use translate::{root_to_sparql, to_sparql};

/// Errors from HIFUN evaluation or translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HifunError {
    pub message: String,
}

impl HifunError {
    pub fn new(message: impl Into<String>) -> Self {
        HifunError { message: message.into() }
    }
}

impl std::fmt::Display for HifunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "hifun error: {}", self.message)
    }
}

impl std::error::Error for HifunError {}
