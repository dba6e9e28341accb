//! # rdfa-core — the RDF-Analytics interaction model
//!
//! The paper's primary contribution (Chapter 5): a faceted-search session
//! **extended with analytics actions**, so that ordinary users formulate
//! HIFUN analytic queries by clicking:
//!
//! - the **G button** next to a facet adds it (or a property path through
//!   it) as a *grouping* attribute;
//! - the **⨊ button** sets the *measuring* attribute and one or more
//!   aggregate operations (avg, sum, max, …);
//! - the **⧩ (filter) button** restricts values by range (inherited from the
//!   faceted layer);
//! - the **Answer Frame** shows the analytic answer in tabular form and can
//!   be **reloaded as a new RDF dataset** (§5.3.3), which is how `HAVING`
//!   restrictions and arbitrarily nested analytics are expressed;
//! - **OLAP operators** (Chapter 7) — roll-up, drill-down, slice, dice,
//!   pivot — are derived moves over the same state.
//!
//! A state's analytic intention is answered one way: its HIFUN query is
//! translated to SPARQL and run by the engine (Fig 6.1). Direct HIFUN
//! evaluation (`rdfa_hifun::direct`) is the reference semantics the
//! translation is checked against (Prop. 2), not a second engine.
//!
//! ```
//! use rdfa_store::Store;
//! use rdfa_core::{AnalyticsSession, GroupSpec, MeasureSpec};
//! use rdfa_hifun::AggOp;
//!
//! let mut store = Store::new();
//! store.load_turtle(r#"
//!   @prefix ex: <http://example.org/> .
//!   ex:l1 a ex:Laptop ; ex:manufacturer ex:DELL ; ex:price 900 .
//!   ex:l2 a ex:Laptop ; ex:manufacturer ex:DELL ; ex:price 1000 .
//!   ex:l3 a ex:Laptop ; ex:manufacturer ex:ACER ; ex:price 820 .
//! "#).unwrap();
//!
//! let mut s = AnalyticsSession::start(&store);
//! let laptop = store.lookup_iri("http://example.org/Laptop").unwrap();
//! let man = store.lookup_iri("http://example.org/manufacturer").unwrap();
//! let price = store.lookup_iri("http://example.org/price").unwrap();
//! s.select_class(laptop).unwrap();
//! s.add_grouping(GroupSpec::property(man));
//! s.set_measure(MeasureSpec::property(price));
//! s.set_ops(vec![AggOp::Avg]);
//! let answer = s.run().unwrap();
//! assert_eq!(answer.rows.len(), 2);
//! ```

pub mod answer;
pub mod expressive;
pub mod olap;
pub mod script;
pub mod session;
pub mod transform;

pub use answer::AnswerFrame;
pub use expressive::{check_expressibility, Expressibility, InexpressibleReason};
pub use olap::OlapOp;
pub use script::{Action, Script};
pub use transform::{Transform, Transformed};
pub use session::{AnalyticsSession, GroupSpec, MeasureSpec};

/// Errors from the analytics layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyticsError {
    pub message: String,
}

impl AnalyticsError {
    pub fn new(message: impl Into<String>) -> Self {
        AnalyticsError { message: message.into() }
    }
}

impl std::fmt::Display for AnalyticsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "analytics error: {}", self.message)
    }
}

impl std::error::Error for AnalyticsError {}

impl From<rdfa_facets::FacetError> for AnalyticsError {
    fn from(e: rdfa_facets::FacetError) -> Self {
        AnalyticsError::new(e.message)
    }
}

impl From<rdfa_sparql::SparqlError> for AnalyticsError {
    fn from(e: rdfa_sparql::SparqlError) -> Self {
        AnalyticsError::new(e.message())
    }
}

impl From<rdfa_hifun::HifunError> for AnalyticsError {
    fn from(e: rdfa_hifun::HifunError) -> Self {
        AnalyticsError::new(e.message)
    }
}
