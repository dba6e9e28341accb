//! # rdfa-facets — the core model for faceted search over RDF
//!
//! Implements the general interaction model of \[114\] that the paper builds
//! on (§5.2.1, §5.3): the state space of a faceted-exploration session, where
//! each **state** has an *extension* (the set of resources in focus) and an
//! *intention* (a query whose answer is the extension), and **transitions**
//! are user-clickable markers:
//!
//! - *class-based* markers — the (maximal) classes with their instance
//!   counts, expandable along `rdfs:subClassOf` (Fig 5.4 a/b);
//! - *property-based* markers — for each applicable property, its joined
//!   values with counts (Fig 5.4 c);
//! - *path-expansion* markers — property paths `p1/p2/…/pk` whose terminal
//!   value sets `M_k` can be clicked, with the selection propagated back via
//!   `M'_i = Restrict(M_i, p_{i+1} : M'_{i+1})` (Eq. 5.1, Fig 5.5);
//! - *value range* filters (the `⧩` button of §5.1, Example 3).
//!
//! The model guarantees **no empty results**: only markers with non-zero
//! counts are offered, so every reachable state has a non-empty extension.
//!
//! ```
//! use rdfa_store::Store;
//! use rdfa_facets::FacetedSession;
//!
//! let mut store = Store::new();
//! store.load_turtle(r#"
//!   @prefix ex: <http://example.org/> .
//!   ex:l1 a ex:Laptop ; ex:manufacturer ex:DELL .
//!   ex:l2 a ex:Laptop ; ex:manufacturer ex:Lenovo .
//! "#).unwrap();
//! let mut session = FacetedSession::start(&store);
//! let laptop = store.lookup_iri("http://example.org/Laptop").unwrap();
//! session.select_class(laptop).unwrap();
//! assert_eq!(session.extension().len(), 2);
//! ```

pub mod buckets;
pub mod cache;
pub mod markers;
pub mod notation;
pub mod ops;
pub mod session;
pub mod state;

pub use buckets::{bucket_values, Bucket};
pub use cache::{FacetCache, FacetCacheStats, DEFAULT_FACET_CACHE_ENTRIES};
pub use markers::{
    class_markers, class_markers_from_counts, class_markers_opts, expand_path, grouped_values,
    inverse_property_facets, property_facets, property_facets_opts, ClassMarker, FacetOptions,
    GroupedValues, PropertyFacet,
};
pub use ops::{joins, joins_path, restrict_class, restrict_path, restrict_value};
pub use rdfa_exec::CancelFlag;
pub use rdfa_store::ExtSet;
pub use session::FacetedSession;
pub use state::{Condition, Constraint, Intent, PathStep, State};

/// Errors from session operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FacetError {
    pub message: String,
}

impl FacetError {
    pub fn new(message: impl Into<String>) -> Self {
        FacetError { message: message.into() }
    }
}

impl std::fmt::Display for FacetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "facet error: {}", self.message)
    }
}

impl std::error::Error for FacetError {}

/// A tripped marker budget: only the deadline and the cancellation token
/// apply to facets.
impl From<rdfa_exec::LimitError> for FacetError {
    fn from(e: rdfa_exec::LimitError) -> Self {
        FacetError::new(match e.kind {
            rdfa_exec::LimitKind::Cancelled => "marker computation cancelled".to_owned(),
            rdfa_exec::LimitKind::Deadline => {
                "marker computation exceeded the configured deadline".to_owned()
            }
            _ => e.to_string(),
        })
    }
}
