//! # rdfa-model — the RDF data model
//!
//! Foundational types for the RDF-Analytics system: RDF [terms](term::Term)
//! (IRIs, blank nodes, literals), [triples](triple::Triple), typed
//! [XSD values](value::Value) with SPARQL-compatible ordering and arithmetic,
//! well-known [vocabularies](vocab) (`rdf:`, `rdfs:`, `xsd:`, `owl:`), and
//! plain-text serializations (a Turtle subset and N-Triples), and the one
//! [JSON string escaper](json::push_json_string) every JSON body uses.
//!
//! Everything in this crate is deliberately storage-agnostic: terms own their
//! strings. The interning layer that turns terms into dense integer ids lives
//! in `rdfa-store`.
//!
//! ```
//! use rdfa_model::{Term, Triple, vocab};
//!
//! let t = Triple::new(
//!     Term::iri("http://example.org/laptop1"),
//!     Term::iri(vocab::rdf::TYPE),
//!     Term::iri("http://example.org/Laptop"),
//! );
//! assert!(t.predicate.is_iri());
//! ```

pub mod date;
pub mod json;
pub mod ntriples;
pub mod term;
pub mod triple;
pub mod turtle;
pub mod value;
pub mod vocab;

pub use date::{Date, DateTime};
pub use ntriples::{NtriplesError, NtriplesErrorKind};
pub use term::{EscapeError, Literal, Term};
pub use triple::{Graph, Triple};
pub use value::Value;
