//! # rdfa-store — interned, indexed, in-memory RDF triple store
//!
//! The storage substrate for the RDF-Analytics system. Terms are interned
//! once into dense [`TermId`]s (a classic triple-store design; see the
//! performance guide's advice on integer keys and avoiding allocation in hot
//! paths), and triples are kept in three sorted permutations — SPO, POS, OSP —
//! so that every binding shape of a triple pattern is answered by a single
//! contiguous range scan.
//!
//! RDFS inference (`rdfs:subClassOf`, `rdfs:subPropertyOf`, `rdfs:domain`,
//! `rdfs:range`) is materialized into a separate *inferred* layer (§2.1,
//! §5.2.1 of the paper), so both raw and entailed views stay queryable.
//!
//! ```
//! use rdfa_model::Term;
//! use rdfa_store::Store;
//!
//! let mut store = Store::new();
//! let ttl = r#"
//!   @prefix ex: <http://example.org/> .
//!   @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
//!   ex:Laptop rdfs:subClassOf ex:Product .
//!   ex:laptop1 a ex:Laptop .
//! "#;
//! store.load_turtle(ttl).unwrap();
//! let product = store.lookup(&Term::iri("http://example.org/Product")).unwrap();
//! assert_eq!(store.instances_set(product).len(), 1); // via subClassOf inference
//! ```

pub mod bulk;
pub mod concurrent;
pub mod extset;
pub mod index;
pub mod inference;
pub mod interner;
pub mod keyword;
mod layer;
pub mod persist;
pub mod segment;
pub mod stats;
pub mod store;

pub use bulk::{LoadError, LoadOptions, LoadStats};
pub use concurrent::{Snapshot, SnapshotStore, WriteTxn};
pub use extset::ExtSet;
pub use index::{IdTriple, TripleIndex};
pub use interner::{Interner, TermId};
pub use keyword::KeywordIndex;
pub use persist::{
    CheckpointStats, CrashInjector, FsyncPolicy, Journal, Mutation, PersistConfig,
    PersistError, PersistentStore, RecoveryReport, WalTruncation, CRASH_POINTS,
};
pub use segment::Segment;
pub use stats::{resident_bytes, StoreStats};
pub use store::{ClosureStats, CountKey, Pattern, SegmentStats, Store};
