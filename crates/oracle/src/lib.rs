//! # rdfa-oracle — the reference implementations
//!
//! The seed implementations the product's optimized paths replaced, kept as
//! the references the differential suites and microbenches compare against:
//!
//! - [`sparql`]: a row-at-a-time, term-space SPARQL evaluator (the engine
//!   compiles every query to an id-space physical plan instead);
//! - [`facets`]: the `BTreeSet` facet operators and marker computations
//!   (the product's kernels merge-join sorted [`rdfa_store::ExtSet`]s);
//! - [`ingest`]: the per-triple load path (the product loads through the
//!   bulk pipeline of `rdfa_store::bulk`).
//!
//! None of this is a code path of the product. The crate is
//! `publish = false` and a dev-dependency only (of the root package and of
//! `rdfa-bench`'s benches); no shipped crate depends on it.

pub mod facets;
pub mod ingest;
pub mod sparql;
