//! The seed per-triple ingest path: parse a whole document into owned
//! terms, then intern and insert one triple at a time, and materialize the
//! RDFS closure. The bulk pipeline behind every `Store` loader must produce
//! a store identical to this one (`tests/ingest_differential.rs`), and
//! `ingest_bench`'s `per_triple` row times it.

use rdfa_model::{ntriples, Graph};
use rdfa_store::Store;

/// Insert a parsed graph triple by triple and materialize the closure.
pub fn load_graph(store: &mut Store, graph: &Graph) {
    for t in graph.iter() {
        store.insert(t);
    }
    store.materialize_inference();
}

/// Parse and load an N-Triples document; returns the parsed triple count.
/// The error carries the line number and offending lexeme of the first
/// failure.
pub fn load_ntriples(store: &mut Store, text: &str) -> Result<usize, ntriples::NtriplesError> {
    let g = ntriples::parse(text)?;
    load_graph(store, &g);
    Ok(g.len())
}
