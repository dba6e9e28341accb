//! Dataset statistics: the count information the faceted UI shows next to
//! every transition marker, the summary numbers the efficiency experiments
//! report, and a VoID export (the "Vocabulary of Interlinked Datasets" the
//! paper's related-work category C4 publishes statistics with, §3.3.5).

use crate::interner::TermId;
use crate::store::Store;
use rdfa_model::{Graph, Term};
use std::collections::{BTreeMap, BTreeSet};

/// The VoID vocabulary terms we emit.
pub mod void {
    pub const NS: &str = "http://rdfs.org/ns/void#";
    pub const DATASET: &str = "http://rdfs.org/ns/void#Dataset";
    pub const TRIPLES: &str = "http://rdfs.org/ns/void#triples";
    pub const ENTITIES: &str = "http://rdfs.org/ns/void#entities";
    pub const CLASSES: &str = "http://rdfs.org/ns/void#classes";
    pub const PROPERTIES: &str = "http://rdfs.org/ns/void#properties";
    pub const DISTINCT_SUBJECTS: &str = "http://rdfs.org/ns/void#distinctSubjects";
    pub const DISTINCT_OBJECTS: &str = "http://rdfs.org/ns/void#distinctObjects";
    pub const CLASS_PARTITION: &str = "http://rdfs.org/ns/void#classPartition";
    pub const CLASS: &str = "http://rdfs.org/ns/void#class";
    pub const PROPERTY_PARTITION: &str = "http://rdfs.org/ns/void#propertyPartition";
    pub const PROPERTY: &str = "http://rdfs.org/ns/void#property";
}

/// The process's resident set size in bytes, read from
/// `/proc/self/statm` (page count × page size). Returns `0` where the
/// procfs interface is unavailable (non-Linux), so callers can report the
/// gauge unconditionally and consumers treat `0` as "unknown". Feeds the
/// `/healthz` `resident_bytes` gauge and the segment-restart benchmark's
/// memory comparison.
pub fn resident_bytes() -> u64 {
    let Ok(statm) = std::fs::read_to_string("/proc/self/statm") else {
        return 0;
    };
    // statm fields: size resident shared text lib data dt (in pages)
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0);
    pages * 4096
}

/// Summary statistics of a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Explicit triples.
    pub triples: usize,
    /// Entailed triples (explicit + inferred).
    pub entailed_triples: usize,
    /// Distinct interned terms.
    pub terms: usize,
    /// Number of classes.
    pub classes: usize,
    /// Number of properties.
    pub properties: usize,
    /// Entailed instance count per class.
    pub class_instances: BTreeMap<TermId, usize>,
    /// Asserted usage count per property.
    pub property_usage: BTreeMap<TermId, usize>,
}

impl StoreStats {
    /// Gather statistics from a store. Every per-class and per-property
    /// count is a run length read off the index ([`Store::run_len`]), not a
    /// walk of the run.
    pub fn gather(store: &Store) -> Self {
        let classes = store.classes();
        let properties = store.properties();
        let rdf_type = store.well_known().rdf_type;
        let class_instances = classes
            .iter()
            .map(|c| (c, store.run_len(None, Some(rdf_type), Some(c))))
            .collect();
        let property_usage: BTreeMap<TermId, usize> = properties
            .iter()
            .map(|p| (p, store.explicit.run_len(None, Some(p), None)))
            .filter(|&(_, n)| n > 0)
            .collect();
        StoreStats {
            triples: store.len(),
            entailed_triples: store.len_entailed(),
            terms: store.term_count(),
            classes: classes.len(),
            properties: properties.len(),
            class_instances,
            property_usage,
        }
    }

    /// Export the statistics as a VoID description of the dataset — the
    /// publish-statistics-in-RDF workflow of category C4 (§3.3.5). The
    /// result is an ordinary RDF graph, loadable and queryable like any
    /// other.
    pub fn to_void_graph(&self, store: &Store, dataset_iri: &str) -> Graph {
        let mut g = Graph::new();
        let ds = Term::iri(dataset_iri);
        let rdf_type = Term::iri(rdfa_model::vocab::rdf::TYPE);
        g.add(ds.clone(), rdf_type.clone(), Term::iri(void::DATASET));
        g.add(ds.clone(), Term::iri(void::TRIPLES), Term::integer(self.triples as i64));
        g.add(ds.clone(), Term::iri(void::CLASSES), Term::integer(self.classes as i64));
        g.add(ds.clone(), Term::iri(void::PROPERTIES), Term::integer(self.properties as i64));
        let subjects: BTreeSet<TermId> = store.iter_explicit().map(|[s, _, _]| s).collect();
        let objects: BTreeSet<TermId> = store.iter_explicit().map(|[_, _, o]| o).collect();
        g.add(
            ds.clone(),
            Term::iri(void::DISTINCT_SUBJECTS),
            Term::integer(subjects.len() as i64),
        );
        g.add(
            ds.clone(),
            Term::iri(void::DISTINCT_OBJECTS),
            Term::integer(objects.len() as i64),
        );
        g.add(
            ds.clone(),
            Term::iri(void::ENTITIES),
            Term::integer(subjects.union(&objects).count() as i64),
        );
        for (i, (&c, &n)) in self.class_instances.iter().enumerate() {
            let part = Term::iri(format!("{dataset_iri}/classPartition/{i}"));
            g.add(ds.clone(), Term::iri(void::CLASS_PARTITION), part.clone());
            g.add(part.clone(), Term::iri(void::CLASS), store.term(c).clone());
            g.add(part, Term::iri(void::ENTITIES), Term::integer(n as i64));
        }
        for (i, (&p, &n)) in self.property_usage.iter().enumerate() {
            let part = Term::iri(format!("{dataset_iri}/propertyPartition/{i}"));
            g.add(ds.clone(), Term::iri(void::PROPERTY_PARTITION), part.clone());
            g.add(part.clone(), Term::iri(void::PROPERTY), store.term(p).clone());
            g.add(part, Term::iri(void::TRIPLES), Term::integer(n as i64));
        }
        g
    }

    /// Render as a small text report (used by examples and the harness).
    pub fn report(&self, store: &Store) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "triples: {} (entailed: {}), terms: {}, classes: {}, properties: {}\n",
            self.triples, self.entailed_triples, self.terms, self.classes, self.properties
        ));
        for (&c, &n) in &self.class_instances {
            out.push_str(&format!("  class {:<24} {} instances\n", store.term(c).display_name(), n));
        }
        for (&p, &n) in &self.property_usage {
            out.push_str(&format!("  prop  {:<24} {} triples\n", store.term(p).display_name(), n));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gathers_counts() {
        let mut store = Store::new();
        store
            .load_turtle(
                r#"
                @prefix ex: <http://example.org/> .
                @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
                ex:Laptop rdfs:subClassOf ex:Product .
                ex:l1 a ex:Laptop ; ex:price 900 .
                ex:l2 a ex:Laptop ; ex:price 1000 .
                "#,
            )
            .unwrap();
        let stats = StoreStats::gather(&store);
        assert_eq!(stats.triples, 5);
        assert_eq!(stats.classes, 2);
        let product = store.lookup_iri("http://example.org/Product").unwrap();
        assert_eq!(stats.class_instances[&product], 2);
        let price = store.lookup_iri("http://example.org/price").unwrap();
        assert_eq!(stats.property_usage[&price], 2);
        let report = stats.report(&store);
        assert!(report.contains("Laptop"));
        assert!(report.contains("price"));
    }

    #[test]
    fn void_export_is_loadable_and_queryable() {
        let mut store = Store::new();
        store
            .load_turtle(
                r#"
                @prefix ex: <http://example.org/> .
                ex:l1 a ex:Laptop ; ex:price 900 .
                ex:l2 a ex:Laptop ; ex:price 1000 .
                "#,
            )
            .unwrap();
        let stats = StoreStats::gather(&store);
        let void_graph = stats.to_void_graph(&store, "http://example.org/dataset");
        // the description is itself RDF: load it into a fresh store
        let mut meta = Store::new();
        meta.load_graph(&void_graph);
        let triples_prop = meta.lookup_iri(void::TRIPLES).unwrap();
        let ds = meta.lookup_iri("http://example.org/dataset").unwrap();
        let reported: Vec<_> = meta.matching(Some(ds), Some(triples_prop), None).collect();
        assert_eq!(reported.len(), 1);
        assert_eq!(meta.term(reported[0][2]), &Term::integer(4));
        // per-class partitions present
        let cp = meta.lookup_iri(void::CLASS_PARTITION).unwrap();
        assert_eq!(meta.matching(Some(ds), Some(cp), None).count(), 1);
    }
}
