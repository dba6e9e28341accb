//! # rdfa-views — workload-driven materialized aggregate views
//!
//! Interactive analytics sessions are repetitive: the same grouped
//! aggregates (the paper's HIFUN queries, §4) run again and again as the
//! analyst drills, pivots, and un-drills. This crate watches that workload
//! through the engine's [`ViewCatalog`](rdfa_sparql::ViewCatalog) hook, materializes the hottest
//! aggregate shapes as columnar tables, answers matching queries from them
//! **byte-identically**, and maintains them incrementally under
//! `INSERT`/`DELETE DATA` deltas.
//!
//! ```
//! use rdfa_store::Store;
//! use rdfa_sparql::Engine;
//! use rdfa_views::{ViewConfig, ViewManager};
//! use std::sync::Arc;
//!
//! let mut store = Store::new();
//! store.load_turtle(r#"
//!   @prefix ex: <http://example.org/> .
//!   ex:l1 ex:manufacturer ex:DELL ; ex:price 900 .
//!   ex:l2 ex:manufacturer ex:DELL ; ex:price 1100 .
//! "#).unwrap();
//! let views = Arc::new(ViewManager::new(ViewConfig {
//!     min_observations: 1, ..ViewConfig::default()
//! }));
//! let engine = Engine::builder(&store).views(views.clone()).build();
//! let q = "PREFIX ex: <http://example.org/> \
//!          SELECT ?m (AVG(?p) AS ?a) WHERE { ?x ex:manufacturer ?m ; ex:price ?p } \
//!          GROUP BY ?m ORDER BY ?m";
//! let prepared = engine.prepare(q).unwrap();
//! prepared.execute().unwrap();             // direct; observed + materialized
//! let warm = prepared.execute().unwrap();  // answered from the view
//! assert!(prepared.explain().starts_with("view-hit:"));
//! assert_eq!(warm.solutions().unwrap().len(), 1);
//! ```
//!
//! Design notes live in `DESIGN.md` (Materialized aggregate views).

mod manager;
mod table;

pub use manager::{RecorderStats, ViewConfig, ViewInfo, ViewManager};
pub use table::ViewTable;

#[cfg(test)]
mod tests {
    use super::*;
    use rdfa_model::Term;
    use rdfa_sparql::views::ViewCatalog;
    use rdfa_sparql::{parse_query, Engine, QueryForm};
    use rdfa_store::{Mutation, Store};
    use std::sync::Arc;
    use std::time::Duration;

    const PREFIX: &str = "PREFIX ex: <http://example.org/> ";

    fn store_with(turtle: &str) -> Store {
        let mut store = Store::new();
        store.load_turtle(&format!("@prefix ex: <http://example.org/> . {turtle}")).unwrap();
        store
    }

    /// Execute and return `(vars, rows)` — the full observable answer, so
    /// equality between direct and view-served runs is byte-identity.
    fn rows_of(
        store: &Store,
        manager: Option<Arc<ViewManager>>,
        q: &str,
    ) -> (Vec<String>, Vec<Vec<Option<Term>>>) {
        let mut b = Engine::builder(store);
        if let Some(m) = manager {
            b = b.views(m);
        }
        let prepared = b.build().prepare(&format!("{PREFIX}{q}")).unwrap();
        let results = prepared.execute().unwrap();
        let solutions = results.solutions().unwrap();
        (solutions.vars().to_vec(), solutions.rows().to_vec())
    }

    fn shape_of(q: &str) -> rdfa_sparql::AggShape {
        let parsed = parse_query(&format!("{PREFIX}{q}")).unwrap();
        match &parsed.form {
            QueryForm::Select(s) => {
                rdfa_sparql::match_aggregate_shape(s).expect("in fragment").shape
            }
            _ => panic!("not a select"),
        }
    }

    const GROUPED: &str = "SELECT ?m (COUNT(*) AS ?n) (SUM(?p) AS ?s) (AVG(?p) AS ?a) \
                           (MIN(?p) AS ?lo) (MAX(?p) AS ?hi) \
                           WHERE { ?x ex:manufacturer ?m ; ex:price ?p } \
                           GROUP BY ?m ORDER BY ?m";

    #[test]
    fn view_answers_match_direct_evaluation() {
        let store = store_with(
            "ex:l1 ex:manufacturer ex:DELL ; ex:price 900 .
             ex:l2 ex:manufacturer ex:DELL ; ex:price 1100 .
             ex:l3 ex:manufacturer ex:HP ; ex:price 700 .",
        );
        let manager =
            Arc::new(ViewManager::new(ViewConfig { min_observations: 1, ..ViewConfig::default() }));
        let direct = rows_of(&store, None, GROUPED);
        let cold = rows_of(&store, Some(manager.clone()), GROUPED); // observe + materialize
        let warm = rows_of(&store, Some(manager.clone()), GROUPED); // view hit
        assert_eq!(direct, cold);
        assert_eq!(direct, warm);
        let stats = manager.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.materializations, 1);
    }

    #[test]
    fn global_aggregate_over_empty_pattern_matches_engine() {
        let store = store_with("ex:l1 ex:other 1 .");
        let manager =
            Arc::new(ViewManager::new(ViewConfig { min_observations: 1, ..ViewConfig::default() }));
        let q = "SELECT (COUNT(*) AS ?n) (SUM(?p) AS ?s) (MIN(?p) AS ?lo) \
                 WHERE { ?x a ex:Laptop ; ex:price ?p }";
        let direct = rows_of(&store, None, q);
        rows_of(&store, Some(manager.clone()), q);
        let warm = rows_of(&store, Some(manager), q);
        // one row either way: COUNT 0, SUM 0, MIN unbound
        assert_eq!(direct, warm);
        assert_eq!(direct.1.len(), 1);
    }

    #[test]
    fn stale_view_is_never_served() {
        let mut store = store_with("ex:l1 ex:manufacturer ex:DELL ; ex:price 900 .");
        let manager =
            Arc::new(ViewManager::new(ViewConfig { min_observations: 1, ..ViewConfig::default() }));
        rows_of(&store, Some(manager.clone()), GROUPED);
        rows_of(&store, Some(manager.clone()), GROUPED);
        assert_eq!(manager.stats().hits, 1);
        // mutate the store: the view's generation is now behind
        store
            .load_turtle("@prefix ex: <http://example.org/> . ex:l9 ex:manufacturer ex:HP ; ex:price 1 .")
            .unwrap();
        let direct = rows_of(&store, None, GROUPED);
        let after = rows_of(&store, Some(manager.clone()), GROUPED);
        assert_eq!(direct, after, "stale view must not answer");
        // ...and the miss triggered a rebuild, so the next run hits again
        let warm = rows_of(&store, Some(manager.clone()), GROUPED);
        assert_eq!(direct, warm);
        assert_eq!(manager.stats().hits, 2);
    }

    #[test]
    fn incremental_maintenance_tracks_inserts_and_deletes() {
        let before = store_with(
            "ex:l1 ex:manufacturer ex:DELL ; ex:price 900 .
             ex:l2 ex:manufacturer ex:HP ; ex:price 700 .",
        );
        let manager =
            Arc::new(ViewManager::new(ViewConfig { min_observations: 1, ..ViewConfig::default() }));
        rows_of(&before, Some(manager.clone()), GROUPED);
        assert_eq!(manager.stats().materializations, 1);

        // apply a delta: l2 retagged to DELL with a new price, l3 added
        let mut after = before.clone();
        let changes = vec![
            Mutation::Remove(triple("l2", "manufacturer", Term::iri("http://example.org/HP"))),
            Mutation::Remove(triple("l2", "price", int(700))),
            Mutation::Insert(triple("l2", "manufacturer", Term::iri("http://example.org/DELL"))),
            Mutation::Insert(triple("l2", "price", int(1500))),
            Mutation::Insert(triple("l3", "manufacturer", Term::iri("http://example.org/HP"))),
            Mutation::Insert(triple("l3", "price", int(100))),
        ];
        apply(&mut after, &changes);
        manager.maintain(&before, &after, &changes);
        let stats = manager.stats();
        assert_eq!(stats.incremental_maintenance, 1);
        assert_eq!(stats.rebuilds, 0);

        let direct = rows_of(&after, None, GROUPED);
        let warm = rows_of(&after, Some(manager.clone()), GROUPED);
        assert_eq!(direct, warm);
        assert_eq!(manager.stats().hits, 1, "maintained view should serve");
    }

    #[test]
    fn schema_delta_forces_rebuild() {
        let before = store_with(
            "ex:Laptop2021 <http://www.w3.org/2000/01/rdf-schema#subClassOf> ex:Laptop .
             ex:l1 a ex:Laptop ; ex:price 900 .
             ex:l2 a ex:Laptop2021 ; ex:price 700 .",
        );
        let manager =
            Arc::new(ViewManager::new(ViewConfig { min_observations: 1, ..ViewConfig::default() }));
        let q = "SELECT (COUNT(*) AS ?n) WHERE { ?x a ex:Laptop ; ex:price ?p }";
        let direct_before = rows_of(&before, None, q);
        rows_of(&before, Some(manager.clone()), q);
        assert_eq!(direct_before, rows_of(&before, Some(manager.clone()), q));

        // a subClassOf edge appears: ex:Gaming instances become Laptops
        let mut after = before.clone();
        let sub = Term::iri("http://www.w3.org/2000/01/rdf-schema#subClassOf");
        let changes = vec![
            Mutation::Insert(triple("l7", "price", int(50))),
            Mutation::Insert(rdfa_model::Triple::new(
                Term::iri("http://example.org/Gaming"),
                sub,
                Term::iri("http://example.org/Laptop"),
            )),
            Mutation::Insert(rdfa_model::Triple::new(
                Term::iri("http://example.org/l7"),
                Term::iri(rdfa_model::vocab::rdf::TYPE),
                Term::iri("http://example.org/Gaming"),
            )),
        ];
        apply(&mut after, &changes);
        manager.maintain(&before, &after, &changes);
        let stats = manager.stats();
        assert_eq!(stats.rebuilds, 1, "schema delta must rebuild, not patch");
        assert_eq!(rows_of(&after, None, q), rows_of(&after, Some(manager), q));
    }

    #[test]
    fn budget_pressure_evicts_lowest_scored_view() {
        let store = store_with(
            "ex:l1 ex:manufacturer ex:DELL ; ex:price 900 ; ex:screen 15 .
             ex:l2 ex:manufacturer ex:HP ; ex:price 700 ; ex:screen 17 .",
        );
        let manager = Arc::new(ViewManager::new(ViewConfig {
            min_observations: 1,
            max_views: 1,
            ..ViewConfig::default()
        }));
        let cheap = shape_of(GROUPED);
        // observe the cheap shape once, the hot shape with far more cost
        let hot = "SELECT ?m (SUM(?s) AS ?t) WHERE { ?x ex:manufacturer ?m ; ex:screen ?s } \
                   GROUP BY ?m ORDER BY ?m";
        rows_of(&store, Some(manager.clone()), GROUPED);
        assert_eq!(manager.stats().materializations, 1);
        let hot_shape = shape_of(hot);
        let m = rdfa_sparql::ShapeMatch { shape: hot_shape.clone(), columns: Vec::new() };
        manager.observe(Some(&m), &store, Duration::from_secs(10));
        let views = manager.views();
        assert_eq!(views.len(), 1, "cap is one view");
        assert_eq!(views[0].key, hot_shape.key(), "hot shape evicts cheap one");
        assert_eq!(manager.stats().evictions, 1);
        assert!(manager.workload().iter().any(|(k, _, _, mat)| k == &cheap.key() && !mat));
    }

    /// The per-class instance counts (`GROUP BY rdf:type`) are an ordinary
    /// viewable shape, served through the query path.
    #[test]
    fn class_counts_view_matches_instance_counts() {
        let store = store_with(
            "ex:l1 a ex:Laptop . ex:l2 a ex:Laptop . ex:d1 a ex:Desktop .",
        );
        let manager =
            Arc::new(ViewManager::new(ViewConfig { min_observations: 1, ..ViewConfig::default() }));
        let q = "SELECT ?c (COUNT(*) AS ?n) WHERE { ?x a ?c } GROUP BY ?c ORDER BY ?c";
        let direct = rows_of(&store, None, q);
        rows_of(&store, Some(manager.clone()), q); // observe + materialize
        let warm = rows_of(&store, Some(manager.clone()), q); // view hit
        assert_eq!(direct, warm);
        assert_eq!(manager.stats().hits, 1);
        let count = |name: &str| {
            warm.1.iter().find(|row| matches!(&row[0], Some(Term::Iri(i)) if i.ends_with(name))).map(|row| row[1].clone())
        };
        assert_eq!(count("Laptop"), Some(Some(int(2))));
        assert_eq!(count("Desktop"), Some(Some(int(1))));
    }

    fn triple(s: &str, p: &str, o: Term) -> rdfa_model::Triple {
        rdfa_model::Triple::new(
            Term::iri(format!("http://example.org/{s}")),
            Term::iri(format!("http://example.org/{p}")),
            o,
        )
    }

    fn int(v: i64) -> Term {
        Term::Literal(rdfa_model::Literal::integer(v))
    }

    fn apply(store: &mut Store, changes: &[Mutation]) {
        for m in changes {
            match m {
                Mutation::Insert(t) => {
                    store.insert(t);
                }
                Mutation::Remove(t) => {
                    if let (Some(s), Some(p), Some(o)) = (
                        store.lookup(&t.subject),
                        store.lookup(&t.predicate),
                        store.lookup(&t.object),
                    ) {
                        store.remove_ids([s, p, o]);
                    }
                }
            }
        }
        store.materialize_inference();
    }
}
