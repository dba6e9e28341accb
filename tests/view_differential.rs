//! Differential harness for materialized aggregate views: a view-backed
//! engine must return answers **byte-identical** to direct evaluation —
//! same vars, same rows, same order, same lexical forms — across a corpus
//! of aggregate queries and across seeded random INSERT/DELETE DATA
//! sequences maintained incrementally. Views keyed to a superseded store
//! generation must never answer: after an unmaintained mutation the engine
//! falls back to direct evaluation until the view catches up.

use rdf_analytics::datagen::{ProductsGenerator, EX};
use rdf_analytics::sparql::{execute_update_recording, Engine};
use rdf_analytics::store::Store;
use rdfa_prng::StdRng;
use rdfa_views::{ViewConfig, ViewManager};
use std::sync::Arc;

fn store(products: usize, seed: u64) -> Store {
    let mut s = Store::new();
    ProductsGenerator::new(products, seed).generate_into(&mut s);
    s
}

/// The viewable corpus: star-shaped aggregates over the products KG.
/// Grouped queries ORDER BY the group key — the fragment the rewriter
/// serves (unordered grouped output would not be deterministic).
fn corpus() -> Vec<String> {
    vec![
        format!("PREFIX ex: <{EX}> SELECT (COUNT(*) AS ?n) WHERE {{ ?x a ex:Laptop . }}"),
        format!(
            "PREFIX ex: <{EX}> SELECT (COUNT(DISTINCT ?p) AS ?n) WHERE {{ ?x ex:price ?p . }}"
        ),
        format!(
            "PREFIX ex: <{EX}> SELECT (SUM(?p) AS ?s) (MIN(?p) AS ?lo) (MAX(?p) AS ?hi) \
             WHERE {{ ?x ex:price ?p . }}"
        ),
        format!(
            "PREFIX ex: <{EX}> SELECT ?c (COUNT(*) AS ?n) WHERE {{ ?x a ?c . }} \
             GROUP BY ?c ORDER BY ?c"
        ),
        format!(
            "PREFIX ex: <{EX}> SELECT ?m (COUNT(*) AS ?n) (SUM(?p) AS ?s) (AVG(?p) AS ?avg) \
             WHERE {{ ?x ex:manufacturer ?m ; ex:price ?p . }} GROUP BY ?m ORDER BY ?m"
        ),
        format!(
            "PREFIX ex: <{EX}> SELECT ?m (MIN(?p) AS ?lo) (MAX(?p) AS ?hi) \
             WHERE {{ ?x a ex:Laptop ; ex:manufacturer ?m ; ex:price ?p . }} \
             GROUP BY ?m ORDER BY ?m"
        ),
        format!(
            "PREFIX ex: <{EX}> SELECT ?m (COUNT(*) AS ?n) \
             WHERE {{ ?x ex:manufacturer ?m . }} GROUP BY ?m ORDER BY ?m LIMIT 3"
        ),
    ]
}

/// Evaluate with an optional view catalog; returns (vars, JSON serialization)
/// — the JSON is the full byte-level answer a client would receive.
fn eval(s: &Store, views: Option<&Arc<ViewManager>>, q: &str) -> (Vec<String>, String) {
    let mut builder = Engine::builder(s);
    if let Some(v) = views {
        builder = builder.views(v.clone());
    }
    let sols = builder.build().run(q).expect("query evaluates").into_solutions().unwrap();
    (sols.vars().to_vec(), sols.to_json())
}

/// Whether a prepared query against `views` would be answered from a view.
fn hits_view(s: &Store, views: &Arc<ViewManager>, q: &str) -> bool {
    let engine = Engine::builder(s).views(views.clone()).build();
    let prepared = engine.prepare(q).expect("query prepares");
    prepared.execute().expect("query executes");
    prepared.explain().starts_with("view-hit:")
}

/// Materialize every corpus shape against the current store.
fn manager_with_views(s: &Store) -> Arc<ViewManager> {
    let views = Arc::new(ViewManager::new(ViewConfig::default()));
    for q in corpus() {
        let parsed = rdf_analytics::sparql::parse_query(&q).expect("corpus parses");
        let select = match &parsed.form {
            rdf_analytics::sparql::QueryForm::Select(s) => s,
            _ => panic!("corpus queries are SELECTs"),
        };
        let m = rdf_analytics::sparql::match_aggregate_shape(select)
            .expect("corpus queries are viewable");
        assert!(views.materialize(&m.shape, s), "materialize {}", m.shape.key());
    }
    views
}

/// A random INSERT DATA / DELETE DATA statement over the products vocab.
/// Deletions target triples that exist (price/type assertions of known
/// products); insertions add new products and re-assertions.
fn random_update(rng: &mut StdRng, step: usize) -> String {
    let mut stmts = Vec::new();
    let n = rng.gen_range(1..4usize);
    if rng.gen_bool(0.6) {
        for i in 0..n {
            let id = 1_000_000 + step * 10 + i;
            let price = rng.gen_range(100..2000i64);
            let m = rng.gen_range(0..4usize);
            stmts.push(format!(
                "<{EX}laptop{id}> a <{EX}Laptop> ; <{EX}price> {price} ; \
                 <{EX}manufacturer> <{EX}Company{m}> ."
            ));
        }
        format!("INSERT DATA {{ {} }}", stmts.join(" "))
    } else {
        for _ in 0..n {
            let id = rng.gen_range(0..40usize);
            stmts.push(format!("<{EX}laptop{id}> a <{EX}Laptop> ."));
        }
        format!("DELETE DATA {{ {} }}", stmts.join(" "))
    }
}

#[test]
fn view_answers_are_byte_identical_to_direct_evaluation() {
    let s = store(400, 11);
    let views = manager_with_views(&s);
    for q in corpus() {
        assert!(hits_view(&s, &views, &q), "not served from a view: {q}");
        let direct = eval(&s, None, &q);
        let viewed = eval(&s, Some(&views), &q);
        assert_eq!(direct, viewed, "view answer diverged for: {q}");
    }
}

#[test]
fn incremental_maintenance_stays_byte_identical_over_random_mutations() {
    let mut s = store(300, 7);
    let views = manager_with_views(&s);
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for step in 0..30 {
        let update = random_update(&mut rng, step);
        let before = s.clone();
        let (_stats, changes) =
            execute_update_recording(&mut s, &update).expect("update applies");
        views.maintain(&before, &s, &changes);
        for q in corpus() {
            assert!(
                hits_view(&s, &views, &q),
                "step {step}: maintained view not serving: {q}\nupdate: {update}"
            );
            let direct = eval(&s, None, &q);
            let viewed = eval(&s, Some(&views), &q);
            assert_eq!(
                direct, viewed,
                "step {step}: maintained view diverged for: {q}\nupdate: {update}"
            );
        }
    }
    let st = views.stats();
    assert!(st.incremental_maintenance > 0, "some deltas applied incrementally: {st:?}");
}

#[test]
fn stale_views_are_never_served() {
    let mut s = store(200, 3);
    let views = manager_with_views(&s);
    let q = &corpus()[4];
    assert!(hits_view(&s, &views, q), "fresh view serves");

    // mutate WITHOUT maintaining: the views now describe a superseded
    // generation and must stop answering
    let update = format!(
        "PREFIX ex: <{EX}> INSERT DATA {{ ex:productX a ex:Laptop ; \
         ex:price 123 ; ex:manufacturer ex:manufacturer0 . }}"
    );
    let _ = execute_update_recording(&mut s, &update).unwrap();
    for q in corpus() {
        assert!(!hits_view(&s, &views, &q), "stale view must not serve: {q}");
        // and the fallback answer reflects the mutation
        let direct = eval(&s, None, &q);
        let viewed = eval(&s, Some(&views), &q);
        assert_eq!(direct, viewed, "stale fallback diverged for: {q}");
    }

    // catching up re-enables serving, still byte-identical
    views.rebuild_all(&s);
    for q in corpus() {
        assert!(hits_view(&s, &views, &q), "rebuilt view serves again: {q}");
        assert_eq!(eval(&s, None, &q), eval(&s, Some(&views), &q));
    }
}

#[test]
fn schema_changing_updates_force_consistent_rebuilds() {
    let mut s = store(200, 5);
    let views = manager_with_views(&s);
    // a subClassOf assertion changes the entailed type extents: the
    // maintainer must fall back to rebuilds, never apply it as a plain delta
    let update = format!(
        "INSERT DATA {{ <{EX}Laptop> \
         <http://www.w3.org/2000/01/rdf-schema#subClassOf> <{EX}Device> . }}"
    );
    let before = s.clone();
    let (_stats, changes) = execute_update_recording(&mut s, &update).unwrap();
    s.materialize_inference();
    views.maintain(&before, &s, &changes);
    let st = views.stats();
    assert!(st.rebuilds > 0, "schema delta rebuilds: {st:?}");
    for q in corpus() {
        assert!(hits_view(&s, &views, &q), "rebuilt view serves: {q}");
        assert_eq!(eval(&s, None, &q), eval(&s, Some(&views), &q), "diverged for: {q}");
    }
}
