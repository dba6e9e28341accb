//! Materialized aggregate view benchmark: warm view-hit latency vs direct
//! re-aggregation over a ≥500k-triple store, incremental maintenance cost
//! for a ~1k-triple INSERT DATA delta vs full view recomputation, and the
//! hit rate of the workload-driven selector on a replayed query stream.
//! Writes `BENCH_9.json` at the repo root so CI can archive the artifact (a
//! smoke run: under the cargo target directory, `target/tmp/BENCH_9.json`).
//!
//! Run with `cargo bench --bench views_bench`; set `VIEWS_BENCH_SMOKE=1`
//! for the CI-sized configuration (the speedup floors are only asserted at
//! full scale — a smoke store is too small to make timing claims about).

use rdfa_datagen::{ProductsGenerator, EX};
use rdfa_sparql::{execute_update_recording, Engine, QueryForm};
use rdfa_store::Store;
use rdfa_views::{ViewConfig, ViewManager};
use std::sync::Arc;
use std::time::Instant;

/// The replayed aggregate workload (the viewable fragment).
fn workload() -> Vec<(&'static str, String)> {
    vec![
        (
            "class_counts",
            format!(
                "PREFIX ex: <{EX}> SELECT ?c (COUNT(*) AS ?n) WHERE {{ ?x a ?c . }} \
                 GROUP BY ?c ORDER BY ?c"
            ),
        ),
        (
            "price_stats_by_manufacturer",
            format!(
                "PREFIX ex: <{EX}> SELECT ?m (COUNT(*) AS ?n) (SUM(?p) AS ?s) (AVG(?p) AS ?avg) \
                 WHERE {{ ?x ex:manufacturer ?m ; ex:price ?p . }} GROUP BY ?m ORDER BY ?m"
            ),
        ),
        (
            "laptop_price_range_by_maker",
            format!(
                "PREFIX ex: <{EX}> SELECT ?m (MIN(?p) AS ?lo) (MAX(?p) AS ?hi) \
                 WHERE {{ ?x a ex:Laptop ; ex:manufacturer ?m ; ex:price ?p . }} \
                 GROUP BY ?m ORDER BY ?m"
            ),
        ),
        (
            "global_count",
            format!("PREFIX ex: <{EX}> SELECT (COUNT(*) AS ?n) WHERE {{ ?x a ex:Laptop . }}"),
        ),
    ]
}

fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn run(store: &Store, views: Option<&Arc<ViewManager>>, q: &str) -> usize {
    let mut builder = Engine::builder(store);
    if let Some(v) = views {
        builder = builder.views(v.clone());
    }
    builder.build().run(q).expect("query evaluates").into_solutions().unwrap().len()
}

/// Materialize every workload shape against `store`.
fn materialized(store: &Store) -> Arc<ViewManager> {
    let views = Arc::new(ViewManager::new(ViewConfig::default()));
    for (_, q) in workload() {
        let parsed = rdfa_sparql::parse_query(&q).expect("workload parses");
        let select = match &parsed.form {
            QueryForm::Select(s) => s,
            _ => unreachable!("workload is SELECTs"),
        };
        let m = rdfa_sparql::match_aggregate_shape(select).expect("workload is viewable");
        assert!(views.materialize(&m.shape, store), "materialize {}", m.shape.key());
    }
    views
}

/// An INSERT DATA batch of `products` new laptops (~9 triples each).
fn insert_batch(products: usize) -> String {
    let mut stmts = String::new();
    for i in 0..products {
        let id = 9_000_000 + i;
        stmts.push_str(&format!(
            "<{EX}laptop{id}> a <{EX}Laptop> ; <{EX}price> {} ; \
             <{EX}USBPorts> {} ; <{EX}manufacturer> <{EX}Company{}> ; \
             <{EX}hardDrive> <{EX}drive{id}> . \
             <{EX}drive{id}> a <{EX}SSD> ; <{EX}manufacturer> <{EX}Company{}> . ",
            300 + (i % 1700),
            1 + (i % 4),
            i % 4,
            (i + 1) % 4,
        ));
    }
    format!("INSERT DATA {{ {stmts} }}")
}

fn main() {
    let smoke = std::env::var("VIEWS_BENCH_SMOKE").is_ok();
    // ~8 triples per product after dedup: 63,500 → ~509k triples
    let (products, reps) = if smoke { (8_000, 3) } else { (63_500, 5) };
    let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let mut store = Store::new();
    ProductsGenerator::new(products, 7).generate_into(&mut store);
    let triples = store.len();
    eprintln!("store: {products} products, {triples} triples (smoke={smoke})");
    if !smoke {
        assert!(triples >= 500_000, "full scale must hold ≥500k triples, got {triples}");
    }

    // -- warm view hits vs direct re-aggregation --------------------------
    let views = materialized(&store);
    let mut query_jsons = Vec::new();
    let mut speedups = Vec::new();
    for (name, q) in workload() {
        // answers must agree before timing means anything
        let direct_rows = run(&store, None, &q);
        let view_rows = run(&store, Some(&views), &q);
        assert_eq!(direct_rows, view_rows, "{name}: row count diverged");

        let direct = median_secs(reps, || {
            run(&store, None, &q);
        });
        let warm = median_secs(reps, || {
            run(&store, Some(&views), &q);
        });
        let speedup = direct / warm.max(1e-9);
        eprintln!("  {name:<28} direct={direct:.5}s warm={warm:.6}s speedup={speedup:.1}x");
        speedups.push(speedup);
        query_jsons.push(format!(
            "    {{\"query\": \"{name}\", \"rows\": {direct_rows}, \"direct_secs\": {direct:.6}, \"view_secs\": {warm:.6}, \"speedup\": {speedup:.2}}}"
        ));
    }
    speedups.sort_by(f64::total_cmp);
    let speedup_median = speedups[speedups.len() / 2];
    if !smoke {
        assert!(
            speedup_median >= 10.0,
            "warm view hits must be ≥10x direct at full scale, got {speedup_median:.1}x"
        );
    }

    // -- incremental maintenance vs full recomputation --------------------
    // one ~1k-triple INSERT DATA delta, applied once; the incremental path
    // and the rebuild path maintain identical view sets over the same
    // before/after pair
    let batch = insert_batch(143); // 143 products × 7 triples = 1001 triples
    let before = store.clone();
    let (stats, changes) = execute_update_recording(&mut store, &batch).expect("batch applies");
    let delta_triples = stats.inserted;
    eprintln!("delta: {delta_triples} triples in one INSERT DATA");

    let incremental_views = materialized(&before);
    let t0 = Instant::now();
    incremental_views.maintain(&before, &store, &changes);
    let incremental_secs = t0.elapsed().as_secs_f64();
    let vstats = incremental_views.stats();
    assert!(
        vstats.incremental_maintenance > 0 && vstats.rebuilds == 0,
        "the delta must take the incremental path: {vstats:?}"
    );

    let rebuild_views = materialized(&before);
    let t0 = Instant::now();
    rebuild_views.rebuild_all(&store);
    let rebuild_secs = t0.elapsed().as_secs_f64();

    // both paths converge on the same answers
    for (name, q) in workload() {
        assert_eq!(
            run(&store, Some(&incremental_views), &q),
            run(&store, Some(&rebuild_views), &q),
            "{name}: incremental and rebuilt views diverged"
        );
    }
    let maintenance_speedup = rebuild_secs / incremental_secs.max(1e-9);
    eprintln!(
        "maintenance: incremental={incremental_secs:.5}s rebuild={rebuild_secs:.5}s ({maintenance_speedup:.1}x)"
    );
    if !smoke {
        assert!(
            maintenance_speedup >= 5.0,
            "incremental maintenance must be ≥5x cheaper than recomputation, got {maintenance_speedup:.1}x"
        );
    }

    // -- selector hit rate on a replayed workload --------------------------
    // a fresh manager sees the stream cold: the first min_observations runs
    // of each shape evaluate directly, everything after hits the view
    let replay = Arc::new(ViewManager::new(ViewConfig::default()));
    let rounds = 20;
    for _ in 0..rounds {
        for (_, q) in workload() {
            run(&store, Some(&replay), &q);
        }
    }
    let rstats = replay.stats();
    let hit_rate = rstats.hits as f64 / (rstats.hits + rstats.misses).max(1) as f64;
    eprintln!(
        "replay: {} queries, {} hits, {} misses (hit rate {hit_rate:.2})",
        rounds * workload().len(),
        rstats.hits,
        rstats.misses
    );
    assert!(hit_rate >= 0.5, "the selector must convert a hot workload, got {hit_rate:.2}");

    let json = format!(
        "{{\n  \"bench\": \"materialized_views\",\n  \"smoke\": {smoke},\n  \"reps\": {reps},\n  \"available_parallelism\": {avail},\n  \"triples\": {triples},\n  \"queries\": [\n{}\n  ],\n  \"speedup_median\": {speedup_median:.2},\n  \"maintenance\": {{\n    \"delta_triples\": {delta_triples},\n    \"incremental_secs\": {incremental_secs:.6},\n    \"rebuild_secs\": {rebuild_secs:.6},\n    \"speedup\": {maintenance_speedup:.2}\n  }},\n  \"workload_replay\": {{\n    \"queries\": {},\n    \"hits\": {},\n    \"misses\": {},\n    \"hit_rate\": {hit_rate:.3}\n  }}\n}}\n",
        query_jsons.join(",\n"),
        rounds * workload().len(),
        rstats.hits,
        rstats.misses,
    );
    // the repo root when run via cargo; a smoke run's numbers stay out of
    // the tracked BENCH_9.json
    let out = if smoke {
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_9.json")
    } else {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_9.json")
    };
    std::fs::write(&out, &json).expect("write BENCH_9.json");
    println!("{json}");
    println!("wrote {}", out.display());
}
