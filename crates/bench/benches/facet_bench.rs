//! Interactive-facet latency benchmark (E10, §6.4): the cost of building
//! the left frame — class markers plus property facets with counts — for
//! one state, comparing
//!
//! 1. the seed `BTreeSet` path (`markers::reference`),
//! 2. the sorted-dense merge-join path with parallel marker computation,
//! 3. the same path answered from a warm generation-keyed [`FacetCache`].
//!
//! Asserts the new path reproduces the seed output byte-identically at each
//! scale, then writes `BENCH_4.json` with timings and speedups so CI can
//! archive the artifact.
//!
//! Run with `cargo bench --bench facet_bench`.

use rdfa_datagen::{ProductsGenerator, EX};
use rdfa_facets::{markers, FacetCache, FacetOptions};
use rdfa_store::Store;
use std::time::Instant;

/// Median wall-clock seconds over `reps` runs of `f`.
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

struct ScaleResult {
    triples: usize,
    ext_len: usize,
    reps: usize,
    reference_secs: f64,
    merge_join_secs: f64,
    cached_secs: f64,
}

fn bench_scale(n_products: usize, reps: usize, threads: usize) -> ScaleResult {
    let mut store = Store::new();
    store.load_graph(&ProductsGenerator::new(n_products, 1).generate());
    let laptop = store.lookup_iri(&format!("{EX}Laptop")).unwrap();
    let ext_ref = store.instances(laptop);
    let ext = store.instances_set(laptop);
    assert_eq!(ext.to_btree_set(), ext_ref);
    let opts = FacetOptions::with_threads(threads);

    // correctness gate: the merge-join/parallel path must reproduce the
    // seed implementation byte-identically
    let classes_ref = markers::reference::class_markers(&store, &ext_ref);
    let facets_ref = markers::reference::property_facets(&store, &ext_ref);
    let classes_new = markers::class_markers_opts(&store, &ext, opts.clone()).unwrap();
    let facets_new = markers::property_facets_opts(&store, &ext, opts.clone()).unwrap();
    assert_eq!(classes_ref, classes_new, "class markers diverged from seed");
    assert_eq!(facets_ref, facets_new, "property facets diverged from seed");

    let reference_secs = median_secs(reps, || {
        markers::reference::class_markers(&store, &ext_ref);
        markers::reference::property_facets(&store, &ext_ref);
    });
    let merge_join_secs = median_secs(reps, || {
        markers::class_markers_opts(&store, &ext, opts.clone()).unwrap();
        markers::property_facets_opts(&store, &ext, opts.clone()).unwrap();
    });
    let cache = FacetCache::new(16);
    cache.class_markers(&store, &ext, opts.clone()).unwrap(); // warm
    cache.property_facets(&store, &ext, opts.clone()).unwrap();
    let cached_secs = median_secs(reps, || {
        cache.class_markers(&store, &ext, opts.clone()).unwrap();
        cache.property_facets(&store, &ext, opts.clone()).unwrap();
    });
    let stats = cache.stats();
    assert_eq!(stats.misses, 2, "cache warmed exactly once per kind");

    ScaleResult {
        triples: store.len(),
        ext_len: ext.len(),
        reps,
        reference_secs,
        merge_join_secs,
        cached_secs,
    }
}

fn main() {
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // ~9 triples per product: 6,300 → ~57k triples, 55,400 → ~500k triples
    let small = bench_scale(7_100, 9, threads);
    let large = bench_scale(62_400, 5, threads);

    let scale_json = |s: &ScaleResult| {
        format!(
            "{{\n    \"triples\": {},\n    \"extension\": {},\n    \"reps\": {},\n    \"reference_secs\": {:.6},\n    \"merge_join_parallel_secs\": {:.6},\n    \"cached_secs\": {:.6},\n    \"speedup_merge_join_vs_reference\": {:.3},\n    \"speedup_cached_vs_reference\": {:.1}\n  }}",
            s.triples,
            s.ext_len,
            s.reps,
            s.reference_secs,
            s.merge_join_secs,
            s.cached_secs,
            s.reference_secs / s.merge_join_secs,
            s.reference_secs / s.cached_secs,
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"facet_markers_merge_join_parallel_cache\",\n  \"threads\": {threads},\n  \"available_parallelism\": {threads},\n  \"small\": {},\n  \"large\": {}\n}}\n",
        scale_json(&small),
        scale_json(&large)
    );
    // repo root when run via cargo, current dir otherwise
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_4.json");
    std::fs::write(&out, &json).expect("write BENCH_4.json");
    println!("{json}");
    println!("wrote {}", out.display());
}
