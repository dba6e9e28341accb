//! Store microbenchmarks: load throughput, pattern matching, and the RDFS
//! closure ablation (materialization cost vs entailed-query speed).

use rdfa_bench::microbench::{black_box, BenchmarkId, Criterion};
use rdfa_bench::{criterion_group, criterion_main};
use rdfa_datagen::{ProductsGenerator, EX};
use rdfa_store::Store;

fn bench_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_load");
    group.sample_size(20);
    for n in [200usize, 1_000, 5_000] {
        let graph = ProductsGenerator::new(n, 1).generate();
        group.bench_with_input(BenchmarkId::from_parameter(n), &graph, |b, graph| {
            b.iter(|| {
                let mut store = Store::new();
                store.load_graph(black_box(graph));
                black_box(store.len())
            })
        });
    }
    group.finish();
}

fn bench_matching(c: &mut Criterion) {
    let mut store = Store::new();
    store.load_graph(&ProductsGenerator::new(5_000, 1).generate());
    let laptop = store.lookup_iri(&format!("{EX}Laptop")).unwrap();
    let price = store.lookup_iri(&format!("{EX}price")).unwrap();
    let wk = store.well_known();

    let mut group = c.benchmark_group("store_match");
    group.sample_size(20);
    group.bench_function("by_predicate_object(type,Laptop)", |b| {
        b.iter(|| store.matching(None, Some(wk.rdf_type), Some(laptop)).count())
    });
    group.bench_function("by_predicate(price)", |b| {
        b.iter(|| store.matching(None, Some(price), None).count())
    });
    group.bench_function("full_scan", |b| {
        b.iter(|| store.matching(None, None, None).count())
    });
    group.finish();
}

/// Ablation: the cost of materializing the RDFS closure up front, and the
/// payoff — entailed `instances()` queries become single index scans.
fn bench_inference_ablation(c: &mut Criterion) {
    let graph = ProductsGenerator::new(5_000, 1).generate();
    let mut group = c.benchmark_group("inference_ablation");
    group.sample_size(20);
    group.bench_function("materialize_closure", |b| {
        let mut store = Store::new();
        for t in graph.iter() {
            store.insert(t);
        }
        b.iter(|| {
            store.materialize_inference();
            black_box(store.len_entailed())
        })
    });
    group.bench_function("entailed_instances_query", |b| {
        let mut store = Store::new();
        store.load_graph(&graph);
        let product = store.lookup_iri(&format!("{EX}Product")).unwrap();
        b.iter(|| black_box(store.instances_set(product).len()))
    });
    group.finish();
}

criterion_group!(benches, bench_load, bench_matching, bench_inference_ablation);
criterion_main!(benches);
