//! Differential property tests for the merge-join facet path (§5.3–5.5):
//! the sorted-dense `ExtSet` and every algebra operation built on it must
//! agree, byte for byte, with the seed's `BTreeSet` implementations
//! (`rdfa_oracle::facets`) on fixtures and randomly generated graphs — and
//! the generation-keyed `FacetCache` must recompute after any SPARQL update
//! mutates the store.

use rdf_analytics::facets::markers::{self, FacetOptions};
use rdf_analytics::facets::{ops, ExtSet, FacetCache, PathStep};
use rdf_analytics::sparql::execute_update;
use rdf_analytics::store::{Store, TermId};
use rdfa_oracle::facets as reference;
use rdfa_prng::StdRng;
use std::collections::{BTreeMap, BTreeSet};

/// An `ExtSet` as the oracle's set type.
trait AsBTree {
    fn btree(&self) -> BTreeSet<TermId>;
}

impl AsBTree for ExtSet {
    fn btree(&self) -> BTreeSet<TermId> {
        self.iter().collect()
    }
}

/// The oracle's set as an `ExtSet`.
fn ext_of(set: &BTreeSet<TermId>) -> ExtSet {
    set.iter().copied().collect()
}

// ---------------------------------------------------------------------------
// random inputs
// ---------------------------------------------------------------------------

/// A random id set with duplicates and wild spread, as both representations.
fn random_ids(rng: &mut StdRng, max_len: usize, max_id: u32) -> (ExtSet, BTreeSet<TermId>) {
    let len = rng.gen_range(0..max_len);
    let oracle: BTreeSet<TermId> =
        (0..len).map(|_| TermId(rng.gen_range(0u32..max_id))).collect();
    (ext_of(&oracle), oracle)
}

/// Object values beside the plain `ex:v{n}` IRIs: local names that collide
/// across namespaces (`http://e/x`, `http://f#x`) and with literals, so
/// display-name sorts meet ties; literals over every escape class (quote,
/// backslash, newline, tab, U+0001, non-ASCII, empty); blank nodes.
const ODD_VALUES: [&str; 16] = [
    "ex:x",
    "<http://f#x>",
    "\"x\"",
    "\"x\"@en",
    "<http://f#v1>",
    "\"v1\"",
    "\"q\\\"uote\"",
    "\"back\\\\slash\"",
    "\"new\\nline\"",
    "\"t\\tab\"",
    "\"c\\u0001trl\"",
    "\"é中🦀\"",
    "\"\"",
    "_:b0",
    "_:b1",
    "_:x",
];

/// A random RDF graph in Turtle: a small class hierarchy, entities typed
/// into random classes, and a handful of object/data properties with random
/// (possibly multi-valued) edges. Exercises fan-out, fan-in, shared values,
/// and classes, properties and values whose display names tie.
fn random_ttl(rng: &mut StdRng) -> String {
    let n_classes = rng.gen_range(2usize..6);
    let n_entities = rng.gen_range(10usize..60);
    let n_props = rng.gen_range(2usize..5);
    let n_values = rng.gen_range(3usize..10);
    let mut ttl = String::from("@prefix ex: <http://e/> .\n@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n");
    // a chance of subclass edges between consecutive classes
    for c in 1..n_classes {
        if rng.gen_bool(0.5) {
            ttl.push_str(&format!("ex:C{c} rdfs:subClassOf ex:C{} .\n", rng.gen_range(0..c)));
        }
    }
    for e in 0..n_entities {
        let c = rng.gen_range(0..n_classes);
        // a namesake class in a second namespace ties with ex:C{c}
        let class = if rng.gen_bool(0.2) { format!("<http://f#C{c}>") } else { format!("ex:C{c}") };
        ttl.push_str(&format!("ex:e{e} a {class} .\n"));
        for p in 0..n_props {
            let pred = if rng.gen_bool(0.2) { format!("<http://f#p{p}>") } else { format!("ex:p{p}") };
            // 0–2 edges per property per entity: absent, functional, multi-valued
            for _ in 0..rng.gen_range(0usize..3) {
                let object = match rng.gen_range(0u32..3) {
                    0 => format!("ex:v{}", rng.gen_range(0..n_values)),
                    1 => ODD_VALUES[rng.gen_range(0..ODD_VALUES.len())].to_owned(),
                    // entity-to-entity edges give the inverse direction teeth
                    _ => format!("ex:e{}", rng.gen_range(0..n_entities)),
                };
                ttl.push_str(&format!("ex:e{e} {pred} {object} .\n"));
            }
        }
    }
    ttl
}

fn random_store(rng: &mut StdRng) -> Store {
    let mut store = Store::new();
    store.load_turtle(&random_ttl(rng)).expect("generated turtle parses");
    store
}

/// A random extension drawn from the store's subjects.
fn random_ext(rng: &mut StdRng, store: &Store) -> (ExtSet, BTreeSet<TermId>) {
    let subjects: Vec<TermId> = {
        let all: BTreeSet<TermId> = store.iter_explicit().map(|[s, _, _]| s).collect();
        all.into_iter().collect()
    };
    let oracle: BTreeSet<TermId> = subjects
        .iter()
        .copied()
        .filter(|_| rng.gen_bool(0.6))
        .collect();
    (ext_of(&oracle), oracle)
}

fn props_of(store: &Store) -> Vec<TermId> {
    (0..4).filter_map(|p| store.lookup_iri(&format!("http://e/p{p}"))).collect()
}

// ---------------------------------------------------------------------------
// 1. ExtSet vs the BTreeSet oracle
// ---------------------------------------------------------------------------

#[test]
fn extset_ops_match_btreeset_oracle() {
    for case in 0u64..200 {
        let mut rng = StdRng::seed_from_u64(case);
        // small ids force the dense/bitmap representation into play after
        // densify; large ids keep the sorted representation
        let max_id = if case % 2 == 0 { 64 } else { 100_000 };
        let (a, oa) = random_ids(&mut rng, 80, max_id);
        let (b, ob) = random_ids(&mut rng, 80, max_id);
        // optionally densify one side so mixed-representation paths run
        let mut a = a;
        if case % 3 == 0 {
            a.densify(max_id as usize);
        }

        assert_eq!(a.len(), oa.len(), "case {case}: len");
        assert_eq!(a.btree(), oa, "case {case}: roundtrip");
        assert_eq!(
            a.intersect(&b).btree(),
            oa.intersection(&ob).copied().collect::<BTreeSet<_>>(),
            "case {case}: intersect"
        );
        assert_eq!(
            a.union(&b).btree(),
            oa.union(&ob).copied().collect::<BTreeSet<_>>(),
            "case {case}: union"
        );
        assert_eq!(
            a.difference(&b).btree(),
            oa.difference(&ob).copied().collect::<BTreeSet<_>>(),
            "case {case}: difference"
        );
        assert_eq!(a.is_subset(&b), oa.is_subset(&ob), "case {case}: is_subset");
        for probe in [0u32, 1, max_id / 2, max_id - 1] {
            let id = TermId(probe);
            assert_eq!(a.contains(id), oa.contains(&id), "case {case}: contains {probe}");
        }
        // iteration is sorted and duplicate-free in both representations
        let items: Vec<TermId> = a.iter().collect();
        assert!(items.windows(2).all(|w| w[0] < w[1]), "case {case}: sorted unique");
        // fingerprints agree across representations of the same set
        assert_eq!(
            a.fingerprint(),
            ext_of(&oa).fingerprint(),
            "case {case}: fingerprint is representation-independent"
        );
    }
}

// ---------------------------------------------------------------------------
// 2. facet algebra vs the seed operators on fixtures and random graphs
// ---------------------------------------------------------------------------

const EX: &str = "http://e/";

fn fixture_id(s: &Store, local: &str) -> TermId {
    s.lookup_iri(&format!("{EX}{local}")).unwrap()
}

/// Every operator agrees with its seed counterpart on a small laptop
/// fixture, forward and inverse.
#[test]
fn facet_ops_match_reference_on_fixture() {
    let mut s = Store::new();
    s.load_turtle(&format!(
        r#"@prefix ex: <{EX}> .
           ex:l1 a ex:Laptop ; ex:manufacturer ex:DELL ; ex:usb 2 .
           ex:l2 a ex:Laptop ; ex:manufacturer ex:Lenovo ; ex:usb 4 .
           ex:l3 a ex:Laptop ; ex:manufacturer ex:DELL ; ex:usb 3 .
           ex:DELL ex:origin ex:USA .
           ex:Lenovo ex:origin ex:China .
        "#
    ))
    .unwrap();
    let ext: ExtSet = ["l1", "l2", "l3"].iter().map(|l| fixture_id(&s, l)).collect();
    let ext_ref = ext.btree();
    for prop in ["manufacturer", "usb"] {
        for inverse in [false, true] {
            let st = PathStep { prop: fixture_id(&s, prop), inverse };
            assert_eq!(ops::joins(&s, &ext, st).btree(), reference::joins(&s, &ext_ref, st));
            let counts: Vec<(TermId, usize)> =
                reference::joins_with_counts(&s, &ext_ref, st).into_iter().collect();
            assert_eq!(ops::joins_with_counts(&s, &ext, st), counts);
        }
    }
    let path = [
        PathStep::fwd(fixture_id(&s, "manufacturer")),
        PathStep::fwd(fixture_id(&s, "origin")),
    ];
    assert_eq!(ops::joins_path(&s, &ext, &path).btree(), reference::joins_path(&s, &ext_ref, &path));
    let usa: BTreeSet<TermId> = [fixture_id(&s, "USA")].into_iter().collect();
    assert_eq!(
        ops::restrict_path(&s, &ext, &path, &ext_of(&usa)).unwrap().btree(),
        reference::restrict_path(&s, &ext_ref, &path, &usa)
    );
}

#[test]
fn facet_ops_match_reference_on_random_graphs() {
    for case in 0u64..20 {
        let mut rng = StdRng::seed_from_u64(1000 + case);
        let store = random_store(&mut rng);
        let (ext, oracle) = random_ext(&mut rng, &store);
        for p in props_of(&store) {
            for step in [PathStep::fwd(p), PathStep::inv(p)] {
                let joined = ops::joins(&store, &ext, step);
                let joined_ref = reference::joins(&store, &oracle, step);
                assert_eq!(joined.btree(), joined_ref, "case {case}: joins");

                let counts: BTreeMap<TermId, usize> =
                    ops::joins_with_counts(&store, &ext, step).into_iter().collect();
                assert_eq!(
                    counts,
                    reference::joins_with_counts(&store, &oracle, step),
                    "case {case}: joins_with_counts"
                );

                // restrict back through every joined value
                for v in joined.iter().take(5) {
                    assert_eq!(
                        ops::restrict_value(&store, &ext, step, v).btree(),
                        reference::restrict_value(&store, &oracle, step, v),
                        "case {case}: restrict_value"
                    );
                }
                let vset = joined;
                assert_eq!(
                    ops::restrict_value_set(&store, &ext, step, &vset).btree(),
                    reference::restrict_value_set(
                        &store,
                        &oracle,
                        step,
                        &vset.btree()
                    ),
                    "case {case}: restrict_value_set"
                );
            }
        }
        // class restriction over every class in the graph
        for c in 0..6 {
            if let Some(class) = store.lookup_iri(&format!("http://e/C{c}")) {
                assert_eq!(
                    ops::restrict_class(&store, &ext, class).btree(),
                    reference::restrict_class(&store, &oracle, class),
                    "case {case}: restrict_class"
                );
            }
        }
        // two-step paths: joins_path and back-propagating restrict_path
        let props = props_of(&store);
        if props.len() >= 2 {
            let path = [PathStep::fwd(props[0]), PathStep::fwd(props[1])];
            assert_eq!(
                ops::joins_path(&store, &ext, &path).btree(),
                reference::joins_path(&store, &oracle, &path),
                "case {case}: joins_path"
            );
            let terminal = ops::joins_path(&store, &ext, &path);
            if !terminal.is_empty() {
                let one = ExtSet::from_sorted_vec(vec![terminal.iter().next().unwrap()]);
                assert_eq!(
                    ops::restrict_path(&store, &ext, &path, &one)
                        .expect("non-empty path")
                        .btree(),
                    reference::restrict_path(
                        &store,
                        &oracle,
                        &path,
                        &one.btree()
                    ),
                    "case {case}: restrict_path"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 3. markers: byte-identical to the seed
// ---------------------------------------------------------------------------

/// The merge-join markers agree with the seed markers on the running
/// example of Fig 5.3 (abridged): a class hierarchy two levels deep.
#[test]
fn markers_match_reference_on_fixture() {
    let mut s = Store::new();
    s.load_turtle(&format!(
        r#"@prefix ex: <{EX}> .
           @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
           ex:Laptop rdfs:subClassOf ex:Product .
           ex:HDType rdfs:subClassOf ex:Product .
           ex:SSD rdfs:subClassOf ex:HDType .
           ex:NVMe rdfs:subClassOf ex:HDType .
           ex:l1 a ex:Laptop ; ex:manufacturer ex:DELL ; ex:hardDrive ex:ssd1 ; ex:usb 2 .
           ex:l2 a ex:Laptop ; ex:manufacturer ex:DELL ; ex:hardDrive ex:ssd2 ; ex:usb 2 .
           ex:l3 a ex:Laptop ; ex:manufacturer ex:Lenovo ; ex:hardDrive ex:nvme1 ; ex:usb 4 .
           ex:ssd1 a ex:SSD . ex:ssd2 a ex:SSD . ex:nvme1 a ex:NVMe .
           ex:DELL ex:origin ex:USA . ex:Lenovo ex:origin ex:China .
        "#
    ))
    .unwrap();
    let ext = ExtSet::from_sorted_iter(s.iter_explicit().map(|[x, _, _]| x));
    let ext_ref = ext.btree();
    assert_eq!(reference::class_markers(&s, &ext_ref), markers::class_markers(&s, &ext));
    assert_eq!(reference::property_facets(&s, &ext_ref), markers::property_facets(&s, &ext));
}

#[test]
fn markers_match_reference() {
    // how often the random panels put equal display names side by side,
    // and how often they offer a literal or blank-node value
    let (mut ties, mut non_iri) = (0, 0);
    for case in 0u64..12 {
        let mut rng = StdRng::seed_from_u64(2000 + case);
        let store = random_store(&mut rng);
        let (ext, oracle) = random_ext(&mut rng, &store);
        let classes_ref = reference::class_markers(&store, &oracle);
        let facets_ref = reference::property_facets(&store, &oracle);
        let name = |id: TermId| store.term(id).display_name();
        for f in &facets_ref {
            ties += f.values.windows(2).filter(|w| name(w[0].0) == name(w[1].0)).count();
            non_iri += f.values.iter().filter(|(v, _)| !store.term(*v).is_iri()).count();
        }
        ties += facets_ref.windows(2).filter(|w| name(w[0].property) == name(w[1].property)).count();
        let opts = FacetOptions::default();
        let classes = markers::class_markers_opts(&store, &ext, opts.clone()).unwrap();
        let facets = markers::property_facets_opts(&store, &ext, opts).unwrap();
        assert_eq!(classes, classes_ref, "case {case}: class markers");
        assert_eq!(facets, facets_ref, "case {case}: property facets");
    }
    assert!(ties > 0 && non_iri > 0, "ties {ties}, non-IRI values {non_iri}: the corpus lost its teeth");
}

// ---------------------------------------------------------------------------
// 4. mmap segments: markers and algebra byte-identical to the memory store
// ---------------------------------------------------------------------------

/// The same random graph answered over an mmap segment-backed store must be
/// byte-identical to the fully in-memory one: identical term ids (both load
/// the same Turtle in the same order, and segment round-trips preserve id
/// assignment), identical markers, identical facet-algebra results.
#[test]
fn markers_byte_identical_over_mmap_segments() {
    use rdf_analytics::store::{FsyncPolicy, PersistConfig, PersistError, SharedStore};
    for case in 0u64..6 {
        let mut rng = StdRng::seed_from_u64(3000 + case);
        let ttl = random_ttl(&mut rng);
        let mut mem = Store::new();
        mem.load_turtle(&ttl).unwrap();

        let dir = std::env::temp_dir()
            .join(format!("rdfa-facet-diff-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || PersistConfig {
            fsync: FsyncPolicy::Never,
            ..PersistConfig::default()
        };
        let p = SharedStore::open(&dir, config()).unwrap();
        p.transact(|txn| {
            txn.load_turtle(&ttl)?;
            txn.store_mut().materialize_inference();
            Ok::<_, PersistError>(())
        })
        .unwrap();
        p.checkpoint().unwrap();
        drop(p);
        let handle = SharedStore::open(&dir, config()).unwrap();
        let seg = handle.snapshot();
        assert!(
            seg.segment_stats().segments > 0,
            "case {case}: the reopened store must be segment-backed"
        );

        let (ext, _oracle) = random_ext(&mut rng, &mem);
        let opts = FacetOptions::default();
        assert_eq!(
            markers::class_markers_opts(&mem, &ext, opts.clone()).unwrap(),
            markers::class_markers_opts(&seg, &ext, opts.clone()).unwrap(),
            "case {case}: class markers diverged over mmap"
        );
        assert_eq!(
            markers::property_facets_opts(&mem, &ext, opts.clone()).unwrap(),
            markers::property_facets_opts(&seg, &ext, opts).unwrap(),
            "case {case}: property facets diverged over mmap"
        );
        for prop in props_of(&seg) {
            for step in [PathStep::fwd(prop), PathStep::inv(prop)] {
                assert_eq!(
                    ops::joins(&mem, &ext, step).btree(),
                    ops::joins(&seg, &ext, step).btree(),
                    "case {case}: joins diverged over mmap"
                );
                assert_eq!(
                    ops::joins_with_counts(&mem, &ext, step),
                    ops::joins_with_counts(&seg, &ext, step),
                    "case {case}: joins_with_counts diverged over mmap"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The panels of `explore_*`'s `F0` (every subject) and `F1` over a
/// 200-entity class, on a 4,000-product store in memory and reopened from
/// mmap segments: the first extension scans the `rdf:type` run and every
/// large predicate's run, the second seeks into them per entity
/// ([`Store::prefer_seek`]). Both sides of that crossover must reproduce the
/// seed kernels.
#[test]
fn markers_match_reference_on_both_sides_of_the_crossover() {
    use rdf_analytics::datagen::{ProductsGenerator, EX};
    use rdf_analytics::facets::State;
    use rdf_analytics::store::{FsyncPolicy, PersistConfig, PersistError, SharedStore};
    let graph = ProductsGenerator { n_companies: 200, ..ProductsGenerator::new(4000, 5) }.generate();
    let mut mem = Store::new();
    mem.load_graph(&graph);
    let dir = std::env::temp_dir().join(format!("rdfa-facet-crossover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || PersistConfig { fsync: FsyncPolicy::Never, ..PersistConfig::default() };
    let p = SharedStore::open(&dir, config()).unwrap();
    p.transact(|txn| {
        txn.load_graph(&graph)?;
        txn.store_mut().materialize_inference();
        Ok::<_, PersistError>(())
    })
    .unwrap();
    p.checkpoint().unwrap();
    drop(p);
    let handle = SharedStore::open(&dir, config()).unwrap();
    let seg = handle.snapshot();
    assert!(seg.segment_stats().segments > 0, "the reopened store must be segment-backed");

    for (store, backing) in [(&mem, "memory"), (&seg, "mmap")] {
        let rdf_type = store.well_known().rdf_type;
        let company = store.lookup_iri(&format!("{EX}Company")).unwrap();
        let panels = [
            ("F0", State::initial(store).ext, false),
            ("Company", store.instances_set(company), true),
        ];
        for (name, ext, seeks) in panels {
            let seek = store.prefer_seek(ext.len(), rdf_type, None);
            assert_eq!(seek, seeks, "{backing} {name}: crossover side");
            let oracle = ext.btree();
            let opts = FacetOptions::default();
            assert_eq!(
                markers::class_markers_opts(store, &ext, opts.clone()).unwrap(),
                reference::class_markers(store, &oracle),
                "{backing} {name}: class markers"
            );
            assert_eq!(
                markers::property_facets_opts(store, &ext, opts).unwrap(),
                reference::property_facets(store, &oracle),
                "{backing} {name}: property facets"
            );
        }
        assert_eq!(store.instances_set(company).len(), 200, "{backing}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// 5. cache invalidation through SPARQL updates
// ---------------------------------------------------------------------------

#[test]
fn cache_recomputes_after_insert_and_delete_data() {
    let mut store = Store::new();
    store
        .load_turtle(
            "@prefix ex: <http://e/> .\n\
             ex:a a ex:C . ex:b a ex:C .\n\
             ex:a ex:p ex:v1 . ex:b ex:p ex:v2 .\n",
        )
        .unwrap();
    let cache = FacetCache::new(8);
    let opts = FacetOptions::default();
    let class = store.lookup_iri("http://e/C").unwrap();

    let g0 = store.generation();
    let ext = store.instances_set(class);
    let before = cache.class_markers(&store, &ext, opts.clone()).unwrap();
    let again = cache.class_markers(&store, &ext, opts.clone()).unwrap();
    assert!(std::sync::Arc::ptr_eq(&before, &again), "warm lookup must hit");
    assert_eq!(cache.stats().hits, 1);
    assert_eq!(before[0].count, 2);

    // INSERT DATA bumps the generation; the same logical query recomputes
    execute_update(&mut store, "PREFIX ex: <http://e/> INSERT DATA { ex:c a ex:C . }").unwrap();
    let g1 = store.generation();
    assert!(g1 > g0, "insert must advance the generation");
    let ext = store.instances_set(class);
    let after_insert = cache.class_markers(&store, &ext, opts.clone()).unwrap();
    assert_eq!(after_insert[0].count, 3, "cache must see the inserted instance");

    // DELETE DATA likewise
    execute_update(&mut store, "PREFIX ex: <http://e/> DELETE DATA { ex:b a ex:C . }").unwrap();
    let g2 = store.generation();
    assert!(g2 > g1, "delete must advance the generation");
    let ext = store.instances_set(class);
    let after_delete = cache.class_markers(&store, &ext, opts.clone()).unwrap();
    assert_eq!(after_delete[0].count, 2, "cache must see the deleted instance");

    // property facets go stale-proof the same way
    let facets = cache.property_facets(&store, &ext, opts.clone()).unwrap();
    let total: usize = facets.iter().flat_map(|f| f.values.iter().map(|&(_, c)| c)).sum();
    assert_eq!(total, 1, "ex:b's edge is gone; only ex:a ex:p ex:v1 counts");

    // a no-op update (deleting an absent triple) may still bump the
    // generation — correctness only requires monotonicity, never reuse of a
    // stale entry
    execute_update(&mut store, "PREFIX ex: <http://e/> DELETE DATA { ex:zz a ex:C . }").unwrap();
    assert!(store.generation() >= g2, "generation is monotone");
}

// ---------------------------------------------------------------------------
// 6. a dictionary of several chunks: display sorts merge across chunks
// ---------------------------------------------------------------------------

/// Turtle documents, one per publish, whose terms interleave by display
/// name across the dictionary chunks the publishes freeze: a local name in
/// two namespaces (`ex:x`, `f:x`, and `"x"`), `"2"` as an integer, a string
/// and an IRI's local name, blank nodes, and a property and a class whose
/// local names collide. `ex:p1 ⊑ ex:p0` puts `p0` edges in both layers.
fn chunked_batches(rng: &mut StdRng) -> Vec<String> {
    const NEW_VALUES: [&[&str]; 5] = [
        &["ex:x", "2", "_:b0", "ex:a"],
        &["f:x", "\"2\"", "ex:b"],
        &["\"x\"", "_:b1", "f:a"],
        &["<http://e/2>", "\"x\"@en"],
        &["_:b0", "\"a\""],
    ];
    const NEW_CLASSES: [&[&str]; 5] = [&["ex:C0", "ex:C1"], &["f:C0"], &[], &["ex:C2"], &[]];
    const NEW_PROPS: [&[&str]; 5] = [&["ex:p0", "ex:p1"], &["ex:p2"], &["f:p0"], &[], &[]];
    let head = "@prefix ex: <http://e/> .\n@prefix f: <http://f#> .\n\
                @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n";
    let (mut values, mut classes, mut props) = (Vec::new(), Vec::new(), Vec::new());
    let mut entities: Vec<String> = Vec::new();
    let mut docs = Vec::new();
    for b in 0..5 {
        values.extend_from_slice(NEW_VALUES[b]);
        classes.extend_from_slice(NEW_CLASSES[b]);
        props.extend_from_slice(NEW_PROPS[b]);
        let mut ttl = String::from(head);
        if b == 0 {
            ttl.push_str("ex:C1 rdfs:subClassOf ex:C0 .\nex:p1 rdfs:subPropertyOf ex:p0 .\n");
        }
        for i in 0..8 {
            let e = format!("ex:e{b}_{i}");
            ttl.push_str(&format!("{e} a {} .\n", classes[rng.gen_range(0..classes.len())]));
            for _ in 0..rng.gen_range(1..4) {
                let p = props[rng.gen_range(0..props.len())];
                let v = if !entities.is_empty() && rng.gen_bool(0.2) {
                    entities[rng.gen_range(0..entities.len())].clone()
                } else {
                    values[rng.gen_range(0..values.len())].to_owned()
                };
                ttl.push_str(&format!("{e} {p} {v} .\n"));
            }
            entities.push(e);
        }
        // the same value under `p0` and under its subproperty `p1`, from
        // different subjects: an explicit and an inferred `p0` edge
        ttl.push_str(&format!("ex:e{b}_0 ex:p0 ex:x .\nex:e{b}_1 ex:p1 ex:x .\n"));
        docs.push(ttl);
    }
    docs
}

/// Every marker kernel over a store whose dictionary is several chunks
/// (one per publish in memory; one per checkpoint once reopened from
/// segments) matches the seed kernels byte for byte, on the initial state
/// and on random extensions.
#[test]
fn markers_match_reference_over_a_chunked_dictionary() {
    use rdf_analytics::facets::State;
    use rdf_analytics::store::{FsyncPolicy, PersistConfig, PersistError, SharedStore};
    let publish = |shared: &SharedStore, ttl: &str| {
        shared
            .transact(|txn| {
                txn.load_turtle(ttl)?;
                Ok::<_, PersistError>(())
            })
            .unwrap();
    };
    for case in 0u64..4 {
        let mut rng = StdRng::seed_from_u64(6000 + case);
        let docs = chunked_batches(&mut rng);
        let mem = SharedStore::new(Store::new());
        for ttl in &docs {
            publish(&mem, ttl);
        }
        let dir = std::env::temp_dir()
            .join(format!("rdfa-facet-chunks-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = || PersistConfig { fsync: FsyncPolicy::Never, ..PersistConfig::default() };
        let durable = SharedStore::open(&dir, config()).unwrap();
        for (b, ttl) in docs.iter().enumerate() {
            publish(&durable, ttl);
            if b == 1 || b == 3 {
                durable.checkpoint().unwrap();
            }
        }
        durable.checkpoint().unwrap();
        drop(durable);
        let reopened = SharedStore::open(&dir, config()).unwrap();
        let seg = reopened.snapshot();
        assert!(seg.segment_stats().segments > 0, "case {case}: segment-backed");

        for (store, backing) in [(&mem.snapshot(), "memory"), (&seg, "mmap")] {
            let p0 = store.lookup_iri("http://e/p0").unwrap();
            let x = store.lookup_iri("http://e/x").unwrap();
            let explicit = store.matching_explicit(None, Some(p0), Some(x)).count();
            assert!(
                explicit > 0 && store.matching(None, Some(p0), Some(x)).count() > explicit,
                "{backing}: ex:x needs p0 edges in both layers"
            );
            let (random, _) = random_ext(&mut rng, store);
            for (name, ext) in [("s0", State::initial(store).ext), ("random", random)] {
                let oracle = ext.btree();
                let at = format!("case {case} {backing} {name}");
                assert_eq!(
                    markers::class_markers(store, &ext),
                    reference::class_markers(store, &oracle),
                    "{at}: class markers"
                );
                assert_eq!(
                    markers::property_facets(store, &ext),
                    reference::property_facets(store, &oracle),
                    "{at}: property facets"
                );
                assert_eq!(
                    markers::inverse_property_facets(store, &ext),
                    reference::inverse_property_facets(store, &oracle),
                    "{at}: inverse property facets"
                );
                for path in [
                    vec![PathStep::fwd(p0)],
                    vec![PathStep::fwd(p0), PathStep::inv(p0)],
                    vec![PathStep::inv(p0), PathStep::fwd(p0)],
                ] {
                    assert_eq!(
                        markers::expand_path(store, &ext, &path),
                        reference::expand_path(store, &oracle, &path),
                        "{at}: expand_path {path:?}"
                    );
                }
            }
        }
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
