//! Differential harness for the incrementally maintained RDFS closure: after
//! every step of a seeded random `INSERT DATA` / `DELETE DATA` / `DELETE
//! WHERE` sequence, the store kept current by `refresh_inference` (what
//! `execute_update` ends in) must equal a clone whose closure was rebuilt
//! from scratch by `materialize_inference` — same entailed triples in the
//! same order, same `len()`, same `len_entailed()` — and its explicit and
//! inferred layers disjoint, which every per-layer read relies on.
//!
//! The schema is built to hit every rule and every awkward case: subclass
//! chains, a subclass cycle, sub-properties whose domains and ranges are
//! inherited and lifted through superclasses, triples that are both asserted
//! and entailed, triples entailed twice over. Both backends run the same
//! sequences: the in-memory index and the mmap segments + overlay a
//! durable store serves after a checkpoint. Steps that touch the schema
//! itself must take the full-pass fallback — and still agree.

use rdf_analytics::model::{vocab, Term};
use rdf_analytics::sparql::{execute_update, execute_update_recording};
use rdf_analytics::store::{
    FsyncPolicy, IdTriple, Mutation, PersistConfig, PersistError, SharedStore, Store,
};
use rdfa_prng::StdRng;

const EX: &str = "http://example.org/";
const NODES: usize = 40;
const CLASSES: [&str; 8] = ["C0", "C1", "C2", "C3", "D0", "K0", "K1", "K2"];
const PROPS: [&str; 5] = ["p0", "p1", "p2", "q0", "r"];

const SCHEMA: &str = r#"
    @prefix ex: <http://example.org/> .
    @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
    # a chain, with a side branch joining it half way up
    ex:C0 rdfs:subClassOf ex:C1 . ex:C1 rdfs:subClassOf ex:C2 . ex:C2 rdfs:subClassOf ex:C3 .
    ex:D0 rdfs:subClassOf ex:C2 .
    # a cycle, hanging off the chain's top
    ex:K0 rdfs:subClassOf ex:K1 . ex:K1 rdfs:subClassOf ex:K2 . ex:K2 rdfs:subClassOf ex:K0 .
    ex:K1 rdfs:subClassOf ex:C3 .
    # sub-properties; domains and ranges declared at different heights
    ex:p0 rdfs:subPropertyOf ex:p1 . ex:p1 rdfs:subPropertyOf ex:p2 .
    ex:q0 rdfs:subPropertyOf ex:p2 .
    ex:p1 rdfs:domain ex:C1 .
    ex:p2 rdfs:domain ex:C3 ; rdfs:range ex:D0 .
    ex:q0 rdfs:domain ex:K0 .
"#;

fn node(i: usize) -> String {
    format!("<{EX}n{i}>")
}

fn iri(local: &str) -> String {
    format!("<{EX}{local}>")
}

/// One random data triple in N-Triples syntax: a typing, a resource edge
/// over one of the properties, or a literal-valued edge.
fn random_triple(rng: &mut StdRng) -> String {
    let s = node(rng.gen_range(0..NODES));
    match rng.gen_range(0..10) {
        0..=3 => {
            let class = CLASSES[rng.gen_range(0..CLASSES.len())];
            format!("{s} <{}> {} .", vocab::rdf::TYPE, iri(class))
        }
        4..=8 => {
            let p = PROPS[rng.gen_range(0..PROPS.len())];
            format!("{s} {} {} .", iri(p), node(rng.gen_range(0..NODES)))
        }
        _ => format!("{s} {} \"v{}\" .", iri("r"), rng.gen_range(0..4)),
    }
}

fn base_turtle(rng: &mut StdRng) -> String {
    let mut ttl = SCHEMA.to_owned();
    for _ in 0..420 {
        ttl.push_str(&random_triple(rng));
        ttl.push('\n');
    }
    // asserted and entailed at once: n0 is a C0, and says it is a C3 too
    ttl.push_str(&format!(
        "{n0} a {c0} . {n0} a {c3} .\n",
        n0 = node(0),
        c0 = iri("C0"),
        c3 = iri("C3")
    ));
    ttl
}

fn mem_store(ttl: &str) -> Store {
    let mut s = Store::new();
    s.load_turtle(ttl).unwrap();
    s
}

/// The same data behind mmap segments: loaded durably, checkpointed with a
/// fold, reopened. The handle is returned only to keep the directory's
/// files open for as long as the store reads them.
fn seg_store(ttl: &str, tag: &str) -> (Store, SharedStore, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("rdfa-closure-diff-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || PersistConfig {
        fsync: FsyncPolicy::Never,
        ..PersistConfig::default()
    };
    let p = SharedStore::open(&dir, config()).unwrap();
    p.transact(|txn| txn.load_turtle(ttl)).unwrap();
    p.checkpoint().unwrap();
    drop(p);
    let handle = SharedStore::open(&dir, config()).unwrap();
    // an owned copy to update in memory: it shares the mapped segments
    let store = Store::clone(&handle.snapshot());
    let stats = store.segment_stats();
    assert!(stats.segments >= 2, "explicit and inferred layers must both be segment-backed");
    assert!(!store.is_dirty(), "a folded checkpoint persists the closure");
    (store, handle, dir)
}

/// Explicit triples whose predicate is not one of the four schema predicates.
fn explicit_data_triples(store: &Store) -> Vec<IdTriple> {
    let wk = store.well_known();
    let schema = [wk.rdfs_subclassof, wk.rdfs_subpropertyof, wk.rdfs_domain, wk.rdfs_range];
    store.iter_explicit().filter(|[_, p, _]| !schema.contains(p)).collect()
}

fn nt(store: &Store, t: IdTriple) -> String {
    format!("{} {} {} .", store.term(t[0]), store.term(t[1]), store.term(t[2]))
}

/// A data-only update: the incremental path must take it.
fn data_step(rng: &mut StdRng, store: &Store) -> String {
    match rng.gen_range(0..10) {
        0..=3 => {
            let n = rng.gen_range(1..=6);
            let body: Vec<String> = (0..n).map(|_| random_triple(rng)).collect();
            format!("INSERT DATA {{ {} }}", body.join(" "))
        }
        4..=6 => {
            let live = explicit_data_triples(store);
            let n = rng.gen_range(1..=5usize).min(live.len());
            let body: Vec<String> =
                (0..n).map(|_| nt(store, live[rng.gen_range(0..live.len())])).collect();
            format!("DELETE DATA {{ {} }}", body.join(" "))
        }
        7 => {
            // everything one node says
            format!("DELETE WHERE {{ {} ?p ?o . }}", node(rng.gen_range(0..NODES)))
        }
        8 => {
            // every edge of one property into one node (matches entailed
            // edges too; only the asserted ones can be removed)
            let p = PROPS[rng.gen_range(0..PROPS.len())];
            format!("DELETE WHERE {{ ?s {} {} . }}", iri(p), node(rng.gen_range(0..NODES)))
        }
        _ => {
            // insert and delete in one request, overlapping on purpose
            let t = random_triple(rng);
            format!("INSERT DATA {{ {t} {} }} ;\nDELETE DATA {{ {t} }}", random_triple(rng))
        }
    }
}

/// An update that changes the schema: must fall back to the full pass.
fn schema_step(rng: &mut StdRng, k: usize) -> String {
    let sub_class = format!("<{}>", vocab::rdfs::SUB_CLASS_OF);
    let sub_prop = format!("<{}>", vocab::rdfs::SUB_PROPERTY_OF);
    let domain = format!("<{}>", vocab::rdfs::DOMAIN);
    let range = format!("<{}>", vocab::rdfs::RANGE);
    match k % 6 {
        0 => format!("INSERT DATA {{ {} {sub_class} {} . }}", iri("C3"), iri("Top")),
        1 => format!("DELETE DATA {{ {} {sub_class} {} . }}", iri("C1"), iri("C2")),
        2 => format!("INSERT DATA {{ {} {range} {} . {} }}", iri("r"), iri("K2"), random_triple(rng)),
        3 => format!("DELETE DATA {{ {} {domain} {} . }}", iri("p1"), iri("C1")),
        4 => format!("INSERT DATA {{ {} {sub_prop} {} . }}", iri("r"), iri("q0")),
        _ => format!("DELETE DATA {{ {} {sub_class} {} . }}", iri("K2"), iri("K0")),
    }
}

/// The invariant every per-layer read relies on (`Store::layer_runs`): in a
/// clean store no triple is both explicit and inferred, so the layers'
/// runs together hold each entailed triple once.
fn assert_layers_disjoint(store: &Store, what: &str) {
    let mut all: Vec<IdTriple> = store.matching(None, None, None).collect();
    let n = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(n, all.len(), "{what}: a triple is in both layers");
    assert_eq!(n, store.len_entailed(), "{what}: len_entailed");
}

fn assert_equals_rebuild(store: &Store, what: &str) {
    assert_layers_disjoint(store, what);
    let mut rebuilt = store.clone();
    rebuilt.materialize_inference();
    assert_eq!(store.len(), rebuilt.len(), "{what}: len");
    assert_eq!(store.len_entailed(), rebuilt.len_entailed(), "{what}: len_entailed");
    let got: Vec<IdTriple> = store.matching(None, None, None).collect();
    let want: Vec<IdTriple> = rebuilt.matching(None, None, None).collect();
    assert_eq!(got.len(), want.len(), "{what}: entailed triple count");
    if got != want {
        let extra: Vec<String> =
            got.iter().filter(|t| !want.contains(t)).map(|&t| nt(store, t)).collect();
        let missing: Vec<String> =
            want.iter().filter(|t| !got.contains(t)).map(|&t| nt(store, t)).collect();
        panic!("{what}: closure diverged\n  extra: {extra:#?}\n  missing: {missing:#?}");
    }
    // the POS and OSP permutations of the maintained layers agree as well
    let rdf_type = store.well_known().rdf_type;
    assert!(
        store.matching(None, Some(rdf_type), None).eq(rebuilt.matching(None, Some(rdf_type), None)),
        "{what}: type triples by predicate"
    );
    let n0 = store.lookup_iri(&format!("{EX}n0")).unwrap();
    assert!(
        store.matching(None, None, Some(n0)).eq(rebuilt.matching(None, None, Some(n0))),
        "{what}: triples by object"
    );
    assert!(!store.is_dirty(), "{what}: the refresh must leave the closure current");
}

fn run_sequence(mut store: Store, seed: u64, backend: &str) {
    let mut rng = StdRng::seed_from_u64(seed);
    assert_equals_rebuild(&store, &format!("{backend} seed {seed} base"));
    let mut schema_steps = 0;
    for step in 0..60 {
        let schema_bearing = step % 9 == 8;
        let update = if schema_bearing {
            schema_steps += 1;
            schema_step(&mut rng, schema_steps + seed as usize)
        } else {
            data_step(&mut rng, &store)
        };
        let before = store.closure_stats();
        let (_, changes) = execute_update_recording(&mut store, &update)
            .unwrap_or_else(|e| panic!("{backend} seed {seed} step {step}: {update}: {e:?}"));
        let after = store.closure_stats();
        let what = format!("{backend} seed {seed} step {step} ({update})");
        // what took effect decides the route, not what was asked for: a
        // step that changes nothing (a schema step that deletes an absent
        // triple, a DELETE WHERE that matches nothing) refreshes nothing
        let took_fallback = (after.incremental, after.full) == (before.incremental, before.full + 1);
        let took_fast_path = (after.incremental, after.full) == (before.incremental + 1, before.full);
        if changes.is_empty() {
            assert_eq!(after, before, "{what}: an update that changes nothing must not refresh");
        } else if changes.iter().any(changes_schema) {
            assert!(schema_bearing, "{what}: data step changed the schema");
            assert!(took_fallback, "{what}: a schema change must take the full pass");
        } else {
            assert!(took_fast_path, "{what}: a data-only delta must be applied incrementally");
        }
        assert_equals_rebuild(&store, &what);
    }
    assert!(store.closure_stats().full >= 3, "{backend} seed {seed}: fallback never exercised");
}

fn changes_schema(m: &Mutation) -> bool {
    let (Mutation::Insert(t) | Mutation::Remove(t)) = m;
    [vocab::rdfs::SUB_CLASS_OF, vocab::rdfs::SUB_PROPERTY_OF, vocab::rdfs::DOMAIN, vocab::rdfs::RANGE]
        .iter()
        .any(|p| t.predicate == Term::iri(*p))
}

#[test]
fn incremental_closure_equals_rebuild_in_memory() {
    for seed in 0u64..6 {
        let mut rng = StdRng::seed_from_u64(0xc105 + seed);
        let ttl = base_turtle(&mut rng);
        run_sequence(mem_store(&ttl), seed, "mem");
    }
}

#[test]
fn incremental_closure_equals_rebuild_over_segments() {
    for seed in 0u64..4 {
        let mut rng = StdRng::seed_from_u64(0xc105 + seed);
        let ttl = base_turtle(&mut rng);
        let (store, _journal, dir) = seg_store(&ttl, &format!("seq{seed}"));
        run_sequence(store, seed, "seg");
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Both backends, same data, same updates: not only does each agree with its
/// own rebuild, they agree with each other triple for triple (term ids are
/// assigned in load order on both).
#[test]
fn backends_stay_identical_under_the_same_updates() {
    let mut rng = StdRng::seed_from_u64(0xc1d5);
    let ttl = base_turtle(&mut rng);
    let mut mem = mem_store(&ttl);
    let (mut seg, _journal, dir) = seg_store(&ttl, "pair");
    for step in 0..40 {
        let update = data_step(&mut rng, &mem);
        execute_update(&mut mem, &update).unwrap();
        execute_update(&mut seg, &update).unwrap();
        assert!(
            mem.matching(None, None, None).eq(seg.matching(None, None, None)),
            "step {step} ({update}): backends diverged"
        );
        assert_eq!(mem.len_entailed(), seg.len_entailed());
        assert_layers_disjoint(&mem, &format!("mem step {step} ({update})"));
        assert_layers_disjoint(&seg, &format!("seg step {step} ({update})"));
    }
    assert_eq!(mem.closure_stats().full, 0);
    assert_eq!(seg.closure_stats().full, 0);
    let _ = std::fs::remove_dir_all(dir);
}

/// The incrementally maintained closure is what a folding checkpoint
/// persists: update, checkpoint, reopen — the reopened store comes up clean
/// (no recomputation) and still equals a rebuild; and a crash-style reopen
/// that replays the WAL instead gets there by the full pass.
#[test]
fn maintained_closure_survives_checkpoint_and_replay() {
    let mut rng = StdRng::seed_from_u64(0xd15c);
    let ttl = base_turtle(&mut rng);
    let dir = std::env::temp_dir().join(format!("rdfa-closure-diff-{}-durable", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || PersistConfig {
        fsync: FsyncPolicy::Never,
        ..PersistConfig::default()
    };
    let mut p = SharedStore::open(&dir, config()).unwrap();
    p.transact(|txn| txn.load_turtle(&ttl)).unwrap();
    p.checkpoint().unwrap();
    for round in 0..3 {
        for _ in 0..8 {
            let update = data_step(&mut rng, &p.snapshot());
            // the transaction logs what the update changed in its store
            p.transact(|txn| {
                Ok::<_, PersistError>(execute_update_recording(txn.store_mut(), &update).unwrap())
            })
            .unwrap();
        }
        assert_equals_rebuild(&p.snapshot(), &format!("round {round} live"));
        let want: Vec<IdTriple> = p.snapshot().matching(None, None, None).collect();
        if round % 2 == 0 {
            p.checkpoint().unwrap();
        }
        drop(p);
        p = SharedStore::open(&dir, config()).unwrap();
        assert_eq!(p.recovery().unwrap().wal_records_replayed == 0, round % 2 == 0);
        assert!(!p.snapshot().is_dirty());
        let got: Vec<IdTriple> = p.snapshot().matching(None, None, None).collect();
        assert_eq!(got, want, "round {round}: reopened store differs");
        assert_equals_rebuild(&p.snapshot(), &format!("round {round} reopened"));
    }
    drop(p);
    let _ = std::fs::remove_dir_all(dir);
}

/// A delta too large to be worth replaying falls back by size alone.
#[test]
fn oversized_deltas_fall_back_to_the_full_pass() {
    let mut rng = StdRng::seed_from_u64(0xb16);
    let mut store = mem_store(&base_turtle(&mut rng));
    let body: Vec<String> = (0..400)
        .map(|i| format!("{} {} {} .", node(i % NODES), iri("p0"), iri(&format!("fresh{i}"))))
        .collect();
    execute_update(&mut store, &format!("INSERT DATA {{ {} }}", body.join(" "))).unwrap();
    assert_eq!(store.closure_stats().full, 1);
    assert_eq!(store.closure_stats().incremental, 0);
    assert_equals_rebuild(&store, "oversized insert");
}
