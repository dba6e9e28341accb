//! Property tests of the interaction model's formal guarantees (§5.3):
//!
//! 1. **Never-empty results** — every offered transition marker leads to a
//!    non-empty extension.
//! 2. **Monotone restriction** — a transition's extension is a subset of
//!    its predecessor's.
//! 3. **Count correctness** — a value marker's count equals the size of the
//!    extension the click produces; counts over a facet's values cover the
//!    extension.
//! 4. **Intention faithfulness** — evaluating a state's intention (SPARQL)
//!    returns exactly its extension.
//! 5. **Back inverts** — `back()` restores the previous state exactly.

use rdf_analytics::datagen::{ProductsGenerator, EX};
use rdf_analytics::facets::{FacetedSession, PathStep};
use rdf_analytics::sparql::Engine;
use rdf_analytics::store::{ExtSet, Store};
use rdfa_prng::StdRng;


fn build_store(n_products: usize, seed: u64) -> Store {
    let mut store = Store::new();
    store.load_graph(&ProductsGenerator::new(n_products, seed).generate());
    store
}

/// Drive a random click walk; at each step pick a random offered marker.
fn random_walk(store: &Store, clicks: &[usize]) -> bool {
    let mut session = FacetedSession::start(store);
    let laptop = store.lookup_iri(&format!("{EX}Laptop")).unwrap();
    session.select_class(laptop).unwrap();
    for &pick in clicks {
        let facets = session.facets();
        if facets.is_empty() {
            break;
        }
        let f = &facets[pick % facets.len()];
        if f.values.is_empty() {
            continue;
        }
        let (value, count) = f.values[pick % f.values.len()];
        let before = session.extension().clone();
        let prop = f.property;
        session
            .select_value(prop, value)
            .expect("offered markers never produce empty extensions");
        let after = session.extension();
        // invariant 2: restriction
        assert!(after.is_subset(&before), "extension must shrink monotonically");
        // invariant 3: the advertised count is exactly the result size
        assert_eq!(after.len(), count, "marker count must match the click result");
        // invariant 1: non-empty
        assert!(!after.is_empty());
    }
    // invariant 4: intention evaluates back to the extension
    let sparql = session.intent_sparql();
    let sols = Engine::builder(store).build().run(&sparql).unwrap();
    let got: ExtSet = sols
        .solutions()
        .unwrap()
        .column("x")
        .filter_map(|t| store.lookup(t))
        .collect();
    assert_eq!(&got, session.extension(), "intention must reproduce the extension");
    true
}

#[test]
fn click_walks_preserve_invariants() {
    for case in 0u64..24 {
        let mut rng = StdRng::seed_from_u64(case);
        let seed = rng.gen_range(0u64..1000);
        let clicks: Vec<usize> =
            (0..rng.gen_range(0..5)).map(|_| rng.gen_range(0usize..100)).collect();
        let store = build_store(60, seed);
        assert!(random_walk(&store, &clicks), "case {case}");
    }
}

#[test]
fn back_restores_previous_state_exactly() {
    let store = build_store(40, 3);
    let laptop = store.lookup_iri(&format!("{EX}Laptop")).unwrap();
    let mut session = FacetedSession::start(&store);
    session.select_class(laptop).unwrap();
    let snapshot_ext = session.extension().clone();
    let snapshot_intent = session.intent().clone();

    let facets = session.facets();
    let f = &facets[0];
    let (v, _) = f.values[0];
    session.select_value(f.property, v).unwrap();
    assert!(session.back());
    assert_eq!(session.extension(), &snapshot_ext);
    assert_eq!(session.intent(), &snapshot_intent);
    // initial state cannot be popped
    assert!(session.back());
    assert!(!session.back());
}

#[test]
fn facet_counts_cover_extension() {
    let store = build_store(80, 17);
    let laptop = store.lookup_iri(&format!("{EX}Laptop")).unwrap();
    let mut session = FacetedSession::start(&store);
    session.select_class(laptop).unwrap();
    let n = session.extension().len();
    for f in session.facets() {
        // every laptop has exactly one value for the generator's functional
        // facets, so per-facet counts sum to the extension size
        let name = store.term(f.property).display_name();
        if ["manufacturer", "price", "USBPorts", "releaseDate", "hardDrive"].contains(&name.as_str())
        {
            let sum: usize = f.values.iter().map(|&(_, c)| c).sum();
            assert_eq!(sum, n, "facet {name} counts must cover the extension");
        }
    }
}

#[test]
fn path_markers_counts_match_clicks() {
    let store = build_store(60, 23);
    let laptop = store.lookup_iri(&format!("{EX}Laptop")).unwrap();
    let man = store.lookup_iri(&format!("{EX}manufacturer")).unwrap();
    let origin = store.lookup_iri(&format!("{EX}origin")).unwrap();
    let mut session = FacetedSession::start(&store);
    session.select_class(laptop).unwrap();
    let path = [PathStep::fwd(man), PathStep::fwd(origin)];
    for (value, count) in session.expand(&path) {
        let mut probe = FacetedSession::start(&store);
        probe.select_class(laptop).unwrap();
        probe.select_path_value(&path, value).unwrap();
        assert_eq!(probe.extension().len(), count);
    }
}
