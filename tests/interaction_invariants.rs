//! Property tests of the interaction model's formal guarantees (§5.3):
//!
//! 1. **Never-empty results** — every offered transition marker leads to a
//!    non-empty extension.
//! 2. **Monotone restriction** — a transition's extension is a subset of
//!    its predecessor's.
//! 3. **Count correctness** — a value marker's count equals the size of the
//!    extension the click produces; counts over a facet's values cover the
//!    extension.
//! 4. **Intention faithfulness** — a state's intention is a HIFUN root; its
//!    translation alone returns exactly the extension, and an item COUNT
//!    over it is the extension's size. Whenever operations are selected,
//!    the analytic query is one the clicks can express (§7.1).
//! 5. **Back inverts** — `back()` restores the previous state exactly.

use rdf_analytics::analytics::{
    check_expressibility, AnalyticsSession, Expressibility, GroupSpec, MeasureSpec, Script,
};
use rdf_analytics::datagen::{ProductsGenerator, EX};
use rdf_analytics::facets::{ClassMarker, FacetedSession, PathStep};
use rdf_analytics::hifun::{self, AggOp, CondOp, DerivedFn, HifunQuery};
use rdf_analytics::model::{Term, Value};
use rdf_analytics::sparql::Engine;
use rdf_analytics::store::{ExtSet, Store, TermId};
use rdfa_prng::StdRng;
use std::collections::HashSet;

fn build_store(n_products: usize, seed: u64) -> Store {
    let mut store = Store::new();
    store.load_graph(&ProductsGenerator::new(n_products, seed).generate());
    store
}

/// The kinds of click a walk draws from: the faceted moves and the G/⨊
/// buttons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Click {
    Class,
    Value,
    MultiSelect,
    InversePath,
    IntRange,
    DecimalRange,
    DateRange,
    Back,
    Group,
    RemoveGrouping,
    ReplaceGrouping,
    SwapGroupings,
    Measure,
    ClearMeasure,
    Ops,
    Having,
    ClearAnalytics,
}

/// Every kind once, the G button and the ops menu more often, so walks end
/// with several groupings to remove, replace and swap.
const CLICKS: [Click; 20] = [
    Click::Class,
    Click::Value,
    Click::MultiSelect,
    Click::InversePath,
    Click::IntRange,
    Click::DecimalRange,
    Click::DateRange,
    Click::Back,
    Click::Group,
    Click::Group,
    Click::Group,
    Click::RemoveGrouping,
    Click::ReplaceGrouping,
    Click::SwapGroupings,
    Click::Measure,
    Click::ClearMeasure,
    Click::Ops,
    Click::Ops,
    Click::Having,
    Click::ClearAnalytics,
];

fn flatten(markers: &[ClassMarker], out: &mut Vec<(TermId, usize)>) {
    for m in markers {
        out.push((m.class, m.count));
        flatten(&m.children, out);
    }
}

fn pick<T: Clone>(rng: &mut StdRng, items: &[T]) -> Option<T> {
    (!items.is_empty()).then(|| items[rng.gen_range(0..items.len())].clone())
}

/// The offered values of `prop`'s facet in the current state, as typed
/// values, sorted.
fn facet_values(session: &AnalyticsSession<'_>, prop: TermId) -> Vec<Value> {
    let store = session.store();
    let mut values: Vec<Value> = session
        .facets()
        .facets()
        .iter()
        .filter(|f| f.property == prop)
        .flat_map(|f| f.values.iter().map(|&(v, _)| Value::from_term(store.term(v))))
        .collect();
    values.sort_by(|a, b| a.compare(b).unwrap());
    values
}

/// Drive a random walk of `n` clicks; returns the kinds of click that took
/// effect. Checks invariants 1–4 after every click, then that the
/// session's script prints and parses back to itself and rebuilds the
/// same state on a fresh session.
fn random_walk(store: &Store, rng: &mut StdRng, n: usize) -> Vec<Click> {
    let ex = |l: &str| store.lookup_iri(&format!("{EX}{l}")).unwrap();
    let (man, origin, price, usb, date) =
        (ex("manufacturer"), ex("origin"), ex("price"), ex("USBPorts"), ex("releaseDate"));
    let groupings = [
        GroupSpec::property(man),
        GroupSpec::path(vec![man, origin]),
        GroupSpec::property(usb),
        GroupSpec::property(date).with_derived(DerivedFn::Year),
        GroupSpec::property(date).with_derived(DerivedFn::Month),
    ];
    // invariant 4: the root's translation evaluates back to the extension,
    // and an item COUNT over the root is the extension's size
    let engine = Engine::builder(store).build();
    let intention_holds = |session: &AnalyticsSession<'_>| {
        let sols = engine.run(&session.facets().intent_sparql()).unwrap();
        let got: ExtSet =
            sols.solutions().unwrap().column("x1").filter_map(|t| store.lookup(t)).collect();
        let mut count = HifunQuery::new(AggOp::Count);
        count.root = session.facets().intent().clone();
        let counted = engine.run(&hifun::to_sparql(&count)).unwrap().into_solutions().unwrap();
        let n = Value::from_term(counted.rows()[0][0].as_ref().unwrap());
        &got == session.facets().extension() && n.value_eq(&Value::Int(got.len() as i64))
    };
    let mut session = AnalyticsSession::start(store);
    session.select_class(ex("Laptop")).unwrap();
    let mut done = Vec::new();
    for _ in 0..n {
        let click = CLICKS[rng.gen_range(0..CLICKS.len())];
        let before = session.facets().extension().clone();
        // the advertised size of the click's result, when it has one
        let mut advertised = None;
        match click {
            Click::Class => {
                let mut markers = Vec::new();
                flatten(&session.facets().class_markers(), &mut markers);
                let Some((class, count)) = pick(rng, &markers) else { continue };
                session.select_class(class).expect("class markers are never empty");
                advertised = Some(count);
            }
            Click::Value => {
                let facets = session.facets().facets();
                let Some(f) = facets.get(rng.gen_range(0..facets.len().max(1))) else { continue };
                let Some((value, count)) = pick(rng, &f.values) else { continue };
                session.select_value(f.property, value).expect("value markers are never empty");
                advertised = Some(count);
            }
            Click::MultiSelect => {
                let facets = session.facets().facets();
                let offered: Vec<_> = facets.iter().filter(|f| f.values.len() >= 2).collect();
                let Some(f) = pick(rng, &offered) else { continue };
                let values: ExtSet =
                    (0..2).filter_map(|_| pick(rng, &f.values)).map(|(v, _)| v).collect();
                let path = [PathStep::fwd(f.property)];
                session.select_values(&path, &values).unwrap();
            }
            Click::InversePath => {
                // laptops made by the maker of a given laptop
                let path = [PathStep::fwd(man), PathStep::inv(man)];
                let markers = session.facets().expand(&path);
                let Some((value, count)) = pick(rng, &markers) else { continue };
                session.select_path_value(&path, value).unwrap();
                advertised = Some(count);
            }
            Click::IntRange | Click::DecimalRange | Click::DateRange => {
                let prop = match click {
                    Click::IntRange => usb,
                    Click::DecimalRange => price,
                    _ => date,
                };
                let values = facet_values(&session, prop);
                let (Some(lo), Some(hi)) = (pick(rng, &values), pick(rng, &values)) else {
                    continue;
                };
                let (lo, hi) = if lo.compare(&hi).unwrap().is_le() { (lo, hi) } else { (hi, lo) };
                let (lo, hi) = match (click, lo, hi) {
                    (Click::DecimalRange, Value::Int(lo), Value::Int(hi)) => {
                        (Value::Float(lo as f64 - 0.5), Value::Float(hi as f64 + 0.25))
                    }
                    (_, lo, hi) => (lo, hi),
                };
                let (min, max) = match rng.gen_range(0..3) {
                    0 => (Some(lo), None),
                    1 => (None, Some(hi)),
                    _ => (Some(lo), Some(hi)),
                };
                session.select_range(&[PathStep::fwd(prop)], min, max).unwrap();
            }
            Click::Back => {
                if !session.facets_mut().back() {
                    continue;
                }
            }
            Click::Group => session.add_grouping(pick(rng, &groupings).unwrap()),
            Click::RemoveGrouping | Click::ReplaceGrouping | Click::SwapGroupings => {
                let k = session.groupings().len();
                if k == 0 || (click == Click::SwapGroupings && k < 2) {
                    continue;
                }
                let i = rng.gen_range(0..k);
                match click {
                    Click::RemoveGrouping => session.remove_grouping(i),
                    Click::ReplaceGrouping => {
                        session.replace_grouping(i, pick(rng, &groupings).unwrap())
                    }
                    _ => session.swap_groupings(i, (i + 1) % k),
                }
            }
            Click::Measure => session.set_measure(if rng.gen_bool(0.5) {
                MeasureSpec::property(price)
            } else {
                MeasureSpec { path: vec![date], derived: Some(DerivedFn::Month) }
            }),
            Click::ClearMeasure => session.clear_measure(),
            Click::Ops => {
                let n = rng.gen_range(1..4);
                let ops: Vec<AggOp> = (0..n).map(|_| pick(rng, &AggOp::all()).unwrap()).collect();
                session.set_ops(ops);
            }
            Click::Having => {
                let k = session.hifun_query().map(|q| q.ops.len()).unwrap_or(0);
                if k == 0 {
                    continue;
                }
                let cond = pick(rng, &[CondOp::Ge, CondOp::Lt, CondOp::Ne]).unwrap();
                let threshold = Term::integer(rng.gen_range(0..1500));
                session
                    .add_having(rng.gen_range(0..k), cond, threshold)
                    .expect("index below the ops");
            }
            Click::ClearAnalytics => session.clear_analytics(),
        }
        done.push(click);
        let after = session.facets().extension();
        if click != Click::Back {
            // invariant 2: restriction
            assert!(after.is_subset(&before), "{click:?}: extension must shrink monotonically");
        }
        // invariant 1: non-empty
        assert!(!after.is_empty(), "{click:?}");
        // invariant 3: the advertised count is exactly the result size
        if let Some(count) = advertised {
            assert_eq!(after.len(), count, "{click:?}: marker count must match the click result");
        }
        assert!(intention_holds(&session), "{click:?}: intention must reproduce the extension");
        if let Ok(q) = session.hifun_query() {
            assert_eq!(check_expressibility(&q), Expressibility::Expressible, "{click:?}: {q}");
        }
    }

    // the state's script is its text form: it reads back as itself and
    // rebuilds the same extension and intention on a fresh session
    let script = session.script();
    let printed = script.to_string();
    assert_eq!(Script::parse(&printed).unwrap(), script, "{printed}");
    let mut replay = AnalyticsSession::start(store);
    script.apply(&mut replay).unwrap();
    assert_eq!(replay.facets().extension(), session.facets().extension(), "{printed}");
    assert_eq!(replay.facets().intent_sparql(), session.facets().intent_sparql(), "{printed}");
    assert_eq!(replay.sparql(), session.sparql(), "{printed}");
    assert_eq!(replay.script(), script, "{printed}");
    done
}

#[test]
fn click_walks_preserve_invariants() {
    let mut seen = HashSet::new();
    for case in 0u64..40 {
        let mut rng = StdRng::seed_from_u64(case);
        let store = build_store(60, rng.gen_range(0u64..1000));
        let n = rng.gen_range(10..40);
        seen.extend(random_walk(&store, &mut rng, n));
    }
    let missing: Vec<_> = CLICKS.iter().filter(|c| !seen.contains(c)).collect();
    assert!(missing.is_empty(), "click kinds never taken: {missing:?}");
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
