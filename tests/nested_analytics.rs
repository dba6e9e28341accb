//! The §5.3.3 claim, exercised in depth: answers reload as ordinary RDF
//! datasets, restrictions over them express HAVING, and the process nests
//! *without limit*. Plus a property test that a session's answer agrees with
//! direct HIFUN evaluation of its query on generated data across random
//! click sequences.

use rdf_analytics::analytics::{AnalyticsSession, GroupSpec, MeasureSpec};
use rdf_analytics::datagen::{ProductsGenerator, EX};
use rdf_analytics::facets::PathStep;
use rdf_analytics::hifun::{direct, AggOp, DerivedFn};
use rdf_analytics::model::{Term, Value};
use rdf_analytics::store::Store;
use rdfa_prng::StdRng;

fn build(n: usize, seed: u64) -> Store {
    let mut s = Store::new();
    s.load_graph(&ProductsGenerator::new(n, seed).generate());
    s
}

fn id(s: &Store, local: &str) -> rdf_analytics::store::TermId {
    s.lookup_iri(&format!("{EX}{local}")).unwrap()
}

/// Three levels of nesting:
/// L1: avg price by (company, year)          over the products KG
/// L2: count of expensive (company, year) groups by company   over reload(L1)
/// L3: count of companies by that count                       over reload(L2)
#[test]
fn three_level_nesting() {
    let store = build(400, 5);
    let mut l1 = AnalyticsSession::start(&store);
    l1.select_class(id(&store, "Laptop")).unwrap();
    l1.add_grouping(GroupSpec::property(id(&store, "manufacturer")));
    l1.add_grouping(GroupSpec::property(id(&store, "releaseDate")).with_derived(DerivedFn::Year));
    l1.set_measure(MeasureSpec::property(id(&store, "price")));
    l1.set_ops(vec![AggOp::Avg]);
    let a1 = l1.run().unwrap();
    assert!(a1.len() > 4);

    // level 2 over the reloaded answer, with a HAVING via range filter
    let d1 = a1.load_as_dataset();
    let mut l2 = AnalyticsSession::start(&d1);
    l2.select_class(d1.lookup_iri("urn:rdfa:af:Row").unwrap()).unwrap();
    let avg_prop = d1.lookup_iri(&a1.column_property(2)).unwrap();
    l2.select_range(&[PathStep::fwd(avg_prop)], Some(Value::Float(1500.0)), None)
        .unwrap();
    let expensive_groups = l2.facets().extension().len();
    assert!(expensive_groups > 0 && expensive_groups < a1.len());
    let company_prop = d1.lookup_iri(&a1.column_property(0)).unwrap();
    l2.add_grouping(GroupSpec::property(company_prop));
    l2.set_ops(vec![AggOp::Count]);
    let a2 = l2.run().unwrap();
    // per-company counts sum to the number of surviving groups
    let total: i64 = a2
        .rows
        .iter()
        .map(|r| {
            Value::from_term(r[1].as_ref().unwrap())
                .as_f64()
                .unwrap() as i64
        })
        .sum();
    assert_eq!(total as usize, expensive_groups);

    // level 3 over the reload of level 2
    let d2 = a2.load_as_dataset();
    let mut l3 = AnalyticsSession::start(&d2);
    l3.select_class(d2.lookup_iri("urn:rdfa:af:Row").unwrap()).unwrap();
    let count_prop = d2.lookup_iri(&a2.column_property(1)).unwrap();
    l3.add_grouping(GroupSpec::property(count_prop));
    l3.set_ops(vec![AggOp::Count]);
    let a3 = l3.run().unwrap();
    // the histogram's counts sum to the number of companies at level 2
    let companies: i64 = a3
        .rows
        .iter()
        .map(|r| {
            Value::from_term(r[1].as_ref().unwrap())
                .as_f64()
                .unwrap() as i64
        })
        .sum();
    assert_eq!(companies as usize, a2.len());
}

/// Reload invariants: shape, property naming, and facet completeness.
#[test]
fn reload_shape_invariants() {
    let store = build(150, 9);
    let mut s = AnalyticsSession::start(&store);
    s.select_class(id(&store, "Laptop")).unwrap();
    s.add_grouping(GroupSpec::property(id(&store, "manufacturer")));
    s.set_measure(MeasureSpec::property(id(&store, "price")));
    s.set_ops(vec![AggOp::Min, AggOp::Max]);
    let frame = s.run().unwrap();
    let derived = frame.load_as_dataset();
    // n rows × (k columns + type triple)
    assert_eq!(derived.len(), frame.len() * (frame.headers.len() + 1));
    // one facet per column over the Row class
    let rows = derived.instances_set(derived.lookup_iri("urn:rdfa:af:Row").unwrap());
    assert_eq!(rows.len(), frame.len());
    let facets = rdf_analytics::facets::property_facets(&derived, &rows);
    assert_eq!(facets.len(), frame.headers.len());
}

/// The strategy-equivalence property over random interaction sequences on
/// generated (functional) data — the system-level counterpart of the
/// translation-soundness test.
#[derive(Debug, Clone)]
struct Clicks {
    usb_min: Option<i64>,
    group_origin_path: bool,
    group_year: bool,
    measure_price: bool,
    op: u8,
}

fn rand_clicks(rng: &mut StdRng) -> Clicks {
    Clicks {
        usb_min: rng.gen_bool(0.5).then(|| rng.gen_range(1i64..5)),
        group_origin_path: rng.gen_bool(0.5),
        group_year: rng.gen_bool(0.5),
        measure_price: rng.gen_bool(0.5),
        op: rng.gen_range(0u8..5),
    }
}

/// Rows as sorted lists of numeric values or display names.
fn canonical(rows: &[Vec<Option<Term>>]) -> Vec<Vec<String>> {
    let mut rows: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|cell| match cell {
                    None => "∅".into(),
                    Some(t) => match Value::from_term(t).as_f64() {
                        Some(f) => format!("{f:.6}"),
                        None => t.display_name(),
                    },
                })
                .collect()
        })
        .collect();
    rows.sort();
    rows
}

/// Replay the clicks; return the session's answer and the direct HIFUN
/// evaluation of its query (each `None` when it fails).
type Answers = (Option<Vec<Vec<String>>>, Option<Vec<Vec<String>>>);

fn drive(store: &Store, c: &Clicks) -> Option<Answers> {
    let mut s = AnalyticsSession::start(store);
    s.select_class(id(store, "Laptop")).ok()?;
    if let Some(m) = c.usb_min {
        s.select_range(&[PathStep::fwd(id(store, "USBPorts"))], Some(Value::Int(m)), None)
            .ok()?;
    }
    if c.group_origin_path {
        s.add_grouping(GroupSpec::path(vec![id(store, "manufacturer"), id(store, "origin")]));
    }
    if c.group_year {
        s.add_grouping(
            GroupSpec::property(id(store, "releaseDate")).with_derived(DerivedFn::Year),
        );
    }
    let op = [AggOp::Count, AggOp::Sum, AggOp::Avg, AggOp::Min, AggOp::Max][c.op as usize];
    if c.measure_price || op != AggOp::Count {
        s.set_measure(MeasureSpec::property(id(store, "price")));
    }
    s.set_ops(vec![op]);
    let translated = s.run().ok().map(|frame| canonical(&frame.rows));
    let direct = s
        .hifun_query()
        .ok()
        .and_then(|q| direct::evaluate(store, &q).ok())
        .map(|sols| canonical(&sols.into_rows()));
    Some((translated, direct))
}

#[test]
fn strategies_agree_on_random_sessions() {
    for case in 0u64..24 {
        let mut rng = StdRng::seed_from_u64(case);
        let seed = rng.gen_range(0u64..500);
        let c = rand_clicks(&mut rng);
        let store = build(80, seed);
        let (translated, direct) = drive(&store, &c).expect("the clicks apply");
        assert_eq!(translated, direct, "case {case} clicks: {c:?}");
    }
}
