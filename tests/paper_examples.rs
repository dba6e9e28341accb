//! End-to-end reproductions of the paper's worked examples over the
//! Fig 5.3 fixture: the four §5.1 examples, the Fig 1.3 flagship query,
//! and the Fig 6.3 reload flow.

use rdf_analytics::analytics::{AnalyticsSession, GroupSpec, MeasureSpec};
use rdf_analytics::datagen::{products_fixture, EX};
use rdf_analytics::facets::PathStep;
use rdf_analytics::hifun::{direct, AggOp, CondOp, DerivedFn};
use rdf_analytics::model::{Term, Value};
use rdf_analytics::sparql::Engine;
use rdf_analytics::store::Store;

fn fixture() -> Store {
    let mut store = Store::new();
    store.load_graph(&products_fixture());
    store
}

fn id(store: &Store, local: &str) -> rdf_analytics::store::TermId {
    store.lookup_iri(&format!("{EX}{local}")).unwrap()
}

fn cell_value(frame: &rdf_analytics::analytics::AnswerFrame, row: usize, col: usize) -> Value {
    Value::from_term(frame.rows[row][col].as_ref().unwrap())
}

/// §5.1 Example 1: average price of laptops made in 2021 from US companies
/// with 2 USB ports (no SSD condition: all fixture laptops qualify anyway).
#[test]
fn example_1_avg_without_grouping() {
    let store = fixture();
    let mut s = AnalyticsSession::start(&store);
    s.select_class(id(&store, "Laptop")).unwrap();
    s.select_path_value(
        &[PathStep::fwd(id(&store, "manufacturer")), PathStep::fwd(id(&store, "origin"))],
        id(&store, "USA"),
    )
    .unwrap();
    s.select_value(id(&store, "USBPorts"), store.lookup(&Term::integer(2)).unwrap())
        .unwrap();
    s.set_measure(MeasureSpec::property(id(&store, "price")));
    s.set_ops(vec![AggOp::Avg]);
    let frame = s.run().unwrap();
    assert_eq!(frame.rows.len(), 1);
    // laptop1 (900) and laptop2 (1000) are the US laptops with 2 ports
    assert!(cell_value(&frame, 0, 0).value_eq(&Value::Float(950.0)));
}

/// §5.1 Example 2: count of laptops with 2 USB ports grouped by
/// manufacturer's country.
#[test]
fn example_2_count_by_country() {
    let store = fixture();
    let mut s = AnalyticsSession::start(&store);
    s.select_class(id(&store, "Laptop")).unwrap();
    s.select_value(id(&store, "USBPorts"), store.lookup(&Term::integer(2)).unwrap())
        .unwrap();
    s.add_grouping(GroupSpec::path(vec![id(&store, "manufacturer"), id(&store, "origin")]));
    s.set_ops(vec![AggOp::Count]);
    let frame = s.run().unwrap();
    assert_eq!(frame.rows.len(), 1); // both 2-port laptops are DELL → USA
    assert_eq!(frame.rows[0][0].as_ref().unwrap().display_name(), "USA");
    assert!(cell_value(&frame, 0, 1).value_eq(&Value::Int(2)));
}

/// §5.1 Example 3: count of laptops with 2-or-more USB ports by country —
/// the range filter.
#[test]
fn example_3_range_filter() {
    let store = fixture();
    let mut s = AnalyticsSession::start(&store);
    s.select_class(id(&store, "Laptop")).unwrap();
    s.select_range(&[PathStep::fwd(id(&store, "USBPorts"))], Some(Value::Int(2)), None)
        .unwrap();
    s.add_grouping(GroupSpec::path(vec![id(&store, "manufacturer"), id(&store, "origin")]));
    s.set_ops(vec![AggOp::Count]);
    let frame = s.run().unwrap();
    assert_eq!(frame.rows.len(), 2); // USA (2), China (1)
}

/// §5.1 Example 4: avg price by company and year, HAVING avg ≥ t — via the
/// Answer-Frame reload (the paper's mechanism) and cross-checked against
/// the direct HAVING form.
#[test]
fn example_4_having_via_reload() {
    let store = fixture();
    let mut s = AnalyticsSession::start(&store);
    s.select_class(id(&store, "Laptop")).unwrap();
    s.add_grouping(GroupSpec::property(id(&store, "manufacturer")));
    s.add_grouping(GroupSpec::property(id(&store, "releaseDate")).with_derived(DerivedFn::Year));
    s.set_measure(MeasureSpec::property(id(&store, "price")));
    s.set_ops(vec![AggOp::Avg]);
    let level1 = s.run().unwrap();
    assert_eq!(level1.rows.len(), 2); // (DELL, 2021): 950, (Lenovo, 2021): 820

    // reload and restrict avg ≥ 900
    let derived = level1.load_as_dataset();
    let mut nested = AnalyticsSession::start(&derived);
    nested
        .select_class(derived.lookup_iri("urn:rdfa:af:Row").unwrap())
        .unwrap();
    let avg_prop = derived.lookup_iri(&level1.column_property(2)).unwrap();
    nested
        .select_range(&[PathStep::fwd(avg_prop)], Some(Value::Float(900.0)), None)
        .unwrap();
    assert_eq!(nested.facets().extension().len(), 1);

    // direct HAVING form agrees
    let mut direct = AnalyticsSession::start(&store);
    direct.select_class(id(&store, "Laptop")).unwrap();
    direct.add_grouping(GroupSpec::property(id(&store, "manufacturer")));
    direct
        .add_grouping(GroupSpec::property(id(&store, "releaseDate")).with_derived(DerivedFn::Year));
    direct.set_measure(MeasureSpec::property(id(&store, "price")));
    direct.set_ops(vec![AggOp::Avg]);
    direct.add_having(0, CondOp::Ge, Term::integer(900)).unwrap();
    assert_eq!(direct.run().unwrap().rows.len(), 1);
}

/// Fig 1.3: the flagship SPARQL query runs verbatim against the fixture.
#[test]
fn fig_1_3_flagship_query_runs_verbatim() {
    let store = fixture();
    let q = r#"
        PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
        PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
        PREFIX ex: <http://www.ics.forth.gr/example#>
        SELECT ?m (AVG(?p) as ?avgprice)
        WHERE {
          ?s rdf:type ex:Laptop.
          ?s ex:manufacturer ?m.
          ?m ex:origin ex:USA.
          ?s ex:price ?p.
          ?s ex:USBPorts ?u.
          ?s ex:hardDrive ?hd.
          ?hd rdf:type ex:SSD.
          ?hd ex:manufacturer ?hdm.
          ?hdm ex:origin ?hdmc.
          ?hdmc ex:locatedAt ex:Asia.
          FILTER (?u >= 2).
          ?s ex:releaseDate ?rd .
          FILTER ( ?rd >= "2021-01-01"^^xsd:date &&
                   ?rd <= "2021-12-31"^^xsd:date)
        } GROUP BY ?m"#;
    let results = Engine::builder(&store).build().run(q).unwrap();
    let sols = results.solutions().unwrap();
    // laptop1 (SSD1 by Maxtor/Singapore/Asia, DELL/USA, 2 ports, 2021) and
    // laptop2 (SSD2 by AVDElectronics/USA — not Asia) → only laptop1 counts
    assert_eq!(sols.len(), 1);
    assert_eq!(sols.rows()[0][0].as_ref().unwrap().display_name(), "DELL");
    assert!(Value::from_term(sols.rows()[0][1].as_ref().unwrap()).value_eq(&Value::Float(900.0)));
}

/// The same information need, formulated through the interaction model
/// instead of hand-written SPARQL — the paper's core claim.
#[test]
fn fig_1_3_via_interaction_model() {
    let store = fixture();
    let mut s = AnalyticsSession::start(&store);
    s.select_class(id(&store, "Laptop")).unwrap();
    s.select_path_value(
        &[PathStep::fwd(id(&store, "manufacturer")), PathStep::fwd(id(&store, "origin"))],
        id(&store, "USA"),
    )
    .unwrap();
    s.select_range(&[PathStep::fwd(id(&store, "USBPorts"))], Some(Value::Int(2)), None)
        .unwrap();
    // hard drive made in Asia: hardDrive ▷ manufacturer ▷ origin ▷ locatedAt
    s.select_path_value(
        &[
            PathStep::fwd(id(&store, "hardDrive")),
            PathStep::fwd(id(&store, "manufacturer")),
            PathStep::fwd(id(&store, "origin")),
            PathStep::fwd(id(&store, "locatedAt")),
        ],
        id(&store, "Asia"),
    )
    .unwrap();
    let date = |s: &str| Value::Date(rdf_analytics::model::Date::parse(s).unwrap());
    s.select_range(
        &[PathStep::fwd(id(&store, "releaseDate"))],
        Some(date("2021-01-01")),
        Some(date("2021-12-31")),
    )
    .unwrap();
    s.add_grouping(GroupSpec::property(id(&store, "manufacturer")));
    s.set_measure(MeasureSpec::property(id(&store, "price")));
    s.set_ops(vec![AggOp::Avg]);
    // the session's answer, and the direct HIFUN evaluation of its query
    let translated = s.run().unwrap().rows;
    let direct = direct::evaluate(&store, &s.hifun_query().unwrap()).unwrap().into_rows();
    for (how, rows) in [("translated", translated), ("direct", direct)] {
        assert_eq!(rows.len(), 1, "{how}");
        assert_eq!(rows[0][0].as_ref().unwrap().display_name(), "DELL", "{how}");
        assert!(Value::from_term(rows[0][1].as_ref().unwrap()).value_eq(&Value::Float(900.0)));
    }
}

/// Fig 6.2/6.3: multi-aggregate query, tabular answer, reload facets.
#[test]
fn fig_6_2_multi_aggregate_and_reload() {
    let store = fixture();
    let mut s = AnalyticsSession::start(&store);
    s.select_class(id(&store, "Laptop")).unwrap();
    s.select_range(
        &[PathStep::fwd(id(&store, "USBPorts"))],
        Some(Value::Int(2)),
        Some(Value::Int(4)),
    )
    .unwrap();
    s.add_grouping(GroupSpec::property(id(&store, "manufacturer")));
    s.add_grouping(GroupSpec::path(vec![id(&store, "manufacturer"), id(&store, "origin")]));
    s.set_measure(MeasureSpec::property(id(&store, "price")));
    s.set_ops(vec![AggOp::Avg, AggOp::Sum, AggOp::Max]);
    let frame = s.run().unwrap();
    assert_eq!(frame.headers.len(), 5);
    assert_eq!(frame.rows.len(), 2);
    let table = frame.to_table();
    assert!(table.contains("avg(price)"));
    assert!(table.contains("DELL"));

    let derived = frame.load_as_dataset();
    assert_eq!(
        derived.len(),
        frame.rows.len() * (frame.headers.len() + 1)
    );
}
