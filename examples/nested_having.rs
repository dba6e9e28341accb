//! Example 4 of §5.1 — HAVING via Answer-Frame reload, and nesting:
//! *"average price of laptops grouped by company and year, only for groups
//! whose average price is above a threshold t"*, then a second-level
//! analysis over the reloaded answer.
//!
//! Run with `cargo run --example nested_having`.

use rdf_analytics::analytics::{AnalyticsSession, GroupSpec, MeasureSpec};
use rdf_analytics::datagen::{ProductsGenerator, EX};
use rdf_analytics::facets::PathStep;
use rdf_analytics::hifun::{AggOp, DerivedFn};
use rdf_analytics::model::Value;
use rdf_analytics::store::Store;

fn main() {
    let mut store = Store::new();
    store.load_graph(&ProductsGenerator::new(300, 99).generate());
    let id = |local: &str| store.lookup_iri(&format!("{EX}{local}")).unwrap();

    // level 1: average price by company and release year
    let mut session = AnalyticsSession::start(&store);
    session.select_class(id("Laptop")).unwrap();
    session.add_grouping(GroupSpec::property(id("manufacturer")));
    session.add_grouping(GroupSpec::property(id("releaseDate")).with_derived(DerivedFn::Year));
    session.set_measure(MeasureSpec::property(id("price")));
    session.set_ops(vec![AggOp::Avg]);
    let level1 = session.run().unwrap();
    println!("level-1 answer: avg price by company × year — {} groups", level1.len());

    // the "Explore with FS" button: load the AF as a new dataset (Fig 5.2)
    let derived = level1.load_as_dataset();
    println!("reloaded as dataset: {} triples", derived.len());

    // restrict avg(price) ≥ t — this IS the HAVING clause (§5.3.3)
    let threshold = 1500.0;
    let mut nested = AnalyticsSession::start(&derived);
    let row_class = derived.lookup_iri("urn:rdfa:af:Row").unwrap();
    nested.select_class(row_class).unwrap();
    let avg_prop = derived.lookup_iri(&level1.column_property(2)).unwrap();
    nested
        .select_range(&[PathStep::fwd(avg_prop)], Some(Value::Float(threshold)), None)
        .unwrap();
    println!(
        "after HAVING avg(price) >= {threshold}: {} of {} groups remain",
        nested.facets().extension().len(),
        level1.len()
    );

    // level 2 (nested analytics): among the surviving groups, count groups
    // per company — an analytic query over an analytic answer
    let company_prop = derived.lookup_iri(&level1.column_property(0)).unwrap();
    nested.add_grouping(GroupSpec::property(company_prop));
    nested.set_ops(vec![AggOp::Count]);
    let level2 = nested.run().unwrap();
    println!("\nlevel-2 answer: expensive (company, year) groups per company:");
    println!("{}", level2.to_table());

    // sanity check against the direct HAVING form of the same query
    let mut direct = AnalyticsSession::start(&store);
    direct.select_class(id("Laptop")).unwrap();
    direct.add_grouping(GroupSpec::property(id("manufacturer")));
    direct.add_grouping(GroupSpec::property(id("releaseDate")).with_derived(DerivedFn::Year));
    direct.set_measure(MeasureSpec::property(id("price")));
    direct.set_ops(vec![AggOp::Avg]);
    direct.add_having(
        0,
        rdf_analytics::hifun::CondOp::Ge,
        rdf_analytics::model::Term::decimal(threshold),
    )
    .expect("aggregate 0 is selected");
    let survivors = direct.run().unwrap();
    println!(
        "cross-check — direct HAVING form returns {} groups (reload path kept {})",
        survivors.len(),
        nested.facets().extension().len()
    );
    assert_eq!(survivors.len(), nested.facets().extension().len());
}
