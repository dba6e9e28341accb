//! Quickstart: load the running-example products KG and formulate the first
//! two analytic queries of §5.1 through the interaction model.
//!
//! Run with `cargo run --example quickstart`.

use rdf_analytics::analytics::{AnalyticsSession, GroupSpec, MeasureSpec};
use rdf_analytics::datagen::{products_fixture, EX};
use rdf_analytics::hifun::AggOp;
use rdf_analytics::store::Store;

fn main() {
    // 1. load the KG of Fig 5.3
    let mut store = Store::new();
    store.load_graph(&products_fixture());
    println!("loaded {} triples ({} entailed)\n", store.len(), store.len_entailed());

    let id = |local: &str| store.lookup_iri(&format!("{EX}{local}")).unwrap();

    // 2. Example 1 (§5.1): average price of laptops with 2 USB ports
    let mut session = AnalyticsSession::start(&store);
    session.select_class(id("Laptop")).unwrap();
    session
        .select_value(id("USBPorts"), store.lookup(&rdf_analytics::model::Term::integer(2)).unwrap())
        .unwrap();
    session.set_measure(MeasureSpec::property(id("price")));
    session.set_ops(vec![AggOp::Avg]);

    let answer = session.run().unwrap();
    println!("Example 1 — {}", answer.hifun);
    println!("translated SPARQL:\n{}", answer.sparql);
    println!("{}", answer.to_table());

    // 3. Example 2 (§5.1): count of laptops grouped by manufacturer's country
    session.clear_analytics();
    session.add_grouping(GroupSpec::path(vec![id("manufacturer"), id("origin")]));
    session.set_ops(vec![AggOp::Count]);
    let answer = session.run().unwrap();
    println!("Example 2 — {}", answer.hifun);
    println!("{}", answer.to_table());

    // 4. the same grouped answer as a 2D chart
    let chart = rdf_analytics::viz::BarChart::new(
        "laptops by manufacturer country",
        vec!["count".into()],
        answer
            .rows
            .iter()
            .map(|row| rdf_analytics::viz::BarDatum {
                label: row[0].as_ref().map(|t| t.display_name()).unwrap_or_default(),
                values: vec![row[1]
                    .as_ref()
                    .and_then(|t| rdf_analytics::model::Value::from_term(t).as_f64())
                    .unwrap_or(0.0)],
            })
            .collect(),
    )
    .unwrap();
    println!("{}", chart.to_text(30));
}
