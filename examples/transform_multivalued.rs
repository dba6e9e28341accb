//! The transform (ƒ) button end to end (§4.2.6 and §5.1 "Special cases"):
//! a KG whose `founder` property is multi-valued violates HIFUN's
//! functionality assumption; the feature-creation operators of Table 4.1
//! derive functional features, after which analytics proceed normally.
//!
//! Run with `cargo run --example transform_multivalued`.

use rdf_analytics::analytics::{transform, AnalyticsSession, GroupSpec};
use rdf_analytics::hifun::{AggOp, Applicability};
use rdf_analytics::store::Store;

const EX: &str = "http://example.org/";

fn main() {
    let mut store = Store::new();
    store
        .load_turtle(&format!(
            r#"@prefix ex: <{EX}> .
               ex:Dell a ex:Company ; ex:founder ex:MichaelDell ; ex:sector ex:tech .
               ex:HP a ex:Company ; ex:founder ex:BillHewlett , ex:DavePackard ; ex:sector ex:tech .
               ex:Google a ex:Company ; ex:founder ex:LarryPage , ex:SergeyBrin ; ex:sector ex:tech .
               ex:Kodak a ex:Company ; ex:sector ex:imaging .
               ex:BillHewlett ex:nationality ex:US . ex:DavePackard ex:nationality ex:US .
               ex:LarryPage ex:nationality ex:US . ex:SergeyBrin ex:nationality ex:US .
               ex:MichaelDell ex:nationality ex:US .
            "#
        ))
        .unwrap();
    let id = |local: &str| store.lookup_iri(&format!("{EX}{local}")).unwrap();

    // 1. the applicability check (§4.1.1): founder is multi-valued
    let mut session = AnalyticsSession::start(&store);
    session.select_class(id("Company")).unwrap();
    match session.attribute_applicability(id("founder")) {
        Applicability::MultiValued { max_values } => {
            println!("founder is multi-valued (up to {max_values} values) — HIFUN needs a transform")
        }
        other => println!("unexpected: {other:?}"),
    }

    // 2. the ƒ menu suggests a repair; FCO3 (p.count) derives a functional
    //    feature
    let ext = session.facets().extension().clone();
    let suggestion = transform::suggest(&store, &ext, &format!("{EX}founder"));
    println!("suggested transform: {suggestion:?}");
    let transformed = transform::apply(&store, &ext, &suggestion.expect("a repair is suggested"));
    println!(
        "derived feature {:?} (+{} triples)",
        transformed.features, transformed.added
    );

    // 3. analytics over the derived feature: companies per founder count
    let derived_store = transformed.store;
    let feature = derived_store.lookup_iri(&transformed.features[0]).unwrap();
    let mut session2 = AnalyticsSession::start(&derived_store);
    session2
        .select_class(derived_store.lookup_iri(&format!("{EX}Company")).unwrap())
        .unwrap();
    session2.add_grouping(GroupSpec::property(feature));
    session2.set_ops(vec![AggOp::Count]);
    let frame = session2.run().unwrap();
    println!("\ncompanies by number of founders:");
    println!("{}", frame.to_table());

    // 4. FCO9 (path.maxFreq): the dominant founder nationality per company
    let t = transform::apply(
        &store,
        &ext,
        &transform::Transform::PathMaxFreq {
            p1: format!("{EX}founder"),
            p2: format!("{EX}nationality"),
        },
    );
    println!(
        "FCO9 derived {:?}: {} companies got a dominant-nationality feature",
        t.features, t.added
    );
}
