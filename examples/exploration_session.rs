//! Experiment E6 — plain faceted exploration on the Fig 5.3 data,
//! reproducing the transition-marker listings of Fig 5.4 and the
//! path-expansion markers of Fig 5.5.
//!
//! Run with `cargo run --example exploration_session`.

use rdf_analytics::datagen::{products_fixture, EX};
use rdf_analytics::facets::{
    markers::{render_class_markers, render_property_facets},
    FacetedSession, PathStep,
};
use rdf_analytics::store::Store;

fn main() {
    let mut store = Store::new();
    store.load_graph(&products_fixture());
    let id = |local: &str| store.lookup_iri(&format!("{EX}{local}")).unwrap();

    let mut session = FacetedSession::start(&store);

    // Fig 5.4 (a)/(b): class-based transition markers
    println!("— class-based transition markers (Fig 5.4 a/b) —");
    println!("{}", render_class_markers(&store, &session.class_markers(), 0));

    // click Laptop
    session.select_class(id("Laptop")).unwrap();
    println!("clicked class Laptop → {} resources in focus\n", session.extension().len());

    // Fig 5.4 (c): property-based markers with counts
    println!("— property-based transition markers (Fig 5.4 c) —");
    println!("{}", render_property_facets(&store, &session.facets(), 0));

    // Fig 5.4 (d): value markers grouped by the values' classes
    let gv = rdf_analytics::facets::grouped_values(&store, session.extension(), id("hardDrive"));
    println!("— value grouping (Fig 5.4 d) —");
    println!(
        "{}",
        rdf_analytics::facets::markers::render_grouped_values(&store, id("hardDrive"), &gv)
    );

    // §5.3.1 Pr⁻¹: inverse facets switch the entity type
    let companies = [id("DELL"), id("Lenovo")].into_iter().collect();
    let inverse = rdf_analytics::facets::inverse_property_facets(&store, &companies);
    println!("— inverse facets over the companies (Pr⁻¹, §5.3.1) —");
    for f in &inverse {
        println!(
            "  ^{} ({} linking resources)",
            store.term(f.property).display_name(),
            f.values.len()
        );
    }
    println!();

    // Fig 5.5: expand manufacturer ▷ origin
    let path = [PathStep::fwd(id("manufacturer")), PathStep::fwd(id("origin"))];
    println!("— path expansion: by manufacturer ▷ by origin (Fig 5.5) —");
    for (v, n) in session.expand(&path) {
        println!("  {} ({n})", store.term(v).display_name());
    }

    // click USA at the end of the path (Eq. 5.1 back-propagation)
    session.select_path_value(&path, id("USA")).unwrap();
    println!("\nclicked USA → {} resources in focus:", session.extension().len());
    for t in session.state().resources(&store) {
        println!("  {}", t.display_name());
    }

    // the intention of the state, expressed in SPARQL (§5.5)
    println!("\nintention of the current state (§5.5):\n{}", session.intent_sparql());
    println!("breadcrumb: {}", session.intent());

    // back undoes the last click
    session.back();
    println!("after back: {} resources", session.extension().len());
}
