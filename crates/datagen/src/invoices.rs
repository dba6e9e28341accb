//! The HIFUN running-example dataset (Fig 2.7): delivery invoices with a
//! date, a branch, a product type, and a quantity.

use crate::products::EX;
use rdfa_prng::StdRng;
use rdfa_model::{Graph, Literal, Term, vocab::xsd};

fn iri(local: &str) -> Term {
    Term::iri(format!("{EX}{local}"))
}

/// Generator for the invoices dataset. All four attributes are functional
/// by construction, so HIFUN applies directly (§4.1.1).
#[derive(Debug, Clone)]
pub struct InvoicesGenerator {
    pub n_invoices: usize,
    pub n_branches: usize,
    pub n_products: usize,
    pub year: i32,
    pub seed: u64,
}

impl InvoicesGenerator {
    /// Defaults mirroring the paper's Walmart-style example.
    pub fn new(n_invoices: usize, seed: u64) -> Self {
        InvoicesGenerator {
            n_invoices,
            n_branches: 5,
            n_products: 8,
            year: 2021,
            seed,
        }
    }

    /// Generate the graph: one invoice resource per row with `hasDate`,
    /// `takesPlaceAt`, `delivers`, `inQuantity`, plus product → brand edges.
    pub fn generate(&self) -> Graph {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut g = Graph::new();
        let rdf_type = Term::iri(rdfa_model::vocab::rdf::TYPE);
        let brands = ["CocaCola", "Pepsi", "Nestle", "Unilever"];
        for b in 0..self.n_branches {
            g.add(iri(&format!("branch{b}")), rdf_type.clone(), iri("Branch"));
        }
        for p in 0..self.n_products {
            let name = format!("product{p}");
            g.add(iri(&name), rdf_type.clone(), iri("ProductType"));
            g.add(iri(&name), iri("brand"), iri(brands[p % brands.len()]));
        }
        for i in 0..self.n_invoices {
            let inv = format!("invoice{i}");
            let month = rng.gen_range(1..=12u8);
            let day = rng.gen_range(1..=28u8);
            g.add(iri(&inv), rdf_type.clone(), iri("Invoice"));
            g.add(
                iri(&inv),
                iri("hasDate"),
                Term::Literal(Literal::typed(
                    format!("{:04}-{month:02}-{day:02}", self.year),
                    xsd::DATE,
                )),
            );
            g.add(
                iri(&inv),
                iri("takesPlaceAt"),
                iri(&format!("branch{}", rng.gen_range(0..self.n_branches))),
            );
            g.add(
                iri(&inv),
                iri("delivers"),
                iri(&format!("product{}", rng.gen_range(0..self.n_products))),
            );
            g.add(iri(&inv), iri("inQuantity"), Term::integer(rng.gen_range(1..500)));
        }
        g
    }

    /// Generate and load straight into a store
    /// (`store.load_graph(&gen.generate())`), returning what the load did.
    pub fn generate_into(&self, store: &mut rdfa_store::Store) -> rdfa_store::LoadStats {
        store.load_graph(&self.generate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfa_hifun::{AggOp, AttrPath, HifunQuery};
    use rdfa_store::Store;

    #[test]
    fn generates_functional_attributes() {
        let mut store = Store::new();
        store.load_graph(&InvoicesGenerator::new(100, 3).generate());
        for p in ["hasDate", "takesPlaceAt", "delivers", "inQuantity"] {
            let id = store.lookup_iri(&format!("{EX}{p}")).unwrap();
            assert!(store.is_effectively_functional(id), "{p} must be functional");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            InvoicesGenerator::new(30, 5).generate(),
            InvoicesGenerator::new(30, 5).generate()
        );
    }

    #[test]
    fn total_quantities_by_branch_are_consistent() {
        let mut store = Store::new();
        store.load_graph(&InvoicesGenerator::new(200, 11).generate());
        let q = HifunQuery::new(AggOp::Sum)
            .group_by(AttrPath::prop(format!("{EX}takesPlaceAt")))
            .measure(AttrPath::prop(format!("{EX}inQuantity")));
        let direct = rdfa_hifun::direct::evaluate(&store, &q).unwrap();
        assert_eq!(direct.len(), 5);
        // cross-check against the SPARQL translation
        let sparql = rdfa_hifun::translate::to_sparql(&q);
        let translated = rdfa_sparql::Engine::builder(&store).build()
            .run(&sparql)
            .unwrap()
            .into_solutions()
            .unwrap();
        assert_eq!(translated.len(), 5);
    }
}
