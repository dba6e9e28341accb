//! The running-example products KG (Fig 1.2 / Fig 5.3).

use rdfa_prng::StdRng;
use rdfa_model::{Graph, Literal, Term, vocab::xsd};

/// The example namespace used throughout the paper (Fig 1.3).
pub const EX: &str = "http://www.ics.forth.gr/example#";

fn iri(local: &str) -> Term {
    Term::iri(format!("{EX}{local}"))
}

/// The deterministic small instance of Fig 5.3: three laptops, drives,
/// companies, countries and continents — the dataset every UI figure of
/// Chapter 5 is drawn from.
pub fn products_fixture() -> Graph {
    let ttl = format!(
        r#"
        @prefix ex: <{EX}> .
        @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
        @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .

        # schema (Fig 1.2)
        ex:Laptop rdfs:subClassOf ex:Product .
        ex:HDType rdfs:subClassOf ex:Product .
        ex:SSD rdfs:subClassOf ex:HDType .
        ex:NVMe rdfs:subClassOf ex:HDType .
        ex:Country rdfs:subClassOf ex:Location .
        ex:Continent rdfs:subClassOf ex:Location .
        ex:manufacturer rdfs:domain ex:Product ; rdfs:range ex:Company .

        # laptops (Fig 5.3)
        ex:laptop1 a ex:Laptop ; ex:manufacturer ex:DELL ;
            ex:releaseDate "2021-06-10"^^xsd:date ; ex:USBPorts 2 ;
            ex:hardDrive ex:SSD1 ; ex:price 900 .
        ex:laptop2 a ex:Laptop ; ex:manufacturer ex:DELL ;
            ex:releaseDate "2021-09-03"^^xsd:date ; ex:USBPorts 2 ;
            ex:hardDrive ex:SSD2 ; ex:price 1000 .
        ex:laptop3 a ex:Laptop ; ex:manufacturer ex:Lenovo ;
            ex:releaseDate "2021-10-10"^^xsd:date ; ex:USBPorts 4 ;
            ex:hardDrive ex:NVMe1 ; ex:price 820 .

        # drives
        ex:SSD1 a ex:SSD ; ex:manufacturer ex:Maxtor .
        ex:SSD2 a ex:SSD ; ex:manufacturer ex:AVDElectronics .
        ex:NVMe1 a ex:NVMe ; ex:manufacturer ex:Maxtor .

        # companies
        ex:DELL a ex:Company ; ex:origin ex:USA ; ex:founder ex:MichaelDell .
        ex:Lenovo a ex:Company ; ex:origin ex:China ; ex:founder ex:LiuChuanzhi .
        ex:Maxtor a ex:Company ; ex:origin ex:Singapore .
        ex:AVDElectronics a ex:Company ; ex:origin ex:USA .

        # persons
        ex:MichaelDell a ex:Person ; ex:birthplace ex:USA .
        ex:LiuChuanzhi a ex:Person ; ex:birthplace ex:China .

        # locations
        ex:USA a ex:Country ; ex:locatedAt ex:NorthAmerica ; ex:GDPPerCapita 76399 .
        ex:China a ex:Country ; ex:locatedAt ex:Asia ; ex:GDPPerCapita 12720 .
        ex:Singapore a ex:Country ; ex:locatedAt ex:Asia ; ex:GDPPerCapita 82808 .
        ex:NorthAmerica a ex:Continent .
        ex:Asia a ex:Continent .
        "#
    );
    rdfa_model::turtle::parse(&ttl).expect("fixture parses")
}

/// Scalable generator for the products KG: `n_products` laptops with
/// manufacturers, drives, origins, prices, ports and dates — roughly nine
/// triples per product plus a fixed company/location backbone. Deterministic
/// for a given seed.
#[derive(Debug, Clone)]
pub struct ProductsGenerator {
    pub n_products: usize,
    pub n_companies: usize,
    pub seed: u64,
}

impl ProductsGenerator {
    /// A generator with sensible defaults (companies scale with products).
    pub fn new(n_products: usize, seed: u64) -> Self {
        ProductsGenerator {
            n_products,
            n_companies: (n_products / 50).clamp(4, 200),
            seed,
        }
    }

    /// Total triples this configuration will emit (schema + backbone +
    /// per-product), useful for sizing experiments.
    pub fn approx_triples(&self) -> usize {
        20 + self.n_companies * 3 + self.n_products * 9
    }

    /// Generate the graph.
    pub fn generate(&self) -> Graph {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut g = Graph::new();
        let rdf_type = Term::iri(rdfa_model::vocab::rdf::TYPE);
        let subclass = Term::iri(rdfa_model::vocab::rdfs::SUB_CLASS_OF);

        // schema
        for (sub, sup) in [
            ("Laptop", "Product"),
            ("HDType", "Product"),
            ("SSD", "HDType"),
            ("NVMe", "HDType"),
            ("Country", "Location"),
            ("Continent", "Location"),
        ] {
            g.add(iri(sub), subclass.clone(), iri(sup));
        }

        // location backbone
        let continents = ["Asia", "Europe", "NorthAmerica"];
        let countries = [
            ("USA", "NorthAmerica", 76399),
            ("China", "Asia", 12720),
            ("Taiwan", "Asia", 32679),
            ("Germany", "Europe", 48432),
            ("Japan", "Asia", 33815),
            ("SouthKorea", "Asia", 32423),
        ];
        for c in continents {
            g.add(iri(c), rdf_type.clone(), iri("Continent"));
        }
        for (c, cont, gdp) in countries {
            g.add(iri(c), rdf_type.clone(), iri("Country"));
            g.add(iri(c), iri("locatedAt"), iri(cont));
            g.add(iri(c), iri("GDPPerCapita"), Term::integer(gdp));
        }

        // companies
        for i in 0..self.n_companies {
            let name = format!("Company{i}");
            let (country, _, _) = countries[rng.gen_range(0..countries.len())];
            g.add(iri(&name), rdf_type.clone(), iri("Company"));
            g.add(iri(&name), iri("origin"), iri(country));
            let founder = format!("Founder{i}");
            g.add(iri(&name), iri("founder"), iri(&founder));
            g.add(iri(&founder), rdf_type.clone(), iri("Person"));
        }

        // products
        for i in 0..self.n_products {
            let p = format!("laptop{i}");
            let company = format!("Company{}", rng.gen_range(0..self.n_companies));
            let drive = format!("drive{i}");
            let drive_class = if rng.gen_bool(0.6) { "SSD" } else { "NVMe" };
            let drive_maker = format!("Company{}", rng.gen_range(0..self.n_companies));
            let year = rng.gen_range(2018..=2023);
            let month = rng.gen_range(1..=12u8);
            let day = rng.gen_range(1..=28u8);
            g.add(iri(&p), rdf_type.clone(), iri("Laptop"));
            g.add(iri(&p), iri("manufacturer"), iri(&company));
            g.add(iri(&p), iri("price"), Term::integer(rng.gen_range(300..3000)));
            g.add(iri(&p), iri("USBPorts"), Term::integer(rng.gen_range(1..5)));
            g.add(
                iri(&p),
                iri("releaseDate"),
                Term::Literal(Literal::typed(
                    format!("{year:04}-{month:02}-{day:02}"),
                    xsd::DATE,
                )),
            );
            g.add(iri(&p), iri("hardDrive"), iri(&drive));
            g.add(iri(&drive), rdf_type.clone(), iri(drive_class));
            g.add(iri(&drive), iri("manufacturer"), iri(&drive_maker));
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
    use rdfa_store::Store;

    #[test]
    fn fixture_matches_fig_5_3_counts() {
        let mut store = Store::new();
        store.load_graph(&products_fixture());
        let laptop = store.lookup_iri(&format!("{EX}Laptop")).unwrap();
        assert_eq!(store.instances_set(laptop).len(), 3);
        let product = store.lookup_iri(&format!("{EX}Product")).unwrap();
        assert_eq!(store.instances_set(product).len(), 6); // 3 laptops + 3 drives
        let company = store.lookup_iri(&format!("{EX}Company")).unwrap();
        assert_eq!(store.instances_set(company).len(), 4);
    }

    #[test]
    fn generator_is_deterministic() {
        let a = ProductsGenerator::new(50, 7).generate();
        let b = ProductsGenerator::new(50, 7).generate();
        assert_eq!(a, b);
        let c = ProductsGenerator::new(50, 8).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn generator_scales() {
        let gen = ProductsGenerator::new(200, 1);
        let g = gen.generate();
        assert!(g.len() >= 200 * 8);
        assert!(g.len() <= gen.approx_triples() + 50);
        let mut store = Store::new();
        store.load_graph(&g);
        let laptop = store.lookup_iri(&format!("{EX}Laptop")).unwrap();
        assert_eq!(store.instances_set(laptop).len(), 200);
    }

    #[test]
    fn generated_data_answers_fig_1_3_query() {
        let mut store = Store::new();
        store.load_graph(&ProductsGenerator::new(300, 42).generate());
        let q = format!(
            r#"PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
               PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
               PREFIX ex: <{EX}>
               SELECT ?m (AVG(?p) as ?avgprice)
               WHERE {{
                 ?s rdf:type ex:Laptop.
                 ?s ex:manufacturer ?m.
                 ?m ex:origin ex:USA.
                 ?s ex:price ?p.
                 ?s ex:USBPorts ?u.
                 ?s ex:hardDrive ?hd.
                 ?hd rdf:type ex:SSD.
                 FILTER (?u >= 2).
               }} GROUP BY ?m"#
        );
        let results = rdfa_sparql::Engine::builder(&store).build().run(&q).unwrap();
        assert!(!results.solutions().unwrap().is_empty());
    }
}
