//! A COVID-19 statistics KG — the dataset of the dissertation's 3D
//! visualizer (system (1a): "visualizes the progress of COVID-19 virus over
//! time by country"). One observation resource per country per day with
//! new-case, recovery and death counts, plus country metadata (population,
//! continent), so both time-series analytics (group by month) and
//! per-capita queries (the "top countries with daily new covid19 cases per
//! 1 million of population" example of §3.2.3) are expressible.

use crate::products::EX;
use rdfa_prng::StdRng;
use rdfa_model::{Graph, Literal, Term, vocab::xsd};

fn iri(local: &str) -> Term {
    Term::iri(format!("{EX}{local}"))
}

/// Generator for the COVID observations KG.
#[derive(Debug, Clone)]
pub struct CovidGenerator {
    pub n_days: usize,
    pub year: i32,
    pub seed: u64,
}

/// The fixed country backbone: (name, population, continent).
pub const COUNTRIES: [(&str, i64, &str); 6] = [
    ("Greece", 10_432_481, "Europe"),
    ("Italy", 58_870_762, "Europe"),
    ("Germany", 84_270_625, "Europe"),
    ("Japan", 125_124_989, "Asia"),
    ("SouthKorea", 51_744_876, "Asia"),
    ("USA", 331_893_745, "NorthAmerica"),
];

impl CovidGenerator {
    /// A generator over `n_days` days starting at Jan 1 of `year`.
    pub fn new(n_days: usize, seed: u64) -> Self {
        CovidGenerator { n_days: n_days.min(336), year: 2021, seed }
    }

    /// Generate the observations graph: per (country, day), an observation
    /// with `ofCountry`, `onDate`, `newCases`, `recoveries`, `deaths`.
    /// Case curves follow a noisy wave so months differ meaningfully.
    pub fn generate(&self) -> Graph {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut g = Graph::new();
        let rdf_type = Term::iri(rdfa_model::vocab::rdf::TYPE);
        for (name, pop, continent) in COUNTRIES {
            g.add(iri(name), rdf_type.clone(), iri("Country"));
            g.add(iri(name), iri("population"), Term::integer(pop));
            g.add(iri(name), iri("locatedAt"), iri(continent));
            g.add(iri(continent), rdf_type.clone(), iri("Continent"));
        }
        for (ci, (name, pop, _)) in COUNTRIES.iter().enumerate() {
            // per-country base rate ∝ population, with a country phase shift
            let base = (*pop as f64 / 1_000_000.0) * 8.0;
            let phase = ci as f64 * 0.9;
            for day in 0..self.n_days {
                let (m, d) = month_day(day);
                let wave = 1.0 + 0.8 * ((day as f64 / 45.0) + phase).sin();
                let noise: f64 = rng.gen_range(0.7..1.3);
                let cases = (base * wave * noise).max(0.0) as i64;
                let recoveries = (cases as f64 * rng.gen_range(0.80..0.95)) as i64;
                let deaths = (cases as f64 * rng.gen_range(0.005..0.02)) as i64;
                let obs = format!("obs_{name}_{day}");
                g.add(iri(&obs), rdf_type.clone(), iri("Observation"));
                g.add(iri(&obs), iri("ofCountry"), iri(name));
                g.add(
                    iri(&obs),
                    iri("onDate"),
                    Term::Literal(Literal::typed(
                        format!("{:04}-{m:02}-{d:02}", self.year),
                        xsd::DATE,
                    )),
                );
                g.add(iri(&obs), iri("newCases"), Term::integer(cases));
                g.add(iri(&obs), iri("recoveries"), Term::integer(recoveries));
                g.add(iri(&obs), iri("deaths"), Term::integer(deaths));
            }
        }
        g
    }
}

/// Map a day offset (0-based, ≤ 335) to (month, day) using 28-day months —
/// every produced date is valid in every month (February included) and all
/// months are equally populated.
fn month_day(day: usize) -> (u8, u8) {
    (((day / 28 + 1).min(12)) as u8, (day % 28 + 1) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfa_store::Store;

    #[test]
    fn generates_observations_per_country_per_day() {
        let mut store = Store::new();
        store.load_graph(&CovidGenerator::new(60, 3).generate());
        let obs = store.lookup_iri(&format!("{EX}Observation")).unwrap();
        assert_eq!(store.instances_set(obs).len(), 60 * COUNTRIES.len());
        let country = store.lookup_iri(&format!("{EX}Country")).unwrap();
        assert_eq!(store.instances_set(country).len(), COUNTRIES.len());
    }

    #[test]
    fn per_million_query_of_section_3_2_3() {
        // "top countries with daily new covid19 cases per 1 million of population"
        let mut store = Store::new();
        store.load_graph(&CovidGenerator::new(30, 5).generate());
        let q = format!(
            r#"PREFIX ex: <{EX}>
               SELECT ?c ((SUM(?n) / (MAX(?pop) / 1000000)) AS ?perM)
               WHERE {{
                 ?o ex:ofCountry ?c ; ex:newCases ?n .
                 ?c ex:population ?pop .
               }} GROUP BY ?c ORDER BY DESC(?perM)"#
        );
        let sols = rdfa_sparql::Engine::builder(&store).build()
            .run(&q)
            .unwrap()
            .into_solutions()
            .unwrap();
        assert_eq!(sols.len(), COUNTRIES.len());
        // descending order holds
        let vals: Vec<f64> = sols
            .rows()
            .iter()
            .map(|r| {
                rdfa_model::Value::from_term(r[1].as_ref().unwrap())
                    .as_f64()
                    .unwrap()
            })
            .collect();
        assert!(vals.windows(2).all(|w| w[0] >= w[1]), "{vals:?}");
    }

    #[test]
    fn functional_attributes_hold() {
        let mut store = Store::new();
        store.load_graph(&CovidGenerator::new(20, 1).generate());
        for p in ["ofCountry", "onDate", "newCases", "recoveries", "deaths"] {
            let id = store.lookup_iri(&format!("{EX}{p}")).unwrap();
            assert!(store.is_effectively_functional(id), "{p}");
        }
    }

    #[test]
    fn month_day_always_yields_valid_dates() {
        for day in 0..336 {
            let (m, d) = month_day(day);
            assert!(
                rdfa_model::Date::new(2021, m, d).is_some(),
                "invalid date 2021-{m:02}-{d:02} at offset {day}"
            );
        }
    }
}
