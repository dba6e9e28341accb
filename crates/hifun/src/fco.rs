//! Linked-Data-based Feature Creation Operators (FCO1–FCO9, Table 4.1).
//!
//! When RDF data violates HIFUN's functionality assumption — missing values
//! or multi-valued properties (§4.2.6) — these operators derive new
//! *functional* features as fresh triples, which can then be loaded
//! alongside (or instead of) the original data. Derived feature property
//! IRIs are the source property IRI with a suffix (`#p` → `#p_count` etc.).

use rdfa_model::{Graph, Term, Triple};
use rdfa_store::{ExtSet, Store, TermId};
use std::collections::{BTreeMap, BTreeSet};

/// Derived-feature IRI for a property and suffix.
pub fn feature_iri(property: &str, suffix: &str) -> String {
    format!("{property}_{suffix}")
}

fn term(store: &Store, id: TermId) -> Term {
    store.term(id).clone()
}

/// FCO1 — `p.value`: materialize the (first) value of `p` for every subject,
/// substituting `0` where the value is missing among `domain` items
/// (the "confirm functional" repair of §4.2.6).
pub fn fco1_value(store: &Store, property: &str, domain: &ExtSet) -> Graph {
    let mut g = Graph::new();
    let Some(p) = store.lookup_iri(property) else { return g };
    let feature = Term::iri(feature_iri(property, "value"));
    for s in domain {
        let mut vals = store.matching_explicit(Some(s), Some(p), None);
        match vals.next() {
            Some([_, _, o]) => g.add(term(store, s), feature.clone(), term(store, o)),
            None => g.add(term(store, s), feature.clone(), Term::integer(0)),
        }
    }
    g
}

/// FCO2 — `p.exists`: boolean feature, true iff the item has `p` in either
/// direction.
pub fn fco2_exists(store: &Store, property: &str, domain: &ExtSet) -> Graph {
    let mut g = Graph::new();
    let Some(p) = store.lookup_iri(property) else {
        for s in domain {
            g.add(term(store, s), Term::iri(feature_iri(property, "exists")), Term::boolean(false));
        }
        return g;
    };
    let feature = Term::iri(feature_iri(property, "exists"));
    for s in domain {
        let has = store.matching_explicit(Some(s), Some(p), None).next().is_some()
            || store.matching_explicit(None, Some(p), Some(s)).next().is_some();
        g.add(term(store, s), feature.clone(), Term::boolean(has));
    }
    g
}

/// FCO3 — `p.count`: integer feature counting the values of `p`.
pub fn fco3_count(store: &Store, property: &str, domain: &ExtSet) -> Graph {
    let mut g = Graph::new();
    let feature = Term::iri(feature_iri(property, "count"));
    let p = store.lookup_iri(property);
    for s in domain {
        let n = match p {
            Some(p) => store.matching_explicit(Some(s), Some(p), None).count(),
            None => 0,
        };
        g.add(term(store, s), feature.clone(), Term::integer(n as i64));
    }
    g
}

/// FCO4 — `p.values.AsFeatures`: one boolean feature per distinct value of
/// `p` (`founder_Pierre = true`), turning a multi-valued property into a set
/// of functional ones.
pub fn fco4_values_as_features(store: &Store, property: &str, domain: &ExtSet) -> Graph {
    let mut g = Graph::new();
    let Some(p) = store.lookup_iri(property) else { return g };
    let values: BTreeSet<TermId> = store
        .matching_explicit(None, Some(p), None)
        .map(|[_, _, o]| o)
        .collect();
    for &v in &values {
        let label = store.term(v).display_name();
        let feature = Term::iri(feature_iri(property, &label));
        for s in domain {
            let has = store.contains([s, p, v]);
            g.add(term(store, s), feature.clone(), Term::boolean(has));
        }
    }
    g
}

/// FCO5 — `degree`: number of triples mentioning the item as subject or
/// object.
pub fn fco5_degree(store: &Store, domain: &ExtSet) -> Graph {
    let mut g = Graph::new();
    let feature = Term::iri("urn:rdfa:feature:degree");
    for e in domain {
        let n = store.matching_explicit(Some(e), None, None).count()
            + store.matching_explicit(None, None, Some(e)).count();
        g.add(term(store, e), feature.clone(), Term::integer(n as i64));
    }
    g
}

/// FCO6 — `average degree`: mean degree of the item's neighbours.
pub fn fco6_average_degree(store: &Store, domain: &ExtSet) -> Graph {
    let mut g = Graph::new();
    let feature = Term::iri("urn:rdfa:feature:avgDegree");
    for e in domain {
        let neighbours: BTreeSet<TermId> = store
            .matching_explicit(Some(e), None, None)
            .map(|[_, _, o]| o)
            .collect();
        let avg = if neighbours.is_empty() {
            0.0
        } else {
            let total: usize = neighbours
                .iter()
                .map(|&c| {
                    store.matching_explicit(Some(c), None, None).count()
                        + store.matching_explicit(None, None, Some(c)).count()
                })
                .sum();
            total as f64 / neighbours.len() as f64
        };
        g.add(term(store, e), feature.clone(), Term::decimal(avg));
    }
    g
}

/// FCO7 — `p1.p2.exists`: true iff a two-step path exists from the item.
pub fn fco7_path_exists(
    store: &Store,
    p1: &str,
    p2: &str,
    domain: &ExtSet,
) -> Graph {
    let mut g = Graph::new();
    let feature = Term::iri(format!("{}_{}_exists", p1, rdfa_model::term::local_name(p2)));
    let (i1, i2) = (store.lookup_iri(p1), store.lookup_iri(p2));
    for s in domain {
        let has = match (i1, i2) {
            (Some(a), Some(b)) => store
                .matching_explicit(Some(s), Some(a), None)
                .any(|[_, _, mid]| store.matching_explicit(Some(mid), Some(b), None).next().is_some()),
            _ => false,
        };
        g.add(term(store, s), feature.clone(), Term::boolean(has));
    }
    g
}

/// FCO8 — `p1.p2.count`: number of two-step path endpoints.
pub fn fco8_path_count(store: &Store, p1: &str, p2: &str, domain: &ExtSet) -> Graph {
    let mut g = Graph::new();
    let feature = Term::iri(format!("{}_{}_count", p1, rdfa_model::term::local_name(p2)));
    let (i1, i2) = (store.lookup_iri(p1), store.lookup_iri(p2));
    for s in domain {
        let n = match (i1, i2) {
            (Some(a), Some(b)) => store
                .matching_explicit(Some(s), Some(a), None)
                .map(|[_, _, mid]| store.matching_explicit(Some(mid), Some(b), None).count())
                .sum::<usize>(),
            _ => 0,
        };
        g.add(term(store, s), feature.clone(), Term::integer(n as i64));
    }
    g
}

/// FCO9 — `p1.p2.value.maxFreq`: the most frequent two-step path endpoint
/// (ties broken by term order for determinism).
pub fn fco9_path_max_freq(store: &Store, p1: &str, p2: &str, domain: &ExtSet) -> Graph {
    let mut g = Graph::new();
    let feature = Term::iri(format!("{}_{}_maxFreq", p1, rdfa_model::term::local_name(p2)));
    let (Some(a), Some(b)) = (store.lookup_iri(p1), store.lookup_iri(p2)) else { return g };
    for s in domain {
        let mut freq: BTreeMap<TermId, usize> = BTreeMap::new();
        for [_, _, mid] in store.matching_explicit(Some(s), Some(a), None) {
            for [_, _, o] in store.matching_explicit(Some(mid), Some(b), None) {
                *freq.entry(o).or_insert(0) += 1;
            }
        }
        if let Some((&best, _)) = freq.iter().max_by(|(ta, ca), (tb, cb)| {
            ca.cmp(cb).then_with(|| tb.cmp(ta)) // highest count, then smallest id
        }) {
            g.add(term(store, s), feature.clone(), term(store, best));
        }
    }
    g
}

/// Convenience: apply an FCO graph to a copy of the store, producing a new
/// store with the derived features loaded (the "transform then analyze"
/// workflow of §4.1.2).
pub fn apply(store: &Store, features: Graph) -> Store {
    let mut out = store.clone();
    for t in features.iter() {
        out.insert(&Triple::new(t.subject.clone(), t.predicate.clone(), t.object.clone()));
    }
    out.materialize_inference();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const EX: &str = "http://example.org/";

    fn store() -> Store {
        let mut s = Store::new();
        s.load_turtle(&format!(
            r#"@prefix ex: <{EX}> .
               ex:b1 ex:founder ex:pA , ex:pB .
               ex:b2 ex:founder ex:pC .
               ex:b3 ex:name "three" .
               ex:pA ex:nationality ex:FR .
               ex:pB ex:nationality ex:FR .
               ex:pC ex:nationality ex:US .
            "#
        ))
        .unwrap();
        s
    }

    fn domain(s: &Store) -> ExtSet {
        ["b1", "b2", "b3"]
            .iter()
            .map(|l| s.lookup_iri(&format!("{EX}{l}")).unwrap())
            .collect()
    }

    fn lookup(g: &Graph, subj: &str, pred_contains: &str) -> Vec<Term> {
        g.iter()
            .filter(|t| {
                t.subject == Term::iri(format!("{EX}{subj}"))
                    && t.predicate.as_iri().is_some_and(|p| p.contains(pred_contains))
            })
            .map(|t| t.object.clone())
            .collect()
    }

    #[test]
    fn fco2_exists_flags() {
        let s = store();
        let g = fco2_exists(&s, &format!("{EX}founder"), &domain(&s));
        assert_eq!(lookup(&g, "b1", "exists"), vec![Term::boolean(true)]);
        assert_eq!(lookup(&g, "b3", "exists"), vec![Term::boolean(false)]);
    }

    #[test]
    fn fco3_counts() {
        let s = store();
        let g = fco3_count(&s, &format!("{EX}founder"), &domain(&s));
        assert_eq!(lookup(&g, "b1", "count"), vec![Term::integer(2)]);
        assert_eq!(lookup(&g, "b2", "count"), vec![Term::integer(1)]);
        assert_eq!(lookup(&g, "b3", "count"), vec![Term::integer(0)]);
    }

    #[test]
    fn fco4_boolean_per_value() {
        let s = store();
        let g = fco4_values_as_features(&s, &format!("{EX}founder"), &domain(&s));
        assert_eq!(lookup(&g, "b1", "founder_pA"), vec![Term::boolean(true)]);
        assert_eq!(lookup(&g, "b2", "founder_pA"), vec![Term::boolean(false)]);
        // 3 values × 3 domain items
        assert_eq!(g.len(), 9);
    }

    #[test]
    fn fco5_degree_counts_both_directions() {
        let s = store();
        let g = fco5_degree(&s, &domain(&s));
        assert_eq!(lookup(&g, "b1", "degree"), vec![Term::integer(2)]);
        assert_eq!(lookup(&g, "b3", "degree"), vec![Term::integer(1)]);
    }

    #[test]
    fn fco7_and_fco8_paths() {
        let s = store();
        let f = format!("{EX}founder");
        let n = format!("{EX}nationality");
        let ge = fco7_path_exists(&s, &f, &n, &domain(&s));
        assert_eq!(lookup(&ge, "b1", "exists"), vec![Term::boolean(true)]);
        assert_eq!(lookup(&ge, "b3", "exists"), vec![Term::boolean(false)]);
        let gc = fco8_path_count(&s, &f, &n, &domain(&s));
        assert_eq!(lookup(&gc, "b1", "count"), vec![Term::integer(2)]);
    }

    #[test]
    fn fco9_max_freq() {
        let s = store();
        let g = fco9_path_max_freq(
            &s,
            &format!("{EX}founder"),
            &format!("{EX}nationality"),
            &domain(&s),
        );
        // b1's founders are both French
        assert_eq!(lookup(&g, "b1", "maxFreq"), vec![Term::iri(format!("{EX}FR"))]);
        // b3 has no founders → no feature triple
        assert!(lookup(&g, "b3", "maxFreq").is_empty());
    }

    #[test]
    fn fco1_fills_missing_with_zero() {
        let s = store();
        let g = fco1_value(&s, &format!("{EX}founder"), &domain(&s));
        assert_eq!(lookup(&g, "b3", "value"), vec![Term::integer(0)]);
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn apply_extends_store() {
        let s = store();
        let g = fco3_count(&s, &format!("{EX}founder"), &domain(&s));
        let s2 = apply(&s, g);
        assert_eq!(s2.len(), s.len() + 3);
    }

    #[test]
    fn fco6_average_degree_of_neighbours() {
        let s = store();
        let g = fco6_average_degree(&s, &domain(&s));
        // b1's neighbours pA, pB each have degree 2 (founder-in + nationality-out)
        assert_eq!(lookup(&g, "b1", "avgDegree"), vec![Term::decimal(2.0)]);
    }
}
