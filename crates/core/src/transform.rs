//! The transform (ƒ) button of §5.1 "Special cases": when a facet's
//! attribute violates HIFUN's functionality assumption (multi-valued or
//! missing values, §4.2.6), the user applies a *feature-creation operator*
//! (Table 4.1) to it; the system derives a new functional feature and loads
//! it, after which analytics proceed normally.
//!
//! The operators themselves live in `rdfa_hifun::fco`; this module selects
//! and applies them over the current extension, returning the transformed
//! store plus the derived feature's property IRI so the caller can G/⨊ it.

use rdfa_hifun::fco;
use rdfa_hifun::{Applicability, AnalysisContext, AttrPath};
use rdfa_model::Graph;
use rdfa_store::{ExtSet, Store};

/// The transform menu: one entry per feature-creation operator of Table 4.1
/// that the GUI offers on a facet.
#[derive(Debug, Clone, PartialEq)]
pub enum Transform {
    /// FCO1 — `p.value`: materialize, substituting 0 for missing values.
    Value { property: String },
    /// FCO2 — `p.exists`: boolean presence feature.
    Exists { property: String },
    /// FCO3 — `p.count`: number of values.
    Count { property: String },
    /// FCO4 — `p.values.AsFeatures`: one boolean feature per value.
    ValuesAsFeatures { property: String },
    /// FCO5 — node degree.
    Degree,
    /// FCO6 — average neighbour degree.
    AverageDegree,
    /// FCO7 — `p1.p2.exists`.
    PathExists { p1: String, p2: String },
    /// FCO8 — `p1.p2.count`.
    PathCount { p1: String, p2: String },
    /// FCO9 — `p1.p2.value.maxFreq`.
    PathMaxFreq { p1: String, p2: String },
}

/// The outcome: the transformed store (original + derived feature triples)
/// and the derived feature property IRI(s).
#[derive(Debug)]
pub struct Transformed {
    pub store: Store,
    pub features: Vec<String>,
    /// Number of derived triples added.
    pub added: usize,
}

/// Apply a transform over an extension (the current state's focus set).
pub fn apply(store: &Store, extension: &ExtSet, transform: &Transform) -> Transformed {
    let graph: Graph = match transform {
        Transform::Value { property } => fco::fco1_value(store, property, extension),
        Transform::Exists { property } => fco::fco2_exists(store, property, extension),
        Transform::Count { property } => fco::fco3_count(store, property, extension),
        Transform::ValuesAsFeatures { property } => {
            fco::fco4_values_as_features(store, property, extension)
        }
        Transform::Degree => fco::fco5_degree(store, extension),
        Transform::AverageDegree => fco::fco6_average_degree(store, extension),
        Transform::PathExists { p1, p2 } => fco::fco7_path_exists(store, p1, p2, extension),
        Transform::PathCount { p1, p2 } => fco::fco8_path_count(store, p1, p2, extension),
        Transform::PathMaxFreq { p1, p2 } => fco::fco9_path_max_freq(store, p1, p2, extension),
    };
    let added = graph.len();
    let mut features: Vec<String> = graph
        .iter()
        .filter_map(|t| t.predicate.as_iri().map(str::to_owned))
        .collect();
    features.sort();
    features.dedup();
    Transformed { store: fco::apply(store, graph), features, added }
}

/// Suggest a repair for a non-functional attribute: the menu the GUI would
/// preselect when the user presses ƒ on a problematic facet (§4.2.6).
pub fn suggest(store: &Store, extension: &ExtSet, property: &str) -> Option<Transform> {
    let ctx = AnalysisContext::over_set(extension.clone(), vec![AttrPath::prop(property)]);
    match ctx.check_applicability(store).pop()?.1 {
        Applicability::Functional => None,
        Applicability::MissingValues { .. } => {
            Some(Transform::Value { property: property.to_owned() })
        }
        Applicability::MultiValued { .. } => {
            Some(Transform::Count { property: property.to_owned() })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{AnalyticsSession, GroupSpec};
    use rdfa_hifun::AggOp;

    const EX: &str = "http://e/";

    /// Companies with multi-valued founders — HIFUN inapplicable directly.
    fn store() -> Store {
        let mut s = Store::new();
        s.load_turtle(&format!(
            r#"@prefix ex: <{EX}> .
               ex:b1 a ex:Company ; ex:founder ex:pA , ex:pB ; ex:sector ex:tech .
               ex:b2 a ex:Company ; ex:founder ex:pC ; ex:sector ex:tech .
               ex:b3 a ex:Company ; ex:sector ex:retail .
            "#
        ))
        .unwrap();
        s
    }

    fn companies(s: &Store) -> ExtSet {
        s.instances_set(s.lookup_iri(&format!("{EX}Company")).unwrap())
    }

    #[test]
    fn suggest_detects_problem_kind() {
        let s = store();
        let ext = companies(&s);
        // founder: multi-valued → Count suggested
        assert!(matches!(
            suggest(&s, &ext, &format!("{EX}founder")),
            Some(Transform::Count { .. })
        ));
        // sector: functional → no repair needed
        assert_eq!(suggest(&s, &ext, &format!("{EX}sector")), None);
    }

    #[test]
    fn count_transform_enables_analytics() {
        let s = store();
        let ext = companies(&s);
        let t = apply(&s, &ext, &Transform::Count { property: format!("{EX}founder") });
        assert_eq!(t.added, 3);
        assert_eq!(t.features.len(), 1);
        let feature = &t.features[0];

        // the derived feature is functional — analytics now apply
        let fid = t.store.lookup_iri(feature).unwrap();
        assert!(t.store.is_effectively_functional(fid));

        // "number of companies by founder count"
        let mut a = AnalyticsSession::start(&t.store);
        a.select_class(t.store.lookup_iri(&format!("{EX}Company")).unwrap()).unwrap();
        a.add_grouping(GroupSpec::property(fid));
        a.set_ops(vec![AggOp::Count]);
        let frame = a.run().unwrap();
        assert_eq!(frame.rows.len(), 3); // founder counts 0, 1, 2
    }

    #[test]
    fn degree_transform_over_extension_only() {
        let s = store();
        let two: ExtSet = companies(&s).iter().take(2).collect();
        let t = apply(&s, &two, &Transform::Degree);
        assert_eq!(t.added, 2);
    }

    #[test]
    fn path_transforms() {
        let mut s = store();
        s.load_turtle(&format!(
            "@prefix ex: <{EX}> . ex:pA ex:nationality ex:FR . ex:pB ex:nationality ex:FR ."
        ))
        .unwrap();
        let ext = companies(&s);
        let t = apply(
            &s,
            &ext,
            &Transform::PathMaxFreq {
                p1: format!("{EX}founder"),
                p2: format!("{EX}nationality"),
            },
        );
        // only b1 has founders with nationalities
        assert_eq!(t.added, 1);
    }
}
