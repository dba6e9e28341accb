//! Analysis contexts and HIFUN applicability over RDF (§4.1).
//!
//! An analysis context is a root set of items plus a set of attributes (each
//! viewed as a function from items to values). HIFUN is applicable when the
//! items are uniquely identified (always true for RDF resources) and the
//! attributes are functional — [`AnalysisContext::check_applicability`]
//! reports, per attribute, whether that holds or a feature-creation operator
//! (Table 4.1) is needed first.

use crate::query::{AttrPath, Step};
use rdfa_store::{ExtSet, Store, TermId};

/// How the context's root set is defined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RootSpec {
    /// Every subject in the store.
    AllSubjects,
    /// Instances of a class (under RDFS entailment).
    Class(String),
    /// An explicit set of resources (e.g. the current faceted-search
    /// extension, §5.2.2).
    Explicit(ExtSet),
}

/// Applicability verdict for one attribute (§4.1.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Applicability {
    /// Functional (or effectively functional): HIFUN applies directly.
    Functional,
    /// Some items lack a value: incomplete information (§4.2.6); FCO1/FCO2
    /// can repair.
    MissingValues { items_without_value: usize },
    /// Some items have several values: multi-valued (§4.2.6); FCO3/FCO4 or
    /// an aggregation feature can repair.
    MultiValued { max_values: usize },
}

/// An analysis context `(R, F)`: a root and the attribute paths relevant to
/// the analysis (§2.5.1).
#[derive(Debug, Clone)]
pub struct AnalysisContext {
    pub root: RootSpec,
    pub attributes: Vec<AttrPath>,
}

impl AnalysisContext {
    /// Context over a class with the given attribute paths.
    pub fn over_class(class_iri: impl Into<String>, attributes: Vec<AttrPath>) -> Self {
        AnalysisContext { root: RootSpec::Class(class_iri.into()), attributes }
    }

    /// Context over an explicit resource set.
    pub fn over_set(items: ExtSet, attributes: Vec<AttrPath>) -> Self {
        AnalysisContext { root: RootSpec::Explicit(items), attributes }
    }

    /// Resolve the root set against a store.
    pub fn items(&self, store: &Store) -> ExtSet {
        match &self.root {
            RootSpec::AllSubjects => store.iter_explicit().map(|[s, _, _]| s).collect(),
            RootSpec::Class(c) => store
                .lookup_iri(c)
                .map(|cid| store.instances_set(cid))
                .unwrap_or_default(),
            RootSpec::Explicit(set) => set.clone(),
        }
    }

    /// Check each attribute's functionality over the context's items
    /// (§4.1.1 prerequisites). Returns one verdict per attribute, in order.
    pub fn check_applicability(&self, store: &Store) -> Vec<(AttrPath, Applicability)> {
        let items = self.items(store);
        self.attributes
            .iter()
            .map(|path| {
                let mut missing = 0usize;
                let mut max_values = 0usize;
                for item in &items {
                    let n = count_values(store, item, &path.steps);
                    if n == 0 {
                        missing += 1;
                    }
                    max_values = max_values.max(n);
                }
                let verdict = if max_values > 1 {
                    Applicability::MultiValued { max_values }
                } else if missing > 0 {
                    Applicability::MissingValues { items_without_value: missing }
                } else {
                    Applicability::Functional
                };
                (path.clone(), verdict)
            })
            .collect()
    }
}

fn count_values(store: &Store, item: TermId, steps: &[Step]) -> usize {
    let mut frontier = vec![item];
    for step in steps {
        let mut next = Vec::new();
        match step {
            Step::Prop(iri) => {
                let Some(p) = store.lookup_iri(iri) else { return 0 };
                for &node in &frontier {
                    for [_, _, o] in store.matching(Some(node), Some(p), None) {
                        next.push(o);
                    }
                }
            }
            Step::Inv(iri) => {
                let Some(p) = store.lookup_iri(iri) else { return 0 };
                for &node in &frontier {
                    for [s, _, _] in store.matching(None, Some(p), Some(node)) {
                        next.push(s);
                    }
                }
            }
            Step::Derived(_) => {
                // derived steps are 1:1 over values
                next = frontier.clone();
            }
        }
        frontier = next;
        if frontier.is_empty() {
            return 0;
        }
    }
    frontier.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    const EX: &str = "http://example.org/";

    fn store() -> Store {
        let mut s = Store::new();
        s.load_turtle(&format!(
            r#"@prefix ex: <{EX}> .
               @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
               ex:Laptop rdfs:subClassOf ex:Product .
               ex:l1 a ex:Laptop ; ex:price 900 ; ex:founder ex:a , ex:b .
               ex:l2 a ex:Laptop ; ex:price 1000 .
               ex:l3 a ex:Laptop .
            "#
        ))
        .unwrap();
        s
    }

    #[test]
    fn class_root_resolution() {
        let s = store();
        let ctx = AnalysisContext::over_class(format!("{EX}Product"), vec![]);
        assert_eq!(ctx.items(&s).len(), 3);
    }

    #[test]
    fn applicability_verdicts() {
        let s = store();
        let ctx = AnalysisContext::over_class(
            format!("{EX}Laptop"),
            vec![AttrPath::prop(format!("{EX}price")), AttrPath::prop(format!("{EX}founder"))],
        );
        let verdicts = ctx.check_applicability(&s);
        // price: l3 has none → MissingValues
        assert_eq!(
            verdicts[0].1,
            Applicability::MissingValues { items_without_value: 1 }
        );
        // founder: l1 has two → MultiValued
        assert_eq!(verdicts[1].1, Applicability::MultiValued { max_values: 2 });
    }

    #[test]
    fn functional_attribute_passes() {
        let s = store();
        let two: ExtSet = [
            s.lookup_iri(&format!("{EX}l1")).unwrap(),
            s.lookup_iri(&format!("{EX}l2")).unwrap(),
        ]
        .into_iter()
        .collect();
        let ctx = AnalysisContext::over_set(two, vec![AttrPath::prop(format!("{EX}price"))]);
        assert_eq!(ctx.check_applicability(&s)[0].1, Applicability::Functional);
    }
}
