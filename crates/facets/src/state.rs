//! Interaction states: extension + intention (§5.3.2, §5.5).

use rdfa_hifun::{Restriction, Root};
use rdfa_model::Term;
use rdfa_store::{ExtSet, Store, TermId};

/// One step of a property path: a property, possibly traversed inversely
/// (`p⁻¹` of §5.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathStep {
    pub prop: TermId,
    pub inverse: bool,
}

impl PathStep {
    /// A forward step.
    pub fn fwd(prop: TermId) -> Self {
        PathStep { prop, inverse: false }
    }

    /// An inverse step.
    pub fn inv(prop: TermId) -> Self {
        PathStep { prop, inverse: true }
    }
}

/// A state of the interaction: extension (focus resources) + intention,
/// the HIFUN root whose answer the extension is.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    pub ext: ExtSet,
    pub intent: Root,
}

impl State {
    /// The artificial initial state `s0`: every named individual, or every
    /// subject of the entailed graph when no `owl:NamedIndividual` typing
    /// exists (§5.3.2) — the answer of the unconstrained root, whose
    /// translation ranges over the closure.
    pub fn initial(store: &Store) -> Self {
        let named = store
            .lookup_iri(rdfa_model::vocab::owl::NAMED_INDIVIDUAL)
            .map(|ni| store.instances_set(ni))
            .unwrap_or_default();
        if named.is_empty() {
            State { ext: store.subjects_set(), intent: Root::default() }
        } else {
            let class = Restriction::class(Term::iri(rdfa_model::vocab::owl::NAMED_INDIVIDUAL));
            State { ext: named, intent: Root { conditions: vec![class], ..Root::default() } }
        }
    }

    /// Objects of the right frame, as terms.
    pub fn resources<'a>(&'a self, store: &'a Store) -> impl Iterator<Item = &'a Term> + 'a {
        self.ext.iter().map(|id| store.term(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EX: &str = "http://e/";

    #[test]
    fn initial_state_covers_all_subjects() {
        let mut s = Store::new();
        s.load_turtle(&format!(
            r#"@prefix ex: <{EX}> .
               ex:l1 a ex:Laptop ; ex:manufacturer ex:DELL .
               ex:l2 a ex:Laptop ; ex:manufacturer ex:Lenovo .
               ex:DELL ex:origin ex:USA .
            "#
        ))
        .unwrap();
        let st = State::initial(&s);
        assert_eq!(st.ext.len(), 3);
        assert!(st.intent.is_unconstrained());
    }

    /// An object typed only by an `rdfs:range` axiom is the subject of an
    /// inferred triple: s0 holds it, as the unconstrained root's answer
    /// does.
    #[test]
    fn initial_state_covers_subjects_of_inferred_triples() {
        let mut s = Store::new();
        s.load_turtle(&format!(
            r#"@prefix ex: <{EX}> .
               @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
               ex:a ex:p ex:b .
               ex:p rdfs:range ex:C .
            "#
        ))
        .unwrap();
        let st = State::initial(&s);
        let mut names: Vec<String> = st.resources(&s).map(|t| t.display_name()).collect();
        names.sort();
        assert_eq!(names, ["a", "b", "p"]);
    }

    #[test]
    fn initial_state_of_named_individuals_is_their_class() {
        let mut s = Store::new();
        s.load_turtle(&format!(
            r#"@prefix ex: <{EX}> .
               @prefix owl: <http://www.w3.org/2002/07/owl#> .
               ex:l1 a owl:NamedIndividual ; ex:manufacturer ex:DELL .
               ex:DELL ex:origin ex:USA .
            "#
        ))
        .unwrap();
        let st = State::initial(&s);
        assert_eq!(st.ext.len(), 1);
        let class = st.intent.conditions[0].as_class();
        assert_eq!(class, Some(&Term::iri(rdfa_model::vocab::owl::NAMED_INDIVIDUAL)));
    }
}
