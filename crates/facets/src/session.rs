//! A faceted-exploration session: the state stack plus the click actions of
//! the GUI (§5.4's Startup / ComputeNewState loop).

use crate::cache::FacetCache;
use crate::markers::{expand_path, ClassMarker, FacetOptions, PropertyFacet};
use crate::ops::{
    restrict_class, restrict_path, restrict_range, restrict_value, restrict_value_set,
};
use crate::state::{PathStep, State};
use crate::FacetError;
use rdfa_hifun::{translate, Restriction, Root, Step};
use rdfa_model::Value;
use rdfa_store::{ExtSet, Store, TermId};
use std::sync::Arc;

/// A session over a store: a history of states, the last being current.
pub struct FacetedSession<'s> {
    store: &'s Store,
    states: Vec<State>,
    opts: FacetOptions,
    /// Marker cache, keyed by store generation and extension: makes the back
    /// button O(1). Private to the session unless a shared one is attached.
    cache: Arc<FacetCache>,
}

impl<'s> FacetedSession<'s> {
    /// Start from scratch: the initial state `s0` over all individuals.
    pub fn start(store: &'s Store) -> Self {
        FacetedSession::start_with(store, FacetOptions::default())
    }

    /// [`FacetedSession::start`] with explicit marker-computation options
    /// (deadline, cancellation).
    pub fn start_with(store: &'s Store, opts: FacetOptions) -> Self {
        FacetedSession {
            store,
            states: vec![State::initial(store)],
            opts,
            cache: Arc::new(FacetCache::default()),
        }
    }

    /// Start by exploring an externally obtained result set (e.g. a keyword
    /// query's answer — the second starting point of §5.4.1): the root is
    /// that seed.
    pub fn start_from(store: &'s Store, results: ExtSet) -> Self {
        let seed = results.iter().map(|id| store.term(id).clone()).collect();
        let intent = Root { among: Some(seed), ..Root::default() };
        FacetedSession {
            store,
            states: vec![State { ext: results, intent }],
            opts: FacetOptions::default(),
            cache: Arc::new(FacetCache::default()),
        }
    }

    /// Replace the session's private marker cache with a shared one, so
    /// states other sessions over the same store computed are served too.
    pub fn with_cache(mut self, cache: Arc<FacetCache>) -> Self {
        self.set_cache(cache);
        self
    }

    /// See [`FacetedSession::with_cache`].
    pub fn set_cache(&mut self, cache: Arc<FacetCache>) {
        self.cache = cache;
    }

    /// The backing store.
    pub fn store(&self) -> &'s Store {
        self.store
    }

    /// The current state.
    pub fn state(&self) -> &State {
        self.states.last().expect("session always has a state")
    }

    /// The current extension (right frame).
    pub fn extension(&self) -> &ExtSet {
        &self.state().ext
    }

    /// The current intention: the HIFUN root the extension is the answer
    /// of.
    pub fn intent(&self) -> &Root {
        &self.state().intent
    }

    /// The initial state's intention, which every later one extends.
    pub fn initial_intent(&self) -> &Root {
        &self.states[0].intent
    }

    /// Number of states on the stack (including the initial one).
    pub fn depth(&self) -> usize {
        self.states.len()
    }

    // ---- left frame -------------------------------------------------------

    /// Class-based transition markers for the current state (Fig 5.4 a/b),
    /// served from the marker cache when the state was seen before.
    /// Ignores any configured deadline — use
    /// [`FacetedSession::try_class_markers`] to enforce it.
    pub fn class_markers(&self) -> Vec<ClassMarker> {
        let opts = self.opts.without_deadline();
        let markers = self.cache.class_markers(self.store, self.extension(), opts);
        (*markers.expect("no deadline configured")).clone()
    }

    /// Class markers with the session's deadline enforced.
    pub fn try_class_markers(&self) -> Result<Arc<Vec<ClassMarker>>, FacetError> {
        self.cache.class_markers(self.store, self.extension(), self.opts.clone())
    }

    /// Property facets with value counts for the current state (Fig 5.4 c),
    /// served from the marker cache when the state was seen before.
    /// Ignores any configured deadline — use [`FacetedSession::try_facets`]
    /// to enforce it.
    pub fn facets(&self) -> Vec<PropertyFacet> {
        let opts = self.opts.without_deadline();
        let facets = self.cache.property_facets(self.store, self.extension(), opts);
        (*facets.expect("no deadline configured")).clone()
    }

    /// Property facets with the session's deadline enforced.
    pub fn try_facets(&self) -> Result<Arc<Vec<PropertyFacet>>, FacetError> {
        self.cache.property_facets(self.store, self.extension(), self.opts.clone())
    }

    /// Path-expansion markers for a property path (Fig 5.5).
    pub fn expand(&self, path: &[PathStep]) -> Vec<(TermId, usize)> {
        expand_path(self.store, self.extension(), path)
    }

    // ---- transitions ------------------------------------------------------

    /// Push the state a click reaches: its extension, and the current root
    /// with the click's class or condition added.
    fn push(&mut self, ext: ExtSet, intent: Root) -> Result<(), FacetError> {
        if ext.is_empty() {
            return Err(FacetError::new(
                "transition would produce an empty extension (never offered by the UI)",
            ));
        }
        self.states.push(State { ext, intent });
        Ok(())
    }

    /// A click path as HIFUN steps.
    fn steps(&self, path: &[PathStep]) -> Result<Vec<Step>, FacetError> {
        path.iter()
            .map(|s| {
                let term = self.store.term(s.prop);
                let iri = term.as_iri().map(str::to_owned).ok_or_else(|| {
                    FacetError::new(format!("{term} is not an IRI the intention can name"))
                })?;
                Ok(if s.inverse { Step::Inv(iri) } else { Step::Prop(iri) })
            })
            .collect()
    }

    /// Click a class marker: restrict to (entailed) instances of `c`. Every
    /// class clicked stays in the intention, so a later click on a
    /// superclass keeps the narrower one.
    pub fn select_class(&mut self, c: TermId) -> Result<(), FacetError> {
        let class = Restriction::class(self.store.term(c).clone());
        let ext = restrict_class(self.store, self.extension(), c);
        let mut intent = self.intent().clone();
        if !intent.conditions.contains(&class) {
            intent.conditions.push(class);
        }
        self.push(ext, intent)
    }

    /// Click a value marker of a (single-step) property facet.
    pub fn select_value(&mut self, prop: TermId, value: TermId) -> Result<(), FacetError> {
        self.select_path_value(&[PathStep::fwd(prop)], value)
    }

    /// Tick several value checkboxes of one facet (or expanded path) at
    /// once (disjunctive selection, the multi-select of classic faceted
    /// search, Fig 2.10): keeps elements whose path reaches *any* of the
    /// chosen values.
    pub fn select_values(&mut self, path: &[PathStep], values: &ExtSet) -> Result<(), FacetError> {
        if path.is_empty() {
            return Err(FacetError::new("empty property path"));
        }
        if values.is_empty() {
            return Err(FacetError::new("empty value selection"));
        }
        let terms = values.iter().map(|v| self.store.term(v).clone()).collect();
        let mut intent = self.intent().clone();
        intent.conditions.push(Restriction::one_of(self.steps(path)?, terms));
        let ext = match (path, values.iter().next()) {
            ([step], Some(value)) if values.len() == 1 => {
                restrict_value(self.store, self.extension(), *step, value)
            }
            ([step], _) => restrict_value_set(self.store, self.extension(), *step, values),
            _ => restrict_path(self.store, self.extension(), path, values)?,
        };
        self.push(ext, intent)
    }

    /// Click a value at the end of an expanded path (Eq. 5.1 transition).
    pub fn select_path_value(
        &mut self,
        path: &[PathStep],
        value: TermId,
    ) -> Result<(), FacetError> {
        self.select_values(path, &[value].into_iter().collect())
    }

    /// Apply a range filter on a path's terminal values (the `⧩` button,
    /// Example 3 of §5.1).
    pub fn select_range(
        &mut self,
        path: &[PathStep],
        min: Option<Value>,
        max: Option<Value>,
    ) -> Result<(), FacetError> {
        if path.is_empty() {
            return Err(FacetError::new("empty property path"));
        }
        let bound = |b: &Option<Value>| b.as_ref().map(Value::to_term);
        let mut intent = self.intent().clone();
        intent.conditions.push(Restriction::range(self.steps(path)?, bound(&min), bound(&max)));
        let ext = restrict_range(self.store, self.extension(), path, min.as_ref(), max.as_ref());
        self.push(ext, intent)
    }

    /// Undo the last transition. Returns `false` at the initial state. The
    /// previous state's markers are still cached, so this is effectively
    /// O(1).
    pub fn back(&mut self) -> bool {
        if self.states.len() > 1 {
            self.states.pop();
            true
        } else {
            false
        }
    }

    /// Reset to the initial state.
    pub fn reset(&mut self) {
        self.states.truncate(1);
    }

    /// The SPARQL expression of the current intention (§5.5): the root's
    /// translation alone, whose `?x1` answers are the extension.
    pub fn intent_sparql(&self) -> String {
        translate::root_to_sparql(self.intent())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::time::Duration;

    const EX: &str = "http://e/";

    fn store() -> Store {
        let mut s = Store::new();
        s.load_turtle(&format!(
            r#"@prefix ex: <{EX}> .
               @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
               @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
               ex:Laptop rdfs:subClassOf ex:Product .
               ex:l1 a ex:Laptop ; ex:manufacturer ex:DELL ; ex:usb 2 ;
                     ex:releaseDate "2021-06-10"^^xsd:date .
               ex:l2 a ex:Laptop ; ex:manufacturer ex:DELL ; ex:usb 4 ;
                     ex:releaseDate "2021-09-03"^^xsd:date .
               ex:l3 a ex:Laptop ; ex:manufacturer ex:Lenovo ; ex:usb 2 ;
                     ex:releaseDate "2020-10-10"^^xsd:date .
               ex:DELL ex:origin ex:USA . ex:Lenovo ex:origin ex:China .
            "#
        ))
        .unwrap();
        s
    }

    fn id(s: &Store, local: &str) -> TermId {
        s.lookup_iri(&format!("{EX}{local}")).unwrap()
    }

    #[test]
    fn full_session_flow() {
        let s = store();
        let mut session = FacetedSession::start(&s);
        session.select_class(id(&s, "Laptop")).unwrap();
        assert_eq!(session.extension().len(), 3);
        session.select_value(id(&s, "manufacturer"), id(&s, "DELL")).unwrap();
        assert_eq!(session.extension().len(), 2);
        session
            .select_range(&[PathStep::fwd(id(&s, "usb"))], Some(Value::Int(3)), None)
            .unwrap();
        assert_eq!(session.extension().len(), 1);
        assert!(session.back());
        assert_eq!(session.extension().len(), 2);
        session.reset();
        assert_eq!(session.depth(), 1);
    }

    #[test]
    fn path_value_selection() {
        let s = store();
        let mut session = FacetedSession::start(&s);
        session.select_class(id(&s, "Laptop")).unwrap();
        let path = [PathStep::fwd(id(&s, "manufacturer")), PathStep::fwd(id(&s, "origin"))];
        let markers = session.expand(&path);
        assert_eq!(markers.len(), 2);
        session.select_path_value(&path, id(&s, "USA")).unwrap();
        assert_eq!(session.extension().len(), 2);
        assert!(session.intent_sparql().contains("origin"));
    }

    #[test]
    fn empty_transition_rejected() {
        let s = store();
        let mut session = FacetedSession::start(&s);
        session.select_class(id(&s, "Laptop")).unwrap();
        // Lenovo laptops with origin USA: none
        session.select_value(id(&s, "manufacturer"), id(&s, "Lenovo")).unwrap();
        let path = [PathStep::fwd(id(&s, "manufacturer")), PathStep::fwd(id(&s, "origin"))];
        let err = session.select_path_value(&path, id(&s, "USA")).unwrap_err();
        assert!(err.message.contains("empty"));
        // session state unchanged after the failed transition
        assert_eq!(session.extension().len(), 1);
    }

    #[test]
    fn intent_tracks_clicks_and_evaluates_back_to_extension() {
        let s = store();
        let mut session = FacetedSession::start(&s);
        session.select_class(id(&s, "Laptop")).unwrap();
        session.select_value(id(&s, "manufacturer"), id(&s, "DELL")).unwrap();
        let sparql = session.intent_sparql();
        let sols = rdfa_sparql::Engine::builder(&s).build().run(&sparql).unwrap();
        let got: BTreeSet<String> = sols
            .solutions()
            .unwrap()
            .column("x1")
            .map(|t| t.display_name())
            .collect();
        let expect: BTreeSet<String> = session
            .extension()
            .iter()
            .map(|i| s.term(i).display_name())
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn date_range_filter() {
        let s = store();
        let mut session = FacetedSession::start(&s);
        session.select_class(id(&s, "Laptop")).unwrap();
        let date = rdfa_model::Date::parse("2021-01-01").unwrap();
        session
            .select_range(
                &[PathStep::fwd(id(&s, "releaseDate"))],
                Some(Value::Date(date)),
                None,
            )
            .unwrap();
        assert_eq!(session.extension().len(), 2);
    }

    #[test]
    fn multi_select_is_disjunctive() {
        let s = store();
        let mut session = FacetedSession::start(&s);
        session.select_class(id(&s, "Laptop")).unwrap();
        let both: ExtSet = [id(&s, "DELL"), id(&s, "Lenovo")].into_iter().collect();
        let man = [PathStep::fwd(id(&s, "manufacturer"))];
        session.select_values(&man, &both).unwrap();
        assert_eq!(session.extension().len(), 3);
        // the OR intention is a term set on the path's final variable, and
        // evaluates back to the extension
        let sparql = session.intent_sparql();
        assert!(sparql.contains("VALUES ?x2 { <http://e/DELL> <http://e/Lenovo> }"), "{sparql}");
        let got = rdfa_sparql::Engine::builder(&s).build()
            .run(&sparql)
            .unwrap()
            .into_solutions()
            .unwrap();
        assert_eq!(got.len(), 3);
        // empty selection rejected
        assert!(session.select_values(&man, &ExtSet::new()).is_err());
    }

    #[test]
    fn cached_facets_match_fresh_and_invalidate_on_transition() {
        let s = store();
        let mut session = FacetedSession::start(&s);
        session.select_class(id(&s, "Laptop")).unwrap();
        let first = session.facets();
        let cached = session.facets();
        assert_eq!(first, cached);
        assert_eq!(first, crate::markers::property_facets(&s, session.extension()));
        // transition invalidates
        session.select_value(id(&s, "manufacturer"), id(&s, "DELL")).unwrap();
        let narrowed = session.facets();
        assert_ne!(first, narrowed);
        assert_eq!(narrowed, crate::markers::property_facets(&s, session.extension()));
        // back invalidates too
        session.back();
        assert_eq!(session.facets(), first);
    }

    #[test]
    fn shared_cache_serves_back_button() {
        let s = store();
        let cache = Arc::new(FacetCache::new(16));
        let mut session = FacetedSession::start(&s).with_cache(Arc::clone(&cache));
        let initial = session.facets();
        session.select_class(id(&s, "Laptop")).unwrap();
        session.facets();
        session.back();
        // the initial state's facets come straight from the cache
        assert_eq!(session.facets(), initial);
        let st = cache.stats();
        assert_eq!(st.hits, 1, "{st:?}");
        assert_eq!(st.misses, 2);
        // a second session over the same store shares the entries
        let other = FacetedSession::start(&s).with_cache(Arc::clone(&cache));
        assert_eq!(other.facets(), initial);
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn deadline_surfaces_through_try_apis() {
        let s = store();
        let opts = FacetOptions { deadline: Some(Duration::ZERO), ..FacetOptions::default() };
        let session = FacetedSession::start_with(&s, opts);
        assert!(session.try_facets().is_err());
        assert!(session.try_class_markers().is_err());
    }

    /// A class that is not an IRI (here a blank node, as an entailed OWL
    /// restriction is) is a class condition like any other.
    #[test]
    fn blank_node_class_click() {
        let mut s = Store::new();
        s.load_turtle(&format!(
            r#"@prefix ex: <{EX}> .
               ex:l1 a _:c, ex:Laptop . ex:l2 a ex:Laptop . ex:l3 a _:c .
            "#
        ))
        .unwrap();
        let mut session = FacetedSession::start(&s);
        session.select_class(id(&s, "Laptop")).unwrap();
        let blank = session.class_markers().iter().map(|m| m.class).find(|&c| s.term(c).is_blank());
        session.select_class(blank.expect("the blank class is offered")).unwrap();
        assert_eq!(session.extension().len(), 1);
        let sparql = session.intent_sparql();
        let got = rdfa_sparql::Engine::builder(&s).build().run(&sparql).unwrap();
        let got: Vec<String> =
            got.solutions().unwrap().column("x1").map(|t| t.display_name()).collect();
        assert_eq!(got, ["l1"], "{sparql}");
        assert!(session.intent().to_string().ends_with(" ∧ _:c"), "{}", session.intent());
    }

    #[test]
    fn start_from_external_results() {
        let s = store();
        let two: ExtSet = [id(&s, "l1"), id(&s, "l3")].into_iter().collect();
        let session = FacetedSession::start_from(&s, two.clone());
        assert_eq!(session.extension(), &two);
    }
}
