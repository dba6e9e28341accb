//! A faceted-exploration session: the state stack plus the click actions of
//! the GUI (§5.4's Startup / ComputeNewState loop).

use crate::cache::FacetCache;
use crate::markers::{
    class_markers_opts, expand_path, property_facets_opts, ClassMarker, FacetOptions,
    PropertyFacet,
};
use crate::ops::{restrict_class, restrict_path, restrict_range, restrict_value};
use crate::state::{Condition, Constraint, Intent, PathStep, State};
use crate::FacetError;
use rdfa_model::Value;
use rdfa_store::{ExtSet, Store, TermId};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Memoized left-frame computations for the current state — the
/// user-friendliness/efficiency iteration the dissertation lists as
/// system (3): markers are recomputed only when the state changes.
#[derive(Default)]
struct FrameCache {
    class_markers: Option<Arc<Vec<ClassMarker>>>,
    facets: Option<Arc<Vec<PropertyFacet>>>,
}

/// A session over a store: a history of states, the last being current.
pub struct FacetedSession<'s> {
    store: &'s Store,
    states: Vec<State>,
    opts: FacetOptions,
    /// Cross-state (and cross-session, when shared) marker cache; makes the
    /// back button O(1).
    shared: Option<Arc<FacetCache>>,
    /// Per-state memo, used when no shared cache is attached.
    cache: std::cell::RefCell<FrameCache>,
}

impl<'s> FacetedSession<'s> {
    /// Start from scratch: the initial state `s0` over all individuals.
    pub fn start(store: &'s Store) -> Self {
        FacetedSession::start_with(store, FacetOptions::default())
    }

    /// [`FacetedSession::start`] with explicit marker-computation options
    /// (thread count, deadline).
    pub fn start_with(store: &'s Store, opts: FacetOptions) -> Self {
        FacetedSession {
            store,
            states: vec![State::initial(store)],
            opts,
            shared: None,
            cache: Default::default(),
        }
    }

    /// Start by exploring an externally obtained result set (e.g. a keyword
    /// query's answer — the second starting point of §5.4.1).
    pub fn start_from(store: &'s Store, results: BTreeSet<TermId>) -> Self {
        let ext = ExtSet::from(&results);
        let intent = Intent { seed: Some(results), ..Intent::default() };
        FacetedSession {
            store,
            states: vec![State { ext, intent }],
            opts: FacetOptions::default(),
            shared: None,
            cache: Default::default(),
        }
    }

    /// Attach a shared marker cache; repeated states (back button, other
    /// sessions over the same store) are then served without recomputation.
    pub fn with_cache(mut self, cache: Arc<FacetCache>) -> Self {
        self.set_cache(cache);
        self
    }

    /// See [`FacetedSession::with_cache`].
    pub fn set_cache(&mut self, cache: Arc<FacetCache>) {
        self.shared = Some(cache);
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

    /// The current intention.
    pub fn intent(&self) -> &Intent {
        &self.state().intent
    }

    /// Number of states on the stack (including the initial one).
    pub fn depth(&self) -> usize {
        self.states.len()
    }

    // ---- left frame -------------------------------------------------------

    /// Class-based transition markers for the current state (Fig 5.4 a/b).
    /// Memoized per state; served from the shared cache when one is set.
    /// Ignores any configured deadline — use
    /// [`FacetedSession::try_class_markers`] to enforce it.
    pub fn class_markers(&self) -> Vec<ClassMarker> {
        let opts = self.opts.without_deadline();
        (*self.class_markers_arc(opts).expect("no deadline configured")).clone()
    }

    /// Class markers with the session's deadline enforced.
    pub fn try_class_markers(&self) -> Result<Arc<Vec<ClassMarker>>, FacetError> {
        self.class_markers_arc(self.opts.clone())
    }

    fn class_markers_arc(&self, opts: FacetOptions) -> Result<Arc<Vec<ClassMarker>>, FacetError> {
        if let Some(shared) = &self.shared {
            return shared.class_markers(self.store, self.extension(), opts);
        }
        if let Some(cached) = &self.cache.borrow().class_markers {
            return Ok(Arc::clone(cached));
        }
        let computed = Arc::new(class_markers_opts(self.store, self.extension(), opts)?);
        self.cache.borrow_mut().class_markers = Some(Arc::clone(&computed));
        Ok(computed)
    }

    /// Property facets with value counts for the current state (Fig 5.4 c).
    /// Memoized per state; served from the shared cache when one is set.
    /// Ignores any configured deadline — use [`FacetedSession::try_facets`]
    /// to enforce it.
    pub fn facets(&self) -> Vec<PropertyFacet> {
        let opts = self.opts.without_deadline();
        (*self.facets_arc(opts).expect("no deadline configured")).clone()
    }

    /// Property facets with the session's deadline enforced.
    pub fn try_facets(&self) -> Result<Arc<Vec<PropertyFacet>>, FacetError> {
        self.facets_arc(self.opts.clone())
    }

    fn facets_arc(&self, opts: FacetOptions) -> Result<Arc<Vec<PropertyFacet>>, FacetError> {
        if let Some(shared) = &self.shared {
            return shared.property_facets(self.store, self.extension(), opts);
        }
        if let Some(cached) = &self.cache.borrow().facets {
            return Ok(Arc::clone(cached));
        }
        let computed = Arc::new(property_facets_opts(self.store, self.extension(), opts)?);
        self.cache.borrow_mut().facets = Some(Arc::clone(&computed));
        Ok(computed)
    }

    /// Path-expansion markers for a property path (Fig 5.5).
    pub fn expand(&self, path: &[PathStep]) -> Vec<(TermId, usize)> {
        expand_path(self.store, self.extension(), path)
    }

    // ---- transitions ------------------------------------------------------

    fn push(&mut self, ext: ExtSet, intent: Intent) -> Result<(), FacetError> {
        if ext.is_empty() {
            return Err(FacetError::new(
                "transition would produce an empty extension (never offered by the UI)",
            ));
        }
        self.states.push(State { ext, intent });
        *self.cache.borrow_mut() = FrameCache::default();
        Ok(())
    }

    /// Click a class marker: restrict to (entailed) instances of `c`.
    pub fn select_class(&mut self, c: TermId) -> Result<(), FacetError> {
        let ext = restrict_class(self.store, self.extension(), c);
        let mut intent = self.intent().clone();
        intent.class = Some(c);
        self.push(ext, intent)
    }

    /// Click a value marker of a (single-step) property facet.
    pub fn select_value(&mut self, prop: TermId, value: TermId) -> Result<(), FacetError> {
        let step = PathStep::fwd(prop);
        let ext = restrict_value(self.store, self.extension(), step, value);
        let mut intent = self.intent().clone();
        intent.conditions.push(Condition {
            path: vec![step],
            constraint: Constraint::Value(value),
        });
        self.push(ext, intent)
    }

    /// Tick several value checkboxes of one facet at once (disjunctive
    /// selection, the multi-select of classic faceted search, Fig 2.10):
    /// keeps elements with a `p`-edge to *any* of the chosen values.
    pub fn select_values(
        &mut self,
        prop: TermId,
        values: &BTreeSet<TermId>,
    ) -> Result<(), FacetError> {
        if values.is_empty() {
            return Err(FacetError::new("empty value selection"));
        }
        let step = PathStep::fwd(prop);
        let vset = ExtSet::from(values);
        let ext = crate::ops::restrict_value_set(self.store, self.extension(), step, &vset);
        let mut intent = self.intent().clone();
        intent.conditions.push(Condition {
            path: vec![step],
            constraint: Constraint::OneOf(values.clone()),
        });
        self.push(ext, intent)
    }

    /// Click a value at the end of an expanded path (Eq. 5.1 transition).
    pub fn select_path_value(
        &mut self,
        path: &[PathStep],
        value: TermId,
    ) -> Result<(), FacetError> {
        if path.is_empty() {
            return Err(FacetError::new("empty property path"));
        }
        let ext = if path.len() == 1 {
            restrict_value(self.store, self.extension(), path[0], value)
        } else {
            let vset: ExtSet = [value].into_iter().collect();
            restrict_path(self.store, self.extension(), path, &vset)?
        };
        let mut intent = self.intent().clone();
        intent.conditions.push(Condition {
            path: path.to_vec(),
            constraint: Constraint::Value(value),
        });
        self.push(ext, intent)
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
        let ext = restrict_range(self.store, self.extension(), path, min.as_ref(), max.as_ref());
        let mut intent = self.intent().clone();
        intent.conditions.push(Condition {
            path: path.to_vec(),
            constraint: Constraint::Range { min, max },
        });
        self.push(ext, intent)
    }

    /// Undo the last transition. Returns `false` at the initial state. With
    /// a shared cache attached, the previous state's markers are still
    /// cached, so this is effectively O(1).
    pub fn back(&mut self) -> bool {
        if self.states.len() > 1 {
            self.states.pop();
            *self.cache.borrow_mut() = FrameCache::default();
            true
        } else {
            false
        }
    }

    /// Reset to the initial state.
    pub fn reset(&mut self) {
        self.states.truncate(1);
        *self.cache.borrow_mut() = FrameCache::default();
    }

    /// The SPARQL expression of the current intention (§5.5).
    pub fn intent_sparql(&self) -> String {
        self.intent().to_sparql(self.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            .column("x")
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
        let both: BTreeSet<TermId> = [id(&s, "DELL"), id(&s, "Lenovo")].into_iter().collect();
        session.select_values(id(&s, "manufacturer"), &both).unwrap();
        assert_eq!(session.extension().len(), 3);
        // the OR intention evaluates back to the extension
        let sparql = session.intent_sparql();
        assert!(sparql.contains(" IN ("), "{sparql}");
        let got = rdfa_sparql::Engine::builder(&s).build()
            .run(&sparql)
            .unwrap()
            .into_solutions()
            .unwrap();
        assert_eq!(got.len(), 3);
        // empty selection rejected
        assert!(session.select_values(id(&s, "manufacturer"), &BTreeSet::new()).is_err());
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
        let opts = FacetOptions { deadline: Some(Duration::ZERO), ..FacetOptions::with_threads(1) };
        let session = FacetedSession::start_with(&s, opts);
        assert!(session.try_facets().is_err());
        assert!(session.try_class_markers().is_err());
    }

    #[test]
    fn start_from_external_results() {
        let s = store();
        let two: BTreeSet<TermId> = [id(&s, "l1"), id(&s, "l3")].into_iter().collect();
        let session = FacetedSession::start_from(&s, two.clone());
        assert_eq!(session.extension().to_btree_set(), two);
    }
}
