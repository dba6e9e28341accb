//! The view manager: workload recorder, view selector, and incremental
//! maintainer behind one [`ViewCatalog`] implementation.
//!
//! The manager sits between the SPARQL engine and the store:
//!
//! 1. **Recording** — every direct execution the engine reports through
//!    [`ViewCatalog::observe`] is normalized to its [`AggShape`] (when it
//!    is in the viewable fragment) and tallied with frequency and cost.
//! 2. **Selection** — once a shape has been seen [`ViewConfig::min_observations`]
//!    times, the manager materializes it — unless the memory budget or the
//!    view-count cap is exhausted, in which case the *cheapest* existing
//!    views (by accumulated direct-evaluation cost) are evicted first, and
//!    shapes that lose that comparison are marked `skip` so they do not
//!    re-trigger the selector on every query.
//! 3. **Maintenance** — update deltas are applied incrementally per view
//!    ([`ViewTable::maintain`]); deltas that touch schema predicates
//!    (`rdfs:subClassOf` etc., which shift inference non-locally) trigger a
//!    full rebuild instead.
//!
//! Freshness is generation-keyed exactly like the facet cache: a view
//! serves only when its recorded [`Store::generation`] equals the querying
//! snapshot's. A stale view is never served — at worst it costs a miss.

use crate::table::ViewTable;
use rdfa_model::{vocab, Term};
use rdfa_sparql::ast::SelectQuery;
use rdfa_sparql::results::Solutions;
use rdfa_sparql::views::{
    finalize_view_rows, projection_aliases, AggShape, ShapeMatch, ViewCatalog,
};
use rdfa_store::{Mutation, Store};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Selector knobs. The defaults suit an interactive session; the server
/// exposes them as flags.
#[derive(Debug, Clone)]
pub struct ViewConfig {
    /// Materialize views automatically from the observed workload. When
    /// `false` the manager only records the workload (views can still be
    /// forced via [`ViewManager::force_select`]).
    pub auto: bool,
    /// Hard cap on concurrently materialized views.
    pub max_views: usize,
    /// Approximate total heap budget across all view tables.
    pub memory_budget_bytes: usize,
    /// Directly-evaluated executions of a shape before it is considered
    /// for materialization.
    pub min_observations: u64,
}

impl Default for ViewConfig {
    fn default() -> Self {
        ViewConfig {
            auto: true,
            max_views: 8,
            memory_budget_bytes: 64 << 20,
            min_observations: 3,
        }
    }
}

/// Workload statistics for one shape.
#[derive(Debug, Clone, Default)]
struct ShapeStats {
    /// Direct (non-view) executions observed.
    observations: u64,
    /// Total direct-evaluation cost, µs. This is the selector's score:
    /// what the workload actually paid for not having the view.
    total_micros: u64,
    /// Lost a budget comparison; do not re-run the selector for it.
    skip: bool,
}

/// Counters for `/v1/views/stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecorderStats {
    /// Executions reported to the recorder (viewable or not).
    pub observed: u64,
    /// Of those, executions in the viewable fragment.
    pub shaped: u64,
    /// Queries answered from a view.
    pub hits: u64,
    /// Viewable queries that had to evaluate directly.
    pub misses: u64,
    /// Views materialized (initial builds and selector re-builds).
    pub materializations: u64,
    /// Views evicted under budget pressure.
    pub evictions: u64,
    /// Deltas applied incrementally.
    pub incremental_maintenance: u64,
    /// Full rebuilds (schema deltas, unreconciled deltas, stale catch-up).
    pub rebuilds: u64,
    /// Total maintenance time, µs (incremental and rebuild).
    pub maintain_micros: u64,
}

/// One row of `/v1/views`.
#[derive(Debug, Clone)]
pub struct ViewInfo {
    pub key: String,
    pub generation: u64,
    pub groups: usize,
    pub approx_bytes: usize,
    pub hits: u64,
    /// Workload score (accumulated direct cost, µs) that earned the view.
    pub score_micros: u64,
}

#[derive(Default)]
struct State {
    views: BTreeMap<AggShape, ViewTable>,
    workload: BTreeMap<AggShape, ShapeStats>,
    stats: RecorderStats,
}

/// Workload-driven materialized-view manager. Shared via `Arc` between
/// the engine hook, the update path, and the HTTP routes.
pub struct ViewManager {
    config: ViewConfig,
    state: Mutex<State>,
}

impl ViewManager {
    pub fn new(config: ViewConfig) -> ViewManager {
        ViewManager { config, state: Mutex::new(State::default()) }
    }

    pub fn config(&self) -> &ViewConfig {
        &self.config
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    // ---- selection -------------------------------------------------------

    /// Materialize `shape` against `store` if the budget allows, evicting
    /// lower-scored views to make room. Returns true when the view is
    /// materialized on exit.
    fn try_materialize(state: &mut State, config: &ViewConfig, shape: &AggShape, store: &Store) -> bool {
        let score = state.workload.get(shape).map_or(0, |s| s.total_micros);
        let table = ViewTable::build(shape, store);
        let bytes = table.approx_bytes();
        if bytes > config.memory_budget_bytes {
            // can never fit, whatever we evict
            state.workload.entry(shape.clone()).or_default().skip = true;
            return false;
        }
        loop {
            let used: usize = state.views.values().map(ViewTable::approx_bytes).sum();
            let over_budget = used + bytes > config.memory_budget_bytes;
            let over_count = state.views.len() >= config.max_views;
            if !over_budget && !over_count {
                break;
            }
            // candidate victim: the currently-materialized view with the
            // lowest workload score
            let victim = state
                .views
                .keys()
                .min_by_key(|s| state.workload.get(*s).map_or(0, |st| st.total_micros))
                .cloned();
            match victim {
                Some(v) if state.workload.get(&v).map_or(0, |st| st.total_micros) < score => {
                    state.views.remove(&v);
                    state.stats.evictions += 1;
                    // the victim must re-earn its slot
                    if let Some(st) = state.workload.get_mut(&v) {
                        st.observations = 0;
                        st.total_micros = 0;
                    }
                }
                _ => {
                    // nothing cheaper than the newcomer: reject it
                    state.workload.entry(shape.clone()).or_default().skip = true;
                    return false;
                }
            }
        }
        state.views.insert(shape.clone(), table);
        state.stats.materializations += 1;
        true
    }

    /// Run the selector over the recorded workload against `store`,
    /// ignoring `min_observations` and `skip` flags. Used by the
    /// `POST /v1/views/refresh` route and by benchmarks that need
    /// deterministic materialization.
    pub fn force_select(&self, store: &Store) -> usize {
        let mut state = self.lock();
        let state = &mut *state;
        let shapes: Vec<AggShape> = {
            let mut by_score: Vec<(&AggShape, u64)> = state
                .workload
                .iter()
                .map(|(s, st)| (s, st.total_micros))
                .collect();
            by_score.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
            by_score.into_iter().map(|(s, _)| s.clone()).collect()
        };
        let mut built = 0;
        for shape in shapes {
            if let Some(st) = state.workload.get_mut(&shape) {
                st.skip = false;
            }
            if state.views.contains_key(&shape) {
                continue;
            }
            if Self::try_materialize(state, &self.config, &shape, store) {
                built += 1;
            }
        }
        built
    }

    /// Materialize one specific shape unconditionally (subject to the
    /// budget). Returns true when it is materialized on exit.
    pub fn materialize(&self, shape: &AggShape, store: &Store) -> bool {
        let mut state = self.lock();
        let state = &mut *state;
        if state
            .views
            .get(shape)
            .is_some_and(|v| v.generation() == store.generation())
        {
            return true;
        }
        state.views.remove(shape);
        if let Some(st) = state.workload.get_mut(shape) {
            st.skip = false;
        }
        Self::try_materialize(state, &self.config, shape, store)
    }

    // ---- maintenance -----------------------------------------------------

    /// Apply an update delta to every materialized view, carrying them
    /// from `before`'s generation to `after`'s. Deltas touching schema
    /// predicates — whose inference effects are non-local — force a full
    /// rebuild, as does any view whose table does not reconcile.
    pub fn maintain(&self, before: &Store, after: &Store, changes: &[Mutation]) {
        let mut state = self.lock();
        if state.views.is_empty() {
            return;
        }
        if changes.is_empty() && before.generation() == after.generation() {
            return;
        }
        let t0 = Instant::now();
        let schema_delta = changes.iter().any(|m| {
            let p = match m {
                Mutation::Insert(t) | Mutation::Remove(t) => &t.predicate,
            };
            matches!(
                p,
                Term::Iri(iri) if iri == vocab::rdfs::SUB_CLASS_OF
                    || iri == vocab::rdfs::SUB_PROPERTY_OF
                    || iri == vocab::rdfs::DOMAIN
                    || iri == vocab::rdfs::RANGE
            )
        });
        // Resources whose visible star may have changed: every delta
        // subject, plus IRI objects (a `?y` gaining an incoming edge can
        // gain inferred types via rdfs:range, changing its restriction
        // status as a *subject* elsewhere).
        let mut affected: BTreeSet<Term> = BTreeSet::new();
        if !schema_delta {
            for m in changes {
                let t = match m {
                    Mutation::Insert(t) | Mutation::Remove(t) => t,
                };
                affected.insert(t.subject.clone());
                if matches!(t.object, Term::Iri(_)) {
                    affected.insert(t.object.clone());
                }
            }
        }
        let state = &mut *state;
        for view in state.views.values_mut() {
            let incremental = !schema_delta
                && view.generation() == before.generation()
                && view.maintain(before, after, &affected);
            if incremental {
                state.stats.incremental_maintenance += 1;
            } else {
                view.rebuild(after);
                state.stats.rebuilds += 1;
            }
        }
        state.stats.maintain_micros += t0.elapsed().as_micros() as u64;
    }

    /// Rebuild every materialized view against `store`. The embedded
    /// session uses this after updates where no delta record is available.
    pub fn rebuild_all(&self, store: &Store) {
        let mut state = self.lock();
        let t0 = Instant::now();
        let n = state.views.len();
        for view in state.views.values_mut() {
            view.rebuild(store);
        }
        state.stats.rebuilds += n as u64;
        if n > 0 {
            state.stats.maintain_micros += t0.elapsed().as_micros() as u64;
        }
    }

    // ---- introspection ---------------------------------------------------

    pub fn stats(&self) -> RecorderStats {
        self.lock().stats
    }

    /// Materialized views, highest workload score first.
    pub fn views(&self) -> Vec<ViewInfo> {
        let state = self.lock();
        let mut infos: Vec<ViewInfo> = state
            .views
            .iter()
            .map(|(shape, view)| ViewInfo {
                key: shape.key(),
                generation: view.generation(),
                groups: view.group_count(),
                approx_bytes: view.approx_bytes(),
                hits: view.hits,
                score_micros: state.workload.get(shape).map_or(0, |s| s.total_micros),
            })
            .collect();
        infos.sort_by(|a, b| b.score_micros.cmp(&a.score_micros).then_with(|| a.key.cmp(&b.key)));
        infos
    }

    /// Recorded workload shapes (materialized or not), highest score first:
    /// `(key, observations, total µs, materialized)`.
    pub fn workload(&self) -> Vec<(String, u64, u64, bool)> {
        let state = self.lock();
        let mut rows: Vec<(String, u64, u64, bool)> = state
            .workload
            .iter()
            .map(|(shape, st)| {
                (shape.key(), st.observations, st.total_micros, state.views.contains_key(shape))
            })
            .collect();
        rows.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| a.0.cmp(&b.0)));
        rows
    }

    fn observe_match(&self, m: Option<&ShapeMatch>, store: &Store, elapsed: Duration) {
        let mut state = self.lock();
        let state = &mut *state;
        state.stats.observed += 1;
        let Some(m) = m else { return };
        state.stats.shaped += 1;
        state.stats.misses += 1;
        let st = state.workload.entry(m.shape.clone()).or_default();
        st.observations += 1;
        st.total_micros += elapsed.as_micros() as u64;
        let due = st.observations >= self.config.min_observations && !st.skip;
        if !self.config.auto || !due {
            return;
        }
        match state.views.get(&m.shape) {
            // fresh view already exists (the engine missed it only because
            // this execution raced a concurrent update): nothing to do
            Some(v) if v.generation() == store.generation() => {}
            Some(_) => {
                // stale view: this snapshot is at least as new as the
                // table (generations are monotonic), so rebuild from it.
                // The server normally keeps views fresh via `maintain`;
                // this is the embedded-session catch-up path.
                let t0 = Instant::now();
                if let Some(view) = state.views.get_mut(&m.shape) {
                    view.rebuild(store);
                }
                state.stats.rebuilds += 1;
                state.stats.maintain_micros += t0.elapsed().as_micros() as u64;
            }
            None => {
                Self::try_materialize(state, &self.config, &m.shape, store);
            }
        }
    }
}

impl ViewCatalog for ViewManager {
    fn serve(&self, m: &ShapeMatch, q: &SelectQuery, store: &Store) -> Option<Solutions> {
        let vars = projection_aliases(q)?;
        let rows = {
            let mut state = self.lock();
            let view = state.views.get_mut(&m.shape)?;
            if view.generation() != store.generation() {
                return None; // stale: never served
            }
            let rows = view.answer_rows(&m.columns);
            view.hits += 1;
            state.stats.hits += 1;
            rows
        };
        match finalize_view_rows(q, vars, rows, store) {
            Ok(solutions) => Some(solutions),
            Err(_) => {
                // a modifier the shared tail rejected (should not happen
                // inside the fragment): fall back to direct evaluation
                let mut state = self.lock();
                state.stats.hits = state.stats.hits.saturating_sub(1);
                None
            }
        }
    }

    fn observe(&self, m: Option<&ShapeMatch>, store: &Store, elapsed: Duration) {
        self.observe_match(m, store, elapsed);
    }
}
