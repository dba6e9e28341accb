//! A materialized aggregate view: one columnar table per [`AggShape`].
//!
//! The table holds, per group key, a **multiset histogram** of the value
//! column (`BTreeMap<Term, u32>`) plus the base-row count. That one
//! representation finalizes every supported aggregate — `COUNT`, `SUM`,
//! `AVG`, `MIN`, `MAX`, plain or `DISTINCT` — through the engine's own
//! fold ([`rdfa_sparql::views::aggregate_value_list`]), and it supports
//! *deletion*: removing a contribution decrements a histogram slot, after
//! which MIN/MAX re-derive from the surviving keys instead of needing a
//! rescan.
//!
//! Group keys and histogram keys are **value-canonical** terms
//! (`Value::from_term(t).to_term()`) because that is exactly how the
//! engines key groups and deduplicate `DISTINCT` inputs — `"01"^^xsd:int`
//! and `"1"^^xsd:int` must land in one group here too.
//!
//! Finalized aggregate terms are memoized per group and invalidated when
//! the group mutates, so a warm view hit is a handful of `BTreeMap` walks
//! and `Term` clones — no aggregation at all.

use rdfa_model::{Graph, Term, Triple, Value};
use rdfa_sparql::views::{aggregate_value_list, AggCall, AggInput, AggShape, ShapeColumn};
use rdfa_store::{CountKey, Store, TermId};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The value-canonical form of a term: how the engines key groups and
/// deduplicate aggregate inputs.
fn canon(t: &Term) -> Term {
    Value::from_term(t).to_term()
}

/// Aggregate state of one group.
#[derive(Debug, Clone, Default)]
struct GroupAgg {
    /// Number of base rows (pattern matches) in the group.
    rows: u64,
    /// Multiset of the value column, keyed by canonical term.
    values: BTreeMap<Term, u32>,
    /// Finalized aggregate terms, invalidated on any group mutation.
    memo: HashMap<AggCall, Option<Term>>,
}

impl GroupAgg {
    fn add(&mut self, value: Option<&Term>) {
        self.rows += 1;
        if let Some(v) = value {
            *self.values.entry(v.clone()).or_insert(0) += 1;
        }
        self.memo.clear();
    }

    /// Remove one previously-added contribution. Returns `false` if the
    /// contribution was not present (callers treat that as corruption and
    /// rebuild).
    fn remove(&mut self, value: Option<&Term>) -> bool {
        if self.rows == 0 {
            return false;
        }
        if let Some(v) = value {
            match self.values.get_mut(v) {
                Some(n) if *n > 1 => *n -= 1,
                Some(_) => {
                    self.values.remove(v);
                }
                None => return false,
            }
        }
        self.rows -= 1;
        self.memo.clear();
        true
    }

    fn is_empty(&self) -> bool {
        self.rows == 0 && self.values.is_empty()
    }

    /// Finalize one aggregate over this group, replaying the engine fold
    /// over the (expanded) histogram. Memoized until the group mutates.
    fn finalize(&mut self, key: Option<&Term>, call: AggCall) -> Option<Term> {
        if let Some(t) = self.memo.get(&call) {
            return t.clone();
        }
        let values: Vec<Value> = match call.input {
            AggInput::Star => {
                let n = if call.distinct { self.rows.min(1) } else { self.rows };
                vec![Value::Int(1); n as usize]
            }
            AggInput::Group => {
                // the group variable is bound to the key on every row
                let kv = Value::from_term(key.expect("group input on a global aggregate"));
                let n = if call.distinct { self.rows.min(1) } else { self.rows };
                vec![kv; n as usize]
            }
            AggInput::Value => {
                if call.distinct {
                    self.values.keys().map(Value::from_term).collect()
                } else {
                    self.values
                        .iter()
                        .flat_map(|(t, &n)| {
                            std::iter::repeat_with(move || Value::from_term(t)).take(n as usize)
                        })
                        .collect()
                }
            }
        };
        let term = aggregate_value_list(call.op, values).map(|v| v.to_term());
        self.memo.insert(call, term.clone());
        term
    }
}

/// The shape's predicates and restriction constants resolved to one
/// store's interned ids. `None` fields mean the term does not exist in
/// that store — the corresponding pattern matches nothing there.
struct ResolvedShape {
    restrictions: Vec<Option<(TermId, TermId)>>,
    group: Option<Option<TermId>>,
    value: Option<Option<TermId>>,
}

impl ResolvedShape {
    fn resolve(shape: &AggShape, store: &Store) -> ResolvedShape {
        ResolvedShape {
            restrictions: shape
                .restrictions
                .iter()
                .map(|(p, t)| {
                    let p = store.lookup_iri(p)?;
                    let t = store.lookup(t)?;
                    Some((p, t))
                })
                .collect(),
            group: shape.group.as_ref().map(|p| store.lookup_iri(p)),
            value: shape.value.as_ref().map(|p| store.lookup_iri(p)),
        }
    }

    /// True when every restriction triple `(x, p, o)` holds.
    fn restrictions_hold(&self, store: &Store, x: TermId) -> bool {
        self.restrictions.iter().all(|r| match r {
            Some((p, o)) => store.contains([x, *p, *o]),
            None => false, // restriction names an unknown term: no matches
        })
    }
}

/// One materialized aggregate view. See the module docs.
#[derive(Debug, Clone)]
pub struct ViewTable {
    shape: AggShape,
    /// Store generation the table reflects; serving requires an exact
    /// match with the querying snapshot's generation.
    generation: u64,
    /// Group key (canonical term) → aggregate state; the single group of
    /// a global aggregate lives under `None`.
    groups: BTreeMap<Option<Term>, GroupAgg>,
    /// Serve count, for the stats routes.
    pub hits: u64,
}

impl ViewTable {
    /// Materialize the shape's table by scanning `store` once.
    pub fn build(shape: &AggShape, store: &Store) -> ViewTable {
        let mut table = ViewTable {
            shape: shape.clone(),
            generation: store.generation(),
            groups: BTreeMap::new(),
            hits: 0,
        };
        let ids = ResolvedShape::resolve(shape, store);
        table.scan_into(store, &ids);
        table.ensure_global_group();
        table
    }

    /// The shape this table materializes.
    pub fn shape(&self) -> &AggShape {
        &self.shape
    }

    /// Store generation the table is fresh for.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Rough heap footprint, for the selector's memory budget.
    pub fn approx_bytes(&self) -> usize {
        fn term_bytes(t: &Term) -> usize {
            std::mem::size_of::<Term>()
                + match t {
                    Term::Iri(s) | Term::Blank(s) => s.len(),
                    Term::Literal(l) => {
                        l.lexical.len()
                            + l.datatype.len()
                            + l.lang.as_ref().map_or(0, |s| s.len())
                    }
                }
        }
        let mut bytes = std::mem::size_of::<Self>();
        for (key, agg) in &self.groups {
            bytes += 96 + key.as_ref().map_or(0, term_bytes);
            for t in agg.values.keys() {
                bytes += 24 + term_bytes(t);
            }
            bytes += agg.memo.len() * 72;
        }
        bytes
    }

    /// The single group of a global aggregate must exist even when the
    /// pattern matched nothing: `COUNT(*)` over zero rows is still one row.
    fn ensure_global_group(&mut self) {
        if self.shape.group.is_none() {
            self.groups.entry(None).or_default();
        }
    }

    fn scan_into(&mut self, store: &Store, ids: &ResolvedShape) {
        match (&ids.group, &ids.value) {
            // grouped: drive from the grouping predicate's postings
            (Some(Some(pg)), value) => {
                let pv = match value {
                    Some(Some(pv)) => Some(*pv),
                    Some(None) => return, // value predicate unknown: no rows
                    None => None,
                };
                for [x, _, g] in store.matching(None, Some(*pg), None) {
                    if !ids.restrictions_hold(store, x) {
                        continue;
                    }
                    let gkey = Some(canon(store.term(g)));
                    match pv {
                        None => self.groups.entry(gkey).or_default().add(None),
                        Some(pv) => {
                            for v in &store.id_set(Some(x), Some(pv), None, CountKey::Object) {
                                let value = canon(store.term(v));
                                self.groups
                                    .entry(gkey.clone())
                                    .or_default()
                                    .add(Some(&value));
                            }
                        }
                    }
                }
            }
            (Some(None), _) => {} // group predicate unknown: no groups
            // global with a value column: drive from the value postings
            (None, Some(Some(pv))) => {
                for [x, _, v] in store.matching(None, Some(*pv), None) {
                    if !ids.restrictions_hold(store, x) {
                        continue;
                    }
                    let value = canon(store.term(v));
                    self.groups.entry(None).or_default().add(Some(&value));
                }
            }
            (None, Some(None)) => {}
            // restriction-only global count: drive from the first restriction
            (None, None) => {
                let Some(Some((p0, o0))) = self.shape_first_restriction(ids) else {
                    return;
                };
                for x in &store.id_set(None, Some(p0), Some(o0), CountKey::Subject) {
                    if !ids.restrictions_hold(store, x) {
                        continue;
                    }
                    self.groups.entry(None).or_default().add(None);
                }
            }
        }
    }

    fn shape_first_restriction(&self, ids: &ResolvedShape) -> Option<Option<(TermId, TermId)>> {
        ids.restrictions.first().copied()
    }

    /// The rows a single subject contributes: `(group key, value)` pairs,
    /// with multiplicity. Used by incremental maintenance to subtract a
    /// subject's old contribution and add its new one.
    fn subject_rows(
        store: &Store,
        ids: &ResolvedShape,
        x: TermId,
    ) -> Vec<(Option<Term>, Option<Term>)> {
        if !ids.restrictions_hold(store, x) {
            return Vec::new();
        }
        let group_keys: Vec<Option<Term>> = match &ids.group {
            None => vec![None],
            Some(None) => return Vec::new(),
            Some(Some(pg)) => {
                let gs: Vec<Option<Term>> = store
                    .id_set(Some(x), Some(*pg), None, CountKey::Object)
                    .iter()
                    .map(|g| Some(canon(store.term(g))))
                    .collect();
                if gs.is_empty() {
                    return Vec::new();
                }
                gs
            }
        };
        match &ids.value {
            None => group_keys.into_iter().map(|g| (g, None)).collect(),
            Some(None) => Vec::new(),
            Some(Some(pv)) => {
                let vs: Vec<Term> = store
                    .id_set(Some(x), Some(*pv), None, CountKey::Object)
                    .iter()
                    .map(|v| canon(store.term(v)))
                    .collect();
                let mut rows = Vec::with_capacity(group_keys.len() * vs.len());
                for g in &group_keys {
                    for v in &vs {
                        rows.push((g.clone(), Some(v.clone())));
                    }
                }
                rows
            }
        }
    }

    /// Incrementally carry the table from `before`'s state to `after`'s:
    /// for every affected resource, subtract its contribution against
    /// `before` and add its contribution against `after`. Returns `false`
    /// when the delta did not reconcile (a remove found nothing to
    /// remove) — the caller must fall back to a full rebuild.
    ///
    /// Correctness relies on the affected set covering every subject whose
    /// *visible* (explicit + inferred) star could have changed; the
    /// manager guarantees that by including all delta subjects and IRI
    /// objects, and by rebuilding outright on schema-predicate deltas.
    pub fn maintain(
        &mut self,
        before: &Store,
        after: &Store,
        affected: &BTreeSet<Term>,
    ) -> bool {
        let before_ids = ResolvedShape::resolve(&self.shape, before);
        let after_ids = ResolvedShape::resolve(&self.shape, after);
        for term in affected {
            if let Some(x) = before.lookup(term) {
                for (g, v) in Self::subject_rows(before, &before_ids, x) {
                    let ok = match self.groups.get_mut(&g) {
                        Some(agg) => agg.remove(v.as_ref()),
                        None => false,
                    };
                    if !ok {
                        return false;
                    }
                    if self.groups.get(&g).is_some_and(|a| a.is_empty()) && g.is_some() {
                        self.groups.remove(&g);
                    }
                }
            }
            if let Some(x) = after.lookup(term) {
                for (g, v) in Self::subject_rows(after, &after_ids, x) {
                    self.groups.entry(g).or_default().add(v.as_ref());
                }
            }
        }
        self.ensure_global_group();
        self.generation = after.generation();
        true
    }

    /// Rebuild from scratch against `store` (the fallback when a delta
    /// cannot be reasoned about locally).
    pub fn rebuild(&mut self, store: &Store) {
        let fresh = ViewTable::build(&self.shape, store);
        self.groups = fresh.groups;
        self.generation = fresh.generation;
    }

    /// Produce the projected output rows for one matched query's columns,
    /// **unordered** (the caller applies the query's solution modifiers
    /// through the engine's shared tail).
    pub fn answer_rows(&mut self, columns: &[ShapeColumn]) -> Vec<Vec<Option<Term>>> {
        let mut rows = Vec::with_capacity(self.groups.len());
        for (key, agg) in self.groups.iter_mut() {
            let row = columns
                .iter()
                .map(|col| match col {
                    ShapeColumn::GroupKey => key.clone(),
                    ShapeColumn::Aggregate(call) => agg.finalize(key.as_ref(), *call),
                })
                .collect();
            rows.push(row);
        }
        rows
    }

    /// Export the table as an RDF dataset (the paper's §5.3.3
    /// "reload results as a new RDF dataset" mechanism): one resource per
    /// group carrying its key, base-row count, and the value histogram.
    /// Loading the graph into a fresh store makes the aggregate itself
    /// queryable with SPARQL.
    pub fn to_graph(&self, base_iri: &str) -> Graph {
        const NS: &str = "urn:rdfa:views#";
        let mut graph = Graph::new();
        for (i, (key, agg)) in self.groups.iter().enumerate() {
            let group = Term::iri(format!("{base_iri}/group/{i}"));
            if let Some(k) = key {
                graph.push(Triple::new(
                    group.clone(),
                    Term::iri(format!("{NS}key")),
                    k.clone(),
                ));
            }
            graph.push(Triple::new(
                group.clone(),
                Term::iri(format!("{NS}rows")),
                Value::Int(agg.rows as i64).to_term(),
            ));
            for (j, (value, &n)) in agg.values.iter().enumerate() {
                let slot = Term::iri(format!("{base_iri}/group/{i}/value/{j}"));
                graph.push(Triple::new(
                    group.clone(),
                    Term::iri(format!("{NS}slot")),
                    slot.clone(),
                ));
                graph.push(Triple::new(slot.clone(), Term::iri(format!("{NS}value")), value.clone()));
                graph.push(Triple::new(
                    slot,
                    Term::iri(format!("{NS}multiplicity")),
                    Value::Int(n as i64).to_term(),
                ));
            }
        }
        graph
    }

    /// Per-group base-row counts, keyed by group term. For the facet
    /// integration: a `GROUP BY rdf:type` / no-value view's row counts are
    /// exactly the per-class instance counts.
    pub fn group_rows(&self) -> impl Iterator<Item = (&Term, u64)> + '_ {
        self.groups
            .iter()
            .filter_map(|(k, agg)| k.as_ref().map(|t| (t, agg.rows)))
    }
}
