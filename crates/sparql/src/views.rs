//! The engine-side contract for materialized aggregate views.
//!
//! A **view catalog** (implemented by `rdfa-views`) observes the query
//! workload through [`Engine::prepare`](crate::Engine::prepare)/execute and answers recurring
//! aggregate queries from precomputed columnar tables instead of
//! re-scanning the store. This module defines the pieces the engine needs
//! without depending on the view implementation:
//!
//! - [`AggShape`] — the canonical form of one *viewable* aggregate query:
//!   a star-shaped basic graph pattern around a single subject variable,
//!   normalized to (restriction signature) × (grouping dimension) ×
//!   (aggregated value property). Queries that differ only in variable
//!   names, aggregate ops, aliases, `ORDER BY` direction, or `LIMIT`
//!   share one shape — and therefore one materialized table.
//! - [`match_aggregate_shape`] — the canonicalizer: maps a parsed
//!   [`SelectQuery`] into the viewable fragment, or `None` when the query
//!   falls outside it.
//! - [`ViewCatalog`] — the hook [`crate::EngineBuilder::views`] accepts.
//!
//! # The viewable fragment
//!
//! A query matches iff its `WHERE` clause is a conjunction of simple
//! triple patterns sharing one subject variable `?x`, with constant IRI
//! predicates:
//!
//! ```sparql
//! SELECT ?g (AVG(?v) AS ?a) WHERE {
//!   ?x a <C> .            # restriction: class membership
//!   ?x <p> <const> .      # restriction: constant object
//!   ?x <pg> ?g .          # grouping dimension  (GROUP BY ?g)
//!   ?x <pv> ?v .          # aggregated value
//! } GROUP BY ?g ORDER BY ?g
//! ```
//!
//! Aggregates are limited to the order-independent ops `COUNT`, `SUM`,
//! `AVG`, `MIN`, `MAX` (plain or `DISTINCT`) over `*`, the group variable,
//! or the value variable. `HAVING`, `SELECT DISTINCT`, filters, paths,
//! `OPTIONAL`/`UNION`, and sub-selects are out of the fragment. Grouped
//! queries must `ORDER BY` the projected group column first — that makes
//! the output row order a pure function of the result set, so a view can
//! reproduce it byte-identically; global aggregates (no `GROUP BY`)
//! produce a single row and need no ordering.

use crate::ast::{
    AggregateOp, Expr, PathOrVar, PatternElement, Projection, PropertyPath, SelectItem,
    SelectQuery, TermPattern,
};
use crate::expr::NoExists;
use crate::plan::rows::finalize_rows;
use crate::results::Solutions;
use crate::{LimitGuard, SparqlError};
use rdfa_model::{Term, Value};
use rdfa_store::Store;
use std::time::Duration;

/// The canonical shape of a viewable aggregate query. Two queries with
/// equal shapes are answerable from the same materialized table.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AggShape {
    /// Constant-object restriction patterns `(predicate IRI, object)`,
    /// sorted; class restrictions (`?x a <C>`) appear as `rdf:type` here.
    pub restrictions: Vec<(String, Term)>,
    /// Predicate IRI of the grouping triple (`?x <p> ?g`), `None` for a
    /// global (single-row) aggregate.
    pub group: Option<String>,
    /// Predicate IRI of the aggregated-value triple (`?x <p> ?v`).
    pub value: Option<String>,
}

impl AggShape {
    /// A stable human-readable key for stats, routes, and explain output.
    pub fn key(&self) -> String {
        let mut parts = Vec::new();
        for (p, t) in &self.restrictions {
            parts.push(format!("{p}={}", t.display_name()));
        }
        let restr = if parts.is_empty() { "*".to_owned() } else { parts.join("&") };
        format!(
            "where[{restr}] group[{}] value[{}]",
            self.group.as_deref().unwrap_or("-"),
            self.value.as_deref().unwrap_or("-"),
        )
    }
}

/// What one aggregate draws its per-row input from, within a shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggInput {
    /// `COUNT(*)`-style: every base row contributes `1`.
    Star,
    /// The group variable (bound to the group key on every row).
    Group,
    /// The value variable.
    Value,
}

/// One aggregate item of a matched query's projection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AggCall {
    pub op: AggregateOp,
    pub distinct: bool,
    pub input: AggInput,
}

/// One projected output column of a matched query.
#[derive(Debug, Clone, PartialEq)]
pub enum ShapeColumn {
    /// The group key.
    GroupKey,
    /// An aggregate over the group's rows.
    Aggregate(AggCall),
}

/// A query matched into the viewable fragment: its canonical [`AggShape`]
/// plus everything needed to render this particular query's answer from
/// the shape's table (column order, which serve-time modifiers apply).
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeMatch {
    pub shape: AggShape,
    /// Output columns, in projection order.
    pub columns: Vec<ShapeColumn>,
}

/// Match a `SELECT` query into the viewable fragment. Returns `None` for
/// anything the fragment cannot express *or* whose output row order a
/// view could not reproduce deterministically.
pub fn match_aggregate_shape(q: &SelectQuery) -> Option<ShapeMatch> {
    if q.distinct || q.having.is_some() {
        return None;
    }
    let items = match &q.projection {
        Projection::Items(items) => items,
        Projection::Star => return None,
    };

    // -- WHERE: simple triple patterns around one subject variable --------
    let mut subject: Option<&str> = None;
    // (predicate IRI, object var) pairs and (predicate IRI, const) pairs
    let mut var_triples: Vec<(String, String)> = Vec::new();
    let mut restrictions: Vec<(String, Term)> = Vec::new();
    for el in &q.where_.elements {
        let tp = match el {
            PatternElement::Triple(tp) => tp,
            _ => return None,
        };
        let s = match &tp.subject {
            TermPattern::Var(v) => v.as_str(),
            TermPattern::Term(_) => return None,
        };
        match subject {
            None => subject = Some(s),
            Some(prev) if prev == s => {}
            Some(_) => return None,
        }
        let p = match &tp.predicate {
            PathOrVar::Path(PropertyPath::Iri(iri)) => iri.clone(),
            _ => return None,
        };
        match &tp.object {
            TermPattern::Var(v) => {
                if v == s {
                    return None; // ?x <p> ?x — outside the star fragment
                }
                var_triples.push((p, v.clone()));
            }
            TermPattern::Term(t) => restrictions.push((p, t.clone())),
        }
    }
    let subject = subject?; // at least one triple pattern
    restrictions.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    restrictions.dedup();

    // -- GROUP BY: none, or exactly one plain variable --------------------
    let group_var: Option<&str> = match q.group_by.as_slice() {
        [] => None,
        [Expr::Var(g)] => Some(g.as_str()),
        _ => return None,
    };

    // Each object variable must be bound by exactly one triple (a repeated
    // object variable is a join the shape cannot express), and must be the
    // group variable or the single value variable.
    let mut group_prop: Option<String> = None;
    let mut value: Option<(String, String)> = None; // (prop, var)
    for (i, (p, v)) in var_triples.iter().enumerate() {
        if var_triples.iter().skip(i + 1).any(|(_, w)| w == v) {
            return None;
        }
        if Some(v.as_str()) == group_var {
            group_prop = Some(p.clone());
        } else if value.is_none() {
            value = Some((p.clone(), v.clone()));
        } else {
            return None; // two non-group object variables
        }
    }
    if group_var.is_some() && group_prop.is_none() {
        return None; // GROUP BY a variable the pattern does not bind
    }
    let value_var = value.as_ref().map(|(_, v)| v.clone());

    // -- projection: group key and aggregate columns only -----------------
    let mut columns = Vec::with_capacity(items.len());
    let mut has_aggregate = false;
    for SelectItem { expr, .. } in items {
        match expr {
            Expr::Var(v) if Some(v.as_str()) == group_var => {
                columns.push(ShapeColumn::GroupKey);
            }
            Expr::Aggregate(op, distinct, inner) => {
                if !matches!(
                    op,
                    AggregateOp::Count
                        | AggregateOp::Sum
                        | AggregateOp::Avg
                        | AggregateOp::Min
                        | AggregateOp::Max
                ) {
                    return None; // SAMPLE / GROUP_CONCAT depend on row order
                }
                let input = match inner.as_deref() {
                    None => AggInput::Star,
                    Some(Expr::Var(v)) if Some(v.as_str()) == group_var => AggInput::Group,
                    Some(Expr::Var(v)) if Some(v.as_str()) == value_var.as_deref() => {
                        AggInput::Value
                    }
                    _ => return None,
                };
                has_aggregate = true;
                columns.push(ShapeColumn::Aggregate(AggCall { op: *op, distinct: *distinct, input }));
            }
            _ => return None,
        }
    }
    if group_var.is_none() && !has_aggregate {
        return None; // not an aggregate query at all
    }
    let _ = subject;

    // -- ORDER BY: grouped output must be sorted by the group column ------
    match group_var {
        None => {} // single row: any ORDER BY is a no-op
        Some(g) => {
            // the first sort key must be a projected alias of the group
            // variable — that is what `finalize_rows` can actually sort on
            let group_aliases: Vec<&str> = items
                .iter()
                .filter(|it| matches!(&it.expr, Expr::Var(v) if v == g))
                .map(|it| it.alias.as_str())
                .collect();
            match q.order_by.first() {
                Some(spec) => match &spec.expr {
                    Expr::Var(v) if group_aliases.iter().any(|a| a == v) => {}
                    _ => return None,
                },
                None => return None,
            }
        }
    }

    // the value triple stays part of the shape identity even when no
    // aggregate reads it: an unread `?x <p> ?v` still multiplies the base
    // rows (and filters subjects without <p>), so `COUNT(*)` with and
    // without it are different queries
    let value_prop = value.map(|(p, _)| p);

    Some(ShapeMatch {
        shape: AggShape { restrictions, group: group_prop, value: value_prop },
        columns,
    })
}

/// The engine's hook into a view subsystem. Implemented by the
/// `ViewManager` of `rdfa-views`; the engine only ever calls these two
/// methods.
pub trait ViewCatalog: Send + Sync {
    /// Try to answer a matched query from a **fresh** materialized view
    /// (one keyed to exactly `store.generation()`). `None` means "no view
    /// for this shape, or it is stale" — the caller falls back to direct
    /// evaluation. An `Ok` answer must be byte-identical to what direct
    /// evaluation would produce.
    fn serve(&self, m: &ShapeMatch, q: &SelectQuery, store: &Store) -> Option<Solutions>;

    /// Record one *direct* (non-view) execution. `m` is present when the
    /// query is in the viewable fragment; `elapsed` is what the direct
    /// evaluation cost. Implementations may materialize a view as a side
    /// effect (workload-driven selection).
    fn observe(&self, m: Option<&ShapeMatch>, store: &Store, elapsed: Duration);
}

/// Replay the aggregate fold of the engines over a plain value list:
/// identical update/finalize rules, including SUM/AVG poisoning by a
/// failed addition. This is what a view table uses to finalize a group so
/// its answers match direct evaluation exactly.
pub fn aggregate_value_list(op: AggregateOp, values: Vec<Value>) -> Option<Value> {
    crate::plan::aggregate_values(op, values)
}

/// Apply the solution modifiers (`DISTINCT` is excluded from the fragment,
/// so effectively `ORDER BY`/`OFFSET`/`LIMIT`) to view-produced rows using
/// the **same** shared tail both engines funnel through, and wrap them as
/// [`Solutions`]. `vars` must be the projection aliases in order.
pub fn finalize_view_rows(
    q: &SelectQuery,
    vars: Vec<String>,
    rows: Vec<Vec<Option<Term>>>,
    store: &Store,
) -> Result<Solutions, SparqlError> {
    finalize_rows(q, vars, rows, store, &LimitGuard::unlimited(), &NoExists)
}

/// The projection aliases of a `SELECT` with explicit items (the `vars`
/// header a view answer must reproduce).
pub fn projection_aliases(q: &SelectQuery) -> Option<Vec<String>> {
    match &q.projection {
        Projection::Items(items) => Some(items.iter().map(|it| it.alias.clone()).collect()),
        Projection::Star => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::QueryForm;

    fn match_of(text: &str) -> Option<ShapeMatch> {
        let q = parse_query(text).unwrap();
        match &q.form {
            QueryForm::Select(s) => match_aggregate_shape(s),
            _ => panic!("not a select"),
        }
    }

    const PREFIX: &str = "PREFIX ex: <http://example.org/> ";

    #[test]
    fn grouped_aggregate_matches() {
        let m = match_of(&format!(
            "{PREFIX}SELECT ?m (COUNT(*) AS ?n) (AVG(?p) AS ?a) WHERE {{ \
               ?x a ex:Laptop ; ex:manufacturer ?m ; ex:price ?p . }} \
             GROUP BY ?m ORDER BY ?m"
        ))
        .expect("should match");
        assert_eq!(m.shape.group.as_deref(), Some("http://example.org/manufacturer"));
        assert_eq!(m.shape.value.as_deref(), Some("http://example.org/price"));
        assert_eq!(m.shape.restrictions.len(), 1);
        assert_eq!(m.columns.len(), 3);
        assert_eq!(m.columns[0], ShapeColumn::GroupKey);
    }

    #[test]
    fn variable_renaming_shares_a_shape() {
        let a = match_of(&format!(
            "{PREFIX}SELECT ?m (SUM(?p) AS ?s) WHERE {{ ?x ex:manufacturer ?m ; ex:price ?p }} \
             GROUP BY ?m ORDER BY ?m"
        ))
        .unwrap();
        let b = match_of(&format!(
            "{PREFIX}SELECT ?grp (MIN(?val) AS ?lo) WHERE {{ ?s ex:manufacturer ?grp ; ex:price ?val }} \
             GROUP BY ?grp ORDER BY DESC(?grp)"
        ));
        // DESC over the group column is still deterministic… but the first
        // order key must be the group alias, which it is
        let b = b.unwrap();
        assert_eq!(a.shape, b.shape);
        assert_eq!(a.shape.key(), b.shape.key());
    }

    #[test]
    fn global_aggregate_matches_without_order() {
        let m = match_of(&format!(
            "{PREFIX}SELECT (COUNT(*) AS ?n) WHERE {{ ?x a ex:Laptop }}"
        ))
        .unwrap();
        assert!(m.shape.group.is_none());
        assert!(m.shape.value.is_none());
        assert_eq!(m.shape.restrictions.len(), 1);
    }

    #[test]
    fn grouped_without_order_by_is_rejected() {
        // output order would be engine-internal (first-seen), which a
        // sorted table cannot reproduce
        assert!(match_of(&format!(
            "{PREFIX}SELECT ?m (COUNT(*) AS ?n) WHERE {{ ?x ex:manufacturer ?m }} GROUP BY ?m"
        ))
        .is_none());
    }

    #[test]
    fn out_of_fragment_constructs_are_rejected() {
        for q in [
            // FILTER
            format!("{PREFIX}SELECT (COUNT(*) AS ?n) WHERE {{ ?x ex:price ?p . FILTER(?p > 1) }}"),
            // OPTIONAL
            format!(
                "{PREFIX}SELECT (COUNT(*) AS ?n) WHERE {{ ?x a ex:L . OPTIONAL {{ ?x ex:p ?v }} }}"
            ),
            // two subjects
            format!("{PREFIX}SELECT (COUNT(*) AS ?n) WHERE {{ ?x ex:p ?y . ?y ex:q ?z }}"),
            // HAVING
            format!(
                "{PREFIX}SELECT ?m (COUNT(*) AS ?n) WHERE {{ ?x ex:m ?m }} GROUP BY ?m \
                 HAVING(COUNT(*) > 1) ORDER BY ?m"
            ),
            // SELECT DISTINCT
            format!("{PREFIX}SELECT DISTINCT (COUNT(*) AS ?n) WHERE {{ ?x a ex:L }}"),
            // order-dependent aggregate
            format!(
                "{PREFIX}SELECT ?m (SAMPLE(?p) AS ?s) WHERE {{ ?x ex:m ?m ; ex:p ?p }} \
                 GROUP BY ?m ORDER BY ?m"
            ),
            // non-aggregate, non-grouped
            format!("{PREFIX}SELECT ?p WHERE {{ ?x ex:price ?p }}"),
        ] {
            assert!(match_of(&q).is_none(), "should be rejected: {q}");
        }
    }

    #[test]
    fn restriction_order_is_canonical() {
        let a = match_of(&format!(
            "{PREFIX}SELECT (COUNT(*) AS ?n) WHERE {{ ?x a ex:L ; ex:color ex:Red }}"
        ))
        .unwrap();
        let b = match_of(&format!(
            "{PREFIX}SELECT (COUNT(*) AS ?n) WHERE {{ ?x ex:color ex:Red . ?x a ex:L }}"
        ))
        .unwrap();
        assert_eq!(a.shape, b.shape);
    }
}
