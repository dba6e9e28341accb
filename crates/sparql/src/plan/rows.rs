//! Solution rows in term space: the [`Frame`] that names a scope's slots,
//! the [`Row`]s of [`Bound`] values handed to expression evaluation and
//! template instantiation, and the solution-modifier tail
//! ([`finalize_rows`]) every `SELECT` answer funnels through — plan
//! output, materialized-view answers and the reference evaluator alike.

use crate::ast::*;
use crate::expr::{eval_expr_limited, ExistsEval};
use crate::results::Solutions;
use crate::{LimitGuard, SparqlError};
use rdfa_model::{Term, Value};
use rdfa_store::{Store, TermId};

/// A bound value: an interned term or a computed (owned) term.
#[derive(Debug, Clone)]
pub enum Bound {
    Id(TermId),
    Term(Term),
}

/// One solution row: a slot per frame variable.
pub type Row = Vec<Option<Bound>>;

/// The variable frame of one (sub)query scope.
#[derive(Debug, Clone, Default)]
pub struct Frame {
    names: Vec<String>,
}

/// The frame of no variables.
pub(crate) static EMPTY_FRAME: Frame = Frame { names: Vec::new() };

impl Frame {
    /// Build a frame over the given variable names.
    pub fn new(names: Vec<String>) -> Self {
        Frame { names }
    }

    /// Slot index of a variable.
    pub fn index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the frame has no variables.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The variable names in slot order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    fn add(&mut self, name: &str) {
        if !self.names.iter().any(|n| n == name) {
            self.names.push(name.to_owned());
        }
    }
}

/// Add every variable occurring in a group pattern (and nested ones) to
/// `frame`, in first-occurrence order. A sub-select contributes only its
/// projected variables; `EXISTS` variables stay scoped to their pattern.
#[doc(hidden)]
pub fn collect_vars(group: &GroupPattern, frame: &mut Frame) {
    for el in &group.elements {
        match el {
            PatternElement::Triple(t) => {
                if let TermPattern::Var(v) = &t.subject {
                    frame.add(v);
                }
                if let PathOrVar::Var(v) = &t.predicate {
                    frame.add(v);
                }
                if let TermPattern::Var(v) = &t.object {
                    frame.add(v);
                }
            }
            PatternElement::Filter(e) => {
                let mut vars = Vec::new();
                e.variables(&mut vars);
                for v in vars {
                    frame.add(&v);
                }
            }
            // MINUS vars participate only in its compatibility check;
            // registering them is harmless (their slots stay unbound)
            PatternElement::Optional(g) | PatternElement::Group(g) | PatternElement::Minus(g) => {
                collect_vars(g, frame);
            }
            PatternElement::Union(arms) => {
                for arm in arms {
                    collect_vars(arm, frame);
                }
            }
            PatternElement::Bind(e, v) => {
                let mut vars = Vec::new();
                e.variables(&mut vars);
                for v in vars {
                    frame.add(&v);
                }
                frame.add(v);
            }
            PatternElement::Values(vars, _) => {
                for v in vars {
                    frame.add(v);
                }
            }
            PatternElement::SubSelect(sub) => match &sub.projection {
                Projection::Items(items) => {
                    for it in items {
                        frame.add(&it.alias);
                    }
                }
                Projection::Star => collect_vars(&sub.where_, frame),
            },
        }
    }
}

/// The effective projection items (expanding `SELECT *` over the frame).
#[doc(hidden)]
pub fn select_items(q: &SelectQuery, frame: &Frame) -> Vec<SelectItem> {
    match &q.projection {
        Projection::Star => frame
            .names()
            .iter()
            .map(|v| SelectItem {
                expr: Expr::Var(v.clone()),
                alias: v.clone(),
            })
            .collect(),
        Projection::Items(items) => items.clone(),
    }
}

/// Shared tail of SELECT evaluation: DISTINCT, ORDER BY, OFFSET/LIMIT, and
/// the final soft-limit surface. `ORDER BY` keys are evaluated over the
/// projected row (frame = `vars`), with `exists` answering any `EXISTS`.
#[doc(hidden)]
pub fn finalize_rows(
    q: &SelectQuery,
    vars: Vec<String>,
    mut out_rows: Vec<Vec<Option<Term>>>,
    store: &Store,
    guard: &LimitGuard,
    exists: &dyn ExistsEval,
) -> Result<Solutions, SparqlError> {
    if q.distinct {
        let mut seen = std::collections::HashSet::new();
        out_rows.retain(|r| seen.insert(r.clone()));
    }

    if !q.order_by.is_empty() {
        // each row's keys are evaluated once; key evaluation is
        // deterministic and the sort stable, so the order is the one a
        // comparator evaluating keys on every comparison would give
        let out_frame = Frame::new(vars.clone());
        let mut keyed: Vec<_> = out_rows
            .into_iter()
            .map(|r| {
                let row: Row = r.iter().map(|t| t.clone().map(Bound::Term)).collect();
                let keys: Vec<Option<Value>> = q
                    .order_by
                    .iter()
                    .map(|spec| eval_expr_limited(&spec.expr, &row, &out_frame, store, guard, exists))
                    .collect();
                (keys, r)
            })
            .collect();
        keyed.sort_by(|(a, _), (b, _)| {
            for ((va, vb), spec) in a.iter().zip(b).zip(&q.order_by) {
                let ord = order_values(va, vb);
                let ord = if spec.descending { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        out_rows = keyed.into_iter().map(|(_, r)| r).collect();
    }

    let offset = q.offset.unwrap_or(0);
    if offset > 0 {
        out_rows.drain(..offset.min(out_rows.len()));
    }
    if let Some(limit) = q.limit {
        out_rows.truncate(limit);
    }

    // surface any limit that tripped softly inside projection/sorting
    guard.surface()?;
    Ok(Solutions::new(vars, out_rows))
}

/// Total order for ORDER BY: unbound < blank < IRI < literal-by-value.
fn order_values(a: &Option<Value>, b: &Option<Value>) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    fn rank(v: &Option<Value>) -> u8 {
        match v {
            None => 0,
            Some(Value::Blank(_)) => 1,
            Some(Value::Iri(_)) => 2,
            Some(_) => 3,
        }
    }
    let (ra, rb) = (rank(a), rank(b));
    if ra != rb {
        return ra.cmp(&rb);
    }
    match (a, b) {
        (Some(x), Some(y)) => x.compare(y).unwrap_or_else(|| x.render().cmp(&y.render())),
        _ => Ordering::Equal,
    }
}
