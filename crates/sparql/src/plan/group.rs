//! Grouping and aggregation: the id-space hash fold and the streaming
//! accumulators behind `GROUP BY`, `HAVING` and aggregate projections.

use super::rows::Row;
use super::{Executor, ExprColumn};
use crate::ast::*;
use crate::batch::{Batch, EId, IdMap, IdSet, TermArena, UNBOUND};
use crate::SparqlError;
use rdfa_model::{Term, Value};
use rdfa_store::Store;
use std::collections::HashSet;

// ---- aggregation state -----------------------------------------------------

/// One distinct aggregate call appearing in the projection or `HAVING`.
#[derive(Debug, Clone, PartialEq)]
struct AggSpec {
    op: AggregateOp,
    distinct: bool,
    inner: Option<Expr>,
}

/// Collect the distinct aggregate calls of an expression. `Call` and
/// `EXISTS` arguments are *not* descended into: they are leaves evaluated
/// on the group's representative row, as in the reference evaluator.
fn collect_agg_specs(e: &Expr, out: &mut Vec<AggSpec>) {
    match e {
        Expr::Aggregate(op, distinct, inner) => {
            let spec = AggSpec { op: *op, distinct: *distinct, inner: inner.as_deref().cloned() };
            if !out.contains(&spec) {
                out.push(spec);
            }
        }
        Expr::Or(a, b) | Expr::And(a, b) | Expr::Compare(a, _, b) | Expr::Arith(a, _, b) => {
            collect_agg_specs(a, out);
            collect_agg_specs(b, out);
        }
        Expr::Not(x) | Expr::Neg(x) => collect_agg_specs(x, out),
        Expr::In(x, list, _) => {
            collect_agg_specs(x, out);
            for item in list {
                collect_agg_specs(item, out);
            }
        }
        Expr::Var(_) | Expr::Const(_) | Expr::Call(..) | Expr::Exists(..) => {}
    }
}

/// Streaming accumulator for one aggregate over one group. The update and
/// finalize rules replicate the non-streaming fold exactly,
/// including its poisoning behaviour (a failing `add` turns the whole
/// SUM/AVG into an unbound result).
#[derive(Debug)]
enum AggState {
    Count(i64),
    /// `None` = poisoned by a failed addition.
    Sum(Option<Value>),
    Avg { acc: Option<Value>, n: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
    Sample(Option<Value>),
    Concat(Vec<String>),
    /// DISTINCT aggregates buffer first-occurrence values and replay the
    /// non-streaming fold at finalize, for exact parity. Over an
    /// expression, occurrences are told apart by the value's term.
    Distinct { op: AggregateOp, seen: HashSet<Term>, values: Vec<Value> },
    /// DISTINCT over a variable: occurrences are told apart by canonical
    /// id, which is the same as by the value's term ([`Executor::canon_id`]).
    /// `values` holds the first occurrences' values, except for `COUNT`,
    /// which needs none.
    DistinctIds { op: AggregateOp, seen: IdSet<EId>, values: Vec<Value> },
}

/// A MIN/MAX step: `v` replaces the incumbent only when it orders strictly
/// `wins` against it, so ties keep the first-seen value.
fn keep_if(best: &mut Option<Value>, v: &Value, wins: std::cmp::Ordering) {
    if best.as_ref().is_none_or(|b| v.compare(b) == Some(wins)) {
        *best = Some(v.clone());
    }
}

impl AggState {
    /// A fresh state for `spec`; `by_id` when its input is a variable.
    fn new(spec: &AggSpec, by_id: bool) -> AggState {
        if spec.distinct {
            let op = spec.op;
            return if by_id {
                AggState::DistinctIds { op, seen: IdSet::default(), values: Vec::new() }
            } else {
                AggState::Distinct { op, seen: HashSet::new(), values: Vec::new() }
            };
        }
        match spec.op {
            AggregateOp::Count => AggState::Count(0),
            AggregateOp::Sum => AggState::Sum(Some(Value::Int(0))),
            AggregateOp::Avg => AggState::Avg { acc: Some(Value::Int(0)), n: 0 },
            AggregateOp::Min => AggState::Min(None),
            AggregateOp::Max => AggState::Max(None),
            AggregateOp::Sample => AggState::Sample(None),
            AggregateOp::GroupConcat => AggState::Concat(Vec::new()),
        }
    }

    fn update(&mut self, v: &Value) {
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum(acc) => {
                if let Some(a) = acc.take() {
                    *acc = a.add(v);
                }
            }
            AggState::Avg { acc, n } => {
                if let Some(a) = acc.take() {
                    *acc = a.add(v);
                }
                *n += 1;
            }
            AggState::Min(best) => keep_if(best, v, std::cmp::Ordering::Less),
            AggState::Max(best) => keep_if(best, v, std::cmp::Ordering::Greater),
            AggState::Sample(s) => {
                if s.is_none() {
                    *s = Some(v.clone());
                }
            }
            AggState::Concat(parts) => parts.push(v.render()),
            AggState::Distinct { seen, values, .. } => {
                if seen.insert(v.to_term()) {
                    values.push(v.clone());
                }
            }
            AggState::DistinctIds { .. } => unreachable!("id-keyed DISTINCT is fed by the fold"),
        }
    }

    fn finalize(self) -> Option<Value> {
        match self {
            AggState::Count(n) => Some(Value::Int(n)),
            AggState::Sum(acc) => acc,
            AggState::Avg { acc, n } => {
                if n == 0 {
                    None
                } else {
                    acc?.div(&Value::Int(n))
                }
            }
            AggState::Min(best) | AggState::Max(best) | AggState::Sample(best) => best,
            AggState::Concat(parts) => Some(Value::Str(parts.join(" "), None)),
            AggState::Distinct { op, values, .. } => aggregate_values(op, values),
            AggState::DistinctIds { op: AggregateOp::Count, seen, .. } => {
                Some(Value::Int(seen.len() as i64))
            }
            AggState::DistinctIds { op, values, .. } => aggregate_values(op, values),
        }
    }
}

/// The non-streaming aggregate fold (also the reference evaluator's), used to
/// finalize DISTINCT accumulators over their deduplicated value list —
/// and, via [`crate::views::aggregate_value_list`], by materialized view
/// tables so their answers replicate engine aggregation exactly.
pub(crate) fn aggregate_values(op: AggregateOp, values: Vec<Value>) -> Option<Value> {
    match op {
        AggregateOp::Count => Some(Value::Int(values.len() as i64)),
        AggregateOp::Sum => {
            let mut acc = Value::Int(0);
            for v in &values {
                acc = acc.add(v)?;
            }
            Some(acc)
        }
        AggregateOp::Avg => {
            if values.is_empty() {
                return None;
            }
            let n = values.len() as i64;
            let mut acc = Value::Int(0);
            for v in &values {
                acc = acc.add(v)?;
            }
            acc.div(&Value::Int(n))
        }
        AggregateOp::Min | AggregateOp::Max => {
            let wins = if op == AggregateOp::Min {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Greater
            };
            let mut best: Option<Value> = None;
            for v in &values {
                keep_if(&mut best, v, wins);
            }
            best
        }
        AggregateOp::Sample => values.into_iter().next(),
        AggregateOp::GroupConcat => {
            let joined = values.iter().map(Value::render).collect::<Vec<_>>().join(" ");
            Some(Value::Str(joined, None))
        }
    }
}

/// One group under construction: the ids of its first row (the
/// representative row non-aggregate expressions are evaluated on; empty for
/// the one group of an aggregate over no rows) and one state per spec.
struct GroupAcc {
    rep: Vec<EId>,
    states: Vec<AggState>,
}

/// Where one `GROUP BY` key is read from.
enum KeyIn {
    /// A variable at this frame slot, by canonical id.
    Slot(usize),
    /// A variable absent from the frame: always unbound.
    Never,
    /// Any other expression; `canon[i]` is the canonical id of `col.vals[i]`.
    Expr { col: ExprColumn, canon: Vec<EId> },
}

/// Where one aggregate draws its per-row input from.
enum AggIn {
    /// `COUNT(*)`: every row contributes `1`.
    Star,
    /// A variable absent from the frame: never contributes.
    Never,
    /// A plain variable at frame slot `col`; for a DISTINCT aggregate,
    /// `canon` holds the batch's canonical ids of the column.
    Slot { col: usize, distinct: bool, canon: Vec<EId> },
    /// Any other expression.
    Expr(ExprColumn),
}

/// Fresh per-group states for `specs` fed by `inputs`.
fn fresh_states(specs: &[AggSpec], inputs: &[AggIn]) -> Vec<AggState> {
    specs
        .iter()
        .zip(inputs)
        .map(|(spec, input)| AggState::new(spec, matches!(input, AggIn::Slot { .. })))
        .collect()
}

/// Group number by canonical key: zero keys are one group and hash
/// nothing, one key hashes its id, and more keys hash the row's key ids,
/// copied only for a new group.
enum GroupIndex {
    Single,
    One(IdMap<EId, usize>),
    Many(IdMap<Vec<EId>, usize>),
}

impl GroupIndex {
    fn new(n_keys: usize) -> Self {
        match n_keys {
            0 => GroupIndex::Single,
            1 => GroupIndex::One(IdMap::default()),
            _ => GroupIndex::Many(IdMap::default()),
        }
    }

    /// The group of the canonical key `key`; a key not seen before gets
    /// the number `next`.
    fn group(&mut self, key: &[EId], next: usize) -> usize {
        match self {
            GroupIndex::Single => 0,
            GroupIndex::One(map) => *map.entry(key[0]).or_insert(next),
            GroupIndex::Many(map) => match map.get(key) {
                Some(&g) => g,
                None => {
                    map.insert(key.to_vec(), next);
                    next
                }
            },
        }
    }
}

/// A grouped `SELECT`'s fold in progress: the groups so far, in first-seen
/// order, and the memos that outlive one batch (canonical ids, decoded
/// values, memoized key and input expressions). Batches arrive one morsel
/// at a time ([`Executor::fold_batch`]), so no full-size column is built.
pub(super) struct Fold {
    specs: Vec<AggSpec>,
    keys: Vec<KeyIn>,
    /// The batch's canonical key ids, one column per key.
    key_ids: Vec<Vec<EId>>,
    inputs: Vec<AggIn>,
    index: GroupIndex,
    /// A lone variable key's groups by the variable's own id, which
    /// decides the group with one lookup once the id has been seen.
    by_id: IdMap<EId, usize>,
    groups: Vec<GroupAcc>,
    /// The batch's rows' group numbers.
    gids: Vec<usize>,
    canon: IdMap<EId, EId>,
    values: IdMap<EId, Value>,
}

impl Fold {
    /// Put row `r` of `batch` in group `g`, opening the group with the row
    /// as its representative when `g` is the next new number.
    fn assign(&mut self, g: usize, batch: &Batch, r: usize) {
        if g == self.groups.len() {
            let states = fresh_states(&self.specs, &self.inputs);
            self.groups.push(GroupAcc { rep: batch.row(r), states });
        }
        self.gids.push(g);
    }
}

/// The typed value of execution id `id`, decoded on its first use.
fn decode<'m>(
    store: &Store,
    arena: &TermArena,
    memo: &'m mut IdMap<EId, Value>,
    id: EId,
) -> &'m Value {
    memo.entry(id).or_insert_with(|| Value::from_term(arena.term(store, id)))
}

impl<'s> Executor<'s> {
    // ---- grouping / aggregation --------------------------------------------

    /// An empty fold for `q`'s keys and the distinct aggregate calls of its
    /// projection and `HAVING`.
    pub(super) fn fold_start(&self, q: &SelectQuery, items: &[SelectItem]) -> Fold {
        let mut specs: Vec<AggSpec> = Vec::new();
        for it in items {
            collect_agg_specs(&it.expr, &mut specs);
        }
        if let Some(h) = &q.having {
            collect_agg_specs(h, &mut specs);
        }
        let keys: Vec<KeyIn> = q
            .group_by
            .iter()
            .map(|e| match e {
                Expr::Var(v) => self.frame.index(v).map_or(KeyIn::Never, KeyIn::Slot),
                _ => KeyIn::Expr { col: self.column(e), canon: Vec::new() },
            })
            .collect();
        let inputs = specs
            .iter()
            .map(|s| match &s.inner {
                None => AggIn::Star,
                Some(Expr::Var(v)) => match self.frame.index(v) {
                    Some(col) => AggIn::Slot { col, distinct: s.distinct, canon: Vec::new() },
                    None => AggIn::Never,
                },
                Some(e) => AggIn::Expr(self.column(e)),
            })
            .collect();
        Fold {
            specs,
            key_ids: vec![Vec::new(); keys.len()],
            index: GroupIndex::new(keys.len()),
            keys,
            inputs,
            by_id: IdMap::default(),
            groups: Vec::new(),
            gids: Vec::new(),
            canon: IdMap::default(),
            values: IdMap::default(),
        }
    }

    /// Hash-aggregate one morsel's rows into the fold's groups, in
    /// first-seen order. Keys and inputs become columns first: a variable
    /// key as canonical ids, an expression key as the canonical ids of its
    /// values. `COUNT` of a variable tests the slot for binding, DISTINCT
    /// over a variable dedupes on canonical ids, and any other use of a
    /// variable decodes its value once per distinct id. Probes the guard
    /// first, so the fold stops at a deadline or a cancel within a morsel.
    pub(super) fn fold_batch(&mut self, fold: &mut Fold, batch: &Batch) -> Result<(), SparqlError> {
        self.guard.probe()?;
        let n = batch.len();
        fold.gids.clear();
        if let [KeyIn::Slot(c)] = fold.keys[..] {
            for (r, &id) in batch.column(c).iter().enumerate() {
                let g = match fold.by_id.get(&id) {
                    Some(&g) => g,
                    None => {
                        let key = self.canon_id(id, &mut fold.canon);
                        let g = fold.index.group(&[key], fold.groups.len());
                        fold.by_id.insert(id, g);
                        g
                    }
                };
                fold.assign(g, batch, r);
            }
        } else {
            for (key, ids) in fold.keys.iter_mut().zip(&mut fold.key_ids) {
                ids.clear();
                match key {
                    KeyIn::Slot(c) => {
                        for &id in batch.column(*c) {
                            ids.push(self.canon_id(id, &mut fold.canon));
                        }
                    }
                    KeyIn::Never => ids.resize(n, UNBOUND),
                    KeyIn::Expr { col, canon } => {
                        self.eval_column(col, batch);
                        if col.slot.is_none() {
                            canon.clear();
                        }
                        let (store, arena) = (self.store, &mut self.arena);
                        for v in &col.vals[canon.len()..] {
                            let id =
                                v.as_ref().map_or(UNBOUND, |v| arena.intern(store, &v.to_term()));
                            canon.push(id);
                        }
                        ids.extend(col.idx.iter().map(|&i| canon[i as usize]));
                    }
                }
            }
            let mut key: Vec<EId> = Vec::with_capacity(fold.key_ids.len());
            for r in 0..n {
                key.clear();
                key.extend(fold.key_ids.iter().map(|col| col[r]));
                let g = fold.index.group(&key, fold.groups.len());
                fold.assign(g, batch, r);
            }
        }
        for input in &mut fold.inputs {
            match input {
                AggIn::Slot { col, distinct: true, canon } => {
                    canon.clear();
                    for &id in batch.column(*col) {
                        canon.push(self.canon_id(id, &mut fold.canon));
                    }
                }
                AggIn::Expr(col) => self.eval_column(col, batch),
                _ => {}
            }
        }
        let (store, arena) = (self.store, &self.arena);
        for (r, &g) in fold.gids.iter().enumerate() {
            for (state, input) in fold.groups[g].states.iter_mut().zip(&fold.inputs) {
                match input {
                    AggIn::Never => {}
                    AggIn::Star => state.update(&Value::Int(1)),
                    AggIn::Expr(col) => {
                        if let Some(v) = col.get(r) {
                            state.update(v);
                        }
                    }
                    AggIn::Slot { col, canon, .. } => {
                        let id = batch.get(r, *col);
                        if id == UNBOUND {
                            continue;
                        }
                        match state {
                            AggState::Count(n) => *n += 1,
                            AggState::DistinctIds { op, seen, values } => {
                                if seen.insert(canon[r]) && *op != AggregateOp::Count {
                                    values.push(decode(store, arena, &mut fold.values, id).clone());
                                }
                            }
                            _ => state.update(decode(store, arena, &mut fold.values, id)),
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The solution rows of a finished fold: each group's aggregates
    /// finalized, `HAVING` and the projection evaluated on them and on the
    /// group's representative row.
    pub(super) fn fold_finish(
        &mut self,
        fold: Fold,
        q: &SelectQuery,
        items: &[SelectItem],
    ) -> Result<Vec<Vec<Option<Term>>>, SparqlError> {
        let Fold { specs, inputs, mut groups, .. } = fold;
        // an aggregate query with no GROUP BY over zero rows still yields
        // one group (COUNT(*) = 0)
        if groups.is_empty() && q.group_by.is_empty() {
            groups.push(GroupAcc { rep: Vec::new(), states: fresh_states(&specs, &inputs) });
        }
        let mut out_rows = Vec::with_capacity(groups.len());
        for g in groups {
            let rep_row: Row = g.rep.iter().map(|&id| self.bound(id)).collect();
            let agg_vals: Vec<Option<Value>> =
                g.states.into_iter().map(AggState::finalize).collect();
            if let Some(having) = &q.having {
                let keep = self
                    .eval_with_aggs(having, &specs, &agg_vals, &rep_row)
                    .and_then(|v| v.effective_boolean())
                    .unwrap_or(false);
                if !keep {
                    continue;
                }
            }
            let cells: Vec<Option<Term>> = items
                .iter()
                .map(|it| {
                    self.eval_with_aggs(&it.expr, &specs, &agg_vals, &rep_row).map(|v| v.to_term())
                })
                .collect();
            out_rows.push(cells);
        }
        Ok(out_rows)
    }

    /// The canonical term of an execution id, as expression evaluation
    /// would render it: an IRI or blank node is its own term, a literal its
    /// value's round trip (`"07"^^xsd:integer` → `"7"^^xsd:integer`).
    pub(super) fn canon_term(&self, id: EId) -> Option<Term> {
        if id == UNBOUND {
            return None;
        }
        let term = self.arena.term(self.store, id);
        Some(match term {
            Term::Literal(_) => Value::from_term(term).to_term(),
            _ => term.clone(),
        })
    }

    /// The execution id of [`Executor::canon_term`], memoized per id: equal
    /// values share one, so ids group and dedupe exactly as terms would. An
    /// IRI or blank node keeps its own id; only a literal is interned.
    fn canon_id(&mut self, id: EId, memo: &mut IdMap<EId, EId>) -> EId {
        if id == UNBOUND {
            return UNBOUND;
        }
        if let Some(&c) = memo.get(&id) {
            return c;
        }
        let term = self.arena.term(self.store, id);
        let c = if matches!(term, Term::Literal(_)) {
            let canon = Value::from_term(term).to_term();
            self.arena.intern(self.store, &canon)
        } else {
            id
        };
        memo.insert(id, c);
        c
    }

    /// Evaluate a projection/`HAVING` expression against one finished group:
    /// aggregate leaves substitute the precomputed values, everything else
    /// evaluates on the group's representative row, as the reference
    /// evaluator does.
    fn eval_with_aggs(
        &self,
        expr: &Expr,
        specs: &[AggSpec],
        agg_vals: &[Option<Value>],
        rep_row: &Row,
    ) -> Option<Value> {
        match expr {
            Expr::Aggregate(op, distinct, inner) => {
                let idx = specs.iter().position(|s| {
                    s.op == *op && s.distinct == *distinct && s.inner.as_ref() == inner.as_deref()
                })?;
                agg_vals[idx].clone()
            }
            Expr::Var(_) | Expr::Const(_) | Expr::Call(..) | Expr::Exists(..) => {
                self.eval(expr, rep_row)
            }
            Expr::Or(a, b) => {
                let va = self
                    .eval_with_aggs(a, specs, agg_vals, rep_row)
                    .and_then(|v| v.effective_boolean());
                let vb = self
                    .eval_with_aggs(b, specs, agg_vals, rep_row)
                    .and_then(|v| v.effective_boolean());
                match (va, vb) {
                    (Some(true), _) | (_, Some(true)) => Some(Value::Bool(true)),
                    (Some(false), Some(false)) => Some(Value::Bool(false)),
                    _ => None,
                }
            }
            Expr::And(a, b) => {
                let va = self
                    .eval_with_aggs(a, specs, agg_vals, rep_row)
                    .and_then(|v| v.effective_boolean());
                let vb = self
                    .eval_with_aggs(b, specs, agg_vals, rep_row)
                    .and_then(|v| v.effective_boolean());
                match (va, vb) {
                    (Some(false), _) | (_, Some(false)) => Some(Value::Bool(false)),
                    (Some(true), Some(true)) => Some(Value::Bool(true)),
                    _ => None,
                }
            }
            Expr::Not(e) => {
                let v = self.eval_with_aggs(e, specs, agg_vals, rep_row)?.effective_boolean()?;
                Some(Value::Bool(!v))
            }
            Expr::Compare(a, op, b) => {
                let va = self.eval_with_aggs(a, specs, agg_vals, rep_row)?;
                let vb = self.eval_with_aggs(b, specs, agg_vals, rep_row)?;
                match op {
                    CompareOp::Eq => Some(Value::Bool(va.value_eq(&vb))),
                    CompareOp::Ne => Some(Value::Bool(!va.value_eq(&vb))),
                    _ => {
                        let ord = va.compare(&vb)?;
                        Some(Value::Bool(match op {
                            CompareOp::Lt => ord == std::cmp::Ordering::Less,
                            CompareOp::Le => ord != std::cmp::Ordering::Greater,
                            CompareOp::Gt => ord == std::cmp::Ordering::Greater,
                            CompareOp::Ge => ord != std::cmp::Ordering::Less,
                            _ => unreachable!(),
                        }))
                    }
                }
            }
            Expr::Arith(a, op, b) => {
                let va = self.eval_with_aggs(a, specs, agg_vals, rep_row)?;
                let vb = self.eval_with_aggs(b, specs, agg_vals, rep_row)?;
                match op {
                    ArithOp::Add => va.add(&vb),
                    ArithOp::Sub => va.sub(&vb),
                    ArithOp::Mul => va.mul(&vb),
                    ArithOp::Div => va.div(&vb),
                }
            }
            Expr::Neg(e) => {
                let v = self.eval_with_aggs(e, specs, agg_vals, rep_row)?;
                Value::Int(0).sub(&v)
            }
            Expr::In(e, list, negated) => {
                let v = self.eval_with_aggs(e, specs, agg_vals, rep_row)?;
                let mut found = false;
                for item in list {
                    if let Some(vi) = self.eval_with_aggs(item, specs, agg_vals, rep_row) {
                        if v.value_eq(&vi) {
                            found = true;
                            break;
                        }
                    }
                }
                Some(Value::Bool(found != *negated))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::pack_store;
    use crate::engine::EvalOptions;
    use crate::plan::rows::{collect_vars, select_items, Frame, EMPTY_FRAME};
    use crate::plan::MORSEL_ROWS;
    use crate::CancelFlag;
    use crate::EvalLimits;
    use rdfa_exec::LimitGuard;
    use rdfa_model::{vocab::xsd, Literal};
    use std::rc::Rc;

    fn executor<'s>(store: &'s Store, frame: &'s Frame, options: &EvalOptions) -> Executor<'s> {
        let guard = Rc::new(LimitGuard::new(options.limits.clone()));
        Executor::new(store, frame, &[], guard, 0)
    }

    #[test]
    fn canon_id_keeps_iris_and_blank_nodes_and_merges_equal_literals() {
        let mut store = Store::new();
        let int = |lex: &str| Term::Literal(Literal::typed(lex, xsd::INTEGER));
        let [iri, blank, seven0, seven, abc, eight0] =
            [Term::iri("http://e/a"), Term::blank("b"), int("07"), int("7"), int("abc"), int("08")]
                .map(|t| pack_store(store.intern(&t)));
        let options = EvalOptions::default();
        let mut ex = executor(&store, &EMPTY_FRAME, &options);
        let mut memo = IdMap::default();
        assert_eq!(ex.canon_id(iri, &mut memo), iri);
        assert_eq!(ex.canon_id(blank, &mut memo), blank);
        assert_eq!(ex.canon_id(seven0, &mut memo), seven);
        assert_eq!(ex.canon_id(seven, &mut memo), seven);
        assert_eq!(ex.canon_id(abc, &mut memo), abc, "an invalid lexical form is its own value");
        assert_eq!(ex.canon_id(UNBOUND, &mut memo), UNBOUND);
        assert_eq!(ex.arena.len(), 0);
        // a value the store holds only in another lexical form gets one
        // arena term
        let eight = ex.canon_id(eight0, &mut memo);
        assert!(crate::batch::is_local(eight));
        assert_eq!(ex.arena.term(&store, eight), &Term::integer(8));
        assert_eq!(ex.canon_id(eight0, &mut memo), eight);
        assert_eq!(ex.arena.len(), 1);
    }

    /// The fold probes the guard once per morsel: a cancel raised while a
    /// fold is under way stops it at the next morsel, before any of that
    /// morsel's rows is counted.
    #[test]
    fn a_cancel_raised_mid_fold_stops_it_within_one_morsel() {
        let parsed =
            crate::parser::parse_query("SELECT ?v (COUNT(*) AS ?n) WHERE { ?s ?p ?v } GROUP BY ?v");
        let Ok(Query { form: QueryForm::Select(q) }) = parsed else { panic!("parses") };
        let mut frame = Frame::default();
        collect_vars(&q.where_, &mut frame);
        let mut store = Store::new();
        let vals: Vec<EId> = (0..3).map(|i| pack_store(store.intern(&Term::integer(i)))).collect();
        let v = frame.index("v").expect("?v is in the frame");
        let n_rows = 5 * MORSEL_ROWS;
        let mut batch = Batch::new(frame.len());
        for r in 0..n_rows {
            let mut row = vec![UNBOUND; frame.len()];
            row[v] = vals[r % 3];
            batch.push_row(&row, r as u32);
        }
        let morsel = |i: usize| batch.slice(i * MORSEL_ROWS..(i + 1) * MORSEL_ROWS);
        let items = select_items(&q, &frame);
        let cancel = CancelFlag::new();
        let limits = EvalLimits::unlimited().with_cancel(cancel.clone());
        let options = EvalOptions { limits, ..EvalOptions::default() };
        let mut ex = executor(&store, &frame, &options);
        let mut fold = ex.fold_start(&q, &items);
        for i in 0..5 {
            ex.fold_batch(&mut fold, &morsel(i)).expect("folds");
        }
        assert_eq!(ex.fold_finish(fold, &q, &items).expect("finishes").len(), 3);
        let mut ex = executor(&store, &frame, &options);
        let mut fold = ex.fold_start(&q, &items);
        ex.fold_batch(&mut fold, &morsel(0)).expect("folds");
        cancel.cancel();
        let err = ex.fold_batch(&mut fold, &morsel(1)).expect_err("cancelled");
        assert!(err.is_cancelled(), "{err:?}");
        let counted: i64 = fold
            .groups
            .iter()
            .map(|g| match g.states[0] {
                AggState::Count(n) => n,
                _ => unreachable!("COUNT(*) counts"),
            })
            .sum();
        assert_eq!(counted, MORSEL_ROWS as i64, "only the first morsel was folded");
    }
}
