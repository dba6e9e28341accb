//! # rdfa-sparql-oracle — the reference evaluator
//!
//! A row-at-a-time, term-space evaluator of the SPARQL algebra that
//! `rdfa-sparql` parses: bindings are rows of [`Bound`] slots indexed by a
//! per-query [`Frame`], basic graph patterns run as index nested-loop joins
//! in a greedy selectivity order (capped-count estimates), and every nested
//! construct (`OPTIONAL`, `UNION`, `MINUS`, sub-`SELECT`, `EXISTS`, property
//! paths) is evaluated bottom-up exactly as the algebra reads.
//!
//! It is *not* a code path of the product. The engine answers every query
//! on its compiled physical plan; this crate exists so the differential
//! suites have an independent implementation to compare that plan against.
//! It is a dev-dependency of the root package only, and `publish = false`.
//!
//! ```
//! use rdfa_sparql::EvalOptions;
//! use rdfa_store::Store;
//!
//! let mut store = Store::new();
//! store.load_turtle("@prefix ex: <http://e/> . ex:a ex:p ex:b .").unwrap();
//! let answer = rdfa_sparql_oracle::run(
//!     &store,
//!     "PREFIX ex: <http://e/> SELECT ?x WHERE { ?x ex:p ?y }",
//!     EvalOptions::default(),
//! )
//! .unwrap();
//! assert_eq!(answer.solutions().unwrap().len(), 1);
//! ```

use rdfa_model::{Graph, Term, Value};
use rdfa_sparql::ast::*;
use rdfa_sparql::expr::{bound_term, eval_expr_limited, ExistsEval};
use rdfa_sparql::path::eval_path_limited;
use rdfa_sparql::plan::rows::{collect_vars, finalize_rows, select_items, Bound, Frame, Row};
use rdfa_sparql::views::aggregate_value_list;
use rdfa_sparql::{parse_query, EvalOptions, LimitGuard, QueryResults, SparqlError};
use rdfa_store::{Store, TermId};
use std::collections::HashMap;
use std::rc::Rc;

/// Parse and evaluate a `SELECT`, `CONSTRUCT` or `ASK` query.
pub fn run(store: &Store, text: &str, options: EvalOptions) -> Result<QueryResults, SparqlError> {
    let query = parse_query(text)?;
    let ev = Evaluator::with_options(store, options);
    Ok(match &query.form {
        QueryForm::Select(q) => QueryResults::Solutions(ev.eval_select(q)?),
        QueryForm::Construct { template, where_ } => {
            QueryResults::Graph(ev.eval_construct(template, where_)?)
        }
        QueryForm::Ask(where_) => QueryResults::Boolean(ev.eval_ask(where_)?),
        QueryForm::Describe(_) => return Err(SparqlError::new("the oracle does not DESCRIBE")),
    })
}

/// Estimated materialization cost of one row, charged against the memory
/// budget: slot-count based (owned `Term`s are not measured).
fn row_cost(width: usize) -> u64 {
    (std::mem::size_of::<Row>() + width * std::mem::size_of::<Option<Bound>>()) as u64
}

/// The evaluator: borrows the store for the duration of a query.
pub struct Evaluator<'s> {
    store: &'s Store,
    options: EvalOptions,
    /// Shared budget: every sub-evaluation (EXISTS, subqueries) draws from
    /// the same guard, so nesting cannot multiply the budget.
    guard: Rc<LimitGuard>,
}

impl<'s> Evaluator<'s> {
    /// Create an evaluator. The limit clock starts here, so construct the
    /// evaluator right before running the query.
    pub fn with_options(store: &'s Store, options: EvalOptions) -> Self {
        let guard = Rc::new(LimitGuard::new(options.limits.clone()));
        Evaluator {
            store,
            options,
            guard,
        }
    }

    // ---- entry points ------------------------------------------------------

    /// Evaluate a SELECT query to a solution table.
    pub fn eval_select(&self, q: &SelectQuery) -> Result<rdfa_sparql::Solutions, SparqlError> {
        let mut frame = Frame::default();
        collect_vars(&q.where_, &mut frame);
        let rows = self.eval_group(&q.where_, &frame, vec![vec![None; frame.len()]])?;
        self.finish_select(q, &frame, rows)
    }

    /// Evaluate the WHERE clause of a CONSTRUCT/ASK/update to its rows.
    pub fn eval_where(&self, where_: &GroupPattern) -> Result<(Frame, Vec<Row>), SparqlError> {
        let mut frame = Frame::default();
        collect_vars(where_, &mut frame);
        let rows = self.eval_group(where_, &frame, vec![vec![None; frame.len()]])?;
        Ok((frame, rows))
    }

    /// Evaluate a CONSTRUCT query to a graph.
    pub fn eval_construct(
        &self,
        template: &[TriplePattern],
        where_: &GroupPattern,
    ) -> Result<Graph, SparqlError> {
        let (frame, rows) = self.eval_where(where_)?;
        let mut graph = Graph::new();
        let mut blank_counter = 0usize;
        for row in &rows {
            let mut blank_map: HashMap<String, String> = HashMap::new();
            for tp in template {
                let s =
                    self.instantiate(&tp.subject, row, &frame, &mut blank_map, &mut blank_counter);
                let p = match &tp.predicate {
                    PathOrVar::Var(v) => frame
                        .index(v)
                        .and_then(|i| row[i].as_ref())
                        .map(|b| bound_term(b, self.store).clone()),
                    PathOrVar::Path(PropertyPath::Iri(iri)) => Some(Term::iri(iri.clone())),
                    PathOrVar::Path(_) => None,
                };
                let o =
                    self.instantiate(&tp.object, row, &frame, &mut blank_map, &mut blank_counter);
                if let (Some(s), Some(p), Some(o)) = (s, p, o) {
                    graph.add(s, p, o);
                }
            }
        }
        Ok(graph)
    }

    fn instantiate(
        &self,
        tp: &TermPattern,
        row: &Row,
        frame: &Frame,
        blank_map: &mut HashMap<String, String>,
        counter: &mut usize,
    ) -> Option<Term> {
        match tp {
            TermPattern::Var(v) => frame
                .index(v)
                .and_then(|i| row[i].as_ref())
                .map(|b| bound_term(b, self.store).clone()),
            TermPattern::Term(Term::Blank(label)) => {
                // fresh blank node per solution row, but stable within a row
                let name = blank_map.entry(label.clone()).or_insert_with(|| {
                    *counter += 1;
                    format!("c{counter}")
                });
                Some(Term::blank(name.clone()))
            }
            TermPattern::Term(t) => Some(t.clone()),
        }
    }

    /// Evaluate an ASK query.
    pub fn eval_ask(&self, where_: &GroupPattern) -> Result<bool, SparqlError> {
        Ok(!self.eval_where(where_)?.1.is_empty())
    }

    fn eval(&self, e: &Expr, row: &Row, frame: &Frame) -> Option<Value> {
        eval_expr_limited(e, row, frame, self.store, &self.guard, self)
    }

    // ---- group evaluation ---------------------------------------------------

    /// Evaluate a group pattern, extending `input` rows. Filters are scoped
    /// to the whole group and applied at its end, per SPARQL semantics.
    fn eval_group(
        &self,
        group: &GroupPattern,
        frame: &Frame,
        input: Vec<Row>,
    ) -> Result<Vec<Row>, SparqlError> {
        let _depth = self.guard.enter()?;
        let mut rows = input;
        let mut filters: Vec<&Expr> = Vec::new();
        let mut i = 0;
        let els = &group.elements;
        while i < els.len() {
            match &els[i] {
                PatternElement::Triple(_) => {
                    // gather the maximal run of adjacent triples as one BGP
                    let mut bgp: Vec<&TriplePattern> = Vec::new();
                    while let Some(PatternElement::Triple(t)) = els.get(i) {
                        bgp.push(t);
                        i += 1;
                    }
                    rows = self.eval_bgp(&bgp, frame, rows)?;
                    continue;
                }
                PatternElement::Filter(e) => filters.push(e),
                PatternElement::Optional(g) => {
                    let mut next = Vec::with_capacity(rows.len());
                    for row in rows {
                        let extended = self.eval_group(g, frame, vec![row.clone()])?;
                        if extended.is_empty() {
                            next.push(row);
                        } else {
                            next.extend(extended);
                        }
                    }
                    rows = next;
                }
                PatternElement::Union(arms) => {
                    let mut next = Vec::new();
                    for arm in arms {
                        next.extend(self.eval_group(arm, frame, rows.clone())?);
                    }
                    rows = next;
                }
                PatternElement::Group(g) => {
                    rows = self.eval_group(g, frame, rows)?;
                }
                PatternElement::Bind(e, v) => {
                    let slot = frame
                        .index(v)
                        .ok_or_else(|| SparqlError::new(format!("unknown BIND var ?{v}")))?;
                    for row in &mut rows {
                        let val = self.eval(e, row, frame);
                        row[slot] = val.map(|v| Bound::Term(v.to_term()));
                    }
                    self.guard.surface()?;
                }
                PatternElement::Values(vars, data) => {
                    let slots: Vec<usize> = vars
                        .iter()
                        .map(|v| {
                            frame
                                .index(v)
                                .ok_or_else(|| SparqlError::new(format!("unknown VALUES var ?{v}")))
                        })
                        .collect::<Result<_, _>>()?;
                    let mut next = Vec::new();
                    for row in &rows {
                        'data: for tuple in data {
                            let mut candidate = row.clone();
                            for (slot, term) in slots.iter().zip(tuple) {
                                if let Some(term) = term {
                                    let new = Bound::Term(term.clone());
                                    match &candidate[*slot] {
                                        Some(existing) => {
                                            if !self.bound_eq(existing, &new) {
                                                continue 'data;
                                            }
                                        }
                                        None => candidate[*slot] = Some(new),
                                    }
                                }
                            }
                            self.guard.count_row_bytes(row_cost(candidate.len()))?;
                            next.push(candidate);
                        }
                    }
                    rows = next;
                }
                PatternElement::SubSelect(sub) => {
                    let solutions = self.eval_select(sub)?;
                    rows = self.join_solutions(rows, &solutions, frame)?;
                }
                PatternElement::Minus(g) => {
                    // evaluate the inner pattern bottom-up, then anti-join:
                    // drop rows compatible with an inner solution on at
                    // least one shared bound variable
                    let inner = self.eval_group(g, frame, vec![vec![None; frame.len()]])?;
                    rows.retain(|row| {
                        !inner.iter().any(|ir| {
                            let mut shared = false;
                            for (a, b) in row.iter().zip(ir.iter()) {
                                if let (Some(x), Some(y)) = (a, b) {
                                    if !self.bound_eq(x, y) {
                                        return false;
                                    }
                                    shared = true;
                                }
                            }
                            shared
                        })
                    });
                }
            }
            i += 1;
        }
        // apply the group's filters; a limit tripping inside a filter (e.g.
        // an expensive EXISTS) is recorded softly and surfaced here
        for f in filters {
            rows.retain(|row| {
                self.eval(f, row, frame)
                    .and_then(|v| v.effective_boolean())
                    .unwrap_or(false)
            });
            self.guard.surface()?;
        }
        Ok(rows)
    }

    fn bound_eq(&self, a: &Bound, b: &Bound) -> bool {
        match (a, b) {
            (Bound::Id(x), Bound::Id(y)) => x == y,
            _ => bound_term(a, self.store) == bound_term(b, self.store),
        }
    }

    fn join_solutions(
        &self,
        rows: Vec<Row>,
        sol: &rdfa_sparql::Solutions,
        frame: &Frame,
    ) -> Result<Vec<Row>, SparqlError> {
        let shared: Vec<(usize, usize)> = sol
            .vars()
            .iter()
            .enumerate()
            .filter_map(|(j, v)| frame.index(v).map(|i| (i, j)))
            .collect();
        let mut out = Vec::new();
        for row in &rows {
            'sol: for sol_row in sol.rows() {
                let mut candidate = row.clone();
                for &(slot, j) in &shared {
                    if let Some(term) = &sol_row[j] {
                        let new = Bound::Term(term.clone());
                        match &candidate[slot] {
                            Some(existing) => {
                                if !self.bound_eq(existing, &new) {
                                    continue 'sol;
                                }
                            }
                            None => candidate[slot] = Some(new),
                        }
                    }
                }
                self.guard.count_row_bytes(row_cost(candidate.len()))?;
                out.push(candidate);
            }
        }
        Ok(out)
    }

    // ---- BGP ---------------------------------------------------------------

    fn eval_bgp(
        &self,
        patterns: &[&TriplePattern],
        frame: &Frame,
        mut rows: Vec<Row>,
    ) -> Result<Vec<Row>, SparqlError> {
        let order = if self.options.reorder_bgp {
            self.plan_bgp(patterns, frame, &rows)
        } else {
            (0..patterns.len()).collect()
        };
        for idx in order {
            let tp = patterns[idx];
            let mut next = Vec::with_capacity(rows.len());
            for row in &rows {
                self.match_triple(tp, frame, row, &mut next)?;
            }
            rows = next;
            if rows.is_empty() {
                break;
            }
        }
        Ok(rows)
    }

    /// Greedy join ordering: start from the most selective pattern, then
    /// repeatedly pick the cheapest pattern connected to the bound variables
    /// (a 100× bonus for connectedness avoids cartesian products).
    fn plan_bgp(&self, patterns: &[&TriplePattern], frame: &Frame, rows: &[Row]) -> Vec<usize> {
        // variables already bound in the incoming rows
        let mut bound_vars: Vec<bool> = vec![false; frame.len()];
        if let Some(first) = rows.first() {
            for (i, slot) in first.iter().enumerate() {
                bound_vars[i] = slot.is_some();
            }
        }
        let estimates: Vec<f64> = patterns.iter().map(|tp| self.estimate(tp)).collect();
        let pattern_vars: Vec<Vec<usize>> = patterns
            .iter()
            .map(|tp| {
                let p = match &tp.predicate {
                    PathOrVar::Var(name) => Some(name.as_str()),
                    PathOrVar::Path(_) => None,
                };
                [tp.subject.as_var(), p, tp.object.as_var()]
                    .into_iter()
                    .flatten()
                    .filter_map(|name| frame.index(name))
                    .collect()
            })
            .collect();
        let mut remaining: Vec<usize> = (0..patterns.len()).collect();
        let mut order = Vec::with_capacity(patterns.len());
        while !remaining.is_empty() {
            let best = remaining
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    let score = |i: usize| {
                        let connected = pattern_vars[i].iter().any(|&v| bound_vars[v]);
                        let bonus = if connected || order.is_empty() {
                            0.01
                        } else {
                            1.0
                        };
                        estimates[i] * bonus
                    };
                    score(a)
                        .partial_cmp(&score(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("non-empty remaining");
            remaining.retain(|&i| i != best);
            for &v in &pattern_vars[best] {
                bound_vars[v] = true;
            }
            order.push(best);
        }
        order
    }

    /// Static cardinality estimate for one pattern (constants only).
    fn estimate(&self, tp: &TriplePattern) -> f64 {
        let lookup = |t: &TermPattern| match t {
            TermPattern::Term(t) => self.store.lookup(t).map(Some),
            TermPattern::Var(_) => Some(None),
        };
        let (Some(s), Some(o)) = (lookup(&tp.subject), lookup(&tp.object)) else {
            return 0.0;
        };
        let p = match &tp.predicate {
            PathOrVar::Path(PropertyPath::Iri(iri)) => match self.store.lookup_iri(iri) {
                Some(id) => Some(id),
                None => return 0.0,
            },
            // complex path: assume moderately expensive
            PathOrVar::Path(_) => return 1000.0,
            PathOrVar::Var(_) => None,
        };
        // cap the scan so estimation stays cheap on huge stores
        self.store.count_matching(s, p, o, 10_000) as f64
    }

    fn match_triple(
        &self,
        tp: &TriplePattern,
        frame: &Frame,
        row: &Row,
        out: &mut Vec<Row>,
    ) -> Result<(), SparqlError> {
        // probe per (pattern, row) pair so patterns that match nothing over
        // many rows still honour the deadline
        self.guard.check_deadline()?;
        let resolve = |t: &TermPattern| -> Result<Anchor, SparqlError> {
            match t {
                TermPattern::Term(term) => Ok(match self.store.lookup(term) {
                    Some(id) => Anchor::Fixed(id),
                    None => Anchor::Impossible,
                }),
                TermPattern::Var(v) => {
                    let slot = frame
                        .index(v)
                        .ok_or_else(|| SparqlError::new(format!("unknown var ?{v}")))?;
                    match &row[slot] {
                        Some(Bound::Id(id)) => Ok(Anchor::BoundVar(*id)),
                        Some(Bound::Term(t)) => Ok(match self.store.lookup(t) {
                            Some(id) => Anchor::BoundVar(id),
                            None => Anchor::Impossible,
                        }),
                        None => Ok(Anchor::FreeVar(slot)),
                    }
                }
            }
        };
        let s_anchor = resolve(&tp.subject)?;
        let o_anchor = resolve(&tp.object)?;
        if matches!(s_anchor, Anchor::Impossible) || matches!(o_anchor, Anchor::Impossible) {
            return Ok(());
        }
        let same = same_var(&s_anchor, &o_anchor);
        let mut emit = |s: TermId,
                        o: TermId,
                        p: Option<(usize, TermId)>|
         -> Result<(), SparqlError> {
            // repeated-variable consistency (?x p ?x)
            if same && s != o {
                return Ok(());
            }
            let mut new = row.clone();
            if bind(&mut new, &s_anchor, s) && bind(&mut new, &o_anchor, o) {
                if let Some((slot, p)) = p {
                    new[slot] = Some(Bound::Id(p));
                }
                self.guard.count_row_bytes(row_cost(new.len()))?;
                out.push(new);
            }
            Ok(())
        };

        match &tp.predicate {
            PathOrVar::Var(v) => {
                let slot = frame
                    .index(v)
                    .ok_or_else(|| SparqlError::new(format!("unknown var ?{v}")))?;
                let p_fixed = match &row[slot] {
                    Some(b) => match self.store.lookup(bound_term(b, self.store)) {
                        Some(id) => Some(id),
                        None => return Ok(()),
                    },
                    None => None,
                };
                for [s, p, o] in self.store.matching(s_anchor.id(), p_fixed, o_anchor.id()) {
                    emit(s, o, p_fixed.is_none().then_some((slot, p)))?;
                }
            }
            PathOrVar::Path(PropertyPath::Iri(iri)) => {
                let Some(p) = self.store.lookup_iri(iri) else {
                    return Ok(());
                };
                for [s, _, o] in self.store.matching(s_anchor.id(), Some(p), o_anchor.id()) {
                    emit(s, o, None)?;
                }
            }
            PathOrVar::Path(path) => {
                let mut tally = self.guard.tally(0);
                let pairs =
                    eval_path_limited(self.store, path, s_anchor.id(), o_anchor.id(), &mut tally)?;
                tally.flush()?;
                for (s, o) in pairs {
                    emit(s, o, None)?;
                }
            }
        }
        Ok(())
    }

    // ---- projection / grouping ----------------------------------------------

    fn finish_select(
        &self,
        q: &SelectQuery,
        frame: &Frame,
        rows: Vec<Row>,
    ) -> Result<rdfa_sparql::Solutions, SparqlError> {
        let items = select_items(q, frame);
        let has_agg = items.iter().any(|it| it.expr.has_aggregate())
            || q.having.as_ref().is_some_and(|h| h.has_aggregate());
        let grouped = !q.group_by.is_empty() || has_agg;

        let mut out_rows: Vec<Vec<Option<Term>>> = Vec::new();
        if grouped {
            // hash-group rows by the group key
            let mut groups: Vec<(Vec<Option<Term>>, Vec<Row>)> = Vec::new();
            let mut index: HashMap<Vec<Option<Term>>, usize> = HashMap::new();
            for row in rows {
                let key: Vec<Option<Term>> = q
                    .group_by
                    .iter()
                    .map(|e| self.eval(e, &row, frame).map(|v| v.to_term()))
                    .collect();
                match index.get(&key) {
                    Some(&i) => groups[i].1.push(row),
                    None => {
                        index.insert(key.clone(), groups.len());
                        groups.push((key, vec![row]));
                    }
                }
            }
            // an aggregate query with no GROUP BY over zero rows still yields
            // one group (e.g. COUNT(*) = 0)
            if groups.is_empty() && q.group_by.is_empty() {
                groups.push((Vec::new(), Vec::new()));
            }
            for (_, group_rows) in &groups {
                if let Some(having) = &q.having {
                    let keep = self
                        .eval_agg_expr(having, group_rows, frame)
                        .and_then(|v| v.effective_boolean())
                        .unwrap_or(false);
                    if !keep {
                        continue;
                    }
                }
                out_rows.push(
                    items
                        .iter()
                        .map(|it| {
                            self.eval_agg_expr(&it.expr, group_rows, frame)
                                .map(|v| v.to_term())
                        })
                        .collect(),
                );
            }
        } else {
            for row in &rows {
                out_rows.push(
                    items
                        .iter()
                        .map(|it| self.eval(&it.expr, row, frame).map(|v| v.to_term()))
                        .collect(),
                );
            }
        }

        let vars: Vec<String> = items.iter().map(|it| it.alias.clone()).collect();
        finalize_rows(q, vars, out_rows, self.store, &self.guard, self)
    }

    /// Evaluate an expression that may contain aggregates, against one group.
    fn eval_agg_expr(&self, expr: &Expr, group: &[Row], frame: &Frame) -> Option<Value> {
        let bool_of = |e: &Expr| {
            self.eval_agg_expr(e, group, frame)
                .and_then(|v| v.effective_boolean())
        };
        match expr {
            Expr::Aggregate(op, distinct, inner) => {
                let mut values: Vec<Value> = Vec::with_capacity(group.len());
                for row in group {
                    match inner {
                        None => values.push(Value::Int(1)), // COUNT(*) counts rows
                        Some(e) => values.extend(self.eval(e, row, frame)),
                    }
                }
                if *distinct {
                    let mut seen = std::collections::HashSet::new();
                    values.retain(|v| seen.insert(v.to_term()));
                }
                aggregate_value_list(*op, values)
            }
            // non-aggregate leaf: evaluate on a representative row
            Expr::Var(_) | Expr::Const(_) | Expr::Call(..) | Expr::Exists(..) => {
                let empty: Row = Vec::new();
                self.eval(expr, group.first().unwrap_or(&empty), frame)
            }
            Expr::Or(a, b) => match (bool_of(a), bool_of(b)) {
                (Some(true), _) | (_, Some(true)) => Some(Value::Bool(true)),
                (Some(false), Some(false)) => Some(Value::Bool(false)),
                _ => None,
            },
            Expr::And(a, b) => match (bool_of(a), bool_of(b)) {
                (Some(false), _) | (_, Some(false)) => Some(Value::Bool(false)),
                (Some(true), Some(true)) => Some(Value::Bool(true)),
                _ => None,
            },
            Expr::Not(e) => Some(Value::Bool(!bool_of(e)?)),
            Expr::Compare(a, op, b) => {
                let va = self.eval_agg_expr(a, group, frame)?;
                let vb = self.eval_agg_expr(b, group, frame)?;
                use std::cmp::Ordering::*;
                Some(Value::Bool(match op {
                    CompareOp::Eq => va.value_eq(&vb),
                    CompareOp::Ne => !va.value_eq(&vb),
                    CompareOp::Lt => va.compare(&vb)? == Less,
                    CompareOp::Le => va.compare(&vb)? != Greater,
                    CompareOp::Gt => va.compare(&vb)? == Greater,
                    CompareOp::Ge => va.compare(&vb)? != Less,
                }))
            }
            Expr::Arith(a, op, b) => {
                let va = self.eval_agg_expr(a, group, frame)?;
                let vb = self.eval_agg_expr(b, group, frame)?;
                match op {
                    ArithOp::Add => va.add(&vb),
                    ArithOp::Sub => va.sub(&vb),
                    ArithOp::Mul => va.mul(&vb),
                    ArithOp::Div => va.div(&vb),
                }
            }
            Expr::Neg(e) => Value::Int(0).sub(&self.eval_agg_expr(e, group, frame)?),
            Expr::In(e, list, negated) => {
                let v = self.eval_agg_expr(e, group, frame)?;
                let found = list.iter().any(|item| {
                    self.eval_agg_expr(item, group, frame)
                        .is_some_and(|vi| v.value_eq(&vi))
                });
                Some(Value::Bool(found != *negated))
            }
        }
    }
}

/// `EXISTS` by substitute-then-evaluate: the pattern is evaluated seeded
/// with the row, sharing the caller's guard. A limit tripping inside it
/// makes the EXISTS report `false` and stays recorded for the caller.
impl ExistsEval for Evaluator<'_> {
    fn exists(&self, group: &GroupPattern, row: &Row, outer: &Frame) -> Option<bool> {
        let mut frame = outer.clone();
        collect_vars(group, &mut frame);
        let mut seeded = row.clone();
        seeded.resize(frame.len(), None);
        let ev = Evaluator {
            store: self.store,
            options: self.options.clone(),
            guard: Rc::clone(&self.guard),
        };
        Some(
            ev.eval_group(group, &frame, vec![seeded])
                .is_ok_and(|rows| !rows.is_empty()),
        )
    }
}

/// How a pattern position relates to the current row.
enum Anchor {
    /// A constant term (interned).
    Fixed(TermId),
    /// A variable already bound to this id.
    BoundVar(TermId),
    /// A variable with no binding yet (slot index).
    FreeVar(usize),
    /// A constant term not present in the store: no match possible.
    Impossible,
}

impl Anchor {
    fn id(&self) -> Option<TermId> {
        match self {
            Anchor::Fixed(id) | Anchor::BoundVar(id) => Some(*id),
            Anchor::FreeVar(_) | Anchor::Impossible => None,
        }
    }
}

fn same_var(a: &Anchor, b: &Anchor) -> bool {
    matches!((a, b), (Anchor::FreeVar(x), Anchor::FreeVar(y)) if x == y)
}

fn bind(row: &mut Row, anchor: &Anchor, value: TermId) -> bool {
    match anchor {
        Anchor::Fixed(_) => true,
        Anchor::BoundVar(id) => *id == value,
        Anchor::FreeVar(slot) => {
            row[*slot] = Some(Bound::Id(value));
            true
        }
        Anchor::Impossible => false,
    }
}
