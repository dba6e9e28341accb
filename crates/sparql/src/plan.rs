//! Physical query plans over the interned ID space.
//!
//! `compile_select` lowers a parsed `SELECT` into a small operator tree
//! (scan/join → filter → bind/values → optional/union → project/aggregate)
//! once, ahead of execution. The executor evaluates the tree over columnar
//! [`Batch`]es of packed execution ids ([`crate::batch`]): joins compare
//! `u32`s against the store's triple indexes, `GROUP BY` hashes canonical
//! ids, filters and keys over one variable are evaluated once per distinct
//! id, and terms are materialized only at the [`Solutions`] boundary.
//!
//! Execution is sequential, on the caller's thread, and streams: a chain
//! of join and filter steps runs as one pipeline, a morsel of at most
//! `MORSEL_ROWS` rows at a time (`join`), and a grouped `SELECT` folds each
//! morsel into its group accumulators as it leaves the chain (`group`), so
//! no intermediate batch of the chain's full size is built. Only the nodes
//! whose output is not in input-row order (`UNION`, `MINUS`, sub-selects)
//! and those that rewrite whole batches (`OPTIONAL`, `BIND`, `VALUES`, path
//! joins) take and produce whole batches. The rows that reach a sink are
//! those, and in the order, of running each step over its whole input.
//!
//! Every step probes the request's [`LimitGuard`] once per morsel, so a
//! deadline or a raised cancel flag stops it within a few microseconds of
//! work, and charges the rows it produces to the row and memory budgets
//! through a [`rdfa_exec::Tally`]. The memory budget is charged as before
//! the pipeline: every row a step produces, whether or not it stays
//! materialized, plus each scan side's arrays.
//!
//! A join step with a variable subject and a constant predicate may scan
//! its pattern's posting run once into a subject-indexed side instead of
//! probing the store per row; the choice is made once per step, on the
//! same counts as if it saw its whole input ([`Store::prefer_seek`]), and
//! never shows in the output. The compiler places each `FILTER` conjunct
//! right after the step that binds the last variable it reads, when the
//! group's own triple patterns bind all of them.
//!
//! Every form the parser accepts compiles to this one plan. Sub-selects run
//! once per execution in their own frame and join like `VALUES`; `MINUS`
//! anti-joins an inner tree run from an empty seed; a non-IRI property path
//! is a join step that walks the path from each row's anchors; and every
//! `EXISTS` is a sub-plan compiled once and run seeded with the row
//! (`nested`). `CONSTRUCT`, `ASK` and update `WHERE` clauses execute the
//! same tree and hand back its rows.

mod compile;
mod estimate;
mod group;
mod join;
mod nested;
mod project;
pub mod rows;

use crate::ast::*;
use crate::batch::{as_store, Batch, EId, IdMap, TermArena, UNBOUND};
use crate::engine::EvalOptions;
use crate::expr::eval_expr_limited;
use crate::results::Solutions;
use crate::SparqlError;
pub(crate) use compile::{compile, compile_where};
pub(crate) use group::aggregate_values;
use join::{Sides, Sink};
use nested::ExistsPlan;
use rdfa_exec::LimitGuard;
use rdfa_model::{Term, Value};
use rdfa_store::{Store, TermId};
use rows::{Bound, Frame, Row, EMPTY_FRAME};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Rows per morsel: the stretch of a join, a fold or a scan-side build
/// between two probes of the guard. Small enough that a probe arrives every
/// few microseconds even on wide rows, big enough that the probe is noise.
pub(crate) const MORSEL_ROWS: usize = 1024;

/// Estimated materialization cost of one batch row (one `EId` per column),
/// charged against [`crate::EvalLimits::max_memory_bytes`].
fn batch_row_cost(width: usize) -> u64 {
    (width * std::mem::size_of::<EId>() + std::mem::size_of::<u32>()) as u64
}

// ---- plan structure --------------------------------------------------------

/// A compiled subject/object position.
#[derive(Debug, Clone)]
pub(crate) enum CSlot {
    /// Constant present in the store.
    Const(TermId),
    /// Variable at this frame slot.
    Var(usize),
    /// Constant absent from the store: the pattern can never match.
    Missing,
}

/// A compiled predicate position.
#[derive(Debug, Clone)]
pub(crate) enum CPred {
    Const(TermId),
    Var(usize),
    Missing,
}

/// One operator of the physical plan. `Input` is the leaf that consumes
/// whatever batch the parent feeds in (the seed row at the root, the outer
/// batch inside `OPTIONAL`/`UNION` subtrees).
#[derive(Debug)]
pub(crate) enum Node {
    Input,
    Join { input: Box<Node>, s: CSlot, p: CPred, o: CSlot, op: usize },
    /// A join step whose predicate is a non-IRI property path.
    PathJoin { input: Box<Node>, s: CSlot, path: PropertyPath, o: CSlot, op: usize },
    Filter { input: Box<Node>, exprs: Vec<Expr>, op: usize },
    Bind { input: Box<Node>, expr: Expr, slot: usize, op: usize },
    Values { input: Box<Node>, slots: Vec<usize>, data: Vec<Vec<Option<Term>>>, op: usize },
    Optional { input: Box<Node>, inner: Box<Node>, op: usize },
    Union { input: Box<Node>, arms: Vec<Node>, op: usize },
    /// A nested `SELECT`, run once in its own frame and joined on the
    /// shared variables.
    SubSelect { input: Box<Node>, plan: Box<SelectPlan>, op: usize },
    /// `MINUS`: `inner` runs from the seed row in the same frame.
    Minus { input: Box<Node>, inner: Box<Node>, op: usize },
}

/// A compiled group pattern and the frame its batches are laid out in.
#[derive(Debug)]
pub(crate) struct Scope {
    pub(crate) root: Node,
    pub(crate) frame: Frame,
    /// The `EXISTS` patterns of this scope's expressions, compiled once
    /// against its frame.
    pub(crate) exists: Vec<ExistsPlan>,
}

/// A compiled `SELECT`: its `WHERE` scope plus the projection/aggregation
/// stage that turns the scope's rows into solutions.
#[derive(Debug)]
pub(crate) struct SelectPlan {
    pub(crate) query: SelectQuery,
    pub(crate) scope: Scope,
    /// Operator id of the final projection/aggregation stage.
    pub(crate) select_op: usize,
    /// Whether the final stage groups and aggregates.
    pub(crate) grouped: bool,
    /// `EXISTS` in `ORDER BY` keys, compiled against the projected frame.
    pub(crate) order_exists: Vec<ExistsPlan>,
}

/// What a plan produces.
#[derive(Debug)]
pub(crate) enum PlanForm {
    Select(Box<SelectPlan>),
    /// `CONSTRUCT`, `ASK` and update `WHERE` clauses: the solution rows.
    Rows(Scope),
    /// `DESCRIBE` reads its resources' triples directly.
    Describe,
}

/// Static description of one operator (label + compile-time estimate).
#[derive(Debug, Clone)]
pub struct OpMeta {
    /// Human-readable operator label, e.g. `IndexJoin ?x <p> ?o`.
    pub label: String,
    /// Operator kind: `join`, `path`, `filter`, `bind`, `values`,
    /// `optional`, `union`, `subselect`, `minus`, `exists`, `select`,
    /// `tail` (CONSTRUCT/ASK/update rows), `describe`.
    pub kind: &'static str,
    /// Compile-time cardinality estimate, where one exists (joins).
    pub estimate: Option<f64>,
}

/// A compiled physical plan for one query.
#[derive(Debug)]
pub struct PhysicalPlan {
    pub(crate) form: PlanForm,
    /// Operator metadata indexed by operator id (every scope's operators).
    pub(crate) ops: Vec<OpMeta>,
    /// Static nesting depth of the deepest group (for the recursion budget).
    pub(crate) depth: u32,
    /// Operator id of the final stage (projection, `Construct`, `Ask`, …).
    pub(crate) tail_op: usize,
}

impl PhysicalPlan {
    /// Number of operators in the plan.
    pub fn operator_count(&self) -> usize {
        self.ops.len()
    }

    /// The frame of the plan's rows (`Rows` plans: the `WHERE` variables).
    pub(crate) fn frame(&self) -> &Frame {
        match &self.form {
            PlanForm::Select(sp) => &sp.scope.frame,
            PlanForm::Rows(scope) => &scope.frame,
            PlanForm::Describe => &EMPTY_FRAME,
        }
    }
}

// ---- execution statistics --------------------------------------------------

/// Observed cardinality of one operator after execution.
#[derive(Debug, Clone)]
pub struct OpStats {
    /// Operator label (copied from the plan).
    pub label: String,
    /// Operator kind (copied from the plan).
    pub kind: &'static str,
    /// Compile-time estimate, where one exists.
    pub estimate: Option<f64>,
    /// Rows the operator produced across all invocations.
    pub rows_out: u64,
    /// Times the operator ran.
    pub invocations: u64,
    /// Join steps: triples read into a built `ScanSide` across all
    /// invocations (0 = every invocation probed the index per row).
    pub scanned: u64,
}

/// Per-execution statistics reported by a prepared query.
#[derive(Debug, Clone)]
pub struct ExecStats {
    /// Per-operator cardinalities, indexed like the plan's operators.
    pub operators: Vec<OpStats>,
    /// Rows in the final result.
    pub rows_out: usize,
    /// Always 1: execution is sequential. Kept for old readers.
    #[doc(hidden)]
    pub threads_used: usize,
    /// Always `false`: execution is sequential. Kept for old readers.
    #[doc(hidden)]
    pub parallel_groupby: bool,
    /// Morsels (batches of at most 1,024 rows) that reached a sink: the
    /// query's output batch or a grouped `SELECT`'s fold.
    pub morsels: usize,
    /// Terms interned into the execution arena (computed terms).
    pub arena_terms: usize,
    /// Wall-clock execution time.
    pub elapsed: Duration,
}

/// Render the plan as an indented operator tree, one operator per line,
/// with estimates and (when `stats` is given) observed cardinalities.
pub(crate) fn describe_plan(plan: &PhysicalPlan, stats: Option<&ExecStats>) -> Vec<String> {
    fn line(plan: &PhysicalPlan, stats: Option<&ExecStats>, op: usize, indent: usize) -> String {
        let meta = &plan.ops[op];
        let mut s = format!("{}{}", "  ".repeat(indent), meta.label);
        if let Some(est) = meta.estimate {
            s.push_str(&format!(" est={est}"));
        }
        if let Some(st) = stats {
            let st = &st.operators[op];
            s.push_str(&format!(" rows={}", st.rows_out));
            if st.kind == "join" {
                s.push_str(&format!(" scanned={}", st.scanned));
            }
        }
        s
    }
    fn walk(
        plan: &PhysicalPlan,
        stats: Option<&ExecStats>,
        node: &Node,
        indent: usize,
        out: &mut Vec<String>,
    ) {
        match node {
            Node::Input => {}
            Node::Join { input, op, .. }
            | Node::PathJoin { input, op, .. }
            | Node::Filter { input, op, .. }
            | Node::Bind { input, op, .. }
            | Node::Values { input, op, .. } => {
                walk(plan, stats, input, indent, out);
                out.push(line(plan, stats, *op, indent));
            }
            Node::Optional { input, inner, op } | Node::Minus { input, inner, op } => {
                walk(plan, stats, input, indent, out);
                out.push(line(plan, stats, *op, indent));
                walk(plan, stats, inner, indent + 1, out);
            }
            Node::Union { input, arms, op } => {
                walk(plan, stats, input, indent, out);
                out.push(line(plan, stats, *op, indent));
                for arm in arms {
                    walk(plan, stats, arm, indent + 1, out);
                }
            }
            Node::SubSelect { input, plan: sp, op } => {
                walk(plan, stats, input, indent, out);
                out.push(line(plan, stats, *op, indent));
                select(plan, stats, sp, indent + 1, out);
                out.push(line(plan, stats, sp.select_op, indent + 1));
            }
        }
    }
    /// A scope's tree, then each of its `EXISTS` sub-plans below it.
    fn scope(
        plan: &PhysicalPlan,
        stats: Option<&ExecStats>,
        sc: &Scope,
        indent: usize,
        out: &mut Vec<String>,
    ) {
        walk(plan, stats, &sc.root, indent, out);
        exists(plan, stats, &sc.exists, indent, out);
    }
    fn exists(
        plan: &PhysicalPlan,
        stats: Option<&ExecStats>,
        plans: &[ExistsPlan],
        indent: usize,
        out: &mut Vec<String>,
    ) {
        for ep in plans {
            out.push(line(plan, stats, ep.op, indent));
            scope(plan, stats, &ep.scope, indent + 1, out);
        }
    }
    /// A `SELECT`'s scope, then the `EXISTS` sub-plans of its `ORDER BY`.
    fn select(
        plan: &PhysicalPlan,
        stats: Option<&ExecStats>,
        sp: &SelectPlan,
        indent: usize,
        out: &mut Vec<String>,
    ) {
        scope(plan, stats, &sp.scope, indent, out);
        exists(plan, stats, &sp.order_exists, indent, out);
    }
    let mut out = Vec::new();
    match &plan.form {
        PlanForm::Select(sp) => select(plan, stats, sp, 1, &mut out),
        PlanForm::Rows(sc) => scope(plan, stats, sc, 1, &mut out),
        PlanForm::Describe => {}
    }
    out.push(line(plan, stats, plan.tail_op, 0));
    out
}

// ---- execution -------------------------------------------------------------

/// What an executed plan hands back.
pub(crate) enum Output {
    Solutions(Solutions),
    /// The `WHERE` rows of a `Rows` plan, laid out in [`PhysicalPlan::frame`].
    Rows(Vec<Row>),
}

/// Run a compiled plan. Returns its output plus per-operator statistics.
pub(crate) fn execute_plan(
    plan: &PhysicalPlan,
    store: &Store,
    options: &EvalOptions,
) -> Result<(Output, ExecStats), SparqlError> {
    let t0 = Instant::now();
    let guard = Rc::new(LimitGuard::new(options.limits.clone()));
    let frame = plan.frame();
    let exists = match &plan.form {
        PlanForm::Select(sp) => &sp.scope.exists[..],
        PlanForm::Rows(scope) => &scope.exists[..],
        PlanForm::Describe => &[],
    };
    let mut ex = Executor::new(store, frame, exists, Rc::clone(&guard), plan.ops.len());
    // charge the static nesting depth of the deepest group (sub-selects and
    // EXISTS patterns included) against the recursion budget up front
    let mut scopes = Vec::with_capacity(plan.depth as usize);
    for _ in 0..plan.depth {
        scopes.push(guard.enter()?);
    }
    let output = match &plan.form {
        PlanForm::Select(sp) => Output::Solutions(ex.run_select(sp)?),
        PlanForm::Rows(scope) => {
            let out = ex.exec(&scope.root, Batch::seed(frame.len()))?;
            Output::Rows((0..out.len()).map(|r| ex.to_row(&out, r)).collect())
        }
        PlanForm::Describe => Output::Rows(Vec::new()),
    };
    drop(scopes);
    ex.fold_sub_counts();
    let rows_out = match &output {
        Output::Solutions(s) => s.rows().len(),
        Output::Rows(rows) => rows.len(),
    };
    ex.op_rows[plan.tail_op] = rows_out as u64;
    ex.op_calls[plan.tail_op] = 1;
    let stats = ExecStats {
        operators: plan
            .ops
            .iter()
            .enumerate()
            .map(|(i, m)| OpStats {
                label: m.label.clone(),
                kind: m.kind,
                estimate: m.estimate,
                rows_out: ex.op_rows[i],
                invocations: ex.op_calls[i],
                scanned: ex.op_scanned[i],
            })
            .collect(),
        rows_out,
        threads_used: 1,
        parallel_groupby: false,
        morsels: ex.morsels,
        arena_terms: ex.arena.len(),
        elapsed: t0.elapsed(),
    };
    Ok((output, stats))
}

/// The values of one expression over the rows of a stream of batches,
/// filled by [`Executor::eval_column`]: row `r` of the latest batch holds
/// `vals[idx[r]]`. When the expression reads one variable and no `EXISTS`,
/// its value depends on that slot's id alone (every builtin is
/// deterministic), so `vals` is memoized per id for the whole stream;
/// otherwise it holds the latest batch's values, one per row.
struct ExprColumn {
    expr: Expr,
    /// The slot of the one variable `expr` reads, when it is memoized.
    slot: Option<usize>,
    ids: IdMap<EId, u32>,
    vals: Vec<Option<Value>>,
    idx: Vec<u32>,
}

impl ExprColumn {
    fn get(&self, r: usize) -> Option<&Value> {
        self.vals[self.idx[r] as usize].as_ref()
    }

    /// Map each entry through `f` once, then lay the results out by row.
    fn map<T: Clone>(&self, f: impl FnMut(Option<&Value>) -> T) -> Vec<T> {
        let mapped: Vec<T> = self.vals.iter().map(Option::as_ref).map(f).collect();
        self.idx.iter().map(|&i| mapped[i as usize].clone()).collect()
    }
}

struct Executor<'s> {
    store: &'s Store,
    /// The frame of the scope being executed.
    frame: &'s Frame,
    /// That scope's compiled `EXISTS` patterns.
    exists: &'s [ExistsPlan],
    guard: Rc<LimitGuard>,
    arena: TermArena,
    op_rows: Vec<u64>,
    op_calls: Vec<u64>,
    op_scanned: Vec<u64>,
    /// Runs `EXISTS` sub-plans; built on first use and reused for every
    /// row, its counters folded into these at the end.
    sub: RefCell<Option<Box<Executor<'s>>>>,
    /// The scan sides built so far.
    sides: Sides,
    /// Non-empty morsels handed to a sink: the output batch or a fold.
    morsels: usize,
}

impl<'s> Executor<'s> {
    fn new(
        store: &'s Store,
        frame: &'s Frame,
        exists: &'s [ExistsPlan],
        guard: Rc<LimitGuard>,
        n_ops: usize,
    ) -> Self {
        Executor {
            store,
            frame,
            exists,
            guard,
            arena: TermArena::new(),
            op_rows: vec![0; n_ops],
            op_calls: vec![0; n_ops],
            op_scanned: vec![0; n_ops],
            sub: RefCell::new(None),
            sides: Sides::default(),
            morsels: 0,
        }
    }

    /// Fold the `EXISTS` sub-executors' operator counters into this one's.
    fn fold_sub_counts(&mut self) {
        if let Some(mut sub) = self.sub.take() {
            sub.fold_sub_counts();
            for (a, b) in self.op_rows.iter_mut().zip(&sub.op_rows) {
                *a += b;
            }
            for (a, b) in self.op_calls.iter_mut().zip(&sub.op_calls) {
                *a += b;
            }
            for (a, b) in self.op_scanned.iter_mut().zip(&sub.op_scanned) {
                *a += b;
            }
            self.morsels += sub.morsels;
        }
    }

    /// Evaluate an expression against one row of the current scope.
    fn eval(&self, e: &Expr, row: &Row) -> Option<Value> {
        eval_expr_limited(e, row, self.frame, self.store, &self.guard, self)
    }

    fn note(&mut self, op: usize, rows: usize) {
        self.op_rows[op] += rows as u64;
        self.op_calls[op] += 1;
    }

    fn exec(&mut self, node: &'s Node, input: Batch) -> Result<Batch, SparqlError> {
        match node {
            Node::Input => Ok(input),
            Node::Join { .. } | Node::Filter { .. } => {
                let mut out = Batch::new(input.width());
                self.drive(node, input, &mut Sink::Append(&mut out))?;
                Ok(out)
            }
            Node::Bind { input: child, expr, slot, op } => {
                let b = self.exec(child, input)?;
                let out = self.exec_bind(b, expr, *slot)?;
                self.note(*op, out.len());
                Ok(out)
            }
            Node::Values { input: child, slots, data, op } => {
                let b = self.exec(child, input)?;
                let out = self.exec_values(&b, slots, data)?;
                self.note(*op, out.len());
                Ok(out)
            }
            Node::Optional { input: child, inner, op } => {
                let b = self.exec(child, input)?;
                let out = self.exec_optional(&b, inner)?;
                self.note(*op, out.len());
                Ok(out)
            }
            Node::Union { input: child, arms, op } => {
                let base = self.exec(child, input)?;
                let mut out = Batch::new(base.width());
                for arm in arms {
                    let arm_out = self.exec(arm, base.clone())?;
                    out.append(&arm_out);
                }
                self.note(*op, out.len());
                Ok(out)
            }
            Node::PathJoin { input: child, s, path, o, op } => {
                let b = self.exec(child, input)?;
                let out = self.exec_path_join(&b, s, path, o)?;
                self.note(*op, out.len());
                Ok(out)
            }
            Node::SubSelect { input: child, plan, op } => {
                let b = self.exec(child, input)?;
                let out = self.exec_subselect(&b, plan)?;
                self.note(*op, out.len());
                Ok(out)
            }
            Node::Minus { input: child, inner, op } => {
                let b = self.exec(child, input)?;
                let out = self.exec_minus(b, inner)?;
                self.note(*op, out.len());
                Ok(out)
            }
        }
    }

    fn exec_bind(
        &mut self,
        mut batch: Batch,
        expr: &Expr,
        slot: usize,
    ) -> Result<Batch, SparqlError> {
        for r in 0..batch.len() {
            let row = self.to_row(&batch, r);
            let id = match self.eval(expr, &row) {
                Some(v) => self.arena.intern(self.store, &v.to_term()),
                None => UNBOUND,
            };
            batch.set(r, slot, id);
        }
        self.guard.surface()?;
        Ok(batch)
    }

    fn exec_values(
        &mut self,
        input: &Batch,
        slots: &[usize],
        data: &[Vec<Option<Term>>],
    ) -> Result<Batch, SparqlError> {
        let tuples: Vec<Vec<Option<EId>>> = data
            .iter()
            .map(|tuple| {
                tuple.iter().map(|t| t.as_ref().map(|t| self.arena.intern(self.store, t))).collect()
            })
            .collect();
        let mut out = Batch::new(input.width());
        let mut tally = self.guard.tally(batch_row_cost(out.width()));
        let mut overrides: Vec<(usize, EId)> = Vec::new();
        for r in 0..input.len() {
            'data: for tuple in &tuples {
                overrides.clear();
                for (slot, id) in slots.iter().zip(tuple) {
                    if let Some(id) = id {
                        let existing = input.get(r, *slot);
                        if existing != UNBOUND {
                            if existing != *id {
                                continue 'data; // incompatible binding
                            }
                        } else {
                            overrides.push((*slot, *id));
                        }
                    }
                }
                tally.add_row()?;
                out.push_row_from(input, r, &overrides);
            }
        }
        tally.flush()?;
        Ok(out)
    }

    fn exec_optional(&mut self, input: &Batch, inner: &'s Node) -> Result<Batch, SparqlError> {
        let mut inner_input = input.clone();
        inner_input.reset_prov();
        let extended = self.exec(inner, inner_input)?;
        // regroup extended rows under their source row, in source order
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); input.len()];
        for r in 0..extended.len() {
            buckets[extended.prov(r) as usize].push(r);
        }
        let mut out = Batch::new(input.width());
        for (r, bucket) in buckets.iter().enumerate() {
            if bucket.is_empty() {
                out.push_row(&input.row(r), input.prov(r));
            } else {
                for &ir in bucket {
                    out.push_row(&extended.row(ir), input.prov(r));
                }
            }
        }
        Ok(out)
    }

    /// The binding of one execution id, as expression evaluation reads it.
    fn bound(&self, id: EId) -> Option<Bound> {
        if id == UNBOUND {
            None
        } else if let Some(tid) = as_store(id) {
            Some(Bound::Id(tid))
        } else {
            Some(Bound::Term(self.arena.term(self.store, id).clone()))
        }
    }

    fn to_row(&self, batch: &Batch, r: usize) -> Row {
        (0..batch.width()).map(|c| self.bound(batch.get(r, c))).collect()
    }

    /// The frame slot of the one variable `e` reads, when it reads exactly
    /// one and holds no `EXISTS` (whose pattern reads the whole row but
    /// whose variables [`Expr::variables`] does not report).
    fn single_var_slot(&self, e: &Expr) -> Option<usize> {
        if e.has_exists() {
            return None;
        }
        let mut vars = Vec::new();
        e.variables(&mut vars);
        match vars.as_slice() {
            [v] => self.frame.index(v),
            _ => None,
        }
    }

    /// A column of `e`'s values, memoized per id when `e` reads one
    /// variable and no `EXISTS`.
    fn column(&self, e: &Expr) -> ExprColumn {
        let (expr, slot) = (e.clone(), self.single_var_slot(e));
        ExprColumn { expr, slot, ids: IdMap::default(), vals: Vec::new(), idx: Vec::new() }
    }

    /// Evaluate `col`'s expression on every row of `batch`. A memoized
    /// column evaluates each id it has not seen in an earlier batch once;
    /// the guard is still probed once per row, as per-row evaluation
    /// would. A value computed after the guard tripped stands in for an
    /// error on its own row and is never memoized. Anything else is
    /// evaluated per row.
    fn eval_column(&self, col: &mut ExprColumn, batch: &Batch) {
        col.idx.clear();
        let Some(slot) = col.slot else {
            col.vals.clear();
            for r in 0..batch.len() {
                col.vals.push(self.eval(&col.expr, &self.to_row(batch, r)));
                col.idx.push(r as u32);
            }
            return;
        };
        let mut row: Row = vec![None; batch.width()];
        for &id in batch.column(slot) {
            if let Some(&i) = col.ids.get(&id) {
                self.guard.soft_tripped();
                col.idx.push(i);
                continue;
            }
            row[slot] = self.bound(id);
            let i = col.vals.len() as u32;
            col.vals.push(self.eval(&col.expr, &row));
            if self.guard.surface().is_ok() {
                col.ids.insert(id, i);
            }
            col.idx.push(i);
        }
    }
}

/// The top-level `&&` operands of `e`, left to right.
fn conjuncts(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::And(a, b) => {
            let mut out = conjuncts(a);
            out.extend(conjuncts(b));
            out
        }
        _ => vec![e],
    }
}
