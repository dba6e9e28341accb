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
//! Execution is sequential, on the caller's thread. Join and fold loops
//! probe the request's [`LimitGuard`] once per morsel of `MORSEL_ROWS`
//! rows, so a deadline or a raised cancel flag stops them within a few
//! microseconds of work, and they count rows into a [`Tally`] that charges
//! the guard in blocks.
//!
//! An index-join step reads its pattern one of two ways. By default it
//! probes the store once per input row (index-nested-loop). When the step's
//! subject is a variable bound in the input, its predicate is a constant and
//! the input is large next to the pattern's posting run
//! ([`Store::prefer_seek`]), it instead scans that run once into a
//! subject-indexed `ScanSide` and looks each row's subject up in it. The
//! side yields what the probe would, in the same order, so the choice never
//! shows in the output.
//!
//! Every form the parser accepts compiles to this one plan. Sub-selects run
//! once per execution in their own frame and join like `VALUES`; `MINUS`
//! anti-joins an inner tree run from an empty seed; a non-IRI property path
//! is a join step that walks the path from each row's anchors; and every
//! `EXISTS` is a sub-plan compiled once and run seeded with the row
//! (`nested`). `CONSTRUCT`, `ASK` and update `WHERE` clauses execute the
//! same tree and hand back its rows.

mod nested;
pub mod rows;

use crate::ast::*;
use crate::batch::{as_store, pack_store, Batch, EId, IdMap, IdSet, TermArena, UNBOUND};
use crate::engine::EvalOptions;
use crate::expr::eval_expr_limited;
use crate::results::Solutions;
use crate::SparqlError;
use nested::ExistsPlan;
use rdfa_exec::{LimitError, LimitGuard, Tally};
use rdfa_model::{Term, Value};
use rdfa_store::{IdTriple, Store, TermId};
use rows::{collect_vars, finalize_rows, select_items, Bound, Frame, Row, EMPTY_FRAME};
use std::cell::RefCell;
use std::collections::HashSet;
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

/// Fewest bound-subject rows for which a join step considers scanning its
/// pattern instead of probing per row: below one morsel the probes cost
/// under a millisecond, and the side's fixed cost (the offsets array over
/// the run's subject id span) would not pay back.
const SCAN_MIN_PROBES: usize = MORSEL_ROWS;

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
    /// Always 0: execution is sequential. Kept for old readers.
    #[doc(hidden)]
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

// ---- compilation -----------------------------------------------------------

/// Compile any parsed query form to a physical plan.
pub(crate) fn compile(form: &QueryForm, store: &Store, options: &EvalOptions) -> PhysicalPlan {
    match form {
        QueryForm::Select(q) => compile_select(q, store, options),
        QueryForm::Construct { template, where_ } => {
            compile_where(where_, format!("Construct({} templates)", template.len()), store, options)
        }
        QueryForm::Ask(where_) => compile_where(where_, "Ask".to_owned(), store, options),
        QueryForm::Describe(resources) => {
            let label = format!("Describe({} resources)", resources.len());
            let ops = vec![OpMeta { label, kind: "describe", estimate: None }];
            PhysicalPlan { form: PlanForm::Describe, ops, depth: 0, tail_op: 0 }
        }
    }
}

/// Compile a `SELECT` query to a physical plan.
pub(crate) fn compile_select(q: &SelectQuery, store: &Store, options: &EvalOptions) -> PhysicalPlan {
    let mut ops = Vec::new();
    let mut depth = 0;
    let mut c = Compiler::new(store, &EMPTY_FRAME, options.reorder_bgp, &mut ops, &mut depth);
    let sp = c.compile_select(q, 0);
    let tail_op = sp.select_op;
    PhysicalPlan { form: PlanForm::Select(Box::new(sp)), ops, depth, tail_op }
}

/// Compile a bare `WHERE` clause (CONSTRUCT, ASK, update) whose rows are the
/// result; `tail` labels the stage that consumes them.
pub(crate) fn compile_where(
    where_: &GroupPattern,
    tail: String,
    store: &Store,
    options: &EvalOptions,
) -> PhysicalPlan {
    let mut ops = Vec::new();
    let mut depth = 0;
    let mut frame = Frame::default();
    collect_vars(where_, &mut frame);
    let mut c = Compiler::new(store, &frame, options.reorder_bgp, &mut ops, &mut depth);
    let mut bound = vec![false; frame.len()];
    let root = c.compile_group(where_, Node::Input, &mut bound, 1);
    let exists = std::mem::take(&mut c.exists);
    let tail_op = c.op(tail, "tail", None);
    let scope = Scope { root, frame, exists };
    PhysicalPlan { form: PlanForm::Rows(scope), ops, depth, tail_op }
}

/// Compiles the groups of one scope (one frame). Nested scopes — sub-selects
/// and `EXISTS` patterns — get a child compiler over their own frame that
/// shares the operator table and the depth high-water mark.
struct Compiler<'a> {
    store: &'a Store,
    frame: &'a Frame,
    reorder: bool,
    ops: &'a mut Vec<OpMeta>,
    depth: &'a mut u32,
    /// This scope's compiled `EXISTS` patterns.
    exists: Vec<ExistsPlan>,
}

impl<'a> Compiler<'a> {
    fn new(
        store: &'a Store,
        frame: &'a Frame,
        reorder: bool,
        ops: &'a mut Vec<OpMeta>,
        depth: &'a mut u32,
    ) -> Self {
        Compiler { store, frame, reorder, ops, depth, exists: Vec::new() }
    }

    /// A compiler for a nested scope over `frame`.
    fn child<'b>(&'b mut self, frame: &'b Frame) -> Compiler<'b> {
        Compiler::new(self.store, frame, self.reorder, self.ops, self.depth)
    }

    fn op(&mut self, label: String, kind: &'static str, estimate: Option<f64>) -> usize {
        self.ops.push(OpMeta { label, kind, estimate });
        self.ops.len() - 1
    }

    /// Compile a `SELECT` whose `WHERE` group sits at nesting `level + 1`.
    fn compile_select(&mut self, q: &SelectQuery, level: u32) -> SelectPlan {
        let mut frame = Frame::default();
        collect_vars(&q.where_, &mut frame);
        let mut c = self.child(&frame);
        let mut bound = vec![false; frame.len()];
        let root = c.compile_group(&q.where_, Node::Input, &mut bound, level + 1);
        let items = select_items(q, &frame);
        // projection, grouping and HAVING expressions read the WHERE frame
        let exprs = items.iter().map(|it| &it.expr).chain(&q.group_by).chain(&q.having);
        for e in exprs {
            c.compile_exists(e, level + 1);
        }
        let exists = std::mem::take(&mut c.exists);
        // ORDER BY keys read the projected row
        let out_frame = Frame::new(items.iter().map(|it| it.alias.clone()).collect());
        let mut oc = c.child(&out_frame);
        for spec in &q.order_by {
            oc.compile_exists(&spec.expr, level + 1);
        }
        let order_exists = std::mem::take(&mut oc.exists);
        let has_agg = items.iter().any(|it| it.expr.has_aggregate())
            || q.having.as_ref().is_some_and(|h| h.has_aggregate());
        let grouped = !q.group_by.is_empty() || has_agg;
        let select_op = c.op(
            if grouped {
                format!("GroupAggregate(keys={}, items={})", q.group_by.len(), items.len())
            } else {
                format!("Project({} items)", items.len())
            },
            "select",
            None,
        );
        let scope = Scope { root, frame, exists };
        SelectPlan { query: q.clone(), scope, select_op, grouped, order_exists }
    }

    /// Compile every `EXISTS` pattern in `e` not compiled yet in this scope,
    /// as a sub-plan over this frame plus the pattern's own variables, its
    /// group at nesting `level`. The outer variables count as bound: the
    /// sub-plan runs seeded with the row.
    fn compile_exists(&mut self, e: &Expr, level: u32) {
        match e {
            Expr::Exists(g, _) => {
                if self.exists.iter().any(|ep| ep.group == *g) {
                    return;
                }
                let mut frame = self.frame.clone();
                collect_vars(g, &mut frame);
                let mut bound = vec![false; frame.len()];
                bound[..self.frame.len()].fill(true);
                let mut c = self.child(&frame);
                let root = c.compile_group(g, Node::Input, &mut bound, level);
                let exists = std::mem::take(&mut c.exists);
                let op = self.op("Exists".to_owned(), "exists", None);
                let scope = Scope { root, frame, exists };
                self.exists.push(ExistsPlan { group: g.clone(), scope, op });
            }
            Expr::Or(a, b) | Expr::And(a, b) | Expr::Compare(a, _, b) | Expr::Arith(a, _, b) => {
                self.compile_exists(a, level);
                self.compile_exists(b, level);
            }
            Expr::Not(x) | Expr::Neg(x) | Expr::Aggregate(_, _, Some(x)) => {
                self.compile_exists(x, level)
            }
            Expr::In(x, list, _) => {
                self.compile_exists(x, level);
                for item in list {
                    self.compile_exists(item, level);
                }
            }
            Expr::Call(_, args) => {
                for a in args {
                    self.compile_exists(a, level);
                }
            }
            Expr::Var(_) | Expr::Const(_) | Expr::Aggregate(_, _, None) => {}
        }
    }

    fn compile_group(
        &mut self,
        g: &GroupPattern,
        input: Node,
        bound: &mut Vec<bool>,
        level: u32,
    ) -> Node {
        *self.depth = (*self.depth).max(level);
        let mut node = input;
        let mut filters: Vec<Expr> = Vec::new();
        let els = &g.elements;
        let mut i = 0;
        while i < els.len() {
            match &els[i] {
                PatternElement::Triple(_) => {
                    let mut bgp: Vec<&TriplePattern> = Vec::new();
                    while let Some(PatternElement::Triple(t)) = els.get(i) {
                        bgp.push(t);
                        i += 1;
                    }
                    node = self.compile_bgp(&bgp, node, bound);
                    continue;
                }
                PatternElement::Filter(e) => {
                    // filters run at the group's end, at its nesting level
                    self.compile_exists(e, level + 1);
                    filters.push(e.clone());
                }
                PatternElement::Optional(g2) => {
                    let mut inner_bound = bound.clone();
                    let inner = self.compile_group(g2, Node::Input, &mut inner_bound, level + 1);
                    // after OPTIONAL the inner vars *may* be bound; treating
                    // them as bound only steers later join ordering
                    *bound = inner_bound;
                    let op = self.op("Optional".to_owned(), "optional", None);
                    node = Node::Optional { input: Box::new(node), inner: Box::new(inner), op };
                }
                PatternElement::Union(arms) => {
                    let mut arm_nodes = Vec::new();
                    let mut merged = bound.clone();
                    for arm in arms {
                        let mut ab = bound.clone();
                        arm_nodes.push(self.compile_group(arm, Node::Input, &mut ab, level + 1));
                        for (m, b) in merged.iter_mut().zip(&ab) {
                            *m = *m || *b;
                        }
                    }
                    *bound = merged;
                    let op = self.op(format!("Union({} arms)", arm_nodes.len()), "union", None);
                    node = Node::Union { input: Box::new(node), arms: arm_nodes, op };
                }
                PatternElement::Group(g2) => {
                    node = self.compile_group(g2, node, bound, level + 1);
                }
                PatternElement::Bind(e, v) => {
                    let slot = self.frame.index(v).expect("BIND target is in the frame");
                    self.compile_exists(e, level + 1);
                    let op = self.op(format!("Bind ?{v}"), "bind", None);
                    bound[slot] = true;
                    node = Node::Bind { input: Box::new(node), expr: e.clone(), slot, op };
                }
                PatternElement::Values(vars, data) => {
                    let slots: Vec<usize> = vars
                        .iter()
                        .map(|v| self.frame.index(v).expect("VALUES vars are in the frame"))
                        .collect();
                    for &s in &slots {
                        bound[s] = true;
                    }
                    let op = self.op(format!("Values({} tuples)", data.len()), "values", None);
                    node = Node::Values { input: Box::new(node), slots, data: data.clone(), op };
                }
                PatternElement::SubSelect(sub) => {
                    let plan = Box::new(self.compile_select(sub, level));
                    let vars = select_items(sub, &plan.scope.frame);
                    for it in &vars {
                        if let Some(slot) = self.frame.index(&it.alias) {
                            bound[slot] = true;
                        }
                    }
                    let names: Vec<String> = vars.iter().map(|it| format!("?{}", it.alias)).collect();
                    let op = self.op(format!("SubSelect({})", names.join(" ")), "subselect", None);
                    node = Node::SubSelect { input: Box::new(node), plan, op };
                }
                PatternElement::Minus(g2) => {
                    // bottom-up: the inner group sees none of the outer bindings
                    let mut inner_bound = vec![false; bound.len()];
                    let inner = self.compile_group(g2, Node::Input, &mut inner_bound, level + 1);
                    let op = self.op("Minus".to_owned(), "minus", None);
                    node = Node::Minus { input: Box::new(node), inner: Box::new(inner), op };
                }
            }
            i += 1;
        }
        if !filters.is_empty() {
            let op = self.op(format!("Filter({} exprs)", filters.len()), "filter", None);
            node = Node::Filter { input: Box::new(node), exprs: filters, op };
        }
        node
    }

    fn compile_bgp(&mut self, patterns: &[&TriplePattern], input: Node, bound: &mut [bool]) -> Node {
        let order = if self.reorder {
            plan_order(self.store, patterns, self.frame, bound)
        } else {
            (0..patterns.len()).collect()
        };
        let mut node = input;
        for idx in order {
            let tp = patterns[idx];
            let est = estimate_pattern(self.store, tp);
            let s = self.cslot(&tp.subject, bound);
            let o = self.cslot(&tp.object, bound);
            let p = match &tp.predicate {
                PathOrVar::Var(v) => {
                    let slot = self.frame.index(v).expect("pattern vars are in the frame");
                    bound[slot] = true;
                    CPred::Var(slot)
                }
                PathOrVar::Path(PropertyPath::Iri(iri)) => match self.store.lookup_iri(iri) {
                    Some(id) => CPred::Const(id),
                    None => CPred::Missing,
                },
                PathOrVar::Path(path) => {
                    let op = self.op(format!("PathJoin {}", fmt_pattern(tp)), "path", Some(est));
                    let input = Box::new(node);
                    node = Node::PathJoin { input, s, path: path.clone(), o, op };
                    continue;
                }
            };
            let op = self.op(format!("IndexJoin {}", fmt_pattern(tp)), "join", Some(est));
            node = Node::Join { input: Box::new(node), s, p, o, op };
        }
        node
    }

    fn cslot(&self, t: &TermPattern, bound: &mut [bool]) -> CSlot {
        match t {
            TermPattern::Term(term) => match self.store.lookup(term) {
                Some(id) => CSlot::Const(id),
                None => CSlot::Missing,
            },
            TermPattern::Var(v) => {
                let slot = self.frame.index(v).expect("pattern vars are in the frame");
                bound[slot] = true;
                CSlot::Var(slot)
            }
        }
    }
}

/// Greedy join ordering driven by the static may-be-bound variable set:
/// start from the most
/// selective pattern, then repeatedly pick the cheapest pattern connected
/// to the bound variables (100× bonus against cartesian products).
fn plan_order(
    store: &Store,
    patterns: &[&TriplePattern],
    frame: &Frame,
    bound: &[bool],
) -> Vec<usize> {
    let mut bound_vars = bound.to_vec();
    let estimates: Vec<f64> = patterns.iter().map(|tp| estimate_pattern(store, tp)).collect();
    let pattern_vars: Vec<Vec<usize>> = patterns
        .iter()
        .map(|tp| {
            let mut v = Vec::new();
            if let Some(name) = tp.subject.as_var() {
                if let Some(i) = frame.index(name) {
                    v.push(i);
                }
            }
            if let PathOrVar::Var(name) = &tp.predicate {
                if let Some(i) = frame.index(name) {
                    v.push(i);
                }
            }
            if let Some(name) = tp.object.as_var() {
                if let Some(i) = frame.index(name) {
                    v.push(i);
                }
            }
            v
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
                    let bonus = if connected || order.is_empty() { 0.01 } else { 1.0 };
                    estimates[i] * bonus
                };
                score(a).partial_cmp(&score(b)).unwrap_or(std::cmp::Ordering::Equal)
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

/// Static cardinality estimate for one pattern (constants only): the exact
/// [`Store::run_len`] of its constants, read off the index by position.
pub(crate) fn estimate_pattern(store: &Store, tp: &TriplePattern) -> f64 {
    let s = match &tp.subject {
        TermPattern::Term(t) => match store.lookup(t) {
            Some(id) => Some(id),
            None => return 0.0,
        },
        TermPattern::Var(_) => None,
    };
    let o = match &tp.object {
        TermPattern::Term(t) => match store.lookup(t) {
            Some(id) => Some(id),
            None => return 0.0,
        },
        TermPattern::Var(_) => None,
    };
    let p = match &tp.predicate {
        PathOrVar::Path(PropertyPath::Iri(iri)) => match store.lookup_iri(iri) {
            Some(id) => Some(id),
            None => return 0.0,
        },
        PathOrVar::Path(_) => return 1000.0, // complex path: moderately expensive
        PathOrVar::Var(_) => None,
    };
    store.run_len(s, p, o) as f64
}

fn fmt_pattern(tp: &TriplePattern) -> String {
    fn pos(t: &TermPattern) -> String {
        match t {
            TermPattern::Var(v) => format!("?{v}"),
            TermPattern::Term(t) => t.display_name(),
        }
    }
    fn path(p: &PropertyPath) -> String {
        match p {
            PropertyPath::Iri(iri) => Term::iri(iri.clone()).display_name(),
            PropertyPath::Inverse(x) => format!("^{}", path(x)),
            PropertyPath::Sequence(a, b) => format!("({}/{})", path(a), path(b)),
            PropertyPath::Alternative(a, b) => format!("({}|{})", path(a), path(b)),
            PropertyPath::ZeroOrMore(x) => format!("{}*", path(x)),
            PropertyPath::OneOrMore(x) => format!("{}+", path(x)),
            PropertyPath::ZeroOrOne(x) => format!("{}?", path(x)),
        }
    }
    let p = match &tp.predicate {
        PathOrVar::Var(v) => format!("?{v}"),
        PathOrVar::Path(p) => path(p),
    };
    format!("{} {} {}", pos(&tp.subject), p, pos(&tp.object))
}

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

/// One group under construction: its first source row (the representative
/// for non-aggregate expressions, and the row its key columns are read at)
/// and one state per spec.
struct GroupAcc {
    first_row: usize,
    states: Vec<AggState>,
}

/// Per-row values of an expression in dictionary form: row `r` holds
/// `vals[idx[r]]` ([`Executor::eval_column`]).
struct ValueColumn {
    idx: Vec<u32>,
    vals: Vec<Option<Value>>,
}

impl ValueColumn {
    fn get(&self, r: usize) -> Option<&Value> {
        self.vals[self.idx[r] as usize].as_ref()
    }

    /// Map each entry through `f` once, then lay the results out by row.
    fn map<T: Clone>(&self, f: impl FnMut(Option<&Value>) -> T) -> Vec<T> {
        let mapped: Vec<T> = self.vals.iter().map(Option::as_ref).map(f).collect();
        self.idx.iter().map(|&i| mapped[i as usize].clone()).collect()
    }
}

/// Where one aggregate draws its per-row input from. Every input is a
/// column built before the fold, so the fold never evaluates an expression
/// or interns a term.
enum AggIn {
    /// `COUNT(*)`: every row contributes `1`.
    Star,
    /// A variable absent from the frame: never contributes.
    Never,
    /// A plain variable at frame slot `col`; for a DISTINCT aggregate,
    /// `canon` holds the column's canonical ids (else it is empty).
    Slot { col: usize, canon: Vec<EId> },
    /// Any other expression.
    Expr(ValueColumn),
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
/// nothing, one key hashes its id, and more keys look up through one reused
/// buffer that is copied only for a new group.
enum GroupIndex {
    Single,
    One(IdMap<EId, usize>),
    Many { map: IdMap<Vec<EId>, usize>, buf: Vec<EId> },
}

impl GroupIndex {
    fn new(n_keys: usize) -> Self {
        match n_keys {
            0 => GroupIndex::Single,
            1 => GroupIndex::One(IdMap::default()),
            _ => GroupIndex::Many { map: IdMap::default(), buf: Vec::with_capacity(n_keys) },
        }
    }

    /// The group of the key `keys` hold at row `r`; a key not seen before
    /// gets the number `next`.
    fn group(&mut self, keys: &[Vec<EId>], r: usize, next: usize) -> usize {
        match self {
            GroupIndex::Single => 0,
            GroupIndex::One(map) => *map.entry(keys[0][r]).or_insert(next),
            GroupIndex::Many { map, buf } => {
                buf.clear();
                buf.extend(keys.iter().map(|col| col[r]));
                match map.get(buf.as_slice()) {
                    Some(&g) => g,
                    None => {
                        map.insert(buf.clone(), next);
                        next
                    }
                }
            }
        }
    }
}

/// Read-only inputs of the grouping fold.
struct FoldCtx<'a> {
    store: &'a Store,
    arena: &'a TermArena,
    batch: &'a Batch,
    /// Canonical key ids, one column per `GROUP BY` expression.
    keys: &'a [Vec<EId>],
    specs: &'a [AggSpec],
    inputs: &'a [AggIn],
}

/// Hash-aggregate the batch's rows into groups in first-seen order. Only
/// precomputed columns are read. `COUNT` of a variable tests the slot for
/// binding, DISTINCT over a variable dedupes on canonical ids, and any
/// other use of a variable decodes its value once per distinct id. Probes
/// `guard` at every morsel boundary, so the fold stops at a deadline or a
/// cancel.
fn fold_rows(ctx: &FoldCtx<'_>, guard: &LimitGuard) -> Result<Vec<GroupAcc>, LimitError> {
    let mut memo: IdMap<EId, Value> = IdMap::default();
    let mut index = GroupIndex::new(ctx.keys.len());
    let mut groups: Vec<GroupAcc> = Vec::new();
    for r in 0..ctx.batch.len() {
        if r > 0 && r.is_multiple_of(MORSEL_ROWS) {
            guard.probe()?;
        }
        let g = index.group(ctx.keys, r, groups.len());
        if g == groups.len() {
            groups.push(GroupAcc { first_row: r, states: fresh_states(ctx.specs, ctx.inputs) });
        }
        for (state, input) in groups[g].states.iter_mut().zip(ctx.inputs) {
            match input {
                AggIn::Never => {}
                AggIn::Star => state.update(&Value::Int(1)),
                AggIn::Expr(col) => {
                    if let Some(v) = col.get(r) {
                        state.update(v);
                    }
                }
                AggIn::Slot { col, canon } => {
                    let id = ctx.batch.get(r, *col);
                    if id == UNBOUND {
                        continue;
                    }
                    match state {
                        AggState::Count(n) => *n += 1,
                        AggState::DistinctIds { op, seen, values } => {
                            if seen.insert(canon[r]) && *op != AggregateOp::Count {
                                values.push(decode(ctx, &mut memo, id).clone());
                            }
                        }
                        _ => state.update(decode(ctx, &mut memo, id)),
                    }
                }
            }
        }
    }
    Ok(groups)
}

/// The typed value of execution id `id`, decoded on its first use.
fn decode<'m>(ctx: &FoldCtx<'_>, memo: &'m mut IdMap<EId, Value>, id: EId) -> &'m Value {
    memo.entry(id).or_insert_with(|| Value::from_term(ctx.arena.term(ctx.store, id)))
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
        PlanForm::Select(sp) => {
            let out = ex.exec(&sp.scope.root, Batch::seed(frame.len()))?;
            Output::Solutions(ex.finish_select(sp, out)?)
        }
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
        morsels: 0,
        arena_terms: ex.arena.len(),
        elapsed: t0.elapsed(),
    };
    Ok((output, stats))
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
}

/// Runtime anchor of a join position for one input row.
enum RAnchor {
    Fixed(TermId),
    BoundV(TermId),
    Free(usize),
}

impl RAnchor {
    fn id(&self) -> Option<TermId> {
        match self {
            RAnchor::Fixed(id) | RAnchor::BoundV(id) => Some(*id),
            RAnchor::Free(_) => None,
        }
    }
}

fn same_free(a: &RAnchor, b: &RAnchor) -> bool {
    matches!((a, b), (RAnchor::Free(x), RAnchor::Free(y)) if x == y)
}

/// Bind an anchor to a matched id; false rejects the match.
fn anchor_bind(a: &RAnchor, value: TermId, overrides: &mut Vec<(usize, EId)>) -> bool {
    match a {
        RAnchor::Fixed(_) => true,
        RAnchor::BoundV(id) => *id == value,
        RAnchor::Free(slot) => {
            overrides.push((*slot, pack_store(value)));
            true
        }
    }
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
            Node::Join { input: child, s, p, o, op } => {
                let b = self.exec(child, input)?;
                let out = self.exec_join(&b, s, p, o, *op)?;
                self.note(*op, out.len());
                Ok(out)
            }
            Node::Filter { input: child, exprs, op } => {
                let b = self.exec(child, input)?;
                let out = self.exec_filter(b, exprs)?;
                self.note(*op, out.len());
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

    /// The built side for one join step over `input`, or `None` to probe per
    /// row: the step must have a variable subject, a constant predicate
    /// and an object that can match, at least
    /// [`SCAN_MIN_PROBES`] rows must bind its subject to a store term, and
    /// one scan of the pattern's run must beat that many probes
    /// ([`Store::prefer_seek`]). The build honours the deadline and the
    /// cancel flag and charges its bytes to the memory budget.
    fn scan_side(
        &self,
        input: &Batch,
        s: &CSlot,
        p: &CPred,
        o: &CSlot,
    ) -> Result<Option<ScanSide>, SparqlError> {
        let (CSlot::Var(slot), CPred::Const(p)) = (s, p) else {
            return Ok(None);
        };
        let o = match o {
            CSlot::Const(id) => Some(*id),
            CSlot::Var(_) => None,
            CSlot::Missing => return Ok(None),
        };
        let probes = input.column(*slot).iter().filter(|&&v| as_store(v).is_some()).count();
        if probes < SCAN_MIN_PROBES || self.store.prefer_seek(probes, *p, o) {
            return Ok(None);
        }
        Ok(Some(ScanSide::build(self.store, *p, o, &self.guard)?))
    }

    /// One index-join step over `input`, reading a built side when
    /// [`Executor::scan_side`] builds one and probing the index per row
    /// otherwise. Rows are charged to the guard through a [`Tally`].
    fn exec_join(
        &mut self,
        input: &Batch,
        s: &CSlot,
        p: &CPred,
        o: &CSlot,
        op: usize,
    ) -> Result<Batch, SparqlError> {
        let side = self.scan_side(input, s, p, o)?;
        if let Some(side) = &side {
            self.op_scanned[op] += side.len() as u64;
        }
        let mut out = Batch::new(input.width());
        let mut tally = self.guard.tally(batch_row_cost(input.width()));
        join_rows(self.store, input, (s, p, o), side.as_ref(), &mut out, &mut tally)?;
        tally.flush()?;
        Ok(out)
    }

    /// Keep the rows on which every expression is true. A top-level `&&`
    /// splits into conjuncts, each evaluated as its own column (and so
    /// memoized when it reads one variable): a row survives `a && b` iff
    /// both are true, and a conjunct that errs drops it either way. Every
    /// conjunct still sees every row, as the unsplit `&&` evaluates both
    /// sides.
    fn exec_filter(&mut self, mut batch: Batch, exprs: &[Expr]) -> Result<Batch, SparqlError> {
        for e in exprs {
            let mut keep = vec![true; batch.len()];
            for c in conjuncts(e) {
                let pass = self
                    .eval_column(c, &batch)
                    .map(|v| v.and_then(Value::effective_boolean) == Some(true));
                for (k, p) in keep.iter_mut().zip(pass) {
                    *k &= p;
                }
            }
            batch.retain_rows(&keep);
            self.guard.surface()?;
        }
        Ok(batch)
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

    /// Evaluate `e` on every row of `batch`. When `e` reads one variable
    /// and no `EXISTS`, its value depends on that slot's id alone (every
    /// builtin is deterministic), so it is evaluated once per distinct id;
    /// the guard is still probed once per row, as per-row evaluation would.
    /// A value computed after the guard tripped stands in for an error on
    /// its own row and is never memoized. Anything else is evaluated per
    /// row.
    fn eval_column(&self, e: &Expr, batch: &Batch) -> ValueColumn {
        let n = batch.len();
        let Some(slot) = self.single_var_slot(e) else {
            let vals = (0..n).map(|r| self.eval(e, &self.to_row(batch, r))).collect();
            return ValueColumn { idx: (0..n as u32).collect(), vals };
        };
        let mut memo: IdMap<EId, u32> = IdMap::default();
        let mut row: Row = vec![None; batch.width()];
        let mut col = ValueColumn { idx: Vec::with_capacity(n), vals: Vec::new() };
        for &id in batch.column(slot) {
            if let Some(&i) = memo.get(&id) {
                self.guard.soft_tripped();
                col.idx.push(i);
                continue;
            }
            row[slot] = self.bound(id);
            let i = col.vals.len() as u32;
            col.vals.push(self.eval(e, &row));
            if self.guard.surface().is_ok() {
                memo.insert(id, i);
            }
            col.idx.push(i);
        }
        col
    }

    /// Project or aggregate `batch` (rows of `sp`'s scope, which must be the
    /// current one) into `sp`'s solutions.
    fn finish_select(&mut self, sp: &'s SelectPlan, batch: Batch) -> Result<Solutions, SparqlError> {
        let q = &sp.query;
        let items = select_items(q, self.frame);
        let vars: Vec<String> = items.iter().map(|it| it.alias.clone()).collect();
        let out_rows = if sp.grouped {
            self.grouped_rows(q, &items, &batch)?
        } else {
            self.projected_rows(&items, &batch)
        };
        // ORDER BY keys read the projected row: its EXISTS plans answer
        let where_exists = std::mem::replace(&mut self.exists, &sp.order_exists);
        let solutions = finalize_rows(q, vars, out_rows, self.store, &self.guard, &*self);
        self.exists = where_exists;
        solutions
    }

    // ---- plain projection --------------------------------------------------

    /// One output column per item, then one row per input row. A variable
    /// projects each id's [`Executor::canon_term`]: an IRI or blank node is
    /// cloned straight from the store, and only a literal's canonical form,
    /// the one that can differ from the stored term, is memoized per id;
    /// any other item is an [`Executor::eval_column`].
    fn projected_rows(&self, items: &[SelectItem], batch: &Batch) -> Vec<Vec<Option<Term>>> {
        let n = batch.len();
        let mut literals: IdMap<EId, Option<Term>> = IdMap::default();
        let mut cols: Vec<std::vec::IntoIter<Option<Term>>> = Vec::with_capacity(items.len());
        for it in items {
            let col: Vec<Option<Term>> = match &it.expr {
                Expr::Var(v) => match self.frame.index(v) {
                    Some(c) => batch
                        .column(c)
                        .iter()
                        .map(|&id| match id {
                            UNBOUND => None,
                            _ => match self.arena.term(self.store, id) {
                                Term::Literal(_) => literals
                                    .entry(id)
                                    .or_insert_with(|| self.canon_term(id))
                                    .clone(),
                                t => Some(t.clone()),
                            },
                        })
                        .collect(),
                    None => vec![None; n], // projected var absent from the frame
                },
                e => self.eval_column(e, batch).map(|v| v.map(Value::to_term)),
            };
            cols.push(col.into_iter());
        }
        (0..n)
            .map(|_| cols.iter_mut().map(|c| c.next().expect("a cell per row")).collect())
            .collect()
    }

    // ---- grouping / aggregation --------------------------------------------

    fn grouped_rows(
        &mut self,
        q: &SelectQuery,
        items: &[SelectItem],
        batch: &Batch,
    ) -> Result<Vec<Vec<Option<Term>>>, SparqlError> {
        // distinct aggregate specs across projection and HAVING
        let mut specs: Vec<AggSpec> = Vec::new();
        for it in items {
            collect_agg_specs(&it.expr, &mut specs);
        }
        if let Some(h) = &q.having {
            collect_agg_specs(h, &mut specs);
        }

        // every key and input becomes a column before the fold: a variable
        // key as canonical ids, an expression key as the canonical ids of
        // its values
        let n = batch.len();
        let mut canon_memo: IdMap<EId, EId> = IdMap::default();
        let mut keys: Vec<Vec<EId>> = Vec::with_capacity(q.group_by.len());
        for e in &q.group_by {
            keys.push(match e {
                Expr::Var(v) => match self.frame.index(v) {
                    Some(c) => {
                        batch.column(c).iter().map(|&id| self.canon_id(id, &mut canon_memo)).collect()
                    }
                    None => vec![UNBOUND; n],
                },
                _ => {
                    let col = self.eval_column(e, batch);
                    let (store, arena) = (self.store, &mut self.arena);
                    col.map(|v| v.map_or(UNBOUND, |v| arena.intern(store, &v.to_term())))
                }
            });
        }
        let mut inputs: Vec<AggIn> = Vec::with_capacity(specs.len());
        for s in &specs {
            inputs.push(match &s.inner {
                None => AggIn::Star,
                Some(Expr::Var(v)) => match self.frame.index(v) {
                    Some(col) => {
                        let canon = if s.distinct {
                            let ids = batch.column(col).iter();
                            ids.map(|&id| self.canon_id(id, &mut canon_memo)).collect()
                        } else {
                            Vec::new()
                        };
                        AggIn::Slot { col, canon }
                    }
                    None => AggIn::Never,
                },
                Some(e) => AggIn::Expr(self.eval_column(e, batch)),
            });
        }

        let ctx = FoldCtx {
            store: self.store,
            arena: &self.arena,
            batch,
            keys: &keys,
            specs: &specs,
            inputs: &inputs,
        };
        let mut groups = fold_rows(&ctx, &self.guard)?;

        // an aggregate query with no GROUP BY over zero rows still yields
        // one group (COUNT(*) = 0)
        if groups.is_empty() && q.group_by.is_empty() {
            groups.push(GroupAcc { first_row: usize::MAX, states: fresh_states(&specs, &inputs) });
        }

        let mut out_rows = Vec::with_capacity(groups.len());
        for g in groups {
            let rep_row: Row = if g.first_row == usize::MAX {
                Vec::new()
            } else {
                self.to_row(batch, g.first_row)
            };
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
    fn canon_term(&self, id: EId) -> Option<Term> {
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

/// One join step's pattern `(?, p, o)` read in a single scan and laid out
/// by subject (compressed sparse row): subject `base + i` owns
/// `objects[offsets[i]..offsets[i + 1]]`.
///
/// The scan yields the explicit layer's run, then the inferred layer's, each
/// in POS order; the layout is a stable counting sort by subject, so each
/// subject's slice holds its explicit objects ascending, then its inferred
/// ones ascending — exactly what `Store::matching(Some(s), Some(p), o)`
/// yields, in the same order. A join reading the side therefore emits the
/// probe path's batch row for row.
struct ScanSide {
    base: u32,
    offsets: Vec<u32>,
    objects: Vec<TermId>,
}

impl ScanSide {
    /// Scan `(?, p, o)` once into a side. Probes `guard` before the scan
    /// and once per morsel of [`MORSEL_ROWS`] triples,
    /// charging the scratch pairs as they grow and the offsets and objects
    /// before they are allocated.
    fn build(
        store: &Store,
        p: TermId,
        o: Option<TermId>,
        guard: &LimitGuard,
    ) -> Result<Self, LimitError> {
        const PAIR_BYTES: u64 = std::mem::size_of::<(u32, TermId)>() as u64;
        const ID_BYTES: u64 = std::mem::size_of::<u32>() as u64;
        guard.probe()?;
        let mut pairs: Vec<(u32, TermId)> = Vec::new();
        for [s, _, obj] in store.matching(None, Some(p), o) {
            pairs.push((s.0, obj));
            if pairs.len().is_multiple_of(MORSEL_ROWS) {
                guard.checkpoint(0, MORSEL_ROWS as u64 * PAIR_BYTES)?;
            }
        }
        let n = pairs.len();
        let base = pairs.iter().map(|&(s, _)| s).min().unwrap_or(0);
        let span = pairs.iter().map(|&(s, _)| (s - base) as usize + 1).max().unwrap_or(0);
        let tail = (n % MORSEL_ROWS) as u64 * PAIR_BYTES;
        guard.checkpoint(0, tail + (span as u64 + 1 + n as u64) * ID_BYTES)?;
        // counts land one slot right, so the prefix sum yields slice starts
        let mut offsets = vec![0u32; span + 1];
        for &(s, _) in &pairs {
            offsets[(s - base) as usize + 1] += 1;
        }
        for i in 1..=span {
            offsets[i] += offsets[i - 1];
        }
        // scatter in scan order, advancing each subject's start as its cursor
        // (so it ends on the next subject's start), then shift back
        let mut objects = vec![TermId(0); n];
        for &(s, obj) in &pairs {
            let at = &mut offsets[(s - base) as usize];
            objects[*at as usize] = obj;
            *at += 1;
        }
        offsets.copy_within(0..span, 1);
        offsets[0] = 0;
        Ok(ScanSide { base, offsets, objects })
    }

    /// The objects of `s`'s matching triples, in probe order.
    fn objects(&self, s: TermId) -> &[TermId] {
        let i = s.0.wrapping_sub(self.base) as usize;
        match (self.offsets.get(i), self.offsets.get(i + 1)) {
            (Some(&lo), Some(&hi)) => &self.objects[lo as usize..hi as usize],
            _ => &[],
        }
    }

    /// Triples read into the side.
    fn len(&self) -> usize {
        self.objects.len()
    }
}

/// The index-nested-loop inner loop over `input`. Each row's matches come
/// from `side` when one was built and the row binds the subject to a store
/// term, else from one index probe; either way they append in
/// store-iteration order, so the two paths yield the same batch. The tally
/// is flushed, and the guard so probed, at every morsel boundary of the
/// input, also when the rows before it matched nothing.
fn join_rows(
    store: &Store,
    input: &Batch,
    (s, p, o): (&CSlot, &CPred, &CSlot),
    side: Option<&ScanSide>,
    out: &mut Batch,
    tally: &mut Tally<'_>,
) -> Result<(), LimitError> {
    let mut overrides: Vec<(usize, EId)> = Vec::with_capacity(3);
    let mut emit = |tally: &mut Tally<'_>,
                    r: usize,
                    sa: &RAnchor,
                    oa: &RAnchor,
                    p_slot: Option<usize>,
                    [sv, pv, ov]: IdTriple|
     -> Result<(), LimitError> {
        // repeated-variable consistency (?x p ?x)
        if same_free(sa, oa) && sv != ov {
            return Ok(());
        }
        overrides.clear();
        if !anchor_bind(sa, sv, &mut overrides) || !anchor_bind(oa, ov, &mut overrides) {
            return Ok(());
        }
        if let Some(ps) = p_slot {
            // the predicate binding wins on slot collisions, matching
            // the reference evaluator's overwrite order
            overrides.push((ps, pack_store(pv)));
        }
        tally.add_row()?;
        out.push_row_from(input, r, &overrides);
        Ok(())
    };
    for r in 0..input.len() {
        if r > 0 && r.is_multiple_of(MORSEL_ROWS) {
            tally.flush()?;
        }
        let sa = match resolve_slot(s, input, r) {
            Some(a) => a,
            None => continue,
        };
        let oa = match resolve_slot(o, input, r) {
            Some(a) => a,
            None => continue,
        };
        let (p_fixed, p_slot) = match p {
            CPred::Const(id) => (Some(*id), None),
            CPred::Missing => continue,
            CPred::Var(slot) => {
                let v = input.get(r, *slot);
                if v == UNBOUND {
                    (None, Some(*slot))
                } else if let Some(tid) = as_store(v) {
                    (Some(tid), None)
                } else {
                    continue; // bound to a computed term: never in the store
                }
            }
        };
        match (side, &sa, p_fixed) {
            (Some(side), RAnchor::BoundV(sv), Some(pv)) => {
                // a bound object keeps only its own match (`anchor_bind`),
                // which is all a probe with the object fixed would yield
                for &ov in side.objects(*sv) {
                    emit(tally, r, &sa, &oa, p_slot, [*sv, pv, ov])?;
                }
            }
            _ => {
                for t in store.matching(sa.id(), p_fixed, oa.id()) {
                    emit(tally, r, &sa, &oa, p_slot, t)?;
                }
            }
        }
    }
    Ok(())
}

/// Runtime anchor of one join position for one input row.
fn resolve_slot(c: &CSlot, input: &Batch, r: usize) -> Option<RAnchor> {
    match c {
        CSlot::Const(id) => Some(RAnchor::Fixed(*id)),
        CSlot::Missing => None,
        CSlot::Var(slot) => {
            let v = input.get(r, *slot);
            if v == UNBOUND {
                Some(RAnchor::Free(*slot))
            } else {
                // a computed (arena-local) term can never match the store
                as_store(v).map(RAnchor::BoundV)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CancelFlag, EvalLimits, LimitKind};
    use rdfa_model::{vocab::xsd, Literal};

    /// Deterministic xorshift stream, `0..n`.
    fn rng(seed: u64) -> impl FnMut(usize) -> usize {
        let mut x = seed;
        move |n| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        }
    }

    /// A predicate `p` with explicit edges, inferred ones (via a
    /// subproperty `q`), self-loops, and subjects spread over the id space.
    fn store_with_layers() -> (Store, Vec<TermId>, TermId) {
        let mut store = Store::new();
        let p = store.intern_iri("http://e/p");
        let q = store.intern_iri("http://e/q");
        let sub = store.well_known().rdfs_subpropertyof;
        store.insert_ids([q, sub, p]);
        let nodes: Vec<TermId> =
            (0..120).map(|i| store.intern_iri(&format!("http://e/n{i}"))).collect();
        let mut next = rng(11);
        for _ in 0..500 {
            let s = nodes[next(80)];
            let o = nodes[next(nodes.len())];
            let pred = if next(2) == 0 { p } else { q };
            store.insert_ids([s, pred, o]);
        }
        for &n in &nodes[..10] {
            store.insert_ids([n, p, n]);
        }
        store.materialize_inference();
        (store, nodes, p)
    }

    fn rows(b: &Batch) -> Vec<(Vec<EId>, u32)> {
        (0..b.len()).map(|r| (b.row(r), b.prov(r))).collect()
    }

    /// The built side is an internal alternative to the probe, not a switch:
    /// over one batch it must produce the probe's batch, rows and order.
    #[test]
    fn join_rows_with_a_built_side_equals_the_probe() {
        let (store, nodes, p) = store_with_layers();
        assert!(store.matching(None, Some(p), None).count() > store.len() / 2);
        let local = TermArena::new().intern(&store, &Term::integer(42));
        let mut next = rng(5);
        let mut pick = || match next(10) {
            0 => UNBOUND,
            1 => local,
            2 => pack_store(p), // a store term outside the subject span
            _ => pack_store(nodes[next(nodes.len())]),
        };
        let mut input = Batch::new(3);
        for r in 0..2_000u32 {
            let s = pick();
            let o = if r % 2 == 0 { UNBOUND } else { pick() };
            input.push_row(&[s, o, pack_store(nodes[0])], r);
        }
        let c = nodes[7];
        let steps = [
            (CSlot::Var(0), CSlot::Var(1), None),
            (CSlot::Var(0), CSlot::Var(0), None),
            (CSlot::Var(0), CSlot::Const(c), Some(c)),
            (CSlot::Var(2), CSlot::Var(1), None),
        ];
        let guard = LimitGuard::unlimited();
        for (s, o, o_const) in &steps {
            let join = |side: Option<&ScanSide>| {
                let mut out = Batch::new(3);
                let mut tally = guard.tally(16);
                let step = (s, &CPred::Const(p), o);
                join_rows(&store, &input, step, side, &mut out, &mut tally).unwrap();
                out
            };
            let side = ScanSide::build(&store, p, *o_const, &guard).unwrap();
            assert_eq!(side.len(), store.matching(None, Some(p), *o_const).count());
            let probed = join(None);
            assert!(!probed.is_empty(), "{s:?} {o:?}");
            assert_eq!(rows(&probed), rows(&join(Some(&side))), "{s:?} {o:?}");
        }
    }

    fn executor<'s>(store: &'s Store, frame: &'s Frame, options: &'s EvalOptions) -> Executor<'s> {
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

    /// A cancel or deadline that trips while a memoized filter or key column
    /// is built surfaces its own limit kind, though the column evaluates
    /// only three distinct ids: the guard is probed once per row, as
    /// per-row evaluation probes it.
    #[test]
    fn a_trip_while_building_a_memoized_column_surfaces_its_limit() {
        let parsed =
            crate::parser::parse_query("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?v } GROUP BY ABS(?v)");
        let Ok(Query { form: QueryForm::Select(q) }) = parsed else { panic!("parses") };
        let mut frame = Frame::default();
        collect_vars(&q.where_, &mut frame);
        let mut store = Store::new();
        let vals: Vec<EId> = (0..3).map(|i| pack_store(store.intern(&Term::integer(i)))).collect();
        let v = frame.index("v").expect("?v is in the frame");
        let mut batch = Batch::new(frame.len());
        for r in 0..1_000u32 {
            let mut row = vec![UNBOUND; frame.len()];
            row[v] = vals[r as usize % 3];
            batch.push_row(&row, r);
        }
        let filter = Expr::Compare(
            Box::new(Expr::Var("v".into())),
            CompareOp::Ge,
            Box::new(Expr::Const(Term::integer(1))),
        );
        let cancel = CancelFlag::new();
        cancel.cancel();
        for (limits, kind) in [
            (EvalLimits::unlimited().with_cancel(cancel), LimitKind::Cancelled),
            (EvalLimits::unlimited().with_deadline(Duration::ZERO), LimitKind::Deadline),
        ] {
            let tripped = |r: Result<(), SparqlError>| {
                matches!(r, Err(SparqlError::ResourceLimit { kind: k, .. }) if k == kind)
            };
            let options = EvalOptions { limits, ..EvalOptions::default() };
            let ex = executor(&store, &frame, &options);
            assert_eq!(ex.eval_column(&filter, &batch).vals.len(), 3, "memoized per id");
            let mut ex = executor(&store, &frame, &options);
            let res = ex.exec_filter(batch.clone(), std::slice::from_ref(&filter));
            assert!(tripped(res.map(drop)), "filter: {kind}");
            // a key column leaves the trip to the final checkpoint
            let mut ex = executor(&store, &frame, &options);
            let items = select_items(&q, &frame);
            ex.grouped_rows(&q, &items, &batch).expect("the fold itself does not check");
            assert!(tripped(ex.guard.surface().map_err(SparqlError::from)), "GROUP BY key: {kind}");
        }
    }

    #[test]
    fn side_build_honours_cancel_and_the_memory_budget() {
        let (store, _, p) = store_with_layers();
        let cancel = CancelFlag::new();
        cancel.cancel();
        let guard = LimitGuard::new(EvalLimits::unlimited().with_cancel(cancel));
        let trip = ScanSide::build(&store, p, None, &guard).err().expect("cancelled");
        assert_eq!(trip.kind, LimitKind::Cancelled);
        let guard = LimitGuard::new(EvalLimits::unlimited().with_max_memory_bytes(64));
        let trip = ScanSide::build(&store, p, None, &guard).err().expect("over budget");
        assert_eq!(trip.kind, LimitKind::MemoryBytes);
        assert!(guard.memory_bytes() > 64);
    }

    /// A join step probes the guard once per morsel of input rows, also
    /// when those rows match nothing and so never flush the tally by
    /// themselves: a raised cancel flag stops a join of several morsels.
    #[test]
    fn join_rows_probes_once_per_morsel_without_matches() {
        let (store, _, p) = store_with_layers();
        let absent = TermArena::new().intern(&store, &Term::integer(42));
        let mut input = Batch::new(2);
        for r in 0..5 * MORSEL_ROWS as u32 {
            input.push_row(&[absent, UNBOUND], r);
        }
        let step = (&CSlot::Var(0), &CPred::Const(p), &CSlot::Var(1));
        let run = |guard: &LimitGuard| {
            let mut out = Batch::new(2);
            let mut tally = guard.tally(12);
            join_rows(&store, &input, step, None, &mut out, &mut tally).map(|()| out.len())
        };
        assert_eq!(run(&LimitGuard::unlimited()), Ok(0), "a computed subject never matches");
        let cancel = CancelFlag::new();
        cancel.cancel();
        let guard = LimitGuard::new(EvalLimits::unlimited().with_cancel(cancel));
        assert_eq!(run(&guard).unwrap_err().kind, LimitKind::Cancelled);
    }

    /// The GROUP BY fold probes the guard once per morsel of rows: a raised
    /// cancel flag stops a fold of several morsels.
    #[test]
    fn the_fold_probes_once_per_morsel() {
        let parsed =
            crate::parser::parse_query("SELECT ?v (COUNT(*) AS ?n) WHERE { ?s ?p ?v } GROUP BY ?v");
        let Ok(Query { form: QueryForm::Select(q) }) = parsed else { panic!("parses") };
        let mut frame = Frame::default();
        collect_vars(&q.where_, &mut frame);
        let mut store = Store::new();
        let vals: Vec<EId> = (0..3).map(|i| pack_store(store.intern(&Term::integer(i)))).collect();
        let v = frame.index("v").expect("?v is in the frame");
        let n_rows = 5 * MORSEL_ROWS as u32;
        let mut batch = Batch::new(frame.len());
        for r in 0..n_rows {
            let mut row = vec![UNBOUND; frame.len()];
            row[v] = vals[r as usize % 3];
            batch.push_row(&row, r);
        }
        let items = select_items(&q, &frame);
        let options = EvalOptions::default();
        let mut ex = executor(&store, &frame, &options);
        assert_eq!(ex.grouped_rows(&q, &items, &batch).expect("folds").len(), 3);
        let cancel = CancelFlag::new();
        cancel.cancel();
        let limits = EvalLimits::unlimited().with_cancel(cancel);
        let options = EvalOptions { limits, ..EvalOptions::default() };
        let mut ex = executor(&store, &frame, &options);
        let err = ex.grouped_rows(&q, &items, &batch).expect_err("cancelled");
        assert!(err.is_cancelled(), "{err:?}");
    }
}
