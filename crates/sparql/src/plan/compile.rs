//! Compilation: a parsed query lowered to the operator tree, once, ahead of
//! execution.

use super::estimate::{estimate_pattern, plan_order};
use super::nested::ExistsPlan;
use super::rows::{collect_vars, select_items, Frame, EMPTY_FRAME};
use super::{CPred, CSlot, Node, OpMeta, PhysicalPlan, PlanForm, Scope, SelectPlan};
use crate::ast::*;
use crate::engine::EvalOptions;
use rdfa_model::Term;
use rdfa_store::Store;

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
        let mut place = self.placement(g);
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
                    node = self.compile_bgp(&bgp, node, bound, &mut place);
                    continue;
                }
                PatternElement::Filter(e) => {
                    // filters run at the group's nesting level
                    self.compile_exists(e, level + 1);
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
        let rest = std::mem::take(&mut place.at_end);
        self.filter(node, rest)
    }

    /// `node` followed by a filter on `exprs`, if there are any.
    fn filter(&mut self, node: Node, exprs: Vec<Expr>) -> Node {
        if exprs.is_empty() {
            return node;
        }
        let op = self.op(format!("Filter({} exprs)", exprs.len()), "filter", None);
        Node::Filter { input: Box::new(node), exprs, op }
    }

    /// Where each top-level `&&` conjunct of `g`'s filters runs. A
    /// conjunct that reads only variables `g`'s own triple patterns bind,
    /// none of which a `BIND` in `g` may rebind, and that holds no
    /// `EXISTS`, waits for the step that binds the last of them; every
    /// other conjunct runs at the group's end. A join step leaves such a
    /// variable bound to the value the group ends with, and a conjunct
    /// that errs drops its row wherever it runs, so the placement never
    /// changes an answer, only how many rows the later steps see.
    fn placement(&self, g: &GroupPattern) -> Placement {
        let mut own = vec![false; self.frame.len()];
        let mut rebound = vec![false; self.frame.len()];
        let mark = |name: &str, set: &mut Vec<bool>| {
            if let Some(slot) = self.frame.index(name) {
                set[slot] = true;
            }
        };
        for el in &g.elements {
            if let PatternElement::Triple(tp) = el {
                for name in pattern_vars(tp) {
                    mark(name, &mut own);
                }
            }
        }
        let mut targets = Vec::new();
        bind_targets(g, &mut targets);
        for name in &targets {
            mark(name, &mut rebound);
        }
        let mut place = Placement { bound: vec![false; self.frame.len()], ..Placement::default() };
        for el in &g.elements {
            let PatternElement::Filter(e) = el else { continue };
            for c in super::conjuncts(e) {
                let mut vars = Vec::new();
                c.variables(&mut vars);
                let slots: Option<Vec<usize>> = vars.iter().map(|v| self.frame.index(v)).collect();
                match slots {
                    Some(slots)
                        if !slots.is_empty()
                            && !c.has_exists()
                            && slots.iter().all(|&s| own[s] && !rebound[s]) =>
                    {
                        place.waiting.push((c.clone(), slots));
                    }
                    _ => place.at_end.push(c.clone()),
                }
            }
        }
        place
    }

    /// After a step that binds `slots`: the filter on the conjuncts whose
    /// variables are now all bound, if any.
    fn bound_by_step(&mut self, node: Node, slots: &[usize], place: &mut Placement) -> Node {
        for &s in slots {
            place.bound[s] = true;
        }
        let (ready, waiting): (Vec<_>, Vec<_>) = std::mem::take(&mut place.waiting)
            .into_iter()
            .partition(|(_, vars)| vars.iter().all(|&v| place.bound[v]));
        place.waiting = waiting;
        self.filter(node, ready.into_iter().map(|(c, _)| c).collect())
    }

    fn compile_bgp(
        &mut self,
        patterns: &[&TriplePattern],
        input: Node,
        bound: &mut [bool],
        place: &mut Placement,
    ) -> Node {
        let order = if self.reorder {
            plan_order(self.store, patterns, self.frame, bound)
        } else {
            (0..patterns.len()).collect()
        };
        let mut node = input;
        for idx in order {
            let tp = patterns[idx];
            let slots: Vec<usize> = pattern_vars(tp).filter_map(|v| self.frame.index(v)).collect();
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
                    node = self.bound_by_step(node, &slots, place);
                    continue;
                }
            };
            let op = self.op(format!("IndexJoin {}", fmt_pattern(tp)), "join", Some(est));
            node = Node::Join { input: Box::new(node), s, p, o, op };
            node = self.bound_by_step(node, &slots, place);
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


/// Where one group's filter conjuncts run ([`Compiler::placement`]).
#[derive(Default)]
struct Placement {
    /// The slots the group's own steps have bound so far.
    bound: Vec<bool>,
    /// Conjuncts waiting for their variables' slots to be bound.
    waiting: Vec<(Expr, Vec<usize>)>,
    /// Conjuncts that run at the group's end.
    at_end: Vec<Expr>,
}

/// The variables of a triple pattern, subject, predicate, object.
fn pattern_vars(tp: &TriplePattern) -> impl Iterator<Item = &str> {
    let p = match &tp.predicate {
        PathOrVar::Var(v) => Some(v.as_str()),
        PathOrVar::Path(_) => None,
    };
    tp.subject.as_var().into_iter().chain(p).chain(tp.object.as_var())
}

/// The `BIND` targets of a group and of the groups nested in it whose
/// rows flow on (`{ }`, `OPTIONAL`, `UNION` arms).
fn bind_targets(g: &GroupPattern, out: &mut Vec<String>) {
    for el in &g.elements {
        match el {
            PatternElement::Bind(_, v) => out.push(v.clone()),
            PatternElement::Group(g2) | PatternElement::Optional(g2) => bind_targets(g2, out),
            PatternElement::Union(arms) => arms.iter().for_each(|arm| bind_targets(arm, out)),
            _ => {}
        }
    }
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
