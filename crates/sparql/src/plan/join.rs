//! The join chain: index-join and filter steps run as one pipeline, a
//! morsel at a time, from the chain's base batch into a sink.
//!
//! A chain is the run of `Join` and `Filter` nodes above some other node
//! (its base: the seed row, `VALUES`, an `OPTIONAL`, …). The base runs as a
//! batch; the chain then pushes it through its steps in morsels of at most
//! [`MORSEL_ROWS`] rows. Each join step appends its matches to an output
//! morsel and hands that morsel to the next step as soon as it is full, also
//! in the middle of one input row, since one row can fan out to a whole
//! posting run. A filter step narrows each morsel in place. What leaves the
//! last step goes to the [`Sink`]: appended to a batch, or folded straight
//! into a grouped `SELECT`'s accumulators. Every step reads its input in
//! order and emits in order, so the rows that reach the sink, and their
//! order, are exactly those of running the steps one whole batch at a time.
//!
//! A join step reads its pattern one of two ways. It probes the store once
//! per input row (index-nested-loop), or, when its subject is a variable,
//! its predicate a constant and its input large next to the pattern's
//! posting run ([`Store::prefer_seek`]), it scans that run once into a
//! subject-indexed [`ScanSide`] and looks each row's subject up in it. The
//! side yields what the probe would, in the same order, so the choice never
//! shows in the output. The choice is made once per step: until it is made,
//! the step holds its input back, and it is made as soon as the rows held
//! bind the subject to a store term often enough for the scan to pay, or
//! when the input ends. So a step decides on the same counts as if it saw
//! its whole input at once. The bound-subject rows it holds number at most
//! one morsel beyond the larger of `SCAN_MIN_PROBES` and a `SEEK_FACTOR`
//! (32)th of the run it would scan. Rows whose subject is unbound (after an
//! `OPTIONAL`) or a computed term do not move the choice, so a step whose
//! input is mostly such rows holds them until the choice is made, at worst
//! its whole input. An executor builds a side at most once for each
//! `(p, o)` and shares it among its steps that read that pattern.

use super::group::Fold;
use super::{batch_row_cost, conjuncts, CPred, CSlot, Executor, ExprColumn, Node, MORSEL_ROWS};
use crate::batch::{as_store, pack_store, Batch, EId, UNBOUND};
use crate::SparqlError;
use rdfa_exec::{LimitError, LimitGuard};
use rdfa_model::Value;
use rdfa_store::{IdTriple, Store, TermId};
use std::rc::Rc;

/// Fewest bound-subject rows for which a join step considers scanning its
/// pattern instead of probing per row: below one morsel the probes cost
/// under a millisecond, and the side's fixed cost (the offsets array over
/// the run's subject id span) would not pay back.
const SCAN_MIN_PROBES: usize = MORSEL_ROWS;

/// Runtime anchor of a join position for one input row.
pub(super) enum RAnchor {
    Fixed(TermId),
    BoundV(TermId),
    Free(usize),
}

impl RAnchor {
    pub(super) fn id(&self) -> Option<TermId> {
        match self {
            RAnchor::Fixed(id) | RAnchor::BoundV(id) => Some(*id),
            RAnchor::Free(_) => None,
        }
    }
}

pub(super) fn same_free(a: &RAnchor, b: &RAnchor) -> bool {
    matches!((a, b), (RAnchor::Free(x), RAnchor::Free(y)) if x == y)
}

/// Bind an anchor to a matched id; false rejects the match.
pub(super) fn anchor_bind(a: &RAnchor, value: TermId, overrides: &mut Vec<(usize, EId)>) -> bool {
    match a {
        RAnchor::Fixed(_) => true,
        RAnchor::BoundV(id) => *id == value,
        RAnchor::Free(slot) => {
            overrides.push((*slot, pack_store(value)));
            true
        }
    }
}

/// Runtime anchor of one join position for one input row.
pub(super) fn resolve_slot(c: &CSlot, input: &Batch, r: usize) -> Option<RAnchor> {
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

/// The pattern `(p, o)` a join step could read through a side: it needs a
/// variable subject, a constant predicate and an object that can match.
fn side_key(s: &CSlot, p: &CPred, o: &CSlot) -> Option<(TermId, Option<TermId>)> {
    match (s, p, o) {
        (CSlot::Var(_), CPred::Const(p), CSlot::Const(o)) => Some((*p, Some(*o))),
        (CSlot::Var(_), CPred::Const(p), CSlot::Var(_)) => Some((*p, None)),
        _ => None,
    }
}

/// Where a pipeline's finished morsels go.
pub(super) enum Sink<'a> {
    /// Appended to one batch.
    Append(&'a mut Batch),
    /// Folded into a grouped `SELECT`'s accumulators.
    Fold(&'a mut Fold),
}

/// The scan sides an executor has built, by pattern `(p, o)`.
pub(super) type Sides = Vec<((TermId, Option<TermId>), Rc<ScanSide>)>;

/// How a join step reads its pattern.
enum Read {
    /// Probe the index once per input row.
    Probe,
    /// Look each row's subject up in a built side.
    Side(Rc<ScanSide>),
    /// Not decided yet: the input morsels so far, and how many of their
    /// rows bind the subject to a store term.
    Pending { held: Vec<Batch>, probes: usize },
}

/// One index-join step of a chain.
struct JoinStep<'s> {
    s: &'s CSlot,
    p: &'s CPred,
    o: &'s CSlot,
    /// The pattern `(p, o)` a side could be built for ([`side_key`]).
    side_key: Option<(TermId, Option<TermId>)>,
    read: Read,
    /// Matches collected toward the next morsel.
    out: Batch,
}

enum StepKind<'s> {
    Join(JoinStep<'s>),
    /// A filter's top-level `&&` conjuncts, one column each.
    Filter(Vec<ExprColumn>),
}

/// One step of a chain and the rows it has passed on.
struct Step<'s> {
    op: usize,
    rows: usize,
    kind: StepKind<'s>,
}

impl<'s> Executor<'s> {
    /// Run `node` from `input` into `sink`. The chain of `Join` and
    /// `Filter` nodes at the top of `node` runs as a pipeline over the
    /// batch its base produces; with no chain, the base batch itself goes
    /// to the sink, a morsel at a time.
    pub(super) fn drive(
        &mut self,
        node: &'s Node,
        input: Batch,
        sink: &mut Sink<'_>,
    ) -> Result<(), SparqlError> {
        let mut chain = Vec::new();
        let mut base = node;
        while let Node::Join { input, .. } | Node::Filter { input, .. } = base {
            chain.push(base);
            base = input;
        }
        let mut base = self.exec(base, input)?;
        let width = base.width();
        let mut steps: Vec<Step<'s>> = chain.iter().rev().map(|n| self.step(n, width)).collect();
        if base.len() <= MORSEL_ROWS {
            self.push(&mut steps, sink, &mut base)?;
        } else {
            for lo in (0..base.len()).step_by(MORSEL_ROWS) {
                let mut morsel = base.slice(lo..(lo + MORSEL_ROWS).min(base.len()));
                self.push(&mut steps, sink, &mut morsel)?;
            }
        }
        self.finish(&mut steps, sink)?;
        for step in &steps {
            self.note(step.op, step.rows);
        }
        Ok(())
    }

    fn step(&self, node: &'s Node, width: usize) -> Step<'s> {
        match node {
            Node::Join { s, p, o, op, .. } => {
                let side_key = side_key(s, p, o);
                let read = match side_key {
                    None => Read::Probe,
                    Some(key) => match self.built_side(key) {
                        Some(side) => Read::Side(side),
                        None => Read::Pending { held: Vec::new(), probes: 0 },
                    },
                };
                let join = JoinStep { s, p, o, side_key, read, out: Batch::new(width) };
                Step { op: *op, rows: 0, kind: StepKind::Join(join) }
            }
            Node::Filter { exprs, op, .. } => {
                let conds = exprs.iter().flat_map(conjuncts).map(|c| self.column(c)).collect();
                Step { op: *op, rows: 0, kind: StepKind::Filter(conds) }
            }
            _ => unreachable!("a chain holds join and filter steps only"),
        }
    }

    /// Pass one morsel through `steps` into `sink`.
    fn push(
        &mut self,
        steps: &mut [Step<'s>],
        sink: &mut Sink<'_>,
        morsel: &mut Batch,
    ) -> Result<(), SparqlError> {
        let Some((step, rest)) = steps.split_first_mut() else {
            self.morsels += usize::from(!morsel.is_empty());
            return match sink {
                Sink::Append(out) => {
                    out.append(morsel);
                    Ok(())
                }
                Sink::Fold(fold) => self.fold_batch(fold, morsel),
            };
        };
        let join = match &mut step.kind {
            StepKind::Filter(conds) => {
                self.filter(conds, morsel)?;
                step.rows += morsel.len();
                return if morsel.is_empty() { Ok(()) } else { self.push(rest, sink, morsel) };
            }
            StepKind::Join(join) => join,
        };
        let Read::Pending { held, probes } = &mut join.read else {
            return self.join(join, &mut step.rows, rest, sink, morsel);
        };
        let key = join.side_key.expect("only a step that can scan waits");
        if let Some(side) = self.built_side(key) {
            self.settle(join, &mut step.rows, rest, sink, Read::Side(side))?;
            return self.join(join, &mut step.rows, rest, sink, morsel);
        }
        if let CSlot::Var(slot) = join.s {
            *probes += morsel.column(*slot).iter().filter(|&&v| as_store(v).is_some()).count();
        }
        held.push(morsel.clone());
        if !self.scan_pays(*probes, key) {
            return Ok(());
        }
        let side = self.side(key, step.op)?;
        self.settle(join, &mut step.rows, rest, sink, Read::Side(side))
    }

    /// The input has ended: each step in turn settles what it still holds
    /// and passes its last, partial morsel on.
    fn finish(&mut self, steps: &mut [Step<'s>], sink: &mut Sink<'_>) -> Result<(), SparqlError> {
        let Some((step, rest)) = steps.split_first_mut() else {
            return Ok(());
        };
        if let StepKind::Join(join) = &mut step.kind {
            if let Read::Pending { probes, .. } = join.read {
                let key = join.side_key.expect("only a step that can scan waits");
                let scan = self.scan_pays(probes, key);
                let read = if scan { Read::Side(self.side(key, step.op)?) } else { Read::Probe };
                self.settle(join, &mut step.rows, rest, sink, read)?;
            }
            if !join.out.is_empty() {
                self.push(rest, sink, &mut join.out)?;
                join.out.clear();
            }
        }
        self.finish(rest, sink)
    }

    /// Whether one scan of `key`'s run beats `probes` index probes: at
    /// least [`SCAN_MIN_PROBES`] of them, and a run shorter than
    /// [`Store::prefer_seek`] allows for that many.
    fn scan_pays(&self, probes: usize, (p, o): (TermId, Option<TermId>)) -> bool {
        probes >= SCAN_MIN_PROBES && !self.store.prefer_seek(probes, p, o)
    }

    /// The side already built for `key` in this execution, if any.
    fn built_side(&self, key: (TermId, Option<TermId>)) -> Option<Rc<ScanSide>> {
        self.sides.iter().find(|(k, _)| *k == key).map(|(_, side)| Rc::clone(side))
    }

    /// The side for `key`, built now unless it already was; a build counts
    /// its triples as `op`'s `scanned`. The build honours the deadline and
    /// the cancel flag and charges its bytes to the memory budget.
    fn side(
        &mut self,
        key: (TermId, Option<TermId>),
        op: usize,
    ) -> Result<Rc<ScanSide>, SparqlError> {
        if let Some(side) = self.built_side(key) {
            return Ok(side);
        }
        let side = Rc::new(ScanSide::build(self.store, key.0, key.1, &self.guard)?);
        self.op_scanned[op] += side.len() as u64;
        self.sides.push((key, Rc::clone(&side)));
        Ok(side)
    }

    /// Settle how a pending step reads its pattern, then join the morsels
    /// it held back, in order.
    fn settle(
        &mut self,
        join: &mut JoinStep<'s>,
        rows: &mut usize,
        rest: &mut [Step<'s>],
        sink: &mut Sink<'_>,
        read: Read,
    ) -> Result<(), SparqlError> {
        if let Read::Pending { held, .. } = std::mem::replace(&mut join.read, read) {
            for mut morsel in held {
                self.join(join, rows, rest, sink, &mut morsel)?;
            }
        }
        Ok(())
    }

    /// One join step over one input morsel. When the step reads a side
    /// and no row of the morsel has more than one match, the matches are
    /// written into the morsel itself, rows without one are dropped, and
    /// the morsel goes on ([`Executor::extend_in_place`]). Otherwise each
    /// row's matches come from the side when the row binds the subject to
    /// a store term, else from one index probe, and are copied out in
    /// store-iteration order; a full output morsel goes down the chain at
    /// once. Rows are charged to the guard through a tally, flushed (and
    /// the guard so probed) at the end of the morsel, also when its rows
    /// matched nothing.
    fn join(
        &mut self,
        join: &mut JoinStep<'s>,
        rows: &mut usize,
        rest: &mut [Step<'s>],
        sink: &mut Sink<'_>,
        input: &mut Batch,
    ) -> Result<(), SparqlError> {
        if let Read::Side(side) = &join.read {
            let side = Rc::clone(side);
            if let Some(kept) = self.extend_in_place(join, &side, input)? {
                *rows += kept;
                if !join.out.is_empty() {
                    self.push(rest, sink, &mut join.out)?;
                    join.out.clear();
                }
                return if input.is_empty() { Ok(()) } else { self.push(rest, sink, input) };
            }
        }
        let (store, guard) = (self.store, Rc::clone(&self.guard));
        let (s, p, o) = (join.s, join.p, join.o);
        let side = match &join.read {
            Read::Side(side) => Some(Rc::clone(side)),
            _ => None,
        };
        let mut tally = guard.tally(batch_row_cost(input.width()));
        let mut overrides: Vec<(usize, EId)> = Vec::with_capacity(3);
        let input = &*input;
        for r in 0..input.len() {
            let (Some(sa), Some(oa)) = (resolve_slot(s, input, r), resolve_slot(o, input, r))
            else {
                continue;
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
            let mut emit = |ex: &mut Self, [sv, pv, ov]: IdTriple| -> Result<(), SparqlError> {
                // repeated-variable consistency (?x p ?x)
                if same_free(&sa, &oa) && sv != ov {
                    return Ok(());
                }
                overrides.clear();
                if !anchor_bind(&sa, sv, &mut overrides) || !anchor_bind(&oa, ov, &mut overrides) {
                    return Ok(());
                }
                if let Some(ps) = p_slot {
                    // the predicate binding wins on slot collisions, matching
                    // the reference evaluator's overwrite order
                    overrides.push((ps, pack_store(pv)));
                }
                tally.add_row()?;
                join.out.push_row_from(input, r, &overrides);
                *rows += 1;
                if join.out.len() == MORSEL_ROWS {
                    ex.push(rest, sink, &mut join.out)?;
                    join.out.clear();
                }
                Ok(())
            };
            match (&side, &sa, p_fixed) {
                (Some(side), RAnchor::BoundV(sv), Some(pv)) => {
                    // a bound object keeps only its own match (`anchor_bind`),
                    // which is all a probe with the object fixed would yield
                    for &ov in side.objects(*sv) {
                        emit(self, [*sv, pv, ov])?;
                    }
                }
                _ => {
                    for t in store.matching(sa.id(), p_fixed, oa.id()) {
                        emit(self, t)?;
                    }
                }
            }
        }
        tally.flush()?;
        Ok(())
    }

    /// Join a side-reading step in place, when every row of `morsel`
    /// binds the subject to a store term with at most one match on the
    /// side (or can match nothing at all): each match is written into its
    /// row and the rows without one are dropped, which is what copying the
    /// matches out would yield, without the copy. Returns the rows kept,
    /// charged to the guard, or `None`, touching nothing, when some row
    /// could match more than once.
    fn extend_in_place(
        &mut self,
        join: &JoinStep<'s>,
        side: &ScanSide,
        morsel: &mut Batch,
    ) -> Result<Option<usize>, SparqlError> {
        let CSlot::Var(s_slot) = *join.s else {
            return Ok(None);
        };
        // each row's one match, or UNBOUND for none
        let mut found: Vec<EId> = Vec::with_capacity(morsel.len());
        for &v in morsel.column(s_slot) {
            found.push(match as_store(v) {
                Some(sv) => match side.objects(sv) {
                    [] => UNBOUND,
                    [ov] => pack_store(*ov),
                    _ => return Ok(None),
                },
                None if v == UNBOUND => return Ok(None), // a free subject probes
                None => UNBOUND,                         // a computed one matches nothing
            });
        }
        let keep: Vec<bool> = match *join.o {
            // a bound object keeps only its own match, a free one takes it
            CSlot::Var(o_slot) => (0..found.len())
                .map(|r| {
                    let (ov, cur) = (found[r], morsel.get(r, o_slot));
                    if ov != UNBOUND && cur == UNBOUND {
                        morsel.set(r, o_slot, ov);
                        return true;
                    }
                    ov != UNBOUND && cur == ov
                })
                .collect(),
            // the side was built for the constant object
            _ => found.iter().map(|&ov| ov != UNBOUND).collect(),
        };
        let kept = keep.iter().filter(|&&k| k).count();
        if kept < morsel.len() {
            morsel.retain_rows(&keep);
        }
        let row_bytes = batch_row_cost(morsel.width());
        self.guard.checkpoint(kept as u64, kept as u64 * row_bytes)?;
        Ok(Some(kept))
    }

    /// Keep the morsel's rows on which every conjunct is true: a row
    /// survives `a && b` iff both are, and a conjunct that errs drops it
    /// either way. Each conjunct is its own column (so memoized when it
    /// reads one variable), and every conjunct sees every row of the
    /// morsel, as the unsplit `&&` evaluates both sides.
    fn filter(&mut self, conds: &mut [ExprColumn], morsel: &mut Batch) -> Result<(), SparqlError> {
        let mut keep = vec![true; morsel.len()];
        for col in conds.iter_mut() {
            self.eval_column(col, morsel);
            for (k, &i) in keep.iter_mut().zip(&col.idx) {
                *k &=
                    col.vals[i as usize].as_ref().and_then(Value::effective_boolean) == Some(true);
            }
        }
        morsel.retain_rows(&keep);
        self.guard.surface()?;
        Ok(())
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
pub(super) struct ScanSide {
    base: u32,
    offsets: Vec<u32>,
    objects: Vec<TermId>,
}

impl ScanSide {
    /// Scan `(?, p, o)` once into a side. Probes `guard` before the scan
    /// and once per morsel of [`MORSEL_ROWS`] triples, and charges the
    /// scratch pairs, the offsets and the objects before they are
    /// allocated.
    fn build(
        store: &Store,
        p: TermId,
        o: Option<TermId>,
        guard: &LimitGuard,
    ) -> Result<Self, LimitError> {
        const PAIR_BYTES: u64 = std::mem::size_of::<(u32, TermId)>() as u64;
        const ID_BYTES: u64 = std::mem::size_of::<u32>() as u64;
        guard.probe()?;
        // the run's length is exact, so the pairs are charged and
        // allocated once, before the scan
        let n = store.run_len(None, Some(p), o);
        guard.checkpoint(0, n as u64 * PAIR_BYTES)?;
        let mut pairs: Vec<(u32, TermId)> = Vec::with_capacity(n);
        let (mut base, mut last) = (u32::MAX, 0);
        for [s, _, obj] in store.matching(None, Some(p), o) {
            pairs.push((s.0, obj));
            (base, last) = (base.min(s.0), last.max(s.0));
            if pairs.len().is_multiple_of(MORSEL_ROWS) {
                guard.probe()?;
            }
        }
        debug_assert_eq!(pairs.len(), n, "run_len is exact");
        let (base, span) = if n == 0 { (0, 0) } else { (base, (last - base) as usize + 1) };
        guard.checkpoint(0, (span as u64 + 1 + n as u64) * ID_BYTES)?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CompareOp, Expr, Query, QueryForm};
    use crate::batch::TermArena;
    use crate::plan::rows::{collect_vars, select_items, Frame};
    use crate::{CancelFlag, EvalLimits, LimitKind};
    use rdfa_model::Term;
    use std::time::Duration;

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

    fn executor<'s>(store: &'s Store, frame: &'s Frame, guard: LimitGuard) -> Executor<'s> {
        Executor::new(store, frame, &[], Rc::new(guard), 1)
    }

    /// Run the one join step `(s, p, o)` over `input`, fed in morsels,
    /// reading its pattern as `read` says, and collect what it passes on.
    fn run_join<'s>(
        ex: &mut Executor<'s>,
        input: &Batch,
        (s, p, o): (&'s CSlot, &'s CPred, &'s CSlot),
        read: Read,
    ) -> Result<Batch, SparqlError> {
        let out = Batch::new(input.width());
        let join = JoinStep { s, p, o, side_key: side_key(s, p, o), read, out };
        let mut steps = vec![Step { op: 0, rows: 0, kind: StepKind::Join(join) }];
        let mut out = Batch::new(input.width());
        let mut sink = Sink::Append(&mut out);
        for lo in (0..input.len()).step_by(MORSEL_ROWS) {
            let mut morsel = input.slice(lo..(lo + MORSEL_ROWS).min(input.len()));
            ex.push(&mut steps, &mut sink, &mut morsel)?;
        }
        ex.finish(&mut steps, &mut sink)?;
        Ok(out)
    }

    /// The built side is an internal alternative to the probe, not a switch:
    /// over one input it must pass on the probe's rows, in the same order,
    /// whether it is given the side or decides to build it itself.
    #[test]
    fn a_join_step_reading_a_built_side_equals_the_probe() {
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
        let frame = Frame::new(vec!["s".into(), "o".into(), "c".into()]);
        let c = nodes[7];
        let steps = [
            (CSlot::Var(0), CSlot::Var(1), None),
            (CSlot::Var(0), CSlot::Var(0), None),
            (CSlot::Var(0), CSlot::Const(c), Some(c)),
            (CSlot::Var(2), CSlot::Var(1), None),
        ];
        for (s, o, o_const) in &steps {
            let step = (s, &CPred::Const(p), o);
            let side = ScanSide::build(&store, p, *o_const, &LimitGuard::unlimited()).unwrap();
            assert_eq!(side.len(), store.matching(None, Some(p), *o_const).count());
            let mut ex = executor(&store, &frame, LimitGuard::unlimited());
            let probed = run_join(&mut ex, &input, step, Read::Probe).unwrap();
            assert!(!probed.is_empty(), "{s:?} {o:?}");
            let read = Read::Side(Rc::new(side));
            assert_eq!(rows(&probed), rows(&run_join(&mut ex, &input, step, read).unwrap()));
            let mut ex = executor(&store, &frame, LimitGuard::unlimited());
            let pending = Read::Pending { held: Vec::new(), probes: 0 };
            assert_eq!(rows(&probed), rows(&run_join(&mut ex, &input, step, pending).unwrap()));
        }
    }

    /// On a side with at most one object per subject, a step writes each
    /// row's match into the row and drops the rows without one: the same
    /// rows, in the same order, as the probe copies out. A morsel with a
    /// free subject is left untouched for the copying join.
    #[test]
    fn a_join_step_on_a_functional_side_extends_its_morsel_in_place() {
        let mut store = Store::new();
        let f = store.intern_iri("http://e/f");
        let g = store.intern_iri("http://e/g");
        let sub = store.well_known().rdfs_subpropertyof;
        store.insert_ids([g, sub, f]);
        let nodes: Vec<TermId> =
            (0..120).map(|i| store.intern_iri(&format!("http://e/n{i}"))).collect();
        let mut next = rng(3);
        for (i, &n) in nodes[..90].iter().enumerate() {
            // one object each, explicit or inferred through `g`; every third
            // subject has none, and one is a self-loop
            let o = if i == 4 { n } else { nodes[next(nodes.len())] };
            match i % 3 {
                0 => continue,
                1 => store.insert_ids([n, f, o]),
                _ => store.insert_ids([n, g, o]),
            };
        }
        store.materialize_inference();
        let local = TermArena::new().intern(&store, &Term::integer(42));
        let mut pick = || match next(10) {
            0 => local,
            1 => pack_store(f), // a store term outside the subject span
            _ => pack_store(nodes[next(nodes.len())]),
        };
        let mut input = Batch::new(3);
        for r in 0..2_000u32 {
            let s = pick();
            let o = if r % 2 == 0 { UNBOUND } else { pick() };
            input.push_row(&[s, o, pack_store(nodes[0])], r);
        }
        let frame = Frame::new(vec!["s".into(), "o".into(), "c".into()]);
        let [_, _, c] = store.matching(Some(nodes[1]), Some(f), None).next().expect("n1 has one");
        let steps = [
            (CSlot::Var(0), CSlot::Var(1), None),
            (CSlot::Var(0), CSlot::Var(0), None),
            (CSlot::Var(0), CSlot::Const(c), Some(c)),
        ];
        let p = CPred::Const(f);
        let join =
            |s, o| JoinStep { s, p: &p, o, side_key: None, read: Read::Probe, out: Batch::new(3) };
        for (s, o, o_const) in &steps {
            let side = ScanSide::build(&store, f, *o_const, &LimitGuard::unlimited()).unwrap();
            assert!(nodes.iter().all(|&n| side.objects(n).len() <= 1), "functional");
            let mut ex = executor(&store, &frame, LimitGuard::unlimited());
            let mut morsel = input.slice(0..MORSEL_ROWS);
            let kept = ex.extend_in_place(&join(s, o), &side, &mut morsel).unwrap();
            assert_eq!(kept, Some(morsel.len()), "{s:?} {o:?} joins in place");
            let step = (s, &p, o);
            let probed = run_join(&mut ex, &input, step, Read::Probe).unwrap();
            assert!(!probed.is_empty(), "{s:?} {o:?}");
            let read = Read::Side(Rc::new(side));
            assert_eq!(rows(&probed), rows(&run_join(&mut ex, &input, step, read).unwrap()));
        }
        let side = ScanSide::build(&store, f, None, &LimitGuard::unlimited()).unwrap();
        let mut ex = executor(&store, &frame, LimitGuard::unlimited());
        let mut morsel = input.slice(0..8);
        morsel.set(5, 0, UNBOUND);
        let before = rows(&morsel);
        let (s, o) = (CSlot::Var(0), CSlot::Var(1));
        assert_eq!(ex.extend_in_place(&join(&s, &o), &side, &mut morsel).unwrap(), None);
        assert_eq!(rows(&morsel), before);
    }

    /// A step that may scan holds its input until it knows: it builds the
    /// side exactly when its whole input binds the subject often enough,
    /// and then only once, however many morsels follow.
    #[test]
    fn a_pending_step_decides_on_its_whole_input() {
        let (store, nodes, p) = store_with_layers();
        let frame = Frame::new(vec!["s".into(), "o".into()]);
        let step = (&CSlot::Var(0), &CPred::Const(p), &CSlot::Var(1));
        let run_len = store.run_len(None, Some(p), None) as u64;
        for (n_rows, scans) in [(SCAN_MIN_PROBES - 1, false), (3 * MORSEL_ROWS + 5, true)] {
            let mut input = Batch::new(2);
            for r in 0..n_rows {
                input.push_row(&[pack_store(nodes[r % 80]), UNBOUND], r as u32);
            }
            let mut ex = executor(&store, &frame, LimitGuard::unlimited());
            let pending = Read::Pending { held: Vec::new(), probes: 0 };
            let out = run_join(&mut ex, &input, step, pending).unwrap();
            let probed = run_join(&mut ex, &input, step, Read::Probe).unwrap();
            assert_eq!(rows(&out), rows(&probed));
            assert_eq!(ex.op_scanned[0], if scans { run_len } else { 0 }, "{n_rows} rows");
            assert_eq!(ex.sides.len(), usize::from(scans));
        }
    }

    /// A cancel or deadline that trips while a memoized filter or key column
    /// is built surfaces its own limit kind, though the column evaluates
    /// only three distinct ids: the guard is probed once per row, as
    /// per-row evaluation probes it. A filter step returns the trip, and a
    /// fold keyed on an expression passes it on.
    #[test]
    fn a_trip_while_building_a_memoized_column_surfaces_its_limit() {
        let parsed = crate::parser::parse_query(
            "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?v } GROUP BY ABS(?v)",
        );
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
            let surfaced = |ex: &Executor| tripped(ex.guard.surface().map_err(SparqlError::from));
            let ex = executor(&store, &frame, LimitGuard::new(limits.clone()));
            let mut col = ex.column(&filter);
            ex.eval_column(&mut col, &batch);
            assert_eq!(col.vals.len(), 3, "memoized per id");
            assert!(surfaced(&ex), "the column's probes trip the guard: {kind}");
            let mut ex = executor(&store, &frame, LimitGuard::new(limits.clone()));
            let mut conds = vec![ex.column(&filter)];
            assert!(tripped(ex.filter(&mut conds, &mut batch.clone())), "filter: {kind}");
            let mut ex = executor(&store, &frame, LimitGuard::new(limits));
            let items = select_items(&q, &frame);
            let mut fold = ex.fold_start(&q, &items);
            assert!(tripped(ex.fold_batch(&mut fold, &batch)), "GROUP BY key: {kind}");
            assert!(surfaced(&ex), "GROUP BY key: {kind}");
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
    fn a_join_step_probes_once_per_morsel_without_matches() {
        let (store, _, p) = store_with_layers();
        let absent = TermArena::new().intern(&store, &Term::integer(42));
        let mut input = Batch::new(2);
        for r in 0..5 * MORSEL_ROWS as u32 {
            input.push_row(&[absent, UNBOUND], r);
        }
        let frame = Frame::new(vec!["s".into(), "o".into()]);
        let step = (&CSlot::Var(0), &CPred::Const(p), &CSlot::Var(1));
        let mut ex = executor(&store, &frame, LimitGuard::unlimited());
        let out = run_join(&mut ex, &input, step, Read::Probe).unwrap();
        assert!(out.is_empty(), "a computed subject never matches");
        let cancel = CancelFlag::new();
        cancel.cancel();
        let guard = LimitGuard::new(EvalLimits::unlimited().with_cancel(cancel));
        let mut ex = executor(&store, &frame, guard);
        let err = run_join(&mut ex, &input, step, Read::Probe).unwrap_err();
        assert!(err.is_cancelled(), "{err:?}");
    }
}
