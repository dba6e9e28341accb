//! The plan's operators for nested and path constructs: sub-`SELECT`,
//! `MINUS`, property-path join steps, and `EXISTS` sub-plans.
//!
//! Order and limits follow the rest of the plan. Every operator emits rows
//! outer-row-major — an input row's matches in a fixed order (inner
//! solution order, path pairs ascending) before the next row's — so output
//! is deterministic. Rows are charged to the row and
//! memory budgets as they are produced and path walks charge every node
//! expansion, both through a [`rdfa_exec::Tally`]; the deadline and cancel
//! flag are probed (amortized) once per input row.

use super::join::{anchor_bind, resolve_slot, same_free};
use super::{batch_row_cost, CSlot, Executor, Node, Scope, SelectPlan};
use crate::ast::{GroupPattern, PropertyPath};
use crate::batch::{pack_store, Batch, EId, UNBOUND};
use crate::expr::ExistsEval;
use crate::path::eval_path_limited;
use crate::plan::rows::{Bound, Frame, Row};
use crate::SparqlError;
use std::rc::Rc;

/// One `EXISTS { … }` pattern compiled against the frame of the scope whose
/// expressions contain it: its own scope's frame is that frame plus the
/// pattern's variables, and it runs from a one-row seed copied from the row
/// being tested.
#[derive(Debug)]
pub(crate) struct ExistsPlan {
    pub(crate) group: GroupPattern,
    pub(crate) scope: Scope,
    /// Reports, per execution, the rows tested (`invocations`) and the rows
    /// for which the pattern matched (`rows_out`).
    pub(crate) op: usize,
}

/// `EXISTS` by substitute-then-evaluate: the pattern's sub-plan runs seeded
/// with the row on the shared guard. A limit tripping inside it makes the
/// `EXISTS` false and stays recorded in the guard, so the caller's next
/// checkpoint surfaces it.
impl ExistsEval for Executor<'_> {
    fn exists(&self, group: &GroupPattern, row: &Row, _frame: &Frame) -> Option<bool> {
        let plans = self.exists;
        let ep = plans.iter().find(|ep| ep.group == *group)?;
        let mut slot = self.sub.borrow_mut();
        let sub = slot.get_or_insert_with(|| {
            let (frame, exists) = (&ep.scope.frame, &ep.scope.exists[..]);
            let guard = Rc::clone(&self.guard);
            Box::new(Executor::new(self.store, frame, exists, guard, self.op_rows.len()))
        });
        sub.frame = &ep.scope.frame;
        sub.exists = &ep.scope.exists;
        let mut seed = Batch::new(ep.scope.frame.len());
        let ids: Vec<EId> = (0..ep.scope.frame.len())
            .map(|i| match row.get(i) {
                Some(Some(Bound::Id(id))) => pack_store(*id),
                Some(Some(Bound::Term(t))) => sub.arena.intern(self.store, t),
                _ => UNBOUND,
            })
            .collect();
        seed.push_row(&ids, 0);
        let hit = sub.exec(&ep.scope.root, seed).is_ok_and(|b| !b.is_empty());
        sub.note(ep.op, usize::from(hit));
        Some(hit)
    }
}

impl<'s> Executor<'s> {
    /// A path join step: walk `path` from each row's anchors (a free
    /// variable leaves its end open; `?x path ?x` keeps only cycles back to
    /// the start).
    pub(super) fn exec_path_join(
        &mut self,
        input: &Batch,
        s: &CSlot,
        path: &PropertyPath,
        o: &CSlot,
    ) -> Result<Batch, SparqlError> {
        let mut out = Batch::new(input.width());
        let mut tally = self.guard.tally(batch_row_cost(out.width()));
        let mut overrides: Vec<(usize, EId)> = Vec::with_capacity(2);
        for r in 0..input.len() {
            self.guard.check_deadline()?;
            let (Some(sa), Some(oa)) = (resolve_slot(s, input, r), resolve_slot(o, input, r))
            else {
                continue;
            };
            for (sv, ov) in eval_path_limited(self.store, path, sa.id(), oa.id(), &mut tally)? {
                overrides.clear();
                if same_free(&sa, &oa) && sv != ov
                    || !anchor_bind(&sa, sv, &mut overrides)
                    || !anchor_bind(&oa, ov, &mut overrides)
                {
                    continue;
                }
                tally.add_row()?;
                out.push_row_from(input, r, &overrides);
            }
        }
        tally.flush()?;
        Ok(out)
    }

    /// A sub-`SELECT`: evaluated bottom-up, once, in its own frame, then
    /// joined with `input` on the shared variables exactly like inline
    /// `VALUES` data (outer-row-major, then solution order).
    pub(super) fn exec_subselect(
        &mut self,
        input: &Batch,
        sp: &'s SelectPlan,
    ) -> Result<Batch, SparqlError> {
        let outer = (self.frame, self.exists);
        (self.frame, self.exists) = (&sp.scope.frame, &sp.scope.exists);
        let solutions = self.run_select(sp);
        (self.frame, self.exists) = outer;
        let solutions = solutions?;
        let slots: Vec<usize> = solutions
            .vars()
            .iter()
            .map(|v| self.frame.index(v).expect("projected into the frame"))
            .collect();
        self.exec_values(input, &slots, solutions.rows())
    }

    /// `MINUS`: run `inner` from the seed row, then drop every input row
    /// compatible with some inner row on at least one variable bound in
    /// both (rows sharing no bound variable are kept).
    pub(super) fn exec_minus(
        &mut self,
        mut input: Batch,
        inner: &'s Node,
    ) -> Result<Batch, SparqlError> {
        let rhs = self.exec(inner, Batch::seed(input.width()))?;
        let mut keep = Vec::with_capacity(input.len());
        for r in 0..input.len() {
            self.guard.check_deadline()?;
            keep.push(!(0..rhs.len()).any(|ir| {
                let mut shared = false;
                for c in 0..input.width() {
                    let (a, b) = (input.get(r, c), rhs.get(ir, c));
                    if a != UNBOUND && b != UNBOUND {
                        if a != b {
                            return false;
                        }
                        shared = true;
                    }
                }
                shared
            }));
        }
        input.retain_rows(&keep);
        Ok(input)
    }
}
