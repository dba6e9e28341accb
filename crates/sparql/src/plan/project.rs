//! A `SELECT`'s tail: its scope's rows projected, or folded into groups,
//! and turned into solutions.

use super::join::Sink;
use super::rows::{finalize_rows, select_items};
use super::{Executor, SelectPlan};
use crate::ast::*;
use crate::batch::{Batch, EId, IdMap, UNBOUND};
use crate::results::Solutions;
use crate::SparqlError;
use rdfa_model::{Term, Value};

impl<'s> Executor<'s> {
    /// Run `sp` (whose scope must be the current one) from the seed row
    /// into its solutions. A grouped `SELECT` folds its scope's rows as
    /// they are produced, a morsel at a time; any other projects the
    /// scope's batch.
    pub(super) fn run_select(&mut self, sp: &'s SelectPlan) -> Result<Solutions, SparqlError> {
        let q = &sp.query;
        let items = select_items(q, self.frame);
        let vars: Vec<String> = items.iter().map(|it| it.alias.clone()).collect();
        let seed = Batch::seed(self.frame.len());
        let out_rows = if sp.grouped {
            let mut fold = self.fold_start(q, &items);
            self.drive(&sp.scope.root, seed, &mut Sink::Fold(&mut fold))?;
            self.fold_finish(fold, q, &items)?
        } else {
            let batch = self.exec(&sp.scope.root, seed)?;
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
                e => {
                    let mut col = self.column(e);
                    self.eval_column(&mut col, batch);
                    col.map(|v| v.map(Value::to_term))
                }
            };
            cols.push(col.into_iter());
        }
        (0..n)
            .map(|_| cols.iter_mut().map(|c| c.next().expect("a cell per row")).collect())
            .collect()
    }
}
