//! SPARQL 1.1 Update subset: `INSERT DATA`, `DELETE DATA`, `DELETE WHERE`,
//! and `DELETE … INSERT … WHERE …` (the `Modify` form). Operations may be
//! chained with `;`.
//!
//! Updates are how derived features (Table 4.1) and reloaded answers can be
//! written back into a store through the standard protocol surface instead
//! of the Rust API.

use crate::ast::{GroupPattern, PathOrVar, PropertyPath, TermPattern, TriplePattern};
use crate::engine::EvalOptions;
use crate::expr::bound_term;
use crate::parser::parse_update_ops;
use crate::plan::rows::{Frame, Row};
use crate::plan::{compile_where, execute_plan, Output};
use crate::{EvalLimits, SparqlError};
use rdfa_model::{Term, Triple};
use rdfa_store::{Mutation, Store};

/// One update operation.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    /// `INSERT DATA { ground triples }`
    InsertData(Vec<Triple>),
    /// `DELETE DATA { ground triples }`
    DeleteData(Vec<Triple>),
    /// `DELETE WHERE { pattern }` — the pattern is both template and WHERE.
    DeleteWhere(Vec<TriplePattern>),
    /// `DELETE { t } INSERT { t } WHERE { pattern }` (either part optional).
    Modify {
        delete: Vec<TriplePattern>,
        insert: Vec<TriplePattern>,
        where_: GroupPattern,
    },
}

/// Result summary of an update request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    pub inserted: usize,
    pub deleted: usize,
}

/// Parse and execute an update request against a store. The RDFS closure is
/// refreshed once at the end, at a cost proportional to the triples the
/// request changed ([`Store::refresh_inference`]); operations inside one
/// request see the closure as it was when the request began.
pub fn execute_update(store: &mut Store, text: &str) -> Result<UpdateStats, SparqlError> {
    execute_update_recording(store, text).map(|(stats, _)| stats)
}

/// Like [`execute_update`], additionally returning the concrete triple
/// changes that took effect, in application order. A durable caller logs
/// these as one atomic WAL batch — replay then never needs to re-run the
/// SPARQL (WHERE-form updates are not idempotent over a recovered store).
pub fn execute_update_recording(
    store: &mut Store,
    text: &str,
) -> Result<(UpdateStats, Vec<Mutation>), SparqlError> {
    execute_update_limited(store, text, &EvalLimits::unlimited())
}

/// Like [`execute_update_recording`], with every WHERE clause evaluated
/// under `limits` (each with a budget of its own). A trip fails the whole
/// request; the caller discards the store it was applying to.
pub fn execute_update_limited(
    store: &mut Store,
    text: &str,
    limits: &EvalLimits,
) -> Result<(UpdateStats, Vec<Mutation>), SparqlError> {
    let ops = parse_update_ops(text)?;
    let options = EvalOptions { limits: limits.clone(), ..EvalOptions::default() };
    let mut stats = UpdateStats::default();
    let mut changes = Vec::new();
    for op in &ops {
        apply(store, op, &options, &mut stats, &mut changes)?;
    }
    store.refresh_inference();
    Ok((stats, changes))
}

fn apply(
    store: &mut Store,
    op: &UpdateOp,
    options: &EvalOptions,
    stats: &mut UpdateStats,
    changes: &mut Vec<Mutation>,
) -> Result<(), SparqlError> {
    match op {
        UpdateOp::InsertData(triples) => {
            for t in triples {
                if store.insert(t) {
                    stats.inserted += 1;
                    changes.push(Mutation::Insert(t.clone()));
                }
            }
        }
        UpdateOp::DeleteData(triples) => {
            for t in triples {
                if let (Some(s), Some(p), Some(o)) = (
                    store.lookup(&t.subject),
                    store.lookup(&t.predicate),
                    store.lookup(&t.object),
                ) {
                    if store.remove_ids([s, p, o]) {
                        stats.deleted += 1;
                        changes.push(Mutation::Remove(t.clone()));
                    }
                }
            }
        }
        UpdateOp::DeleteWhere(patterns) => {
            let where_ = GroupPattern {
                elements: patterns
                    .iter()
                    .cloned()
                    .map(crate::ast::PatternElement::Triple)
                    .collect(),
            };
            let (frame, rows) = eval_where(store, &where_, options)?;
            for t in instantiate_all(store, patterns, &frame, &rows) {
                if remove_triple(store, &t) {
                    stats.deleted += 1;
                    changes.push(Mutation::Remove(t));
                }
            }
        }
        UpdateOp::Modify { delete, insert, where_ } => {
            let (frame, rows) = eval_where(store, where_, options)?;
            let deletions = instantiate_all(store, delete, &frame, &rows);
            let insertions = instantiate_all(store, insert, &frame, &rows);
            for t in deletions {
                if remove_triple(store, &t) {
                    stats.deleted += 1;
                    changes.push(Mutation::Remove(t));
                }
            }
            for t in insertions {
                if store.insert(&t) {
                    stats.inserted += 1;
                    changes.push(Mutation::Insert(t));
                }
            }
        }
    }
    Ok(())
}

fn remove_triple(store: &mut Store, t: &Triple) -> bool {
    match (store.lookup(&t.subject), store.lookup(&t.predicate), store.lookup(&t.object)) {
        (Some(s), Some(p), Some(o)) => store.remove_ids([s, p, o]),
        _ => false,
    }
}

/// Evaluate a WHERE pattern on the physical plan: its frame and rows.
fn eval_where(
    store: &Store,
    where_: &GroupPattern,
    options: &EvalOptions,
) -> Result<(Frame, Vec<Row>), SparqlError> {
    let plan = compile_where(where_, "Where".to_owned(), store, options);
    match execute_plan(&plan, store, options)?.0 {
        Output::Rows(rows) => Ok((plan.frame().clone(), rows)),
        Output::Solutions(_) => unreachable!("a WHERE plan yields rows"),
    }
}

/// Instantiate the template for each row.
fn instantiate_all(store: &Store, template: &[TriplePattern], frame: &Frame, rows: &[Row]) -> Vec<Triple> {
    let mut out = Vec::new();
    for row in rows {
        for tp in template {
            let resolve = |pat: &TermPattern| -> Option<Term> {
                match pat {
                    TermPattern::Term(t) => Some(t.clone()),
                    TermPattern::Var(v) => frame
                        .index(v)
                        .and_then(|i| row.get(i))
                        .and_then(|b| b.as_ref())
                        .map(|b| bound_term(b, store).clone()),
                }
            };
            let p = match &tp.predicate {
                PathOrVar::Path(PropertyPath::Iri(iri)) => Some(Term::iri(iri.clone())),
                PathOrVar::Var(v) => frame
                    .index(v)
                    .and_then(|i| row.get(i))
                    .and_then(|b| b.as_ref())
                    .map(|b| bound_term(b, store).clone()),
                PathOrVar::Path(_) => None,
            };
            if let (Some(s), Some(p), Some(o)) = (resolve(&tp.subject), p, resolve(&tp.object)) {
                out.push(Triple::new(s, p, o));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const EX: &str = "http://e/";

    fn store() -> Store {
        let mut s = Store::new();
        s.load_turtle(&format!(
            r#"@prefix ex: <{EX}> .
               ex:l1 a ex:Laptop ; ex:price 900 .
               ex:l2 a ex:Laptop ; ex:price 1000 .
            "#
        ))
        .unwrap();
        s
    }

    #[test]
    fn insert_data() {
        let mut s = store();
        let stats = execute_update(
            &mut s,
            &format!("PREFIX ex: <{EX}> INSERT DATA {{ ex:l3 a ex:Laptop ; ex:price 820 . }}"),
        )
        .unwrap();
        assert_eq!(stats.inserted, 2);
        let laptop = s.lookup_iri(&format!("{EX}Laptop")).unwrap();
        assert_eq!(s.instances_set(laptop).len(), 3);
    }

    #[test]
    fn delete_data() {
        let mut s = store();
        let stats = execute_update(
            &mut s,
            &format!("PREFIX ex: <{EX}> DELETE DATA {{ ex:l1 ex:price 900 . }}"),
        )
        .unwrap();
        assert_eq!(stats.deleted, 1);
        // deleting an absent triple is a no-op
        let stats2 = execute_update(
            &mut s,
            &format!("PREFIX ex: <{EX}> DELETE DATA {{ ex:l1 ex:price 900 . }}"),
        )
        .unwrap();
        assert_eq!(stats2.deleted, 0);
    }

    #[test]
    fn delete_where() {
        let mut s = store();
        let stats = execute_update(
            &mut s,
            &format!("PREFIX ex: <{EX}> DELETE WHERE {{ ?x ex:price ?p . }}"),
        )
        .unwrap();
        assert_eq!(stats.deleted, 2);
        let price = s.lookup_iri(&format!("{EX}price")).unwrap();
        assert_eq!(s.matching(None, Some(price), None).count(), 0);
    }

    #[test]
    fn modify_rewrites_values() {
        let mut s = store();
        // apply a 10% discount to everything over 950
        let stats = execute_update(
            &mut s,
            &format!(
                "PREFIX ex: <{EX}> DELETE {{ ?x ex:price ?p . }} INSERT {{ ?x ex:discounted true . }} WHERE {{ ?x ex:price ?p . FILTER(?p > 950) }}"
            ),
        )
        .unwrap();
        assert_eq!(stats.deleted, 1);
        assert_eq!(stats.inserted, 1);
        let disc = s.lookup_iri(&format!("{EX}discounted")).unwrap();
        assert_eq!(s.matching(None, Some(disc), None).count(), 1);
    }

    #[test]
    fn chained_operations() {
        let mut s = store();
        let stats = execute_update(
            &mut s,
            &format!(
                "PREFIX ex: <{EX}>\nINSERT DATA {{ ex:l3 ex:price 500 . }} ;\nDELETE DATA {{ ex:l1 ex:price 900 . }}"
            ),
        )
        .unwrap();
        assert_eq!(stats.inserted, 1);
        assert_eq!(stats.deleted, 1);
    }

    #[test]
    fn recording_captures_effective_changes_in_order() {
        let mut s = store();
        let (stats, changes) = execute_update_recording(
            &mut s,
            &format!(
                "PREFIX ex: <{EX}> DELETE {{ ?x ex:price ?p . }} INSERT {{ ?x ex:cheap true . }} WHERE {{ ?x ex:price ?p . FILTER(?p < 950) }}"
            ),
        )
        .unwrap();
        assert_eq!(stats.deleted, 1);
        assert_eq!(stats.inserted, 1);
        assert_eq!(changes.len(), 2);
        assert!(matches!(&changes[0], Mutation::Remove(t) if t.predicate == Term::iri(format!("{EX}price"))));
        assert!(matches!(&changes[1], Mutation::Insert(t) if t.predicate == Term::iri(format!("{EX}cheap"))));
        // replaying the recorded changes on a fresh copy converges to the
        // same store — the property the WAL relies on
        let mut replica = store();
        for m in &changes {
            match m {
                Mutation::Insert(t) => {
                    replica.insert(t);
                }
                Mutation::Remove(t) => {
                    let ids = (
                        replica.lookup(&t.subject),
                        replica.lookup(&t.predicate),
                        replica.lookup(&t.object),
                    );
                    if let (Some(a), Some(b), Some(c)) = ids {
                        replica.remove_ids([a, b, c]);
                    }
                }
            }
        }
        replica.materialize_inference();
        assert_eq!(replica.len(), s.len());
    }

    #[test]
    fn recording_skips_no_op_changes() {
        let mut s = store();
        let (_, changes) = execute_update_recording(
            &mut s,
            &format!("PREFIX ex: <{EX}> DELETE DATA {{ ex:nope ex:price 1 . }} ;\nINSERT DATA {{ ex:l1 ex:price 900 . }}"),
        )
        .unwrap();
        assert!(changes.is_empty(), "{changes:?}");
    }

    #[test]
    fn modify_where_with_a_path_and_minus_changes_exactly_its_rows() {
        let mut s = Store::new();
        s.load_turtle(&format!(
            r#"@prefix ex: <{EX}> .
               ex:l1 ex:price 900 ; ex:maker ex:DELL .
               ex:l2 ex:price 1000 ; ex:maker ex:ACER .
               ex:l3 ex:price 820 ; ex:maker ex:DELL ; ex:discontinued true .
               ex:DELL ex:origin ex:USA . ex:ACER ex:origin ex:Taiwan .
            "#
        ))
        .unwrap();
        let (stats, changes) = execute_update_recording(
            &mut s,
            &format!(
                "PREFIX ex: <{EX}> DELETE {{ ?x ex:price ?p }} INSERT {{ ?x ex:madeIn ?c }} \
                 WHERE {{ ?x ex:maker/ex:origin ?c ; ex:price ?p . MINUS {{ ?x ex:discontinued true }} }}"
            ),
        )
        .unwrap();
        let t = |s: &str, p: &str, o: Term| Triple::new(Term::iri(format!("{EX}{s}")), Term::iri(format!("{EX}{p}")), o);
        let iri = |l: &str| Term::iri(format!("{EX}{l}"));
        let mut got: Vec<String> = changes.iter().map(|m| format!("{m:?}")).collect();
        let mut want: Vec<String> = [
            Mutation::Remove(t("l1", "price", Term::integer(900))),
            Mutation::Remove(t("l2", "price", Term::integer(1000))),
            Mutation::Insert(t("l1", "madeIn", iri("USA"))),
            Mutation::Insert(t("l2", "madeIn", iri("Taiwan"))),
        ]
        .iter()
        .map(|m| format!("{m:?}"))
        .collect();
        got.sort();
        want.sort();
        assert_eq!(got, want);
        assert_eq!((stats.deleted, stats.inserted), (2, 2));
    }

    #[test]
    fn closure_refreshed_after_update() {
        let mut s = Store::new();
        s.load_turtle(&format!(
            "@prefix ex: <{EX}> . @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> . ex:Laptop rdfs:subClassOf ex:Product ."
        ))
        .unwrap();
        execute_update(
            &mut s,
            &format!("PREFIX ex: <{EX}> INSERT DATA {{ ex:l9 a ex:Laptop . }}"),
        )
        .unwrap();
        let product = s.lookup_iri(&format!("{EX}Product")).unwrap();
        assert_eq!(s.instances_set(product).len(), 1);
        assert!(!s.is_dirty());
    }
}
