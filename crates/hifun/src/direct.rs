//! Direct functional evaluation of HIFUN queries — the grouping → measuring
//! → reduction semantics of §2.5, implemented natively over the store.
//!
//! This is the *reference semantics* used to validate the SPARQL translation
//! (Proposition 2): on data satisfying HIFUN's functionality assumption the
//! direct answer and the translated query's answer must coincide. The
//! property test in `tests/translation_soundness.rs` exercises exactly this.
//!
//! No product path calls it: `AnalyticsSession::run` always translates and
//! runs the SPARQL under its budget. It is also the "SPARQL-only vs native"
//! alternative implementation whose relative cost Figure 8.3 discusses
//! (experiment E5).

use crate::query::*;
use crate::HifunError;
use rdfa_model::{Date, DateTime, Term, Value};
use rdfa_sparql::Solutions;
use rdfa_store::{Store, TermId};
use std::collections::BTreeSet;

/// Evaluate a HIFUN query directly, producing a solution table whose columns
/// are the grouping values (`g1…gk`) followed by one aggregate per operation
/// (`agg1…aggn`) — the same shape the translated SPARQL query yields.
pub fn evaluate(store: &Store, q: &HifunQuery) -> Result<Solutions, HifunError> {
    let items = root_items(store, &q.root);

    // per-item bindings: cross product of grouping-value tuples and
    // measure values
    struct GroupAccum {
        key: Vec<Term>,
        measures: Vec<Value>,
        distinct_items: BTreeSet<TermId>,
    }
    let mut groups: Vec<GroupAccum> = Vec::new();
    let mut index: std::collections::HashMap<Vec<Term>, usize> = std::collections::HashMap::new();

    for &item in &items {
        // grouping combinations
        let mut combos: Vec<Vec<Term>> = vec![Vec::new()];
        let mut dead = false;
        for rp in &q.groupings {
            let vals = component_values(store, item, rp);
            if vals.is_empty() {
                dead = true;
                break;
            }
            let mut next = Vec::with_capacity(combos.len() * vals.len());
            for combo in &combos {
                for v in &vals {
                    let mut c = combo.clone();
                    c.push(v.clone());
                    next.push(c);
                }
            }
            combos = next;
        }
        if dead {
            continue;
        }
        // measure values
        let measures: Vec<Value> = match &q.measuring {
            None => vec![Value::from_term(store.term(item))],
            Some(rp) => {
                let vals = component_values(store, item, rp);
                if vals.is_empty() {
                    continue; // inner-join semantics
                }
                vals.iter().map(Value::from_term).collect()
            }
        };
        for combo in combos {
            let gi = match index.get(&combo) {
                Some(&i) => i,
                None => {
                    index.insert(combo.clone(), groups.len());
                    groups.push(GroupAccum {
                        key: combo,
                        measures: Vec::new(),
                        distinct_items: BTreeSet::new(),
                    });
                    groups.len() - 1
                }
            };
            groups[gi].measures.extend(measures.iter().cloned());
            groups[gi].distinct_items.insert(item);
        }
    }

    // an aggregate query without grouping always has exactly one group,
    // even over zero items (COUNT(*) = 0, matching SPARQL)
    if groups.is_empty() && q.groupings.is_empty() {
        groups.push(GroupAccum {
            key: Vec::new(),
            measures: Vec::new(),
            distinct_items: BTreeSet::new(),
        });
    }

    // reduction
    let mut rows: Vec<Vec<Option<Term>>> = Vec::new();
    'group: for g in &groups {
        let mut agg_values: Vec<Option<Value>> = Vec::with_capacity(q.ops.len());
        for &op in &q.ops {
            let v = if q.measuring.is_none() {
                // identity measuring: operate on distinct items
                match op {
                    AggOp::Count => Some(Value::Int(g.distinct_items.len() as i64)),
                    _ => reduce(op, &dedup_values(&g.measures)),
                }
            } else {
                reduce(op, &g.measures)
            };
            agg_values.push(v);
        }
        // result restrictions
        for rr in &q.result_restrictions {
            let Some(actual) = agg_values.get(rr.op_index).and_then(|v| v.clone()) else {
                continue 'group;
            };
            let threshold = Value::from_term(&rr.value);
            match actual.compare(&threshold) {
                Some(ord) if rr.op.test(ord) => {}
                _ => continue 'group,
            }
        }
        let mut row: Vec<Option<Term>> = g.key.iter().map(|t| Some(t.clone())).collect();
        row.extend(agg_values.into_iter().map(|v| v.map(|v| v.to_term())));
        rows.push(row);
    }

    let mut vars: Vec<String> = (1..=q.groupings.len()).map(|i| format!("g{i}")).collect();
    vars.extend((1..=q.ops.len()).map(|i| format!("agg{i}")));
    Ok(Solutions::new(vars, rows))
}

fn dedup_values(vals: &[Value]) -> Vec<Value> {
    let mut seen = BTreeSet::new();
    vals.iter()
        .filter(|v| seen.insert(v.to_term()))
        .cloned()
        .collect()
}

/// The root item set of the analysis context: the conjunction of the
/// explicit set and the conditions.
fn root_items(store: &Store, root: &Root) -> BTreeSet<TermId> {
    let mut items: BTreeSet<TermId> = match &root.among {
        Some(terms) => terms.iter().filter_map(|t| store.lookup(t)).collect(),
        None => store.iter_explicit().map(|[s, _, _]| s).collect(),
    };
    for holders in root.conditions.iter().filter_map(|cond| indexed(store, cond)) {
        items = items.intersection(&holders).copied().collect();
    }
    items.retain(|&item| root.conditions.iter().all(|cond| meets(store, item, cond)));
    items
}

/// Some end of the restriction's path from `start` passes its test.
fn meets(store: &Store, start: TermId, r: &Restriction) -> bool {
    follow(store, start, &r.path).iter().any(|t| holds(t, &r.test))
}

/// The items a one-term set on one property step (a class, a value click)
/// holds for, read off the index; `None` for any other condition.
fn indexed(store: &Store, cond: &Restriction) -> Option<BTreeSet<TermId>> {
    let (Test::OneOf(terms), [step]) = (&cond.test, &cond.path[..]) else { return None };
    let ([term], Some((iri, inverse))) = (&terms[..], step.property()) else { return None };
    // an unknown property or term leaves the condition to the item test
    let (p, t) = (store.lookup_iri(iri)?, store.lookup(term)?);
    Some(if inverse {
        store.matching(Some(t), Some(p), None).map(|[_, _, o]| o).collect()
    } else {
        store.matching(None, Some(p), Some(t)).map(|[s, _, _]| s).collect()
    })
}

/// Values of a grouping/measuring component for one item, with its
/// restrictions applied.
fn component_values(store: &Store, item: TermId, rp: &RestrictedPath) -> Vec<Term> {
    let vals = follow(store, item, &rp.path.steps);
    vals.into_iter()
        .filter(|t| {
            rp.restrictions.iter().all(|r| {
                if r.path.is_empty() {
                    holds(t, &r.test)
                } else {
                    // continuation restriction: some extension must pass
                    store.lookup(t).is_some_and(|id| meets(store, id, r))
                }
            })
        })
        .collect()
}

/// Enumerate endpoint values of a composition chain from an item (an
/// inverse step follows its property backwards). Each
/// distinct *route* contributes one value (bag semantics, matching SPARQL
/// joins); derived steps transform values in place, dropping those where the
/// function is undefined (SPARQL error semantics).
fn follow(store: &Store, start: TermId, steps: &[Step]) -> Vec<Term> {
    let mut current: Vec<Term> = vec![store.term(start).clone()];
    for step in steps {
        let mut next = Vec::new();
        match step {
            Step::Prop(iri) | Step::Inv(iri) => {
                let Some(p) = store.lookup_iri(iri) else { return Vec::new() };
                for t in &current {
                    let Some(id) = store.lookup(t) else { continue };
                    if let Step::Inv(_) = step {
                        for [s, _, _] in store.matching(None, Some(p), Some(id)) {
                            next.push(store.term(s).clone());
                        }
                    } else {
                        for [_, _, o] in store.matching(Some(id), Some(p), None) {
                            next.push(store.term(o).clone());
                        }
                    }
                }
            }
            Step::Derived(f) => {
                for t in &current {
                    if let Some(v) = apply_derived(*f, t) {
                        next.push(v);
                    }
                }
            }
        }
        current = next;
        if current.is_empty() {
            break;
        }
    }
    current
}

/// Apply a derived function to a term, mirroring the SPARQL built-in.
pub fn apply_derived(f: DerivedFn, t: &Term) -> Option<Term> {
    let v = Value::from_term(t);
    let (date, dt): (Option<Date>, Option<DateTime>) = match v {
        Value::Date(d) => (Some(d), None),
        Value::DateTime(d) => (None, Some(d)),
        _ => return None,
    };
    let n = match f {
        DerivedFn::Year => date.map(|d| d.year as i64).or(dt.map(|d| d.date.year as i64)),
        DerivedFn::Month => date.map(|d| d.month as i64).or(dt.map(|d| d.date.month as i64)),
        DerivedFn::Day => date.map(|d| d.day as i64).or(dt.map(|d| d.date.day as i64)),
    }?;
    Some(Term::integer(n))
}

/// A restriction's test on one final term: a comparison by value, term
/// identity for a term set, both bounds for a range.
fn holds(t: &Term, test: &Test) -> bool {
    match test {
        Test::Cmp(op, value) => passes(t, *op, value),
        Test::OneOf(terms) => terms.contains(t),
        Test::Range { min, max } => {
            min.iter().all(|m| passes(t, CondOp::Ge, m))
                && max.iter().all(|m| passes(t, CondOp::Le, m))
        }
    }
}

fn passes(t: &Term, op: CondOp, value: &Term) -> bool {
    let a = Value::from_term(t);
    let b = Value::from_term(value);
    match op {
        CondOp::Eq => a.value_eq(&b),
        CondOp::Ne => !a.value_eq(&b),
        _ => match a.compare(&b) {
            Some(ord) => op.test(ord),
            None => false,
        },
    }
}

/// The reduction step: aggregate a bag of values.
pub fn reduce(op: AggOp, values: &[Value]) -> Option<Value> {
    match op {
        AggOp::Count => Some(Value::Int(values.len() as i64)),
        AggOp::Sum => {
            let mut acc = Value::Int(0);
            for v in values {
                acc = acc.add(v)?;
            }
            Some(acc)
        }
        AggOp::Avg => {
            if values.is_empty() {
                return None;
            }
            let mut acc = Value::Int(0);
            for v in values {
                acc = acc.add(v)?;
            }
            acc.div(&Value::Int(values.len() as i64))
        }
        AggOp::Min => values
            .iter()
            .cloned()
            .reduce(|a, b| if b.compare(&a) == Some(std::cmp::Ordering::Less) { b } else { a }),
        AggOp::Max => values
            .iter()
            .cloned()
            .reduce(|a, b| if b.compare(&a) == Some(std::cmp::Ordering::Greater) { b } else { a }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EX: &str = "http://example.org/";

    fn invoices() -> Store {
        let mut s = Store::new();
        s.load_turtle(&format!(
            r#"@prefix ex: <{EX}> .
               @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
               ex:i1 ex:takesPlaceAt ex:b1 ; ex:inQuantity 200 ; ex:delivers ex:p1 ;
                     ex:hasDate "2021-01-15"^^xsd:date .
               ex:i2 ex:takesPlaceAt ex:b1 ; ex:inQuantity 100 ; ex:delivers ex:p2 ;
                     ex:hasDate "2021-01-20"^^xsd:date .
               ex:i3 ex:takesPlaceAt ex:b2 ; ex:inQuantity 400 ; ex:delivers ex:p1 ;
                     ex:hasDate "2021-02-02"^^xsd:date .
               ex:p1 ex:brand ex:CocaCola .
               ex:p2 ex:brand ex:Pepsi .
            "#
        ))
        .unwrap();
        s
    }

    fn p(local: &str) -> String {
        format!("{EX}{local}")
    }

    fn find_row<'a>(sol: &'a Solutions, key: &str) -> &'a Vec<Option<Term>> {
        sol.rows()
            .iter()
            .find(|r| r[0].as_ref().map(|t| t.display_name()) == Some(key.to_owned()))
            .unwrap_or_else(|| panic!("no row {key} in {sol:?}"))
    }

    /// The paper's own worked example (Fig 2.8): seven invoices, query
    /// `Q = (b, q, sum)`, answer `b1 → 300, b2 → 600, b3 → 600`.
    #[test]
    fn fig_2_8_worked_example() {
        let mut s = Store::new();
        s.load_turtle(&format!(
            r#"@prefix ex: <{EX}> .
               ex:d1 ex:b ex:branch1 ; ex:q 200 .
               ex:d2 ex:b ex:branch1 ; ex:q 100 .
               ex:d3 ex:b ex:branch2 ; ex:q 200 .
               ex:d4 ex:b ex:branch2 ; ex:q 400 .
               ex:d5 ex:b ex:branch3 ; ex:q 100 .
               ex:d6 ex:b ex:branch3 ; ex:q 400 .
               ex:d7 ex:b ex:branch3 ; ex:q 100 .
            "#
        ))
        .unwrap();
        let q = HifunQuery::new(AggOp::Sum)
            .group_by(AttrPath::prop(p("b")))
            .measure(AttrPath::prop(p("q")));
        let sol = evaluate(&s, &q).unwrap();
        assert_eq!(find_row(&sol, "branch1")[1], Some(Term::integer(300)));
        assert_eq!(find_row(&sol, "branch2")[1], Some(Term::integer(600)));
        assert_eq!(find_row(&sol, "branch3")[1], Some(Term::integer(600)));
    }

    #[test]
    fn grouping_measuring_reduction() {
        let s = invoices();
        let q = HifunQuery::new(AggOp::Sum)
            .group_by(AttrPath::prop(p("takesPlaceAt")))
            .measure(AttrPath::prop(p("inQuantity")));
        let sol = evaluate(&s, &q).unwrap();
        assert_eq!(sol.len(), 2);
        assert_eq!(find_row(&sol, "b1")[1], Some(Term::integer(300)));
        assert_eq!(find_row(&sol, "b2")[1], Some(Term::integer(400)));
    }

    #[test]
    fn composition_grouping() {
        let s = invoices();
        let q = HifunQuery::new(AggOp::Sum)
            .group_by(AttrPath::props(&[&p("delivers"), &p("brand")]))
            .measure(AttrPath::prop(p("inQuantity")));
        let sol = evaluate(&s, &q).unwrap();
        assert_eq!(find_row(&sol, "CocaCola")[1], Some(Term::integer(600)));
        assert_eq!(find_row(&sol, "Pepsi")[1], Some(Term::integer(100)));
    }

    #[test]
    fn derived_month_grouping() {
        let s = invoices();
        let q = HifunQuery::new(AggOp::Sum)
            .group_by(AttrPath::prop(p("hasDate")).derived(DerivedFn::Month))
            .measure(AttrPath::prop(p("inQuantity")));
        let sol = evaluate(&s, &q).unwrap();
        assert_eq!(find_row(&sol, "1")[1], Some(Term::integer(300)));
        assert_eq!(find_row(&sol, "2")[1], Some(Term::integer(400)));
    }

    #[test]
    fn having_restriction() {
        let s = invoices();
        let q = HifunQuery::new(AggOp::Sum)
            .group_by(AttrPath::prop(p("takesPlaceAt")))
            .measure(AttrPath::prop(p("inQuantity")))
            .having(0, CondOp::Gt, Term::integer(300));
        let sol = evaluate(&s, &q).unwrap();
        assert_eq!(sol.len(), 1);
        assert_eq!(sol.rows()[0][0].as_ref().unwrap().display_name(), "b2");
    }

    #[test]
    fn root_conditions_filter_items() {
        let s = invoices();
        // only January invoices
        let q = HifunQuery::new(AggOp::Sum)
            .with_conditions(vec![Restriction::via(
                vec![Step::Prop(p("hasDate")), Step::Derived(DerivedFn::Month)],
                CondOp::Eq,
                Term::integer(1),
            )])
            .group_by(AttrPath::prop(p("takesPlaceAt")))
            .measure(AttrPath::prop(p("inQuantity")));
        let sol = evaluate(&s, &q).unwrap();
        assert_eq!(sol.len(), 1);
        assert_eq!(find_row(&sol, "b1")[1], Some(Term::integer(300)));
    }

    #[test]
    fn grouping_restriction_uri() {
        let s = invoices();
        let q = HifunQuery::new(AggOp::Sum)
            .group_by_restricted(
                RestrictedPath::new(AttrPath::prop(p("takesPlaceAt")))
                    .restricted(Restriction::eq(Term::iri(p("b1")))),
            )
            .measure(AttrPath::prop(p("inQuantity")));
        let sol = evaluate(&s, &q).unwrap();
        assert_eq!(sol.len(), 1);
        assert_eq!(find_row(&sol, "b1")[1], Some(Term::integer(300)));
    }

    #[test]
    fn measure_restriction_literal() {
        let s = invoices();
        let q = HifunQuery::new(AggOp::Sum)
            .group_by(AttrPath::prop(p("takesPlaceAt")))
            .measure_restricted(
                RestrictedPath::new(AttrPath::prop(p("inQuantity")))
                    .restricted(Restriction::cmp(CondOp::Ge, Term::integer(150))),
            );
        let sol = evaluate(&s, &q).unwrap();
        // i2 (quantity 100) is dropped; b1 sums to 200 only
        assert_eq!(find_row(&sol, "b1")[1], Some(Term::integer(200)));
    }

    #[test]
    fn identity_count() {
        let s = invoices();
        let q = HifunQuery::new(AggOp::Count)
            .group_by(AttrPath::prop(p("takesPlaceAt")));
        let sol = evaluate(&s, &q).unwrap();
        assert_eq!(find_row(&sol, "b1")[1], Some(Term::integer(2)));
        assert_eq!(find_row(&sol, "b2")[1], Some(Term::integer(1)));
    }

    #[test]
    fn multiple_ops() {
        let s = invoices();
        let q = HifunQuery::new(AggOp::Min)
            .also(AggOp::Max)
            .also(AggOp::Avg)
            .group_by(AttrPath::prop(p("takesPlaceAt")))
            .measure(AttrPath::prop(p("inQuantity")));
        let sol = evaluate(&s, &q).unwrap();
        let b1 = find_row(&sol, "b1");
        assert_eq!(b1[1], Some(Term::integer(100)));
        assert_eq!(b1[2], Some(Term::integer(200)));
        assert_eq!(b1[3], Some(Term::decimal(150.0)));
    }

    #[test]
    fn pairing_groups_on_tuples() {
        let s = invoices();
        let q = HifunQuery::new(AggOp::Sum)
            .group_by(AttrPath::prop(p("takesPlaceAt")))
            .group_by(AttrPath::prop(p("delivers")))
            .measure(AttrPath::prop(p("inQuantity")));
        let sol = evaluate(&s, &q).unwrap();
        assert_eq!(sol.len(), 3); // (b1,p1), (b1,p2), (b2,p1)
    }

    /// Term identity, inverse steps and one value within both bounds.
    #[test]
    fn click_conditions() {
        let mut s = Store::new();
        s.load_turtle(&format!(
            r#"@prefix ex: <{EX}> .
               @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
               ex:l1 ex:price 100, 1000 ; ex:usb "2"^^xsd:integer .
               ex:l2 ex:price 500 ; ex:usb "2.0"^^xsd:decimal .
               ex:shop ex:ships ex:l2 .
            "#
        ))
        .unwrap();
        let count = |cond: Restriction| {
            let q = HifunQuery::new(AggOp::Count).with_conditions(vec![cond]);
            evaluate(&s, &q).unwrap().rows()[0][0].clone().unwrap()
        };
        let usb = || vec![Step::Prop(p("usb"))];
        assert_eq!(count(Restriction::via(usb(), CondOp::Eq, Term::integer(2))), Term::integer(2));
        assert_eq!(count(Restriction::one_of(usb(), vec![Term::integer(2)])), Term::integer(1));
        let price = vec![Step::Prop(p("price"))];
        let range = Restriction::range(price, Some(Term::integer(200)), Some(Term::integer(900)));
        assert_eq!(count(range), Term::integer(1));
        let shipped = vec![Step::Inv(p("ships"))];
        assert_eq!(
            count(Restriction::one_of(shipped, vec![Term::iri(p("shop"))])),
            Term::integer(1)
        );
    }

    #[test]
    fn empty_class_root_yields_no_rows() {
        let s = invoices();
        let q = HifunQuery::new(AggOp::Sum)
            .over_class(p("Nonexistent"))
            .group_by(AttrPath::prop(p("takesPlaceAt")))
            .measure(AttrPath::prop(p("inQuantity")));
        let sol = evaluate(&s, &q).unwrap();
        assert!(sol.is_empty());
    }
}
