//! The expressive power of the model (Chapter 7, §7.1): which HIFUN queries
//! the interaction model can formulate.
//!
//! A faceted state's intention is a HIFUN root, so the model reaches every
//! HIFUN query whose root is a conjunction of clicks:
//! - classes;
//! - values and multi-selects, tested by term identity (`path∈{t1, t2}`);
//! - ranges (`path∈[min, max]`, the ⧩ filter), or a one-sided `≥`/`≤`;
//! - over paths of forward and inverse (`^p`, §5.3.1) property steps.
//!
//! Its grouping and measuring expressions are **compositions of forward
//! properties** (with an optional terminal derived attribute), possibly
//! **paired**, whose restrictions are value selections or ranges, and whose
//! result restrictions are expressible by reloading the Answer Frame
//! (§5.3.3). Queries using the remaining functional-algebra operators —
//! Cartesian product projection, restrictions of the *operation* expression
//! itself, derived functions in the middle of a chain, value comparisons
//! other than a range in the root, or inverse attributes under G/⨊ — are
//! outside the click vocabulary.

use rdfa_hifun::{CondOp, HifunQuery, Restriction, Step, Test};
use rdfa_model::Term;

/// Why a query is not reachable through the interaction model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InexpressibleReason {
    /// A derived attribute appears before the end of a composition chain;
    /// the transform (ƒ) button only applies to a facet's terminal values.
    DerivedMidChain { component: String },
    /// The query has no aggregate operation at all.
    NoOperation,
    /// A restriction's continuation path contains a derived step that is not
    /// terminal.
    DerivedMidRestriction,
    /// A grouping or measuring path has an inverse step; the G/⨊ buttons
    /// take forward paths.
    InverseAttribute { component: String },
    /// A root condition no facet click makes: a value comparison other than
    /// a range, or a path that is empty or has a derived step.
    UnclickableCondition,
}

/// The expressibility verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expressibility {
    /// The query can be formulated by a click sequence.
    Expressible,
    /// It cannot; the reasons say which feature is missing.
    NotExpressible(Vec<InexpressibleReason>),
}

/// Classify a HIFUN query against the model's click vocabulary (§7.1).
pub fn check_expressibility(q: &HifunQuery) -> Expressibility {
    let mut reasons = Vec::new();
    if q.ops.is_empty() {
        reasons.push(InexpressibleReason::NoOperation);
    }
    for (label, steps) in q
        .groupings
        .iter()
        .map(|rp| ("grouping", &rp.path.steps))
        .chain(q.measuring.iter().map(|rp| ("measuring", &rp.path.steps)))
    {
        if has_mid_chain_derived(steps) {
            reasons.push(InexpressibleReason::DerivedMidChain { component: label.to_owned() });
        }
        if steps.iter().any(|s| matches!(s, Step::Inv(_))) {
            reasons.push(InexpressibleReason::InverseAttribute { component: label.to_owned() });
        }
    }
    if !q.root.conditions.iter().all(clickable) {
        reasons.push(InexpressibleReason::UnclickableCondition);
    }
    for rp in q.groupings.iter().chain(q.measuring.iter()) {
        for r in &rp.restrictions {
            if has_mid_chain_derived(&r.path) {
                reasons.push(InexpressibleReason::DerivedMidRestriction);
            }
        }
    }
    if reasons.is_empty() {
        Expressibility::Expressible
    } else {
        Expressibility::NotExpressible(reasons)
    }
}

/// True when a derived step is followed by a property step.
fn has_mid_chain_derived(steps: &[Step]) -> bool {
    let mut seen_derived = false;
    for s in steps {
        match s {
            Step::Derived(_) => seen_derived = true,
            _ if seen_derived => return true,
            _ => {}
        }
    }
    false
}

/// A root condition a facet click makes: a property path with a term set, a
/// range, or what one of them means (`≥`, `≤`, `=` a URI).
fn clickable(r: &Restriction) -> bool {
    let test = match &r.test {
        Test::OneOf(_) | Test::Range { .. } => true,
        Test::Cmp(CondOp::Ge | CondOp::Le, _) | Test::Cmp(CondOp::Eq, Term::Iri(_)) => true,
        Test::Cmp(..) => false,
    };
    test && !r.path.is_empty() && r.path.iter().all(|s| s.property().is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfa_hifun::{AggOp, AttrPath, DerivedFn, HifunQuery};

    #[test]
    fn plain_queries_are_expressible() {
        let q = HifunQuery::new(AggOp::Sum)
            .group_by(AttrPath::props(&["http://e/a", "http://e/b"]))
            .measure(AttrPath::prop("http://e/q"));
        assert_eq!(check_expressibility(&q), Expressibility::Expressible);
    }

    #[test]
    fn terminal_derived_is_expressible() {
        let q = HifunQuery::new(AggOp::Count)
            .group_by(AttrPath::prop("http://e/date").derived(DerivedFn::Year));
        assert_eq!(check_expressibility(&q), Expressibility::Expressible);
    }

    #[test]
    fn mid_chain_derived_is_not() {
        let mut path = AttrPath::prop("http://e/date").derived(DerivedFn::Year);
        path = path.then("http://e/somethingElse");
        let q = HifunQuery::new(AggOp::Count).group_by(path);
        match check_expressibility(&q) {
            Expressibility::NotExpressible(rs) => {
                assert!(matches!(rs[0], InexpressibleReason::DerivedMidChain { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn click_conditions_are_expressible_and_comparisons_are_not() {
        let man = || vec![Step::Prop("http://e/man".into()), Step::Inv("http://e/man".into())];
        let q = HifunQuery::new(AggOp::Count).with_conditions(vec![
            Restriction::one_of(man(), vec![Term::iri("http://e/l1")]),
            Restriction::range(man(), Some(Term::integer(1)), None),
        ]);
        assert_eq!(check_expressibility(&q), Expressibility::Expressible);
        let q = q.with_conditions(vec![Restriction::via(man(), CondOp::Ne, Term::integer(2))]);
        assert_eq!(
            check_expressibility(&q),
            Expressibility::NotExpressible(vec![InexpressibleReason::UnclickableCondition])
        );
        let q = HifunQuery::new(AggOp::Count).group_by(AttrPath { steps: man() });
        assert!(matches!(
            check_expressibility(&q),
            Expressibility::NotExpressible(rs) if matches!(rs[0], InexpressibleReason::InverseAttribute { .. })
        ));
    }

    #[test]
    fn missing_op_is_reported() {
        let mut q = HifunQuery::new(AggOp::Count);
        q.ops.clear();
        assert!(matches!(
            check_expressibility(&q),
            Expressibility::NotExpressible(rs) if rs.contains(&InexpressibleReason::NoOperation)
        ));
    }
}
