//! The analytics session: faceted search + the G/⨊ buttons + evaluation.

use crate::answer::AnswerFrame;
use crate::script::{Action, Script};
use crate::AnalyticsError;
use rdfa_facets::{FacetedSession, PathStep};
use rdfa_hifun::query::{ResultRestriction, RestrictedPath};
use rdfa_hifun::{translate, AggOp, AttrPath, CondOp, DerivedFn, HifunQuery, Step, Test};
use rdfa_model::{Term, Value};
use rdfa_sparql::{Engine, EvalLimits};
use rdfa_store::{ExtSet, Store, TermId};

/// A grouping attribute selected with the G button: a (forward) property
/// path from the focus resources, optionally ending in a derived function
/// (the transform button `ƒ`, §5.1 "Special cases").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupSpec {
    pub path: Vec<TermId>,
    pub derived: Option<DerivedFn>,
}

impl GroupSpec {
    /// Group by a single property.
    pub fn property(prop: TermId) -> Self {
        GroupSpec { path: vec![prop], derived: None }
    }

    /// Group by a property path (e.g. manufacturer → origin).
    pub fn path(path: Vec<TermId>) -> Self {
        GroupSpec { path, derived: None }
    }

    /// Apply a derived function to the terminal value (e.g. YEAR).
    pub fn with_derived(mut self, f: DerivedFn) -> Self {
        self.derived = Some(f);
        self
    }
}

/// The measuring attribute selected with the ⨊ button.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasureSpec {
    pub path: Vec<TermId>,
    pub derived: Option<DerivedFn>,
}

impl MeasureSpec {
    /// Measure a single property.
    pub fn property(prop: TermId) -> Self {
        MeasureSpec { path: vec![prop], derived: None }
    }

    /// Measure through a property path.
    pub fn path(path: Vec<TermId>) -> Self {
        MeasureSpec { path, derived: None }
    }
}

/// A faceted-search session extended with the analytics state of §5.2.2:
/// grouping expression, measuring expression, and aggregate operations.
/// Clicking G/⨊ changes only the intention — the extension and the
/// transition markers stay, exactly as the paper specifies.
pub struct AnalyticsSession<'s> {
    facets: FacetedSession<'s>,
    groupings: Vec<GroupSpec>,
    measure: Option<MeasureSpec>,
    ops: Vec<AggOp>,
    havings: Vec<(usize, CondOp, Term)>,
    limits: EvalLimits,
}

impl<'s> AnalyticsSession<'s> {
    /// Start a session over a store.
    pub fn start(store: &'s Store) -> Self {
        AnalyticsSession::over(FacetedSession::start(store))
    }

    /// Start from an externally obtained result set — e.g. a keyword
    /// search's hits (§5.4.1's second starting point).
    pub fn start_from(store: &'s Store, results: ExtSet) -> Self {
        AnalyticsSession::over(FacetedSession::start_from(store, results))
    }

    fn over(facets: FacetedSession<'s>) -> Self {
        AnalyticsSession {
            facets,
            groupings: Vec::new(),
            measure: None,
            ops: Vec::new(),
            havings: Vec::new(),
            limits: EvalLimits::default(),
        }
    }

    /// Bound the resources [`run`](Self::run) may spend. A tripped limit is
    /// an error, as it is a 503 on the server.
    pub fn with_limits(mut self, limits: EvalLimits) -> Self {
        self.limits = limits;
        self
    }

    /// The underlying faceted session (immutable).
    pub fn facets(&self) -> &FacetedSession<'s> {
        &self.facets
    }

    /// The underlying faceted session (for exploration actions).
    pub fn facets_mut(&mut self) -> &mut FacetedSession<'s> {
        &mut self.facets
    }

    /// The backing store.
    pub fn store(&self) -> &'s Store {
        self.facets.store()
    }

    // ---- faceted actions (delegated) ---------------------------------------

    /// Click a class marker.
    pub fn select_class(&mut self, c: TermId) -> Result<(), AnalyticsError> {
        Ok(self.facets.select_class(c)?)
    }

    /// Click a property value marker.
    pub fn select_value(&mut self, prop: TermId, value: TermId) -> Result<(), AnalyticsError> {
        Ok(self.facets.select_value(prop, value)?)
    }

    /// Click a value at the end of an expanded property path.
    pub fn select_path_value(
        &mut self,
        path: &[PathStep],
        value: TermId,
    ) -> Result<(), AnalyticsError> {
        Ok(self.facets.select_path_value(path, value)?)
    }

    /// Tick several value checkboxes of one facet (disjunctive selection).
    pub fn select_values(
        &mut self,
        path: &[PathStep],
        values: &ExtSet,
    ) -> Result<(), AnalyticsError> {
        Ok(self.facets.select_values(path, values)?)
    }

    /// Apply a range filter (the ⧩ button).
    pub fn select_range(
        &mut self,
        path: &[PathStep],
        min: Option<Value>,
        max: Option<Value>,
    ) -> Result<(), AnalyticsError> {
        Ok(self.facets.select_range(path, min, max)?)
    }

    /// The current state as a script: the clicks in order, the groupings,
    /// the measure, the operations and the HAVING restrictions. Applied to a
    /// fresh session started the same way, it rebuilds this state. The
    /// initial state's root (its `owl:NamedIndividual` class, or the seed of
    /// a session started with [`start_from`](Self::start_from)) is no click,
    /// so the script does not print it.
    pub fn script(&self) -> Script {
        let term = |id: TermId| self.store().term(id).clone();
        let initial = self.facets.initial_intent().conditions.len();
        let clicked = &self.facets.intent().conditions[initial..];
        let mut actions: Vec<Action> = clicked
            .iter()
            .map(|cond| {
                let path = cond.path.clone();
                match (&cond.test, cond.as_class()) {
                    (_, Some(class)) => Action::SelectClass(class.clone()),
                    (Test::OneOf(values), _) => {
                        Action::SelectValues { path, values: values.clone() }
                    }
                    (Test::Range { min, max }, _) => {
                        Action::SelectRange { path, min: min.clone(), max: max.clone() }
                    }
                    (Test::Cmp(..), _) => unreachable!("a click adds no comparison to the root"),
                }
            })
            .collect();
        for g in &self.groupings {
            let path = g.path.iter().map(|&p| term(p)).collect();
            actions.push(Action::AddGrouping { path, derived: g.derived });
        }
        if let Some(m) = &self.measure {
            let path = m.path.iter().map(|&p| term(p)).collect();
            actions.push(Action::SetMeasure { path, derived: m.derived });
        }
        if !self.ops.is_empty() {
            actions.push(Action::SetOps(self.ops.clone()));
        }
        for (op_index, cond, value) in &self.havings {
            let (op_index, cond, value) = (*op_index, *cond, value.clone());
            actions.push(Action::AddHaving { op_index, cond, value });
        }
        Script { actions }
    }

    // ---- analytics actions (the extension of §5.2.2) -----------------------

    /// Click the G button of a facet (or expanded path): add a grouping
    /// attribute. Clicking G on several facets groups by all of them
    /// (the ">1 attributes" dialogue of §5.1).
    pub fn add_grouping(&mut self, spec: GroupSpec) {
        if !self.groupings.contains(&spec) {
            self.groupings.push(spec);
        }
    }

    /// Un-click a G button.
    pub fn remove_grouping(&mut self, index: usize) {
        if index < self.groupings.len() {
            self.groupings.remove(index);
        }
    }

    /// Replace a grouping attribute in place (granularity changes). The
    /// groupings stay distinct: replacing one by another already present
    /// removes it.
    pub fn replace_grouping(&mut self, index: usize, spec: GroupSpec) {
        if index < self.groupings.len() {
            if self.groupings.contains(&spec) {
                self.groupings.remove(index);
            } else {
                self.groupings[index] = spec;
            }
        }
    }

    /// Swap two grouping attributes (the pivot move).
    pub fn swap_groupings(&mut self, a: usize, b: usize) {
        if a < self.groupings.len() && b < self.groupings.len() {
            self.groupings.swap(a, b);
        }
    }

    /// Current grouping attributes.
    pub fn groupings(&self) -> &[GroupSpec] {
        &self.groupings
    }

    /// Click the ⨊ button of a facet: set the measuring attribute.
    pub fn set_measure(&mut self, spec: MeasureSpec) {
        self.measure = Some(spec);
    }

    /// Clear the measuring attribute (COUNT of items remains possible).
    pub fn clear_measure(&mut self) {
        self.measure = None;
    }

    /// Select the aggregate operations from the ⨊ menu (several allowed,
    /// Fig 6.2).
    pub fn set_ops(&mut self, ops: Vec<AggOp>) {
        self.ops = ops;
    }

    /// Add a result restriction (HAVING) on the `idx`-th aggregate. In the
    /// GUI this is expressed by reloading the answer frame and filtering
    /// (§5.3.3); the direct form is offered for programmatic use. An index
    /// past the selected operations is refused. A later
    /// [`set_ops`](Self::set_ops) may still drop the aggregate; the
    /// restriction is then reported by [`hifun_query`](Self::hifun_query).
    pub fn add_having(
        &mut self,
        idx: usize,
        op: CondOp,
        value: Term,
    ) -> Result<(), AnalyticsError> {
        if idx >= self.ops.len() {
            return Err(having_out_of_range(idx, self.ops.len()));
        }
        self.havings.push((idx, op, value));
        Ok(())
    }

    /// Reset all analytics state, keeping the faceted state.
    pub fn clear_analytics(&mut self) {
        self.groupings.clear();
        self.measure = None;
        self.ops.clear();
        self.havings.clear();
    }

    /// Check HIFUN's applicability (§4.1.1) for an attribute over the
    /// current extension: functional, missing values, or multi-valued. The
    /// GUI uses this to decide whether to offer the transform (ƒ) button.
    pub fn attribute_applicability(&self, prop: TermId) -> rdfa_hifun::Applicability {
        let store = self.store();
        let iri = store
            .term(prop)
            .as_iri()
            .map(str::to_owned)
            .unwrap_or_default();
        let ctx = rdfa_hifun::AnalysisContext::over_set(
            self.facets.extension().clone(),
            vec![AttrPath::prop(iri)],
        );
        ctx.check_applicability(store)
            .pop()
            .map(|(_, a)| a)
            .unwrap_or(rdfa_hifun::Applicability::Functional)
    }

    // ---- intention ----------------------------------------------------------

    /// Build the HIFUN query for the current state (the intention of §5.5):
    /// the faceted state's root, which the G/⨊ buttons leave as it is, with
    /// the groupings, the measure, the operations and the HAVING
    /// restrictions.
    pub fn hifun_query(&self) -> Result<HifunQuery, AnalyticsError> {
        if self.ops.is_empty() {
            return Err(AnalyticsError::new(
                "no aggregate operation selected (click the ⨊ button first)",
            ));
        }
        if let Some((idx, ..)) = self.havings.iter().find(|(idx, ..)| *idx >= self.ops.len()) {
            return Err(having_out_of_range(*idx, self.ops.len()));
        }
        let store = self.store();
        let component = |path: &[TermId], derived| spec_to_path(store, path, derived);
        Ok(HifunQuery {
            root: self.facets.intent().clone(),
            groupings: self
                .groupings
                .iter()
                .map(|g| component(&g.path, g.derived).map(RestrictedPath::new))
                .collect::<Result<_, _>>()?,
            measuring: (self.measure.as_ref())
                .map(|m| component(&m.path, m.derived).map(RestrictedPath::new))
                .transpose()?,
            ops: self.ops.clone(),
            result_restrictions: self
                .havings
                .iter()
                .map(|(idx, op, value)| ResultRestriction {
                    op_index: *idx,
                    op: *op,
                    value: value.clone(),
                })
                .collect(),
        })
    }

    /// The SPARQL translation of the current analytic intention.
    pub fn sparql(&self) -> Result<String, AnalyticsError> {
        Ok(translate::to_sparql(&self.hifun_query()?))
    }

    /// Evaluate the analytic intention, producing the Answer Frame: the
    /// HIFUN query is translated to SPARQL and run by the engine under this
    /// session's [`EvalLimits`] (Fig 6.1). A tripped limit is an error.
    pub fn run(&self) -> Result<AnswerFrame, AnalyticsError> {
        let q = self.hifun_query()?;
        let text = translate::to_sparql(&q);
        let sols = Engine::builder(self.store())
            .limits(self.limits.clone())
            .build()
            .run(&text)?
            .into_solutions()
            .ok_or_else(|| AnalyticsError::new("translated query was not a SELECT"))?;
        Ok(AnswerFrame::from_solutions(self.headers(&q), sols, q.to_string(), text))
    }

    fn headers(&self, q: &HifunQuery) -> Vec<String> {
        let store = self.store();
        let name = |path: &[TermId]| {
            path.iter().map(|&p| store.term(p).display_name()).collect::<Vec<_>>().join("/")
        };
        let group = |g: &GroupSpec| match g.derived {
            Some(f) => format!("{}({})", f.sparql().to_lowercase(), name(&g.path)),
            None => name(&g.path),
        };
        let mut headers: Vec<String> = self.groupings.iter().map(group).collect();
        let measure = self.measure.as_ref().map_or("items".to_owned(), |m| name(&m.path));
        headers.extend(q.ops.iter().map(|op| format!("{}({measure})", op.label())));
        headers
    }
}

fn having_out_of_range(idx: usize, ops: usize) -> AnalyticsError {
    AnalyticsError::new(format!(
        "HAVING restricts aggregate {idx}, but only {ops} operation(s) are selected"
    ))
}

/// Convert a GroupSpec/MeasureSpec path of interned properties into a HIFUN
/// attribute path. Fails on non-IRI predicates.
fn spec_to_path(
    store: &Store,
    path: &[TermId],
    derived: Option<DerivedFn>,
) -> Result<AttrPath, AnalyticsError> {
    let mut steps = Vec::with_capacity(path.len() + 1);
    for &p in path {
        let iri = store
            .term(p)
            .as_iri()
            .ok_or_else(|| AnalyticsError::new("grouping path step is not an IRI property"))?;
        steps.push(Step::Prop(iri.to_owned()));
    }
    if let Some(f) = derived {
        steps.push(Step::Derived(f));
    }
    Ok(AttrPath { steps })
}

#[cfg(test)]
mod tests {
    use super::*;

    const EX: &str = "http://e/";

    fn store() -> Store {
        let mut s = Store::new();
        s.load_turtle(&format!(
            r#"@prefix ex: <{EX}> .
               @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
               @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
               ex:Laptop rdfs:subClassOf ex:Product .
               ex:l1 a ex:Laptop ; ex:manufacturer ex:DELL ; ex:price 900 ; ex:usb 2 ;
                     ex:releaseDate "2021-06-10"^^xsd:date .
               ex:l2 a ex:Laptop ; ex:manufacturer ex:DELL ; ex:price 1000 ; ex:usb 4 ;
                     ex:releaseDate "2020-03-01"^^xsd:date .
               ex:l3 a ex:Laptop ; ex:manufacturer ex:ACER ; ex:price 820 ; ex:usb 2 ;
                     ex:releaseDate "2021-09-03"^^xsd:date .
               ex:DELL ex:origin ex:USA . ex:ACER ex:origin ex:Taiwan .
            "#
        ))
        .unwrap();
        s
    }

    fn id(s: &Store, local: &str) -> TermId {
        s.lookup_iri(&format!("{EX}{local}")).unwrap()
    }

    fn row_value(frame: &AnswerFrame, key: &str, col: usize) -> Option<Value> {
        frame
            .rows
            .iter()
            .find(|r| r[0].as_ref().map(|t| t.display_name()).as_deref() == Some(key))
            .and_then(|r| r[col].as_ref())
            .map(Value::from_term)
    }

    #[test]
    fn example1_avg_without_group_by() {
        // §5.1 Example 1: average price of laptops with 2 USB ports
        let s = store();
        let mut a = AnalyticsSession::start(&s);
        a.select_class(id(&s, "Laptop")).unwrap();
        a.select_value(id(&s, "usb"), s.lookup(&Term::integer(2)).unwrap()).unwrap();
        a.set_measure(MeasureSpec::property(id(&s, "price")));
        a.set_ops(vec![AggOp::Avg]);
        let frame = a.run().unwrap();
        assert_eq!(frame.rows.len(), 1);
        let avg = Value::from_term(frame.rows[0][0].as_ref().unwrap());
        assert!(avg.value_eq(&Value::Float(860.0))); // (900+820)/2
    }

    #[test]
    fn example2_count_grouped_by_path() {
        // §5.1 Example 2: count laptops grouped by manufacturer's country
        let s = store();
        let mut a = AnalyticsSession::start(&s);
        a.select_class(id(&s, "Laptop")).unwrap();
        a.add_grouping(GroupSpec::path(vec![id(&s, "manufacturer"), id(&s, "origin")]));
        a.set_ops(vec![AggOp::Count]);
        let frame = a.run().unwrap();
        assert_eq!(frame.rows.len(), 2);
        assert!(row_value(&frame, "USA", 1).unwrap().value_eq(&Value::Int(2)));
        assert!(row_value(&frame, "Taiwan", 1).unwrap().value_eq(&Value::Int(1)));
    }

    #[test]
    fn example3_range_filter_then_count() {
        // §5.1 Example 3: 2-or-more USB ports, count by origin
        let s = store();
        let mut a = AnalyticsSession::start(&s);
        a.select_class(id(&s, "Laptop")).unwrap();
        a.select_range(&[PathStep::fwd(id(&s, "usb"))], Some(Value::Int(2)), None)
            .unwrap();
        a.add_grouping(GroupSpec::path(vec![id(&s, "manufacturer"), id(&s, "origin")]));
        a.set_ops(vec![AggOp::Count]);
        let frame = a.run().unwrap();
        assert_eq!(frame.rows.len(), 2);
    }

    #[test]
    fn multiple_aggregates_fig_6_2() {
        // Fig 6.2: avg, sum and max price of laptops with 2–4 USB ports,
        // by manufacturer and origin
        let s = store();
        let mut a = AnalyticsSession::start(&s);
        a.select_class(id(&s, "Laptop")).unwrap();
        a.select_range(
            &[PathStep::fwd(id(&s, "usb"))],
            Some(Value::Int(2)),
            Some(Value::Int(4)),
        )
        .unwrap();
        a.add_grouping(GroupSpec::property(id(&s, "manufacturer")));
        a.add_grouping(GroupSpec::path(vec![id(&s, "manufacturer"), id(&s, "origin")]));
        a.set_measure(MeasureSpec::property(id(&s, "price")));
        a.set_ops(vec![AggOp::Avg, AggOp::Sum, AggOp::Max]);
        let frame = a.run().unwrap();
        assert_eq!(frame.headers.len(), 5);
        assert!(row_value(&frame, "DELL", 2).unwrap().value_eq(&Value::Float(950.0)));
        assert!(row_value(&frame, "DELL", 3).unwrap().value_eq(&Value::Int(1900)));
        assert!(row_value(&frame, "DELL", 4).unwrap().value_eq(&Value::Int(1000)));
    }

    #[test]
    fn derived_year_grouping() {
        let s = store();
        let mut a = AnalyticsSession::start(&s);
        a.select_class(id(&s, "Laptop")).unwrap();
        a.add_grouping(GroupSpec::property(id(&s, "releaseDate")).with_derived(DerivedFn::Year));
        a.set_ops(vec![AggOp::Count]);
        let frame = a.run().unwrap();
        assert_eq!(frame.rows.len(), 2);
        assert!(row_value(&frame, "2021", 1).unwrap().value_eq(&Value::Int(2)));
    }

    /// The session's answer equals direct HIFUN evaluation of its query,
    /// rows compared as sorted lists of numeric values or display names.
    fn assert_agrees_with_direct(s: &Store, a: &AnalyticsSession) {
        fn canonical(rows: Vec<Vec<Option<Term>>>) -> Vec<Vec<String>> {
            let mut out: Vec<Vec<String>> = rows
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|cell| match cell.as_ref().map(|t| (Value::from_term(t).as_f64(), t)) {
                            None => "∅".to_owned(),
                            Some((Some(f), _)) => format!("{f:.6}"),
                            Some((None, t)) => t.display_name(),
                        })
                        .collect()
                })
                .collect();
            out.sort();
            out
        }
        let frame = a.run().unwrap();
        let direct = rdfa_hifun::direct::evaluate(s, &a.hifun_query().unwrap()).unwrap();
        assert_eq!(canonical(frame.rows), canonical(direct.into_rows()));
    }

    #[test]
    fn run_agrees_with_direct_evaluation() {
        let s = store();
        let mut a = AnalyticsSession::start(&s);
        a.select_class(id(&s, "Laptop")).unwrap();
        a.add_grouping(GroupSpec::property(id(&s, "manufacturer")));
        a.set_measure(MeasureSpec::property(id(&s, "price")));
        a.set_ops(vec![AggOp::Sum]);
        let frame = a.run().unwrap();
        assert!(row_value(&frame, "DELL", 1).unwrap().value_eq(&Value::Int(1900)));
        assert!(row_value(&frame, "ACER", 1).unwrap().value_eq(&Value::Int(820)));
        assert_agrees_with_direct(&s, &a);
    }

    #[test]
    fn having_restriction_direct_form() {
        let s = store();
        let mut a = AnalyticsSession::start(&s);
        a.select_class(id(&s, "Laptop")).unwrap();
        a.add_grouping(GroupSpec::property(id(&s, "manufacturer")));
        a.set_measure(MeasureSpec::property(id(&s, "price")));
        a.set_ops(vec![AggOp::Avg]);
        a.add_having(0, CondOp::Gt, Term::integer(900)).unwrap();
        let frame = a.run().unwrap();
        assert_eq!(frame.rows.len(), 1);
        assert_eq!(frame.rows[0][0].as_ref().unwrap().display_name(), "DELL");
    }

    #[test]
    fn error_without_ops() {
        let s = store();
        let a = AnalyticsSession::start(&s);
        assert!(a.run().is_err());
    }

    #[test]
    fn generated_sparql_carries_facet_conditions() {
        let s = store();
        let mut a = AnalyticsSession::start(&s);
        a.select_class(id(&s, "Laptop")).unwrap();
        a.select_value(id(&s, "manufacturer"), id(&s, "DELL")).unwrap();
        a.set_measure(MeasureSpec::property(id(&s, "price")));
        a.set_ops(vec![AggOp::Avg]);
        let text = a.sparql().unwrap();
        assert!(text.contains("<http://e/manufacturer> <http://e/DELL>"), "{text}");
        assert!(text.contains("rdf-syntax-ns#type> <http://e/Laptop>"), "{text}");
    }

    #[test]
    fn buttons_do_not_change_extension() {
        // §5.2.2: clicking G/⨊ changes the intention, not the extension
        let s = store();
        let mut a = AnalyticsSession::start(&s);
        a.select_class(id(&s, "Laptop")).unwrap();
        let before = a.facets().extension().clone();
        a.add_grouping(GroupSpec::property(id(&s, "manufacturer")));
        a.set_measure(MeasureSpec::property(id(&s, "price")));
        a.set_ops(vec![AggOp::Sum]);
        assert_eq!(a.facets().extension(), &before);
    }

    #[test]
    fn multi_select_is_a_term_set_in_the_root() {
        let s = store();
        let mut a = AnalyticsSession::start(&s);
        a.select_class(id(&s, "Laptop")).unwrap();
        let both: ExtSet = [id(&s, "DELL"), id(&s, "ACER")].into_iter().collect();
        a.select_values(&[PathStep::fwd(id(&s, "manufacturer"))], &both).unwrap();
        a.add_grouping(GroupSpec::property(id(&s, "manufacturer")));
        a.set_ops(vec![AggOp::Count]);
        let sparql = a.sparql().unwrap();
        assert!(sparql.contains("rdf-syntax-ns#type> <http://e/Laptop>"), "{sparql}");
        assert!(sparql.contains("VALUES ?x2 { "), "{sparql}");
        assert!(!sparql.contains("VALUES ?x1"), "{sparql}");
        let frame = a.run().unwrap();
        assert_eq!(frame.rows.len(), 2);
        assert!(row_value(&frame, "DELL", 1).unwrap().value_eq(&Value::Int(2)));
        assert_agrees_with_direct(&s, &a);
    }

    /// Three laptops: one with two prices and two manufacturers, two whose
    /// USB counts are equal in value but not the same term, and a shop
    /// reaching one of them.
    fn three_laptops() -> Store {
        let mut s = Store::new();
        s.load_turtle(&format!(
            r#"@prefix ex: <{EX}> .
               @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
               ex:l1 a ex:Laptop ; ex:price 100, 1000 ; ex:usb "2"^^xsd:integer ;
                     ex:manufacturer ex:DELL, ex:ACER .
               ex:l2 a ex:Laptop ; ex:price 500 ; ex:usb "2.0"^^xsd:decimal ;
                     ex:manufacturer ex:DELL .
               ex:l3 a ex:Laptop ; ex:price 2000 ; ex:usb 3 ; ex:manufacturer ex:HP .
               ex:shop1 ex:ships ex:l1 . ex:shop2 ex:ships ex:l2, ex:l3 .
            "#
        ))
        .unwrap();
        s
    }

    /// After one click from the laptops, the item COUNT covers exactly the
    /// extension, the root is not pinned, and direct evaluation agrees on it
    /// and on the SUM of the prices.
    fn count_covers_the_extension(click: impl Fn(&Store, &mut AnalyticsSession<'_>)) {
        let s = three_laptops();
        let mut a = AnalyticsSession::start(&s);
        a.select_class(id(&s, "Laptop")).unwrap();
        click(&s, &mut a);
        a.set_ops(vec![AggOp::Count]);
        let sparql = a.sparql().unwrap();
        assert!(!sparql.contains("VALUES ?x1"), "{sparql}");
        let frame = a.run().unwrap();
        let count = Value::from_term(frame.rows[0][0].as_ref().unwrap());
        let n = a.facets().extension().len();
        assert!(count.value_eq(&Value::Int(n as i64)), "{count:?} items, {n} on screen\n{sparql}");
        assert_agrees_with_direct(&s, &a);
        a.set_measure(MeasureSpec::property(id(&s, "price")));
        a.set_ops(vec![AggOp::Sum]);
        assert_agrees_with_direct(&s, &a);
    }

    #[test]
    fn range_click_on_a_multi_valued_price_counts_the_extension() {
        count_covers_the_extension(|s, a| {
            let price = [PathStep::fwd(id(s, "price"))];
            a.select_range(&price, Some(Value::Int(200)), Some(Value::Int(900))).unwrap();
            assert_eq!(a.facets().extension().len(), 1);
        });
    }

    #[test]
    fn literal_value_click_is_term_identity() {
        count_covers_the_extension(|s, a| {
            a.select_value(id(s, "usb"), s.lookup(&Term::integer(2)).unwrap()).unwrap();
            assert_eq!(a.facets().extension().len(), 1);
        });
    }

    #[test]
    fn multi_select_counts_the_extension() {
        count_covers_the_extension(|s, a| {
            let values: ExtSet =
                [Term::integer(2), Term::integer(3)].iter().map(|t| s.lookup(t).unwrap()).collect();
            a.select_values(&[PathStep::fwd(id(s, "usb"))], &values).unwrap();
            assert_eq!(a.facets().extension().len(), 2);
        });
    }

    /// A laptop with both selected manufacturers, and both its prices in
    /// the range, is one item: its prices are summed once.
    #[test]
    fn an_item_reached_by_two_routes_is_aggregated_once() {
        count_covers_the_extension(|s, a| {
            let both: ExtSet = [id(s, "DELL"), id(s, "ACER")].into_iter().collect();
            a.select_values(&[PathStep::fwd(id(s, "manufacturer"))], &both).unwrap();
            let price = [PathStep::fwd(id(s, "price"))];
            a.select_range(&price, Some(Value::Int(50)), Some(Value::Int(5000))).unwrap();
            assert_eq!(a.facets().extension().len(), 2);
            a.set_measure(MeasureSpec::property(id(s, "price")));
            a.set_ops(vec![AggOp::Sum]);
            let sum = Value::from_term(a.run().unwrap().rows[0][0].as_ref().unwrap());
            assert!(sum.value_eq(&Value::Int(1600)), "{sum:?}");
            a.clear_measure();
        });
    }

    #[test]
    fn inverse_path_click_counts_the_extension() {
        count_covers_the_extension(|s, a| {
            a.select_path_value(&[PathStep::inv(id(s, "ships"))], id(s, "shop2")).unwrap();
            assert_eq!(a.facets().extension().len(), 2);
            let intent = a.facets().intent_sparql();
            assert!(intent.contains("<http://e/shop2> <http://e/ships> ?x1 ."), "{intent}");
        });
    }

    #[test]
    fn named_individuals_stay_in_the_root() {
        let mut s = Store::new();
        s.load_turtle(&format!(
            r#"@prefix ex: <{EX}> .
               @prefix owl: <http://www.w3.org/2002/07/owl#> .
               ex:l1 a owl:NamedIndividual, ex:Laptop ; ex:price 10 .
               ex:l2 a ex:Laptop ; ex:price 20 .
            "#
        ))
        .unwrap();
        let mut a = AnalyticsSession::start(&s);
        a.select_class(id(&s, "Laptop")).unwrap();
        a.set_ops(vec![AggOp::Count]);
        assert_eq!(a.facets().extension().len(), 1);
        let count = Value::from_term(a.run().unwrap().rows[0][0].as_ref().unwrap());
        assert!(count.value_eq(&Value::Int(1)), "{count:?}");
        // the initial root is no click: the script starts at the Laptop
        // click, and its replay pushes as many states as the session did
        let script = a.script().to_string();
        assert!(script.starts_with("class <http://e/Laptop>\n"), "{script}");
        assert!(!script.contains("NamedIndividual"), "{script}");
        let mut replay = AnalyticsSession::start(&s);
        a.script().apply(&mut replay).unwrap();
        assert_eq!(replay.sparql(), a.sparql());
        assert_eq!(replay.facets().extension(), a.facets().extension());
        assert_eq!(replay.facets().depth(), a.facets().depth());
    }

    #[test]
    fn seeded_session_restricts_analytics() {
        // regression: a session started from an explicit result set must
        // carry that seed into the analytic root (via VALUES), not fall back
        // to the whole KG
        let s = store();
        let seed: ExtSet = [id(&s, "l1"), id(&s, "l3")].into_iter().collect();
        let mut a = AnalyticsSession::start_from(&s, seed);
        a.add_grouping(GroupSpec::property(id(&s, "manufacturer")));
        a.set_ops(vec![AggOp::Count]);
        let frame = a.run().unwrap();
        assert_eq!(frame.rows.len(), 2);
        assert!(row_value(&frame, "DELL", 1).unwrap().value_eq(&Value::Int(1)));
        assert!(row_value(&frame, "ACER", 1).unwrap().value_eq(&Value::Int(1)));
        // the generated SPARQL pins the seed
        assert!(a.sparql().unwrap().contains("VALUES ?x1"));
        // and the answer agrees with direct evaluation
        assert_agrees_with_direct(&s, &a);
    }

    #[test]
    fn resource_limit_is_an_error() {
        let s = store();
        // a 1-row budget the translated SPARQL query cannot fit into
        let mut a = AnalyticsSession::start(&s).with_limits(EvalLimits::default().with_max_rows(1));
        a.select_class(id(&s, "Laptop")).unwrap();
        a.add_grouping(GroupSpec::property(id(&s, "manufacturer")));
        a.set_measure(MeasureSpec::property(id(&s, "price")));
        a.set_ops(vec![AggOp::Sum]);
        let err = a.run().expect_err("a tripped limit must not produce an answer");
        assert!(err.message.contains("resource limit exceeded"), "{err}");
        assert!(err.message.contains("limit 1"), "{err}");

        // generous limits: the translated query completes
        let mut b = AnalyticsSession::start(&s).with_limits(EvalLimits::interactive());
        b.select_class(id(&s, "Laptop")).unwrap();
        b.add_grouping(GroupSpec::property(id(&s, "manufacturer")));
        b.set_measure(MeasureSpec::property(id(&s, "price")));
        b.set_ops(vec![AggOp::Sum]);
        let frame = b.run().unwrap();
        assert!(frame.sparql.contains("GROUP BY"), "{}", frame.sparql);
    }

    #[test]
    fn grouping_dedup_and_removal() {
        let s = store();
        let mut a = AnalyticsSession::start(&s);
        let g = GroupSpec::property(id(&s, "manufacturer"));
        a.add_grouping(g.clone());
        a.add_grouping(g.clone());
        assert_eq!(a.groupings().len(), 1);
        a.remove_grouping(0);
        assert!(a.groupings().is_empty());
        // replacing one grouping by another already present merges them,
        // so the state a script prints is the state it rebuilds
        a.add_grouping(g.clone());
        a.add_grouping(GroupSpec::property(id(&s, "usb")));
        a.replace_grouping(1, g.clone());
        assert_eq!(a.groupings(), &[g][..]);
    }

    #[test]
    fn superclass_click_keeps_the_narrower_class() {
        let mut s = Store::new();
        s.load_graph(&rdfa_datagen::products_fixture());
        let ex = |l: &str| s.lookup_iri(&format!("{}{l}", rdfa_datagen::EX)).unwrap();
        let mut a = AnalyticsSession::start(&s);
        a.select_class(ex("Laptop")).unwrap();
        a.select_class(ex("Product")).unwrap();
        assert_eq!(a.facets().extension().len(), 3);
        let engine = rdfa_sparql::Engine::builder(&s).build();
        let intent = engine.run(&a.facets().intent_sparql()).unwrap();
        assert_eq!(intent.solutions().unwrap().len(), 3);
        assert_eq!(a.facets().intent().to_string(), "Laptop ∧ Product");
        // the analytic root denotes the extension, not all six products
        a.set_ops(vec![AggOp::Count]);
        let frame = a.run().unwrap();
        assert!(Value::from_term(frame.rows[0][0].as_ref().unwrap()).value_eq(&Value::Int(3)));
    }

    #[test]
    fn having_beyond_the_selected_ops_is_an_error() {
        let s = store();
        let mut a = AnalyticsSession::start(&s);
        a.select_class(id(&s, "Laptop")).unwrap();
        a.set_measure(MeasureSpec::property(id(&s, "price")));
        a.set_ops(vec![AggOp::Avg]);
        let err = a.add_having(3, CondOp::Ge, Term::integer(1)).expect_err("aggregate 3 of 1");
        assert!(err.message.contains("aggregate 3"), "{err}");
        // the refused click left no restriction behind
        assert!(a.run().is_ok());
        // a later set_ops can still drop a restricted aggregate
        a.set_ops(vec![AggOp::Avg, AggOp::Max]);
        a.add_having(1, CondOp::Ge, Term::integer(1)).unwrap();
        a.set_ops(vec![AggOp::Avg]);
        let err = a.run().expect_err("HAVING on aggregate 1 of 1");
        assert!(err.message.contains("aggregate 1"), "{err}");
        assert!(a.sparql().is_err());
    }
}
