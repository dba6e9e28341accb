//! The public query interface: build an [`Engine`], [`Engine::prepare`] a
//! query once, execute it many times.
//!
//! A [`PreparedQuery`] carries its parsed form and a compiled physical plan
//! over the store's interned ID space ([`crate::plan`]) — every form the
//! parser accepts gets one. Repeated [`PreparedQuery::execute`] calls reuse
//! the plan; [`PreparedQuery::explain`] renders it, and
//! [`PreparedQuery::last_stats`] reports per-operator cardinalities of the
//! most recent execution.
//!
//! Deadlines, row, memory and path budgets, and cancellation are configured
//! by one [`EvalLimits`] ([`EngineBuilder::limits`]), enforced by one
//! [`rdfa_exec::LimitGuard`] per execution. Execution is sequential, on the
//! caller's thread.

use crate::ast::{PathOrVar, PropertyPath, Query, QueryForm, TermPattern, TriplePattern};
use crate::expr::bound_term;
use crate::EvalLimits;
use crate::parser::parse_query;
use crate::plan::rows::{Frame, Row};
use crate::plan::{compile, describe_plan, execute_plan, ExecStats, Output, PhysicalPlan};
use crate::results::QueryResults;
use crate::views::{match_aggregate_shape, ShapeMatch, ViewCatalog};
use crate::SparqlError;
use rdfa_model::{Graph, Term};
use rdfa_store::Store;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

/// Evaluation options: join reordering and resource budgets.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Reorder BGP patterns by estimated selectivity (default true).
    pub reorder_bgp: bool,
    /// Cooperative resource limits (default: unlimited).
    pub limits: EvalLimits,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions { reorder_bgp: true, limits: EvalLimits::unlimited() }
    }
}

/// A query engine bound to a store.
pub struct Engine<'s> {
    store: &'s Store,
    options: EvalOptions,
    views: Option<Arc<dyn ViewCatalog>>,
}

/// Configures an [`Engine`] (see [`Engine::builder`]).
pub struct EngineBuilder<'s> {
    store: &'s Store,
    options: EvalOptions,
    views: Option<Arc<dyn ViewCatalog>>,
}

impl<'s> EngineBuilder<'s> {
    /// Replace the whole option set at once.
    pub fn options(mut self, options: EvalOptions) -> Self {
        self.options = options;
        self
    }

    /// Set the resource budget (the limit clock starts per execution).
    pub fn limits(mut self, limits: EvalLimits) -> Self {
        self.options.limits = limits;
        self
    }

    /// Enable or disable selectivity-based BGP reordering (default: on).
    pub fn reorder_bgp(mut self, on: bool) -> Self {
        self.options.reorder_bgp = on;
        self
    }

    /// Accepted and ignored: execution is sequential. Kept so older
    /// callers still build.
    #[doc(hidden)]
    pub fn threads(self, _n: usize) -> Self {
        self
    }

    /// Attach a materialized-view catalog. Every `SELECT` the engine
    /// prepares is canonicalized against the viewable fragment
    /// ([`crate::views::match_aggregate_shape`]); executions are answered
    /// from a fresh view when the catalog has one, and observed (workload
    /// recording, possibly triggering materialization) when they run
    /// directly.
    pub fn views(mut self, catalog: Arc<dyn ViewCatalog>) -> Self {
        self.views = Some(catalog);
        self
    }

    /// Finish configuration.
    pub fn build(self) -> Engine<'s> {
        Engine { store: self.store, options: self.options, views: self.views }
    }
}

impl<'s> Engine<'s> {
    /// Start configuring an engine over `store`.
    pub fn builder(store: &'s Store) -> EngineBuilder<'s> {
        EngineBuilder { store, options: EvalOptions::default(), views: None }
    }

    /// The options this engine executes with.
    pub fn options(&self) -> &EvalOptions {
        &self.options
    }

    /// Parse a query and compile it, whatever its form, to a physical plan
    /// over the interned ID space.
    pub fn prepare(&self, text: &str) -> Result<PreparedQuery<'s>, SparqlError> {
        let query = parse_query(text)?;
        let plan = compile(&query.form, self.store, &self.options);
        // canonicalize against the viewable fragment only when a catalog is
        // attached: without one the shape would never be consulted
        let shape = match (&self.views, &query.form) {
            (Some(_), QueryForm::Select(q)) => match_aggregate_shape(q),
            _ => None,
        };
        Ok(PreparedQuery {
            store: self.store,
            options: self.options.clone(),
            text: text.to_owned(),
            query,
            plan,
            stats: RefCell::new(None),
            views: self.views.clone(),
            shape,
            view_hit: RefCell::new(None),
        })
    }

    /// One-shot convenience: [`Engine::prepare`] + [`PreparedQuery::execute`].
    pub fn run(&self, text: &str) -> Result<QueryResults, SparqlError> {
        self.prepare(text)?.execute()
    }
}

/// A parsed and compiled query bound to a store, executable any number of
/// times.
pub struct PreparedQuery<'s> {
    store: &'s Store,
    options: EvalOptions,
    text: String,
    query: Query,
    plan: PhysicalPlan,
    stats: RefCell<Option<ExecStats>>,
    views: Option<Arc<dyn ViewCatalog>>,
    /// The query's canonical aggregate shape, when a catalog is attached
    /// and the query is in the viewable fragment.
    shape: Option<ShapeMatch>,
    /// Shape key of the view that answered the most recent execution
    /// (`None` when it ran directly).
    view_hit: RefCell<Option<String>>,
}

impl<'s> PreparedQuery<'s> {
    /// The parsed query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The original query text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// True when this query runs on the compiled ID-space plan — always,
    /// since every query form compiles to one. Kept so callers that count
    /// fallbacks keep compiling (and keep counting zero).
    pub fn uses_id_space(&self) -> bool {
        true
    }

    /// Execute the query. The resource-limit clock starts now.
    pub fn execute(&self) -> Result<QueryResults, SparqlError> {
        let started = match &self.query.form {
            QueryForm::Select(q) => {
                // a fresh materialized view answers before any evaluation
                if let (Some(catalog), Some(shape)) = (&self.views, &self.shape) {
                    if let Some(solutions) = catalog.serve(shape, q, self.store) {
                        *self.view_hit.borrow_mut() = Some(shape.shape.key());
                        *self.stats.borrow_mut() = None;
                        return Ok(QueryResults::Solutions(solutions));
                    }
                }
                *self.view_hit.borrow_mut() = None;
                self.views.as_ref().map(|_| std::time::Instant::now())
            }
            QueryForm::Describe(resources) => {
                return Ok(QueryResults::Graph(describe(self.store, resources)));
            }
            _ => None,
        };
        let (output, stats) = execute_plan(&self.plan, self.store, &self.options)?;
        *self.stats.borrow_mut() = Some(stats);
        if let (Some(catalog), Some(t0)) = (&self.views, started) {
            catalog.observe(self.shape.as_ref(), self.store, t0.elapsed());
        }
        Ok(match (output, &self.query.form) {
            (Output::Solutions(solutions), _) => QueryResults::Solutions(solutions),
            (Output::Rows(rows), QueryForm::Construct { template, .. }) => {
                QueryResults::Graph(construct(template, self.plan.frame(), &rows, self.store))
            }
            (Output::Rows(rows), _) => QueryResults::Boolean(!rows.is_empty()),
        })
    }

    /// Statistics of the most recent [`PreparedQuery::execute`] (operator
    /// cardinalities, rows out, arena size). `None` before the first
    /// execution, after one a materialized view answered, and for
    /// `DESCRIBE`.
    pub fn last_stats(&self) -> Option<ExecStats> {
        self.stats.borrow().clone()
    }

    /// Render the physical plan as text: the operator tree with estimates
    /// and — after an execution — observed per-operator cardinalities.
    pub fn explain(&self) -> String {
        let stats = self.stats.borrow();
        let mut out = String::from("physical plan:\n");
        for line in describe_plan(&self.plan, stats.as_ref()) {
            out.push_str("  ");
            out.push_str(&line);
            out.push('\n');
        }
        // the most recent execution was answered from a materialized view:
        // the plan below was bypassed entirely
        match &*self.view_hit.borrow() {
            Some(key) => format!("view-hit: {key}\n{out}"),
            None => out,
        }
    }
}

/// Instantiate a CONSTRUCT template once per solution row; a template blank
/// node is fresh per row (`c1`, `c2`, …) but shared within it.
fn construct(template: &[TriplePattern], frame: &Frame, rows: &[Row], store: &Store) -> Graph {
    let var = |row: &Row, v: &str| {
        frame.index(v).and_then(|i| row[i].as_ref()).map(|b| bound_term(b, store).clone())
    };
    let mut graph = Graph::new();
    let mut counter = 0usize;
    for row in rows {
        let mut blank_map: HashMap<String, String> = HashMap::new();
        let mut instantiate = |tp: &TermPattern| match tp {
            TermPattern::Var(v) => var(row, v),
            TermPattern::Term(Term::Blank(label)) => {
                let name = blank_map.entry(label.clone()).or_insert_with(|| {
                    counter += 1;
                    format!("c{counter}")
                });
                Some(Term::blank(name.clone()))
            }
            TermPattern::Term(t) => Some(t.clone()),
        };
        for tp in template {
            let s = instantiate(&tp.subject);
            let p = match &tp.predicate {
                PathOrVar::Var(v) => var(row, v),
                PathOrVar::Path(PropertyPath::Iri(iri)) => Some(Term::iri(iri.clone())),
                PathOrVar::Path(_) => None,
            };
            let o = instantiate(&tp.object);
            if let (Some(s), Some(p), Some(o)) = (s, p, o) {
                graph.add(s, p, o);
            }
        }
    }
    graph
}

/// Concise bounded description: outgoing triples of each resource,
/// expanded recursively through blank-node objects.
fn describe(store: &Store, resources: &[rdfa_model::Term]) -> rdfa_model::Graph {
    use rdfa_model::{Graph, Term, Triple};
    let mut graph = Graph::new();
    let mut queue: Vec<rdfa_store::TermId> =
        resources.iter().filter_map(|t| store.lookup(t)).collect();
    let mut seen: std::collections::HashSet<rdfa_store::TermId> = queue.iter().copied().collect();
    while let Some(s) = queue.pop() {
        for [s2, p, o] in store.matching_explicit(Some(s), None, None) {
            graph.push(Triple::new(
                store.term(s2).clone(),
                store.term(p).clone(),
                store.term(o).clone(),
            ));
            if matches!(store.term(o), Term::Blank(_)) && seen.insert(o) {
                queue.push(o);
            }
        }
    }
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfa_model::{Term, Value};

    const DATA: &str = r#"
        @prefix ex: <http://example.org/> .
        @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
        @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
        ex:Laptop rdfs:subClassOf ex:Product .
        ex:l1 a ex:Laptop ; ex:price 900 ; ex:manufacturer ex:DELL ;
              ex:releaseDate "2021-06-10"^^xsd:date ; ex:usb 2 .
        ex:l2 a ex:Laptop ; ex:price 1000 ; ex:manufacturer ex:DELL ;
              ex:releaseDate "2020-03-01"^^xsd:date ; ex:usb 4 .
        ex:l3 a ex:Laptop ; ex:price 820 ; ex:manufacturer ex:ACER ;
              ex:releaseDate "2021-09-03"^^xsd:date ; ex:usb 2 .
        ex:DELL ex:origin ex:USA .
        ex:ACER ex:origin ex:Taiwan .
        ex:inv1 ex:takesPlaceAt ex:branch1 ; ex:inQuantity 200 ; ex:delivers ex:p1 .
        ex:inv2 ex:takesPlaceAt ex:branch1 ; ex:inQuantity 100 ; ex:delivers ex:p2 .
        ex:inv3 ex:takesPlaceAt ex:branch2 ; ex:inQuantity 400 ; ex:delivers ex:p1 .
    "#;

    fn store() -> Store {
        let mut s = Store::new();
        s.load_turtle(DATA).unwrap();
        s
    }

    fn rows(store: &Store, q: &str) -> crate::results::Solutions {
        Engine::builder(store)
            .build()
            .run(q)
            .unwrap_or_else(|e| panic!("{e}: {q}"))
            .into_solutions()
            .unwrap()
    }

    #[test]
    fn basic_select() {
        let s = store();
        let r = rows(&s, "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:Laptop . }");
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn inference_visible_to_queries() {
        let s = store();
        let r = rows(&s, "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:Product . }");
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn join_and_filter() {
        let s = store();
        let r = rows(
            &s,
            r#"PREFIX ex: <http://example.org/>
               SELECT ?x WHERE { ?x a ex:Laptop ; ex:price ?p . FILTER(?p < 950) }"#,
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn group_by_with_avg() {
        let s = store();
        let r = rows(
            &s,
            r#"PREFIX ex: <http://example.org/>
               SELECT ?m (AVG(?p) AS ?avg)
               WHERE { ?x ex:manufacturer ?m ; ex:price ?p . }
               GROUP BY ?m ORDER BY ?m"#,
        );
        assert_eq!(r.len(), 2);
        // ACER first alphabetically
        assert_eq!(r.rows()[0][0], Some(Term::iri("http://example.org/ACER")));
        let avg = Value::from_term(r.rows()[0][1].as_ref().unwrap());
        assert!(avg.value_eq(&Value::Float(820.0)));
        let avg_dell = Value::from_term(r.rows()[1][1].as_ref().unwrap());
        assert!(avg_dell.value_eq(&Value::Float(950.0)));
    }

    #[test]
    fn sum_count_min_max() {
        let s = store();
        let r = rows(
            &s,
            r#"PREFIX ex: <http://example.org/>
               SELECT (SUM(?q) AS ?s) (COUNT(?q) AS ?c) (MIN(?q) AS ?lo) (MAX(?q) AS ?hi)
               WHERE { ?i ex:inQuantity ?q . }"#,
        );
        assert_eq!(r.len(), 1);
        let get = |i: usize| Value::from_term(r.rows()[0][i].as_ref().unwrap());
        assert!(get(0).value_eq(&Value::Int(700)));
        assert!(get(1).value_eq(&Value::Int(3)));
        assert!(get(2).value_eq(&Value::Int(100)));
        assert!(get(3).value_eq(&Value::Int(400)));
    }

    #[test]
    fn having_clause() {
        let s = store();
        let r = rows(
            &s,
            r#"PREFIX ex: <http://example.org/>
               SELECT ?b (SUM(?q) AS ?t)
               WHERE { ?i ex:takesPlaceAt ?b ; ex:inQuantity ?q . }
               GROUP BY ?b
               HAVING (SUM(?q) > 300)"#,
        );
        // branch1 totals 300 (excluded by > 300); branch2 totals 400 (kept)
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows()[0][0], Some(Term::iri("http://example.org/branch2")));
    }

    #[test]
    fn having_excludes_at_threshold() {
        let s = store();
        let r = rows(
            &s,
            r#"PREFIX ex: <http://example.org/>
               SELECT ?b (SUM(?q) AS ?t)
               WHERE { ?i ex:takesPlaceAt ?b ; ex:inQuantity ?q . }
               GROUP BY ?b HAVING (SUM(?q) >= 400)"#,
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows()[0][0], Some(Term::iri("http://example.org/branch2")));
    }

    #[test]
    fn property_path_in_query() {
        let s = store();
        let r = rows(
            &s,
            r#"PREFIX ex: <http://example.org/>
               SELECT ?x WHERE { ?x ex:manufacturer/ex:origin ex:USA . }"#,
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn optional_keeps_unmatched() {
        let s = store();
        let r = rows(
            &s,
            r#"PREFIX ex: <http://example.org/>
               SELECT ?x ?o WHERE {
                 ?x a ex:Laptop .
                 OPTIONAL { ?x ex:nonexistent ?o . }
               }"#,
        );
        assert_eq!(r.len(), 3);
        assert!(r.rows().iter().all(|row| row[1].is_none()));
    }

    #[test]
    fn union_merges() {
        let s = store();
        let r = rows(
            &s,
            r#"PREFIX ex: <http://example.org/>
               SELECT ?x WHERE {
                 { ?x ex:manufacturer ex:DELL . } UNION { ?x ex:manufacturer ex:ACER . }
               }"#,
        );
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn date_filter_matches_paper_fig_1_3_style() {
        let s = store();
        let r = rows(
            &s,
            r#"PREFIX ex: <http://example.org/>
               PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
               SELECT ?x WHERE {
                 ?x ex:releaseDate ?rd .
                 FILTER(?rd >= "2021-01-01"^^xsd:date && ?rd <= "2021-12-31"^^xsd:date)
               }"#,
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn year_derived_attribute_group() {
        let s = store();
        let r = rows(
            &s,
            r#"PREFIX ex: <http://example.org/>
               SELECT (YEAR(?rd) AS ?y) (COUNT(*) AS ?n)
               WHERE { ?x ex:releaseDate ?rd . }
               GROUP BY YEAR(?rd) ORDER BY ?y"#,
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows()[0][0], Some(Term::integer(2020)));
        assert_eq!(r.rows()[1][1], Some(Term::integer(2)));
    }

    #[test]
    fn distinct_dedups() {
        let s = store();
        let r = rows(
            &s,
            "PREFIX ex: <http://example.org/> SELECT DISTINCT ?m WHERE { ?x ex:manufacturer ?m . }",
        );
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn order_limit_offset() {
        let s = store();
        let r = rows(
            &s,
            r#"PREFIX ex: <http://example.org/>
               SELECT ?x ?p WHERE { ?x ex:price ?p . } ORDER BY DESC(?p) LIMIT 2"#,
        );
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows()[0][1], Some(Term::integer(1000)));
        let r2 = rows(
            &s,
            r#"PREFIX ex: <http://example.org/>
               SELECT ?x ?p WHERE { ?x ex:price ?p . } ORDER BY ?p OFFSET 1 LIMIT 1"#,
        );
        assert_eq!(r2.rows()[0][1], Some(Term::integer(900)));
    }

    #[test]
    fn subselect_join() {
        let s = store();
        // total per branch via subselect, then restrict to branches over 300
        let r = rows(
            &s,
            r#"PREFIX ex: <http://example.org/>
               SELECT ?b ?t WHERE {
                 { SELECT ?b (SUM(?q) AS ?t)
                   WHERE { ?i ex:takesPlaceAt ?b ; ex:inQuantity ?q . } GROUP BY ?b }
                 FILTER(?t >= 400)
               }"#,
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows()[0][0], Some(Term::iri("http://example.org/branch2")));
    }

    #[test]
    fn bind_extends_rows() {
        let s = store();
        let r = rows(
            &s,
            r#"PREFIX ex: <http://example.org/>
               SELECT ?x ?p2 WHERE { ?x ex:price ?p . BIND(?p * 2 AS ?p2) } ORDER BY ?p2"#,
        );
        assert_eq!(r.rows()[0][1], Some(Term::integer(1640)));
    }

    #[test]
    fn values_restricts() {
        let s = store();
        let r = rows(
            &s,
            r#"PREFIX ex: <http://example.org/>
               SELECT ?x WHERE { ?x ex:manufacturer ?m . VALUES ?m { ex:ACER } }"#,
        );
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn construct_derives_graph() {
        let s = store();
        let g = Engine::builder(&s)
            .build()
            .run(
                r#"PREFIX ex: <http://example.org/>
                   CONSTRUCT { ?x ex:cheap true }
                   WHERE { ?x ex:price ?p . FILTER(?p < 900) }"#,
            )
            .unwrap();
        let graph = g.graph().unwrap();
        assert_eq!(graph.len(), 1);
    }

    #[test]
    fn ask_query() {
        let s = store();
        let engine = Engine::builder(&s).build();
        let yes = engine
            .run("PREFIX ex: <http://example.org/> ASK WHERE { ?x ex:price 900 . }")
            .unwrap();
        assert_eq!(yes.boolean(), Some(true));
        let no = engine
            .run("PREFIX ex: <http://example.org/> ASK WHERE { ?x ex:price 1 . }")
            .unwrap();
        assert_eq!(no.boolean(), Some(false));
    }

    #[test]
    fn count_star_on_empty_is_zero() {
        let s = store();
        let r = rows(
            &s,
            "PREFIX ex: <http://example.org/> SELECT (COUNT(*) AS ?n) WHERE { ?x ex:missing ?y . }",
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows()[0][0], Some(Term::integer(0)));
    }

    #[test]
    fn variable_predicate() {
        let s = store();
        let r = rows(
            &s,
            "PREFIX ex: <http://example.org/> SELECT DISTINCT ?p WHERE { ex:l1 ?p ?o . }",
        );
        assert!(r.len() >= 5);
    }

    #[test]
    fn reorder_matches_naive_results() {
        let s = store();
        let q = r#"PREFIX ex: <http://example.org/>
            SELECT ?x ?m WHERE {
              ?x a ex:Laptop . ?x ex:manufacturer ?m . ?m ex:origin ex:USA .
            } ORDER BY ?x"#;
        let fast = rows(&s, q);
        let naive = Engine::builder(&s)
            .reorder_bgp(false)
            .build()
            .run(q)
            .unwrap()
            .into_solutions()
            .unwrap();
        assert_eq!(fast, naive);
    }

    #[test]
    fn group_concat_and_sample() {
        let s = store();
        let r = rows(
            &s,
            r#"PREFIX ex: <http://example.org/>
               SELECT (GROUP_CONCAT(?m) AS ?ms) (SAMPLE(?m) AS ?one)
               WHERE { ?x ex:manufacturer ?m . }"#,
        );
        let joined = r.rows()[0][0].as_ref().unwrap().display_name();
        assert!(joined.contains("DELL"));
        assert!(r.rows()[0][1].is_some());
    }

    #[test]
    fn filter_scoped_to_whole_group_regardless_of_position() {
        // the FILTER references ?p although it appears before the pattern
        // binding ?p — SPARQL scopes filters to the group, not the prefix
        let s = store();
        let r = rows(
            &s,
            r#"PREFIX ex: <http://example.org/>
               SELECT ?x WHERE {
                 FILTER(?p > 900)
                 ?x ex:price ?p .
               }"#,
        );
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn nested_optional() {
        let s = store();
        let r = rows(
            &s,
            r#"PREFIX ex: <http://example.org/>
               SELECT ?x ?c ?o WHERE {
                 ?x a ex:Laptop .
                 OPTIONAL {
                   ?x ex:manufacturer ?c .
                   OPTIONAL { ?c ex:origin ?o . }
                 }
               }"#,
        );
        assert_eq!(r.len(), 3);
        // every laptop has a manufacturer with an origin in this fixture
        assert!(r.rows().iter().all(|row| row[1].is_some() && row[2].is_some()));
    }

    #[test]
    fn optional_with_inner_filter() {
        let s = store();
        let r = rows(
            &s,
            r#"PREFIX ex: <http://example.org/>
               SELECT ?x ?p WHERE {
                 ?x a ex:Laptop .
                 OPTIONAL { ?x ex:price ?p . FILTER(?p > 900) }
               } ORDER BY ?x"#,
        );
        assert_eq!(r.len(), 3);
        // only l2 (price 1000) keeps a binding
        let bound: Vec<bool> = r.rows().iter().map(|row| row[1].is_some()).collect();
        assert_eq!(bound, vec![false, true, false]);
    }

    #[test]
    fn union_inside_optional() {
        let s = store();
        let r = rows(
            &s,
            r#"PREFIX ex: <http://example.org/>
               SELECT ?x ?v WHERE {
                 ?x a ex:Laptop .
                 OPTIONAL {
                   { ?x ex:usb ?v . } UNION { ?x ex:price ?v . }
                 }
               }"#,
        );
        // each laptop contributes 2 rows (usb + price)
        assert_eq!(r.len(), 6);
    }

    #[test]
    fn describe_returns_outgoing_triples() {
        let s = store();
        let g = Engine::builder(&s)
            .build()
            .run("PREFIX ex: <http://example.org/> DESCRIBE ex:l1")
            .unwrap();
        let graph = g.graph().unwrap();
        assert_eq!(graph.len(), 5); // type, price, manufacturer, releaseDate, usb
        assert!(graph
            .iter()
            .all(|t| t.subject == Term::iri("http://example.org/l1")));
    }

    #[test]
    fn describe_expands_blank_nodes() {
        let mut s = Store::new();
        s.load_turtle(
            "@prefix ex: <http://example.org/> . ex:a ex:p _:b1 . _:b1 ex:q 5 .",
        )
        .unwrap();
        let g = Engine::builder(&s)
            .build()
            .run("PREFIX ex: <http://example.org/> DESCRIBE ex:a")
            .unwrap();
        assert_eq!(g.graph().unwrap().len(), 2);
    }

    #[test]
    fn minus_removes_compatible_rows() {
        let s = store();
        let r = rows(
            &s,
            r#"PREFIX ex: <http://example.org/>
               SELECT ?x WHERE {
                 ?x a ex:Laptop .
                 MINUS { ?x ex:manufacturer ex:DELL . }
               }"#,
        );
        assert_eq!(r.len(), 1); // only the ACER laptop survives
        assert_eq!(r.rows()[0][0], Some(Term::iri("http://example.org/l3")));
    }

    #[test]
    fn minus_without_shared_vars_removes_nothing() {
        let s = store();
        let r = rows(
            &s,
            r#"PREFIX ex: <http://example.org/>
               SELECT ?x WHERE {
                 ?x a ex:Laptop .
                 MINUS { ?y ex:manufacturer ex:DELL . }
               }"#,
        );
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn filter_exists_and_not_exists() {
        let s = store();
        let with = rows(
            &s,
            r#"PREFIX ex: <http://example.org/>
               SELECT ?x WHERE {
                 ?x a ex:Laptop .
                 FILTER EXISTS { ?x ex:manufacturer ?m . ?m ex:origin ex:USA . }
               }"#,
        );
        assert_eq!(with.len(), 2);
        let without = rows(
            &s,
            r#"PREFIX ex: <http://example.org/>
               SELECT ?x WHERE {
                 ?x a ex:Laptop .
                 FILTER NOT EXISTS { ?x ex:manufacturer ?m . ?m ex:origin ex:USA . }
               }"#,
        );
        assert_eq!(without.len(), 1);
    }

    #[test]
    fn string_builtins_strbefore_after_replace() {
        let s = store();
        let r = rows(
            &s,
            r#"SELECT ?a ?b ?c ?d WHERE {
                 BIND(STRBEFORE("laptop-15", "-") AS ?a)
                 BIND(STRAFTER("laptop-15", "-") AS ?b)
                 BIND(REPLACE("a.b.c", ".", "/") AS ?c)
                 BIND(ENCODE_FOR_URI("a b/c") AS ?d)
               }"#,
        );
        assert_eq!(r.rows()[0][0].as_ref().unwrap().display_name(), "laptop");
        assert_eq!(r.rows()[0][1].as_ref().unwrap().display_name(), "15");
        assert_eq!(r.rows()[0][2].as_ref().unwrap().display_name(), "a/b/c");
        assert_eq!(r.rows()[0][3].as_ref().unwrap().display_name(), "a%20b%2Fc");
    }

    #[test]
    fn count_distinct() {
        let s = store();
        let r = rows(
            &s,
            r#"PREFIX ex: <http://example.org/>
               SELECT (COUNT(DISTINCT ?m) AS ?n) WHERE { ?x ex:manufacturer ?m . }"#,
        );
        assert_eq!(r.rows()[0][0], Some(Term::integer(2)));
    }

    // ---- the prepare/execute API -------------------------------------------

    #[test]
    fn prepared_query_executes_repeatedly() {
        let s = store();
        let engine = Engine::builder(&s).build();
        let prepared = engine
            .prepare(
                r#"PREFIX ex: <http://example.org/>
                   SELECT ?m (COUNT(*) AS ?n)
                   WHERE { ?x ex:manufacturer ?m . } GROUP BY ?m ORDER BY ?m"#,
            )
            .unwrap();
        assert!(prepared.uses_id_space());
        let first = prepared.execute().unwrap().into_solutions().unwrap();
        let second = prepared.execute().unwrap().into_solutions().unwrap();
        assert_eq!(first, second);
        assert_eq!(first.len(), 2);
    }

    #[test]
    fn prepared_query_reports_stats_and_explain() {
        let s = store();
        let engine = Engine::builder(&s).build();
        let prepared = engine
            .prepare(
                r#"PREFIX ex: <http://example.org/>
                   SELECT ?m (AVG(?p) AS ?avg)
                   WHERE { ?x ex:manufacturer ?m ; ex:price ?p . } GROUP BY ?m"#,
            )
            .unwrap();
        assert!(prepared.last_stats().is_none(), "no stats before execution");
        // the pre-execution explain shows the operator tree with estimates
        let pre = prepared.explain();
        assert!(pre.contains("physical plan:"), "{pre}");
        assert!(pre.contains("IndexJoin"), "{pre}");
        prepared.execute().unwrap();
        let stats = prepared.last_stats().expect("stats after execution");
        assert_eq!(stats.rows_out, 2);
        assert!(stats.operators.iter().any(|o| o.kind == "join" && o.rows_out > 0));
        // post-execution explain reports observed cardinalities
        let post = prepared.explain();
        assert!(post.contains("rows="), "{post}");
    }

    /// A morsel that leaves a join chain for its sink is counted: a
    /// grouped chain over 2,500 rows folds at least three morsels of at
    /// most 1,024 rows.
    #[test]
    fn a_grouped_chain_counts_its_morsels() {
        let mut ttl = String::from("@prefix ex: <http://example.org/> .\n");
        for i in 0..2500 {
            ttl.push_str(&format!("ex:l{i} a ex:Laptop ; ex:price {} .\n", i % 7));
        }
        let mut s = Store::new();
        s.load_turtle(&ttl).unwrap();
        let prepared = Engine::builder(&s)
            .build()
            .prepare(
                r#"PREFIX ex: <http://example.org/>
                   SELECT ?p (COUNT(*) AS ?n)
                   WHERE { ?x a ex:Laptop ; ex:price ?p . } GROUP BY ?p"#,
            )
            .unwrap();
        prepared.execute().unwrap();
        let stats = prepared.last_stats().unwrap();
        assert_eq!(stats.rows_out, 7);
        assert!(stats.morsels >= 3, "{} morsels", stats.morsels);
    }

    #[test]
    fn path_query_runs_on_the_plan_and_explains_the_path_step() {
        let s = store();
        let prepared = Engine::builder(&s)
            .build()
            .prepare(
                r#"PREFIX ex: <http://example.org/>
                   SELECT ?x WHERE { ?x ex:manufacturer/ex:origin ex:USA . }"#,
            )
            .unwrap();
        assert!(prepared.uses_id_space());
        assert_eq!(prepared.execute().unwrap().solutions().unwrap().len(), 2);
        let text = prepared.explain();
        assert!(text.contains("physical plan:"), "{text}");
        assert!(text.contains("PathJoin ?x (manufacturer/origin) USA"), "{text}");
    }

    /// The `IndexJoin` steps of a query's explained plan, in execution order.
    fn join_order(s: &Store, reorder: bool, q: &str) -> Vec<String> {
        let prepared = Engine::builder(s).reorder_bgp(reorder).build().prepare(q).unwrap();
        prepared.explain().lines().filter(|l| l.contains("IndexJoin")).map(str::to_owned).collect()
    }

    const ORDER_Q: &str = r#"PREFIX ex: <http://example.org/>
        SELECT ?x WHERE {
          ?x a ex:Laptop .
          ?x ex:manufacturer ?m .
          ?m ex:origin ex:USA .
          FILTER(?x != ex:l9)
        }"#;

    #[test]
    fn selective_pattern_first() {
        let s = store();
        let steps = join_order(&s, true, ORDER_Q);
        assert_eq!(steps.len(), 3);
        // the origin=USA pattern (1 match) runs first
        assert!(steps[0].contains("origin USA est=1"), "{steps:?}");
    }

    #[test]
    fn naive_order_preserves_source_order() {
        let s = store();
        let steps = join_order(&s, false, ORDER_Q);
        assert_eq!(steps.len(), 3);
        for (step, pred) in steps.iter().zip(["type Laptop", "manufacturer", "origin"]) {
            assert!(step.contains(pred), "{steps:?}");
        }
    }

    #[test]
    fn every_query_form_gets_a_plan() {
        let s = store();
        let engine = Engine::builder(&s).build();
        for (q, tail) in [
            ("ASK WHERE { ?x ex:price 900 . }", "Ask"),
            ("CONSTRUCT { ?x ex:cheap true } WHERE { ?x ex:price ?p . FILTER(?p < 900) }", "Construct"),
            ("DESCRIBE ex:l1", "Describe"),
            ("SELECT ?x WHERE { ?x a ex:Laptop . MINUS { ?x ex:manufacturer ex:DELL . } }", "Minus"),
            ("SELECT ?t WHERE { { SELECT (COUNT(*) AS ?t) WHERE { ?x a ex:Laptop } } }", "SubSelect(?t)"),
            ("SELECT ?x WHERE { ?x a ex:Laptop . FILTER EXISTS { ?x ex:usb 4 } }", "Exists"),
        ] {
            let prepared = engine.prepare(&format!("PREFIX ex: <http://example.org/> {q}")).unwrap();
            assert!(prepared.uses_id_space());
            prepared.execute().unwrap();
            let text = prepared.explain();
            assert!(text.starts_with("physical plan:") && text.contains(tail), "{q}\n{text}");
        }
    }

    #[test]
    fn exists_in_order_by_reads_the_projected_row() {
        let s = store();
        let r = rows(
            &s,
            r#"PREFIX ex: <http://example.org/>
               SELECT ?x WHERE { ?x a ex:Laptop . }
               ORDER BY DESC(EXISTS { ?x ex:usb 4 }) ?x"#,
        );
        let order: Vec<String> =
            r.rows().iter().map(|row| row[0].as_ref().unwrap().display_name()).collect();
        assert_eq!(order, ["l2", "l1", "l3"]);
    }

    #[test]
    fn exists_reports_rows_tested_and_matched() {
        let s = store();
        let prepared = Engine::builder(&s)
            .build()
            .prepare(
                r#"PREFIX ex: <http://example.org/>
                   SELECT ?x WHERE { ?x a ex:Laptop . FILTER EXISTS { ?x ex:usb 2 } }"#,
            )
            .unwrap();
        prepared.execute().unwrap();
        let stats = prepared.last_stats().unwrap();
        let exists = stats.operators.iter().find(|op| op.kind == "exists").unwrap();
        assert_eq!((exists.invocations, exists.rows_out), (3, 2));
    }

    // ---- resource limits ---------------------------------------------------

    use crate::{EvalLimits, LimitKind};
    use crate::SparqlError;
    use std::time::{Duration, Instant};

    fn cycle_store(n: usize) -> Store {
        let mut ttl = String::from("@prefix ex: <http://example.org/> .\n");
        for i in 0..n {
            ttl.push_str(&format!("ex:n{i} ex:partOf ex:n{} .\n", (i + 1) % n));
        }
        let mut s = Store::new();
        s.load_turtle(&ttl).unwrap();
        s
    }

    #[test]
    fn limits_do_not_change_results_when_generous() {
        let s = store();
        let q = r#"PREFIX ex: <http://example.org/>
            SELECT ?x ?m WHERE { ?x a ex:Laptop ; ex:manufacturer ?m . } ORDER BY ?x"#;
        let unlimited = rows(&s, q);
        let limited = Engine::builder(&s)
            .limits(EvalLimits::interactive())
            .build()
            .run(q)
            .unwrap()
            .into_solutions()
            .unwrap();
        assert_eq!(unlimited, limited);
    }

    #[test]
    fn unbounded_closure_hits_deadline_promptly() {
        // acceptance check: `?x ex:partOf+ ?y` over a cycle-heavy graph must
        // come back as ResourceLimit within 2x its 100ms deadline
        let s = cycle_store(2000);
        let deadline = Duration::from_millis(100);
        let engine =
            Engine::builder(&s).limits(EvalLimits::default().with_deadline(deadline)).build();
        let t0 = Instant::now();
        let err = engine
            .run(
                "PREFIX ex: <http://example.org/> SELECT ?x ?y WHERE { ?x ex:partOf+ ?y . }",
            )
            .unwrap_err();
        let elapsed = t0.elapsed();
        assert!(err.is_resource_limit(), "expected ResourceLimit, got {err}");
        assert_eq!(err, SparqlError::ResourceLimit { kind: LimitKind::Deadline, limit: 100 });
        assert!(
            elapsed < deadline * 2,
            "took {elapsed:?} against a {deadline:?} deadline"
        );
    }

    #[test]
    fn closure_hits_path_visit_limit() {
        let s = cycle_store(500);
        let engine = Engine::builder(&s)
            .limits(EvalLimits::default().with_max_path_visits(1_000))
            .build();
        let err = engine
            .run("PREFIX ex: <http://example.org/> SELECT ?x ?y WHERE { ?x ex:partOf+ ?y . }")
            .unwrap_err();
        assert_eq!(
            err,
            SparqlError::ResourceLimit { kind: LimitKind::PathVisits, limit: 1_000 }
        );
    }

    #[test]
    fn cartesian_product_hits_row_limit() {
        let s = store();
        let engine =
            Engine::builder(&s).limits(EvalLimits::default().with_max_rows(20)).build();
        // unconstrained triple x triple cross product blows past 20 rows
        let err = engine.run("SELECT * WHERE { ?a ?b ?c . ?d ?e ?f . }").unwrap_err();
        assert_eq!(
            err,
            SparqlError::ResourceLimit { kind: LimitKind::SolutionRows, limit: 20 }
        );
    }

    #[test]
    fn deep_nesting_hits_depth_limit() {
        let s = store();
        let engine = Engine::builder(&s).limits(EvalLimits::default().with_max_depth(3)).build();
        let q = r#"PREFIX ex: <http://example.org/>
            SELECT ?x WHERE { { { { { ?x a ex:Laptop . } } } } }"#;
        let err = engine.run(q).unwrap_err();
        assert_eq!(
            err,
            SparqlError::ResourceLimit { kind: LimitKind::RecursionDepth, limit: 3 }
        );
        // the same query is fine with a deeper budget
        let ok = Engine::builder(&s)
            .limits(EvalLimits::default().with_max_depth(16))
            .build()
            .run(q);
        assert!(ok.is_ok());
    }

    #[test]
    fn limit_inside_exists_surfaces_as_error() {
        // the EXISTS sub-pattern walks the cycle closure and must charge the
        // outer query's budget rather than getting a fresh one
        let s = cycle_store(500);
        let engine = Engine::builder(&s)
            .limits(EvalLimits::default().with_max_path_visits(1_000))
            .build();
        let result = engine.run(
            r#"PREFIX ex: <http://example.org/>
               SELECT ?x WHERE {
                 ?x ex:partOf ?y .
                 FILTER EXISTS { ?x ex:partOf+ ?z . }
               }"#,
        );
        assert!(
            matches!(result, Err(SparqlError::ResourceLimit { kind: LimitKind::PathVisits, .. })),
            "{result:?}"
        );
    }

    #[test]
    fn resource_limit_error_message_is_structured() {
        let err = SparqlError::ResourceLimit { kind: LimitKind::Deadline, limit: 100 };
        assert!(err.is_resource_limit());
        assert_eq!(err.message(), "resource limit exceeded: deadline (limit 100)");
        assert!(!SparqlError::new("boom").is_resource_limit());
    }
}
