//! Translation of HIFUN queries to SPARQL — Algorithms 1–4 of Chapter 4.
//!
//! The translation follows the paper's scheme exactly:
//!
//! - the grouping expression yields variable(s) in the `GROUP BY` clause and
//!   chained triple patterns in `WHERE` (one per composition step);
//! - the measuring expression yields a variable in `WHERE` whose aggregate
//!   appears in `SELECT`;
//! - URI restrictions become triple patterns, literal restrictions become
//!   `FILTER`s (§4.2.2);
//! - result restrictions become a `HAVING` clause (§4.2.3);
//! - derived attributes (`month ∘ date`) become SPARQL built-in calls in
//!   `SELECT`/`GROUP BY` (§4.2.4);
//! - pairing joins components on the shared root variable `?x1` (§4.2.4);
//! - restriction paths of the general case (Algorithm 4) extend the pattern
//!   chain before constraining its final term;
//! - an inverse step `^p` is the pattern `?next <p> ?current`, a term-set
//!   test is a constant in the pattern (one term) or a `VALUES` on the final
//!   variable, and a range puts both bounds on the one final variable;
//! - a root whose term sets or ranges may reach an item by several routes is
//!   a `SELECT DISTINCT ?x1` sub-select, so each item is aggregated once.
//!
//! A faceted state's intention is a [`Root`]; [`root_to_sparql`] translates
//! it alone, and its answer is the state's extension.

use crate::query::*;
use rdfa_model::Term;

/// The root variable; fresh variables continue from `?x2`.
const ROOT: &str = "?x1";

/// Accumulates the strings of the query under construction, mirroring the
/// `triplePatterns`, `retVars`, `op(m)` and `restr(Q_ans)` registers of
/// Algorithm 1.
#[derive(Default)]
struct Translator {
    triple_patterns: Vec<String>,
    filters: Vec<String>,
    select_items: Vec<String>,
    group_by: Vec<String>,
    having: Vec<String>,
    fresh_vars: usize,
}

impl Translator {
    fn new_var(&mut self) -> String {
        self.fresh_vars += 1;
        format!("?x{}", self.fresh_vars + 1)
    }

    /// The pattern of one property step from `from` to `to`.
    fn push_step(&mut self, from: &str, (iri, inverse): (&str, bool), to: &str) {
        self.triple_patterns.push(if inverse {
            format!("{to} <{iri}> {from} .")
        } else {
            format!("{from} <{iri}> {to} .")
        });
    }

    /// Emit the triple-pattern chain for a composition (Algorithm 2 /
    /// Algorithm 3 with derived attributes). Returns the chain's last
    /// variable and its *return expression*: that variable, or a built-in
    /// call over it.
    fn emit_chain(&mut self, start: &str, steps: &[Step]) -> (String, String) {
        let mut current = start.to_owned();
        let mut expr = current.clone();
        for step in steps {
            if let Some(prop) = step.property() {
                let next = self.new_var();
                self.push_step(&current, prop, &next);
                current = next.clone();
                expr = next;
            } else if let Step::Derived(f) = step {
                // derived attribute: no triple pattern, wrap the return var
                expr = format!("{}({})", f.sparql(), expr);
            }
        }
        (current, expr)
    }

    /// The root: the seed as `VALUES`, then each condition. With
    /// `semi_join`, a root with a term set or a range that can reach one
    /// item by several routes (several terms, several steps, several values
    /// of the attribute) becomes the sub-select `{ SELECT DISTINCT ?x1 … }`,
    /// so that the aggregates see each item once, as direct evaluation does.
    /// A comparison keeps the plain join of Algorithm 4.
    fn emit_root(&mut self, root: &Root, semi_join: bool) {
        if let Some(items) = &root.among {
            let list: Vec<String> = items.iter().map(render_term).collect();
            self.triple_patterns.push(format!("VALUES {ROOT} {{ {} }}", list.join(" ")));
        }
        for cond in &root.conditions {
            // one URI or one identity term ends the chain as a constant
            let constant = match &cond.test {
                Test::Cmp(CondOp::Eq, t @ Term::Iri(_)) => Some(t),
                Test::OneOf(terms) if terms.len() == 1 => terms.first(),
                _ => None,
            };
            let last = cond.path.split_last().and_then(|(l, prefix)| Some((l.property()?, prefix)));
            if let (Some(c), Some((last, prefix))) = (constant, last) {
                let (from, _) = self.emit_chain(ROOT, prefix);
                self.push_step(&from, last, &render_term(c));
            } else {
                let (_, end) = self.emit_chain(ROOT, &cond.path);
                self.emit_test(&end, &cond.test);
            }
        }
        let once = |c: &Restriction| match &c.test {
            Test::Cmp(..) => true,
            Test::OneOf(terms) => terms.len() == 1 && c.path.len() == 1,
            Test::Range { .. } => false,
        };
        if semi_join && !root.conditions.iter().all(once) {
            let mut inner = std::mem::take(&mut self.triple_patterns);
            if !self.filters.is_empty() {
                inner.push(format!("FILTER({})", std::mem::take(&mut self.filters).join(" && ")));
            }
            self.triple_patterns
                .push(format!("{{ SELECT DISTINCT {ROOT} WHERE {{ {} }} }}", inner.join(" ")));
        }
    }

    /// Bind `?x1` with a wildcard pattern when nothing else does (no root
    /// patterns, no groupings, identity measuring).
    fn bind_root(&mut self) {
        if self.triple_patterns.is_empty() {
            self.triple_patterns.push(format!("{ROOT} ?p0 ?o0 ."));
        }
    }

    /// Emit a restriction on a value expression whose underlying variable is
    /// `var` (the `right(g)` of the algorithms). URI + equality restrictions
    /// become triple patterns continuing the chain; the other tests follow
    /// [`emit_test`](Self::emit_test).
    fn emit_restriction(&mut self, var: &str, r: &Restriction) {
        // continuation path first (general case, Algorithm 4)
        let (_, end) = self.emit_chain(var, &r.path);
        if let Test::Cmp(CondOp::Eq, Term::Iri(iri)) = &r.test {
            // rewrite: assert the chain's final pattern with the URI object
            if let Some(last) = self.triple_patterns.iter().rposition(|tp| {
                tp.split_whitespace().nth(2) == Some(end.as_str())
            }) {
                let parts: Vec<&str> = self.triple_patterns[last].split_whitespace().collect();
                self.triple_patterns
                    .push(format!("{} {} <{}> .", parts[0], parts[1], iri));
                return;
            }
        }
        self.emit_test(&end, &r.test);
    }

    /// A test of the expression `end`: a comparison or a range is a FILTER,
    /// a term set a `VALUES` on `end` (bound to a fresh variable first when
    /// it is a built-in call).
    fn emit_test(&mut self, end: &str, test: &Test) {
        let mut compare = |op: CondOp, value: &Term| {
            self.filters.push(format!("{end} {} {}", op.sparql(), render_term(value)));
        };
        match test {
            Test::Cmp(op, value) => compare(*op, value),
            Test::Range { min, max } => {
                min.iter().for_each(|v| compare(CondOp::Ge, v));
                max.iter().for_each(|v| compare(CondOp::Le, v));
            }
            Test::OneOf(terms) => {
                let var = if end.starts_with('?') {
                    end.to_owned()
                } else {
                    let var = self.new_var();
                    self.triple_patterns.push(format!("BIND({end} AS {var})"));
                    var
                };
                let list: Vec<String> = terms.iter().map(render_term).collect();
                self.triple_patterns.push(format!("VALUES {var} {{ {} }}", list.join(" ")));
            }
        }
    }

    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("SELECT ");
        out.push_str(&self.select_items.join(" "));
        out.push_str("\nWHERE {\n");
        for tp in &self.triple_patterns {
            out.push_str("  ");
            out.push_str(tp);
            out.push('\n');
        }
        if !self.filters.is_empty() {
            out.push_str(&format!("  FILTER({})\n", self.filters.join(" && ")));
        }
        out.push_str("}\n");
        if !self.group_by.is_empty() {
            out.push_str("GROUP BY ");
            out.push_str(&self.group_by.join(" "));
            out.push('\n');
        }
        if !self.having.is_empty() {
            out.push_str(&format!("HAVING ({})\n", self.having.join(" && ")));
        }
        out
    }
}

fn render_term(t: &Term) -> String {
    match t {
        Term::Literal(l) => l.to_string(),
        Term::Iri(iri) => format!("<{iri}>"),
        Term::Blank(b) => format!("_:{b}"),
    }
}

/// The root alone, as the query whose answer is its item set: a faceted
/// state's intention, whose answer is the state's extension.
pub fn root_to_sparql(root: &Root) -> String {
    let mut tr = Translator::default();
    tr.emit_root(root, false);
    tr.bind_root();
    tr.select_items.push(format!("DISTINCT {ROOT}"));
    tr.render()
}

/// Translate a HIFUN query to a SPARQL SELECT query (the full algorithm of
/// §4.2.5).
pub fn to_sparql(q: &HifunQuery) -> String {
    let mut tr = Translator::default();
    tr.emit_root(&q.root, true);

    // grouping components (pairing over compositions, Algorithm 2); the
    // restrictions constrain the variable under the expression
    for rp in &q.groupings {
        let (var, expr) = tr.emit_chain(ROOT, &rp.path.steps);
        for r in &rp.restrictions {
            tr.emit_restriction(&var, r);
        }
        if expr.starts_with('?') {
            tr.select_items.push(expr.clone());
        } else {
            let alias = format!("?g{}", tr.group_by.len() + 1);
            tr.select_items.push(format!("({expr} AS {alias})"));
        }
        tr.group_by.push(expr);
    }

    // measuring expression
    let measure_expr = match &q.measuring {
        None => ROOT.to_owned(), // identity function: measure the items
        Some(rp) => {
            let (var, expr) = tr.emit_chain(ROOT, &rp.path.steps);
            for r in &rp.restrictions {
                tr.emit_restriction(&var, r);
            }
            expr
        }
    };

    tr.bind_root();

    // aggregate operations (SELECT clause); ID measuring counts items, not
    // join duplicates
    let inner =
        if q.measuring.is_none() { format!("DISTINCT {measure_expr}") } else { measure_expr };
    for (i, op) in q.ops.iter().enumerate() {
        tr.select_items.push(format!("({}({inner}) AS ?agg{})", op.sparql(), i + 1));
    }

    // result restrictions → HAVING
    for rr in &q.result_restrictions {
        let op = q.ops[rr.op_index];
        tr.having.push(format!(
            "{}({inner}) {} {}",
            op.sparql(),
            rr.op.sparql(),
            render_term(&rr.value)
        ));
    }

    tr.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfa_model::vocab;

    const EX: &str = "http://example.org/";

    fn p(local: &str) -> String {
        format!("{EX}{local}")
    }

    /// §4.2.1: (takesPlaceAt, inQuantity, SUM)
    #[test]
    fn simple_query() {
        let q = HifunQuery::new(AggOp::Sum)
            .group_by(AttrPath::prop(p("takesPlaceAt")))
            .measure(AttrPath::prop(p("inQuantity")));
        let s = to_sparql(&q);
        assert!(s.contains("SELECT ?x2 (SUM(?x3) AS ?agg1)"), "{s}");
        assert!(s.contains("?x1 <http://example.org/takesPlaceAt> ?x2 ."), "{s}");
        assert!(s.contains("?x1 <http://example.org/inQuantity> ?x3 ."), "{s}");
        assert!(s.contains("GROUP BY ?x2"), "{s}");
    }

    /// §4.2.2: (takesPlaceAt/E, inQuantity, SUM), E = {i | takesPlaceAt(i) = branch1}
    #[test]
    fn attribute_restricted_uri() {
        let q = HifunQuery::new(AggOp::Sum)
            .group_by_restricted(
                RestrictedPath::new(AttrPath::prop(p("takesPlaceAt")))
                    .restricted(Restriction::eq(Term::iri(p("branch1")))),
            )
            .measure(AttrPath::prop(p("inQuantity")));
        let s = to_sparql(&q);
        assert!(
            s.contains("?x1 <http://example.org/takesPlaceAt> <http://example.org/branch1> ."),
            "{s}"
        );
    }

    /// §4.2.2: literal restriction on the measuring function → FILTER
    #[test]
    fn attribute_restricted_literal() {
        let q = HifunQuery::new(AggOp::Sum)
            .group_by(AttrPath::prop(p("takesPlaceAt")))
            .measure_restricted(
                RestrictedPath::new(AttrPath::prop(p("inQuantity")))
                    .restricted(Restriction::cmp(CondOp::Ge, Term::integer(1))),
            );
        let s = to_sparql(&q);
        assert!(s.contains("FILTER(?x3 >= \"1\""), "{s}");
    }

    /// §4.2.3: result restriction → HAVING
    #[test]
    fn results_restricted() {
        let q = HifunQuery::new(AggOp::Sum)
            .group_by(AttrPath::prop(p("takesPlaceAt")))
            .measure(AttrPath::prop(p("inQuantity")))
            .having(0, CondOp::Gt, Term::integer(1000));
        let s = to_sparql(&q);
        assert!(s.contains("HAVING (SUM(?x3) > \"1000\""), "{s}");
    }

    /// §4.2.4 Composition: (brand ∘ delivers, inQuantity, SUM)
    #[test]
    fn composition() {
        let q = HifunQuery::new(AggOp::Sum)
            .group_by(AttrPath::props(&[&p("delivers"), &p("brand")]))
            .measure(AttrPath::prop(p("inQuantity")));
        let s = to_sparql(&q);
        assert!(s.contains("?x1 <http://example.org/delivers> ?x2 ."), "{s}");
        assert!(s.contains("?x2 <http://example.org/brand> ?x3 ."), "{s}");
        assert!(s.contains("GROUP BY ?x3"), "{s}");
    }

    /// §4.2.4 Derived attribute: (month ∘ date, inQuantity, SUM)
    #[test]
    fn derived_attribute() {
        let q = HifunQuery::new(AggOp::Sum)
            .group_by(AttrPath::prop(p("hasDate")).derived(DerivedFn::Month))
            .measure(AttrPath::prop(p("inQuantity")));
        let s = to_sparql(&q);
        assert!(s.contains("(MONTH(?x2) AS ?g1)"), "{s}");
        assert!(s.contains("GROUP BY MONTH(?x2)"), "{s}");
    }

    /// §4.2.4 Pairing: (takesPlaceAt ⊗ delivers, inQuantity, SUM)
    #[test]
    fn pairing() {
        let q = HifunQuery::new(AggOp::Sum)
            .group_by(AttrPath::prop(p("takesPlaceAt")))
            .group_by(AttrPath::prop(p("delivers")))
            .measure(AttrPath::prop(p("inQuantity")));
        let s = to_sparql(&q);
        assert!(s.contains("SELECT ?x2 ?x3 (SUM(?x4) AS ?agg1)"), "{s}");
        assert!(s.contains("GROUP BY ?x2 ?x3"), "{s}");
    }

    /// §4.2.5 worked example: pairing of compositions with month filter,
    /// measure restriction, and HAVING.
    #[test]
    fn full_example() {
        let q = HifunQuery::new(AggOp::Sum)
            .group_by(AttrPath::prop(p("takesPlaceAt")))
            .group_by(AttrPath::props(&[&p("delivers"), &p("brand")]))
            .with_conditions(vec![Restriction::via(
                vec![Step::Prop(p("hasDate")), Step::Derived(DerivedFn::Month)],
                CondOp::Eq,
                Term::integer(1),
            )])
            .measure_restricted(
                RestrictedPath::new(AttrPath::prop(p("inQuantity")))
                    .restricted(Restriction::cmp(CondOp::Ge, Term::integer(2))),
            )
            .having(0, CondOp::Gt, Term::integer(1000));
        let s = to_sparql(&q);
        assert!(s.contains("MONTH(?x2) = \"1\""), "{s}");
        assert!(s.contains("GROUP BY ?x3 ?x5"), "{s}");
        assert!(s.contains("HAVING (SUM(?x6) > \"1000\""), "{s}");
        assert!(s.contains(">= \"2\""), "{s}");
    }

    /// §5.1 Example 1: (ε, price/E, AVG) — no grouping at all.
    #[test]
    fn no_grouping_avg() {
        let q = HifunQuery::new(AggOp::Avg)
            .over_class(p("Laptop"))
            .measure(AttrPath::prop(p("price")));
        let s = to_sparql(&q);
        assert!(!s.contains("GROUP BY"), "{s}");
        assert!(s.contains("SELECT (AVG(?x2) AS ?agg1)"), "{s}");
        assert!(s.contains("rdf-syntax-ns#type> <http://example.org/Laptop>"), "{s}");
    }

    /// §5.1 Example 2: (g/E, ID, COUNT) — identity measuring counts items.
    #[test]
    fn identity_count_distinct() {
        let q = HifunQuery::new(AggOp::Count)
            .over_class(p("Laptop"))
            .group_by(AttrPath::props(&[&p("manufacturer"), &p("origin")]));
        let s = to_sparql(&q);
        assert!(s.contains("COUNT(DISTINCT ?x1)"), "{s}");
    }

    /// Fig 6.2: three simultaneous aggregates.
    #[test]
    fn multiple_aggregates() {
        let q = HifunQuery::new(AggOp::Avg)
            .also(AggOp::Sum)
            .also(AggOp::Max)
            .group_by(AttrPath::prop(p("manufacturer")))
            .measure(AttrPath::prop(p("price")));
        let s = to_sparql(&q);
        assert!(s.contains("(AVG(?x3) AS ?agg1)"), "{s}");
        assert!(s.contains("(SUM(?x3) AS ?agg2)"), "{s}");
        assert!(s.contains("(MAX(?x3) AS ?agg3)"), "{s}");
    }

    /// Translation completeness (Proposition 1): every query form renders.
    #[test]
    fn all_forms_render_without_panic() {
        let forms = vec![
            HifunQuery::new(AggOp::Count),
            HifunQuery::new(AggOp::Sum).measure(AttrPath::prop(p("q"))),
            HifunQuery::new(AggOp::Min)
                .group_by(AttrPath::prop(p("a")))
                .group_by(AttrPath::props(&[&p("b"), &p("c"), &p("d")]))
                .measure(AttrPath::prop(p("q")))
                .having(0, CondOp::Le, Term::integer(5)),
        ];
        for q in forms {
            let s = to_sparql(&q);
            assert!(s.starts_with("SELECT"), "{s}");
            assert!(rdfa_sparql::parse_query(&s).is_ok(), "generated SPARQL must parse:\n{s}");
        }
    }

    /// A faceted root: a class, an inverse step, a literal value click, a
    /// multi-select and a two-bound range.
    #[test]
    fn click_root_alone() {
        let root = Root {
            conditions: vec![
                Restriction::class(Term::iri(p("Laptop"))),
                Restriction::one_of(vec![Step::Inv(p("ships"))], vec![Term::iri(p("shop1"))]),
                Restriction::one_of(vec![Step::Prop(p("usb"))], vec![Term::integer(2)]),
                Restriction::one_of(
                    vec![Step::Prop(p("manufacturer"))],
                    vec![Term::iri(p("DELL")), Term::iri(p("ACER"))],
                ),
                Restriction::range(
                    vec![Step::Prop(p("price"))],
                    Some(Term::integer(100)),
                    Some(Term::integer(900)),
                ),
            ],
            among: None,
        };
        let int = |v: i64| Term::integer(v).to_string();
        let expected = format!(
            "SELECT DISTINCT ?x1\nWHERE {{\n  \
             ?x1 <{}> <{EX}Laptop> .\n  \
             <{EX}shop1> <{EX}ships> ?x1 .\n  \
             ?x1 <{EX}usb> {} .\n  \
             ?x1 <{EX}manufacturer> ?x2 .\n  \
             VALUES ?x2 {{ <{EX}DELL> <{EX}ACER> }}\n  \
             ?x1 <{EX}price> ?x3 .\n  \
             FILTER(?x3 >= {} && ?x3 <= {})\n}}\n",
            vocab::rdf::TYPE,
            int(2),
            int(100),
            int(900),
        );
        assert_eq!(root_to_sparql(&root), expected);
        rdfa_sparql::parse_query(&expected).unwrap();
        // an unconstrained root is every subject
        assert!(root_to_sparql(&Root::default()).contains("?x1 ?p0 ?o0 ."));
    }

    /// In an analytic query, a root with a multi-select or a range is a
    /// `DISTINCT` sub-select: an item with two of the selected values, or
    /// two prices in the range, is aggregated once.
    #[test]
    fn multi_route_root_is_a_distinct_sub_select() {
        let manufacturers = Restriction::one_of(
            vec![Step::Prop(p("manufacturer"))],
            vec![Term::iri(p("DELL")), Term::iri(p("ACER"))],
        );
        let q = HifunQuery::new(AggOp::Sum)
            .over_class(p("Laptop"))
            .with_conditions(vec![manufacturers])
            .measure(AttrPath::prop(p("price")));
        let s = to_sparql(&q);
        let expected = format!(
            "SELECT (SUM(?x3) AS ?agg1)\nWHERE {{\n  \
             {{ SELECT DISTINCT ?x1 WHERE {{ ?x1 <{}> <{EX}Laptop> . \
             ?x1 <{EX}manufacturer> ?x2 . VALUES ?x2 {{ <{EX}DELL> <{EX}ACER> }} }} }}\n  \
             ?x1 <{EX}price> ?x3 .\n}}\n",
            vocab::rdf::TYPE,
        );
        assert_eq!(s, expected);
        rdfa_sparql::parse_query(&s).unwrap();
        let range = Restriction::range(vec![Step::Prop(p("price"))], Some(Term::integer(1)), None);
        let s = to_sparql(&HifunQuery::new(AggOp::Count).with_conditions(vec![range]));
        assert!(s.contains(" . FILTER(?x2 >= "), "{s}");
        rdfa_sparql::parse_query(&s).unwrap();
        // a class and one value on one step reach an item once: no sub-select
        let one = Restriction::one_of(vec![Step::Prop(p("usb"))], vec![Term::integer(2)]);
        let q = HifunQuery::new(AggOp::Count).over_class(p("Laptop")).with_conditions(vec![one]);
        let s = to_sparql(&q);
        assert!(!s.contains("SELECT DISTINCT"), "{s}");
    }

    /// A term set on a derived value binds the value first.
    #[test]
    fn term_set_on_a_derived_value() {
        let q = HifunQuery::new(AggOp::Count).with_conditions(vec![Restriction::one_of(
            vec![Step::Prop(p("hasDate")), Step::Derived(DerivedFn::Month)],
            vec![Term::integer(1), Term::integer(2)],
        )]);
        let s = to_sparql(&q);
        assert!(s.contains(" . BIND(MONTH(?x2) AS ?x3) VALUES ?x3 { "), "{s}");
        rdfa_sparql::parse_query(&s).unwrap();
    }

    /// Every generated query must be parseable by our SPARQL engine.
    #[test]
    fn generated_sparql_parses() {
        let q = HifunQuery::new(AggOp::Sum)
            .group_by(AttrPath::prop(p("takesPlaceAt")))
            .group_by(AttrPath::props(&[&p("delivers"), &p("brand")]))
            .measure(AttrPath::prop(p("inQuantity")))
            .having(0, CondOp::Gt, Term::integer(1000));
        let s = to_sparql(&q);
        rdfa_sparql::parse_query(&s).unwrap_or_else(|e| panic!("{e}\n{s}"));
    }
}
