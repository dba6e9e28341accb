//! The HIFUN query AST: attribute paths, the functional algebra, and the
//! general query form `q = (gE/rg, mE/rm, opE/ro)` (§4.2.5).

use rdfa_model::{vocab, Term};
use std::fmt;

/// Aggregate (reduction) operations on measure values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggOp {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggOp {
    /// The SPARQL aggregate keyword.
    pub fn sparql(self) -> &'static str {
        match self {
            AggOp::Count => "COUNT",
            AggOp::Sum => "SUM",
            AggOp::Avg => "AVG",
            AggOp::Min => "MIN",
            AggOp::Max => "MAX",
        }
    }

    /// Human label used by the answer frame.
    pub fn label(self) -> &'static str {
        match self {
            AggOp::Count => "count",
            AggOp::Sum => "sum",
            AggOp::Avg => "avg",
            AggOp::Min => "min",
            AggOp::Max => "max",
        }
    }

    /// All supported operations (menu of the ⨊ button, §5.1).
    pub fn all() -> [AggOp; 5] {
        [AggOp::Count, AggOp::Sum, AggOp::Avg, AggOp::Min, AggOp::Max]
    }
}

/// Derived attributes: SPARQL built-ins applicable as unary functions
/// (`month ∘ date`, §4.2.4 "Derived attribute").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DerivedFn {
    Year,
    Month,
    Day,
}

impl DerivedFn {
    /// The SPARQL function name.
    pub fn sparql(self) -> &'static str {
        match self {
            DerivedFn::Year => "YEAR",
            DerivedFn::Month => "MONTH",
            DerivedFn::Day => "DAY",
        }
    }
}

/// One step of a composition chain, applied left-to-right from the root:
/// `brand ∘ delivers` is `[Prop(delivers), Prop(brand)]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Step {
    /// A direct attribute: follow the property from the current node.
    Prop(String),
    /// An inverse attribute `p⁻¹` (§5.3.1), written `^p`: follow the
    /// property backwards, from object to subject.
    Inv(String),
    /// A derived attribute: apply the function to the current value.
    Derived(DerivedFn),
}

impl Step {
    /// The property of a property step and whether it is followed
    /// inversely; `None` for a derived step.
    pub fn property(&self) -> Option<(&str, bool)> {
        match self {
            Step::Prop(iri) => Some((iri, false)),
            Step::Inv(iri) => Some((iri, true)),
            Step::Derived(_) => None,
        }
    }
}

/// A composition chain of steps — the `fk ∘ … ∘ f2 ∘ f1` of Algorithm 2,
/// stored in application order (`f1` first).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AttrPath {
    pub steps: Vec<Step>,
}

impl AttrPath {
    /// A single direct attribute.
    pub fn prop(iri: impl Into<String>) -> Self {
        AttrPath { steps: vec![Step::Prop(iri.into())] }
    }

    /// A multi-step property composition `p1 then p2 then …`
    /// (`pk ∘ … ∘ p1` in HIFUN notation).
    pub fn props(iris: &[&str]) -> Self {
        AttrPath { steps: iris.iter().map(|p| Step::Prop((*p).to_string())).collect() }
    }

    /// Append a property step.
    pub fn then(mut self, iri: impl Into<String>) -> Self {
        self.steps.push(Step::Prop(iri.into()));
        self
    }

    /// Append a derived-attribute step (`month ∘ self`).
    pub fn derived(mut self, f: DerivedFn) -> Self {
        self.steps.push(Step::Derived(f));
        self
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the path has no steps (the identity function).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Short display name: local names of the steps joined by `∘` in HIFUN
    /// (right-to-left) order.
    pub fn display_name(&self) -> String {
        path_name(&self.steps, None)
    }
}

/// Steps in HIFUN notation: right to left, joined by `∘`, an inverse step
/// written `^p`, each IRI named by [`name`].
fn path_name(steps: &[Step], ns: Option<&str>) -> String {
    let names: Vec<String> = steps
        .iter()
        .rev()
        .map(|s| match s {
            Step::Prop(iri) => name(iri, ns),
            Step::Inv(iri) => format!("^{}", name(iri, ns)),
            Step::Derived(d) => d.sparql().to_lowercase(),
        })
        .collect();
    names.join("∘")
}

/// An IRI in the notation. Against a namespace `ns`, an IRI under `ns` is
/// the rest of it and any other is `<iri>`, so that
/// [`parse_hifun`](crate::parse_hifun) with that `ns` reads it back; without
/// one it is its local name, a label. Either way it is `<iri>` when the name
/// would not read back as a name.
fn name(iri: &str, ns: Option<&str>) -> String {
    let local = match ns {
        Some(ns) => iri.strip_prefix(ns).unwrap_or_default(),
        None => rdfa_model::term::local_name(iri),
    };
    let reserved = ["year", "month", "day", "id", "eps", "ε"].contains(&&*local.to_lowercase());
    let plain = !local.is_empty()
        && !reserved
        && local.chars().all(|c| c.is_alphanumeric() || "_-.".contains(c))
        && matches!(crate::parse::parse_value(local, ""), Ok(Term::Iri(_)));
    if plain {
        local.to_owned()
    } else {
        format!("<{iri}>")
    }
}

/// A term in the notation: an IRI by [`name`], a literal in its shorthand
/// (`2`, `4.5`, `true`) when that reads back as the same term, in N-Triples
/// syntax otherwise.
fn term_name(t: &Term, ns: Option<&str>) -> String {
    match t {
        Term::Iri(iri) => name(iri, ns),
        Term::Literal(l) if crate::parse::parse_value(&l.lexical, "").ok().as_ref() == Some(t) => {
            l.lexical.clone()
        }
        t => t.to_string(),
    }
}

/// Comparison operators in restrictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CondOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CondOp {
    /// The SPARQL operator.
    pub fn sparql(self) -> &'static str {
        match self {
            CondOp::Eq => "=",
            CondOp::Ne => "!=",
            CondOp::Lt => "<",
            CondOp::Le => "<=",
            CondOp::Gt => ">",
            CondOp::Ge => ">=",
        }
    }

    /// Apply the comparison to an `Ordering`.
    pub fn test(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CondOp::Eq => ord == Equal,
            CondOp::Ne => ord != Equal,
            CondOp::Lt => ord == Less,
            CondOp::Le => ord != Greater,
            CondOp::Gt => ord == Greater,
            CondOp::Ge => ord != Less,
        }
    }
}

/// What a restriction asks of the final value of its path.
#[derive(Debug, Clone, PartialEq)]
pub enum Test {
    /// `op value`, a comparison by value (§4.2.2). A URI with `=` becomes a
    /// triple pattern, anything else a FILTER.
    Cmp(CondOp, Term),
    /// `∈{t1, t2}`: the final term is one of these terms. This is term
    /// identity, so `"2"^^xsd:integer` does not match `"2.0"^^xsd:decimal`.
    /// A value click or a multi-select. One term is a constant in the
    /// pattern, several a `VALUES` on the final variable.
    OneOf(Vec<Term>),
    /// `∈[min, max]`: one final value within both bounds, inclusive; `*`
    /// (`None`) leaves a side open. The ⧩ filter of §5.1.
    Range { min: Option<Term>, max: Option<Term> },
}

/// A restriction `…/r` on a grouping or measuring expression (§4.2.2 and the
/// general case of Algorithm 4), or a condition of the root: an optional
/// continuation path followed by a test of its final value.
#[derive(Debug, Clone, PartialEq)]
pub struct Restriction {
    /// Extra composition steps beyond the restricted expression's value
    /// (empty for a plain `g/v` restriction).
    pub path: Vec<Step>,
    pub test: Test,
}

impl Restriction {
    /// Plain equality restriction to a value.
    pub fn eq(value: Term) -> Self {
        Restriction::cmp(CondOp::Eq, value)
    }

    /// Comparison restriction on the value itself.
    pub fn cmp(op: CondOp, value: Term) -> Self {
        Restriction::via(Vec::new(), op, value)
    }

    /// Restriction through a continuation path (general case, Algorithm 4).
    pub fn via(path: Vec<Step>, op: CondOp, value: Term) -> Self {
        Restriction { path, test: Test::Cmp(op, value) }
    }

    /// The path's final term is one of `terms`.
    pub fn one_of(path: Vec<Step>, terms: Vec<Term>) -> Self {
        Restriction { path, test: Test::OneOf(terms) }
    }

    /// One final value of the path lies in `[min, max]`.
    pub fn range(path: Vec<Step>, min: Option<Term>, max: Option<Term>) -> Self {
        Restriction { path, test: Test::Range { min, max } }
    }

    /// Membership in a class, `rdf:type∈{class}`: a class click. The
    /// notation writes it as the class alone.
    pub fn class(class: Term) -> Self {
        Restriction::one_of(vec![Step::Prop(vocab::rdf::TYPE.to_owned())], vec![class])
    }

    /// The class of a [`class`](Self::class) membership.
    pub fn as_class(&self) -> Option<&Term> {
        match (&self.path[..], &self.test) {
            ([Step::Prop(p)], Test::OneOf(terms)) if p == vocab::rdf::TYPE && terms.len() == 1 => {
                terms.first()
            }
            _ => None,
        }
    }

    /// `path op value`, `path∈{t1, t2}`, `path∈[min, max]`, or a class.
    fn text(&self, ns: Option<&str>) -> String {
        if let Some(class) = self.as_class() {
            return term_name(class, ns);
        }
        let path = path_name(&self.path, ns);
        let term = |t: &Term| term_name(t, ns);
        match &self.test {
            Test::Cmp(op, value) => format!("{path}{}{}", op.sparql(), term(value)),
            Test::OneOf(terms) => {
                let terms: Vec<String> = terms.iter().map(term).collect();
                format!("{path}∈{{{}}}", terms.join(", "))
            }
            Test::Range { min, max } => {
                let bound = |b: &Option<Term>| b.as_ref().map_or("*".to_owned(), term);
                format!("{path}∈[{}, {}]", bound(min), bound(max))
            }
        }
    }
}

impl fmt::Display for Restriction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text(None))
    }
}

/// A grouping/measuring operand: an attribute path plus optional restrictions.
#[derive(Debug, Clone, PartialEq)]
pub struct RestrictedPath {
    pub path: AttrPath,
    pub restrictions: Vec<Restriction>,
}

impl RestrictedPath {
    /// An unrestricted path.
    pub fn new(path: AttrPath) -> Self {
        RestrictedPath { path, restrictions: Vec::new() }
    }

    /// Attach a restriction.
    pub fn restricted(mut self, r: Restriction) -> Self {
        self.restrictions.push(r);
        self
    }
}

/// Restriction on the query result (`op/ro` → SPARQL `HAVING`, §4.2.3).
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRestriction {
    /// Index into [`HifunQuery::ops`] the condition applies to.
    pub op_index: usize,
    pub op: CondOp,
    pub value: Term,
}

/// How the root set of the analysis context is constrained. The parts
/// combine conjunctively; all empty = every item with the queried attributes
/// (implicit join).
///
/// A faceted state's intention is the root it denotes (§5.5): every click
/// adds a condition, and the extension on screen is the answer of the root
/// alone ([`root_to_sparql`](crate::translate::root_to_sparql)).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Root {
    /// Path conditions from the root (the faceted-search extension `E`), in
    /// click order; a class click is a [`Restriction::class`].
    pub conditions: Vec<Restriction>,
    /// An explicit item set, translated to a `VALUES ?x1 { … }` clause: the
    /// seed of a session started from external results, such as a keyword
    /// search's hits (§5.4.1).
    pub among: Option<Vec<Term>>,
}

impl Root {
    /// True when the root is completely unconstrained.
    pub fn is_unconstrained(&self) -> bool {
        self.conditions.is_empty() && self.among.is_none()
    }

    /// The seed `{i1, i2}` and the conditions, joined by ` ∧ `; nothing for
    /// an unconstrained root.
    fn text(&self, ns: Option<&str>) -> String {
        let mut items: Vec<String> = Vec::new();
        if let Some(among) = &self.among {
            let among: Vec<String> = among.iter().map(|t| term_name(t, ns)).collect();
            items.push(format!("{{{}}}", among.join(", ")));
        }
        items.extend(self.conditions.iter().map(|c| c.text(ns)));
        items.join(" ∧ ")
    }
}

impl fmt::Display for Root {
    /// The root with every IRI by its local name, a label.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text(None))
    }
}

/// The general HIFUN query `q = (gE/rg, mE/rm, opE/ro)` with optional root
/// constraint. Multiple aggregate operations model the GUI's multi-function
/// ⨊ selection (Fig 6.2: avg, sum and max at once).
#[derive(Debug, Clone, PartialEq)]
pub struct HifunQuery {
    pub root: Root,
    /// Grouping components: empty = no grouping (Example 1, §5.1);
    /// one = plain grouping; several = pairing `g1 ⊗ g2 ⊗ …`.
    pub groupings: Vec<RestrictedPath>,
    /// The measuring expression; `None` measures the items themselves
    /// (identity function `ID`, used by COUNT in Example 2).
    pub measuring: Option<RestrictedPath>,
    /// Aggregate operations applied to the measure (at least one).
    pub ops: Vec<AggOp>,
    /// HAVING-style restrictions on the aggregated results.
    pub result_restrictions: Vec<ResultRestriction>,
}

impl HifunQuery {
    /// A query with a single aggregate operation and nothing else yet.
    pub fn new(op: AggOp) -> Self {
        HifunQuery {
            root: Root::default(),
            groupings: Vec::new(),
            measuring: None,
            ops: vec![op],
            result_restrictions: Vec::new(),
        }
    }

    /// Root the query at a class's instances.
    pub fn over_class(mut self, class_iri: impl Into<String>) -> Self {
        self.root.conditions.push(Restriction::class(Term::Iri(class_iri.into())));
        self
    }

    /// Add root conditions (the faceted extension `E`) after those already
    /// there.
    pub fn with_conditions(mut self, conds: Vec<Restriction>) -> Self {
        self.root.conditions.extend(conds);
        self
    }

    /// Add a grouping component (pairing when called more than once).
    pub fn group_by(mut self, path: AttrPath) -> Self {
        self.groupings.push(RestrictedPath::new(path));
        self
    }

    /// Add a restricted grouping component.
    pub fn group_by_restricted(mut self, rp: RestrictedPath) -> Self {
        self.groupings.push(rp);
        self
    }

    /// Set the measuring expression.
    pub fn measure(mut self, path: AttrPath) -> Self {
        self.measuring = Some(RestrictedPath::new(path));
        self
    }

    /// Set a restricted measuring expression.
    pub fn measure_restricted(mut self, rp: RestrictedPath) -> Self {
        self.measuring = Some(rp);
        self
    }

    /// Add a further aggregate operation.
    pub fn also(mut self, op: AggOp) -> Self {
        self.ops.push(op);
        self
    }

    /// Add a HAVING restriction on the `idx`-th aggregate.
    pub fn having(mut self, idx: usize, op: CondOp, value: Term) -> Self {
        self.result_restrictions.push(ResultRestriction { op_index: idx, op, value });
        self
    }
}

impl HifunQuery {
    /// The query in HIFUN notation with its IRIs named against `ns`: an IRI
    /// under `ns` by the rest of it, any other as `<iri>`. A query whose
    /// components and result carry no restrictions (printed `/E`, `/F`)
    /// reads back as itself with [`parse_hifun`](crate::parse_hifun)`(text,
    /// ns)`.
    pub fn notation(&self, ns: &str) -> String {
        self.text(Some(ns))
    }

    /// `(g, m, op)`, followed by ` | ` and the root when it is constrained.
    fn text(&self, ns: Option<&str>) -> String {
        let component = |rp: &RestrictedPath| {
            let mut s = path_name(&rp.path.steps, ns);
            if !rp.restrictions.is_empty() {
                s.push_str("/E");
            }
            s
        };
        let g = if self.groupings.is_empty() {
            "ε".to_owned()
        } else {
            self.groupings.iter().map(component).collect::<Vec<_>>().join(" ⊗ ")
        };
        let m = self.measuring.as_ref().map_or("ID".to_owned(), component);
        let ops: Vec<&str> = self.ops.iter().map(|o| o.sparql()).collect();
        let suffix = if self.result_restrictions.is_empty() { "" } else { "/F" };
        let mut text = format!("({g}, {m}, {}{suffix})", ops.join(","));
        if !self.root.is_unconstrained() {
            text = format!("{text} | {}", self.root.text(ns));
        }
        text
    }
}

impl fmt::Display for HifunQuery {
    /// HIFUN notation with every IRI by its local name, e.g.
    /// `(takesPlaceAt ⊗ (brand∘delivers), inQuantity, SUM)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text(None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes() {
        let q = HifunQuery::new(AggOp::Sum)
            .group_by(AttrPath::props(&["http://e/delivers", "http://e/brand"]))
            .group_by(AttrPath::prop("http://e/takesPlaceAt"))
            .measure(AttrPath::prop("http://e/inQuantity"))
            .also(AggOp::Avg)
            .having(0, CondOp::Gt, Term::integer(1000));
        assert_eq!(q.groupings.len(), 2);
        assert_eq!(q.ops, vec![AggOp::Sum, AggOp::Avg]);
        assert_eq!(q.result_restrictions.len(), 1);
    }

    #[test]
    fn display_uses_hifun_notation() {
        let q = HifunQuery::new(AggOp::Sum)
            .group_by(AttrPath::props(&["http://e/delivers", "http://e/brand"]))
            .measure(AttrPath::prop("http://e/inQuantity"));
        assert_eq!(q.to_string(), "(brand∘delivers, inQuantity, SUM)");
    }

    #[test]
    fn display_empty_grouping_and_identity() {
        let q = HifunQuery::new(AggOp::Count);
        assert_eq!(q.to_string(), "(ε, ID, COUNT)");
    }

    #[test]
    fn derived_step_in_path() {
        let p = AttrPath::prop("http://e/hasDate").derived(DerivedFn::Month);
        assert_eq!(p.display_name(), "month∘hasDate");
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn cond_op_test_matches_semantics() {
        use std::cmp::Ordering::*;
        assert!(CondOp::Ge.test(Equal));
        assert!(CondOp::Ge.test(Greater));
        assert!(!CondOp::Ge.test(Less));
        assert!(CondOp::Ne.test(Less));
        assert!(!CondOp::Eq.test(Greater));
    }
}
