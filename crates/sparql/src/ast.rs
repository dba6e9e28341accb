//! Abstract syntax of the supported SPARQL fragment.

use rdfa_model::Term;

/// A complete query: prologue prefixes plus the query form.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub form: QueryForm,
}

/// The query form.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryForm {
    Select(SelectQuery),
    /// `CONSTRUCT { template } WHERE { pattern }` — used by feature-creation
    /// operators (§4.1.2) to derive new datasets.
    Construct {
        template: Vec<TriplePattern>,
        where_: GroupPattern,
    },
    /// `ASK WHERE { pattern }`
    Ask(GroupPattern),
    /// `DESCRIBE <iri>…` — returns the concise bounded description of the
    /// named resources (all triples with the resource as subject, expanding
    /// through blank-node objects).
    Describe(Vec<Term>),
}

/// A `SELECT` query (possibly nested as a sub-select).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    pub distinct: bool,
    pub projection: Projection,
    pub where_: GroupPattern,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderSpec>,
    pub limit: Option<usize>,
    pub offset: Option<usize>,
}

/// The projection clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Projection {
    /// `SELECT *`
    Star,
    /// Explicit items.
    Items(Vec<SelectItem>),
}

/// One projected column.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    pub expr: Expr,
    /// Output name: the variable name, the `AS` alias, or a synthesized name
    /// for bare expressions.
    pub alias: String,
}

/// `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderSpec {
    pub expr: Expr,
    pub descending: bool,
}

/// A group graph pattern: a sequence of elements combined by join.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroupPattern {
    pub elements: Vec<PatternElement>,
}

/// One element of a group pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternElement {
    Triple(TriplePattern),
    Filter(Expr),
    Optional(GroupPattern),
    Union(Vec<GroupPattern>),
    /// `BIND(expr AS ?v)`
    Bind(Expr, String),
    /// Inline data: `VALUES (?a ?b) { (..) (..) }`; `None` = UNDEF.
    Values(Vec<String>, Vec<Vec<Option<Term>>>),
    SubSelect(Box<SelectQuery>),
    /// `MINUS { ... }`: remove rows compatible with a solution of the inner
    /// pattern (on shared variables).
    Minus(GroupPattern),
    /// A nested group `{ ... }` evaluated as a unit (scope barrier ignored:
    /// our fragment does not rely on bottom-up scoping subtleties).
    Group(GroupPattern),
}

/// A triple pattern whose predicate may be a property path.
#[derive(Debug, Clone, PartialEq)]
pub struct TriplePattern {
    pub subject: TermPattern,
    pub predicate: PathOrVar,
    pub object: TermPattern,
}

/// Subject/object position: variable or concrete term.
#[derive(Debug, Clone, PartialEq)]
pub enum TermPattern {
    Var(String),
    Term(Term),
}

impl TermPattern {
    /// The variable name, if this is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            TermPattern::Var(v) => Some(v),
            TermPattern::Term(_) => None,
        }
    }
}

/// Predicate position: a variable, or a property path (a single IRI is the
/// trivial path).
#[derive(Debug, Clone, PartialEq)]
pub enum PathOrVar {
    Var(String),
    Path(PropertyPath),
}

/// SPARQL 1.1 property paths (§4.2's arbitrarily long paths; Fig 5.5's
/// path expansion relies on sequences).
#[derive(Debug, Clone, PartialEq)]
pub enum PropertyPath {
    Iri(String),
    Inverse(Box<PropertyPath>),
    Sequence(Box<PropertyPath>, Box<PropertyPath>),
    Alternative(Box<PropertyPath>, Box<PropertyPath>),
    ZeroOrMore(Box<PropertyPath>),
    OneOrMore(Box<PropertyPath>),
    ZeroOrOne(Box<PropertyPath>),
}

impl PropertyPath {
    /// Build a sequence path from IRIs: `p1/p2/.../pk`.
    pub fn sequence_of(iris: &[&str]) -> PropertyPath {
        let mut it = iris.iter();
        let first = PropertyPath::Iri((*it.next().expect("non-empty path")).to_owned());
        it.fold(first, |acc, p| {
            PropertyPath::Sequence(Box::new(acc), Box::new(PropertyPath::Iri((*p).to_owned())))
        })
    }
}

/// Expressions: used in FILTER, BIND, HAVING, SELECT, GROUP BY, ORDER BY.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Var(String),
    Const(Term),
    Or(Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    Compare(Box<Expr>, CompareOp, Box<Expr>),
    Arith(Box<Expr>, ArithOp, Box<Expr>),
    Neg(Box<Expr>),
    /// `expr IN (e1, …)` / `NOT IN`
    In(Box<Expr>, Vec<Expr>, bool),
    /// Built-in call by (upper-cased) name.
    Call(String, Vec<Expr>),
    /// Aggregate call; only valid where aggregation is in scope.
    Aggregate(AggregateOp, bool, Option<Box<Expr>>),
    /// `EXISTS { ... }` / `NOT EXISTS { ... }` (bool = negated).
    Exists(GroupPattern, bool),
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Aggregate operations (§2.4: COUNT, SUM, AVG, MIN, MAX, GROUP_CONCAT).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregateOp {
    Count,
    Sum,
    Avg,
    Min,
    Max,
    Sample,
    GroupConcat,
}

impl AggregateOp {
    /// The SPARQL keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            AggregateOp::Count => "COUNT",
            AggregateOp::Sum => "SUM",
            AggregateOp::Avg => "AVG",
            AggregateOp::Min => "MIN",
            AggregateOp::Max => "MAX",
            AggregateOp::Sample => "SAMPLE",
            AggregateOp::GroupConcat => "GROUP_CONCAT",
        }
    }

    /// Parse from a (case-insensitive) keyword.
    pub fn from_keyword(kw: &str) -> Option<Self> {
        match kw.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggregateOp::Count),
            "SUM" => Some(AggregateOp::Sum),
            "AVG" => Some(AggregateOp::Avg),
            "MIN" => Some(AggregateOp::Min),
            "MAX" => Some(AggregateOp::Max),
            "SAMPLE" => Some(AggregateOp::Sample),
            "GROUP_CONCAT" => Some(AggregateOp::GroupConcat),
            _ => None,
        }
    }
}

impl Expr {
    /// True if the expression contains an aggregate call.
    pub fn has_aggregate(&self) -> bool {
        match self {
            Expr::Aggregate(..) => true,
            Expr::Var(_) | Expr::Const(_) | Expr::Exists(..) => false,
            Expr::Or(a, b) | Expr::And(a, b) | Expr::Compare(a, _, b) | Expr::Arith(a, _, b) => {
                a.has_aggregate() || b.has_aggregate()
            }
            Expr::Not(e) | Expr::Neg(e) => e.has_aggregate(),
            Expr::In(e, list, _) => e.has_aggregate() || list.iter().any(Expr::has_aggregate),
            Expr::Call(_, args) => args.iter().any(Expr::has_aggregate),
        }
    }

    /// True if the expression contains an `EXISTS` pattern, whose variables
    /// [`Expr::variables`] does not report.
    pub fn has_exists(&self) -> bool {
        match self {
            Expr::Exists(..) => true,
            Expr::Var(_) | Expr::Const(_) | Expr::Aggregate(_, _, None) => false,
            Expr::Or(a, b) | Expr::And(a, b) | Expr::Compare(a, _, b) | Expr::Arith(a, _, b) => {
                a.has_exists() || b.has_exists()
            }
            Expr::Not(e) | Expr::Neg(e) | Expr::Aggregate(_, _, Some(e)) => e.has_exists(),
            Expr::In(e, list, _) => e.has_exists() || list.iter().any(Expr::has_exists),
            Expr::Call(_, args) => args.iter().any(Expr::has_exists),
        }
    }

    /// Collect variable names referenced by the expression.
    pub fn variables(&self, out: &mut Vec<String>) {
        match self {
            Expr::Var(v) => {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            Expr::Const(_) => {}
            Expr::Or(a, b) | Expr::And(a, b) | Expr::Compare(a, _, b) | Expr::Arith(a, _, b) => {
                a.variables(out);
                b.variables(out);
            }
            Expr::Not(e) | Expr::Neg(e) => e.variables(out),
            Expr::In(e, list, _) => {
                e.variables(out);
                for x in list {
                    x.variables(out);
                }
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.variables(out);
                }
            }
            Expr::Aggregate(_, _, Some(e)) => e.variables(out),
            Expr::Aggregate(_, _, None) => {}
            // EXISTS vars are scoped to the inner pattern
            Expr::Exists(..) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_detection() {
        let e = Expr::Arith(
            Box::new(Expr::Aggregate(AggregateOp::Sum, false, Some(Box::new(Expr::Var("x".into()))))),
            ArithOp::Div,
            Box::new(Expr::Const(Term::integer(2))),
        );
        assert!(e.has_aggregate());
        assert!(!Expr::Var("x".into()).has_aggregate());
    }

    #[test]
    fn sequence_path_builder() {
        let p = PropertyPath::sequence_of(&["a", "b", "c"]);
        match p {
            PropertyPath::Sequence(ab, c) => {
                assert_eq!(*c, PropertyPath::Iri("c".into()));
                match *ab {
                    PropertyPath::Sequence(a, b) => {
                        assert_eq!(*a, PropertyPath::Iri("a".into()));
                        assert_eq!(*b, PropertyPath::Iri("b".into()));
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn variable_collection_dedups() {
        let e = Expr::And(
            Box::new(Expr::Var("x".into())),
            Box::new(Expr::Compare(
                Box::new(Expr::Var("x".into())),
                CompareOp::Lt,
                Box::new(Expr::Var("y".into())),
            )),
        );
        let mut vars = Vec::new();
        e.variables(&mut vars);
        assert_eq!(vars, vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn aggregate_keyword_roundtrip() {
        for op in [
            AggregateOp::Count,
            AggregateOp::Sum,
            AggregateOp::Avg,
            AggregateOp::Min,
            AggregateOp::Max,
            AggregateOp::Sample,
            AggregateOp::GroupConcat,
        ] {
            assert_eq!(AggregateOp::from_keyword(op.keyword()), Some(op));
        }
        assert_eq!(AggregateOp::from_keyword("MEDIAN"), None);
    }
}
