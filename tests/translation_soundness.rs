//! Proposition 2 (soundness): on data satisfying HIFUN's functionality
//! assumption, the direct functional evaluation of a HIFUN query and the
//! evaluation of its SPARQL translation produce the same answer.
//!
//! Property test: random functional datasets × random queries drawn from
//! the whole query space the interaction model reaches (groupings,
//! compositions, derived attributes, restrictions, HAVING, every aggregate,
//! and roots with classes, inverse steps, term sets and two-bound ranges).

use rdf_analytics::hifun::{
    self, query::RestrictedPath, AggOp, AttrPath, CondOp, DerivedFn, HifunQuery, Restriction, Step,
};
use rdf_analytics::model::{Term, Value};
use rdf_analytics::sparql::Engine;
use rdf_analytics::store::Store;
use rdfa_prng::StdRng;

const EX: &str = "http://t/";

fn p(local: &str) -> String {
    format!("{EX}{local}")
}

/// A random functional dataset: items with `cat` (resource), `num`
/// (integer), `date` (xsd:date) attributes; categories have a `region`.
#[derive(Debug, Clone)]
struct Dataset {
    /// per item: (category index 0..3, num 0..50, month 1..12, has_num)
    items: Vec<(usize, i64, u8, bool)>,
}

fn rand_dataset(rng: &mut StdRng) -> Dataset {
    let n = rng.gen_range(1..25);
    let items = (0..n)
        .map(|_| {
            (
                rng.gen_range(0usize..3),
                rng.gen_range(0i64..50),
                rng.gen_range(1u8..13),
                rng.gen_bool(0.9),
            )
        })
        .collect();
    Dataset { items }
}

fn build_store(d: &Dataset) -> Store {
    let mut store = Store::new();
    let mut ttl = format!("@prefix ex: <{EX}> .\n@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n");
    // category backbone: cat0..cat2 with regions
    for (i, region) in [(0, "north"), (1, "south"), (2, "north")] {
        ttl.push_str(&format!("ex:cat{i} ex:region ex:{region} .\n"));
    }
    for (i, &(cat, num, month, has_num)) in d.items.iter().enumerate() {
        ttl.push_str(&format!("ex:item{i} a ex:Item ; ex:cat ex:cat{cat} "));
        ttl.push_str(&format!("; ex:date \"2021-{month:02}-10\"^^xsd:date "));
        if has_num {
            ttl.push_str(&format!("; ex:num {num} "));
        }
        ttl.push_str(".\n");
    }
    store.load_turtle(&ttl).unwrap();
    store
}

/// The query space: grouping choice × measuring choice × op × restrictions
/// × root conditions.
#[derive(Debug, Clone)]
struct QuerySpec {
    grouping: u8,      // 0 none, 1 cat, 2 cat/region, 3 month(date), 4 pair(cat, month)
    op: AggOp,
    measure_num: bool, // measure num vs identity-count
    m_restr: Option<i64>,
    root_cat: Option<usize>,
    having: Option<i64>,
    /// root class `Item`
    root_class: bool,
    /// items sharing a category with item `k` (`^cat∘cat∈{item_k}`)
    root_sibling: Option<usize>,
    /// `num∈{a, b}`, the second term written as a decimal when `true`: a
    /// term set tests identity, so that one matches nothing
    root_nums: Option<(i64, i64, bool)>,
    /// `num∈[lo, hi]`, or `month∘date∈[lo, hi]` when `true`
    root_range: Option<(i64, i64, bool)>,
}

fn rand_query(rng: &mut StdRng) -> QuerySpec {
    let ops = [AggOp::Count, AggOp::Sum, AggOp::Avg, AggOp::Min, AggOp::Max];
    QuerySpec {
        grouping: rng.gen_range(0u8..5),
        op: ops[rng.gen_range(0..ops.len())],
        measure_num: rng.gen_bool(0.5),
        m_restr: rng.gen_bool(0.5).then(|| rng.gen_range(0i64..40)),
        root_cat: rng.gen_bool(0.5).then(|| rng.gen_range(0usize..3)),
        having: rng.gen_bool(0.5).then(|| rng.gen_range(0i64..100)),
        root_class: rng.gen_bool(0.5),
        root_sibling: rng.gen_bool(0.3).then(|| rng.gen_range(0usize..25)),
        root_nums: rng
            .gen_bool(0.3)
            .then(|| (rng.gen_range(0i64..50), rng.gen_range(0i64..50), rng.gen_bool(0.5))),
        root_range: rng.gen_bool(0.4).then(|| {
            let (a, b) = (rng.gen_range(0i64..50), rng.gen_range(0i64..50));
            let month = rng.gen_bool(0.5);
            let (a, b) = if month { (a % 12 + 1, b % 12 + 1) } else { (a, b) };
            (a.min(b), a.max(b), month)
        }),
    }
}

fn build_query(spec: &QuerySpec) -> HifunQuery {
    let mut q = HifunQuery::new(spec.op);
    match spec.grouping {
        0 => {}
        1 => q = q.group_by(AttrPath::prop(p("cat"))),
        2 => q = q.group_by(AttrPath::props(&[&p("cat"), &p("region")])),
        3 => q = q.group_by(AttrPath::prop(p("date")).derived(DerivedFn::Month)),
        _ => {
            q = q
                .group_by(AttrPath::prop(p("cat")))
                .group_by(AttrPath::prop(p("date")).derived(DerivedFn::Month))
        }
    }
    // identity measuring only makes sense for COUNT
    let measure_num = spec.measure_num || spec.op != AggOp::Count;
    if measure_num {
        let mut rp = RestrictedPath::new(AttrPath::prop(p("num")));
        if let Some(t) = spec.m_restr {
            rp = rp.restricted(Restriction::cmp(CondOp::Ge, Term::integer(t)));
        }
        q = q.measure_restricted(rp);
    }
    if let Some(cat) = spec.root_cat {
        q = q.with_conditions(vec![Restriction::via(
            vec![Step::Prop(p("cat"))],
            CondOp::Eq,
            Term::iri(format!("{EX}cat{cat}")),
        )]);
    }
    if spec.root_class {
        q = q.over_class(p("Item"));
    }
    let conditions = &mut q.root.conditions;
    if let Some(k) = spec.root_sibling {
        let path = vec![Step::Prop(p("cat")), Step::Inv(p("cat"))];
        conditions.push(Restriction::one_of(path, vec![Term::iri(p(&format!("item{k}")))]));
    }
    if let Some((a, b, decimal)) = spec.root_nums {
        let b = if decimal { Term::decimal(b as f64) } else { Term::integer(b) };
        conditions.push(Restriction::one_of(vec![Step::Prop(p("num"))], vec![Term::integer(a), b]));
    }
    if let Some((lo, hi, month)) = spec.root_range {
        let path = if month {
            vec![Step::Prop(p("date")), Step::Derived(DerivedFn::Month)]
        } else {
            vec![Step::Prop(p("num"))]
        };
        conditions.push(Restriction::range(path, Some(Term::integer(lo)), Some(Term::integer(hi))));
    }
    if let Some(h) = spec.having {
        q = q.having(0, CondOp::Ge, Term::integer(h));
    }
    q
}

/// Canonical form of an answer: rows of rendered values, sorted. Numerics
/// are normalized through f64 so `900` and `900.0` compare equal.
fn canonical(rows: &[Vec<Option<Term>>]) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|c| match c {
                    None => "∅".to_owned(),
                    Some(t) => {
                        let v = Value::from_term(t);
                        match v.as_f64() {
                            Some(f) => format!("{:.6}", f),
                            None => v.render(),
                        }
                    }
                })
                .collect()
        })
        .collect();
    out.sort();
    out
}

#[test]
fn direct_eval_equals_translated_sparql() {
    for case in 0u64..128 {
        let mut rng = StdRng::seed_from_u64(case);
        let d = rand_dataset(&mut rng);
        let spec = rand_query(&mut rng);
        let store = build_store(&d);
        let q = build_query(&spec);
        let direct = hifun::direct::evaluate(&store, &q).unwrap();
        let sparql = hifun::translate::to_sparql(&q);
        let translated = Engine::builder(&store).build()
            .run(&sparql)
            .unwrap_or_else(|e| panic!("{e}\n{sparql}"))
            .into_solutions()
            .unwrap();
        assert_eq!(
            canonical(direct.rows()),
            canonical(translated.rows()),
            "case {case}: query {q} translated to:\n{sparql}"
        );
        // the root prints in the notation and reads back as itself
        let mut root_only = HifunQuery::new(AggOp::Count);
        root_only.root = q.root.clone();
        let printed = root_only.notation(EX);
        assert_eq!(hifun::parse_hifun(&printed, EX).unwrap(), root_only, "case {case}: {printed}");
    }
}

/// Off the functionality assumption, an item that meets a root term set or
/// range by two of its values is still one item: with a second `num` on
/// some items, the translation agrees with direct evaluation.
#[test]
fn multi_valued_root_conditions_admit_each_item_once() {
    for case in 0u64..64 {
        let mut rng = StdRng::seed_from_u64(1000 + case);
        let d = rand_dataset(&mut rng);
        let mut spec = rand_query(&mut rng);
        if spec.root_nums.is_none() && spec.root_range.is_none() {
            spec.root_range = Some((0, 49, false));
        }
        let mut store = build_store(&d);
        let mut second = format!("@prefix ex: <{EX}> .\n");
        for (i, item) in d.items.iter().enumerate() {
            if item.3 && rng.gen_bool(0.5) {
                second.push_str(&format!("ex:item{i} ex:num {} .\n", rng.gen_range(0i64..50)));
            }
        }
        store.load_turtle(&second).unwrap();
        let q = build_query(&spec);
        let direct = hifun::direct::evaluate(&store, &q).unwrap();
        let sparql = hifun::translate::to_sparql(&q);
        let translated = Engine::builder(&store).build()
            .run(&sparql)
            .unwrap_or_else(|e| panic!("{e}\n{sparql}"))
            .into_solutions()
            .unwrap();
        assert_eq!(
            canonical(direct.rows()),
            canonical(translated.rows()),
            "case {case}: query {q} translated to:\n{sparql}"
        );
    }
}

#[test]
fn regression_empty_grouping_with_unmatched_root_condition() {
    // historical shrink: single item in cat0, restriction to cat1 → empty
    // extension; both strategies must agree on the empty answer
    let d = Dataset { items: vec![(0, 0, 1, false)] };
    let spec = QuerySpec {
        grouping: 0,
        op: AggOp::Count,
        measure_num: false,
        m_restr: None,
        root_cat: Some(1),
        having: None,
        root_class: false,
        root_sibling: None,
        root_nums: None,
        root_range: None,
    };
    let store = build_store(&d);
    let q = build_query(&spec);
    let direct = hifun::direct::evaluate(&store, &q).unwrap();
    let translated = Engine::builder(&store).build()
        .run(&hifun::translate::to_sparql(&q))
        .unwrap()
        .into_solutions()
        .unwrap();
    assert_eq!(canonical(direct.rows()), canonical(translated.rows()));
}

#[test]
fn regression_identity_count_with_having() {
    // hand-picked case exercising COUNT(DISTINCT ?x1) + HAVING
    let d = Dataset { items: vec![(0, 5, 1, true), (0, 7, 2, true), (1, 9, 1, false)] };
    let store = build_store(&d);
    let q = HifunQuery::new(AggOp::Count)
        .group_by(AttrPath::prop(p("cat")))
        .having(0, CondOp::Ge, Term::integer(2));
    let direct = hifun::direct::evaluate(&store, &q).unwrap();
    let translated = Engine::builder(&store).build()
        .run(&hifun::translate::to_sparql(&q))
        .unwrap()
        .into_solutions()
        .unwrap();
    assert_eq!(canonical(direct.rows()), canonical(translated.rows()));
    assert_eq!(direct.len(), 1); // only cat0 has ≥ 2 items
}

#[test]
fn regression_avg_with_measure_restriction() {
    let d = Dataset { items: vec![(0, 10, 1, true), (0, 30, 1, true), (1, 50, 2, true)] };
    let store = build_store(&d);
    let q = HifunQuery::new(AggOp::Avg)
        .group_by(AttrPath::prop(p("cat")))
        .measure_restricted(
            RestrictedPath::new(AttrPath::prop(p("num")))
                .restricted(Restriction::cmp(CondOp::Ge, Term::integer(20))),
        );
    let direct = hifun::direct::evaluate(&store, &q).unwrap();
    let translated = Engine::builder(&store).build()
        .run(&hifun::translate::to_sparql(&q))
        .unwrap()
        .into_solutions()
        .unwrap();
    assert_eq!(canonical(direct.rows()), canonical(translated.rows()));
}
