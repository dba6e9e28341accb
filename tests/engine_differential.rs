//! Differential harness: the engine's physical plan must agree with the
//! reference evaluator (`rdfa_oracle::sparql`, an independent term-space
//! implementation) on every query and over every backend, including when
//! resource limits trip. Queries come from a fixed
//! corpus covering the operator surface (aggregates, OPTIONAL, UNION,
//! FILTER, BIND, VALUES, DISTINCT, ORDER BY, sub-SELECT, MINUS, property
//! paths, EXISTS, CONSTRUCT, ASK) plus seeded random BGP+aggregate
//! combinations, so a divergence in any operator's semantics shows up as a
//! row-set mismatch.

use rdf_analytics::datagen::{ProductsGenerator, EX};
use rdf_analytics::model::{vocab, Graph, Literal, Term};
use rdf_analytics::sparql::{
    execute_update_recording, CancelFlag, Engine, EvalLimits, EvalOptions, LimitKind,
    QueryResults, SparqlError,
};
use rdf_analytics::store::{FsyncPolicy, PersistConfig, PersistError, SharedStore, Store};
use rdfa_prng::StdRng;

fn store() -> Store {
    let mut s = Store::new();
    s.load_graph(&ProductsGenerator::new(120, 42).generate());
    s
}

/// A graph rebuilt on compressed mmap index segments: loaded into a
/// durable store, checkpointed into a segment generation, and
/// reopened from disk — the on-disk half of the mmap-vs-memory differential
/// tests.
fn mmap_store(tag: &str, graph: &Graph) -> (std::path::PathBuf, Store) {
    let dir = std::env::temp_dir()
        .join(format!("rdfa-engine-diff-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || PersistConfig {
        fsync: FsyncPolicy::Never,
        ..PersistConfig::default()
    };
    let p = SharedStore::open(&dir, config()).unwrap();
    p.transact(|txn| {
        let store = txn.store_mut();
        for t in graph.iter() {
            store.insert(t);
        }
        store.materialize_inference();
        Ok::<_, PersistError>(())
    })
    .unwrap();
    p.checkpoint().unwrap();
    drop(p);
    let store = Store::clone(&SharedStore::open(&dir, config()).unwrap().snapshot());
    (dir, store)
}

/// A products KG big enough that every stage of the corpus queries spans
/// several 1024-row morsels (the stretch between two guard probes), and
/// join steps read their pattern through a built scan side. On top of the
/// generator's `subClassOf` schema, `manufacturer` is a subproperty of
/// `producer` (an entirely inferred predicate), and a small `similarTo` run
/// holds a self-loop for `?x p ?x`. A few laptops carry an `ex:code` whose
/// lexical forms collide by value (`"7"`, `"07"`, `"+7"`) or are invalid for
/// their datatype, so grouping, DISTINCT and filters must compare values,
/// not ids.
fn big_graph() -> Graph {
    let mut g = ProductsGenerator::new(6000, 7).generate();
    let ex = |local: &str| Term::iri(format!("{EX}{local}"));
    g.add(ex("manufacturer"), Term::iri(vocab::rdfs::SUB_PROPERTY_OF), ex("producer"));
    g.add(ex("laptop0"), ex("similarTo"), ex("laptop0"));
    g.add(ex("laptop1"), ex("similarTo"), ex("laptop0"));
    let codes = [
        ("7", vocab::xsd::INTEGER),
        ("07", vocab::xsd::INTEGER),
        ("+7", vocab::xsd::INTEGER),
        ("7.0", vocab::xsd::DECIMAL),
        ("abc", vocab::xsd::INTEGER),
        ("2020-02-30", vocab::xsd::DATE),
    ];
    for (i, (lexical, datatype)) in codes.iter().enumerate() {
        for laptop in [i, i + 6, i + 12] {
            let code = Term::Literal(Literal::typed(*lexical, *datatype));
            g.add(ex(&format!("laptop{laptop}")), ex("code"), code);
        }
    }
    g
}

fn big_store() -> Store {
    let mut s = Store::new();
    s.load_graph(&big_graph());
    s
}

/// Order-insensitive canonical form of any result: solution rows (under
/// their variable header) or constructed triples, every cell rendered fully
/// and the rows sorted; a boolean as itself. The engine must agree with the
/// oracle up to row permutation (ORDER BY ties are unordered between
/// implementations).
fn canon(results: &QueryResults) -> (Vec<String>, Vec<Vec<Option<String>>>) {
    let cell = |t: &Term| Some(format!("{t:?}"));
    let (vars, mut rows): (Vec<String>, Vec<Vec<Option<String>>>) = match results {
        QueryResults::Solutions(s) => (
            s.vars().to_vec(),
            s.rows().iter().map(|r| r.iter().map(|c| c.as_ref().and_then(cell)).collect()).collect(),
        ),
        QueryResults::Graph(g) => (
            vec!["graph".to_owned()],
            g.iter().map(|t| vec![cell(&t.subject), cell(&t.predicate), cell(&t.object)]).collect(),
        ),
        QueryResults::Boolean(b) => (vec!["boolean".to_owned()], vec![vec![Some(b.to_string())]]),
    };
    rows.sort();
    (vars, rows)
}

fn oracle(s: &Store, q: &str, options: EvalOptions) -> Result<QueryResults, SparqlError> {
    rdfa_oracle::sparql::run(s, q, options)
}

/// Run one query on the oracle and on the plan, and demand agreement.
fn check(s: &Store, q: &str, ctx: &str) {
    let expected = oracle(s, q, EvalOptions::default())
        .unwrap_or_else(|e| panic!("oracle failed ({ctx}): {e}\n{q}"));
    let prepared = Engine::builder(s).build().prepare(q).unwrap();
    assert!(prepared.uses_id_space(), "{ctx}: every query runs on the plan\n{q}");
    let got = prepared.execute().unwrap_or_else(|e| panic!("plan failed ({ctx}): {e}\n{q}"));
    assert_eq!(canon(&expected), canon(&got), "{ctx}: the plan diverged from the oracle\n{q}");
}

const CORPUS: &[&str] = &[
    // plain BGP + ORDER BY
    "SELECT ?x ?p WHERE { ?x a ex:Laptop ; ex:price ?p . } ORDER BY ?p ?x",
    // FILTER with arithmetic
    "SELECT ?x WHERE { ?x ex:price ?p . FILTER(?p > 1000 && ?p < 2500) }",
    // aggregates over the whole solution
    "SELECT (COUNT(?x) AS ?n) (SUM(?p) AS ?s) (AVG(?p) AS ?a) (MIN(?p) AS ?lo) (MAX(?p) AS ?hi) \
     WHERE { ?x a ex:Laptop ; ex:price ?p . }",
    // GROUP BY with multiple aggregates
    "SELECT ?m (COUNT(?x) AS ?n) (AVG(?p) AS ?avg) WHERE { \
       ?x ex:manufacturer ?m ; ex:price ?p . } GROUP BY ?m",
    // GROUP BY two keys
    "SELECT ?m ?u (COUNT(?x) AS ?n) WHERE { \
       ?x ex:manufacturer ?m ; ex:USBPorts ?u . } GROUP BY ?m ?u",
    // COUNT DISTINCT and COUNT(*)
    "SELECT ?m (COUNT(DISTINCT ?u) AS ?du) (COUNT(*) AS ?all) WHERE { \
       ?x ex:manufacturer ?m ; ex:USBPorts ?u . } GROUP BY ?m",
    // HAVING
    "SELECT ?m (COUNT(?x) AS ?n) WHERE { ?x ex:manufacturer ?m . } \
     GROUP BY ?m HAVING (COUNT(?x) >= 3)",
    // GROUP_CONCAT and SAMPLE are order-sensitive; pin with MIN instead
    "SELECT ?m (MIN(?p) AS ?cheapest) WHERE { \
       ?x ex:manufacturer ?m ; ex:price ?p . } GROUP BY ?m ORDER BY ?cheapest",
    // OPTIONAL, bound and unbound branches
    "SELECT ?x ?f WHERE { ?x a ex:Company . OPTIONAL { ?x ex:founder ?f . } }",
    // OPTIONAL + FILTER inside
    "SELECT ?x ?g WHERE { ?x ex:origin ?c . OPTIONAL { ?c ex:GDPPerCapita ?g . FILTER(?g > 30000) } }",
    // UNION
    "SELECT ?x WHERE { { ?x a ex:Laptop . } UNION { ?x a ex:Company . } }",
    // UNION with disjoint variables
    "SELECT ?a ?b WHERE { { ?a a ex:Company . } UNION { ?b a ex:Continent . } }",
    // BIND + expression grouping
    "SELECT ?bucket (COUNT(?x) AS ?n) WHERE { \
       ?x ex:price ?p . BIND(IF(?p >= 1500, \"high\", \"low\") AS ?bucket) } GROUP BY ?bucket",
    // VALUES restriction
    "SELECT ?x ?u WHERE { VALUES ?u { 2 3 } ?x ex:USBPorts ?u . }",
    // DISTINCT projection
    "SELECT DISTINCT ?u WHERE { ?x ex:USBPorts ?u . }",
    // expression over aggregates (the paper's per-capita idiom)
    "SELECT ?m ((SUM(?p) / COUNT(?x)) AS ?mean) WHERE { \
       ?x ex:manufacturer ?m ; ex:price ?p . } GROUP BY ?m",
    // LIMIT/OFFSET after ORDER BY on a deterministic total order
    "SELECT ?x WHERE { ?x a ex:Laptop . } ORDER BY ?x LIMIT 7 OFFSET 3",
    // GROUP BY on a join chain (two hops)
    "SELECT ?cont (COUNT(?x) AS ?n) WHERE { \
       ?x ex:manufacturer ?m . ?m ex:origin ?c . ?c ex:locatedAt ?cont . } GROUP BY ?cont",
    // a join after OPTIONAL: the subject ?m is unbound in some rows
    "SELECT ?d ?m ?c WHERE { ?d a ex:HDType . \
       OPTIONAL { ?d ex:manufacturer ?m . FILTER(?m != ex:Company0) } ?m ex:origin ?c . }",
    // ?x p ?x after a join
    "SELECT ?x WHERE { ?x a ex:Laptop . ?x ex:similarTo ?x . }",
    // a constant-object step after a join
    "SELECT ?x ?p WHERE { ?x ex:USBPorts 4 . ?x a ex:Laptop . ?x ex:price ?p . }",
    // a predicate-variable step after a join
    "SELECT ?x ?q ?v WHERE { ?x ex:USBPorts 4 . ?x ?q ?v . }",
    // explicit then inferred types of one subject (subClassOf)
    "SELECT ?x ?d ?k WHERE { ?x ex:USBPorts 4 ; ex:hardDrive ?d . ?d a ?k . }",
    // an entirely inferred predicate (subPropertyOf), grouped
    "SELECT ?m (COUNT(?d) AS ?n) WHERE { ?x ex:hardDrive ?d . ?d ex:producer ?m . } GROUP BY ?m",
    // sub-SELECT joined after a pattern: outer-row-major, then inner order
    "SELECT ?x ?u ?p WHERE { ?x ex:USBPorts ?u . \
       { SELECT ?x ?p WHERE { ?x ex:price ?p . FILTER(?p > 2900) } } }",
    // the nesting shape: an aggregate with HAVING, restricted further out
    "SELECT ?m ?n ?c WHERE { \
       { SELECT ?m (COUNT(?x) AS ?n) WHERE { ?x a ex:Laptop ; ex:manufacturer ?m . } \
         GROUP BY ?m HAVING (COUNT(?x) >= 3) } \
       ?m ex:origin ?c . }",
    // MINUS on a shared variable
    "SELECT ?x WHERE { ?x a ex:Laptop . MINUS { ?x ex:manufacturer ex:Company0 . } }",
    // MINUS sharing no variable removes nothing
    "SELECT ?c WHERE { ?c a ex:Company . MINUS { ?y ex:founder ?f . } }",
    // property paths: inverse, sequence, alternative, *, +, ?
    "SELECT ?c ?x WHERE { ?c a ex:Company . ?c ^ex:manufacturer ?x . }",
    "SELECT ?x ?cont WHERE { ?x ex:manufacturer/ex:origin/ex:locatedAt ?cont . }",
    "SELECT ?x ?v WHERE { ?x a ex:Laptop . ?x ex:USBPorts|ex:hardDrive ?v . }",
    "SELECT ?c ?l WHERE { ?c a ex:Company . ?c ex:origin/ex:locatedAt* ?l . }",
    "SELECT ?x ?y WHERE { ?x ex:locatedAt+ ?y . }",
    "SELECT ?x WHERE { ?x ex:similarTo+ ?x . }",
    "SELECT ?x ?y WHERE { ?x a ex:Country . ?x ex:locatedAt? ?y . }",
    // FILTER EXISTS / NOT EXISTS, the pattern seeded with each row
    "SELECT ?c WHERE { ?c a ex:Company . \
       FILTER EXISTS { ?x ex:manufacturer ?c ; ex:USBPorts 4 . } }",
    "SELECT ?x ?p WHERE { ?x ex:price ?p . FILTER NOT EXISTS { ?x ex:USBPorts 4 . } }",
    // CONSTRUCT (compared as graphs) and ASK
    "CONSTRUCT { ?x ex:madeIn ?c . ?x ex:costs ?p . } \
     WHERE { ?x ex:manufacturer/ex:origin ?c ; ex:price ?p . FILTER(?p < 500) }",
    "ASK WHERE { ?x ex:similarTo ?x . }",
    "ASK WHERE { ?x ex:USBPorts 4 ; ex:price ?p . FILTER(?p > 2990) }",
    // Table 6.1's Q8 shape: an expression key memoized per distinct date
    "SELECT (YEAR(?d) AS ?y) (COUNT(DISTINCT ?x) AS ?n) WHERE { ?x ex:releaseDate ?d . } \
     GROUP BY YEAR(?d)",
    // keys and DISTINCT over literals equal by value but not by lexical form
    "SELECT ?c (COUNT(?x) AS ?n) (COUNT(DISTINCT ?x) AS ?dn) WHERE { ?x ex:code ?c . } GROUP BY ?c",
    "SELECT (COUNT(DISTINCT ?c) AS ?n) (SUM(DISTINCT ?c) AS ?s) WHERE { ?x ex:code ?c . }",
    // conjuncts memoized per id, over invalid lexical forms too
    "SELECT ?x ?c WHERE { ?x ex:code ?c . FILTER(?c >= 5 && ?c < 8) }",
    // COUNT(?m) tests binding: ?m is mostly unbound
    "SELECT ?u (COUNT(?m) AS ?nm) (COUNT(*) AS ?all) WHERE { ?x ex:USBPorts ?u . \
       OPTIONAL { ?x ex:code ?m . } } GROUP BY ?u",
    // a key over two variables is evaluated per row
    "SELECT (CONCAT(STR(?m), STR(?u)) AS ?k) (COUNT(?x) AS ?n) WHERE { \
       ?x ex:manufacturer ?m ; ex:USBPorts ?u . } GROUP BY CONCAT(STR(?m), STR(?u))",
    // ?u is the only visible variable, but the EXISTS reads ?x: split off
    // as a conjunct, and inside one expression that must not be memoized
    "SELECT ?x ?u WHERE { ?x ex:USBPorts ?u . FILTER(?u >= 2 && EXISTS { ?x ex:code ?c }) }",
    "SELECT ?x ?u WHERE { ?x ex:USBPorts ?u . FILTER(?u >= 4 || EXISTS { ?x ex:code ?c }) }",
    // ORDER BY two keys, one an expression, over every priced product
    "SELECT ?x ?p WHERE { ?x ex:price ?p . } ORDER BY DESC(FLOOR(?p / 100)) ?x",
];

/// The corpus agrees with the oracle, and its answers stay byte-identical
/// when four threads run it at once over one shared store, as the server's
/// connection workers run queries over one snapshot.
#[test]
fn corpus_queries_agree_across_engines_and_threads() {
    let s = store();
    let corpus: Vec<String> = CORPUS.iter().map(|q| format!("PREFIX ex: <{EX}> {q}")).collect();
    for (i, q) in corpus.iter().enumerate() {
        check(&s, q, &format!("corpus[{i}]"));
    }
    let alone: Vec<QueryResults> = corpus.iter().map(|q| run_id_space(&s, q)).collect();
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|scope| {
        for t in 0..4 {
            let (s, corpus, alone, start) = (&s, &corpus, &alone, &start);
            scope.spawn(move || {
                start.wait();
                // each thread walks the corpus from its own start
                for k in 0..corpus.len() {
                    let i = (k + 7 * t) % corpus.len();
                    let got = run_id_space(s, &corpus[i]);
                    assert_eq!(got, alone[i], "corpus[{i}] on thread {t}\n{}", corpus[i]);
                }
            });
        }
    });
}

/// The whole corpus answered over an mmap segment-backed store must be
/// *byte-identical* to the fully in-memory store — same rows, same order.
/// Segment round-trips preserve term ids and the
/// layered store iterates every permutation in the same order as the
/// in-memory index, so not even unordered results may permute.
#[test]
fn corpus_queries_byte_identical_over_mmap_segments() {
    let mem = store();
    let (dir, seg) = mmap_store("corpus", &ProductsGenerator::new(120, 42).generate());
    let stats = seg.segment_stats();
    assert!(stats.segments > 0, "the reopened store must actually be segment-backed");
    assert_eq!(mem.len(), seg.len());
    for (i, q) in CORPUS.iter().enumerate() {
        let q = format!("PREFIX ex: <{EX}> {q}");
        let (a, b) = (run_id_space(&mem, &q), run_id_space(&seg, &q));
        assert_eq!(a, b, "corpus[{i}]: mmap store diverged from memory\n{q}");
        // and over the segments the plan still agrees with the oracle
        check(&seg, &q, &format!("corpus[{i}] over mmap"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The corpus where join steps are large enough to scan their pattern's run
/// instead of probing per row: the plan agrees with the oracle, and its
/// answers are byte-identical in memory and over mmap segments.
#[test]
fn corpus_on_big_store_agrees_in_memory_and_over_mmap() {
    let graph = big_graph();
    let mem = big_store();
    let (dir, seg) = mmap_store("big-corpus", &graph);
    assert!(seg.segment_stats().segments > 0);
    let mut scanned = 0;
    for (i, q) in CORPUS.iter().enumerate() {
        let q = format!("PREFIX ex: <{EX}> {q}");
        check(&mem, &q, &format!("big corpus[{i}]"));
        let got = run_id_space(&seg, &q);
        assert_eq!(run_id_space(&mem, &q), got, "big corpus[{i}]: mmap diverged from memory\n{q}");
        let prepared = Engine::builder(&mem).build().prepare(&q).unwrap();
        prepared.execute().unwrap();
        let stats = prepared.last_stats().unwrap();
        scanned += stats.operators.iter().filter(|op| op.scanned > 0).count();
    }
    assert!(scanned >= 10, "the big store must exercise the scan side: {scanned} steps");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The explained plan's first step — the first operator line, looking
/// inside a `Union` or `SubSelect` — when it is an `IndexJoin` reading its
/// pattern from the seed row with no variable repeated (a repeated one, as
/// in `?x p ?x`, filters the run): its `est=` and `rows=` fields.
fn first_step_est_and_rows(explain: &str) -> Option<(u64, u64)> {
    let line = explain
        .lines()
        .skip_while(|l| !l.starts_with("physical plan:"))
        .skip(1)
        .map(str::trim)
        .find(|l| !l.starts_with("Union") && !l.starts_with("SubSelect"))?;
    let words: Vec<&str> = line.split_whitespace().collect();
    let [kind, s, _, o, ..] = words[..] else { return None };
    if kind != "IndexJoin" || (s.starts_with('?') && s == o) {
        return None;
    }
    let field = |key: &str| words.iter().find_map(|w| w.strip_prefix(key)).map(|v| v.parse().unwrap());
    Some((field("est=")?, field("rows=")?))
}

/// Estimates are exact run lengths ([`Store::run_len`]): on the big store
/// every corpus query's first join step estimates exactly the rows it
/// reads, in memory and over mmap — runs of more than 10,000 triples
/// included — and a star BGP drives from its shortest run. Here that is the
/// `producer` run (12,000 edges, all inferred), shorter than the `rdf:type`
/// run, and the answers still agree with the oracle.
#[test]
fn estimates_are_exact_run_lengths_on_the_big_store() {
    let graph = big_graph();
    let mem = big_store();
    let (dir, seg) = mmap_store("big-estimates", &graph);
    let star = format!(
        "PREFIX ex: <{EX}> SELECT ?k (COUNT(*) AS ?n) WHERE {{ ?x a ?k ; ex:producer ?m . }} GROUP BY ?k"
    );
    for (s, backing) in [(&mem, "memory"), (&seg, "mmap")] {
        let mut checked = 0;
        for (i, q) in CORPUS.iter().enumerate() {
            let q = format!("PREFIX ex: <{EX}> {q}");
            let prepared = Engine::builder(s).build().prepare(&q).unwrap();
            prepared.execute().unwrap();
            let text = prepared.explain();
            if let Some((est, rows)) = first_step_est_and_rows(&text) {
                assert_eq!(est, rows, "{backing} corpus[{i}]: estimate is not the run length
{text}");
                checked += 1;
            }
        }
        assert!(checked >= 40, "{backing}: only {checked} first steps read from the seed row");
        check(s, &star, &format!("{backing} star"));
        let prepared = Engine::builder(s).build().prepare(&star).unwrap();
        prepared.execute().unwrap();
        let text = prepared.explain();
        let first = text.lines().nth(1).unwrap_or_default();
        assert!(first.contains("IndexJoin ?x producer ?m est=12000 rows=12000"), "{backing}: {text}");
        let rdf_type = s.lookup_iri(vocab::rdf::TYPE);
        assert!(s.run_len(None, rdf_type, None) > 12_000, "{backing}: the type run is the longer one");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded random GROUP BY queries: random grouping key, random aggregate,
/// random filter threshold. Shapes the harness can't enumerate by hand.
#[test]
fn random_aggregate_queries_agree() {
    let s = store();
    let mut rng = StdRng::seed_from_u64(7);
    let keys = ["manufacturer", "USBPorts", "hardDrive"];
    let aggs = ["COUNT(?x)", "SUM(?p)", "AVG(?p)", "MIN(?p)", "MAX(?p)", "COUNT(DISTINCT ?p)"];
    for case in 0..40 {
        let key = keys[rng.gen_range(0..keys.len() as u32) as usize];
        let agg = aggs[rng.gen_range(0..aggs.len() as u32) as usize];
        let lo = rng.gen_range(300..2000u32);
        let distinct = if rng.gen_bool(0.3) { "DISTINCT " } else { "" };
        let q = format!(
            "PREFIX ex: <{EX}> SELECT {distinct}?k ({agg} AS ?v) WHERE {{ \
               ?x ex:{key} ?k ; ex:price ?p . FILTER(?p >= {lo}) }} GROUP BY ?k"
        );
        check(&s, &q, &format!("random[{case}]"));
    }
}

/// Random plain BGP selections with OPTIONAL/UNION decoration.
#[test]
fn random_pattern_queries_agree() {
    let s = store();
    let mut rng = StdRng::seed_from_u64(13);
    for case in 0..30 {
        let with_opt = rng.gen_bool(0.5);
        let with_union = rng.gen_bool(0.4);
        let max_ports = rng.gen_range(1..5u32);
        let mut body = format!("?x a ex:Laptop ; ex:USBPorts ?u . FILTER(?u <= {max_ports})");
        if with_opt {
            body.push_str(" OPTIONAL { ?x ex:manufacturer ?m . ?m ex:founder ?f . }");
        }
        if with_union {
            body = format!("{{ {body} }} UNION {{ ?x a ex:Company . }}");
        }
        let q = format!("PREFIX ex: <{EX}> SELECT * WHERE {{ {body} }}");
        check(&s, &q, &format!("pattern[{case}]"));
    }
}

/// When a resource limit trips, the plan and the oracle must surface the
/// SAME structured error — the limit kind and configured ceiling, not just
/// "some error" — including when the budget runs out inside a property
/// path, a sub-SELECT or an EXISTS pattern. (Exact trip *points* may
/// differ; the surfaced variant may not.)
#[test]
fn tripped_limits_agree_across_engines() {
    let s = store();
    let trip = |q: &str, limits: EvalLimits| -> (SparqlError, SparqlError) {
        let options = EvalOptions { limits: limits.clone(), ..EvalOptions::default() };
        let a = oracle(&s, q, options).expect_err("the oracle should trip");
        let b = Engine::builder(&s).limits(limits).build().run(q).expect_err("the plan should trip");
        (a, b)
    };
    let aggregate = "SELECT ?m (COUNT(?x) AS ?n) WHERE { ?x ex:manufacturer ?m ; ex:price ?p . } GROUP BY ?m";
    for limits in [
        EvalLimits::unlimited().with_max_rows(5),
        EvalLimits::unlimited().with_deadline(std::time::Duration::ZERO),
    ] {
        let (a, b) = trip(&format!("PREFIX ex: <{EX}> {aggregate}"), limits);
        assert!(a.is_resource_limit() && b.is_resource_limit(), "{a:?} vs {b:?}");
        assert_eq!(a, b, "engines surfaced different limit errors");
    }
    let nested = [
        // a path walked from both ends free
        "SELECT ?x ?c WHERE { ?x ex:manufacturer/ex:origin+ ?c . }",
        // a sub-SELECT that joins and walks a closure
        "SELECT ?m ?n WHERE { { SELECT ?m (COUNT(?x) AS ?n) WHERE { \
           ?x ex:manufacturer ?m . ?m ex:origin/ex:locatedAt+ ?cont . } GROUP BY ?m } }",
        // EXISTS over rows that charge next to nothing themselves
        "SELECT ?c WHERE { VALUES ?c { ex:Company0 ex:Company1 ex:Company2 ex:Company3 } \
           FILTER EXISTS { ?x ex:manufacturer ?c . ?x ex:manufacturer/ex:origin+ ?k . } }",
    ];
    let cancelled = CancelFlag::new();
    cancelled.cancel();
    for q in nested {
        let q = format!("PREFIX ex: <{EX}> {q}");
        for (limits, kind) in [
            (EvalLimits::unlimited().with_max_path_visits(5), LimitKind::PathVisits),
            (EvalLimits::unlimited().with_deadline(std::time::Duration::ZERO), LimitKind::Deadline),
            (EvalLimits::unlimited().with_max_memory_bytes(64), LimitKind::MemoryBytes),
            (EvalLimits::unlimited().with_cancel(cancelled.clone()), LimitKind::Cancelled),
        ] {
            let (a, b) = trip(&q, limits);
            assert_eq!(a, b, "engines surfaced different limit errors\n{q}");
            assert!(matches!(b, SparqlError::ResourceLimit { kind: k, .. } if k == kind), "{b:?}\n{q}");
        }
    }
}

/// A query under a limit that does NOT trip must return full results in
/// both engines — the guard must not distort row sets.
#[test]
fn generous_limits_do_not_distort_results() {
    let s = store();
    let q = format!(
        "PREFIX ex: <{EX}> SELECT ?m (COUNT(?x) AS ?n) WHERE {{ \
           ?x ex:manufacturer ?m . }} GROUP BY ?m"
    );
    let limits = EvalLimits::interactive();
    let a = oracle(&s, &q, EvalOptions { limits: limits.clone(), ..EvalOptions::default() }).unwrap();
    let b = Engine::builder(&s).limits(limits).build().run(&q).unwrap();
    assert_eq!(canon(&a), canon(&b));
    assert!(!a.solutions().unwrap().is_empty());
}

/// An update's `DELETE`/`INSERT … WHERE` — a path and a `MINUS` in the
/// WHERE — changes exactly the triples the oracle's SELECT of the same
/// WHERE instantiates.
#[test]
fn update_where_changes_exactly_what_the_oracle_select_instantiates() {
    let mut s = store();
    let where_ = "?x ex:manufacturer/ex:origin ?c ; ex:price ?p . MINUS { ?x ex:USBPorts 4 . }";
    let select = format!("PREFIX ex: <{EX}> SELECT ?x ?p ?c WHERE {{ {where_} }}");
    let rows = oracle(&s, &select, EvalOptions::default()).unwrap().into_solutions().unwrap();
    assert!(rows.len() > 20, "the WHERE must match a real share of the store");
    let term = |t: &Option<Term>| format!("{:?}", t.as_ref().unwrap());
    let mut want: Vec<String> = rows
        .rows()
        .iter()
        .flat_map(|r| {
            let (x, p, c) = (term(&r[0]), term(&r[1]), term(&r[2]));
            [format!("- {x} price {p}"), format!("+ {x} madeIn {c}")]
        })
        .collect();
    let (_, changes) = execute_update_recording(
        &mut s,
        &format!(
            "PREFIX ex: <{EX}> DELETE {{ ?x ex:price ?p }} INSERT {{ ?x ex:madeIn ?c }} WHERE {{ {where_} }}"
        ),
    )
    .unwrap();
    let local = |t: &Term| t.display_name();
    let mut got: Vec<String> = changes
        .iter()
        .map(|m| match m {
            rdf_analytics::store::Mutation::Remove(t) => {
                format!("- {:?} {} {:?}", t.subject, local(&t.predicate), t.object)
            }
            rdf_analytics::store::Mutation::Insert(t) => {
                format!("+ {:?} {} {:?}", t.subject, local(&t.predicate), t.object)
            }
        })
        .collect();
    want.sort();
    got.sort();
    assert_eq!(want, got);
}

// ---------------------------------------------------------------------------
// Multi-morsel inputs: every join, fold and scan-side build spans several
// 1024-row morsels, so the guard is probed between them.
// ---------------------------------------------------------------------------

fn run_id_space(s: &Store, q: &str) -> QueryResults {
    Engine::builder(s).build().run(q).unwrap_or_else(|e| panic!("{e}\n{q}"))
}

fn multi_morsel_queries() -> Vec<String> {
    vec![
        // scan → join → join chain, tens of morsels wide
        format!(
            "PREFIX ex: <{EX}> SELECT ?x ?m ?c WHERE {{ \
               ?x ex:manufacturer ?m . ?m ex:origin ?c . }}"
        ),
        // GROUP BY over a multi-morsel join
        format!(
            "PREFIX ex: <{EX}> SELECT ?m (COUNT(?x) AS ?n) (AVG(?p) AS ?avg) WHERE {{ \
               ?x ex:manufacturer ?m ; ex:price ?p . }} GROUP BY ?m"
        ),
        // filter + aggregate over the whole extension
        format!(
            "PREFIX ex: <{EX}> SELECT (COUNT(?x) AS ?n) (SUM(?p) AS ?s) WHERE {{ \
               ?x a ex:Laptop ; ex:price ?p . FILTER(?p > 700) }}"
        ),
        // Table 6.1's Q1: one group, counted without decoding
        format!("PREFIX ex: <{EX}> SELECT (COUNT(?x) AS ?n) WHERE {{ ?x a ex:Laptop . }}"),
        // Table 6.1's Q8: an expression key and COUNT(DISTINCT)
        format!(
            "PREFIX ex: <{EX}> SELECT (YEAR(?d) AS ?y) (COUNT(DISTINCT ?x) AS ?n) WHERE {{ \
               ?x ex:releaseDate ?d . }} GROUP BY YEAR(?d)"
        ),
    ]
}

/// Queries whose every stage spans several morsels agree with the oracle.
#[test]
fn multi_morsel_queries_agree_with_the_oracle() {
    let s = big_store();
    for (i, q) in multi_morsel_queries().iter().enumerate() {
        assert!(!run_id_space(&s, q).solutions().unwrap().is_empty(), "{q}");
        check(&s, q, &format!("multi-morsel[{i}]"));
    }
}

/// A tripped limit surfaces the same `(kind, limit)` pair whether the query
/// runs alone or on one, two or four threads at once over the same store:
/// each execution charges its own guard, so one request's trip neither
/// leaks into nor hides behind another's.
#[test]
fn tripped_limits_identical_across_thread_counts() {
    let s = big_store();
    let q = format!(
        "PREFIX ex: <{EX}> SELECT ?x ?m ?c WHERE {{ \
           ?x ex:manufacturer ?m . ?m ex:origin ?c . }}"
    );
    // a grouped query: its joins and its fold both span many morsels
    let grouped = format!(
        "PREFIX ex: <{EX}> SELECT ?m (COUNT(?x) AS ?n) WHERE {{ \
           ?x ex:manufacturer ?m ; ex:price ?p . }} GROUP BY ?m"
    );
    let run = |q: &str, limits: &EvalLimits| {
        Engine::builder(&s).limits(limits.clone()).build().run(q).expect_err("limit should trip")
    };
    for (q, limits) in [
        (&q, EvalLimits::unlimited().with_max_rows(100)),
        (&q, EvalLimits::unlimited().with_deadline(std::time::Duration::ZERO)),
        (&q, EvalLimits::unlimited().with_max_memory_bytes(4096)),
        (&grouped, EvalLimits::unlimited().with_max_rows(100)),
        (&grouped, EvalLimits::unlimited().with_max_memory_bytes(4096)),
        (&grouped, EvalLimits::unlimited().with_deadline(std::time::Duration::ZERO)),
    ] {
        let alone = run(q, &limits);
        assert!(alone.is_resource_limit(), "{alone:?}");
        for threads in [1usize, 2, 4] {
            let start = std::sync::Barrier::new(threads);
            std::thread::scope(|scope| {
                let run_together = || {
                    start.wait();
                    run(q, &limits)
                };
                let runs: Vec<_> = (0..threads).map(|_| scope.spawn(run_together)).collect();
                for r in runs {
                    assert_eq!(r.join().unwrap(), alone, "{threads} concurrent runs\n{q}");
                }
            });
        }
        if limits.max_memory_bytes.is_some() {
            assert_eq!(
                alone,
                SparqlError::ResourceLimit { kind: LimitKind::MemoryBytes, limit: 4096 },
                "{q}"
            );
        }
    }
}

/// A raised cancel flag stops a query whose joins and fold span many
/// morsels: both probe the guard at every morsel boundary (the server's
/// admission slot is released by the same mechanism, proven end-to-end in
/// `streaming_robustness.rs`).
#[test]
fn cancellation_stops_a_multi_morsel_query() {
    let s = big_store();
    for q in multi_morsel_queries() {
        let cancel = CancelFlag::new();
        cancel.cancel();
        let err = Engine::builder(&s)
            .limits(EvalLimits::unlimited().with_cancel(cancel))
            .build()
            .run(&q)
            .expect_err("raised flag must cancel evaluation");
        assert!(err.is_cancelled(), "{err:?}\n{q}");
    }
}

/// The prepared-query API reports a plan and per-operator cardinalities for
/// ID-space corpus queries (the acceptance bar for `explain()`).
/// On the big store the first step (`price`) probes from the seed row and
/// the second scans the `manufacturer` run — laptops' and drives' edges —
/// and the explained plan says which did which.
#[test]
fn explain_reports_operator_cardinalities() {
    let q = format!(
        "PREFIX ex: <{EX}> SELECT ?m (COUNT(?x) AS ?n) WHERE {{ \
           ?x ex:manufacturer ?m ; ex:price ?p . }} GROUP BY ?m"
    );
    for (s, scans) in [(store(), false), (big_store(), true)] {
        let engine = Engine::builder(&s).build();
        let prepared = engine.prepare(&q).unwrap();
        assert!(prepared.uses_id_space());
        prepared.execute().unwrap();
        let stats = prepared.last_stats().unwrap();
        assert!(stats.rows_out > 0);
        assert!(stats.operators.iter().any(|op| op.rows_out > 0));
        let text = prepared.explain();
        assert!(text.contains("physical plan:"), "{text}");
        assert!(text.contains("rows="), "{text}");
        assert!(text.contains(" scanned=0"), "the first step probes: {text}");
        let man = stats.operators.iter().find(|op| op.label.contains("manufacturer")).unwrap();
        let man_edges = s
            .matching(None, s.lookup(&Term::iri(format!("{EX}manufacturer"))), None)
            .count() as u64;
        if scans {
            assert_eq!(man.scanned, man_edges, "{text}");
            assert!(text.contains(&format!(" scanned={man_edges}")), "{text}");
        } else {
            assert_eq!(man.scanned, 0, "a small input probes: {text}");
        }
    }
}

/// The scan side's bytes count against `max_memory_bytes`: with the budget
/// set to exactly what the probe path's rows charge, the side is what
/// exceeds it, and the query fails with the memory limit.
#[test]
fn scan_side_build_is_charged_to_the_memory_budget() {
    let s = big_store();
    let q = format!(
        "PREFIX ex: <{EX}> SELECT (COUNT(*) AS ?n) WHERE {{ \
           ?x ex:manufacturer ?m ; ex:price ?p . }}"
    );
    let prepared = Engine::builder(&s).build().prepare(&q).unwrap();
    prepared.execute().unwrap();
    let stats = prepared.last_stats().unwrap();
    let joins: Vec<_> = stats.operators.iter().filter(|op| op.kind == "join").collect();
    assert!(joins.iter().any(|op| op.scanned > 0), "{joins:?}");
    // one EId per frame slot (?x ?m ?p) plus the provenance word per row
    let row_bytes = 3 * 4 + 4;
    let probe_bytes: u64 = joins.iter().map(|op| op.rows_out * row_bytes).sum();
    let err = Engine::builder(&s)
        .limits(EvalLimits::unlimited().with_max_memory_bytes(probe_bytes))
        .build()
        .run(&q)
        .expect_err("the side's bytes must exceed the budget");
    assert_eq!(
        err,
        SparqlError::ResourceLimit { kind: LimitKind::MemoryBytes, limit: probe_bytes }
    );
}

