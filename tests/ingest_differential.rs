//! Ingest differential: the bulk-ingest pipeline behind every `Store`
//! loader must produce a store **identical** to the seed per-triple path
//! (`rdfa_oracle::ingest`) — same term-id assignment, same generation
//! counter, same explicit and entailed indexes — on random documents and on
//! adversarial line-boundary cases (escaped newlines inside literals, CRLF
//! line endings, BOMs, comments, a final unterminated line).
//!
//! Also covered: parse-error parity (absolute line numbers), the streaming
//! reader/path loaders, and the durable-store bulk load including WAL
//! recovery, whose replay runs through the bulk pipeline without
//! materializing until the end of recovery. Block boundaries inside one
//! streamed load are covered by `rdfa-store`'s `bulk` unit tests.

use rdf_analytics::model::ntriples;
use rdf_analytics::store::{
    FsyncPolicy, LoadOptions, PersistConfig, PersistentStore, Store, TermId,
};
use rdfa_oracle::ingest as seed;
use rdfa_prng::StdRng;
use std::path::PathBuf;

/// Full structural equality: term table (id-by-id), generation, explicit
/// SPO scan, entailed size, and probes of the POS and OSP permutations.
fn assert_same_store(reference: &Store, got: &Store, ctx: &str) {
    assert_eq!(reference.term_count(), got.term_count(), "{ctx}: term count");
    for i in 0..reference.term_count() {
        let id = TermId(i as u32);
        assert_eq!(reference.term(id), got.term(id), "{ctx}: term id {i}");
    }
    assert_eq!(reference.generation(), got.generation(), "{ctx}: generation");
    assert_eq!(reference.len(), got.len(), "{ctx}: explicit triple count");
    assert_eq!(reference.len_entailed(), got.len_entailed(), "{ctx}: entailed count");
    let a: Vec<_> = reference.iter_explicit().collect();
    let b: Vec<_> = got.iter_explicit().collect();
    assert_eq!(a, b, "{ctx}: explicit SPO scan");
    for &[s, p, o] in a.iter().take(64) {
        let pos_a: Vec<_> = reference.matching(None, Some(p), Some(o)).collect();
        let pos_b: Vec<_> = got.matching(None, Some(p), Some(o)).collect();
        assert_eq!(pos_a, pos_b, "{ctx}: POS probe for (?,{p:?},{o:?})");
        let osp_a: Vec<_> = reference.matching(Some(s), None, Some(o)).collect();
        let osp_b: Vec<_> = got.matching(Some(s), None, Some(o)).collect();
        assert_eq!(osp_a, osp_b, "{ctx}: OSP probe for ({s:?},?,{o:?})");
    }
}

// ---- random document generation ------------------------------------------

fn iri(rng: &mut StdRng) -> String {
    format!("<http://ex.org/r{}>", rng.gen_range(0u32..40))
}

fn predicate(rng: &mut StdRng) -> String {
    format!("<http://ex.org/p{}>", rng.gen_range(0u32..8))
}

fn object(rng: &mut StdRng) -> String {
    // literal lexical forms deliberately include escape sequences — most
    // importantly \n, which the writer encodes as TWO characters, so a
    // loader that split lines on it would corrupt the term
    let lexicals = [
        "plain",
        r"line one\nline two",
        r#"say \"hi\""#,
        r"back\\slash",
        r"tab\there",
        "",
    ];
    match rng.gen_range(0..6) {
        0 => iri(rng),
        1 => format!("_:b{}", rng.gen_range(0u32..10)),
        2 => format!("\"{}\"", lexicals[rng.gen_range(0..lexicals.len())]),
        3 => format!("\"{}\"@en", lexicals[rng.gen_range(0..lexicals.len())]),
        4 => format!(
            "\"{}\"^^<http://www.w3.org/2001/XMLSchema#integer>",
            rng.gen_range(0i64..1000)
        ),
        _ => format!("\"{}\"", lexicals[rng.gen_range(0..lexicals.len())]),
    }
}

fn random_doc(rng: &mut StdRng, n_lines: usize) -> String {
    let mut out = String::new();
    for _ in 0..n_lines {
        match rng.gen_range(0..12) {
            0 => out.push_str("# a comment line\n"),
            1 => out.push('\n'),
            2 => out.push_str("   \n"),
            _ => {
                let (s, p, o) = (iri(rng), predicate(rng), object(rng));
                let ending = if rng.gen_bool(0.2) { "\r\n" } else { "\n" };
                out.push_str(&format!("{s} {p} {o} .{ending}"));
            }
        }
    }
    // sometimes leave the final triple unterminated by a newline
    if rng.gen_bool(0.3) {
        let (s, p, o) = (iri(rng), predicate(rng), object(rng));
        out.push_str(&format!("{s} {p} {o} ."));
    }
    out
}

// ---- the differentials ----------------------------------------------------

#[test]
fn bulk_load_matches_seed() {
    for case in 0u64..24 {
        let mut rng = StdRng::seed_from_u64(case);
        let n_lines = rng.gen_range(0..120);
        let doc = random_doc(&mut rng, n_lines);
        let mut reference = Store::new();
        let n = seed::load_ntriples(&mut reference, &doc).expect("seed parse");
        let mut bulk = Store::new();
        let stats = bulk.load_ntriples(&doc).expect("bulk parse");
        assert_eq!(stats.triples, n, "case {case}: triple count");
        assert_same_store(&reference, &bulk, &format!("case {case}"));
    }
}

#[test]
fn bulk_load_into_non_empty_store_matches_seed() {
    let preload = "<http://ex.org/r1> <http://ex.org/p0> \"already here\" .\n\
                   <http://ex.org/seed> <http://ex.org/p1> <http://ex.org/r2> .\n";
    for case in 100u64..112 {
        let mut rng = StdRng::seed_from_u64(case);
        // overlapping term/triple space with the preload, plus duplicates
        let n_lines = rng.gen_range(1..80);
        let doc = random_doc(&mut rng, n_lines);
        let mut reference = Store::new();
        seed::load_ntriples(&mut reference, preload).unwrap();
        seed::load_ntriples(&mut reference, &doc).unwrap();
        let mut bulk = Store::new();
        bulk.load_ntriples(preload).unwrap();
        bulk.load_ntriples(&doc).unwrap();
        assert_same_store(&reference, &bulk, &format!("case {case}"));
    }
}

#[test]
fn chunk_boundary_hazards() {
    // escaped \n stays two characters, CRLF and comments sit between
    // triples, the last line has no newline (split at every line by the
    // `bulk` unit test `boundary_hazards_split_at_every_line_give_the_same_store`)
    let doc = "\u{feff}<http://ex.org/a> <http://ex.org/p> \"one\\ntwo\\nthree\" .\r\n\
               # comment between triples\n\
               <http://ex.org/b> <http://ex.org/p> \"say \\\"hi\\\"\\n\" .\n\
               \n\
               <http://ex.org/c> <http://ex.org/p> \"trailing\\\\\" .\r\n\
               <http://ex.org/a> <http://ex.org/p> \"one\\ntwo\\nthree\" .\n\
               <http://ex.org/d> <http://ex.org/q> _:tail .";
    let mut reference = Store::new();
    let n = seed::load_ntriples(&mut reference, doc).expect("seed parse");
    assert_eq!(n, 5, "fixture should hold five triples (one duplicated)");
    let mut bulk = Store::new();
    let stats = bulk.load_ntriples(doc).expect("bulk parse");
    assert_eq!(stats.triples, 5);
    assert_eq!(stats.added, 4, "duplicate triple must collapse");
    assert_same_store(&reference, &bulk, "hazards");
}

#[test]
fn parse_errors_agree_with_seed_including_line_numbers() {
    // plant one malformed line at varying depths; the bulk loader must
    // report the same absolute line, lexeme and kind as the sequential
    // parser
    for case in 200u64..216 {
        let mut rng = StdRng::seed_from_u64(case);
        let n_lines = rng.gen_range(4..60);
        let mut doc = random_doc(&mut rng, n_lines);
        if !doc.ends_with('\n') {
            doc.push('\n');
        }
        let bad = ["<http://ex.org/unterminated", "\"open literal", "<a> <b> missing-dot"];
        doc.push_str(bad[(case % 3) as usize]);
        doc.push('\n');
        doc.push_str("<http://ex.org/x> <http://ex.org/p> \"after the error\" .\n");
        let seed_err = seed::load_ntriples(&mut Store::new(), &doc).expect_err("seed must reject");
        let mut bulk = Store::new();
        let bulk_err = bulk.load_ntriples(&doc).expect_err("bulk must reject");
        assert_eq!(seed_err, bulk_err, "case {case}");
        assert_eq!(bulk.len(), 0, "failed load must leave the store empty");
        assert_eq!(bulk.term_count(), Store::new().term_count(), "failed load interns nothing");
        assert_eq!(bulk.generation(), Store::new().generation(), "no generation bump");
    }
}

#[test]
fn reader_and_path_loaders_match_in_memory_load() {
    let mut rng = StdRng::seed_from_u64(42);
    let doc = random_doc(&mut rng, 400);
    let mut reference = Store::new();
    seed::load_ntriples(&mut reference, &doc).unwrap();

    let mut via_reader = Store::new();
    let stats = via_reader.load_ntriples_reader(doc.as_bytes()).expect("reader load");
    assert_same_store(&reference, &via_reader, "reader loader");

    let path = std::env::temp_dir().join(format!("rdfa-ingest-{}.nt", std::process::id()));
    std::fs::write(&path, &doc).unwrap();
    let mut via_path = Store::new();
    let path_stats =
        via_path.load_ntriples_path(&path, LoadOptions::default()).expect("path load");
    std::fs::remove_file(&path).ok();
    assert_eq!(stats, path_stats, "reader and path loads must report identically");
    assert_same_store(&reference, &via_path, "path loader");
}

#[test]
fn path_loader_reports_absolute_error_lines() {
    let good = "<http://ex.org/s> <http://ex.org/p> <http://ex.org/o> .\n";
    let doc = format!("{}{}", good.repeat(7), "<http://ex.org/broken\n");
    let path = std::env::temp_dir().join(format!("rdfa-ingest-bad-{}.nt", std::process::id()));
    std::fs::write(&path, &doc).unwrap();
    let err = Store::new()
        .load_ntriples_path(&path, LoadOptions::default())
        .expect_err("malformed file must be rejected");
    std::fs::remove_file(&path).ok();
    let msg = err.to_string();
    assert!(msg.contains("line 8"), "error must carry the absolute line: {msg}");
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rdfa-ingest-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn durable_bulk_load_and_wal_recovery_match_sequential_replay() {
    let mut rng = StdRng::seed_from_u64(7);
    let docs: Vec<String> = (0..3).map(|_| random_doc(&mut rng, 60)).collect();

    // what the seed replay produced: per-triple inserts for every logged
    // document, inference materialized once at the end of recovery
    let mut reference = Store::new();
    for doc in &docs {
        for t in ntriples::parse(doc).unwrap().iter() {
            reference.insert(t);
        }
    }
    reference.materialize_inference();

    let dir = tmpdir("durable");
    let config = PersistConfig { fsync: FsyncPolicy::Always, ..PersistConfig::default() };
    {
        let mut pstore = PersistentStore::open(&dir, config.clone()).unwrap();
        for (i, doc) in docs.iter().enumerate() {
            let stats = pstore.load_ntriples(doc).expect("durable bulk load");
            assert!(stats.triples > 0, "doc {i} should hold triples");
        }
        // live handle: same explicit contents as the reference (generation
        // accounting differs only by the per-load materialize bumps)
        let a: Vec<_> = reference.iter_explicit().collect();
        let b: Vec<_> = pstore.iter_explicit().collect();
        assert_eq!(a, b, "live durable store contents");
    }
    // reopen: WAL replay runs the bulk pipeline, materializing once
    let reopened = PersistentStore::open(&dir, config).unwrap();
    assert_eq!(reopened.recovery().wal_records_replayed, 3);
    assert_same_store(&reference, &reopened, "recovered store");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durable_path_load_survives_reopen() {
    let mut rng = StdRng::seed_from_u64(11);
    let doc = random_doc(&mut rng, 200);
    let path = std::env::temp_dir().join(format!("rdfa-ingest-seed-{}.nt", std::process::id()));
    std::fs::write(&path, &doc).unwrap();

    let mut reference = Store::new();
    seed::load_ntriples(&mut reference, &doc).unwrap();

    let dir = tmpdir("path");
    let config = PersistConfig { fsync: FsyncPolicy::Always, ..PersistConfig::default() };
    {
        let mut pstore = PersistentStore::open(&dir, config.clone()).unwrap();
        let stats = pstore.load_ntriples_path(&path).unwrap();
        let a: Vec<_> = reference.iter_explicit().collect();
        let b: Vec<_> = pstore.iter_explicit().collect();
        assert_eq!(a, b, "live path-loaded store contents");
        assert_eq!(stats.added, b.len(), "fresh store: every distinct triple is new");
    }
    let reopened = PersistentStore::open(&dir, config).unwrap();
    let a: Vec<_> = reference.iter_explicit().collect();
    let b: Vec<_> = reopened.iter_explicit().collect();
    assert_eq!(a, b, "recovered path-loaded store contents");
    assert_eq!(reference.len_entailed(), reopened.len_entailed());
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bulk_graph_load_matches_seed_load_graph() {
    use rdf_analytics::datagen::{InvoicesGenerator, ProductsGenerator};
    let products = ProductsGenerator::new(400, 3).generate();
    let invoices = InvoicesGenerator::new(250, 5).generate();
    let mut reference = Store::new();
    seed::load_graph(&mut reference, &products);
    seed::load_graph(&mut reference, &invoices);
    let mut bulk = Store::new();
    bulk.load_graph(&products);
    bulk.load_graph(&invoices);
    assert_same_store(&reference, &bulk, "graph load");
}
