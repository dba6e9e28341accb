//! Bulk-ingest benchmark: the seed ingest path versus the bulk pipeline —
//! zero-copy parsing, batch-local interning, sort-based index builds — on
//! the products KG serialized as N-Triples.
//!
//! Three contenders at each scale:
//!
//! 1. `seed`: the ingest implementation exactly as it stood before this PR,
//!    vendored below in [`seed_path`] — whole-document parse into owned
//!    heap-allocated `Term`s, a `HashMap<Term, TermId>` interner that clones
//!    every new term twice, and per-triple `BTreeSet` inserts. This is the
//!    pinned baseline: the PR also rebuilt the lexer and interner that the
//!    per-triple loader now shares, so timing only the in-tree
//!    path would understate the end-to-end change at the load sites.
//! 2. `per_triple`: the seed algorithm as the `rdfa-oracle` crate keeps it
//!    (`rdfa_oracle::ingest::load_ntriples`), running on this PR's lexer and
//!    id-keyed interner — isolates how much of the win comes from
//!    shared-component rework alone.
//! 3. `bulk`: the bulk pipeline behind `Store::load_ntriples` (zero-copy
//!    lexing, dedup-once interning, sorted bulk index construction). It runs
//!    on one thread.
//!
//! Before timing anything, asserts every contender produces the same store:
//! identical term tables (same ids in the same order), identical explicit
//! triple sets, and for the in-tree contenders identical generation and
//! entailed counts. Writes `BENCH_5.json` under the cargo target directory
//! (`target/tmp/BENCH_5.json`) so CI can archive the artifact; the tracked
//! `BENCH_5.json` at the repo root is a recorded run, never overwritten.
//!
//! Run with `cargo bench -p rdfa-bench --bench ingest_bench`.

use rdfa_datagen::ProductsGenerator;
use rdfa_model::ntriples;
use rdfa_oracle::ingest as per_triple;
use rdfa_store::{Store, TermId};
use std::time::Instant;

/// The ingest path exactly as it stood at the seed commit, vendored as the
/// pinned pre-PR baseline. Parser, interner and insert loop mirror the old
/// `ntriples::parse` / `Interner` / `Store::load_ntriples` line for line;
/// only the error plumbing is collapsed (this benchmark feeds it known-good
/// input, so error paths never execute and cannot affect timing). The one
/// omission is the RDFS closure recomputation at the end of a load — that
/// work is identical in every contender, so leaving it out of the baseline
/// biases the comparison *against* the bulk pipeline.
mod seed_path {
    use rdfa_model::term::unescape_literal_checked;
    use rdfa_model::vocab::xsd;
    use rdfa_model::{Literal, Term, Triple};
    use std::collections::{BTreeSet, HashMap};

    fn take_term(rest: &mut &str) -> Option<Term> {
        *rest = rest.trim_start();
        let s = *rest;
        if let Some(body) = s.strip_prefix('<') {
            let end = body.find('>')?;
            *rest = &body[end + 1..];
            Some(Term::iri(&body[..end]))
        } else if let Some(body) = s.strip_prefix("_:") {
            let end = body
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'))
                .unwrap_or(body.len());
            *rest = &body[end..];
            Some(Term::blank(&body[..end]))
        } else if let Some(body) = s.strip_prefix('"') {
            // scan for closing quote honouring backslash escapes
            let mut escaped = false;
            let mut end = None;
            for (i, c) in body.char_indices() {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    end = Some(i);
                    break;
                }
            }
            let end = end?;
            let lexical = unescape_literal_checked(&body[..end]).ok()?;
            let mut tail = &body[end + 1..];
            let term = if let Some(t) = tail.strip_prefix("^^<") {
                let close = t.find('>')?;
                let dt = &t[..close];
                tail = &t[close + 1..];
                Term::Literal(Literal::typed(lexical, dt))
            } else if let Some(t) = tail.strip_prefix('@') {
                let end = t
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .unwrap_or(t.len());
                let lang = &t[..end];
                tail = &t[end..];
                Term::Literal(Literal::lang_string(lexical, lang))
            } else {
                Term::Literal(Literal::typed(lexical, xsd::STRING))
            };
            *rest = tail;
            Some(term)
        } else {
            None
        }
    }

    fn parse_line(line: &str) -> Option<Triple> {
        let mut rest = line;
        let subject = take_term(&mut rest)?;
        let predicate = take_term(&mut rest)?;
        let object = take_term(&mut rest)?;
        (rest.trim() == ".").then(|| Triple::new(subject, predicate, object))
    }

    fn parse(input: &str) -> Vec<Triple> {
        let input = input.strip_prefix('\u{feff}').unwrap_or(input);
        let mut triples = Vec::new();
        for line in input.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            triples.push(parse_line(line).expect("baseline parse"));
        }
        triples
    }

    /// The seed-commit store shape: `Vec<Term>` + `HashMap<Term, id>`
    /// interner (SipHash over the full term, two clones per new term) and
    /// three `BTreeSet` permutations grown one triple at a time.
    #[derive(Default)]
    pub struct SeedStore {
        pub terms: Vec<Term>,
        ids: HashMap<Term, u32>,
        pub spo: BTreeSet<[u32; 3]>,
        pos: BTreeSet<[u32; 3]>,
        osp: BTreeSet<[u32; 3]>,
        pub generation: u64,
    }

    impl SeedStore {
        /// Mirrors `Store::new`: the seed store pre-interned the well-known
        /// RDFS/OWL vocabulary, so ids line up with the in-tree stores.
        pub fn new() -> Self {
            use rdfa_model::vocab::{owl, rdf, rdfs};
            let mut s = SeedStore::default();
            for iri in [
                rdf::TYPE,
                rdfs::SUB_CLASS_OF,
                rdfs::SUB_PROPERTY_OF,
                rdfs::DOMAIN,
                rdfs::RANGE,
                rdfs::CLASS,
                rdf::PROPERTY,
                owl::FUNCTIONAL_PROPERTY,
            ] {
                s.get_or_intern(&Term::iri(iri));
            }
            s
        }

        fn get_or_intern(&mut self, term: &Term) -> u32 {
            if let Some(&id) = self.ids.get(term) {
                return id;
            }
            let id = self.terms.len() as u32;
            self.terms.push(term.clone());
            self.ids.insert(term.clone(), id);
            id
        }

        pub fn load_ntriples(&mut self, text: &str) -> usize {
            let triples = parse(text);
            let n = triples.len();
            for t in &triples {
                let s = self.get_or_intern(&t.subject);
                let p = self.get_or_intern(&t.predicate);
                let o = self.get_or_intern(&t.object);
                let added = self.spo.insert([s, p, o]);
                self.pos.insert([p, o, s]);
                self.osp.insert([o, s, p]);
                if added {
                    self.generation += 1;
                }
            }
            n
        }
    }
}

/// Time `f`, dropping whatever it built *outside* the measured window —
/// tearing down a half-gigabyte store is not part of ingest.
fn time_one<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    let built = f();
    let secs = t0.elapsed().as_secs_f64();
    drop(built);
    secs
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn assert_identical(reference: &Store, got: &Store, ctx: &str) {
    assert_eq!(reference.term_count(), got.term_count(), "{ctx}: term count");
    for i in 0..reference.term_count() {
        let id = TermId(i as u32);
        assert_eq!(reference.term(id), got.term(id), "{ctx}: term id {i}");
    }
    assert_eq!(reference.generation(), got.generation(), "{ctx}: generation");
    assert_eq!(reference.len_entailed(), got.len_entailed(), "{ctx}: entailed");
    let a: Vec<_> = reference.iter_explicit().collect();
    let b: Vec<_> = got.iter_explicit().collect();
    assert_eq!(a, b, "{ctx}: explicit SPO scan");
}

/// The vendored baseline must agree with the in-tree store on term ids
/// (same terms, same order — the bulk pipeline's canonical-order guarantee
/// extends all the way back to the seed commit) and on the explicit set.
fn assert_baseline_matches(baseline: &seed_path::SeedStore, reference: &Store) {
    assert_eq!(baseline.terms.len(), reference.term_count(), "baseline: term count");
    for (i, t) in baseline.terms.iter().enumerate() {
        assert_eq!(t, reference.term(TermId(i as u32)), "baseline: term id {i}");
    }
    let got: Vec<_> = baseline.spo.iter().map(|&[s, p, o]| [TermId(s), TermId(p), TermId(o)]).collect();
    let want: Vec<_> = reference.iter_explicit().collect();
    assert_eq!(baseline.generation as usize, want.len(), "baseline: one bump per added triple");
    assert_eq!(got, want, "baseline: explicit SPO scan");
}

struct ScaleResult {
    triples: usize,
    terms: usize,
    bytes: usize,
    reps: usize,
    seed_secs: f64,
    per_triple_secs: f64,
    bulk_secs: f64,
}

fn bench_scale(n_products: usize, reps: usize) -> ScaleResult {
    let graph = ProductsGenerator::new(n_products, 1).generate();
    let text = ntriples::serialize(&graph);
    drop(graph);

    // correctness gate: every contender must produce the same store
    let mut reference = Store::new();
    let n = per_triple::load_ntriples(&mut reference, &text).expect("per-triple load");
    let mut baseline = seed_path::SeedStore::new();
    assert_eq!(baseline.load_ntriples(&text), n, "baseline triple count");
    assert_baseline_matches(&baseline, &reference);
    drop(baseline);
    let mut bulk = Store::new();
    let stats = bulk.load_ntriples(&text).expect("bulk");
    assert_eq!(stats.triples, n, "bulk triple count");
    assert_identical(&reference, &bulk, "bulk");
    drop(bulk);

    // interleave the contenders within each rep — shared-box CPU throttling
    // drifts on a seconds timescale, so adjacent measurements see the same
    // conditions while widely separated ones do not
    let mut seed_samples = Vec::with_capacity(reps);
    let mut per_triple_samples = Vec::with_capacity(reps);
    let mut bulk_samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        seed_samples.push(time_one(|| {
            let mut s = seed_path::SeedStore::new();
            s.load_ntriples(&text);
            s
        }));
        per_triple_samples.push(time_one(|| {
            let mut s = Store::new();
            per_triple::load_ntriples(&mut s, &text).unwrap();
            s
        }));
        bulk_samples.push(time_one(|| {
            let mut s = Store::new();
            s.load_ntriples(&text).unwrap();
            s
        }));
    }

    ScaleResult {
        triples: n,
        terms: reference.term_count(),
        bytes: text.len(),
        reps,
        seed_secs: median(seed_samples),
        per_triple_secs: median(per_triple_samples),
        bulk_secs: median(bulk_samples),
    }
}

fn main() {
    // ~8 triples per product: 7,100 → ~57k triples, 63,500 → ~509k triples
    let small = bench_scale(7_100, 7);
    let large = bench_scale(63_500, 5);
    assert!(
        large.triples >= 500_000,
        "large scale must hold at least 500k triples, got {}",
        large.triples
    );

    let scale_json = |s: &ScaleResult| {
        format!(
            "{{\n    \"triples\": {},\n    \"terms\": {},\n    \"ntriples_bytes\": {},\n    \"reps\": {},\n    \"seed_secs\": {:.6},\n    \"per_triple_secs\": {:.6},\n    \"bulk_secs\": {:.6},\n    \"speedup_bulk_vs_seed\": {:.3}\n  }}",
            s.triples,
            s.terms,
            s.bytes,
            s.reps,
            s.seed_secs,
            s.per_triple_secs,
            s.bulk_secs,
            s.seed_secs / s.bulk_secs,
        )
    };
    let json = format!(
        "{{\n  \"bench\": \"bulk_ingest\",\n  \"small\": {},\n  \"large\": {}\n}}\n",
        scale_json(&small),
        scale_json(&large)
    );
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("BENCH_5.json");
    std::fs::write(&out, &json).expect("write BENCH_5.json");
    println!("{json}");
    println!("wrote {}", out.display());
}
