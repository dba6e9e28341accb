//! Robustness fuzzing: no input — however malformed — may panic any parser.
//! Errors must come back as `Err`, never as a crash (the engine sits behind
//! a public endpoint, §6.1).

use rdf_analytics::model::{ntriples, turtle};
use rdf_analytics::sparql::{parse_query, Engine};
use rdf_analytics::store::Store;
use rdfa_prng::StdRng;

/// A random string of up to `max` chars drawn from printable ASCII with a
/// sprinkling of whitespace, control chars and multi-byte unicode — the kind
/// of junk a public endpoint actually receives.
fn fuzz_string(rng: &mut StdRng, max: usize) -> String {
    let n = rng.gen_range(0..=max);
    (0..n)
        .map(|_| match rng.gen_range(0..10) {
            0 => '\n',
            1 => '\t',
            2 => ['λ', 'é', '中', '🦀', '\u{0}', '\u{7f}'][rng.gen_range(0usize..6)],
            _ => rng.gen_range(b' '..=b'~') as char,
        })
        .collect()
}

fn printable(rng: &mut StdRng, max: usize) -> String {
    let n = rng.gen_range(0..=max);
    (0..n).map(|_| rng.gen_range(b' '..=b'~') as char).collect()
}

fn from_charset(rng: &mut StdRng, chars: &[u8], max: usize) -> String {
    let n = rng.gen_range(0..=max);
    (0..n)
        .map(|_| chars[rng.gen_range(0..chars.len())] as char)
        .collect()
}

const CASES: u64 = 256;

#[test]
fn turtle_parser_never_panics() {
    for case in 0..CASES {
        let input = fuzz_string(&mut StdRng::seed_from_u64(case), 200);
        let _ = turtle::parse(&input);
    }
}

#[test]
fn ntriples_parser_never_panics() {
    for case in 0..CASES {
        let input = fuzz_string(&mut StdRng::seed_from_u64(3000 + case), 200);
        let _ = ntriples::parse(&input);
    }
}

#[test]
fn sparql_parser_never_panics() {
    for case in 0..CASES {
        let input = fuzz_string(&mut StdRng::seed_from_u64(6000 + case), 200);
        let _ = parse_query(&input);
    }
}

#[test]
fn sparql_parser_never_panics_on_querylike() {
    let heads = ["SELECT", "CONSTRUCT", "ASK", "DESCRIBE", "PREFIX"];
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(9000 + case);
        let head = heads[rng.gen_range(0..heads.len())];
        let body = printable(&mut rng, 120);
        let _ = parse_query(&format!("{head} {body}"));
    }
}

#[test]
fn engine_never_panics_on_arbitrary_select() {
    let mut store = Store::new();
    store
        .load_turtle("@prefix ex: <http://e/> . ex:a ex:p ex:b .")
        .unwrap();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(12000 + case);
        let v1 = rng.gen_range(b'a'..=b'z') as char;
        let v2 = rng.gen_range(b'a'..=b'z') as char;
        let body = from_charset(
            &mut rng,
            b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789?<>:/{}.;, ",
            80,
        );
        let _ = Engine::builder(&store).build().run(&format!("SELECT ?{v1} ?{v2} WHERE {{ {body} }}"));
    }
}

#[test]
fn hifun_notation_parser_never_panics() {
    for case in 0..CASES {
        let input = fuzz_string(&mut StdRng::seed_from_u64(15000 + case), 120);
        let _ = rdf_analytics::hifun::parse_hifun(&input, "http://e/");
    }
}

/// A click-script line: a verb with arguments drawn from script syntax
/// fragments of the right kind, now and then of the wrong kind or glued to
/// junk.
fn script_line(rng: &mut StdRng) -> String {
    const PATHS: &[&str] = &["<http://e/p>", "ex:p", "^ex:p", "ex:p/^<http://e/q>", "_:b1", "ex:"];
    const TERMS: &[&str] = &[
        "\"x y\"", "\"a\\\"b\"@en", "\"7\"^^<http://e/t>", "\"\\u00e9\\n\"", "\"1\"^^ex:int", "42",
        "-7", "+3", "3.25", "1e3", ".5", "2021-06-10", "<http://e/v>", "ex:v", "_:b2", "*",
    ];
    const OTHER: &[&str] =
        &["=", "<", "<=", "!=", ">=", "[year]", "[day]", "avg", "count", "0", "#", "\"", "^"];
    let verbs: &[(&str, &[&[&str]])] = &[
        ("class", &[PATHS]),
        ("value", &[PATHS, TERMS]),
        ("path", &[PATHS, &["="], TERMS]),
        ("values", &[PATHS, TERMS, TERMS]),
        ("range", &[PATHS, TERMS, TERMS]),
        ("group", &[PATHS, &["[year]", "[month]"]]),
        ("measure", &[PATHS]),
        ("ops", &[&["avg", "sum", "max"], &["count", "min"]]),
        ("having", &[&["0", "1"], &["=", "!=", "<", "<=", ">", ">="], TERMS]),
        ("run", &[]),
        ("back", &[]),
        ("clear", &[]),
    ];
    let (verb, slots) = verbs[rng.gen_range(0..verbs.len())];
    let mut line = verb.to_owned();
    for slot in slots {
        let pool = if rng.gen_bool(0.9) { *slot } else { OTHER };
        line.push(if rng.gen_bool(0.9) { ' ' } else { '\t' });
        line.push_str(pool[rng.gen_range(0..pool.len())]);
        if rng.gen_bool(0.05) {
            line.push_str(&fuzz_string(rng, 3));
        }
    }
    line
}

#[test]
fn script_parser_never_panics() {
    use rdf_analytics::analytics::Script;
    let mut parsed = 0;
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(18000 + case);
        let junk = fuzz_string(&mut rng, 200);
        let prefix = "prefix ex: <http://e/>\n".to_owned();
        let lines = (0..rng.gen_range(1..4)).map(|_| script_line(&mut rng));
        let structured = prefix + &lines.collect::<Vec<_>>().join("\n");
        for input in [junk, structured] {
            // whatever parses prints as a script that parses back to itself
            if let Ok(script) = Script::parse(&input) {
                let printed = script.to_string();
                let again = Script::parse(&printed)
                    .unwrap_or_else(|e| panic!("case {case}: {e}\n{input}\n--\n{printed}"));
                assert_eq!(again, script, "case {case}:\n{input}\n--\n{printed}");
                parsed += 1;
            }
        }
    }
    assert!(parsed > CASES / 4, "only {parsed} fuzzed scripts parsed");
}

#[test]
fn update_parser_never_panics() {
    for case in 0..CASES {
        let input = fuzz_string(&mut StdRng::seed_from_u64(21000 + case), 160);
        let mut store = Store::new();
        let _ = rdf_analytics::sparql::execute_update(&mut store, &input);
    }
}

// ---- N-Triples round-trip properties -------------------------------------
//
// N-Triples is the durability format (WAL payloads, fallback exports), so
// serialize → parse must reproduce every literal exactly — including the
// adversarial ones.

use rdf_analytics::model::{Graph, Literal, Term, Triple};

/// A literal lexical form stuffed with escape-relevant characters: quotes,
/// backslashes, control chars, newlines, multi-byte unicode, astral planes.
fn adversarial_lexical(rng: &mut StdRng, max: usize) -> String {
    let n = rng.gen_range(0..=max);
    (0..n)
        .map(|_| match rng.gen_range(0..12) {
            0 => '"',
            1 => '\\',
            2 => '\n',
            3 => '\r',
            4 => '\t',
            5 => '\u{0}',
            6 => '\u{1b}',
            7 => '\u{7f}',
            8 => ['λ', '中', '🦀', '\u{e000}', '\u{10ffff}'][rng.gen_range(0usize..5)],
            _ => rng.gen_range(b' '..=b'~') as char,
        })
        .collect()
}

#[test]
fn ntriples_roundtrips_adversarial_literals() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(24000 + case);
        let mut graph = Graph::new();
        let term = match rng.gen_range(0..3) {
            0 => Term::string(adversarial_lexical(&mut rng, 40)),
            1 => Term::Literal(Literal::lang_string(adversarial_lexical(&mut rng, 40), "en")),
            _ => Term::iri(format!("http://e/o{case}")),
        };
        graph.push(Triple::new(
            Term::iri(format!("http://e/s{case}")),
            Term::iri("http://e/p"),
            term,
        ));
        let text = ntriples::serialize(&graph);
        let parsed = ntriples::parse(&text)
            .unwrap_or_else(|e| panic!("case {case}: serialized form unparsable: {e}\n{text}"));
        assert_eq!(
            parsed.iter().collect::<Vec<_>>(),
            graph.iter().collect::<Vec<_>>(),
            "case {case} round-trip mismatch"
        );
    }
}

#[test]
fn ntriples_rejects_lone_surrogate_escapes() {
    for (input, what) in [
        (r#"<http://e/s> <http://e/p> "\uD800" ."#, "high surrogate"),
        (r#"<http://e/s> <http://e/p> "\uDFFF" ."#, "low surrogate"),
        (r#"<http://e/s> <http://e/p> "\U0000D812" ."#, "surrogate via \\U"),
        (r#"<http://e/s> <http://e/p> "\U00110000" ."#, "beyond U+10FFFF"),
        (r#"<http://e/s> <http://e/p> "\u12" ."#, "truncated \\u"),
        (r#"<http://e/s> <http://e/p> "\q" ."#, "unknown escape"),
    ] {
        let err = ntriples::parse(input).expect_err(what);
        assert_eq!(err.line, 1, "{what}: {err}");
    }
}

#[test]
fn ntriples_accepts_bom_and_crlf() {
    let input = "\u{feff}<http://e/s> <http://e/p> \"v1\" .\r\n<http://e/s> <http://e/p> \"v2\" .\r\n";
    let graph = ntriples::parse(input).expect("BOM + CRLF input parses");
    assert_eq!(graph.len(), 2);
    // and the round-trip normalizes to plain LF without losing data
    let again = ntriples::parse(&ntriples::serialize(&graph)).unwrap();
    assert_eq!(again.len(), 2);
}

#[test]
fn ntriples_errors_carry_line_and_lexeme() {
    let input = "<http://e/s> <http://e/p> \"ok\" .\n<http://e/s> <http://e/p> \"\\uD800\" .";
    let err = ntriples::parse(input).expect_err("lone surrogate on line 2");
    assert_eq!(err.line, 2);
    assert!(!err.lexeme.is_empty());
    let msg = err.to_string();
    assert!(msg.contains("line 2"), "{msg}");
}
