//! `rdfa` — an interactive terminal front-end for RDF-Analytics, the
//! command-line counterpart of the paper's system demonstration (§6.2).
//!
//! ```text
//! $ cargo run --bin rdfa                       # starts on the demo KG
//! $ cargo run --bin rdfa -- --open ./kg.db     # durable store (WAL + segments)
//! rdfa> facets
//! rdfa> class Laptop
//! rdfa> group manufacturer
//! rdfa> measure price
//! rdfa> ops avg max
//! rdfa> run
//! rdfa> checkpoint
//! rdfa> help
//! ```
//!
//! The click commands (`class`, `value`, `path`, `range`, `group`, …) are
//! one-line click scripts (see `rdfa_core::script`). Property and resource
//! names may be given as plain local names; they are resolved against the
//! loaded KG. With `--open DIR` the store recovers from `DIR` on start; a
//! file argument seeds it only when it is empty, and `checkpoint` compacts
//! the WAL into compressed mmap-able index segments that the next start
//! maps back instead of replaying.

use rdf_analytics::analytics::script::resolve_path;
use rdf_analytics::analytics::{Action, AnalyticsSession, Script};
use rdf_analytics::facets::{markers, PathStep};
use rdf_analytics::model::{Term, Value};
use rdf_analytics::sparql::Engine;
use rdf_analytics::store::{PersistConfig, PersistError, SharedStore, Store, StoreStats};
use rdf_analytics::viz::{BarChart, BarDatum};
use std::io::{BufRead, IsTerminal, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut open_dir: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--open" {
            i += 1;
            match args.get(i) {
                Some(dir) => open_dir = Some(dir.clone()),
                None => {
                    eprintln!("--open needs a directory argument");
                    std::process::exit(2);
                }
            }
        } else if args[i].starts_with("--") {
            eprintln!("unknown flag {} (usage: rdfa [--open DIR] [FILE|invoices])", args[i]);
            std::process::exit(2);
        } else {
            positional.push(args[i].clone());
        }
        i += 1;
    }

    let shared = match &open_dir {
        Some(dir) => {
            let shared = SharedStore::open(dir, PersistConfig::from_env()).unwrap_or_else(|e| {
                eprintln!("cannot open {dir}: {e}");
                std::process::exit(2);
            });
            let r = shared.recovery().expect("an opened store is durable");
            eprintln!(
                "recovered {dir}: generation {}, {} checkpoint triples + {} WAL records",
                r.generation, r.checkpoint_triples, r.wal_records_replayed
            );
            shared
        }
        None => SharedStore::new(Store::new()),
    };
    // seed only an empty store; a recovered one keeps its state
    let held = shared.snapshot().len();
    if held == 0 {
        if let Err(e) = seed(&shared, positional.first()) {
            eprintln!("cannot load {e}");
            std::process::exit(1);
        }
    } else if let Some(path) = positional.first() {
        eprintln!("ignoring {path}: store already holds {held} triples");
    }
    // the session reads the snapshot it started on; `checkpoint` folds the
    // handle's published store, which the next start maps back
    let snapshot = shared.snapshot();
    let store: &Store = &snapshot;
    eprintln!(
        "KG ready: {} triples ({} entailed). Type 'help' for commands.",
        store.len(),
        store.len_entailed()
    );

    let mut session = AnalyticsSession::start(store);
    let stdin = std::io::stdin();
    // piped input (a script, CI's record/replay) gets the answers only
    let prompt = stdin.is_terminal();
    let mut out = std::io::stdout();
    loop {
        if prompt {
            print!("rdfa> ");
            let _ = out.flush();
        }
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match dispatch(line, &shared, store, &mut session) {
            Ok(Continue::Yes) => {}
            Ok(Continue::No) => break,
            Err(msg) => eprintln!("error: {msg}"),
        }
    }
}

/// Seed an empty store from a file (or the demo KG) in one transaction; a
/// durable store logs the load, so it survives a crash before the first
/// checkpoint. N-Triples files are streamed in blocks.
fn seed(shared: &SharedStore, path: Option<&String>) -> Result<(), String> {
    let loaded = shared.transact(|txn| match path.map(String::as_str) {
        Some("invoices") => {
            let g = rdf_analytics::datagen::InvoicesGenerator::new(300, 7).generate();
            txn.load_graph(&g).map(|_| None)
        }
        Some(path) if std::path::Path::new(path).exists() => {
            let n = if path.ends_with(".nt") {
                txn.load_ntriples_path(path)?.triples
            } else {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| PersistError::Io { context: "read turtle file", source: e })?;
                txn.load_turtle(&text)?
            };
            Ok(Some((n, path)))
        }
        _ => {
            let g = rdf_analytics::datagen::ProductsGenerator::new(200, 7).generate();
            txn.load_graph(&g).map(|_| None)
        }
    });
    match loaded {
        Ok((Some((n, path)), _)) => eprintln!("loaded {n} triples from {path}"),
        Ok((None, _)) => {}
        Err(e) => return Err(format!("{}: {e}", path.map_or("the demo KG", String::as_str))),
    }
    Ok(())
}

enum Continue {
    Yes,
    No,
}

fn dispatch(
    line: &str,
    shared: &SharedStore,
    store: &Store,
    session: &mut AnalyticsSession<'_>,
) -> Result<Continue, String> {
    let mut words = line.split_whitespace();
    let verb = words.next().unwrap_or("");
    let rest: Vec<&str> = words.collect();
    match verb {
        "help" => {
            println!("{HELP}");
        }
        "quit" | "exit" => return Ok(Continue::No),
        "checkpoint" => match shared.checkpoint().map_err(|e| e.to_string())? {
            Some(generation) => {
                let dir = shared.journal().expect("a checkpointed store is durable").dir();
                println!(
                    "checkpointed to generation {generation} in {} ({} triples, WAL reset)",
                    dir.display(),
                    shared.snapshot().len()
                );
            }
            None => return Err("store is in-memory only — start with --open DIR".into()),
        },
        "export" => {
            let path = rest.first().ok_or("usage: export <file.nt>")?;
            shared.export_ntriples(path).map_err(|e| e.to_string())?;
            println!("exported {} triples to {path}", shared.snapshot().len());
        }
        "stats" => {
            let stats = StoreStats::gather(store);
            print!("{}", stats.report(store));
        }
        "facets" => {
            println!("— classes —");
            print!(
                "{}",
                markers::render_class_markers(store, &session.facets().class_markers(), 0)
            );
            println!("— facets (focus: {} resources) —", session.facets().extension().len());
            print!(
                "{}",
                markers::render_property_facets(store, &session.facets().facets(), 0)
            );
        }
        "buckets" => {
            // buckets <prop> [n]
            let path = resolve_path(store, rest.first().ok_or("usage: buckets <prop> [n]")?)?;
            let n: usize = rest.get(1).and_then(|w| w.parse().ok()).unwrap_or(5);
            let buckets = rdf_analytics::facets::bucket_values(
                store,
                session.facets().extension(),
                &path,
                n,
            );
            if buckets.is_empty() {
                println!("(fewer than two distinct numeric values — flat list is better)");
            }
            for b in &buckets {
                println!("  {} ({})", b.label(), b.count);
            }
        }
        "grouped" => {
            let p = match resolve_path(store, rest.first().ok_or("usage: grouped <prop>")?)?[..] {
                [PathStep { prop, inverse: false }] => prop,
                _ => return Err("grouped takes one property".into()),
            };
            let gv = rdf_analytics::facets::grouped_values(
                store,
                session.facets().extension(),
                p,
            );
            print!(
                "{}",
                rdf_analytics::facets::markers::render_grouped_values(store, p, &gv)
            );
        }
        "expand" => {
            let path = resolve_path(store, rest.first().ok_or("usage: expand p1/p2")?)?;
            for (v, n) in session.facets().expand(&path) {
                println!("  {} ({n})", store.term(v).display_name());
            }
        }
        "class" | "value" | "values" | "path" | "range" | "group" | "measure" | "ops"
        | "having" | "back" | "clear" => {
            // a click is a one-line script
            let script = Script::parse_in(line, store).map_err(|e| e.message)?;
            script.apply(session).map_err(|e| e.message)?;
            match script.actions.first() {
                Some(Action::AddGrouping { .. }) => {
                    println!("grouping attributes: {}", session.groupings().len())
                }
                Some(Action::SetMeasure { .. } | Action::SetOps(_) | Action::AddHaving { .. }) => {}
                _ => show_focus(store, session),
            }
        }
        "run" => {
            let frame = session.run().map_err(|e| e.message)?;
            println!("{}", frame.hifun);
            print!("{}", frame.to_table());
            if frame.headers.len() >= 2 && frame.rows.len() > 1 {
                if let Ok(chart) = chart_of(&frame) {
                    println!("{}", chart.to_text(36));
                }
            }
        }
        "sparql" => println!("{}", session.sparql().map_err(|e| e.message)?),
        "intent" => println!("{}", session.facets().intent_sparql()),
        "reset" => {
            session.facets_mut().reset();
            session.clear_analytics();
            show_focus(store, session);
        }
        "explain" => {
            // execute once so the plan carries observed cardinalities
            // (rows=, scanned=), not just estimates
            let text = session.sparql().map_err(|e| e.message)?;
            let prepared =
                Engine::builder(store).build().prepare(&text).map_err(|e| e.message())?;
            prepared.execute().map_err(|e| e.message())?;
            print!("{}", prepared.explain());
        }
        "hifun" => {
            // evaluate a HIFUN query written in the paper's notation,
            // resolved against the KG's dominant namespace
            let text = line.trim_start_matches("hifun").trim();
            let ns = dominant_namespace(store);
            let q = rdf_analytics::hifun::parse_hifun(text, &ns).map_err(|e| e.message)?;
            println!("{} — translating to SPARQL:", q);
            let sparql = rdf_analytics::hifun::to_sparql(&q);
            println!("{sparql}");
            let sols = Engine::builder(store)
                .build()
                .run(&sparql)
                .map_err(|e| e.message())?
                .into_solutions()
                .ok_or("not a SELECT")?;
            print!("{}", sols.to_table());
        }
        "script" => {
            // script <file> — run a click script against a fresh session
            let path = rest.first().ok_or("usage: script <file>")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let script = Script::parse_in(&text, store).map_err(|e| e.to_string())?;
            // replay into the live session after a reset, so the replayed
            // state stays current
            session.facets_mut().reset();
            session.clear_analytics();
            let frames = script.apply(session).map_err(|e| e.message)?;
            println!("script ran {} actions, {} answers:", script.ui_action_count(), frames.len());
            for frame in frames {
                println!("{}", frame.hifun);
                print!("{}", frame.to_table());
            }
        }
        "record" => print!("{}", session.script()),
        "query" => {
            let mut q = line.trim_start_matches("query").trim();
            let explain = q.starts_with("--explain");
            if explain {
                q = q.trim_start_matches("--explain").trim();
            }
            let engine = Engine::builder(store).build();
            let prepared = engine.prepare(q).map_err(|e| e.message())?;
            let results = prepared.execute().map_err(|e| e.message())?;
            match results {
                rdf_analytics::sparql::QueryResults::Solutions(s) => print!("{}", s.to_table()),
                rdf_analytics::sparql::QueryResults::Graph(g) => {
                    print!("{}", rdf_analytics::model::ntriples::serialize(&g))
                }
                rdf_analytics::sparql::QueryResults::Boolean(b) => println!("{b}"),
            }
            if explain {
                print!("{}", prepared.explain());
            }
        }
        other => return Err(format!("unknown command '{other}' — try 'help'")),
    }
    Ok(Continue::Yes)
}

fn show_focus(store: &Store, session: &AnalyticsSession<'_>) {
    let ext = session.facets().extension();
    println!(
        "focus: {} resources — {}",
        ext.len(),
        session.facets().intent().describe(store)
    );
}

/// The most common IRI namespace in the KG (everything up to and including
/// the last `#` or `/`), used to resolve bare names in `hifun` queries.
fn dominant_namespace(store: &Store) -> String {
    let mut counts: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for (_, t) in store.terms() {
        if let Term::Iri(iri) = t {
            if let Some(cut) = iri.rfind(['#', '/']) {
                *counts.entry(&iri[..cut + 1]).or_insert(0) += 1;
            }
        }
    }
    counts
        .into_iter()
        .filter(|(ns, _)| !ns.starts_with("http://www.w3.org/"))
        .max_by_key(|&(_, n)| n)
        .map(|(ns, _)| ns.to_owned())
        .unwrap_or_default()
}

fn chart_of(frame: &rdf_analytics::analytics::AnswerFrame) -> Result<BarChart, String> {
    let series: Vec<String> = frame.headers[frame.headers.len() - 1..].to_vec();
    let data: Vec<BarDatum> = frame
        .rows
        .iter()
        .take(12)
        .map(|row| BarDatum {
            label: row[0].as_ref().map(|t| t.display_name()).unwrap_or_default(),
            values: vec![row
                .last()
                .and_then(|c| c.as_ref())
                .and_then(|t| Value::from_term(t).as_f64())
                .unwrap_or(0.0)],
        })
        .collect();
    BarChart::new("", series, data)
}

const HELP: &str = "\
commands:
  stats                      dataset statistics
  facets                     class markers + property facets with counts
  expand p1/p2               path-expansion markers (Fig 5.5)
  buckets <prop> [n]         interval buckets of a numeric facet (Fig 5.4 d)
  grouped <prop>             value markers grouped by class (Fig 5.4 d)
  class <Name>               click a class marker
  value <prop> <value>       click a facet value
  values <prop> <v1> <v2> …  tick several values of a facet
  path p1/^p2 = <value>      click a value at the end of a path (^p: inverse)
  range p1/p2 <min|*> <max|*>  range filter (the ⧩ button)
  group p1/p2 [year|month|day] add a grouping attribute (the G button)
  measure p1/p2 [year|month|day] set the measure (the ⨊ button)
  ops avg sum max min count  choose aggregate operations
  having <i> <cmp> <value>   restrict the i-th aggregate (HAVING)
  run                        evaluate → Answer Frame (+ chart)
  sparql                     show the generated SPARQL
  explain                    executed plan of the current query (est=, rows=, scanned=)
  intent                     show the state's intention query
  back | clear | reset       undo last click | drop G/⨊ choices | start over
  hifun (g, m, op)           run a HIFUN query in the paper notation
  script <file>              run a click script from a file
  record                     print this session's state as a replayable script
  query [--explain] <sparql> run raw SPARQL (one line); --explain appends the executed plan
  checkpoint                 compact the WAL into segment files (--open mode)
  export <file.nt>           N-Triples dump of the explicit triples
  quit";
