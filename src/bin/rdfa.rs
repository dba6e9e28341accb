//! `rdfa` — an interactive terminal front-end for RDF-Analytics, the
//! command-line counterpart of the paper's system demonstration (§6.2).
//!
//! ```text
//! $ cargo run --bin rdfa                       # starts on the demo KG
//! $ cargo run --bin rdfa -- --open ./kg.db     # durable store (WAL + snapshots)
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
//! Property and resource names may be given as plain local names; they are
//! resolved against the loaded KG. With `--open DIR` the store recovers
//! from `DIR` on start; a file argument seeds it only when it is empty, and
//! `checkpoint` compacts the WAL into a fresh snapshot — or, with
//! `--segments` (or `RDFA_SEGMENTS=1`), into compressed mmap-able index
//! segments that the next start maps back instead of replaying.

use rdf_analytics::analytics::{AnalyticsSession, GroupSpec, MeasureSpec};
use rdf_analytics::facets::{markers, PathStep};
use rdf_analytics::hifun::{AggOp, CondOp, DerivedFn};
use rdf_analytics::model::{Term, Value};
use rdf_analytics::sparql::Engine;
use rdf_analytics::store::{
    LoadOptions, PersistConfig, PersistentStore, Store, StoreStats, TermId,
};
use rdf_analytics::viz::{BarChart, BarDatum};
use std::io::{BufRead, Write};

/// The REPL's store: in-memory, or bound to a durable directory.
enum Backing {
    Plain(Box<Store>),
    Durable(Box<PersistentStore>),
}

impl Backing {
    fn store(&self) -> &Store {
        match self {
            Backing::Plain(s) => s,
            Backing::Durable(p) => p,
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut open_dir: Option<String> = None;
    let mut segments = false;
    let mut load_opts = LoadOptions::default();
    let mut positional: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--threads" {
            i += 1;
            match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => load_opts.threads = n,
                None => {
                    eprintln!("--threads needs a numeric argument (0 = auto)");
                    std::process::exit(2);
                }
            }
        } else if args[i] == "--open" {
            i += 1;
            match args.get(i) {
                Some(dir) => open_dir = Some(dir.clone()),
                None => {
                    eprintln!("--open needs a directory argument");
                    std::process::exit(2);
                }
            }
        } else if args[i] == "--segments" {
            segments = true;
        } else {
            positional.push(args[i].clone());
        }
        i += 1;
    }

    let backing = match open_dir {
        Some(dir) => {
            let mut pconfig = PersistConfig::from_env();
            pconfig.segments |= segments;
            let mut pstore = PersistentStore::open(&dir, pconfig)
                .unwrap_or_else(|e| {
                    eprintln!("cannot open {dir}: {e}");
                    std::process::exit(2);
                });
            let r = pstore.recovery();
            eprintln!(
                "recovered {dir}: generation {}, {} snapshot triples + {} WAL records",
                r.generation, r.snapshot_triples, r.wal_records_replayed
            );
            // seed only an empty store; a populated one keeps its state
            if pstore.is_empty() {
                if let Err(e) = seed_durable(&mut pstore, positional.first(), load_opts) {
                    eprintln!("cannot load: {e}");
                    std::process::exit(2);
                }
            } else if let Some(path) = positional.first() {
                eprintln!("ignoring {path}: store already holds {} triples", pstore.len());
            }
            Backing::Durable(Box::new(pstore))
        }
        None => {
            let mut store = Store::new();
            match positional.first().map(String::as_str) {
                Some("invoices") => {
                    rdf_analytics::datagen::InvoicesGenerator::new(300, 7)
                        .generate_into(&mut store, load_opts);
                }
                Some(path) if std::path::Path::new(path).exists() => {
                    // streamed + parallel bulk ingest; malformed input is a
                    // diagnosed exit, not a panic
                    let loaded = if path.ends_with(".nt") {
                        store.load_ntriples_path(path, load_opts)
                    } else {
                        store.load_turtle_path(path, load_opts)
                    };
                    match loaded {
                        Ok(stats) => eprintln!("loaded {} triples from {path}", stats.triples),
                        Err(e) => {
                            eprintln!("cannot load {path}: {e}");
                            std::process::exit(1);
                        }
                    }
                }
                _ => {
                    rdf_analytics::datagen::ProductsGenerator::new(200, 7)
                        .generate_into(&mut store, load_opts);
                }
            }
            Backing::Plain(Box::new(store))
        }
    };
    let store = backing.store();
    eprintln!(
        "KG ready: {} triples ({} entailed). Type 'help' for commands.",
        store.len(),
        store.len_entailed()
    );

    let mut session = AnalyticsSession::start(store);
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    loop {
        print!("rdfa> ");
        let _ = out.flush();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match dispatch(line, &backing, &mut session) {
            Ok(Continue::Yes) => {}
            Ok(Continue::No) => break,
            Err(msg) => eprintln!("error: {msg}"),
        }
    }
}

/// Seed an empty durable store from a file (or the demo KG), logging the
/// load through the WAL so it survives a crash before the first checkpoint.
fn seed_durable(
    pstore: &mut PersistentStore,
    path: Option<&String>,
    opts: LoadOptions,
) -> Result<(), String> {
    match path.map(String::as_str) {
        Some("invoices") => {
            let g = rdf_analytics::datagen::InvoicesGenerator::new(300, 7).generate();
            pstore.load_graph(&g).map_err(|e| e.to_string())?;
        }
        Some(path) if std::path::Path::new(path).exists() => {
            let n = if path.ends_with(".nt") {
                pstore
                    .load_ntriples_path(path, opts)
                    .map_err(|e| format!("{path}: {e}"))?
                    .triples
            } else {
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                pstore.load_turtle(&text).map_err(|e| e.to_string())?
            };
            eprintln!("loaded {n} triples from {path}");
        }
        _ => {
            let g = rdf_analytics::datagen::ProductsGenerator::new(200, 7).generate();
            pstore.load_graph(&g).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

enum Continue {
    Yes,
    No,
}

fn dispatch(
    line: &str,
    backing: &Backing,
    session: &mut AnalyticsSession<'_>,
) -> Result<Continue, String> {
    let store = backing.store();
    let mut words = line.split_whitespace();
    let verb = words.next().unwrap_or("");
    let rest: Vec<&str> = words.collect();
    match verb {
        "help" => {
            println!("{HELP}");
        }
        "quit" | "exit" => return Ok(Continue::No),
        "checkpoint" => match backing {
            Backing::Durable(p) => {
                let generation = p.checkpoint().map_err(|e| e.to_string())?;
                println!(
                    "checkpointed to generation {generation} in {} ({} triples, WAL reset)",
                    p.dir().display(),
                    p.len()
                );
            }
            Backing::Plain(_) => {
                return Err("store is in-memory only — start with --open DIR".into())
            }
        },
        "export" => match backing {
            Backing::Durable(p) => {
                let path = rest.first().ok_or("usage: export <file.nt>")?;
                p.export_ntriples(path).map_err(|e| e.to_string())?;
                println!("exported {} triples to {path}", p.len());
            }
            Backing::Plain(_) => {
                return Err("store is in-memory only — start with --open DIR".into())
            }
        },
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
            let path = parse_path(store, rest.first().copied())?;
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
            let p = resolve(store, rest.first().copied())?;
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
            let path = parse_path(store, rest.first().copied())?;
            for (v, n) in session.facets().expand(&path) {
                println!("  {} ({n})", store.term(v).display_name());
            }
        }
        "class" => {
            let c = resolve(store, rest.first().copied())?;
            session.select_class(c).map_err(|e| e.message)?;
            show_focus(store, session);
        }
        "value" => {
            let p = resolve(store, rest.first().copied())?;
            let v = resolve_term(store, rest.get(1).copied())?;
            session.select_value(p, v).map_err(|e| e.message)?;
            show_focus(store, session);
        }
        "path" => {
            // path p1/p2 = v
            let path = parse_path(store, rest.first().copied())?;
            if rest.get(1) != Some(&"=") {
                return Err("usage: path p1/p2 = value".into());
            }
            let v = resolve_term(store, rest.get(2).copied())?;
            session.select_path_value(&path, v).map_err(|e| e.message)?;
            show_focus(store, session);
        }
        "range" => {
            let path = parse_path(store, rest.first().copied())?;
            let min = parse_bound(rest.get(1).copied())?;
            let max = parse_bound(rest.get(2).copied())?;
            session.select_range(&path, min, max).map_err(|e| e.message)?;
            show_focus(store, session);
        }
        "group" => {
            let props = parse_props(store, rest.first().copied())?;
            let mut spec = GroupSpec::path(props);
            spec = match rest.get(1).copied() {
                Some("[year]") => spec.with_derived(DerivedFn::Year),
                Some("[month]") => spec.with_derived(DerivedFn::Month),
                Some("[day]") => spec.with_derived(DerivedFn::Day),
                _ => spec,
            };
            session.add_grouping(spec);
            println!("grouping attributes: {}", session.groupings().len());
        }
        "measure" => {
            let props = parse_props(store, rest.first().copied())?;
            session.set_measure(MeasureSpec::path(props));
        }
        "ops" => {
            let mut ops = Vec::new();
            for w in &rest {
                ops.push(match *w {
                    "count" => AggOp::Count,
                    "sum" => AggOp::Sum,
                    "avg" => AggOp::Avg,
                    "min" => AggOp::Min,
                    "max" => AggOp::Max,
                    other => return Err(format!("unknown op {other}")),
                });
            }
            session.set_ops(ops);
        }
        "having" => {
            let idx: usize = rest
                .first()
                .and_then(|w| w.parse().ok())
                .ok_or("usage: having <op-index> <cmp> <number>")?;
            let cond = match rest.get(1).copied() {
                Some("=") => CondOp::Eq,
                Some("<") => CondOp::Lt,
                Some("<=") => CondOp::Le,
                Some(">") => CondOp::Gt,
                Some(">=") => CondOp::Ge,
                Some("!=") => CondOp::Ne,
                _ => return Err("usage: having <op-index> <cmp> <number>".into()),
            };
            let v: f64 = rest
                .get(2)
                .and_then(|w| w.parse().ok())
                .ok_or("having needs a numeric threshold")?;
            session.add_having(idx, cond, Term::decimal(v));
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
        "back" => {
            session.facets_mut().back();
            show_focus(store, session);
        }
        "reset" => {
            session.facets_mut().reset();
            session.clear_analytics();
            show_focus(store, session);
        }
        "explain" => {
            // execute once so the plan carries observed cardinalities
            // (rows=) and the morsel-runtime summary, not just estimates
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
            let script =
                rdf_analytics::analytics::Script::parse(&text).map_err(|e| e.to_string())?;
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
        "record" => {
            // print the current session's click log as a replayable script
            let script = session.recorded_script();
            println!("# {} recorded actions", script.ui_action_count());
            for action in &script.actions {
                println!("{action:?}");
            }
        }
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

/// Resolve a name: full IRI in <>, or a local name matched against the KG.
fn resolve(store: &Store, word: Option<&str>) -> Result<TermId, String> {
    let w = word.ok_or("missing name")?;
    if let Some(iri) = w.strip_prefix('<').and_then(|x| x.strip_suffix('>')) {
        return store.lookup_iri(iri).ok_or(format!("IRI not in KG: {iri}"));
    }
    let matches: Vec<TermId> = store
        .terms()
        .filter(|(_, t)| matches!(t, Term::Iri(iri) if rdf_analytics::model::term::local_name(iri) == w))
        .map(|(id, _)| id)
        .collect();
    match matches.len() {
        0 => Err(format!("no resource named '{w}'")),
        1 => Ok(matches[0]),
        n => Err(format!("'{w}' is ambiguous ({n} matches) — use a full <iri>")),
    }
}

/// Resolve a clicked value: a name, or a literal (number / quoted string).
fn resolve_term(store: &Store, word: Option<&str>) -> Result<TermId, String> {
    let w = word.ok_or("missing value")?;
    if let Ok(v) = w.parse::<i64>() {
        return store
            .lookup(&Term::integer(v))
            .ok_or(format!("integer {v} not present in KG"));
    }
    if let Some(s) = w.strip_prefix('"').and_then(|x| x.strip_suffix('"')) {
        return store
            .lookup(&Term::string(s))
            .ok_or(format!("string \"{s}\" not present in KG"));
    }
    resolve(store, Some(w))
}

fn parse_path(store: &Store, word: Option<&str>) -> Result<Vec<PathStep>, String> {
    Ok(parse_props(store, word)?.into_iter().map(PathStep::fwd).collect())
}

fn parse_props(store: &Store, word: Option<&str>) -> Result<Vec<TermId>, String> {
    let w = word.ok_or("missing property path")?;
    w.split('/').map(|part| resolve(store, Some(part))).collect()
}

fn parse_bound(word: Option<&str>) -> Result<Option<Value>, String> {
    match word {
        None | Some("*") => Ok(None),
        Some(w) => {
            if let Ok(v) = w.parse::<i64>() {
                return Ok(Some(Value::Int(v)));
            }
            if let Ok(v) = w.parse::<f64>() {
                return Ok(Some(Value::Float(v)));
            }
            if let Some(d) = rdf_analytics::model::Date::parse(w) {
                return Ok(Some(Value::Date(d)));
            }
            Err(format!("cannot parse bound '{w}' (number, date, or *)"))
        }
    }
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
  path p1/p2 = <value>       click a value at the end of a path
  range p1/p2 <min|*> <max|*>  range filter (the ⧩ button)
  group p1/p2 [year|month|day] add a grouping attribute (the G button)
  measure <prop>             set the measure (the ⨊ button)
  ops avg sum max min count  choose aggregate operations
  having <i> <cmp> <num>     restrict the i-th aggregate (HAVING)
  run                        evaluate → Answer Frame (+ chart)
  sparql                     show the generated SPARQL
  explain                    executed plan of the current query (est=, rows=, threads/morsels)
  intent                     show the state's intention query
  back | reset               undo last click | start over
  hifun (g, m, op)           run a HIFUN query in the paper notation
  script <file>              run a click script from a file
  record                     show this session's click log
  query [--explain] <sparql> run raw SPARQL (one line); --explain appends the executed plan
  checkpoint                 compact the WAL into a snapshot (--open mode)
  export <file.nt>           N-Triples fallback dump (--open mode)
  quit";
