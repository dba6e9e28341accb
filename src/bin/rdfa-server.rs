//! `rdfa-server` — serve a knowledge graph over the SPARQL protocol (the
//! backend of the paper's client–server architecture, Fig 6.1).
//!
//! ```text
//! cargo run --bin rdfa-server -- [file.ttl|file.nt] [port] [--persist DIR] [--facet-cache N] [--max-in-flight N] [--auto-views] [--view-budget BYTES]
//! curl 'http://127.0.0.1:3030/v1/query?query=SELECT+%3Fs+WHERE+%7B+%3Fs+%3Fp+%3Fo+%7D+LIMIT+3'
//! curl -X POST --data 'PREFIX ex: <http://e/> INSERT DATA { ex:a ex:p 1 . }' http://127.0.0.1:3030/v1/update
//! curl http://127.0.0.1:3030/void
//! curl http://127.0.0.1:3030/healthz
//! ```
//!
//! With `--persist DIR` the store is durable: it recovers from `DIR` on
//! start (mmap the checkpointed segments + WAL replay), every update is
//! logged before it is acknowledged, and SIGTERM/SIGINT trigger a graceful
//! shutdown — stop accepting, drain in-flight requests, checkpoint, exit.
//! The WAL fsync policy comes from `RDFA_FSYNC` (`always` | `never` |
//! `every:N`).
//!
//! Checkpoints write compressed mmap-able index segments: restart maps them
//! back instead of replaying them, unchanged segments are shared between
//! generations, and `/healthz` reports `segments`, `segment_bytes`,
//! `segment_blocks`, `segment_blocks_verified` (blocks reads have touched
//! since open), and `resident_bytes`. `--segments` is still accepted and
//! does nothing, since segments are the only format.
//!
//! `--facet-cache N` sizes the generation-keyed marker cache behind
//! `GET /v1/facets` (N cached marker sets; 0 disables caching; default 128).
//! Cache counters are served at `GET /v1/facets/stats`.
//!
//! `--max-in-flight N` caps concurrently-served work-route requests; the
//! excess is shed with `503` + `Retry-After` (0 = unlimited; default 64).
//! Shed counts and the current snapshot generation are in `GET /healthz`.
//!
//! `--auto-views` turns on workload-driven materialized aggregate views:
//! hot aggregate shapes of the `/v1/query` workload are materialized,
//! answered from the views (`GET /v1/views` lists them,
//! `GET /v1/views/stats` the counters, `POST /v1/views/refresh` re-runs
//! the selector), and maintained incrementally on updates. The facet panel
//! never reads them. `--view-budget BYTES` caps their approximate memory
//! footprint.
//!
//! Without a file argument (and an empty/absent persist dir) the demo
//! products KG is served.

use rdf_analytics::server::{Server, ServerConfig};
use rdf_analytics::store::{LoadOptions, PersistConfig, PersistentStore, Store};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Install SIGTERM/SIGINT handlers with the C `signal` call directly — no
/// crate dependency, and an async-signal-safe handler (one atomic store).
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut port = 3030u16;
    let mut persist_dir: Option<String> = None;
    let mut input: Option<String> = None;
    let mut config = ServerConfig::default();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if arg == "--persist" {
            i += 1;
            match args.get(i) {
                Some(dir) => persist_dir = Some(dir.clone()),
                None => {
                    eprintln!("--persist needs a directory argument");
                    std::process::exit(2);
                }
            }
        } else if arg == "--facet-cache" {
            i += 1;
            match args.get(i).and_then(|n| n.parse::<usize>().ok()) {
                Some(n) => config.facet_cache_entries = n,
                None => {
                    eprintln!("--facet-cache needs a numeric entry count");
                    std::process::exit(2);
                }
            }
        } else if arg == "--max-in-flight" {
            i += 1;
            match args.get(i).and_then(|n| n.parse::<usize>().ok()) {
                Some(n) => config.max_in_flight = n,
                None => {
                    eprintln!("--max-in-flight needs a numeric request budget (0 = unlimited)");
                    std::process::exit(2);
                }
            }
        } else if arg == "--segments" {
            // segments are the only format; kept so older command lines run
        } else if arg == "--auto-views" {
            config.auto_views = true;
        } else if arg == "--view-budget" {
            i += 1;
            match args.get(i).and_then(|n| n.parse::<usize>().ok()) {
                Some(n) => config.view_budget_bytes = n,
                None => {
                    eprintln!("--view-budget needs a byte count");
                    std::process::exit(2);
                }
            }
        } else if let Ok(p) = arg.parse::<u16>() {
            port = p;
        } else {
            input = Some(arg.clone());
        }
        i += 1;
    }

    install_signal_handlers();

    let server = match persist_dir {
        Some(dir) => {
            let mut pstore = PersistentStore::open(&dir, PersistConfig::from_env())
                .unwrap_or_else(|e| {
                    eprintln!("cannot open persistent store at {dir}: {e}");
                    std::process::exit(2);
                });
            let r = pstore.recovery();
            eprintln!(
                "recovered {dir}: generation {}, {} checkpoint triples + {} WAL records{}",
                r.generation,
                r.checkpoint_triples,
                r.wal_records_replayed,
                match &r.wal_truncation {
                    Some(t) => format!(" (WAL truncated at byte {}: {})", t.offset, t.reason),
                    None => String::new(),
                }
            );
            // a file argument seeds an EMPTY durable store; an already
            // populated one keeps its recovered state
            if let Some(path) = &input {
                if pstore.is_empty() {
                    match load_into_durable(&mut pstore, path) {
                        Ok(n) => eprintln!("loaded {n} triples from {path}"),
                        Err(e) => {
                            eprintln!("cannot load {path}: {e}");
                            std::process::exit(2);
                        }
                    }
                } else {
                    eprintln!("ignoring {path}: store already holds {} triples", pstore.len());
                }
            }
            Server::start_durable(pstore, port, config)
        }
        None => {
            let mut store = Store::new();
            let mut loaded = false;
            if let Some(path) = &input {
                match load_into_plain(&mut store, path) {
                    Ok(n) => eprintln!("loaded {n} triples from {path}"),
                    Err(e) => {
                        eprintln!("cannot load {path}: {e}");
                        std::process::exit(2);
                    }
                }
                loaded = true;
            }
            if !loaded {
                rdf_analytics::datagen::ProductsGenerator::new(300, 7)
                    .generate_into(&mut store);
                eprintln!(
                    "no input file given — serving the demo products KG ({} triples)",
                    store.len()
                );
            }
            Server::start_with(store, port, config)
        }
    };
    let server = server.unwrap_or_else(|e| {
        eprintln!("cannot bind port {port}: {e}");
        std::process::exit(2);
    });
    eprintln!(
        "SPARQL endpoint at http://{}/v1/query (POST /v1/update, GET /void, GET /healthz, GET /v1/facets) — Ctrl-C or SIGTERM to stop",
        server.addr()
    );
    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(200));
    }
    // graceful shutdown: stop accepting, drain in-flight requests, then
    // checkpoint the durable store
    eprintln!("shutting down: draining requests and checkpointing…");
    server.stop();
    eprintln!("bye");
}

fn load_into_plain(store: &mut Store, path: &str) -> Result<usize, String> {
    // streamed bulk ingest — N-Triples files are never read into memory
    // whole
    if path.ends_with(".nt") {
        store.load_ntriples_path(path, LoadOptions::default())
    } else {
        store.load_turtle_path(path)
    }
    .map(|stats| stats.triples)
    .map_err(|e| e.to_string())
}

fn load_into_durable(store: &mut PersistentStore, path: &str) -> Result<usize, String> {
    if path.ends_with(".nt") {
        store
            .load_ntriples_path(path)
            .map(|stats| stats.triples)
            .map_err(|e| e.to_string())
    } else {
        let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
        store.load_turtle(&text).map_err(|e| e.to_string())
    }
}
