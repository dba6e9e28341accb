//! The in-process side of a run: the reference answers every warm-up click is
//! checked against, and — in a traced run — the per-layer numbers.
//!
//! Layers are measured from outside: once the server child has exited, the
//! traced clicks are replayed against a store loaded from the same file (or
//! reopened from the same persist directory), with a span around each call
//! into a layer's public functions. HTTP latency minus the in-process time of
//! the same click is what the server adds (`server.overhead_ms`), so the
//! parts sum to the click by construction.

use crate::check::{self, Fingerprint};
use crate::http::Conn;
use crate::json::Json;
use crate::proc::dir_listing;
use crate::script::{self, Action, Click, Script};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::workload::{
    tail_latencies, template_means, Config, Observed, Sample, Tail, Tally, Workload, Writes,
    REPLAY_PASSES,
};
use rdf_analytics::datagen::EX;
use rdf_analytics::facets::{
    class_markers_opts, property_facets_opts, restrict_class, restrict_value, ExtSet, FacetCache,
    FacetOptions, PathStep, State,
};
use rdf_analytics::hifun;
use rdf_analytics::model::{ntriples, vocab};
use rdf_analytics::sparql::{execute_update_recording, Engine, EvalLimits, Solutions};
use rdf_analytics::store::{
    FsyncPolicy, LoadOptions, PersistConfig, PersistentStore, SnapshotStore, Store,
};
use rdf_analytics::views::{ViewConfig, ViewManager};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The data loaded in this process, and how long loading took.
pub struct Reference {
    pub store: Store,
    pub ingest_s: f64,
}

impl Reference {
    pub fn load(data: &Path) -> Result<Reference, String> {
        let started = Instant::now();
        let mut store = Store::new();
        store
            .load_ntriples_path(data, LoadOptions::default())
            .map_err(|e| e.to_string())?;
        Ok(Reference {
            store,
            ingest_s: started.elapsed().as_secs_f64(),
        })
    }
}

fn extension(store: &Store, class: &Option<String>) -> ExtSet {
    match class {
        Some(iri) => store
            .lookup_iri(iri)
            .map(|c| store.instances_set(c))
            .unwrap_or_default(),
        None => State::initial(store).ext,
    }
}

fn run_query(store: &Store, text: &str) -> Result<Solutions, String> {
    Engine::builder(store)
        .build()
        .run(text)
        .map_err(|e| e.to_string())?
        .into_solutions()
        .ok_or_else(|| "not a SELECT".to_owned())
}

/// The in-process answer to a click, as a fingerprint. With `direct`, an
/// analytic click is also held against the direct HIFUN evaluator
/// (Proposition 2).
fn reference_answer(
    script: &Script,
    store: &Store,
    click: Click,
    direct: bool,
) -> Result<Fingerprint, String> {
    match script.action(click) {
        Action::Facets { class } => {
            let ext = extension(store, class);
            let classes = class_markers_opts(store, &ext, FacetOptions::default())
                .map_err(|e| e.to_string())?;
            let facets = property_facets_opts(store, &ext, FacetOptions::default())
                .map_err(|e| e.to_string())?;
            Ok(check::facets(store, ext.len(), &classes, &facets))
        }
        action => {
            let text = action.sparql().expect("not a facets click");
            let translated = run_query(store, &text)?;
            if let (true, Some(query)) = (direct, action.hifun()) {
                let answer = hifun::direct::evaluate(store, &query).map_err(|e| e.to_string())?;
                if !check::same_answer(&translated, &answer) {
                    return Err(format!(
                        "translation {text} disagrees with direct HIFUN evaluation"
                    ));
                }
            }
            Ok(check::solutions(&translated))
        }
    }
}

/// Compare what the server answered during warm-up with the in-process
/// answers; every click counts as attempted, every mismatch as failed. Direct
/// HIFUN evaluation takes twice as long as the engine, so only the last
/// pass's analytic clicks get it — a different variant of each on every seed.
pub fn check_observed(
    script: &Script,
    reference: &Reference,
    observed: &[Observed],
    tally: &mut Tally,
) {
    let mut answers: BTreeMap<Click, Result<Fingerprint, String>> = BTreeMap::new();
    let last_pass = observed.len().saturating_sub(script.templates.len());
    for (at, o) in observed.iter().enumerate().rev() {
        tally.attempted += 1;
        let id = script.templates[o.click.template].id;
        let expected = answers.entry(o.click).or_insert_with(|| {
            reference_answer(script, &reference.store, o.click, at >= last_pass)
        });
        match (&o.fingerprint, expected) {
            (Ok(got), Ok(want)) if got == want => {}
            (Ok(got), Ok(want)) => tally.fail(format!(
                "{id} variant {}: the server answered {} rows (hash {:x}), the engine in-process {} rows (hash {:x})",
                o.click.variant, got.rows, got.hash, want.rows, want.hash
            )),
            (Err(e), _) => tally.fail(format!("{id} variant {}: {e}", o.click.variant)),
            (_, Err(e)) => tally.fail(format!("{id} variant {}: no reference answer: {e}", o.click.variant)),
        }
    }
}

// ---- what the server says about itself ----------------------------------------

pub struct ServerStats {
    facets: Json,
    views: Json,
    view_list: Json,
    healthz: Json,
}

impl ServerStats {
    pub fn fetch(conn: &mut Conn) -> ServerStats {
        let mut get = |target: &str| {
            conn.get(target)
                .ok()
                .and_then(|r| Json::parse(&r.text()).ok())
                .unwrap_or(Json::Null)
        };
        ServerStats {
            facets: get("/v1/facets/stats"),
            views: get("/v1/views/stats"),
            view_list: get("/v1/views"),
            healthz: get("/healthz"),
        }
    }

    /// (view hits, facet-cache hits) between this reading and a `later` one.
    pub fn hits_until(&self, later: &ServerStats) -> (f64, f64) {
        (
            later.views.num("hits") - self.views.num("hits"),
            later.facets.num("hits") - self.facets.num("hits"),
        )
    }
}

/// The HTTP floor: `/health` on the warm clicking connection, on a warm
/// connection that leaves the kernel's delayed ACK alone (the server's split
/// write then waits for this end's ACK timer), and on a fresh one (the
/// acceptor polls, so connecting is not free).
pub struct Floor {
    health_rtt_us: f64,
    delayed_ack_rtt_us: f64,
    connect_ms: f64,
}

pub fn http_floor(conn: &mut Conn, addr: SocketAddr) -> Floor {
    let warm_rtt_us = |conn: &mut Conn| {
        let _ = conn.get("/health");
        let rtts: Vec<f64> = (0..25)
            .map(|_| {
                let t = Instant::now();
                let _ = conn.get("/health");
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&rtts)
    };
    let cold: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            let _ = Conn::new(addr).get("/health");
            ms_since(t)
        })
        .collect();
    Floor {
        health_rtt_us: warm_rtt_us(conn),
        delayed_ack_rtt_us: warm_rtt_us(&mut Conn::delayed_ack(addr)),
        connect_ms: median(&cold),
    }
}

// ---- the traced run's per-layer numbers ----------------------------------------

pub struct Inputs<'a> {
    pub cfg: &'a Config,
    pub script: &'a Script,
    pub reference: &'a Reference,
    pub persist_dir: Option<&'a Path>,
    pub data: &'a Path,
    /// The untraced half of the window, and the traced half.
    pub plain: &'a [Sample],
    /// Seconds the untraced half took.
    pub plain_elapsed_s: f64,
    pub traced: &'a [Sample],
    pub stats: (ServerStats, ServerStats),
    pub floor: Floor,
    pub reconnects: u64,
    pub in_flight_max: f64,
    pub writes: &'a Writes,
    pub tail: &'a Tail,
    pub ingest_checkpoint_s: f64,
    pub generate_s: f64,
    pub triples: usize,
    pub n_companies: usize,
    /// The server's peak resident set at the end of the window, MiB.
    pub rss_mb: f64,
    pub tally: &'a Tally,
}

/// Totals over the replayed query clicks.
#[derive(Default)]
struct QueryTotals {
    queries: f64,
    rows: f64,
    bytes: f64,
    operator_rows: f64,
    fallbacks: f64,
    morsels: f64,
    threads_max: f64,
    parallel_groupby: f64,
    view_lookup_us: Vec<f64>,
}

/// The engine the way the server builds it for a request.
struct Replayer<'s> {
    store: &'s Store,
    views: Option<Arc<ViewManager>>,
    cache: FacetCache,
}

impl Replayer<'_> {
    /// One click in-process. With a tracer, each call into a layer is a span
    /// under an `inproc.click` root that shares the HTTP click's id.
    fn click(
        &self,
        script: &Script,
        click: Click,
        id: u32,
        tracer: Option<&mut Tracer>,
        totals: &mut QueryTotals,
    ) -> Result<f64, String> {
        let label = script.templates[click.template].id;
        let start = Instant::now();
        let mut marks: Vec<(&'static str, Instant, Instant)> = Vec::new();
        let action = script.action(click);
        if let Action::Facets { class } = action {
            let t0 = Instant::now();
            let ext = extension(self.store, class);
            let t1 = Instant::now();
            self.cache
                .class_markers(self.store, &ext, FacetOptions::default())
                .map_err(|e| e.to_string())?;
            let t2 = Instant::now();
            self.cache
                .property_facets(self.store, &ext, FacetOptions::default())
                .map_err(|e| e.to_string())?;
            let t3 = Instant::now();
            marks.extend([
                ("facets.extension", t0, t1),
                ("facets.class_markers", t1, t2),
                ("facets.property_facets", t2, t3),
            ]);
        }
        if let Some(text) = action.sparql() {
            let mut builder = Engine::builder(self.store).limits(EvalLimits::interactive());
            if let Some(v) = &self.views {
                builder = builder.views(v.clone());
            }
            let engine = builder.build();
            let hits_before = self.views.as_ref().map_or(0, |v| v.stats().hits);
            let t0 = Instant::now();
            let prepared = engine.prepare(&text).map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            let solutions = prepared
                .execute()
                .map_err(|e| e.to_string())?
                .into_solutions()
                .ok_or("not a SELECT")?;
            let t2 = Instant::now();
            let mut body = Vec::new();
            solutions.write_json(&mut body).map_err(|e| e.to_string())?;
            let t3 = Instant::now();
            marks.extend([
                ("sparql.prepare", t0, t1),
                ("sparql.execute", t1, t2),
                ("sparql.serialize", t2, t3),
            ]);
            totals.queries += 1.0;
            totals.rows += solutions.len() as f64;
            totals.bytes += body.len() as f64;
            totals.fallbacks += f64::from(u8::from(!prepared.uses_id_space()));
            if self.views.as_ref().map_or(0, |v| v.stats().hits) > hits_before {
                totals.view_lookup_us.push((t2 - t0).as_secs_f64() * 1e6);
            }
            if let Some(stats) = prepared.last_stats() {
                totals.operator_rows += stats
                    .operators
                    .iter()
                    .map(|o| o.rows_out as f64)
                    .sum::<f64>();
                totals.morsels += stats.morsels as f64;
                totals.threads_max = totals.threads_max.max(stats.threads_used as f64);
                totals.parallel_groupby += f64::from(u8::from(stats.parallel_groupby));
            }
        }
        let end = Instant::now();
        if let Some(t) = tracer {
            let root = t.record("inproc.click", label, 0, id, start, end);
            for (name, a, b) in marks {
                t.record(name, "", root, id, a, b);
            }
        }
        Ok((end - start).as_secs_f64() * 1e3)
    }
}

/// Execute time (ms) of the first variant of each analytic template on
/// `store`, with one worker and with two: `(t1, t2)`. The templates alternate
/// which setting runs first, so neither always meets the colder store. One
/// execution each: the replay just ran the same queries.
fn analytic_execute_ms(script: &Script, store: &Store) -> Result<(f64, f64), String> {
    let mut total = [0.0, 0.0];
    for (k, t) in script.templates.iter().filter(|t| t.analytic).enumerate() {
        let sparql = t.variants[0]
            .sparql()
            .expect("an analytic click is a query");
        for threads in [1 + k % 2, 2 - k % 2] {
            let engine = Engine::builder(store).threads(threads).build();
            let prepared = engine.prepare(&sparql).map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            std::hint::black_box(prepared.execute().map_err(|e| e.to_string())?);
            total[threads - 1] += ms_since(t0);
        }
    }
    Ok((total[0], total[1]))
}

pub fn per_layer(i: &Inputs, tracer: &mut Tracer) -> Result<Vec<(&'static str, f64)>, String> {
    let workload = i.cfg.workload;
    let script = i.script;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // ---- rdfa-model, rdfa-store: load ------------------------------------
    let text = std::fs::read_to_string(i.data).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut lexed = 0usize;
    for line in text.lines() {
        lexed += usize::from(matches!(ntriples::lex_line(line), Ok(Some(_))));
    }
    m.insert(
        "model.ntriples_parse_mb_per_s",
        text.len() as f64 / 1e6 / t0.elapsed().as_secs_f64(),
    );
    if lexed != i.triples {
        return Err(format!(
            "lexed {lexed} triples from a file of {}",
            i.triples
        ));
    }
    drop(text);
    m.insert("store.ingest_s", i.reference.ingest_s);
    m.insert(
        "store.ingest_triples_per_s",
        i.triples as f64 / i.reference.ingest_s,
    );
    let mut working = i.reference.store.clone();
    let t0 = Instant::now();
    working.materialize_inference();
    m.insert("store.closure_s", t0.elapsed().as_secs_f64());

    // ---- the store the server was reading: reopen it where it is durable --
    let persist = PersistConfig {
        fsync: FsyncPolicy::Always,
        segments: true,
        ..PersistConfig::default()
    };
    // kept open for as long as the store it came with is in use
    let mut _journal = None;
    m.insert("store.open_ms", 0.0);
    m.insert("store.mmap_over_mem_execute", 0.0);
    if let Some(dir) = i.persist_dir {
        let t0 = Instant::now();
        let opened = PersistentStore::open(dir, persist.clone()).map_err(|e| e.to_string())?;
        m.insert("store.open_ms", ms_since(t0));
        let (store, j, _) = opened.into_parts();
        _journal = Some(j);
        if workload == Workload::ExploreMmap {
            working = store;
        }
    }
    let snapshots = SnapshotStore::new(working);
    let before = snapshots.snapshot();
    let store: &Store = &before;

    // ---- replay the traced clicks ------------------------------------------
    let replayer = Replayer {
        store,
        views: workload
            .views()
            .then(|| Arc::new(ViewManager::new(ViewConfig::default()))),
        cache: FacetCache::new(workload.facet_cache()),
    };
    if workload.views() {
        // bring views and cache to where the server's were after its warm-up
        let mut scratch = QueryTotals::default();
        for pass in 0..workload.warmup_passes() {
            for click in script.pass(pass) {
                replayer.click(script, click, 0, None, &mut scratch)?;
            }
        }
    }
    let replayed: Vec<&Sample> = i
        .traced
        .iter()
        .take(REPLAY_PASSES * script.templates.len())
        .collect();
    let mut totals = QueryTotals::default();
    let mut http_ms = 0.0;
    let mut inproc_ms = 0.0;
    let mut per_template: BTreeMap<&'static str, (f64, f64, f64)> = BTreeMap::new();
    for s in &replayed {
        let inproc = replayer.click(script, s.click, s.id, Some(tracer), &mut totals)?;
        http_ms += s.ms;
        inproc_ms += inproc;
        let row = per_template
            .entry(script.templates[s.click.template].id)
            .or_default();
        *row = (row.0 + s.ms, row.1 + inproc, row.2 + 1.0);
    }
    let n = replayed.len().max(1) as f64;
    eprintln!(
        "# {}: the trip per template over {} replayed clicks (ms, means)",
        workload.name(),
        replayed.len()
    );
    eprintln!(
        "# {:<5} {:>10} {:>12} {:>16}",
        "click", "http", "in-process", "server.overhead"
    );
    for (id, (http, inproc, k)) in &per_template {
        eprintln!(
            "# {id:<5} {:>10.3} {:>12.3} {:>16.3}",
            http / k,
            inproc / k,
            (http - inproc) / k
        );
    }
    m.insert("server.overhead_ms", (http_ms - inproc_ms) / n);
    m.insert(
        "server.overhead_share",
        if http_ms > 0.0 {
            (http_ms - inproc_ms) / http_ms
        } else {
            0.0
        },
    );
    m.insert(
        "hifun.parse_us",
        mean(&tracer.durations_ms("hifun.parse")) * 1e3,
    );
    m.insert(
        "hifun.translate_us",
        mean(&tracer.durations_ms("hifun.translate")) * 1e3,
    );
    m.insert(
        "sparql.prepare_ms",
        mean(&tracer.durations_ms("sparql.prepare")),
    );
    m.insert(
        "sparql.execute_ms",
        mean(&tracer.durations_ms("sparql.execute")),
    );
    m.insert(
        "sparql.serialize_ms",
        mean(&tracer.durations_ms("sparql.serialize")),
    );
    let q = totals.queries.max(1.0);
    m.insert("sparql.rows_out", totals.rows / q);
    m.insert(
        "sparql.rows_examined_per_row_out",
        totals.operator_rows / totals.rows.max(1.0),
    );
    m.insert("sparql.result_bytes", totals.bytes / q);
    m.insert("sparql.fallback_queries", totals.fallbacks);
    m.insert("exec.morsels", totals.morsels);
    m.insert("exec.threads_used_max", totals.threads_max);
    m.insert("exec.parallel_groupby_queries", totals.parallel_groupby);
    let (one_thread, two_threads) = analytic_execute_ms(script, store)?;
    m.insert("exec.t2_over_t1", two_threads / one_thread);
    if workload == Workload::ExploreMmap {
        let (_, in_memory) = analytic_execute_ms(script, &i.reference.store)?;
        m.insert("store.mmap_over_mem_execute", two_threads / in_memory);
    }
    m.insert(
        "facets.class_markers_ms",
        mean(&tracer.durations_ms("facets.class_markers")),
    );
    m.insert(
        "facets.property_facets_ms",
        mean(&tracer.durations_ms("facets.property_facets")),
    );
    m.insert("views.lookup_us", mean(&totals.view_lookup_us));

    // ---- rdfa-facets, rdfa-store: kernels on the script's extensions -------
    let term = |local: &str| {
        store
            .lookup_iri(&format!("{EX}{local}"))
            .ok_or(format!("no ex:{local} in the data"))
    };
    let (laptop, manufacturer, price) = (term("Laptop")?, term("manufacturer")?, term("price")?);
    let rdf_type = store
        .lookup_iri(vocab::rdf::TYPE)
        .ok_or("no rdf:type in the data")?;
    let initial = State::initial(store).ext;
    let mut restrict_us = Vec::new();
    let t0 = Instant::now();
    let laptops = restrict_class(store, &initial, laptop);
    restrict_us.push(t0.elapsed().as_secs_f64() * 1e6);
    for k in 0..8 {
        if let Some(company) = store.lookup_iri(&format!("{EX}Company{k}")) {
            let t0 = Instant::now();
            std::hint::black_box(restrict_value(
                store,
                &laptops,
                PathStep::fwd(manufacturer),
                company,
            ));
            restrict_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    m.insert("facets.restrict_us", mean(&restrict_us));
    let t0 = Instant::now();
    let scanned = store.matching(None, Some(rdf_type), Some(laptop)).count()
        + store.matching(None, Some(price), None).count();
    m.insert("store.pattern_scan_ms", ms_since(t0));
    std::hint::black_box(scanned);

    // ---- the write path: transaction, WAL record, view maintenance ---------
    let mut commit_ms = Vec::new();
    let mut maintain_ms = Vec::new();
    let mut changes = Vec::new();
    for k in 0..3 {
        let base = snapshots.snapshot();
        let t0 = Instant::now();
        let mut txn = snapshots.begin_write();
        let body = script::insert_update(i.cfg.seed, 1_000_000 + k, i.n_companies);
        let (_, recorded) =
            execute_update_recording(txn.store_mut(), &body).map_err(|e| e.to_string())?;
        txn.commit();
        commit_ms.push(ms_since(t0));
        if let Some(v) = &replayer.views {
            // the first round catches the views up with the replay's store
            let t0 = Instant::now();
            v.maintain(&base, &snapshots.snapshot(), &recorded);
            maintain_ms.push(ms_since(t0));
        }
        changes = recorded;
    }
    m.insert("store.commit_ms", median(&commit_ms));
    m.insert("views.maintain_ms", median(&maintain_ms));
    let probe_dir = i.data.with_file_name("wal-probe");
    let mut probe = PersistentStore::open(&probe_dir, persist).map_err(|e| e.to_string())?;
    let (wal_before, _) = dir_listing(&probe_dir);
    let mut append_ms = Vec::new();
    for _ in 0..20 {
        let t0 = Instant::now();
        probe.log_mutations(&changes).map_err(|e| e.to_string())?;
        append_ms.push(ms_since(t0));
    }
    m.insert("store.wal_append_ms", median(&append_ms));
    m.insert(
        "store.wal_bytes_per_update",
        (dir_listing(&probe_dir).0 - wal_before) as f64 / 20.0,
    );
    drop(probe);

    // ---- from outside: the server's counters over the window ----------------
    let (s0, s1) = &i.stats;
    let delta = |a: &Json, b: &Json, key: &str| b.num(key) - a.num(key);
    let ratio = |hits: f64, misses: f64| {
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        }
    };
    m.insert(
        "facets.cache_hit_ratio",
        ratio(
            delta(&s0.facets, &s1.facets, "hits"),
            delta(&s0.facets, &s1.facets, "misses"),
        ),
    );
    m.insert(
        "facets.cache_evictions",
        delta(&s0.facets, &s1.facets, "evictions"),
    );
    m.insert(
        "facets.stale_hits",
        delta(&s0.facets, &s1.facets, "stale_hits"),
    );
    m.insert(
        "views.hit_ratio",
        ratio(
            delta(&s0.views, &s1.views, "hits"),
            delta(&s0.views, &s1.views, "misses"),
        ),
    );
    m.insert("views.rebuilds", delta(&s0.views, &s1.views, "rebuilds"));
    let view_list = s1
        .view_list
        .get("views")
        .map(Json::as_arr)
        .unwrap_or_default();
    m.insert("views.materialized", view_list.len() as f64);
    m.insert(
        "views.bytes",
        view_list.iter().map(|v| v.num("approx_bytes")).sum(),
    );
    m.insert("store.resident_bytes", s1.healthz.num("resident_bytes"));
    m.insert("store.segment_bytes", s1.healthz.num("segment_bytes"));
    m.insert("server.rss_mb", i.rss_mb);
    m.insert("server.shed", s1.healthz.num("shed"));
    m.insert("server.in_flight_max", i.in_flight_max);
    m.insert("server.health_rtt_us", i.floor.health_rtt_us);
    m.insert("server.delayed_ack_rtt_us", i.floor.delayed_ack_rtt_us);
    m.insert("server.connect_ms", i.floor.connect_ms);
    m.insert("server.reconnects", i.reconnects as f64);
    let big: Vec<&Sample> = i
        .plain
        .iter()
        .chain(i.traced)
        .filter(|s| matches!(script.templates[s.click.template].id, "Q4" | "F0"))
        .collect();
    m.insert(
        "server.stream_mb_per_s",
        big.iter().map(|s| s.bytes as f64).sum::<f64>()
            / 1e3
            / big.iter().map(|s| s.ms).sum::<f64>().max(1e-9),
    );

    // ---- durability, as the tail of the run saw it ---------------------------
    let t = i.tail;
    m.insert(
        "store.checkpoint_s",
        if workload == Workload::ExploreMmap {
            i.ingest_checkpoint_s
        } else {
            t.checkpoint_s
        },
    );
    m.insert("store.restart_p50_ms", median(&t.restart_ms));
    m.insert("store.segment_files_written", t.files_written as f64);
    m.insert("store.segment_files_shared", t.files_shared as f64);
    m.insert(
        "store.wal_replay_ms",
        if workload == Workload::MixedRw {
            (t.crash_restart_ms - median(&t.restart_ms)).max(0.0)
        } else {
            0.0
        },
    );
    let live_triples = i.triples + 9 * i.writes.live.len();
    m.insert(
        "store.disk_bytes_per_triple",
        t.disk_bytes as f64 / live_triples as f64,
    );

    // ---- the benchmark's own ---------------------------------------------------
    let all: Vec<Sample> = i.plain.iter().chain(i.traced).copied().collect();
    let (p95, p99, late) = tail_latencies(&all);
    m.insert("client.clicks", all.len() as f64);
    m.insert(
        "client.clicks_per_s",
        i.plain.len() as f64 / i.plain_elapsed_s,
    );
    m.insert("client.updates", i.writes.latencies_ms.len() as f64);
    m.insert("client.click_p95_ms", p95);
    m.insert("client.click_p99_ms", p99);
    m.insert(
        "client.update_max_ms",
        i.writes.latencies_ms.iter().copied().fold(0.0, f64::max),
    );
    m.insert("client.late_share", late);
    m.insert(
        "client.error_share",
        i.tally.failed as f64 / i.tally.attempted.max(1) as f64,
    );
    let plain_session: f64 = template_means(script, i.plain).iter().sum();
    let traced_session: f64 = template_means(script, i.traced).iter().sum();
    m.insert(
        "client.trace_overhead_share",
        if plain_session > 0.0 {
            traced_session / plain_session - 1.0
        } else {
            0.0
        },
    );
    m.insert("datagen.generate_s", i.generate_s);
    m.insert("datagen.triples", i.triples as f64);

    Ok(m.into_iter().collect())
}
