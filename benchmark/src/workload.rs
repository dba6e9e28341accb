//! One run of one workload against the real `rdfa-server`: generate the data,
//! set the server up, warm it, drive the click script for the window, then
//! check what the server said — and, on the durable workloads, what survives
//! a crash and a restart.
//!
//! Closed loop, zero think time, one request in flight: one analyst waits for
//! each answer before the next click, and on `mixed_rw` sends an update after
//! every third one and waits for that too.

use crate::affinity::Cores;
use crate::check::{self, Fingerprint};
use crate::http::Conn;
use crate::json::Json;
use crate::layers;
use crate::proc::{dir_listing, ServerProc};
use crate::script::{self, Action, Click, Script};
use crate::stats::{mean, median, quantile};
use crate::trace::Tracer;
use rdf_analytics::datagen::ProductsGenerator;
use rdf_analytics::model::ntriples;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Warm-up passes whose answers are checked: the last ones of a set-up.
const CHECKED_PASSES: usize = 2;
/// The write phase that follows the window on the workloads that write
/// nothing in it, as a share of the window's length. `update_p50_ms` has to
/// exist on every workload; a burst of updates on their own, three seconds
/// long, caught the host in one mood and spread 12–20 % over ten runs where
/// `mixed_rw`'s, strewn over its ten-second window, spread 5 %.
const WRITE_PHASE: f64 = 0.6;
/// A click slower than this is late: the analyst stopped feeling the system answer.
const INTERACTIVE_LIMIT_MS: f64 = 500.0;
/// Traced passes replayed in-process for the per-layer breakdown.
pub const REPLAY_PASSES: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ExploreCold,
    ExploreWarm,
    MixedRw,
    ExploreMmap,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ExploreCold,
        Workload::ExploreWarm,
        Workload::MixedRw,
        Workload::ExploreMmap,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreCold => "explore_cold",
            Workload::ExploreWarm => "explore_warm",
            Workload::MixedRw => "mixed_rw",
            Workload::ExploreMmap => "explore_mmap",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn durable(self) -> bool {
        matches!(self, Workload::MixedRw | Workload::ExploreMmap)
    }

    /// Clicks between one update and the next, where the workload writes.
    /// Three makes `mixed_rw`'s window a third writing and two thirds
    /// reading: about thirty updates and nine passes, once round every
    /// variant pool. A click of `explore_mmap` takes as long as three of the
    /// others.
    fn clicks_per_update(self) -> usize {
        if self == Workload::ExploreMmap {
            1
        } else {
            3
        }
    }

    pub fn views(self) -> bool {
        matches!(self, Workload::ExploreWarm | Workload::MixedRw)
    }

    /// Passes clicked through before anything is timed. `explore_warm` goes
    /// once round every variant pool, so each state the window asks for has
    /// been asked for before — that is what makes it warm. The others have no
    /// cache that outlives a write or no cache at all; two passes fill the
    /// page cache and the lazy dictionaries, and a third would cost
    /// `explore_mmap` five seconds a set-up for nothing a median can see.
    pub fn warmup_passes(self) -> usize {
        if self == Workload::ExploreWarm {
            script::POOL
        } else {
            CHECKED_PASSES
        }
    }

    /// Set-ups per untraced run; `setup_s` is their median. A set-up of three
    /// seconds is cheap to repeat. One of eleven (`explore_warm`: a hundred
    /// warm-up clicks; `explore_mmap`: ingest, checkpoint, reopen) is steady
    /// by itself and not affordable three times in each of the driver's 92 runs.
    pub fn setups(self) -> usize {
        match self {
            Workload::ExploreCold | Workload::MixedRw => 3,
            Workload::ExploreWarm | Workload::ExploreMmap => 1,
        }
    }

    /// Restarts timed at the end of a run, spawn → first correct `Q1`. From a
    /// checkpointed directory one takes 60 ms, and every run makes nine, asking
    /// each for the acknowledged writes. From the N-Triples file one takes half
    /// a second and proves nothing, so only the traced run, which reports
    /// `store.restart_p50_ms`, makes them.
    pub fn restarts(self, trace: bool) -> usize {
        match (self.durable(), trace) {
            (true, _) => 9,
            (false, true) => 5,
            (false, false) => 0,
        }
    }

    /// Entries of the server's facet cache (0 = off, 128 = its default).
    pub fn facet_cache(self) -> usize {
        if self.views() {
            rdf_analytics::facets::DEFAULT_FACET_CACHE_ENTRIES
        } else {
            0
        }
    }

    fn server_args(self, data: Option<&Path>, dir: &Path) -> Vec<String> {
        let mut args: Vec<String> = data.iter().map(|p| p.display().to_string()).collect();
        if self.durable() {
            args.extend([
                "--persist".to_owned(),
                dir.display().to_string(),
                "--segments".to_owned(),
            ]);
        }
        if self.views() {
            args.push("--auto-views".to_owned());
        } else {
            args.extend(["--facet-cache".to_owned(), "0".to_owned()]);
        }
        args
    }
}

pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub products: usize,
    pub server_bin: PathBuf,
    pub out_dir: PathBuf,
    pub cores: Cores,
}

/// What one run reports: the contract's `attempted`/`failed` and the metrics
/// of its mode, in table order.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<(&'static str, f64)>,
}

/// Running totals of requests made and requests that went wrong.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Why the first few failed, for the human reading the log.
    pub problems: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }
}

/// One timed click.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub click: Click,
    pub id: u32,
    pub ms: f64,
    pub bytes: usize,
    pub ok: bool,
}

/// What the server answered to a warm-up click, to be compared with the
/// in-process answer once the server is gone.
pub struct Observed {
    pub click: Click,
    pub fingerprint: Result<Fingerprint, String>,
}

/// Click once: build the request (translating HIFUN inside the timed
/// interval), send it, read the whole answer.
fn do_click(
    script: &Script,
    click: Click,
    id: u32,
    conn: &mut Conn,
    tracer: Option<&mut Tracer>,
) -> (Sample, Vec<u8>) {
    let label = script.templates[click.template].id;
    let start = Instant::now();
    let mut hifun_marks = None;
    let action = script.action(click);
    let target = match action {
        Action::Facets { class } => script::facets_target(class),
        Action::Sparql(text) => script::query_target(text),
        Action::Hifun { .. } => {
            let query = action.hifun().expect("a HIFUN action has a HIFUN query");
            let parsed = Instant::now();
            let sparql = script::translate(&query);
            hifun_marks = Some((parsed, Instant::now()));
            script::query_target(&sparql)
        }
    };
    let sent = Instant::now();
    let response = conn.get(&target);
    let end = Instant::now();
    if let Some(t) = tracer {
        let root = t.record("click", label, 0, id, start, end);
        if let Some((parsed, translated)) = hifun_marks {
            t.record("hifun.parse", "", root, id, start, parsed);
            t.record("hifun.translate", "", root, id, parsed, translated);
        }
        t.record("http.roundtrip", "", root, id, sent, end);
    }
    let (ok, body) = match response {
        Ok(r) => (r.ok() && !r.body.is_empty(), r.body),
        Err(_) => (false, Vec::new()),
    };
    let ms = (end - start).as_secs_f64() * 1e3;
    (
        Sample {
            click,
            id,
            ms,
            bytes: body.len(),
            ok,
        },
        body,
    )
}

fn fingerprint_of(script: &Script, click: Click, body: &[u8]) -> Result<Fingerprint, String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    match script.action(click) {
        Action::Facets { .. } => check::facets_json(text),
        _ => check::sparql_json(text),
    }
}

/// A running server and the connection the reader clicks through.
struct Live {
    server: ServerProc,
    conn: Conn,
}

impl Live {
    /// SIGTERM and wait: drain, checkpoint, exit. The reader hangs up first —
    /// the server's drain waits out an idle keep-alive connection (5 s), and
    /// that wait is not the checkpoint.
    fn terminate(self) -> Result<Duration, String> {
        drop(self.conn);
        self.server.terminate()
    }
}

/// `Q1` must answer with the expected laptop count; the time of that first
/// correct answer, counted from the spawn.
fn first_correct_q1(live: &mut Live, expected_laptops: usize) -> Result<f64, String> {
    let target = script::query_target(&script::laptop_count_query());
    let response = live
        .conn
        .get(&target)
        .map_err(|e| format!("Q1 after start: {e}"))?;
    let ms = live.server.spawned_at.elapsed().as_secs_f64() * 1e3;
    let text = response.text();
    if response.ok() && text.contains(&format!("\"value\":\"{expected_laptops}\"")) {
        Ok(ms)
    } else {
        Err(format!(
            "Q1 after start: expected {expected_laptops} laptops, got {} {text}",
            response.status
        ))
    }
}

fn spawn(cfg: &Config, data: Option<&Path>, dir: &Path) -> Result<Live, String> {
    let server = ServerProc::spawn(
        &cfg.server_bin,
        &cfg.workload.server_args(data, dir),
        cfg.cores.server,
    )?;
    let conn = Conn::new(server.addr);
    Ok(Live { server, conn })
}

struct SetUp {
    live: Live,
    seconds: f64,
    observed: Vec<Observed>,
    /// `explore_mmap` only: the ingest-side checkpoint.
    checkpoint_s: f64,
}

/// Spawn → ready → warm-up passes. `explore_mmap` ingests, checkpoints on
/// SIGTERM and reopens, so its reads come from mmap segments.
fn set_up(cfg: &Config, script: &Script, data: &Path, dir: &Path) -> Result<SetUp, String> {
    let _ = std::fs::remove_dir_all(dir);
    let started = Instant::now();
    let mut live = spawn(cfg, Some(data), dir)?;
    first_correct_q1(&mut live, cfg.products)?;
    let mut checkpoint_s = 0.0;
    if cfg.workload == Workload::ExploreMmap {
        checkpoint_s = live.terminate()?.as_secs_f64();
        live = spawn(cfg, None, dir)?;
        first_correct_q1(&mut live, cfg.products)?;
    }
    let mut observed = Vec::new();
    let passes = cfg.workload.warmup_passes();
    for pass in 0..passes {
        for click in script.pass(pass) {
            let (sample, body) = do_click(script, click, 0, &mut live.conn, None);
            if pass + CHECKED_PASSES < passes {
                continue;
            }
            let fingerprint = if sample.ok {
                fingerprint_of(script, click, &body)
            } else {
                Err("request failed".to_owned())
            };
            observed.push(Observed { click, fingerprint });
        }
    }
    Ok(SetUp {
        live,
        seconds: started.elapsed().as_secs_f64(),
        observed,
        checkpoint_s,
    })
}

/// The writer's ledger: what was acknowledged, so it can be looked for later.
#[derive(Default)]
pub struct Writes {
    pub latencies_ms: Vec<f64>,
    /// Sequence numbers inserted, acknowledged, and not deleted since.
    pub live: BTreeSet<usize>,
    next: usize,
    pub failed: u64,
}

impl Writes {
    /// One update: an insert of a new product, or — every 4th — a delete of
    /// the oldest one still there.
    fn step(&mut self, cfg: &Config, n_companies: usize, conn: &mut Conn) {
        let delete = self.latencies_ms.len() % 4 == 3 && !self.live.is_empty();
        let (body, seq) = if delete {
            let seq = *self.live.iter().next().expect("checked non-empty");
            (script::delete_update(cfg.seed, seq, n_companies), seq)
        } else {
            self.next += 1;
            (
                script::insert_update(cfg.seed, self.next, n_companies),
                self.next,
            )
        };
        let start = Instant::now();
        let response = conn.post("/v1/update", &body);
        self.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        match response {
            Ok(r) if r.ok() => {
                if delete {
                    self.live.remove(&seq);
                } else {
                    self.live.insert(seq);
                }
            }
            _ => self.failed += 1,
        }
    }
}

/// Every acknowledged write must be there, and nothing else.
fn verify_writes(conn: &mut Conn, writes: &Writes, when: &str, tally: &mut Tally) {
    tally.attempted += 1;
    let found: Result<BTreeSet<usize>, String> = conn
        .get(&script::query_target(&script::live_writes_query()))
        .map_err(|e| e.to_string())
        .and_then(|r| {
            if r.ok() {
                Json::parse(&r.text())
            } else {
                Err(format!("status {}", r.status))
            }
        })
        .map(|doc| {
            doc.get("results")
                .and_then(|r| r.get("bindings"))
                .map(|b| b.as_arr())
                .unwrap_or_default()
                .iter()
                .filter_map(|b| b.get("n")?.get("value")?.as_str()?.parse().ok())
                .collect()
        });
    match found {
        Ok(found) if found == writes.live => {}
        Ok(found) => tally.fail(format!(
            "{when}: {} acknowledged writes expected, {} found ({} lost, {} resurrected)",
            writes.live.len(),
            found.len(),
            writes.live.difference(&found).count(),
            found.difference(&writes.live).count()
        )),
        Err(e) => tally.fail(format!("{when}: cannot read the writes back: {e}")),
    }
}

/// What the reader saw in one window.
#[derive(Default)]
struct Window {
    samples: Vec<Sample>,
    /// Seconds from the first click to the end of the last whole pass.
    elapsed: f64,
    passes: usize,
    /// Highest `in_flight` the server reported between traced passes.
    in_flight_max: f64,
}

/// The timed window: whole passes until `seconds` have gone by, so every
/// template is clicked equally often. With `writes`, an update follows every
/// few clicks — `mixed_rw`'s window, and the write phase of the others.
#[allow(clippy::too_many_arguments)]
fn window(
    cfg: &Config,
    script: &Script,
    live: &mut Live,
    seconds: f64,
    first_pass: usize,
    first_id: u32,
    mut tracer: Option<&mut Tracer>,
    writes: Option<(&mut Writes, usize)>,
) -> Window {
    let mut w = Window::default();
    let mut writer =
        writes.map(|(ledger, n_companies)| (ledger, n_companies, Conn::new(live.server.addr)));
    let started = Instant::now();
    let mut id = first_id;
    let mut probing = 0.0;
    while w.elapsed < seconds {
        for click in script.pass(first_pass + w.passes) {
            id += 1;
            let (sample, _) = do_click(script, click, id, &mut live.conn, tracer.as_deref_mut());
            w.samples.push(sample);
            if let Some((ledger, n_companies, conn)) = writer.as_mut() {
                if w.samples.len() % cfg.workload.clicks_per_update() == 0 {
                    ledger.step(cfg, *n_companies, conn);
                }
            }
        }
        w.passes += 1;
        if tracer.is_some() {
            // between passes, and taken out of the window's length
            let t = Instant::now();
            let health = live
                .conn
                .get("/healthz")
                .ok()
                .and_then(|r| Json::parse(&r.text()).ok());
            w.in_flight_max = w
                .in_flight_max
                .max(health.map_or(0.0, |h| h.num("in_flight")));
            probing += t.elapsed().as_secs_f64();
        }
        w.elapsed = started.elapsed().as_secs_f64() - probing;
    }
    w
}

/// Per-template latency of a window, in template order: the mean over the
/// variants clicked of the variant's mean latency.
///
/// Means, because the variants of a template cost different amounts (`Q6` is
/// 5 ms from a view and 300 ms past one) and a window holds one or two clicks
/// of each: the median of eight such numbers jumps by a whole variant when a
/// window ends a pass earlier or later, the mean moves by an eighth of the
/// difference. Per variant first, so that once a window has been round the
/// pool a variant clicked twice weighs no more than one clicked once.
pub fn template_means(script: &Script, samples: &[Sample]) -> Vec<f64> {
    script
        .templates
        .iter()
        .enumerate()
        .map(|(t, template)| {
            let per_variant: Vec<f64> = (0..template.variants.len())
                .map(|v| {
                    samples
                        .iter()
                        .filter(|s| {
                            s.click
                                == Click {
                                    template: t,
                                    variant: v,
                                }
                        })
                        .map(|s| s.ms)
                        .collect::<Vec<_>>()
                })
                .filter(|ms| !ms.is_empty())
                .map(|ms| mean(&ms))
                .collect();
            mean(&per_variant)
        })
        .collect()
}

fn class_mean(script: &Script, means: &[f64], analytic: bool) -> f64 {
    mean(
        &script
            .templates
            .iter()
            .zip(means)
            .filter(|(t, _)| t.analytic == analytic)
            .map(|(_, m)| *m)
            .collect::<Vec<_>>(),
    )
}

/// What the end of a run found: restarts, and on the durable workloads the
/// crash and the checkpoint before them.
#[derive(Default)]
pub struct Tail {
    pub restart_ms: Vec<f64>,
    pub checkpoint_s: f64,
    pub files_written: usize,
    pub files_shared: usize,
    pub disk_bytes: u64,
    pub crash_restart_ms: f64,
}

/// Stop the server and time fresh ones, spawn → first correct `Q1`.
/// Nothing outlives an in-memory server, so its restart is a reload of the
/// N-Triples file. A durable one is crashed, restarted from the WAL,
/// checkpointed, and restarted from the checkpoint — and asked after each for
/// every acknowledged write.
fn tail(
    cfg: &Config,
    mut live: Live,
    data: &Path,
    dir: &Path,
    writes: &Writes,
    tally: &mut Tally,
    phase: &dyn Fn(&str),
) -> Result<Tail, String> {
    let mut tail = Tail::default();
    let durable = cfg.workload.durable();
    let laptops = if durable {
        cfg.products + writes.live.len()
    } else {
        cfg.products
    };
    if cfg.workload == Workload::MixedRw {
        // SIGKILL: the WAL is all that is left of the window's writes
        live.server.kill();
        live = spawn(cfg, None, dir)?;
        tally.attempted += 1;
        match first_correct_q1(&mut live, laptops) {
            Ok(ms) => tail.crash_restart_ms = ms,
            Err(e) => tally.fail(format!("after SIGKILL: {e}")),
        }
        verify_writes(
            &mut live.conn,
            writes,
            "after SIGKILL and WAL replay",
            tally,
        );
        phase("killed, restarted from the WAL");
    }
    if durable {
        let (_, before) = dir_listing(dir);
        tail.checkpoint_s = live.terminate()?.as_secs_f64();
        let (bytes, after) = dir_listing(dir);
        tail.disk_bytes = bytes;
        tail.files_written = after
            .iter()
            .filter(|f| f.ends_with(".seg") && !before.contains(f))
            .count();
        tail.files_shared = after
            .iter()
            .filter(|f| f.ends_with(".seg") && before.contains(f))
            .count();
        phase("checkpointed on SIGTERM");
    } else {
        live.server.kill();
    }
    for i in 0..cfg.workload.restarts(cfg.trace) {
        let mut live = spawn(cfg, (!durable).then_some(data), dir)?;
        tally.attempted += 1;
        match first_correct_q1(&mut live, laptops) {
            Ok(ms) => tail.restart_ms.push(ms),
            Err(e) => tally.fail(format!("restart {i}: {e}")),
        }
        if durable {
            verify_writes(
                &mut live.conn,
                writes,
                "after a checkpointed restart",
                tally,
            );
        }
        // nothing was written since, so a clean shutdown would add nothing
        live.server.kill();
    }
    Ok(tail)
}

/// A click that was not answered `2xx` with a body is a failed operation.
fn count_clicks(script: &Script, samples: &[Sample], when: &str, tally: &mut Tally) {
    for s in samples {
        tally.attempted += 1;
        if !s.ok {
            tally.fail(format!(
                "click {} failed in {when}",
                script.templates[s.click.template].id
            ));
        }
    }
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let work = cfg.out_dir.join(format!(
        "run-{}-{}-{}",
        cfg.workload.name(),
        cfg.seed,
        cfg.trace as u8
    ));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let outcome = run_in(cfg, &work);
    let _ = std::fs::remove_dir_all(&work);
    outcome
}

fn run_in(cfg: &Config, work: &Path) -> Result<Outcome, String> {
    let run_started = Instant::now();
    let phase = |name: &str| eprintln!("# {:>7.2} s  {name}", run_started.elapsed().as_secs_f64());
    // ---- data: made from the seed, handed to the server as a file --------
    let generate_started = Instant::now();
    let generator = ProductsGenerator::new(cfg.products, cfg.seed);
    let graph = generator.generate();
    let triples = graph.len();
    let data = work.join("data.nt");
    std::fs::write(&data, ntriples::serialize(&graph))
        .map_err(|e| format!("cannot write {}: {e}", data.display()))?;
    drop(graph);
    let generate_s = generate_started.elapsed().as_secs_f64();
    let n_companies = generator.n_companies;
    let script = Script::new(cfg.seed, n_companies);
    eprintln!(
        "# {}: {triples} triples, {} click templates, {} distinct states, facet cache {}, fsync always, generator on core {:?}, server on {:?}",
        cfg.workload.name(),
        script.templates.len(),
        script.states(),
        cfg.workload.facet_cache(),
        cfg.cores.generator.cores(),
        cfg.cores.server.cores()
    );
    let dir = work.join("persist");
    let mut tally = Tally::default();

    phase("data written");
    // from here until the server is gone for good, this thread is the generator
    cfg.cores.generator.confine_this_thread();

    // ---- set-up, several times where it is short ---------------------------
    let setups = if cfg.trace { 1 } else { cfg.workload.setups() };
    let mut setup_s = Vec::new();
    let mut kept = set_up(cfg, &script, &data, &dir)?;
    setup_s.push(kept.seconds);
    while setup_s.len() < setups {
        kept.live.server.kill();
        kept = set_up(cfg, &script, &data, &dir)?;
        setup_s.push(kept.seconds);
    }
    let SetUp {
        mut live,
        observed,
        checkpoint_s: ingest_checkpoint_s,
        ..
    } = kept;

    phase("set up and warm");

    // ---- the window --------------------------------------------------------
    let stats_before = layers::ServerStats::fetch(&mut live.conn);
    let mut writes = Writes::default();
    let mut tracer = Tracer::new();
    let cpu_before = live.server.cpu_seconds();
    let (plain_seconds, traced_seconds) = if cfg.trace {
        (cfg.seconds / 2.0, cfg.seconds / 2.0)
    } else {
        (cfg.seconds, 0.0)
    };
    let writer = (cfg.workload == Workload::MixedRw).then_some(n_companies);
    let plain = window(
        cfg,
        &script,
        &mut live,
        plain_seconds,
        cfg.workload.warmup_passes(),
        0,
        None,
        writer.map(|n| (&mut writes, n)),
    );
    let cpu_s = live.server.cpu_seconds() - cpu_before;
    let traced = if cfg.trace {
        window(
            cfg,
            &script,
            &mut live,
            traced_seconds,
            cfg.workload.warmup_passes() + plain.passes,
            plain.samples.len() as u32,
            Some(&mut tracer),
            writer.map(|n| (&mut writes, n)),
        )
    } else {
        Window::default()
    };
    let rss_mb = live.server.peak_rss_mb();
    let stats_after = layers::ServerStats::fetch(&mut live.conn);
    let floor = cfg
        .trace
        .then(|| layers::http_floor(&mut live.conn, live.server.addr));

    count_clicks(&script, &plain.samples, "the window", &mut tally);
    count_clicks(&script, &traced.samples, "the window", &mut tally);
    if cfg.workload == Workload::ExploreWarm {
        // what makes this workload differ from `explore_cold` has to happen
        tally.attempted += 1;
        let (view_hits, cache_hits) = stats_before.hits_until(&stats_after);
        if view_hits == 0.0 || cache_hits == 0.0 {
            tally.fail(format!(
                "explore_warm is not warm: {view_hits} view hits and {cache_hits} facet-cache hits in the window"
            ));
        }
    }

    phase("window closed");

    // ---- writes: `mixed_rw` made them in its window, the others do now ------
    if writer.is_none() {
        let phase = window(
            cfg,
            &script,
            &mut live,
            cfg.seconds * WRITE_PHASE,
            cfg.workload.warmup_passes() + plain.passes + traced.passes,
            0,
            None,
            Some((&mut writes, n_companies)),
        );
        count_clicks(&script, &phase.samples, "the write phase", &mut tally);
    }
    tally.attempted += writes.latencies_ms.len() as u64;
    for _ in 0..writes.failed {
        tally.fail("an update was not acknowledged".to_owned());
    }
    verify_writes(&mut live.conn, &writes, "after the window", &mut tally);
    let reconnects = live.conn.reconnects;

    phase("writes verified");

    // ---- restarts (and durability), then the server is gone ---------------
    let tail = tail(cfg, live, &data, &dir, &writes, &mut tally, &phase)?;
    cfg.cores.all.confine_this_thread();

    phase("server gone");

    // ---- answers, against the engine in this process -----------------------
    let reference = layers::Reference::load(&data)?;
    layers::check_observed(&script, &reference, &observed, &mut tally);

    phase("answers checked");

    let means = template_means(&script, &plain.samples);
    eprintln!(
        "# per-template mean latency over {} passes (ms):",
        plain.passes
    );
    eprintln!(
        "# {}",
        script
            .templates
            .iter()
            .zip(&means)
            .map(|(t, m)| format!("{} {m:.1}", t.id))
            .collect::<Vec<_>>()
            .join("  ")
    );
    let metrics = if cfg.trace {
        let inputs = layers::Inputs {
            cfg,
            script: &script,
            reference: &reference,
            persist_dir: cfg.workload.durable().then_some(dir.as_path()),
            data: &data,
            plain: &plain.samples,
            plain_elapsed_s: plain.elapsed,
            traced: &traced.samples,
            stats: (stats_before, stats_after),
            floor: floor.expect("measured in trace mode"),
            reconnects,
            in_flight_max: traced.in_flight_max,
            writes: &writes,
            tail: &tail,
            ingest_checkpoint_s,
            generate_s,
            triples,
            n_companies,
            rss_mb,
            tally: &tally,
        };
        let metrics = layers::per_layer(&inputs, &mut tracer)?;
        let path = cfg
            .out_dir
            .join(format!("trace-{}.jsonl", cfg.workload.name()));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        metrics
    } else {
        vec![
            ("setup_s", median(&setup_s)),
            ("session_ms", means.iter().sum()),
            ("facet_click_ms", class_mean(&script, &means, false)),
            ("analytic_click_ms", class_mean(&script, &means, true)),
            ("cpu_ms_per_click", cpu_s * 1e3 / plain.samples.len() as f64),
            ("update_p50_ms", median(&writes.latencies_ms)),
        ]
    };
    phase("done");
    Ok(Outcome { tally, metrics })
}

/// Raw latency percentiles of a window — reported, not gated.
pub fn tail_latencies(samples: &[Sample]) -> (f64, f64, f64) {
    let ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    let late = samples
        .iter()
        .filter(|s| !s.ok || s.ms > INTERACTIVE_LIMIT_MS)
        .count() as f64;
    (
        quantile(&ms, 0.95),
        quantile(&ms, 0.99),
        if ms.is_empty() {
            0.0
        } else {
            late / ms.len() as f64
        },
    )
}
