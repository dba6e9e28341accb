//! A hardened HTTP SPARQL endpoint — the server side of the paper's
//! architecture (Fig 6.1: the GUI talks to a backend that evaluates SPARQL
//! over the KG). Implemented on `std::net` only (HTTP/1.1 subset), enough
//! for the SPARQL protocol's common cases:
//!
//! | route | method | body/query | response |
//! |---|---|---|---|
//! | `/v1/query?query=…` | GET | URL-encoded query | negotiated via `Accept` (see below) |
//! | `/v1/query` | POST | the query verbatim | same |
//! | `/v1/update` | POST | an update request | `{"inserted":n,"deleted":m}` |
//! | `/v1/explain?query=…` | GET/POST | a `SELECT` (or any) query | the annotated plan (`text/plain`): `est=`, observed `rows=` and `scanned=` |
//! | `/v1/facets?class=…&budget_ms=…` | GET | facet markers for a class extension | JSON, possibly stale (see below) |
//! | `/void` | GET | — | the dataset's VoID description (N-Triples) |
//! | `/health` | GET | — | `ok` |
//! | `/healthz` | GET | — | JSON: snapshot generation, in-flight count, shed counter, WAL lag, triple count, how many commits refreshed the RDFS closure incrementally vs by a full pass |
//!
//! Content negotiation on `/v1/query`: `Accept: text/csv` → SPARQL CSV
//! results, `Accept: text/plain` → an aligned text table, anything else →
//! `application/sparql-results+json` (the default).
//!
//! # Snapshot-isolated reads
//!
//! Every read request (`/v1/query`, `/v1/facets`, `/void`, `/healthz`)
//! starts by taking a [`Snapshot`](rdfa_store::Snapshot) — an atomic `Arc`
//! clone of the current published store, after which **no lock is held**
//! for the rest of the request. A reader can never block behind an update, never observe a
//! half-applied batch, and never be poisoned by a panicking writer.
//!
//! Updates run through [`SharedStore::transact`], the store's one commit
//! path: the handler mutates a private copy-on-write working store
//! (writers are serialized by a mutex readers never touch) and the whole
//! batch is published with one pointer swap on success. A failed or
//! panicking update publishes nothing — concurrent readers keep the
//! previous generation throughout.
//!
//! On a durable store the transaction logs the batch's effective changes
//! as one WAL record and publishes it under one journal lock hold, and
//! shutdown / [`Server::checkpoint`] capture their store view under that
//! same lock — so an acknowledged batch is always in the checkpoint or in
//! the WAL, never compacted away *and* forgotten. Checkpoints read a
//! snapshot: they do not pause queries at all.
//!
//! # Admission control
//!
//! Overload is shed at two gates, outermost first: the bounded accept
//! queue (overflow → immediate `503`), and a per-server in-flight budget
//! ([`ServerConfig::max_in_flight`]) on the work routes — a request over
//! budget is answered `503` with `Retry-After` instead of queueing behind
//! work the server cannot finish in time. Health and stats routes bypass
//! the budget so orchestrators can always probe a saturated server. Shed
//! requests are counted and reported by `/healthz`.
//!
//! `/v1/facets` degrades before it sheds: when the marker computation
//! would exceed its deadline (tunable per request with `?budget_ms=`), a
//! cached marker set from a superseded store generation is served instead,
//! flagged with `X-Facet-Stale: <generation>`. `?budget_ms=0` means
//! "cached only": serve any cached generation immediately, never compute.
//!
//! Other robustness ([`ServerConfig`]): a fixed pool of worker threads
//! drains the bounded accept queue, every connection gets read/write
//! timeouts (stalled clients → `408` instead of a wedged worker),
//! `Content-Length` is capped *before* the body buffer is allocated
//! (oversized → `413`), queries run under [`EvalLimits`] — rows, time,
//! *and bytes*: per-request memory accounting trips a `503` before a
//! runaway join can take the process down — and a panicking handler is
//! caught and answered with a `500` without taking the worker down.
//! Errors are JSON bodies: `{"error":{"code":…,"message":…}}`.
//!
//! Shutdown ordering: stop accepting first, join the acceptor (dropping
//! the queue sender), let the workers drain every already-accepted
//! connection out of the bounded queue, join them, and only then
//! checkpoint — so no request is dropped mid-flight and the checkpoint
//! sees the final state.

use rdfa_facets::{
    notation, ClassMarker, FacetCache, FacetError, FacetOptions, PropertyFacet,
    State as FacetState,
};
use rdfa_model::json::{json_string, push_json_string};
use rdfa_model::Term;
use rdfa_sparql::{execute_update_limited, CancelFlag, Engine, EvalLimits, QueryResults};
use rdfa_store::{ExtSet, Mutation, PersistError, SharedStore, Store, StoreStats};
use rdfa_views::ViewManager;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Tunables for the endpoint's robustness behaviour.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads draining the accept queue.
    pub workers: usize,
    /// Accepted connections waiting for a worker; overflow is answered `503`.
    pub queue_capacity: usize,
    /// Per-connection socket read timeout (stalled request → `408`).
    pub read_timeout: Duration,
    /// Per-connection socket write timeout: a reader draining a streamed
    /// response slower than this is disconnected (shed), not waited on.
    pub write_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it.
    pub keep_alive_timeout: Duration,
    /// Requests served on one connection before the server closes it
    /// (`Connection: close` on the last response); bounds how long a
    /// single client can monopolize a worker. `0` means 1.
    pub max_requests_per_conn: usize,
    /// Target chunk size for streamed (chunked transfer-encoding) query
    /// results — the serialization buffer never grows past roughly this.
    pub stream_chunk_bytes: usize,
    /// Largest `Content-Length` accepted; larger requests → `413`.
    pub max_body_bytes: usize,
    /// Resource limits applied to every query evaluation and to every
    /// `/v1/update` WHERE clause (`503` when hit). Its `deadline` also
    /// bounds `/v1/facets` marker computation, and its `max_memory_bytes`
    /// caps what a single evaluation may materialize.
    pub limits: EvalLimits,
    /// Capacity of the generation-keyed facet cache behind `/v1/facets`
    /// (marker sets, not bytes); `0` disables caching.
    pub facet_cache_entries: usize,
    /// Most requests served simultaneously on the work routes; the excess
    /// is shed with `503` + `Retry-After`. Health/stats routes are exempt.
    /// `0` disables the budget (in-flight is still counted for `/healthz`).
    pub max_in_flight: usize,
    /// Enable test-only routes (`/panic`, `/slow`). Off by default.
    pub debug_routes: bool,
    /// Workload-driven materialized aggregate views: record the aggregate
    /// fragment of the `/v1/query` workload, materialize the hot shapes,
    /// answer matching queries from the views, and maintain them
    /// incrementally on `/v1/update`. The facet panel never reads them.
    /// Exposed on `/v1/views`. Off by default.
    pub auto_views: bool,
    /// Approximate memory budget for materialized views (bytes).
    pub view_budget_bytes: usize,
    /// Times a shape must be observed before the selector materializes it.
    pub view_min_observations: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            keep_alive_timeout: Duration::from_secs(5),
            max_requests_per_conn: 100,
            stream_chunk_bytes: 64 << 10, // 64 KiB
            max_body_bytes: 1 << 20,      // 1 MiB
            limits: EvalLimits::interactive(),
            facet_cache_entries: rdfa_facets::DEFAULT_FACET_CACHE_ENTRIES,
            max_in_flight: 64,
            debug_routes: false,
            auto_views: false,
            view_budget_bytes: rdfa_views::ViewConfig::default().memory_budget_bytes,
            view_min_observations: rdfa_views::ViewConfig::default().min_observations,
        }
    }
}

/// Everything a worker needs to serve a request.
struct Ctx {
    shared: Arc<SharedStore>,
    facet_cache: FacetCache,
    config: ServerConfig,
    /// Requests currently being served on the work routes.
    in_flight: AtomicUsize,
    /// Requests turned away by the in-flight budget since startup.
    shed: AtomicU64,
    /// Set at the start of shutdown: in-flight evaluations observe it via
    /// their [`CancelFlag`] watcher and stop promptly instead of running
    /// to completion against a server that will discard the answer.
    draining: Arc<AtomicBool>,
    /// State for the jittered `Retry-After` values (splitmix-style hash of
    /// an advancing counter — no locking, no external RNG dependency).
    retry_seed: AtomicU64,
    /// The materialized-view manager when [`ServerConfig::auto_views`] is
    /// on: plugged into every query engine, maintained by `/v1/update`.
    views: Option<Arc<ViewManager>>,
    /// The initial state's extension (s0) at the newest snapshot
    /// generation a classless panel has read. It depends on the snapshot
    /// alone, so it is computed once per generation.
    initial: Mutex<Option<(u64, Arc<ExtSet>)>>,
}

impl Ctx {
    /// s0's extension at `snap`'s generation, computed on the first
    /// classless panel of that generation.
    fn initial_extension(&self, snap: &rdfa_store::Snapshot) -> Arc<ExtSet> {
        let generation = snap.generation();
        // the slot is replaced whole, so a poisoned lock still guards a
        // valid value
        let mut slot = self.initial.lock().unwrap_or_else(|e| e.into_inner());
        match &*slot {
            Some((g, ext)) if *g == generation => Arc::clone(ext),
            held => {
                let ext = Arc::new(FacetState::initial(snap).ext);
                if held.as_ref().is_none_or(|(g, _)| *g < generation) {
                    *slot = Some((generation, Arc::clone(&ext)));
                }
                ext
            }
        }
    }
}

/// A jittered `Retry-After` header (1–3 s) so that a fleet of clients shed
/// at the same instant does not re-stampede the server on the same tick.
fn retry_after_header(ctx: &Ctx) -> String {
    let mut x = ctx.retry_seed.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    format!("Retry-After: {}", 1 + x % 3)
}

/// An admitted work-route request; releases its in-flight slot on drop —
/// including when the handler panics.
struct Admitted<'a>(&'a Ctx);

impl Drop for Admitted<'_> {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Claim an in-flight slot, or `None` when the budget is exhausted (the
/// caller sheds the request). With the budget disabled (`max_in_flight: 0`)
/// admission always succeeds but the gauge still moves for `/healthz`.
fn admit(ctx: &Ctx) -> Option<Admitted<'_>> {
    let budget = ctx.config.max_in_flight;
    let prev = ctx.in_flight.fetch_add(1, Ordering::Relaxed);
    if budget != 0 && prev >= budget {
        ctx.in_flight.fetch_sub(1, Ordering::Relaxed);
        ctx.shed.fetch_add(1, Ordering::Relaxed);
        return None;
    }
    Some(Admitted(ctx))
}

/// The shed response: `503` with a JSON error body and a jittered
/// `Retry-After`, so well-behaved clients back off instead of hammering a
/// saturated server — and don't all come back on the same second.
fn write_shed(wire: &mut Wire<'_>, ctx: &Ctx) -> std::io::Result<()> {
    write_response_headed(
        wire,
        "503 Service Unavailable",
        "application/json",
        &[retry_after_header(ctx)],
        &json_error(503, "server at capacity: in-flight request budget exhausted"),
    )
}

/// A running endpoint: drop it (or call [`Server::stop`]) to shut down.
pub struct Server {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    /// The accept loop — joined *first* on shutdown so no new connections
    /// enter the queue while the workers drain it.
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    ctx: Arc<Ctx>,
}

impl Server {
    /// Bind `127.0.0.1:port` (0 = ephemeral) and serve with default config.
    pub fn start(store: impl Into<SharedStore>, port: u16) -> std::io::Result<Server> {
        Server::start_with(store, port, ServerConfig::default())
    }

    /// Bind and serve with an explicit [`ServerConfig`]. A durable store
    /// ([`SharedStore::open`]) logs every `/v1/update` before it is
    /// acknowledged, `/healthz` reports its generation and WAL lag, and
    /// shutdown checkpoints it after draining in-flight requests.
    pub fn start_with(
        store: impl Into<SharedStore>,
        port: u16,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let shared = Arc::new(store.into());
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let queue_capacity = config.queue_capacity;
        let read_timeout = config.read_timeout;
        let write_timeout = config.write_timeout;
        let worker_count = config.workers;
        let views = if config.auto_views {
            Some(Arc::new(ViewManager::new(rdfa_views::ViewConfig {
                auto: true,
                memory_budget_bytes: config.view_budget_bytes,
                min_observations: config.view_min_observations,
                ..rdfa_views::ViewConfig::default()
            })))
        } else {
            None
        };
        let ctx = Arc::new(Ctx {
            shared,
            facet_cache: FacetCache::new(config.facet_cache_entries),
            config,
            in_flight: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
            draining: Arc::new(AtomicBool::new(false)),
            retry_seed: AtomicU64::new(0x243F_6A88_85A3_08D3),
            views,
            initial: Mutex::new(None),
        });
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(queue_capacity.max(1));
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::new();
        for i in 0..worker_count.max(1) {
            let rx = Arc::clone(&rx);
            let ctx = Arc::clone(&ctx);
            let handle = std::thread::Builder::new()
                .name(format!("rdfa-worker-{i}"))
                .spawn(move || loop {
                    // hold the lock only while receiving, not while serving;
                    // this Mutex CAN be poisoned by a panicking sibling and
                    // the queue is still valid then, so recover — unlike the
                    // store, which no longer has a lock to poison at all
                    let next = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
                    match next {
                        Ok(stream) => serve_connection(stream, &ctx),
                        Err(_) => break, // acceptor gone and queue drained: shutdown
                    }
                })?;
            workers.push(handle);
        }

        let stop2 = Arc::clone(&stop);
        let accept_ctx = Arc::clone(&ctx);
        let acceptor = std::thread::Builder::new().name("rdfa-accept".to_owned()).spawn(
            move || {
                while !stop2.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let _ = stream.set_nonblocking(false);
                            // responses are written whole; holding the last
                            // partial segment back for the peer's (delayed)
                            // ACK would only add its 40 ms to the exchange
                            let _ = stream.set_nodelay(true);
                            let _ = stream.set_read_timeout(Some(read_timeout));
                            let _ = stream.set_write_timeout(Some(write_timeout));
                            match tx.try_send(stream) {
                                Ok(()) => {}
                                Err(mpsc::TrySendError::Full(mut rejected)) => {
                                    let _ = write_response_raw(
                                        &mut rejected,
                                        "503 Service Unavailable",
                                        "application/json",
                                        &[retry_after_header(&accept_ctx)],
                                        &json_error(503, "server busy: connection queue full"),
                                    );
                                }
                                Err(mpsc::TrySendError::Disconnected(_)) => break,
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
                // dropping `tx` here unblocks the workers' `recv` so they
                // exit — but only after draining every queued connection
            },
        )?;
        Ok(Server { addr, stop, acceptor: Some(acceptor), workers, ctx })
    }

    /// The bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The store behind the endpoint.
    pub fn shared(&self) -> &Arc<SharedStore> {
        &self.ctx.shared
    }

    /// Requests currently being served on the work routes.
    pub fn in_flight(&self) -> usize {
        self.ctx.in_flight.load(Ordering::Relaxed)
    }

    /// Requests shed by the in-flight budget since startup.
    pub fn shed_requests(&self) -> u64 {
        self.ctx.shed.load(Ordering::Relaxed)
    }

    /// The materialized-view manager, when `auto_views` is on.
    pub fn views(&self) -> Option<&Arc<ViewManager>> {
        self.ctx.views.as_ref()
    }

    /// Checkpoint the durable store now (no-op for a plain store). Safe to
    /// call while serving: readers proceed, updates briefly queue on the
    /// journal.
    pub fn checkpoint(&self) -> Result<Option<u64>, PersistError> {
        self.ctx.shared.checkpoint()
    }

    /// Request shutdown and join the serving threads.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if self.acceptor.is_none() && self.workers.is_empty() {
            return; // already shut down (stop() followed by Drop)
        }
        // 0. signal drain: in-flight query evaluations observe this via
        //    their CancelFlag watcher and stop early, so step 2's joins
        //    don't wait out long-running queries whose answers nobody
        //    will receive
        self.ctx.draining.store(true, Ordering::Relaxed);
        // 1. stop accepting: joining the acceptor first guarantees nothing
        //    new enters the queue after this point, and drops the sender
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // 2. workers finish their in-flight request, drain what the
        //    acceptor already queued, then see the closed channel and exit
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // 3. no request can be running: checkpoint the final state
        if let Err(e) = self.ctx.shared.checkpoint() {
            eprintln!("rdfa-server: checkpoint on shutdown failed: {e}");
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Run one connection to completion; a panic inside the handler is answered
/// with a `500` on a pre-cloned stream and does not take the worker down.
/// The panic also cannot corrupt shared state: an uncommitted write
/// transaction rolls back on unwind, and the admission slot releases on
/// drop.
fn serve_connection(stream: TcpStream, ctx: &Arc<Ctx>) {
    let spare = stream.try_clone().ok();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        handle_connection(stream, ctx)
    }));
    if outcome.is_err() {
        if let Some(mut out) = spare {
            let _ = write_response_raw(
                &mut out,
                "500 Internal Server Error",
                "application/json",
                &[],
                &json_error(500, "internal server error: handler panicked"),
            );
        }
    }
}

/// How long an idle connection sleeps in one read before it looks at the
/// clock and at [`Ctx::draining`] again.
const IDLE_POLL: Duration = Duration::from_millis(50);

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Per-response connection state: where to write, what framing the request
/// allows, and whether the connection survives the response.
struct Wire<'a> {
    stream: &'a mut TcpStream,
    /// The request was HTTP/1.1, so chunked transfer-encoding is allowed.
    http11: bool,
    /// Keep the connection open after this response. Cleared by error
    /// responses and `Connection: close` requests; the response's
    /// `Connection` header always reflects the final value.
    keep_alive: bool,
    /// Target chunk size for streamed bodies.
    chunk_bytes: usize,
}

/// Serve requests off one connection until the client closes, asks to
/// close, errors, idles past [`ServerConfig::keep_alive_timeout`], or hits
/// the [`ServerConfig::max_requests_per_conn`] cap.
fn handle_connection(stream: TcpStream, ctx: &Ctx) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    let max_requests = ctx.config.max_requests_per_conn.max(1);
    for served in 0..max_requests {
        let last = served + 1 == max_requests;
        if !handle_request(&mut reader, ctx, served, last)? {
            break;
        }
    }
    Ok(())
}

/// Hang up on a connection whose request line did not arrive in time: one
/// that never sent a request at all is told so first (`408`), an idle
/// keep-alive connection is closed silently.
fn close_timed_out(reader: &mut BufReader<TcpStream>, served: usize) -> std::io::Result<bool> {
    if served == 0 {
        write_response_raw(
            reader.get_mut(),
            "408 Request Timeout",
            "application/json",
            &[],
            &json_error(408, "timed out reading the request"),
        )?;
    }
    Ok(false)
}

/// Read, dispatch, and answer one request. Returns whether the connection
/// stays open for another.
fn handle_request(
    reader: &mut BufReader<TcpStream>,
    ctx: &Ctx,
    served: usize,
    last: bool,
) -> std::io::Result<bool> {
    let config = &ctx.config;
    // Wait for the request's first byte in short slices: between keep-alive
    // requests the idle budget applies, and a server that starts draining
    // closes idle connections at the next slice instead of waiting the
    // budget out. Re-arming the read timeout every slice also undoes a
    // query's DisconnectWatcher having shortened SO_RCVTIMEO on the shared
    // socket in the meantime.
    let idle = if served == 0 { config.read_timeout } else { config.keep_alive_timeout };
    let waiting_since = Instant::now();
    loop {
        let left = idle.saturating_sub(waiting_since.elapsed());
        let slice = left.min(IDLE_POLL).max(Duration::from_millis(1));
        let _ = reader.get_ref().set_read_timeout(Some(slice));
        match reader.fill_buf() {
            Ok([]) => return Ok(false), // client closed between requests
            Ok(_) => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                if served > 0 && ctx.draining.load(Ordering::Relaxed) {
                    return Ok(false);
                }
                if left <= slice {
                    return close_timed_out(reader, served);
                }
            }
            Err(e) => return Err(e),
        }
    }
    let _ = reader.get_ref().set_read_timeout(Some(config.read_timeout));
    let mut request_line = String::new();
    match reader.read_line(&mut request_line) {
        Ok(0) => return Ok(false),
        Ok(_) => {}
        // a request line that started and stalled
        Err(e) if is_timeout(&e) => return close_timed_out(reader, served),
        Err(e) => return Err(e),
    }
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if v.starts_with("HTTP/") => {
            (m.to_owned(), t.to_owned(), v.to_owned())
        }
        _ => {
            write_response_raw(
                reader.get_mut(),
                "400 Bad Request",
                "application/json",
                &[],
                &json_error(400, "malformed request line"),
            )?;
            return Ok(false);
        }
    };
    let http11 = version != "HTTP/1.0";

    // headers
    let mut content_length = 0usize;
    let mut accept = String::new();
    let mut connection = String::new();
    loop {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if is_timeout(&e) => {
                write_response_raw(
                    reader.get_mut(),
                    "408 Request Timeout",
                    "application/json",
                    &[],
                    &json_error(408, "timed out reading request headers"),
                )?;
                return Ok(false);
            }
            Err(e) => return Err(e),
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            match name.to_ascii_lowercase().as_str() {
                "content-length" => match value.trim().parse::<usize>() {
                    Ok(n) => content_length = n,
                    Err(_) => {
                        write_response_raw(
                            reader.get_mut(),
                            "400 Bad Request",
                            "application/json",
                            &[],
                            &json_error(400, "invalid Content-Length"),
                        )?;
                        return Ok(false);
                    }
                },
                "accept" => accept = value.trim().to_owned(),
                "connection" => connection = value.trim().to_ascii_lowercase(),
                _ => {}
            }
        }
    }

    // cap the declared body size BEFORE allocating the buffer: a client
    // claiming Content-Length: 999999999 must not make us reserve a gig
    if content_length > config.max_body_bytes {
        write_response_raw(
            reader.get_mut(),
            "413 Payload Too Large",
            "application/json",
            &[],
            &json_error(
                413,
                &format!(
                    "request body of {content_length} bytes exceeds the {} byte limit",
                    config.max_body_bytes
                ),
            ),
        )?;
        return Ok(false);
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        if let Err(e) = reader.read_exact(&mut body) {
            if is_timeout(&e) {
                write_response_raw(
                    reader.get_mut(),
                    "408 Request Timeout",
                    "application/json",
                    &[],
                    &json_error(408, "timed out reading the request body"),
                )?;
                return Ok(false);
            }
            return Err(e);
        }
    }
    let body = String::from_utf8_lossy(&body).into_owned();

    let (path, query_string) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target.as_str(), ""),
    };

    // HTTP/1.1 defaults to keep-alive unless the client opts out;
    // HTTP/1.0 always closes (we don't honour 1.0 keep-alive extensions)
    let keep_alive = http11 && !connection.contains("close") && !last;
    let mut wire = Wire {
        stream: reader.get_mut(),
        http11,
        keep_alive,
        chunk_bytes: config.stream_chunk_bytes,
    };

    let outcome = match (method.as_str(), path) {
        ("GET", "/health") => write_response(&mut wire, "200 OK", "text/plain", "ok"),
        ("GET", "/healthz") => {
            // exempt from admission: a saturated server must stay probeable
            let snap = ctx.shared.snapshot();
            let in_flight = ctx.in_flight.load(Ordering::Relaxed);
            let shed = ctx.shed.load(Ordering::Relaxed);
            let seg = snap.segment_stats();
            let closure = snap.closure_stats();
            let memory = format!(
                "\"closure_incremental\":{},\"closure_full\":{},\"segments\":{},\"segment_bytes\":{},\"segment_blocks\":{},\"segment_blocks_verified\":{},\"resident_bytes\":{}",
                closure.incremental,
                closure.full,
                seg.segments,
                seg.segment_bytes,
                seg.blocks,
                seg.blocks_verified,
                rdfa_store::resident_bytes()
            );
            let payload = match ctx.shared.journal() {
                None => format!(
                    "{{\"status\":\"ok\",\"durable\":false,\"snapshot_generation\":{},\"in_flight\":{in_flight},\"shed\":{shed},\"triples\":{},\"dirty\":{},{memory}}}",
                    snap.generation(),
                    snap.len(),
                    snap.is_dirty()
                ),
                Some(journal) => {
                    let status = if journal.is_dead() { "degraded" } else { "ok" };
                    format!(
                        "{{\"status\":\"{status}\",\"durable\":true,\"generation\":{},\"wal_records\":{},\"snapshot_generation\":{},\"in_flight\":{in_flight},\"shed\":{shed},\"triples\":{},\"dirty\":{},{memory}}}",
                        journal.generation(),
                        journal.wal_records(),
                        snap.generation(),
                        snap.len(),
                        snap.is_dirty()
                    )
                }
            };
            write_response(&mut wire, "200 OK", "application/json", &payload)
        }
        ("GET", "/panic") if config.debug_routes => {
            panic!("deliberate panic for robustness testing")
        }
        ("GET", "/slow") if config.debug_routes => {
            // an admission-controlled request that just holds its slot —
            // deterministic saturation for tests and the concurrent bench
            match admit(ctx) {
                None => write_shed(&mut wire, ctx),
                Some(_slot) => {
                    let ms = form_value(query_string, "ms")
                        .and_then(|v| v.parse::<u64>().ok())
                        .unwrap_or(100);
                    std::thread::sleep(Duration::from_millis(ms));
                    write_response(&mut wire, "200 OK", "text/plain", "ok")
                }
            }
        }
        ("GET", "/void") => match admit(ctx) {
            None => write_shed(&mut wire, ctx),
            Some(_slot) => {
                let snap = ctx.shared.snapshot();
                let stats = StoreStats::gather(&snap);
                let void = stats.to_void_graph(&snap, "urn:rdfa:dataset");
                write_response(
                    &mut wire,
                    "200 OK",
                    "application/n-triples",
                    &rdfa_model::ntriples::serialize(&void),
                )
            }
        },
        ("GET", "/v1/query") | ("POST", "/v1/query") => match admit(ctx) {
            None => write_shed(&mut wire, ctx),
            Some(_slot) => {
                let query = if method == "POST" {
                    Some(body)
                } else {
                    form_value(query_string, "query")
                };
                match query {
                    Some(q) => serve_query(&mut wire, ctx, &accept, &q),
                    None => write_response(
                        &mut wire,
                        "400 Bad Request",
                        "application/json",
                        &json_error(400, "missing ?query="),
                    ),
                }
            }
        },
        ("GET", "/v1/explain") | ("POST", "/v1/explain") => match admit(ctx) {
            None => write_shed(&mut wire, ctx),
            Some(_slot) => {
                let query = if method == "POST" {
                    Some(body)
                } else {
                    form_value(query_string, "query")
                };
                match query {
                    Some(q) => serve_explain(&mut wire, ctx, &q),
                    None => write_response(
                        &mut wire,
                        "400 Bad Request",
                        "application/json",
                        &json_error(400, "missing ?query="),
                    ),
                }
            }
        },
        ("POST", "/v1/update") => match admit(ctx) {
            None => write_shed(&mut wire, ctx),
            Some(_slot) => serve_update(&mut wire, ctx, &body),
        },
        ("GET", "/v1/facets") => match admit(ctx) {
            None => write_shed(&mut wire, ctx),
            Some(_slot) => serve_facets(&mut wire, ctx, query_string),
        },
        ("GET", "/v1/facets/stats") => {
            let st = ctx.facet_cache.stats();
            write_response(
                &mut wire,
                "200 OK",
                "application/json",
                &format!(
                    "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"stale_hits\":{},\"entries\":{},\"capacity\":{}}}",
                    st.hits, st.misses, st.evictions, st.stale_hits, st.entries, st.capacity
                ),
            )
        }
        ("GET", "/v1/views") => {
            // stats-style route: exempt from admission, like /v1/facets/stats
            let body = match &ctx.views {
                None => "{\"enabled\":false,\"views\":[]}".to_owned(),
                Some(v) => format!(
                    "{{\"enabled\":true,\"views\":[{}]}}",
                    v.views()
                        .iter()
                        .map(|i| format!(
                            "{{\"key\":{},\"generation\":{},\"groups\":{},\"approx_bytes\":{},\"hits\":{},\"score_micros\":{}}}",
                            json_string(&i.key),
                            i.generation,
                            i.groups,
                            i.approx_bytes,
                            i.hits,
                            i.score_micros
                        ))
                        .collect::<Vec<_>>()
                        .join(",")
                ),
            };
            write_response(&mut wire, "200 OK", "application/json", &body)
        }
        ("GET", "/v1/views/stats") => {
            let body = match &ctx.views {
                None => "{\"enabled\":false}".to_owned(),
                Some(v) => {
                    let st = v.stats();
                    format!(
                        "{{\"enabled\":true,\"observed\":{},\"shaped\":{},\"hits\":{},\"misses\":{},\"materializations\":{},\"evictions\":{},\"incremental_maintenance\":{},\"rebuilds\":{},\"maintain_micros\":{}}}",
                        st.observed,
                        st.shaped,
                        st.hits,
                        st.misses,
                        st.materializations,
                        st.evictions,
                        st.incremental_maintenance,
                        st.rebuilds,
                        st.maintain_micros
                    )
                }
            };
            write_response(&mut wire, "200 OK", "application/json", &body)
        }
        ("POST", "/v1/views/refresh") => match &ctx.views {
            None => write_response(
                &mut wire,
                "200 OK",
                "application/json",
                "{\"enabled\":false,\"materialized\":0}",
            ),
            // materializes views: a work route, so admission applies
            Some(v) => match admit(ctx) {
                None => write_shed(&mut wire, ctx),
                Some(_slot) => {
                    let snap = ctx.shared.snapshot();
                    let n = v.force_select(&snap);
                    write_response(
                        &mut wire,
                        "200 OK",
                        "application/json",
                        &format!("{{\"enabled\":true,\"materialized\":{n}}}"),
                    )
                }
            },
        },
        _ => write_response(
            &mut wire,
            "404 Not Found",
            "application/json",
            &json_error(404, "no such route"),
        ),
    };
    let keep = wire.keep_alive;
    outcome?;
    Ok(keep)
}

/// Watches a connection while its query evaluates: a detached thread peeks
/// the socket every ~25 ms and sets the query's [`CancelFlag`] when the
/// client is gone (EOF / hard error) or the server starts draining.
/// Dropping the watcher stops it; the thread exits within one poll.
struct DisconnectWatcher {
    done: Arc<AtomicBool>,
}

impl DisconnectWatcher {
    const POLL: Duration = Duration::from_millis(25);

    fn spawn(
        stream: &TcpStream,
        cancel: CancelFlag,
        draining: Arc<AtomicBool>,
    ) -> DisconnectWatcher {
        let done = Arc::new(AtomicBool::new(false));
        if let Ok(peer) = stream.try_clone() {
            // SO_RCVTIMEO lives on the socket shared with the request
            // stream, so this short poll timeout leaks onto it; the
            // keep-alive loop re-arms the proper timeout before every
            // request read, so the worst case is one early idle close
            let _ = peer.set_read_timeout(Some(Self::POLL));
            let done2 = Arc::clone(&done);
            let _ = std::thread::Builder::new().name("rdfa-cancel-watch".to_owned()).spawn(
                move || {
                    let mut byte = [0u8; 1];
                    while !done2.load(Ordering::Relaxed) {
                        if draining.load(Ordering::Relaxed) {
                            cancel.cancel();
                            return;
                        }
                        match peer.peek(&mut byte) {
                            // EOF: the client hung up — stop the query
                            Ok(0) => {
                                cancel.cancel();
                                return;
                            }
                            // buffered bytes (a pipelined request): alive
                            Ok(_) => std::thread::sleep(Self::POLL),
                            // poll timeout: alive, nothing buffered
                            Err(e) if is_timeout(&e) => {}
                            // connection reset or worse
                            Err(_) => {
                                cancel.cancel();
                                return;
                            }
                        }
                    }
                },
            );
        }
        DisconnectWatcher { done }
    }
}

impl Drop for DisconnectWatcher {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Relaxed);
    }
}

/// Which streaming serialization a solutions response uses.
enum StreamFormat {
    Json,
    Csv,
}

/// Stream a solution table as a chunked HTTP/1.1 response: rows are
/// serialized straight into a bounded chunk buffer, so peak serialization
/// memory is O(chunk), not O(body) — a `LIMIT`-less SELECT over millions
/// of rows never builds a whole-body `String`. HTTP/1.0 clients (no
/// chunked support) get a buffered `Content-Length` body instead.
fn stream_solutions(
    wire: &mut Wire<'_>,
    ctype: &str,
    sols: &rdfa_sparql::Solutions,
    format: StreamFormat,
) -> std::io::Result<()> {
    if !wire.http11 {
        let body = match format {
            StreamFormat::Json => sols.to_json(),
            StreamFormat::Csv => sols.to_csv(),
        };
        return write_response(wire, "200 OK", ctype, &body);
    }
    let conn = if wire.keep_alive { "keep-alive" } else { "close" };
    let head = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: {ctype}\r\nTransfer-Encoding: chunked\r\nConnection: {conn}\r\n\r\n"
    );
    let mut out = ChunkedWriter::new(wire.stream, wire.chunk_bytes, head);
    match format {
        StreamFormat::Json => sols.write_json(&mut out)?,
        StreamFormat::Csv => sols.write_csv(&mut out)?,
    }
    out.finish()
}

/// An [`std::io::Write`] framing bytes as HTTP/1.1 chunked
/// transfer-encoding, buffering roughly `chunk_bytes` per socket write so
/// row-at-a-time serializers don't pay a syscall per row. Every frame — size
/// line, data, trailing CRLF — leaves in one `write_all`, and the response
/// head rides in front of the first, so a small answer is a single segment.
/// A slow reader makes `write_all` trip the socket's write timeout, which
/// aborts the response (and the connection) instead of blocking the worker
/// indefinitely. [`ChunkedWriter::finish`] emits the terminating chunk.
struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
    /// The response head until the first socket write has carried it.
    head: Vec<u8>,
    /// [`ChunkedWriter::SIZE_ROOM`] bytes for the size line to be written
    /// into, then the pending chunk's data.
    buf: Vec<u8>,
    chunk_bytes: usize,
}

impl<'a> ChunkedWriter<'a> {
    /// Room for the size line: up to eight hex digits (a chunk is at most
    /// 4 MiB plus one serializer write) and its CRLF.
    const SIZE_ROOM: usize = 10;

    fn new(stream: &'a mut TcpStream, chunk_bytes: usize, head: String) -> Self {
        let chunk_bytes = chunk_bytes.clamp(512, 4 << 20);
        let mut buf = Vec::with_capacity(Self::SIZE_ROOM + chunk_bytes + 64);
        buf.resize(Self::SIZE_ROOM, 0);
        ChunkedWriter { stream, head: head.into_bytes(), buf, chunk_bytes }
    }

    /// Frame the pending data (if any) where it lies, append `tail`, and
    /// write it all at once — behind the head the first time.
    fn emit(&mut self, tail: &[u8]) -> std::io::Result<()> {
        let pending = self.buf.len() - Self::SIZE_ROOM;
        let mut start = Self::SIZE_ROOM;
        if pending > 0 {
            let size = format!("{pending:x}\r\n");
            start = start.checked_sub(size.len()).ok_or_else(|| {
                std::io::Error::other(format!("a {pending}-byte chunk has no valid size line"))
            })?;
            self.buf[start..Self::SIZE_ROOM].copy_from_slice(size.as_bytes());
            self.buf.extend_from_slice(b"\r\n");
        }
        self.buf.extend_from_slice(tail);
        let written = if self.head.is_empty() {
            self.stream.write_all(&self.buf[start..])
        } else {
            let mut first = std::mem::take(&mut self.head);
            first.extend_from_slice(&self.buf[start..]);
            self.stream.write_all(&first)
        };
        self.buf.truncate(Self::SIZE_ROOM);
        written
    }

    fn finish(mut self) -> std::io::Result<()> {
        self.emit(b"0\r\n\r\n")
    }
}

impl std::io::Write for ChunkedWriter<'_> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        if self.buf.len() - Self::SIZE_ROOM >= self.chunk_bytes {
            self.emit(b"")?;
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.emit(b"")?;
        self.stream.flush()
    }
}

/// Evaluate a query against the current snapshot under the server's limits
/// and serialize per `Accept`. The snapshot is pinned for the duration of
/// evaluation: concurrent updates publish new generations without touching
/// this one. Evaluation runs under a [`CancelFlag`] wired to a
/// [`DisconnectWatcher`], so a client that hangs up mid-query (or a server
/// drain) stops the evaluation within one probe interval and releases its
/// admission slot promptly.
fn serve_query(
    wire: &mut Wire<'_>,
    ctx: &Ctx,
    accept: &str,
    query: &str,
) -> std::io::Result<()> {
    let snap = ctx.shared.snapshot();
    let cancel = CancelFlag::new();
    let limits = ctx.config.limits.clone().with_cancel(cancel.clone());
    let watcher = DisconnectWatcher::spawn(wire.stream, cancel, Arc::clone(&ctx.draining));
    let mut builder = Engine::builder(&snap).limits(limits);
    if let Some(views) = &ctx.views {
        builder = builder.views(views.clone());
    }
    let outcome = builder.build().run(query);
    drop(watcher);
    match outcome {
        Ok(QueryResults::Solutions(sols)) => {
            if accept.contains("text/csv") {
                stream_solutions(wire, "text/csv", &sols, StreamFormat::Csv)
            } else if accept.contains("text/plain") {
                // the aligned table needs every row for column widths:
                // inherently a buffered format
                write_response(wire, "200 OK", "text/plain", &sols.to_table())
            } else {
                stream_solutions(wire, "application/sparql-results+json", &sols, StreamFormat::Json)
            }
        }
        Ok(QueryResults::Graph(g)) => write_response(
            wire,
            "200 OK",
            "application/n-triples",
            &rdfa_model::ntriples::serialize(&g),
        ),
        Ok(QueryResults::Boolean(b)) => write_response(
            wire,
            "200 OK",
            "application/sparql-results+json",
            &format!("{{\"head\":{{}},\"boolean\":{b}}}"),
        ),
        Err(e) => write_query_error(wire, &e),
    }
}

/// Serve `/v1/explain`: prepare the query, execute it under the server's
/// limits, and return the annotated plan as `text/plain` — operator
/// estimates (`est=`), observed cardinalities (`rows=`) and the triples
/// each join step scanned (`scanned=`) — for every query form, since every
/// form compiles to a physical plan. The execution runs under
/// the same cancellation wiring as `/v1/query`, so an abandoned explain
/// releases its admission slot promptly too.
fn serve_explain(wire: &mut Wire<'_>, ctx: &Ctx, query: &str) -> std::io::Result<()> {
    let snap = ctx.shared.snapshot();
    let cancel = CancelFlag::new();
    let limits = ctx.config.limits.clone().with_cancel(cancel.clone());
    let watcher = DisconnectWatcher::spawn(wire.stream, cancel, Arc::clone(&ctx.draining));
    let mut builder = Engine::builder(&snap).limits(limits);
    if let Some(views) = &ctx.views {
        builder = builder.views(views.clone());
    }
    let engine = builder.build();
    let outcome = engine.prepare(query).and_then(|prepared| {
        prepared.execute()?;
        Ok(prepared.explain())
    });
    drop(watcher);
    match outcome {
        Ok(text) => write_response(wire, "200 OK", "text/plain", &text),
        Err(e) => write_query_error(wire, &e),
    }
}

/// Serve `/v1/facets`: the left frame (class markers + property facets with
/// counts) for the extension named by `?class=<iri>`, or for the initial
/// state when no class is given.
///
/// Answered from the generation-keyed [`FacetCache`] when the snapshot
/// hasn't changed since the markers were last computed (`X-Facet-Cache:
/// hit`/`miss`). When fresh computation exceeds its deadline — the server
/// default, or a per-request `?budget_ms=` override (`0` = cached only,
/// never compute) — the newest cached marker set for the *same extension*
/// at a superseded generation is served instead, with `X-Facet-Cache:
/// stale` and `X-Facet-Stale: <generation>`; only when no cached set
/// exists either does the request fail `503`.
fn serve_facets(
    wire: &mut Wire<'_>,
    ctx: &Ctx,
    query_string: &str,
) -> std::io::Result<()> {
    let snap = ctx.shared.snapshot();
    let facet_cache = &ctx.facet_cache;
    let ext = match form_value(query_string, "class") {
        Some(iri) => {
            if let Err(e) = notation::validate_iri(&iri) {
                return write_response(
                    wire,
                    "400 Bad Request",
                    "application/json",
                    &json_error(400, &e.message),
                );
            }
            match snap.lookup_iri(&iri) {
                Some(c) => Arc::new(snap.instances_set(c)),
                None => {
                    return write_response(
                        wire,
                        "404 Not Found",
                        "application/json",
                        &json_error(404, &format!("unknown class <{iri}>")),
                    );
                }
            }
        }
        None => ctx.initial_extension(&snap),
    };
    if ext.is_empty() {
        return write_response(
            wire,
            "404 Not Found",
            "application/json",
            &json_error(404, "the class has no instances"),
        );
    }
    let deadline = match form_value(query_string, "budget_ms") {
        Some(ms) => match ms.parse::<u64>() {
            Ok(ms) => Some(Duration::from_millis(ms)),
            Err(_) => {
                return write_response(
                    wire,
                    "400 Bad Request",
                    "application/json",
                    &json_error(400, "invalid ?budget_ms= (expected milliseconds)"),
                );
            }
        },
        None => ctx.config.limits.deadline,
    };
    let cached_only = deadline == Some(Duration::ZERO);
    // the marker computation stops at its next unit probe when the client
    // hangs up or the server drains, and falls through to the stale/503
    // path like an expired deadline
    let cancel = CancelFlag::new();
    let opts = FacetOptions { deadline, cancel: Some(cancel.clone()) };
    let watcher = (!cached_only)
        .then(|| DisconnectWatcher::spawn(wire.stream, cancel, Arc::clone(&ctx.draining)));
    let misses_before = facet_cache.stats().misses;
    let mut stale_generation: Option<u64> = None;
    let mut last_err: Option<FacetError> = None;

    let fresh_classes = if cached_only {
        None
    } else {
        match facet_cache.class_markers(&snap, &ext, opts.clone()) {
            Ok(c) => Some(c),
            Err(e) => {
                last_err = Some(e);
                None
            }
        }
    };
    let classes = match fresh_classes {
        Some(c) => c,
        None => match facet_cache.class_markers_stale(&ext) {
            Some((c, generation)) => {
                stale_generation =
                    Some(stale_generation.map_or(generation, |g| g.min(generation)));
                c
            }
            None => return write_facet_unavailable(wire, ctx, last_err.as_ref()),
        },
    };
    let fresh_facets = if cached_only {
        None
    } else {
        match facet_cache.property_facets(&snap, &ext, opts) {
            Ok(f) => Some(f),
            Err(e) => {
                last_err = Some(e);
                None
            }
        }
    };
    drop(watcher);
    let facets = match fresh_facets {
        Some(f) => f,
        None => match facet_cache.property_facets_stale(&ext) {
            Some((f, generation)) => {
                stale_generation =
                    Some(stale_generation.map_or(generation, |g| g.min(generation)));
                f
            }
            None => return write_facet_unavailable(wire, ctx, last_err.as_ref()),
        },
    };

    let mut headers = vec![if stale_generation.is_some() {
        "X-Facet-Cache: stale".to_owned()
    } else if facet_cache.stats().misses > misses_before {
        "X-Facet-Cache: miss".to_owned()
    } else {
        "X-Facet-Cache: hit".to_owned()
    }];
    if let Some(generation) = stale_generation {
        headers.push(format!("X-Facet-Stale: {generation}"));
    }
    // a stale panel reports the generation its markers were computed at
    let generation = stale_generation.unwrap_or_else(|| snap.generation());
    let payload = facets_json(&snap, generation, ext.len(), &classes, &facets);
    write_response_headed(wire, "200 OK", "application/json", &headers, &payload)
}

/// Facet markers could not be computed within budget and no stale set was
/// cached: shed the request rather than blocking the worker.
fn write_facet_unavailable(
    wire: &mut Wire<'_>,
    ctx: &Ctx,
    err: Option<&FacetError>,
) -> std::io::Result<()> {
    let message = match err {
        Some(e) => e.message.clone(),
        None => "no cached facet markers within budget".to_owned(),
    };
    write_response_headed(
        wire,
        "503 Service Unavailable",
        "application/json",
        &[retry_after_header(ctx)],
        &json_error(503, &message),
    )
}

/// The `/v1/facets` body, written into one `String` straight from the
/// store's terms: an IRI is shown whole, any other term by its display
/// name. `{"generation":…,"extension":…,"classes":[…],"facets":[…]}`, where
/// `generation` is the store generation the markers were computed at, with
/// `{"class":…,"count":…,"children":[…]}` per class marker and
/// `{"property":…,"values":[{"value":…,"count":…},…],"children":[…]}` per
/// property facet.
fn facets_json(
    store: &Store,
    generation: u64,
    extension: usize,
    classes: &[ClassMarker],
    facets: &[PropertyFacet],
) -> String {
    fn term(out: &mut String, store: &Store, id: rdfa_store::TermId) {
        match store.term(id) {
            Term::Iri(iri) => push_json_string(out, iri),
            t => push_json_string(out, &t.display_str()),
        }
    }
    fn class(out: &mut String, store: &Store, m: &ClassMarker) {
        out.push_str("{\"class\":");
        term(out, store, m.class);
        let _ = write!(out, ",\"count\":{},\"children\":[", m.count);
        for (i, c) in m.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            class(out, store, c);
        }
        out.push_str("]}");
    }
    fn facet(out: &mut String, store: &Store, f: &PropertyFacet) {
        out.push_str("{\"property\":");
        term(out, store, f.property);
        out.push_str(",\"values\":[");
        for (i, &(v, n)) in f.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"value\":");
            term(out, store, v);
            let _ = write!(out, ",\"count\":{n}}}");
        }
        out.push_str("],\"children\":[");
        for (i, c) in f.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            facet(out, store, c);
        }
        out.push_str("]}");
    }
    let mut out = String::new();
    let _ = write!(out, "{{\"generation\":{generation},\"extension\":{extension},\"classes\":[");
    for (i, m) in classes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        class(&mut out, store, m);
    }
    out.push_str("],\"facets\":[");
    for (i, f) in facets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        facet(&mut out, store, f);
    }
    out.push_str("]}");
    out
}

/// Why an update was not acknowledged.
enum UpdateFailure {
    /// Parse error or resource limit: the client's request.
    Query(rdfa_sparql::SparqlError),
    /// The WAL append failed: nothing was published.
    Durability(PersistError),
}

impl From<PersistError> for UpdateFailure {
    fn from(e: PersistError) -> Self {
        UpdateFailure::Durability(e)
    }
}

/// Apply an update as one [`SharedStore::transact`] transaction: mutate a
/// private working store, then log and publish the whole batch. Readers
/// never see a half-applied update, and a failed update (parse error,
/// resource limit, WAL failure, or panic) publishes nothing.
fn serve_update(
    wire: &mut Wire<'_>,
    ctx: &Ctx,
    body: &str,
) -> std::io::Result<()> {
    let views = ctx.views.as_deref();
    let applied = ctx.shared.transact(|txn| {
        // The writer mutex serializes updates, so a snapshot taken inside
        // the transaction is exactly its base state — the "before" store
        // the view maintainer subtracts delta contributions from; the
        // snapshot `transact` returns is the one it published.
        let before = views.map(|_| ctx.shared.snapshot());
        // the WHERE clauses run under the query limits: the writer mutex is
        // held throughout, so an unbounded one would block every writer
        execute_update_limited(txn.store_mut(), body, &ctx.config.limits)
            .map(|(stats, changes)| (stats, changes, before))
            .map_err(UpdateFailure::Query)
    });
    let ((stats, changes, before), after) = match applied {
        Ok(applied) => applied,
        Err(UpdateFailure::Query(e)) => return write_query_error(wire, &e),
        Err(UpdateFailure::Durability(e)) => {
            return write_response(
                wire,
                "500 Internal Server Error",
                "application/json",
                &json_error(500, &format!("durability failure: {e}")),
            )
        }
    };
    maintain_views(views, before.as_deref(), &after, &changes);
    write_response(
        wire,
        "200 OK",
        "application/json",
        &format!("{{\"inserted\":{},\"deleted\":{}}}", stats.inserted, stats.deleted),
    )
}

/// Apply an acknowledged update batch to the materialized views. Runs after
/// publish, before the response: until it returns, a view answering for the
/// *previous* generation simply misses (the serve path checks generation
/// equality), so queries fall back to direct evaluation — stale view data is
/// never served, it is only re-derived a little later.
fn maintain_views(
    views: Option<&ViewManager>,
    before: Option<&Store>,
    after: &Store,
    changes: &[Mutation],
) {
    if let (Some(views), Some(before)) = (views, before) {
        views.maintain(before, after, changes);
    }
}

/// A query/update error: resource exhaustion is `503` (the request was fine,
/// the server declined to spend more on it); anything else is the client's
/// `400`.
fn write_query_error(wire: &mut Wire<'_>, e: &rdfa_sparql::SparqlError) -> std::io::Result<()> {
    if e.is_resource_limit() {
        write_response(wire, "503 Service Unavailable", "application/json", &json_error(503, &e.message()))
    } else {
        write_response(wire, "400 Bad Request", "application/json", &json_error(400, &e.message()))
    }
}

fn write_response(
    wire: &mut Wire<'_>,
    status: &str,
    ctype: &str,
    payload: &str,
) -> std::io::Result<()> {
    write_response_headed(wire, status, ctype, &[], payload)
}

fn write_response_headed(
    wire: &mut Wire<'_>,
    status: &str,
    ctype: &str,
    extra: &[String],
    payload: &str,
) -> std::io::Result<()> {
    // non-200 responses terminate the connection: the request stream may
    // be mid-parse or carry an unread body, so resynchronizing is not
    // worth the risk of serving a desynchronized request
    if !status.starts_with("200") {
        wire.keep_alive = false;
    }
    let conn = if wire.keep_alive { "keep-alive" } else { "close" };
    write_whole(wire.stream, status, ctype, conn, extra, payload)
}

/// Head and payload leave in one `write_all`: two would put the payload in
/// a second segment for the client's delayed ACK of the first to hold up.
fn write_whole(
    stream: &mut TcpStream,
    status: &str,
    ctype: &str,
    conn: &str,
    extra: &[String],
    payload: &str,
) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: {conn}\r\n",
        payload.len()
    );
    for h in extra {
        out.push_str(h);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.push_str(payload);
    stream.write_all(out.as_bytes())
}

/// Response writer for paths that have no [`Wire`]: the acceptor's
/// queue-overflow rejection and the panic handler's best-effort `500`.
/// Always closes the connection.
fn write_response_raw(
    stream: &mut TcpStream,
    status: &str,
    ctype: &str,
    extra: &[String],
    payload: &str,
) -> std::io::Result<()> {
    write_whole(stream, status, ctype, "close", extra, payload)
}

/// `{"error":{"code":…,"message":"…"}}`
fn json_error(code: u16, message: &str) -> String {
    format!("{{\"error\":{{\"code\":{code},\"message\":{}}}}}", json_string(message))
}

/// Extract and percent-decode one value from a `k=v&k2=v2` query string.
fn form_value(query_string: &str, key: &str) -> Option<String> {
    for pair in query_string.split('&') {
        if let Some((k, v)) = pair.split_once('=') {
            if k == key {
                return Some(percent_decode(v));
            }
        }
    }
    None
}

/// Percent-decoding (plus `+` → space) for URL query components.
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|h| {
                    std::str::from_utf8(h).ok().and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match hex {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Percent-encoding for building request URLs in tests and clients.
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            b => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// The per-value renderers [`facets_json`] replaced, kept as the
    /// byte-for-byte oracle of the `/v1/facets` body.
    mod oracle {
        use super::*;

        fn json_escape(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }

        fn term_json(store: &Store, id: rdfa_store::TermId) -> String {
            let term = store.term(id);
            match term.as_iri() {
                Some(iri) => format!("\"{}\"", json_escape(iri)),
                None => format!("\"{}\"", json_escape(&term.display_name())),
            }
        }

        fn class_marker_json(store: &Store, m: &ClassMarker) -> String {
            format!(
                "{{\"class\":{},\"count\":{},\"children\":[{}]}}",
                term_json(store, m.class),
                m.count,
                m.children.iter().map(|c| class_marker_json(store, c)).collect::<Vec<_>>().join(","),
            )
        }

        fn facet_json(store: &Store, f: &PropertyFacet) -> String {
            format!(
                "{{\"property\":{},\"values\":[{}],\"children\":[{}]}}",
                term_json(store, f.property),
                f.values
                    .iter()
                    .map(|(v, n)| format!("{{\"value\":{},\"count\":{n}}}", term_json(store, *v)))
                    .collect::<Vec<_>>()
                    .join(","),
                f.children.iter().map(|c| facet_json(store, c)).collect::<Vec<_>>().join(","),
            )
        }

        pub fn facets_json(
            store: &Store,
            extension: usize,
            classes: &[ClassMarker],
            facets: &[PropertyFacet],
        ) -> String {
            format!(
                "{{\"generation\":{},\"extension\":{},\"classes\":[{}],\"facets\":[{}]}}",
                store.generation(),
                extension,
                classes.iter().map(|m| class_marker_json(store, m)).collect::<Vec<_>>().join(","),
                facets.iter().map(|f| facet_json(store, f)).collect::<Vec<_>>().join(","),
            )
        }
    }

    /// Deterministic xorshift stream, `0..n`.
    fn rng(seed: u64) -> impl FnMut(usize) -> usize {
        let mut x = seed;
        move |n| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % n as u64) as usize
        }
    }

    /// A random string over every JSON escape class, DEL, non-ASCII and
    /// the empty string.
    fn random_text(next: &mut impl FnMut(usize) -> usize) -> String {
        const PIECES: [&str; 13] =
            ["", "x", "\"", "\\", "\n", "\r", "\t", "\u{1}", "\u{1f}", "\u{7f}", "é", "中", "/#:"];
        (0..next(5)).map(|_| PIECES[next(PIECES.len())]).collect()
    }

    #[test]
    fn facets_json_matches_the_per_value_renderers_on_random_panels() {
        fn class_tree(
            next: &mut impl FnMut(usize) -> usize,
            ids: &[rdfa_store::TermId],
            depth: usize,
        ) -> Vec<ClassMarker> {
            (0..next(4))
                .map(|_| ClassMarker {
                    class: ids[next(ids.len())],
                    count: next(100_000),
                    children: if depth > 0 { class_tree(next, ids, depth - 1) } else { Vec::new() },
                })
                .collect()
        }
        fn facet_tree(
            next: &mut impl FnMut(usize) -> usize,
            ids: &[rdfa_store::TermId],
            depth: usize,
        ) -> Vec<PropertyFacet> {
            (0..next(4))
                .map(|_| PropertyFacet {
                    property: ids[next(ids.len())],
                    values: (0..next(6)).map(|_| (ids[next(ids.len())], next(1000))).collect(),
                    children: if depth > 0 { facet_tree(next, ids, depth - 1) } else { Vec::new() },
                })
                .collect()
        }
        for seed in 1..200u64 {
            let mut next = rng(seed * 0x9e37_79b9);
            let mut store = Store::new();
            let ids: Vec<_> = (0..12)
                .map(|_| {
                    let text = random_text(&mut next);
                    let term = match next(5) {
                        0 => Term::iri(format!("http://e/{text}")),
                        1 => Term::blank(format!("b{}", next(1000))),
                        2 => Term::string(text),
                        3 => Term::Literal(rdfa_model::Literal::lang_string(text, "en")),
                        _ => Term::integer(next(100) as i64),
                    };
                    store.intern(&term)
                })
                .collect();
            let classes = class_tree(&mut next, &ids, 2);
            let facets = facet_tree(&mut next, &ids, 2);
            let extension = next(1 << 20);
            assert_eq!(
                facets_json(&store, store.generation(), extension, &classes, &facets),
                oracle::facets_json(&store, extension, &classes, &facets),
                "seed {seed}"
            );
        }
    }

    /// The route's body over literal, blank-node and escape-laden values is
    /// byte-identical to the per-value renderers over the same markers.
    #[test]
    fn facets_route_body_matches_the_per_value_renderers() {
        let ttl = r#"@prefix ex: <http://example.org/> .
            ex:l1 a ex:Laptop ; ex:label "say \"hi\"\n\ttab" ; ex:port _:b1 ; ex:maker ex:DELL .
            ex:l2 a ex:Laptop ; ex:label "é\\中" ; ex:port _:b2 ; ex:maker <http://f#DELL> .
            ex:l3 a ex:Laptop ; ex:label "" ; ex:label "DELL" ; ex:maker ex:DELL .
        "#;
        let mut store = Store::new();
        store.load_turtle(ttl).unwrap();
        let ext = store.instances_set(store.lookup_iri("http://example.org/Laptop").unwrap());
        let expected = oracle::facets_json(
            &store,
            ext.len(),
            &rdfa_facets::class_markers(&store, &ext),
            &rdfa_facets::property_facets(&store, &ext),
        );
        let server = Server::start(store, 0).unwrap();
        let class = percent_encode("http://example.org/Laptop");
        let resp = get(server.addr(), &format!("/v1/facets?class={class}"), "*/*");
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert_eq!(body_of(&resp), expected);
    }

    /// s0 depends on the snapshot alone: two classless panels at one
    /// generation compute it once, and a panel after an update that adds a
    /// subject counts that subject.
    #[test]
    fn classless_panels_compute_s0_once_per_generation() {
        let server = Server::start(demo_store(), 0).unwrap();
        let held = || {
            let slot = server.ctx.initial.lock().unwrap();
            slot.as_ref().map(|(g, ext)| (*g, Arc::clone(ext))).expect("s0 computed")
        };
        let extension = |resp: &str| -> usize {
            let body = body_of(resp);
            let from = body.find("\"extension\":").expect("extension field") + 12;
            body[from..].split(',').next().unwrap().parse().unwrap()
        };
        let first = get(server.addr(), "/v1/facets", "*/*");
        assert!(first.starts_with("HTTP/1.1 200"), "{first}");
        let (generation, s0) = held();
        let second = get(server.addr(), "/v1/facets", "*/*");
        assert_eq!(body_of(&first), body_of(&second));
        let (again, s0_again) = held();
        assert_eq!(again, generation);
        assert!(Arc::ptr_eq(&s0, &s0_again), "the second panel recomputed s0");
        let resp = post(
            server.addr(),
            "/v1/update",
            "PREFIX ex: <http://example.org/> INSERT DATA { ex:l3 a ex:Laptop . }",
        );
        assert!(resp.contains("\"inserted\":1"), "{resp}");
        let third = get(server.addr(), "/v1/facets", "*/*");
        assert_eq!(extension(&third), extension(&first) + 1);
        assert!(held().0 > generation);
    }

    /// A chunked `/v1/query` body, framed in 512-byte chunks and put back
    /// together, is exactly the in-process `Solutions::to_json()` (and
    /// `to_csv()`) of the same query.
    #[test]
    fn chunked_query_body_reassembles_to_the_whole_serialization() {
        let mut ttl = String::from("@prefix ex: <http://example.org/> .\n");
        for i in 0..300 {
            ttl.push_str(&format!(
                "ex:l{i} a ex:Laptop ; ex:label \"l{i}, \\\"é\\\"\\n\" ; ex:price {} .\n",
                500 + i
            ));
        }
        let mut store = Store::new();
        store.load_turtle(&ttl).unwrap();
        let q = "PREFIX ex: <http://example.org/> SELECT ?x ?l ?p ?none WHERE { \
                 ?x a ex:Laptop ; ex:label ?l . OPTIONAL { ?x ex:price ?p . FILTER(?p > 700) } }";
        let sols = Engine::builder(&store).build().run(q).unwrap().into_solutions().unwrap();
        let config = ServerConfig { stream_chunk_bytes: 512, ..ServerConfig::default() };
        let server = Server::start_with(store, 0, config).unwrap();
        for (accept, expected) in [("*/*", sols.to_json()), ("text/csv", sols.to_csv())] {
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            stream
                .write_all(
                    format!(
                        "GET /v1/query?query={} HTTP/1.1\r\nHost: x\r\nAccept: {accept}\r\n\r\n",
                        percent_encode(q)
                    )
                    .as_bytes(),
                )
                .unwrap();
            let (head, body) = read_one_response(&mut stream);
            assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
            assert!(expected.len() > 20 * 512, "{accept}: the body spans many chunks");
            assert_eq!(body, expected, "{accept}");
        }
    }

    fn demo_store() -> Store {
        let mut s = Store::new();
        s.load_turtle(
            r#"@prefix ex: <http://example.org/> .
               ex:l1 a ex:Laptop ; ex:price 900 .
               ex:l2 a ex:Laptop ; ex:price 1000 .
            "#,
        )
        .unwrap();
        s
    }

    fn http(addr: std::net::SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        response
    }

    // the helpers read until the server closes the socket, so they opt out
    // of keep-alive explicitly
    fn get(addr: std::net::SocketAddr, path: &str, accept: &str) -> String {
        http(
            addr,
            &format!(
                "GET {path} HTTP/1.1\r\nHost: x\r\nAccept: {accept}\r\nConnection: close\r\n\r\n"
            ),
        )
    }

    fn post(addr: std::net::SocketAddr, path: &str, body: &str) -> String {
        http(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    /// The body of a raw HTTP response (after the blank line). Chunked and
    /// plain bodies alike — callers compare like against like.
    fn body_of(resp: &str) -> &str {
        resp.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("")
    }

    fn views_server(store: Store) -> Server {
        let config = ServerConfig { auto_views: true, ..ServerConfig::default() };
        Server::start_with(store, 0, config).unwrap()
    }

    const CLASS_COUNTS: &str = "PREFIX ex: <http://example.org/> SELECT ?c (COUNT(*) AS ?n) WHERE { ?x a ?c . } GROUP BY ?c ORDER BY ?c";

    #[test]
    fn views_routes_report_disabled_without_the_flag() {
        let server = Server::start(demo_store(), 0).unwrap();
        let views = get(server.addr(), "/v1/views", "*/*");
        assert!(views.contains("\"enabled\":false"), "{views}");
        let stats = get(server.addr(), "/v1/views/stats", "*/*");
        assert!(stats.contains("\"enabled\":false"), "{stats}");
        let refresh = post(server.addr(), "/v1/views/refresh", "");
        assert!(refresh.contains("\"enabled\":false"), "{refresh}");
    }

    #[test]
    fn auto_views_materialize_hot_aggregates_and_answer_byte_identically() {
        let server = views_server(demo_store());
        let q = percent_encode(CLASS_COUNTS);
        // the recorder warms up on direct evaluations (min_observations)
        for _ in 0..4 {
            let resp = get(server.addr(), &format!("/v1/query?query={q}"), "*/*");
            assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        }
        let views = get(server.addr(), "/v1/views", "*/*");
        assert!(views.contains("\"enabled\":true"), "{views}");
        assert!(views.contains("group["), "the hot shape is materialized: {views}");
        let explain = get(server.addr(), &format!("/v1/explain?query={q}"), "*/*");
        assert!(explain.contains("view-hit:"), "{explain}");
        // a view-served answer is byte-identical to direct evaluation
        let warm = get(server.addr(), &format!("/v1/query?query={q}"), "*/*");
        let plain = Server::start(demo_store(), 0).unwrap();
        let direct = get(plain.addr(), &format!("/v1/query?query={q}"), "*/*");
        assert_eq!(body_of(&warm), body_of(&direct));
        let stats = get(server.addr(), "/v1/views/stats", "*/*");
        assert!(stats.contains("\"enabled\":true"), "{stats}");
        assert!(!stats.contains("\"hits\":0,"), "warm queries hit the view: {stats}");
    }

    #[test]
    fn updates_maintain_views_and_stale_answers_are_never_served() {
        let server = views_server(demo_store());
        let q = percent_encode(CLASS_COUNTS);
        for _ in 0..4 {
            get(server.addr(), &format!("/v1/query?query={q}"), "*/*");
        }
        let views = server.views().expect("auto_views on");
        assert!(!views.views().is_empty(), "view materialized before the update");
        // mutate through the endpoint: the maintainer applies the delta
        let resp = post(
            server.addr(),
            "/v1/update",
            "PREFIX ex: <http://example.org/> INSERT DATA { ex:l3 a ex:Laptop . ex:l4 a ex:Tablet . }",
        );
        assert!(resp.contains("\"inserted\":2"), "{resp}");
        let after = get(server.addr(), &format!("/v1/query?query={q}"), "*/*");
        // the maintained view answers with post-update counts, matching a
        // direct evaluation over the same data byte for byte
        let mut expected_store = demo_store();
        expected_store
            .load_turtle(
                r#"@prefix ex: <http://example.org/> .
                   ex:l3 a ex:Laptop . ex:l4 a ex:Tablet ."#,
            )
            .unwrap();
        let plain = Server::start(expected_store, 0).unwrap();
        let direct = get(plain.addr(), &format!("/v1/query?query={q}"), "*/*");
        assert_eq!(body_of(&after), body_of(&direct));
        let st = views.stats();
        assert!(
            st.incremental_maintenance >= 1,
            "the INSERT DATA delta is applied incrementally: {st:?}"
        );
    }

    /// The facet route reads no view and reports no workload to the view
    /// selector, over a store with inferred triples and over one without:
    /// repeated panels and updates leave no view materialized (and none
    /// maintained on every update).
    #[test]
    fn facets_route_materializes_no_view() {
        let mut inferred = demo_store();
        inferred
            .load_turtle(
                "@prefix ex: <http://example.org/> .
                 @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
                 ex:Laptop rdfs:subClassOf ex:Product .",
            )
            .unwrap();
        assert!(inferred.len_entailed() > inferred.len(), "the fixture must carry inferred triples");
        let plain = demo_store();
        assert_eq!(plain.len_entailed(), plain.len(), "the fixture must carry no inferred triples");
        for store in [inferred, plain] {
            let server = views_server(store);
            for i in 0..6 {
                let resp = get(server.addr(), "/v1/facets", "*/*");
                assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
                let update = format!("PREFIX ex: <http://example.org/> INSERT DATA {{ ex:n{i} ex:tag {i} . }}");
                assert!(post(server.addr(), "/v1/update", &update).contains("\"inserted\":1"));
            }
            let views = server.views().unwrap();
            assert!(views.views().is_empty(), "{:?}", views.views());
            let stats = views.stats();
            assert_eq!((stats.materializations, stats.incremental_maintenance), (0, 0), "{stats:?}");
        }
    }

    #[test]
    fn views_refresh_materializes_the_recorded_workload() {
        let server = views_server(demo_store());
        let q = percent_encode(CLASS_COUNTS);
        // one observation is below min_observations: no view yet
        get(server.addr(), &format!("/v1/query?query={q}"), "*/*");
        assert!(server.views().unwrap().views().is_empty());
        let resp = post(server.addr(), "/v1/views/refresh", "");
        assert!(resp.contains("\"materialized\":1"), "{resp}");
        let explain = get(server.addr(), &format!("/v1/explain?query={q}"), "*/*");
        assert!(explain.contains("view-hit:"), "{explain}");
    }

    #[test]
    fn health_and_404() {
        let server = Server::start(demo_store(), 0).unwrap();
        assert!(get(server.addr(), "/health", "*/*").contains("ok"));
        assert!(get(server.addr(), "/nope", "*/*").starts_with("HTTP/1.1 404"));
    }

    #[test]
    fn get_query_returns_json() {
        let server = Server::start(demo_store(), 0).unwrap();
        let q = percent_encode(
            "PREFIX ex: <http://example.org/> SELECT (COUNT(?x) AS ?n) WHERE { ?x a ex:Laptop . }",
        );
        let resp = get(server.addr(), &format!("/v1/query?query={q}"), "*/*");
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.contains("sparql-results+json"));
        assert!(resp.contains("\"value\":\"2\""), "{resp}");
    }

    #[test]
    fn explain_route_reports_plan_and_runtime() {
        let server = Server::start(demo_store(), 0).unwrap();
        let q = percent_encode(
            "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:Laptop . }",
        );
        let resp = get(server.addr(), &format!("/v1/explain?query={q}"), "*/*");
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.contains("text/plain"), "{resp}");
        assert!(resp.contains("physical plan:"), "{resp}");
        assert!(resp.contains("rows="), "executed plans carry observed rows: {resp}");
        assert!(!resp.contains("threads="), "execution is sequential: {resp}");

        // a malformed query is a diagnosed 400, not a panic
        let bad = get(server.addr(), "/v1/explain?query=NOT%20SPARQL", "*/*");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
        // and a missing query is too
        let missing = get(server.addr(), "/v1/explain", "*/*");
        assert!(missing.starts_with("HTTP/1.1 400"), "{missing}");
    }

    #[test]
    fn explain_route_renders_the_physical_plan_of_nested_and_construct_queries() {
        let server = Server::start(demo_store(), 0).unwrap();
        for (q, op) in [
            (
                "SELECT ?n WHERE { { SELECT (COUNT(?x) AS ?n) WHERE { ?x a ex:Laptop . } } }",
                "SubSelect(?n)",
            ),
            ("CONSTRUCT { ?x ex:kind ex:Laptop } WHERE { ?x a ex:Laptop . }", "Construct(1 templates)"),
        ] {
            let q = percent_encode(&format!("PREFIX ex: <http://example.org/> {q}"));
            let resp = get(server.addr(), &format!("/v1/explain?query={q}"), "*/*");
            assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
            assert!(resp.contains("physical plan:") && resp.contains(op), "{resp}");
            assert!(resp.contains("IndexJoin") && resp.contains("rows="), "{resp}");
        }
    }

    #[test]
    fn post_query_with_csv_accept() {
        let server = Server::start(demo_store(), 0).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let body = "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:Laptop . } ORDER BY ?x";
        stream
            .write_all(
                format!(
                    "POST /v1/query HTTP/1.1\r\nHost: x\r\nAccept: text/csv\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.contains("text/csv"));
        assert!(resp.contains("http://example.org/l1"));
    }

    #[test]
    fn update_mutates_store() {
        let server = Server::start(demo_store(), 0).unwrap();
        let resp = post(
            server.addr(),
            "/v1/update",
            "PREFIX ex: <http://example.org/> INSERT DATA { ex:l3 a ex:Laptop . }",
        );
        assert!(resp.contains("\"inserted\":1"), "{resp}");
        let q = percent_encode(
            "PREFIX ex: <http://example.org/> SELECT (COUNT(?x) AS ?n) WHERE { ?x a ex:Laptop . }",
        );
        let resp = get(server.addr(), &format!("/v1/query?query={q}"), "*/*");
        assert!(resp.contains("\"value\":\"3\""), "{resp}");
    }

    #[test]
    fn v1_query_serves_json_csv_and_plain() {
        let server = Server::start(demo_store(), 0).unwrap();
        let q = percent_encode(
            "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:Laptop . } ORDER BY ?x",
        );
        let json = get(server.addr(), &format!("/v1/query?query={q}"), "*/*");
        assert!(json.starts_with("HTTP/1.1 200"), "{json}");
        assert!(json.contains("sparql-results+json"), "{json}");
        let csv = get(server.addr(), &format!("/v1/query?query={q}"), "text/csv");
        assert!(csv.contains("text/csv"), "{csv}");
        assert!(csv.contains("http://example.org/l1"), "{csv}");
        let table = get(server.addr(), &format!("/v1/query?query={q}"), "text/plain");
        assert!(table.contains("text/plain"), "{table}");
        // POST body is the query verbatim
        let body = "SELECT ?x WHERE { ?x ?p ?o . }";
        let resp = http(
            server.addr(),
            &format!(
                "POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            ),
        );
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    }

    #[test]
    fn v1_update_mutates_store() {
        let server = Server::start(demo_store(), 0).unwrap();
        let resp = post(
            server.addr(),
            "/v1/update",
            "PREFIX ex: <http://example.org/> INSERT DATA { ex:l9 a ex:Laptop . }",
        );
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.contains("\"inserted\":1"), "{resp}");
        assert!(!resp.contains("Deprecation"), "{resp}");
    }

    #[test]
    fn legacy_routes_answer_404() {
        let server = Server::start(demo_store(), 0).unwrap();
        let q = percent_encode("SELECT ?x WHERE { ?x ?p ?o . }");
        let gone = get(server.addr(), &format!("/sparql?query={q}"), "*/*");
        assert!(gone.starts_with("HTTP/1.1 404"), "{gone}");
        let upd = post(server.addr(), "/update", "INSERT DATA { <urn:a> <urn:b> <urn:c> . }");
        assert!(upd.starts_with("HTTP/1.1 404"), "{upd}");
        let v1 = get(server.addr(), &format!("/v1/query?query={q}"), "*/*");
        assert!(v1.starts_with("HTTP/1.1 200"), "{v1}");
    }

    #[test]
    fn v1_query_without_query_param_is_400() {
        let server = Server::start(demo_store(), 0).unwrap();
        let resp = get(server.addr(), "/v1/query", "*/*");
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        assert!(resp.contains("missing ?query="), "{resp}");
    }

    #[test]
    fn bad_query_is_400_with_json_error_body() {
        let server = Server::start(demo_store(), 0).unwrap();
        let resp = get(server.addr(), "/v1/query?query=NOT+SPARQL", "*/*");
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        assert!(resp.contains("\"error\""), "{resp}");
        assert!(resp.contains("\"code\":400"), "{resp}");
    }

    #[test]
    fn void_route_describes_dataset() {
        let server = Server::start(demo_store(), 0).unwrap();
        let resp = get(server.addr(), "/void", "*/*");
        assert!(resp.contains("void#triples"), "{resp}");
    }

    #[test]
    fn ask_returns_boolean_json() {
        let server = Server::start(demo_store(), 0).unwrap();
        let q = percent_encode("PREFIX ex: <http://example.org/> ASK WHERE { ?x ex:price 900 . }");
        let resp = get(server.addr(), &format!("/v1/query?query={q}"), "*/*");
        assert!(resp.contains("\"boolean\":true"), "{resp}");
    }

    #[test]
    fn percent_roundtrip() {
        let s = "SELECT * WHERE { ?s ?p \"a b+c%\" . }";
        assert_eq!(percent_decode(&percent_encode(s)), s);
    }

    #[test]
    fn oversized_content_length_is_rejected_with_413() {
        // regression: the server used to allocate `vec![0u8; content_length]`
        // straight from the header — a one-line request could reserve a gig
        let server = Server::start(demo_store(), 0).unwrap();
        let resp = http(
            server.addr(),
            "POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: 999999999\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");
        assert!(resp.contains("\"code\":413"), "{resp}");
    }

    #[test]
    fn malformed_request_line_is_400() {
        let server = Server::start(demo_store(), 0).unwrap();
        let resp = http(server.addr(), "GARBAGE\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        let resp = http(server.addr(), "GET /health NOT-HTTP\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    }

    #[test]
    fn invalid_content_length_is_400() {
        let server = Server::start(demo_store(), 0).unwrap();
        let resp = http(
            server.addr(),
            "POST /v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: banana\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    }

    #[test]
    fn slow_loris_times_out_without_blocking_others() {
        let config = ServerConfig {
            read_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        };
        let server = Server::start_with(demo_store(), 0, config).unwrap();
        let addr = server.addr();
        // a client that sends one byte of the request line and then stalls
        let mut loris = TcpStream::connect(addr).unwrap();
        loris.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        loris.write_all(b"G").unwrap();
        // other clients are served promptly while the loris occupies a worker
        let t0 = Instant::now();
        assert!(get(addr, "/health", "*/*").contains("ok"));
        assert!(t0.elapsed() < Duration::from_millis(250), "{:?}", t0.elapsed());
        // the stalled connection itself is answered 408 once its timeout fires
        let mut resp = String::new();
        let _ = loris.read_to_string(&mut resp);
        assert!(resp.starts_with("HTTP/1.1 408"), "{resp}");
    }

    #[test]
    fn panicking_handler_returns_500_and_server_survives() {
        let config = ServerConfig { debug_routes: true, ..ServerConfig::default() };
        let server = Server::start_with(demo_store(), 0, config).unwrap();
        let resp = get(server.addr(), "/panic", "*/*");
        assert!(resp.starts_with("HTTP/1.1 500"), "{resp}");
        assert!(resp.contains("\"code\":500"), "{resp}");
        // the worker survives the panic and keeps serving
        assert!(get(server.addr(), "/health", "*/*").contains("ok"));
        // without debug_routes the route does not exist
        let plain = Server::start(demo_store(), 0).unwrap();
        assert!(get(plain.addr(), "/panic", "*/*").starts_with("HTTP/1.1 404"));
    }

    #[test]
    fn resource_limited_query_returns_503_json() {
        let mut s = Store::new();
        let mut ttl = String::from("@prefix ex: <http://example.org/> .\n");
        for i in 0..400 {
            ttl.push_str(&format!("ex:n{i} ex:partOf ex:n{} .\n", (i + 1) % 400));
        }
        s.load_turtle(&ttl).unwrap();
        let config = ServerConfig {
            limits: EvalLimits::default().with_max_path_visits(100),
            ..ServerConfig::default()
        };
        let server = Server::start_with(s, 0, config).unwrap();
        let q = percent_encode(
            "PREFIX ex: <http://example.org/> SELECT ?x ?y WHERE { ?x ex:partOf+ ?y . }",
        );
        let resp = get(server.addr(), &format!("/v1/query?query={q}"), "*/*");
        assert!(resp.starts_with("HTTP/1.1 503"), "{resp}");
        assert!(resp.contains("\"error\""), "{resp}");
        assert!(resp.contains("resource limit"), "{resp}");
    }

    /// A cyclic `ex:partOf` chain of `n` nodes: its closure has `n²` pairs.
    fn cycle_ttl(n: usize) -> String {
        let mut ttl = String::from("@prefix ex: <http://example.org/> .\n");
        for i in 0..n {
            ttl.push_str(&format!("ex:n{i} ex:partOf ex:n{} .\n", (i + 1) % n));
        }
        ttl
    }

    /// An update whose WHERE walks the whole closure of the cycle.
    const CLOSURE_DELETE: &str = "PREFIX ex: <http://example.org/> \
        DELETE { ?x ex:partOf ?y } WHERE { ?x ex:partOf+ ?y . }";

    /// The raw value of `"key":` in a flat JSON body.
    fn json_value<'r>(resp: &'r str, key: &str) -> &'r str {
        let at = resp.find(&format!("\"{key}\":")).unwrap_or_else(|| panic!("{key}: {resp}"));
        resp[at + key.len() + 3..].split([',', '}']).next().unwrap_or("")
    }

    #[test]
    fn resource_limited_update_returns_503_and_changes_nothing() {
        let mut s = Store::new();
        s.load_turtle(&cycle_ttl(400)).unwrap();
        let config = ServerConfig {
            limits: EvalLimits::default().with_max_path_visits(100),
            ..ServerConfig::default()
        };
        let server = Server::start_with(s, 0, config).unwrap();
        let before = get(server.addr(), "/healthz", "*/*");
        let resp = post(server.addr(), "/v1/update", CLOSURE_DELETE);
        assert!(resp.starts_with("HTTP/1.1 503"), "{resp}");
        assert!(resp.contains("resource limit"), "{resp}");
        let after = get(server.addr(), "/healthz", "*/*");
        for key in ["triples", "snapshot_generation"] {
            assert_eq!(json_value(&before, key), json_value(&after, key), "{key}");
        }
        let q = percent_encode(
            "PREFIX ex: <http://example.org/> SELECT (COUNT(*) AS ?n) WHERE { ?x ex:partOf ?y . }",
        );
        let resp = get(server.addr(), &format!("/v1/query?query={q}"), "*/*");
        assert!(resp.contains("\"value\":\"400\""), "{resp}");
    }

    #[test]
    fn resource_limited_durable_update_returns_503_and_logs_nothing() {
        use rdfa_store::PersistConfig;
        let dir = std::env::temp_dir()
            .join(format!("rdfa-server-limited-update-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SharedStore::open(&dir, PersistConfig::default()).unwrap();
        store.transact(|txn| txn.load_turtle(&cycle_ttl(400))).unwrap();
        let config = ServerConfig {
            limits: EvalLimits::default().with_max_path_visits(100),
            ..ServerConfig::default()
        };
        let server = Server::start_with(store, 0, config).unwrap();
        let before = get(server.addr(), "/healthz", "*/*");
        let resp = post(server.addr(), "/v1/update", CLOSURE_DELETE);
        assert!(resp.starts_with("HTTP/1.1 503"), "{resp}");
        assert!(resp.contains("resource limit"), "{resp}");
        let after = get(server.addr(), "/healthz", "*/*");
        for key in ["wal_records", "generation", "snapshot_generation", "triples"] {
            assert_eq!(json_value(&before, key), json_value(&after, key), "{key}");
        }
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_update_that_changes_nothing_publishes_no_generation() {
        use rdfa_store::PersistConfig;
        let dir = std::env::temp_dir()
            .join(format!("rdfa-server-noop-update-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SharedStore::open(&dir, PersistConfig::default()).unwrap();
        let server = Server::start_with(store, 0, ServerConfig::default()).unwrap();
        let insert = "PREFIX ex: <http://example.org/> INSERT DATA { ex:l1 a ex:Laptop . }";
        assert!(post(server.addr(), "/v1/update", insert).contains("\"inserted\":1"));
        let before = get(server.addr(), "/healthz", "*/*");
        let resp = post(server.addr(), "/v1/update", insert);
        assert!(resp.contains("\"inserted\":0"), "{resp}");
        let resp = post(
            server.addr(),
            "/v1/update",
            "PREFIX ex: <http://example.org/> DELETE DATA { ex:l9 a ex:Laptop . }",
        );
        assert!(resp.contains("\"deleted\":0"), "{resp}");
        let after = get(server.addr(), "/healthz", "*/*");
        for key in ["snapshot_generation", "wal_records", "triples"] {
            assert_eq!(json_value(&before, key), json_value(&after, key), "{key}");
        }
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn queue_overflow_returns_503_with_retry_after() {
        let config = ServerConfig {
            workers: 1,
            queue_capacity: 1,
            read_timeout: Duration::from_millis(400),
            ..ServerConfig::default()
        };
        let server = Server::start_with(demo_store(), 0, config).unwrap();
        let addr = server.addr();
        // occupy the single worker with a stalled connection
        let mut busy = TcpStream::connect(addr).unwrap();
        busy.write_all(b"G").unwrap();
        std::thread::sleep(Duration::from_millis(100));
        // fill the one queue slot
        let _queued = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        // the next connection overflows the queue and is turned away
        let mut overflow = TcpStream::connect(addr).unwrap();
        overflow.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut resp = String::new();
        let _ = overflow.read_to_string(&mut resp);
        assert!(resp.starts_with("HTTP/1.1 503"), "{resp}");
        assert!(resp.contains("queue full"), "{resp}");
        assert!(retry_after_secs(&resp).is_some(), "{resp}");
    }

    /// Parse the `Retry-After` value out of a raw response, if present.
    fn retry_after_secs(resp: &str) -> Option<u64> {
        resp.lines()
            .find_map(|l| l.strip_prefix("Retry-After: "))
            .and_then(|v| v.trim().parse().ok())
    }

    #[test]
    fn admission_budget_sheds_with_retry_after_then_recovers() {
        let config = ServerConfig {
            max_in_flight: 1,
            debug_routes: true,
            ..ServerConfig::default()
        };
        let server = Server::start_with(demo_store(), 0, config).unwrap();
        let addr = server.addr();
        // saturate the one-slot budget with a request that holds it
        let slow = std::thread::spawn(move || get(addr, "/slow?ms=1200", "*/*"));
        std::thread::sleep(Duration::from_millis(300));
        // work routes are shed immediately instead of queueing
        let q = percent_encode("SELECT ?x WHERE { ?x ?p ?o . }");
        let shed = get(addr, &format!("/v1/query?query={q}"), "*/*");
        assert!(shed.starts_with("HTTP/1.1 503"), "{shed}");
        let secs = retry_after_secs(&shed).expect("shed response carries Retry-After");
        assert!((1..=3).contains(&secs), "jittered Retry-After out of range: {secs}");
        assert!(shed.contains("budget exhausted"), "{shed}");
        // health and healthz bypass the budget: the saturated server is
        // still probeable, and reports the held slot and the shed request
        assert!(get(addr, "/health", "*/*").contains("ok"));
        let hz = get(addr, "/healthz", "*/*");
        assert!(hz.contains("\"in_flight\":1"), "{hz}");
        assert!(hz.contains("\"shed\":1"), "{hz}");
        // once the slot frees, the same query succeeds
        assert!(slow.join().unwrap().starts_with("HTTP/1.1 200"));
        let ok = get(addr, &format!("/v1/query?query={q}"), "*/*");
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
        assert_eq!(server.shed_requests(), 1);
        assert_eq!(server.in_flight(), 0);
    }

    #[test]
    fn healthz_reports_plain_store() {
        let server = Server::start(demo_store(), 0).unwrap();
        let resp = get(server.addr(), "/healthz", "*/*");
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.contains("\"durable\":false"), "{resp}");
        assert!(resp.contains("\"triples\":4"), "{resp}");
        // the admission and snapshot gauges are always present
        assert!(resp.contains("\"snapshot_generation\":"), "{resp}");
        assert!(resp.contains("\"in_flight\":0"), "{resp}");
        assert!(resp.contains("\"shed\":0"), "{resp}");
    }

    #[test]
    fn healthz_counts_the_route_each_commit_took() {
        let server = Server::start(demo_store(), 0).unwrap();
        let resp = get(server.addr(), "/healthz", "*/*");
        assert!(resp.contains("\"closure_incremental\":0,\"closure_full\":0"), "{resp}");
        // a data-only update is applied incrementally …
        post(
            server.addr(),
            "/v1/update",
            "PREFIX ex: <http://example.org/> INSERT DATA { ex:l9 a ex:Laptop . }",
        );
        let resp = get(server.addr(), "/healthz", "*/*");
        assert!(resp.contains("\"closure_incremental\":1,\"closure_full\":0"), "{resp}");
        // … one that changes the schema falls off the fast path, visibly
        post(
            server.addr(),
            "/v1/update",
            "PREFIX ex: <http://example.org/> PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#> \
             INSERT DATA { ex:Laptop rdfs:subClassOf ex:Product . }",
        );
        let resp = get(server.addr(), "/healthz", "*/*");
        assert!(resp.contains("\"closure_incremental\":1,\"closure_full\":1"), "{resp}");
        let q = percent_encode(
            "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:Product . } ORDER BY ?x",
        );
        let resp = get(server.addr(), &format!("/v1/query?query={q}"), "text/csv");
        assert_eq!(body_of(&resp).matches("http://example.org/l").count(), 3, "{resp}");
    }

    #[test]
    fn durable_server_persists_updates_across_restart() {
        use rdfa_store::PersistConfig;
        let dir = std::env::temp_dir()
            .join(format!("rdfa-server-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = SharedStore::open(&dir, PersistConfig::default()).unwrap();
            store
                .transact(|txn| {
                    txn.load_turtle(r#"@prefix ex: <http://example.org/> . ex:l1 a ex:Laptop ."#)
                })
                .unwrap();
            let server = Server::start_with(store, 0, ServerConfig::default()).unwrap();
            let resp = post(
                server.addr(),
                "/v1/update",
                "PREFIX ex: <http://example.org/> INSERT DATA { ex:l2 a ex:Laptop . }",
            );
            assert!(resp.contains("\"inserted\":1"), "{resp}");
            // healthz sees the durable store: gen 0, 2 WAL records (the
            // initial load + the update batch)
            let hz = get(server.addr(), "/healthz", "*/*");
            assert!(hz.contains("\"durable\":true"), "{hz}");
            assert!(hz.contains("\"generation\":0"), "{hz}");
            assert!(hz.contains("\"wal_records\":2"), "{hz}");
            server.stop(); // drains in-flight work, then checkpoints
        }
        // a new process generation reopens the directory and sees both
        // laptops — from the shutdown checkpoint, with an empty WAL
        let store = SharedStore::open(&dir, PersistConfig::default()).unwrap();
        let recovery = store.recovery().unwrap();
        assert_eq!(recovery.generation, 1);
        assert_eq!(recovery.checkpoint_triples, 2);
        assert_eq!(recovery.wal_records_replayed, 0);
        let server = Server::start_with(store, 0, ServerConfig::default()).unwrap();
        let q = percent_encode(
            "PREFIX ex: <http://example.org/> SELECT (COUNT(?x) AS ?n) WHERE { ?x a ex:Laptop . }",
        );
        let resp = get(server.addr(), &format!("/v1/query?query={q}"), "*/*");
        assert!(resp.contains("\"value\":\"2\""), "{resp}");
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn facets_route_serves_markers_and_caches_repeats() {
        let server = Server::start(demo_store(), 0).unwrap();
        let class = percent_encode("http://example.org/Laptop");
        let first = get(server.addr(), &format!("/v1/facets?class={class}"), "*/*");
        assert!(first.starts_with("HTTP/1.1 200"), "{first}");
        assert!(first.contains("X-Facet-Cache: miss"), "{first}");
        assert!(first.contains("\"extension\":2"), "{first}");
        assert!(first.contains("\"property\":\"http://example.org/price\""), "{first}");
        assert!(first.contains("\"count\":1"), "{first}");
        // the same state again is a cache hit
        let second = get(server.addr(), &format!("/v1/facets?class={class}"), "*/*");
        assert!(second.contains("X-Facet-Cache: hit"), "{second}");
        let stats = get(server.addr(), "/v1/facets/stats", "*/*");
        assert!(stats.contains("\"hits\":2"), "{stats}"); // classes + facets
        assert!(stats.contains("\"misses\":2"), "{stats}");
        // an update bumps the store generation: the state must recompute
        let resp = post(
            server.addr(),
            "/v1/update",
            "PREFIX ex: <http://example.org/> INSERT DATA { ex:l3 a ex:Laptop ; ex:price 1100 . }",
        );
        assert!(resp.contains("\"inserted\":2"), "{resp}");
        let third = get(server.addr(), &format!("/v1/facets?class={class}"), "*/*");
        assert!(third.contains("X-Facet-Cache: miss"), "{third}");
        assert!(third.contains("\"extension\":3"), "{third}");
    }

    #[test]
    fn facets_route_without_class_uses_initial_state() {
        let server = Server::start(demo_store(), 0).unwrap();
        let resp = get(server.addr(), "/v1/facets", "*/*");
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        assert!(resp.contains("\"classes\":["), "{resp}");
        assert!(resp.contains("http://example.org/Laptop"), "{resp}");
    }

    #[test]
    fn facets_route_rejects_bad_and_unknown_classes() {
        let server = Server::start(demo_store(), 0).unwrap();
        // embedded '>' = SPARQL-injection shape: rejected before lookup
        let attack = percent_encode("http://e/x> ?y . } UNION { ?a ?b ?c");
        let resp = get(server.addr(), &format!("/v1/facets?class={attack}"), "*/*");
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        let unknown = percent_encode("http://example.org/NoSuchClass");
        let resp = get(server.addr(), &format!("/v1/facets?class={unknown}"), "*/*");
        assert!(resp.starts_with("HTTP/1.1 404"), "{resp}");
    }

    #[test]
    fn facets_budget_zero_serves_stale_generation() {
        let server = Server::start(demo_store(), 0).unwrap();
        let class = percent_encode("http://example.org/Laptop");
        // cached-only before anything is cached: degradation has nothing
        // to fall back to, so the request is shed
        let nothing =
            get(server.addr(), &format!("/v1/facets?class={class}&budget_ms=0"), "*/*");
        assert!(nothing.starts_with("HTTP/1.1 503"), "{nothing}");
        assert!(retry_after_secs(&nothing).is_some(), "{nothing}");
        // warm the cache at the current generation
        let fresh = get(server.addr(), &format!("/v1/facets?class={class}"), "*/*");
        assert!(fresh.contains("X-Facet-Cache: miss"), "{fresh}");
        assert!(!fresh.contains("X-Facet-Stale"), "{fresh}");
        // an update elsewhere in the graph bumps the generation without
        // changing the Laptop extension
        let resp = post(
            server.addr(),
            "/v1/update",
            "PREFIX ex: <http://example.org/> INSERT DATA { ex:l1 ex:weight 2 . }",
        );
        assert!(resp.contains("\"inserted\":1"), "{resp}");
        // cached-only now serves the superseded generation's markers,
        // flagged stale, instead of computing or failing
        let stale =
            get(server.addr(), &format!("/v1/facets?class={class}&budget_ms=0"), "*/*");
        assert!(stale.starts_with("HTTP/1.1 200"), "{stale}");
        assert!(stale.contains("X-Facet-Cache: stale"), "{stale}");
        // the body reports the generation the markers were computed at,
        // which is the header's, not the current snapshot's
        let generation_of = |resp: &str| -> u64 {
            let at = resp.find("\"generation\":").expect("body carries a generation") + 13;
            let digits: String = resp[at..].chars().take_while(char::is_ascii_digit).collect();
            digits.parse().unwrap()
        };
        let header = stale
            .lines()
            .find_map(|l| l.strip_prefix("X-Facet-Stale: "))
            .expect("stale header")
            .trim()
            .parse::<u64>()
            .unwrap();
        assert_eq!(generation_of(&stale), header, "{stale}");
        assert_eq!(generation_of(&fresh), header, "the markers are the warm-up's: {fresh}");
        assert!(stale.contains("\"property\":\"http://example.org/price\""), "{stale}");
        let stats = get(server.addr(), "/v1/facets/stats", "*/*");
        assert!(stats.contains("\"stale_hits\":2"), "{stats}"); // classes + facets
        // a fresh panel reports the current, later generation
        let now = get(server.addr(), &format!("/v1/facets?class={class}"), "*/*");
        assert!(generation_of(&now) > header, "{now}");
        // garbage budget is the client's error
        let bad = get(server.addr(), &format!("/v1/facets?class={class}&budget_ms=soon"), "*/*");
        assert!(bad.starts_with("HTTP/1.1 400"), "{bad}");
    }

    #[test]
    fn concurrent_clients_under_write_contention() {
        let server = Server::start(demo_store(), 0).unwrap();
        let addr = server.addr();
        let mut handles = Vec::new();
        for i in 0..8 {
            handles.push(std::thread::spawn(move || {
                if i % 2 == 0 {
                    let body = format!(
                        "PREFIX ex: <http://example.org/> INSERT DATA {{ ex:c{i} a ex:Laptop . }}"
                    );
                    let resp = post(addr, "/v1/update", &body);
                    assert!(resp.contains("\"inserted\":1"), "{resp}");
                } else {
                    let q = percent_encode(
                        "PREFIX ex: <http://example.org/> SELECT (COUNT(?x) AS ?n) WHERE { ?x a ex:Laptop . }",
                    );
                    let resp = get(addr, &format!("/v1/query?query={q}"), "*/*");
                    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // 2 seed laptops + 4 inserted by the even-numbered clients
        let q = percent_encode(
            "PREFIX ex: <http://example.org/> SELECT (COUNT(?x) AS ?n) WHERE { ?x a ex:Laptop . }",
        );
        let resp = get(addr, &format!("/v1/query?query={q}"), "*/*");
        assert!(resp.contains("\"value\":\"6\""), "{resp}");
    }

    /// Read exactly one HTTP response (headers + body) from a keep-alive
    /// stream, decoding Content-Length or chunked framing.
    fn read_one_response(stream: &mut TcpStream) -> (String, String) {
        let mut reader = BufReader::new(stream);
        let mut head = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line == "\r\n" || line.is_empty() {
                break;
            }
            head.push_str(&line);
        }
        let body = if head.to_ascii_lowercase().contains("transfer-encoding: chunked") {
            let mut body = Vec::new();
            loop {
                let mut size_line = String::new();
                reader.read_line(&mut size_line).unwrap();
                let size = usize::from_str_radix(size_line.trim(), 16).unwrap();
                if size == 0 {
                    let mut crlf = String::new();
                    reader.read_line(&mut crlf).unwrap();
                    break;
                }
                let mut chunk = vec![0u8; size + 2]; // data + CRLF
                reader.read_exact(&mut chunk).unwrap();
                chunk.truncate(size);
                body.extend_from_slice(&chunk);
            }
            String::from_utf8(body).unwrap()
        } else {
            let len: usize = head
                .lines()
                .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length: ").map(str::to_owned))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0);
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).unwrap();
            String::from_utf8(body).unwrap()
        };
        (head, body)
    }

    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let server = Server::start(demo_store(), 0).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let q = percent_encode("SELECT ?x WHERE { ?x ?p ?o . }");
        for i in 0..3 {
            stream
                .write_all(
                    format!("GET /v1/query?query={q} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes(),
                )
                .unwrap();
            let (head, body) = read_one_response(&mut stream);
            assert!(head.starts_with("HTTP/1.1 200"), "request {i}: {head}");
            assert!(head.contains("Connection: keep-alive"), "request {i}: {head}");
            assert!(body.contains("\"bindings\""), "request {i}: {body}");
        }
        // an explicit close is honoured
        stream
            .write_all(b"GET /health HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let (head, body) = read_one_response(&mut stream);
        assert!(head.contains("Connection: close"), "{head}");
        assert_eq!(body, "ok");
        let mut rest = String::new();
        stream.read_to_string(&mut rest).unwrap();
        assert!(rest.is_empty(), "server kept the connection open after close: {rest}");
    }

    #[test]
    fn max_requests_per_conn_closes_after_cap() {
        let config =
            ServerConfig { max_requests_per_conn: 2, ..ServerConfig::default() };
        let server = Server::start_with(demo_store(), 0, config).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let (head, _) = read_one_response(&mut stream);
        assert!(head.contains("Connection: keep-alive"), "{head}");
        // the capped request announces the close
        stream.write_all(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let (head, _) = read_one_response(&mut stream);
        assert!(head.contains("Connection: close"), "{head}");
        let mut rest = String::new();
        stream.read_to_string(&mut rest).unwrap();
        assert!(rest.is_empty(), "connection survived the request cap: {rest}");
    }

    #[test]
    fn idle_keep_alive_connection_is_closed_silently() {
        let config = ServerConfig {
            keep_alive_timeout: Duration::from_millis(150),
            ..ServerConfig::default()
        };
        let server = Server::start_with(demo_store(), 0, config).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let (head, _) = read_one_response(&mut stream);
        assert!(head.contains("Connection: keep-alive"), "{head}");
        // idle past the keep-alive budget: the server closes without a 408
        let mut rest = String::new();
        stream.read_to_string(&mut rest).unwrap();
        assert!(rest.is_empty(), "expected silent close, got: {rest}");
    }

    #[test]
    fn stop_does_not_wait_out_an_idle_keep_alive_connection() {
        // default config: a 5 s keep-alive budget the shutdown must not sit through
        let server = Server::start(demo_store(), 0).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let (head, _) = read_one_response(&mut stream);
        assert!(head.contains("Connection: keep-alive"), "{head}");
        // the client keeps the socket open and says nothing more
        let t0 = Instant::now();
        server.stop();
        let took = t0.elapsed();
        assert!(took < Duration::from_millis(500), "stop() took {took:?}");
        // and the idle connection was closed, silently
        let mut rest = String::new();
        stream.read_to_string(&mut rest).unwrap();
        assert!(rest.is_empty(), "expected silent close, got: {rest}");
    }

    #[test]
    fn responses_leave_in_one_segment_on_a_nodelay_socket() {
        // a client that leaves delayed ACK on must not wait ~40 ms for the
        // second half of a split response: 20 warm exchanges stay far below
        // one delayed-ACK timer each
        let server = Server::start(demo_store(), 0).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let q = percent_encode("SELECT ?s WHERE { ?s ?p ?o } LIMIT 1");
        let requests = [
            "GET /health HTTP/1.1\r\nHost: x\r\n\r\n".to_owned(),
            format!("GET /v1/query?query={q} HTTP/1.1\r\nHost: x\r\n\r\n"),
        ];
        for request in &requests {
            stream.write_all(request.as_bytes()).unwrap();
            read_one_response(&mut stream); // warm the connection
            let t0 = Instant::now();
            for _ in 0..20 {
                stream.write_all(request.as_bytes()).unwrap();
                let (head, _) = read_one_response(&mut stream);
                assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            }
            let per_exchange = t0.elapsed() / 20;
            assert!(per_exchange < Duration::from_millis(20), "{request}: {per_exchange:?}");
        }
    }

    #[test]
    fn select_solutions_stream_chunked_with_crlf_csv() {
        let server = Server::start(demo_store(), 0).unwrap();
        let q = percent_encode(
            "PREFIX ex: <http://example.org/> SELECT ?x WHERE { ?x a ex:Laptop . } ORDER BY ?x",
        );
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream
            .write_all(
                format!(
                    "GET /v1/query?query={q} HTTP/1.1\r\nHost: x\r\nAccept: text/csv\r\n\r\n"
                )
                .as_bytes(),
            )
            .unwrap();
        let (head, body) = read_one_response(&mut stream);
        assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
        assert!(!head.to_ascii_lowercase().contains("content-length"), "{head}");
        assert_eq!(body, "x\r\nhttp://example.org/l1\r\nhttp://example.org/l2\r\n");
        // HTTP/1.0 clients can't parse chunked: they get a buffered body
        let resp = http(
            server.addr(),
            &format!("GET /v1/query?query={q} HTTP/1.0\r\nHost: x\r\nAccept: text/csv\r\n\r\n"),
        );
        assert!(resp.contains("Content-Length"), "{resp}");
        assert!(!resp.contains("Transfer-Encoding"), "{resp}");
    }

    #[test]
    fn retry_after_jitter_spreads_across_sheds() {
        let config = ServerConfig {
            max_in_flight: 1,
            debug_routes: true,
            ..ServerConfig::default()
        };
        let server = Server::start_with(demo_store(), 0, config).unwrap();
        let addr = server.addr();
        let slow = std::thread::spawn(move || get(addr, "/slow?ms=1500", "*/*"));
        std::thread::sleep(Duration::from_millis(300));
        let q = percent_encode("SELECT ?x WHERE { ?x ?p ?o . }");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..32 {
            let shed = get(addr, &format!("/v1/query?query={q}"), "*/*");
            assert!(shed.starts_with("HTTP/1.1 503"), "{shed}");
            let secs = retry_after_secs(&shed).expect("Retry-After present");
            assert!((1..=3).contains(&secs), "out of range: {secs}");
            seen.insert(secs);
        }
        assert!(seen.len() > 1, "32 sheds all got the same Retry-After: {seen:?}");
        slow.join().unwrap();
    }
}
