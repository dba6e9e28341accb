//! Streaming-delivery robustness: a client that disconnects mid-query or
//! mid-panel must cancel the evaluation (releasing its admission slot long
//! before it would finish naturally), and a reader draining a large streamed
//! response too slowly must trip the write timeout without blocking other
//! requests on the server.

use rdf_analytics::facets::{class_markers_opts, property_facets_opts, FacetOptions};
use rdf_analytics::server::{percent_encode, Server, ServerConfig};
use rdf_analytics::sparql::EvalLimits;
use rdf_analytics::model::Term;
use rdf_analytics::store::Store;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A store with `n` laptops so cross joins scale as n^2 / n^3.
fn laptops(n: usize) -> Store {
    let mut ttl = String::from("@prefix ex: <http://example.org/> .\n");
    for i in 0..n {
        ttl.push_str(&format!("ex:l{i} a ex:Laptop ; ex:price {} .\n", 500 + i));
    }
    let mut s = Store::new();
    s.load_turtle(&ttl).unwrap();
    s
}

fn get(addr: std::net::SocketAddr, path: &str, accept: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream
        .write_all(
            format!(
                "GET {path} HTTP/1.1\r\nHost: x\r\nAccept: {accept}\r\nConnection: close\r\n\r\n"
            )
            .as_bytes(),
        )
        .unwrap();
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

/// Poll until `in_flight` drains to zero; returns how long it took, or
/// panics after `within`.
fn wait_drained(server: &Server, within: Duration) -> Duration {
    let start = Instant::now();
    while server.in_flight() != 0 {
        assert!(
            start.elapsed() < within,
            "in-flight gauge stuck at {} after {:?}",
            server.in_flight(),
            within
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    start.elapsed()
}

/// The acceptance scenario: a client starts a query whose natural runtime
/// is far beyond the test budget (a triple cross join), then hangs up
/// mid-evaluation. The disconnect watcher must set the query's cancel
/// flag, the evaluation must stop at the next probe, and the admission
/// slot must be released — all observable as `in_flight` returning to 0
/// orders of magnitude sooner than the query could have completed.
#[test]
fn client_disconnect_mid_query_cancels_evaluation_and_releases_slot() {
    let config = ServerConfig {
        workers: 2,
        max_in_flight: 2,
        // a backstop far beyond what cancellation needs, so a regression
        // fails the assertion instead of hanging the suite
        limits: EvalLimits::unlimited().with_deadline(Duration::from_secs(60)),
        ..ServerConfig::default()
    };
    let server = Server::start_with(laptops(400), 0, config).unwrap();
    let addr = server.addr();

    // 400^3 = 64e9 candidate rows: not finishing in any test-sized window
    let q = percent_encode(
        "PREFIX ex: <http://example.org/> SELECT (COUNT(*) AS ?n) WHERE { \
           ?a a ex:Laptop . ?b a ex:Laptop . ?c a ex:Laptop . }",
    );
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            format!("GET /v1/query?query={q} HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n")
                .as_bytes(),
        )
        .unwrap();

    // let the request get admitted and the evaluation start
    let admitted = Instant::now();
    while server.in_flight() == 0 {
        assert!(admitted.elapsed() < Duration::from_secs(5), "query never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(server.in_flight(), 1);

    // hang up mid-evaluation; the watcher peeks EOF within ~25ms and the
    // guard probes the flag within one interval
    drop(stream);
    let took = wait_drained(&server, Duration::from_secs(10));
    println!("cancelled and drained in {took:?}");

    // the worker is free again: a normal query is served promptly
    let resp = get(
        addr,
        &format!(
            "/v1/query?query={}",
            percent_encode(
                "PREFIX ex: <http://example.org/> SELECT (COUNT(?x) AS ?n) WHERE { ?x a ex:Laptop . }"
            )
        ),
        "*/*",
    );
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    server.stop();
}

/// A store whose facet panel is mostly probed work: `props` properties
/// (one probed unit each) give each of `items` items one of `items`
/// distinct literals that share a long prefix. Sorting a unit's values by
/// display name then compares long strings, which outweighs the panel's
/// unprobed prologue (one pass over the explicit triples).
fn long_valued_items(items: usize, props: usize) -> Store {
    let mut s = Store::new();
    let ty = s.intern_iri(rdf_analytics::model::vocab::rdf::TYPE);
    let class = s.intern_iri("http://example.org/Item");
    let prefix = "v".repeat(4096);
    let values: Vec<_> =
        (0..items).map(|v| s.intern(&Term::string(format!("{prefix}{v}")))).collect();
    for i in 0..items {
        let item = s.intern_iri(&format!("http://example.org/i{i}"));
        s.insert_ids([item, ty, class]);
        for p in 0..props {
            let prop = s.intern_iri(&format!("http://example.org/p{p}"));
            s.insert_ids([item, prop, values[(i * 31 + p * 7) % items]]);
        }
    }
    s
}

/// The `/v1/facets` counterpart of the query scenario above: a client
/// that hangs up while its panel is being computed must stop the marker
/// computation at the next unit probe and release its admission slot in
/// a fraction of the panel's uncancelled time.
#[test]
fn client_disconnect_mid_facets_cancels_the_panel_and_releases_slot() {
    let store = long_valued_items(2000, 60);
    let ext = store.instances_set(store.lookup_iri("http://example.org/Item").unwrap());
    let started = Instant::now();
    class_markers_opts(&store, &ext, FacetOptions::default()).unwrap();
    property_facets_opts(&store, &ext, FacetOptions::default()).unwrap();
    let uncancelled = started.elapsed();
    println!("uncancelled panel: {uncancelled:?}");
    // the watcher polls every 25 ms: a panel cheaper than a few polls
    // could finish before the hang-up is seen and prove nothing
    assert!(uncancelled > Duration::from_millis(100), "panel too cheap: {uncancelled:?}");

    let config = ServerConfig {
        workers: 2,
        max_in_flight: 2,
        // a backstop far beyond what cancellation needs
        limits: EvalLimits::unlimited().with_deadline(Duration::from_secs(60)),
        ..ServerConfig::default()
    };
    let server = Server::start_with(store, 0, config).unwrap();
    let addr = server.addr();
    let path = format!("/v1/facets?class={}", percent_encode("http://example.org/Item"));
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n").as_bytes())
        .unwrap();
    let admitted = Instant::now();
    while server.in_flight() == 0 {
        assert!(admitted.elapsed() < Duration::from_secs(5), "panel request never started");
        std::thread::sleep(Duration::from_millis(5));
    }

    drop(stream);
    let took = wait_drained(&server, Duration::from_secs(30));
    println!("cancelled and drained in {took:?}");
    assert!(
        took < uncancelled / 2,
        "the abandoned panel ran on: drained in {took:?}, uncancelled {uncancelled:?}"
    );

    // the cancelled computation cached nothing: a cached-only request has
    // no panel to serve
    let resp = get(addr, &format!("{path}&budget_ms=0"), "*/*");
    assert!(resp.starts_with("HTTP/1.1 503"), "{resp}");
    server.stop();
}

/// A reader that takes one sip and then stalls must be shed by the
/// per-write timeout while a concurrent client is served normally: slow
/// consumers cost one worker for at most `write_timeout`, not forever.
#[test]
fn slow_reader_trips_write_timeout_without_blocking_others() {
    let config = ServerConfig {
        workers: 2,
        max_in_flight: 4,
        write_timeout: Duration::from_millis(500),
        // small chunks so the stream hits the socket early and often
        stream_chunk_bytes: 512,
        limits: EvalLimits::unlimited().with_deadline(Duration::from_secs(60)),
        ..ServerConfig::default()
    };
    let server = Server::start_with(laptops(300), 0, config).unwrap();
    let addr = server.addr();

    // 300^2 = 90k rows of two IRIs each ≈ several MB of CSV: far beyond
    // what kernel socket buffers can absorb, so the server must block on
    // write — and then trip the timeout
    let q = percent_encode(
        "PREFIX ex: <http://example.org/> SELECT ?a ?b WHERE { \
           ?a a ex:Laptop . ?b a ex:Laptop . }",
    );
    let mut slow = TcpStream::connect(addr).unwrap();
    slow.write_all(
        format!("GET /v1/query?query={q} HTTP/1.1\r\nHost: x\r\nAccept: text/csv\r\nConnection: close\r\n\r\n")
            .as_bytes(),
    )
    .unwrap();
    // read a single byte to prove the response started, then stall
    let mut first = [0u8; 1];
    slow.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    slow.read_exact(&mut first).unwrap();

    // while the slow reader stalls, other requests are served promptly by
    // the remaining worker
    let t = Instant::now();
    let resp = get(
        addr,
        &format!(
            "/v1/query?query={}",
            percent_encode(
                "PREFIX ex: <http://example.org/> SELECT (COUNT(?x) AS ?n) WHERE { ?x a ex:Laptop . }"
            )
        ),
        "*/*",
    );
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(
        t.elapsed() < Duration::from_secs(5),
        "concurrent request blocked behind the slow reader: {:?}",
        t.elapsed()
    );

    // the stalled response must be aborted by the write timeout and its
    // slot released — without the test ever draining the socket
    let took = wait_drained(&server, Duration::from_secs(15));
    println!("slow reader shed in {took:?}");

    // the server hung up on us: draining what's buffered ends in EOF or a
    // reset, never a complete CSV body
    let mut rest = Vec::new();
    slow.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let _ = slow.read_to_end(&mut rest);
    let text = String::from_utf8_lossy(&rest);
    assert!(
        !text.ends_with("0\r\n\r\n"),
        "slow reader received a complete chunked body — never shed"
    );
    server.stop();
}

/// Drain shutdown cancels in-flight queries: `stop()` on a server with a
/// long-running evaluation returns promptly because the draining signal
/// trips every watcher.
#[test]
fn drain_shutdown_cancels_in_flight_queries() {
    let config = ServerConfig {
        workers: 2,
        limits: EvalLimits::unlimited().with_deadline(Duration::from_secs(60)),
        ..ServerConfig::default()
    };
    let server = Server::start_with(laptops(400), 0, config).unwrap();
    let addr = server.addr();

    let q = percent_encode(
        "PREFIX ex: <http://example.org/> SELECT (COUNT(*) AS ?n) WHERE { \
           ?a a ex:Laptop . ?b a ex:Laptop . ?c a ex:Laptop . }",
    );
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            format!("GET /v1/query?query={q} HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n")
                .as_bytes(),
        )
        .unwrap();
    let started = Instant::now();
    while server.in_flight() == 0 {
        assert!(started.elapsed() < Duration::from_secs(5), "query never started");
        std::thread::sleep(Duration::from_millis(5));
    }

    // stop() sets the draining flag before joining workers; the watcher
    // cancels the evaluation, so shutdown completes in test time rather
    // than waiting out a 64e9-row join
    let t = Instant::now();
    server.stop();
    assert!(
        t.elapsed() < Duration::from_secs(15),
        "drain shutdown blocked behind a running query: {:?}",
        t.elapsed()
    );
    // the cancelled query's connection is closed with an error (or just
    // dropped); either way our read ends
    let mut buf = Vec::new();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let _ = stream.read_to_end(&mut buf);
}
