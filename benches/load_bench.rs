//! Streaming-delivery + sustained-load benchmark (PR 7).
//!
//! Three parts:
//!
//! 1. **Streaming acceptance** — a `LIMIT`-less SELECT whose cross join
//!    yields ≥1M rows is fetched over HTTP with chunked decoding on the
//!    client. Asserts the response really is `Transfer-Encoding: chunked`
//!    (no `Content-Length`, so no whole-body `String` was built), counts
//!    the rows, and verifies no single chunk exceeded the configured
//!    serialization buffer — the bounded-memory claim, observed on the
//!    wire.
//! 2. **Mid-stream disconnect** — the same query is started and the client
//!    hangs up after one chunk; the server's in-flight gauge must return
//!    to zero promptly (slot released, worker freed).
//! 3. **Sustained load** — the open-loop Poisson driver from `rdfa-bench`
//!    offers a mixed query/update/facet workload, first clean, then with
//!    chaos (mid-stream disconnects + slow readers via `FaultModel`).
//!    Reports p50/p99/p999 latency and shed rate for both runs.
//!
//! Writes `BENCH_7.json` next to Cargo.toml so CI can archive the artifact.
//! Set `LOAD_BENCH_SMOKE=1` to run a scaled-down version (CI smoke job); a
//! smoke run writes under the cargo target directory instead,
//! `target/tmp/BENCH_7.json`.
//!
//! Run with `cargo bench --bench load_bench`.

use rdf_analytics::server::{percent_encode, Server, ServerConfig};
use rdf_analytics::sparql::EvalLimits;
use rdf_analytics::store::Store;
use rdfa_bench::load::{self, LoadConfig, Workload};
use rdfa_datagen::FaultModel;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const CHUNK_BYTES: usize = 64 << 10;

/// `n` laptops, each with a price and one of 16 brands, so `SELECT ?a ?b`
/// over the Laptop class cross-joins to `n^2` rows.
fn laptops(n: usize) -> Store {
    let mut ttl = String::from("@prefix ex: <http://example.org/> .\n");
    for i in 0..n {
        ttl.push_str(&format!(
            "ex:l{i} a ex:Laptop ; ex:price {} ; ex:brand ex:b{} .\n",
            500 + (i % 2500),
            i % 16
        ));
    }
    let mut s = Store::new();
    s.load_turtle(&ttl).unwrap();
    s
}

fn cross_join_query() -> String {
    percent_encode(
        "PREFIX ex: <http://example.org/> SELECT ?a ?b WHERE { \
           ?a a ex:Laptop . ?b a ex:Laptop . }",
    )
}

/// Fetch `path` expecting a chunked CSV response; decode the framing and
/// return (header block, data rows, body bytes, largest chunk, elapsed).
fn fetch_chunked(addr: SocketAddr, path: &str) -> (String, u64, u64, usize, Duration) {
    let t = Instant::now();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(600))).unwrap();
    stream
        .write_all(
            format!(
                "GET {path} HTTP/1.1\r\nHost: bench\r\nAccept: text/csv\r\nConnection: close\r\n\r\n"
            )
            .as_bytes(),
        )
        .unwrap();
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
    let (mut lines, mut bytes, mut max_chunk) = (0u64, 0u64, 0usize);
    loop {
        let mut size_line = String::new();
        reader.read_line(&mut size_line).unwrap();
        let size = usize::from_str_radix(size_line.trim(), 16)
            .unwrap_or_else(|_| panic!("bad chunk size line {size_line:?}"));
        if size == 0 {
            break;
        }
        let mut chunk = vec![0u8; size + 2]; // payload + trailing CRLF
        reader.read_exact(&mut chunk).unwrap();
        lines += chunk[..size].iter().filter(|&&b| b == b'\n').count() as u64;
        bytes += size as u64;
        max_chunk = max_chunk.max(size);
    }
    // every CSV line (header included) ends in CRLF; rows = lines - header
    (head, lines.saturating_sub(1), bytes, max_chunk, t.elapsed())
}

fn get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: bench\r\nAccept: */*\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .unwrap();
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

fn main() {
    let smoke = std::env::var("LOAD_BENCH_SMOKE").is_ok();
    // full: 1024^2 = 1,048,576 rows; smoke: 320^2 = 102,400 rows
    let side = if smoke { 320 } else { 1024 };
    let expected_rows = (side * side) as u64;

    let config = ServerConfig {
        workers: 4,
        max_in_flight: 16,
        stream_chunk_bytes: CHUNK_BYTES,
        // streaming a LIMIT-less million-row SELECT is the whole point:
        // no interactive row cap, just a generous deadline backstop
        limits: EvalLimits::unlimited().with_deadline(Duration::from_secs(300)),
        write_timeout: Duration::from_secs(2),
        debug_routes: false,
        ..ServerConfig::default()
    };
    let server = Server::start_with(laptops(side), 0, config).expect("bind");
    let addr = server.addr();
    let big_path = format!("/v1/query?query={}", cross_join_query());

    // ---- part 1: ≥1M rows over chunked transfer, bounded chunks ----
    let (head, rows, bytes, max_chunk, elapsed) = fetch_chunked(addr, &big_path);
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(
        head.to_ascii_lowercase().contains("transfer-encoding: chunked"),
        "not chunked:\n{head}"
    );
    assert!(
        !head.to_ascii_lowercase().contains("content-length"),
        "a streamed response must not know its length up front:\n{head}"
    );
    assert_eq!(rows, expected_rows, "row count on the wire");
    // one row can straddle the flush threshold, so allow a row of slack
    assert!(
        max_chunk <= CHUNK_BYTES + 256,
        "chunk of {max_chunk} bytes exceeds the {CHUNK_BYTES} buffer bound"
    );
    let rows_per_sec = rows as f64 / elapsed.as_secs_f64();
    println!(
        "streamed {rows} rows / {bytes} bytes in {elapsed:?} ({rows_per_sec:.0} rows/s), max chunk {max_chunk}"
    );

    // ---- part 2: mid-stream disconnect releases the slot ----
    let disconnect_drain = {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(
                format!("GET {big_path} HTTP/1.1\r\nHost: bench\r\nAccept: text/csv\r\n\r\n")
                    .as_bytes(),
            )
            .unwrap();
        // read one buffer's worth so the stream is definitely underway
        let mut buf = vec![0u8; 32 << 10];
        stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        let _ = stream.read(&mut buf);
        drop(stream);
        let t = Instant::now();
        while server.in_flight() != 0 {
            assert!(
                t.elapsed() < Duration::from_secs(30),
                "in-flight slot never released after mid-stream disconnect"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        println!("mid-stream disconnect: slot released in {:?}", t.elapsed());
        t.elapsed()
    };
    let resp = get(
        addr,
        &format!(
            "/v1/query?query={}",
            percent_encode(
                "PREFIX ex: <http://example.org/> SELECT (COUNT(?x) AS ?n) WHERE { ?x a ex:Laptop . }"
            )
        ),
    );
    assert!(resp.starts_with("HTTP/1.1 200"), "post-disconnect query failed: {resp}");

    // ---- part 3: open-loop sustained load, clean then chaotic ----
    let workload = Workload {
        query_paths: vec![
            format!(
                "/v1/query?query={}",
                percent_encode(
                    "PREFIX ex: <http://example.org/> SELECT ?b (COUNT(?x) AS ?n) (AVG(?p) AS ?avg) \
                     WHERE { ?x ex:brand ?b ; ex:price ?p . } GROUP BY ?b"
                )
            ),
            format!(
                "/v1/query?query={}",
                percent_encode(
                    "PREFIX ex: <http://example.org/> SELECT ?x ?p WHERE { ?x ex:price ?p . FILTER(?p > 2000) }"
                )
            ),
            // a brand-restricted cross join: big enough to stream several
            // chunks, small enough for sustained traffic
            format!(
                "/v1/query?query={}",
                percent_encode(
                    "PREFIX ex: <http://example.org/> SELECT ?a ?b WHERE { \
                       ?a ex:brand ex:b0 . ?b ex:brand ex:b0 . }"
                )
            ),
        ],
        update_bodies: (0..8)
            .map(|i| {
                format!(
                    "PREFIX ex: <http://example.org/> INSERT DATA {{ ex:load{i} a ex:Laptop ; ex:price {} . }}",
                    700 + i
                )
            })
            .collect(),
        facet_paths: vec![
            "/v1/facets".to_owned(),
            format!("/v1/facets?class={}", percent_encode("http://example.org/Laptop")),
        ],
    };
    let (rps, load_secs) = if smoke { (25.0, 3) } else { (60.0, 8) };
    let base_cfg = LoadConfig {
        target_rps: rps,
        duration: Duration::from_secs(load_secs),
        faults: FaultModel::none(),
        slow_read_delay: Duration::from_millis(150),
        slow_read_max_sips: 25,
        client_timeout: Duration::from_secs(30),
        seed: 0x10ad_0007,
        ..LoadConfig::default()
    };
    let baseline = load::run(addr, &workload, &base_cfg);
    println!(
        "baseline: {} offered @ {:.0} rps, {} ok / {} shed, p50 {:.1}ms p99 {:.1}ms p999 {:.1}ms",
        baseline.offered,
        baseline.achieved_rps,
        baseline.completed,
        baseline.shed,
        baseline.p50_ms,
        baseline.p99_ms,
        baseline.p999_ms
    );
    assert!(baseline.completed > 0, "baseline served nothing");

    let chaos_cfg = LoadConfig {
        faults: FaultModel { error_prob: 0.10, timeout_prob: 0.06, transient_ratio: 1.0 },
        seed: 0x10ad_0008,
        ..base_cfg.clone()
    };
    let chaos = load::run(addr, &workload, &chaos_cfg);
    println!(
        "chaos: {} offered, {} ok / {} shed / {} disconnects / {} slow-cut, p50 {:.1}ms p99 {:.1}ms p999 {:.1}ms",
        chaos.offered,
        chaos.completed,
        chaos.shed,
        chaos.injected_disconnects,
        chaos.slow_reader_cuts,
        chaos.p50_ms,
        chaos.p99_ms,
        chaos.p999_ms
    );
    assert!(chaos.completed > 0, "chaos run served nothing");
    assert!(
        chaos.injected_disconnects + chaos.slow_reader_cuts > 0,
        "chaos run injected no faults"
    );

    // after both storms every slot must be back
    let t = Instant::now();
    while server.in_flight() != 0 {
        assert!(
            t.elapsed() < Duration::from_secs(30),
            "in-flight gauge stuck at {} after load run",
            server.in_flight()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"streaming_sustained_load\",\n  \"available_parallelism\": {avail},\n  \"smoke\": {smoke},\n  \"stream\": {{\n    \"rows\": {rows},\n    \"bytes\": {bytes},\n    \"max_chunk\": {max_chunk},\n    \"chunk_cap\": {CHUNK_BYTES},\n    \"elapsed_ms\": {},\n    \"rows_per_sec\": {rows_per_sec:.0},\n    \"disconnect_drain_ms\": {}\n  }},\n  \"baseline\": {},\n  \"chaos\": {}\n}}\n",
        elapsed.as_millis(),
        disconnect_drain.as_millis(),
        baseline.to_json(),
        chaos.to_json(),
    );
    // a smoke run's numbers stay out of the tracked BENCH_7.json
    let out_dir = if smoke { env!("CARGO_TARGET_TMPDIR") } else { env!("CARGO_MANIFEST_DIR") };
    let out = std::path::Path::new(out_dir).join("BENCH_7.json");
    std::fs::write(&out, &json).expect("write BENCH_7.json");
    println!("{json}");
    println!("wrote {}", out.display());
    server.stop();
}
