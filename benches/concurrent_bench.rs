//! Concurrent read/write benchmark (PR 6): read throughput under snapshot
//! isolation while a writer continuously publishes new generations, plus
//! the admission controller's shed rate at saturation.
//!
//! Two parts:
//!
//! 1. **Snapshot read scaling** — the products KG behind a `SharedStore`;
//!    1/2/4/8 reader threads each loop `snapshot()` → aggregation query
//!    (AVG price per manufacturer over laptops) for a fixed window while one
//!    writer commits a two-triple batch every few milliseconds. Readers
//!    never take a lock the writer holds: each query runs against a pinned
//!    `Arc<Store>`, so throughput is bounded by CPU, not by write activity.
//!    Reported per thread count: queries completed, queries/sec, writer
//!    generations published in the same window.
//! 2. **Shed rate at saturation** — an HTTP server with a deliberately tiny
//!    in-flight budget (`max_in_flight = 2`) takes a burst of 8-way
//!    concurrent `/slow` requests; the excess is refused with
//!    `503 + Retry-After` instead of queueing behind the slow work. Reports
//!    offered/served/shed counts and verifies the server answers a normal
//!    query immediately after the burst.
//!
//! Writes `BENCH_6.json` so CI can archive the artifact.
//!
//! Run with `cargo bench --bench concurrent_bench`.

use rdf_analytics::datagen::ProductsGenerator;
use rdf_analytics::model::{Term, Triple};
use rdf_analytics::server::{percent_encode, Server, ServerConfig};
use rdf_analytics::sparql::Engine;
use rdf_analytics::store::{PersistError, SharedStore, Store};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const QUERY: &str = "PREFIX ex: <http://www.ics.forth.gr/example#> \
    SELECT ?m (AVG(?p) AS ?avg) (COUNT(?x) AS ?n) \
    WHERE { ?x a ex:Laptop ; ex:manufacturer ?m ; ex:price ?p . } \
    GROUP BY ?m";

/// One reader-scaling measurement: `readers` query threads against live
/// write traffic for `window`. Returns (queries completed, generations
/// published while measuring).
fn measure_reads(shared: &Arc<SharedStore>, readers: usize, window: Duration) -> (u64, u64) {
    let stop = AtomicBool::new(false);
    let gen_before = shared.snapshot().generation();
    let mut total = 0u64;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..readers {
            handles.push(scope.spawn(|| {
                let mut done = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = shared.snapshot();
                    let results = Engine::builder(&snap)
                        .build()
                        .run(QUERY)
                        .expect("benchmark query");
                    std::hint::black_box(results);
                    done += 1;
                }
                done
            }));
        }
        // one writer: a fresh two-triple laptop every 2ms, each commit a
        // full copy-on-write publish the readers never wait for. The
        // subject counter is process-global so successive measurement
        // windows keep inserting NEW triples — re-inserting an existing
        // triple is a no-op that would publish nothing.
        static NEXT_SUBJECT: AtomicUsize = AtomicUsize::new(0);
        let writer = scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let i = NEXT_SUBJECT.fetch_add(1, Ordering::Relaxed);
                let written = shared.transact(|txn| {
                    let s = txn.store_mut();
                    let iri = format!("http://www.ics.forth.gr/example#bench-w{i}");
                    s.insert(&Triple::new(
                        Term::iri(&iri),
                        Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
                        Term::iri("http://www.ics.forth.gr/example#Laptop"),
                    ));
                    s.insert(&Triple::new(
                        Term::iri(&iri),
                        Term::iri("http://www.ics.forth.gr/example#price"),
                        Term::integer(500 + (i as i64 % 900)),
                    ));
                    Ok::<_, PersistError>(())
                });
                written.expect("a non-durable transaction cannot fail");
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        for h in handles {
            total += h.join().unwrap();
        }
    });
    (total, shared.snapshot().generation() - gen_before)
}

fn http(addr: std::net::SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

fn get(addr: std::net::SocketAddr, path: &str) -> String {
    // read_to_string only returns on server close: opt out of keep-alive
    http(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: x\r\nAccept: */*\r\nConnection: close\r\n\r\n"),
    )
}

/// Saturate a 2-slot server with `waves` × 8 concurrent slow requests;
/// returns (offered, served, shed).
fn measure_shed(waves: usize) -> (u64, u64, u64) {
    let mut store = Store::new();
    ProductsGenerator::new(300, 7).generate_into(&mut store);
    let config = ServerConfig {
        workers: 8,
        max_in_flight: 2,
        debug_routes: true,
        ..ServerConfig::default()
    };
    let server = Server::start_with(store, 0, config).expect("bind");
    let addr = server.addr();

    let mut offered = 0u64;
    let mut served = 0u64;
    for _ in 0..waves {
        let outcomes: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(move || get(addr, "/slow?ms=100")))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        offered += outcomes.len() as u64;
        served += outcomes.iter().filter(|r| r.starts_with("HTTP/1.1 200")).count() as u64;
    }
    let shed = server.shed_requests();
    assert_eq!(served + shed, offered, "every request either served or shed");

    // the shed path must not have degraded normal service
    let resp = get(addr, &format!("/v1/query?query={}", percent_encode(QUERY)));
    assert!(resp.starts_with("HTTP/1.1 200"), "post-burst query failed: {resp}");
    server.stop();
    (offered, served, shed)
}

fn main() {
    let mut store = Store::new();
    ProductsGenerator::new(2_000, 7).generate_into(&mut store);
    let triples = store.len();
    let shared = Arc::new(SharedStore::new(store));

    // warm-up: fault in indexes and the query plan once
    let (_, _) = measure_reads(&shared, 1, Duration::from_millis(200));

    let window = Duration::from_millis(800);
    let mut rows = Vec::new();
    for readers in [1usize, 2, 4, 8] {
        let (queries, generations) = measure_reads(&shared, readers, window);
        let qps = queries as f64 / window.as_secs_f64();
        println!(
            "{readers} reader(s): {queries} queries in {:?} ({qps:.0} q/s), {generations} generations published",
            window
        );
        rows.push(format!(
            "{{\n    \"readers\": {readers},\n    \"queries\": {queries},\n    \"queries_per_sec\": {qps:.1},\n    \"writer_generations\": {generations}\n  }}"
        ));
    }

    let (offered, served, shed) = measure_shed(4);
    let shed_rate = shed as f64 / offered as f64;
    println!(
        "saturation: {offered} offered, {served} served, {shed} shed ({:.0}% shed rate)",
        shed_rate * 100.0
    );

    let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let json = format!(
        "{{\n  \"bench\": \"concurrent_snapshot_reads\",\n  \"available_parallelism\": {avail},\n  \"triples\": {triples},\n  \"window_ms\": {},\n  \"read_scaling\": [{}\n  ],\n  \"saturation\": {{\n    \"max_in_flight\": 2,\n    \"offered\": {offered},\n    \"served\": {served},\n    \"shed\": {shed},\n    \"shed_rate\": {shed_rate:.3}\n  }}\n}}\n",
        window.as_millis(),
        rows.join(", ")
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_6.json");
    std::fs::write(&out, &json).expect("write BENCH_6.json");
    println!("{json}");
    println!("wrote {}", out.display());
}
