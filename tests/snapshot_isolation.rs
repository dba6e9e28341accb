//! End-to-end snapshot-isolation and overload tests against the HTTP
//! server: readers keep completing (and never observe torn state) while
//! bulk updates, writer panics, and checkpoints happen underneath them.

use rdf_analytics::model::{Term, Triple};
use rdf_analytics::server::{percent_encode, Server, ServerConfig};
use rdf_analytics::store::{PersistConfig, PersistError, SharedStore, Store};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn http(addr: std::net::SocketAddr, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    response
}

// the helpers read until the server closes the socket, so they opt out of
// keep-alive explicitly
fn get(addr: std::net::SocketAddr, path: &str) -> String {
    http(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: x\r\nAccept: */*\r\nConnection: close\r\n\r\n"),
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

fn count_query() -> String {
    percent_encode(
        "PREFIX ex: <http://example.org/> SELECT (COUNT(?x) AS ?n) WHERE { ?x a ex:Laptop . }",
    )
}

/// Pull the single COUNT value out of a SPARQL JSON results response.
fn parse_count(resp: &str) -> Option<u64> {
    let idx = resp.find("\"value\":\"")? + "\"value\":\"".len();
    let rest = &resp[idx..];
    let end = rest.find('"')?;
    rest[..end].parse().ok()
}

/// The acceptance criterion: readers complete queries — with correct,
/// un-torn results — while a 2000-triple bulk update is applied. Every
/// observed count is either the pre-update or the post-update state;
/// nothing in between is ever visible.
#[test]
fn readers_complete_queries_during_bulk_update() {
    let server = Server::start(demo_store(), 0).unwrap();
    let addr = server.addr();
    let q = count_query();
    let done = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..4 {
            let done = Arc::clone(&done);
            let reads = Arc::clone(&reads);
            let q = q.clone();
            readers.push(scope.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    let resp = get(addr, &format!("/v1/query?query={q}"));
                    assert!(resp.starts_with("HTTP/1.1 200"), "reader failed: {resp}");
                    let n = parse_count(&resp).expect("count in response");
                    assert!(
                        n == 2 || n == 2002,
                        "torn read: saw {n} laptops mid-update"
                    );
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        // one bulk update inserting 2000 laptops as a single batch
        let mut body =
            String::from("PREFIX ex: <http://example.org/> INSERT DATA {\n");
        for i in 0..2000 {
            body.push_str(&format!("ex:bulk{i} a ex:Laptop .\n"));
        }
        body.push('}');
        let resp = post(addr, "/v1/update", &body);
        assert!(resp.contains("\"inserted\":2000"), "{resp}");
        // let the readers observe the post-update world too
        std::thread::sleep(Duration::from_millis(100));
        done.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    });
    assert!(reads.load(Ordering::Relaxed) > 0, "readers never ran");
    let resp = get(addr, &format!("/v1/query?query={q}"));
    assert_eq!(parse_count(&resp), Some(2002));
}

/// N readers × 1 writer over HTTP: the writer inserts laptops two at a
/// time, so every published generation holds an even count — any odd
/// count is a torn read.
#[test]
fn no_torn_reads_under_continuous_write_pressure() {
    let server = Server::start(demo_store(), 0).unwrap();
    let addr = server.addr();
    let q = count_query();
    let done = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..3 {
            let done = Arc::clone(&done);
            let q = q.clone();
            readers.push(scope.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    let resp = get(addr, &format!("/v1/query?query={q}"));
                    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
                    let n = parse_count(&resp).expect("count in response");
                    assert_eq!(n % 2, 0, "torn read: odd laptop count {n}");
                }
            }));
        }
        for i in 0..40 {
            let body = format!(
                "PREFIX ex: <http://example.org/> INSERT DATA {{ ex:p{i}a a ex:Laptop . ex:p{i}b a ex:Laptop . }}"
            );
            let resp = post(addr, "/v1/update", &body);
            assert!(resp.contains("\"inserted\":2"), "{resp}");
        }
        done.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    });
    let resp = get(addr, &format!("/v1/query?query={q}"));
    assert_eq!(parse_count(&resp), Some(2 + 80));
}

/// A writer that panics mid-batch inside the server's own store publishes
/// nothing, poisons nothing: HTTP readers keep answering from the last
/// generation and the next HTTP update succeeds.
#[test]
fn writer_panic_leaves_server_readers_unaffected() {
    let server = Server::start(demo_store(), 0).unwrap();
    let addr = server.addr();
    let shared = Arc::clone(server.shared());

    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        shared.transact(|txn| -> Result<(), PersistError> {
            txn.store_mut().insert(&Triple::new(
                Term::iri("http://example.org/doomed"),
                Term::iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
                Term::iri("http://example.org/Laptop"),
            ));
            panic!("writer dies mid-batch");
        })
    }));
    assert!(panicked.is_err());

    // readers still see the pre-panic state — the doomed insert is gone
    let q = count_query();
    let resp = get(addr, &format!("/v1/query?query={q}"));
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert_eq!(parse_count(&resp), Some(2));

    // and the next writer proceeds normally: no poisoned lock anywhere
    let resp = post(
        addr,
        "/v1/update",
        "PREFIX ex: <http://example.org/> INSERT DATA { ex:l3 a ex:Laptop . }",
    );
    assert!(resp.contains("\"inserted\":1"), "{resp}");
    let resp = get(addr, &format!("/v1/query?query={q}"));
    assert_eq!(parse_count(&resp), Some(3));
}

/// Durable flavour: readers and updates proceed while checkpoints run
/// concurrently, and a restart recovers exactly the acknowledged state —
/// the checkpoint/update race is closed by capturing the snapshot under
/// the journal lock.
#[test]
fn durable_reads_updates_and_checkpoints_interleave_safely() {
    let dir = std::env::temp_dir().join(format!(
        "rdfa-snapshot-isolation-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let store = SharedStore::open(&dir, PersistConfig::default()).unwrap();
        store
            .transact(|txn| {
                txn.load_turtle(
                    r#"@prefix ex: <http://example.org/> .
                       ex:l1 a ex:Laptop . ex:l2 a ex:Laptop ."#,
                )
            })
            .unwrap();
        let server = Server::start_with(store, 0, ServerConfig::default()).unwrap();
        let addr = server.addr();
        let q = count_query();
        let done = Arc::new(AtomicBool::new(false));

        std::thread::scope(|scope| {
            let mut readers = Vec::new();
            for _ in 0..2 {
                let done = Arc::clone(&done);
                let q = q.clone();
                readers.push(scope.spawn(move || {
                    while !done.load(Ordering::Relaxed) {
                        let resp = get(addr, &format!("/v1/query?query={q}"));
                        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
                        let n = parse_count(&resp).expect("count");
                        assert_eq!(n % 2, 0, "torn read on durable path: {n}");
                    }
                }));
            }
            for i in 0..10 {
                let body = format!(
                    "PREFIX ex: <http://example.org/> INSERT DATA {{ ex:d{i}a a ex:Laptop . ex:d{i}b a ex:Laptop . }}"
                );
                let resp = post(addr, "/v1/update", &body);
                assert!(resp.contains("\"inserted\":2"), "{resp}");
                // checkpoint concurrently with serving — readers proceed,
                // and no acknowledged batch may be lost
                if i % 3 == 2 {
                    server.checkpoint().expect("live checkpoint").expect("durable");
                }
            }
            done.store(true, Ordering::Relaxed);
            for r in readers {
                r.join().unwrap();
            }
        });
        let resp = get(addr, &format!("/v1/query?query={q}"));
        assert_eq!(parse_count(&resp), Some(2 + 20));
        server.stop();
    }
    // restart: every acknowledged update survives checkpoints + WAL replay
    let store = SharedStore::open(&dir, PersistConfig::default()).unwrap();
    assert_eq!(store.snapshot().len(), 22);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Saturation sheds instead of cascading: with a tiny in-flight budget,
/// a burst of slow requests yields some `503 Retry-After` answers, the
/// shed counter moves, and the server serves normally afterwards.
#[test]
fn saturation_sheds_and_recovers() {
    let config = ServerConfig {
        workers: 4,
        max_in_flight: 1,
        debug_routes: true,
        ..ServerConfig::default()
    };
    let server = Server::start_with(demo_store(), 0, config).unwrap();
    let addr = server.addr();

    let outcomes: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| scope.spawn(move || get(addr, "/slow?ms=400")))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let ok = outcomes.iter().filter(|r| r.starts_with("HTTP/1.1 200")).count();
    let shed = outcomes.iter().filter(|r| r.starts_with("HTTP/1.1 503")).count();
    assert_eq!(ok + shed, 4, "{outcomes:?}");
    assert!(ok >= 1, "at least one request must be served: {outcomes:?}");
    assert!(shed >= 1, "a 1-slot budget must shed a 4-burst: {outcomes:?}");
    for r in outcomes.iter().filter(|r| r.starts_with("HTTP/1.1 503")) {
        assert!(r.contains("Retry-After: "), "{r}");
    }
    assert_eq!(server.shed_requests() as usize, shed);

    // after the burst drains, normal service resumes and healthz shows it
    let q = count_query();
    let resp = get(addr, &format!("/v1/query?query={q}"));
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    let hz = get(addr, "/healthz");
    assert!(hz.contains(&format!("\"shed\":{shed}")), "{hz}");
    assert!(hz.contains("\"in_flight\":0"), "{hz}");
}
