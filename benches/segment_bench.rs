//! Restart and memory benchmark for mmap-able index segments (BENCH_10).
//!
//! Seeds one products KG (~500k triples; `SEGMENT_BENCH_SMOKE=1` shrinks it)
//! into two restart artifacts — an N-Triples file and a checkpointed persist
//! directory — then measures restart-to-first-query for each in a **fresh
//! subprocess** so RSS numbers are not polluted by the seeding phase:
//!
//!   replay    parse data.nt + materialize inference   (cold full rebuild)
//!   mmap      SharedStore::open on segments.N.txt (map, decode on demand)
//!
//! The subprocess protocol is the bench re-executing itself with
//! `SEGMENT_BENCH_MODE` set; the child prints one `RESULT {...}` JSON line.
//!
//! Also demonstrates structural sharing: a small write transaction between
//! two segment checkpoints re-references the unchanged base segments and
//! dictionary chunks instead of rewriting them (`CheckpointStats`).
//!
//! Asserts (hard gates):
//!   - both restarts answer the probe query identically
//!   - mmap restart-to-first-query beats N-Triples replay (≥10x when full)
//!   - mmap RSS after first query is below the all-in-RAM replay RSS (full)
//!   - the second checkpoint shares ≥1 segment and ≥1 dictionary chunk
//!
//! Writes BENCH_10.json next to Cargo.toml and prints it.

use rdf_analytics::datagen::{ProductsGenerator, EX};
use rdf_analytics::model::{ntriples, vocab, Term};
use rdf_analytics::store::{
    resident_bytes, FsyncPolicy, LoadOptions, PersistConfig, PersistError, SharedStore, Snapshot,
    Store,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1000.0
}

fn fsync_never() -> PersistConfig {
    PersistConfig { fsync: FsyncPolicy::Never, ..PersistConfig::default() }
}

/// Count laptops through the POS index — the kind of selective first query an
/// interactive session opens with. Over segments this decodes only the blocks
/// covering `(rdf:type, ex:Laptop)`, not the whole store.
fn probe(store: &Store) -> usize {
    let rdf_type = store.lookup(&Term::iri(vocab::rdf::TYPE));
    let laptop = store.lookup(&Term::iri(format!("{EX}Laptop")));
    match (rdf_type, laptop) {
        (Some(p), Some(o)) => store.matching_explicit(None, Some(p), Some(o)).count(),
        _ => 0,
    }
}

// ---- child: one restart measurement in a clean address space --------------

fn run_child(mode: &str) -> ! {
    let t_open = Instant::now();
    let (store, extra) = match mode {
        "replay" => {
            let nt = std::env::var("SEGMENT_BENCH_NT").expect("SEGMENT_BENCH_NT");
            let mut store = Store::new();
            store
                .load_ntriples_path(&nt, LoadOptions::default())
                .expect("replay load");
            store.materialize_inference();
            (Snapshot::from(store), String::new())
        }
        "mmap" => {
            let dir = std::env::var("SEGMENT_BENCH_DIR").expect("SEGMENT_BENCH_DIR");
            let store =
                SharedStore::open(&dir, fsync_never()).expect("open persist dir").snapshot();
            let seg = store.segment_stats();
            let extra =
                format!(",\"segments\":{},\"segment_bytes\":{}", seg.segments, seg.segment_bytes);
            (store, extra)
        }
        other => panic!("unknown SEGMENT_BENCH_MODE {other}"),
    };
    let open_ms = ms(t_open);
    let t_query = Instant::now();
    let count = probe(&store);
    let first_query_ms = ms(t_query);
    println!(
        "RESULT {{\"open_ms\":{open_ms:.3},\"first_query_ms\":{first_query_ms:.3},\
         \"restart_ms\":{:.3},\"count\":{count},\"rss_bytes\":{}{extra}}}",
        open_ms + first_query_ms,
        resident_bytes(),
    );
    drop(store);
    std::process::exit(0);
}

// ---- parent: seed artifacts, spawn children, gate, report -----------------

#[derive(Debug, Clone, Default)]
struct ChildResult {
    open_ms: f64,
    first_query_ms: f64,
    restart_ms: f64,
    count: u64,
    rss_bytes: u64,
    segments: u64,
    segment_bytes: u64,
}

fn json_num(json: &str, key: &str) -> f64 {
    let needle = format!("\"{key}\":");
    let Some(at) = json.find(&needle) else { return 0.0 };
    let rest = &json[at + needle.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.' && c != '-')
        .unwrap_or(rest.len());
    rest[..end].parse().unwrap_or(0.0)
}

fn spawn_child(mode: &str, dir: &Path, nt: &Path) -> ChildResult {
    let exe = std::env::current_exe().expect("current_exe");
    let out = std::process::Command::new(exe)
        .env("SEGMENT_BENCH_MODE", mode)
        .env("SEGMENT_BENCH_DIR", dir)
        .env("SEGMENT_BENCH_NT", nt)
        .output()
        .expect("spawn bench child");
    assert!(
        out.status.success(),
        "child {mode} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("RESULT "))
        .unwrap_or_else(|| panic!("child {mode} printed no RESULT line: {stdout}"));
    ChildResult {
        open_ms: json_num(line, "open_ms"),
        first_query_ms: json_num(line, "first_query_ms"),
        restart_ms: json_num(line, "restart_ms"),
        count: json_num(line, "count") as u64,
        rss_bytes: json_num(line, "rss_bytes") as u64,
        segments: json_num(line, "segments") as u64,
        segment_bytes: json_num(line, "segment_bytes") as u64,
    }
}

/// Best-of-n restart measurement: subprocess latencies jitter, the min is the
/// honest capability number.
fn measure(mode: &str, dir: &Path, nt: &Path, trials: usize) -> ChildResult {
    let mut best: Option<ChildResult> = None;
    for _ in 0..trials {
        let r = spawn_child(mode, dir, nt);
        let better = best.as_ref().map(|b| r.restart_ms < b.restart_ms).unwrap_or(true);
        if better {
            best = Some(r);
        }
    }
    best.unwrap()
}

fn mode_json(r: &ChildResult, seg: bool) -> String {
    let extra = if seg {
        format!(",\"segments\":{},\"segment_bytes\":{}", r.segments, r.segment_bytes)
    } else {
        String::new()
    };
    format!(
        "{{\"open_ms\":{:.3},\"first_query_ms\":{:.3},\"restart_ms\":{:.3},\"rss_bytes\":{}{extra}}}",
        r.open_ms, r.first_query_ms, r.restart_ms, r.rss_bytes
    )
}

fn main() {
    if let Ok(mode) = std::env::var("SEGMENT_BENCH_MODE") {
        run_child(&mode);
    }

    let smoke = std::env::var("SEGMENT_BENCH_SMOKE").is_ok();
    let n_products: usize = if smoke { 4_000 } else { 55_000 };
    let trials = if smoke { 1 } else { 3 };

    let base: PathBuf =
        std::env::temp_dir().join(format!("rdfa-segment-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("create bench dir");
    let nt_path = base.join("data.nt");
    let seg_dir = base.join("segments");

    // -- seed: one graph, two restart artifacts -----------------------------
    eprintln!("seeding {n_products} products…");
    let graph = ProductsGenerator::new(n_products, 10).generate();
    std::fs::write(&nt_path, ntriples::serialize(&graph)).expect("write data.nt");
    let nt_bytes = std::fs::metadata(&nt_path).expect("stat data.nt").len();

    let triples = {
        let store = SharedStore::open(&seg_dir, fsync_never()).expect("open for seed");
        store.transact(|txn| txn.load_ntriples_path(&nt_path)).expect("seed load");
        store.checkpoint().expect("seed checkpoint");
        store.snapshot().len()
    };
    eprintln!("seeded {triples} triples ({nt_bytes} bytes of N-Triples)");

    // -- structural sharing: small write txn between two segment checkpoints
    let (shared_segments, written_segments, shared_terms, written_terms, delta_bytes) = {
        let store = SharedStore::open(&seg_dir, fsync_never()).expect("reopen seg");
        let ex = |local: &str| Term::iri(format!("{EX}{local}"));
        for i in 0..8 {
            let t = rdf_analytics::model::Triple::new(
                ex(&format!("benchLaptop{i}")),
                Term::iri(vocab::rdf::TYPE),
                ex("Laptop"),
            );
            store
                .transact(|txn| Ok::<_, PersistError>(txn.store_mut().insert(&t)))
                .expect("txn insert");
        }
        store.checkpoint().expect("txn checkpoint");
        let journal = store.journal().expect("an opened store is durable");
        let stats = journal.last_checkpoint_stats().expect("checkpoint stats");
        (
            stats.segments_shared,
            stats.segments_written,
            stats.terms_shared,
            stats.terms_written,
            stats.segment_bytes_written,
        )
    };
    assert!(
        shared_segments >= 1,
        "write txn must re-reference base segments, shared {shared_segments}"
    );
    assert!(
        shared_terms >= triples / 10,
        "write txn must share the dictionary chunks, shared {shared_terms} terms"
    );
    eprintln!(
        "write txn: {written_segments} segments written ({delta_bytes} bytes), \
         {shared_segments} shared; {written_terms} terms written, {shared_terms} shared"
    );

    // -- restart races, each in a fresh process -----------------------------
    let replay = measure("replay", &base, &nt_path, trials);
    let mmap = measure("mmap", &seg_dir, &nt_path, trials);
    for (mode, r) in [("replay", &replay), ("mmap", &mmap)] {
        eprintln!(
            "{mode:>8}: open {:.1}ms + query {:.1}ms = {:.1}ms, rss {:.1} MiB, {} laptops",
            r.open_ms,
            r.first_query_ms,
            r.restart_ms,
            r.rss_bytes as f64 / (1024.0 * 1024.0),
            r.count
        );
    }

    // both restarts must agree on the answer (the write txn above added 8
    // laptops to the segment store only)
    assert_eq!(replay.count as usize, n_products, "replay probe count");
    assert_eq!(mmap.count, replay.count + 8, "mmap probe count");
    assert!(mmap.segments >= 1, "mmap restart must be segment-backed");

    let speedup_replay = replay.restart_ms / mmap.restart_ms.max(0.001);
    assert!(
        mmap.restart_ms < replay.restart_ms,
        "mmap restart ({:.1}ms) must beat N-Triples replay ({:.1}ms)",
        mmap.restart_ms,
        replay.restart_ms
    );
    if !smoke {
        assert!(
            speedup_replay >= 10.0,
            "mmap restart must be ≥10x faster than replay at ~500k triples, got {speedup_replay:.1}x"
        );
        assert!(
            mmap.rss_bytes < replay.rss_bytes,
            "segment-backed restart must use less RSS ({}) than all-in-RAM ({})",
            mmap.rss_bytes,
            replay.rss_bytes
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"segment_restart\",\n  \"smoke\": {smoke},\n  \"n_products\": {n_products},\n  \"triples\": {triples},\n  \"nt_bytes\": {nt_bytes},\n  \"modes\": {{\n    \"replay\": {},\n    \"mmap\": {}\n  }},\n  \"speedup_mmap_vs_replay\": {speedup_replay:.2},\n  \"rss_saving_vs_replay_bytes\": {},\n  \"write_txn\": {{\"segments_written\": {written_segments}, \"segments_shared\": {shared_segments}, \"segment_bytes_written\": {delta_bytes}, \"terms_written\": {written_terms}, \"terms_shared\": {shared_terms}}}\n}}\n",
        mode_json(&replay, false),
        mode_json(&mmap, true),
        replay.rss_bytes.saturating_sub(mmap.rss_bytes),
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_10.json");
    std::fs::write(&out, &json).expect("write BENCH_10.json");
    println!("{json}");
    eprintln!("wrote {}", out.display());

    let _ = std::fs::remove_dir_all(&base);
}
