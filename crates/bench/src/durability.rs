//! Durability microbenchmarks: what each WAL fsync policy costs, and what
//! recovery and checkpointing cost at a given store size.
//!
//! One row per [`FsyncPolicy`]:
//!
//! | column | meaning |
//! |---|---|
//! | append ops/s | single-triple insert transactions per second, each one logged WAL record |
//! | WAL bytes | log size after the append phase |
//! | replay ms | reopen time with the whole workload in the WAL |
//! | checkpoint ms | segments + manifest + WAL rotation time |
//! | checkpoint bytes | the new generation on disk: its manifest and every file it names |
//! | reopen ms | reopen time after the checkpoint (mapped segments, empty WAL) |
//!
//! The spread between the `always` and `never` rows is the price of the
//! durability guarantee; `every:N` sits between them with a bounded loss
//! window of N records.

use rdfa_datagen::ProductsGenerator;
use rdfa_store::{FsyncPolicy, PersistConfig, PersistError, SharedStore};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One fsync policy's measurements.
#[derive(Debug, Clone)]
pub struct DurabilityRow {
    pub policy: String,
    pub append_ops_per_s: f64,
    pub wal_bytes: u64,
    pub replay_ms: f64,
    pub checkpoint_ms: f64,
    pub checkpoint_bytes: u64,
    pub reopen_ms: f64,
}

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rdfa-bench-durability-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn policy_name(p: FsyncPolicy) -> String {
    match p {
        FsyncPolicy::Always => "always".to_owned(),
        FsyncPolicy::EveryN(n) => format!("every:{n}"),
        FsyncPolicy::Never => "never".to_owned(),
    }
}

fn config(fsync: FsyncPolicy) -> PersistConfig {
    PersistConfig { fsync, ..PersistConfig::default() }
}

/// Measure one policy over a `products`-sized workload.
pub fn measure(fsync: FsyncPolicy, products: usize) -> DurabilityRow {
    let dir = bench_dir(&policy_name(fsync));
    let workload = ProductsGenerator::new(products, 7).generate();
    let triples: Vec<_> = workload.into_triples();

    // 1. append phase: every triple is one transaction, one logged insert
    let store = SharedStore::open(&dir, config(fsync)).expect("open bench store");
    let t0 = Instant::now();
    let mut logged = 0u64;
    for t in &triples {
        let (added, _) = store
            .transact(|txn| Ok::<_, PersistError>(txn.store_mut().insert(t)))
            .expect("logged insert");
        logged += u64::from(added);
    }
    let journal = store.journal().expect("an opened store is durable");
    journal.sync().expect("final sync");
    let append_s = t0.elapsed().as_secs_f64();
    let wal_bytes = file_size(&dir, "wal.0.log");
    drop(store);

    // 2. recovery with the whole workload in the WAL
    let t0 = Instant::now();
    let store = SharedStore::open(&dir, config(fsync)).expect("reopen for replay");
    let replay_ms = t0.elapsed().as_secs_f64() * 1e3;
    let replayed = store.recovery().map(|r| r.wal_records_replayed);
    assert_eq!(replayed, Some(logged), "one record per effective insert");

    // 3. checkpoint: closure refresh + segments + manifest + WAL rotation
    let t0 = Instant::now();
    let generation = store.checkpoint().expect("checkpoint").expect("durable");
    let checkpoint_ms = t0.elapsed().as_secs_f64() * 1e3;
    let checkpoint_bytes = checkpoint_bytes(&dir, generation);
    drop(store);

    // 4. recovery from the checkpoint alone
    let t0 = Instant::now();
    let store = SharedStore::open(&dir, config(fsync)).expect("reopen after checkpoint");
    let reopen_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(store);

    let _ = std::fs::remove_dir_all(&dir);
    DurabilityRow {
        policy: policy_name(fsync),
        append_ops_per_s: triples.len() as f64 / append_s.max(1e-9),
        wal_bytes,
        replay_ms,
        checkpoint_ms,
        checkpoint_bytes,
        reopen_ms,
    }
}

fn file_size(dir: &Path, name: &str) -> u64 {
    std::fs::metadata(dir.join(name)).map(|m| m.len()).unwrap_or(0)
}

/// Bytes on disk of checkpoint `generation`: its manifest
/// (`segments.<g>.txt`) and every file the manifest names — term chunks,
/// explicit segments and the closure segment.
fn checkpoint_bytes(dir: &Path, generation: u64) -> u64 {
    let manifest = format!("segments.{generation}.txt");
    let text = std::fs::read_to_string(dir.join(&manifest)).unwrap_or_default();
    let named = text.lines().filter_map(|line| {
        let mut words = line.split(' ');
        match (words.next(), words.next()) {
            (Some("chunk" | "seg" | "inf"), Some(file)) => Some(file),
            _ => None,
        }
    });
    std::iter::once(manifest.as_str())
        .chain(named)
        .map(|f| file_size(dir, f))
        .sum()
}

/// The durability table: one row per fsync policy over the same workload.
pub fn durability_table(products: usize) -> String {
    let policies = [FsyncPolicy::Always, FsyncPolicy::EveryN(64), FsyncPolicy::Never];
    let rows: Vec<DurabilityRow> = policies.iter().map(|&p| measure(p, products)).collect();
    let mut out = String::new();
    out.push_str(&format!(
        "durability: WAL fsync policy trade-offs ({products} products)\n"
    ));
    out.push_str(
        "| policy   | append ops/s | WAL bytes | replay ms | checkpoint ms | checkpoint bytes | reopen ms |\n",
    );
    out.push_str(
        "|----------|-------------:|----------:|----------:|--------------:|-----------------:|----------:|\n",
    );
    for r in &rows {
        out.push_str(&format!(
            "| {:<8} | {:>12.0} | {:>9} | {:>9.1} | {:>13.1} | {:>16} | {:>9.1} |\n",
            r.policy,
            r.append_ops_per_s,
            r.wal_bytes,
            r.replay_ms,
            r.checkpoint_ms,
            r.checkpoint_bytes,
            r.reopen_ms
        ));
    }
    out.push_str(
        "(append = single-triple insert transactions; replay = reopen with the full workload in the WAL;\n reopen = recovery from the checkpointed segments alone)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durability_table_runs_and_reports_every_policy() {
        let table = durability_table(40);
        assert!(table.contains("always"), "{table}");
        assert!(table.contains("every:64"), "{table}");
        assert!(table.contains("never"), "{table}");
        assert!(table.contains("append ops/s"), "{table}");
    }

    #[test]
    fn measure_produces_sane_numbers() {
        let row = measure(FsyncPolicy::Never, 40);
        assert!(row.append_ops_per_s > 0.0);
        assert!(row.wal_bytes > 0);
        assert!(row.checkpoint_bytes > 0);
    }
}
