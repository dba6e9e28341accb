//! The crash matrix: for EVERY labeled crash point in the persistence
//! layer, under EVERY fsync policy, a crash mid-write must recover on
//! reopen to a consistent prefix of the committed operations — no panic,
//! no partial record visible, no acknowledged write lost.
//!
//! The scripted workload runs through the store's one commit path,
//! [`SharedStore::transact`] and [`SharedStore::checkpoint`], and writes
//! every record kind the server writes: five single-triple insert
//! transactions, a checkpoint (segments + manifest + WAL rotation +
//! CURRENT flip), a four-triple batch (one `OP_BATCH` record), a
//! three-triple load (one `OP_LOAD` record), an insert, a second
//! checkpoint, and a last insert. Each crash point is armed three ways:
//! from the start (the first record or checkpoint it meets), and after a
//! clean restart just before the batch and just before the load, so each
//! one is also hit mid-batch and mid-load (or in the checkpoint that
//! folds them). An operation counts as *acknowledged* only when the API
//! returned `Ok`; recovery may additionally surface at most one
//! unacknowledged operation (a record fully written before the crash label
//! fired), whole, and never anything else.

use rdf_analytics::model::{Term, Triple};
use rdf_analytics::store::{
    CrashInjector, FsyncPolicy, PersistConfig, PersistError, SharedStore, Store, CRASH_POINTS,
};
use std::ops::Range;
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rdfa-crash-{}-{}",
        std::process::id(),
        tag.replace(['.', ':'], "-")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn triple(i: usize) -> Triple {
    Triple::new(
        Term::iri(format!("http://crash.test/s{i}")),
        Term::iri("http://crash.test/p"),
        Term::integer(i as i64),
    )
}

fn has_triple(store: &Store, i: usize) -> bool {
    let t = triple(i);
    match (store.lookup(&t.subject), store.lookup(&t.predicate), store.lookup(&t.object)) {
        (Some(s), Some(p), Some(o)) => {
            store.matching_explicit(Some(s), Some(p), Some(o)).next().is_some()
        }
        _ => false,
    }
}

/// Insert one triple in a transaction of its own.
fn insert(store: &SharedStore, i: usize) -> Result<bool, PersistError> {
    store.transact(|txn| Ok(txn.store_mut().insert(&triple(i)))).map(|(added, _)| added)
}

/// One step of the scripted workload; data steps write triples `range`.
#[derive(Debug, Clone)]
enum Op {
    /// One single-triple transaction.
    Insert(usize),
    /// One transaction inserting every triple of the range: an `OP_BATCH`.
    Batch(Range<usize>),
    /// One N-Triples load of the range: an `OP_LOAD`.
    Load(Range<usize>),
    Checkpoint,
}

impl Op {
    fn triples(&self) -> Range<usize> {
        match self {
            Op::Insert(i) => *i..*i + 1,
            Op::Batch(r) | Op::Load(r) => r.clone(),
            Op::Checkpoint => 0..0,
        }
    }

    fn apply(&self, store: &SharedStore) -> Result<(), PersistError> {
        match self {
            Op::Insert(i) => {
                assert!(insert(store, *i)?, "scripted triples are distinct");
            }
            Op::Batch(range) => {
                store.transact(|txn| {
                    for i in range.clone() {
                        let added = txn.store_mut().insert(&triple(i));
                        assert!(added, "scripted triples are distinct");
                    }
                    Ok::<_, PersistError>(())
                })?;
            }
            Op::Load(range) => {
                let text: String = range.clone().map(|i| format!("{}\n", triple(i))).collect();
                store.transact(|txn| txn.load_ntriples(&text))?;
            }
            Op::Checkpoint => {
                store.checkpoint()?;
            }
        }
        Ok(())
    }
}

fn script() -> Vec<Op> {
    let mut ops: Vec<Op> = (0..5).map(Op::Insert).collect();
    ops.extend([
        Op::Checkpoint,
        Op::Batch(5..9),
        Op::Load(9..12),
        Op::Insert(12),
        Op::Checkpoint,
        Op::Insert(13),
    ]);
    ops
}

/// Where a case arms its crash point: from the first operation, or after
/// a clean restart just before the batch or the load.
const BATCH_STEP: usize = 6;
const LOAD_STEP: usize = 7;

/// Run the script from `start` on a store opened with `config` until the
/// injected crash stops it. Returns the triples acknowledged so far (the
/// script writes triples in order, so that is a prefix length), the size
/// of the operation the crash interrupted, and whether it crashed.
fn run_until_crash(
    dir: &PathBuf,
    config: PersistConfig,
    start: usize,
) -> (usize, usize, bool) {
    let ops = script();
    let mut acked = ops[..start].iter().map(|op| op.triples().len()).sum::<usize>();
    let store = SharedStore::open(dir, config).expect("initial open never crashes");
    for op in &ops[start..] {
        match op.apply(&store) {
            Ok(()) => acked += op.triples().len(),
            Err(e) => {
                assert!(
                    matches!(e, PersistError::InjectedCrash { .. }),
                    "only the injector may fail this workload ({op:?}): {e}"
                );
                // nothing the failed operation did is visible, and the
                // handle is poisoned, exactly like a dead process
                assert_eq!(store.snapshot().len(), acked, "a failed write published ({op:?})");
                assert!(store.journal().unwrap().is_dead(), "crash must poison the handle");
                assert!(matches!(insert(&store, 99), Err(PersistError::Dead)));
                return (acked, op.triples().len(), true);
            }
        }
    }
    (acked, 0, false)
}

/// After reopening, the store must hold the acknowledged prefix — and at
/// most the one operation beyond it (fully written but unacknowledged),
/// whole: a batch or a load recovers all or nothing.
fn assert_consistent_prefix(
    store: &Store,
    acked: usize,
    interrupted: usize,
    label: &str,
    policy: &str,
) {
    let n = store.len();
    assert!(
        n == acked || n == acked + interrupted,
        "[{label} / {policy}] recovered {n} triples, acknowledged {acked} \
         (the interrupted operation writes {interrupted}): not a consistent prefix"
    );
    for i in 0..n {
        assert!(
            has_triple(store, i),
            "[{label} / {policy}] recovered store is missing op {i} of its {n}-op prefix"
        );
    }
    // nothing beyond the prefix leaked in
    assert!(
        !has_triple(store, n),
        "[{label} / {policy}] phantom operation {n} visible after recovery"
    );
}

#[test]
fn every_crash_point_recovers_under_every_fsync_policy() {
    let policies = [
        ("always", FsyncPolicy::Always),
        ("every-2", FsyncPolicy::EveryN(2)),
        ("never", FsyncPolicy::Never),
    ];
    let starts = [("first", 0), ("batch", BATCH_STEP), ("load", LOAD_STEP)];
    let mut cases = 0;
    for &label in CRASH_POINTS {
        for (pname, policy) in policies {
            for (sname, start) in starts {
                let tag = format!("{label}-{pname}-{sname}");
                let dir = tmpdir(&tag);
                // the script up to `start` runs cleanly, then the store
                // restarts with the crash point armed
                if start > 0 {
                    let store = SharedStore::open(&dir, PersistConfig::default()).unwrap();
                    for op in &script()[..start] {
                        op.apply(&store).unwrap_or_else(|e| panic!("[{tag}] {op:?}: {e}"));
                    }
                }
                let config = PersistConfig {
                    fsync: policy,
                    crash: CrashInjector::at(label, 1),
                    ..PersistConfig::default()
                };
                let (acked, interrupted, crashed) = run_until_crash(&dir, config, start);
                assert!(
                    crashed,
                    "[{tag}] the workload never reached this crash point"
                );
                // recovery: must succeed, must not panic, must see a prefix
                let store = SharedStore::open(&dir, PersistConfig::default())
                    .unwrap_or_else(|e| panic!("[{tag}] recovery failed: {e}"));
                assert_consistent_prefix(&store.snapshot(), acked, interrupted, label, &tag);
                // and the recovered store is fully usable again: a checkpoint
                // supersedes the half-written generation the crash left behind
                let next = store.snapshot().len();
                insert(&store, next).expect("recovered store accepts writes");
                store.checkpoint().expect("recovered store checkpoints");
                cases += 1;
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
    assert_eq!(cases, CRASH_POINTS.len() * 3 * 3);
}

#[test]
fn repeated_crashes_still_converge() {
    // crash → recover → crash at a later point → recover: each recovery
    // lands on a consistent prefix and the store keeps making progress
    let dir = tmpdir("repeat");
    let (acked1, interrupted, crashed) = run_until_crash(
        &dir,
        PersistConfig {
            fsync: FsyncPolicy::Always,
            crash: CrashInjector::at("wal.append.torn-body", 2),
            ..PersistConfig::default()
        },
        0,
    );
    assert!(crashed);
    {
        let store = SharedStore::open(&dir, PersistConfig::default()).unwrap();
        let snap = store.snapshot();
        assert_consistent_prefix(&snap, acked1, interrupted, "wal.append.torn-body:2", "always");
    }
    // second life: crash during the checkpoint this time
    let store = SharedStore::open(
        &dir,
        PersistConfig {
            fsync: FsyncPolicy::Always,
            crash: CrashInjector::at("checkpoint.current", 1),
            ..PersistConfig::default()
        },
    )
    .unwrap();
    let base = store.snapshot().len();
    insert(&store, 100).unwrap();
    assert!(matches!(
        store.checkpoint(),
        Err(PersistError::InjectedCrash { point: "checkpoint.current" })
    ));
    drop(store);
    let store = SharedStore::open(&dir, PersistConfig::default()).unwrap();
    assert_eq!(store.snapshot().len(), base + 1, "insert before the failed checkpoint survives");
}

/// One flipped byte in a checkpointed generation never yields a wrong
/// answer or a wrong count. Each file is flipped in turn: the manifest, the
/// term chunk, and each segment's (explicit and closure) header, trailer
/// and first block. Open refuses the directory with a typed error, or the
/// store opens with the right count and its full scan panics with the
/// block-CRC message. With the byte restored the directory reopens whole.
#[test]
fn flipped_checkpoint_byte_is_detected() {
    // the segment layout's fixed header (magic, version, block size, count,
    // restart interval) and trailer (run table, CRC, tail magic)
    const SEG_HEADER: usize = 32;
    const SEG_TRAILER: usize = 68;
    let dir = tmpdir("checkpoint-corruption");
    {
        let store = SharedStore::open(&dir, PersistConfig::default()).unwrap();
        let mut ttl = String::from(
            "@prefix ex: <http://crash.test/> .\n\
             @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
             ex:Laptop rdfs:subClassOf ex:Product .\n",
        );
        for i in 0..30 {
            ttl.push_str(&format!("ex:s{i} a ex:Laptop ; ex:p {i} .\n"));
        }
        store.transact(|txn| txn.load_turtle(&ttl)).unwrap();
        store.checkpoint().unwrap();
    }
    let full_scan = |store: &Store| store.matching(None, None, None).collect::<Vec<_>>();
    let (len, expected) = {
        let store = SharedStore::open(&dir, PersistConfig::default()).unwrap().snapshot();
        (store.len(), full_scan(&store))
    };
    assert!(expected.len() > len, "the closure segment must hold triples");

    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n != "CURRENT" && !n.starts_with("wal."))
        .collect();
    names.sort();
    assert_eq!(names.len(), 4, "manifest, term chunk, explicit and closure segment: {names:?}");
    let (mut refused, mut caught) = (0, 0);
    for name in &names {
        let path = dir.join(name);
        let clean = std::fs::read(&path).unwrap();
        let n = clean.len();
        let positions = if name.ends_with(".seg") {
            vec![0, 8, 20, SEG_HEADER - 1, SEG_HEADER + 4, n - SEG_TRAILER, n - 30, n - 5, n - 1]
        } else {
            vec![0, n / 2, n - 1]
        };
        for pos in positions {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x20;
            std::fs::write(&path, &bytes).unwrap();
            let at = format!("{name} byte {pos}");
            match SharedStore::open(&dir, PersistConfig::default()).map(|s| s.snapshot()) {
                Err(
                    PersistError::Checksum { .. }
                    | PersistError::BadMagic { .. }
                    | PersistError::UnsupportedVersion { .. }
                    | PersistError::Corrupt { .. },
                ) => refused += 1,
                Err(other) => panic!("{at}: wrong error class: {other}"),
                Ok(store) => {
                    assert_eq!(store.len(), len, "{at}: wrong count");
                    let scan = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        full_scan(&store)
                    }));
                    match scan {
                        Ok(rows) if rows == expected => panic!("{at}: flip went undetected"),
                        Ok(rows) => panic!("{at}: wrong answer, {} rows", rows.len()),
                        Err(e) => {
                            let msg = e.downcast_ref::<String>().cloned().unwrap_or_default();
                            assert!(msg.contains("failed CRC"), "{at}: unexpected panic: {msg}");
                            caught += 1;
                        }
                    }
                }
            }
        }
        std::fs::write(&path, &clean).unwrap();
    }
    // metadata flips are refused at open; the two block flips are caught
    // by the scan
    assert_eq!((refused, caught), (2 * 3 + 2 * 8, 2));
    let store = SharedStore::open(&dir, PersistConfig::default()).unwrap().snapshot();
    assert_eq!(store.len(), len);
    assert_eq!(full_scan(&store), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_wal_byte_truncates_to_committed_prefix() {
    let dir = tmpdir("wal-corruption");
    {
        let store = SharedStore::open(&dir, PersistConfig::default()).unwrap();
        for i in 0..12 {
            insert(&store, i).unwrap();
        }
    }
    let wal = dir.join("wal.0.log");
    let bytes = std::fs::read(&wal).unwrap();
    let mut corrupted = bytes.clone();
    let target = bytes.len() * 2 / 3;
    corrupted[target] ^= 0x01;
    std::fs::write(&wal, &corrupted).unwrap();
    let store = SharedStore::open(&dir, PersistConfig::default()).unwrap();
    let report = store.recovery().unwrap();
    let truncation = report.wal_truncation.clone().expect("corruption must be reported");
    assert!(truncation.offset < bytes.len() as u64);
    let n = report.wal_records_replayed as usize;
    assert!(n < 12, "corrupted record must not replay");
    assert_consistent_prefix(&store.snapshot(), n, 1, "flipped-wal-byte", "always");
    // the log was physically truncated: a fresh append goes to a clean
    // boundary and survives the next reopen
    drop(store);
    let store = SharedStore::open(&dir, PersistConfig::default()).unwrap();
    let n = store.snapshot().len();
    insert(&store, n).unwrap();
    drop(store);
    let store = SharedStore::open(&dir, PersistConfig::default()).unwrap();
    assert_eq!(store.snapshot().len(), n + 1);
    assert!(store.recovery().unwrap().wal_truncation.is_none());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeded_crash_sampling_soak() {
    // randomized (but deterministic) soak: under sampled crash injection
    // with many seeds, every recovery lands on a consistent prefix
    for seed in 0..24u64 {
        let dir = tmpdir(&format!("soak-{seed}"));
        let mut acked = 0usize;
        {
            let config = PersistConfig {
                fsync: FsyncPolicy::EveryN(3),
                crash: CrashInjector::sampled(seed, 0.04),
                ..PersistConfig::default()
            };
            let store = SharedStore::open(&dir, config).unwrap();
            for i in 0..40 {
                match insert(&store, i) {
                    Ok(_) => acked += 1,
                    Err(_) => break,
                }
                if i % 8 == 7 && store.checkpoint().is_err() {
                    break;
                }
            }
        }
        let store = SharedStore::open(&dir, PersistConfig::default())
            .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
        assert_consistent_prefix(&store.snapshot(), acked, 1, "sampled", &format!("seed-{seed}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
