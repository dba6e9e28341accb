//! The crash matrix: for EVERY labeled crash point in the persistence
//! layer, under EVERY fsync policy, a crash mid-write must recover on
//! reopen to a consistent prefix of the committed operations — no panic,
//! no partial record visible, no acknowledged write lost.
//!
//! The scripted workload exercises both write paths: five single-triple
//! inserts, a checkpoint (segments + manifest + WAL rotation + CURRENT
//! flip), then five more inserts. An operation counts as *acknowledged* only when
//! the API returned `Ok`; recovery may additionally surface at most one
//! unacknowledged operation (a record fully written before the crash label
//! fired), and never anything else.

use rdf_analytics::model::{Term, Triple};
use rdf_analytics::store::{
    CrashInjector, FsyncPolicy, PersistConfig, PersistError, PersistentStore, CRASH_POINTS,
};
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

fn has_triple(store: &PersistentStore, i: usize) -> bool {
    let t = triple(i);
    match (store.lookup(&t.subject), store.lookup(&t.predicate), store.lookup(&t.object)) {
        (Some(s), Some(p), Some(o)) => {
            store.matching_explicit(Some(s), Some(p), Some(o)).next().is_some()
        }
        _ => false,
    }
}

/// Run the scripted workload until the injected crash stops it; return the
/// number of *acknowledged* operations (insert i is op i, each distinct).
fn run_until_crash(dir: &PathBuf, config: PersistConfig) -> (usize, bool) {
    let mut store = PersistentStore::open(dir, config).expect("initial open never crashes");
    let mut acked = 0usize;
    let mut crashed = false;
    for i in 0..10 {
        match store.insert(&triple(i)) {
            Ok(added) => {
                assert!(added, "scripted triples are distinct");
                acked += 1;
            }
            Err(e) => {
                assert!(
                    matches!(e, PersistError::InjectedCrash { .. }),
                    "only the injector may fail this workload: {e}"
                );
                crashed = true;
                break;
            }
        }
        if i == 4 {
            match store.checkpoint() {
                Ok(_) => {}
                Err(e) => {
                    assert!(
                        matches!(e, PersistError::InjectedCrash { .. }),
                        "only the injector may fail the checkpoint: {e}"
                    );
                    crashed = true;
                    break;
                }
            }
        }
    }
    if crashed {
        // the handle is poisoned, exactly like a dead process
        assert!(store.is_dead(), "crash must poison the handle");
        assert!(matches!(store.insert(&triple(99)), Err(PersistError::Dead)));
    }
    (acked, crashed)
}

/// After reopening, the store must hold the acknowledged prefix — and at
/// most one record beyond it (fully written but unacknowledged).
fn assert_consistent_prefix(store: &PersistentStore, acked: usize, label: &str, policy: &str) {
    let n = store.len();
    assert!(
        n == acked || n == acked + 1,
        "[{label} / {policy}] recovered {n} triples, acknowledged {acked}: \
         not a consistent prefix"
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
    for &label in CRASH_POINTS {
        for (pname, policy) in policies {
            let tag = format!("{label}-{pname}");
            let dir = tmpdir(&tag);
            let config = PersistConfig {
                fsync: policy,
                crash: CrashInjector::at(label, 1),
                ..PersistConfig::default()
            };
            let (acked, crashed) = run_until_crash(&dir, config);
            assert!(
                crashed,
                "[{label} / {pname}] the workload never reached this crash point"
            );
            // recovery: must succeed, must not panic, must see a prefix
            let mut store = PersistentStore::open(&dir, PersistConfig::default())
                .unwrap_or_else(|e| panic!("[{tag}] recovery failed: {e}"));
            assert_consistent_prefix(&store, acked, label, &tag);
            // and the recovered store is fully usable again: a checkpoint
            // supersedes the half-written generation the crash left behind
            let next = store.len();
            store
                .insert(&triple(next))
                .expect("recovered store accepts writes");
            store.checkpoint().expect("recovered store checkpoints");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn repeated_crashes_still_converge() {
    // crash → recover → crash at a later point → recover: each recovery
    // lands on a consistent prefix and the store keeps making progress
    let dir = tmpdir("repeat");
    let (acked1, crashed) = run_until_crash(
        &dir,
        PersistConfig {
            fsync: FsyncPolicy::Always,
            crash: CrashInjector::at("wal.append.torn-body", 2),
            ..PersistConfig::default()
        },
    );
    assert!(crashed);
    {
        let store = PersistentStore::open(&dir, PersistConfig::default()).unwrap();
        assert_consistent_prefix(&store, acked1, "wal.append.torn-body:2", "always");
    }
    // second life: crash during the checkpoint this time
    let mut store = PersistentStore::open(
        &dir,
        PersistConfig {
            fsync: FsyncPolicy::Always,
            crash: CrashInjector::at("checkpoint.current", 1),
            ..PersistConfig::default()
        },
    )
    .unwrap();
    let base = store.len();
    store.insert(&triple(100)).unwrap();
    assert!(matches!(
        store.checkpoint(),
        Err(PersistError::InjectedCrash { point: "checkpoint.current" })
    ));
    drop(store);
    let store = PersistentStore::open(&dir, PersistConfig::default()).unwrap();
    assert_eq!(store.len(), base + 1, "insert before the failed checkpoint survives");
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
        let mut store = PersistentStore::open(&dir, PersistConfig::default()).unwrap();
        let mut ttl = String::from(
            "@prefix ex: <http://crash.test/> .\n\
             @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n\
             ex:Laptop rdfs:subClassOf ex:Product .\n",
        );
        for i in 0..30 {
            ttl.push_str(&format!("ex:s{i} a ex:Laptop ; ex:p {i} .\n"));
        }
        store.load_turtle(&ttl).unwrap();
        store.checkpoint().unwrap();
    }
    let full_scan = |store: &PersistentStore| store.matching(None, None, None).collect::<Vec<_>>();
    let (len, expected) = {
        let store = PersistentStore::open(&dir, PersistConfig::default()).unwrap();
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
            match PersistentStore::open(&dir, PersistConfig::default()) {
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
    let store = PersistentStore::open(&dir, PersistConfig::default()).unwrap();
    assert_eq!(store.len(), len);
    assert_eq!(full_scan(&store), expected);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_wal_byte_truncates_to_committed_prefix() {
    let dir = tmpdir("wal-corruption");
    {
        let mut store = PersistentStore::open(&dir, PersistConfig::default()).unwrap();
        for i in 0..12 {
            store.insert(&triple(i)).unwrap();
        }
    }
    let wal = dir.join("wal.0.log");
    let bytes = std::fs::read(&wal).unwrap();
    let mut corrupted = bytes.clone();
    let target = bytes.len() * 2 / 3;
    corrupted[target] ^= 0x01;
    std::fs::write(&wal, &corrupted).unwrap();
    let store = PersistentStore::open(&dir, PersistConfig::default()).unwrap();
    let report = store.recovery();
    let truncation = report.wal_truncation.clone().expect("corruption must be reported");
    assert!(truncation.offset < bytes.len() as u64);
    let n = report.wal_records_replayed as usize;
    assert!(n < 12, "corrupted record must not replay");
    assert_consistent_prefix(&store, n, "flipped-wal-byte", "always");
    // the log was physically truncated: a fresh append goes to a clean
    // boundary and survives the next reopen
    drop(store);
    let mut store = PersistentStore::open(&dir, PersistConfig::default()).unwrap();
    let n = store.len();
    store.insert(&triple(n)).unwrap();
    drop(store);
    let store = PersistentStore::open(&dir, PersistConfig::default()).unwrap();
    assert_eq!(store.len(), n + 1);
    assert!(store.recovery().wal_truncation.is_none());
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
            let mut store = PersistentStore::open(&dir, config).unwrap();
            for i in 0..40 {
                match store.insert(&triple(i)) {
                    Ok(_) => acked += 1,
                    Err(_) => break,
                }
                if i % 8 == 7 && store.checkpoint().is_err() {
                    break;
                }
            }
        }
        let store = PersistentStore::open(&dir, PersistConfig::default())
            .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
        assert_consistent_prefix(&store, acked, "sampled", &format!("seed-{seed}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
