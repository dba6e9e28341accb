//! Crash-safe persistence for the [`Store`]: mmap-able index segments + a
//! write-ahead log, recovery-on-open, and a deterministic crash-injection
//! harness.
//!
//! # On-disk layout
//!
//! A persistent store is a directory:
//!
//! ```text
//! CURRENT            the active generation number (ASCII u64)
//! segments.<g>.txt   the manifest of generation g (see manifest.rs)
//! seg.<g>.<i>.seg    immutable compressed index segments (see crate::segment)
//! inf.<g>.seg        persisted RDFS closure segment
//! terms.<a>-<b>.tbl  immutable term-dictionary chunks
//! wal.<g>.log        append-only log of mutations since generation g (wal.rs)
//! ```
//!
//! This module is the durable half of [`crate::SharedStore`]: recovery
//! ([`crate::SharedStore::open`]) and the [`Journal`] that appends WAL
//! records and writes checkpoints. Every write reaches it through
//! [`crate::SharedStore::transact`], which appends a transaction's records
//! and publishes them under one journal lock hold (the commit protocol is
//! stated once, on [`crate::concurrent`]). The lock is held from a
//! transaction's first append to its publish, so a record is on disk
//! before its batch is acknowledged, and a checkpoint never rotates away a
//! record whose batch is not yet visible.
//!
//! [`crate::SharedStore::checkpoint`] compacts: it writes the next
//! generation's segment files and manifest to temp files, fsyncs,
//! atomically renames them into place, creates the next WAL, then flips
//! `CURRENT` via the same temp-file + rename + fsync-dir dance. A crash at
//! *any* point leaves `CURRENT` naming a complete generation: recovery maps
//! its segments, replays the WAL (truncating a torn tail), and
//! rematerializes the RDFS closure when it is stale.
//!
//! Recovery serves queries as soon as the files are mapped (blocks decode
//! on first touch), and a checkpoint re-references every base segment and
//! term chunk that did not change — only the overlay written since the last
//! checkpoint costs I/O. The checkpoint also returns a *folded* store
//! rebuilt on the new segment stack so the in-memory overlay resets and
//! subsequent copy-on-write write transactions share the segment `Arc`s
//! instead of deep-copying triples. N-Triples stays the import and export
//! format ([`crate::SharedStore::export_ntriples`]).
//!
//! # Crash injection
//!
//! Every labeled point on the write paths consults a [`CrashInjector`]
//! (config- or env-driven, seeded via `rdfa-prng`); when it fires, writing
//! stops mid-record and the handle is poisoned, simulating a kill. The
//! crash-matrix test in `tests/crash_recovery.rs` proves that after every
//! labeled crash, under every fsync policy, the store reopens to a
//! consistent prefix of the committed data.

pub mod crash;
pub mod crc;
mod manifest;
pub(crate) mod term_codec;
pub(crate) mod wal;

pub use crash::{CrashInjector, CRASH_POINTS};
pub use wal::WalTruncation;

use crate::index::Perm;
use crate::layer::{Layer, MAX_SEGS};
use crate::segment::Segment;
use crate::store::Store;
use rdfa_model::{NtriplesError, Triple};
use std::fmt;
use std::fs::{self, File};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use wal::Wal;

/// Everything that can go wrong in the persistence layer.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying I/O failure.
    Io { context: &'static str, source: std::io::Error },
    /// A file (`what`: segment, manifest, term chunk) does not start with
    /// the expected magic bytes.
    BadMagic { what: &'static str, found: Vec<u8> },
    /// A file (`what`) was written by an unknown format version.
    UnsupportedVersion { what: &'static str, found: u32 },
    /// A CRC-32 check failed — the bytes on disk are not the bytes written.
    Checksum { what: &'static str, expected: u32, found: u32 },
    /// Structurally invalid data (truncated section, bad tag, …).
    Corrupt { what: &'static str, detail: String },
    /// A WAL payload or imported document failed N-Triples parsing.
    Ntriples(NtriplesError),
    /// A Turtle document failed parsing during a logged load.
    Turtle(String),
    /// The crash-injection harness fired at this labeled point.
    InjectedCrash { point: &'static str },
    /// The handle was poisoned by an earlier failure; reopen the store.
    Dead,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { context, source } => write!(f, "{context}: {source}"),
            PersistError::BadMagic { what, found } => {
                write!(f, "not a {what} file (magic {found:02x?})")
            }
            PersistError::UnsupportedVersion { what, found } => {
                write!(f, "unsupported {what} version {found}")
            }
            PersistError::Checksum { what, expected, found } => write!(
                f,
                "checksum mismatch in {what}: expected {expected:08x}, found {found:08x}"
            ),
            PersistError::Corrupt { what, detail } => write!(f, "corrupt {what}: {detail}"),
            PersistError::Ntriples(e) => write!(f, "{e}"),
            PersistError::Turtle(msg) => write!(f, "turtle: {msg}"),
            PersistError::InjectedCrash { point } => {
                write!(f, "injected crash at {point}")
            }
            PersistError::Dead => {
                write!(f, "persistence handle poisoned by an earlier failure; reopen the store")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            PersistError::Ntriples(e) => Some(e),
            _ => None,
        }
    }
}

/// When WAL appends reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every record — no acknowledged write is ever lost.
    Always,
    /// Sync every N records — bounded loss window, much higher throughput.
    EveryN(u32),
    /// Leave syncing to the OS — fastest, loses the page-cache tail on
    /// power failure (process crashes still lose nothing).
    Never,
}

impl FsyncPolicy {
    /// Parse `"always"`, `"never"`, or `"every:N"`.
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            other => other
                .strip_prefix("every:")
                .and_then(|n| n.parse().ok())
                .map(FsyncPolicy::EveryN),
        }
    }
}

/// Tunables for a persistent store.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// WAL durability policy.
    pub fsync: FsyncPolicy,
    /// Ignored: segments are the only checkpoint format. Kept so that
    /// struct literals which still set it keep compiling.
    #[doc(hidden)]
    pub segments: bool,
    /// Crash-injection hook (off in production).
    pub crash: Arc<CrashInjector>,
}

impl Default for PersistConfig {
    fn default() -> Self {
        PersistConfig {
            fsync: FsyncPolicy::Always,
            segments: true,
            crash: CrashInjector::off(),
        }
    }
}

impl PersistConfig {
    /// Config honouring `RDFA_FSYNC` (`always`/`never`/`every:N`) and the
    /// `RDFA_CRASHPOINT`/`RDFA_CRASHPOINT_SEED` crash-injection variables.
    pub fn from_env() -> PersistConfig {
        let fsync = std::env::var("RDFA_FSYNC")
            .ok()
            .and_then(|s| FsyncPolicy::parse(s.trim()))
            .unwrap_or(FsyncPolicy::Always);
        PersistConfig { fsync, crash: CrashInjector::from_env(), ..PersistConfig::default() }
    }
}

/// What the last checkpoint wrote versus re-referenced — the observable
/// measure of structural sharing. `None` from
/// [`Journal::last_checkpoint_stats`] until a checkpoint ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Generation the checkpoint produced.
    pub generation: u64,
    /// Segment files newly written (overlay deltas or compactions).
    pub segments_written: usize,
    /// Base segment files re-referenced from the previous generation.
    pub segments_shared: usize,
    /// Bytes of newly written segment files.
    pub segment_bytes_written: u64,
    /// Terms written into a new dictionary chunk.
    pub terms_written: usize,
    /// Terms covered by re-referenced chunks.
    pub terms_shared: usize,
}

/// One logical mutation, as recorded in (and replayed from) the WAL.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    Insert(Triple),
    Remove(Triple),
}

/// What recovery found when the store was opened.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The generation named by `CURRENT` (0 before the first checkpoint).
    pub generation: u64,
    /// Explicit triples in the checkpointed generation.
    pub checkpoint_triples: usize,
    /// WAL records replayed on top of the checkpoint.
    pub wal_records_replayed: u64,
    /// Set when the WAL had a torn/corrupt tail that was cut off.
    pub wal_truncation: Option<WalTruncation>,
}

pub(crate) struct Inner {
    pub(crate) wal: Wal,
    generation: u64,
    config: PersistConfig,
    dead: bool,
    last_checkpoint: Option<CheckpointStats>,
}

impl Inner {
    /// `Err(Dead)` once a durability failure poisoned the handle.
    pub(crate) fn alive(&self) -> Result<(), PersistError> {
        if self.dead || self.wal.is_dead() {
            return Err(PersistError::Dead);
        }
        Ok(())
    }
}

/// The durability half of a [`crate::SharedStore`]: the WAL, the
/// checkpoint machinery and the generation counter behind one mutex.
///
/// Its public methods only read. The handle appends and checkpoints
/// through crate-internal methods, under the commit protocol stated on
/// [`crate::concurrent`]: a WAL record is appended only under the journal
/// lock hold that publishes it, and a checkpoint captures its store view
/// under that same lock, so a logged batch is never compacted away before
/// it is visible.
pub struct Journal {
    dir: PathBuf,
    inner: Mutex<Inner>,
}

impl Journal {
    pub(crate) fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current checkpoint generation (bumped by every checkpoint).
    pub fn generation(&self) -> u64 {
        self.lock().generation
    }

    /// Records in the current WAL — the replay work a crash would cost now.
    pub fn wal_records(&self) -> u64 {
        self.lock().wal.records
    }

    /// True once a durability failure (or injected crash) poisoned the
    /// handle; all further mutations fail until the directory is reopened.
    pub fn is_dead(&self) -> bool {
        self.lock().alive().is_err()
    }

    /// Flush the WAL to disk regardless of fsync policy.
    pub fn sync(&self) -> Result<(), PersistError> {
        self.lock().wal.sync()
    }

    /// Checkpoint from a store view captured *under the journal lock*:
    /// `snap` runs after the lock is taken, so the snapshot it returns
    /// contains every batch whose WAL record the checkpoint supersedes.
    /// Readers proceed throughout; updates queue on the journal only.
    ///
    /// Returns the new generation and the *folded* store: the same
    /// observable state rebuilt on the freshly persisted segment stack
    /// (empty overlay), sharing every base segment `Arc` and every term
    /// chunk with the view. The handle swaps it in for the view so the
    /// overlay resets and write transactions stay O(overlay).
    pub(crate) fn checkpoint<S: std::ops::Deref<Target = Store>>(
        &self,
        snap: impl FnOnce() -> S,
    ) -> Result<(u64, Store), PersistError> {
        let mut inner = self.lock();
        inner.alive()?;
        let view = snap();
        let result = self.checkpoint_locked(&mut inner, &view);
        if result.is_err() {
            inner.dead = true;
        }
        result
    }

    /// What the last checkpoint on this handle wrote versus re-referenced;
    /// `None` until one has run.
    pub fn last_checkpoint_stats(&self) -> Option<CheckpointStats> {
        self.lock().last_checkpoint
    }

    fn checkpoint_locked(
        &self,
        inner: &mut Inner,
        store: &Store,
    ) -> Result<(u64, Store), PersistError> {
        let crash = Arc::clone(&inner.config.crash);
        let io = |context: &'static str| {
            move |e: std::io::Error| PersistError::Io { context, source: e }
        };
        crash.check("checkpoint.begin")?;
        let next = inner.generation + 1;

        // 1. the durable image: segment files + manifest. Every file goes
        //    tmp → fsync → atomic rename before CURRENT flips, so a crash
        //    anywhere leaves the previous generation fully intact. `keep`
        //    collects the file names the new generation is made of (for
        //    cleanup in step 5).
        let (folded, m, stats) = self.write_segment_generation(store, next, inner.generation, &crash)?;
        let mut keep: Vec<String> = vec![format!("wal.{next}.log"), format!("segments.{next}.txt")];
        keep.extend(m.files().map(str::to_owned));
        inner.last_checkpoint = Some(stats);

        // 2. the next WAL starts empty
        let wal_path = self.dir.join(format!("wal.{next}.log"));
        File::create(&wal_path)
            .and_then(|f| f.sync_all())
            .map_err(io("wal create"))?;
        sync_dir(&self.dir)?;
        crash.check("checkpoint.wal-created")?;

        // 3. flip CURRENT — the commit point of the checkpoint
        let cur_tmp = self.dir.join("CURRENT.tmp");
        let cur = self.dir.join("CURRENT");
        {
            let mut file = File::create(&cur_tmp).map_err(io("CURRENT create"))?;
            file.write_all(format!("{next}\n").as_bytes()).map_err(io("CURRENT write"))?;
            file.sync_all().map_err(io("CURRENT fsync"))?;
        }
        fs::rename(&cur_tmp, &cur).map_err(io("CURRENT rename"))?;
        sync_dir(&self.dir)?;
        crash.check("checkpoint.current")?;

        // 4. swap in-memory state to the new generation
        inner.wal =
            Wal::open_append(&wal_path, inner.config.fsync, Arc::clone(&crash), 0)?;
        inner.generation = next;

        // 5. best-effort cleanup: drop every managed file the new
        //    generation does not reference (superseded WALs, manifests,
        //    unshared segments and chunks, stray temps)
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                let managed = ["wal.", "segments.", "seg.", "inf.", "terms."]
                    .iter()
                    .any(|p| name.starts_with(p));
                let stale = name.ends_with(".tmp")
                    || (managed && !keep.iter().any(|k| k.as_str() == name));
                if stale {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        crash.check("checkpoint.cleanup")?;
        Ok((next, folded))
    }

    /// Write generation `next`'s segment files and manifest, maximizing
    /// reuse of generation `prev_gen`'s immutable files:
    ///
    /// - term chunks covering the previous dictionary are re-referenced;
    ///   only the newly interned tail becomes a new chunk;
    /// - when the explicit layer is segment-backed with no tombstones (and
    ///   the stack is short), its base segments are re-referenced and the
    ///   overlay adds become one delta segment; otherwise the whole layer
    ///   is compacted into a single fresh segment;
    /// - the RDFS closure is persisted (`inf.<g>.seg`) whenever it is
    ///   current, shared when it is itself an unchanged segment.
    ///
    /// Returns the folded store (same observable state, rebuilt on the new
    /// segment stack), the manifest, and the sharing stats.
    fn write_segment_generation(
        &self,
        store: &Store,
        next: u64,
        prev_gen: u64,
        crash: &CrashInjector,
    ) -> Result<(Store, manifest::Manifest, CheckpointStats), PersistError> {
        let mut stats = CheckpointStats { generation: next, ..Default::default() };

        // (a) term-dictionary chunks: reuse the previous manifest's
        // coverage when it is a contiguous prefix of the current table
        let total = store.term_count();
        let mut chunks = manifest::read_previous(&self.dir, prev_gen)
            .map(|m| m.chunks)
            .unwrap_or_default();
        let mut covered = 0usize;
        for c in &chunks {
            if c.from != covered {
                covered = usize::MAX; // non-contiguous: rewrite everything
                break;
            }
            covered += c.count;
        }
        if covered > total {
            chunks.clear();
            covered = 0;
        }
        if total > covered {
            let name = manifest::write_term_chunk(
                &self.dir,
                covered,
                total - covered,
                store.terms_from(covered).map(|(_, t)| t),
            )?;
            chunks.push(manifest::ChunkRef { name, from: covered, count: total - covered });
            stats.terms_written = total - covered;
        }
        stats.terms_shared = covered;

        // (b) the explicit layer: share + delta, or compact
        let mut seg_names: Vec<String> = Vec::new();
        let mut fold_segs: Vec<Arc<Segment>> = Vec::new();
        let shareable = match &store.explicit {
            Layer::Seg(sl) if sl.dels.is_empty() && sl.segs.len() < MAX_SEGS => Some(sl),
            _ => None,
        };
        if let Some(sl) = shareable {
            for seg in &sl.segs {
                let name = seg
                    .path()
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .ok_or_else(|| PersistError::Corrupt {
                        what: "segment",
                        detail: format!("segment path has no file name: {:?}", seg.path()),
                    })?;
                seg_names.push(name);
                fold_segs.push(Arc::clone(seg));
                stats.segments_shared += 1;
            }
            if !sl.adds.is_empty() {
                let name = format!("seg.{next}.{}.seg", sl.segs.len());
                let mut spo = sl.adds.iter_perm(Perm::Spo);
                let mut pos = sl.adds.iter_perm(Perm::Pos);
                let mut osp = sl.adds.iter_perm(Perm::Osp);
                let (bytes, seg) = self.write_seg_file(
                    &name,
                    sl.adds.len() as u64,
                    [&mut spo, &mut pos, &mut osp],
                    crash,
                )?;
                stats.segments_written += 1;
                stats.segment_bytes_written += bytes;
                seg_names.push(name);
                fold_segs.push(seg);
            }
        } else {
            let name = format!("seg.{next}.0.seg");
            let mut spo = store.explicit.perm_iter(Perm::Spo);
            let mut pos = store.explicit.perm_iter(Perm::Pos);
            let mut osp = store.explicit.perm_iter(Perm::Osp);
            let (bytes, seg) = self.write_seg_file(
                &name,
                store.explicit.len() as u64,
                [&mut spo, &mut pos, &mut osp],
                crash,
            )?;
            stats.segments_written += 1;
            stats.segment_bytes_written += bytes;
            seg_names.push(name);
            fold_segs.push(seg);
        }

        // (c) the RDFS closure, when current: share its segment if the
        // layer is an unchanged single segment, else persist it fresh
        let mut inf_name = None;
        let mut inf_seg = None;
        if !store.is_dirty() {
            let inferred = store.inferred_layer();
            let unchanged = match inferred.as_seg() {
                Some(sl) if sl.adds.is_empty() && sl.dels.is_empty() && sl.segs.len() == 1 => {
                    sl.segs[0]
                        .path()
                        .file_name()
                        .map(|n| (n.to_string_lossy().into_owned(), Arc::clone(&sl.segs[0])))
                }
                _ => None,
            };
            let (name, seg) = match unchanged {
                Some((name, seg)) => {
                    stats.segments_shared += 1;
                    (name, seg)
                }
                None => {
                    let name = format!("inf.{next}.seg");
                    let mut spo = inferred.perm_iter(Perm::Spo);
                    let mut pos = inferred.perm_iter(Perm::Pos);
                    let mut osp = inferred.perm_iter(Perm::Osp);
                    let (bytes, seg) = self.write_seg_file(
                        &name,
                        inferred.len() as u64,
                        [&mut spo, &mut pos, &mut osp],
                        crash,
                    )?;
                    stats.segments_written += 1;
                    stats.segment_bytes_written += bytes;
                    (name, seg)
                }
            };
            inf_name = Some(name);
            inf_seg = Some(seg);
        }

        // (d) the manifest sealing the generation, then the fold
        let m = manifest::Manifest {
            term_count: total,
            chunks,
            segs: seg_names,
            inf: inf_name,
        };
        manifest::write_manifest(&self.dir, next, &m, crash)?;

        let folded = store.refold(
            store.interner.clone(),
            Layer::from_segments(fold_segs),
            inf_seg.map(|s| Layer::from_segments(vec![s])),
        );
        Ok((folded, m, stats))
    }

    /// Write one segment file tmp → fsync → rename, then open (mmap) the
    /// final file. Returns its byte size and the open segment.
    fn write_seg_file(
        &self,
        name: &str,
        count: u64,
        runs: [&mut dyn Iterator<Item = crate::index::IdTriple>; 3],
        crash: &CrashInjector,
    ) -> Result<(u64, Arc<Segment>), PersistError> {
        let io = |context: &'static str| {
            move |e: std::io::Error| PersistError::Io { context, source: e }
        };
        let tmp = self.dir.join(format!("{name}.tmp"));
        let final_path = self.dir.join(name);
        let bytes = crate::segment::write_segment(&tmp, count, runs, crash)?;
        File::open(&tmp)
            .and_then(|f| f.sync_all())
            .map_err(io("segment fsync"))?;
        fs::rename(&tmp, &final_path).map_err(io("segment rename"))?;
        sync_dir(&self.dir)?;
        let seg = Arc::new(Segment::open(&final_path)?);
        Ok((bytes, seg))
    }
}

/// Open (creating if needed) the store directory and run recovery: map the
/// current generation's segments, replay the WAL (truncating a torn tail),
/// and rematerialize inference *only if it is stale* — a generation with a
/// persisted closure and an empty WAL serves its first query without
/// decoding anything.
///
/// A generation past 0 without its manifest is refused with
/// [`PersistError::Corrupt`] and every file is left in place: opening it
/// empty would let the next checkpoint delete the data.
pub(crate) fn recover(
    dir: &Path,
    config: PersistConfig,
) -> Result<(Store, Journal, RecoveryReport), PersistError> {
    let dir = dir.to_owned();
    fs::create_dir_all(&dir)
        .map_err(|e| PersistError::Io { context: "create store dir", source: e })?;
    let generation = read_current(&dir)?;
    let mut store = if generation == 0 {
        Store::new()
    } else if manifest::manifest_path(&dir, generation).exists() {
        manifest::open_store(&dir, generation)?
    } else {
        return Err(missing_manifest(&dir, generation));
    };
    let checkpoint_triples = store.len();
    let wal_path = dir.join(format!("wal.{generation}.log"));
    let (replayed, truncation) = wal::replay(&wal_path, &mut store)?;
    if store.is_dirty() {
        store.materialize_inference();
    }
    let wal = Wal::open_append(&wal_path, config.fsync, Arc::clone(&config.crash), replayed)?;
    let recovery = RecoveryReport {
        generation,
        checkpoint_triples,
        wal_records_replayed: replayed,
        wal_truncation: truncation,
    };
    let inner = Inner { wal, generation, config, dead: false, last_checkpoint: None };
    Ok((store, Journal { dir, inner: Mutex::new(inner) }, recovery))
}

/// A recovered store and its journal, unassembled. Not a write path: open
/// a [`crate::SharedStore`] instead. Kept, with
/// [`into_parts`](PersistentStore::into_parts) and
/// [`log_mutations`](PersistentStore::log_mutations), for the benchmark
/// driver, which reopens a durable store read-only and times a WAL append.
#[doc(hidden)]
pub struct PersistentStore {
    store: Store,
    journal: Journal,
    recovery: RecoveryReport,
}

impl PersistentStore {
    /// Recover the directory (see [`crate::SharedStore::open`]).
    pub fn open(dir: impl AsRef<Path>, config: PersistConfig) -> Result<PersistentStore, PersistError> {
        let (store, journal, recovery) = recover(dir.as_ref(), config)?;
        Ok(PersistentStore { store, journal, recovery })
    }

    /// The recovered store, its journal and the recovery report. Writes to
    /// this store reach no WAL.
    pub fn into_parts(self) -> (Store, Journal, RecoveryReport) {
        (self.store, self.journal, self.recovery)
    }

    /// Append `mutations` as one WAL batch record, without applying them.
    pub fn log_mutations(&mut self, mutations: &[Mutation]) -> Result<(), PersistError> {
        let mut inner = self.journal.lock();
        inner.alive()?;
        inner.wal.append_batch(mutations)
    }
}

fn read_current(dir: &Path) -> Result<u64, PersistError> {
    let path = dir.join("CURRENT");
    match fs::read_to_string(&path) {
        Ok(text) => text.trim().parse().map_err(|_| PersistError::Corrupt {
            what: "CURRENT",
            detail: format!("not a generation number: {:?}", text.trim()),
        }),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
        Err(e) => Err(PersistError::Io { context: "read CURRENT", source: e }),
    }
}

/// The error for a generation `CURRENT` names but whose manifest is gone.
/// A `snapshot.<g>.bin` in its place was written by an older release that
/// checkpointed to a single file; this release does not read that format.
fn missing_manifest(dir: &Path, generation: u64) -> PersistError {
    let legacy = format!("snapshot.{generation}.bin");
    let detail = if dir.join(&legacy).exists() {
        format!(
            "generation {generation} is stored as {legacy}, a format this release no longer \
             reads; export it to N-Triples with the release that wrote it, then import that \
             file into an empty directory"
        )
    } else {
        format!("generation {generation} has no manifest: segments.{generation}.txt is missing")
    };
    PersistError::Corrupt { what: "CURRENT", detail }
}

#[cfg(unix)]
fn sync_dir(dir: &Path) -> Result<(), PersistError> {
    File::open(dir)
        .and_then(|f| f.sync_all())
        .map_err(|e| PersistError::Io { context: "fsync dir", source: e })
}

#[cfg(not(unix))]
fn sync_dir(_dir: &Path) -> Result<(), PersistError> {
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharedStore;
    use rdfa_model::{ntriples, Term};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rdfa-persist-{}-{}-{}",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn triple(i: usize) -> Triple {
        Triple::new(
            Term::iri(format!("http://e/s{i}")),
            Term::iri("http://e/p"),
            Term::integer(i as i64),
        )
    }

    fn open(dir: &Path) -> SharedStore {
        SharedStore::open(dir, PersistConfig::default()).unwrap()
    }

    /// Insert one triple in a transaction of its own.
    fn insert(h: &SharedStore, t: &Triple) -> Result<bool, PersistError> {
        h.transact(|txn| Ok(txn.store_mut().insert(t))).map(|(added, _)| added)
    }

    /// Remove one triple in a transaction of its own.
    fn remove(h: &SharedStore, t: &Triple) -> Result<bool, PersistError> {
        h.transact(|txn| Ok(txn.store_mut().remove(t))).map(|(removed, _)| removed)
    }

    fn load_turtle(h: &SharedStore, text: &str) {
        h.transact(|txn| txn.load_turtle(text)).unwrap();
    }

    /// Recompute the closure with a full pass, in a transaction of its own.
    fn materialize(h: &SharedStore) {
        h.transact(|txn| {
            txn.store_mut().materialize_inference();
            Ok::<_, PersistError>(())
        })
        .unwrap();
    }

    fn wal_records(h: &SharedStore) -> u64 {
        h.journal().unwrap().wal_records()
    }

    fn last_stats(h: &SharedStore) -> CheckpointStats {
        h.journal().unwrap().last_checkpoint_stats().unwrap()
    }

    #[test]
    fn roundtrip_through_wal_only() {
        let dir = tmpdir("wal-roundtrip");
        {
            let p = open(&dir);
            for i in 0..10 {
                assert!(insert(&p, &triple(i)).unwrap());
            }
            assert_eq!(wal_records(&p), 10);
            assert_eq!(p.journal().unwrap().generation(), 0);
        }
        let p = open(&dir);
        assert_eq!(p.snapshot().len(), 10);
        assert_eq!(p.recovery().unwrap().wal_records_replayed, 10);
        assert!(p.recovery().unwrap().wal_truncation.is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_compacts_and_bumps_generation() {
        let dir = tmpdir("checkpoint");
        {
            let p = open(&dir);
            for i in 0..5 {
                insert(&p, &triple(i)).unwrap();
            }
            assert_eq!(p.checkpoint().unwrap(), Some(1));
            assert_eq!(wal_records(&p), 0);
            for i in 5..8 {
                insert(&p, &triple(i)).unwrap();
            }
            assert_eq!(wal_records(&p), 3);
        }
        let p = open(&dir);
        assert_eq!(p.snapshot().len(), 8);
        assert_eq!(p.recovery().unwrap().generation, 1);
        assert_eq!(p.recovery().unwrap().checkpoint_triples, 5);
        assert_eq!(p.recovery().unwrap().wal_records_replayed, 3);
        // superseded generation-0 files were cleaned up
        assert!(!dir.join("wal.0.log").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_preserves_schema_and_inference() {
        let dir = tmpdir("inference");
        {
            let p = open(&dir);
            load_turtle(
                &p,
                r#"@prefix ex: <http://e/> .
                   @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
                   ex:Laptop rdfs:subClassOf ex:Product .
                   ex:l1 a ex:Laptop ."#,
            );
            p.checkpoint().unwrap();
        }
        let p = open(&dir);
        let product = p.snapshot().lookup_iri("http://e/Product").unwrap();
        assert_eq!(p.snapshot().instances_set(product).len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn remove_is_logged_and_survives_reopen() {
        let dir = tmpdir("remove");
        {
            let p = open(&dir);
            insert(&p, &triple(0)).unwrap();
            insert(&p, &triple(1)).unwrap();
            assert!(remove(&p, &triple(0)).unwrap());
            assert!(!remove(&p, &triple(7)).unwrap()); // absent → no-op, unlogged
        }
        let p = open(&dir);
        assert_eq!(p.snapshot().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Every file in `dir` with its bytes, sorted by name.
    fn dir_contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name().to_string_lossy().into_owned(), fs::read(e.path()).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    /// `CURRENT` names a generation whose manifest is gone: open refuses
    /// it and touches nothing, so no later checkpoint can delete the
    /// segments and term chunks the lost manifest named.
    #[test]
    fn generation_without_manifest_is_refused_and_kept() {
        let dir = tmpdir("no-manifest");
        {
            let p = open(&dir);
            for i in 0..20 {
                insert(&p, &triple(i)).unwrap();
            }
            p.checkpoint().unwrap();
        }
        fs::remove_file(dir.join("segments.1.txt")).unwrap();
        let before = dir_contents(&dir);
        assert!(before.iter().any(|(name, _)| name.starts_with("seg.1.")), "{before:?}");
        for _ in 0..2 {
            match SharedStore::open(&dir, PersistConfig::default()) {
                Err(PersistError::Corrupt { what: "CURRENT", detail }) => {
                    assert!(detail.contains("segments.1.txt is missing"), "{detail}");
                }
                other => panic!("expected a refusal, got {other:?}"),
            }
            assert_eq!(dir_contents(&dir), before, "a refused open changes no file");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A directory whose current generation is a single-file snapshot from
    /// an older release is refused with the way out, never read or deleted.
    #[test]
    fn legacy_snapshot_generation_is_refused_and_kept() {
        let dir = tmpdir("legacy");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("CURRENT"), "3\n").unwrap();
        fs::write(dir.join("snapshot.3.bin"), b"RDFASNP1 older release").unwrap();
        fs::write(dir.join("wal.3.log"), b"").unwrap();
        let before = dir_contents(&dir);
        match SharedStore::open(&dir, PersistConfig::default()) {
            Err(e @ PersistError::Corrupt { what: "CURRENT", .. }) => {
                let msg = e.to_string();
                assert!(msg.contains("snapshot.3.bin"), "{msg}");
                assert!(msg.contains("N-Triples"), "{msg}");
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
        assert_eq!(dir_contents(&dir), before, "a refused open changes no file");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_wal_byte_truncates_to_good_prefix() {
        let dir = tmpdir("flip-wal");
        {
            let p = open(&dir);
            for i in 0..10 {
                insert(&p, &triple(i)).unwrap();
            }
        }
        let wal = dir.join("wal.0.log");
        let mut bytes = fs::read(&wal).unwrap();
        // flip a byte inside the 6th record's body
        let target = (bytes.len() / 10) * 5 + 12;
        bytes[target] ^= 0x10;
        fs::write(&wal, &bytes).unwrap();
        let p = open(&dir);
        let trunc = p.recovery().unwrap().wal_truncation.clone().expect("truncation reported");
        assert!(trunc.reason.contains("checksum"), "{trunc:?}");
        // a strict prefix survived, and it is a prefix (triples 0..n)
        let n = p.recovery().unwrap().wal_records_replayed as usize;
        assert!(n < 10);
        assert_eq!(p.snapshot().len(), n);
        for i in 0..n {
            let t = triple(i);
            let ids = [
                p.snapshot().lookup(&t.subject).unwrap(),
                p.snapshot().lookup(&t.predicate).unwrap(),
                p.snapshot().lookup(&t.object).unwrap(),
            ];
            assert!(p.snapshot().contains(ids), "triple {i} missing from recovered prefix");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn export_ntriples_fallback_parses_back() {
        let dir = tmpdir("export");
        let p = open(&dir);
        load_turtle(&p, r#"@prefix ex: <http://e/> . ex:a ex:p "tricky \"value\"\n" ."#);
        let out = dir.join("fallback.nt");
        p.export_ntriples(&out).unwrap();
        let graph = ntriples::parse(&fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(graph.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_crash_poisons_handle_and_recovery_sees_prefix() {
        let dir = tmpdir("poison");
        let config = PersistConfig {
            fsync: FsyncPolicy::Always,
            crash: CrashInjector::at("wal.append.torn-body", 4),
            ..PersistConfig::default()
        };
        let p = SharedStore::open(&dir, config).unwrap();
        let mut acked = 0;
        let mut crashed = false;
        for i in 0..10 {
            match insert(&p, &triple(i)) {
                Ok(_) => acked += 1,
                Err(PersistError::InjectedCrash { point }) => {
                    assert_eq!(point, "wal.append.torn-body");
                    crashed = true;
                    break;
                }
                Err(other) => panic!("{other}"),
            }
        }
        assert!(crashed);
        assert!(p.journal().unwrap().is_dead());
        assert!(matches!(insert(&p, &triple(99)), Err(PersistError::Dead)));
        drop(p);
        let p = open(&dir);
        let trunc = p.recovery().unwrap().wal_truncation.clone().expect("torn record cut off");
        assert!(trunc.reason.contains("torn") || trunc.reason.contains("checksum"), "{trunc:?}");
        assert_eq!(p.snapshot().len(), acked);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_checkpoint_roundtrips_and_reopens_clean() {
        let dir = tmpdir("seg-roundtrip");
        {
            let p = open(&dir);
            load_turtle(
                &p,
                r#"@prefix ex: <http://e/> .
                   @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
                   ex:Laptop rdfs:subClassOf ex:Product .
                   ex:l1 a ex:Laptop . ex:l2 a ex:Laptop ."#,
            );
            assert_eq!(p.checkpoint().unwrap(), Some(1));
            // the fold left a segment-backed, clean store with empty overlay
            let stats = p.snapshot().segment_stats();
            assert!(stats.segments >= 1);
            assert_eq!((stats.overlay_adds, stats.overlay_dels), (0, 0));
            assert!(!p.snapshot().is_dirty());
        }
        let p = open(&dir);
        // recovery mapped segments, closure persisted → the store comes up
        // clean without recomputing inference
        assert!(dir.join("segments.1.txt").exists());
        assert!(!p.snapshot().is_dirty());
        let stats = p.snapshot().segment_stats();
        assert!(stats.segments >= 2, "explicit + inf segments, got {stats:?}");
        let product = p.snapshot().lookup_iri("http://e/Product").unwrap();
        assert_eq!(p.snapshot().instances_set(product).len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_checkpoint_shares_unchanged_base() {
        let dir = tmpdir("seg-share");
        let p = open(&dir);
        for i in 0..300 {
            insert(&p, &triple(i)).unwrap();
        }
        materialize(&p);
        p.checkpoint().unwrap();
        let first = last_stats(&p);
        assert!(first.segments_written >= 1);
        assert_eq!(first.segments_shared, 0);
        assert_eq!(first.terms_written, p.snapshot().term_count());

        // a small delta: the base segment and all terms are re-referenced
        insert(&p, &triple(1000)).unwrap();
        let terms_before = p.snapshot().term_count();
        materialize(&p);
        p.checkpoint().unwrap();
        let second = last_stats(&p);
        assert!(
            second.segments_shared >= 1,
            "unchanged base segment must be shared: {second:?}"
        );
        assert!(second.segment_bytes_written < first.segment_bytes_written);
        assert!(second.terms_shared >= first.terms_written);
        assert_eq!(second.terms_shared + second.terms_written, terms_before);

        // no churn at all: nothing new is written for the explicit layer
        p.checkpoint().unwrap();
        let third = last_stats(&p);
        assert_eq!(third.terms_written, 0);
        assert!(third.segments_shared >= 2, "{third:?}");
        drop(p);
        let p = open(&dir);
        assert_eq!(p.snapshot().len(), 301);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A transaction and a checkpoint over a reopened store pay for the
    /// terms they add: neither decodes a term held in a persisted chunk.
    #[test]
    fn checkpoint_after_reopen_decodes_no_persisted_term() {
        let dir = tmpdir("lazy-terms");
        let p = open(&dir);
        for i in 0..300 {
            insert(&p, &triple(i)).unwrap();
        }
        p.checkpoint().unwrap();
        drop(p);
        let p = open(&dir);
        let decoded = p.snapshot().interner.decoded();
        let fresh = Triple::new(
            Term::iri("http://e/fresh-s"),
            Term::iri("http://e/fresh-p"),
            Term::string("fresh"),
        );
        let has_fresh = |s: &Store| {
            let [a, b, c] = [&fresh.subject, &fresh.predicate, &fresh.object].map(|t| s.lookup(t));
            matches!((a, b, c), (Some(a), Some(b), Some(c)) if s.contains([a, b, c]))
        };
        assert!(insert(&p, &fresh).unwrap());
        p.checkpoint().unwrap();
        assert_eq!(last_stats(&p).terms_written, 3);
        assert_eq!(p.snapshot().interner.decoded(), decoded, "a persisted term was decoded");
        assert!(has_fresh(&p.snapshot()));
        drop(p);
        assert!(has_fresh(&open(&dir).snapshot()));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A store checkpointed by the previous format (version-1 segments: no
    /// restart points) opens and answers as before, keeps sharing those
    /// files while they are unchanged, and writes restart-point segments
    /// from its next delta or compaction on — there is no migration step.
    #[test]
    fn v1_segments_open_and_fold_into_restart_segments() {
        use crate::segment::{write_segment_with, BLOCK_TRIPLES, RESTART_INTERVAL};
        let intervals = |p: &SharedStore| -> Vec<usize> {
            let p = p.snapshot();
            let explicit = p.explicit.as_seg().expect("segment-backed");
            explicit.segs.iter().map(|s| s.restart_interval()).collect()
        };
        let holds = |p: &SharedStore, i: usize| {
            let t = triple(i);
            let p = p.snapshot();
            match (p.lookup(&t.subject), p.lookup(&t.predicate), p.lookup(&t.object)) {
                (Some(s), Some(pr), Some(o)) => p.contains([s, pr, o]),
                _ => false,
            }
        };
        let dir = tmpdir("seg-v1");
        {
            let p = open(&dir);
            for i in 0..2500 {
                insert(&p, &triple(i)).unwrap();
            }
            materialize(&p);
            p.checkpoint().unwrap();
        }
        // rewrite every segment file in the version-1 layout, in place
        for entry in fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "seg") {
                let seg = Segment::open(&path).unwrap();
                let mut runs = Perm::ALL.map(|perm| seg.iter_perm(perm));
                let [spo, pos, osp] = &mut runs;
                let tmp = path.with_extension("v1");
                write_segment_with(&tmp, seg.len(), [spo, pos, osp], BLOCK_TRIPLES, &CrashInjector::off())
                    .unwrap();
                fs::rename(&tmp, &path).unwrap();
            }
        }
        let p = open(&dir);
        assert_eq!(intervals(&p), [BLOCK_TRIPLES]);
        assert_eq!(p.snapshot().len(), 2500);
        assert!((0..2500).all(|i| holds(&p, i)) && !holds(&p, 2500));

        // a delta is written beside the shared v1 base, with restart points
        insert(&p, &triple(2500)).unwrap();
        materialize(&p);
        p.checkpoint().unwrap();
        assert_eq!(intervals(&p), [BLOCK_TRIPLES, RESTART_INTERVAL]);

        // a tombstone compacts the stack: the v1 file is folded away
        assert!(remove(&p, &triple(7)).unwrap());
        materialize(&p);
        p.checkpoint().unwrap();
        assert_eq!(intervals(&p), [RESTART_INTERVAL]);
        drop(p);
        let p = open(&dir);
        assert_eq!(intervals(&p), [RESTART_INTERVAL]);
        assert_eq!(p.snapshot().len(), 2500);
        assert!((0..=2500).all(|i| holds(&p, i) == (i != 7)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_checkpoint_compacts_after_removals() {
        let dir = tmpdir("seg-compact");
        let p = open(&dir);
        for i in 0..50 {
            insert(&p, &triple(i)).unwrap();
        }
        materialize(&p);
        p.checkpoint().unwrap();
        // tombstones force the next checkpoint to compact (no sharing)
        assert!(remove(&p, &triple(0)).unwrap());
        materialize(&p);
        p.checkpoint().unwrap();
        let stats = last_stats(&p);
        assert_eq!(stats.segments_shared, 0, "tombstoned base must compact: {stats:?}");
        drop(p);
        let p = open(&dir);
        assert_eq!(p.snapshot().len(), 49);
        assert!(!p.snapshot().lookup(&triple(0).subject).map(|s| {
            p.snapshot().matching_explicit(Some(s), None, None).next().is_some()
        }).unwrap_or(false));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_mutations_after_fold_wal_replay_correctly() {
        let dir = tmpdir("seg-wal");
        {
            let p = open(&dir);
            for i in 0..30 {
                insert(&p, &triple(i)).unwrap();
            }
            materialize(&p);
            p.checkpoint().unwrap();
            // post-fold mutations land in the overlay AND the new WAL
            insert(&p, &triple(100)).unwrap();
            assert!(remove(&p, &triple(3)).unwrap());
            assert_eq!(wal_records(&p), 2);
        }
        let p = open(&dir);
        assert_eq!(p.snapshot().len(), 30); // 30 - 1 + 1
        assert_eq!(p.recovery().unwrap().wal_records_replayed, 2);
        let stats = p.snapshot().segment_stats();
        assert_eq!(stats.overlay_adds, 1);
        assert_eq!(stats.overlay_dels, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// CI sweep hook: with `RDFA_CRASHPOINT` set (e.g. `sample:0.05` +
    /// `RDFA_CRASHPOINT_SEED`), this test drives a seeded workload through
    /// the env-armed injector and asserts recovery lands on a consistent
    /// prefix. Without the env var it runs a fixed sampled schedule so the
    /// path is always exercised.
    #[test]
    fn env_driven_crash_sampling_recovers() {
        let dir = tmpdir("env-sample");
        let crash = if std::env::var("RDFA_CRASHPOINT").is_ok() {
            CrashInjector::from_env()
        } else {
            CrashInjector::sampled(1234, 0.05)
        };
        let config = PersistConfig { fsync: FsyncPolicy::EveryN(2), crash, ..PersistConfig::default() };
        let mut acked = 0usize;
        {
            let p = SharedStore::open(&dir, config).unwrap();
            for i in 0..50 {
                match insert(&p, &triple(i)) {
                    Ok(_) => acked += 1,
                    Err(_) => break,
                }
                if i % 10 == 9 && p.checkpoint().is_err() {
                    break;
                }
            }
        }
        let p = open(&dir);
        // every acknowledged insert survived; at most one torn-but-complete
        // record beyond that may also have made it
        let n = p.snapshot().len();
        assert!(n >= acked, "lost acknowledged data: {n} < {acked}");
        assert!(n <= acked + 1, "phantom data: {n} > {acked}+1");
        fs::remove_dir_all(&dir).unwrap();
    }
}
