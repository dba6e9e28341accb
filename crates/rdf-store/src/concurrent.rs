//! The store handle: snapshot-isolated reads over the [`Store`], and one
//! durable commit path for every write.
//!
//! The interactive-analytics workload (continuous facet/query traffic with
//! interleaved updates — the SOFOS assumption) cannot afford a store-wide
//! reader/writer lock: one bulk `INSERT` stalls every reader, and a panic
//! inside a writer poisons the lock for everyone. [`SharedStore`] removes
//! both failure modes with a copy-on-write publish protocol:
//!
//! - **Readers** call [`SharedStore::snapshot`] and receive a [`Snapshot`]
//!   — an `Arc` over an immutable [`Store`]. Taking one is an `Arc` clone
//!   behind a pointer-sized critical section (nanoseconds); holding one
//!   never blocks anybody. A snapshot observes exactly one published
//!   generation, forever: queries, facet markers and serialization all see
//!   a single consistent state no matter what writers do meanwhile.
//! - **Writers** call [`SharedStore::transact`]. A transaction clones the
//!   current `Arc` and mutates it through `Arc::make_mut`. Because the
//!   published pointer always co-owns the base version, the first mutation
//!   clones the [`Store`] — but a store is built to be cloned: each triple
//!   index is a vector of `Arc`-shared chunks of at most 1024 triples (see
//!   [`crate::index`]), the term dictionary is a list of `Arc`-shared
//!   chunks with an empty tail (publishing freezes the tail into a new
//!   chunk, see [`crate::interner`]), and a segment-backed layer is a list
//!   of `Arc<Segment>` plus its overlay. The clone therefore copies
//!   pointers — a few thousand for half a million triples — and each
//!   insert or remove then copies the one chunk per permutation it lands
//!   in. A transaction costs O(|delta|) chunk copies and term interns
//!   whatever the store's size, readers still never block, and publishing
//!   is a single pointer swap. The superseded generation is
//!   freed the same way: dropping it releases the chunks no newer
//!   generation shares.
//! - **A failed or panicking transaction publishes nothing and logs
//!   nothing.** The working copy is dropped, any WAL record the
//!   transaction appended is cut off again, and readers keep resolving
//!   against the last published generation. The writer mutex recovers from
//!   poison (it guards no data, only writer ordering), so the next writer
//!   proceeds normally.
//!
//! # The commit protocol
//!
//! A durable handle ([`SharedStore::open`]) adds a [`Journal`]: the WAL
//! plus the checkpoint machinery. A non-durable one ([`SharedStore::new`])
//! is the same type without it. Either way there is one commit path,
//! [`SharedStore::transact`]:
//!
//! 1. The log comes from the store, not from the caller. A durable
//!    transaction's working store records every effective explicit change
//!    at the funnel that inserts and removes share, so whatever mutates
//!    [`Txn::store_mut`] — a SPARQL update, a bulk load, a plain insert —
//!    is logged. A no-op insert or remove records nothing.
//! 2. A WAL record is appended only under the journal-lock hold that
//!    publishes it. A transaction takes the lock at its first append (a
//!    streamed load logs one `OP_LOAD` per parsed block) and keeps it until
//!    it publishes; the recorded changes go out as one `OP_BATCH` record
//!    just before the publish.
//! 3. Publishing is one pointer swap, the last step of a successful
//!    transaction, and the one place a new generation becomes visible.
//!
//! A checkpoint ([`SharedStore::checkpoint`]) captures its view under the
//! same lock, so it can never rotate away a logged batch that is not yet
//! visible: every acknowledged write is in the checkpoint or in the WAL.
//!
//! The existing [`Store::generation`] counter is the versioning spine:
//! every published generation carries a distinct counter value, so caches
//! keyed by generation (the facet cache) remain correct across snapshots.
//!
//! This mirrors the storage/transaction layering of Oxigraph (immutable
//! reader over a versioned store, transactions applied privately and
//! committed atomically), scaled down to the in-memory engine.

use crate::bulk::{BlockReader, BulkLoader, LoadStats};
use crate::persist::wal::{Wal, WalMark};
use crate::persist::{
    self, Inner, Journal, Mutation, PersistConfig, PersistError, RecoveryReport,
};
use crate::store::Store;
use rdfa_model::{ntriples, turtle, Graph, Triple};
use std::borrow::Cow;
use std::io::Write;
use std::ops::Deref;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// An immutable, consistently-versioned view of a [`Store`].
///
/// Cloning is an `Arc` clone. Dereferences to [`Store`], so the whole read
/// API (queries, posting runs, facet kernels, serialization) works on a
/// snapshot unchanged. Two snapshots with equal [`Snapshot::generation`]
/// are views of the identical store state.
#[derive(Debug, Clone)]
pub struct Snapshot(Arc<Store>);

impl Snapshot {
    /// The published generation this snapshot observes.
    pub fn generation(&self) -> u64 {
        self.0.generation()
    }

    /// The underlying shared store, for callers that need the `Arc` itself
    /// (e.g. to move a view into a worker thread without re-snapshotting).
    pub fn into_arc(self) -> Arc<Store> {
        self.0
    }
}

impl Deref for Snapshot {
    type Target = Store;

    fn deref(&self) -> &Store {
        &self.0
    }
}

impl From<Store> for Snapshot {
    fn from(store: Store) -> Self {
        Snapshot(Arc::new(store))
    }
}

/// The published generation plus writer serialization, without a journal:
/// the engine inside [`SharedStore`]. Its own write transactions
/// ([`SnapshotStore::begin_write`]) log nothing.
pub struct SnapshotStore {
    /// The published generation. The `RwLock` is held only for the duration
    /// of an `Arc` clone (readers) or a pointer swap (writers) — never
    /// across a query, a batch application, or I/O.
    current: RwLock<Arc<Store>>,
    /// Serializes writers. Guards no data — a poisoned guard (writer
    /// panicked) is recovered, because the published state is unaffected by
    /// definition: publication is the last step of a successful commit.
    writer: Mutex<()>,
}

impl SnapshotStore {
    /// Wrap a store for concurrent serving, publishing it as the first
    /// generation (its dictionary tail frozen, as at every publish).
    pub fn new(mut store: Store) -> Self {
        store.interner.freeze();
        SnapshotStore { current: RwLock::new(Arc::new(store)), writer: Mutex::new(()) }
    }

    /// The current published snapshot. Never blocks on writers applying
    /// batches — only on the instantaneous publish swap itself.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot(Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner())))
    }

    /// Begin a write transaction: serializes against other writers, hands
    /// out a private working copy. Nothing is visible to readers until
    /// [`WriteTxn::commit`]; dropping the transaction rolls it back.
    pub fn begin_write(&self) -> WriteTxn<'_> {
        let guard = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let working = Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()));
        WriteTxn { owner: self, _guard: guard, working }
    }

    /// Swap in an *observationally identical* replacement for `view` — the
    /// folded store a segment checkpoint returns — iff `view` is still the
    /// published generation. Never blocks: if a writer holds the lock or
    /// has published past `view`, the fold is simply discarded (`false`);
    /// correctness is unaffected because the fold equals the view. On
    /// success readers transparently migrate from the in-memory overlay to
    /// the freshly persisted mmap segments.
    fn try_replace_equivalent(&self, view: &Arc<Store>, folded: Store) -> bool {
        let Ok(_guard) = self.writer.try_lock() else {
            return false;
        };
        let mut current = self.current.write().unwrap_or_else(|e| e.into_inner());
        if !Arc::ptr_eq(&current, view) {
            return false;
        }
        *current = Arc::new(folded);
        true
    }
}

impl std::fmt::Debug for SnapshotStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("SnapshotStore")
            .field("generation", &snap.generation())
            .field("triples", &snap.len())
            .finish()
    }
}

/// An in-flight write: a private working version of the store plus the
/// writer serialization guard. Mutations through [`WriteTxn::store_mut`]
/// stay invisible until [`WriteTxn::commit`]; dropping the transaction
/// without committing discards them.
pub struct WriteTxn<'a> {
    owner: &'a SnapshotStore,
    _guard: MutexGuard<'a, ()>,
    working: Arc<Store>,
}

impl WriteTxn<'_> {
    /// Mutable access to the private working copy. Copy-on-write: the
    /// first call clones the store's chunk and segment pointers (the
    /// published pointer still shares the base `Arc`), sharing every chunk
    /// with the published generation until a mutation touches it; later
    /// calls in the same transaction return the now-unique copy directly.
    pub fn store_mut(&mut self) -> &mut Store {
        Arc::make_mut(&mut self.working)
    }

    /// Read access to the working copy (sees this transaction's own
    /// uncommitted mutations).
    pub fn store(&self) -> &Store {
        &self.working
    }

    /// Publish the working copy as the next generation: a single pointer
    /// swap under the publish lock. Readers that snapshotted earlier keep
    /// their generation; new snapshots see this one.
    pub fn commit(mut self) {
        self.publish();
    }

    fn publish(&mut self) -> Snapshot {
        // the terms this transaction interned become a shared chunk, so the
        // next transaction's clone copies chunk pointers, not terms (an
        // untouched working copy is the published store, already frozen)
        if let Some(store) = Arc::get_mut(&mut self.working) {
            store.interner.freeze();
        }
        let published = Arc::clone(&self.working);
        *self.owner.current.write().unwrap_or_else(|e| e.into_inner()) = Arc::clone(&published);
        Snapshot(published)
    }
}

/// The one store handle: a [`SnapshotStore`], plus a [`Journal`] and the
/// [`RecoveryReport`] when it is durable. See the module docs for the
/// commit protocol.
pub struct SharedStore {
    store: SnapshotStore,
    journal: Option<Journal>,
    recovery: Option<RecoveryReport>,
}

impl SharedStore {
    /// A non-durable handle over `store`: transactions publish and log
    /// nothing.
    pub fn new(store: Store) -> SharedStore {
        SharedStore { store: SnapshotStore::new(store), journal: None, recovery: None }
    }

    /// Open (creating if needed) a durable store directory, running
    /// recovery: map the current generation's segments, replay the WAL
    /// (truncating a torn tail), and rematerialize inference only if it is
    /// stale. A generation past 0 whose manifest is gone is refused with
    /// [`PersistError::Corrupt`], and no file is touched.
    pub fn open(dir: impl AsRef<Path>, config: PersistConfig) -> Result<SharedStore, PersistError> {
        let (store, journal, recovery) = persist::recover(dir.as_ref(), config)?;
        Ok(SharedStore {
            store: SnapshotStore::new(store),
            journal: Some(journal),
            recovery: Some(recovery),
        })
    }

    /// The current published snapshot — an atomic `Arc` clone; no lock is
    /// held after this returns.
    pub fn snapshot(&self) -> Snapshot {
        self.store.snapshot()
    }

    /// The journal, when durable.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// What recovery found, when durable.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Run `f` on a private working copy, then log and publish what it did
    /// as one transaction. Returns `f`'s value and the snapshot published.
    ///
    /// An `Err` from `f`, a panic inside it, or a failed WAL append
    /// publishes nothing, and any record the transaction appended is cut
    /// off again. `f` may take snapshots of this handle, but must not start
    /// another transaction or checkpoint on it, or read its journal: the
    /// writer lock is held throughout, and on a durable handle the journal
    /// lock from the first append to the publish.
    pub fn transact<R, E: From<PersistError>>(
        &self,
        f: impl FnOnce(&mut Txn<'_>) -> Result<R, E>,
    ) -> Result<(R, Snapshot), E> {
        let mut txn = Txn {
            write: self.store.begin_write(),
            journal: self.journal.as_ref(),
            held: None,
            recording: false,
            published: false,
        };
        let value = f(&mut txn)?;
        let snapshot = txn.publish()?;
        Ok((value, snapshot))
    }

    /// Checkpoint a durable handle (`Ok(None)` for a non-durable one): write
    /// the next generation's segments and manifest, rotate the WAL, and
    /// flip `CURRENT`, all via temp file + atomic rename + fsync, so a
    /// crash at any point leaves a complete generation behind. A stale
    /// RDFS closure is refreshed first, in a transaction of its own, so the
    /// generation persists it instead of leaving every restart to
    /// recompute it. The view is captured under the journal lock.
    ///
    /// The checkpoint also *folds*: the equivalent store rebuilt on the
    /// freshly persisted mmap segments (empty overlay, the view's term
    /// chunks) is swapped in for the published view, so the next write
    /// transaction clones an overlay, not the whole store. The swap is
    /// best-effort — if a transaction published in between, the current
    /// overlay simply survives until the next checkpoint.
    pub fn checkpoint(&self) -> Result<Option<u64>, PersistError> {
        let Some(journal) = &self.journal else {
            return Ok(None);
        };
        if self.snapshot().is_dirty() {
            self.transact(|txn| {
                txn.store_mut().refresh_inference();
                Ok::<_, PersistError>(())
            })?;
        }
        let mut view = None;
        let (generation, folded) =
            journal.checkpoint(|| view.insert(self.store.snapshot()).clone())?;
        if let Some(view) = view {
            let _ = self.store.try_replace_equivalent(&view.into_arc(), folded);
        }
        Ok(Some(generation))
    }

    /// Write the published explicit triples as N-Triples: a human-readable,
    /// tool-compatible dump, usable when the binary files cannot be (a
    /// format from another release, external tooling, manual recovery).
    pub fn export_ntriples(&self, path: impl AsRef<Path>) -> Result<(), PersistError> {
        let io = |e: std::io::Error| PersistError::Io { context: "ntriples export", source: e };
        let text = ntriples::serialize(&self.snapshot().to_graph());
        let mut file = std::fs::File::create(path).map_err(io)?;
        file.write_all(text.as_bytes()).map_err(io)?;
        file.sync_all().map_err(io)
    }
}

impl From<Store> for SharedStore {
    fn from(store: Store) -> Self {
        SharedStore::new(store)
    }
}

impl std::fmt::Debug for SharedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedStore")
            .field("store", &self.store)
            .field("dir", &self.journal.as_ref().map(Journal::dir))
            .finish()
    }
}

/// A [`SharedStore::transact`] transaction: the private working copy, the
/// writer guard, and — once it has appended — the journal lock.
pub struct Txn<'a> {
    write: WriteTxn<'a>,
    journal: Option<&'a Journal>,
    /// The journal lock and the log's end before the first append, held
    /// from that append until the transaction publishes or rolls back.
    held: Option<(MutexGuard<'a, Inner>, WalMark)>,
    /// The working store is recording its changes for the WAL.
    recording: bool,
    published: bool,
}

impl Txn<'_> {
    /// Read access to the working copy, this transaction's changes included.
    pub fn store(&self) -> &Store {
        self.write.store()
    }

    /// Mutable access to the working copy. On a durable handle every
    /// effective explicit change made through it is recorded and logged at
    /// publish; replacing the store wholesale is refused at publish.
    pub fn store_mut(&mut self) -> &mut Store {
        let store = self.write.store_mut();
        if self.journal.is_some() && !self.recording {
            store.log = Some(Vec::new());
            self.recording = true;
        }
        store
    }

    /// Bulk-load an N-Triples document and materialize inference, logged
    /// as one `OP_LOAD` record. The document is parsed before it is logged,
    /// so the WAL never holds an unparsable record.
    pub fn load_ntriples(&mut self, text: &str) -> Result<LoadStats, PersistError> {
        self.load_blocks(std::iter::once(Ok(Cow::Borrowed(text))))
    }

    /// Stream-load an N-Triples file in newline-aligned ~4 MiB blocks,
    /// logging one `OP_LOAD` record per block after it parsed. A crash
    /// mid-file recovers a prefix of whole blocks.
    pub fn load_ntriples_path(
        &mut self,
        path: impl AsRef<Path>,
    ) -> Result<LoadStats, PersistError> {
        let read = |context| move |e| PersistError::Io { context, source: e };
        let file = std::fs::File::open(path).map_err(read("open ntriples file"))?;
        let mut blocks = BlockReader::new(file);
        let blocks = std::iter::from_fn(move || {
            blocks.next_block().map_err(read("read ntriples file")).transpose()
        });
        self.load_blocks(blocks.map(|b| b.map(Cow::Owned)))
    }

    /// Load a parsed graph (logged as its N-Triples text) and materialize
    /// inference.
    pub fn load_graph(&mut self, graph: &Graph) -> Result<LoadStats, PersistError> {
        self.load_ntriples(&ntriples::serialize(graph))
    }

    /// Parse and load a Turtle document; returns the parsed triple count.
    pub fn load_turtle(&mut self, text: &str) -> Result<usize, PersistError> {
        let graph = turtle::parse(text).map_err(|e| PersistError::Turtle(e.to_string()))?;
        Ok(self.load_graph(&graph)?.triples)
    }

    fn load_blocks<'t>(
        &mut self,
        blocks: impl Iterator<Item = Result<Cow<'t, str>, PersistError>>,
    ) -> Result<LoadStats, PersistError> {
        // changes recorded before the load go to the log first, so replay
        // applies them in the order they happened
        self.log_recorded()?;
        self.hold()?;
        let mut wal = self.held.as_mut().map(|(inner, _)| &mut inner.wal);
        let store = self.write.store_mut();
        // the load is logged as its text, not triple by triple
        let recorded = store.log.take();
        let mark = wal.as_ref().map(|wal| wal.mark());
        let stats = load_logged(store, wal.as_deref_mut(), blocks);
        store.log = recorded;
        if let (Err(_), Some(wal), Some(mark)) = (&stats, wal, mark) {
            // a load that fails leaves the store as it was, so it leaves
            // the log as it was too
            let _ = wal.rollback(mark);
        }
        stats
    }

    /// Take the journal lock for the rest of the transaction (durable
    /// handles only), failing on a poisoned handle.
    fn hold(&mut self) -> Result<Option<&mut Wal>, PersistError> {
        let Some(journal) = self.journal else {
            return Ok(None);
        };
        if self.held.is_none() {
            let inner = journal.lock();
            inner.alive()?;
            let mark = inner.wal.mark();
            self.held = Some((inner, mark));
        }
        Ok(self.held.as_mut().map(|(inner, _)| &mut inner.wal))
    }

    /// Append the changes recorded since the last append as one `OP_BATCH`
    /// record.
    fn log_recorded(&mut self) -> Result<(), PersistError> {
        if !self.recording {
            return Ok(());
        }
        let store = self.write.store_mut();
        let Some(log) = &mut store.log else {
            return Err(PersistError::Corrupt {
                what: "transaction",
                detail: "the working store was replaced, so its changes were not recorded"
                    .to_owned(),
            });
        };
        if log.is_empty() {
            return Ok(());
        }
        let log = std::mem::take(log);
        let term = |id| store.term(id).clone();
        let batch: Vec<Mutation> = log
            .into_iter()
            .map(|([s, p, o], inserted)| {
                let t = Triple::new(term(s), term(p), term(o));
                if inserted {
                    Mutation::Insert(t)
                } else {
                    Mutation::Remove(t)
                }
            })
            .collect();
        if let Some(wal) = self.hold()? {
            wal.append_batch(&batch)?;
        }
        Ok(())
    }

    /// Log what is left, then publish under the journal lock: the one place
    /// a new generation becomes visible.
    fn publish(mut self) -> Result<Snapshot, PersistError> {
        self.log_recorded()?;
        self.hold()?;
        if self.recording {
            self.write.store_mut().log = None;
        }
        let snapshot = self.write.publish();
        self.published = true;
        Ok(snapshot)
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        // a transaction that does not publish leaves no record behind
        if let (false, Some((inner, mark))) = (self.published, &mut self.held) {
            if inner.wal.mark() != *mark {
                let _ = inner.wal.rollback(*mark);
            }
        }
    }
}

/// Parse each block, log it when there is a WAL, then stage it; build the
/// indexes once and materialize inference at the end.
fn load_logged<'t>(
    store: &mut Store,
    mut wal: Option<&mut Wal>,
    blocks: impl Iterator<Item = Result<Cow<'t, str>, PersistError>>,
) -> Result<LoadStats, PersistError> {
    let mut loader = BulkLoader::new(store);
    for block in blocks {
        let block = block?;
        let batch = loader.parse(&block).map_err(PersistError::Ntriples)?;
        if let Some(wal) = wal.as_deref_mut() {
            wal.append_load(&block)?;
        }
        loader.apply(batch);
    }
    Ok(loader.finish(true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfa_model::Term;

    /// Run `f` on the working store in a transaction of its own.
    fn write<R>(shared: &SharedStore, f: impl FnOnce(&mut Store) -> R) -> R {
        shared.transact(|txn| Ok::<_, PersistError>(f(txn.store_mut()))).unwrap().0
    }

    fn triple(i: usize) -> Triple {
        Triple::new(
            Term::iri(format!("http://e/s{i}")),
            Term::iri("http://e/p"),
            Term::integer(i as i64),
        )
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("rdfa-handle-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn durable(dir: &Path) -> SharedStore {
        SharedStore::open(dir, PersistConfig::default()).unwrap()
    }

    fn wal_records(h: &SharedStore) -> u64 {
        h.journal().unwrap().wal_records()
    }

    /// The explicit triples as sorted N-Triples lines (ids may differ
    /// between a live store and its replay).
    fn contents(store: &Store) -> Vec<String> {
        let mut lines: Vec<String> = store
            .iter_explicit()
            .map(|[s, p, o]| {
                Triple::new(store.term(s).clone(), store.term(p).clone(), store.term(o).clone())
                    .to_string()
            })
            .collect();
        lines.sort();
        lines
    }

    #[test]
    fn a_no_op_insert_or_remove_logs_nothing() {
        let dir = tmpdir("noop");
        let h = durable(&dir);
        write(&h, |s| {
            s.insert(&triple(0));
            s.insert(&triple(1));
        });
        assert_eq!(wal_records(&h), 1);
        assert!(!write(&h, |s| s.insert(&triple(0))));
        assert_eq!(wal_records(&h), 1, "re-inserting a present triple appends no record");
        assert!(!write(&h, |s| s.remove(&triple(9))));
        assert_eq!(wal_records(&h), 1, "removing an absent triple appends no record");
        let live = contents(&h.snapshot());
        drop(h);
        let h = durable(&dir);
        assert_eq!(h.recovery().unwrap().wal_records_replayed, 1);
        assert_eq!(contents(&h.snapshot()), live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_change_through_store_mut_is_logged() {
        // a bulk load, an insert undone in the same transaction, and an
        // insert: all of it reaches the log as one batch, in order
        let dir = tmpdir("funnel");
        let h = durable(&dir);
        write(&h, |s| {
            let doc = "<http://e/a> <http://e/p> <http://e/b> .\n<http://e/c> <http://e/p> <http://e/d> .\n";
            s.load_ntriples(doc).unwrap();
            s.insert(&triple(0));
            s.remove(&triple(0));
            s.insert(&triple(1));
        });
        assert_eq!(wal_records(&h), 1, "one batch record per transaction");
        let live = contents(&h.snapshot());
        assert_eq!(live.len(), 3);
        drop(h);
        assert_eq!(contents(&durable(&dir).snapshot()), live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn changes_before_a_load_replay_before_it() {
        // remove a triple, then load it again: the remove is logged ahead of
        // the load, so replay ends with the triple present, as live does
        let dir = tmpdir("order");
        let h = durable(&dir);
        write(&h, |s| {
            s.insert(&triple(3));
        });
        h.transact(|txn| {
            assert!(txn.store_mut().remove(&triple(3)));
            txn.load_ntriples(&triple(3).to_string())
        })
        .unwrap();
        assert_eq!(wal_records(&h), 3, "insert batch, remove batch, load");
        assert_eq!(h.snapshot().len(), 1);
        drop(h);
        assert_eq!(durable(&dir).snapshot().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_or_panicking_transaction_logs_nothing() {
        let dir = tmpdir("rollback");
        let h = durable(&dir);
        write(&h, |s| {
            s.insert(&triple(0));
        });
        let records = wal_records(&h);
        // the first load and the recorded insert are appended before the
        // second load fails to parse; the failure cuts both off again
        let failed = h.transact(|txn| {
            txn.load_ntriples("<http://e/a> <http://e/p> <http://e/b> .\n")?;
            txn.store_mut().insert(&triple(1));
            txn.load_ntriples("<http://e/a> <http://e/p> .\n")
        });
        assert!(matches!(failed, Err(PersistError::Ntriples(_))), "{failed:?}");
        assert_eq!(wal_records(&h), records);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            h.transact(|txn| -> Result<(), PersistError> {
                txn.load_ntriples("<http://e/c> <http://e/p> <http://e/d> .\n")?;
                panic!("writer died after logging a block");
            })
        }));
        assert!(panicked.is_err());
        assert_eq!(wal_records(&h), records);
        assert_eq!(h.snapshot().len(), 1);
        // the next transaction appends after the cut
        write(&h, |s| {
            s.insert(&triple(2));
        });
        drop(h);
        let h = durable(&dir);
        assert!(h.recovery().unwrap().wal_truncation.is_none());
        assert_eq!(h.recovery().unwrap().wal_records_replayed, records + 1);
        assert_eq!(h.snapshot().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replacing_the_working_store_is_refused() {
        let dir = tmpdir("replace");
        let h = durable(&dir);
        let mut other = Store::new();
        other.insert(&triple(5));
        let replaced = h.transact(|txn| {
            *txn.store_mut() = other;
            Ok::<_, PersistError>(())
        });
        assert!(
            matches!(replaced, Err(PersistError::Corrupt { what: "transaction", .. })),
            "{replaced:?}"
        );
        assert_eq!(h.snapshot().len(), 0);
        assert_eq!(wal_records(&h), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_persists_a_refreshed_closure() {
        use rdfa_model::vocab;
        let dir = tmpdir("refresh");
        let h = durable(&dir);
        let (laptop, product) = (Term::iri("http://e/Laptop"), Term::iri("http://e/Product"));
        write(&h, |s| {
            let sub_class_of = Term::iri(vocab::rdfs::SUB_CLASS_OF);
            s.insert(&Triple::new(laptop.clone(), sub_class_of, product.clone()));
            let l1 = Term::iri("http://e/l1");
            s.insert(&Triple::new(l1, Term::iri(vocab::rdf::TYPE), laptop.clone()));
        });
        assert!(h.snapshot().is_dirty());
        assert_eq!(h.checkpoint().unwrap(), Some(1));
        assert!(!h.snapshot().is_dirty());
        drop(h);
        let h = durable(&dir);
        let snap = h.snapshot();
        assert!(!snap.is_dirty(), "the generation carries its closure");
        assert_eq!(snap.instances_set(snap.lookup(&product).unwrap()).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_is_immutable_under_writes() {
        let shared = SharedStore::new(Store::new());
        write(&shared, |s| {
            s.insert(&triple(0));
        });
        let before = shared.snapshot();
        let gen_before = before.generation();
        write(&shared, |s| {
            for i in 1..100 {
                s.insert(&triple(i));
            }
        });
        // the old snapshot still sees exactly one triple, at its generation
        assert_eq!(before.len(), 1);
        assert_eq!(before.generation(), gen_before);
        // a fresh snapshot sees the new state
        let after = shared.snapshot();
        assert_eq!(after.len(), 100);
        assert!(after.generation() > gen_before);
    }

    #[test]
    fn failed_commit_rolls_back_entirely() {
        let shared = SharedStore::new(Store::new());
        write(&shared, |s| {
            s.insert(&triple(0));
        });
        let gen = shared.snapshot().generation();
        let result: Result<((), Snapshot), PersistError> = shared.transact(|txn| {
            txn.store_mut().insert(&triple(1));
            txn.store_mut().insert(&triple(2));
            Err(PersistError::Corrupt {
                what: "batch",
                detail: "validation failed after partial application".to_owned(),
            })
        });
        assert!(result.is_err());
        let snap = shared.snapshot();
        assert_eq!(snap.len(), 1, "partial mutations must not be visible");
        assert_eq!(snap.generation(), gen);
    }

    #[test]
    fn writer_panic_publishes_nothing_and_next_writer_proceeds() {
        let shared = SharedStore::new(Store::new());
        write(&shared, |s| {
            s.insert(&triple(0));
        });
        let gen = shared.snapshot().generation();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            write(&shared, |s| {
                s.insert(&triple(1));
                panic!("writer died mid-batch");
            });
        }));
        assert!(panicked.is_err());
        // readers continue on the old generation
        let snap = shared.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.generation(), gen);
        // the next writer is not poisoned
        write(&shared, |s| {
            s.insert(&triple(2));
        });
        assert_eq!(shared.snapshot().len(), 2);
    }

    #[test]
    fn one_copy_per_transaction_not_per_mutation() {
        // the first store_mut() in a transaction copies (the published Arc
        // co-owns the base); every further mutation is in place on the
        // now-unique working copy — observable via pointer stability
        let shared = SnapshotStore::new(Store::new());
        let mut txn = shared.begin_write();
        let p_first = txn.store_mut() as *const Store;
        txn.store_mut().insert(&triple(0));
        txn.store_mut().insert(&triple(1));
        let p_later = txn.store_mut() as *const Store;
        assert_eq!(p_first, p_later, "mutations within one txn must not re-copy");
        txn.commit();
        // the published pointer is exactly the working copy — no copy at commit
        let published = Arc::as_ptr(&shared.snapshot().into_arc());
        assert_eq!(p_first, published);
        // a snapshot held across the next write keeps its own version
        let held = shared.snapshot();
        let mut txn = shared.begin_write();
        txn.store_mut().insert(&triple(2));
        txn.commit();
        assert_eq!(held.len(), 2);
        assert_eq!(shared.snapshot().len(), 3);
    }

    #[test]
    fn write_txn_shares_all_but_the_touched_chunks() {
        use crate::layer::Layer;
        // enough triples for dozens of chunks per permutation, loaded the
        // way a server loads them
        let mut text = String::new();
        for i in 0..20_000 {
            text.push_str(&format!(
                "<http://e/s{i}> <http://e/p{}> <http://e/o{}> .\n",
                i % 7,
                i % 1013
            ));
        }
        let mut store = Store::new();
        store.load_ntriples(&text).unwrap();
        let shared = SharedStore::new(store);
        let held = shared.snapshot();
        let held_triples: Vec<_> = held.iter_explicit().collect();
        write(&shared, |s| {
            assert!(s.insert(&triple(999_999)));
            s.refresh_inference();
        });
        let next = shared.snapshot();
        let (Layer::Mem(old), Layer::Mem(new)) = (&held.explicit, &next.explicit) else {
            panic!("an in-memory store has in-memory layers");
        };
        for (perm, (same, all)) in new.chunks_shared_with(old).into_iter().enumerate() {
            assert!(all >= 19, "permutation {perm}: only {all} chunks");
            assert!(all - same <= 3, "permutation {perm}: {} of {all} chunks copied", all - same);
        }
        // the dictionary is shared too: every chunk of the held generation
        // is in the next one, which adds one chunk for the terms the
        // transaction interned, and neither holds a tail
        let (old_chunks, new_chunks): (Vec<_>, Vec<_>) =
            (held.interner.chunks().collect(), next.interner.chunks().collect());
        assert_eq!(new_chunks.len(), old_chunks.len() + 1);
        assert!(old_chunks.iter().zip(&new_chunks).all(|(a, b)| Arc::ptr_eq(a, b)));
        assert_eq!(held.interner.frozen_len(), held.term_count());
        assert_eq!(next.interner.frozen_len(), next.term_count());
        // and the held snapshot still reads its own generation
        assert_eq!(held.len(), 20_000);
        assert_eq!(next.len(), 20_001);
        assert!(held.lookup(&triple(999_999).subject).is_none());
        assert!(held.iter_explicit().eq(held_triples.iter().copied()));
        assert_eq!(next.closure_stats().incremental, 1);
    }

    #[test]
    fn write_txn_over_segment_store_shares_segments() {
        // what segments buy the write path: a copy-on-write
        // transaction over a folded store clones Arc pointers, not triple
        // data — the base segments stay shared across generations
        let dir = std::env::temp_dir().join(format!(
            "rdfa-concurrent-segshare-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let shared = SharedStore::open(&dir, PersistConfig::default()).unwrap();
        write(&shared, |s| {
            for i in 0..200 {
                s.insert(&triple(i));
            }
        });
        shared.checkpoint().unwrap();
        let stats = shared.snapshot().segment_stats();
        assert!(stats.segments >= 1, "fold must leave a segment-backed store");
        let before = shared.snapshot();
        write(&shared, |s| {
            s.insert(&triple(999));
        });
        let after = shared.snapshot();
        // both generations are segment-backed over the same byte count of
        // segment files: the write txn did not rewrite the base
        let (sb, sa) = (before.segment_stats(), after.segment_stats());
        assert_eq!(sb.segments, sa.segments);
        assert_eq!(sb.segment_bytes, sa.segment_bytes);
        assert_eq!(sa.overlay_adds, 1, "one triple in the overlay");
        assert_eq!(after.len(), before.len() + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn try_replace_equivalent_respects_concurrent_publishes() {
        let shared = SnapshotStore::new(Store::new());
        let mut txn = shared.begin_write();
        txn.store_mut().insert(&triple(0));
        txn.commit();
        let view = shared.snapshot().into_arc();
        // an equivalent replacement swaps in while the view is current
        let replacement = (*view).clone();
        assert!(shared.try_replace_equivalent(&view, replacement));
        // the old Arc is no longer published: a second swap must refuse
        let replacement = (*view).clone();
        assert!(!shared.try_replace_equivalent(&view, replacement));
        // state unchanged either way
        assert_eq!(shared.snapshot().len(), 1);
    }

    #[test]
    fn rollback_on_drop() {
        let shared = SnapshotStore::new(Store::new());
        {
            let mut txn = shared.begin_write();
            txn.store_mut().insert(&triple(7));
            // dropped without commit
        }
        assert_eq!(shared.snapshot().len(), 0);
    }

    #[test]
    fn concurrent_readers_see_single_generations() {
        let shared = Arc::new(SharedStore::new(Store::new()));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let shared = Arc::clone(&shared);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let snap = shared.snapshot();
                        // invariant maintained by the writer: triple count
                        // is even at every published generation
                        assert_eq!(snap.len() % 2, 0, "torn read: odd triple count");
                    }
                });
            }
            for i in 0..200 {
                write(&shared, |s| {
                    s.insert(&triple(2 * i));
                    s.insert(&triple(2 * i + 1));
                });
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(shared.snapshot().len(), 400);
    }
}
