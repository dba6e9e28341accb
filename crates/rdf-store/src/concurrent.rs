//! MVCC-style snapshot isolation over the [`Store`]: readers get cheap
//! immutable snapshots, writers publish new generations atomically.
//!
//! The interactive-analytics workload (continuous facet/query traffic with
//! interleaved updates — the SOFOS assumption) cannot afford a store-wide
//! reader/writer lock: one bulk `INSERT` stalls every reader, and a panic
//! inside a writer poisons the lock for everyone. [`SnapshotStore`] removes
//! both failure modes with a copy-on-write publish protocol:
//!
//! - **Readers** call [`SnapshotStore::snapshot`] and receive a [`Snapshot`]
//!   — an `Arc` over an immutable [`Store`]. Taking one is an `Arc` clone
//!   behind a pointer-sized critical section (nanoseconds); holding one
//!   never blocks anybody. A snapshot observes exactly one published
//!   generation, forever: queries, facet markers and serialization all see
//!   a single consistent state no matter what writers do meanwhile.
//! - **Writers** call [`SnapshotStore::begin_write`] (or the
//!   [`SnapshotStore::with_write`]/[`SnapshotStore::commit`] conveniences).
//!   A write transaction clones the current `Arc` and mutates it through
//!   `Arc::make_mut`. Because the published pointer always co-owns the base
//!   version, the first mutation clones the [`Store`] — but a store is built
//!   to be cloned: each triple index is a vector of `Arc`-shared chunks of
//!   at most 1024 triples (see [`crate::index`]), the term dictionary is an
//!   `Arc`-shared frozen base plus the tail of terms added since the last
//!   bulk load or checkpoint, and a segment-backed layer is a list of
//!   `Arc<Segment>` plus its overlay. The clone therefore copies pointers —
//!   a few thousand for half a million triples — and each insert or remove
//!   then copies the one chunk per permutation it lands in. Further
//!   mutations in the same transaction work in place on chunks that are
//!   already private. A transaction costs O(|delta|) chunk copies whatever
//!   the store's size, readers still never block, and publishing is a
//!   single pointer swap. The superseded generation is freed the same way:
//!   dropping it releases the chunks no newer generation shares.
//! - **A writer panic publishes nothing.** The transaction's working copy
//!   is dropped during unwind and readers keep resolving against the last
//!   published generation. The internal writer mutex recovers from poison
//!   (it guards no data, only writer ordering), so the next writer proceeds
//!   normally. The same holds for fallible writers: an `Err` from
//!   [`SnapshotStore::commit`] rolls the whole batch back — updates are
//!   atomic, never partially visible.
//!
//! The existing [`Store::generation`] counter is the versioning spine:
//! every published generation carries a distinct counter value, so caches
//! keyed by generation (the facet cache) remain correct across snapshots.
//!
//! This mirrors the storage/transaction layering of Oxigraph (immutable
//! reader over a versioned store, transactions applied privately and
//! committed atomically), scaled down to the in-memory engine.

use crate::store::Store;
use std::ops::Deref;
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

/// A concurrent store: lock-free-in-practice snapshot reads, serialized
/// copy-on-write writers, atomic publication. See the module docs for the
/// protocol.
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
    /// Wrap a store for concurrent serving.
    pub fn new(store: Store) -> Self {
        SnapshotStore { current: RwLock::new(Arc::new(store)), writer: Mutex::new(()) }
    }

    /// The current published snapshot. Never blocks on writers applying
    /// batches — only on the instantaneous publish swap itself.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot(Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner())))
    }

    /// Generation of the current published snapshot.
    pub fn generation(&self) -> u64 {
        self.snapshot().generation()
    }

    /// Begin a write transaction: serializes against other writers, hands
    /// out a private working copy. Nothing is visible to readers until
    /// [`WriteTxn::commit`]; dropping the transaction rolls it back.
    pub fn begin_write(&self) -> WriteTxn<'_> {
        let guard = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let working = Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()));
        WriteTxn { owner: self, _guard: guard, working }
    }

    /// Apply `f` to a private copy and publish the result. A panic inside
    /// `f` publishes nothing; readers are unaffected.
    pub fn with_write<R>(&self, f: impl FnOnce(&mut Store) -> R) -> R {
        let mut txn = self.begin_write();
        let r = f(txn.store_mut());
        txn.commit();
        r
    }

    /// Apply a fallible batch atomically: publish on `Ok`, roll back —
    /// leaving readers and future writers on the previous generation — on
    /// `Err`. This is what makes a failed `/v1/update` invisible instead of
    /// half-applied.
    pub fn commit<R, E>(&self, f: impl FnOnce(&mut Store) -> Result<R, E>) -> Result<R, E> {
        let mut txn = self.begin_write();
        let r = f(txn.store_mut())?;
        txn.commit();
        Ok(r)
    }

    /// Swap in an *observationally identical* replacement for `view` — the
    /// folded store a segment checkpoint returns — iff `view` is still the
    /// published generation. Never blocks: if a writer holds the lock or
    /// has published past `view`, the fold is simply discarded (`false`);
    /// correctness is unaffected because the fold equals the view. On
    /// success readers transparently migrate from the in-memory overlay to
    /// the freshly persisted mmap segments.
    pub fn try_replace_equivalent(&self, view: &Arc<Store>, folded: Store) -> bool {
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

impl From<Store> for SnapshotStore {
    fn from(store: Store) -> Self {
        SnapshotStore::new(store)
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
    pub fn commit(self) {
        *self.owner.current.write().unwrap_or_else(|e| e.into_inner()) = self.working;
    }

    /// Publish, then run `f` *before releasing the writer serialization
    /// guard*. Used by the durable server path to make "WAL append +
    /// publish" atomic with respect to checkpoints (both happen under the
    /// journal lock held by the caller); plain callers never need it.
    pub fn commit_with<R>(self, f: impl FnOnce() -> R) -> R {
        *self.owner.current.write().unwrap_or_else(|e| e.into_inner()) = self.working;
        let r = f();
        drop(self._guard);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfa_model::{Term, Triple};

    fn triple(i: usize) -> Triple {
        Triple::new(
            Term::iri(format!("http://e/s{i}")),
            Term::iri("http://e/p"),
            Term::integer(i as i64),
        )
    }

    #[test]
    fn snapshot_is_immutable_under_writes() {
        let shared = SnapshotStore::new(Store::new());
        shared.with_write(|s| {
            s.insert(&triple(0));
        });
        let before = shared.snapshot();
        let gen_before = before.generation();
        shared.with_write(|s| {
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
        let shared = SnapshotStore::new(Store::new());
        shared.with_write(|s| {
            s.insert(&triple(0));
        });
        let gen = shared.generation();
        let result: Result<(), &str> = shared.commit(|s| {
            s.insert(&triple(1));
            s.insert(&triple(2));
            Err("validation failed after partial application")
        });
        assert!(result.is_err());
        let snap = shared.snapshot();
        assert_eq!(snap.len(), 1, "partial mutations must not be visible");
        assert_eq!(snap.generation(), gen);
    }

    #[test]
    fn writer_panic_publishes_nothing_and_next_writer_proceeds() {
        let shared = SnapshotStore::new(Store::new());
        shared.with_write(|s| {
            s.insert(&triple(0));
        });
        let gen = shared.generation();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.with_write(|s| {
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
        shared.with_write(|s| {
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
        shared.with_write(|s| {
            s.insert(&triple(2));
        });
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
        let shared = SnapshotStore::new(store);
        let held = shared.snapshot();
        let held_triples: Vec<_> = held.iter_explicit().collect();
        shared.with_write(|s| {
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
        // the dictionary base is shared too: the transaction copied only the
        // terms it interned
        assert_eq!(next.interner.frozen_len(), held.interner.frozen_len());
        assert_eq!(held.interner.frozen_len(), held.term_count());
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
        let mut p =
            crate::persist::PersistentStore::open(&dir, crate::persist::PersistConfig::default())
                .unwrap();
        for i in 0..200 {
            p.insert(&triple(i)).unwrap();
        }
        p.materialize_inference();
        p.checkpoint().unwrap();
        let stats = p.store().segment_stats();
        assert!(stats.segments >= 1, "fold must leave a segment-backed store");
        let (store, _journal, _report) = p.into_parts();
        let shared = SnapshotStore::new(store);
        let before = shared.snapshot();
        shared.with_write(|s| {
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
        shared.with_write(|s| {
            s.insert(&triple(0));
        });
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
        let shared = Arc::new(SnapshotStore::new(Store::new()));
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
                shared.with_write(|s| {
                    s.insert(&triple(2 * i));
                    s.insert(&triple(2 * i + 1));
                });
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(shared.snapshot().len(), 400);
    }
}
