//! Parallel bulk ingest: chunked zero-copy parsing, two-phase sharded
//! interning with a deterministic merge, and sort-based index builds.
//!
//! The seed ingest path ([`Store::load_ntriples`]) parses a whole document
//! into owned [`Term`](rdfa_model::Term)s, then interns and inserts one
//! triple at a time into three sorted permutations. This module replaces
//! every phase of that pipeline while producing a **byte-identical** store:
//!
//! 1. **Chunked parsing** — the document is split on newline-safe chunk
//!    boundaries ([`ntriples::split_chunks`]) and each chunk is lexed on a
//!    scoped worker thread with the zero-copy lexer
//!    ([`ntriples::lex_line`]), which yields borrowed lexemes: no per-term
//!    `String` is allocated until interning decides a term is new.
//! 2. **Two-phase sharded interning** — each worker interns its chunk's
//!    terms into a local dictionary keyed by a 64-bit FNV hash. The merge
//!    phase dedups local dictionaries per hash shard (in parallel), then
//!    assigns global [`TermId`]s sequentially in *document first-occurrence
//!    order* — exactly the order the seed path interns in, and independent
//!    of the chunk count — so term ids never depend on the thread count.
//! 3. **Sort-based index build** — workers emit `IdTriple` runs which are
//!    sorted and deduplicated with parallel merge rounds; SPO/POS/OSP are
//!    then bulk-built from the sorted runs
//!    (`TripleIndex::from_sorted_runs`) instead of per-triple inserts.
//!
//! The seed per-triple path is retained untouched as the reference
//! implementation; `tests/ingest_differential.rs` proves both paths produce
//! identical stores (term ids, generation counter, all three indexes)
//! across thread counts.

use crate::index::{IdTriple, TripleIndex};
use crate::interner::{hash64, term_ref_of, Interner, Slot, TermId, U64Map};
use crate::store::Store;
use rdfa_exec::{map_ordered, workers_for};
use rdfa_model::ntriples::{self, NtriplesError, TermRef};
use rdfa_model::{turtle, Graph, Triple};
use std::collections::hash_map::Entry;
use std::fmt;
use std::io::Read;
use std::path::Path;

/// Tuning knobs for the bulk-ingest pipeline.
#[derive(Debug, Clone, Default)]
pub struct LoadOptions {
    /// Worker threads for parsing, interning and index builds. `0` (the
    /// default) uses the machine's available parallelism, and both `0` and
    /// explicit values are scaled down when the input is too small for the
    /// requested fan-out to pay for itself (see [`LoadOptions::exact`] to
    /// override) — the store contents never depend on the thread count,
    /// only the wall-clock does.
    pub threads: usize,
    /// Honour the requested thread count exactly, bypassing the
    /// small-input and available-parallelism caps. For tests that must
    /// force many chunks onto tiny documents; production callers should
    /// leave this off — BENCH_5 measured 8 requested threads *slower* than
    /// 1 at 509k triples once the box had fewer cores than the request.
    pub exact: bool,
}

impl LoadOptions {
    /// Options requesting a worker-thread count, still subject to the
    /// small-input and available-parallelism caps.
    pub fn with_threads(threads: usize) -> Self {
        LoadOptions { threads, exact: false }
    }

    /// Options pinning an exact worker-thread count, caps bypassed.
    pub fn exact(threads: usize) -> Self {
        LoadOptions { threads, exact: true }
    }
}

/// What a bulk load did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadStats {
    /// Triples parsed from the input, duplicates included (the count the
    /// seed loaders return).
    pub triples: usize,
    /// Distinct triples newly added to the store.
    pub added: usize,
    /// Terms newly interned.
    pub terms_added: usize,
    /// Worker threads actually used (after the small-input and
    /// available-parallelism caps).
    pub threads: usize,
    /// Worker threads requested via [`LoadOptions::threads`] (`0` = auto).
    pub requested: usize,
}

/// Why a streaming load failed.
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be opened or read (includes invalid UTF-8).
    Io(std::io::Error),
    /// The N-Triples payload was malformed.
    Ntriples(NtriplesError),
    /// The Turtle payload was malformed.
    Turtle(turtle::TurtleError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "load failed: {e}"),
            LoadError::Ntriples(e) => write!(f, "load failed: {e}"),
            LoadError::Turtle(e) => write!(f, "load failed: {e}"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            LoadError::Ntriples(e) => Some(e),
            LoadError::Turtle(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

impl From<NtriplesError> for LoadError {
    fn from(e: NtriplesError) -> Self {
        LoadError::Ntriples(e)
    }
}

impl From<turtle::TurtleError> for LoadError {
    fn from(e: turtle::TurtleError) -> Self {
        LoadError::Turtle(e)
    }
}

// ---- phase 1: chunked parse into worker-local dictionaries ---------------

/// A worker-local dictionary: borrowed term views in first-occurrence
/// order, their hashes, and a hash → local-id bucket map. Nothing here owns
/// term text — entries borrow the input until the merge phase decides which
/// occurrences are canonical and converts exactly those to owned [`Term`]s.
#[derive(Default)]
struct LocalDict<'a> {
    terms: Vec<TermRef<'a>>,
    hashes: Vec<u64>,
    buckets: U64Map<Slot>,
}

impl<'a> LocalDict<'a> {
    /// A dictionary pre-sized for roughly `terms` distinct entries, so the
    /// hot intern loop rarely pays a table growth.
    fn with_capacity(terms: usize) -> Self {
        LocalDict {
            terms: Vec::with_capacity(terms),
            hashes: Vec::with_capacity(terms),
            buckets: U64Map::with_capacity_and_hasher(terms, Default::default()),
        }
    }

    fn len(&self) -> usize {
        self.terms.len()
    }

    fn intern(&mut self, t: TermRef<'a>) -> u32 {
        let h = hash64(&t);
        match self.buckets.entry(h) {
            Entry::Occupied(mut e) => match e.get_mut() {
                Slot::One(first) => {
                    let first = *first;
                    if t == self.terms[first as usize] {
                        return first;
                    }
                    let id = self.terms.len() as u32;
                    self.terms.push(t);
                    self.hashes.push(h);
                    *e.get_mut() = Slot::Many(vec![first, id]);
                    id
                }
                Slot::Many(ids) => {
                    for &i in ids.iter() {
                        if t == self.terms[i as usize] {
                            return i;
                        }
                    }
                    let id = self.terms.len() as u32;
                    self.terms.push(t);
                    self.hashes.push(h);
                    ids.push(id);
                    id
                }
            },
            Entry::Vacant(e) => {
                let id = self.terms.len() as u32;
                self.terms.push(t);
                self.hashes.push(h);
                e.insert(Slot::One(id));
                id
            }
        }
    }
}

/// One chunk's parse output: its dictionary and its triples over local ids.
struct ChunkPart<'a> {
    dict: LocalDict<'a>,
    triples: Vec<[u32; 3]>,
}

/// A fully parsed batch, ready to merge into a store. Borrows the input
/// text (zero-copy), but is structurally complete — callers can validate a
/// payload before committing side effects (the WAL logs between parse and
/// apply).
pub(crate) struct Batch<'a> {
    parts: Vec<ChunkPart<'a>>,
    lines: usize,
    triples: usize,
}

const MIN_BYTES_PER_CHUNK: usize = 64 * 1024;
const MIN_TRIPLES_PER_CHUNK: usize = 4096;

/// Resolve a requested thread count: `0` means auto (available
/// parallelism); explicit values are honoured up to the same two caps —
/// available parallelism (BENCH_5: 8 threads on a smaller box ran *slower*
/// than 1 at 509k triples, pure oversubscription overhead) and one thread
/// per `min_per_chunk` of work (chunks below that floor cost more in
/// spawn/merge than their parse saves) — i.e.
/// [`rdfa_exec::workers_for`]. [`LoadOptions::exact`] bypasses both, so
/// differential tests can still force many chunks onto tiny documents.
fn effective_threads(opts: &LoadOptions, work_units: usize, min_per_chunk: usize) -> usize {
    if opts.exact && opts.threads > 0 {
        return opts.threads;
    }
    // unlike the query runtime, ingest caps explicit requests at available
    // parallelism: its workers are CPU-bound end to end, so BENCH_5's
    // oversubscription loss applies regardless of who asked for the fan-out
    let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    workers_for(opts.threads, work_units, min_per_chunk).min(avail)
}

/// Parse an N-Triples document into a [`Batch`] with the requested worker
/// threads. Errors carry the 1-based line number *within this text*; the
/// first malformed line in document order wins, matching the sequential
/// parser.
pub(crate) fn parse_batch<'t>(
    text: &'t str,
    opts: &LoadOptions,
) -> Result<Batch<'t>, NtriplesError> {
    let text = ntriples::strip_bom(text);
    let threads = effective_threads(opts, text.len(), MIN_BYTES_PER_CHUNK);
    let chunks = ntriples::split_chunks(text, threads);
    let results = map_ordered(threads, chunks, |_, chunk| parse_chunk(chunk));
    let mut parts = Vec::with_capacity(results.len());
    let mut lines = 0usize;
    let mut triples = 0usize;
    for result in results {
        match result {
            Ok((part, chunk_lines)) => {
                lines += chunk_lines;
                triples += part.triples.len();
                parts.push(part);
            }
            Err((e, local_line)) => return Err(e.at_line(lines + local_line)),
        }
    }
    Ok(Batch { parts, lines, triples })
}

/// Lex and locally intern one chunk. On success returns the part and the
/// chunk's line count (needed to offset later chunks' error lines).
#[allow(clippy::type_complexity)]
fn parse_chunk<'a>(
    chunk: &'a str,
) -> Result<(ChunkPart<'a>, usize), (ntriples::LexError, usize)> {
    // N-Triples lines run ~100+ bytes and real graphs re-use most terms;
    // these estimates only size the initial tables, correctness never
    // depends on them
    let mut dict = LocalDict::with_capacity(chunk.len() / 256);
    let mut triples = Vec::with_capacity(chunk.len() / 96);
    let mut n_lines = 0usize;
    // real-world dumps group consecutive lines by subject, so remembering
    // the previous subject's local id skips a hash+probe for the common
    // repeat (subject views are borrowed slices — the clone is a pointer
    // copy); predicates come from a small schema vocabulary that recurs in
    // every subject's line group, so a short ring of recent predicates
    // short-circuits most predicate interns the same way
    let mut last_subject: Option<(TermRef<'a>, u32)> = None;
    let mut recent_preds: Vec<(TermRef<'a>, u32)> = Vec::with_capacity(PRED_MEMO);
    for line in chunk.lines() {
        n_lines += 1;
        match ntriples::lex_line(line) {
            Ok(None) => {}
            Ok(Some([s, p, o])) => {
                let s_id = match &last_subject {
                    Some((prev, id)) if *prev == s => *id,
                    _ => {
                        let id = dict.intern(s.clone());
                        last_subject = Some((s, id));
                        id
                    }
                };
                let p_id = match recent_preds.iter().find(|(t, _)| *t == p) {
                    Some(&(_, id)) => id,
                    None => {
                        let id = dict.intern(p.clone());
                        if recent_preds.len() == PRED_MEMO {
                            recent_preds.remove(0);
                        }
                        recent_preds.push((p, id));
                        id
                    }
                };
                let o = dict.intern(o);
                triples.push([s_id, p_id, o]);
            }
            Err(e) => return Err((e, n_lines)),
        }
    }
    Ok((ChunkPart { dict, triples }, n_lines))
}

/// Recent-predicate ring size: big enough to hold a uniform schema's
/// per-subject predicate set, small enough that a miss costs a few string
/// length checks.
const PRED_MEMO: usize = 16;

/// Locally intern an already-parsed graph (the Turtle and datagen path):
/// the parse happened sequentially, but interning, deduplication and the
/// index build still fan out.
pub(crate) fn graph_batch<'g>(graph: &'g Graph, opts: &LoadOptions) -> Batch<'g> {
    let triples: Vec<&Triple> = graph.iter().collect();
    let threads = effective_threads(opts, triples.len(), MIN_TRIPLES_PER_CHUNK);
    let chunk_size = triples.len().div_ceil(threads.max(1)).max(1);
    let chunks: Vec<&[&Triple]> = triples.chunks(chunk_size).collect();
    let parts = map_ordered(threads, chunks, |_, chunk| {
        let mut dict = LocalDict::with_capacity(chunk.len());
        let mut out = Vec::with_capacity(chunk.len());
        for t in chunk {
            let s = dict.intern(term_ref_of(&t.subject));
            let p = dict.intern(term_ref_of(&t.predicate));
            let o = dict.intern(term_ref_of(&t.object));
            out.push([s, p, o]);
        }
        ChunkPart { dict, triples: out }
    });
    Batch { parts, lines: 0, triples: graph.len() }
}

// ---- phase 2: sharded dedup merge + deterministic id assignment ----------
//
// Both strategies below translate a batch's worker-local dictionaries into
// per-chunk `local id → global TermId` tables assigning ids in *document
// first-occurrence order* — the canonical order, identical to the seed
// path and independent of the chunk count. `assign_direct` walks chunks
// sequentially (chunks partition the document in order and local ids are
// chunk-first-occurrence-ordered, so chunk-major/local-minor *is* document
// order). `assign_sharded` first dedups across chunks per hash shard in
// parallel so the sequential id-assignment section only touches each
// distinct term once — worth it exactly when spare cores exist; a unit
// test pins both to the same output.

const SHARDS: usize = 16;

/// One hash shard's cross-chunk dedup result.
struct ShardOut {
    /// `(chunk, local)` of each distinct term's first occurrence, ascending.
    entries: Vec<(u32, u32)>,
    /// Every `(chunk, local, entry)` membership in this shard.
    assign: Vec<(u32, u32, u32)>,
}

fn merge_shard<'a>(parts: &[ChunkPart<'a>], shard: usize) -> ShardOut {
    let mut buckets: U64Map<Slot> = U64Map::default();
    let mut entries: Vec<(u32, u32)> = Vec::new();
    let mut assign: Vec<(u32, u32, u32)> = Vec::new();
    let term_of = |entries: &[(u32, u32)], e: u32| -> &TermRef<'a> {
        let (c, l) = entries[e as usize];
        &parts[c as usize].dict.terms[l as usize]
    };
    for (ci, part) in parts.iter().enumerate() {
        for (li, &h) in part.dict.hashes.iter().enumerate() {
            if h as usize % SHARDS != shard {
                continue;
            }
            let term = &part.dict.terms[li];
            let entry = match buckets.entry(h) {
                Entry::Occupied(mut e) => match e.get_mut() {
                    Slot::One(first) => {
                        let first = *first;
                        if term == term_of(&entries, first) {
                            first
                        } else {
                            let id = entries.len() as u32;
                            entries.push((ci as u32, li as u32));
                            *e.get_mut() = Slot::Many(vec![first, id]);
                            id
                        }
                    }
                    Slot::Many(ids) => {
                        match ids.iter().find(|&&i| term == term_of(&entries, i)) {
                            Some(&i) => i,
                            None => {
                                let id = entries.len() as u32;
                                entries.push((ci as u32, li as u32));
                                ids.push(id);
                                id
                            }
                        }
                    }
                },
                Entry::Vacant(e) => {
                    let id = entries.len() as u32;
                    entries.push((ci as u32, li as u32));
                    e.insert(Slot::One(id));
                    id
                }
            };
            assign.push((ci as u32, li as u32, entry));
        }
    }
    ShardOut { entries, assign }
}

/// Sequential chunk-major assignment: probe the global interner once per
/// local entry. The cheapest strategy when no parallelism is available.
fn assign_direct(parts: &[ChunkPart<'_>], interner: &mut Interner) -> Vec<Vec<TermId>> {
    parts
        .iter()
        .map(|part| {
            part.dict
                .terms
                .iter()
                .zip(&part.dict.hashes)
                .map(|(t, &h)| interner.get_or_intern_owned_hashed(h, t.to_term()))
                .collect()
        })
        .collect()
}

/// Shard-parallel cross-chunk dedup, then sequential global id assignment
/// over the distinct representatives only, then a scatter back to per-chunk
/// tables. Identical output to [`assign_direct`].
fn assign_sharded(
    parts: &[ChunkPart<'_>],
    interner: &mut Interner,
    threads: usize,
) -> Vec<Vec<TermId>> {
    // 2a: per-shard cross-chunk dedup, shards strided over workers
    let groups = threads.clamp(1, SHARDS);
    let shard_outs: Vec<ShardOut> = {
        let nested: Vec<Vec<(usize, ShardOut)>> =
            map_ordered(groups, (0..groups).collect(), |_, g| {
                (g..SHARDS).step_by(groups).map(|s| (s, merge_shard(parts, s))).collect()
            });
        let mut outs: Vec<Option<ShardOut>> = (0..SHARDS).map(|_| None).collect();
        for (s, so) in nested.into_iter().flatten() {
            outs[s] = Some(so);
        }
        outs.into_iter().map(|o| o.expect("every shard merged")).collect()
    };

    // 2b: global ids in document first-occurrence order
    let mut order: Vec<(u32, u32, u32, u32)> = Vec::new(); // (chunk, local, shard, entry)
    for (s, so) in shard_outs.iter().enumerate() {
        for (e, &(c, l)) in so.entries.iter().enumerate() {
            order.push((c, l, s as u32, e as u32));
        }
    }
    order.sort_unstable();
    let mut shard_global: Vec<Vec<TermId>> =
        shard_outs.iter().map(|so| vec![TermId(0); so.entries.len()]).collect();
    for &(c, l, s, e) in &order {
        // the representative's first (and only) conversion to an owned
        // Term — occurrences that lost the dedup race are never allocated
        let dict = &parts[c as usize].dict;
        let (term, h) = (dict.terms[l as usize].to_term(), dict.hashes[l as usize]);
        shard_global[s as usize][e as usize] = interner.get_or_intern_owned_hashed(h, term);
    }

    // 2c: scatter shard entries back to per-chunk local → global tables
    let mut tables: Vec<Vec<TermId>> =
        parts.iter().map(|p| vec![TermId(0); p.dict.len()]).collect();
    for (s, so) in shard_outs.iter().enumerate() {
        for &(c, l, e) in &so.assign {
            tables[c as usize][l as usize] = shard_global[s][e as usize];
        }
    }
    tables
}

// ---- phase 3: sort-based triple dedup and index build --------------------

/// Merge two sorted, distinct runs into one sorted, distinct run.
fn merge_dedup(a: Vec<IdTriple>, b: Vec<IdTriple>) -> Vec<IdTriple> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Sort + dedup each run in parallel, then reduce them with parallel
/// pairwise merge rounds into one sorted, distinct run.
fn par_sort_dedup(runs: Vec<Vec<IdTriple>>, threads: usize) -> Vec<IdTriple> {
    let mut runs: Vec<Vec<IdTriple>> = map_ordered(threads, runs, |_, mut r| {
        r.sort_unstable();
        r.dedup();
        r
    });
    runs.retain(|r| !r.is_empty());
    while runs.len() > 1 {
        let mut pairs = Vec::with_capacity(runs.len().div_ceil(2));
        let mut it = runs.into_iter();
        while let Some(a) = it.next() {
            pairs.push((a, it.next()));
        }
        runs = map_ordered(threads, pairs, |_, (a, b)| match b {
            Some(b) => merge_dedup(a, b),
            None => a,
        });
    }
    runs.pop().unwrap_or_default()
}

/// Build a sorted permutation of an already-sorted distinct SPO run by
/// rewriting each element and re-sorting in parallel runs.
fn permuted_sorted(
    spo: &[IdTriple],
    perm: fn(IdTriple) -> IdTriple,
    threads: usize,
) -> Vec<IdTriple> {
    let chunk = spo.len().div_ceil(threads.max(1)).max(1);
    let runs: Vec<Vec<IdTriple>> = spo
        .chunks(chunk)
        .map(|c| c.iter().map(|&t| perm(t)).collect())
        .collect();
    par_sort_dedup(runs, threads)
}

/// Merge a sorted distinct run of new triples into the explicit index,
/// rebuilding all three permutations in bulk. Returns how many triples were
/// actually new. Also the ingest engine behind the segment overlay's
/// [`crate::layer::SegLayer::bulk_extend`].
pub(crate) fn extend_index(
    explicit: &mut TripleIndex,
    new_run: Vec<IdTriple>,
    threads: usize,
) -> usize {
    if new_run.is_empty() {
        return 0;
    }
    let old_len = explicit.len();
    let combined = if old_len == 0 {
        new_run
    } else {
        merge_dedup(explicit.iter().collect(), new_run)
    };
    let added = combined.len() - old_len;
    if added == 0 {
        return 0;
    }
    let pos = permuted_sorted(&combined, |[s, p, o]| [p, o, s], threads);
    let osp = permuted_sorted(&combined, |[s, p, o]| [o, s, p], threads);
    *explicit = TripleIndex::from_sorted_runs(combined, pos, osp);
    added
}

// ---- the loader ----------------------------------------------------------

/// Accumulates parsed batches into a store and builds the indexes once at
/// the end — the engine behind [`Store::bulk_load_ntriples`] and the
/// streaming/persistent loaders, which need to interleave WAL appends or
/// block reads between batches.
pub(crate) struct BulkLoader<'s> {
    store: &'s mut Store,
    opts: LoadOptions,
    threads_used: usize,
    runs: Vec<Vec<IdTriple>>,
    line_base: usize,
    triples_seen: usize,
    terms_before: usize,
}

impl<'s> BulkLoader<'s> {
    pub(crate) fn new(store: &'s mut Store, opts: LoadOptions) -> Self {
        let terms_before = store.term_count();
        BulkLoader {
            store,
            opts,
            threads_used: 1,
            runs: Vec::new(),
            line_base: 0,
            triples_seen: 0,
            terms_before,
        }
    }

    /// Parse a text block. Error line numbers are absolute across all
    /// blocks ingested through this loader so far.
    pub(crate) fn parse<'t>(&self, text: &'t str) -> Result<Batch<'t>, NtriplesError> {
        parse_batch(text, &self.opts).map_err(|mut e| {
            e.line += self.line_base;
            e
        })
    }

    /// Merge a parsed batch into the store's interner and stage its triple
    /// runs: cross-chunk dedup + global id assignment in document
    /// first-occurrence order (the canonical order — identical to the seed
    /// path and independent of chunking), then chunk-parallel remap of
    /// local ids to global ones. The sharded merge only pays off when the
    /// machine can actually run shards concurrently; otherwise the direct
    /// sequential assignment (same output, proven by unit test) is used.
    pub(crate) fn apply(&mut self, batch: Batch<'_>) {
        let Batch { parts, lines, triples } = batch;
        self.line_base += lines;
        self.triples_seen += triples;
        let local_terms: usize = parts.iter().map(|p| p.dict.len()).sum();
        let threads = effective_threads(&self.opts, local_terms, MIN_TRIPLES_PER_CHUNK);
        self.threads_used = self.threads_used.max(threads).max(parts.len());

        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let tables: Vec<Vec<TermId>> = if parts.len() == 1 || cores == 1 {
            assign_direct(&parts, &mut self.store.interner)
        } else {
            assign_sharded(&parts, &mut self.store.interner, threads)
        };

        let work: Vec<(ChunkPart<'_>, Vec<TermId>)> = parts.into_iter().zip(tables).collect();
        let new_runs: Vec<Vec<IdTriple>> = map_ordered(threads, work, |_, (part, table)| {
            part.triples
                .iter()
                .map(|&[s, p, o]| [table[s as usize], table[p as usize], table[o as usize]])
                .collect()
        });
        self.runs.extend(new_runs);
    }

    /// Parse and stage one text block.
    pub(crate) fn ingest_text(&mut self, text: &str) -> Result<(), NtriplesError> {
        let batch = self.parse(text)?;
        self.apply(batch);
        Ok(())
    }

    /// Sort + dedup the staged runs, bulk-(re)build the explicit indexes,
    /// and account generation/dirtiness exactly like the per-triple path:
    /// one bump per genuinely new triple, plus the materialization bump
    /// when `materialize` is set (the load paths always materialize; WAL
    /// replay defers it to the end of recovery).
    pub(crate) fn finish(self, materialize: bool) -> LoadStats {
        let threads = effective_threads(
            &self.opts,
            self.runs.iter().map(Vec::len).sum(),
            MIN_TRIPLES_PER_CHUNK,
        );
        let new_run = par_sort_dedup(self.runs, threads);
        let added = match &mut self.store.explicit {
            crate::layer::Layer::Mem(idx) => extend_index(idx, new_run, threads),
            crate::layer::Layer::Seg(sl) => sl.bulk_extend(new_run, threads),
        };
        if added > 0 {
            self.store.note_bulk_insert(added);
        }
        // the terms just loaded join the Arc-shared dictionary base, so the
        // next write transaction's copy starts from an empty tail
        self.store.interner.freeze_by_move();
        if materialize {
            self.store.materialize_inference();
        }
        LoadStats {
            triples: self.triples_seen,
            added,
            terms_added: self.store.term_count() - self.terms_before,
            threads: self.threads_used,
            requested: self.opts.threads,
        }
    }
}

// ---- streaming block reader ----------------------------------------------

const STREAM_BLOCK: usize = 4 << 20;

/// Reads a byte stream in ~4 MiB blocks cut at newline boundaries, so each
/// block is a whole number of N-Triples lines (and therefore valid UTF-8
/// whenever the input is). The file is never materialized in one piece.
pub(crate) struct BlockReader<R> {
    reader: R,
    carry: Vec<u8>,
    eof: bool,
    block_size: usize,
}

impl<R: Read> BlockReader<R> {
    pub(crate) fn new(reader: R) -> Self {
        Self::with_block_size(reader, STREAM_BLOCK)
    }

    pub(crate) fn with_block_size(reader: R, block_size: usize) -> Self {
        BlockReader { reader, carry: Vec::new(), eof: false, block_size: block_size.max(1) }
    }

    /// The next block, or `None` at end of input. Only the final block may
    /// lack a trailing newline.
    pub(crate) fn next_block(&mut self) -> std::io::Result<Option<String>> {
        if self.eof && self.carry.is_empty() {
            return Ok(None);
        }
        let mut buf = std::mem::take(&mut self.carry);
        let mut tmp = [0u8; 64 * 1024];
        while !self.eof && buf.len() < self.block_size {
            let n = self.reader.read(&mut tmp)?;
            if n == 0 {
                self.eof = true;
            } else {
                buf.extend_from_slice(&tmp[..n]);
            }
        }
        if !self.eof {
            // cut at the last newline; a single line longer than the block
            // size keeps growing until its terminator (or EOF) arrives
            loop {
                if let Some(i) = buf.iter().rposition(|&b| b == b'\n') {
                    self.carry = buf.split_off(i + 1);
                    break;
                }
                let n = self.reader.read(&mut tmp)?;
                if n == 0 {
                    self.eof = true;
                    break;
                }
                buf.extend_from_slice(&tmp[..n]);
            }
        }
        if buf.is_empty() {
            return Ok(None);
        }
        String::from_utf8(buf)
            .map(Some)
            .map_err(|e| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("input is not valid UTF-8: {e}"),
                )
            })
    }
}

// ---- public Store entry points -------------------------------------------

impl Store {
    /// Bulk-load an N-Triples document: chunked zero-copy parallel parse,
    /// sharded interning, sort-based index build. Produces a store
    /// **identical** to [`Store::load_ntriples`] — same term ids, same
    /// generation counter, same indexes — for any thread count, and
    /// materializes inference like the seed path. On error the store is
    /// untouched.
    pub fn bulk_load_ntriples(
        &mut self,
        text: &str,
        opts: LoadOptions,
    ) -> Result<LoadStats, NtriplesError> {
        let mut loader = BulkLoader::new(self, opts);
        loader.ingest_text(text)?;
        Ok(loader.finish(true))
    }

    /// Bulk-load an already-parsed graph through the sharded-interning and
    /// sort-based-build phases (the datagen and Turtle path). Identical
    /// result to [`Store::load_graph`].
    pub fn bulk_load_graph(&mut self, graph: &Graph, opts: LoadOptions) -> LoadStats {
        let batch = graph_batch(graph, &opts);
        let mut loader = BulkLoader::new(self, opts);
        loader.apply(batch);
        loader.finish(true)
    }

    /// Stream N-Triples from a reader in newline-aligned blocks, bulk-
    /// ingesting each block: the document is never held in memory at once.
    pub fn load_ntriples_reader(
        &mut self,
        reader: impl Read,
        opts: LoadOptions,
    ) -> Result<LoadStats, LoadError> {
        let mut blocks = BlockReader::new(reader);
        let mut loader = BulkLoader::new(self, opts);
        while let Some(block) = blocks.next_block()? {
            loader.ingest_text(&block)?;
        }
        Ok(loader.finish(true))
    }

    /// Stream-load an N-Triples file ([`Store::load_ntriples_reader`] over
    /// a [`std::fs::File`]).
    pub fn load_ntriples_path(
        &mut self,
        path: impl AsRef<Path>,
        opts: LoadOptions,
    ) -> Result<LoadStats, LoadError> {
        let file = std::fs::File::open(path)?;
        self.load_ntriples_reader(file, opts)
    }

    /// Load a Turtle file. Turtle is stateful (prefix declarations scope
    /// the whole document), so the parse itself stays sequential — but
    /// interning and the index build still run through the bulk pipeline.
    pub fn load_turtle_path(
        &mut self,
        path: impl AsRef<Path>,
        opts: LoadOptions,
    ) -> Result<LoadStats, LoadError> {
        let text = std::fs::read_to_string(path)?;
        let graph = turtle::parse(&text)?;
        Ok(self.bulk_load_graph(&graph, opts))
    }

    /// WAL-replay entry point: bulk-ingest an `OP_LOAD` payload *without*
    /// materializing inference — recovery replays many records and
    /// materializes once at the end, and per-insert generation accounting
    /// must match the sequential replay exactly.
    pub(crate) fn bulk_replay_ntriples(&mut self, text: &str) -> Result<usize, NtriplesError> {
        let mut loader = BulkLoader::new(self, LoadOptions::default());
        loader.ingest_text(text)?;
        Ok(loader.finish(false).added)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfa_model::Term;
    use rdfa_prng::StdRng;

    fn t(s: u32, p: u32, o: u32) -> IdTriple {
        [TermId(s), TermId(p), TermId(o)]
    }

    #[test]
    fn effective_threads_caps_small_inputs_and_oversubscription() {
        let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        // tiny input: even an explicit request collapses to 1
        assert_eq!(effective_threads(&LoadOptions::with_threads(8), 100, 64 * 1024), 1);
        // explicit requests never exceed available parallelism
        assert!(effective_threads(&LoadOptions::with_threads(64), usize::MAX, 1) <= avail);
        // auto follows the same caps
        assert_eq!(effective_threads(&LoadOptions::default(), 100, 64 * 1024), 1);
        assert!(effective_threads(&LoadOptions::default(), usize::MAX, 1) <= avail);
        // big-enough input: request honoured up to availability
        assert_eq!(
            effective_threads(&LoadOptions::with_threads(2), 10 * 64 * 1024, 64 * 1024),
            2.min(avail)
        );
        // the exact knob bypasses both caps
        assert_eq!(effective_threads(&LoadOptions::exact(8), 100, 64 * 1024), 8);
    }

    #[test]
    fn load_stats_record_requested_and_used_parallelism() {
        let mut text = String::new();
        for i in 0..100 {
            text.push_str(&format!("<http://s{i}> <http://p> \"{i}\" .\n"));
        }
        let mut s = Store::new();
        let stats = s.bulk_load_ntriples(&text, LoadOptions::with_threads(8)).unwrap();
        assert_eq!(stats.requested, 8);
        assert_eq!(stats.threads, 1, "tiny input must not fan out");
        let mut s2 = Store::new();
        let stats2 = s2.bulk_load_ntriples(&text, LoadOptions::exact(4)).unwrap();
        assert_eq!(stats2.requested, 4);
        assert_eq!(stats2.threads, 4, "exact bypasses the caps");
        assert_eq!(s.len(), s2.len());
    }

    #[test]
    fn merge_dedup_unions_sorted_runs() {
        let a = vec![t(1, 1, 1), t(2, 2, 2), t(5, 5, 5)];
        let b = vec![t(2, 2, 2), t(3, 3, 3)];
        let m = merge_dedup(a, b);
        assert_eq!(m, vec![t(1, 1, 1), t(2, 2, 2), t(3, 3, 3), t(5, 5, 5)]);
    }

    #[test]
    fn par_sort_dedup_matches_naive_sort() {
        for case in 0u64..32 {
            let mut rng = StdRng::seed_from_u64(case);
            let runs: Vec<Vec<IdTriple>> = (0..rng.gen_range(0..6))
                .map(|_| {
                    (0..rng.gen_range(0..50))
                        .map(|_| {
                            t(
                                rng.gen_range(0u32..8),
                                rng.gen_range(0u32..8),
                                rng.gen_range(0u32..8),
                            )
                        })
                        .collect()
                })
                .collect();
            let mut naive: Vec<IdTriple> = runs.iter().flatten().copied().collect();
            naive.sort_unstable();
            naive.dedup();
            for threads in [1, 3, 8] {
                assert_eq!(par_sort_dedup(runs.clone(), threads), naive, "case {case}");
            }
        }
    }

    #[test]
    fn local_dict_dedups_and_survives_hash_collisions() {
        let mut dict = LocalDict::default();
        let a = dict.intern(TermRef::Iri("http://a"));
        let b = dict.intern(TermRef::Iri("http://b"));
        assert_eq!(a, dict.intern(TermRef::Iri("http://a")));
        assert_ne!(a, b);
        // force a collision: same slot, different terms
        let h = hash64(&TermRef::Iri("http://a"));
        dict.buckets.insert(h, Slot::Many(vec![a, b]));
        assert_eq!(b, dict.intern(TermRef::Iri("http://b")));
        let c = dict.intern(TermRef::Iri("http://c"));
        assert_ne!(b, c);
    }

    #[test]
    fn direct_and_sharded_assignment_agree() {
        // a document with heavy cross-chunk term sharing: repeated
        // predicates, repeated objects, subjects recurring in every chunk
        let mut text = String::new();
        for i in 0..200 {
            let s = i % 23;
            let p = i % 5;
            text.push_str(&format!("<http://s{s}> <http://p{p}> \"v{}\" .\n", i % 31));
            text.push_str(&format!("<http://s{s}> <http://p{p}> <http://s{}> .\n", (i + 7) % 23));
        }
        for threads in [2usize, 4, 8] {
            let batch_a = parse_batch(&text, &LoadOptions::exact(threads)).unwrap();
            let batch_b = parse_batch(&text, &LoadOptions::exact(threads)).unwrap();
            assert!(batch_a.parts.len() > 1, "chunking must engage");
            // pre-seed both interners identically: the non-empty-store case
            let mut int_a = Interner::new();
            let mut int_b = Interner::new();
            for t in [Term::iri("http://p1"), Term::string("v3")] {
                int_a.get_or_intern(&t);
                int_b.get_or_intern(&t);
            }
            let tables_a = assign_direct(&batch_a.parts, &mut int_a);
            let tables_b = assign_sharded(&batch_b.parts, &mut int_b, threads);
            assert_eq!(tables_a, tables_b, "{threads} threads");
            assert_eq!(int_a.len(), int_b.len());
            for i in 0..int_a.len() {
                let id = TermId(i as u32);
                assert_eq!(int_a.term(id), int_b.term(id), "term {i}");
            }
        }
    }

    #[test]
    fn hashes_agree_between_lexed_and_owned_views() {
        let lines = [
            r#"<http://s> <http://p> "v" ."#,
            r#"_:b <http://p> "bonjour"@fr ."#,
            r#"<http://s> <http://p> "4"^^<http://www.w3.org/2001/XMLSchema#integer> ."#,
            r#"<http://s> <http://p> "a\nb" ."#,
        ];
        for line in lines {
            let refs = ntriples::lex_line(line).unwrap().unwrap();
            for r in &refs {
                // the graph path hashes a view of the owned Term; both views
                // of the same term must land in the same shard bucket
                let owned = r.to_term();
                assert_eq!(hash64(r), hash64(&term_ref_of(&owned)), "{line}");
                assert!(*r == owned);
            }
        }
        // distinct term kinds with equal payload must not collide by design
        assert_ne!(hash64(&TermRef::Iri("x")), hash64(&TermRef::Blank("x")));
        assert_ne!(
            hash64(&TermRef::Iri("x")),
            hash64(&term_ref_of(&Term::string("x")))
        );
    }

    #[test]
    fn block_reader_cuts_at_newlines() {
        let text = "line one\nline two\nline three no newline";
        let mut r = BlockReader::with_block_size(text.as_bytes(), 10);
        let mut blocks = Vec::new();
        while let Some(b) = r.next_block().unwrap() {
            blocks.push(b);
        }
        assert!(blocks.len() >= 2, "{blocks:?}");
        assert_eq!(blocks.concat(), text);
        for b in &blocks[..blocks.len() - 1] {
            assert!(b.ends_with('\n'), "mid block must end on a newline: {b:?}");
        }
        // a block holding a line longer than the block size still arrives whole
        let long = format!("{}\nshort\n", "x".repeat(64));
        let mut r = BlockReader::with_block_size(long.as_bytes(), 8);
        let first = r.next_block().unwrap().unwrap();
        assert!(first.ends_with('\n'));
        assert!(first.len() >= 65);
        let mut rest = String::new();
        while let Some(b) = r.next_block().unwrap() {
            rest.push_str(&b);
        }
        assert_eq!(format!("{first}{rest}"), long);
    }

    #[test]
    fn block_reader_rejects_invalid_utf8() {
        let bytes: &[u8] = b"<http://s> <http://p> \"\xff\" .\n";
        let mut r = BlockReader::new(bytes);
        let err = r.next_block().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }
}

