//! The ingest pipeline: zero-copy parsing, one batch-local dictionary per
//! parsed block, and sort-based index builds. Every load entry point of
//! [`Store`] runs through it, [`Store::load_graph`], [`Store::load_turtle`]
//! and [`Store::load_ntriples`] included.
//!
//! 1. **Zero-copy parsing** — each line is lexed with
//!    [`ntriples::lex_line`], which yields borrowed lexemes: no per-term
//!    `String` is allocated while a block is parsed.
//! 2. **Batch-local interning** — a parsed block's terms go into a local
//!    dictionary keyed by a 64-bit content hash. Only once the whole block
//!    has parsed are the local entries handed to the store's interner, in
//!    first-occurrence order, so a malformed line leaves the store untouched
//!    and term ids follow document order, exactly as the per-triple path
//!    assigns them.
//! 3. **Sort-based index build** — the remapped `IdTriple`s of every block
//!    are sorted and deduplicated once (document order groups triples by
//!    subject, so the run is nearly sorted already); SPO/POS/OSP are then
//!    bulk-built from the sorted run (`TripleIndex::from_sorted_spo`)
//!    instead of per-triple inserts.
//!
//! Streaming loads ([`Store::load_ntriples_path`]) read the file in
//! newline-aligned blocks (`BlockReader`) and run steps 1 and 2 per block,
//! step 3 once at the end. The pipeline runs on the caller's thread: a
//! sharded multi-worker variant measured slower on the paper-scale load
//! (DESIGN.md, "Bulk ingest").
//!
//! The seed per-triple path (parse into owned terms, then intern and insert
//! one triple at a time) lives in the dev-only `rdfa-oracle` crate as the
//! reference; `tests/ingest_differential.rs` proves the pipeline produces a
//! store identical to it (term ids, generation counter, all three indexes).

use crate::index::{key, IdTriple, TripleIndex};
use crate::interner::{hash64, term_ref_of, Interner, Slot, TermId, U64Map};
use crate::store::Store;
use rdfa_model::ntriples::{self, NtriplesError, TermRef};
use rdfa_model::{turtle, Graph};
use std::collections::hash_map::Entry;
use std::fmt;
use std::io::Read;
use std::path::Path;

/// The options argument of [`Store::load_ntriples_path`]. It has no fields
/// and the loader ignores it: it stays only so that existing callers of
/// `load_ntriples_path(path, LoadOptions::default())` keep compiling.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadOptions {}

/// What a bulk load did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadStats {
    /// Triples parsed from the input, duplicates included.
    pub triples: usize,
    /// Distinct triples newly added to the store.
    pub added: usize,
    /// Terms newly interned.
    pub terms_added: usize,
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

// ---- phase 1: parse into a batch-local dictionary -----------------------

/// A batch-local dictionary: borrowed term views in first-occurrence order,
/// their hashes, and a hash → local-id bucket map. Nothing here owns term
/// text — entries borrow the input, and [`assign_ids`] probes the store's
/// interner with them as they are; only a term new to the store becomes an
/// owned [`Term`](rdfa_model::Term).
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

/// A fully parsed block, ready to merge into a store: its dictionary and
/// its triples over local ids. Borrows the input text (zero-copy), but is
/// structurally complete — callers can validate a payload before committing
/// side effects (the WAL logs between parse and apply).
pub(crate) struct Batch<'a> {
    dict: LocalDict<'a>,
    triples: Vec<[u32; 3]>,
    lines: usize,
}

/// Lex and locally intern an N-Triples text. Errors carry the 1-based line
/// number *within this text*; the first malformed line wins.
fn parse_batch(text: &str) -> Result<Batch<'_>, NtriplesError> {
    // N-Triples lines run ~100+ bytes and real graphs re-use most terms;
    // these estimates only size the initial tables, correctness never
    // depends on them
    let mut dict = LocalDict::with_capacity(text.len() / 256);
    let mut triples = Vec::with_capacity(text.len() / 96);
    let mut lines = 0usize;
    // real-world dumps group consecutive lines by subject, so remembering
    // the previous subject's local id skips a hash+probe for the common
    // repeat (subject views are borrowed slices — the clone is a pointer
    // copy); predicates come from a small schema vocabulary that recurs in
    // every subject's line group, so a short ring of recent predicates
    // short-circuits most predicate interns the same way
    let mut last_subject: Option<(TermRef<'_>, u32)> = None;
    let mut recent_preds: Vec<(TermRef<'_>, u32)> = Vec::with_capacity(PRED_MEMO);
    for line in text.lines() {
        lines += 1;
        let Some([s, p, o]) = ntriples::lex_line(line).map_err(|e| e.at_line(lines))? else {
            continue;
        };
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
    Ok(Batch { dict, triples, lines })
}

/// Recent-predicate ring size: big enough to hold a uniform schema's
/// per-subject predicate set, small enough that a miss costs a few string
/// length checks.
const PRED_MEMO: usize = 16;

/// Locally intern an already-parsed graph (the Turtle and datagen path).
fn graph_batch(graph: &Graph) -> Batch<'_> {
    let mut dict = LocalDict::with_capacity(graph.len());
    let triples = graph
        .iter()
        .map(|t| {
            let s = dict.intern(term_ref_of(&t.subject));
            let p = dict.intern(term_ref_of(&t.predicate));
            let o = dict.intern(term_ref_of(&t.object));
            [s, p, o]
        })
        .collect();
    Batch { dict, triples, lines: 0 }
}

// ---- phase 2: global id assignment ---------------------------------------

/// Translate a batch dictionary into a `local id → global TermId` table by
/// probing the store's interner once per local entry with its borrowed
/// view, allocating only for terms the store lacks. Local ids are in
/// first-occurrence order, so new terms get global ids in document order —
/// the canonical order, identical to the per-triple path.
fn assign_ids(dict: &LocalDict<'_>, interner: &mut Interner) -> Vec<TermId> {
    dict.terms
        .iter()
        .zip(&dict.hashes)
        .map(|(t, &h)| interner.get_or_intern_ref(h, t))
        .collect()
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

/// Merge a sorted distinct run of new triples into the explicit index,
/// rebuilding all three permutations in bulk. Returns how many triples were
/// actually new. Also the ingest engine behind the segment overlay's
/// [`crate::layer::SegLayer::bulk_extend`].
pub(crate) fn extend_index(explicit: &mut TripleIndex, new_run: Vec<IdTriple>) -> usize {
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
    *explicit = TripleIndex::from_sorted_spo(combined);
    added
}

// ---- the loader ----------------------------------------------------------

/// Accumulates parsed batches into a store and builds the indexes once at
/// the end — the engine behind every load entry point, the streaming and
/// persistent loaders included, which interleave block reads or WAL
/// appends between batches.
pub(crate) struct BulkLoader<'s> {
    store: &'s mut Store,
    staged: Vec<IdTriple>,
    line_base: usize,
    triples_seen: usize,
    terms_before: usize,
}

impl<'s> BulkLoader<'s> {
    pub(crate) fn new(store: &'s mut Store) -> Self {
        let terms_before = store.term_count();
        BulkLoader { store, staged: Vec::new(), line_base: 0, triples_seen: 0, terms_before }
    }

    /// Parse a text block. Error line numbers are absolute across all
    /// blocks ingested through this loader so far.
    pub(crate) fn parse<'t>(&self, text: &'t str) -> Result<Batch<'t>, NtriplesError> {
        // a byte-order mark can only open the document, not a later block
        let text = if self.line_base == 0 { ntriples::strip_bom(text) } else { text };
        parse_batch(text).map_err(|mut e| {
            e.line += self.line_base;
            e
        })
    }

    /// Merge a parsed batch into the store's interner (global ids in
    /// document first-occurrence order) and stage its triples remapped to
    /// global ids.
    pub(crate) fn apply(&mut self, batch: Batch<'_>) {
        let Batch { dict, triples, lines } = batch;
        self.line_base += lines;
        self.triples_seen += triples.len();
        let table = assign_ids(&dict, &mut self.store.interner);
        self.staged.extend(
            triples
                .iter()
                .map(|&[s, p, o]| [table[s as usize], table[p as usize], table[o as usize]]),
        );
    }

    /// Parse and stage one text block.
    pub(crate) fn ingest_text(&mut self, text: &str) -> Result<(), NtriplesError> {
        let batch = self.parse(text)?;
        self.apply(batch);
        Ok(())
    }

    /// Sort + dedup the staged triples, bulk-(re)build the explicit
    /// indexes, and account generation/dirtiness exactly like the
    /// per-triple path: one bump per genuinely new triple, plus the
    /// materialization bump when `materialize` is set (the load paths
    /// always materialize; WAL replay defers it to the end of recovery).
    pub(crate) fn finish(self, materialize: bool) -> LoadStats {
        let BulkLoader { store, mut staged, triples_seen, terms_before, .. } = self;
        staged.sort_unstable_by_key(|&t| key(t));
        staged.dedup();
        if let Some(log) = &mut store.log {
            // a recording transaction logs what the merge below adds
            let added = staged.iter().filter(|&&t| !store.explicit.contains(t));
            log.extend(added.map(|&t| (t, true)));
        }
        let added = match &mut store.explicit {
            crate::layer::Layer::Mem(idx) => extend_index(idx, staged),
            crate::layer::Layer::Seg(sl) => sl.bulk_extend(staged),
        };
        if added > 0 {
            store.note_bulk_insert(added);
        }
        if materialize {
            store.materialize_inference();
        }
        // the loaded terms become a frozen chunk, as at a publish, so a
        // facet panel over them sorts by the chunk's display order
        store.interner.freeze();
        LoadStats { triples: triples_seen, added, terms_added: store.term_count() - terms_before }
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
    /// Bulk-load an N-Triples document and materialize inference. The error
    /// carries the line number and offending lexeme of the first failure;
    /// on error the store is untouched.
    pub fn load_ntriples(&mut self, text: &str) -> Result<LoadStats, NtriplesError> {
        let mut loader = BulkLoader::new(self);
        loader.ingest_text(text)?;
        Ok(loader.finish(true))
    }

    /// Bulk-load an already-parsed graph (the datagen and Turtle path) and
    /// materialize inference.
    pub fn load_graph(&mut self, graph: &Graph) -> LoadStats {
        let batch = graph_batch(graph);
        let mut loader = BulkLoader::new(self);
        loader.apply(batch);
        loader.finish(true)
    }

    /// Stream N-Triples from a reader in newline-aligned blocks, bulk-
    /// ingesting each block: the document is never held in memory at once.
    pub fn load_ntriples_reader(&mut self, reader: impl Read) -> Result<LoadStats, LoadError> {
        let mut blocks = BlockReader::new(reader);
        let mut loader = BulkLoader::new(self);
        while let Some(block) = blocks.next_block()? {
            loader.ingest_text(&block)?;
        }
        Ok(loader.finish(true))
    }

    /// Stream-load an N-Triples file ([`Store::load_ntriples_reader`] over
    /// a [`std::fs::File`]). `_opts` is ignored (see [`LoadOptions`]).
    pub fn load_ntriples_path(
        &mut self,
        path: impl AsRef<Path>,
        _opts: LoadOptions,
    ) -> Result<LoadStats, LoadError> {
        let file = std::fs::File::open(path)?;
        self.load_ntriples_reader(file)
    }

    /// Load a Turtle file. Turtle is stateful (prefix declarations scope
    /// the whole document), so it is parsed whole, then loaded as a graph.
    pub fn load_turtle_path(&mut self, path: impl AsRef<Path>) -> Result<LoadStats, LoadError> {
        let text = std::fs::read_to_string(path)?;
        let graph = turtle::parse(&text)?;
        Ok(self.load_graph(&graph))
    }

    /// Parse and load a Turtle document; returns the parsed triple count.
    pub fn load_turtle(&mut self, text: &str) -> Result<usize, turtle::TurtleError> {
        let graph = turtle::parse(text)?;
        self.load_graph(&graph);
        Ok(graph.len())
    }

    /// WAL-replay entry point: bulk-ingest an `OP_LOAD` payload *without*
    /// materializing inference — recovery replays many records and
    /// materializes once at the end, and per-insert generation accounting
    /// must match the sequential replay exactly.
    pub(crate) fn bulk_replay_ntriples(&mut self, text: &str) -> Result<usize, NtriplesError> {
        let mut loader = BulkLoader::new(self);
        loader.ingest_text(text)?;
        Ok(loader.finish(false).added)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Perm;
    use crate::layer::Layer;
    use rdfa_model::Term;

    fn t(s: u32, p: u32, o: u32) -> IdTriple {
        [TermId(s), TermId(p), TermId(o)]
    }

    #[test]
    fn merge_dedup_unions_sorted_runs() {
        let a = vec![t(1, 1, 1), t(2, 2, 2), t(5, 5, 5)];
        let b = vec![t(2, 2, 2), t(3, 3, 3)];
        let m = merge_dedup(a, b);
        assert_eq!(m, vec![t(1, 1, 1), t(2, 2, 2), t(3, 3, 3), t(5, 5, 5)]);
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
                // of the same term must land in the same interner bucket
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

    /// A reader that hands out one byte per call, so [`BlockReader`] cuts
    /// each block at the first newline past its block size.
    struct ByteAtATime<'a>(&'a [u8]);

    impl Read for ByteAtATime<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.len().min(buf.len()).min(1);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    /// Load `text` through the streaming loader in blocks of about
    /// `block_size` bytes; returns the store and how many blocks it took.
    fn load_in_blocks(text: &str, block_size: usize) -> Result<(Store, usize), NtriplesError> {
        let mut store = Store::new();
        let mut blocks = BlockReader::with_block_size(ByteAtATime(text.as_bytes()), block_size);
        let mut loader = BulkLoader::new(&mut store);
        let mut n_blocks = 0;
        while let Some(block) = blocks.next_block().expect("in-memory read") {
            n_blocks += 1;
            loader.ingest_text(&block)?;
        }
        loader.finish(true);
        Ok((store, n_blocks))
    }

    /// Term ids, generation and all three permutations, element by element.
    fn assert_same_store(a: &Store, b: &Store, ctx: &str) {
        assert_eq!(a.term_count(), b.term_count(), "{ctx}: term count");
        for i in 0..a.term_count() {
            let id = TermId(i as u32);
            assert_eq!(a.term(id), b.term(id), "{ctx}: term {i}");
        }
        assert_eq!(a.generation(), b.generation(), "{ctx}: generation");
        assert_eq!(a.len_entailed(), b.len_entailed(), "{ctx}: entailed count");
        let (Layer::Mem(ia), Layer::Mem(ib)) = (&a.explicit, &b.explicit) else {
            panic!("{ctx}: fresh stores are in memory");
        };
        for perm in Perm::ALL {
            let ra: Vec<_> = ia.iter_perm(perm).collect();
            let rb: Vec<_> = ib.iter_perm(perm).collect();
            assert_eq!(ra, rb, "{ctx}: {perm:?}");
        }
    }

    fn multi_block_doc() -> String {
        let mut text = String::new();
        for i in 0..60 {
            let s = i % 17;
            text.push_str(&format!("<http://s{s}> <http://p{}> \"v{}\" .\n", i % 5, i % 13));
            text.push_str(&format!("<http://s{s}> <http://p{}> <http://s{}> .\n", i % 3, i % 11));
        }
        text
    }

    #[test]
    fn block_boundaries_do_not_change_the_store() {
        let text = multi_block_doc();
        let mut whole = Store::new();
        let stats = whole.load_ntriples(&text).unwrap();
        assert!(stats.added > 0);
        // ~40 bytes a line: blocks of one, a few and a dozen lines
        for block_size in [1, 100, 200, 480] {
            let (blocked, n_blocks) = load_in_blocks(&text, block_size).unwrap();
            assert!(n_blocks > 5, "block size {block_size}: only {n_blocks} blocks");
            assert_same_store(&whole, &blocked, &format!("block size {block_size}"));
        }
    }

    #[test]
    fn a_malformed_line_in_a_later_block_reports_its_document_line() {
        let mut lines: Vec<String> = multi_block_doc().lines().map(str::to_owned).collect();
        lines[96] = "<http://s1> <http://p1> \"open literal .".to_owned();
        let text = lines.join("\n");
        let want = ntriples::parse(&text).unwrap_err();
        assert_eq!(want.line, 97);
        for block_size in [1, 100, 200] {
            let Err(err) = load_in_blocks(&text, block_size) else {
                panic!("block size {block_size}: the load must fail");
            };
            assert_eq!(err, want, "block size {block_size}");
        }
    }

    #[test]
    fn boundary_hazards_split_at_every_line_give_the_same_store() {
        // the fixture of `tests/ingest_differential.rs::chunk_boundary_hazards`:
        // a BOM, CRLF endings, escaped newlines, a comment, a blank line, a
        // duplicate triple and no final newline
        let doc = "\u{feff}<http://ex.org/a> <http://ex.org/p> \"one\\ntwo\\nthree\" .\r\n\
                   # comment between triples\n\
                   <http://ex.org/b> <http://ex.org/p> \"say \\\"hi\\\"\\n\" .\n\
                   \n\
                   <http://ex.org/c> <http://ex.org/p> \"trailing\\\\\" .\r\n\
                   <http://ex.org/a> <http://ex.org/p> \"one\\ntwo\\nthree\" .\n\
                   <http://ex.org/d> <http://ex.org/q> _:tail .";
        let mut whole = Store::new();
        let stats = whole.load_ntriples(doc).unwrap();
        assert_eq!((stats.triples, stats.added), (5, 4));
        let (blocked, n_blocks) = load_in_blocks(doc, 1).unwrap();
        assert_eq!(n_blocks, doc.lines().count(), "one block per line");
        assert_same_store(&whole, &blocked, "one line a block");
        // a byte-order mark opens the document only: one that opens a later
        // block is as malformed as anywhere else mid-document
        let mid = "<http://ex.org/a> <http://ex.org/p> <http://ex.org/b> .\n\
                   \u{feff}<http://ex.org/c> <http://ex.org/p> <http://ex.org/d> .\n";
        let want = ntriples::parse(mid).unwrap_err();
        assert_eq!(want.line, 2);
        assert_eq!(load_in_blocks(mid, 1).err(), Some(want));
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

