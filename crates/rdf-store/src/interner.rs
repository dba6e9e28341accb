//! Term interning: bijective mapping between [`Term`]s and dense u32 ids.
//!
//! The id tables are keyed by a 64-bit content hash instead of the term
//! itself: buckets hold term *ids* and equality checks go against the
//! terms, so a table never owns a second copy of any term, and table
//! growth rehashes plain `u64`s rather than re-walking string keys. The
//! same hash (and bucket layout) keys the batch-local dictionary of bulk
//! ingest in [`crate::bulk`], so a lexed borrowed view is probed as it is
//! and becomes an owned term only when it is new.
//!
//! The dictionary is a frozen base of `Arc`-shared chunks plus a mutable
//! tail. Publishing a store generation freezes the tail into a new chunk
//! (`Interner::freeze`); a clone then shares every chunk, so a write
//! transaction or a checkpoint pays for the terms it adds, not for the
//! dictionary.

use rdfa_model::ntriples::TermRef;
use rdfa_model::Term;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::{Arc, OnceLock};

/// Raw parts of one verified-but-undecoded term chunk:
/// `(first id, per-term end offsets, per-term content hashes, payload)`.
pub(crate) type TermChunkParts = (usize, Vec<u32>, Vec<u64>, Vec<u8>);

// ---- content hashing shared by the interner and bulk ingest --------------
//
// The hash is a pure function of term *content*, so the borrowed and owned
// views of one term always agree; nothing else is required of it — a
// collision merely lengthens a probe list, it can never change results.
// Strings are mixed a 64-bit word at a time (byte-serial hashes such as FNV
// cost ~3 cycles/byte on the multiply dependency chain and dominate the
// parse phase); each field's length is mixed in, which keeps field
// boundaries unambiguous without separator bytes.

const HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const HASH_MULT: u64 = 0x517c_c1b7_2722_0a95;

#[inline]
fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(HASH_MULT)
}

#[inline]
fn hash_str(mut h: u64, s: &str) -> u64 {
    let bytes = s.as_bytes();
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = mix(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = mix(h, u64::from_le_bytes(tail));
    }
    mix(h, bytes.len() as u64)
}

/// Hash of a borrowed term view. Kind tags keep `<x>`, `_:x` and `"x"`
/// apart; the hash depends only on term content, never on whether a field
/// happens to be borrowed or owned.
pub(crate) fn hash64(t: &TermRef<'_>) -> u64 {
    match t {
        TermRef::Iri(s) => hash_str(mix(HASH_SEED, 1), s),
        TermRef::Blank(s) => hash_str(mix(HASH_SEED, 2), s),
        TermRef::Literal { lexical, datatype, lang } => {
            let mut h = hash_str(mix(HASH_SEED, 3), lexical);
            h = hash_str(h, datatype);
            match lang {
                Some(l) => hash_str(mix(h, 1), l),
                None => mix(h, 0),
            }
        }
    }
}

/// A borrowed view of an owned [`Term`], so owned terms flow through the
/// same hashing as zero-copy lexed views.
pub(crate) fn term_ref_of(term: &Term) -> TermRef<'_> {
    match term {
        Term::Iri(s) => TermRef::Iri(s),
        Term::Blank(s) => TermRef::Blank(s),
        Term::Literal(l) => TermRef::Literal {
            lexical: Cow::Borrowed(&l.lexical),
            datatype: &l.datatype,
            lang: l.lang.as_deref(),
        },
    }
}

/// Keys are already FNV-mixed 64-bit hashes; rehashing them through SipHash
/// would only burn cycles.
#[derive(Default, Clone, Debug)]
pub(crate) struct Passthrough(u64);

impl std::hash::Hasher for Passthrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix(self.0, u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

pub(crate) type U64Map<V> = HashMap<u64, V, BuildHasherDefault<Passthrough>>;

/// Hash-bucket occupancy: almost always one id per 64-bit hash; true
/// collisions fall back to a probe list compared term-by-term.
#[derive(Clone, Debug)]
pub(crate) enum Slot {
    One(u32),
    Many(Vec<u32>),
}

impl Slot {
    fn ids(&self) -> &[u32] {
        match self {
            Slot::One(id) => std::slice::from_ref(id),
            Slot::Many(ids) => ids,
        }
    }
}

/// A dense identifier for an interned term. Ids are assigned sequentially
/// from 0 and never reused, so they index directly into the interner's
/// term table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// The raw index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// One frozen chunk of the dictionary: the terms with ids
/// `from..from + slots.len()`, immutable once built and shared between
/// store generations behind an `Arc`. A slot is filled either when the
/// chunk is frozen (terms interned in this process) or on first access,
/// decoded from the CRC-verified payload of a persisted chunk (the restart
/// path): a store that only ever touches 1% of a reopened dictionary only
/// pays for that 1%, as segment blocks decode on demand.
pub(crate) struct TermChunk {
    from: usize,
    slots: Vec<OnceLock<Term>>,
    /// End offset of term `k`'s encoding within `payload`; term `k` starts
    /// at `offsets[k - 1]` (or 0). Validated monotone at open. Both are
    /// empty for a chunk frozen in this process, whose slots are all full.
    offsets: Vec<u32>,
    payload: Vec<u8>,
    /// The chunk's display order: `display_rank[k]` is term `k`'s position
    /// among the chunk's terms ordered by `(display_str, id)`. Built by the
    /// first display sort that needs it, never on freeze or open, so a
    /// reopened chunk decodes its terms only once a panel sorts them.
    display_rank: OnceLock<Vec<u32>>,
}

impl TermChunk {
    fn new(from: usize, slots: Vec<OnceLock<Term>>, offsets: Vec<u32>, payload: Vec<u8>) -> Self {
        TermChunk { from, slots, offsets, payload, display_rank: OnceLock::new() }
    }

    /// Whether global id `idx` lies in this chunk.
    fn covers(&self, idx: usize) -> bool {
        idx.wrapping_sub(self.from) < self.slots.len()
    }

    /// `base + k` for each `k` in `0..ids.len()`, ordered by the display
    /// order of the global ids `ids[k]`, which must all lie in this chunk,
    /// ascending. A group that is a large share of the chunk is placed by
    /// rank in one pass over the chunk's rank space; a small one is sorted
    /// by rank.
    fn display_order(&self, ids: &[usize], base: usize) -> Vec<usize> {
        let n = ids.len();
        if n < 2 {
            return (base..base + n).collect();
        }
        let rank = self.display_rank();
        let rank_of = |k: usize| rank[ids[k] - self.from] as usize;
        if n * (n.ilog2() as usize + 1) < rank.len() || ids.windows(2).any(|w| w[0] == w[1]) {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_unstable_by_key(|&k| rank_of(k));
            return order.into_iter().map(|k| base + k).collect();
        }
        let mut slot = vec![u32::MAX; rank.len()];
        for k in 0..n {
            slot[rank_of(k)] = k as u32;
        }
        slot.into_iter().filter(|&k| k != u32::MAX).map(|k| base + k as usize).collect()
    }

    fn display_rank(&self) -> &[u32] {
        self.display_rank.get_or_init(|| {
            let mut order: Vec<u32> = (0..self.slots.len() as u32).collect();
            // stable: equal display strings stay in id order
            order.sort_by_cached_key(|&k| self.term(k as usize).display_str());
            let mut rank = vec![0u32; order.len()];
            for (r, &k) in order.iter().enumerate() {
                rank[k as usize] = r as u32;
            }
            rank
        })
    }

    fn term(&self, local: usize) -> &Term {
        self.slots[local].get_or_init(|| {
            let start = if local == 0 { 0 } else { self.offsets[local - 1] as usize };
            let end = self.offsets[local] as usize;
            let mut cur = crate::persist::term_codec::Cursor {
                buf: &self.payload[start..end],
                pos: 0,
                what: "term chunk",
            };
            // the payload was CRC-verified when the chunk was opened, so a
            // decode failure here is a logic error, not disk corruption
            crate::persist::term_codec::decode_term(&mut cur, self.from + local)
                .expect("CRC-verified term payload decodes")
        })
    }
}

impl std::fmt::Debug for TermChunk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TermChunk")
            .field("from", &self.from)
            .field("count", &self.slots.len())
            .field("bytes", &self.payload.len())
            .finish()
    }
}

/// Consecutive chunks covering ids `from..from + len`, with one id table
/// over all of them.
#[derive(Debug)]
struct FrozenTerms {
    from: usize,
    len: usize,
    chunks: Vec<Arc<TermChunk>>,
    ids: U64Map<Slot>,
}

/// Bijective term ↔ id table.
///
/// Interning is the only way ids are created, so
/// `term(get_or_intern(t)) == t` and interning is idempotent — both
/// properties are property-tested.
///
/// Internally a frozen base of `Arc`-shared chunks plus a mutable tail of
/// the terms interned since the last freeze. Ids stay dense across the
/// split: the base covers `0..frozen`, the tail the rest. Publishing a
/// store generation freezes its tail into a new chunk, so the next write
/// transaction's clone copies chunk pointers and an empty tail, and pays
/// only for the terms *it* adds, whatever the dictionary holds.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    /// Id tables over runs of chunks, oldest first; each run is less than
    /// half the length of the one before it (see `freeze`).
    base: Vec<Arc<FrozenTerms>>,
    /// The largest chunk of `base`, which `term_at` tries before walking
    /// the runs: it usually holds nearly every term, and a term lookup is
    /// on the path of every term an answer prints.
    hot: Option<Arc<TermChunk>>,
    terms: Vec<Term>,
    ids: U64Map<Slot>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Build an interner over *undecoded* persisted chunks — the restart
    /// path. The id table comes straight from the content hashes persisted
    /// next to each chunk payload, so no term is decoded here; terms
    /// materialize lazily on first access. Chunks must be contiguous from
    /// id 0 and carry one offset and one hash per term.
    pub(crate) fn from_chunks(parts: Vec<TermChunkParts>) -> Interner {
        let total: usize = parts.iter().map(|(_, o, _, _)| o.len()).sum();
        if total == 0 {
            return Interner::new();
        }
        let mut ids: U64Map<Slot> = U64Map::with_capacity_and_hasher(total, Default::default());
        let mut chunks: Vec<Arc<TermChunk>> = Vec::with_capacity(parts.len());
        for (from, offsets, hashes, payload) in parts {
            let covered = chunks.last().map_or(0, |c| c.from + c.slots.len());
            debug_assert_eq!(from, covered, "chunks must be contiguous");
            debug_assert_eq!(offsets.len(), hashes.len());
            for (k, &h) in hashes.iter().enumerate() {
                bucket_insert(&mut ids, h, (from + k) as u32);
            }
            let slots = (0..offsets.len()).map(|_| OnceLock::new()).collect();
            chunks.push(Arc::new(TermChunk::new(from, slots, offsets, payload)));
        }
        let hot = chunks.iter().max_by_key(|c| c.slots.len()).cloned();
        let base = vec![Arc::new(FrozenTerms { from: 0, len: total, chunks, ids })];
        Interner { base, hot, terms: Vec::new(), ids: Default::default() }
    }

    /// Number of terms in the frozen, `Arc`-shared base.
    pub(crate) fn frozen_len(&self) -> usize {
        self.base.last().map_or(0, |f| f.from + f.len)
    }

    /// Move the tail into a new frozen chunk, so clones of this interner
    /// share the whole current dictionary. Publishing a store generation
    /// calls this. No older chunk is touched: the new chunk is appended,
    /// and its id table is merged into the one before it while it is at
    /// least half that table's length, which copies `u64 → id` entries
    /// (each entry O(log n) times over n terms), never a term, and keeps
    /// the base at most ⌊log₂ n⌋ + 1 tables. No-op when the tail is empty.
    pub(crate) fn freeze(&mut self) {
        if self.terms.is_empty() {
            return;
        }
        let from = self.frozen_len();
        let slots = std::mem::take(&mut self.terms).into_iter().map(OnceLock::from).collect();
        let chunk = Arc::new(TermChunk::new(from, slots, Vec::new(), Vec::new()));
        if self.hot.as_ref().is_none_or(|hot| hot.slots.len() < chunk.slots.len()) {
            self.hot = Some(Arc::clone(&chunk));
        }
        let mut run = FrozenTerms {
            from,
            len: chunk.slots.len(),
            chunks: vec![chunk],
            ids: std::mem::take(&mut self.ids),
        };
        while let Some(prev) = self.base.pop_if(|prev| 2 * run.len >= prev.len) {
            // the smaller of the two id tables is copied into the larger
            let (mut ids, other) = if run.len >= prev.len {
                (std::mem::take(&mut run.ids), &prev.ids)
            } else {
                (prev.ids.clone(), &run.ids)
            };
            for (&h, slot) in other {
                slot.ids().iter().for_each(|&id| bucket_insert(&mut ids, h, id));
            }
            let mut chunks = prev.chunks.clone();
            chunks.append(&mut run.chunks);
            run = FrozenTerms { from: prev.from, len: prev.len + run.len, chunks, ids };
        }
        self.base.push(Arc::new(run));
    }

    /// The frozen chunk holding id `idx`; `None` for an id in the tail.
    #[inline]
    fn chunk_of(&self, idx: usize) -> Option<&TermChunk> {
        if let Some(hot) = self.hot.as_deref().filter(|hot| hot.covers(idx)) {
            return Some(hot);
        }
        let run = self.base.iter().find(|run| idx < run.from + run.len)?;
        Some(&run.chunks[run.chunks.partition_point(|c| c.from <= idx) - 1])
    }

    #[inline]
    fn term_at(&self, idx: usize) -> &Term {
        match self.chunk_of(idx) {
            Some(chunk) => chunk.term(idx - chunk.from),
            None => &self.terms[idx - self.frozen_len()],
        }
    }

    /// Sort `items` by the display name of the term `id` picks out of
    /// each, ties by id: the order of every marker list in the facet
    /// panel.
    ///
    /// The items are first put in id order, which groups them by frozen
    /// chunk. Each chunk's group is ordered by the chunk's display order
    /// (integers only), the tail's group by string, and the groups are then
    /// merged by `(display_str, id)`, which compares strings only where
    /// groups interleave.
    pub(crate) fn sort_by_display<T>(&self, items: &mut [T], id: impl Fn(&T) -> TermId) {
        if items.len() < 2 {
            return;
        }
        items.sort_unstable_by_key(&id);
        let ids: Vec<usize> = items.iter().map(|x| id(x).idx()).collect();
        // each group: positions into `items`, in display order
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut start = 0;
        while start < ids.len() {
            let group = match self.chunk_of(ids[start]) {
                Some(chunk) => {
                    let len = ids[start..].partition_point(|&i| chunk.covers(i));
                    chunk.display_order(&ids[start..start + len], start)
                }
                None => {
                    // stable over id order: ties by id
                    let mut group: Vec<usize> = (start..ids.len()).collect();
                    group.sort_by_cached_key(|&k| self.term_at(ids[k]).display_str());
                    group
                }
            };
            start += group.len();
            groups.push(group);
        }
        // merge smallest first; a smaller group is placed into a larger one
        // by binary search, so strings are compared O(small · log large)
        // times
        groups.sort_by_key(|g| std::cmp::Reverse(g.len()));
        let Some(mut order) = groups.pop() else {
            return;
        };
        let key = |k: usize| (self.term_at(ids[k]).display_str(), ids[k]);
        while let Some(group) = groups.pop() {
            let (small, large) =
                if order.len() <= group.len() { (order, group) } else { (group, order) };
            let mut merged = Vec::with_capacity(small.len() + large.len());
            let mut at = 0;
            for k in small {
                let kk = key(k);
                let skip = large[at..].partition_point(|&j| key(j) < kk);
                merged.extend_from_slice(&large[at..at + skip]);
                merged.push(k);
                at += skip;
            }
            merged.extend_from_slice(&large[at..]);
            order = merged;
        }
        permute(items, &order);
    }

    fn find(&self, h: u64, t: &TermRef<'_>) -> Option<TermId> {
        let probe = |slot: &Slot| {
            let ids = slot.ids().iter();
            ids.copied().find(|&i| self.term_at(i as usize) == t).map(TermId)
        };
        self.base
            .iter()
            .map(|f| &f.ids)
            .chain([&self.ids])
            .find_map(|ids| ids.get(&h).and_then(probe))
    }

    /// Intern a term, returning its id (existing or fresh).
    pub fn get_or_intern(&mut self, term: &Term) -> TermId {
        let t = term_ref_of(term);
        self.get_or_intern_ref(hash64(&t), &t)
    }

    /// Intern a borrowed term view whose content hash `h` is already in
    /// hand (bulk ingest hashed it when the block was parsed). The owned
    /// [`Term`] is built only when the term is new.
    pub(crate) fn get_or_intern_ref(&mut self, h: u64, t: &TermRef<'_>) -> TermId {
        debug_assert_eq!(h, hash64(t), "stale content hash");
        if let Some(id) = self.find(h, t) {
            return id;
        }
        let id = TermId(self.len() as u32);
        self.terms.push(t.to_term());
        bucket_insert(&mut self.ids, h, id.0);
        id
    }

    /// Look up the id of a term without interning it.
    pub fn lookup(&self, term: &Term) -> Option<TermId> {
        let t = term_ref_of(term);
        self.find(hash64(&t), &t)
    }

    /// Resolve an id back to its term.
    ///
    /// # Panics
    /// Panics if the id was not produced by this interner.
    pub fn term(&self, id: TermId) -> &Term {
        self.term_at(id.idx())
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.frozen_len() + self.terms.len()
    }

    /// True when no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over `(id, term)` pairs in id order. Over a reopened
    /// dictionary this decodes every term — callers that only need the
    /// newest terms (e.g. the checkpoint's incremental chunk write) should
    /// use [`iter_from`](Interner::iter_from).
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.iter_from(0)
    }

    /// Iterate over `(id, term)` pairs for ids `start..len()`, touching
    /// only those terms.
    pub fn iter_from(&self, start: usize) -> impl Iterator<Item = (TermId, &Term)> {
        (start..self.len()).map(move |i| (TermId(i as u32), self.term_at(i)))
    }

    /// The frozen chunks, oldest first.
    #[cfg(test)]
    pub(crate) fn chunks(&self) -> impl Iterator<Item = &Arc<TermChunk>> {
        self.base.iter().flat_map(|f| &f.chunks)
    }

    /// How many persisted terms have been decoded so far.
    #[cfg(test)]
    pub(crate) fn decoded(&self) -> usize {
        let persisted = self.chunks().filter(|c| !c.payload.is_empty());
        persisted.map(|c| c.slots.iter().filter(|s| s.get().is_some()).count()).sum()
    }
}

/// Reorder `items` so that position `k` holds the element that was at
/// `order[k]`; `order` must be a permutation of `0..items.len()`. Each
/// cycle of the permutation is walked once, swapping along it.
fn permute<T>(items: &mut [T], order: &[usize]) {
    let mut placed = vec![false; items.len()];
    for start in 0..items.len() {
        let mut k = start;
        while !placed[k] {
            placed[k] = true;
            let src = order[k];
            if src == start {
                break;
            }
            items.swap(k, src);
            k = src;
        }
    }
}

/// Append `id` to the bucket for hash `h` — the one id-table insert, used
/// by the tail, the freeze merge, and the persisted-hash build.
fn bucket_insert(ids: &mut U64Map<Slot>, h: u64, id: u32) {
    match ids.entry(h) {
        Entry::Occupied(mut e) => match e.get_mut() {
            Slot::One(first) => {
                let first = *first;
                *e.get_mut() = Slot::Many(vec![first, id]);
            }
            Slot::Many(is) => is.push(id),
        },
        Entry::Vacant(e) => {
            e.insert(Slot::One(id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfa_prng::StdRng;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.get_or_intern(&Term::iri("http://a"));
        let b = i.get_or_intern(&Term::iri("http://a"));
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_terms_get_distinct_ids() {
        let mut i = Interner::new();
        let a = i.get_or_intern(&Term::iri("http://a"));
        let b = i.get_or_intern(&Term::string("http://a")); // literal, not IRI
        assert_ne!(a, b);
    }

    #[test]
    fn lookup_does_not_intern() {
        let i = Interner::new();
        assert!(i.lookup(&Term::iri("http://a")).is_none());
        assert!(i.is_empty());
    }

    fn rand_word(rng: &mut StdRng, min: usize, max: usize) -> String {
        let n = rng.gen_range(min..=max);
        (0..n).map(|_| rng.gen_range(b'a'..=b'z') as char).collect()
    }

    fn arb_term(rng: &mut StdRng) -> Term {
        match rng.gen_range(0..5) {
            0 => Term::iri(format!("http://ex.org/{}", rand_word(rng, 1, 8))),
            1 => Term::string(rand_word(rng, 0, 8)),
            2 => Term::integer(rng.gen_range(i64::MIN..=i64::MAX)),
            3 => Term::boolean(rng.gen_bool(0.5)),
            _ => Term::blank(rand_word(rng, 1, 4)),
        }
    }

    /// Property: intern/lookup roundtrip and id↔term bijectivity over random
    /// term collections.
    #[test]
    fn roundtrip() {
        for case in 0u64..256 {
            let mut rng = StdRng::seed_from_u64(case);
            let terms: Vec<Term> =
                (0..rng.gen_range(0..40)).map(|_| arb_term(&mut rng)).collect();
            let mut i = Interner::new();
            let ids: Vec<_> = terms.iter().map(|t| i.get_or_intern(t)).collect();
            for (t, id) in terms.iter().zip(&ids) {
                assert_eq!(i.term(*id), t);
                assert_eq!(i.lookup(t), Some(*id));
            }
            // bijectivity: number of distinct ids == number of distinct terms
            let distinct_terms: std::collections::HashSet<_> = terms.iter().collect();
            let distinct_ids: std::collections::HashSet<_> = ids.iter().collect();
            assert_eq!(distinct_terms.len(), distinct_ids.len(), "case {case}");
        }
    }

    /// Freezing keeps every id and moves the tail's terms into the new
    /// chunk without copying them; a fork freezes its own tail without
    /// the original seeing any of it.
    #[test]
    fn freeze_keeps_ids_and_moves_terms() {
        let mut rng = StdRng::seed_from_u64(0xf2ee);
        let terms: Vec<Term> = (0..200).map(|_| arb_term(&mut rng)).collect();
        let mut i = Interner::new();
        let text = |t: &Term| match t {
            Term::Iri(s) | Term::Blank(s) => s.as_ptr(),
            Term::Literal(l) => l.datatype.as_ptr(),
        };
        let ids: Vec<TermId> = terms[..100].iter().map(|t| i.get_or_intern(t)).collect();
        let first_text = text(i.term(ids[0]));
        i.freeze();
        assert_eq!(i.frozen_len(), i.len());
        assert_eq!(text(i.term(ids[0])), first_text, "terms must move, not clone");
        let more: Vec<TermId> = terms[100..150].iter().map(|t| i.get_or_intern(t)).collect();
        i.freeze();
        assert_eq!(i.frozen_len(), i.len());
        for (t, id) in terms[..150].iter().zip(ids.iter().chain(&more)) {
            assert_eq!(i.lookup(t), Some(*id));
            assert_eq!(i.term(*id), t);
            assert_eq!(i.get_or_intern(t), *id, "re-intern must not grow");
        }
        let mut fork = i.clone();
        let fork_ids: Vec<TermId> = terms[150..].iter().map(|t| fork.get_or_intern(t)).collect();
        let frozen_before = i.frozen_len();
        fork.freeze();
        assert_eq!(fork.frozen_len(), fork.len());
        assert_eq!(i.len(), frozen_before, "the original must not see the fork's terms");
        for (t, id) in terms[150..].iter().zip(&fork_ids) {
            assert_eq!(fork.term(*id), t);
            assert_eq!(fork.lookup(t), Some(*id));
        }
        assert!(i.iter().map(|(_, t)| t).eq(fork.iter().map(|(_, t)| t).take(i.len())));
    }

    /// Freezing appends one chunk and shares every older one: each chunk of
    /// the base before the freeze is the same allocation after it, in the
    /// frozen interner and in a clone taken before.
    #[test]
    fn freeze_shares_every_older_chunk() {
        let mut rng = StdRng::seed_from_u64(0x5a4e);
        let mut i = Interner::new();
        // tails of uneven sizes, so some freezes merge id tables and some
        // do not
        for round in 0..24 {
            for _ in 0..rng.gen_range(1..40) {
                i.get_or_intern(&arb_term(&mut rng));
            }
            let before: Vec<Arc<TermChunk>> = i.chunks().cloned().collect();
            let held = i.clone();
            let grew = i.len() > i.frozen_len();
            i.freeze();
            let after: Vec<&Arc<TermChunk>> = i.chunks().collect();
            assert_eq!(after.len(), before.len() + usize::from(grew), "round {round}");
            for (k, (old, new)) in before.iter().zip(&after).enumerate() {
                assert!(Arc::ptr_eq(old, new), "round {round}: chunk {k} was copied");
            }
            assert!(held.chunks().zip(&before).all(|(h, b)| Arc::ptr_eq(h, b)));
        }
    }

    /// Property: the display sort orders items by `(display_str, id)`
    /// exactly as a string sort does, over a dictionary of several chunks
    /// plus a tail, for small and large shares of a chunk, items in any
    /// order, and repeated ids.
    #[test]
    fn sort_by_display_matches_a_string_sort() {
        for case in 0u64..64 {
            let mut rng = StdRng::seed_from_u64(0xd15b ^ case);
            let mut i = Interner::new();
            for _ in 0..rng.gen_range(0..5) {
                for _ in 0..rng.gen_range(1..120) {
                    i.get_or_intern(&arb_term(&mut rng));
                }
                i.freeze();
            }
            for _ in 0..rng.gen_range(0..20) {
                i.get_or_intern(&arb_term(&mut rng));
            }
            if i.is_empty() {
                continue;
            }
            let share = rng.gen_range(1..=100);
            let mut items: Vec<(TermId, usize)> = (0..i.len())
                .filter(|_| rng.gen_range(0..100) < share)
                .map(|k| (TermId(k as u32), k))
                .collect();
            if rng.gen_bool(0.3) {
                let dup = items.first().copied();
                items.extend(dup);
            }
            for k in (1..items.len()).rev() {
                items.swap(k, rng.gen_range(0..=k));
            }
            let mut want = items.clone();
            want.sort_by_cached_key(|x| (i.term(x.0).display_str(), x.0));
            i.sort_by_display(&mut items, |x| x.0);
            let ids = |v: &[(TermId, usize)]| v.iter().map(|x| x.0).collect::<Vec<_>>();
            assert_eq!(ids(&items), ids(&want), "case {case}");
        }
    }

    /// Property: interleaved interns, lookups, clones and freezes agree
    /// with a `HashMap` model. Ids are dense and stable, a fork's new terms
    /// never reach the original, and the base never holds more id tables
    /// than it has frozen tails or than ⌊log₂ frozen⌋ + 1.
    #[test]
    fn chunked_base_matches_a_map_model() {
        struct Side {
            interner: Interner,
            model: HashMap<Term, u32>,
            freezes: usize,
        }
        fn intern(side: &mut Side, t: &Term) {
            let want = side.model.get(t).copied().unwrap_or(side.model.len() as u32);
            assert_eq!(side.interner.get_or_intern(t), TermId(want));
            side.model.insert(t.clone(), want);
        }
        fn freeze(side: &mut Side) {
            side.freezes += usize::from(side.interner.len() > side.interner.frozen_len());
            side.interner.freeze();
            let frozen = side.interner.frozen_len();
            let log_bound = (usize::BITS - frozen.leading_zeros()) as usize;
            assert!(side.interner.base.len() <= side.freezes.min(log_bound), "{}", frozen);
        }
        fn check(side: &Side) {
            assert_eq!(side.interner.len(), side.model.len());
            for (t, &id) in &side.model {
                assert_eq!(side.interner.term(TermId(id)), t);
            }
        }
        for case in 0u64..48 {
            let mut rng = StdRng::seed_from_u64(0xc4a2 ^ case);
            let vocab: Vec<Term> = (0..rng.gen_range(1..160)).map(|_| arb_term(&mut rng)).collect();
            let mut live = Side { interner: Interner::new(), model: HashMap::new(), freezes: 0 };
            for _ in 0..300 {
                match rng.gen_range(0..10) {
                    0..=4 => intern(&mut live, &vocab[rng.gen_range(0..vocab.len())]),
                    5 | 6 => {
                        let t = &vocab[rng.gen_range(0..vocab.len())];
                        assert_eq!(live.interner.lookup(t), live.model.get(t).map(|&i| TermId(i)));
                    }
                    7 => {
                        let mut fork = Side {
                            interner: live.interner.clone(),
                            model: live.model.clone(),
                            freezes: live.freezes,
                        };
                        for _ in 0..rng.gen_range(0..30) {
                            intern(&mut fork, &vocab[rng.gen_range(0..vocab.len())]);
                        }
                        freeze(&mut fork);
                        check(&live);
                        for t in fork.model.keys().filter(|t| !live.model.contains_key(*t)) {
                            assert_eq!(live.interner.lookup(t), None, "case {case}");
                        }
                        if rng.gen_bool(0.5) {
                            live = fork;
                        }
                    }
                    _ => freeze(&mut live),
                }
            }
            check(&live);
        }
    }
}
