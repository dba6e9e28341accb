//! Term interning: bijective mapping between [`Term`]s and dense u32 ids.
//!
//! The id map is keyed by a 64-bit FNV content hash instead of the term
//! itself: buckets hold term *ids* and equality checks go against the term
//! table, so the map never owns a second copy of any term. Interning an
//! owned term therefore costs zero clones, and map growth rehashes plain
//! `u64`s rather than re-walking string keys. The same hash (and bucket
//! layout) is shared with the bulk-ingest worker dictionaries in
//! [`crate::bulk`], which guarantees a lexed borrowed view and the owned
//! term it becomes always agree.

use rdfa_model::ntriples::TermRef;
use rdfa_model::Term;
use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

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

/// One persisted dictionary chunk held undecoded: the raw encoded payload,
/// per-term end offsets, and a `OnceLock` slot per term. A term is
/// materialized (decoded + allocated) the first time something asks for it;
/// a store that only ever touches 1% of its dictionary only pays for that
/// 1% — the restart path's counterpart of segment blocks decoding on demand.
pub(crate) struct LazyChunk {
    from: usize,
    /// End offset of term `k`'s encoding within `payload`; term `k` starts
    /// at `offsets[k - 1]` (or 0). Validated monotone at open.
    offsets: Vec<u32>,
    payload: Vec<u8>,
    slots: Vec<std::sync::OnceLock<Term>>,
}

impl LazyChunk {
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

impl std::fmt::Debug for LazyChunk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LazyChunk")
            .field("from", &self.from)
            .field("count", &self.offsets.len())
            .field("bytes", &self.payload.len())
            .finish()
    }
}

/// Term storage of a frozen base: fully materialized (the in-process
/// `freeze()` path) or undecoded chunk payloads (the restart path).
#[derive(Debug)]
pub(crate) enum FrozenRepr {
    Eager(Vec<Term>),
    Lazy { chunks: Vec<LazyChunk>, len: usize },
}

impl Default for FrozenRepr {
    fn default() -> Self {
        FrozenRepr::Eager(Vec::new())
    }
}

/// The frozen prefix of an interner: terms `0..len()` plus their hash
/// buckets, shared between store generations behind one `Arc`. The
/// segment-open path builds one from the persisted term chunks; every
/// copy-on-write transaction clone then shares it instead of deep-copying
/// the whole term table — the term-table half of structural sharing.
#[derive(Debug, Default)]
pub(crate) struct FrozenTerms {
    repr: FrozenRepr,
    ids: U64Map<Slot>,
}

impl FrozenTerms {
    fn len(&self) -> usize {
        match &self.repr {
            FrozenRepr::Eager(terms) => terms.len(),
            FrozenRepr::Lazy { len, .. } => *len,
        }
    }

    fn term_at(&self, idx: usize) -> &Term {
        match &self.repr {
            FrozenRepr::Eager(terms) => &terms[idx],
            FrozenRepr::Lazy { chunks, .. } => {
                let ci = chunks.partition_point(|c| c.from <= idx) - 1;
                chunks[ci].term(idx - chunks[ci].from)
            }
        }
    }
}

/// Bijective term ↔ id table.
///
/// `get_or_intern` is the only way ids are created, so
/// `term(get_or_intern(t)) == t` and interning is idempotent — both
/// properties are property-tested.
///
/// Internally split into a frozen, `Arc`-shared base (terms interned before
/// the store was last opened from segments) and a mutable tail. Ids stay
/// dense across the split: `0..base.len()` index the base, the rest the
/// tail. Cloning shares the base and copies only the tail, so a write
/// transaction over a segment-backed store pays for the terms *it* added,
/// not the whole dictionary.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    base: std::sync::Arc<FrozenTerms>,
    terms: Vec<Term>,
    ids: U64Map<Slot>,
}

impl Interner {
    /// An empty interner.
    pub fn new() -> Self {
        Interner::default()
    }

    /// Build an interner whose entire current content is the frozen,
    /// `Arc`-shared base — what [`freeze`](Interner::freeze) rebuilds when
    /// the tail cannot be moved in. Terms must be in id order; ids are
    /// assigned `0..terms.len()`. Hashing is one sequential pass.
    pub(crate) fn from_frozen(terms: Vec<Term>) -> Interner {
        // hash every term first, then fill the buckets: two tight passes
        // run about twice as fast as one that interleaves them
        let hashes: Vec<u64> = terms.iter().map(|t| hash64(&term_ref_of(t))).collect();
        let mut ids: U64Map<Slot> =
            U64Map::with_capacity_and_hasher(terms.len(), Default::default());
        for (i, &h) in hashes.iter().enumerate() {
            bucket_insert(&mut ids, h, i as u32);
        }
        let base = FrozenTerms { repr: FrozenRepr::Eager(terms), ids };
        Interner { base: std::sync::Arc::new(base), terms: Vec::new(), ids: Default::default() }
    }

    /// Build an interner over *undecoded* persisted chunks — the restart
    /// path. The id map comes straight from the content hashes persisted
    /// next to each chunk payload, so no term is decoded here; terms
    /// materialize lazily on first access. Chunks must be contiguous from
    /// id 0 and carry one offset and one hash per term.
    pub(crate) fn from_chunks(parts: Vec<TermChunkParts>) -> Interner {
        let total: usize = parts.iter().map(|(_, o, _, _)| o.len()).sum();
        let mut ids: U64Map<Slot> = U64Map::with_capacity_and_hasher(total, Default::default());
        let mut chunks = Vec::with_capacity(parts.len());
        let mut len = 0usize;
        for (from, offsets, hashes, payload) in parts {
            debug_assert_eq!(from, len, "chunks must be contiguous");
            debug_assert_eq!(offsets.len(), hashes.len());
            for (k, &h) in hashes.iter().enumerate() {
                bucket_insert(&mut ids, h, (from + k) as u32);
            }
            len = from + offsets.len();
            let slots = (0..offsets.len()).map(|_| std::sync::OnceLock::new()).collect();
            chunks.push(LazyChunk { from, offsets, payload, slots });
        }
        let base = FrozenTerms { repr: FrozenRepr::Lazy { chunks, len }, ids };
        Interner { base: std::sync::Arc::new(base), terms: Vec::new(), ids: Default::default() }
    }

    /// Number of terms in the frozen, `Arc`-shared base (diagnostics).
    #[cfg(test)]
    pub(crate) fn frozen_len(&self) -> usize {
        self.base.len()
    }

    /// Move the mutable tail into the frozen base, so subsequent clones of
    /// this interner share the whole current dictionary behind one `Arc`.
    /// The checkpoint fold calls this: after a checkpoint every term is on
    /// disk, and the next write transaction should pay only for the terms
    /// *it* adds. When the base cannot take the tail by move (see
    /// [`freeze_by_move`](Interner::freeze_by_move)) the dictionary is
    /// rebuilt, at O(dictionary) cost. No-op when the tail is empty.
    pub(crate) fn freeze(&mut self) {
        if !self.freeze_by_move() {
            let all: Vec<Term> = self.iter().map(|(_, t)| t.clone()).collect();
            *self = Interner::from_frozen(all);
        }
    }

    /// [`freeze`](Interner::freeze) restricted to the cases that copy no
    /// term: the tail *becomes* the base when the base is empty (a store
    /// loaded from scratch), or is appended to an eager base no other
    /// interner shares. Returns `false`, leaving the tail where it is, when
    /// the base is shared with another generation or holds undecoded chunks
    /// — the bulk loader calls this after every load and must never pay for
    /// the dictionary it loaded into.
    pub(crate) fn freeze_by_move(&mut self) -> bool {
        if self.terms.is_empty() {
            return true;
        }
        if self.base.len() == 0 {
            self.base = std::sync::Arc::new(FrozenTerms {
                repr: FrozenRepr::Eager(std::mem::take(&mut self.terms)),
                ids: std::mem::take(&mut self.ids),
            });
            return true;
        }
        let Some(base) = std::sync::Arc::get_mut(&mut self.base) else {
            return false;
        };
        let FrozenRepr::Eager(frozen) = &mut base.repr else {
            return false;
        };
        frozen.append(&mut self.terms);
        for (h, slot) in self.ids.drain() {
            match slot {
                Slot::One(id) => bucket_insert(&mut base.ids, h, id),
                Slot::Many(ids) => ids.into_iter().for_each(|id| bucket_insert(&mut base.ids, h, id)),
            }
        }
        true
    }

    fn term_at(&self, idx: usize) -> &Term {
        let nb = self.base.len();
        if idx < nb {
            self.base.term_at(idx)
        } else {
            &self.terms[idx - nb]
        }
    }

    fn find(&self, h: u64, term: &Term) -> Option<TermId> {
        let probe = |slot: &Slot| match slot {
            Slot::One(i) => (self.term_at(*i as usize) == term).then_some(TermId(*i)),
            Slot::Many(is) => is
                .iter()
                .find(|&&i| self.term_at(i as usize) == term)
                .map(|&i| TermId(i)),
        };
        if let Some(slot) = self.base.ids.get(&h) {
            if let Some(id) = probe(slot) {
                return Some(id);
            }
        }
        self.ids.get(&h).and_then(probe)
    }

    fn insert_id(&mut self, h: u64, id: u32) {
        bucket_insert(&mut self.ids, h, id);
    }

    /// Intern a term, returning its id (existing or fresh).
    pub fn get_or_intern(&mut self, term: &Term) -> TermId {
        let h = hash64(&term_ref_of(term));
        if let Some(id) = self.find(h, term) {
            return id;
        }
        let id = TermId(self.len() as u32);
        self.terms.push(term.clone());
        self.insert_id(h, id.0);
        id
    }

    /// Intern an owned term, returning its id. Equivalent to
    /// [`get_or_intern`](Interner::get_or_intern) but allocates nothing when
    /// the term is new — the bulk-ingest merge phase calls this for every
    /// first occurrence.
    pub fn get_or_intern_owned(&mut self, term: Term) -> TermId {
        let h = hash64(&term_ref_of(&term));
        self.get_or_intern_owned_hashed(h, term)
    }

    /// [`get_or_intern_owned`](Interner::get_or_intern_owned) with the
    /// content hash already in hand — bulk ingest hashed every term when it
    /// entered a worker dictionary and carries the hash through the merge.
    pub(crate) fn get_or_intern_owned_hashed(&mut self, h: u64, term: Term) -> TermId {
        debug_assert_eq!(h, hash64(&term_ref_of(&term)), "stale content hash");
        if let Some(id) = self.find(h, &term) {
            return id;
        }
        let id = TermId(self.len() as u32);
        self.terms.push(term);
        self.insert_id(h, id.0);
        id
    }

    /// Look up the id of a term without interning it.
    pub fn lookup(&self, term: &Term) -> Option<TermId> {
        self.find(hash64(&term_ref_of(term)), term)
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
        self.base.len() + self.terms.len()
    }

    /// True when no terms have been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over `(id, term)` pairs in id order. Over a lazy base this
    /// materializes every term — callers that only need the tail (e.g. the
    /// checkpoint's incremental chunk write) should use
    /// [`iter_from`](Interner::iter_from).
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.iter_from(0)
    }

    /// Iterate over `(id, term)` pairs for ids `start..len()`, touching
    /// only those terms.
    pub fn iter_from(&self, start: usize) -> impl Iterator<Item = (TermId, &Term)> {
        (start..self.len()).map(move |i| (TermId(i as u32), self.term_at(i)))
    }
}

/// Append `id` to the bucket for hash `h` — the shared id-map insert used
/// by the tail, the eager-frozen build, and the persisted-hash build.
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

    /// Freezing by move keeps every id, copies no term, and declines exactly
    /// when it would have to copy the base.
    #[test]
    fn freeze_by_move_keeps_ids_and_declines_on_a_shared_base() {
        let mut rng = StdRng::seed_from_u64(0xf2ee);
        let terms: Vec<Term> = (0..200).map(|_| arb_term(&mut rng)).collect();
        let mut i = Interner::new();
        let ids: Vec<TermId> = terms[..100].iter().map(|t| i.get_or_intern(t)).collect();
        let first_ptr = i.term(ids[0]) as *const Term;
        // empty base: the tail becomes the base, nothing is copied
        assert!(i.freeze_by_move());
        assert_eq!(i.frozen_len(), i.len());
        assert_eq!(i.term(ids[0]) as *const Term, first_ptr, "terms must move, not clone");
        // unshared eager base: the new tail is appended in place
        let more: Vec<TermId> = terms[100..150].iter().map(|t| i.get_or_intern(t)).collect();
        assert!(i.freeze_by_move());
        assert_eq!(i.frozen_len(), i.len());
        for (t, id) in terms[..150].iter().zip(ids.iter().chain(&more)) {
            assert_eq!(i.lookup(t), Some(*id));
            assert_eq!(i.term(*id), t);
            assert_eq!(i.get_or_intern(t), *id, "re-intern must not grow");
        }
        // a clone shares the base: neither side may extend it in place
        let mut fork = i.clone();
        for t in &terms[150..] {
            fork.get_or_intern(t);
        }
        let frozen_before = fork.frozen_len();
        assert!(fork.len() > frozen_before, "the fork must have a tail to freeze");
        assert!(!fork.freeze_by_move());
        assert_eq!(fork.frozen_len(), frozen_before);
        assert_eq!(i.len(), frozen_before, "the original must not see the fork's terms");
        // the full freeze rebuilds instead, with the same ids
        let want: Vec<Term> = fork.iter().map(|(_, t)| t.clone()).collect();
        fork.freeze();
        assert_eq!(fork.frozen_len(), fork.len());
        assert!(fork.iter().map(|(_, t)| t).eq(want.iter()));
    }

    /// Property: an interner rebuilt with its whole content in the frozen
    /// base is observationally identical to the all-tail original, and
    /// extends past the base with dense ids.
    #[test]
    fn frozen_base_is_equivalent_and_extends() {
        for case in 0u64..128 {
            let mut rng = StdRng::seed_from_u64(0x5eed ^ case);
            let terms: Vec<Term> =
                (0..rng.gen_range(1..30)).map(|_| arb_term(&mut rng)).collect();
            let mut plain = Interner::new();
            let ids: Vec<_> = terms.iter().map(|t| plain.get_or_intern(t)).collect();
            let table: Vec<Term> = plain.iter().map(|(_, t)| t.clone()).collect();
            let mut frozen = Interner::from_frozen(table);
            assert_eq!(frozen.len(), plain.len());
            assert_eq!(frozen.frozen_len(), plain.len());
            for (t, id) in terms.iter().zip(&ids) {
                assert_eq!(frozen.lookup(t), Some(*id), "case {case}");
                assert_eq!(frozen.term(*id), t);
                assert_eq!(frozen.get_or_intern(t), *id, "re-intern must not grow");
            }
            let extra = arb_term(&mut rng);
            let id = frozen.get_or_intern(&extra);
            assert_eq!(frozen.term(id), &extra);
            assert_eq!(frozen.lookup(&extra), Some(id));
            assert!(frozen.len() >= plain.len());
        }
    }
}
