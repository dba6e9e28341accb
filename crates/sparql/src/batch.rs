//! Columnar batches over the store's interned ID space.
//!
//! The physical plan ([`crate::plan`]) evaluates entirely over packed
//! 32-bit execution ids ([`EId`]): joins compare integers, hash grouping
//! hashes integers, and terms are materialized only once, at the
//! [`crate::results::Solutions`] boundary (late materialization).
//!
//! Three kinds of execution id share the `u32` space:
//!
//! * **store ids** — the store's own [`TermId`]s, `< LOCAL_BIT`;
//! * **local ids** — terms computed at runtime (`BIND`, `VALUES`,
//!   canonicalized group keys) that are not in the store, allocated from a
//!   per-execution [`TermArena`] and tagged with the high bit;
//! * **`UNBOUND`** — the `u32::MAX` sentinel for an unbound slot.
//!
//! The arena interns store-first, so two equal terms always map to the same
//! execution id and `EId` equality coincides with term equality.

use rdfa_model::Term;
use rdfa_store::{Store, TermId};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Packed execution id (see module docs for the encoding).
pub type EId = u32;

/// Multiplicative hasher for maps keyed by execution ids or short runs of
/// them: one rotate, xor and multiply per word instead of SipHash's rounds.
/// Ids are dense integers handed out by the interner, not client input, so
/// hash flooding is not a concern.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

/// The 64-bit golden-ratio constant: odd, with its bits well spread.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // the multiply mixes upward; the table takes bucket bits from the
        // bottom of the hash, so rotate the best-mixed bits down
        self.0.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(4) {
            let mut word = [0u8; 4];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u32(u32::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(GOLDEN);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// A hash map keyed by execution ids, hashed with [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A hash set of execution ids, hashed with [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Sentinel for an unbound slot.
pub const UNBOUND: EId = u32::MAX;

/// High bit distinguishing arena-local ids from store ids.
const LOCAL_BIT: u32 = 1 << 31;

/// Pack a store [`TermId`] into the execution-id space.
#[inline]
pub fn pack_store(id: TermId) -> EId {
    debug_assert!(id.0 < LOCAL_BIT, "store id overflows the EId space");
    id.0
}

/// True when the id denotes an arena-local (computed) term.
#[inline]
pub fn is_local(id: EId) -> bool {
    id != UNBOUND && id & LOCAL_BIT != 0
}

/// The store [`TermId`] behind an execution id, when it has one.
#[inline]
pub fn as_store(id: EId) -> Option<TermId> {
    if id == UNBOUND || id & LOCAL_BIT != 0 {
        None
    } else {
        Some(TermId(id))
    }
}

/// Append-only side table for terms computed during execution that the
/// store has never seen. Interning is canonical: the store is consulted
/// first, and equal terms always receive the same execution id.
#[derive(Debug, Default)]
pub struct TermArena {
    terms: Vec<Term>,
    ids: HashMap<Term, u32>,
}

impl TermArena {
    pub fn new() -> Self {
        Self::default()
    }

    /// Canonical execution id for a term (store id when interned there).
    pub fn intern(&mut self, store: &Store, term: &Term) -> EId {
        if let Some(id) = store.lookup(term) {
            return pack_store(id);
        }
        if let Some(&idx) = self.ids.get(term) {
            return LOCAL_BIT | idx;
        }
        let idx = self.terms.len() as u32;
        debug_assert!(idx < LOCAL_BIT, "arena overflow");
        self.terms.push(term.clone());
        self.ids.insert(term.clone(), idx);
        LOCAL_BIT | idx
    }

    /// Resolve an execution id back to a term. Panics on [`UNBOUND`].
    pub fn term<'a>(&'a self, store: &'a Store, id: EId) -> &'a Term {
        debug_assert_ne!(id, UNBOUND, "cannot resolve the unbound sentinel");
        if id & LOCAL_BIT != 0 {
            &self.terms[(id & !LOCAL_BIT) as usize]
        } else {
            store.term(TermId(id))
        }
    }

    /// Number of locally interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

/// A columnar batch of solution rows: one `Vec<EId>` per frame slot, plus a
/// provenance column mapping each row back to the input row of the nearest
/// enclosing `OPTIONAL` (used to merge extended and unmatched rows in the
/// original row order).
#[derive(Debug, Clone)]
pub struct Batch {
    cols: Vec<Vec<EId>>,
    prov: Vec<u32>,
}

impl Batch {
    /// An empty batch with `width` columns.
    pub fn new(width: usize) -> Self {
        Batch { cols: vec![Vec::new(); width], prov: Vec::new() }
    }

    /// The unit seed: a single all-unbound row (the identity of join).
    pub fn seed(width: usize) -> Self {
        Batch { cols: vec![vec![UNBOUND]; width], prov: vec![0] }
    }

    /// Number of columns (frame slots).
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.prov.len()
    }

    pub fn is_empty(&self) -> bool {
        self.prov.is_empty()
    }

    /// Value at `(row, col)`.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> EId {
        self.cols[col][row]
    }

    /// Overwrite the value at `(row, col)` (BIND).
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, id: EId) {
        self.cols[col][row] = id;
    }

    /// One column as a slice.
    pub fn column(&self, col: usize) -> &[EId] {
        &self.cols[col]
    }

    /// Provenance of one row.
    #[inline]
    pub fn prov(&self, row: usize) -> u32 {
        self.prov[row]
    }

    /// Reset provenance to the identity (entering an `OPTIONAL`).
    pub fn reset_prov(&mut self) {
        self.prov = (0..self.len() as u32).collect();
    }

    /// Append a copy of `src`'s row `row`, with `overrides` applied
    /// (slot, id) and provenance copied from the source row.
    pub fn push_row_from(&mut self, src: &Batch, row: usize, overrides: &[(usize, EId)]) {
        for (c, col) in self.cols.iter_mut().enumerate() {
            col.push(src.cols[c][row]);
        }
        for &(slot, id) in overrides {
            let r = self.prov.len();
            self.cols[slot][r] = id;
        }
        self.prov.push(src.prov[row]);
    }

    /// Append one full row with explicit provenance.
    pub fn push_row(&mut self, row: &[EId], prov: u32) {
        debug_assert_eq!(row.len(), self.width());
        for (c, col) in self.cols.iter_mut().enumerate() {
            col.push(row[c]);
        }
        self.prov.push(prov);
    }

    /// Keep only the rows whose index passes `keep` (order-preserving).
    pub fn retain_rows(&mut self, keep: &[bool]) {
        debug_assert_eq!(keep.len(), self.len());
        for col in &mut self.cols {
            let mut i = 0;
            col.retain(|_| {
                let k = keep[i];
                i += 1;
                k
            });
        }
        let mut i = 0;
        self.prov.retain(|_| {
            let k = keep[i];
            i += 1;
            k
        });
    }

    /// Append every row of `other` (columns must line up).
    pub fn append(&mut self, other: &Batch) {
        debug_assert_eq!(self.width(), other.width());
        for (c, col) in self.cols.iter_mut().enumerate() {
            col.extend_from_slice(&other.cols[c]);
        }
        self.prov.extend_from_slice(&other.prov);
    }

    /// A copy of the rows in `range`.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Batch {
        Batch {
            cols: self.cols.iter().map(|c| c[range.clone()].to_vec()).collect(),
            prov: self.prov[range].to_vec(),
        }
    }

    /// Drop every row, keeping the columns' capacity.
    pub fn clear(&mut self) {
        for col in &mut self.cols {
            col.clear();
        }
        self.prov.clear();
    }

    /// Copy one row out as a dense vector.
    pub fn row(&self, row: usize) -> Vec<EId> {
        self.cols.iter().map(|c| c[row]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_interns_store_first_and_is_canonical() {
        let mut store = Store::new();
        store
            .load_turtle("@prefix ex: <http://example.org/> . ex:a ex:p 5 .")
            .unwrap();
        let mut arena = TermArena::new();
        let a = arena.intern(&store, &Term::iri("http://example.org/a"));
        assert!(!is_local(a), "stored term must map to its store id");
        assert_eq!(as_store(a), store.lookup(&Term::iri("http://example.org/a")));
        let n1 = arena.intern(&store, &Term::integer(42));
        let n2 = arena.intern(&store, &Term::integer(42));
        assert!(is_local(n1));
        assert_eq!(n1, n2, "equal terms must share one execution id");
        assert_eq!(arena.term(&store, n1), &Term::integer(42));
        assert_eq!(arena.term(&store, a), &Term::iri("http://example.org/a"));
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn batch_retain_and_append_keep_rows_aligned() {
        let mut b = Batch::new(2);
        b.push_row(&[1, 2], 0);
        b.push_row(&[3, UNBOUND], 1);
        b.push_row(&[5, 6], 2);
        b.retain_rows(&[true, false, true]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.row(1), vec![5, 6]);
        assert_eq!(b.prov(1), 2);
        let mut c = Batch::new(2);
        c.push_row(&[7, 8], 9);
        b.append(&c);
        assert_eq!(b.len(), 3);
        assert_eq!(b.row(2), vec![7, 8]);
        assert_eq!(b.prov(2), 9);
    }

    #[test]
    fn id_map_finds_multi_id_keys_by_slice() {
        let mut map: IdMap<Vec<EId>, usize> = IdMap::default();
        for i in 0..1_000u32 {
            map.insert(vec![i, i.wrapping_mul(7), UNBOUND], i as usize);
        }
        for i in 0..1_000u32 {
            assert_eq!(map.get([i, i.wrapping_mul(7), UNBOUND].as_slice()), Some(&(i as usize)));
        }
        assert_eq!(map.get([1, 2, 3].as_slice()), None);
    }

    #[test]
    fn seed_is_single_unbound_row() {
        let s = Batch::seed(3);
        assert_eq!(s.len(), 1);
        assert_eq!(s.row(0), vec![UNBOUND, UNBOUND, UNBOUND]);
    }
}
