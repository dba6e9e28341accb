//! [`ExtSet`] — the extension-set representation behind interactive faceting.
//!
//! A faceted-exploration state's extension is a set of entity ids that is
//! intersected, unioned and probed on every click (§5.3–§5.4). `BTreeSet`
//! makes each of those O(log n) pointer-chasing operations; `ExtSet` instead
//! keeps the ids as a **sorted dense `Vec<TermId>`**, switching to a **bitmap**
//! when the set covers more than ~1/64 of the id universe, so that
//!
//! - membership is a branch-free bit test (bitmap) or a binary search (sorted),
//! - intersection/union/difference are linear merges over contiguous memory,
//!   with **galloping** (exponential search) when one side is much smaller,
//! - iteration is a cache-friendly ascending scan in both representations.
//!
//! All operations yield ascending id order, so downstream marker computation
//! is deterministic regardless of representation.

use crate::interner::TermId;

/// Size ratio beyond which intersections gallop instead of merging.
const GALLOP_RATIO: usize = 16;

/// A set is converted to a bitmap when `len * DENSITY_FACTOR >= universe`.
const DENSITY_FACTOR: usize = 64;

#[derive(Debug, Clone)]
enum Repr {
    /// Strictly ascending ids.
    Sorted(Vec<TermId>),
    /// One bit per id in `0..words.len()*64`; `len` caches the popcount.
    Bitmap { words: Vec<u64>, len: usize },
}

/// A set of entity ids optimized for the faceted-interaction hot path.
#[derive(Debug, Clone)]
pub struct ExtSet {
    repr: Repr,
}

impl Default for ExtSet {
    fn default() -> Self {
        ExtSet::new()
    }
}

impl ExtSet {
    /// The empty set.
    pub fn new() -> Self {
        ExtSet { repr: Repr::Sorted(Vec::new()) }
    }

    /// Build from a vector that is already strictly ascending.
    ///
    /// Debug builds assert the precondition; release builds trust it.
    pub fn from_sorted_vec(ids: Vec<TermId>) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be strictly ascending");
        ExtSet { repr: Repr::Sorted(ids) }
    }

    /// Build from an iterator that yields ids in ascending order,
    /// deduplicating adjacent repeats (the shape posting-run scans produce).
    pub fn from_sorted_iter(iter: impl IntoIterator<Item = TermId>) -> Self {
        let mut ids: Vec<TermId> = Vec::new();
        for id in iter {
            match ids.last() {
                Some(&last) if last == id => {}
                Some(&last) => {
                    debug_assert!(last < id, "ids must be ascending");
                    ids.push(id);
                }
                None => ids.push(id),
            }
        }
        ExtSet { repr: Repr::Sorted(ids) }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Sorted(v) => v.len(),
            Repr::Bitmap { len, .. } => *len,
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test: O(1) on the bitmap, binary search on the vector.
    pub fn contains(&self, id: TermId) -> bool {
        match &self.repr {
            Repr::Sorted(v) => v.binary_search(&id).is_ok(),
            Repr::Bitmap { words, .. } => {
                let i = id.idx();
                words.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
            }
        }
    }

    /// `true` when every element of `self` is also in `other`.
    pub fn is_subset(&self, other: &ExtSet) -> bool {
        self.len() <= other.len() && self.iter().all(|id| other.contains(id))
    }

    /// Iterate the ids in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        match &self.repr {
            Repr::Sorted(v) => Iter::Sorted(v.iter()),
            Repr::Bitmap { words, .. } => Iter::Bitmap { words, word_idx: 0, current: words.first().copied().unwrap_or(0) },
        }
    }

    /// Convert to the bitmap representation when dense enough relative to
    /// `universe` (the number of interned terms); no-op otherwise. The
    /// threshold is ~1/64: below it the bitmap would mostly hold zero words.
    pub fn densify(&mut self, universe: usize) {
        if let Repr::Sorted(v) = &self.repr {
            if universe > 0 && v.len().saturating_mul(DENSITY_FACTOR) >= universe {
                let words_len = universe.div_ceil(64);
                let mut words = vec![0u64; words_len];
                let mut len = 0usize;
                for id in v {
                    let i = id.idx();
                    if i / 64 >= words.len() {
                        words.resize(i / 64 + 1, 0);
                    }
                    words[i / 64] |= 1 << (i % 64);
                    len += 1;
                }
                self.repr = Repr::Bitmap { words, len };
            }
        }
    }

    /// A copy in the sorted-vector representation.
    pub fn to_sorted_vec(&self) -> Vec<TermId> {
        self.iter().collect()
    }

    /// Set intersection; output is sorted. Gallops when one side is at
    /// least `GALLOP_RATIO`× larger than the other.
    pub fn intersect(&self, other: &ExtSet) -> ExtSet {
        // bitmap ∩ bitmap: word-parallel AND
        if let (Repr::Bitmap { words: a, .. }, Repr::Bitmap { words: b, .. }) =
            (&self.repr, &other.repr)
        {
            let n = a.len().min(b.len());
            let mut words = vec![0u64; n];
            let mut len = 0usize;
            for i in 0..n {
                let w = a[i] & b[i];
                words[i] = w;
                len += w.count_ones() as usize;
            }
            return ExtSet { repr: Repr::Bitmap { words, len } };
        }
        // one side a bitmap: probe it while scanning the vector
        if let Repr::Bitmap { .. } = &other.repr {
            return ExtSet::from_sorted_iter(self.iter().filter(|&id| other.contains(id)));
        }
        if let Repr::Bitmap { .. } = &self.repr {
            return ExtSet::from_sorted_iter(other.iter().filter(|&id| self.contains(id)));
        }
        let (Repr::Sorted(a), Repr::Sorted(b)) = (&self.repr, &other.repr) else {
            unreachable!()
        };
        let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        if small.len().saturating_mul(GALLOP_RATIO) < large.len() {
            ExtSet::from_sorted_vec(gallop_intersect(small, large))
        } else {
            ExtSet::from_sorted_vec(merge_intersect(a, b))
        }
    }

    /// Set union; output is sorted.
    pub fn union(&self, other: &ExtSet) -> ExtSet {
        if let (Repr::Bitmap { words: a, .. }, Repr::Bitmap { words: b, .. }) =
            (&self.repr, &other.repr)
        {
            let n = a.len().max(b.len());
            let mut words = vec![0u64; n];
            let mut len = 0usize;
            for (i, w) in words.iter_mut().enumerate() {
                *w = a.get(i).copied().unwrap_or(0) | b.get(i).copied().unwrap_or(0);
                len += w.count_ones() as usize;
            }
            return ExtSet { repr: Repr::Bitmap { words, len } };
        }
        ExtSet::from_sorted_iter(merge_sorted(self.iter(), other.iter()))
    }

    /// Set difference `self \ other`; output is sorted.
    pub fn difference(&self, other: &ExtSet) -> ExtSet {
        ExtSet::from_sorted_iter(self.iter().filter(|&id| !other.contains(id)))
    }

    /// An order-independent 64-bit fingerprint of the contents (FNV-1a over
    /// the ascending ids mixed with the length) — the state component of the
    /// facet-cache key. Equal sets always fingerprint equally; collisions
    /// across distinct sets are guarded by also keying on `len`.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for id in self.iter() {
            h ^= u64::from(id.0);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h ^ (self.len() as u64).wrapping_mul(FNV_PRIME)
    }
}

impl PartialEq for ExtSet {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for ExtSet {}

impl FromIterator<TermId> for ExtSet {
    /// Collect from an arbitrary-order iterator (sorts and dedups).
    fn from_iter<I: IntoIterator<Item = TermId>>(iter: I) -> Self {
        let mut ids: Vec<TermId> = iter.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        ExtSet { repr: Repr::Sorted(ids) }
    }
}

impl<'a> IntoIterator for &'a ExtSet {
    type Item = TermId;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Ascending iterator over an [`ExtSet`].
pub enum Iter<'a> {
    Sorted(std::slice::Iter<'a, TermId>),
    Bitmap { words: &'a [u64], word_idx: usize, current: u64 },
}

impl Iterator for Iter<'_> {
    type Item = TermId;

    fn next(&mut self) -> Option<TermId> {
        match self {
            Iter::Sorted(it) => it.next().copied(),
            Iter::Bitmap { words, word_idx, current } => loop {
                if *current != 0 {
                    let bit = current.trailing_zeros() as usize;
                    *current &= *current - 1;
                    return Some(TermId((*word_idx * 64 + bit) as u32));
                }
                *word_idx += 1;
                *current = *words.get(*word_idx)?;
            },
        }
    }
}

/// Linear merge intersection of two sorted slices.
fn merge_intersect(a: &[TermId], b: &[TermId]) -> Vec<TermId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Galloping intersection: for each element of the small side, exponential-
/// search forward in the large side. O(|small| · log |large|) with a tight
/// constant when matches cluster.
fn gallop_intersect(small: &[TermId], large: &[TermId]) -> Vec<TermId> {
    let mut out = Vec::with_capacity(small.len());
    let mut base = 0usize;
    for &x in small {
        if base >= large.len() {
            break;
        }
        // widen the window exponentially until its last element reaches x
        let mut step = 1usize;
        let mut end = base + 1;
        while end < large.len() && large[end - 1] < x {
            end = (end + step).min(large.len());
            step *= 2;
        }
        match large[base..end].binary_search(&x) {
            Ok(k) => {
                out.push(x);
                base += k + 1;
            }
            Err(k) => base += k,
        }
    }
    out
}

/// Merge two ascending iterators into one ascending, deduplicated stream:
/// the sorted arm of [`ExtSet::union`].
fn merge_sorted<T, I, J>(a: I, b: J) -> MergeSorted<T, I::IntoIter, J::IntoIter>
where
    T: Ord + Copy,
    I: IntoIterator<Item = T>,
    J: IntoIterator<Item = T>,
{
    let mut a = a.into_iter();
    let mut b = b.into_iter();
    let na = a.next();
    let nb = b.next();
    MergeSorted { a, b, na, nb }
}

/// See [`merge_sorted`].
struct MergeSorted<T: Ord + Copy, A: Iterator<Item = T>, B: Iterator<Item = T>> {
    a: A,
    b: B,
    na: Option<T>,
    nb: Option<T>,
}

impl<T: Ord + Copy, A: Iterator<Item = T>, B: Iterator<Item = T>> Iterator
    for MergeSorted<T, A, B>
{
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match (self.na, self.nb) {
            (Some(x), Some(y)) => match x.cmp(&y) {
                std::cmp::Ordering::Less => {
                    self.na = self.a.next();
                    Some(x)
                }
                std::cmp::Ordering::Greater => {
                    self.nb = self.b.next();
                    Some(y)
                }
                std::cmp::Ordering::Equal => {
                    self.na = self.a.next();
                    self.nb = self.b.next();
                    Some(x)
                }
            },
            (Some(x), None) => {
                self.na = self.a.next();
                Some(x)
            }
            (None, Some(y)) => {
                self.nb = self.b.next();
                Some(y)
            }
            (None, None) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfa_prng::StdRng;
    use std::collections::BTreeSet;

    fn from_btree(set: &BTreeSet<TermId>) -> ExtSet {
        set.iter().copied().collect()
    }

    fn ids(v: &[u32]) -> Vec<TermId> {
        v.iter().map(|&i| TermId(i)).collect()
    }

    fn random_set(rng: &mut StdRng, max: u32, n: usize) -> BTreeSet<TermId> {
        (0..n).map(|_| TermId(rng.gen_range(0..max))).collect()
    }

    #[test]
    fn basic_ops() {
        let a = ExtSet::from_sorted_vec(ids(&[1, 3, 5, 7]));
        let b = ExtSet::from_sorted_vec(ids(&[3, 4, 5]));
        assert_eq!(a.intersect(&b).to_sorted_vec(), ids(&[3, 5]));
        assert_eq!(a.union(&b).to_sorted_vec(), ids(&[1, 3, 4, 5, 7]));
        assert_eq!(a.difference(&b).to_sorted_vec(), ids(&[1, 7]));
        assert!(a.contains(TermId(5)));
        assert!(!a.contains(TermId(4)));
        assert_eq!(a.len(), 4);
    }

    #[test]
    fn from_iter_sorts_and_dedups() {
        let s: ExtSet = ids(&[5, 1, 5, 3, 1]).into_iter().collect();
        assert_eq!(s.to_sorted_vec(), ids(&[1, 3, 5]));
    }

    #[test]
    fn densify_switches_to_bitmap_and_preserves_contents() {
        let v = ids(&[0, 1, 2, 3, 63, 64, 65, 127]);
        let mut s = ExtSet::from_sorted_vec(v.clone());
        s.densify(128); // 8 * 64 >= 128 → bitmap
        assert!(matches!(s.repr, Repr::Bitmap { .. }));
        assert_eq!(s.to_sorted_vec(), v);
        assert_eq!(s.len(), v.len());
        for id in &v {
            assert!(s.contains(*id));
        }
        assert!(!s.contains(TermId(62)));
    }

    #[test]
    fn sparse_sets_stay_sorted() {
        let mut s = ExtSet::from_sorted_vec(ids(&[1, 1000]));
        s.densify(1_000_000);
        assert!(matches!(s.repr, Repr::Sorted(_)));
    }

    #[test]
    fn equality_is_representation_independent() {
        let v = ids(&[2, 66, 130]);
        let a = ExtSet::from_sorted_vec(v.clone());
        let mut b = ExtSet::from_sorted_vec(v);
        b.densify(140);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    /// Property: every op agrees with the BTreeSet oracle, across sorted,
    /// bitmap, and mixed representations.
    #[test]
    fn ops_agree_with_btreeset_oracle() {
        for case in 0u64..200 {
            let mut rng = StdRng::seed_from_u64(case);
            let universe = rng.gen_range(1u32..500);
            let na = rng.gen_range(0..80);
            let a_ref = random_set(&mut rng, universe, na);
            let nb = rng.gen_range(0..80);
            let b_ref = random_set(&mut rng, universe, nb);
            let mut variants_a = vec![from_btree(&a_ref)];
            let mut dense_a = from_btree(&a_ref);
            dense_a.densify(universe as usize);
            variants_a.push(dense_a);
            let mut variants_b = vec![from_btree(&b_ref)];
            let mut dense_b = from_btree(&b_ref);
            dense_b.densify(universe as usize);
            variants_b.push(dense_b);
            for a in &variants_a {
                for b in &variants_b {
                    let inter: BTreeSet<TermId> = a.intersect(b).iter().collect();
                    let uni: BTreeSet<TermId> = a.union(b).iter().collect();
                    let diff: BTreeSet<TermId> = a.difference(b).iter().collect();
                    assert_eq!(inter, &a_ref & &b_ref, "case {case} intersect");
                    assert_eq!(uni, &a_ref | &b_ref, "case {case} union");
                    assert_eq!(diff, &a_ref - &b_ref, "case {case} difference");
                }
            }
        }
    }

    /// Property: galloping intersection (forced by a large size skew) agrees
    /// with the merge path.
    #[test]
    fn galloping_matches_merge() {
        for case in 0u64..50 {
            let mut rng = StdRng::seed_from_u64(1000 + case);
            let large_ref = random_set(&mut rng, 10_000, 2000);
            let small_ref = random_set(&mut rng, 10_000, 5);
            let large = from_btree(&large_ref);
            let small = from_btree(&small_ref);
            let got: BTreeSet<TermId> = small.intersect(&large).iter().collect();
            assert_eq!(got, &small_ref & &large_ref, "case {case}");
        }
    }

    #[test]
    fn fingerprint_distinguishes_and_matches() {
        let a = ExtSet::from_sorted_vec(ids(&[1, 2, 3]));
        let b = ExtSet::from_sorted_vec(ids(&[1, 2, 3]));
        let c = ExtSet::from_sorted_vec(ids(&[1, 2, 4]));
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_ne!(ExtSet::new().fingerprint(), a.fingerprint());
    }

    #[test]
    fn merge_sorted_dedups() {
        let got: Vec<TermId> =
            merge_sorted(ids(&[1, 3, 5]), ids(&[2, 3, 6])).collect();
        assert_eq!(got, ids(&[1, 2, 3, 5, 6]));
    }
}
