//! Sorted triple permutations answering every triple-pattern binding shape
//! with one contiguous range scan.
//!
//! Each permutation is a `Run`: one sorted sequence cut into `Arc`-shared
//! chunks of at most `CHUNK_MAX` triples, with the first key of every chunk
//! kept in a dense fence array. Cloning an index bumps one `Arc` per chunk;
//! an insert or remove copies only the chunk it lands in (and nothing at all
//! when that chunk is already private to this index), so a copy-on-write
//! transaction costs O(chunks) pointer copies plus O(|delta|) chunk copies
//! instead of a copy of the whole triple set.

use crate::interner::TermId;
use std::sync::Arc;

/// A triple of interned term ids in subject/predicate/object order.
pub type IdTriple = [TermId; 3];

/// A triple as one 96-bit integer that orders like the triple does. Searches
/// and sorts compare these instead of the arrays: one wide compare the
/// compiler turns into a conditional move, where the lexicographic array
/// compare is up to three data-dependent branches — and a binary search's
/// probes are exactly the branches a predictor cannot learn. Segments
/// delta-encode sorted runs in it.
#[inline]
pub(crate) fn key([a, b, c]: IdTriple) -> u128 {
    (u128::from(a.0) << 64) | (u128::from(b.0) << 32) | u128::from(c.0)
}

/// The triple a [`key`] packs.
#[inline]
pub(crate) fn unkey(k: u128) -> IdTriple {
    [TermId((k >> 64) as u32), TermId((k >> 32) as u32), TermId(k as u32)]
}

/// Most triples one chunk holds — the same block size the on-disk segments
/// decode to. A full chunk splits in half on the next insert into it.
pub(crate) const CHUNK_MAX: usize = 1024;

/// A chunk that shrinks below this is merged into a neighbour when the two
/// fit in one chunk, so deletes cannot leave a trail of near-empty chunks.
const CHUNK_MIN: usize = CHUNK_MAX / 4;

/// Spare capacity given to a chunk when it is copied for writing, so the
/// inserts that caused the copy do not immediately reallocate it.
const COPY_SLACK: usize = 16;

const MIN: TermId = TermId(0);
const MAX: TermId = TermId(u32::MAX);

/// Index of the first element of the ascending `run` that is `>= t`.
#[inline]
fn lower_bound(run: &[IdTriple], t: IdTriple) -> usize {
    let k = key(t);
    run.partition_point(|&x| key(x) < k)
}

/// Index of the first element of the ascending `run` that is `> t`.
#[inline]
fn upper_bound(run: &[IdTriple], t: IdTriple) -> usize {
    let k = key(t);
    run.partition_point(|&x| key(x) <= k)
}

/// One sorted, duplicate-free sequence of permuted triples in shared chunks.
///
/// Invariants: no chunk is empty or longer than [`CHUNK_MAX`]; every chunk is
/// strictly ascending and so is their concatenation; `fences[i]` is
/// `chunks[i][0]`; `len` is the total element count.
#[derive(Debug, Default, Clone)]
struct Run {
    chunks: Vec<Arc<Vec<IdTriple>>>,
    fences: Vec<IdTriple>,
    len: usize,
}

impl Run {
    fn from_sorted(run: &[IdTriple]) -> Run {
        debug_assert!(run.windows(2).all(|w| w[0] < w[1]), "run must be sorted+distinct");
        let chunks: Vec<Arc<Vec<IdTriple>>> =
            run.chunks(CHUNK_MAX).map(|c| Arc::new(c.to_vec())).collect();
        let fences = chunks.iter().map(|c| c[0]).collect();
        Run { chunks, fences, len: run.len() }
    }

    /// Index of the chunk whose key range covers `t`: the last chunk whose
    /// fence is `<= t`, or chunk 0 when `t` sorts before everything.
    fn chunk_for(&self, t: IdTriple) -> usize {
        upper_bound(&self.fences, t).saturating_sub(1)
    }

    /// Where `t` is (`Ok`) or belongs (`Err`) in chunk `i`.
    fn find_in(&self, i: usize, t: IdTriple) -> Result<usize, usize> {
        let chunk = &self.chunks[i];
        let at = lower_bound(chunk, t);
        if chunk.get(at) == Some(&t) {
            Ok(at)
        } else {
            Err(at)
        }
    }

    fn contains(&self, t: IdTriple) -> bool {
        !self.chunks.is_empty() && self.find_in(self.chunk_for(t), t).is_ok()
    }

    /// Chunk `i`, private to this run: copied first when another index
    /// generation still shares it.
    fn chunk_mut(&mut self, i: usize) -> &mut Vec<IdTriple> {
        if Arc::get_mut(&mut self.chunks[i]).is_none() {
            self.chunks[i] = Arc::new(copy_with_slack(&self.chunks[i]));
        }
        Arc::get_mut(&mut self.chunks[i]).expect("chunk was just made unique")
    }

    fn insert(&mut self, t: IdTriple) -> bool {
        if self.chunks.is_empty() {
            self.chunks.push(Arc::new(vec![t]));
            self.fences.push(t);
            self.len = 1;
            return true;
        }
        let mut i = self.chunk_for(t);
        let Err(mut at) = self.find_in(i, t) else {
            return false;
        };
        self.len += 1;
        if self.chunks[i].len() == CHUNK_MAX {
            if at == CHUNK_MAX && i + 1 == self.chunks.len() {
                // ascending loads keep appending past the last chunk: start a
                // new one instead of leaving every chunk half full
                self.chunks.push(Arc::new(vec![t]));
                self.fences.push(t);
                return true;
            }
            let (lower, upper) = self.chunks[i].split_at(CHUNK_MAX / 2);
            let (lower, upper) = (copy_with_slack(lower), copy_with_slack(upper));
            self.fences.insert(i + 1, upper[0]);
            self.chunks[i] = Arc::new(lower);
            self.chunks.insert(i + 1, Arc::new(upper));
            if at >= CHUNK_MAX / 2 {
                i += 1;
                at -= CHUNK_MAX / 2;
            }
        }
        self.chunk_mut(i).insert(at, t);
        if at == 0 {
            self.fences[i] = t;
        }
        true
    }

    fn remove(&mut self, t: IdTriple) -> bool {
        if self.chunks.is_empty() {
            return false;
        }
        let i = self.chunk_for(t);
        let Ok(at) = self.find_in(i, t) else {
            return false;
        };
        self.len -= 1;
        if self.chunks[i].len() == 1 {
            self.chunks.remove(i);
            self.fences.remove(i);
            return true;
        }
        self.chunk_mut(i).remove(at);
        if at == 0 {
            self.fences[i] = self.chunks[i][0];
        }
        if self.chunks[i].len() < CHUNK_MIN {
            // fold the short chunk into whichever neighbour has room
            for left in [Some(i), i.checked_sub(1)].into_iter().flatten() {
                if left + 1 < self.chunks.len()
                    && self.chunks[left].len() + self.chunks[left + 1].len() <= CHUNK_MAX
                {
                    let right = self.chunks.remove(left + 1);
                    self.fences.remove(left + 1);
                    self.chunk_mut(left).extend_from_slice(&right);
                    break;
                }
            }
        }
        true
    }

    /// Elements in `lo..=hi`, ascending.
    fn range(&self, lo: IdTriple, hi: IdTriple) -> RunRange<'_> {
        if self.chunks.is_empty() || lo > hi {
            return RunRange { cur: [].iter(), rest: [].iter(), last: &[] };
        }
        let first = self.chunk_for(lo);
        let chunk = &self.chunks[first][..];
        let from = lower_bound(chunk, lo);
        // most scans are seeks — one subject's values, one value's subjects —
        // that end a few elements on, inside the chunk they start in: the
        // next fence says so without another search, and galloping finds the
        // end in the cache lines the scan is about to read anyway
        if self.fences.get(first + 1).is_none_or(|next| hi < *next) {
            let to = from + count_le_galloping(&chunk[from..], hi);
            return RunRange { cur: chunk[from..to].iter(), rest: [].iter(), last: &[] };
        }
        let end = self.chunk_for(hi);
        let to = upper_bound(&self.chunks[end], hi);
        RunRange {
            cur: chunk[from..].iter(),
            rest: self.chunks[first + 1..end].iter(),
            last: &self.chunks[end][..to],
        }
    }
}

/// How many leading elements of the ascending `run` are `<= hi`, found by
/// doubling steps from the front and a binary search inside the last step —
/// O(log answer) probes, all next to the start for small answers.
fn count_le_galloping(run: &[IdTriple], hi: IdTriple) -> usize {
    let (mut known, mut step) = (0, 1);
    while known + step <= run.len() && run[known + step - 1] <= hi {
        known += step;
        step *= 2;
    }
    let end = (known + step).min(run.len());
    known + upper_bound(&run[known..end], hi)
}

/// A range scan over one permutation: the tail of the first chunk, whole
/// chunks in between, the head of the last — contiguous slices throughout.
#[derive(Debug, Clone)]
pub(crate) struct RunRange<'a> {
    cur: std::slice::Iter<'a, IdTriple>,
    rest: std::slice::Iter<'a, Arc<Vec<IdTriple>>>,
    last: &'a [IdTriple],
}

impl Iterator for RunRange<'_> {
    type Item = IdTriple;

    #[inline]
    fn next(&mut self) -> Option<IdTriple> {
        loop {
            if let Some(t) = self.cur.next() {
                return Some(*t);
            }
            self.cur = match self.rest.next() {
                Some(chunk) => chunk.iter(),
                None if self.last.is_empty() => return None,
                None => std::mem::take(&mut self.last).iter(),
            };
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.cur.len()
            + self.rest.clone().map(|c| c.len()).sum::<usize>()
            + self.last.len();
        (n, Some(n))
    }
}

/// The length of a scan is known before it is walked: the fence search and
/// the in-chunk searches that bound it, plus the lengths of the chunks in
/// between — which is how a run's length is read without counting it.
impl ExactSizeIterator for RunRange<'_> {}

/// Three sorted permutations of the same triple set: SPO, POS, OSP.
///
/// | pattern (bound…) | index | scan |
/// |---|---|---|
/// | s p o | SPO | point lookup |
/// | s p ? | SPO | range `[s,p,·]` |
/// | s ? ? | SPO | range `[s,·,·]` |
/// | s ? o | OSP | range `[o,s,·]` |
/// | ? p o | POS | range `[p,o,·]` |
/// | ? p ? | POS | range `[p,·,·]` |
/// | ? ? o | OSP | range `[o,·,·]` |
/// | ? ? ? | SPO | full scan |
#[derive(Debug, Default, Clone)]
pub struct TripleIndex {
    spo: Run,
    pos: Run,
    osp: Run,
}

/// Which sorted permutation of the triple set a scan walks. Shared between
/// the in-memory [`TripleIndex`] and the on-disk segment runs so the layered
/// store can merge both in one permutation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Perm {
    Spo,
    Pos,
    Osp,
}

impl Perm {
    /// All three permutations in segment-file run order.
    #[cfg(test)]
    pub(crate) const ALL: [Perm; 3] = [Perm::Spo, Perm::Pos, Perm::Osp];

    /// Re-order a permuted element back to `[s, p, o]`.
    #[inline]
    pub(crate) fn to_spo(self, t: IdTriple) -> IdTriple {
        let [a, b, c] = t;
        match self {
            Perm::Spo => [a, b, c],
            Perm::Pos => [c, a, b], // element is [p, o, s]
            Perm::Osp => [b, c, a], // element is [o, s, p]
        }
    }
}

impl TripleIndex {
    /// An empty index.
    pub fn new() -> Self {
        TripleIndex::default()
    }

    /// Insert a triple; returns `false` if it was already present.
    pub fn insert(&mut self, t: IdTriple) -> bool {
        let [s, p, o] = t;
        if !self.spo.insert([s, p, o]) {
            return false;
        }
        self.pos.insert([p, o, s]);
        self.osp.insert([o, s, p]);
        true
    }

    /// Remove a triple; returns `false` if it was absent.
    pub fn remove(&mut self, t: IdTriple) -> bool {
        let [s, p, o] = t;
        if !self.spo.remove([s, p, o]) {
            return false;
        }
        self.pos.remove([p, o, s]);
        self.osp.remove([o, s, p]);
        true
    }

    /// Membership test.
    pub fn contains(&self, t: IdTriple) -> bool {
        self.spo.contains(t)
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.spo.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.spo.len == 0
    }

    /// Iterate all triples in SPO order.
    pub fn iter(&self) -> impl Iterator<Item = IdTriple> + '_ {
        self.iter_perm(Perm::Spo)
    }

    /// Bulk-build from pre-sorted, deduplicated permutation runs. The three
    /// runs must hold the same triple set in `[s,p,o]`, `[p,o,s]` and
    /// `[o,s,p]` element order respectively; each is cut straight into full
    /// chunks — the ingest-path replacement for calling
    /// [`insert`](TripleIndex::insert) once per triple.
    pub(crate) fn from_sorted_runs(spo: Vec<IdTriple>, pos: Vec<IdTriple>, osp: Vec<IdTriple>) -> Self {
        debug_assert!(spo.len() == pos.len() && pos.len() == osp.len());
        TripleIndex {
            spo: Run::from_sorted(&spo),
            pos: Run::from_sorted(&pos),
            osp: Run::from_sorted(&osp),
        }
    }

    /// Bulk-build from a sorted, deduplicated SPO run alone, deriving the
    /// other two permutations by rewrite-and-sort.
    pub(crate) fn from_sorted_spo(spo: Vec<IdTriple>) -> Self {
        let permuted = |perm: fn(IdTriple) -> IdTriple| {
            let mut run: Vec<IdTriple> = spo.iter().map(|&t| perm(t)).collect();
            run.sort_unstable_by_key(|&t| key(t));
            run
        };
        let pos = permuted(|[s, p, o]| [p, o, s]);
        let osp = permuted(|[s, p, o]| [o, s, p]);
        TripleIndex::from_sorted_runs(spo, pos, osp)
    }

    /// All triples matching the pattern, where `None` is a wildcard.
    /// Results are yielded in `[s, p, o]` order regardless of the index used.
    pub fn matching<'a>(
        &'a self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Box<dyn Iterator<Item = IdTriple> + 'a> {
        match (s, p, o) {
            (Some(s), Some(p), Some(o)) => {
                let hit = self.spo.contains([s, p, o]);
                Box::new(hit.then_some([s, p, o]).into_iter())
            }
            (Some(s), Some(p), None) => Box::new(range3(&self.spo, s, Some(p))),
            (Some(s), None, None) => Box::new(range3(&self.spo, s, None)),
            (Some(s), None, Some(o)) => Box::new(
                range3(&self.osp, o, Some(s)).map(|[o, s, p]| [s, p, o]),
            ),
            (None, Some(p), Some(o)) => Box::new(
                range3(&self.pos, p, Some(o)).map(|[p, o, s]| [s, p, o]),
            ),
            (None, Some(p), None) => Box::new(
                range3(&self.pos, p, None).map(|[p, o, s]| [s, p, o]),
            ),
            (None, None, Some(o)) => Box::new(
                range3(&self.osp, o, None).map(|[o, s, p]| [s, p, o]),
            ),
            (None, None, None) => Box::new(self.iter()),
        }
    }

    fn run(&self, perm: Perm) -> &Run {
        match perm {
            Perm::Spo => &self.spo,
            Perm::Pos => &self.pos,
            Perm::Osp => &self.osp,
        }
    }

    /// One whole permutation, ascending (what a segment file is written from).
    pub(crate) fn iter_perm(&self, perm: Perm) -> RunRange<'_> {
        self.scan_perm(perm, [MIN; 3], [MAX; 3])
    }

    /// Permuted elements in `lo..=hi`, ascending — the layered store's view
    /// of one permutation, mergeable with on-disk segment runs.
    pub(crate) fn scan_perm(&self, perm: Perm, lo: IdTriple, hi: IdTriple) -> RunRange<'_> {
        self.run(perm).range(lo, hi)
    }

    /// Per permutation, how many of this index's chunks are the very same
    /// allocation as a chunk of `other`, and how many chunks it has in all.
    #[cfg(test)]
    pub(crate) fn chunks_shared_with(&self, other: &TripleIndex) -> [(usize, usize); 3] {
        Perm::ALL.map(|perm| {
            let (mine, theirs) = (self.run(perm), other.run(perm));
            let shared = mine
                .chunks
                .iter()
                .filter(|c| theirs.chunks.iter().any(|d| Arc::ptr_eq(c, d)))
                .count();
            (shared, mine.chunks.len())
        })
    }
}

/// A private copy of a chunk's elements with room for the writes that
/// caused the copy.
fn copy_with_slack(src: &[IdTriple]) -> Vec<IdTriple> {
    let mut copy = Vec::with_capacity(src.len() + COPY_SLACK);
    copy.extend_from_slice(src);
    copy
}

/// Range-scan a permutation on its first one or two components.
fn range3(run: &Run, first: TermId, second: Option<TermId>) -> RunRange<'_> {
    let (lo, hi) = match second {
        Some(snd) => ([first, snd, MIN], [first, snd, MAX]),
        None => ([first, MIN, MIN], [first, MAX, MAX]),
    };
    run.range(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfa_prng::StdRng;
    use std::collections::BTreeSet;
    use std::ops::Bound;

    fn t(s: u32, p: u32, o: u32) -> IdTriple {
        [TermId(s), TermId(p), TermId(o)]
    }

    fn check_invariants(run: &Run) {
        assert_eq!(run.chunks.len(), run.fences.len());
        assert_eq!(run.len, run.chunks.iter().map(|c| c.len()).sum::<usize>());
        let mut prev: Option<IdTriple> = None;
        for (chunk, fence) in run.chunks.iter().zip(&run.fences) {
            assert!(!chunk.is_empty() && chunk.len() <= CHUNK_MAX, "chunk of {}", chunk.len());
            assert_eq!(chunk[0], *fence);
            for &x in chunk.iter() {
                assert!(prev.is_none_or(|p| p < x), "not strictly ascending at {x:?}");
                prev = Some(x);
            }
        }
    }

    fn check_index(idx: &TripleIndex) {
        for perm in Perm::ALL {
            check_invariants(idx.run(perm));
        }
        assert_eq!(idx.spo.len, idx.pos.len);
        assert_eq!(idx.spo.len, idx.osp.len);
    }

    #[test]
    fn insert_remove_contains() {
        let mut idx = TripleIndex::new();
        assert!(idx.insert(t(1, 2, 3)));
        assert!(!idx.insert(t(1, 2, 3)));
        assert!(idx.contains(t(1, 2, 3)));
        assert!(idx.remove(t(1, 2, 3)));
        assert!(!idx.remove(t(1, 2, 3)));
        assert!(idx.is_empty());
    }

    #[test]
    fn all_eight_patterns() {
        let mut idx = TripleIndex::new();
        for trip in [t(1, 10, 100), t(1, 10, 101), t(1, 11, 100), t(2, 10, 100)] {
            idx.insert(trip);
        }
        let m = |s: Option<u32>, p: Option<u32>, o: Option<u32>| -> Vec<IdTriple> {
            idx.matching(s.map(TermId), p.map(TermId), o.map(TermId)).collect()
        };
        assert_eq!(m(Some(1), Some(10), Some(100)), vec![t(1, 10, 100)]);
        assert_eq!(m(Some(1), Some(10), None).len(), 2);
        assert_eq!(m(Some(1), None, None).len(), 3);
        assert_eq!(m(Some(1), None, Some(100)).len(), 2);
        assert_eq!(m(None, Some(10), Some(100)).len(), 2);
        assert_eq!(m(None, Some(10), None).len(), 3);
        assert_eq!(m(None, None, Some(100)).len(), 3);
        assert_eq!(m(None, None, None).len(), 4);
    }

    #[test]
    fn matching_yields_spo_ordered_fields() {
        let mut idx = TripleIndex::new();
        idx.insert(t(7, 8, 9));
        for pattern in [
            (None, Some(TermId(8)), Some(TermId(9))),
            (Some(TermId(7)), None, Some(TermId(9))),
            (None, None, Some(TermId(9))),
        ] {
            let got: Vec<_> = idx.matching(pattern.0, pattern.1, pattern.2).collect();
            assert_eq!(got, vec![t(7, 8, 9)]);
        }
    }

    /// The oracle: three `BTreeSet`s, one per permutation.
    #[derive(Default)]
    struct Oracle {
        spo: BTreeSet<IdTriple>,
        pos: BTreeSet<IdTriple>,
        osp: BTreeSet<IdTriple>,
    }

    impl Oracle {
        fn insert(&mut self, [s, p, o]: IdTriple) -> bool {
            self.pos.insert([p, o, s]);
            self.osp.insert([o, s, p]);
            self.spo.insert([s, p, o])
        }

        fn remove(&mut self, [s, p, o]: IdTriple) -> bool {
            self.pos.remove(&[p, o, s]);
            self.osp.remove(&[o, s, p]);
            self.spo.remove(&[s, p, o])
        }

        fn perm(&self, perm: Perm) -> &BTreeSet<IdTriple> {
            match perm {
                Perm::Spo => &self.spo,
                Perm::Pos => &self.pos,
                Perm::Osp => &self.osp,
            }
        }

        fn matching(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> Vec<IdTriple> {
            let keep = |t: &IdTriple| {
                s.is_none_or(|v| t[0] == v) && p.is_none_or(|v| t[1] == v) && o.is_none_or(|v| t[2] == v)
            };
            // the order the permutation serving this shape yields
            let perm = match (s, p, o) {
                (Some(_), None, Some(_)) | (None, None, Some(_)) => Perm::Osp,
                (None, Some(_), _) => Perm::Pos,
                _ => Perm::Spo,
            };
            self.perm(perm).iter().map(|&e| perm.to_spo(e)).filter(keep).collect()
        }
    }

    fn compare(idx: &TripleIndex, oracle: &Oracle, rng: &mut StdRng, space: u32, what: &str) {
        check_index(idx);
        assert_eq!(idx.len(), oracle.spo.len(), "{what}");
        assert_eq!(idx.is_empty(), oracle.spo.is_empty(), "{what}");
        // all eight shapes, several draws each, in the exact order
        for mask in 0..8u32 {
            for _ in 0..4 {
                let mut part = |bit: u32| (mask & bit != 0).then(|| TermId(rng.gen_range(0..space)));
                let (s, p, o) = (part(1), part(2), part(4));
                let got: Vec<IdTriple> = idx.matching(s, p, o).collect();
                assert_eq!(got, oracle.matching(s, p, o), "{what}: pattern ({s:?},{p:?},{o:?})");
            }
        }
        // scan_perm on arbitrary inclusive bounds, incl. inverted and absent keys
        for perm in Perm::ALL {
            for _ in 0..8 {
                let mut key = || {
                    [
                        TermId(rng.gen_range(0..space + 1)),
                        TermId(rng.gen_range(0..space + 1)),
                        TermId(rng.gen_range(0..space + 1)),
                    ]
                };
                let (lo, hi) = (key(), key());
                let got: Vec<IdTriple> = idx.scan_perm(perm, lo, hi).collect();
                let want: Vec<IdTriple> = if lo > hi {
                    Vec::new()
                } else {
                    oracle
                        .perm(perm)
                        .range((Bound::Included(lo), Bound::Included(hi)))
                        .copied()
                        .collect()
                };
                assert_eq!(got, want, "{what}: {perm:?} {lo:?}..={hi:?}");
                assert_eq!(idx.scan_perm(perm, lo, hi).size_hint(), (want.len(), Some(want.len())));
            }
            let all: Vec<IdTriple> = idx.iter_perm(perm).collect();
            assert!(all.iter().eq(oracle.perm(perm).iter()), "{what}: full {perm:?}");
        }
        // the posting runs facet operators read: (?, a, ?), (?, a, b), (a, b, ?)
        for _ in 0..6 {
            let (a, b) = (TermId(rng.gen_range(0..space)), TermId(rng.gen_range(0..space)));
            let pairs: Vec<_> = idx.matching(None, Some(a), None).map(|[s, _, o]| (o, s)).collect();
            let want: Vec<_> = oracle.pos.iter().filter(|e| e[0] == a).map(|e| (e[1], e[2])).collect();
            assert_eq!(pairs, want, "{what}: (?, p, ?) run");
            let subs: Vec<_> = idx.matching(None, Some(a), Some(b)).map(|[s, _, _]| s).collect();
            let want: Vec<_> =
                oracle.pos.iter().filter(|e| e[0] == a && e[1] == b).map(|e| e[2]).collect();
            assert_eq!(subs, want, "{what}: (?, p, o) run");
            let objs: Vec<_> = idx.matching(Some(a), Some(b), None).map(|[_, _, o]| o).collect();
            let want: Vec<_> =
                oracle.spo.iter().filter(|e| e[0] == a && e[1] == b).map(|e| e[2]).collect();
            assert_eq!(objs, want, "{what}: (s, p, ?) run");
        }
    }

    /// Property: under seeded random interleaved inserts and removes the
    /// chunked index answers every accessor exactly like a `BTreeSet` per
    /// permutation, and the chunk invariants hold throughout. The id space
    /// is sized so runs span many chunks and chunks split and merge.
    #[test]
    fn chunked_index_agrees_with_btreeset_oracle() {
        for case in 0u64..24 {
            let mut rng = StdRng::seed_from_u64(0xc4_0000 + case);
            // small spaces: dense, few chunks; large: sparse, many chunks
            let space = [6u32, 24, 48][(case % 3) as usize];
            let mut idx = TripleIndex::new();
            let mut oracle = Oracle::default();
            let steps = if space == 6 { 400 } else { 9000 };
            for step in 0..steps {
                let trip = t(rng.gen_range(0..space), rng.gen_range(0..space), rng.gen_range(0..space));
                // grow first, then churn, then mostly shrink
                let insert = rng.gen_bool(match step * 3 / steps {
                    0 => 0.95,
                    1 => 0.5,
                    _ => 0.15,
                });
                if insert {
                    assert_eq!(idx.insert(trip), oracle.insert(trip), "case {case} insert {trip:?}");
                } else {
                    assert_eq!(idx.remove(trip), oracle.remove(trip), "case {case} remove {trip:?}");
                }
                assert_eq!(idx.contains(trip), oracle.spo.contains(&trip));
                if step % (steps / 6) == 0 {
                    compare(&idx, &oracle, &mut rng, space, &format!("case {case} step {step}"));
                }
            }
            compare(&idx, &oracle, &mut rng, space, &format!("case {case} end"));
            // drain completely: every chunk must go away
            let all: Vec<IdTriple> = idx.iter().collect();
            for trip in all {
                assert!(idx.remove(trip));
            }
            check_index(&idx);
            assert!(idx.is_empty() && idx.spo.chunks.is_empty());
        }
    }

    /// Chunk boundaries, deterministically: fill exactly to the limit, cross
    /// it at the end / start / middle, and shrink back across the merge
    /// threshold.
    #[test]
    fn chunks_split_and_merge_at_the_boundaries() {
        let key = |i: u32| t(0, 0, i);
        // ascending fill: full chunks, then a fresh one — never a half split
        let mut run = Run::default();
        for i in 0..(2 * CHUNK_MAX as u32 + 1) {
            assert!(run.insert(key(2 * i)));
        }
        check_invariants(&run);
        assert_eq!(
            run.chunks.iter().map(|c| c.len()).collect::<Vec<_>>(),
            vec![CHUNK_MAX, CHUNK_MAX, 1]
        );
        // an insert into the middle of a full chunk splits it in half
        assert!(run.insert(key(2 * 100 + 1)));
        check_invariants(&run);
        assert_eq!(run.chunks.len(), 4);
        assert_eq!(run.chunks[0].len() + run.chunks[1].len(), CHUNK_MAX + 1);
        // a key below every fence lands at the front of chunk 0
        let mut run = Run::from_sorted(&(1..=CHUNK_MAX as u32).map(key).collect::<Vec<_>>());
        assert_eq!(run.chunks.len(), 1);
        assert!(run.insert(key(0)));
        check_invariants(&run);
        assert_eq!(run.fences[0], key(0));
        assert_eq!(run.chunks.len(), 2);
        // removing a chunk's first element moves its fence
        assert!(run.remove(key(0)));
        assert_eq!(run.fences[0], key(1));
        // shrinking below the threshold folds neighbours together again
        let n = 3 * CHUNK_MAX as u32;
        let mut run = Run::from_sorted(&(0..n).map(key).collect::<Vec<_>>());
        assert_eq!(run.chunks.len(), 3);
        for i in 0..n {
            if i % 8 != 0 {
                assert!(run.remove(key(i)));
                check_invariants(&run);
            }
        }
        assert_eq!(run.len, (n / 8) as usize);
        assert_eq!(run.chunks.len(), 1, "three sparse chunks must have merged");
        assert!(run.range(key(0), key(n)).eq((0..n).step_by(8).map(key)));
    }

    #[test]
    fn from_sorted_runs_matches_per_triple_inserts() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut by_insert = TripleIndex::new();
        let mut oracle = Oracle::default();
        for _ in 0..5000 {
            let trip = t(rng.gen_range(0..40), rng.gen_range(0..6), rng.gen_range(0..40));
            by_insert.insert(trip);
            oracle.insert(trip);
        }
        let run = |perm: Perm| oracle.perm(perm).iter().copied().collect::<Vec<_>>();
        let bulk = TripleIndex::from_sorted_runs(run(Perm::Spo), run(Perm::Pos), run(Perm::Osp));
        let from_spo = TripleIndex::from_sorted_spo(run(Perm::Spo));
        for built in [&bulk, &from_spo] {
            compare(built, &oracle, &mut rng, 40, "bulk-built");
        }
        // bulk builds cut full chunks
        assert!(bulk.spo.chunks[..bulk.spo.chunks.len() - 1].iter().all(|c| c.len() == CHUNK_MAX));
        // and stay correct under further mutation
        let mut bulk = bulk;
        for _ in 0..2000 {
            let trip = t(rng.gen_range(0..40), rng.gen_range(0..6), rng.gen_range(0..40));
            if rng.gen_bool(0.5) {
                assert_eq!(bulk.insert(trip), oracle.insert(trip));
            } else {
                assert_eq!(bulk.remove(trip), oracle.remove(trip));
            }
        }
        compare(&bulk, &oracle, &mut rng, 40, "bulk-built then mutated");
        assert!(TripleIndex::from_sorted_runs(vec![], vec![], vec![]).is_empty());
    }
}
