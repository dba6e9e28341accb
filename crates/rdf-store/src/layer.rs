//! The store's triple layer: fully in-memory ([`TripleIndex`]) or
//! segment-backed — a stack of immutable mmap [`Segment`]s plus a small
//! in-memory overlay (an add-index and a tombstone set).
//!
//! Every accessor yields elements in exactly the order the in-memory index
//! would: segment runs and the overlay are k-way merged per permutation,
//! tombstones filtered inline. That order-identity is what lets the
//! differential suites pin byte-identical query answers across backends.
//!
//! Cloning a segment-backed layer clones `Arc`s and the overlay only — the
//! structural sharing that makes copy-on-write write transactions O(overlay)
//! instead of O(store).

use crate::index::{IdTriple, Perm, RunRange, TripleIndex};
use crate::interner::TermId;
use crate::segment::{SegScan, Segment};
use std::collections::BTreeSet;
use std::sync::Arc;

pub(crate) const MIN3: IdTriple = [TermId(0); 3];
pub(crate) const MAX3: IdTriple = [TermId(u32::MAX); 3];

/// Most segments one layer stacks. Checkpoints compact a stack that would
/// grow past it, which bounds every scan's merge width, reclaims
/// tombstones, and lets [`PermRange`] hold its per-segment cursors inline.
pub(crate) const MAX_SEGS: usize = 6;

/// Immutable segment base + mutable overlay.
///
/// Invariants: segments are pairwise disjoint; `adds` is disjoint from the
/// segment union; `dels ⊆` segment union and disjoint from `adds`. Kept by
/// [`SegLayer::insert`]/[`SegLayer::remove`] so every triple is reported by
/// exactly one source and merges never double-count.
#[derive(Debug, Clone, Default)]
pub(crate) struct SegLayer {
    pub(crate) segs: Vec<Arc<Segment>>,
    /// Total triples across `segs` (cached; segments are immutable).
    seg_total: usize,
    pub(crate) adds: TripleIndex,
    /// Tombstones over the segment base, in SPO order.
    pub(crate) dels: BTreeSet<IdTriple>,
}

impl SegLayer {
    fn base_contains(&self, t: IdTriple) -> bool {
        self.segs.iter().any(|s| s.contains(t))
    }

    pub(crate) fn insert(&mut self, t: IdTriple) -> bool {
        if self.dels.remove(&t) {
            return true;
        }
        if self.base_contains(t) {
            return false;
        }
        self.adds.insert(t)
    }

    pub(crate) fn remove(&mut self, t: IdTriple) -> bool {
        if self.adds.remove(t) {
            return true;
        }
        if !self.dels.contains(&t) && self.base_contains(t) {
            self.dels.insert(t);
            return true;
        }
        false
    }

    pub(crate) fn contains(&self, t: IdTriple) -> bool {
        if self.adds.contains(t) {
            return true;
        }
        if self.dels.contains(&t) {
            return false;
        }
        self.base_contains(t)
    }

    pub(crate) fn len(&self) -> usize {
        self.seg_total + self.adds.len() - self.dels.len()
    }

    /// Triples in the overlay (adds + tombstones) — the part of the layer
    /// that is *not* structurally shared.
    pub(crate) fn overlay_len(&self) -> (usize, usize) {
        (self.adds.len(), self.dels.len())
    }

    /// Bulk-extend with a sorted, deduplicated SPO run (the ingest path).
    /// Filters the run against the segment base (un-tombstoning removed
    /// triples), then merges the remainder into the add-index with the same
    /// sort-based rebuild the in-memory path uses. Returns triples added.
    pub(crate) fn bulk_extend(&mut self, new_run: Vec<IdTriple>) -> usize {
        let mut fresh = Vec::with_capacity(new_run.len());
        let mut untombed = 0usize;
        for t in new_run {
            if self.dels.remove(&t) {
                untombed += 1;
            } else if !self.base_contains(t) {
                fresh.push(t);
            }
        }
        crate::bulk::extend_index(&mut self.adds, fresh) + untombed
    }

    /// Elements of one permutation in `lo..=hi`, read by position: each
    /// segment's and the add-index's count, less the tombstones matching
    /// `pattern` (the `[s, p, o]` shape the range serves) — O(|dels|), which
    /// checkpoints bound. Exact by the layer invariants: the sources are
    /// disjoint and every tombstone lies in exactly one segment.
    fn run_len(
        &self,
        perm: Perm,
        lo: IdTriple,
        hi: IdTriple,
        pattern: [Option<TermId>; 3],
    ) -> usize {
        let base: usize = self.segs.iter().map(|seg| seg.run_len(perm, lo, hi)).sum();
        let matches =
            |t: &&IdTriple| t.iter().zip(pattern).all(|(&id, want)| want.is_none_or(|w| w == id));
        let dead = self.dels.iter().filter(matches).count();
        base + self.adds.scan_perm(perm, lo, hi).len() - dead
    }

    /// Merged scan of one permutation over `lo..=hi`.
    fn perm_range(&self, perm: Perm, lo: IdTriple, hi: IdTriple) -> PermRange<'_> {
        let srcs = std::array::from_fn(|i| self.segs.get(i).map(|seg| seg.scan_from(perm, lo)));
        let mut adds = self.adds.scan_perm(perm, lo, MAX3);
        let add_head = adds.next();
        PermRange {
            srcs,
            live: self.segs.len(),
            adds,
            add_head,
            dels: (!self.dels.is_empty()).then_some(&self.dels),
            perm,
            hi,
        }
    }
}

/// The inclusive key range of the elements whose first component is
/// `first` and, when given, whose second is `second`.
fn prefix_bounds(first: TermId, second: Option<TermId>) -> (IdTriple, IdTriple) {
    match second {
        Some(snd) => ([first, snd, TermId(0)], [first, snd, TermId(u32::MAX)]),
        None => ([first, TermId(0), TermId(0)], [first, TermId(u32::MAX), TermId(u32::MAX)]),
    }
}

/// K-way merge of per-segment permuted runs plus the overlay add-run, minus
/// tombstones — ascending in the permutation's element order, like a single
/// in-memory range scan. Sources are disjoint by the layer invariants; equal
/// heads are still advanced together, so a violated invariant degrades to
/// dedup rather than duplicates.
pub(crate) struct PermRange<'a> {
    /// One cursor per segment, inline: a probe allocates nothing here.
    srcs: [Option<SegScan<'a>>; MAX_SEGS],
    /// Segments in the layer: `srcs[live..]` is `None`.
    live: usize,
    adds: RunRange<'a>,
    add_head: Option<IdTriple>,
    dels: Option<&'a BTreeSet<IdTriple>>,
    perm: Perm,
    hi: IdTriple,
}

impl Iterator for PermRange<'_> {
    type Item = IdTriple;

    fn next(&mut self) -> Option<IdTriple> {
        loop {
            let mut best = self.add_head;
            for h in self.srcs[..self.live].iter().flatten().filter_map(SegScan::head) {
                if best.is_none_or(|b| h < b) {
                    best = Some(h);
                }
            }
            let t = best?;
            if t > self.hi {
                return None;
            }
            if self.add_head == Some(t) {
                self.add_head = self.adds.next();
            }
            for scan in self.srcs[..self.live].iter_mut().flatten() {
                if scan.head() == Some(t) {
                    scan.advance();
                }
            }
            if let Some(dels) = self.dels {
                if dels.contains(&self.perm.to_spo(t)) {
                    continue;
                }
            }
            return Some(t);
        }
    }
}

/// One permutation scan over either backend. The in-memory arm walks the
/// index's chunk slices (static dispatch on the hot paths); the segment arm
/// merges compressed runs — with its per-segment cursors inline, which is
/// what makes the variant large: boxing it would put back the per-probe
/// allocation the inline cursors exist to avoid.
#[allow(clippy::large_enum_variant)]
pub(crate) enum PermIter<'a> {
    Mem(RunRange<'a>),
    Seg(PermRange<'a>),
}

impl Iterator for PermIter<'_> {
    type Item = IdTriple;

    #[inline]
    fn next(&mut self) -> Option<IdTriple> {
        match self {
            PermIter::Mem(r) => r.next(),
            PermIter::Seg(r) => r.next(),
        }
    }
}

/// One layer's matches of a pattern ([`Layer::matching`]): the triple a
/// point lookup found, or a scan of one permutation with each element put
/// back in `[s, p, o]` order. A concrete iterator, so a caller's loop over
/// a long run pays no dynamic dispatch per triple. Inline for the same
/// reason [`PermIter`] is: a box would cost an allocation per probe.
#[allow(clippy::large_enum_variant)]
pub(crate) enum LayerMatches<'a> {
    Hit(Option<IdTriple>),
    Scan(Perm, PermIter<'a>),
}

impl Iterator for LayerMatches<'_> {
    type Item = IdTriple;

    #[inline]
    fn next(&mut self) -> Option<IdTriple> {
        match self {
            LayerMatches::Hit(t) => t.take(),
            LayerMatches::Scan(perm, it) => it.next().map(|t| perm.to_spo(t)),
        }
    }
}

/// A triple layer: the in-memory index, or mmap segments + overlay.
#[derive(Debug, Clone)]
pub(crate) enum Layer {
    Mem(TripleIndex),
    Seg(SegLayer),
}

impl Default for Layer {
    fn default() -> Self {
        Layer::Mem(TripleIndex::new())
    }
}

impl Layer {
    pub(crate) fn mem(idx: TripleIndex) -> Layer {
        Layer::Mem(idx)
    }

    /// A segment-backed layer with an empty overlay.
    pub(crate) fn from_segments(segs: Vec<Arc<Segment>>) -> Layer {
        assert!(segs.len() <= MAX_SEGS, "a layer stacks at most {MAX_SEGS} segments");
        let seg_total = segs.iter().map(|s| s.len() as usize).sum();
        Layer::Seg(SegLayer { segs, seg_total, adds: TripleIndex::new(), dels: BTreeSet::new() })
    }

    pub(crate) fn as_seg(&self) -> Option<&SegLayer> {
        match self {
            Layer::Mem(_) => None,
            Layer::Seg(sl) => Some(sl),
        }
    }

    pub(crate) fn insert(&mut self, t: IdTriple) -> bool {
        match self {
            Layer::Mem(idx) => idx.insert(t),
            Layer::Seg(sl) => sl.insert(t),
        }
    }

    pub(crate) fn remove(&mut self, t: IdTriple) -> bool {
        match self {
            Layer::Mem(idx) => idx.remove(t),
            Layer::Seg(sl) => sl.remove(t),
        }
    }

    pub(crate) fn contains(&self, t: IdTriple) -> bool {
        match self {
            Layer::Mem(idx) => idx.contains(t),
            Layer::Seg(sl) => sl.contains(t),
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            Layer::Mem(idx) => idx.len(),
            Layer::Seg(sl) => sl.len(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Range-scan one permutation on its first one or two components —
    /// the layered counterpart of the index's `range3`.
    fn range_perm(&self, perm: Perm, first: TermId, second: Option<TermId>) -> PermIter<'_> {
        let (lo, hi) = prefix_bounds(first, second);
        self.scan(perm, lo, hi)
    }

    /// Permuted elements in `lo..=hi`, ascending.
    fn scan(&self, perm: Perm, lo: IdTriple, hi: IdTriple) -> PermIter<'_> {
        match self {
            Layer::Mem(idx) => PermIter::Mem(idx.scan_perm(perm, lo, hi)),
            Layer::Seg(sl) => PermIter::Seg(sl.perm_range(perm, lo, hi)),
        }
    }

    /// How many triples match the pattern (`None` = wildcard): exactly
    /// `matching(s, p, o).count()`, read off the sorted permutation by
    /// position in O(log n) per source instead of walking the run.
    pub(crate) fn run_len(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> usize {
        let (perm, first, second) = match (s, p, o) {
            (Some(s), Some(p), Some(o)) => return usize::from(self.contains([s, p, o])),
            (None, None, None) => return self.len(),
            (Some(s), p, None) => (Perm::Spo, s, p),
            (Some(s), None, Some(o)) => (Perm::Osp, o, Some(s)),
            (None, Some(p), o) => (Perm::Pos, p, o),
            (None, None, Some(o)) => (Perm::Osp, o, None),
        };
        let (lo, hi) = prefix_bounds(first, second);
        match self {
            Layer::Mem(idx) => idx.scan_perm(perm, lo, hi).len(),
            Layer::Seg(sl) => sl.run_len(perm, lo, hi, [s, p, o]),
        }
    }

    /// The distinct predicates (`p = None`) or the distinct objects of `p`,
    /// ascending: keys of the POS permutation, each found by seeking past
    /// the previous key's run rather than walking it — O(keys · log n).
    pub(crate) fn pos_keys(&self, p: Option<TermId>) -> Vec<TermId> {
        let mut out = Vec::new();
        let mut from = Some(TermId(0));
        while let Some(k) = from {
            let (lo, hi, at) = match p {
                None => ([k, TermId(0), TermId(0)], MAX3, 0),
                Some(p) => ([p, k, TermId(0)], [p, TermId(u32::MAX), TermId(u32::MAX)], 1),
            };
            let Some(head) = self.scan(Perm::Pos, lo, hi).next() else {
                break;
            };
            out.push(head[at]);
            from = head[at].0.checked_add(1).map(TermId);
        }
        out
    }

    /// Full scan of one permutation.
    pub(crate) fn perm_iter(&self, perm: Perm) -> PermIter<'_> {
        match self {
            Layer::Mem(idx) => PermIter::Mem(idx.iter_perm(perm)),
            Layer::Seg(sl) => PermIter::Seg(sl.perm_range(perm, MIN3, MAX3)),
        }
    }

    /// Iterate all triples in SPO order.
    pub(crate) fn iter(&self) -> PermIter<'_> {
        self.perm_iter(Perm::Spo)
    }

    /// All triples matching the pattern (`None` = wildcard), yielded in
    /// `[s, p, o]` field order and in exactly the same sequence as
    /// [`TripleIndex::matching`] over the same triple set.
    pub(crate) fn matching(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> LayerMatches<'_> {
        let (perm, first, second) = match (s, p, o) {
            (Some(s), Some(p), Some(o)) => {
                return LayerMatches::Hit(self.contains([s, p, o]).then_some([s, p, o]));
            }
            (Some(s), p, None) => (Perm::Spo, s, p),
            (Some(s), None, Some(o)) => (Perm::Osp, o, Some(s)),
            (None, Some(p), o) => (Perm::Pos, p, o),
            (None, None, Some(o)) => (Perm::Osp, o, None),
            (None, None, None) => return LayerMatches::Scan(Perm::Spo, self.iter()),
        };
        LayerMatches::Scan(perm, self.range_perm(perm, first, second))
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::crash::CrashInjector;
    use rdfa_prng::StdRng;
    use std::path::{Path, PathBuf};

    fn tmpfile(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "rdfa-layer-{}-{}-{}.seg",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::SeqCst)
        ))
    }

    fn seg_from_index(idx: &TripleIndex, path: &Path) -> Arc<Segment> {
        let mut spo = idx.iter_perm(Perm::Spo);
        let mut pos = idx.iter_perm(Perm::Pos);
        let mut osp = idx.iter_perm(Perm::Osp);
        crate::segment::write_segment(
            path,
            idx.len() as u64,
            [&mut spo, &mut pos, &mut osp],
            &CrashInjector::off(),
        )
        .unwrap();
        Arc::new(Segment::open(path).unwrap())
    }

    fn t(s: u32, p: u32, o: u32) -> IdTriple {
        [TermId(s), TermId(p), TermId(o)]
    }

    /// Patterns whose scans start or end where a seek changes course: for
    /// each restart (hence each block boundary) of each permutation of
    /// `part`, the element there (at a block boundary also its neighbours)
    /// fully bound and with its first two components bound, the second as is
    /// and ± 1; block-first elements also with only the first bound, ± 1.
    fn boundary_patterns(part: &TripleIndex) -> Vec<[Option<TermId>; 3]> {
        let mut out = Vec::new();
        for (perm, slots) in [(Perm::Spo, [0, 1, 2]), (Perm::Pos, [1, 2, 0]), (Perm::Osp, [2, 0, 1])] {
            let run: Vec<IdTriple> = part.iter_perm(perm).collect();
            for at in (0..run.len()).step_by(crate::segment::RESTART_INTERVAL) {
                let block_start = at % crate::segment::BLOCK_TRIPLES == 0;
                let around = if block_start { at.saturating_sub(1)..=at + 1 } else { at..=at };
                for i in around {
                    let here = run[i.min(run.len() - 1)];
                    let [a, b, _] = here;
                    for second in [b.0.wrapping_sub(1), b.0, b.0.wrapping_add(1)] {
                        let mut pat = [None; 3];
                        pat[slots[0]] = Some(a);
                        pat[slots[1]] = Some(TermId(second));
                        out.push(pat);
                    }
                    if block_start && i == at {
                        for first in [a.0.wrapping_sub(1), a.0, a.0.wrapping_add(1)] {
                            let mut pat = [None; 3];
                            pat[slots[0]] = Some(TermId(first));
                            out.push(pat);
                        }
                    }
                    out.push(perm.to_spo(here).map(Some));
                }
            }
        }
        out
    }

    /// Property: a segment-backed layer under random interleaved mutations
    /// answers every accessor identically — and in identical order — to a
    /// plain in-memory index receiving the same operations. Most cases keep
    /// each segment inside one block; every twelfth stacks segments of ≥ 20
    /// blocks with a ragged last one and also asks every pattern that
    /// starts or ends at a restart or block boundary.
    #[test]
    fn seg_layer_is_observationally_identical_to_mem() {
        for case in 0u64..48 {
            let mut rng = StdRng::seed_from_u64(0x1a7e_0000 + case);
            let large = case % 12 == 11;
            // ids per position: 30·10·30 triples fit one block, 300·10·300
            // leave room for three 20-block segments
            let (so, per_seg) = if large { (300u32, 20 * 1024 + 1..21 * 1024) } else { (30, 0..400usize) };
            let rand_t = |rng: &mut StdRng| {
                t(rng.gen_range(0..so), rng.gen_range(0..10), rng.gen_range(0..so))
            };
            // base content, split across 1..=3 segments
            let nsegs = rng.gen_range(1..=3usize);
            let mut oracle = TripleIndex::new();
            let mut segs = Vec::new();
            let mut paths = Vec::new();
            let mut patterns = Vec::new();
            for _ in 0..nsegs {
                let mut part = TripleIndex::new();
                let n = rng.gen_range(per_seg.clone());
                let mut draws = 0;
                while draws < n || (large && part.len() < n) {
                    draws += 1;
                    let trip = rand_t(&mut rng);
                    if !oracle.contains(trip) {
                        oracle.insert(trip);
                        part.insert(trip);
                    }
                }
                if large {
                    assert!(part.len() > 20 * 1024 && !part.len().is_multiple_of(1024), "case {case}");
                    patterns.extend(boundary_patterns(&part));
                }
                let path = tmpfile("obs");
                segs.push(seg_from_index(&part, &path));
                paths.push(path);
            }
            let mut layer = Layer::from_segments(segs);
            // interleaved mutations hitting base, overlay, and absent triples
            let ops = if large { 2000 } else { rng.gen_range(0..200) };
            for _ in 0..ops {
                let trip = rand_t(&mut rng);
                if rng.gen_bool(0.6) {
                    assert_eq!(layer.insert(trip), oracle.insert(trip), "case {case} insert {trip:?}");
                } else {
                    assert_eq!(layer.remove(trip), oracle.remove(trip), "case {case} remove {trip:?}");
                }
            }
            assert_eq!(layer.len(), oracle.len(), "case {case}");
            let want: Vec<IdTriple> = oracle.iter().collect();
            let got: Vec<IdTriple> = layer.iter().collect();
            assert_eq!(got, want, "case {case} full iter");
            // every matching pattern, in order
            let part = |rng: &mut StdRng| rng.gen_bool(0.5).then(|| TermId(rng.gen_range(0..so)));
            patterns.extend((0..20).map(|_| [part(&mut rng), part(&mut rng), part(&mut rng)]));
            for [s, p, o] in patterns {
                let want: Vec<IdTriple> = oracle.matching(s, p, o).collect();
                let got: Vec<IdTriple> = layer.matching(s, p, o).collect();
                assert_eq!(got, want, "case {case} pattern ({s:?},{p:?},{o:?})");
                let n = layer.run_len(s, p, o);
                assert_eq!(n, want.len(), "case {case} run_len ({s:?},{p:?},{o:?})");
            }
            // distinct POS keys, by seeking
            let distinct = |ids: &mut dyn Iterator<Item = TermId>| {
                ids.collect::<BTreeSet<TermId>>().into_iter().collect::<Vec<_>>()
            };
            let preds = distinct(&mut oracle.iter().map(|[_, p, _]| p));
            assert_eq!(layer.pos_keys(None), preds, "case {case} predicates");
            for pv in 0..10u32 {
                let run = oracle.matching(None, Some(TermId(pv)), None);
                let objs = distinct(&mut run.map(|[_, _, o]| o));
                assert_eq!(layer.pos_keys(Some(TermId(pv))), objs, "case {case} objects of {pv}");
            }
            // every posting run a facet operator reads, exhaustively:
            // (?, p, ?), (?, p, o) and (s, p, ?)
            let same = |s: Option<TermId>, p: TermId, o: Option<TermId>| {
                layer.matching(s, Some(p), o).eq(oracle.matching(s, Some(p), o))
            };
            for pv in 0..10u32 {
                let p = TermId(pv);
                assert!(same(None, p, None), "case {case} pairs {pv}");
                for ov in 0..so {
                    assert!(same(None, p, Some(TermId(ov))), "case {case} spo {pv} {ov}");
                }
            }
            for sv in 0..so {
                for pv in 0..10u32 {
                    assert!(same(Some(TermId(sv)), TermId(pv), None), "case {case} osp {sv} {pv}");
                }
            }
            for path in paths {
                let _ = std::fs::remove_file(path);
            }
        }
    }

    #[test]
    fn bulk_extend_filters_base_and_untombstones() {
        let mut base = TripleIndex::new();
        for i in 0..100 {
            base.insert(t(i, 1, i + 1));
        }
        let path = tmpfile("bulk");
        let seg = seg_from_index(&base, &path);
        let mut layer = Layer::from_segments(vec![seg]);
        // tombstone a base triple, then bulk-load it back plus new + dup triples
        assert!(layer.remove(t(5, 1, 6)));
        let run: Vec<IdTriple> = vec![t(3, 1, 4), t(5, 1, 6), t(200, 1, 201), t(201, 1, 202)];
        let added = match &mut layer {
            Layer::Seg(sl) => sl.bulk_extend(run),
            Layer::Mem(_) => unreachable!(),
        };
        // t(3,1,4) already in base → skipped; t(5,1,6) un-tombstoned; two fresh
        assert_eq!(added, 3);
        assert_eq!(layer.len(), 102);
        assert!(layer.contains(t(5, 1, 6)));
        assert!(layer.contains(t(200, 1, 201)));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn clone_shares_segments() {
        let mut base = TripleIndex::new();
        for i in 0..500 {
            base.insert(t(i, 0, i));
        }
        let path = tmpfile("share");
        let seg = seg_from_index(&base, &path);
        let layer = Layer::from_segments(vec![Arc::clone(&seg)]);
        let before = Arc::strong_count(&seg);
        let copy = layer.clone();
        assert_eq!(Arc::strong_count(&seg), before + 1, "clone must share, not copy");
        match &copy {
            Layer::Seg(sl) => assert!(Arc::ptr_eq(&sl.segs[0], &seg)),
            Layer::Mem(_) => unreachable!(),
        }
        let _ = std::fs::remove_file(path);
    }
}
