//! The [`Store`]: interner + explicit and inferred triple layers + schema
//! helper queries used by the faceted-search model.

use crate::extset::{merge_sorted, ExtSet};
use crate::index::IdTriple;
use crate::inference;
use crate::interner::{Interner, TermId};
use crate::layer::Layer;
use rdfa_model::{vocab, Graph, Term, Triple};

/// A triple pattern over interned ids; `None` is a wildcard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Pattern {
    pub s: Option<TermId>,
    pub p: Option<TermId>,
    pub o: Option<TermId>,
}

impl Pattern {
    /// A fully wild pattern.
    pub fn any() -> Self {
        Pattern::default()
    }
}

/// Which side of a `p`-edge [`Store::edge_counts`] keys its counts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CountKey {
    /// Count edges per subject.
    Subject,
    /// Count edges per object.
    Object,
}

/// A posting run at least this many times longer than the number of seeks
/// into it makes per-element seeks cheaper than one scan of the run. The
/// one crossover behind every seek-vs-scan choice: facet kernels (extension
/// elements against a predicate's run) and the SPARQL index join (input rows
/// against a pattern's run) all decide through [`Store::prefer_seek`].
const SEEK_FACTOR: usize = 32;

/// Sort id occurrences and run-length encode them into `(id, count)` pairs,
/// ascending. Each occurrence is one distinct edge, so counts are exact.
fn sort_and_count(mut occurrences: Vec<TermId>) -> Vec<(TermId, usize)> {
    occurrences.sort_unstable();
    let mut out: Vec<(TermId, usize)> = Vec::new();
    for id in occurrences {
        match out.last_mut() {
            Some((last, n)) if *last == id => *n += 1,
            _ => out.push((id, 1)),
        }
    }
    out
}

/// Ids of the vocabulary terms the store interprets, interned eagerly so hot
/// paths never hash strings.
#[derive(Debug, Clone, Copy)]
pub struct WellKnown {
    pub rdf_type: TermId,
    pub rdfs_subclassof: TermId,
    pub rdfs_subpropertyof: TermId,
    pub rdfs_domain: TermId,
    pub rdfs_range: TermId,
    pub rdfs_class: TermId,
    pub rdf_property: TermId,
    pub owl_functional: TermId,
}

/// Per-layer segment statistics (zero for fully in-memory layers);
/// see [`Store::segment_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Immutable mmap segment files backing the store.
    pub segments: usize,
    /// Total bytes of those segment files.
    pub segment_bytes: u64,
    /// Triples in the segment base (read in place from the mapping).
    pub seg_triples: usize,
    /// In-memory overlay: triples added since the segments were written.
    pub overlay_adds: usize,
    /// In-memory overlay: segment triples tombstoned since.
    pub overlay_dels: usize,
    /// Compressed blocks across all segments (three runs each).
    pub blocks: usize,
    /// Blocks a read has entered — and CRC-checked — since the segments
    /// were opened; each block counts once however often it is read.
    pub blocks_verified: usize,
}

impl SegmentStats {
    fn add_layer(&mut self, sl: &crate::layer::SegLayer) {
        self.segments += sl.segs.len();
        for seg in &sl.segs {
            self.segment_bytes += seg.file_bytes();
            self.seg_triples += seg.len() as usize;
            self.blocks += seg.blocks();
            self.blocks_verified += seg.blocks_verified();
        }
        let (adds, dels) = sl.overlay_len();
        self.overlay_adds += adds;
        self.overlay_dels += dels;
    }
}

/// How [`Store::refresh_inference`] brought the closure up to date, counted
/// over the store's lifetime (the counters travel with every clone, so a
/// served store reports its whole commit history).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClosureStats {
    /// Refreshes that re-derived only the consequences of the delta.
    pub incremental: u64,
    /// Refreshes that fell back to a full pass over the explicit layer.
    pub full: u64,
}

/// A recorded delta longer than `DELTA_REPLAY_MIN` plus one
/// `DELTA_REPLAY_FRACTION`-th of the explicit layer is not replayed triple by
/// triple: the next refresh recomputes the closure instead. Replaying costs
/// 0.3–0.5 µs per changed triple against 0.1–0.25 µs per *stored* triple for
/// the full pass (508,827-triple products KG), so the two meet somewhere
/// around a quarter of the store; an eighth leaves room for deltas that
/// delete from hubs, which pay more per triple.
const DELTA_REPLAY_FRACTION: usize = 8;
const DELTA_REPLAY_MIN: usize = 64;

/// In-memory RDF store: explicit triples plus a materialized RDFS closure.
/// Each layer is either a plain in-memory index or a stack of immutable
/// mmap segments with a small overlay (see [`crate::segment`]).
#[derive(Debug, Clone)]
pub struct Store {
    pub(crate) interner: Interner,
    pub(crate) explicit: Layer,
    /// Inferred triples **not** present in the explicit layer.
    inferred: Layer,
    /// True when the inferred layer is stale w.r.t. the explicit layer.
    dirty: bool,
    /// Effective explicit changes since the inferred layer was last current,
    /// in application order (`true` = inserted). `None` when they were not
    /// recorded — bulk loads, a delta past the replay limit, a store restored
    /// without its closure — so only a full pass can refresh.
    delta: Option<Vec<(IdTriple, bool)>>,
    /// Effective explicit changes since a durable transaction started
    /// recording, in application order (`true` = inserted) — the batch the
    /// transaction logs at publish (see [`crate::SharedStore::transact`]).
    /// `None` outside such a transaction; a published store never records.
    pub(crate) log: Option<Vec<(IdTriple, bool)>>,
    closure_stats: ClosureStats,
    /// Monotonic change counter: bumped on every effective insert/remove and
    /// on rematerialization. Cache keys derived from query results over this
    /// store include the generation, so stale entries die automatically.
    pub(crate) generation: u64,
    wk: WellKnown,
}

impl Default for Store {
    fn default() -> Self {
        Self::new()
    }
}

impl Store {
    /// An empty store.
    pub fn new() -> Self {
        let mut interner = Interner::new();
        let wk = WellKnown {
            rdf_type: interner.get_or_intern(&Term::iri(vocab::rdf::TYPE)),
            rdfs_subclassof: interner.get_or_intern(&Term::iri(vocab::rdfs::SUB_CLASS_OF)),
            rdfs_subpropertyof: interner.get_or_intern(&Term::iri(vocab::rdfs::SUB_PROPERTY_OF)),
            rdfs_domain: interner.get_or_intern(&Term::iri(vocab::rdfs::DOMAIN)),
            rdfs_range: interner.get_or_intern(&Term::iri(vocab::rdfs::RANGE)),
            rdfs_class: interner.get_or_intern(&Term::iri(vocab::rdfs::CLASS)),
            rdf_property: interner.get_or_intern(&Term::iri(vocab::rdf::PROPERTY)),
            owl_functional: interner.get_or_intern(&Term::iri(vocab::owl::FUNCTIONAL_PROPERTY)),
        };
        Store {
            interner,
            explicit: Layer::default(),
            inferred: Layer::default(),
            dirty: false,
            delta: Some(Vec::new()),
            log: None,
            closure_stats: ClosureStats::default(),
            generation: 0,
            wk,
        }
    }

    /// Rebuild a store from deserialized layers (the segment-manifest
    /// reader). Well-known ids are re-resolved by lookup rather than
    /// assumed, so the format stays robust to interning order. When the
    /// inferred layer is provided (a persisted closure segment), the store
    /// comes up clean and skips closure recomputation; otherwise it is dirty
    /// and the caller rematerializes after WAL replay.
    pub(crate) fn from_layer_parts(
        mut interner: Interner,
        explicit: Layer,
        inferred: Option<Layer>,
    ) -> Store {
        let wk = WellKnown {
            rdf_type: interner.get_or_intern(&Term::iri(vocab::rdf::TYPE)),
            rdfs_subclassof: interner.get_or_intern(&Term::iri(vocab::rdfs::SUB_CLASS_OF)),
            rdfs_subpropertyof: interner.get_or_intern(&Term::iri(vocab::rdfs::SUB_PROPERTY_OF)),
            rdfs_domain: interner.get_or_intern(&Term::iri(vocab::rdfs::DOMAIN)),
            rdfs_range: interner.get_or_intern(&Term::iri(vocab::rdfs::RANGE)),
            rdfs_class: interner.get_or_intern(&Term::iri(vocab::rdfs::CLASS)),
            rdf_property: interner.get_or_intern(&Term::iri(vocab::rdf::PROPERTY)),
            owl_functional: interner.get_or_intern(&Term::iri(vocab::owl::FUNCTIONAL_PROPERTY)),
        };
        let dirty = inferred.is_none();
        Store {
            interner,
            explicit,
            inferred: inferred.unwrap_or_default(),
            dirty,
            delta: (!dirty).then(Vec::new),
            log: None,
            closure_stats: ClosureStats::default(),
            generation: 0,
            wk,
        }
    }

    /// The inferred layer (the persisted-closure segment writer reads it).
    pub(crate) fn inferred_layer(&self) -> &Layer {
        &self.inferred
    }

    /// Rebuild this store around replacement layers and interner, keeping
    /// the observable state (well-known ids, change generation, dirtiness)
    /// intact — the checkpoint fold swaps freshly written mmap segments in
    /// for the in-memory overlay without readers noticing. When `inferred`
    /// is `None` the current inferred layer is kept as-is.
    pub(crate) fn refold(
        &self,
        interner: Interner,
        explicit: Layer,
        inferred: Option<Layer>,
    ) -> Store {
        Store {
            interner,
            explicit,
            inferred: inferred.unwrap_or_else(|| self.inferred.clone()),
            dirty: self.dirty,
            delta: self.delta.clone(),
            log: None,
            closure_stats: self.closure_stats,
            generation: self.generation,
            wk: self.wk,
        }
    }

    /// Segment-backing statistics aggregated over both layers (all zeros for
    /// a fully in-memory store).
    pub fn segment_stats(&self) -> SegmentStats {
        let mut stats = SegmentStats::default();
        if let Some(sl) = self.explicit.as_seg() {
            stats.add_layer(sl);
        }
        if let Some(sl) = self.inferred.as_seg() {
            stats.add_layer(sl);
        }
        stats
    }

    /// The interned ids of the interpreted vocabulary.
    pub fn well_known(&self) -> WellKnown {
        self.wk
    }

    // ---- term table ------------------------------------------------------

    /// Intern a term (creating an id if needed).
    pub fn intern(&mut self, term: &Term) -> TermId {
        self.interner.get_or_intern(term)
    }

    /// Intern an IRI string.
    pub fn intern_iri(&mut self, iri: &str) -> TermId {
        self.interner.get_or_intern(&Term::iri(iri))
    }

    /// Look up a term's id without interning.
    pub fn lookup(&self, term: &Term) -> Option<TermId> {
        self.interner.lookup(term)
    }

    /// Look up an IRI's id without interning.
    pub fn lookup_iri(&self, iri: &str) -> Option<TermId> {
        self.interner.lookup(&Term::iri(iri))
    }

    /// Resolve an id back to its term.
    pub fn term(&self, id: TermId) -> &Term {
        self.interner.term(id)
    }

    /// Number of interned terms.
    pub fn term_count(&self) -> usize {
        self.interner.len()
    }

    /// Iterate every interned `(id, term)` pair.
    pub fn terms(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.interner.iter()
    }

    /// Iterate `(id, term)` pairs for ids `start..term_count()` only. Over
    /// a segment-restored store this touches just those terms — the
    /// incremental checkpoint writes its new dictionary chunk through this
    /// without materializing the shared base.
    pub fn terms_from(&self, start: usize) -> impl Iterator<Item = (TermId, &Term)> {
        self.interner.iter_from(start)
    }

    // ---- mutation --------------------------------------------------------

    /// Insert a triple of terms. Marks the inference layer stale.
    pub fn insert(&mut self, t: &Triple) -> bool {
        let s = self.interner.get_or_intern(&t.subject);
        let p = self.interner.get_or_intern(&t.predicate);
        let o = self.interner.get_or_intern(&t.object);
        self.insert_ids([s, p, o])
    }

    /// Insert a triple of already-interned ids.
    pub fn insert_ids(&mut self, t: IdTriple) -> bool {
        let added = self.explicit.insert(t);
        if added {
            self.record_change(t, true);
        }
        added
    }

    /// Remove an explicit triple of terms; `false` (and nothing interned)
    /// when it is absent.
    pub fn remove(&mut self, t: &Triple) -> bool {
        match (self.lookup(&t.subject), self.lookup(&t.predicate), self.lookup(&t.object)) {
            (Some(s), Some(p), Some(o)) => self.remove_ids([s, p, o]),
            _ => false,
        }
    }

    /// Remove an explicit triple. The inferred layer is stale until the next
    /// [`Store::refresh_inference`], which re-derives only what this triple
    /// supported.
    pub fn remove_ids(&mut self, t: IdTriple) -> bool {
        let removed = self.explicit.remove(t);
        if removed {
            self.record_change(t, false);
        }
        removed
    }

    /// The one funnel every effective explicit change passes through: it
    /// marks the closure stale, bumps the generation, and feeds both the
    /// closure's delta and a recording transaction's log.
    fn record_change(&mut self, t: IdTriple, inserted: bool) {
        self.dirty = true;
        self.generation += 1;
        if let Some(log) = &mut self.log {
            log.push((t, inserted));
        }
        if let Some(delta) = &mut self.delta {
            delta.push((t, inserted));
            if delta.len() > DELTA_REPLAY_MIN + self.explicit.len() / DELTA_REPLAY_FRACTION {
                self.delta = None;
            }
        }
    }

    /// Account for `added` triples merged straight into the explicit layer
    /// by the bulk loader: same generation arithmetic as that many inserts,
    /// but nothing recorded — the next refresh is a full pass.
    pub(crate) fn note_bulk_insert(&mut self, added: usize) {
        self.dirty = true;
        self.delta = None;
        self.generation += added as u64;
    }

    /// Recompute the inferred layer from the explicit layer (RDFS rules
    /// 2, 3, 5, 7, 9, 11: domain, range, subPropertyOf transitivity and
    /// inheritance, subClassOf transitivity and type propagation) — always a
    /// full pass, whatever changed.
    pub fn materialize_inference(&mut self) {
        self.inferred = Layer::mem(inference::compute_closure(&self.explicit, self.wk));
        self.closure_is_current();
    }

    /// Bring the inferred layer up to date with the explicit layer at a cost
    /// proportional to what changed since it last was: the recorded inserts
    /// gain their consequences, the recorded removes have theirs re-derived
    /// from whatever support survives. Falls back to the full pass of
    /// [`Store::materialize_inference`] when the changes were not recorded,
    /// outgrew a fixed share of the store, or include a schema triple
    /// (`rdfs:subClassOf`, `rdfs:subPropertyOf`, `rdfs:domain`, `rdfs:range`)
    /// — those alter what every other triple entails. Either way the result
    /// is the same closure; [`Store::closure_stats`] says which way it went.
    pub fn refresh_inference(&mut self) {
        let replayed = self.net_delta().is_some_and(|net| {
            inference::apply_delta(&self.explicit, &mut self.inferred, self.wk, &net)
        });
        if replayed {
            self.closure_stats.incremental += 1;
            self.closure_is_current();
        } else {
            self.closure_stats.full += 1;
            self.materialize_inference();
        }
    }

    /// The recorded changes with everything that cancelled out dropped: per
    /// triple, at most one entry saying whether it is explicit now and was
    /// not when recording started, or the reverse. `None` when there is no
    /// record (see [`Store::delta`]).
    fn net_delta(&mut self) -> Option<Vec<(IdTriple, bool)>> {
        let mut log = self.delta.take()?;
        // effective changes to one triple alternate, so its first entry tells
        // where it started and the explicit layer where it ended up
        log.sort_by_key(|&(t, _)| t);
        log.dedup_by_key(|&mut (t, _)| t);
        log.retain(|&(t, inserted)| self.explicit.contains(t) == inserted);
        Some(log)
    }

    fn closure_is_current(&mut self) {
        self.dirty = false;
        self.delta = Some(Vec::new());
        // the entailed view changed, not just the explicit layer
        self.generation += 1;
    }

    /// How many [`Store::refresh_inference`] calls took the incremental
    /// route and how many the full one.
    pub fn closure_stats(&self) -> ClosureStats {
        self.closure_stats
    }

    /// Monotonic change counter over the store's contents. Bumped on every
    /// effective insert/remove and on every closure refresh, so
    /// two equal generations guarantee identical entailed query results.
    /// Cheap enough to read per request; used to key the facet cache.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// True when the inferred layer is stale (changes since the last
    /// [`Store::refresh_inference`] / [`Store::materialize_inference`]).
    /// Queries still run but see the old closure for inferred triples.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    // ---- queries ---------------------------------------------------------

    /// Triples matching a pattern in the **entailed** graph (explicit ∪
    /// inferred). This is what the interaction model queries (§5.2.1).
    pub fn matching(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> impl Iterator<Item = IdTriple> + '_ {
        self.explicit.matching(s, p, o).chain(self.inferred.matching(s, p, o))
    }

    /// Number of entailed triples matching a pattern — exactly
    /// `matching(s, p, o).count()`, explicit and inferred summed — read off
    /// the sorted permutations by position: O(log n) per in-memory layer or
    /// segment, plus the overlay's tombstones. Nothing is iterated, so a
    /// planner or a seek-vs-scan choice can ask for any run's length.
    pub fn run_len(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> usize {
        self.explicit.run_len(s, p, o) + self.inferred.run_len(s, p, o)
    }

    /// Triples matching a pattern among asserted triples only.
    pub fn matching_explicit(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> impl Iterator<Item = IdTriple> + '_ {
        self.explicit.matching(s, p, o)
    }

    /// Entailed membership test.
    pub fn contains(&self, t: IdTriple) -> bool {
        self.explicit.contains(t) || self.inferred.contains(t)
    }

    /// Number of explicit triples.
    pub fn len(&self) -> usize {
        self.explicit.len()
    }

    /// True when no explicit triples are stored.
    pub fn is_empty(&self) -> bool {
        self.explicit.is_empty()
    }

    /// Number of entailed triples (explicit + inferred).
    pub fn len_entailed(&self) -> usize {
        self.explicit.len() + self.inferred.len()
    }

    /// Iterate every explicit triple.
    pub fn iter_explicit(&self) -> impl Iterator<Item = IdTriple> + '_ {
        self.explicit.iter()
    }

    // ---- sorted posting runs (merge-join building blocks, §5.4) -----------
    //
    // Each accessor fuses the explicit and inferred permutation ranges into
    // one ascending stream (the two layers are disjoint by construction, but
    // the merge dedups defensively), so facet operators can merge-join
    // against a sorted extension instead of probing per element.

    /// Subjects with an entailed `p`-edge to `o`, ascending.
    pub fn subjects_for_po(&self, p: TermId, o: TermId) -> impl Iterator<Item = TermId> + '_ {
        merge_sorted(
            self.explicit.subjects_for_po(p, o),
            self.inferred.subjects_for_po(p, o),
        )
    }

    /// Objects of `s`'s entailed `p`-edges, ascending.
    pub fn objects_for_sp(&self, s: TermId, p: TermId) -> impl Iterator<Item = TermId> + '_ {
        merge_sorted(
            self.explicit.objects_for_sp(s, p),
            self.inferred.objects_for_sp(s, p),
        )
    }

    /// All entailed `(object, subject)` pairs of predicate `p`, ascending by
    /// `(object, subject)` — the full posting run behind facet counting.
    pub fn predicate_pairs(&self, p: TermId) -> impl Iterator<Item = (TermId, TermId)> + '_ {
        merge_sorted(self.explicit.pairs_for_p(p), self.inferred.pairs_for_p(p))
    }

    /// Entailed instances of a class, `inst(c)` of §5.3.1: the class's
    /// sorted `rdf:type` run.
    pub fn instances_set(&self, class: TermId) -> ExtSet {
        ExtSet::from_sorted_iter(self.subjects_for_po(self.wk.rdf_type, class))
    }

    /// True when `seeks` per-element seeks into the entailed `(?, p, o)` run
    /// (`o = None`: all of `p`'s edges) beat one scan of it: the run is more
    /// than `SEEK_FACTOR` (32)× longer than `seeks`. The run's length is
    /// [`Store::run_len`], read by position, so the decision costs a few
    /// index seeks however long the run is.
    pub fn prefer_seek(&self, seeks: usize, p: TermId, o: Option<TermId>) -> bool {
        let budget = seeks.saturating_mul(SEEK_FACTOR).saturating_add(1);
        self.run_len(None, Some(p), o) >= budget
    }

    // ---- the counting kernel ---------------------------------------------

    /// For each distinct term on the `key` side of an entailed `p`-edge,
    /// the number of edges whose *opposite* side lies in `within` (all edges
    /// when `within` is `None`). Returned ascending by term id.
    ///
    /// This is the one counting kernel behind both facet directions and the
    /// per-subject statistics:
    /// - `key = Object`, `within = ext` → forward facet value markers
    ///   `(v, |Restrict(E, p : v)|)`;
    /// - `key = Subject`, `within = ext` → inverse facet markers
    ///   `(s, |Restrict(E, p⁻¹ : s)|)`;
    /// - `key = Subject`, `within = None` → per-subject value counts
    ///   (used by the feature operators).
    ///
    /// Strategy is adaptive ([`Store::prefer_seek`]): when the extension is
    /// small relative to the predicate's posting run, it seeks per extension
    /// element; otherwise it scans the run once, testing membership against
    /// the (densified) set.
    pub fn edge_counts(
        &self,
        p: TermId,
        key: CountKey,
        within: Option<&ExtSet>,
    ) -> Vec<(TermId, usize)> {
        match (key, within) {
            (CountKey::Object, Some(ext)) => {
                if self.prefer_seek(ext.len(), p, None) {
                    // seek: objects of each extension element, then aggregate
                    let mut occurrences: Vec<TermId> = Vec::new();
                    for e in ext.iter() {
                        occurrences.extend(self.objects_for_sp(e, p));
                    }
                    sort_and_count(occurrences)
                } else {
                    // scan: the POS run groups by object, so counts stream out
                    // already ascending — one pass, no hashing
                    let mut out: Vec<(TermId, usize)> = Vec::new();
                    for (o, s) in self.predicate_pairs(p) {
                        if !ext.contains(s) {
                            continue;
                        }
                        match out.last_mut() {
                            Some((last, n)) if *last == o => *n += 1,
                            _ => out.push((o, 1)),
                        }
                    }
                    out
                }
            }
            (CountKey::Subject, Some(ext)) => {
                let occurrences: Vec<TermId> = if self.prefer_seek(ext.len(), p, None) {
                    let mut subs = Vec::new();
                    for e in ext.iter() {
                        subs.extend(self.subjects_for_po(p, e));
                    }
                    subs
                } else {
                    self.predicate_pairs(p)
                        .filter(|&(o, _)| ext.contains(o))
                        .map(|(_, s)| s)
                        .collect()
                };
                sort_and_count(occurrences)
            }
            (CountKey::Object, None) => {
                let mut out: Vec<(TermId, usize)> = Vec::new();
                for (o, _) in self.predicate_pairs(p) {
                    match out.last_mut() {
                        Some((last, n)) if *last == o => *n += 1,
                        _ => out.push((o, 1)),
                    }
                }
                out
            }
            (CountKey::Subject, None) => {
                sort_and_count(self.predicate_pairs(p).map(|(_, s)| s).collect())
            }
        }
    }

    // ---- schema helpers (used by the faceted-search model, §5.3) ----------

    /// Classes the resource is an entailed instance of.
    pub fn classes_of(&self, resource: TermId) -> ExtSet {
        ExtSet::from_sorted_iter(self.objects_for_sp(resource, self.wk.rdf_type))
    }

    /// All class ids: declared via `rdf:type rdfs:Class`, used as a type, or
    /// appearing in `rdfs:subClassOf`. The types used are the distinct
    /// objects of the `rdf:type` runs, found by seeking past each class's
    /// instances, so the cost is per class, not per typed resource.
    pub fn classes(&self) -> ExtSet {
        let wk = self.wk;
        let mut out: Vec<TermId> = [&self.explicit, &self.inferred]
            .into_iter()
            .flat_map(|layer| layer.pos_keys(Some(wk.rdf_type)))
            .collect();
        out.extend(self.subjects_for_po(wk.rdf_type, wk.rdfs_class));
        out.extend(
            self.matching(None, Some(wk.rdfs_subclassof), None)
                .flat_map(|[s, _, o]| [s, o]),
        );
        out.retain(|&c| c != wk.rdfs_class && c != wk.rdf_property);
        out.into_iter().collect()
    }

    /// All property ids: declared `rdf:Property`, used as a predicate of a
    /// data triple, or appearing in `rdfs:subPropertyOf`. The predicates
    /// used are the distinct keys of the explicit POS permutation, found by
    /// seeking past each predicate's run.
    pub fn properties(&self) -> ExtSet {
        let schema = [
            self.wk.rdf_type,
            self.wk.rdfs_subclassof,
            self.wk.rdfs_subpropertyof,
            self.wk.rdfs_domain,
            self.wk.rdfs_range,
        ];
        let mut out = self.explicit.pos_keys(None);
        out.retain(|p| !schema.contains(p));
        out.extend(self.subjects_for_po(self.wk.rdf_type, self.wk.rdf_property));
        out.extend(
            self.matching(None, Some(self.wk.rdfs_subpropertyof), None)
                .flat_map(|[s, _, o]| [s, o]),
        );
        out.into_iter().collect()
    }

    /// Direct (asserted) subclasses of `c`, excluding `c` itself.
    pub fn direct_subclasses(&self, c: TermId) -> ExtSet {
        self.matching_explicit(None, Some(self.wk.rdfs_subclassof), Some(c))
            .map(|[s, _, _]| s)
            .filter(|&s| s != c)
            .collect()
    }

    /// All entailed subclasses of `c` (reflexive: includes `c`).
    pub fn subclass_closure(&self, c: TermId) -> ExtSet {
        self.matching(None, Some(self.wk.rdfs_subclassof), Some(c))
            .map(|[s, _, _]| s)
            .chain([c])
            .collect()
    }

    /// All entailed superclasses of `c` (reflexive).
    pub fn superclass_closure(&self, c: TermId) -> ExtSet {
        self.matching(Some(c), Some(self.wk.rdfs_subclassof), None)
            .map(|[_, _, o]| o)
            .chain([c])
            .collect()
    }

    /// Maximal (top-level) classes: classes with no proper superclass
    /// (`maximal≤cl(C)` of §5.3.2).
    pub fn maximal_classes(&self) -> Vec<TermId> {
        self.classes()
            .iter()
            .filter(|&c| {
                self.matching(Some(c), Some(self.wk.rdfs_subclassof), None)
                    .all(|[_, _, sup]| sup == c)
            })
            .collect()
    }

    /// Maximal properties w.r.t. `rdfs:subPropertyOf`.
    pub fn maximal_properties(&self) -> Vec<TermId> {
        self.properties()
            .iter()
            .filter(|&p| {
                self.matching(Some(p), Some(self.wk.rdfs_subpropertyof), None)
                    .all(|[_, _, sup]| sup == p)
            })
            .collect()
    }

    /// Direct (asserted) subproperties of `p`, excluding `p`.
    pub fn direct_subproperties(&self, p: TermId) -> ExtSet {
        self.matching_explicit(None, Some(self.wk.rdfs_subpropertyof), Some(p))
            .map(|[s, _, _]| s)
            .filter(|&s| s != p)
            .collect()
    }

    /// True if `p` is declared an `owl:FunctionalProperty` **or** is
    /// effectively functional in the data (every subject has ≤ 1 value) —
    /// the HIFUN applicability criterion of §4.1.1.
    pub fn is_effectively_functional(&self, p: TermId) -> bool {
        if self.contains([p, self.wk.rdf_type, self.wk.owl_functional]) {
            return true;
        }
        let mut last_subject: Option<TermId> = None;
        for [s, _, _] in self.matching_explicit(None, Some(p), None) {
            if last_subject == Some(s) {
                return false;
            }
            last_subject = Some(s);
        }
        true
    }

    /// Export the explicit triples as a [`Graph`] of owned terms.
    pub fn to_graph(&self) -> Graph {
        self.explicit
            .iter()
            .map(|[s, p, o]| {
                Triple::new(self.term(s).clone(), self.term(p).clone(), self.term(o).clone())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    const EX: &str = "http://example.org/";

    fn products_store() -> Store {
        let mut store = Store::new();
        store
            .load_turtle(&format!(
                r#"
                @prefix ex: <{EX}> .
                @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
                ex:Laptop rdfs:subClassOf ex:Product .
                ex:HDType rdfs:subClassOf ex:Product .
                ex:SSD rdfs:subClassOf ex:HDType .
                ex:manufacturer rdfs:subPropertyOf ex:producer .
                ex:laptop1 a ex:Laptop ; ex:manufacturer ex:DELL ; ex:price 900 .
                ex:ssd1 a ex:SSD .
                "#
            ))
            .unwrap();
        store
    }

    fn iri(store: &Store, local: &str) -> TermId {
        store.lookup_iri(&format!("{EX}{local}")).unwrap()
    }

    #[test]
    fn load_and_match() {
        let store = products_store();
        let laptop1 = iri(&store, "laptop1");
        assert!(store.matching(Some(laptop1), None, None).count() >= 3);
    }

    #[test]
    fn subclass_inference_extends_instances() {
        let store = products_store();
        let product = iri(&store, "Product");
        let insts = store.instances_set(product);
        assert_eq!(insts.len(), 2); // laptop1 via Laptop, ssd1 via SSD→HDType→Product
    }

    #[test]
    fn subproperty_inference_adds_triples() {
        let store = products_store();
        let producer = iri(&store, "producer");
        let laptop1 = iri(&store, "laptop1");
        let dell = iri(&store, "DELL");
        assert!(store.contains([laptop1, producer, dell]));
        // but not asserted
        assert_eq!(store.matching_explicit(Some(laptop1), Some(producer), None).count(), 0);
    }

    #[test]
    fn maximal_classes_and_properties() {
        let store = products_store();
        let maxc = store.maximal_classes();
        let product = iri(&store, "Product");
        assert!(maxc.contains(&product));
        assert!(!maxc.contains(&iri(&store, "Laptop")));
        let maxp = store.maximal_properties();
        assert!(maxp.contains(&iri(&store, "producer")));
        assert!(!maxp.contains(&iri(&store, "manufacturer")));
    }

    #[test]
    fn effectively_functional_detection() {
        let mut store = products_store();
        let price = iri(&store, "price");
        assert!(store.is_effectively_functional(price));
        // add a second price to laptop1 → no longer functional
        store
            .load_turtle(&format!("@prefix ex: <{EX}> . ex:laptop1 ex:price 950 ."))
            .unwrap();
        let price = iri(&store, "price");
        assert!(!store.is_effectively_functional(price));
    }

    #[test]
    fn dirty_tracking() {
        let mut store = Store::new();
        assert!(!store.is_dirty());
        store.insert(&Triple::new(Term::iri("http://s"), Term::iri("http://p"), Term::integer(1)));
        assert!(store.is_dirty());
        store.materialize_inference();
        assert!(!store.is_dirty());
    }

    #[test]
    fn classes_excludes_instances() {
        let store = products_store();
        let classes = store.classes();
        assert!(classes.contains(iri(&store, "Laptop")));
        assert!(classes.contains(iri(&store, "Product")));
        assert!(!classes.contains(iri(&store, "laptop1")));
        assert!(!classes.contains(iri(&store, "DELL")));
    }

    #[test]
    fn subclass_closure_is_reflexive_transitive() {
        let store = products_store();
        let product = iri(&store, "Product");
        let clo = store.subclass_closure(product);
        for name in ["Product", "Laptop", "HDType", "SSD"] {
            assert!(clo.contains(iri(&store, name)), "{name} missing");
        }
    }

    #[test]
    fn to_graph_roundtrip() {
        let store = products_store();
        let g = store.to_graph();
        let mut store2 = Store::new();
        store2.load_graph(&g);
        assert_eq!(store.len(), store2.len());
    }

    #[test]
    fn generation_bumps_on_change_only() {
        let mut store = Store::new();
        let g0 = store.generation();
        let t = Triple::new(Term::iri("http://s"), Term::iri("http://p"), Term::integer(1));
        store.insert(&t);
        let g1 = store.generation();
        assert!(g1 > g0, "insert must bump");
        // re-inserting the same triple is a no-op
        store.insert(&t);
        assert_eq!(store.generation(), g1);
        store.materialize_inference();
        let g2 = store.generation();
        assert!(g2 > g1, "materialization must bump");
        let s = store.lookup_iri("http://s").unwrap();
        let p = store.lookup_iri("http://p").unwrap();
        let o = store.matching_explicit(Some(s), Some(p), None).next().unwrap()[2];
        store.remove_ids([s, p, o]);
        assert!(store.generation() > g2, "remove must bump");
        assert!(!store.remove_ids([s, p, o]));
        let g3 = store.generation();
        store.remove_ids([s, p, o]); // absent: no bump
        assert_eq!(store.generation(), g3);
    }

    #[test]
    fn posting_runs_are_sorted_and_entailed() {
        let store = products_store();
        let laptop1 = iri(&store, "laptop1");
        let dell = iri(&store, "DELL");
        let producer = iri(&store, "producer");
        // producer edges exist only in the inferred layer
        let subs: Vec<TermId> = store.subjects_for_po(producer, dell).collect();
        assert_eq!(subs, vec![laptop1]);
        let objs: Vec<TermId> = store.objects_for_sp(laptop1, producer).collect();
        assert_eq!(objs, vec![dell]);
        let pairs: Vec<(TermId, TermId)> = store.predicate_pairs(producer).collect();
        assert_eq!(pairs, vec![(dell, laptop1)]);
        // runs are ascending
        let t = store.well_known().rdf_type;
        let run: Vec<(TermId, TermId)> = store.predicate_pairs(t).collect();
        assert!(run.windows(2).all(|w| w[0] < w[1]), "{run:?}");
        // instances_set agrees with the entailed type triples
        let product = iri(&store, "Product");
        let typed: BTreeSet<TermId> =
            store.matching(None, Some(t), Some(product)).map(|[s, _, _]| s).collect();
        assert_eq!(store.instances_set(product).to_sorted_vec(), Vec::from_iter(typed));
    }

    #[test]
    fn edge_counts_unifies_both_directions() {
        let mut store = Store::new();
        store
            .load_turtle(&format!(
                r#"@prefix ex: <{EX}> .
                   ex:l1 ex:man ex:DELL . ex:l2 ex:man ex:DELL . ex:l3 ex:man ex:Lenovo .
                   ex:l1 ex:usb 2 . ex:l1 ex:ram 8 ."#
            ))
            .unwrap();
        let man = iri(&store, "man");
        let dell = iri(&store, "DELL");
        let lenovo = iri(&store, "Lenovo");
        let l1 = iri(&store, "l1");
        let l3 = iri(&store, "l3");
        let ext: ExtSet = [l1, l3].into_iter().collect();
        // forward: values of `man` over {l1, l3}
        let fwd = store.edge_counts(man, CountKey::Object, Some(&ext));
        let expect: Vec<(TermId, usize)> =
            [(dell, 1), (lenovo, 1)].into_iter().collect::<BTreeSet<_>>().into_iter().collect();
        assert_eq!(fwd, expect);
        // inverse: subjects pointing at {DELL}
        let companies: ExtSet = [dell].into_iter().collect();
        let inv = store.edge_counts(man, CountKey::Subject, Some(&companies));
        assert_eq!(inv.len(), 2);
        assert!(inv.iter().all(|&(_, n)| n == 1));
        // unrestricted per-subject counts: one per asserted man-edge subject
        let all = store.edge_counts(man, CountKey::Subject, None);
        assert_eq!(all.len(), 3);
        assert!(all.iter().all(|&(_, n)| n == 1));
    }

    /// Property: seek and scan strategies agree — forced by extensions on
    /// both sides of the [`SEEK_FACTOR`] threshold.
    #[test]
    fn edge_counts_strategies_agree() {
        use rdfa_prng::StdRng;
        let mut rng = StdRng::seed_from_u64(7);
        let mut store = Store::new();
        let p = store.intern_iri("http://e/p");
        let mut nodes = Vec::new();
        for i in 0..200 {
            nodes.push(store.intern_iri(&format!("http://e/n{i}")));
        }
        for _ in 0..600 {
            let s = nodes[rng.gen_range(0..nodes.len())];
            let o = nodes[rng.gen_range(0..nodes.len())];
            store.insert_ids([s, p, o]);
        }
        store.materialize_inference();
        // brute-force oracle over `matching`
        let oracle = |key: CountKey, ext: Option<&ExtSet>| -> Vec<(TermId, usize)> {
            let mut m: std::collections::BTreeMap<TermId, usize> = Default::default();
            for [s, _, o] in store.matching(None, Some(p), None) {
                let (k, other) = match key {
                    CountKey::Object => (o, s),
                    CountKey::Subject => (s, o),
                };
                if ext.is_none_or(|e| e.contains(other)) {
                    *m.entry(k).or_insert(0) += 1;
                }
            }
            m.into_iter().collect()
        };
        // tiny extension → seek path; large extension → scan path
        for size in [2usize, 150] {
            let ext: ExtSet = (0..size).map(|i| nodes[i]).collect();
            for key in [CountKey::Object, CountKey::Subject] {
                assert_eq!(
                    store.edge_counts(p, key, Some(&ext)),
                    oracle(key, Some(&ext)),
                    "size {size}, key {key:?}"
                );
            }
        }
        assert_eq!(store.edge_counts(p, CountKey::Object, None), oracle(CountKey::Object, None));
        assert_eq!(store.edge_counts(p, CountKey::Subject, None), oracle(CountKey::Subject, None));
    }

    /// The scan definitions of the class and property sets the seek-based
    /// [`Store::classes`] and [`Store::properties`] replaced, kept as their
    /// reference.
    fn classes_by_scan(store: &Store) -> ExtSet {
        let wk = store.wk;
        let mut out = BTreeSet::new();
        for [_, _, c] in store.matching(None, Some(wk.rdf_type), None) {
            if c != wk.rdfs_class && c != wk.rdf_property {
                out.insert(c);
            }
        }
        for [s, _, _] in store.matching(None, Some(wk.rdf_type), Some(wk.rdfs_class)) {
            out.insert(s);
        }
        for [s, _, o] in store.matching(None, Some(wk.rdfs_subclassof), None) {
            out.insert(s);
            out.insert(o);
        }
        out.remove(&wk.rdfs_class);
        out.remove(&wk.rdf_property);
        out.into_iter().collect()
    }

    fn properties_by_scan(store: &Store) -> ExtSet {
        let wk = store.wk;
        let schema =
            [wk.rdf_type, wk.rdfs_subclassof, wk.rdfs_subpropertyof, wk.rdfs_domain, wk.rdfs_range];
        let mut out = BTreeSet::new();
        for [_, p, _] in store.iter_explicit() {
            if !schema.contains(&p) {
                out.insert(p);
            }
        }
        for [s, _, _] in store.matching(None, Some(wk.rdf_type), Some(wk.rdf_property)) {
            out.insert(s);
        }
        for [s, _, o] in store.matching(None, Some(wk.rdfs_subpropertyof), None) {
            out.insert(s);
            out.insert(o);
        }
        out.into_iter().collect()
    }

    /// `run_len` equals `matching().count()` for all eight pattern shapes —
    /// every shape of a sample of stored triples, and of random ids, most of
    /// them absent — and the class and property sets equal their scan
    /// definitions.
    fn assert_counts_exact(store: &Store, rng: &mut rdfa_prng::StdRng, what: &str) {
        let stored: Vec<IdTriple> = store.matching(None, None, None).collect();
        let space = store.term_count() as u32 + 2;
        let mut samples: Vec<IdTriple> = stored.iter().step_by(stored.len() / 100 + 1).copied().collect();
        samples.extend((0..60).map(|_| [0; 3].map(|_: u8| TermId(rng.gen_range(0..space)))));
        assert_eq!(store.run_len(None, None, None), stored.len(), "{what}: all");
        for t in samples {
            for mask in 1..8u32 {
                let part = |i: usize| (mask & (1 << i) != 0).then_some(t[i]);
                let (s, p, o) = (part(0), part(1), part(2));
                assert_eq!(
                    store.run_len(s, p, o),
                    store.matching(s, p, o).count(),
                    "{what}: ({s:?}, {p:?}, {o:?})"
                );
            }
        }
        assert_eq!(store.classes(), classes_by_scan(store), "{what}: classes");
        assert_eq!(store.properties(), properties_by_scan(store), "{what}: properties");
    }

    /// Property: over random stores with a class and property hierarchy,
    /// run lengths and the schema sets are exact in memory and over
    /// reopened segments carrying overlay adds and tombstones — among them
    /// one class's whole explicit instance run and one predicate's whole
    /// base run, so seeks land on deleted heads.
    #[test]
    fn run_len_and_schema_are_exact_on_both_backings() {
        use crate::persist::{recover, FsyncPolicy, PersistConfig};
        use rdfa_prng::StdRng;
        for case in 0u64..6 {
            let mut rng = StdRng::seed_from_u64(0x4a11_0000 + case);
            let mut mem = Store::new();
            let wk = mem.well_known();
            let mut iris = |name: &str, n: usize| -> Vec<TermId> {
                (0..n).map(|i| mem.intern_iri(&format!("http://e/{name}{i}"))).collect()
            };
            let (classes, props) = (iris("C", 8), iris("p", 5));
            let n_entities = [40usize, 600, 2500][case as usize % 3];
            let entities: Vec<TermId> =
                (0..n_entities).map(|i| mem.intern_iri(&format!("http://e/e{i}"))).collect();
            for i in 1..classes.len() {
                if rng.gen_bool(0.6) {
                    mem.insert_ids([classes[i], wk.rdfs_subclassof, classes[rng.gen_range(0..i)]]);
                }
            }
            mem.insert_ids([classes[7], wk.rdf_type, wk.rdfs_class]);
            mem.insert_ids([props[1], wk.rdfs_subpropertyof, props[0]]);
            mem.insert_ids([props[4], wk.rdf_type, wk.rdf_property]);
            for &e in &entities {
                mem.insert_ids([e, wk.rdf_type, classes[rng.gen_range(0..7usize)]]);
                for &p in &props[..4] {
                    for _ in 0..rng.gen_range(0..3) {
                        let o = entities[rng.gen_range(0..entities.len())];
                        mem.insert_ids([e, p, o]);
                    }
                }
            }
            mem.materialize_inference();
            assert_counts_exact(&mem, &mut rng, &format!("case {case} in memory"));

            let dir = std::env::temp_dir().join(format!("rdfa-runlen-{}-{case}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let config = || PersistConfig { fsync: FsyncPolicy::Never, ..PersistConfig::default() };
            // the journal checkpoints `mem` as it is, ids included
            let (_, journal, _) = recover(&dir, config()).unwrap();
            journal.checkpoint(|| &mem).unwrap();
            drop(journal);
            let (mut seg, _journal, _recovery) = recover(&dir, config()).unwrap();
            assert!(seg.segment_stats().segments > 0, "case {case}: segment-backed");
            assert_counts_exact(&seg, &mut rng, &format!("case {case} segments"));

            // overlay: one class's explicit instances and one predicate's
            // whole run tombstoned, random removes, and fresh adds
            let gone_class = classes[rng.gen_range(0..7usize)];
            let gone_prop = props[rng.gen_range(0..4usize)];
            let mut dead: Vec<IdTriple> =
                seg.matching_explicit(None, Some(wk.rdf_type), Some(gone_class)).collect();
            dead.extend(seg.matching_explicit(None, Some(gone_prop), None));
            dead.extend(seg.iter_explicit().filter(|_| rng.gen_bool(0.05)));
            for t in dead {
                seg.remove_ids(t);
            }
            for _ in 0..n_entities / 4 {
                let e = entities[rng.gen_range(0..n_entities)];
                let o = entities[rng.gen_range(0..n_entities)];
                seg.insert_ids([e, props[rng.gen_range(0..4usize)], o]);
                seg.insert_ids([e, wk.rdf_type, classes[rng.gen_range(0..7usize)]]);
            }
            assert!(seg.segment_stats().overlay_dels > 0 && seg.segment_stats().overlay_adds > 0);
            assert_counts_exact(&seg, &mut rng, &format!("case {case} segments + overlay, stale closure"));
            seg.refresh_inference();
            assert_counts_exact(&seg, &mut rng, &format!("case {case} segments + overlay"));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn remove_marks_dirty_and_removes() {
        let mut store = products_store();
        let laptop1 = iri(&store, "laptop1");
        let price = iri(&store, "price");
        let t = store
            .matching_explicit(Some(laptop1), Some(price), None)
            .next()
            .unwrap();
        assert!(store.remove_ids(t));
        assert!(store.is_dirty());
        store.materialize_inference();
        assert_eq!(store.matching(Some(laptop1), Some(price), None).count(), 0);
    }
}
