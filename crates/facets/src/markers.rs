//! Transition-marker computation — the algorithms of §5.4 that build the
//! left frame of the GUI (Fig 5.4, Fig 5.5).
//!
//! The per-state cost is dominated by one independent unit of work per
//! maximal class (the class-marker subtree) and per maximal property (the
//! facet's value counts + subproperty subtree). [`class_markers_opts`] and
//! [`property_facets_opts`] fan those units out on the shared morsel
//! scheduler ([`rdfa_exec::run_morsels`]) — work-stealing over a shared
//! unit index, results merged back **by unit slot** and then sorted by
//! display name, so output is byte-identical to the sequential computation
//! regardless of thread count. [`FacetOptions`] carries the thread count,
//! a deadline and a cancellation token; the deadline and the token are
//! enforced by one [`LimitGuard`] that every worker probes, and expiry or
//! cancellation aborts all workers and surfaces as a [`FacetError`].

use crate::ops::{joins_path, joins_with_counts};
use crate::state::PathStep;
use crate::FacetError;
use rdfa_exec::{run_morsels, workers_for, CancelFlag, EvalLimits, LimitGuard};
use rdfa_store::{ExtSet, Store, TermId};
use std::collections::BTreeSet;
use std::time::Duration;

/// Below this many triples the auto thread mode stays sequential — spawning
/// threads costs more than the whole computation.
const PAR_MIN_TRIPLES: usize = 4096;

/// Tuning knobs for marker computation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FacetOptions {
    /// Worker threads; `0` (the default) is auto, which stays sequential on
    /// small stores.
    pub threads: usize,
    /// Wall-clock deadline for one marker computation.
    pub deadline: Option<Duration>,
    /// External cancellation token. `None` means the computation cannot be
    /// cancelled.
    pub cancel: Option<CancelFlag>,
}

impl FacetOptions {
    /// Options requesting `threads` workers, with no deadline or token.
    pub fn with_threads(threads: usize) -> Self {
        FacetOptions { threads, ..Self::default() }
    }

    /// These options with any deadline removed (for the infallible APIs).
    pub fn without_deadline(&self) -> FacetOptions {
        FacetOptions { deadline: None, ..self.clone() }
    }

    /// A guard enforcing the deadline and the cancellation token, its
    /// clock started now.
    fn guard(&self) -> LimitGuard {
        LimitGuard::new(EvalLimits {
            deadline: self.deadline,
            cancel: self.cancel.clone(),
            ..EvalLimits::unlimited()
        })
    }

    /// Worker count for `n_units` independent units over a store of
    /// `store_len` triples. Auto mode (`threads == 0`) stays sequential on
    /// small stores; an explicit count is honored up to the machine's
    /// parallelism (tests force the parallel path on tiny fixtures this
    /// way).
    fn unit_workers(&self, n_units: usize, store_len: usize) -> usize {
        if self.threads == 0 && store_len < PAR_MIN_TRIPLES {
            return 1;
        }
        workers_for(self.threads, n_units.max(1), 1)
    }
}

/// Run `n` independent units on the shared morsel scheduler (one unit per
/// morsel) and return their results in unit order (deterministic merge).
/// The first failing unit (lowest index) stops all workers and its error is
/// returned. The guard is probed before every unit.
fn run_units<T, F>(
    n: usize,
    workers: usize,
    guard: &LimitGuard,
    f: F,
) -> Result<Vec<Option<T>>, FacetError>
where
    T: Send,
    F: Fn(usize) -> Result<Option<T>, FacetError> + Sync,
{
    run_morsels(workers, n, |_| (), |_: &mut (), i: usize| {
        guard.probe()?;
        f(i)
    })
}

/// A class-based transition marker: a class, its instance count restricted
/// to the current extension, and its direct subclasses (the hierarchical
/// layout of the reflexive-transitive reduction, §5.3.2).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassMarker {
    pub class: TermId,
    pub count: usize,
    pub children: Vec<ClassMarker>,
}

/// Compute the class-marker tree for an extension: maximal classes at the
/// top, subclasses nested, **zero-count classes pruned** (the never-empty
/// guarantee). Sequential, no deadline — see [`class_markers_opts`].
pub fn class_markers(store: &Store, ext: &ExtSet) -> Vec<ClassMarker> {
    class_markers_opts(store, ext, FacetOptions::with_threads(1)).expect("no deadline configured")
}

/// [`class_markers`] with thread/deadline options; one unit of work per
/// maximal class.
pub fn class_markers_opts(
    store: &Store,
    ext: &ExtSet,
    opts: FacetOptions,
) -> Result<Vec<ClassMarker>, FacetError> {
    let guard = opts.guard();
    let roots = store.maximal_classes();
    let workers = opts.unit_workers(roots.len(), store.len());
    let mut dense = ext.clone();
    dense.densify(store.term_count());
    let slots = run_units(roots.len(), workers, &guard, |i| {
        build_class_marker(store, &dense, roots[i], &mut BTreeSet::new(), &guard)
    })?;
    let mut out: Vec<ClassMarker> = slots.into_iter().flatten().collect();
    out.sort_by_key(|m| store.term(m.class).display_name());
    Ok(out)
}

/// Build the class-marker tree from **precomputed** per-class instance
/// counts instead of scanning postings — same hierarchy walk, pruning, and
/// display-name ordering as [`class_markers`], so the output is identical
/// whenever `counts[c] = |instances(c) ∩ ext|`. This is the serving path
/// for a materialized `GROUP BY rdf:type` aggregate view (`rdfa-views`),
/// whose per-group base-row counts are exactly the per-class instance
/// counts of the full extension.
pub fn class_markers_from_counts(
    store: &Store,
    counts: &std::collections::BTreeMap<TermId, usize>,
) -> Vec<ClassMarker> {
    fn build(
        store: &Store,
        counts: &std::collections::BTreeMap<TermId, usize>,
        class: TermId,
        seen: &mut BTreeSet<TermId>,
    ) -> Option<ClassMarker> {
        if !seen.insert(class) {
            return None; // cycle guard
        }
        let count = counts.get(&class).copied().unwrap_or(0);
        let mut children: Vec<ClassMarker> = Vec::new();
        for sub in store.direct_subclasses(class) {
            if let Some(m) = build(store, counts, sub, seen) {
                children.push(m);
            }
        }
        children.sort_by_key(|m| store.term(m.class).display_name());
        seen.remove(&class);
        if count == 0 {
            return None;
        }
        Some(ClassMarker { class, count, children })
    }
    let mut out: Vec<ClassMarker> = store
        .maximal_classes()
        .into_iter()
        .filter_map(|root| build(store, counts, root, &mut BTreeSet::new()))
        .collect();
    out.sort_by_key(|m| store.term(m.class).display_name());
    out
}

fn build_class_marker(
    store: &Store,
    ext: &ExtSet,
    class: TermId,
    seen: &mut BTreeSet<TermId>,
    guard: &LimitGuard,
) -> Result<Option<ClassMarker>, FacetError> {
    guard.probe()?;
    if !seen.insert(class) {
        return Ok(None); // cycle guard
    }
    // merge-count the class's sorted instance run against the extension
    let wk = store.well_known();
    let count = store
        .subjects_for_po(wk.rdf_type, class)
        .filter(|&s| ext.contains(s))
        .count();
    let mut children: Vec<ClassMarker> = Vec::new();
    for sub in store.direct_subclasses(class) {
        if let Some(m) = build_class_marker(store, ext, sub, seen, guard)? {
            children.push(m);
        }
    }
    children.sort_by_key(|m| store.term(m.class).display_name());
    seen.remove(&class);
    if count == 0 {
        return Ok(None);
    }
    Ok(Some(ClassMarker { class, count, children }))
}

/// A property facet: the property, its value markers (value, count), and
/// nested subproperties.
#[derive(Debug, Clone, PartialEq)]
pub struct PropertyFacet {
    pub property: TermId,
    /// Value markers: `(value, |Restrict(E, p : v)|)`, non-zero only.
    pub values: Vec<(TermId, usize)>,
    /// Direct subproperties with their own facets.
    pub children: Vec<PropertyFacet>,
}

impl PropertyFacet {
    /// Total number of distinct values offered.
    pub fn value_count(&self) -> usize {
        self.values.len()
    }
}

/// Compute the property facets for an extension: one facet per maximal
/// property applicable to `E` (i.e. `Joins(E, p) ≠ ∅`), with per-value
/// counts (Fig 5.4 c) and the subproperty hierarchy. Sequential — see
/// [`property_facets_opts`].
pub fn property_facets(store: &Store, ext: &ExtSet) -> Vec<PropertyFacet> {
    property_facets_opts(store, ext, FacetOptions::with_threads(1))
        .expect("no deadline configured")
}

/// [`property_facets`] with thread/deadline options; one unit of work per
/// maximal property.
pub fn property_facets_opts(
    store: &Store,
    ext: &ExtSet,
    opts: FacetOptions,
) -> Result<Vec<PropertyFacet>, FacetError> {
    let guard = opts.guard();
    let roots = store.maximal_properties();
    let workers = opts.unit_workers(roots.len(), store.len());
    let mut dense = ext.clone();
    dense.densify(store.term_count());
    let slots = run_units(roots.len(), workers, &guard, |i| {
        build_property_facet(store, &dense, roots[i], &mut BTreeSet::new(), &guard)
    })?;
    let mut out: Vec<PropertyFacet> = slots.into_iter().flatten().collect();
    out.sort_by_key(|f| store.term(f.property).display_name());
    Ok(out)
}

fn build_property_facet(
    store: &Store,
    ext: &ExtSet,
    property: TermId,
    seen: &mut BTreeSet<TermId>,
    guard: &LimitGuard,
) -> Result<Option<PropertyFacet>, FacetError> {
    guard.probe()?;
    if !seen.insert(property) {
        return Ok(None);
    }
    let step = PathStep::fwd(property);
    let mut values = joins_with_counts(store, ext, step);
    values.sort_by(|a, b| {
        store
            .term(a.0)
            .display_name()
            .cmp(&store.term(b.0).display_name())
    });
    let mut children: Vec<PropertyFacet> = Vec::new();
    for sub in store.direct_subproperties(property) {
        if let Some(f) = build_property_facet(store, ext, sub, seen, guard)? {
            children.push(f);
        }
    }
    seen.remove(&property);
    if values.is_empty() && children.is_empty() {
        return Ok(None);
    }
    Ok(Some(PropertyFacet { property, values, children }))
}

/// One class group of a grouped facet: `(class, total count, members)`.
pub type ValueGroup = (TermId, usize, Vec<(TermId, usize)>);

/// Value markers of one facet grouped under the values' classes —
/// Fig 5.4 (d): under `by hardDrive`, the drives appear nested below their
/// types (`SSD (2)` → `SSD1 (1)`, `SSD2 (1)`; `NVMe (1)` → `NVMe1 (1)`).
/// Values without a class are listed at the top level.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedValues {
    /// Class groups: `(class, members' total count, members)`.
    pub groups: Vec<ValueGroup>,
    /// Values with no (non-trivial) class.
    pub ungrouped: Vec<(TermId, usize)>,
}

/// Group a facet's value markers by the values' most specific classes
/// (Fig 5.4 d). Counts are `|Restrict(E, p : v)|` as in the flat facet.
pub fn grouped_values(store: &Store, ext: &ExtSet, property: TermId) -> GroupedValues {
    let step = PathStep::fwd(property);
    let values = joins_with_counts(store, ext, step);
    let mut groups: Vec<ValueGroup> = Vec::new();
    let mut ungrouped = Vec::new();
    for (v, n) in values {
        // most specific class: an entailed class with no entailed subclass
        // among the value's classes
        let classes = store.classes_of(v);
        let specific = classes
            .iter()
            .copied()
            .find(|&c| {
                let subs = store.subclass_closure(c);
                classes.iter().all(|&d| d == c || !subs.contains(&d))
            });
        match specific {
            Some(c) => {
                if let Some(slot) = groups.iter_mut().find(|(gc, _, _)| *gc == c) {
                    slot.1 += n;
                    slot.2.push((v, n));
                } else {
                    groups.push((c, n, vec![(v, n)]));
                }
            }
            None => ungrouped.push((v, n)),
        }
    }
    for (_, _, members) in &mut groups {
        members.sort_by(|a, b| {
            store.term(a.0).display_name().cmp(&store.term(b.0).display_name())
        });
    }
    groups.sort_by_key(|a| store.term(a.0).display_name());
    ungrouped.sort_by_key(|a| store.term(a.0).display_name());
    GroupedValues { groups, ungrouped }
}

/// Facets over **inverse** properties (`Pr⁻¹` of §5.3.1): for each property
/// with values *pointing at* the extension, the subjects linking in, with
/// counts. These power the entity-type switch (e.g. from companies to the
/// laptops they manufacture).
pub fn inverse_property_facets(store: &Store, ext: &ExtSet) -> Vec<PropertyFacet> {
    let mut dense = ext.clone();
    dense.densify(store.term_count());
    let mut out: Vec<PropertyFacet> = store
        .properties()
        .into_iter()
        .filter_map(|p| {
            let step = PathStep::inv(p);
            let mut values = joins_with_counts(store, &dense, step);
            if values.is_empty() {
                return None;
            }
            values.sort_by(|a, b| {
                store.term(a.0).display_name().cmp(&store.term(b.0).display_name())
            });
            Some(PropertyFacet { property: p, values, children: Vec::new() })
        })
        .collect();
    out.sort_by_key(|f| store.term(f.property).display_name());
    out
}

/// Path-expansion markers (Fig 5.5): the terminal marker set `M_k` of a
/// property path, with the count of extension elements reaching each value.
pub fn expand_path(
    store: &Store,
    ext: &ExtSet,
    path: &[PathStep],
) -> Vec<(TermId, usize)> {
    if path.len() == 1 {
        // single-step facet: one pass suffices
        let mut out = joins_with_counts(store, ext, path[0]);
        out.sort_by(|a, b| {
            store
                .term(a.0)
                .display_name()
                .cmp(&store.term(b.0).display_name())
        });
        return out;
    }
    let terminals = joins_path(store, ext, path);
    let mut out: Vec<(TermId, usize)> = terminals
        .iter()
        .map(|v| {
            let vset: ExtSet = [v].into_iter().collect();
            // the path is non-empty here, so restrict_path cannot fail
            let reachers = crate::ops::restrict_path(store, ext, path, &vset)
                .map_or(0, |e| e.len());
            (v, reachers)
        })
        .filter(|&(_, n)| n > 0)
        .collect();
    out.sort_by(|a, b| {
        store
            .term(a.0)
            .display_name()
            .cmp(&store.term(b.0).display_name())
    });
    out
}

/// Render a marker tree as indented text (used by the examples to reproduce
/// Fig 5.4).
pub fn render_class_markers(store: &Store, markers: &[ClassMarker], indent: usize) -> String {
    let mut out = String::new();
    for m in markers {
        out.push_str(&" ".repeat(indent * 2));
        out.push_str(&format!(
            "{} ({})\n",
            store.term(m.class).display_name(),
            m.count
        ));
        out.push_str(&render_class_markers(store, &m.children, indent + 1));
    }
    out
}

/// Render a grouped-values facet as indented text (Fig 5.4 d).
pub fn render_grouped_values(store: &Store, property: TermId, gv: &GroupedValues) -> String {
    let total: usize = gv
        .groups
        .iter()
        .map(|(_, n, _)| n)
        .chain(gv.ungrouped.iter().map(|(_, n)| n))
        .sum();
    let mut out = format!("by {} ({total})\n", store.term(property).display_name());
    for (class, n, members) in &gv.groups {
        out.push_str(&format!("  {} ({n})\n", store.term(*class).display_name()));
        for (v, m) in members {
            out.push_str(&format!("    {} ({m})\n", store.term(*v).display_name()));
        }
    }
    for (v, m) in &gv.ungrouped {
        out.push_str(&format!("  {} ({m})\n", store.term(*v).display_name()));
    }
    out
}

/// Render property facets as indented text (Fig 5.4 c).
pub fn render_property_facets(store: &Store, facets: &[PropertyFacet], indent: usize) -> String {
    let mut out = String::new();
    for f in facets {
        out.push_str(&" ".repeat(indent * 2));
        out.push_str(&format!(
            "by {} ({})\n",
            store.term(f.property).display_name(),
            f.value_count()
        ));
        for (v, n) in &f.values {
            out.push_str(&" ".repeat((indent + 1) * 2));
            out.push_str(&format!("{} ({})\n", store.term(*v).display_name(), n));
        }
        out.push_str(&render_property_facets(store, &f.children, indent + 1));
    }
    out
}

/// The seed `BTreeSet` marker computation, kept verbatim as the baseline for
/// differential tests and `facet_bench` (built on [`crate::ops::reference`]).
pub mod reference {
    use super::{ClassMarker, PropertyFacet};
    use crate::ops::reference::joins_with_counts;
    use crate::state::PathStep;
    use rdfa_store::{Store, TermId};
    use std::collections::BTreeSet;

    /// Seed class-marker computation: per-root recursion with
    /// `instances().intersection(ext)` counting.
    pub fn class_markers(store: &Store, ext: &BTreeSet<TermId>) -> Vec<ClassMarker> {
        let mut roots: Vec<ClassMarker> = store
            .maximal_classes()
            .into_iter()
            .filter_map(|c| build_class_marker(store, ext, c, &mut BTreeSet::new()))
            .collect();
        roots.sort_by_key(|m| store.term(m.class).display_name());
        roots
    }

    fn build_class_marker(
        store: &Store,
        ext: &BTreeSet<TermId>,
        class: TermId,
        seen: &mut BTreeSet<TermId>,
    ) -> Option<ClassMarker> {
        if !seen.insert(class) {
            return None;
        }
        let count = store.instances(class).intersection(ext).count();
        let mut children: Vec<ClassMarker> = store
            .direct_subclasses(class)
            .into_iter()
            .filter_map(|sub| build_class_marker(store, ext, sub, seen))
            .collect();
        children.sort_by_key(|m| store.term(m.class).display_name());
        seen.remove(&class);
        if count == 0 {
            return None;
        }
        Some(ClassMarker { class, count, children })
    }

    /// Seed property-facet computation over `BTreeMap` counting.
    pub fn property_facets(store: &Store, ext: &BTreeSet<TermId>) -> Vec<PropertyFacet> {
        let mut out: Vec<PropertyFacet> = store
            .maximal_properties()
            .into_iter()
            .filter_map(|p| build_property_facet(store, ext, p, &mut BTreeSet::new()))
            .collect();
        out.sort_by_key(|f| store.term(f.property).display_name());
        out
    }

    fn build_property_facet(
        store: &Store,
        ext: &BTreeSet<TermId>,
        property: TermId,
        seen: &mut BTreeSet<TermId>,
    ) -> Option<PropertyFacet> {
        if !seen.insert(property) {
            return None;
        }
        let step = PathStep::fwd(property);
        let mut values: Vec<(TermId, usize)> =
            joins_with_counts(store, ext, step).into_iter().collect();
        values.sort_by(|a, b| {
            store
                .term(a.0)
                .display_name()
                .cmp(&store.term(b.0).display_name())
        });
        let children: Vec<PropertyFacet> = store
            .direct_subproperties(property)
            .into_iter()
            .filter_map(|sub| build_property_facet(store, ext, sub, seen))
            .collect();
        seen.remove(&property);
        if values.is_empty() && children.is_empty() {
            return None;
        }
        Some(PropertyFacet { property, values, children })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const EX: &str = "http://e/";

    /// The running-example instance data of Fig 5.3 (abridged).
    fn store() -> Store {
        let mut s = Store::new();
        s.load_turtle(&format!(
            r#"@prefix ex: <{EX}> .
               @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
               ex:Laptop rdfs:subClassOf ex:Product .
               ex:HDType rdfs:subClassOf ex:Product .
               ex:SSD rdfs:subClassOf ex:HDType .
               ex:NVMe rdfs:subClassOf ex:HDType .
               ex:l1 a ex:Laptop ; ex:manufacturer ex:DELL ; ex:hardDrive ex:ssd1 ; ex:usb 2 .
               ex:l2 a ex:Laptop ; ex:manufacturer ex:DELL ; ex:hardDrive ex:ssd2 ; ex:usb 2 .
               ex:l3 a ex:Laptop ; ex:manufacturer ex:Lenovo ; ex:hardDrive ex:nvme1 ; ex:usb 4 .
               ex:ssd1 a ex:SSD . ex:ssd2 a ex:SSD . ex:nvme1 a ex:NVMe .
               ex:DELL ex:origin ex:USA . ex:Lenovo ex:origin ex:China .
            "#
        ))
        .unwrap();
        s
    }

    fn id(s: &Store, local: &str) -> TermId {
        s.lookup_iri(&format!("{EX}{local}")).unwrap()
    }

    fn all(s: &Store) -> ExtSet {
        ExtSet::from_sorted_iter(s.iter_explicit().map(|[x, _, _]| x))
    }

    fn laptops(s: &Store) -> ExtSet {
        s.instances_set(id(s, "Laptop"))
    }

    #[test]
    fn class_tree_matches_fig_5_4() {
        let s = store();
        let markers = class_markers(&s, &all(&s));
        let product = markers.iter().find(|m| m.class == id(&s, "Product")).unwrap();
        assert_eq!(product.count, 6); // 3 laptops + 3 drives
        let names: Vec<String> = product
            .children
            .iter()
            .map(|c| s.term(c.class).display_name())
            .collect();
        assert_eq!(names, vec!["HDType", "Laptop"]);
        let hdtype = &product.children[0];
        assert_eq!(hdtype.count, 3);
        assert_eq!(hdtype.children.len(), 2); // SSD (2), NVMe (1)
    }

    #[test]
    fn zero_count_classes_pruned() {
        let s = store();
        let markers = class_markers(&s, &laptops(&s));
        // within the laptop extension, HDType has no instances
        let product = markers.iter().find(|m| m.class == id(&s, "Product")).unwrap();
        assert!(product.children.iter().all(|c| c.class != id(&s, "HDType")));
    }

    #[test]
    fn property_facets_with_counts() {
        let s = store();
        let facets = property_facets(&s, &laptops(&s));
        let man = facets
            .iter()
            .find(|f| f.property == id(&s, "manufacturer"))
            .unwrap();
        assert_eq!(man.values.len(), 2);
        let dell = man.values.iter().find(|(v, _)| *v == id(&s, "DELL")).unwrap();
        assert_eq!(dell.1, 2);
        // usb facet counts: 2→2 laptops, 4→1 laptop
        let usb = facets.iter().find(|f| f.property == id(&s, "usb")).unwrap();
        assert_eq!(usb.values.iter().map(|(_, n)| n).sum::<usize>(), 3);
    }

    #[test]
    fn never_empty_guarantee() {
        let s = store();
        for f in property_facets(&s, &laptops(&s)) {
            for (_, n) in &f.values {
                assert!(*n > 0);
            }
        }
    }

    /// Parallel computation (explicit thread count forces the threaded path
    /// even on this tiny fixture) yields byte-identical output, and both
    /// agree with the seed reference implementation.
    #[test]
    fn parallel_matches_sequential_and_reference() {
        let s = store();
        let ext = all(&s);
        let ext_ref = ext.to_btree_set();
        let seq_c = class_markers(&s, &ext);
        let seq_f = property_facets(&s, &ext);
        for threads in [2, 4, 8] {
            let opts = FacetOptions::with_threads(threads);
            assert_eq!(
                class_markers_opts(&s, &ext, opts.clone()).unwrap(),
                seq_c,
                "{threads} threads"
            );
            assert_eq!(property_facets_opts(&s, &ext, opts).unwrap(), seq_f, "{threads} threads");
        }
        assert_eq!(reference::class_markers(&s, &ext_ref), seq_c);
        assert_eq!(reference::property_facets(&s, &ext_ref), seq_f);
    }

    /// An already-expired deadline aborts with an error, sequentially and in
    /// parallel.
    #[test]
    fn deadline_expiry_errors() {
        let s = store();
        let ext = all(&s);
        for threads in [1, 2, 4, 8] {
            let opts = FacetOptions {
                deadline: Some(Duration::ZERO),
                ..FacetOptions::with_threads(threads)
            };
            let err = class_markers_opts(&s, &ext, opts.clone()).unwrap_err();
            assert!(err.message.contains("deadline"), "{err}");
            assert!(property_facets_opts(&s, &ext, opts).is_err());
        }
    }

    /// A raised cancellation token aborts marker computation on both the
    /// sequential and the threaded path.
    #[test]
    fn cancellation_aborts_marker_computation() {
        let s = store();
        let ext = all(&s);
        for threads in [1, 2, 4, 8] {
            let flag = CancelFlag::new();
            flag.cancel();
            let opts = FacetOptions { cancel: Some(flag), ..FacetOptions::with_threads(threads) };
            let err = class_markers_opts(&s, &ext, opts.clone()).unwrap_err();
            assert!(err.message.contains("cancelled"), "{err}");
            assert!(property_facets_opts(&s, &ext, opts).is_err());
        }
    }

    #[test]
    fn path_expansion_markers_fig_5_5() {
        let s = store();
        let path = [PathStep::fwd(id(&s, "manufacturer")), PathStep::fwd(id(&s, "origin"))];
        let markers = expand_path(&s, &laptops(&s), &path);
        assert_eq!(markers.len(), 2);
        let usa = markers.iter().find(|(v, _)| *v == id(&s, "USA")).unwrap();
        assert_eq!(usa.1, 2); // two DELL laptops reach USA
    }

    #[test]
    fn grouped_values_match_fig_5_4_d() {
        let s = store();
        let gv = grouped_values(&s, &laptops(&s), id(&s, "hardDrive"));
        // Fig 5.4 (d): SSD group with 2 members, NVMe group with 1
        assert_eq!(gv.groups.len(), 2);
        let ssd = gv
            .groups
            .iter()
            .find(|(c, _, _)| *c == id(&s, "SSD"))
            .expect("SSD group");
        assert_eq!(ssd.1, 2);
        assert_eq!(ssd.2.len(), 2);
        let nvme = gv
            .groups
            .iter()
            .find(|(c, _, _)| *c == id(&s, "NVMe"))
            .expect("NVMe group");
        assert_eq!(nvme.1, 1);
        assert!(gv.ungrouped.is_empty());
    }

    #[test]
    fn grouped_values_handles_untyped() {
        let s = store();
        // manufacturer values DELL/Lenovo have no classes in this fixture
        let gv = grouped_values(&s, &laptops(&s), id(&s, "manufacturer"));
        assert!(gv.groups.is_empty());
        assert_eq!(gv.ungrouped.len(), 2);
    }

    #[test]
    fn inverse_facets_switch_entity_type() {
        let s = store();
        // focus on companies; the inverse manufacturer facet exposes the
        // products made by each
        let companies: ExtSet = [id(&s, "DELL"), id(&s, "Lenovo")].into_iter().collect();
        let inv = inverse_property_facets(&s, &companies);
        let man = inv
            .iter()
            .find(|f| f.property == id(&s, "manufacturer"))
            .expect("inverse manufacturer facet");
        // laptops pointing at the two companies
        assert_eq!(man.values.len(), 3);
        for &(_, n) in &man.values {
            assert!(n > 0);
        }
    }

    #[test]
    fn rendering_contains_counts() {
        let s = store();
        let text = render_class_markers(&s, &class_markers(&s, &all(&s)), 0);
        assert!(text.contains("Product (6)"), "{text}");
        assert!(text.contains("SSD (2)"), "{text}");
        let ftext = render_property_facets(&s, &property_facets(&s, &laptops(&s)), 0);
        assert!(ftext.contains("by manufacturer"), "{ftext}");
        assert!(ftext.contains("DELL (2)"), "{ftext}");
    }
}
