//! Transition-marker computation — the algorithms of §5.4 that build the
//! left frame of the GUI (Fig 5.4, Fig 5.5).
//!
//! The per-state cost is the class counts — one pass of the edge-count
//! kernel over `rdf:type` — and one unit of work per maximal property (the
//! facet's value counts + subproperty subtree). [`class_markers_opts`] and
//! [`property_facets_opts`] build the trees in a plain loop and sort the
//! results by display name ([`Store::sort_by_display`]). [`FacetOptions`]
//! carries a deadline and a cancellation token, enforced by one
//! [`LimitGuard`] probed before the class counts, before every maximal
//! class, and before every property unit (and every subproperty inside it);
//! expiry or cancellation surfaces as a [`FacetError`].

use crate::ops::{joins_path, joins_with_counts};
use crate::state::PathStep;
use crate::FacetError;
use rdfa_exec::{CancelFlag, EvalLimits, LimitGuard};
use rdfa_store::{CountKey, ExtSet, Store, TermId};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Deadline and cancellation for one marker computation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FacetOptions {
    /// Wall-clock deadline for one marker computation.
    pub deadline: Option<Duration>,
    /// External cancellation token. `None` means the computation cannot be
    /// cancelled.
    pub cancel: Option<CancelFlag>,
}

impl FacetOptions {
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
/// guarantee). No deadline — see [`class_markers_opts`].
pub fn class_markers(store: &Store, ext: &ExtSet) -> Vec<ClassMarker> {
    class_markers_opts(store, ext, FacetOptions::default()).expect("no deadline configured")
}

/// [`class_markers`] with deadline/cancellation options. The per-class
/// counts come from the one edge-count kernel over `rdf:type`
/// ([`Store::edge_counts`]), which seeks per extension element or scans
/// the type run once, whichever [`Store::prefer_seek`] picks; the tree is
/// then built from them. The guard is probed before counting and before
/// each maximal class.
pub fn class_markers_opts(
    store: &Store,
    ext: &ExtSet,
    opts: FacetOptions,
) -> Result<Vec<ClassMarker>, FacetError> {
    let guard = opts.guard();
    guard.probe()?;
    let mut dense = ext.clone();
    dense.densify(store.term_count());
    let counts: BTreeMap<TermId, usize> = store
        .edge_counts(store.well_known().rdf_type, CountKey::Object, Some(&dense))
        .into_iter()
        .collect();
    markers_from_counts(store, &counts, &guard)
}

/// Build the class-marker tree from per-class instance counts
/// (`counts[c] = |instances(c) ∩ ext|`): the hierarchy walk, zero-count
/// pruning and display-name ordering.
fn markers_from_counts(
    store: &Store,
    counts: &BTreeMap<TermId, usize>,
    guard: &LimitGuard,
) -> Result<Vec<ClassMarker>, FacetError> {
    fn build(
        store: &Store,
        counts: &BTreeMap<TermId, usize>,
        class: TermId,
        seen: &mut BTreeSet<TermId>,
    ) -> Option<ClassMarker> {
        if !seen.insert(class) {
            return None; // cycle guard
        }
        let count = counts.get(&class).copied().unwrap_or(0);
        let mut children: Vec<ClassMarker> = Vec::new();
        for sub in store.direct_subclasses(class).iter() {
            if let Some(m) = build(store, counts, sub, seen) {
                children.push(m);
            }
        }
        store.sort_by_display(&mut children, |m| m.class);
        seen.remove(&class);
        if count == 0 {
            return None;
        }
        Some(ClassMarker { class, count, children })
    }
    let mut out = Vec::new();
    for root in store.maximal_classes() {
        guard.probe()?;
        out.extend(build(store, counts, root, &mut BTreeSet::new()));
    }
    store.sort_by_display(&mut out, |m| m.class);
    Ok(out)
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
/// counts (Fig 5.4 c) and the subproperty hierarchy. No deadline — see
/// [`property_facets_opts`].
pub fn property_facets(store: &Store, ext: &ExtSet) -> Vec<PropertyFacet> {
    property_facets_opts(store, ext, FacetOptions::default()).expect("no deadline configured")
}

/// [`property_facets`] with deadline/cancellation options; one unit of work
/// per maximal property.
pub fn property_facets_opts(
    store: &Store,
    ext: &ExtSet,
    opts: FacetOptions,
) -> Result<Vec<PropertyFacet>, FacetError> {
    let guard = opts.guard();
    let mut dense = ext.clone();
    dense.densify(store.term_count());
    let mut out = Vec::new();
    for root in store.maximal_properties() {
        out.extend(build_property_facet(store, &dense, root, &mut BTreeSet::new(), &guard)?);
    }
    store.sort_by_display(&mut out, |f| f.property);
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
    store.sort_by_display(&mut values, |v| v.0);
    let mut children: Vec<PropertyFacet> = Vec::new();
    for sub in store.direct_subproperties(property).iter() {
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
        let specific = classes.iter().find(|&c| {
            let subs = store.subclass_closure(c);
            classes.iter().all(|d| d == c || !subs.contains(d))
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
        store.sort_by_display(members, |v| v.0);
    }
    store.sort_by_display(&mut groups, |g| g.0);
    store.sort_by_display(&mut ungrouped, |v| v.0);
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
        .iter()
        .filter_map(|p| {
            let step = PathStep::inv(p);
            let mut values = joins_with_counts(store, &dense, step);
            if values.is_empty() {
                return None;
            }
            store.sort_by_display(&mut values, |v| v.0);
            Some(PropertyFacet { property: p, values, children: Vec::new() })
        })
        .collect();
    store.sort_by_display(&mut out, |f| f.property);
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
        store.sort_by_display(&mut out, |v| v.0);
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
    store.sort_by_display(&mut out, |v| v.0);
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
        let names: Vec<_> =
            product.children.iter().map(|c| s.term(c.class).display_str()).collect();
        assert_eq!(names, ["HDType", "Laptop"]);
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

    /// The option-taking entry points agree with the plain ones.
    #[test]
    fn opts_path_matches_plain() {
        let s = store();
        let ext = all(&s);
        let classes = class_markers(&s, &ext);
        let facets = property_facets(&s, &ext);
        let opts = FacetOptions { cancel: Some(CancelFlag::new()), ..FacetOptions::default() };
        assert_eq!(class_markers_opts(&s, &ext, opts.clone()).unwrap(), classes);
        assert_eq!(property_facets_opts(&s, &ext, opts).unwrap(), facets);
    }

    /// An already-expired deadline aborts with an error.
    #[test]
    fn deadline_expiry_errors() {
        let s = store();
        let ext = all(&s);
        let opts = FacetOptions { deadline: Some(Duration::ZERO), ..FacetOptions::default() };
        let err = class_markers_opts(&s, &ext, opts.clone()).unwrap_err();
        assert!(err.message.contains("deadline"), "{err}");
        assert!(property_facets_opts(&s, &ext, opts).is_err());
    }

    /// A raised cancellation token aborts marker computation.
    #[test]
    fn cancellation_aborts_marker_computation() {
        let s = store();
        let ext = all(&s);
        let flag = CancelFlag::new();
        flag.cancel();
        let opts = FacetOptions { cancel: Some(flag), ..FacetOptions::default() };
        let err = class_markers_opts(&s, &ext, opts.clone()).unwrap_err();
        assert!(err.message.contains("cancelled"), "{err}");
        assert!(property_facets_opts(&s, &ext, opts).is_err());
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
