//! The seed `BTreeSet` facet kernels: every operator of §5.3.1 and the
//! marker computations of §5.4, by per-element probes and `BTreeMap`
//! counting. The product's merge-join kernels (`rdfa_facets::ops`,
//! `rdfa_facets::markers`) must agree with these on random graphs
//! (`tests/facet_differential.rs`), and `facet_bench` times them as the
//! before-optimization baseline.

use rdfa_facets::{ClassMarker, PathStep, PropertyFacet};
use rdfa_model::Value;
use rdfa_store::{Store, TermId};
use std::collections::BTreeSet;

/// `Restrict(E, p : v)` by per-element entailed-membership probes.
pub fn restrict_value(
    store: &Store,
    ext: &BTreeSet<TermId>,
    step: PathStep,
    v: TermId,
) -> BTreeSet<TermId> {
    ext.iter()
        .copied()
        .filter(|&e| {
            if step.inverse {
                store.contains([v, step.prop, e])
            } else {
                store.contains([e, step.prop, v])
            }
        })
        .collect()
}

/// `Restrict(E, p : vset)` by per-element edge enumeration.
pub fn restrict_value_set(
    store: &Store,
    ext: &BTreeSet<TermId>,
    step: PathStep,
    vset: &BTreeSet<TermId>,
) -> BTreeSet<TermId> {
    ext.iter()
        .copied()
        .filter(|&e| joins_step(store, e, step).any(|x| vset.contains(&x)))
        .collect()
}

/// `Restrict(E, c)` by per-element `rdf:type` probes.
pub fn restrict_class(store: &Store, ext: &BTreeSet<TermId>, c: TermId) -> BTreeSet<TermId> {
    let wk = store.well_known();
    ext.iter()
        .copied()
        .filter(|&e| store.contains([e, wk.rdf_type, c]))
        .collect()
}

/// One-step joins from a single node.
fn joins_step(store: &Store, e: TermId, step: PathStep) -> impl Iterator<Item = TermId> + '_ {
    let (s, o) = if step.inverse { (None, Some(e)) } else { (Some(e), None) };
    store
        .matching(s, Some(step.prop), o)
        .map(move |[s2, _, o2]| if step.inverse { s2 } else { o2 })
}

/// `Joins(E, p)` by per-element index probes.
pub fn joins(store: &Store, ext: &BTreeSet<TermId>, step: PathStep) -> BTreeSet<TermId> {
    let mut out = BTreeSet::new();
    for &e in ext {
        out.extend(joins_step(store, e, step));
    }
    out
}

/// `Joins(E, p)` with per-value counts via `BTreeMap` accumulation.
pub fn joins_with_counts(
    store: &Store,
    ext: &BTreeSet<TermId>,
    step: PathStep,
) -> std::collections::BTreeMap<TermId, usize> {
    let mut counts = std::collections::BTreeMap::new();
    for &e in ext {
        for v in joins_step(store, e, step) {
            *counts.entry(v).or_insert(0) += 1;
        }
    }
    counts
}

/// Path joins with a per-step frontier clone (the seed behaviour).
pub fn joins_path(
    store: &Store,
    ext: &BTreeSet<TermId>,
    path: &[PathStep],
) -> BTreeSet<TermId> {
    let mut frontier = ext.clone();
    for &step in path {
        frontier = joins(store, &frontier, step);
        if frontier.is_empty() {
            break;
        }
    }
    frontier
}

/// Back-propagating path restriction (Eq. 5.1), seed implementation.
/// Callers must pass a non-empty path.
pub fn restrict_path(
    store: &Store,
    ext: &BTreeSet<TermId>,
    path: &[PathStep],
    terminal: &BTreeSet<TermId>,
) -> BTreeSet<TermId> {
    assert!(!path.is_empty(), "restrict_path needs a non-empty path");
    let mut markers: Vec<BTreeSet<TermId>> = Vec::with_capacity(path.len());
    let mut frontier = ext.clone();
    for &step in path {
        frontier = joins(store, &frontier, step);
        markers.push(frontier.clone());
    }
    let mut restricted = terminal.clone();
    for i in (0..path.len() - 1).rev() {
        restricted = restrict_value_set(store, &markers[i], path[i + 1], &restricted);
    }
    restrict_value_set(store, ext, path[0], &restricted)
}

/// Range restriction, seed implementation.
pub fn restrict_range(
    store: &Store,
    ext: &BTreeSet<TermId>,
    path: &[PathStep],
    min: Option<&Value>,
    max: Option<&Value>,
) -> BTreeSet<TermId> {
    let in_range = |id: TermId| -> bool {
        let v = Value::from_term(store.term(id));
        let ge_min = min.is_none_or(|m| {
            matches!(
                v.compare(m),
                Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
            )
        });
        let le_max = max.is_none_or(|m| {
            matches!(
                v.compare(m),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            )
        });
        ge_min && le_max
    };
    let terminal: BTreeSet<TermId> = joins_path(store, ext, path)
        .into_iter()
        .filter(|&t| in_range(t))
        .collect();
    if terminal.is_empty() {
        return BTreeSet::new();
    }
    if path.len() == 1 {
        restrict_value_set(store, ext, path[0], &terminal)
    } else {
        restrict_path(store, ext, path, &terminal)
    }
}

/// Seed class-marker computation: per-root recursion, counting each class's
/// entailed instances that lie in `ext`.
pub fn class_markers(store: &Store, ext: &BTreeSet<TermId>) -> Vec<ClassMarker> {
    let mut roots: Vec<ClassMarker> = store
        .maximal_classes()
        .into_iter()
        .filter_map(|c| class_subtree(store, ext, c, &mut BTreeSet::new()))
        .collect();
    roots.sort_by_key(|m| store.term(m.class).display_name());
    roots
}

fn class_subtree(
    store: &Store,
    ext: &BTreeSet<TermId>,
    class: TermId,
    seen: &mut BTreeSet<TermId>,
) -> Option<ClassMarker> {
    if !seen.insert(class) {
        return None;
    }
    let count = store
        .matching(None, Some(store.well_known().rdf_type), Some(class))
        .filter(|[s, _, _]| ext.contains(s))
        .count();
    let mut children: Vec<ClassMarker> = store
        .direct_subclasses(class)
        .iter()
        .filter_map(|sub| class_subtree(store, ext, sub, seen))
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
        .iter()
        .filter_map(|sub| build_property_facet(store, ext, sub, seen))
        .collect();
    seen.remove(&property);
    if values.is_empty() && children.is_empty() {
        return None;
    }
    Some(PropertyFacet { property, values, children })
}

/// Seed inverse facets: for every property, the subjects linking into
/// `ext` with their counts, by display name, and the facets by their
/// property's display name.
pub fn inverse_property_facets(store: &Store, ext: &BTreeSet<TermId>) -> Vec<PropertyFacet> {
    let mut out: Vec<PropertyFacet> = store
        .properties()
        .iter()
        .filter_map(|p| {
            let mut values: Vec<(TermId, usize)> =
                joins_with_counts(store, ext, PathStep::inv(p)).into_iter().collect();
            values.sort_by_key(|v| store.term(v.0).display_name());
            let facet = PropertyFacet { property: p, values, children: Vec::new() };
            (!facet.values.is_empty()).then_some(facet)
        })
        .collect();
    out.sort_by_key(|f| store.term(f.property).display_name());
    out
}

/// Seed path-expansion markers: each terminal value of a non-empty path
/// with the number of extension elements that reach it, by display name.
pub fn expand_path(
    store: &Store,
    ext: &BTreeSet<TermId>,
    path: &[PathStep],
) -> Vec<(TermId, usize)> {
    let mut out: Vec<(TermId, usize)> = joins_path(store, ext, path)
        .into_iter()
        .map(|v| (v, restrict_path(store, ext, path, &BTreeSet::from([v])).len()))
        .filter(|&(_, n)| n > 0)
        .collect();
    out.sort_by_key(|v| store.term(v.0).display_name());
    out
}
