//! The `Restrict` and `Joins` operators of §5.3.1 — the algebra underlying
//! all transitions.
//!
//! The operators work on sorted [`ExtSet`] extensions and evaluate as
//! **merge-joins over sorted posting runs** (the store's POS/SPO
//! permutations, fused across the explicit and inferred layers), instead of
//! probing the index once per extension element. Each operator picks between
//! two physical plans:
//!
//! - *seek*: per extension element, range-scan just that element's `p`-edges
//!   (wins when the extension is far smaller than the predicate's run);
//! - *scan*: one pass over the predicate's whole posting run, testing the
//!   other side against the extension (O(1) once the extension is densified
//!   to a bitmap).
//!
//! The old `BTreeSet`-based implementations are preserved verbatim in
//! [`reference`](mod@reference) as the differential-testing and benchmarking baseline.

use crate::state::PathStep;
use crate::FacetError;
use rdfa_model::Value;
use rdfa_store::{CountKey, ExtSet, Store, TermId};

/// A clone of `ext` densified to a bitmap when worthwhile — scans test
/// membership once per posting-run edge, so the O(1) probe pays for itself.
fn densified(store: &Store, ext: &ExtSet) -> ExtSet {
    let mut dense = ext.clone();
    dense.densify(store.term_count());
    dense
}

/// `Restrict(E, p : v)` — elements of `E` with a `p`-edge to `v`
/// (direction-aware: an inverse step follows `p` backwards). A galloping
/// intersection of the extension with the edge's posting run.
pub fn restrict_value(store: &Store, ext: &ExtSet, step: PathStep, v: TermId) -> ExtSet {
    let run = if step.inverse {
        ExtSet::from_sorted_iter(store.objects_for_sp(v, step.prop))
    } else {
        ExtSet::from_sorted_iter(store.subjects_for_po(step.prop, v))
    };
    run.intersect(ext)
}

/// `Restrict(E, p : vset)` — elements of `E` with a `p`-edge to any of `vset`.
pub fn restrict_value_set(
    store: &Store,
    ext: &ExtSet,
    step: PathStep,
    vset: &ExtSet,
) -> ExtSet {
    if store.prefer_seek(ext.len(), step.prop, None) {
        // seek each element's own edges; output stays in extension order
        let vdense = densified(store, vset);
        ExtSet::from_sorted_iter(ext.iter().filter(|&e| {
            if step.inverse {
                store.subjects_for_po(step.prop, e).any(|s| vdense.contains(s))
            } else {
                store.objects_for_sp(e, step.prop).any(|o| vdense.contains(o))
            }
        }))
    } else {
        let edense = densified(store, ext);
        let vdense = densified(store, vset);
        if step.inverse {
            // pairs (o, s): edge s→o with s ∈ vset keeps o — ascending by o
            ExtSet::from_sorted_iter(
                store
                    .predicate_pairs(step.prop)
                    .filter(|&(o, s)| vdense.contains(s) && edense.contains(o))
                    .map(|(o, _)| o),
            )
        } else {
            store
                .predicate_pairs(step.prop)
                .filter(|&(o, s)| vdense.contains(o) && edense.contains(s))
                .map(|(_, s)| s)
                .collect()
        }
    }
}

/// `Restrict(E, c)` — elements of `E` that are (entailed) instances of `c`:
/// the class's sorted instance run intersected with the extension.
pub fn restrict_class(store: &Store, ext: &ExtSet, c: TermId) -> ExtSet {
    store.instances_set(c).intersect(ext)
}

/// `Joins(E, p)` — values linked to elements of `E` by `p` (§5.3.1).
pub fn joins(store: &Store, ext: &ExtSet, step: PathStep) -> ExtSet {
    if store.prefer_seek(ext.len(), step.prop, None) {
        let mut out: Vec<TermId> = Vec::new();
        for e in ext.iter() {
            if step.inverse {
                out.extend(store.subjects_for_po(step.prop, e));
            } else {
                out.extend(store.objects_for_sp(e, step.prop));
            }
        }
        out.into_iter().collect()
    } else {
        let edense = densified(store, ext);
        if step.inverse {
            store
                .predicate_pairs(step.prop)
                .filter(|&(o, _)| edense.contains(o))
                .map(|(_, s)| s)
                .collect()
        } else {
            // ascending by object already: dedup happens in from_sorted_iter
            ExtSet::from_sorted_iter(
                store
                    .predicate_pairs(step.prop)
                    .filter(|&(_, s)| edense.contains(s))
                    .map(|(o, _)| o),
            )
        }
    }
}

/// `Joins(E, p)` together with the marker counts `|Restrict(E, p : v)|` for
/// every value — the computation behind every facet's value list (Fig 5.4 c),
/// delegated to the store's unified counting kernel. Ascending by value id
/// (the same order the old `BTreeMap` yielded).
pub fn joins_with_counts(
    store: &Store,
    ext: &ExtSet,
    step: PathStep,
) -> Vec<(TermId, usize)> {
    let key = if step.inverse { CountKey::Subject } else { CountKey::Object };
    store.edge_counts(step.prop, key, Some(ext))
}

/// `Joins` along a path: `Joins(…Joins(E, p1)…, pk)` — the marker set `M_k`
/// of §5.3.2. The frontier is moved, never cloned.
pub fn joins_path(store: &Store, ext: &ExtSet, path: &[PathStep]) -> ExtSet {
    let mut frontier: Option<ExtSet> = None;
    for &step in path {
        let next = joins(store, frontier.as_ref().unwrap_or(ext), step);
        let empty = next.is_empty();
        frontier = Some(next);
        if empty {
            break;
        }
    }
    frontier.unwrap_or_else(|| ext.clone())
}

/// Restrict `E` through a path to a chosen terminal value — the
/// back-propagation of Eq. 5.1: `M'_k = {v}`, `M'_i = Restrict(M_i, p_{i+1} :
/// M'_{i+1})`, extension `Restrict(E, p_1 : M'_1)`.
///
/// Errors on an empty path (there is no first step to restrict through).
pub fn restrict_path(
    store: &Store,
    ext: &ExtSet,
    path: &[PathStep],
    terminal: &ExtSet,
) -> Result<ExtSet, FacetError> {
    if path.is_empty() {
        return Err(FacetError::new("restrict_path needs a non-empty path"));
    }
    // compute marker sets M_1 … M_{k-1}
    let mut markers: Vec<ExtSet> = Vec::with_capacity(path.len());
    for (i, &step) in path.iter().enumerate() {
        let frontier = if i == 0 { ext } else { &markers[i - 1] };
        markers.push(joins(store, frontier, step));
    }
    // back-propagate M'_i
    let mut restricted = terminal.clone();
    for i in (0..path.len() - 1).rev() {
        restricted = restrict_value_set(store, &markers[i], path[i + 1], &restricted);
    }
    Ok(restrict_value_set(store, ext, path[0], &restricted))
}

/// Restrict `E` by a numeric/date range on a path's terminal value: elements
/// with at least one terminal value `v` with `min ≤ v ≤ max` (either bound
/// optional).
pub fn restrict_range(
    store: &Store,
    ext: &ExtSet,
    path: &[PathStep],
    min: Option<&Value>,
    max: Option<&Value>,
) -> ExtSet {
    let in_range = |id: TermId| -> bool {
        let v = Value::from_term(store.term(id));
        let ge_min = min.is_none_or(|m| {
            matches!(v.compare(m), Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal))
        });
        let le_max = max.is_none_or(|m| {
            matches!(v.compare(m), Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal))
        });
        ge_min && le_max
    };
    // terminal values that qualify
    let terminal =
        ExtSet::from_sorted_iter(joins_path(store, ext, path).iter().filter(|&t| in_range(t)));
    if terminal.is_empty() {
        return ExtSet::new();
    }
    if path.len() == 1 {
        restrict_value_set(store, ext, path[0], &terminal)
    } else {
        restrict_path(store, ext, path, &terminal)
            .expect("path has at least two steps")
    }
}

/// The seed `BTreeSet` implementations of every operator, kept verbatim as
/// the reference semantics: differential tests check the merge-join operators
/// against these on random graphs, and `facet_bench` uses them as the
/// before-optimization baseline.
pub mod reference {
    use crate::state::PathStep;
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdfa_model::Term;
    use std::collections::BTreeSet;

    const EX: &str = "http://e/";

    fn store() -> Store {
        let mut s = Store::new();
        s.load_turtle(&format!(
            r#"@prefix ex: <{EX}> .
               ex:l1 a ex:Laptop ; ex:manufacturer ex:DELL ; ex:usb 2 .
               ex:l2 a ex:Laptop ; ex:manufacturer ex:Lenovo ; ex:usb 4 .
               ex:l3 a ex:Laptop ; ex:manufacturer ex:DELL ; ex:usb 3 .
               ex:DELL ex:origin ex:USA .
               ex:Lenovo ex:origin ex:China .
            "#
        ))
        .unwrap();
        s
    }

    fn id(s: &Store, local: &str) -> TermId {
        s.lookup(&Term::iri(format!("{EX}{local}"))).unwrap()
    }

    fn laptops(s: &Store) -> ExtSet {
        ["l1", "l2", "l3"].iter().map(|l| id(s, l)).collect()
    }

    fn step(s: &Store, local: &str) -> PathStep {
        PathStep { prop: id(s, local), inverse: false }
    }

    #[test]
    fn joins_collects_values() {
        let s = store();
        let vals = joins(&s, &laptops(&s), step(&s, "manufacturer"));
        assert_eq!(vals.len(), 2);
    }

    #[test]
    fn restrict_by_value() {
        let s = store();
        let e = restrict_value(&s, &laptops(&s), step(&s, "manufacturer"), id(&s, "DELL"));
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn joins_path_two_steps() {
        let s = store();
        let vals = joins_path(&s, &laptops(&s), &[step(&s, "manufacturer"), step(&s, "origin")]);
        assert_eq!(vals.len(), 2); // USA, China
    }

    #[test]
    fn restrict_path_back_propagates() {
        let s = store();
        let usa: ExtSet = [id(&s, "USA")].into_iter().collect();
        let e = restrict_path(
            &s,
            &laptops(&s),
            &[step(&s, "manufacturer"), step(&s, "origin")],
            &usa,
        )
        .unwrap();
        assert_eq!(e, [id(&s, "l1"), id(&s, "l3")].into_iter().collect());
    }

    #[test]
    fn restrict_path_rejects_empty_path() {
        let s = store();
        let usa: ExtSet = [id(&s, "USA")].into_iter().collect();
        let err = restrict_path(&s, &laptops(&s), &[], &usa).unwrap_err();
        assert!(err.message.contains("non-empty"), "{err}");
    }

    #[test]
    fn inverse_step_walks_backwards() {
        let s = store();
        let dell: ExtSet = [id(&s, "DELL")].into_iter().collect();
        let inv = PathStep { prop: id(&s, "manufacturer"), inverse: true };
        let who = joins(&s, &dell, inv);
        assert_eq!(who, [id(&s, "l1"), id(&s, "l3")].into_iter().collect());
    }

    #[test]
    fn counts_are_ascending_and_exact() {
        let s = store();
        let counts = joins_with_counts(&s, &laptops(&s), step(&s, "manufacturer"));
        assert!(counts.windows(2).all(|w| w[0].0 < w[1].0));
        let dell = counts.iter().find(|(v, _)| *v == id(&s, "DELL")).unwrap();
        assert_eq!(dell.1, 2);
    }

    #[test]
    fn range_restriction() {
        let s = store();
        let e = restrict_range(
            &s,
            &laptops(&s),
            &[step(&s, "usb")],
            Some(&Value::Int(2)),
            Some(&Value::Int(3)),
        );
        assert_eq!(e, [id(&s, "l1"), id(&s, "l3")].into_iter().collect());
        // open-ended range
        let e2 = restrict_range(&s, &laptops(&s), &[step(&s, "usb")], Some(&Value::Int(4)), None);
        assert_eq!(e2, [id(&s, "l2")].into_iter().collect());
    }

    #[test]
    fn restrict_class_filters() {
        let s = store();
        let mut mixed = laptops(&s).to_sorted_vec();
        mixed.push(id(&s, "DELL"));
        let mixed: ExtSet = mixed.into_iter().collect();
        let e = restrict_class(&s, &mixed, id(&s, "Laptop"));
        assert_eq!(e.len(), 3);
    }

    #[test]
    fn empty_path_join_is_empty() {
        let s = store();
        let vals = joins_path(&s, &ExtSet::new(), &[step(&s, "manufacturer")]);
        assert!(vals.is_empty());
    }

    /// Every operator agrees with its [`reference`] counterpart on the
    /// fixture (the broader random-graph differential suite lives in the
    /// workspace-level tests).
    #[test]
    fn agrees_with_reference_on_fixture() {
        let s = store();
        let ext = laptops(&s);
        let ext_ref = ext.to_btree_set();
        for prop in ["manufacturer", "usb"] {
            for inverse in [false, true] {
                let st = PathStep { prop: id(&s, prop), inverse };
                assert_eq!(
                    joins(&s, &ext, st).to_btree_set(),
                    reference::joins(&s, &ext_ref, st)
                );
                let counts: Vec<(TermId, usize)> =
                    reference::joins_with_counts(&s, &ext_ref, st).into_iter().collect();
                assert_eq!(joins_with_counts(&s, &ext, st), counts);
            }
        }
        let path = [step(&s, "manufacturer"), step(&s, "origin")];
        assert_eq!(
            joins_path(&s, &ext, &path).to_btree_set(),
            reference::joins_path(&s, &ext_ref, &path)
        );
        let usa: BTreeSet<TermId> = [id(&s, "USA")].into_iter().collect();
        assert_eq!(
            restrict_path(&s, &ext, &path, &ExtSet::from(&usa)).unwrap().to_btree_set(),
            reference::restrict_path(&s, &ext_ref, &path, &usa)
        );
    }
}
