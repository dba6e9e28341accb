//! The `Restrict` and `Joins` operators of §5.3.1 — the algebra underlying
//! all transitions.
//!
//! The operators work on sorted [`ExtSet`] extensions and evaluate as
//! **merge-joins over sorted posting runs** (the store's POS/SPO
//! permutations, each layer's run read on its own: [`Store::layer_runs`]),
//! instead of probing the index once per extension element. Each operator
//! picks between two physical plans:
//!
//! - *seek*: per extension element, range-scan just that element's `p`-edges
//!   (wins when the extension is far smaller than the predicate's run);
//! - *scan*: one pass over the predicate's whole posting run, testing the
//!   other side against the extension (O(1) once the extension is densified
//!   to a bitmap).
//!
//! The seed `BTreeSet` implementations live in the dev-only `rdfa-oracle`
//! crate, the reference `tests/facet_differential.rs` checks these against.

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

/// The far ends of `e`'s edges along `step`: the objects of its `p`-edges,
/// or for an inverse step the subjects of the `p`-edges into it — one seek
/// per layer, in no particular order.
fn neighbours(store: &Store, e: TermId, step: PathStep) -> impl Iterator<Item = TermId> + '_ {
    let (s, o) = if step.inverse { (None, Some(e)) } else { (Some(e), None) };
    store.matching(s, Some(step.prop), o).map(move |[s, _, o]| if step.inverse { s } else { o })
}

/// The `out` side of every `p`-edge `(s, o)` that `keep` accepts, from one
/// scan of each layer's POS run. Objects come out of a run ascending, so
/// each layer's are collected into a set and the sets unioned; subjects do
/// not, so every layer's are pushed into one vector and sorted once.
fn scan_edges(
    store: &Store,
    p: TermId,
    out: CountKey,
    keep: impl Fn(TermId, TermId) -> bool,
) -> ExtSet {
    let runs = store.layer_runs(None, Some(p), None);
    match out {
        CountKey::Object => runs
            .map(|run| {
                let mut objects: Vec<TermId> = Vec::new();
                for [s, _, o] in run {
                    if objects.last() != Some(&o) && keep(s, o) {
                        objects.push(o);
                    }
                }
                ExtSet::from_sorted_vec(objects)
            })
            .reduce(|set, more| set.union(&more))
            .unwrap_or_default(),
        CountKey::Subject => {
            let mut subjects = Vec::new();
            for run in runs {
                for [s, _, o] in run {
                    if keep(s, o) {
                        subjects.push(s);
                    }
                }
            }
            subjects.into_iter().collect()
        }
    }
}

/// `Restrict(E, p : v)` — elements of `E` with a `p`-edge to `v`
/// (direction-aware: an inverse step follows `p` backwards). A galloping
/// intersection of the extension with the edge's posting run.
pub fn restrict_value(store: &Store, ext: &ExtSet, step: PathStep, v: TermId) -> ExtSet {
    let run = if step.inverse {
        store.id_set(Some(v), Some(step.prop), None, CountKey::Object)
    } else {
        store.id_set(None, Some(step.prop), Some(v), CountKey::Subject)
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
    let vdense = densified(store, vset);
    if store.prefer_seek(ext.len(), step.prop, None) {
        // seek each element's own edges; output stays in extension order
        ExtSet::from_sorted_iter(
            ext.iter().filter(|&e| neighbours(store, e, step).any(|v| vdense.contains(v))),
        )
    } else {
        let edense = densified(store, ext);
        if step.inverse {
            // edge s→o with s ∈ vset keeps o
            scan_edges(store, step.prop, CountKey::Object, |s, o| {
                vdense.contains(s) && edense.contains(o)
            })
        } else {
            scan_edges(store, step.prop, CountKey::Subject, |s, o| {
                vdense.contains(o) && edense.contains(s)
            })
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
        ext.iter().flat_map(|e| neighbours(store, e, step)).collect()
    } else {
        let edense = densified(store, ext);
        if step.inverse {
            scan_edges(store, step.prop, CountKey::Subject, |_, o| edense.contains(o))
        } else {
            scan_edges(store, step.prop, CountKey::Object, |s, _| edense.contains(s))
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

#[cfg(test)]
mod tests {
    use super::*;
    use rdfa_model::Term;

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
}
