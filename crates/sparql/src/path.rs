//! Property-path evaluation over the store.
//!
//! Paths power two features of the paper's model: the translation of
//! composition expressions (`origin ∘ manufacturer`, §4.2.4) and the
//! path-expansion transitions of the faceted UI (Fig 5.5).

use crate::ast::PropertyPath;
use crate::{LimitGuard, SparqlError, Tally};
use rdfa_store::{Store, TermId};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// All `(start, end)` node pairs connected by `path`, optionally anchored on
/// either side. Results are deduplicated. Unlimited: a cyclic graph under a
/// closure path is walked in full — interactive callers should prefer
/// [`eval_path_limited`].
pub fn eval_path(
    store: &Store,
    path: &PropertyPath,
    start: Option<TermId>,
    end: Option<TermId>,
) -> BTreeSet<(TermId, TermId)> {
    // an unlimited guard never trips
    let guard = LimitGuard::unlimited();
    eval_path_limited(store, path, start, end, &mut guard.tally(0)).unwrap_or_default()
}

/// Like [`eval_path`], but every node expansion is counted in `tally`, so a
/// runaway closure surfaces `SparqlError::ResourceLimit` instead of hanging
/// the query. Expansions still pending in the tally reach its guard at the
/// caller's [`Tally::flush`].
pub fn eval_path_limited(
    store: &Store,
    path: &PropertyPath,
    start: Option<TermId>,
    end: Option<TermId>,
    tally: &mut Tally<'_>,
) -> Result<BTreeSet<(TermId, TermId)>, SparqlError> {
    match path {
        PropertyPath::Iri(iri) => {
            let Some(p) = store.lookup_iri(iri) else {
                return Ok(BTreeSet::new());
            };
            Ok(store
                .matching(start, Some(p), end)
                .map(|[s, _, o]| (s, o))
                .collect())
        }
        PropertyPath::Inverse(inner) => Ok(eval_path_limited(store, inner, end, start, tally)?
            .into_iter()
            .map(|(a, b)| (b, a))
            .collect()),
        PropertyPath::Sequence(a, b) => {
            if start.is_some() || end.is_none() {
                // drive left-to-right, anchored at start when available
                let left = eval_path_limited(store, a, start, None, tally)?;
                let mut out = BTreeSet::new();
                let mut mid_cache: HashMap<TermId, BTreeSet<(TermId, TermId)>> = HashMap::new();
                for (s, mid) in left {
                    tally.add_visit()?;
                    if let std::collections::hash_map::Entry::Vacant(e) = mid_cache.entry(mid) {
                        let rights = eval_path_limited(store, b, Some(mid), end, tally)?;
                        e.insert(rights);
                    }
                    for &(_, o) in &mid_cache[&mid] {
                        out.insert((s, o));
                    }
                }
                Ok(out)
            } else {
                // only end anchored: drive right-to-left
                let right = eval_path_limited(store, b, None, end, tally)?;
                let mut out = BTreeSet::new();
                let mut mid_cache: HashMap<TermId, BTreeSet<(TermId, TermId)>> = HashMap::new();
                for (mid, o) in right {
                    tally.add_visit()?;
                    if let std::collections::hash_map::Entry::Vacant(e) = mid_cache.entry(mid) {
                        let lefts = eval_path_limited(store, a, None, Some(mid), tally)?;
                        e.insert(lefts);
                    }
                    for &(s, _) in &mid_cache[&mid] {
                        out.insert((s, o));
                    }
                }
                Ok(out)
            }
        }
        PropertyPath::Alternative(a, b) => {
            let mut out = eval_path_limited(store, a, start, end, tally)?;
            out.extend(eval_path_limited(store, b, start, end, tally)?);
            Ok(out)
        }
        PropertyPath::ZeroOrOne(inner) => {
            let mut out = eval_path_limited(store, inner, start, end, tally)?;
            out.extend(identity_pairs(store, start, end));
            Ok(out)
        }
        PropertyPath::OneOrMore(inner) => closure(store, inner, start, end, tally),
        PropertyPath::ZeroOrMore(inner) => {
            let mut out = closure(store, inner, start, end, tally)?;
            out.extend(identity_pairs(store, start, end));
            Ok(out)
        }
    }
}

/// Zero-length path pairs `(x, x)`, restricted by the anchors. With both ends
/// free, the domain is every node occurring in the graph.
fn identity_pairs(
    store: &Store,
    start: Option<TermId>,
    end: Option<TermId>,
) -> BTreeSet<(TermId, TermId)> {
    match (start, end) {
        (Some(s), Some(e)) => {
            if s == e {
                [(s, s)].into_iter().collect()
            } else {
                BTreeSet::new()
            }
        }
        (Some(s), None) => [(s, s)].into_iter().collect(),
        (None, Some(e)) => [(e, e)].into_iter().collect(),
        (None, None) => graph_nodes(store).into_iter().map(|n| (n, n)).collect(),
    }
}

fn graph_nodes(store: &Store) -> BTreeSet<TermId> {
    store
        .iter_explicit()
        .flat_map(|[s, _, o]| [s, o])
        .collect()
}

/// Transitive closure of a path via BFS from each start node. Every node
/// expansion (queue pop) is charged against the budget — this is the loop
/// that walks a cycle-heavy graph forever without one.
fn closure(
    store: &Store,
    inner: &PropertyPath,
    start: Option<TermId>,
    end: Option<TermId>,
    tally: &mut Tally<'_>,
) -> Result<BTreeSet<(TermId, TermId)>, SparqlError> {
    // when only the end is anchored, walk the inverse path instead
    if start.is_none() && end.is_some() {
        let inv = PropertyPath::Inverse(Box::new(inner.clone()));
        return Ok(closure(store, &inv, end, None, tally)?
            .into_iter()
            .map(|(a, b)| (b, a))
            .collect());
    }
    let starts: Vec<TermId> = match start {
        Some(s) => vec![s],
        None => eval_path_limited(store, inner, None, None, tally)?
            .into_iter()
            .map(|(s, _)| s)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect(),
    };
    let mut out = BTreeSet::new();
    for s in starts {
        let mut seen: HashSet<TermId> = HashSet::new();
        let mut queue: VecDeque<TermId> = VecDeque::new();
        queue.push_back(s);
        while let Some(node) = queue.pop_front() {
            tally.add_visit()?;
            // expand one step of the inner path from `node`
            for (_, next) in eval_path_limited(store, inner, Some(node), None, tally)? {
                if seen.insert(next) {
                    queue.push_back(next);
                }
            }
        }
        for reached in seen {
            if end.is_none_or(|e| e == reached) {
                out.insert((s, reached));
            }
        }
    }
    Ok(out)
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
               ex:l1 ex:manufacturer ex:DELL .
               ex:l2 ex:manufacturer ex:Lenovo .
               ex:DELL ex:origin ex:USA .
               ex:Lenovo ex:origin ex:China .
               ex:USA ex:locatedAt ex:NorthAmerica .
               ex:China ex:locatedAt ex:Asia .
               ex:a ex:next ex:b . ex:b ex:next ex:c . ex:c ex:next ex:d .
            "#
        ))
        .unwrap();
        s
    }

    fn id(s: &Store, local: &str) -> TermId {
        s.lookup(&Term::iri(format!("{EX}{local}"))).unwrap()
    }

    fn p(local: &str) -> PropertyPath {
        PropertyPath::Iri(format!("{EX}{local}"))
    }

    #[test]
    fn simple_iri_path() {
        let s = store();
        let pairs = eval_path(&s, &p("manufacturer"), None, None);
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn sequence_anchored_both_ways() {
        let s = store();
        let seq = PropertyPath::Sequence(Box::new(p("manufacturer")), Box::new(p("origin")));
        // forward from l1
        let fwd = eval_path(&s, &seq, Some(id(&s, "l1")), None);
        assert_eq!(fwd, [(id(&s, "l1"), id(&s, "USA"))].into_iter().collect());
        // backward from China
        let bwd = eval_path(&s, &seq, None, Some(id(&s, "China")));
        assert_eq!(bwd, [(id(&s, "l2"), id(&s, "China"))].into_iter().collect());
    }

    #[test]
    fn three_step_sequence() {
        let s = store();
        let seq = PropertyPath::Sequence(
            Box::new(PropertyPath::Sequence(Box::new(p("manufacturer")), Box::new(p("origin")))),
            Box::new(p("locatedAt")),
        );
        let pairs = eval_path(&s, &seq, None, None);
        assert_eq!(pairs.len(), 2);
        assert!(pairs.contains(&(id(&s, "l2"), id(&s, "Asia"))));
    }

    #[test]
    fn inverse_path() {
        let s = store();
        let inv = PropertyPath::Inverse(Box::new(p("manufacturer")));
        let pairs = eval_path(&s, &inv, Some(id(&s, "DELL")), None);
        assert_eq!(pairs, [(id(&s, "DELL"), id(&s, "l1"))].into_iter().collect());
    }

    #[test]
    fn alternative_union() {
        let s = store();
        let alt = PropertyPath::Alternative(Box::new(p("origin")), Box::new(p("locatedAt")));
        let pairs = eval_path(&s, &alt, None, None);
        assert_eq!(pairs.len(), 4);
    }

    #[test]
    fn one_or_more_chain() {
        let s = store();
        let plus = PropertyPath::OneOrMore(Box::new(p("next")));
        let from_a = eval_path(&s, &plus, Some(id(&s, "a")), None);
        assert_eq!(from_a.len(), 3); // b, c, d
        let anchored = eval_path(&s, &plus, Some(id(&s, "a")), Some(id(&s, "d")));
        assert_eq!(anchored.len(), 1);
    }

    #[test]
    fn zero_or_more_includes_identity() {
        let s = store();
        let star = PropertyPath::ZeroOrMore(Box::new(p("next")));
        let from_a = eval_path(&s, &star, Some(id(&s, "a")), None);
        assert_eq!(from_a.len(), 4); // a itself + b, c, d
        assert!(from_a.contains(&(id(&s, "a"), id(&s, "a"))));
    }

    #[test]
    fn zero_or_one() {
        let s = store();
        let opt = PropertyPath::ZeroOrOne(Box::new(p("next")));
        let from_a = eval_path(&s, &opt, Some(id(&s, "a")), None);
        assert_eq!(from_a.len(), 2); // a and b
    }

    #[test]
    fn unknown_property_matches_nothing() {
        let s = store();
        let pairs = eval_path(&s, &p("nonexistent"), None, None);
        assert!(pairs.is_empty());
    }

    #[test]
    fn one_or_more_end_anchored_only() {
        let s = store();
        let plus = PropertyPath::OneOrMore(Box::new(p("next")));
        let to_d = eval_path(&s, &plus, None, Some(id(&s, "d")));
        assert_eq!(to_d.len(), 3); // a→d, b→d, c→d
    }

    fn cycle_store(n: usize) -> Store {
        let mut s = Store::new();
        let mut ttl = format!("@prefix ex: <{EX}> .\n");
        for i in 0..n {
            ttl.push_str(&format!("ex:n{i} ex:partOf ex:n{} .\n", (i + 1) % n));
        }
        s.load_turtle(&ttl).unwrap();
        s
    }

    #[test]
    fn closure_terminates_on_cycles() {
        let s = cycle_store(5);
        let plus = PropertyPath::OneOrMore(Box::new(p("partOf")));
        let from_n0 = eval_path(&s, &plus, Some(id(&s, "n0")), None);
        assert_eq!(from_n0.len(), 5); // n0+ reaches every node incl. itself
    }

    #[test]
    fn closure_respects_path_visit_limit() {
        let s = cycle_store(100);
        let plus = PropertyPath::OneOrMore(Box::new(p("partOf")));
        let guard = LimitGuard::new(crate::EvalLimits::default().with_max_path_visits(50));
        let err = eval_path_limited(&s, &plus, None, None, &mut guard.tally(0)).unwrap_err();
        assert!(err.is_resource_limit(), "{err}");
    }

    #[test]
    fn closure_respects_deadline() {
        use std::time::{Duration, Instant};
        let s = cycle_store(2000);
        let plus = PropertyPath::OneOrMore(Box::new(p("partOf")));
        let deadline = Duration::from_millis(20);
        let guard = LimitGuard::new(crate::EvalLimits::default().with_deadline(deadline));
        let t0 = Instant::now();
        let result = eval_path_limited(&s, &plus, None, None, &mut guard.tally(0));
        let elapsed = t0.elapsed();
        // the full closure over a 2000-cycle is 4M pairs — the deadline must
        // cut it off promptly (well under 2x the budget)
        assert!(matches!(
            result,
            Err(SparqlError::ResourceLimit { kind: crate::LimitKind::Deadline, .. })
        ));
        assert!(elapsed < deadline * 2, "took {elapsed:?} against a {deadline:?} deadline");
    }
}
