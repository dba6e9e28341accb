//! Static cardinality estimates and the greedy join order they drive.

use super::rows::Frame;
use crate::ast::*;
use rdfa_store::Store;

/// Greedy join ordering driven by the static may-be-bound variable set:
/// start from the most
/// selective pattern, then repeatedly pick the cheapest pattern connected
/// to the bound variables (100× bonus against cartesian products).
pub(super) fn plan_order(
    store: &Store,
    patterns: &[&TriplePattern],
    frame: &Frame,
    bound: &[bool],
) -> Vec<usize> {
    let mut bound_vars = bound.to_vec();
    let estimates: Vec<f64> = patterns.iter().map(|tp| estimate_pattern(store, tp)).collect();
    let pattern_vars: Vec<Vec<usize>> = patterns
        .iter()
        .map(|tp| {
            let mut v = Vec::new();
            if let Some(name) = tp.subject.as_var() {
                if let Some(i) = frame.index(name) {
                    v.push(i);
                }
            }
            if let PathOrVar::Var(name) = &tp.predicate {
                if let Some(i) = frame.index(name) {
                    v.push(i);
                }
            }
            if let Some(name) = tp.object.as_var() {
                if let Some(i) = frame.index(name) {
                    v.push(i);
                }
            }
            v
        })
        .collect();
    let mut remaining: Vec<usize> = (0..patterns.len()).collect();
    let mut order = Vec::with_capacity(patterns.len());
    while !remaining.is_empty() {
        let best = remaining
            .iter()
            .copied()
            .min_by(|&a, &b| {
                let score = |i: usize| {
                    let connected = pattern_vars[i].iter().any(|&v| bound_vars[v]);
                    let bonus = if connected || order.is_empty() { 0.01 } else { 1.0 };
                    estimates[i] * bonus
                };
                score(a).partial_cmp(&score(b)).unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("non-empty remaining");
        remaining.retain(|&i| i != best);
        for &v in &pattern_vars[best] {
            bound_vars[v] = true;
        }
        order.push(best);
    }
    order
}

/// Static cardinality estimate for one pattern (constants only): the exact
/// [`Store::run_len`] of its constants, read off the index by position.
pub(crate) fn estimate_pattern(store: &Store, tp: &TriplePattern) -> f64 {
    let s = match &tp.subject {
        TermPattern::Term(t) => match store.lookup(t) {
            Some(id) => Some(id),
            None => return 0.0,
        },
        TermPattern::Var(_) => None,
    };
    let o = match &tp.object {
        TermPattern::Term(t) => match store.lookup(t) {
            Some(id) => Some(id),
            None => return 0.0,
        },
        TermPattern::Var(_) => None,
    };
    let p = match &tp.predicate {
        PathOrVar::Path(PropertyPath::Iri(iri)) => match store.lookup_iri(iri) {
            Some(id) => Some(id),
            None => return 0.0,
        },
        PathOrVar::Path(_) => return 1000.0, // complex path: moderately expensive
        PathOrVar::Var(_) => None,
    };
    store.run_len(s, p, o) as f64
}
