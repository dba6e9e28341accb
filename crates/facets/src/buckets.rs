//! Grouping of facet values into intervals — Fig 5.4 (d).
//!
//! Numeric (and date) facets with many distinct values are displayed as
//! interval buckets rather than flat value lists; clicking a bucket applies
//! the corresponding range restriction (the same transition as the ⧩
//! filter), so the never-empty guarantee carries over.

use crate::ops::restrict_range;
use crate::state::PathStep;
use rdfa_model::Value;
use rdfa_store::{ExtSet, Store};
use std::collections::BTreeSet;

/// One value bucket: a closed interval with its member count.
#[derive(Debug, Clone, PartialEq)]
pub struct Bucket {
    pub min: Value,
    pub max: Value,
    /// Extension elements whose value falls in `[min, max]`.
    pub count: usize,
}

impl Bucket {
    /// Display label, e.g. `800 – 1000`.
    pub fn label(&self) -> String {
        format!("{} – {}", self.min.render(), self.max.render())
    }
}

/// Bucket the numeric values of a property path over an extension into (at
/// most) `n_buckets` equal-width intervals. Non-numeric values are ignored;
/// returns an empty vector when fewer than two distinct numeric values
/// exist (a flat list is better then).
pub fn bucket_values(
    store: &Store,
    ext: &ExtSet,
    path: &[PathStep],
    n_buckets: usize,
) -> Vec<Bucket> {
    assert!(n_buckets > 0, "need at least one bucket");
    let values: Vec<f64> = crate::ops::joins_path(store, ext, path)
        .into_iter()
        .filter_map(|id| Value::from_term(store.term(id)).as_f64())
        .collect();
    let distinct: BTreeSet<u64> = values.iter().map(|v| v.to_bits()).collect();
    if distinct.len() < 2 {
        return Vec::new();
    }
    let lo = values.iter().copied().fold(f64::MAX, f64::min);
    let hi = values.iter().copied().fold(f64::MIN, f64::max);
    let width = (hi - lo) / n_buckets as f64;
    (0..n_buckets)
        .filter_map(|i| {
            let b_lo = lo + i as f64 * width;
            let b_hi = if i + 1 == n_buckets { hi } else { lo + (i + 1) as f64 * width };
            let min = Value::Float(b_lo);
            let max = Value::Float(b_hi);
            // count via the same restriction a click would apply; upper
            // bounds are exclusive except for the last bucket, achieved by
            // nudging the bound just below the next bucket's start
            let max_for_count = if i + 1 == n_buckets {
                max.clone()
            } else {
                Value::Float(next_down(b_hi))
            };
            let count = restrict_range(store, ext, path, Some(&min), Some(&max_for_count)).len();
            (count > 0).then_some(Bucket { min, max, count })
        })
        .collect()
}

fn next_down(v: f64) -> f64 {
    f64::from_bits(v.to_bits() - 1)
}

/// The range restriction a bucket click applies: `(min, max)` bounds for
/// [`crate::session::FacetedSession::select_range`].
pub fn bucket_bounds(bucket: &Bucket, is_last: bool) -> (Option<Value>, Option<Value>) {
    let max = match (&bucket.max, is_last) {
        (Value::Float(v), false) => Value::Float(next_down(*v)),
        (other, _) => other.clone(),
    };
    (Some(bucket.min.clone()), Some(max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::FacetedSession;

    const EX: &str = "http://e/";

    fn store() -> Store {
        let mut s = Store::new();
        let mut ttl = format!("@prefix ex: <{EX}> .\n");
        for (i, price) in [300, 450, 500, 800, 950, 1000, 1400, 2900].iter().enumerate() {
            ttl.push_str(&format!("ex:l{i} a ex:Laptop ; ex:price {price} .\n"));
        }
        s.load_turtle(&ttl).unwrap();
        s
    }

    fn laptops(s: &Store) -> ExtSet {
        s.instances_set(s.lookup_iri(&format!("{EX}Laptop")).unwrap())
    }

    fn price_path(s: &Store) -> [PathStep; 1] {
        [PathStep::fwd(s.lookup_iri(&format!("{EX}price")).unwrap())]
    }

    #[test]
    fn buckets_partition_the_extension() {
        let s = store();
        let ext = laptops(&s);
        let buckets = bucket_values(&s, &ext, &price_path(&s), 4);
        let total: usize = buckets.iter().map(|b| b.count).sum();
        assert_eq!(total, ext.len(), "{buckets:?}");
        assert!(buckets.len() >= 2);
    }

    #[test]
    fn empty_buckets_are_pruned() {
        let s = store();
        let ext = laptops(&s);
        // 2900 is an outlier: with many buckets some are empty and dropped
        let buckets = bucket_values(&s, &ext, &price_path(&s), 10);
        assert!(buckets.iter().all(|b| b.count > 0));
    }

    #[test]
    fn bucket_click_never_empty() {
        let s = store();
        let ext = laptops(&s);
        let path = price_path(&s);
        let buckets = bucket_values(&s, &ext, &path, 4);
        let n = buckets.len();
        for (i, b) in buckets.iter().enumerate() {
            let (min, max) = bucket_bounds(b, i + 1 == n);
            let mut session = FacetedSession::start_from(&s, ext.clone());
            session.select_range(&path, min, max).unwrap();
            assert_eq!(session.extension().len(), b.count);
        }
    }

    #[test]
    fn single_value_yields_no_buckets() {
        let mut s = Store::new();
        s.load_turtle(&format!(
            "@prefix ex: <{EX}> . ex:a a ex:T ; ex:p 5 . ex:b a ex:T ; ex:p 5 ."
        ))
        .unwrap();
        let ext = s.instances_set(s.lookup_iri(&format!("{EX}T")).unwrap());
        let path = [PathStep::fwd(s.lookup_iri(&format!("{EX}p")).unwrap())];
        assert!(bucket_values(&s, &ext, &path, 3).is_empty());
    }

    #[test]
    fn labels_are_readable() {
        let b = Bucket { min: Value::Float(300.0), max: Value::Float(950.0), count: 4 };
        assert_eq!(b.label(), "300 – 950");
    }
}
