//! The ordered fan-out of bulk ingest.
//!
//! Workers pull item indices from a shared atomic cursor — the cheapest
//! possible work-stealing — run the caller's closure, and deposit one
//! result per index. The results are then stitched together **in index
//! order**, so a computation whose per-item result is a pure function of
//! its item yields the same output at any worker count; only which worker
//! ran which item varies.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `work` for every index in `0..n` over `workers` threads and return
/// the results **in index order**. With `workers <= 1` (or a single index)
/// everything runs inline on the caller's thread, no spawn.
fn run_morsels<R, F>(workers: usize, n: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if workers <= 1 || n <= 1 {
        return (0..n).map(work).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(n))
            .map(|_| {
                let (cursor, work) = (&cursor, &work);
                scope.spawn(move || {
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        done.push((i, work(i)));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("fan-out worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots.into_iter().map(|r| r.expect("every index ran")).collect()
}

/// Map `f` over owned `items` on `workers` threads, preserving item order:
/// for work that is already cut into a few fat pieces (ingest chunks, sort
/// runs, merge pairs). Sequential when `workers <= 1`, identical output
/// either way.
pub fn map_ordered<T, U, F>(workers: usize, items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(usize, T) -> U + Sync,
{
    if workers <= 1 || items.len() <= 1 {
        return items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let n = items.len();
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    run_morsels(workers, n, |i| {
        let item = slots[i]
            .lock()
            .expect("item slot")
            .take()
            .expect("each item claimed exactly once");
        f(i, item)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_index_order_at_any_worker_count() {
        for workers in [1usize, 2, 3, 8] {
            let out: Vec<usize> = run_morsels(workers, 100, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>(), "{workers} workers");
        }
    }

    #[test]
    fn every_index_runs_exactly_once() {
        let ran = AtomicUsize::new(0);
        let out = run_morsels(4, 64, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 64);
        assert_eq!(ran.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn map_ordered_matches_sequential_map() {
        let items: Vec<String> = (0..50).map(|i| format!("item{i}")).collect();
        let expect: Vec<String> = items.iter().enumerate().map(|(i, s)| format!("{i}:{s}")).collect();
        for workers in [1usize, 2, 7] {
            let got = map_ordered(workers, items.clone(), |i, s| format!("{i}:{s}"));
            assert_eq!(got, expect, "{workers} workers");
        }
    }
}
