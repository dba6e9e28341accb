//! The work-stealing morsel scheduler.
//!
//! A *morsel* is a fixed-size slice of work (by convention
//! [`DEFAULT_MORSEL_ROWS`] rows of a columnar batch). Workers pull morsel
//! indices from a shared atomic cursor — the cheapest possible
//! work-stealing — run the caller's closure against thread-local scratch,
//! and deposit one result per morsel. The scheduler then stitches results
//! together **in morsel index order**.
//!
//! That ordered merge is the determinism contract: morsel geometry is a
//! function of the input size only (never of the worker count), so any
//! computation whose per-morsel result is a pure function of its morsel
//! yields byte-identical output at 1, 2, or 64 threads — only which worker
//! ran which morsel varies.

use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Rows per morsel. One size everywhere: small enough that a morsel
/// boundary (the probe point for deadlines and cancellation) arrives every
/// few microseconds even on wide rows, big enough that the per-morsel
/// dispatch (one `fetch_add`) is noise. Thread-count-independent by design.
pub const DEFAULT_MORSEL_ROWS: usize = 1024;

/// Work floor: below this many morsels a run stays serial — spawn + merge
/// overhead beats the fan-out on tiny inputs (an N-thread GROUP BY once
/// lost to one thread on ~56 k triples; this floor prevents that).
pub const MIN_PARALLEL_MORSELS: usize = 4;

/// Run `n_morsels` morsels over `workers` threads and return the per-morsel
/// results **in morsel order**.
///
/// * `make_state(worker)` builds one thread-local scratch value per worker —
///   arenas, hash tables, whatever the chain reuses across its morsels.
/// * `work(state, morsel)` processes one morsel. The closure owns its probe
///   discipline: typically [`crate::LimitGuard::probe`] once per morsel.
///
/// With `workers <= 1` (or a single morsel) everything runs inline on the
/// caller's thread — same closures, same order, no spawn. Since worker
/// counts come from [`crate::morsel_workers`] (input-size-driven)
/// and results merge in morsel order, the output is identical either way.
///
/// On error the run stops early: the stop flag parks every worker at its
/// next dispatch and the error from the lowest-numbered failing morsel
/// wins, which keeps the surfaced error stable when several workers trip
/// together.
pub fn run_morsels<S, R, E, FS, FW>(
    workers: usize,
    n_morsels: usize,
    make_state: FS,
    work: FW,
) -> Result<Vec<R>, E>
where
    R: Send,
    E: Send,
    FS: Fn(usize) -> S + Sync,
    FW: Fn(&mut S, usize) -> Result<R, E> + Sync,
{
    if workers <= 1 || n_morsels <= 1 {
        let mut state = make_state(0);
        let mut out = Vec::with_capacity(n_morsels);
        for i in 0..n_morsels {
            out.push(work(&mut state, i)?);
        }
        return Ok(out);
    }
    let workers = workers.min(n_morsels);
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let first_err: Mutex<Option<(usize, E)>> = Mutex::new(None);
    let mut slots: Vec<Option<R>> = (0..n_morsels).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (cursor, stop, first_err) = (&cursor, &stop, &first_err);
                let (make_state, work) = (&make_state, &work);
                scope.spawn(move || {
                    let mut state = make_state(w);
                    let mut done: Vec<(usize, R)> = Vec::new();
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n_morsels {
                            break;
                        }
                        match work(&mut state, i) {
                            Ok(r) => done.push((i, r)),
                            Err(e) => {
                                stop.store(true, Ordering::Relaxed);
                                let mut slot = first_err.lock().expect("error slot");
                                match &*slot {
                                    Some((j, _)) if *j <= i => {}
                                    _ => *slot = Some((i, e)),
                                }
                                break;
                            }
                        }
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("morsel worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    if let Some((_, e)) = first_err.into_inner().expect("error slot") {
        return Err(e);
    }
    Ok(slots
        .into_iter()
        .map(|r| r.expect("every morsel completed on the success path"))
        .collect())
}

/// Map `f` over owned `items` on `workers` threads, preserving item order —
/// the unit-granular cousin of [`run_morsels`] for work that is already cut
/// into a few fat pieces (ingest chunks, facet units, merge pairs).
/// Sequential when `workers <= 1`, identical output either way.
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
    let result = run_morsels::<(), U, Infallible, _, _>(
        workers,
        n,
        |_| (),
        |_, i| {
            let item = slots[i]
                .lock()
                .expect("item slot")
                .take()
                .expect("each item claimed exactly once");
            Ok(f(i, item))
        },
    );
    match result {
        Ok(v) => v,
        Err(e) => match e {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_morsel_order_at_any_worker_count() {
        for workers in [1usize, 2, 3, 8] {
            let out: Vec<usize> =
                run_morsels::<_, _, Infallible, _, _>(workers, 100, |_| (), |_, i| Ok(i * 3))
                    .unwrap();
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>(), "{workers} workers");
        }
    }

    #[test]
    fn worker_state_is_thread_local_and_reused() {
        // each worker counts the morsels it ran; the counts must sum to all
        // morsels without double-processing
        let ran = AtomicUsize::new(0);
        let out = run_morsels::<_, _, Infallible, _, _>(
            4,
            64,
            |_| 0usize,
            |state, i| {
                *state += 1;
                ran.fetch_add(1, Ordering::Relaxed);
                Ok(i)
            },
        )
        .unwrap();
        assert_eq!(out.len(), 64);
        assert_eq!(ran.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn lowest_morsel_error_wins_and_stops_the_run() {
        let attempted = AtomicUsize::new(0);
        let err = run_morsels::<(), (), usize, _, _>(
            4,
            10_000,
            |_| (),
            |_, i| {
                attempted.fetch_add(1, Ordering::Relaxed);
                if i >= 5 {
                    Err(i)
                } else {
                    Ok(())
                }
            },
        )
        .unwrap_err();
        assert!(err >= 5, "error carries a failing morsel index, got {err}");
        assert!(
            attempted.load(Ordering::Relaxed) < 10_000,
            "the stop flag must park workers early"
        );
    }

    #[test]
    fn serial_path_propagates_the_first_error() {
        let err = run_morsels::<(), (), &str, _, _>(
            1,
            10,
            |_| (),
            |_, i| if i == 3 { Err("boom") } else { Ok(()) },
        )
        .unwrap_err();
        assert_eq!(err, "boom");
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

    #[test]
    fn workers_observe_a_sibling_trip_through_the_shared_guard() {
        use crate::{EvalLimits, LimitGuard, LimitKind};
        let guard = LimitGuard::new(EvalLimits::default().with_max_rows(100));
        let hits = AtomicUsize::new(0);
        let err = run_morsels(
            4,
            1000,
            |_| (),
            |_, _| {
                hits.fetch_add(1, Ordering::Relaxed);
                guard.checkpoint(10, 0)
            },
        )
        .unwrap_err();
        assert_eq!(err.kind, LimitKind::SolutionRows);
        assert!(hits.load(Ordering::Relaxed) < 1000, "the trip must cut the run short");
        assert_eq!(guard.surface().unwrap_err().kind, LimitKind::SolutionRows);
    }
}
