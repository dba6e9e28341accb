//! The work-stealing morsel scheduler and its cooperative interrupts.
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

use crate::policy::CancelFlag;
use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Rows per morsel. One size everywhere: small enough that a morsel
/// boundary (the probe point for deadlines and cancellation) arrives every
/// few microseconds even on wide rows, big enough that the per-morsel
/// dispatch (one `fetch_add`) is noise. Thread-count-independent by design.
pub const DEFAULT_MORSEL_ROWS: usize = 1024;

/// Work floor: below this many morsels a run stays serial — spawn + merge
/// overhead beats the fan-out on tiny inputs (an N-thread GROUP BY once
/// lost to one thread on ~56 k triples; this floor prevents that).
pub const MIN_PARALLEL_MORSELS: usize = 4;

/// Which budget a morsel run exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TripKind {
    /// The wall-clock deadline passed.
    Deadline,
    /// The [`CancelFlag`] was raised from outside.
    Cancelled,
    /// The shared row budget ran out.
    Rows,
    /// The shared memory budget ran out.
    Memory,
}

/// A recorded budget trip: what ran out, and the configured ceiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trip {
    pub kind: TripKind,
    pub limit: u64,
}

/// `Send + Sync` interrupt sources for a parallel region: deadline, cancel
/// flag, and shared row/byte budgets. Workers call [`Interrupt::probe`] at
/// morsel boundaries and [`Interrupt::charge`] for what each morsel
/// produced; the first trip raises a stop flag every worker observes on its
/// next dispatch, and the owner reads the verdict back with
/// [`Interrupt::trip`] after the join.
///
/// Budgets are *consumption counters* against a ceiling (not remaining
/// balances), so the owner can reconcile exactly what the region spent into
/// its own accounting afterwards via [`Interrupt::rows_used`] /
/// [`Interrupt::bytes_used`].
#[derive(Debug)]
pub struct Interrupt {
    start: Instant,
    deadline: Option<Duration>,
    cancel: Option<CancelFlag>,
    row_budget: Option<u64>,
    byte_budget: Option<u64>,
    rows_used: AtomicU64,
    bytes_used: AtomicU64,
    stop: AtomicBool,
    trip: Mutex<Option<Trip>>,
}

impl Interrupt {
    /// An interrupt bundle measuring its deadline from `start` (pass the
    /// owning guard's start so a region deep in a query doesn't get a fresh
    /// clock) with whatever budget axes apply. `None` axes never trip.
    pub fn new(
        start: Instant,
        deadline: Option<Duration>,
        cancel: Option<CancelFlag>,
        row_budget: Option<u64>,
        byte_budget: Option<u64>,
    ) -> Self {
        Interrupt {
            start,
            deadline,
            cancel,
            row_budget,
            byte_budget,
            rows_used: AtomicU64::new(0),
            bytes_used: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            trip: Mutex::new(None),
        }
    }

    /// An interrupt that never trips.
    pub fn unlimited() -> Self {
        Self::new(Instant::now(), None, None, None, None)
    }

    /// Probe the deadline and the cancel flag — call once per morsel. On a
    /// trip the stop flag is raised so sibling workers bail at their next
    /// dispatch.
    pub fn probe(&self) -> Result<(), Trip> {
        if self.stop.load(Ordering::Relaxed) {
            // a sibling already tripped; surface the recorded verdict
            if let Some(t) = *self.trip.lock().expect("trip lock") {
                return Err(t);
            }
            return Ok(());
        }
        if self.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            return Err(self.record(TripKind::Cancelled, 0));
        }
        if let Some(d) = self.deadline {
            if self.start.elapsed() > d {
                return Err(self.record(TripKind::Deadline, d.as_millis() as u64));
            }
        }
        Ok(())
    }

    /// Charge `rows` rows and `bytes` estimated bytes against the shared
    /// budgets — call once per morsel with what the morsel produced.
    pub fn charge(&self, rows: u64, bytes: u64) -> Result<(), Trip> {
        let r = self.rows_used.fetch_add(rows, Ordering::Relaxed) + rows;
        if let Some(max) = self.row_budget {
            if r > max {
                return Err(self.record(TripKind::Rows, max));
            }
        }
        let b = self.bytes_used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        if let Some(max) = self.byte_budget {
            if b > max {
                return Err(self.record(TripKind::Memory, max));
            }
        }
        Ok(())
    }

    /// Probe + charge in one call — the usual morsel-boundary checkpoint.
    pub fn checkpoint(&self, rows: u64, bytes: u64) -> Result<(), Trip> {
        self.probe()?;
        self.charge(rows, bytes)
    }

    /// Ask every worker to stop at its next dispatch without recording a
    /// trip (the error itself travels through the scheduler's error slot).
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// True once a trip or an external stop has been requested.
    pub fn should_stop(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Rows charged so far, for the owner to reconcile after the join.
    pub fn rows_used(&self) -> u64 {
        self.rows_used.load(Ordering::Relaxed)
    }

    /// Bytes charged so far, for the owner to reconcile after the join.
    pub fn bytes_used(&self) -> u64 {
        self.bytes_used.load(Ordering::Relaxed)
    }

    /// The verdict after the join. Budget trips are re-derived from the
    /// totals (row budget checked before byte budget), so when a bounded
    /// axis is the binding constraint the surfaced kind is the same at
    /// every thread count even though *which worker* tripped first is not.
    pub fn trip(&self) -> Option<Trip> {
        if let Some(max) = self.row_budget {
            if self.rows_used.load(Ordering::Relaxed) > max {
                return Some(Trip { kind: TripKind::Rows, limit: max });
            }
        }
        if let Some(max) = self.byte_budget {
            if self.bytes_used.load(Ordering::Relaxed) > max {
                return Some(Trip { kind: TripKind::Memory, limit: max });
            }
        }
        *self.trip.lock().expect("trip lock")
    }

    fn record(&self, kind: TripKind, limit: u64) -> Trip {
        self.stop.store(true, Ordering::Relaxed);
        let mut slot = self.trip.lock().expect("trip lock");
        if slot.is_none() {
            *slot = Some(Trip { kind, limit });
        }
        slot.expect("trip recorded")
    }
}

/// Run `n_morsels` morsels over `workers` threads and return the per-morsel
/// results **in morsel order**.
///
/// * `make_state(worker)` builds one thread-local scratch value per worker —
///   arenas, hash tables, whatever the chain reuses across its morsels.
/// * `work(state, morsel)` processes one morsel. The closure owns its probe
///   discipline: check an [`Interrupt`] and map a [`Trip`] into `E`.
///
/// With `workers <= 1` (or a single morsel) everything runs inline on the
/// caller's thread — same closures, same order, no spawn. Since worker
/// counts come from [`crate::ExecPolicy::morsel_workers`] (input-size-driven)
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
    fn interrupt_row_budget_trips_once_exceeded() {
        let intr = Interrupt::new(Instant::now(), None, None, Some(10), None);
        assert!(intr.charge(10, 0).is_ok());
        let trip = intr.charge(1, 0).unwrap_err();
        assert_eq!(trip, Trip { kind: TripKind::Rows, limit: 10 });
        assert!(intr.should_stop());
        assert_eq!(intr.trip(), Some(trip));
        assert_eq!(intr.rows_used(), 11);
    }

    #[test]
    fn interrupt_byte_budget_trips() {
        let intr = Interrupt::new(Instant::now(), None, None, None, Some(100));
        assert!(intr.checkpoint(5, 60).is_ok());
        let trip = intr.checkpoint(5, 60).unwrap_err();
        assert_eq!(trip, Trip { kind: TripKind::Memory, limit: 100 });
    }

    #[test]
    fn interrupt_cancel_and_deadline_probe() {
        let flag = CancelFlag::new();
        let intr =
            Interrupt::new(Instant::now(), None, Some(flag.clone()), None, None);
        assert!(intr.probe().is_ok());
        flag.cancel();
        assert_eq!(intr.probe().unwrap_err().kind, TripKind::Cancelled);

        let expired = Interrupt::new(
            Instant::now() - Duration::from_secs(1),
            Some(Duration::from_millis(1)),
            None,
            None,
            None,
        );
        assert_eq!(expired.probe().unwrap_err().kind, TripKind::Deadline);
    }

    #[test]
    fn rows_trip_outranks_a_recorded_deadline_trip() {
        // when both a deterministic budget and a wall-clock source trip, the
        // surfaced verdict must be the deterministic one
        let intr = Interrupt::new(
            Instant::now() - Duration::from_secs(1),
            Some(Duration::from_millis(1)),
            None,
            Some(5),
            None,
        );
        assert_eq!(intr.probe().unwrap_err().kind, TripKind::Deadline);
        let _ = intr.charge(6, 0);
        assert_eq!(intr.trip().map(|t| t.kind), Some(TripKind::Rows));
    }

    #[test]
    fn workers_observe_a_sibling_trip_via_the_stop_flag() {
        let intr = Interrupt::new(Instant::now(), None, None, Some(100), None);
        let hits = AtomicUsize::new(0);
        let err = run_morsels::<(), (), Trip, _, _>(
            4,
            1000,
            |_| (),
            |_, _| {
                hits.fetch_add(1, Ordering::Relaxed);
                intr.checkpoint(10, 0)
            },
        )
        .unwrap_err();
        assert_eq!(err.kind, TripKind::Rows);
        assert!(hits.load(Ordering::Relaxed) < 1000, "stop flag must cut the run short");
        assert_eq!(intr.trip().map(|t| t.kind), Some(TripKind::Rows));
    }
}
