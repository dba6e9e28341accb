//! Cooperative resource limits: one budget config, one runtime guard.
//!
//! An interactive endpoint cannot afford an unbounded property-path closure
//! or a cartesian-product BGP: work must notice it has exhausted its budget
//! and return a structured error instead of hanging. [`EvalLimits`] is the
//! declarative budget (every limit defaults to "unlimited") and
//! [`LimitGuard`] is its runtime counterpart. One guard serves a whole
//! request: the query plan, its `EXISTS` and sub-select scopes, and every
//! facet unit charge and probe the same object.
//!
//! Checks are cooperative:
//! * hot loops count into a local [`Tally`], which reaches the guard every
//!   `TALLY_FLUSH` (512) units and probes the deadline and the cancel flag
//!   then;
//! * join and fold loops probe once per morsel of rows and facet units
//!   once per unit ([`LimitGuard::probe`]), and charge what they produced
//!   with [`LimitGuard::checkpoint`];
//! * contexts with no error channel (a `FILTER` expression, an `ORDER BY`
//!   comparator) use [`LimitGuard::soft_tripped`]: the trip is recorded in
//!   the guard and surfaced as a hard error at the next checkpoint that can
//!   return one.
//!
//! Every trip is recorded in the guard and sticks. The error a tripped
//! guard reports is read from its totals, rows before bytes, and only then
//! from the first recorded trip, so a budget overrun surfaces as the same
//! `(kind, limit)` pair whichever loop hit it first.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A cooperative cancellation token: a shared flag the owner (typically the
/// server's connection handler) raises to make in-flight work stop at its
/// next probe. Clones share the flag; raising it is one relaxed atomic
/// store, so it is safe to call from any thread — a disconnect watcher, a
/// drain loop, a signal handler.
#[derive(Debug, Clone, Default)]
pub struct CancelFlag(Arc<AtomicBool>);

impl CancelFlag {
    /// A fresh, unraised flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raise the flag: work carrying this flag stops at its next probe.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Two flags are equal when they are the *same* flag (clones of one token).
impl PartialEq for CancelFlag {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for CancelFlag {}

/// Which budget a piece of work exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LimitKind {
    /// Wall-clock deadline for the whole evaluation.
    Deadline,
    /// Total intermediate/solution rows produced.
    SolutionRows,
    /// Property-path node expansions (closure BFS and sequence joins).
    PathVisits,
    /// Nesting depth of group patterns and subqueries.
    RecursionDepth,
    /// Estimated bytes of materialized intermediate state.
    MemoryBytes,
    /// The work was cancelled from outside (client disconnect, server
    /// drain) via a [`CancelFlag`].
    Cancelled,
}

impl fmt::Display for LimitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LimitKind::Deadline => "deadline",
            LimitKind::SolutionRows => "solution rows",
            LimitKind::PathVisits => "path visits",
            LimitKind::RecursionDepth => "recursion depth",
            LimitKind::MemoryBytes => "memory bytes",
            LimitKind::Cancelled => "cancelled",
        })
    }
}

/// A tripped budget: what ran out, and its configured ceiling (the
/// deadline in milliseconds; `0` for a cancellation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LimitError {
    pub kind: LimitKind,
    pub limit: u64,
}

impl fmt::Display for LimitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "resource limit exceeded: {} (limit {})", self.kind, self.limit)
    }
}

impl std::error::Error for LimitError {}

/// Declarative evaluation budget; `None` means unlimited for that axis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalLimits {
    /// Wall-clock deadline for the whole evaluation.
    pub deadline: Option<Duration>,
    /// Maximum number of rows produced across all operators.
    pub max_rows: Option<u64>,
    /// Maximum number of property-path node expansions.
    pub max_path_visits: Option<u64>,
    /// Maximum nesting depth of groups/subqueries.
    pub max_depth: Option<u32>,
    /// Maximum estimated bytes of materialized intermediate state
    /// (solution rows and ID-space batch columns). An estimate, not an
    /// allocator measurement: it exists to stop one query from growing a
    /// multi-gigabyte join under a shared server, not to meter the heap.
    pub max_memory_bytes: Option<u64>,
    /// External cancellation token, probed at the same points as the
    /// deadline. `None` means the work cannot be cancelled.
    pub cancel: Option<CancelFlag>,
}

impl EvalLimits {
    /// No limits at all (the default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A profile for interactive serving: generous enough for every
    /// legitimate analytics query in the workload, tight enough to bound a
    /// runaway closure or cartesian product.
    pub fn interactive() -> Self {
        EvalLimits {
            deadline: Some(Duration::from_secs(10)),
            max_rows: Some(1_000_000),
            max_path_visits: Some(5_000_000),
            max_depth: Some(32),
            max_memory_bytes: Some(256 * 1024 * 1024),
            cancel: None,
        }
    }

    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    pub fn with_max_rows(mut self, n: u64) -> Self {
        self.max_rows = Some(n);
        self
    }

    pub fn with_max_path_visits(mut self, n: u64) -> Self {
        self.max_path_visits = Some(n);
        self
    }

    pub fn with_max_depth(mut self, n: u32) -> Self {
        self.max_depth = Some(n);
        self
    }

    pub fn with_max_memory_bytes(mut self, n: u64) -> Self {
        self.max_memory_bytes = Some(n);
        self
    }

    /// Attach a cancellation token: raising the (shared) flag makes the
    /// work stop at its next probe with [`LimitKind::Cancelled`].
    pub fn with_cancel(mut self, flag: CancelFlag) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// True when no limit is set on any axis (a cancel flag alone does not
    /// count: it bounds *who may stop* the work, not what it may spend).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none()
            && self.max_rows.is_none()
            && self.max_path_visits.is_none()
            && self.max_depth.is_none()
            && self.max_memory_bytes.is_none()
    }
}

impl fmt::Display for EvalLimits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_unlimited() {
            return f.write_str("unlimited");
        }
        let mut parts: Vec<String> = Vec::new();
        if let Some(d) = self.deadline {
            parts.push(format!("deadline {d:?}"));
        }
        if let Some(n) = self.max_rows {
            parts.push(format!("rows <= {n}"));
        }
        if let Some(n) = self.max_path_visits {
            parts.push(format!("path visits <= {n}"));
        }
        if let Some(n) = self.max_depth {
            parts.push(format!("depth <= {n}"));
        }
        if let Some(n) = self.max_memory_bytes {
            parts.push(format!("memory <= {n} bytes"));
        }
        if self.cancel.is_some() {
            parts.push("cancellable".to_owned());
        }
        f.write_str(&parts.join(", "))
    }
}

/// How many amortized probes ([`LimitGuard::check_deadline`],
/// [`LimitGuard::soft_tripped`]) pass between wall-clock reads.
const DEADLINE_PROBE_INTERVAL: u32 = 64;

/// Units (rows plus path visits) a [`Tally`] counts between flushes to its
/// guard: bounds both the atomic traffic and how far a blown-up loop can
/// overrun its budgets before tripping.
const TALLY_FLUSH: u64 = 512;

/// Runtime counterpart of [`EvalLimits`]: the consumption counters of one
/// request, shared by every sub-evaluation (`EXISTS` patterns and
/// subqueries draw from the same budget as the outer query).
///
/// The counters are `Relaxed` atomics: they publish no other data. The
/// first trip is published through a `OnceLock`.
#[derive(Debug)]
pub struct LimitGuard {
    limits: EvalLimits,
    start: Instant,
    rows: AtomicU64,
    path_visits: AtomicU64,
    mem_bytes: AtomicU64,
    depth: AtomicU32,
    ticks: AtomicU32,
    first_trip: OnceLock<LimitError>,
}

impl LimitGuard {
    /// Start the clock on a budget.
    pub fn new(limits: EvalLimits) -> Self {
        LimitGuard {
            limits,
            start: Instant::now(),
            rows: AtomicU64::new(0),
            path_visits: AtomicU64::new(0),
            mem_bytes: AtomicU64::new(0),
            depth: AtomicU32::new(0),
            ticks: AtomicU32::new(0),
            first_trip: OnceLock::new(),
        }
    }

    /// A guard that never trips.
    pub fn unlimited() -> Self {
        Self::new(EvalLimits::unlimited())
    }

    /// True once the attached [`CancelFlag`] (if any) has been raised.
    fn is_cancelled(&self) -> bool {
        self.limits.cancel.as_ref().is_some_and(|c| c.is_cancelled())
    }

    /// Rows charged so far.
    pub fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Path expansions charged so far.
    pub fn path_visits(&self) -> u64 {
        self.path_visits.load(Ordering::Relaxed)
    }

    /// Estimated bytes of materialized state charged so far.
    pub fn memory_bytes(&self) -> u64 {
        self.mem_bytes.load(Ordering::Relaxed)
    }

    /// Charge `rows` produced rows and `bytes` estimated bytes of
    /// materialized state. Monotonic: work charges what it materializes
    /// and never refunds — the memory budget bounds the *high-water*
    /// estimate, which is what protects a shared server. One atomic add per
    /// non-zero axis, so call it per block or per morsel, not per row.
    pub fn charge(&self, rows: u64, bytes: u64) -> Result<(), LimitError> {
        if rows > 0 {
            let total = self.rows.fetch_add(rows, Ordering::Relaxed) + rows;
            if let Some(max) = self.limits.max_rows.filter(|&max| total > max) {
                return Err(self.trip(LimitKind::SolutionRows, max));
            }
        }
        if bytes > 0 {
            let total = self.mem_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
            if let Some(max) = self.limits.max_memory_bytes.filter(|&max| total > max) {
                return Err(self.trip(LimitKind::MemoryBytes, max));
            }
        }
        Ok(())
    }

    /// Charge `n` property-path node expansions.
    fn charge_visits(&self, n: u64) -> Result<(), LimitError> {
        let total = self.path_visits.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(max) = self.limits.max_path_visits.filter(|&max| total > max) {
            return Err(self.trip(LimitKind::PathVisits, max));
        }
        Ok(())
    }

    /// Probe, then charge: the morsel-boundary checkpoint.
    pub fn checkpoint(&self, rows: u64, bytes: u64) -> Result<(), LimitError> {
        self.probe()?;
        self.charge(rows, bytes)
    }

    /// A local counter for a hot loop over this guard.
    pub fn tally(&self, row_bytes: u64) -> Tally<'_> {
        Tally { guard: self, row_bytes, rows: 0, visits: 0 }
    }

    /// Record a trip (the first one sticks) and return the guard's verdict.
    fn trip(&self, kind: LimitKind, limit: u64) -> LimitError {
        let first = *self.first_trip.get_or_init(|| LimitError { kind, limit });
        self.verdict(first)
    }

    /// The error a tripped guard reports: a row or byte budget its totals
    /// overran, rows first, else the first trip recorded: the verdict reads
    /// the totals, not the order in which the charges tripped.
    fn verdict(&self, first: LimitError) -> LimitError {
        if let Some(max) = self.limits.max_rows.filter(|&max| self.rows() > max) {
            return LimitError { kind: LimitKind::SolutionRows, limit: max };
        }
        if let Some(max) = self.limits.max_memory_bytes.filter(|&max| self.memory_bytes() > max) {
            return LimitError { kind: LimitKind::MemoryBytes, limit: max };
        }
        first
    }

    /// Re-raise a limit that already tripped — possibly in a context with no
    /// error channel, like a `FILTER` closure.
    pub fn surface(&self) -> Result<(), LimitError> {
        match self.first_trip.get() {
            Some(&first) => Err(self.verdict(first)),
            None => Ok(()),
        }
    }

    /// Probe the cancel flag and the wall-clock deadline now: once per
    /// morsel, unit or tally flush.
    pub fn probe(&self) -> Result<(), LimitError> {
        self.surface()?;
        if self.is_cancelled() {
            return Err(self.trip(LimitKind::Cancelled, 0));
        }
        if let Some(d) = self.limits.deadline {
            if self.start.elapsed() > d {
                return Err(self.trip(LimitKind::Deadline, d.as_millis() as u64));
            }
        }
        Ok(())
    }

    /// One amortized tick: true once every `DEADLINE_PROBE_INTERVAL` calls
    /// when there is a deadline or a cancel flag to probe. A relaxed load
    /// and store, not a read-modify-write: concurrent callers may lose a
    /// tick, which only shifts when the next probe happens.
    fn tick(&self) -> bool {
        if self.limits.deadline.is_none() && self.limits.cancel.is_none() {
            return false;
        }
        let t = self.ticks.load(Ordering::Relaxed).wrapping_add(1);
        self.ticks.store(t, Ordering::Relaxed);
        t.is_multiple_of(DEADLINE_PROBE_INTERVAL)
    }

    /// Probe the deadline and the cancellation flag, amortised: the clock
    /// and the flag are read once per `DEADLINE_PROBE_INTERVAL` calls, so a
    /// per-row caller pays a couple of relaxed loads.
    pub fn check_deadline(&self) -> Result<(), LimitError> {
        self.surface()?;
        if self.tick() {
            self.probe()?;
        }
        Ok(())
    }

    /// Count one produced row of estimated size `bytes`, with an amortized
    /// deadline probe: exact per-row accounting for row-at-a-time
    /// evaluators. Vectorized loops count into a [`Tally`] instead.
    pub fn count_row_bytes(&self, bytes: u64) -> Result<(), LimitError> {
        self.charge(1, bytes)?;
        self.check_deadline()
    }

    /// Enter one nesting level (group pattern / subquery). The returned
    /// scope decrements the depth when dropped.
    pub fn enter(&self) -> Result<DepthScope<'_>, LimitError> {
        self.surface()?;
        let d = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        // built before the check, so the error path unwinds the level too
        let scope = DepthScope { depth: &self.depth };
        if let Some(max) = self.limits.max_depth.filter(|&max| d > max) {
            return Err(self.trip(LimitKind::RecursionDepth, max.into()));
        }
        Ok(scope)
    }

    /// Deadline probe for contexts that cannot return an error: reports
    /// `true` once any limit has tripped (recording a deadline or cancel
    /// trip if one just happened). The caller should bail out cheaply; the
    /// trip is surfaced by the next [`LimitGuard::surface`] checkpoint.
    pub fn soft_tripped(&self) -> bool {
        self.first_trip.get().is_some() || (self.tick() && self.probe().is_err())
    }
}

/// RAII scope for one recursion level; decrements the shared depth counter
/// on drop so early returns (including `?`) unwind it correctly.
pub struct DepthScope<'a> {
    depth: &'a AtomicU32,
}

impl Drop for DepthScope<'_> {
    fn drop(&mut self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A hot loop's local share of a [`LimitGuard`]: rows (each of a fixed
/// estimated size) and path visits count here, and reach the guard every
/// `TALLY_FLUSH` (512) units, when the deadline and the cancel flag are
/// probed too. Call [`Tally::flush`] when the loop ends: what is still pending is
/// charged only then.
pub struct Tally<'g> {
    guard: &'g LimitGuard,
    row_bytes: u64,
    rows: u64,
    visits: u64,
}

impl Tally<'_> {
    /// Count one produced row.
    pub fn add_row(&mut self) -> Result<(), LimitError> {
        self.rows += 1;
        self.flush_if_due()
    }

    /// Count one property-path node expansion.
    pub fn add_visit(&mut self) -> Result<(), LimitError> {
        self.visits += 1;
        self.flush_if_due()
    }

    fn flush_if_due(&mut self) -> Result<(), LimitError> {
        if self.rows + self.visits >= TALLY_FLUSH {
            return self.flush();
        }
        Ok(())
    }

    /// Probe the guard and charge it everything pending.
    pub fn flush(&mut self) -> Result<(), LimitError> {
        let (rows, visits) = (std::mem::take(&mut self.rows), std::mem::take(&mut self.visits));
        self.guard.checkpoint(rows, rows * self.row_bytes)?;
        if visits > 0 {
            self.guard.charge_visits(visits)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err(kind: LimitKind, limit: u64) -> LimitError {
        LimitError { kind, limit }
    }

    #[test]
    fn unlimited_never_trips() {
        let g = LimitGuard::unlimited();
        let mut tally = g.tally(16);
        for _ in 0..10_000 {
            g.count_row_bytes(16).unwrap();
            tally.add_row().unwrap();
            tally.add_visit().unwrap();
        }
        tally.flush().unwrap();
        assert!(g.surface().is_ok());
        assert!(!g.soft_tripped());
        assert_eq!(g.rows(), 20_000);
        assert_eq!(g.path_visits(), 10_000);
    }

    #[test]
    fn row_limit_trips_and_sticks() {
        let g = LimitGuard::new(EvalLimits::default().with_max_rows(10));
        for _ in 0..10 {
            g.count_row_bytes(0).unwrap();
        }
        assert_eq!(g.count_row_bytes(0).unwrap_err(), err(LimitKind::SolutionRows, 10));
        // once tripped, every checkpoint re-raises
        assert!(g.surface().is_err());
        assert!(g.check_deadline().is_err());
        assert!(g.probe().is_err());
        assert!(g.soft_tripped());
    }

    #[test]
    fn a_tally_trips_the_path_visit_limit_by_its_final_flush() {
        let g = LimitGuard::new(EvalLimits::default().with_max_path_visits(3));
        let mut tally = g.tally(0);
        for _ in 0..4 {
            tally.add_visit().unwrap(); // pending until the flush
        }
        assert_eq!(tally.flush().unwrap_err(), err(LimitKind::PathVisits, 3));
        assert_eq!(g.path_visits(), 4);
        assert!(g.surface().is_err());
    }

    #[test]
    fn a_tally_flushes_every_interval() {
        let g = LimitGuard::new(EvalLimits::default().with_max_rows(TALLY_FLUSH));
        let mut tally = g.tally(8);
        for _ in 0..TALLY_FLUSH {
            tally.add_row().unwrap();
        }
        assert_eq!(g.rows(), TALLY_FLUSH, "the interval-th unit flushes");
        assert_eq!(g.memory_bytes(), TALLY_FLUSH * 8);
        for _ in 1..TALLY_FLUSH {
            tally.add_row().unwrap();
        }
        let e = tally.add_row().unwrap_err();
        assert_eq!(e, err(LimitKind::SolutionRows, TALLY_FLUSH));
    }

    #[test]
    fn deadline_trips_within_probe_interval() {
        let g = LimitGuard::new(EvalLimits::default().with_deadline(Duration::from_millis(1)));
        std::thread::sleep(Duration::from_millis(5));
        let mut tripped = None;
        for _ in 0..=DEADLINE_PROBE_INTERVAL {
            if let Err(e) = g.check_deadline() {
                tripped = Some(e);
                break;
            }
        }
        assert_eq!(tripped, Some(err(LimitKind::Deadline, 1)));
        // the unamortized probe sees it at once
        let fresh = LimitGuard::new(EvalLimits::default().with_deadline(Duration::ZERO));
        assert_eq!(fresh.probe().unwrap_err().kind, LimitKind::Deadline);
    }

    #[test]
    fn depth_scope_unwinds() {
        let g = LimitGuard::new(EvalLimits::default().with_max_depth(2));
        let a = g.enter().unwrap();
        {
            let _b = g.enter().unwrap();
            assert!(g.enter().is_err()); // third level exceeds the budget
        }
        drop(a);
        // tripped is sticky even after the scopes unwind
        assert!(g.enter().is_err());
    }

    #[test]
    fn depth_scope_allows_reentry_when_not_tripped() {
        let g = LimitGuard::new(EvalLimits::default().with_max_depth(1));
        {
            let _a = g.enter().unwrap();
        }
        // sibling scope at the same level is fine
        assert!(g.enter().is_ok());
    }

    #[test]
    fn memory_limit_trips_and_sticks() {
        let g = LimitGuard::new(EvalLimits::default().with_max_memory_bytes(1000));
        for _ in 0..10 {
            g.charge(0, 100).unwrap();
        }
        assert_eq!(g.memory_bytes(), 1000);
        assert_eq!(g.charge(0, 1).unwrap_err(), err(LimitKind::MemoryBytes, 1000));
        assert!(g.surface().is_err());
        assert!(g.soft_tripped());
    }

    #[test]
    fn count_row_bytes_draws_from_both_budgets() {
        let g = LimitGuard::new(
            EvalLimits::default().with_max_rows(100).with_max_memory_bytes(250),
        );
        g.count_row_bytes(100).unwrap();
        g.count_row_bytes(100).unwrap();
        assert_eq!(g.count_row_bytes(100).unwrap_err(), err(LimitKind::MemoryBytes, 250));
    }

    #[test]
    fn cancel_flag_trips_within_probe_interval_and_sticks() {
        let flag = CancelFlag::new();
        let g = LimitGuard::new(EvalLimits::default().with_cancel(flag.clone()));
        for _ in 0..1_000 {
            g.check_deadline().unwrap();
        }
        flag.cancel();
        let mut tripped = None;
        for _ in 0..=DEADLINE_PROBE_INTERVAL {
            if let Err(e) = g.check_deadline() {
                tripped = Some(e);
                break;
            }
        }
        assert_eq!(tripped, Some(err(LimitKind::Cancelled, 0)));
        // sticky like every other trip
        assert!(g.surface().is_err());
        assert!(g.soft_tripped());
    }

    #[test]
    fn cancel_flag_is_shared_across_clones() {
        let flag = CancelFlag::new();
        let clone = flag.clone();
        assert_eq!(flag, clone);
        assert_ne!(flag, CancelFlag::new());
        clone.cancel();
        assert!(flag.is_cancelled());
        let g = LimitGuard::new(EvalLimits::default().with_cancel(flag));
        assert!(g.is_cancelled());
        // soft probe records the trip too (FILTER / ORDER BY contexts)
        let tripped = (0..=DEADLINE_PROBE_INTERVAL).any(|_| g.soft_tripped());
        assert!(tripped);
        assert_eq!(g.surface().unwrap_err().kind, LimitKind::Cancelled);
    }

    /// Scoped threads charging one guard: the totals are exact, and once
    /// both budgets are overrun the surfaced kind is rows before bytes,
    /// whichever thread recorded the first trip.
    #[test]
    fn threads_charge_one_guard_exactly_and_rows_outrank_bytes() {
        const THREADS: u64 = 8;
        const CHARGES: u64 = 1_000;
        let g = LimitGuard::unlimited();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let mut tally = g.tally(3);
                    for i in 0..CHARGES {
                        g.charge(1, 2).unwrap();
                        tally.add_row().unwrap();
                        if i % 2 == 0 {
                            tally.add_visit().unwrap();
                        }
                    }
                    tally.flush().unwrap();
                });
            }
        });
        assert_eq!(g.rows(), 2 * THREADS * CHARGES);
        assert_eq!(g.memory_bytes(), THREADS * CHARGES * (2 + 3));
        assert_eq!(g.path_visits(), THREADS * CHARGES / 2);

        let limits = EvalLimits::default().with_max_rows(100).with_max_memory_bytes(100);
        for _ in 0..20 {
            let g = LimitGuard::new(limits.clone());
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let g = &g;
                    s.spawn(move || {
                        // even threads overrun bytes, odd ones rows
                        let (rows, bytes) = if t % 2 == 0 { (0, 30) } else { (30, 0) };
                        for _ in 0..10 {
                            let _ = g.charge(rows, bytes);
                        }
                    });
                }
            });
            assert!(g.rows() > 100 && g.memory_bytes() > 100);
            assert_eq!(g.surface().unwrap_err(), err(LimitKind::SolutionRows, 100));
        }
    }

    #[test]
    fn rows_outrank_a_recorded_deadline_trip() {
        // when a row budget and a wall-clock source both trip, the surfaced
        // verdict is the deterministic one
        let g = LimitGuard::new(
            EvalLimits::default().with_deadline(Duration::ZERO).with_max_rows(5),
        );
        assert_eq!(g.probe().unwrap_err().kind, LimitKind::Deadline);
        let _ = g.charge(6, 0);
        assert_eq!(g.surface().unwrap_err(), err(LimitKind::SolutionRows, 5));
    }

    #[test]
    fn limits_display() {
        assert_eq!(EvalLimits::unlimited().to_string(), "unlimited");
        let l = EvalLimits::default()
            .with_deadline(Duration::from_millis(100))
            .with_max_rows(5);
        assert_eq!(l.to_string(), "deadline 100ms, rows <= 5");
        assert_eq!(
            err(LimitKind::PathVisits, 7).to_string(),
            "resource limit exceeded: path visits (limit 7)"
        );
    }
}
