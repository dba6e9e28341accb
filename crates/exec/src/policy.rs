//! The unified execution policy: one knob surface for every parallel
//! region in the workspace.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A cooperative cancellation token: a shared flag the owner (typically the
/// server's connection handler) raises to make in-flight work stop at its
/// next probe. Clones share the flag; raising it is one relaxed atomic
/// store, so it is safe to call from any thread — a disconnect watcher, a
/// drain loop, a signal handler.
///
/// Cancellation is observed at morsel boundaries and at the same points a
/// deadline is probed, so a cancelled query stops within the same latency
/// bound as an expired one.
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

/// How a piece of work may spend machine resources: worker threads, wall
/// clock, memory, and who may stop it. One `ExecPolicy` travels from the
/// API surface (`Engine::builder(..).policy(..)`, `FacetOptions`,
/// `LoadOptions`) down to every scheduler decision, replacing the
/// per-subsystem `threads`/`deadline` fields that used to disagree about
/// defaults and small-input behaviour.
///
/// The policy never changes *what* is computed — worker counts are resolved
/// from the input size alone (see [`ExecPolicy::workers_for`]) and the
/// morsel runtime merges in morsel order — only how fast, and when the work
/// is abandoned.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecPolicy {
    /// Worker threads. `0` (the default) uses the machine's available
    /// parallelism; explicit values are honoured as requested (tests force
    /// the parallel path on small boxes this way) but still scaled down
    /// when the input is too small for the fan-out to pay for itself.
    pub threads: usize,
    /// Wall-clock deadline for the whole unit of work.
    pub deadline: Option<Duration>,
    /// Budget for estimated bytes of materialized intermediate state.
    pub max_memory_bytes: Option<u64>,
    /// External cancellation token, probed at morsel boundaries. `None`
    /// means the work cannot be cancelled.
    pub cancel: Option<CancelFlag>,
}

impl ExecPolicy {
    /// The default policy: auto thread count, no deadline, no budgets.
    pub fn new() -> Self {
        Self::default()
    }

    /// A policy pinned to one worker — parallel regions run inline.
    pub fn serial() -> Self {
        ExecPolicy { threads: 1, ..Self::default() }
    }

    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.max_memory_bytes = Some(bytes);
        self
    }

    pub fn with_cancel(mut self, flag: CancelFlag) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// The requested thread count with `0` resolved to the machine's
    /// available parallelism. An explicit count is honoured as given — the
    /// morsel scheduler tolerates more workers than cores (idle workers
    /// just stop stealing), and differential tests rely on forcing the
    /// parallel path on single-core boxes. Callers with measured
    /// oversubscription penalties (bulk ingest, BENCH_5) apply their own
    /// availability cap on top.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.threads
        }
    }

    /// Resolve the worker count for `work` units where each worker needs at
    /// least `floor` units to pay for its spawn + merge cost: the resolved
    /// thread count capped by `work / floor`. Never zero. The result
    /// depends only on the policy and the input size, so callers that
    /// derive work splits from it stay deterministic.
    pub fn workers_for(&self, work: usize, floor: usize) -> usize {
        let work_cap = (work / floor.max(1)).max(1);
        self.resolved_threads().min(work_cap).max(1)
    }

    /// Worker count for a morsel run of `n_morsels`: serial below the
    /// [`crate::MIN_PARALLEL_MORSELS`] work floor (tiny inputs lose more to
    /// spawn + merge than the fan-out saves),
    /// otherwise one worker per morsel up to the resolved thread count.
    pub fn morsel_workers(&self, n_morsels: usize) -> usize {
        if n_morsels < crate::MIN_PARALLEL_MORSELS {
            return 1;
        }
        self.workers_for(n_morsels, 1)
    }
}

impl fmt::Display for ExecPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        parts.push(match self.threads {
            0 => "threads auto".to_owned(),
            n => format!("threads {n}"),
        });
        if let Some(d) = self.deadline {
            parts.push(format!("deadline {d:?}"));
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_flag_is_shared_across_clones() {
        let flag = CancelFlag::new();
        let clone = flag.clone();
        assert_eq!(flag, clone);
        assert_ne!(flag, CancelFlag::new());
        clone.cancel();
        assert!(flag.is_cancelled());
    }

    #[test]
    fn workers_respect_the_work_floor() {
        let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let auto = ExecPolicy::new();
        assert_eq!(auto.resolved_threads(), avail);
        // explicit requests are honoured even beyond availability
        assert_eq!(ExecPolicy::new().with_threads(64).resolved_threads(), 64);
        // tiny input: even an explicit request collapses to 1
        assert_eq!(ExecPolicy::new().with_threads(8).workers_for(100, 64 * 1024), 1);
        // big-enough input: request honoured
        assert_eq!(
            ExecPolicy::new().with_threads(2).workers_for(10 * 64 * 1024, 64 * 1024),
            2
        );
        // never zero, even for zero work
        assert_eq!(ExecPolicy::serial().workers_for(0, 1), 1);
    }

    #[test]
    fn morsel_workers_fall_back_to_serial_below_the_floor() {
        let p = ExecPolicy::new().with_threads(8);
        for n in 0..crate::MIN_PARALLEL_MORSELS {
            assert_eq!(p.morsel_workers(n), 1, "{n} morsels must run serial");
        }
        assert_eq!(p.morsel_workers(crate::MIN_PARALLEL_MORSELS), 4);
        assert_eq!(p.morsel_workers(1000), 8);
    }

    #[test]
    fn policy_display() {
        assert_eq!(ExecPolicy::new().to_string(), "threads auto");
        let p = ExecPolicy::serial()
            .with_deadline(Duration::from_millis(100))
            .with_cancel(CancelFlag::new());
        assert_eq!(p.to_string(), "threads 1, deadline 100ms, cancellable");
    }
}
