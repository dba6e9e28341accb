//! Shared execution runtime: the morsel scheduler, the worker-count rule
//! and the one runtime budget.
//!
//! Every parallel region in the workspace — the SPARQL engine's batch
//! pipeline, the facet-marker counters, bulk ingest — runs on the same three
//! pieces:
//!
//! * [`run_morsels`] — a work-stealing morsel scheduler: workers pull
//!   fixed-size morsel indices from a shared cursor, keep thread-local
//!   scratch, and the results are merged **in morsel order**. Because the
//!   morsel geometry depends only on the input size (never on the worker
//!   count), any computation whose per-morsel result is a pure function of
//!   the morsel produces byte-identical output at every thread count.
//! * [`morsel_workers`] / [`workers_for`] — one worker-count rule: callers
//!   carry a `threads` request (`0` = auto) and resolve it against the size
//!   of the work.
//! * [`EvalLimits`] and [`LimitGuard`] — one budget config and one `Sync`
//!   guard per request (deadline, cancel flag, row, byte, path-visit and
//!   depth budgets). The owner thread, morsel workers and facet units all
//!   charge and probe the same guard, so streaming cancellation and
//!   admission control keep working under parallel execution.
//!
//! The scheduler is deliberately small: `std::thread::scope` workers over an
//! atomic cursor. No queues, no channels — a morsel either runs or the run
//! stops; per-morsel results land in their slot and are stitched together
//! sequentially afterwards, which is the single ordered merge the pipeline
//! pays instead of a barrier per operator.

mod limits;
mod morsel;
mod workers;

pub use limits::{CancelFlag, DepthScope, EvalLimits, LimitError, LimitGuard, LimitKind, Tally};
pub use morsel::{map_ordered, run_morsels, DEFAULT_MORSEL_ROWS, MIN_PARALLEL_MORSELS};
pub use workers::{morsel_workers, workers_for};
