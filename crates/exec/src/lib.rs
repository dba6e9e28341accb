//! Shared execution runtime: the one runtime budget, plus the ordered
//! fan-out bulk ingest runs on.
//!
//! * [`EvalLimits`] and [`LimitGuard`] — one budget config and one `Sync`
//!   guard per request (deadline, cancel flag, row, byte, path-visit and
//!   depth budgets). Query evaluation, update `WHERE` clauses and facet
//!   markers all charge and probe it; hot loops count into a local
//!   [`Tally`] that reaches the guard in blocks.
//! * [`map_ordered`] / [`workers_for`] — bulk ingest's fan-out: a few fat
//!   units (parse chunks, sort runs, merge pairs) mapped on scoped threads
//!   and returned in item order, with one worker-count rule that resolves a
//!   `threads` request (`0` = auto) against the size of the work.
//!
//! Queries and facet panels run on one thread: measured on the paper-scale
//! workload, a second worker did not pay for itself (DESIGN.md, "One budget
//! and bulk-ingest fan-out").

mod limits;
mod morsel;
mod workers;

pub use limits::{CancelFlag, DepthScope, EvalLimits, LimitError, LimitGuard, LimitKind, Tally};
pub use morsel::map_ordered;
pub use workers::workers_for;
