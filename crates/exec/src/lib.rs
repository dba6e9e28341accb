//! Shared execution runtime: the one runtime budget.
//!
//! [`EvalLimits`] and [`LimitGuard`] are one budget config and one `Sync`
//! guard per request (deadline, cancel flag, row, byte, path-visit and
//! depth budgets). Query evaluation, update `WHERE` clauses and facet
//! markers all charge and probe it; hot loops count into a local [`Tally`]
//! that reaches the guard in blocks.
//!
//! Nothing here spawns a thread. Queries, facet panels and bulk ingest all
//! run on the caller's thread: measured on the paper-scale workload, a
//! second worker did not pay for itself on any of them (DESIGN.md, "One
//! budget").

mod limits;

pub use limits::{CancelFlag, DepthScope, EvalLimits, LimitError, LimitGuard, LimitKind, Tally};
