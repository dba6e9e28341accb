//! The worker-count rule of bulk ingest's fan-out.
//!
//! Callers carry a plain `threads: usize` request (`0` = auto) and resolve
//! it here against the size of the work. The count never changes *what* is
//! computed — [`crate::map_ordered`] merges in item order — only how fast.

/// The requested thread count with `0` resolved to the machine's available
/// parallelism. An explicit count is honoured as given; callers with
/// measured oversubscription penalties (bulk ingest) apply their own
/// availability cap on top.
fn resolved_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// The worker count for `work` units where each worker needs at least
/// `floor` units to pay for its spawn + merge cost: the resolved thread
/// count capped by `work / floor`. Never zero. The result depends only on
/// the request and the input size, so callers that derive work splits from
/// it stay deterministic.
pub fn workers_for(threads: usize, work: usize, floor: usize) -> usize {
    let work_cap = (work / floor.max(1)).max(1);
    resolved_threads(threads).min(work_cap).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workers_respect_the_work_floor() {
        let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(resolved_threads(0), avail);
        // explicit requests are honoured even beyond availability
        assert_eq!(resolved_threads(64), 64);
        // tiny input: even an explicit request collapses to 1
        assert_eq!(workers_for(8, 100, 64 * 1024), 1);
        // big-enough input: request honoured
        assert_eq!(workers_for(2, 10 * 64 * 1024, 64 * 1024), 2);
        // never zero, even for zero work
        assert_eq!(workers_for(1, 0, 1), 1);
    }
}
