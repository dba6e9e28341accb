//! The worker-count rule: how many threads a parallel region gets.
//!
//! Callers carry a plain `threads: usize` request (`0` = auto) and resolve
//! it here against the size of the work, so every parallel region in the
//! workspace agrees on defaults and on small-input behaviour. The count
//! never changes *what* is computed — the morsel runtime merges in morsel
//! order — only how fast.

/// The requested thread count with `0` resolved to the machine's available
/// parallelism. An explicit count is honoured as given — the morsel
/// scheduler tolerates more workers than cores (idle workers just stop
/// stealing), and differential tests rely on forcing the parallel path on
/// single-core boxes. Callers with measured oversubscription penalties
/// (bulk ingest) apply their own availability cap on top.
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

/// The worker count for a morsel run of `n_morsels`: serial below the
/// [`crate::MIN_PARALLEL_MORSELS`] work floor (tiny inputs lose more to
/// spawn + merge than the fan-out saves), otherwise one worker per morsel up
/// to the resolved thread count.
pub fn morsel_workers(threads: usize, n_morsels: usize) -> usize {
    if n_morsels < crate::MIN_PARALLEL_MORSELS {
        return 1;
    }
    workers_for(threads, n_morsels, 1)
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

    #[test]
    fn morsel_workers_fall_back_to_serial_below_the_floor() {
        for n in 0..crate::MIN_PARALLEL_MORSELS {
            assert_eq!(morsel_workers(8, n), 1, "{n} morsels must run serial");
        }
        assert_eq!(morsel_workers(8, crate::MIN_PARALLEL_MORSELS), 4);
        assert_eq!(morsel_workers(8, 1000), 8);
    }
}
