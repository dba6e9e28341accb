//! Deterministic crash injection for the persistence layer.
//!
//! Every labeled point in the WAL and checkpoint write paths calls
//! [`CrashInjector::check`]. When the injector is armed for that point the
//! call returns [`PersistError::InjectedCrash`]; the caller stops writing
//! *immediately* — leaving a torn header, a half-written record, an
//! un-renamed temp file, whatever the label sits between — and the handle is
//! poisoned so nothing can "finish the job" afterwards. Reopening the
//! directory then exercises recovery exactly as a process kill would.
//!
//! Arming is config-driven ([`CrashInjector::at`]) for the test matrix, or
//! env-driven for CI sweeps:
//!
//! - `RDFA_CRASHPOINT=<label>[:<nth>]` — crash the `nth` (default first)
//!   time `<label>` is reached;
//! - `RDFA_CRASHPOINT=sample[:<prob>]` with `RDFA_CRASHPOINT_SEED=<seed>` —
//!   every check fires with probability `prob` (default 0.02), scheduled by
//!   `rdfa-prng` so a seed reproduces the exact same crash.

use super::PersistError;
use rdfa_prng::StdRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Every labeled crash point in the persistence layer, in the order they
/// occur on the write paths. The crash-matrix test iterates this list.
pub const CRASH_POINTS: &[&str] = &[
    "wal.append.header",
    "wal.append.torn-body",
    "wal.append.body",
    "wal.append.synced",
    "checkpoint.begin",
    "segment.header",
    "segment.torn-block",
    "segment.written",
    "manifest.written",
    "manifest.rename",
    "checkpoint.wal-created",
    "checkpoint.current",
    "checkpoint.cleanup",
];

#[derive(Debug, Clone)]
enum Mode {
    Off,
    /// Fire the `nth` time `label` is reached (1-based).
    At { label: String, nth: u64 },
    /// Fire any check with probability `prob`, deterministically from `seed`.
    Sample { seed: u64, prob: f64 },
}

/// The crash-point hook shared by a store's WAL and checkpoint writers.
#[derive(Debug)]
pub struct CrashInjector {
    mode: Mode,
    hits: AtomicU64,
}

impl CrashInjector {
    /// Never fires.
    pub fn off() -> Arc<CrashInjector> {
        Arc::new(CrashInjector { mode: Mode::Off, hits: AtomicU64::new(0) })
    }

    /// Fire the `nth` (1-based) time `label` is reached.
    pub fn at(label: &str, nth: u64) -> Arc<CrashInjector> {
        Arc::new(CrashInjector {
            mode: Mode::At { label: label.to_owned(), nth: nth.max(1) },
            hits: AtomicU64::new(0),
        })
    }

    /// Fire any labeled point with probability `prob`, scheduled by `seed`.
    pub fn sampled(seed: u64, prob: f64) -> Arc<CrashInjector> {
        Arc::new(CrashInjector {
            mode: Mode::Sample { seed, prob: prob.clamp(0.0, 1.0) },
            hits: AtomicU64::new(0),
        })
    }

    /// Build from `RDFA_CRASHPOINT` / `RDFA_CRASHPOINT_SEED`; off when the
    /// variable is unset or unparsable.
    pub fn from_env() -> Arc<CrashInjector> {
        let Ok(spec) = std::env::var("RDFA_CRASHPOINT") else {
            return CrashInjector::off();
        };
        let spec = spec.trim();
        if spec.is_empty() {
            return CrashInjector::off();
        }
        let seed = std::env::var("RDFA_CRASHPOINT_SEED")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(42);
        if let Some(rest) = spec.strip_prefix("sample") {
            let prob = rest
                .strip_prefix(':')
                .and_then(|p| p.parse().ok())
                .unwrap_or(0.02);
            return CrashInjector::sampled(seed, prob);
        }
        match spec.split_once(':') {
            Some((label, nth)) => CrashInjector::at(label, nth.parse().unwrap_or(1)),
            None => CrashInjector::at(spec, 1),
        }
    }

    /// Called at a labeled point; `Err(InjectedCrash)` means "the process
    /// died here" — the caller must stop writing and poison itself.
    pub fn check(&self, point: &'static str) -> Result<(), PersistError> {
        match &self.mode {
            Mode::Off => Ok(()),
            Mode::At { label, nth } => {
                if label == point {
                    let n = self.hits.fetch_add(1, Ordering::SeqCst) + 1;
                    if n == *nth {
                        return Err(PersistError::InjectedCrash { point });
                    }
                }
                Ok(())
            }
            Mode::Sample { seed, prob } => {
                let n = self.hits.fetch_add(1, Ordering::SeqCst) + 1;
                let mut rng = StdRng::seed_from_u64(
                    seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ fnv1a(point),
                );
                if rng.gen_bool(*prob) {
                    return Err(PersistError::InjectedCrash { point });
                }
                Ok(())
            }
        }
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_fires_exactly_on_nth_hit() {
        let inj = CrashInjector::at("wal.append.body", 3);
        assert!(inj.check("wal.append.body").is_ok());
        assert!(inj.check("segment.header").is_ok()); // other labels don't count
        assert!(inj.check("wal.append.body").is_ok());
        assert!(matches!(
            inj.check("wal.append.body"),
            Err(PersistError::InjectedCrash { point: "wal.append.body" })
        ));
        // fires once, like a process death followed by a restart
        assert!(inj.check("wal.append.body").is_ok());
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let run = |seed| {
            let inj = CrashInjector::sampled(seed, 0.3);
            (0..64)
                .map(|i| inj.check(CRASH_POINTS[i % CRASH_POINTS.len()]).is_err())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
        assert!(run(7).iter().any(|&fired| fired));
    }
}
