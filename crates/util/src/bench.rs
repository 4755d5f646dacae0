//! Coarse wall-clock timing for the experiment suite: `bench_all` times
//! each experiment and the whole run with a [`Stopwatch`] and prints the
//! result with [`fmt_ns`]. Performance itself is measured by the
//! `benchmark/` package, not here.

use std::time::Instant;

/// Human-readable wall time: picks ns/us/ms/s to keep 3-4 significant
/// digits. (The implementation lives in `dbp_obs::table` so the profiler
/// tables can use it too; re-exported here for callers that predate the
/// move.)
pub use dbp_obs::table::fmt_ns;

/// A wall-clock stopwatch for coarse phase timing (suite experiments,
/// whole-run totals) — start it, do the work, read `elapsed_ns`.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start timing now.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch { started: Instant::now() }
    }

    /// Nanoseconds since `start`.
    #[must_use]
    pub fn elapsed_ns(&self) -> u128 {
        self.started.elapsed().as_nanos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
    }
}
