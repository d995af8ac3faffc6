//! The workspace's one clock read: a started monotonic clock that exposes
//! only durations.

use std::time::Instant;

/// A started monotonic clock, the workspace's sanctioned way to measure a
/// raw duration outside this crate. Timed *regions* use
/// [`profile::Scope`](crate::profile::Scope), which reads this clock too.
///
/// The `swh-analyze` determinism lint bans `std::time::*` inside the
/// sampling and merge crates so that no sampling *decision* can ever depend
/// on the clock; purge and segment timing instead flows through this
/// wrapper, which exposes only durations (never absolute time) and lives in
/// the observability layer below the lint boundary.
///
/// ```
/// use swh_obs::Stopwatch;
///
/// let sw = Stopwatch::start();
/// let ns = sw.elapsed_ns();
/// assert!(ns < u64::MAX);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start the clock.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since [`Stopwatch::start`], saturated to `u64`.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}
