//! The idle policy every runtime thread loop shares: after a pass with
//! no progress, yield the core for the first 63 such passes in a row,
//! then park on the thread's [`Doorbell`](gmt_net::Doorbell) until a
//! producer rings it or the loop's next deadline comes. Progress resets
//! the count.
//!
//! Every park is bounded ([`MAX_PARK`] at most), so a wake path that
//! forgot to ring costs latency, never liveness.

use std::time::Duration;

/// The longest any runtime thread parks without a deadline of its own.
pub(crate) const MAX_PARK: Duration = Duration::from_millis(100);

/// Consecutive idle passes of one thread loop.
#[derive(Default)]
pub(crate) struct Idle {
    passes: u32,
}

impl Idle {
    /// The loop made progress: the next idle pass yields again.
    pub(crate) fn reset(&mut self) {
        self.passes = 0;
    }

    /// The loop made no progress: yield while the idle streak is short,
    /// then run `park`, which parks the thread on its doorbell.
    pub(crate) fn wait(&mut self, park: impl FnOnce()) {
        self.passes = self.passes.saturating_add(1);
        if self.passes < 64 {
            std::thread::yield_now();
        } else {
            park();
        }
    }
}

/// Converts the gap from `now_ns` to a coarse-clock deadline into a park
/// timeout of at most [`MAX_PARK`]; `None` means no deadline. A deadline
/// already due gives zero: the park returns at once and the next pass
/// serves it.
pub(crate) fn park_timeout(now_ns: u64, deadline_ns: Option<u64>) -> Duration {
    deadline_ns.map_or(MAX_PARK, |d| Duration::from_nanos(d.saturating_sub(now_ns)).min(MAX_PARK))
}
