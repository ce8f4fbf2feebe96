//! The idle backoff every runtime thread loop shares: after a pass
//! with no progress, yield the core for the first 63 such passes in a
//! row, then sleep 50 µs per pass until progress resets the count.

use std::time::Duration;

/// Consecutive idle passes of one thread loop.
#[derive(Default)]
pub(crate) struct IdleBackoff {
    idle: u32,
}

impl IdleBackoff {
    /// The loop made progress: the next idle pass yields again.
    pub(crate) fn reset(&mut self) {
        self.idle = 0;
    }

    /// The loop made no progress: back off.
    pub(crate) fn wait(&mut self) {
        self.idle = self.idle.saturating_add(1);
        if self.idle < 64 {
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}
