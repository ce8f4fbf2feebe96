//! The runtime's one idle/wake primitive.
//!
//! A thread that runs out of work parks on its [`Doorbell`]; a thread
//! that hands it work rings the bell. The handshake is Dekker's, on two
//! words:
//!
//! * **Consumer** ([`Doorbell::park`]): read the `ticket`, publish
//!   `parked = 1`, fence, re-check for work, and only then `FUTEX_WAIT`
//!   on `ticket` with the value read *before* arming.
//! * **Producer** ([`Doorbell::ring`]), after publishing work: fence,
//!   read `parked`; if set, claim it (`swap` to 0), bump `ticket` and
//!   `FUTEX_WAKE`. If clear, the consumer is running or still before its
//!   re-check, which will see the work: no syscall.
//!
//! Either the consumer's re-check sees the work or the producer sees
//! `parked`. A ring that lands between the consumer's ticket read and
//! its wait changes the ticket, so the wait returns at once. No wake is
//! lost, and only the first producer to claim a park pays a syscall.
//!
//! Every park is bounded by a timeout, so a wake path that forgot to
//! ring costs latency, never liveness.
//!
//! The type is `repr(C)` plain atomics, so it can live inside a
//! cross-process shared-memory segment (the shm transport keeps one per
//! node slot). [`SharedBell`] is the handle type for a doorbell owned
//! elsewhere — on the heap, or inside such a segment.

use crate::sys;
use std::sync::atomic::{fence, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A futex-backed doorbell: one parked consumer, any number of
/// producers. See the module docs for the protocol.
#[repr(C)]
#[derive(Debug, Default)]
pub struct Doorbell {
    /// Futex word; bumped by every ring that claims a park.
    ticket: AtomicU32,
    /// Set while the consumer is arming or inside its futex wait.
    parked: AtomicU32,
}

/// A shareable handle on a doorbell that may live inside another
/// object (a shared-memory segment keeps its bells in node slots).
pub type SharedBell = Arc<dyn AsRef<Doorbell> + Send + Sync>;

impl AsRef<Doorbell> for Doorbell {
    fn as_ref(&self) -> &Doorbell {
        self
    }
}

impl Doorbell {
    pub const fn new() -> Self {
        Doorbell { ticket: AtomicU32::new(0), parked: AtomicU32::new(0) }
    }

    /// Producer side, after publishing work: wakes the consumer if it is
    /// parked. Returns whether this call woke it (made the syscall).
    #[inline]
    pub fn ring(&self) -> bool {
        // Pairs with the consumer's fence between `parked = 1` and its
        // re-check: either it sees our work, or we see `parked`.
        fence(Ordering::SeqCst);
        if self.parked.load(Ordering::Relaxed) == 0 || self.parked.swap(0, Ordering::SeqCst) == 0 {
            return false;
        }
        self.ticket.fetch_add(1, Ordering::SeqCst);
        sys::futex_wake(&self.ticket, i32::MAX);
        true
    }

    /// Consumer side: parks for at most `timeout` unless `has_work`,
    /// evaluated after the park is published, reports work. Returns
    /// whether the thread actually slept. Wakes may be spurious: the
    /// caller re-checks its work sources either way.
    pub fn park(&self, timeout: Duration, has_work: impl FnOnce() -> bool) -> bool {
        if timeout.is_zero() {
            return false;
        }
        let ticket = self.ticket.load(Ordering::Acquire);
        self.parked.store(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if has_work() {
            self.parked.store(0, Ordering::SeqCst);
            return false;
        }
        sys::futex_wait(&self.ticket, ticket, timeout);
        self.parked.store(0, Ordering::SeqCst);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Instant;

    #[test]
    fn ring_without_a_parked_consumer_is_free() {
        let bell = Doorbell::new();
        assert!(!bell.ring(), "nobody parked: no wake");
    }

    #[test]
    fn park_returns_at_once_when_work_is_visible() {
        let bell = Doorbell::new();
        let t0 = Instant::now();
        assert!(!bell.park(Duration::from_secs(10), || true));
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn park_times_out_without_a_ring() {
        let bell = Doorbell::new();
        let t0 = Instant::now();
        assert!(bell.park(Duration::from_millis(20), || false));
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    /// 100k producer→parked-consumer handoffs through one slot word:
    /// the consumer parks with a 10 s timeout whenever the slot is
    /// empty, so a single lost wake would stall the run for 10 s.
    #[test]
    fn no_wake_is_lost_across_100k_handoffs() {
        const HANDOFFS: u64 = 100_000;
        let bell = Arc::new(Doorbell::new());
        // 0 = empty, otherwise the handed-off value.
        let slot = Arc::new(AtomicU64::new(0));
        let t0 = Instant::now();
        let consumer = std::thread::spawn({
            let (bell, slot) = (Arc::clone(&bell), Arc::clone(&slot));
            move || {
                let mut longest = Duration::ZERO;
                for expected in 1..=HANDOFFS {
                    loop {
                        let v = slot.load(Ordering::Acquire);
                        if v != 0 {
                            assert_eq!(v, expected, "handoffs arrive in order");
                            slot.store(0, Ordering::Release);
                            break;
                        }
                        let t = Instant::now();
                        bell.park(Duration::from_secs(10), || slot.load(Ordering::Acquire) != 0);
                        longest = longest.max(t.elapsed());
                    }
                }
                longest
            }
        });
        for v in 1..=HANDOFFS {
            while slot.load(Ordering::Acquire) != 0 {
                std::hint::spin_loop();
                std::thread::yield_now();
            }
            slot.store(v, Ordering::Release);
            bell.ring();
        }
        let longest = consumer.join().expect("consumer thread");
        assert!(
            longest < Duration::from_secs(5),
            "a park lasted {longest:?}: a ring was lost and the timeout fired"
        );
        assert!(t0.elapsed() < Duration::from_secs(60));
    }
}
