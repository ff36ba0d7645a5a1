//! Polite spin-waiting.
//!
//! Short waits in this workspace — a lock held for a few instructions, a
//! combiner finishing its round — go through [`Waiter`]: a short burst of
//! `spin_loop` hints, then `thread::yield_now`, then short sleeps. On a
//! machine with spare cores the fast path is indistinguishable from a raw
//! spin loop; on an oversubscribed machine (the common case for the
//! benchmark harness, which runs up to 96 logical workers) it lets the thread
//! holding the resource actually run.
//!
//! A wait that can last as long as a thread is idle — for the next request,
//! the next state change — does not sleep-poll here: it blocks on an event
//! instead ([`crate::Doorbell`], or `ppoll(2)` on sockets through
//! [`crate::poll`]), keeping only the spin and yield prefix
//! ([`Waiter::try_spin`]) so a thread under load picks up the next event
//! without blocking and being woken.

use std::hint;
use std::thread;
use std::time::Duration;

/// Number of `spin_loop` rounds before the waiter starts yielding.
const SPIN_LIMIT: u32 = 6;
/// Number of `yield_now` rounds before the waiter starts sleeping.
const YIELD_LIMIT: u32 = 32;
/// Sleep quantum once the waiter has given up on spinning/yielding.
const SLEEP: Duration = Duration::from_micros(50);

/// An escalating spin-waiter: spin → yield → sleep.
///
/// ```
/// use prep_sync::Waiter;
/// use std::sync::atomic::{AtomicBool, Ordering};
///
/// let flag = AtomicBool::new(true); // already set; loop exits immediately
/// let mut w = Waiter::new();
/// while !flag.load(Ordering::Acquire) {
///     w.wait();
/// }
/// ```
#[derive(Debug, Default)]
pub struct Waiter {
    step: u32,
}

impl Waiter {
    /// Creates a fresh waiter in the spinning phase.
    #[inline]
    pub fn new() -> Self {
        Waiter { step: 0 }
    }

    /// Waits one round, escalating from spinning to yielding to sleeping.
    #[inline]
    pub fn wait(&mut self) {
        // Under the model checker, spinning must be visible to the
        // scheduler: every round becomes an instrumented yield (the
        // checker deprioritizes us until a write lands, and diagnoses
        // livelock if none ever does). Plain `spin_loop` hints would be
        // invisible no-ops there, and `thread::sleep` would stall the
        // whole single-token execution.
        #[cfg(prep_mc)]
        if prep_mc::thread::model_thread_index().is_some() {
            prep_mc::thread::yield_now();
            self.step = self.step.saturating_add(1);
            return;
        }
        if self.step < SPIN_LIMIT {
            for _ in 0..(1 << self.step) {
                hint::spin_loop();
            }
        } else if self.step < SPIN_LIMIT + YIELD_LIMIT {
            thread::yield_now();
        } else {
            thread::sleep(SLEEP);
        }
        self.step = self.step.saturating_add(1);
    }

    /// Waits one spin or yield round and returns true, or returns false
    /// without waiting once the spin and yield budget is spent — the point
    /// where [`Waiter::wait`] would start sleeping. Callers that can block
    /// on an event switch to it then.
    ///
    /// Under the model checker the budget is empty: a spin round there is
    /// one more poll of the same condition, and the checker should explore
    /// the blocking handshake that follows instead.
    #[inline]
    pub fn try_spin(&mut self) -> bool {
        #[cfg(prep_mc)]
        if prep_mc::thread::model_thread_index().is_some() {
            return false;
        }
        if self.step >= SPIN_LIMIT + YIELD_LIMIT {
            return false;
        }
        self.wait();
        true
    }

    /// Resets the waiter back to the spinning phase.
    ///
    /// Call this after observing progress (the condition changed but the
    /// caller must keep waiting for a different condition).
    #[inline]
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Returns true once the waiter has escalated past pure spinning.
    ///
    /// Useful for callers that want to switch strategy (e.g. start helping)
    /// after a bounded amount of optimistic spinning.
    #[inline]
    pub fn is_contended(&self) -> bool {
        self.step >= SPIN_LIMIT
    }
}

/// Spins (politely) until `cond` returns true.
#[inline]
pub fn spin_until(mut cond: impl FnMut() -> bool) {
    let mut w = Waiter::new();
    while !cond() {
        w.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn waiter_escalates_monotonically() {
        let mut w = Waiter::new();
        assert!(!w.is_contended());
        for _ in 0..SPIN_LIMIT {
            w.wait();
        }
        assert!(w.is_contended());
        w.reset();
        assert!(!w.is_contended());
    }

    #[test]
    fn spin_until_observes_cross_thread_store() {
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(5));
            f2.store(true, Ordering::Release);
        });
        spin_until(|| flag.load(Ordering::Acquire));
        h.join().unwrap();
        assert!(flag.load(Ordering::Relaxed));
    }

    #[test]
    fn try_spin_stops_where_sleeping_would_start() {
        let mut w = Waiter::new();
        let mut rounds = 0;
        while w.try_spin() {
            rounds += 1;
        }
        assert_eq!(rounds, SPIN_LIMIT + YIELD_LIMIT);
        assert!(!w.try_spin(), "an exhausted waiter stays exhausted");
    }

    #[test]
    fn waiter_step_saturates() {
        let mut w = Waiter::new();
        // Drive far past every phase boundary; must not overflow.
        for _ in 0..(SPIN_LIMIT + YIELD_LIMIT + 4) {
            w.wait();
        }
        assert!(w.is_contended());
    }
}
