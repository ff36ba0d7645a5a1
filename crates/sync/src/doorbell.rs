//! Block until an event, instead of polling for it in a sleep loop.
//!
//! A [`Doorbell`] is an eventcount: threads that have nothing to do until
//! some shared state changes wait on it with [`Doorbell::wait_while`], and
//! whoever changes that state rings it. A waiter first spins and yields
//! like [`Waiter`] does, so a busy thread picks up the next event without
//! blocking and being woken; only then does it register as a sleeper,
//! recheck its condition, and block on a condition variable. A ring with
//! no registered sleeper costs one load.
//!
//! **The handshake.** The waiter registers (sleeper count up) and then
//! rechecks its condition; the ringer changes the state and then checks
//! the sleeper count. That is a store-buffering shape, so at least one
//! side must see the other only if all four accesses are totally ordered:
//! the sleeper count is accessed `SeqCst` here, and the caller must make
//! the state change with a `SeqCst` store or RMW (or under a lock the
//! condition also takes) before it rings, and read it with `SeqCst` loads
//! in the condition. A ring that lands after the recheck but before the
//! waiter blocks is not lost: the waiter blocks only while the ring epoch
//! still equals the value it read before the recheck, and every ring that
//! saw a sleeper advances that epoch under the lock the waiter blocks on.

use std::sync::{Condvar, PoisonError};
// lint:allow(forbidden-api): a Condvar blocks only under a std mutex.
// It is held only to advance the ring epoch and to block, never on the
// ring fast path, and it guards no data.
use std::sync::Mutex;
use std::time::Duration;

use crossbeam_utils::CachePadded;

use crate::cell::{AtomicU64, AtomicUsize, Ordering};
use crate::Waiter;

/// An eventcount: block on an event with a spin-and-yield prefix.
///
/// ```
/// use prep_sync::Doorbell;
/// use std::sync::atomic::{AtomicBool, Ordering};
/// use std::sync::Arc;
///
/// let bell = Arc::new(Doorbell::new());
/// let ready = Arc::new(AtomicBool::new(false));
/// let (b, r) = (Arc::clone(&bell), Arc::clone(&ready));
/// let t = std::thread::spawn(move || {
///     r.store(true, Ordering::SeqCst);
///     b.ring();
/// });
/// bell.wait_while(|| !ready.load(Ordering::SeqCst));
/// t.join().unwrap();
/// ```
#[derive(Debug, Default)]
pub struct Doorbell {
    /// Threads between registration and the end of their block. Every
    /// ring reads it, so it gets its own line.
    sleepers: CachePadded<AtomicUsize>,
    // shared-line: written only by rings that found a sleeper (the slow
    // path, which takes the mutex anyway); never on the ring fast path.
    epoch: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Doorbell {
    /// A doorbell with no sleepers.
    pub fn new() -> Doorbell {
        Doorbell::default()
    }

    /// Waits until `cond` returns false: spins and yields first, then
    /// blocks until a ring. `cond` must read the state a ring announces
    /// with `SeqCst` loads (see the module docs).
    pub fn wait_while(&self, mut cond: impl FnMut() -> bool) {
        self.wait(&mut cond, None);
    }

    /// Like [`Doorbell::wait_while`], but blocks for at most about
    /// `timeout` once the spin and yield prefix is spent. Returns false
    /// when it gave up with `cond` still true.
    pub fn wait_while_timeout(&self, mut cond: impl FnMut() -> bool, timeout: Duration) -> bool {
        self.wait(&mut cond, Some(timeout))
    }

    fn wait(&self, cond: &mut dyn FnMut() -> bool, timeout: Option<Duration>) -> bool {
        let mut w = Waiter::new();
        while cond() {
            if w.try_spin() {
                continue;
            }
            // ord: SeqCst — registration, then the recheck below, against
            // the ringer's state change, then its sleeper check: a
            // store-buffering pair that only a total order resolves.
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            // ord: SeqCst — reads the epoch before the recheck; pairs with
            // the ring's epoch bump, so a ring seen here is a ring whose
            // state change the recheck sees too.
            let seen = self.epoch.load(Ordering::SeqCst);
            let timed_out = cond() && self.block(seen, timeout);
            // ord: Relaxed — the decrement publishes nothing; a ringer that
            // reads a stale count only takes the lock for nothing.
            self.sleepers.fetch_sub(1, Ordering::Relaxed);
            if timed_out {
                return !cond();
            }
        }
        true
    }

    /// Blocks while the epoch is `seen`. Returns true on a timeout.
    fn block(&self, seen: u64, timeout: Option<Duration>) -> bool {
        // Under the model checker a block is a model yield, as in
        // `Waiter::wait`: a waiter that no ring ever releases shows up as
        // the checker's livelock instead of hanging the exploration.
        #[cfg(prep_mc)]
        if prep_mc::thread::model_thread_index().is_some() {
            // ord: SeqCst, the model twin of the locked recheck below.
            while self.epoch.load(Ordering::SeqCst) == seen {
                if timeout.is_some() {
                    return true;
                }
                prep_mc::thread::yield_now();
            }
            return false;
        }
        let mut g = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        // ord: Relaxed — the epoch only advances under this lock, which
        // orders the read after every bump that released it.
        while self.epoch.load(Ordering::Relaxed) == seen {
            match timeout {
                None => g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner),
                Some(d) => {
                    let (g2, r) = self
                        .cv
                        .wait_timeout(g, d)
                        .unwrap_or_else(PoisonError::into_inner);
                    if r.timed_out() {
                        return true;
                    }
                    g = g2;
                }
            }
        }
        false
    }

    /// Wakes every waiter. Call it after the state change it announces.
    #[inline]
    pub fn ring(&self) {
        if self.has_sleepers() {
            self.wake(true);
        }
    }

    /// Wakes at least one waiter. Only for a doorbell whose waiters all
    /// wait for the same condition, when any one of them can consume the
    /// event (one job pushed to a queue its waiters pop).
    #[inline]
    pub fn ring_one(&self) {
        if self.has_sleepers() {
            self.wake(false);
        }
    }

    #[inline]
    fn has_sleepers(&self) -> bool {
        // ord: SeqCst — the ringer's half of the store-buffering pair in
        // `wait` (after the caller's SeqCst state change).
        self.sleepers.load(Ordering::SeqCst) != 0
    }

    #[cold]
    fn wake(&self, all: bool) {
        #[cfg(prep_mc)]
        if prep_mc::thread::model_thread_index().is_some() {
            // ord: SeqCst, as the locked bump below.
            self.epoch.fetch_add(1, Ordering::SeqCst);
            return;
        }
        {
            let _g = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            // ord: SeqCst — a waiter whose epoch read sees this bump must
            // also see the state change made before the ring.
            self.epoch.fetch_add(1, Ordering::SeqCst);
        }
        if all {
            self.cv.notify_all();
        } else {
            self.cv.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn ring_releases_a_blocked_waiter() {
        let bell = Arc::new(Doorbell::new());
        let flag = Arc::new(AtomicBool::new(false));
        let (b, f) = (Arc::clone(&bell), Arc::clone(&flag));
        let t = std::thread::spawn(move || b.wait_while(|| !f.load(Ordering::SeqCst)));
        // Let the waiter spend its prefix and block.
        while bell.sleepers.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        flag.store(true, Ordering::SeqCst);
        bell.ring();
        t.join().unwrap();
    }

    #[test]
    fn ring_one_per_event_releases_every_waiter() {
        let bell = Arc::new(Doorbell::new());
        let jobs = Arc::new(AtomicUsize::new(0));
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let (b, j) = (Arc::clone(&bell), Arc::clone(&jobs));
                std::thread::spawn(move || loop {
                    b.wait_while(|| j.load(Ordering::SeqCst) == 0);
                    let n = j.load(Ordering::SeqCst);
                    if n > 0
                        && j.compare_exchange(n, n - 1, Ordering::SeqCst, Ordering::SeqCst)
                            .is_ok()
                    {
                        return;
                    }
                })
            })
            .collect();
        for _ in 0..3 {
            jobs.fetch_add(1, Ordering::SeqCst);
            bell.ring_one();
        }
        for t in waiters {
            t.join().unwrap();
        }
        assert_eq!(jobs.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn timed_wait_gives_up_with_the_condition_still_true() {
        let bell = Doorbell::new();
        assert!(!bell.wait_while_timeout(|| true, Duration::from_millis(1)));
        assert!(bell.wait_while_timeout(|| false, Duration::from_millis(1)));
    }
}
