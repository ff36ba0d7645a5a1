//! Model-checked properties of the real [`prep_sync::Doorbell`].
//!
//! Runs only under `RUSTFLAGS="--cfg prep_mc"`, where the doorbell's
//! sleeper count and ring epoch route through the instrumented cells and
//! its block becomes a model yield: a waiter that no ring ever releases
//! is reported as livelock.
#![cfg(prep_mc)]

use std::sync::atomic::Ordering::SeqCst;
use std::sync::Arc;

use prep_mc::{thread, Builder};
use prep_sync::cell::AtomicU64;
use prep_sync::Doorbell;

/// No lost wakeup: the ringer publishes the state (SeqCst, per the
/// doorbell's contract) and rings at any point of the waiter's wait —
/// including between its recheck and its block — and the waiter still
/// returns.
#[test]
fn ring_is_never_lost() {
    Builder::new("doorbell-no-lost-wakeup").check(|| {
        let bell = Arc::new(Doorbell::new());
        let flag = Arc::new(AtomicU64::new(0));
        let (b2, f2) = (Arc::clone(&bell), Arc::clone(&flag));
        let ringer = thread::spawn(move || {
            f2.store(1, SeqCst);
            b2.ring();
        });
        bell.wait_while(|| flag.load(SeqCst) == 0);
        assert_eq!(flag.load(SeqCst), 1);
        ringer.join().unwrap();
    });
}

/// Two waiters on one doorbell, one ring: both are released.
#[test]
fn one_ring_releases_every_waiter() {
    Builder::new("doorbell-ring-all").check(|| {
        let bell = Arc::new(Doorbell::new());
        let flag = Arc::new(AtomicU64::new(0));
        let (b2, f2) = (Arc::clone(&bell), Arc::clone(&flag));
        let waiter = thread::spawn(move || b2.wait_while(|| f2.load(SeqCst) == 0));
        let (b3, f3) = (Arc::clone(&bell), Arc::clone(&flag));
        let ringer = thread::spawn(move || {
            f3.store(1, SeqCst);
            b3.ring();
        });
        bell.wait_while(|| flag.load(SeqCst) == 0);
        waiter.join().unwrap();
        ringer.join().unwrap();
    });
}

/// `ring_one` once per event: two events, two waiters that each consume
/// one; neither waiter is left blocked.
#[test]
fn ring_one_per_event_releases_every_consumer() {
    Builder::new("doorbell-ring-one").check(|| {
        let bell = Arc::new(Doorbell::new());
        let jobs = Arc::new(AtomicU64::new(0));
        let consume = |bell: &Doorbell, jobs: &AtomicU64| loop {
            bell.wait_while(|| jobs.load(SeqCst) == 0);
            let n = jobs.load(SeqCst);
            if n > 0 && jobs.compare_exchange(n, n - 1, SeqCst, SeqCst).is_ok() {
                return;
            }
        };
        let (b2, j2) = (Arc::clone(&bell), Arc::clone(&jobs));
        let waiter = thread::spawn(move || consume(&b2, &j2));
        let (b3, j3) = (Arc::clone(&bell), Arc::clone(&jobs));
        let producer = thread::spawn(move || {
            for _ in 0..2 {
                j3.fetch_add(1, SeqCst);
                b3.ring_one();
            }
        });
        consume(&bell, &jobs);
        waiter.join().unwrap();
        producer.join().unwrap();
    });
}
