//! Per-node replicas and flat-combining batch slots.

use prep_sync::cell::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::cell::UnsafeCell;

use crossbeam_utils::CachePadded;
use prep_sync::{
    DistRwLock, PhaseFairRwLock, ReaderId, ReplicaLock, RwSpinLock, SeqVersion, TryLock,
};

use crate::FairnessMode;

/// Slot states for the flat-combining protocol.
pub(crate) const SLOT_EMPTY: u8 = 0;
pub(crate) const SLOT_PENDING: u8 = 1;
pub(crate) const SLOT_DONE: u8 = 2;

/// One thread's slot in its node's flat-combining batch.
///
/// Ownership protocol:
/// * the owning worker writes `op` while the slot is `EMPTY`, then stores
///   `PENDING` (release);
/// * the combiner reads `op` after loading `PENDING` (acquire), writes
///   `resp`, then stores `DONE` (release);
/// * the owner takes `resp` after loading `DONE` (acquire) and stores
///   `EMPTY` (release), completing the cycle.
pub(crate) struct BatchSlot<O, R> {
    // lock-level: 3 innermost: the combiner claims slots while holding
    // the level-1 combiner lock and never waits on a ranked lock after
    pub(crate) state: CachePadded<AtomicU8>,
    pub(crate) op: UnsafeCell<Option<O>>,
    pub(crate) resp: UnsafeCell<Option<R>>,
}

// SAFETY: `op`/`resp` are handed off between exactly two parties with
// release/acquire ordering on `state` per the protocol above.
unsafe impl<O: Send, R: Send> Send for BatchSlot<O, R> {}
unsafe impl<O: Send, R: Send> Sync for BatchSlot<O, R> {}

impl<O, R> BatchSlot<O, R> {
    fn new() -> Self {
        BatchSlot {
            state: CachePadded::new(AtomicU8::new(SLOT_EMPTY)),
            op: UnsafeCell::new(None),
            resp: UnsafeCell::new(None),
        }
    }
}

/// Per-reader-slot read-path bookkeeping, one cacheline per slot.
///
/// Written only by the slot's owning worker (plain load+store, never an
/// RMW) and read by others only for rare, advisory metrics aggregation —
/// so it sits on its own padded line without contention.
pub(crate) struct SlotReadState {
    /// Validated optimistic (lock-free) fast-path reads.
    // shared-line: single-writer counter; padding is applied once at the
    // container (`CachePadded<SlotReadState>`).
    pub(crate) fast_optimistic: AtomicU64,
}

impl SlotReadState {
    fn new() -> Self {
        SlotReadState {
            fast_optimistic: AtomicU64::new(0),
        }
    }

    /// Counts one validated optimistic read: a plain load + store on the
    /// owning reader's private line — deliberately **not** `fetch_add`, so
    /// the optimistic fast path stays free of atomic RMW instructions.
    #[inline]
    pub(crate) fn bump_fast_optimistic(&self) {
        // ord: single-writer statistics on the owner's private line; remote
        // metrics aggregation tolerates staleness.
        let v = self.fast_optimistic.load(Ordering::Relaxed) + 1;
        // ord: single-writer statistics store (see the load above).
        self.fast_optimistic.store(v, Ordering::Relaxed);
    }
}

/// A volatile replica: the sequential object plus its coordination state.
pub(crate) struct Replica<T: prep_seqds::SequentialObject> {
    /// The combiner lock (paper: a trylock; winning it makes a thread the
    /// combiner for this node).
    // lock-level: 1 combiner election, nested inside nothing and outside
    // the level-2 replica rwlock and level-3 slot claims
    pub(crate) combiner: TryLock<()>,
    /// Reader-writer lock protecting the sequential object. Which lock is
    /// behind the trait object is [`FairnessMode`]'s choice: the NR §3
    /// distributed lock (one padded reader slot per worker on this node) by
    /// default, the centralized spin lock for the ablation baseline, the
    /// phase-fair lock for §4.2's starvation-free variant.
    pub(crate) rw: Box<dyn ReplicaLock<T>>,
    /// First log index not yet applied to this replica.
    pub(crate) local_tail: CachePadded<AtomicU64>,
    /// Flat-combining batch: one slot per worker on this node.
    pub(crate) slots: Box<[BatchSlot<T::Op, T::Resp>]>,
    /// `updateReplicaNow` flag (Algorithm 3): set by a combiner blocked on
    /// logMin to ask this replica's threads to bring it up to date.
    pub(crate) update_now: CachePadded<AtomicBool>,
    /// Read-only operations that missed the zero-contention fast path (the
    /// replica was behind `completedTail` at snapshot time). Bumped only on
    /// the slow path, which already writes shared state.
    pub(crate) read_slow: CachePadded<AtomicU64>,
    /// Seqlock-style version bracketing every replica mutation (bumped odd
    /// inside `write_with` before the mutation, even after): the optimistic
    /// read path's validation word.
    pub(crate) version: SeqVersion,
    /// Per-reader-slot read bookkeeping (one padded line per slot, indexed
    /// like the lock's reader slots).
    pub(crate) read_state: Box<[CachePadded<SlotReadState>]>,
    /// Optimistic reads that failed validation (a combiner overlapped the
    /// lock-free read). Bumped only on the failure path, which falls back
    /// to a real lock acquisition anyway.
    pub(crate) read_validation_failures: CachePadded<AtomicU64>,
}

impl<T: prep_seqds::SequentialObject> Replica<T> {
    pub(crate) fn new(ds: T, beta: usize, fairness: FairnessMode) -> Self {
        let rw: Box<dyn ReplicaLock<T>> = match fairness {
            // Optimistic keeps the distributed lock as its validated-read
            // fallback and writer-side exclusion.
            FairnessMode::Throughput | FairnessMode::Optimistic => {
                Box::new(DistRwLock::new(ds, beta))
            }
            FairnessMode::ThroughputCentralized => Box::new(RwSpinLock::new(ds)),
            FairnessMode::StarvationFree => Box::new(PhaseFairRwLock::new(ds)),
        };
        Replica {
            combiner: TryLock::new(()),
            rw,
            local_tail: CachePadded::new(AtomicU64::new(0)),
            slots: (0..beta).map(|_| BatchSlot::new()).collect(),
            update_now: CachePadded::new(AtomicBool::new(false)),
            read_slow: CachePadded::new(AtomicU64::new(0)),
            version: SeqVersion::new(),
            read_state: (0..beta)
                .map(|_| CachePadded::new(SlotReadState::new()))
                .collect(),
            read_validation_failures: CachePadded::new(AtomicU64::new(0)),
        }
    }

    #[inline]
    pub(crate) fn local_tail(&self) -> u64 {
        // ord: Acquire pairs with the combiner's Release store — observing
        // tail t implies the replica state reflects every entry below t.
        self.local_tail.load(Ordering::Acquire)
    }

    /// Runs `f` with shared access to the sequential object, acquiring the
    /// replica lock as reader `id`. (`FnOnce`-over-`FnMut` adapter for the
    /// dyn-compatible [`ReplicaLock`] interface.)
    #[inline]
    pub(crate) fn read_with<R>(&self, id: ReaderId, f: impl FnOnce(&T) -> R) -> R {
        let mut f = Some(f);
        let mut out = None;
        self.rw.with_read(id, &mut |ds| {
            out = Some((f.take().expect("with_read runs f once"))(ds));
        });
        out.expect("with_read ran f")
    }

    /// Runs `f` with exclusive access to the sequential object, bracketed
    /// by the replica's seqlock version (odd while `f` runs, even after) so
    /// optimistic readers detect the overlap and discard their reads.
    #[inline]
    pub(crate) fn write_with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut f = Some(f);
        let mut out = None;
        self.rw.with_write(&mut |ds| {
            // Inside the write lock: we are the only version writer.
            self.version.write_begin();
            out = Some((f.take().expect("with_write runs f once"))(ds));
            self.version.write_end();
        });
        out.expect("with_write ran f")
    }

    /// Attempts a seqlock-validated lock-free read: snapshot the version,
    /// run `f` against the replica without touching the lock, and accept
    /// the result only if no combiner overlapped. Returns `None` after
    /// bounded retries (writer mid-apply, or validation kept failing) — the
    /// caller then falls back to a real lock acquisition. The fast path
    /// performs zero atomic RMWs and zero stores to any shared cacheline.
    pub(crate) fn read_optimistic<R>(&self, f: impl Fn(&T) -> R) -> Option<R> {
        /// Validation failures tolerated before falling back: each retry
        /// costs a wasted `f`, and under combiner churn the slot path is
        /// cheaper than a third wasted read.
        const RETRIES: usize = 2;
        for _ in 0..RETRIES {
            let Some(snap) = self.version.read_begin() else {
                // A combiner is mid-apply; the slot path waits for it
                // politely instead of spinning here (writers never wait on
                // optimistic readers, and readers should not busy-spin on
                // writers).
                return None;
            };
            let mut out = None;
            // SAFETY: seqlock bracket — `snap` was even (no write in
            // progress) and `validate` below rejects the result if any
            // write bracket overlapped `f`'s unsynchronized reads. `f` is a
            // `SequentialObject::apply_readonly` over plain (non-pointer-
            // chasing-into-freed-memory) data; discarded torn reads are
            // never observable (see DESIGN.md "Why optimistic reads are
            // safe").
            unsafe { self.rw.with_peek(&mut |ds| out = Some(f(ds))) };
            if self.version.validate(snap) {
                return out;
            }
            self.read_validation_failures
                // ord: failure-path statistic (shared line is fine: this
                // path proceeds to a lock acquisition anyway).
                .fetch_add(1, Ordering::Relaxed);
        }
        None
    }

    /// Validated optimistic fast-path reads served by this replica.
    pub(crate) fn fast_optimistic_total(&self) -> u64 {
        self.read_state
            .iter()
            // ord: advisory aggregation of single-writer counters.
            .map(|s| s.fast_optimistic.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prep_seqds::recorder::Recorder;

    #[test]
    fn replica_initial_state() {
        let r: Replica<Recorder> = Replica::new(Recorder::new(), 4, FairnessMode::Throughput);
        assert_eq!(r.local_tail(), 0);
        assert_eq!(r.slots.len(), 4);
        assert!(!r.update_now.load(Ordering::Relaxed));
        assert!(!r.combiner.is_locked());
        assert_eq!(r.read_slow.load(Ordering::Relaxed), 0);
        for s in r.slots.iter() {
            assert_eq!(s.state.load(Ordering::Relaxed), SLOT_EMPTY);
        }
    }

    #[test]
    fn fairness_selects_reader_slot_layout() {
        let dist: Replica<Recorder> = Replica::new(Recorder::new(), 4, FairnessMode::Throughput);
        assert_eq!(dist.rw.reader_slots(), 4);
        let central: Replica<Recorder> =
            Replica::new(Recorder::new(), 4, FairnessMode::ThroughputCentralized);
        assert_eq!(central.rw.reader_slots(), 0);
        let fair: Replica<Recorder> =
            Replica::new(Recorder::new(), 4, FairnessMode::StarvationFree);
        assert_eq!(fair.rw.reader_slots(), 0);
    }

    #[test]
    fn read_with_and_write_with_round_trip() {
        use prep_seqds::recorder::{RecorderOp, RecorderResp};
        use prep_seqds::SequentialObject;
        let r: Replica<Recorder> = Replica::new(Recorder::new(), 2, FairnessMode::Throughput);
        let resp = r.write_with(|ds| ds.apply(&RecorderOp::Record(7)));
        assert_eq!(resp, RecorderResp::RecordedAt(0));
        let seen = r.read_with(ReaderId::Slot(1), |ds| ds.apply_readonly(&RecorderOp::Last));
        assert_eq!(seen, RecorderResp::Last(Some(7)));
        let shared = r.read_with(ReaderId::Shared, |ds| ds.apply_readonly(&RecorderOp::Count));
        assert_eq!(shared, RecorderResp::Count(1));
    }
}
