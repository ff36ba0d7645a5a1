//! NR-UC: the Node Replication universal construction (Calciu et al.,
//! ASPLOS 2017), as described in §3 of the PREP-UC paper.
//!
//! Node replication keeps one replica of the sequential object per NUMA
//! node. Threads on a node coordinate through **flat combining**: each
//! thread publishes its update in a per-thread batch slot; one thread — the
//! *combiner*, elected by winning the replica's trylock — appends the whole
//! batch to a **shared circular log** and applies pending log entries to the
//! local replica. Across nodes, the log is the only communication channel:
//! its order *is* the linearization order of update operations.
//!
//! Read-only operations never touch the log; they take the replica's
//! reader-writer lock in read mode once the replica has caught up to
//! `completedTail`.
//!
//! Three monotonically increasing indexes (paper Table 1):
//!
//! | index | scope | meaning |
//! |---|---|---|
//! | `localTail` | per replica | first log index not yet applied locally |
//! | `completedTail` | global | first log index not yet applied to any replica |
//! | `logTail` | global | first unreserved log index |
//!
//! This crate hosts the machinery PREP-UC reuses (PREP-UC *is* NR-UC plus
//! persistence, §4.1). The persistence-specific actions — gating
//! reservations at the flush boundary, persisting batches and the completed
//! tail, involving the persistent replicas in log-space reclamation — enter
//! through the [`NrHooks`] trait, which the volatile construction
//! instantiates with [`NoopHooks`] (the paper's **PREP-V**).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod global_lock;
mod hooks;
pub mod log;
pub mod mluc;
pub mod multilog;
mod replica;
mod uc;

pub use global_lock::GlobalLockUc;
pub use hooks::{NoopHooks, NrHooks};
pub use log::Log;
pub use mluc::{MlHooks, MlOp, MlToken, MultiLaneReplicated, NoopMlHooks};
pub use multilog::{LogSet, Reservation};
pub use uc::{NodeReplicated, ThreadToken};

/// Default log capacity (entries) used by the paper's evaluation (§6: "we
/// utilize a log size of 1 million for all experiments").
pub const DEFAULT_LOG_SIZE: u64 = 1 << 20;

/// Liveness trade-off (§4.2 "Liveness").
///
/// The paper's implementation is deadlock-free but allows starvation in two
/// places: an adversarial scheduler can make one combiner's log-reservation
/// CAS lose forever, and a stream of write-mode combiners can starve
/// readers. The paper names the two changes that buy starvation-freedom —
/// a fair lock around reservations and a starvation-free reader-writer
/// lock per replica — and this enum selects them.
///
/// Each mode has exactly one read route. `Throughput` and
/// `StarvationFree` are the paper's two ends; `ThroughputCentralized` is not
/// a paper mode: it keeps the centralized writer-preference spin lock that
/// predates the distributed reader-writer lock, as the ablation baseline the
/// distributed read path is measured against (`prep-bench -- readscale`).
/// `Optimistic`, the default, goes past the paper in the other direction:
/// seqlock-validated reads touch no lock state at all (zero RMWs, zero
/// shared-line stores), falling back to the reader slot only when a
/// combiner overlaps the read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FairnessMode {
    /// The default: always-optimistic reads. Every caught-up read runs
    /// lock-free against the replica and validates with the
    /// [`prep_sync::SeqVersion`] bracket (zero atomic RMWs, zero stores to
    /// shared cachelines); bounded retries fall back to the distributed
    /// reader slot. Updates use CAS reservations as in
    /// [`FairnessMode::Throughput`], and writers never wait on optimistic
    /// readers.
    #[default]
    Optimistic,
    /// The paper's NR §3 configuration: CAS reservations + the distributed
    /// writer-preference reader-writer lock per replica (one
    /// cacheline-padded slot per registered reader). Every caught-up read
    /// takes its slot; starvation possible under adversarial scheduling.
    Throughput,
    /// Like [`FairnessMode::Throughput`] but with the centralized
    /// writer-preference lock ([`prep_sync::RwSpinLock`]): every reader
    /// bounces one shared cacheline. Ablation baseline only.
    ThroughputCentralized,
    /// Starvation-free updates and reads: FIFO ticket lock around log
    /// reservations, phase-fair reader-writer lock per replica.
    StarvationFree,
}
