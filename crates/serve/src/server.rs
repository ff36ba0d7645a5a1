//! The thread-per-core TCP server over [`prep_shard::ShardedStore`].
//!
//! ## Request pipeline: aligning arrivals with combiner batches
//!
//! ```text
//! acceptor ─▶ conn threads ─▶ per-shard submission queue ─▶ β executors ─▶ NR combiner
//!                 │                (bounded, RETRY)             │
//!                 └◀─────────── responses ◀── buffered ack ────┘
//!                 └◀─────────── responses ◀── durability drainer (durable ack)
//! ```
//!
//! Connection threads never touch the store: they parse frames and push
//! jobs into the target shard's **bounded submission queue**. Each shard
//! owns β executor threads (β = [`ServeConfig::executors_per_shard`]), all
//! registered NR workers of that shard; when a burst of requests lands on
//! one shard, up to β of them are in `execute` simultaneously, and NR's
//! flat combiner folds those β concurrent ops into **one combine round**
//! (one log reservation, one batch persist in durable mode). The queue is
//! what aligns open-loop arrivals — which know nothing of batches — with
//! combiner batch boundaries: arrivals coalesce in the queue while the
//! previous round runs, instead of each arrival paying a full round alone.
//!
//! When a queue is full the connection thread answers with a `RETRY` frame
//! immediately — explicit backpressure, never unbounded buffering, so an
//! overloaded shard sheds load at the wire instead of growing latency
//! without bound.
//!
//! ## Threads and hand-offs: block, don't poll
//!
//! | thread | count | blocks, when idle, on |
//! |---|---|---|
//! | `serve-accept` | 1 | `ppoll` on the listener + its wake socket |
//! | `serve-conn-{c}` | `conn_threads` | `ppoll` on its sockets + its wake socket |
//! | `serve-exec-{s}-{e}` | `shards × executors_per_shard` | its shard's executor doorbell |
//! | `serve-dur-{s}` | `shards` | its shard's drainer doorbell |
//! | `serve-control` | 1 | the lifecycle doorbell |
//!
//! Every hand-off wakes the thread that waits for it, so an idle server
//! costs no CPU and a request pays no polling delay: the acceptor hands a
//! socket to a connection thread and writes one byte to that thread's
//! wake socket (a `UnixStream` pair); `dispatch` pushes a job and rings
//! the shard's executor [`Doorbell`] once; `finish_update` pushes a
//! durable ack and rings the drainer's. The lifecycle doorbell is rung at
//! every state change and control-queue push; parked workers and
//! [`Server::join`] wait on it too, and the stop transition also wakes
//! the acceptor and every connection thread through their wake sockets.
//! A doorbell waiter spins and yields briefly before it blocks, so a
//! thread under load is not put to sleep between requests, and a ring
//! costs one load when nobody sleeps. Only a control thread that watches
//! the process signal flag wakes on a timer (every 10 ms), since a signal
//! handler cannot ring. A connection write that would block waits in
//! `ppoll` for `POLLOUT`.
//!
//! What still polls, by design: the drainer's wait for the durability
//! watermark (a `prep-uc` wait, with its checkpoint nudge), the crash and
//! shutdown barriers (rare, bounded), and the short `TryLock` spins.
//!
//! ## Ack release points
//!
//! *Buffered* acks are written by the executor as soon as `execute`
//! returns (the op is applied, volatile). *Durable* acks are handed to the
//! shard's **durability drainer** together with the `completedTail` that
//! covers the op; the drainer releases the ack only once the shard's
//! crash-survivability watermark ([`prep_uc::PrepUc::durable_watermark`])
//! passes that tail — i.e. once the covering checkpoint (or persisted
//! `completedTail` in durable mode) has actually reached NVM. While
//! waiting it nudges the persistence thread
//! ([`prep_uc::PrepUc::nudge_checkpoint`]) so a lightly loaded server does
//! not hold durable acks for a full ε window.
//!
//! ## Crash and shutdown choreography
//!
//! `ADMIN CRASH` (crash-sim servers): the control thread moves the server
//! to `Crashing`; connection threads answer `RETRY`, executors and
//! drainers park. Once every worker has parked, **pending durable acks are
//! downgraded to `RETRY`** by the control thread (those ops may or may not
//! survive the cut, so they must not be acked `Done`; but unlike a real
//! power failure the TCP connection survives the simulated one, so silence
//! would wedge clients — `RETRY` claims nothing and keeps the
//! one-response-per-frame invariant). The downgrade waits for the park
//! barrier because an executor can still queue an ack after its shard's
//! drainer parked; left queued, that ack's cover indexes the old log, and
//! on the recovered store it was either never released (a hang) or
//! released `Done` for an op the cut may have lost.
//! Only after every worker has parked is the cut captured, so every ack
//! that reached a client precedes the cut: durable-acked ops are always in
//! the recovered image, and buffered-acked loss stays within the store's
//! `N·(ε + β − 1)` bound. The store is rebuilt via
//! [`prep_shard::ShardedStore::recover`] on a fresh runtime, the
//! generation counter bumps, and workers re-register on the new store.
//!
//! `ADMIN SHUTDOWN` / SIGTERM: `Draining` — connection threads reject new
//! work, executors empty the queues, drainers release every pending
//! durable ack, the store is quiesced
//! ([`prep_shard::ShardedStore::quiesce_persistence`], the final forced
//! checkpoint), and only then does the server stop: a clean shutdown
//! loses **zero** buffered ops, versus up to the bound on a crash.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown as NetShutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use prep_seqds::hashmap::{HashMap, MapOp, MapResp};
use prep_shard::{shard_index, ShardedStore};
use prep_sync::poll::{self as ppoll, PollFd, POLLIN};
use prep_sync::{spin_until, Doorbell, TicketLock, TryLock, TryLockGuard, Waiter};
use prep_topology::{ThreadAssignment, Topology};
use prep_uc::{DurabilityLevel, FairnessMode, LatencyModel, PmemRuntime, PrepConfig};

use crate::proto::{self, err_code, AckLevel, AdminCmd, Request, Response, WireShard, WireStats};
use crate::signals;

/// The store type this server fronts.
///
/// The server builds **single-log** shards, not
/// [`prep_shard::ShardedStore::new_multilog`]: the durability drainer
/// releases a buffered-durable ack when one scalar watermark passes the
/// op's covering `completedTail`, and on a multi-log shard that scalar
/// (the per-log sum) could cover an op's index while *its* log is still
/// short of it — releasing acks for ops a crash can lose. Driving
/// multi-log shards here needs a per-log (watermark, cover) pairing in the
/// drainer; until then the STATS wire format already carries the per-log
/// counters (count 0 for this server's shards).
pub type Store = ShardedStore<HashMap>;

/// Routing key for the KV map ops (`Len` has no key; serve never emits it).
fn route_key(op: &MapOp) -> u64 {
    op.key().unwrap_or(0)
}

/// Server lifecycle states (stored in `Inner::state`).
const RUNNING: u8 = 0;
const CRASHING: u8 = 1;
const DRAINING: u8 = 2;
const STOPPED: u8 = 3;

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of store shards (independent PREP-UC logs).
    pub shards: usize,
    /// Executor threads per shard — the β of the combiner-batch alignment:
    /// up to this many queued ops enter one combine round together.
    pub executors_per_shard: usize,
    /// Connection-handling threads (the "cores" of thread-per-core).
    pub conn_threads: usize,
    /// Per-shard submission-queue bound; a full queue answers `RETRY`.
    pub queue_depth: usize,
    /// Store durability mode. In `Durable` mode every ack is implicitly
    /// durable (execute returns only after the covering persist).
    pub durability: DurabilityLevel,
    /// Checkpoint cadence ε (buffered mode's loss window).
    pub epsilon: u64,
    /// Per-shard operation-log capacity.
    pub log_size: u64,
    /// Simulated NVM latency model.
    pub latency: LatencyModel,
    /// Replica read-path fairness mode. Defaults to
    /// [`FairnessMode::default()`] (`Optimistic`): GETs run lock-free under
    /// the replica's seqlock version and fall back to the distributed-lock
    /// slot only when a combiner overlaps them.
    pub fairness: FairnessMode,
    /// Enable crash simulation (`ADMIN CRASH`); costs image upkeep.
    pub crash_sim: bool,
    /// Poll the process signal flag ([`signals::shutdown_requested`]) from
    /// the control thread. Binaries set this; in-process tests leave it
    /// off so one test's signal cannot drain another test's server.
    pub watch_signals: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 2,
            executors_per_shard: 2,
            conn_threads: 2,
            queue_depth: 128,
            durability: DurabilityLevel::Buffered,
            epsilon: 64,
            log_size: 4096,
            latency: LatencyModel::off(),
            fairness: FairnessMode::default(),
            crash_sim: false,
            watch_signals: false,
        }
    }
}

impl ServeConfig {
    /// Total executor workers (the store's registered worker count).
    fn workers(&self) -> usize {
        self.shards * self.executors_per_shard
    }

    /// A fresh [`PrepConfig`] (fresh runtime) for construction or recovery.
    fn prep_config(&self) -> PrepConfig {
        PrepConfig::new(self.durability)
            .with_log_size(self.log_size)
            .with_epsilon(self.epsilon)
            .with_runtime(PmemRuntime::new(self.latency, self.crash_sim))
            .with_fairness(self.fairness)
    }
}

/// One connection's shared write half: executors, drainers, and the
/// control thread all write complete frames under the per-connection
/// ticket lock, so frames never interleave on the wire.
struct ConnIo {
    stream: TcpStream,
    wlock: TicketLock,
}

impl ConnIo {
    /// Writes one already-encoded frame; short writes are retried under
    /// the lock, and `WouldBlock` (the stream is non-blocking) waits in
    /// `ppoll` for the socket to drain. Errors are swallowed — a dead
    /// connection is detected and reaped by its reader.
    fn send(&self, frame: &[u8]) {
        let _g = self.wlock.lock();
        let mut s = &self.stream;
        let mut off = 0;
        while off < frame.len() {
            match s.write(&frame[off..]) {
                Ok(0) => return,
                Ok(n) => off += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if ppoll::wait_writable(&self.stream).is_err() {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Encode-and-send convenience.
    fn respond(&self, resp: &Response) {
        let mut buf = Vec::with_capacity(32);
        proto::encode_response(resp, &mut buf);
        self.send(&buf);
    }
}

/// What an executor does with a parsed data request.
enum JobKind {
    Get { key: u64 },
    Put { key: u64, value: u64 },
    Delete { key: u64 },
    Scan { start: u64, count: u32 },
}

/// A queued unit of work for one shard's executors.
struct Job {
    id: u64,
    ack: AckLevel,
    kind: JobKind,
    conn: Arc<ConnIo>,
}

/// A durable ack waiting for its covering persist.
struct DurAck {
    /// Request id (for the RETRY downgrade when a crash interrupts).
    id: u64,
    /// `completedTail` that covers the op (read after `execute` returned).
    cover: u64,
    /// The encoded response frame, released once covered.
    frame: Vec<u8>,
    conn: Arc<ConnIo>,
}

/// One shard's request pipeline.
struct Pipeline {
    /// Bounded submission queue (the combiner-batch coalescing point).
    queue: TryLock<VecDeque<Job>>,
    /// Mirror of `queue.len()` for lock-free full/empty checks.
    len: AtomicUsize,
    /// Executors currently inside `execute` (drain barrier).
    busy: AtomicUsize,
    /// Idle executors block here; rung once per pushed job.
    exec_bell: Doorbell,
    /// Durable acks awaiting their covering persist.
    dur_queue: TryLock<VecDeque<DurAck>>,
    /// Durable acks pending release (decremented only after the ack is on
    /// the wire, so `0` means every accepted durable op has been acked).
    dur_len: AtomicUsize,
    /// The idle drainer blocks here; rung once per pushed durable ack.
    dur_bell: Doorbell,
}

impl Pipeline {
    fn new() -> Self {
        Pipeline {
            queue: TryLock::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            busy: AtomicUsize::new(0),
            exec_bell: Doorbell::new(),
            dur_queue: TryLock::new(VecDeque::new()),
            dur_len: AtomicUsize::new(0),
            dur_bell: Doorbell::new(),
        }
    }
}

/// A socket pair a thread blocked in `ppoll` also polls, so another
/// thread can wake it with one byte: the acceptor wakes a connection
/// thread when it hands over a socket, and the stop transition wakes
/// every polling thread. A byte stays pending until the woken thread
/// drains it, so a wake sent before the thread blocks is not lost.
struct WakeSocket {
    rx: UnixStream,
    tx: UnixStream,
}

impl WakeSocket {
    fn new() -> std::io::Result<Self> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(WakeSocket { rx, tx })
    }

    /// Makes the owner's next (or current) `ppoll` return. A full buffer
    /// (`WouldBlock`) means a wake is already pending.
    fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    /// Consumes pending wakes.
    fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n == buf.len()) {}
    }

    fn pollfd(&self) -> PollFd {
        PollFd::new(&self.rx, POLLIN)
    }
}

/// Monotone service counters.
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    retries: AtomicU64,
    durable_acks: AtomicU64,
    crashes: AtomicU64,
}

/// One queued admin command: the verb, the request id to echo, and the
/// connection to answer on (`None` for process-internal requests, e.g.
/// the signal-driven shutdown).
type ControlMsg = (AdminCmd, u64, Option<Arc<ConnIo>>);

/// Shared server state.
struct Inner {
    cfg: ServeConfig,
    assignment: ThreadAssignment,
    /// Lifecycle state (RUNNING/CRASHING/DRAINING/STOPPED).
    state: AtomicU8,
    /// Bumped on every crash-recovery; workers re-register when it moves.
    generation: AtomicU64,
    /// The current store. `None` only transiently inside crash recovery.
    store: TryLock<Option<Arc<Store>>>,
    pipelines: Vec<Pipeline>,
    /// Admin commands routed to the control thread.
    control: TryLock<VecDeque<ControlMsg>>,
    /// The control thread, parked workers and `Server::join` block here;
    /// rung at every state change and control-queue push.
    lifecycle: Doorbell,
    /// Per-connection-thread inbox of freshly accepted sockets.
    conn_inbox: Vec<TryLock<Vec<TcpStream>>>,
    /// Per-connection-thread wake socket (new inbox entry, stop).
    conn_wake: Vec<WakeSocket>,
    /// The acceptor's wake socket (stop).
    accept_wake: WakeSocket,
    /// Workers (executors + drainers) currently parked for a crash.
    parked: AtomicUsize,
    counters: Counters,
}

impl Inner {
    #[inline]
    fn state(&self) -> u8 {
        // ord: SeqCst — waits on the doorbells read the state in their
        // condition, against `set_state`'s SeqCst store (the doorbell
        // handshake); it also orders after the decision that caused it.
        self.state.load(Ordering::SeqCst)
    }

    /// Moves the lifecycle to `s` and wakes every thread that blocks on
    /// it. A generation bump is announced by the `RUNNING` transition that
    /// follows it.
    fn set_state(&self, s: u8) {
        // ord: SeqCst — the state half of the doorbell handshake: every
        // waiter's condition rereads it with SeqCst after registering.
        self.state.store(s, Ordering::SeqCst);
        self.lifecycle.ring();
        for pl in &self.pipelines {
            pl.exec_bell.ring();
            pl.dur_bell.ring();
        }
        if s == STOPPED {
            self.accept_wake.wake();
            for w in &self.conn_wake {
                w.wake();
            }
        }
    }

    /// Queues an admin command for the control thread.
    fn push_control(&self, msg: ControlMsg) {
        self.locked(&self.control).push_back(msg);
        self.lifecycle.ring();
    }

    /// Spin-acquires a `TryLock` (none of these sections block or do IO,
    /// except `ConnIo::send` which has its own ticket lock).
    fn locked<'a, T>(&self, l: &'a TryLock<T>) -> TryLockGuard<'a, T> {
        let mut w = Waiter::new();
        loop {
            if let Some(g) = l.try_lock() {
                return g;
            }
            w.wait();
        }
    }

    /// Clones the current store handle, waiting out a crash swap: the
    /// store is absent only while the server is `CRASHING`.
    fn store_arc(&self) -> Arc<Store> {
        loop {
            if let Some(s) = self.locked(&self.store).as_ref() {
                return Arc::clone(s);
            }
            self.lifecycle.wait_while(|| self.state() == CRASHING);
        }
    }
}

/// Everything [`Server::join`] reports after the server stopped.
pub struct ShutdownReport {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Requests parsed (including admin and shed requests).
    pub requests: u64,
    /// Requests shed with `RETRY` (backpressure + crash window).
    pub retries: u64,
    /// Durable acks released.
    pub durable_acks: u64,
    /// Crash-recovery cycles survived.
    pub crashes: u64,
    /// Final per-shard `completedTail`s.
    pub completed_tails: Vec<u64>,
    /// Final per-shard crash-survivability watermarks. After a clean
    /// shutdown these equal `completed_tails` — the zero-loss property.
    pub durable_watermarks: Vec<u64>,
    /// The quiesced store, for post-shutdown inspection (tests capture a
    /// cut from it to prove zero loss).
    pub store: Arc<Store>,
}

/// A point-in-time view of the lifecycle and the pipelines, for telling
/// where a stuck server waits ([`Server::snapshot`]).
#[derive(Clone, Debug)]
pub struct PipelineSnapshot {
    /// Lifecycle state: `running`, `crashing`, `draining` or `stopped`.
    pub state: &'static str,
    /// Crash-recovery generation.
    pub generation: u64,
    /// Executors and drainers parked for a crash.
    pub parked: usize,
    /// Per shard: `(len, busy, dur_len)` — queued jobs, executors inside
    /// `execute`, durable acks not yet released.
    pub shards: Vec<(usize, usize, usize)>,
}

/// A running KV server; see the module docs for the architecture.
pub struct Server {
    inner: Arc<Inner>,
    threads: Vec<std::thread::JoinHandle<()>>,
    addr: SocketAddr,
}

impl Server {
    /// Binds `bind` (e.g. `"127.0.0.1:0"`) and starts every thread.
    pub fn start(cfg: ServeConfig, bind: &str) -> std::io::Result<Server> {
        assert!(cfg.shards > 0, "need at least one shard");
        assert!(cfg.executors_per_shard > 0, "need at least one executor");
        assert!(cfg.conn_threads > 0, "need at least one conn thread");
        let listener = TcpListener::bind(bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let workers = cfg.workers();
        // One extra core: the topology reserves a CPU for the persistence
        // thread, so `workers` registered workers need `workers + 1` cores.
        let assignment = Topology::new(1, workers + 1, 1).assign_workers(workers);
        let store = Arc::new(Store::new(
            HashMap::new(),
            cfg.shards,
            assignment.clone(),
            cfg.prep_config(),
            route_key,
        ));
        let inner = Arc::new(Inner {
            assignment,
            state: AtomicU8::new(RUNNING),
            generation: AtomicU64::new(0),
            store: TryLock::new(Some(store)),
            pipelines: (0..cfg.shards).map(|_| Pipeline::new()).collect(),
            control: TryLock::new(VecDeque::new()),
            lifecycle: Doorbell::new(),
            conn_inbox: (0..cfg.conn_threads)
                .map(|_| TryLock::new(Vec::new()))
                .collect(),
            conn_wake: (0..cfg.conn_threads)
                .map(|_| WakeSocket::new())
                .collect::<std::io::Result<_>>()?,
            accept_wake: WakeSocket::new()?,
            parked: AtomicUsize::new(0),
            counters: Counters::default(),
            cfg,
        });

        let mut threads = Vec::new();
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-accept".into())
                    .spawn(move || acceptor_loop(inner, listener))
                    .expect("spawn acceptor"),
            );
        }
        for c in 0..inner.cfg.conn_threads {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-conn-{c}"))
                    .spawn(move || conn_loop(inner, c))
                    .expect("spawn conn thread"),
            );
        }
        for s in 0..inner.cfg.shards {
            for e in 0..inner.cfg.executors_per_shard {
                let inner = Arc::clone(&inner);
                let worker = s * inner.cfg.executors_per_shard + e;
                threads.push(
                    std::thread::Builder::new()
                        .name(format!("serve-exec-{s}-{e}"))
                        .spawn(move || executor_loop(inner, s, worker))
                        .expect("spawn executor"),
                );
            }
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("serve-dur-{s}"))
                    .spawn(move || drainer_loop(inner, s))
                    .expect("spawn drainer"),
            );
        }
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("serve-control".into())
                    .spawn(move || control_loop(inner))
                    .expect("spawn control"),
            );
        }
        Ok(Server {
            inner,
            threads,
            addr,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the control thread to drain and stop (same path as
    /// `ADMIN SHUTDOWN` and SIGTERM). Returns immediately.
    pub fn request_shutdown(&self) {
        self.inner.push_control((AdminCmd::Shutdown, 0, None));
    }

    /// The lifecycle state and per-shard pipeline counters right now.
    pub fn snapshot(&self) -> PipelineSnapshot {
        let inner = &self.inner;
        // ord: diagnostic reads of counters the pipeline keeps exact;
        // Relaxed, as nothing is published through them here.
        let load = |a: &AtomicUsize| a.load(Ordering::Relaxed);
        PipelineSnapshot {
            state: match inner.state() {
                RUNNING => "running",
                CRASHING => "crashing",
                DRAINING => "draining",
                _ => "stopped",
            },
            // ord: diagnostic read (Relaxed).
            generation: inner.generation.load(Ordering::Relaxed),
            parked: load(&inner.parked),
            shards: inner
                .pipelines
                .iter()
                .map(|pl| (load(&pl.len), load(&pl.busy), load(&pl.dur_len)))
                .collect(),
        }
    }

    /// Crash-recovery cycles performed so far.
    pub fn crash_count(&self) -> u64 {
        // ord: monotone counter; Relaxed suffices for a diagnostic read.
        self.inner.counters.crashes.load(Ordering::Relaxed)
    }

    /// A handle to the current store (diagnostics/tests).
    ///
    /// Do **not** hold this across an `ADMIN CRASH`: recovery waits for
    /// exclusive ownership of the old store before rebuilding.
    pub fn store_handle(&self) -> Arc<Store> {
        self.inner.store_arc()
    }

    /// Blocks until the server has stopped (via [`Server::request_shutdown`],
    /// `ADMIN SHUTDOWN`, or a watched signal), then joins every thread and
    /// reports.
    pub fn join(self) -> ShutdownReport {
        let inner = &self.inner;
        inner.lifecycle.wait_while(|| inner.state() != STOPPED);
        for t in self.threads {
            let _ = t.join();
        }
        let store = self.inner.store_arc();
        let c = &self.inner.counters;
        ShutdownReport {
            // ord: all threads joined; these are final values (Relaxed).
            connections: c.connections.load(Ordering::Relaxed),
            requests: c.requests.load(Ordering::Relaxed), // ord: post-join
            retries: c.retries.load(Ordering::Relaxed),   // ord: post-join
            durable_acks: c.durable_acks.load(Ordering::Relaxed), // ord: post-join
            crashes: c.crashes.load(Ordering::Relaxed),   // ord: post-join
            completed_tails: store.completed_tails(),
            durable_watermarks: store.durable_watermarks(),
            store,
        }
    }

    /// [`Server::request_shutdown`] + [`Server::join`].
    pub fn shutdown(self) -> ShutdownReport {
        self.request_shutdown();
        self.join()
    }
}

/// Accept loop: hands sockets to connection threads round-robin, waking
/// the receiving thread; blocks in `ppoll` on the listener between
/// connections.
fn acceptor_loop(inner: Arc<Inner>, listener: TcpListener) {
    let mut next = 0usize;
    loop {
        if inner.state() == STOPPED {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_nonblocking(true);
                // ord: monotone counter (Relaxed).
                inner.counters.connections.fetch_add(1, Ordering::Relaxed);
                let c = next % inner.cfg.conn_threads;
                inner.locked(&inner.conn_inbox[c]).push(stream);
                inner.conn_wake[c].wake();
                next = next.wrapping_add(1);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let mut fds = [PollFd::new(&listener, POLLIN), inner.accept_wake.pollfd()];
                let _ = ppoll::poll(&mut fds, None);
                inner.accept_wake.drain();
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            // Out of descriptors or similar: the listener stays readable,
            // so back off on the wake socket alone before retrying.
            Err(_) => {
                let _ = ppoll::poll(&mut [inner.accept_wake.pollfd()], Some(ACCEPT_BACKOFF));
            }
        }
    }
}

/// How long the acceptor backs off after an `accept` error other than
/// `WouldBlock` (e.g. `EMFILE`).
const ACCEPT_BACKOFF: Duration = Duration::from_millis(1);

/// One connection's reader-side state.
struct ConnState {
    io: Arc<ConnIo>,
    rbuf: Vec<u8>,
    /// The last `ppoll` reported the socket readable (or it is new).
    ready: bool,
}

/// Connection thread: owns a set of connections, reads frames, dispatches.
/// Between reads it blocks in `ppoll` over its sockets and its wake
/// socket, and services only the sockets `ppoll` reported ready.
fn conn_loop(inner: Arc<Inner>, index: usize) {
    let mut conns: Vec<ConnState> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let wake = &inner.conn_wake[index];
    loop {
        let st = inner.state();
        if st == STOPPED {
            for c in &conns {
                let _ = c.io.stream.shutdown(NetShutdown::Both);
            }
            return;
        }
        {
            let mut inbox = inner.locked(&inner.conn_inbox[index]);
            for stream in inbox.drain(..) {
                conns.push(ConnState {
                    io: Arc::new(ConnIo {
                        stream,
                        wlock: TicketLock::new(),
                    }),
                    rbuf: Vec::new(),
                    ready: true,
                });
            }
        }
        conns.retain_mut(|conn| !conn.ready || service_conn(&inner, st, conn));
        fds.clear();
        fds.push(wake.pollfd());
        fds.extend(conns.iter().map(|c| PollFd::new(&c.io.stream, POLLIN)));
        let _ = ppoll::poll(&mut fds, None);
        for (conn, fd) in conns.iter_mut().zip(&fds[1..]) {
            conn.ready = fd.ready();
        }
        if fds[0].ready() {
            wake.drain();
        }
    }
}

/// Reads and dispatches everything currently available on one connection.
/// Returns false when the connection should be dropped.
fn service_conn(inner: &Arc<Inner>, st: u8, conn: &mut ConnState) -> bool {
    let mut tmp = [0u8; 4096];
    loop {
        let mut s = &conn.io.stream;
        match s.read(&mut tmp) {
            Ok(0) => return false,
            Ok(n) => {
                conn.rbuf.extend_from_slice(&tmp[..n]);
                if n < tmp.len() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    loop {
        match proto::decode_request(&conn.rbuf) {
            Ok(None) => break,
            Ok(Some((req, used))) => {
                conn.rbuf.drain(..used);
                dispatch(inner, st, req, &conn.io);
            }
            // Protocol error: this peer is speaking garbage; drop it.
            Err(_) => return false,
        }
    }
    true
}

/// Routes one parsed request: admin → control queue, data → shard queue.
fn dispatch(inner: &Arc<Inner>, st: u8, req: Request, io: &Arc<ConnIo>) {
    // ord: monotone counter (Relaxed).
    inner.counters.requests.fetch_add(1, Ordering::Relaxed);
    let id = req.id();
    let (shard, job) = match req {
        Request::Admin { id, cmd } => {
            inner.push_control((cmd, id, Some(Arc::clone(io))));
            return;
        }
        Request::Get { id, key } => (
            shard_index(key, inner.cfg.shards),
            Job {
                id,
                ack: AckLevel::Buffered,
                kind: JobKind::Get { key },
                conn: Arc::clone(io),
            },
        ),
        Request::Put {
            id,
            ack,
            key,
            value,
        } => (
            shard_index(key, inner.cfg.shards),
            Job {
                id,
                ack,
                kind: JobKind::Put { key, value },
                conn: Arc::clone(io),
            },
        ),
        Request::Delete { id, ack, key } => (
            shard_index(key, inner.cfg.shards),
            Job {
                id,
                ack,
                kind: JobKind::Delete { key },
                conn: Arc::clone(io),
            },
        ),
        Request::Scan { id, start, count } => (
            shard_index(start, inner.cfg.shards),
            Job {
                id,
                ack: AckLevel::Buffered,
                kind: JobKind::Scan { start, count },
                conn: Arc::clone(io),
            },
        ),
    };
    match st {
        RUNNING => {}
        // The crash window looks like transient overload from outside:
        // clients retry and succeed after recovery.
        CRASHING => {
            // ord: monotone counter (Relaxed).
            inner.counters.retries.fetch_add(1, Ordering::Relaxed);
            io.respond(&Response::Retry { id });
            return;
        }
        _ => {
            io.respond(&Response::Err {
                id,
                code: err_code::SHUTTING_DOWN,
            });
            return;
        }
    }
    let pl = &inner.pipelines[shard];
    // ord: Acquire pairs with push/pop updates; a stale full reading only
    // sheds one request early, never overfills (rechecked under lock).
    if pl.len.load(Ordering::Acquire) >= inner.cfg.queue_depth {
        // ord: monotone counter (Relaxed).
        inner.counters.retries.fetch_add(1, Ordering::Relaxed);
        io.respond(&Response::Retry { id });
        return;
    }
    let mut q = inner.locked(&pl.queue);
    if q.len() >= inner.cfg.queue_depth {
        drop(q);
        // ord: monotone counter (Relaxed).
        inner.counters.retries.fetch_add(1, Ordering::Relaxed);
        io.respond(&Response::Retry { id });
        return;
    }
    q.push_back(job);
    // ord: SeqCst — the state half of the executors' doorbell handshake
    // (their idle condition rereads `len` with SeqCst); as an RMW it also
    // keeps the mirror exact under concurrent push/pop.
    pl.len.fetch_add(1, Ordering::SeqCst);
    drop(q);
    pl.exec_bell.ring_one();
}

/// Why an executor/drainer left its per-generation loop.
enum After {
    Exit,
    Park,
}

/// Executor thread: one registered NR worker of `shard`, popping the
/// submission queue. β of these per shard is the combiner-batch alignment.
fn executor_loop(inner: Arc<Inner>, shard: usize, worker: usize) {
    loop {
        // ord: SeqCst pairs with recovery's generation bump, made after
        // it installs the new store (SeqCst: `park` rereads it in a
        // doorbell condition).
        let gen = inner.generation.load(Ordering::SeqCst);
        let store = inner.store_arc();
        let token = store.register(worker);
        let after = executor_generation(&inner, &store, &token, shard);
        drop(token);
        drop(store);
        match after {
            After::Exit => return,
            After::Park => {
                if !park(&inner, gen) {
                    return;
                }
            }
        }
    }
}

/// Parks until recovery publishes a new generation. Returns false when the
/// server stopped instead.
fn park(inner: &Arc<Inner>, gen: u64) -> bool {
    // ord: AcqRel — the Release half publishes this worker's dropped store
    // handle to the control thread's parked-count Acquire spin.
    inner.parked.fetch_add(1, Ordering::AcqRel);
    let parked = || match inner.state() {
        STOPPED => false,
        // ord: SeqCst pairs with recovery's generation bump (doorbell
        // condition).
        RUNNING => inner.generation.load(Ordering::SeqCst) == gen,
        _ => true,
    };
    inner.lifecycle.wait_while(parked);
    let resume = inner.state() != STOPPED;
    // ord: AcqRel, symmetric with the increment above.
    inner.parked.fetch_sub(1, Ordering::AcqRel);
    resume
}

/// Executes jobs for one store generation.
fn executor_generation(
    inner: &Arc<Inner>,
    store: &Arc<Store>,
    token: &prep_shard::ShardToken,
    shard: usize,
) -> After {
    let pl = &inner.pipelines[shard];
    // Idle: nothing queued and no state change to act on.
    let idle = || {
        // ord: SeqCst — the waiter half of the doorbell handshake with
        // dispatch's SeqCst push count.
        pl.len.load(Ordering::SeqCst) == 0 && matches!(inner.state(), RUNNING | DRAINING)
    };
    loop {
        match inner.state() {
            CRASHING => return After::Park,
            STOPPED => return After::Exit,
            // RUNNING pops and executes; DRAINING keeps popping until the
            // queue is empty (the control thread waits on len+busy before
            // quiescing), then idles until STOPPED.
            _ => {}
        }
        // busy is raised *before* the pop so `len == 0 && busy == 0` is a
        // true drain barrier (no job can be in flight unobserved).
        // ord: AcqRel pairs with the control thread's drain-barrier
        // Acquire reads.
        pl.busy.fetch_add(1, Ordering::AcqRel);
        let job = {
            // ord: Acquire mirror check avoids taking the lock when empty.
            if pl.len.load(Ordering::Acquire) == 0 {
                None
            } else {
                let mut q = inner.locked(&pl.queue);
                let j = q.pop_front();
                if j.is_some() {
                    // ord: AcqRel keeps the mirror exact.
                    pl.len.fetch_sub(1, Ordering::AcqRel);
                }
                j
            }
        };
        match job {
            Some(job) => {
                execute_job(inner, store, token, shard, job);
                // ord: AcqRel, symmetric with the raise above.
                pl.busy.fetch_sub(1, Ordering::AcqRel);
            }
            None => {
                // ord: AcqRel, symmetric with the raise above.
                pl.busy.fetch_sub(1, Ordering::AcqRel);
                pl.exec_bell.wait_while(idle);
            }
        }
    }
}

/// Runs one job on the store and releases (or defers) its ack.
fn execute_job(
    inner: &Arc<Inner>,
    store: &Arc<Store>,
    token: &prep_shard::ShardToken,
    shard: usize,
    job: Job,
) {
    match job.kind {
        JobKind::Get { key } => {
            let value = match store.execute(token, MapOp::Get { key }) {
                MapResp::Value(v) => v,
                _ => None,
            };
            job.conn.respond(&Response::Value { id: job.id, value });
        }
        JobKind::Scan { start, count } => {
            let mut pairs = Vec::new();
            for key in start..start.saturating_add(count as u64) {
                if let MapResp::Value(Some(v)) = store.execute(token, MapOp::Get { key }) {
                    pairs.push((key, v));
                }
            }
            job.conn.respond(&Response::Pairs { id: job.id, pairs });
        }
        JobKind::Put { key, value } => {
            store.execute(token, MapOp::Insert { key, value });
            finish_update(inner, store, shard, &job);
        }
        JobKind::Delete { key } => {
            store.execute(token, MapOp::Remove { key });
            finish_update(inner, store, shard, &job);
        }
    }
}

/// Releases an update's ack: immediately for buffered acks (and for
/// durable-mode stores, where `execute` already waited out the persist),
/// deferred through the durability drainer otherwise.
fn finish_update(inner: &Arc<Inner>, store: &Arc<Store>, shard: usize, job: &Job) {
    let durable_store = store.shard(shard).config().durability == DurabilityLevel::Durable;
    if job.ack == AckLevel::Buffered || durable_store {
        job.conn.respond(&Response::Done { id: job.id });
        return;
    }
    // The op completed on `shard`, so the shard's current completedTail
    // covers its log index; once the watermark passes this value the op is
    // crash-survivable and the ack may be released.
    let cover = store.shard(shard).completed_tail();
    let mut frame = Vec::with_capacity(16);
    proto::encode_response(&Response::Done { id: job.id }, &mut frame);
    let pl = &inner.pipelines[shard];
    // ord: AcqRel pairs with the drain barrier's Acquire; raised before
    // the push so dur_len == 0 always means "every durable ack released".
    pl.dur_len.fetch_add(1, Ordering::AcqRel);
    inner.locked(&pl.dur_queue).push_back(DurAck {
        id: job.id,
        cover,
        frame,
        conn: Arc::clone(&job.conn),
    });
    pl.dur_bell.ring();
}

/// Durability drainer: releases durable acks once their covering
/// `completedTail` persist completes, nudging the persistence thread when
/// the wait escalates.
fn drainer_loop(inner: Arc<Inner>, shard: usize) {
    loop {
        // ord: SeqCst, as in `executor_loop`.
        let gen = inner.generation.load(Ordering::SeqCst);
        let store = inner.store_arc();
        let after = drainer_generation(&inner, &store, shard);
        drop(store);
        match after {
            After::Exit => return,
            After::Park => {
                if !park(&inner, gen) {
                    return;
                }
            }
        }
    }
}

fn drainer_generation(inner: &Arc<Inner>, store: &Arc<Store>, shard: usize) -> After {
    let pl = &inner.pipelines[shard];
    // Idle: no durable ack queued and no state change to act on. The
    // queue is checked under the lock `finish_update` pushes under, which
    // orders the check against the push the doorbell announces.
    let idle =
        || inner.locked(&pl.dur_queue).is_empty() && matches!(inner.state(), RUNNING | DRAINING);
    loop {
        match inner.state() {
            // Acks still queued are downgraded by the control thread once
            // every worker has parked (`do_crash`).
            CRASHING => return After::Park,
            STOPPED => return After::Exit,
            _ => {}
        }
        let ack = inner.locked(&pl.dur_queue).pop_front();
        match ack {
            Some(ack) => {
                if wait_covered(inner, store, shard, ack.cover) {
                    ack.conn.send(&ack.frame);
                    // ord: monotone counter (Relaxed).
                    inner.counters.durable_acks.fetch_add(1, Ordering::Relaxed);
                    // ord: AcqRel — only after the ack is on the wire does
                    // the pending count drop (drain barrier exactness).
                    pl.dur_len.fetch_sub(1, Ordering::AcqRel);
                } else {
                    // Crash interrupted the wait: downgrade to RETRY (no
                    // durability claim), park next iteration.
                    ack.conn.respond(&Response::Retry { id: ack.id });
                    // ord: AcqRel, see above.
                    pl.dur_len.fetch_sub(1, Ordering::AcqRel);
                }
            }
            None => pl.dur_bell.wait_while(idle),
        }
    }
}

/// Waits until `shard`'s watermark covers `cover`. Returns false if a
/// crash began first.
fn wait_covered(inner: &Arc<Inner>, store: &Arc<Store>, shard: usize, cover: u64) -> bool {
    let sh = store.shard(shard);
    let mut w = Waiter::new();
    loop {
        if sh.durable_watermark() >= cover {
            return true;
        }
        if inner.state() == CRASHING {
            return false;
        }
        if w.is_contended() {
            // The natural checkpoint is up to ε ops away; pull it forward
            // rather than sitting on the client's ack.
            sh.nudge_checkpoint();
        }
        w.wait();
    }
}

/// How often a control thread that watches the process signal flag wakes
/// to check it (a signal handler cannot ring a doorbell).
const SIGNAL_POLL: Duration = Duration::from_millis(10);

/// Control thread: admin commands, crash recovery, drain/shutdown. Blocks
/// on the lifecycle doorbell between commands.
fn control_loop(inner: Arc<Inner>) {
    let idle = || inner.state() != STOPPED && inner.locked(&inner.control).is_empty();
    loop {
        if inner.cfg.watch_signals && signals::shutdown_requested() && inner.state() == RUNNING {
            do_shutdown(&inner, None);
        }
        let msg = inner.locked(&inner.control).pop_front();
        match msg {
            Some((AdminCmd::Stats, id, io)) => {
                let stats = wire_stats(&inner.store_arc());
                if let Some(io) = io {
                    io.respond(&Response::Stats { id, stats });
                }
            }
            Some((AdminCmd::Crash, id, io)) => do_crash(&inner, id, io),
            Some((AdminCmd::Shutdown, id, io)) => do_shutdown(&inner, io.map(|io| (id, io))),
            None if inner.state() == STOPPED => return,
            None if inner.cfg.watch_signals => {
                inner.lifecycle.wait_while_timeout(idle, SIGNAL_POLL);
            }
            None => inner.lifecycle.wait_while(idle),
        }
    }
}

/// Converts a [`prep_shard::StoreMetrics`] snapshot to its wire form.
fn wire_stats(store: &Arc<Store>) -> WireStats {
    let m = store.metrics();
    WireStats {
        epoch: m.epoch,
        loss_bound: m.loss_bound,
        shards: m
            .shards
            .iter()
            .map(|s| WireShard {
                completed_tail: s.completed_tail,
                durable_watermark: s.durable_watermark,
                read_slow_paths: s.read_slow_paths,
                read_fast_optimistic: s.read_fast_optimistic,
                read_validation_failures: s.read_validation_failures,
                clflush: s.stats.clflush,
                clflushopt: s.stats.clflushopt,
                sfence: s.stats.sfence,
                checkpoints: s.stats.checkpoints,
                lane_completed_tails: s.lane_completed_tails.clone(),
                lane_durable_watermarks: s.lane_durable_watermarks.clone(),
                lane_combine_rounds: s.lane_combine_rounds.clone(),
            })
            .collect(),
    }
}

/// Simulated power failure + recovery (see module docs for the ordering
/// argument: all acks precede the cut because all workers park first).
fn do_crash(inner: &Arc<Inner>, id: u64, io: Option<Arc<ConnIo>>) {
    if !inner.cfg.crash_sim {
        if let Some(io) = io {
            io.respond(&Response::Err {
                id,
                code: err_code::NO_CRASH_SIM,
            });
        }
        return;
    }
    inner.set_state(CRASHING);
    let target = inner.cfg.shards * (inner.cfg.executors_per_shard + 1);
    // ord: Acquire pairs with park()'s AcqRel — once the count reaches the
    // target, every worker has dropped its store handle and no further ack
    // can be written.
    spin_until(|| inner.parked.load(Ordering::Acquire) == target);
    downgrade_pending_durable_acks(inner);

    let old = inner
        .locked(&inner.store)
        .take()
        .expect("store present outside crash recovery");
    let (token, image) = old.simulate_crash();
    // Recovery needs exclusive ownership: PrepUc::drop joins the old
    // persistence threads so nothing writes to the old runtime after the
    // cut. Workers have parked (handles dropped); transient holders
    // (stats) are bounded.
    let mut old = old;
    let mut w = Waiter::new();
    let store = loop {
        match Arc::try_unwrap(old) {
            Ok(s) => break s,
            Err(again) => {
                old = again;
                w.wait();
            }
        }
    };
    drop(store);
    let recovered = Store::recover(
        token,
        image,
        inner.assignment.clone(),
        inner.cfg.prep_config(),
        route_key,
    );
    *inner.locked(&inner.store) = Some(Arc::new(recovered));
    // ord: monotone counter (Relaxed).
    inner.counters.crashes.fetch_add(1, Ordering::Relaxed);
    // ord: SeqCst publishes the new store before workers' generation
    // load lets them re-register (SeqCst: parked workers reread it in a
    // doorbell condition; the RUNNING transition below rings).
    inner.generation.fetch_add(1, Ordering::SeqCst);
    inner.set_state(RUNNING);
    if let Some(io) = io {
        io.respond(&Response::Done { id });
    }
}

/// Answers every durable ack still queued with `RETRY`, once every worker
/// has parked for a crash.
///
/// The crash interrupts those acks before their covering persist: the ops
/// may or may not survive the cut, so they must NOT be acked `Done` — and
/// their covers index the old store's log, which the recovered store's
/// watermark may never reach. But the TCP connection outlives the
/// simulated power failure, so silence would wedge the client forever.
/// `RETRY` claims nothing (the client replays) and keeps the invariant
/// that every frame gets exactly one response. This runs after the park
/// barrier, not in the drainer: an executor can still push an ack after
/// its shard's drainer has parked, and that ack must be answered too.
fn downgrade_pending_durable_acks(inner: &Inner) {
    for pl in &inner.pipelines {
        let dropped: Vec<DurAck> = inner.locked(&pl.dur_queue).drain(..).collect();
        for ack in &dropped {
            ack.conn.respond(&Response::Retry { id: ack.id });
        }
        // ord: AcqRel pairs with the drain barrier's Acquire.
        pl.dur_len.fetch_sub(dropped.len(), Ordering::AcqRel);
    }
}

/// Drain-and-stop: empty every queue, release every pending durable ack,
/// force the final checkpoints, then stop. Zero buffered-op loss.
fn do_shutdown(inner: &Arc<Inner>, reply: Option<(u64, Arc<ConnIo>)>) {
    if inner.state() != RUNNING {
        if let Some((id, io)) = reply {
            io.respond(&Response::Done { id });
        }
        return;
    }
    // Conn threads start shedding new work.
    inner.set_state(DRAINING);
    for pl in &inner.pipelines {
        // ord: Acquire pairs with the executors' AcqRel updates; both zero
        // with no new pushes possible means the queue is truly drained.
        spin_until(|| pl.len.load(Ordering::Acquire) == 0 && pl.busy.load(Ordering::Acquire) == 0);
        // ord: Acquire — zero means every accepted durable ack was released.
        spin_until(|| pl.dur_len.load(Ordering::Acquire) == 0);
    }
    // The final forced checkpoint: after this, watermark == completedTail
    // on every shard, so a post-shutdown crash loses nothing.
    let store = inner.store_arc();
    store.quiesce_persistence();
    if let Some((id, io)) = reply {
        io.respond(&Response::Done { id });
    }
    // Every thread exits on its next state read; the transition wakes
    // each one that blocks.
    inner.set_state(STOPPED);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_response, encode_request};

    /// Minimal blocking test client.
    struct TestClient {
        stream: TcpStream,
        buf: Vec<u8>,
    }

    impl TestClient {
        fn connect(addr: SocketAddr) -> Self {
            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).unwrap();
            TestClient {
                stream,
                buf: Vec::new(),
            }
        }

        fn send(&mut self, req: &Request) {
            let mut out = Vec::new();
            encode_request(req, &mut out);
            self.stream.write_all(&out).expect("send");
        }

        fn recv(&mut self) -> Response {
            let mut tmp = [0u8; 4096];
            loop {
                if let Some((resp, used)) = decode_response(&self.buf).expect("decode") {
                    self.buf.drain(..used);
                    return resp;
                }
                let n = self.stream.read(&mut tmp).expect("recv");
                assert!(n > 0, "server closed connection mid-response");
                self.buf.extend_from_slice(&tmp[..n]);
            }
        }

        fn roundtrip(&mut self, req: &Request) -> Response {
            self.send(req);
            self.recv()
        }
    }

    fn quick_cfg() -> ServeConfig {
        ServeConfig {
            shards: 2,
            executors_per_shard: 2,
            conn_threads: 1,
            queue_depth: 32,
            epsilon: 16,
            log_size: 512,
            crash_sim: true,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn get_put_delete_scan_roundtrip() {
        let server = Server::start(quick_cfg(), "127.0.0.1:0").unwrap();
        let mut c = TestClient::connect(server.local_addr());
        assert_eq!(
            c.roundtrip(&Request::Get { id: 1, key: 7 }),
            Response::Value { id: 1, value: None }
        );
        assert_eq!(
            c.roundtrip(&Request::Put {
                id: 2,
                ack: AckLevel::Buffered,
                key: 7,
                value: 70
            }),
            Response::Done { id: 2 }
        );
        assert_eq!(
            c.roundtrip(&Request::Get { id: 3, key: 7 }),
            Response::Value {
                id: 3,
                value: Some(70)
            }
        );
        // Durable ack: must also come back (and survive; see crash tests).
        assert_eq!(
            c.roundtrip(&Request::Put {
                id: 4,
                ack: AckLevel::Durable,
                key: 8,
                value: 80
            }),
            Response::Done { id: 4 }
        );
        for k in 10..20u64 {
            c.roundtrip(&Request::Put {
                id: 100 + k,
                ack: AckLevel::Buffered,
                key: k,
                value: k * 2,
            });
        }
        match c.roundtrip(&Request::Scan {
            id: 5,
            start: 10,
            count: 10,
        }) {
            Response::Pairs { id: 5, pairs } => {
                assert_eq!(pairs.len(), 10);
                assert!(pairs.iter().all(|&(k, v)| v == k * 2));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            c.roundtrip(&Request::Delete {
                id: 6,
                ack: AckLevel::Durable,
                key: 7
            }),
            Response::Done { id: 6 }
        );
        assert_eq!(
            c.roundtrip(&Request::Get { id: 7, key: 7 }),
            Response::Value { id: 7, value: None }
        );
        let report = server.shutdown();
        assert!(report.requests >= 16);
        assert_eq!(report.crashes, 0);
    }

    #[test]
    fn admin_stats_reflects_store_metrics() {
        let server = Server::start(quick_cfg(), "127.0.0.1:0").unwrap();
        let mut c = TestClient::connect(server.local_addr());
        for k in 0..30u64 {
            c.roundtrip(&Request::Put {
                id: k,
                ack: AckLevel::Buffered,
                key: k,
                value: k,
            });
        }
        match c.roundtrip(&Request::Admin {
            id: 999,
            cmd: AdminCmd::Stats,
        }) {
            Response::Stats { id: 999, stats } => {
                assert_eq!(stats.epoch, 0);
                assert_eq!(stats.shards.len(), 2);
                let total: u64 = stats.shards.iter().map(|s| s.completed_tail).sum();
                assert_eq!(total, 30);
                assert!(stats.loss_bound > 0, "buffered store has a loss bound");
            }
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn admin_crash_recovers_and_keeps_serving() {
        let server = Server::start(quick_cfg(), "127.0.0.1:0").unwrap();
        let mut c = TestClient::connect(server.local_addr());
        // Durable-acked writes must survive the crash.
        for k in 0..10u64 {
            c.roundtrip(&Request::Put {
                id: k,
                ack: AckLevel::Durable,
                key: k,
                value: k + 1,
            });
        }
        assert_eq!(
            c.roundtrip(&Request::Admin {
                id: 77,
                cmd: AdminCmd::Crash,
            }),
            Response::Done { id: 77 }
        );
        assert_eq!(server.crash_count(), 1);
        for k in 0..10u64 {
            assert_eq!(
                c.roundtrip(&Request::Get {
                    id: 200 + k,
                    key: k
                }),
                Response::Value {
                    id: 200 + k,
                    value: Some(k + 1)
                },
                "durable-acked key {k} lost across crash"
            );
        }
        // Epoch advanced on the wire too.
        match c.roundtrip(&Request::Admin {
            id: 78,
            cmd: AdminCmd::Stats,
        }) {
            Response::Stats { stats, .. } => assert_eq!(stats.epoch, 1),
            other => panic!("unexpected {other:?}"),
        }
        // And the recovered store accepts new writes.
        assert_eq!(
            c.roundtrip(&Request::Put {
                id: 300,
                ack: AckLevel::Durable,
                key: 500,
                value: 1
            }),
            Response::Done { id: 300 }
        );
        server.shutdown();
    }

    #[test]
    fn crash_without_sim_reports_error() {
        let cfg = ServeConfig {
            crash_sim: false,
            ..quick_cfg()
        };
        let server = Server::start(cfg, "127.0.0.1:0").unwrap();
        let mut c = TestClient::connect(server.local_addr());
        assert_eq!(
            c.roundtrip(&Request::Admin {
                id: 1,
                cmd: AdminCmd::Crash,
            }),
            Response::Err {
                id: 1,
                code: err_code::NO_CRASH_SIM
            }
        );
        server.shutdown();
    }

    #[test]
    fn wire_shutdown_stops_the_server() {
        let server = Server::start(quick_cfg(), "127.0.0.1:0").unwrap();
        let mut c = TestClient::connect(server.local_addr());
        c.roundtrip(&Request::Put {
            id: 1,
            ack: AckLevel::Buffered,
            key: 1,
            value: 1,
        });
        assert_eq!(
            c.roundtrip(&Request::Admin {
                id: 2,
                cmd: AdminCmd::Shutdown,
            }),
            Response::Done { id: 2 }
        );
        let report = server.join();
        assert_eq!(report.completed_tails, report.durable_watermarks);
    }

    #[test]
    fn full_queue_sheds_with_retry() {
        // One executor, depth-1 queues: park the executors with a slow
        // first op? Ops are fast, so instead flood a pipeline faster than
        // one waiter check by writing many frames in one syscall.
        let cfg = ServeConfig {
            shards: 1,
            executors_per_shard: 1,
            queue_depth: 1,
            crash_sim: false,
            ..quick_cfg()
        };
        let server = Server::start(cfg, "127.0.0.1:0").unwrap();
        let mut c = TestClient::connect(server.local_addr());
        let mut out = Vec::new();
        const N: u64 = 400;
        for i in 0..N {
            encode_request(
                &Request::Put {
                    id: i,
                    ack: AckLevel::Buffered,
                    key: i,
                    value: i,
                },
                &mut out,
            );
        }
        c.stream.write_all(&out).unwrap();
        let mut done = 0u64;
        let mut retries = 0u64;
        for _ in 0..N {
            match c.recv() {
                Response::Done { .. } => done += 1,
                Response::Retry { .. } => retries += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(done + retries, N);
        assert!(done > 0, "some requests must get through");
        let report = server.shutdown();
        // The server-side retry counter matches what the wire saw.
        assert_eq!(report.retries, retries);
    }
}
