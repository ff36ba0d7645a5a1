//! The open-loop engine.
//!
//! Closed-loop clients (send, wait, send) let a slow server set the pace,
//! hiding queueing delay — the coordinated-omission trap. This engine is
//! **open-loop**: every connection derives an *arrival schedule* from
//! the offered rate before the run starts (see [`crate::arrivals`] for the
//! fixed-lattice, Poisson, and bursty processes), sends each request at its
//! scheduled instant whether or not earlier responses have returned, and
//! measures latency **from the scheduled send time**. A request the
//! generator itself sent late (because the previous send blocked) is
//! charged that lateness, exactly as a real client arriving then would
//! experience it.
//!
//! Under the default fixed lattice, connection `i` of `c` owns arrivals
//! `i, i+c, i+2c, …` of the global schedule (interval `1/rate`), so the
//! aggregate offered load is `rate`
//! regardless of the connection count. Between arrivals the connection
//! waits in `ppoll(2)` with a deadline at the next send, so responses are
//! timestamped promptly rather than at the next polling tick. `RETRY`
//! responses count as shed load (the backpressure contract), not latency
//! samples.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use prep_serve::proto::{self, AckLevel, AdminCmd, Request, Response};
use prep_sync::poll::wait_readable;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::arrivals::{Arrival, ArrivalGen};
use crate::clock::Clock;
use crate::hist::LatencyHistogram;
use crate::keys::{KeyMix, KeySampler};

/// Request id carried by the crash-injection admin frame.
const CRASH_ID: u64 = u64::MAX;
/// Request id carried by the end-of-run shutdown frame.
const SHUTDOWN_ID: u64 = u64::MAX - 1;
/// How long after the send window the engine waits for stragglers.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// One load-generation run's parameters.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Server address, e.g. `127.0.0.1:7070`.
    pub addr: String,
    /// Client connections; the offered rate is split across them.
    pub conns: usize,
    /// Aggregate offered load, requests/second.
    pub rate: f64,
    /// Measured window length.
    pub duration_ms: u64,
    /// Schedule prefix whose completions are not recorded.
    pub warmup_ms: u64,
    /// Dense key space `[0, keys)`.
    pub keys: u64,
    /// Key popularity curve.
    pub mix: KeyMix,
    /// Fraction of requests that are GETs (the rest are PUTs).
    pub get_fraction: f64,
    /// Ack level requested on updates.
    pub ack: AckLevel,
    /// RNG seed (per-connection streams derive from it).
    pub seed: u64,
    /// Keys preloaded (PUT) before the timed window.
    pub preload: u64,
    /// Arrival process shaping the schedule (fixed lattice, Poisson,
    /// bursty on/off); all preserve the aggregate offered rate.
    pub arrival: Arrival,
    /// Inject `ADMIN CRASH` this far into the measured window.
    pub crash_at_ms: Option<u64>,
    /// Send `ADMIN SHUTDOWN` after the run and wait for the ack.
    pub shutdown: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            addr: String::from("127.0.0.1:7070"),
            conns: 2,
            rate: 5_000.0,
            duration_ms: 2_000,
            warmup_ms: 200,
            keys: 10_000,
            mix: KeyMix::Uniform,
            get_fraction: 0.5,
            ack: AckLevel::Buffered,
            seed: 42,
            preload: 1_000,
            arrival: Arrival::Fixed,
            crash_at_ms: None,
            shutdown: false,
        }
    }
}

/// Crash-injection observations (present when `crash_at_ms` was set).
#[derive(Debug, Clone, Copy)]
pub struct CrashProbe {
    /// When the `ADMIN CRASH` frame was sent (ns on the run clock).
    pub requested_ns: u64,
    /// Server's crash ack (recovery finished), ns on the run clock.
    pub acked_ns: Option<u64>,
    /// First *data* response completed after the crash request — the
    /// client-observed time-to-first-response across the outage.
    pub first_data_ns: Option<u64>,
}

impl CrashProbe {
    /// Recovery time-to-first-response in nanoseconds, if observed.
    pub fn ttfr_ns(&self) -> Option<u64> {
        self.first_data_ns
            .map(|t| t.saturating_sub(self.requested_ns))
    }
}

/// Aggregated results of one run.
pub struct RunReport {
    /// Requests sent inside the measured window.
    pub sent: u64,
    /// Measured-window requests that completed successfully.
    pub completed: u64,
    /// Requests shed by server backpressure (`RETRY`).
    pub shed: u64,
    /// Error responses (e.g. sent into a draining server).
    pub errors: u64,
    /// Requests never answered before the drain grace expired.
    pub lost: u64,
    /// Latency of every completed request (from scheduled send time).
    pub hist: LatencyHistogram,
    /// Latency of completed updates only (the ack-level contrast).
    pub update_hist: LatencyHistogram,
    /// Wall-clock length of the measured window actually achieved.
    pub elapsed_ns: u64,
    /// Crash-injection observations, when requested.
    pub crash: Option<CrashProbe>,
}

impl RunReport {
    /// Completed requests per second over the measured window.
    pub fn achieved_rate(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.completed as f64 * 1e9 / self.elapsed_ns as f64
    }
}

struct PendingOp {
    sched_ns: u64,
    update: bool,
    warmup: bool,
}

#[derive(Default)]
struct ConnOutcome {
    sent: u64,
    completed: u64,
    shed: u64,
    errors: u64,
    lost: u64,
    hist: LatencyHistogram,
    update_hist: LatencyHistogram,
    crash: Option<CrashProbe>,
}

/// Runs the workload and blocks until every connection drains.
pub fn run(cfg: &RunConfig) -> std::io::Result<RunReport> {
    assert!(cfg.conns > 0, "need at least one connection");
    assert!(cfg.rate > 0.0, "rate must be positive");
    if cfg.preload > 0 {
        preload(cfg)?;
    }
    let clock = std::sync::Arc::new(Clock::new());
    // Arrivals start slightly in the future so every thread is connected
    // before arrival 0 — lateness at the very front would otherwise be
    // charged to the server.
    let start_ns = clock.now_ns() + 50_000_000;
    let outcomes: Vec<std::io::Result<ConnOutcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.conns)
            .map(|i| {
                let clock = std::sync::Arc::clone(&clock);
                scope.spawn(move || conn_worker(cfg, i, &clock, start_ns))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let mut report = RunReport {
        sent: 0,
        completed: 0,
        shed: 0,
        errors: 0,
        lost: 0,
        hist: LatencyHistogram::new(),
        update_hist: LatencyHistogram::new(),
        elapsed_ns: cfg.duration_ms.saturating_sub(cfg.warmup_ms) * 1_000_000,
        crash: None,
    };
    for outcome in outcomes {
        let o = outcome?;
        report.sent += o.sent;
        report.completed += o.completed;
        report.shed += o.shed;
        report.errors += o.errors;
        report.lost += o.lost;
        report.hist.merge(&o.hist);
        report.update_hist.merge(&o.update_hist);
        if o.crash.is_some() {
            report.crash = o.crash;
        }
    }
    if cfg.shutdown {
        shutdown_server(cfg)?;
    }
    Ok(report)
}

/// Populates keys `[0, preload)` over one blocking connection, pipelined
/// in chunks so the preload phase is not itself closed-loop-slow.
fn preload(cfg: &RunConfig) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(&cfg.addr)?;
    stream.set_nodelay(true)?;
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x9e3779b97f4a7c15);
    let mut buf = Vec::new();
    let mut rbuf = Vec::new();
    let mut tmp = [0u8; 4096];
    const CHUNK: u64 = 128;
    let mut key = 0u64;
    while key < cfg.preload {
        buf.clear();
        let end = (key + CHUNK).min(cfg.preload);
        for k in key..end {
            proto::encode_request(
                &Request::Put {
                    id: k,
                    ack: AckLevel::Buffered,
                    key: k,
                    value: rng.gen(),
                },
                &mut buf,
            );
        }
        stream.write_all(&buf)?;
        let mut acked = 0;
        while acked < end - key {
            while let Some((resp, used)) = proto::decode_response(&rbuf).expect("preload decode") {
                rbuf.drain(..used);
                match resp {
                    Response::Done { .. } => acked += 1,
                    Response::Retry { id } => {
                        // Shed during preload: replay that key immediately.
                        let mut again = Vec::new();
                        proto::encode_request(
                            &Request::Put {
                                id,
                                ack: AckLevel::Buffered,
                                key: id,
                                value: rng.gen(),
                            },
                            &mut again,
                        );
                        stream.write_all(&again)?;
                    }
                    other => panic!("unexpected preload response {other:?}"),
                }
            }
            if acked < end - key {
                let n = stream.read(&mut tmp)?;
                assert!(n > 0, "server closed during preload");
                rbuf.extend_from_slice(&tmp[..n]);
            }
        }
        key = end;
    }
    Ok(())
}

/// Sends `ADMIN SHUTDOWN` and waits for the ack.
fn shutdown_server(cfg: &RunConfig) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(&cfg.addr)?;
    stream.set_nodelay(true)?;
    let mut buf = Vec::new();
    proto::encode_request(
        &Request::Admin {
            id: SHUTDOWN_ID,
            cmd: AdminCmd::Shutdown,
        },
        &mut buf,
    );
    stream.write_all(&buf)?;
    let mut rbuf = Vec::new();
    let mut tmp = [0u8; 256];
    loop {
        if let Some((resp, used)) = proto::decode_response(&rbuf).expect("shutdown decode") {
            rbuf.drain(..used);
            assert_eq!(resp, Response::Done { id: SHUTDOWN_ID });
            return Ok(());
        }
        let n = stream.read(&mut tmp)?;
        if n == 0 {
            return Ok(());
        }
        rbuf.extend_from_slice(&tmp[..n]);
    }
}

/// One connection: send on schedule, receive with a deadline at the next
/// scheduled send.
fn conn_worker(
    cfg: &RunConfig,
    index: usize,
    clock: &Clock,
    start_ns: u64,
) -> std::io::Result<ConnOutcome> {
    let mut stream = TcpStream::connect(&cfg.addr)?;
    stream.set_nodelay(true)?;
    let mut rng = SmallRng::seed_from_u64(cfg.seed.wrapping_add(index as u64 * 0x517c_c1b7));
    let sampler = KeySampler::new(cfg.mix, cfg.keys);
    let mut arrivals = ArrivalGen::new(
        cfg.arrival,
        cfg.rate,
        cfg.conns,
        index,
        cfg.seed.wrapping_add(index as u64 * 0x2545_f491),
    );

    let end_ns = start_ns + cfg.duration_ms * 1_000_000;
    let warmup_end_ns = start_ns + cfg.warmup_ms * 1_000_000;
    let crash_ns = cfg
        .crash_at_ms
        .map(|ms| start_ns + cfg.warmup_ms.saturating_add(ms) * 1_000_000);

    let mut o = ConnOutcome::default();
    let mut pending: HashMap<u64, PendingOp> = HashMap::new();
    let mut rbuf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 8192];
    let mut k = 0u64; // this connection's arrival counter (also request id)
    let mut crash_sent = false;

    loop {
        // Next arrival of this connection's share of the schedule.
        let sched_ns = start_ns + arrivals.next_offset_ns();
        if sched_ns >= end_ns {
            break;
        }
        // Crash injection rides connection 0's schedule.
        if let Some(c_ns) = crash_ns {
            if index == 0 && !crash_sent && sched_ns >= c_ns {
                let mut buf = Vec::new();
                proto::encode_request(
                    &Request::Admin {
                        id: CRASH_ID,
                        cmd: AdminCmd::Crash,
                    },
                    &mut buf,
                );
                clock.sleep_until(c_ns);
                stream.write_all(&buf)?;
                o.crash = Some(CrashProbe {
                    requested_ns: clock.now_ns(),
                    acked_ns: None,
                    first_data_ns: None,
                });
                crash_sent = true;
            }
        }
        // Wait until the next scheduled send, timestamping responses as
        // they land.
        receive_until(
            &mut stream,
            &mut rbuf,
            &mut tmp,
            clock,
            sched_ns,
            &mut pending,
            &mut o,
        )?;

        let warmup = sched_ns < warmup_end_ns;
        let req = if rng.gen_bool(cfg.get_fraction) {
            Request::Get {
                id: k,
                key: sampler.sample(&mut rng),
            }
        } else {
            Request::Put {
                id: k,
                ack: cfg.ack,
                key: sampler.sample(&mut rng),
                value: rng.gen(),
            }
        };
        let update = matches!(req, Request::Put { .. });
        let mut buf = Vec::with_capacity(32);
        proto::encode_request(&req, &mut buf);
        stream.write_all(&buf)?;
        pending.insert(
            k,
            PendingOp {
                sched_ns,
                update,
                warmup,
            },
        );
        if !warmup {
            o.sent += 1;
        }
        k += 1;
    }

    // Drain stragglers for a bounded grace period.
    let deadline = clock.now_ns() + DRAIN_GRACE.as_nanos() as u64;
    while !pending.is_empty() && clock.now_ns() < deadline {
        receive_until(
            &mut stream,
            &mut rbuf,
            &mut tmp,
            clock,
            clock.now_ns() + 50_000_000,
            &mut pending,
            &mut o,
        )?;
    }
    o.lost = pending.values().filter(|p| !p.warmup).count() as u64;
    Ok(o)
}

/// Reads and accounts responses until `deadline_ns` on the run clock.
///
/// Waits for data in `ppoll(2)` rather than in `read` under a socket read
/// timeout: Linux rounds `SO_RCVTIMEO` up to whole scheduler ticks, so a
/// sub-millisecond timeout could block for milliseconds when nothing
/// arrived, delaying every send behind it.
#[allow(clippy::too_many_arguments)]
fn receive_until(
    stream: &mut TcpStream,
    rbuf: &mut Vec<u8>,
    tmp: &mut [u8],
    clock: &Clock,
    deadline_ns: u64,
    pending: &mut HashMap<u64, PendingOp>,
    o: &mut ConnOutcome,
) -> std::io::Result<()> {
    loop {
        // Account everything already buffered.
        while let Some((resp, used)) = proto::decode_response(rbuf).expect("response decode") {
            rbuf.drain(..used);
            account(resp, clock.now_ns(), pending, o);
        }
        let now = clock.now_ns();
        if now >= deadline_ns {
            return Ok(());
        }
        if !wait_readable(stream, Duration::from_nanos(deadline_ns - now))? {
            continue;
        }
        match stream.read(tmp) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed connection",
                ))
            }
            Ok(n) => rbuf.extend_from_slice(&tmp[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Accounts one response against the pending table.
fn account(
    resp: Response,
    now_ns: u64,
    pending: &mut HashMap<u64, PendingOp>,
    o: &mut ConnOutcome,
) {
    let id = resp.id();
    if id == CRASH_ID {
        if let (Response::Done { .. }, Some(probe)) = (&resp, o.crash.as_mut()) {
            probe.acked_ns = Some(now_ns);
        }
        return;
    }
    let Some(op) = pending.remove(&id) else {
        return;
    };
    match resp {
        Response::Value { .. } | Response::Done { .. } | Response::Pairs { .. } => {
            if let Some(probe) = o.crash.as_mut() {
                if probe.first_data_ns.is_none() {
                    probe.first_data_ns = Some(now_ns);
                }
            }
            if op.warmup {
                return;
            }
            o.completed += 1;
            let latency = now_ns.saturating_sub(op.sched_ns);
            o.hist.record(latency);
            if op.update {
                o.update_hist.record(latency);
            }
        }
        Response::Retry { .. } => {
            if !op.warmup {
                o.shed += 1;
            }
        }
        Response::Err { .. } => {
            if !op.warmup {
                o.errors += 1;
            }
        }
        Response::Stats { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prep_serve::server::{ServeConfig, Server};

    fn server() -> Server {
        Server::start(
            ServeConfig {
                shards: 2,
                executors_per_shard: 2,
                conn_threads: 1,
                epsilon: 16,
                log_size: 1024,
                crash_sim: true,
                ..ServeConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("start server")
    }

    /// With nothing arriving, a wait ends at its deadline rather than at
    /// the next scheduler tick: a 200 µs deadline returns within 2 ms
    /// (median of 20 waits).
    #[test]
    fn idle_receive_returns_at_its_deadline() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let _peer = listener.accept().unwrap();
        let clock = Clock::new();
        let (mut rbuf, mut tmp) = (Vec::new(), [0u8; 64]);
        let (mut pending, mut o) = (HashMap::new(), ConnOutcome::default());
        let mut waits: Vec<u64> = (0..20)
            .map(|_| {
                let start = clock.now_ns();
                receive_until(
                    &mut stream,
                    &mut rbuf,
                    &mut tmp,
                    &clock,
                    start + 200_000,
                    &mut pending,
                    &mut o,
                )
                .unwrap();
                clock.now_ns() - start
            })
            .collect();
        waits.sort_unstable();
        let median = waits[waits.len() / 2];
        assert!(
            median >= 200_000,
            "returned before its deadline: {median} ns"
        );
        assert!(median < 2_000_000, "200 µs wait took {median} ns (median)");
    }

    #[test]
    fn open_loop_run_completes_and_measures() {
        let server = server();
        let cfg = RunConfig {
            addr: server.local_addr().to_string(),
            conns: 2,
            rate: 4_000.0,
            duration_ms: 400,
            warmup_ms: 100,
            keys: 512,
            preload: 128,
            get_fraction: 0.5,
            ..RunConfig::default()
        };
        let report = run(&cfg).expect("run");
        assert!(report.sent > 0);
        assert!(report.completed > 0, "no requests completed");
        assert_eq!(report.lost, 0, "responses went missing");
        assert!(report.hist.count() == report.completed);
        assert!(report.hist.percentile(0.5) > 0);
        assert!(report.achieved_rate() > 0.0);
        // Updates are a subset of all completions.
        assert!(report.update_hist.count() <= report.hist.count());
        server.shutdown();
    }

    #[test]
    fn poisson_and_bursty_arrivals_drive_a_run() {
        let server = server();
        for arrival in [
            Arrival::Poisson,
            Arrival::Bursty {
                on_ms: 20,
                off_ms: 60,
            },
        ] {
            let cfg = RunConfig {
                addr: server.local_addr().to_string(),
                conns: 2,
                rate: 4_000.0,
                duration_ms: 400,
                warmup_ms: 50,
                keys: 256,
                preload: 64,
                arrival,
                ..RunConfig::default()
            };
            let report = run(&cfg).expect("run");
            assert!(report.completed > 0, "{arrival:?}: nothing completed");
            assert_eq!(report.lost, 0, "{arrival:?}: responses went missing");
            // The non-lattice processes still target the aggregate rate:
            // within a factor of two on this short window.
            let achieved = report.achieved_rate();
            assert!(
                achieved > cfg.rate * 0.3,
                "{arrival:?}: achieved only {achieved}/s of {}/s",
                cfg.rate
            );
        }
        server.shutdown();
    }

    #[test]
    fn durable_acks_flow_end_to_end() {
        let server = server();
        let cfg = RunConfig {
            addr: server.local_addr().to_string(),
            conns: 1,
            rate: 2_000.0,
            duration_ms: 300,
            warmup_ms: 50,
            keys: 256,
            preload: 0,
            get_fraction: 0.0,
            ack: AckLevel::Durable,
            ..RunConfig::default()
        };
        let report = run(&cfg).expect("run");
        assert!(report.completed > 0);
        assert_eq!(report.lost, 0);
        let r = server.shutdown();
        assert!(r.durable_acks > 0, "server released no durable acks");
    }

    #[test]
    fn crash_under_load_reports_ttfr() {
        let server = server();
        let cfg = RunConfig {
            addr: server.local_addr().to_string(),
            conns: 2,
            rate: 3_000.0,
            duration_ms: 600,
            warmup_ms: 50,
            keys: 256,
            preload: 64,
            crash_at_ms: Some(200),
            ..RunConfig::default()
        };
        let report = run(&cfg).expect("run");
        let probe = report.crash.expect("crash probe");
        assert!(probe.acked_ns.is_some(), "crash never acked");
        let ttfr = probe.ttfr_ns().expect("no post-crash response");
        assert!(ttfr > 0);
        assert_eq!(server.crash_count(), 1);
        server.shutdown();
    }

    #[test]
    fn shutdown_flag_stops_the_server() {
        let server = server();
        let cfg = RunConfig {
            addr: server.local_addr().to_string(),
            conns: 1,
            rate: 1_000.0,
            duration_ms: 200,
            warmup_ms: 0,
            preload: 0,
            shutdown: true,
            ..RunConfig::default()
        };
        run(&cfg).expect("run");
        // The server reached STOPPED because of the wire shutdown.
        let report = server.join();
        assert_eq!(report.completed_tails, report.durable_watermarks);
    }
}
