//! Wire-level durability tests for `prep-serve`: the paper's buffered /
//! durable ack contract, observed from the *client* side of a TCP socket.
//!
//! Two properties, both stated over acknowledgements a real client saw:
//!
//! * **Graceful shutdown loses nothing.** Every op buffered-acked before a
//!   clean `ADMIN SHUTDOWN` survives a post-shutdown crash cut — the drain
//!   path's final forced checkpoint turns "applied" into "persistent" for
//!   the entire completed prefix.
//!
//! * **Crash under load honors the ack levels.** With `ADMIN CRASH` landing
//!   mid-workload: durable-acked ops are *never* lost; buffered-acked loss
//!   stays within the store-wide `N·(ε + β − 1)` bound; and per shard the
//!   survivors are closed under the wire-level happens-before order (an op
//!   acked before a survivor was even sent cannot itself be missing),
//!   checked through `prep-checker`'s sharded history recorder fed from
//!   the client threads.
//!
//! * **Repeated crashes never hang the pipeline.** Dozens of `ADMIN CRASH`
//!   cycles under mixed buffered/durable load, each request and each crash
//!   under a deadline; a miss panics with the server's lifecycle state and
//!   per-shard queue counters, so a hang names where it waits.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use prep_checker::ShardedHistoryRecorder;
use prep_seqds::hashmap::{HashMap, MapOp, MapResp};
use prep_serve::proto::{decode_response, encode_request, AckLevel, AdminCmd, Request, Response};
use prep_serve::server::{ServeConfig, Server, Store};
use prep_shard::{shard_index, ShardedStore};
use prep_topology::Topology;
use prep_uc::{DurabilityLevel, LatencyModel, PmemRuntime, PrepConfig};

const SHARDS: usize = 2;
const EXECUTORS: usize = 2;
/// How long any response may take before a test panics as hung.
const DEADLINE: Duration = Duration::from_secs(30);

fn server() -> Server {
    Server::start(
        ServeConfig {
            shards: SHARDS,
            executors_per_shard: EXECUTORS,
            conn_threads: 2,
            queue_depth: 64,
            durability: DurabilityLevel::Buffered,
            epsilon: 16,
            log_size: 1024,
            latency: LatencyModel::off(),
            crash_sim: true,
            watch_signals: false,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("start server")
}

/// Blocking one-request-at-a-time client.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(DEADLINE)).expect("timeout");
        Client {
            stream,
            buf: Vec::new(),
        }
    }

    fn roundtrip(&mut self, req: &Request) -> Response {
        self.roundtrip_diag(req, String::new)
    }

    /// One request, one response. A response that does not arrive within
    /// [`DEADLINE`] panics with `diag()` (the server's state), and the
    /// response must answer this request's id — a stray or duplicate
    /// frame fails.
    fn roundtrip_diag(&mut self, req: &Request, diag: impl Fn() -> String) -> Response {
        let mut out = Vec::with_capacity(32);
        encode_request(req, &mut out);
        self.stream.write_all(&out).expect("send");
        let mut tmp = [0u8; 4096];
        let resp = loop {
            if let Some((resp, used)) = decode_response(&self.buf).expect("decode") {
                self.buf.drain(..used);
                break resp;
            }
            match self.stream.read(&mut tmp) {
                Ok(0) => panic!("server closed connection; {}", diag()),
                Ok(n) => self.buf.extend_from_slice(&tmp[..n]),
                Err(e) => panic!(
                    "no response to {req:?} within {DEADLINE:?} ({e}); {}",
                    diag()
                ),
            }
        };
        assert_eq!(
            resp.id(),
            req.id(),
            "response {resp:?} does not answer {req:?}"
        );
        resp
    }

    /// PUTs until the server stops shedding; returns the ack response.
    fn put_retrying(&mut self, id: u64, ack: AckLevel, key: u64, value: u64) -> Response {
        loop {
            match self.roundtrip(&Request::Put {
                id,
                ack,
                key,
                value,
            }) {
                Response::Retry { .. } => std::thread::yield_now(),
                resp => return resp,
            }
        }
    }
}

/// Reads the whole key set out of a (recovered or live) store.
fn present_keys(store: &ShardedStore<HashMap>, keys: impl Iterator<Item = u64>) -> HashSet<u64> {
    let token = store.register(0);
    keys.filter(|&k| {
        matches!(
            store.execute(&token, MapOp::Get { key: k }),
            MapResp::Value(Some(_))
        )
    })
    .collect()
}

#[test]
fn graceful_shutdown_loses_no_buffered_ops() {
    let server = server();
    let addr = server.local_addr();

    // Concurrent writers, buffered acks only, unique keys per thread.
    const WRITERS: u64 = 3;
    const OPS: u64 = 200;
    let acked: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..WRITERS)
            .map(|t| {
                scope.spawn(move || {
                    let mut c = Client::connect(addr);
                    let mut acked = Vec::new();
                    for i in 0..OPS {
                        let key = t * 1_000_000 + i;
                        if matches!(
                            c.put_retrying(i, AckLevel::Buffered, key, key + 7),
                            Response::Done { .. }
                        ) {
                            acked.push(key);
                        }
                    }
                    acked
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("writer panicked"))
            .collect()
    });
    assert_eq!(acked.len() as u64, WRITERS * OPS, "every put must ack");

    // Clean wire shutdown, then prove the acks are on NVM: capture a crash
    // cut from the quiesced store and recover from it.
    let mut c = Client::connect(addr);
    assert!(matches!(
        c.roundtrip(&Request::Admin {
            id: 9,
            cmd: AdminCmd::Shutdown,
        }),
        Response::Done { .. }
    ));
    let report = server.join();
    assert_eq!(
        report.completed_tails, report.durable_watermarks,
        "drain must quiesce every shard"
    );
    let store = Arc::try_unwrap(report.store)
        .unwrap_or_else(|_| panic!("post-join store handle must be unique"));
    let (token, image) = store.simulate_crash();
    drop(store);
    let workers = SHARDS * EXECUTORS;
    let recovered: ShardedStore<HashMap> = ShardedStore::recover(
        token,
        image,
        Topology::new(1, workers + 1, 1).assign_workers(workers),
        PrepConfig::new(DurabilityLevel::Buffered)
            .with_log_size(1024)
            .with_epsilon(16)
            .with_runtime(PmemRuntime::for_crash_tests()),
        |op: &MapOp| op.key().unwrap_or(0),
    );
    let survived = present_keys(&recovered, acked.iter().copied());
    assert_eq!(
        survived.len(),
        acked.len(),
        "clean shutdown lost {} buffered-acked ops",
        acked.len() - survived.len()
    );
}

/// One client thread's view of its own acked ops.
struct AckedOp {
    key: u64,
    durable: bool,
    /// Recorder event index is recovered by (shard, invoke) later; the
    /// stamps live in the recorder.
    shard: usize,
}

#[test]
fn crash_under_load_honors_ack_levels() {
    let server = server();
    let addr = server.local_addr();
    let loss_bound = server.store_handle().loss_bound();

    const CLIENTS: u64 = 4;
    let stop = AtomicBool::new(false);
    let crashed = AtomicBool::new(false);
    // Recorder stamp taken immediately before ADMIN CRASH is sent: events
    // with `response < crash_stamp` completed strictly before the outage.
    let crash_stamp = std::sync::atomic::AtomicU64::new(u64::MAX);
    // Wire-fed sharded history: clients stamp invoke before the frame is
    // sent and complete after the ack frame arrives.
    let recorder: ShardedHistoryRecorder<MapOp, ()> = ShardedHistoryRecorder::new(SHARDS);

    let acked: Vec<AckedOp> = std::thread::scope(|scope| {
        let stop = &stop;
        let crashed = &crashed;
        let crash_stamp = &crash_stamp;
        let recorder = &recorder;
        let workers: Vec<_> = (0..CLIENTS)
            .map(|t| {
                scope.spawn(move || {
                    let mut c = Client::connect(addr);
                    let mut acked: Vec<AckedOp> = Vec::new();
                    let mut i = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        let key = (t + 1) * 1_000_000 + i;
                        let durable = i.is_multiple_of(2);
                        let ack = if durable {
                            AckLevel::Durable
                        } else {
                            AckLevel::Buffered
                        };
                        let shard = shard_index(key, SHARDS);
                        let op = MapOp::Insert { key, value: key };
                        let stamp = recorder.invoke();
                        match c.roundtrip(&Request::Put {
                            id: i,
                            ack,
                            key,
                            value: key,
                        }) {
                            Response::Done { .. } => {
                                recorder.complete(shard, t as usize, op, (), stamp);
                                acked.push(AckedOp {
                                    key,
                                    durable,
                                    shard,
                                });
                            }
                            Response::Retry { .. } => std::thread::yield_now(),
                            other => panic!("unexpected response {other:?}"),
                        }
                        i += 1;
                    }
                    acked
                })
            })
            .collect();

        // Controller: let load build, crash mid-stream, let load continue
        // briefly on the recovered store, then stop the writers.
        let controller = scope.spawn(move || {
            let mut c = Client::connect(addr);
            // Wait until real traffic is flowing.
            loop {
                if let Response::Stats { stats, .. } = c.roundtrip(&Request::Admin {
                    id: 1,
                    cmd: AdminCmd::Stats,
                }) {
                    let total: u64 = stats.shards.iter().map(|s| s.completed_tail).sum();
                    if total > 300 {
                        break;
                    }
                }
                std::thread::yield_now();
            }
            crash_stamp.store(recorder.invoke(), Ordering::Release);
            assert!(matches!(
                c.roundtrip(&Request::Admin {
                    id: 2,
                    cmd: AdminCmd::Crash,
                }),
                Response::Done { .. }
            ));
            crashed.store(true, Ordering::Release);
            // A little post-recovery load proves the store still serves.
            for i in 0..50u64 {
                let _ = c.put_retrying(1_000 + i, AckLevel::Buffered, 9_000_000 + i, i);
            }
            stop.store(true, Ordering::Release);
        });

        let acked: Vec<AckedOp> = workers
            .into_iter()
            .flat_map(|h| h.join().expect("client panicked"))
            .collect();
        controller.join().expect("controller panicked");
        acked
    });
    assert!(crashed.load(Ordering::Acquire), "crash never happened");
    assert_eq!(server.crash_count(), 1);

    // Read back every acked key over the wire: any absent acked key was
    // lost in the crash (post-crash state is all applied and live).
    let mut reader = Client::connect(addr);
    let survived: HashSet<u64> = acked
        .iter()
        .map(|a| a.key)
        .filter(|&k| {
            matches!(
                reader.roundtrip(&Request::Get { id: k, key: k }),
                Response::Value { value: Some(_), .. }
            )
        })
        .collect();
    server.shutdown();

    let lost: Vec<&AckedOp> = acked
        .iter()
        .filter(|a| !survived.contains(&a.key))
        .collect();
    // 1) Durable acks are never lost.
    let durable_lost: Vec<u64> = lost.iter().filter(|a| a.durable).map(|a| a.key).collect();
    assert!(
        durable_lost.is_empty(),
        "durable-acked ops lost across crash: {durable_lost:?}"
    );
    // 2) Buffered loss stays within the store-wide bound.
    assert!(
        (lost.len() as u64) <= loss_bound,
        "lost {} buffered-acked ops, bound is {loss_bound}",
        lost.len()
    );
    // 3) Per-shard prefix closure over the wire-level happens-before
    //    order: if op A was acked before op B was even sent and both
    //    completed before the crash, then B surviving implies A survived
    //    (loss is a log suffix). Equivalently, on each shard every
    //    *pre-crash* survivor's invoke stamp precedes every lost op's
    //    response stamp. Ops completed after the crash request replay on
    //    the recovered log and say nothing about the old log's suffix.
    let cut = crash_stamp.load(Ordering::Acquire);
    let lost_keys: HashSet<u64> = lost.iter().map(|a| a.key).collect();
    let histories = recorder.into_histories();
    assert_eq!(histories.len(), SHARDS);
    for (shard, history) in histories.iter().enumerate() {
        let max_survivor_invoke = history
            .iter()
            .filter(|e| {
                e.response < cut
                    && e.op
                        .key()
                        .is_some_and(|k| survived.contains(&k) && !lost_keys.contains(&k))
            })
            .map(|e| e.invoke)
            .max();
        let min_lost_response = history
            .iter()
            .filter(|e| e.op.key().is_some_and(|k| lost_keys.contains(&k)))
            .map(|e| e.response)
            .min();
        if let (Some(survivor), Some(lost_resp)) = (max_survivor_invoke, min_lost_response) {
            assert!(
                survivor < lost_resp,
                "shard {shard}: op acked at stamp {lost_resp} lost while a later \
                 survivor was invoked at {survivor} — survivors are not a log prefix"
            );
        }
    }
    // Sanity: the workload actually exercised both ack levels and shards.
    assert!(acked.iter().any(|a| a.durable) && acked.iter().any(|a| !a.durable));
    assert!(acked.iter().any(|a| a.shard == 0) && acked.iter().any(|a| a.shard == 1));
}

/// The epoch a recovered store reports over the wire matches the number of
/// crashes, and a `Store` type alias round-trips through the public API.
#[test]
fn recovered_epoch_is_visible_on_the_wire() {
    let server = server();
    let addr = server.local_addr();
    let mut c = Client::connect(addr);
    for round in 1..=2u64 {
        c.put_retrying(round, AckLevel::Durable, round, round);
        assert!(matches!(
            c.roundtrip(&Request::Admin {
                id: 10 + round,
                cmd: AdminCmd::Crash,
            }),
            Response::Done { .. }
        ));
        match c.roundtrip(&Request::Admin {
            id: 20 + round,
            cmd: AdminCmd::Stats,
        }) {
            Response::Stats { stats, .. } => assert_eq!(stats.epoch, round),
            other => panic!("unexpected {other:?}"),
        }
    }
    let store: Arc<Store> = server.store_handle();
    assert_eq!(store.epoch(), 2);
    server.shutdown();
}

/// Crash-under-load, many times over: every `ADMIN CRASH` and every load
/// request must be answered within a deadline (a hang panics with the
/// server's lifecycle state, parked count and per-shard `len`/`busy`/
/// `dur_len`), every frame gets exactly one response, and every
/// durable-acked key survives all the crashes after its ack.
#[test]
fn repeated_crashes_under_load_never_hang() {
    const CYCLES: u64 = 40;
    const CLIENTS: u64 = 2;
    let server = server();
    let addr = server.local_addr();
    let diag = || format!("server {:?}", server.snapshot());
    let stop = AtomicBool::new(false);
    // Acks (of either level) seen by the load clients; the controller
    // crashes only after the load made progress since the last crash.
    let acks = AtomicU64::new(0);

    let durable_acked: Vec<u64> = std::thread::scope(|scope| {
        let (stop, acks, diag) = (&stop, &acks, &diag);
        let clients: Vec<_> = (0..CLIENTS)
            .map(|t| {
                scope.spawn(move || {
                    let mut c = Client::connect(addr);
                    let mut durable = Vec::new();
                    let mut i = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        let key = (t + 1) * 10_000_000 + i;
                        let req = match i % 4 {
                            // Read back an earlier key of this client.
                            3 => Request::Get {
                                id: i,
                                key: key - 1,
                            },
                            n => Request::Put {
                                id: i,
                                ack: if n == 1 {
                                    AckLevel::Durable
                                } else {
                                    AckLevel::Buffered
                                },
                                key,
                                value: key,
                            },
                        };
                        match c.roundtrip_diag(&req, diag) {
                            Response::Done { .. } => {
                                if let Request::Put {
                                    ack: AckLevel::Durable,
                                    ..
                                } = req
                                {
                                    durable.push(key);
                                }
                                acks.fetch_add(1, Ordering::Relaxed);
                            }
                            Response::Value { .. } => {}
                            Response::Retry { .. } => std::thread::yield_now(),
                            other => panic!("unexpected response {other:?}"),
                        }
                        i += 1;
                    }
                    durable
                })
            })
            .collect();

        let mut admin = Client::connect(addr);
        for cycle in 0..CYCLES {
            let before = acks.load(Ordering::Relaxed);
            let start = std::time::Instant::now();
            while acks.load(Ordering::Relaxed) < before + 20 {
                assert!(
                    clients.iter().all(|h| !h.is_finished()),
                    "a load client stopped early"
                );
                assert!(
                    start.elapsed() < DEADLINE,
                    "load made no progress within {DEADLINE:?} after crash {cycle}; {}",
                    diag()
                );
                std::thread::yield_now();
            }
            let crash = Request::Admin {
                id: cycle,
                cmd: AdminCmd::Crash,
            };
            assert_eq!(
                admin.roundtrip_diag(&crash, diag),
                Response::Done { id: cycle }
            );
        }
        stop.store(true, Ordering::Release);
        clients
            .into_iter()
            .flat_map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    assert_eq!(server.crash_count(), CYCLES);
    assert!(!durable_acked.is_empty(), "no durable PUT was ever acked");

    let mut reader = Client::connect(addr);
    let lost: Vec<u64> = durable_acked
        .iter()
        .copied()
        .filter(|&k| {
            !matches!(
                reader.roundtrip_diag(&Request::Get { id: k, key: k }, diag),
                Response::Value { value: Some(_), .. }
            )
        })
        .collect();
    assert!(
        lost.is_empty(),
        "{} of {} durable-acked keys lost across {CYCLES} crashes: {lost:?}",
        lost.len(),
        durable_acked.len()
    );
    server.shutdown();
}
