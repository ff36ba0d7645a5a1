//! # prep-serve — a network KV service over the sharded PREP-UC store
//!
//! This crate turns [`prep_shard::ShardedStore`] into something a latency
//! benchmark can actually shoot at: a TCP server speaking a small
//! length-prefixed binary protocol ([`proto`]) with per-request ack levels
//! (*buffered* — acked once applied; *durable* — acked once the covering
//! persist reaches NVM), explicit backpressure (`RETRY` frames instead of
//! unbounded buffering), an `ADMIN` verb for stats / crash injection /
//! shutdown, and a drain path shared between `ADMIN SHUTDOWN` and
//! SIGTERM/SIGINT ([`signals`]).
//!
//! The interesting part is the [`server`] request pipeline: per-shard
//! bounded submission queues align open-loop network arrivals with the
//! flat combiner's batch boundaries — up to β queued ops enter one combine
//! round together — and a per-shard durability drainer releases durable
//! acks only when the shard's crash-survivability watermark passes the
//! op's covering `completedTail`. See the [`server`] module docs for the
//! full choreography (including crash-under-load and graceful shutdown).

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod proto;
pub mod server;
pub mod signals;

pub use proto::{AckLevel, AdminCmd, Request, Response, WireShard, WireStats};
pub use server::{PipelineSnapshot, ServeConfig, Server, ShutdownReport, Store};
