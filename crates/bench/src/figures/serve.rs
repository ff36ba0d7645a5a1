//! Network-service tail-latency figure (repo extension over `prep-serve`).
//!
//! Every other figure drives the store through in-process function calls —
//! closed-loop by construction. This one measures what a *client* sees: an
//! in-process `prep-serve` instance is shot with `prep-loadgen`'s
//! open-loop engine (fixed arrival schedule, latency from scheduled send
//! time, so queueing delay is charged, not hidden), sweeping offered load
//! × ack level {buffered, durable} over a buffered-durability store. The
//! headline columns are p50/p99/p999: buffered acks return at apply time,
//! durable acks wait for the covering checkpoint, and the gap between the
//! two distributions is the price of crash-survivability per request.
//!
//! A final crash cell injects `ADMIN CRASH` mid-run and reports the
//! client-observed recovery time-to-first-response.
//!
//! Caveat: server, load generator, and persistence threads all share this
//! machine — on a single-CPU VM the tails include scheduler noise, and
//! loopback TCP is the transport, not a NIC (see EXPERIMENTS.md § serve).
//!
//! Records `BENCH_serve.json` in the working directory — the
//! perf-trajectory baseline future sessions diff against.

use prep_loadgen::keys::KeyMix;
use prep_loadgen::run::{run as loadgen_run, RunConfig, RunReport};
use prep_serve::proto::AckLevel;
use prep_serve::server::{ServeConfig, Server};

use crate::RunOpts;

struct Record {
    rate: f64,
    ack: &'static str,
    report: RunReport,
}

fn server_config() -> ServeConfig {
    ServeConfig {
        shards: 2,
        executors_per_shard: 2,
        conn_threads: 2,
        queue_depth: 256,
        epsilon: 64,
        log_size: 4096,
        crash_sim: false,
        ..ServeConfig::default()
    }
}

fn load_config(addr: String, rate: f64, ack: AckLevel, duration_ms: u64) -> RunConfig {
    RunConfig {
        addr,
        conns: 2,
        rate,
        duration_ms,
        warmup_ms: (duration_ms / 5).min(500),
        keys: 16_384,
        mix: KeyMix::Zipfian { theta: 0.99 },
        get_fraction: 0.5,
        ack,
        seed: 42,
        preload: 4_096,
        arrival: prep_loadgen::Arrival::Fixed,
        crash_at_ms: None,
        shutdown: false,
    }
}

const US: f64 = 1_000.0;

fn row(rate: f64, ack: &str, r: &RunReport) {
    println!(
        "{:>10.0} {:<9} {:>10.0} {:>8} {:>6} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
        rate,
        ack,
        r.achieved_rate(),
        r.completed,
        r.shed,
        r.hist.percentile(0.50) as f64 / US,
        r.hist.percentile(0.99) as f64 / US,
        r.hist.percentile(0.999) as f64 / US,
        r.hist.max() as f64 / US,
    );
}

/// Runs the serve tail-latency sweep plus the crash-under-load cell.
pub fn run(opts: &RunOpts) {
    let rates: &[f64] = if opts.full {
        &[5_000.0, 20_000.0, 50_000.0]
    } else {
        &[2_000.0, 8_000.0]
    };
    let duration_ms = ((opts.seconds * 1_000.0) as u64).max(400);

    println!();
    println!(
        "== Serve: open-loop tail latency over prep-serve \
         (offered load x ack level, buffered store, zipfian 50% GET)"
    );
    println!(
        "{:>10} {:<9} {:>10} {:>8} {:>6} {:>9} {:>9} {:>9} {:>9}",
        "offered/s", "ack", "achieved", "done", "shed", "p50us", "p99us", "p999us", "maxus"
    );

    let mut records = Vec::new();
    for &rate in rates {
        for (ack, name) in [
            (AckLevel::Buffered, "buffered"),
            (AckLevel::Durable, "durable"),
        ] {
            let server = Server::start(server_config(), "127.0.0.1:0").expect("start server");
            let cfg = load_config(server.local_addr().to_string(), rate, ack, duration_ms);
            let report = loadgen_run(&cfg).expect("loadgen run");
            server.shutdown();
            row(rate, name, &report);
            records.push(Record {
                rate,
                ack: name,
                report,
            });
        }
    }

    // Crash-under-load: durable acks against a crash-sim store, with the
    // recovery outage landing mid-window.
    let crash_rate = rates[0];
    let server = Server::start(
        ServeConfig {
            crash_sim: true,
            ..server_config()
        },
        "127.0.0.1:0",
    )
    .expect("start crash server");
    let mut cfg = load_config(
        server.local_addr().to_string(),
        crash_rate,
        AckLevel::Durable,
        duration_ms.max(800),
    );
    cfg.crash_at_ms = Some(cfg.duration_ms / 3);
    let crash_report = loadgen_run(&cfg).expect("crash run");
    let shut = server.shutdown();
    let ttfr_us = crash_report
        .crash
        .as_ref()
        .and_then(|p| p.ttfr_ns())
        .map(|ns| ns as f64 / US);
    println!();
    match ttfr_us {
        Some(t) => println!(
            "-- crash under load at {crash_rate:.0}/s: recovery time-to-first-response {t:.1} us \
             ({} requests shed during the outage, {} crash cycles)",
            crash_report.shed, shut.crashes
        ),
        None => println!("-- crash under load: no post-crash response observed"),
    }

    write_json(opts, &records, &crash_report, ttfr_us);
}

/// Hand-rolled JSON dump (no serde in the dependency closure), matching
/// the other BENCH_*.json baselines: flat fields, one object per cell.
fn write_json(opts: &RunOpts, records: &[Record], crash: &RunReport, ttfr_us: Option<f64>) {
    let mut out = String::from("{\n  \"bench\": \"serve\",\n");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    out.push_str(&format!(
        "  \"scale\": \"{}\",\n  \"seconds_per_cell\": {},\n  \"nproc\": {nproc},\n  \"latency_model\": \"off\",\n  \"cells\": [\n",
        if opts.full { "full" } else { "quick" },
        opts.seconds
    ));
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"offered_rate\": {:.0}, \"ack\": \"{}\", \"achieved_rate\": {:.0}, \
             \"completed\": {}, \"shed\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
             \"p999_us\": {:.1}}}{}\n",
            r.rate,
            r.ack,
            r.report.achieved_rate(),
            r.report.completed,
            r.report.shed,
            r.report.hist.percentile(0.50) as f64 / US,
            r.report.hist.percentile(0.99) as f64 / US,
            r.report.hist.percentile(0.999) as f64 / US,
            sep
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"crash\": {{\"ttfr_us\": {}, \"shed\": {}, \"completed\": {}}}\n",
        ttfr_us.map_or_else(|| String::from("null"), |t| format!("{t:.1}")),
        crash.shed,
        crash.completed
    ));
    out.push_str("}\n");
    let path = "BENCH_serve.json";
    match std::fs::write(path, out) {
        Ok(()) => println!("# wrote {path}"),
        Err(e) => eprintln!("# could not write {path}: {e}"),
    }
}
