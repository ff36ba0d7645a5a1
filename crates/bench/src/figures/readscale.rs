//! Read-path scaling figure (repo extension, anchored to NR §3's
//! distributed reader-writer lock and this repo's optimistic seqlock
//! read path).
//!
//! The paper's headline workloads are 90%-read (Fig. 1a/1b, Fig. 2,
//! Fig. 6), so the replica read path is the throughput-critical section.
//! This figure sweeps threads × read ratio {10%, 50%, 90%, 100%} ×
//! read-path mode {centralized `RwSpinLock`, NR §3's distributed
//! `DistRwLock`, lock-free `Optimistic`} on the prefilled hashmap under
//! volatile NR (no latency model — the read path is the only variable).
//! The write-heavy mixes are where optimistic validation can fail. With
//! the distributed lock a caught-up reader touches only its own
//! cacheline-padded slot (one RMW + one store); an optimistic reader
//! touches *no* shared line at all — two loads of the replica seqlock
//! version bracket the read, and validation failure falls back to the
//! slot path.
//!
//! Caveat: on a single-CPU VM the kernel timeslices the "concurrent"
//! readers, so the centralized line never actually ping-pongs between cores
//! and the measured gaps understate real-hardware behavior (see
//! EXPERIMENTS.md § readscale). The counter columns make the path taken
//! visible: `opt` counts validated optimistic reads, `vfail` seqlock
//! validation failures, `slow` locked reads that missed the
//! zero-contention fast path.
//!
//! Also records the sweep as `BENCH_readscale.json` in the working
//! directory — the perf-trajectory baseline future sessions diff against.

use prep_nr::FairnessMode;

use crate::figures::{map_stream, thread_sweep, topology};
use crate::report;
use crate::targets::{run_nr_fair, CellResult};
use crate::workload::prefilled_hashmap;
use crate::RunOpts;

const LOCKS: [(FairnessMode, &str); 3] = [
    (FairnessMode::ThroughputCentralized, "RwSpinLock"),
    (FairnessMode::Throughput, "DistRwLock"),
    (FairnessMode::Optimistic, "Optimistic"),
];

const READ_PCTS: [u32; 4] = [10, 50, 90, 100];

struct Record {
    read_pct: u32,
    lock: &'static str,
    threads: usize,
    cell: CellResult,
}

/// Runs the read-scaling sweep.
pub fn run(opts: &RunOpts) {
    let topo = topology(opts);
    let keys = opts.key_range(); // 1M keys at full scale (paper hashmap)
    report::banner(
        "Readscale",
        "read-path scaling: threads x read ratio x read-path mode \
         (volatile NR, hashmap, latency model off)",
    );

    let mut records: Vec<Record> = Vec::new();
    for read_pct in READ_PCTS {
        for threads in thread_sweep(opts) {
            for (fairness, lname) in LOCKS {
                let cell = run_nr_fair(
                    prefilled_hashmap(keys),
                    topo,
                    opts.log_size(),
                    fairness,
                    threads,
                    opts.seconds,
                    &map_stream(read_pct, keys),
                );
                report::row(&format!("hashmap-{read_pct}r"), lname, &cell);
                println!(
                    "      opt={} vfail={} slow={}",
                    cell.reads.fast_optimistic,
                    cell.reads.validation_failures,
                    cell.reads.slow_paths
                );
                records.push(Record {
                    read_pct,
                    lock: lname,
                    threads,
                    cell,
                });
            }
        }
    }

    print_ratio_summary(&records);
    write_json(opts, &records);
}

/// Prints, per (read ratio, threads) cell, each mode's throughput ratio
/// over the centralized `RwSpinLock` baseline — the figure's headline
/// numbers.
fn print_ratio_summary(records: &[Record]) {
    println!();
    println!("-- speedup vs RwSpinLock (read throughput ratio)");
    let mut panels: Vec<(u32, usize)> = records.iter().map(|r| (r.read_pct, r.threads)).collect();
    panels.dedup();
    for (read_pct, threads) in panels {
        let per = |lock: &str| {
            records
                .iter()
                .find(|r| r.read_pct == read_pct && r.threads == threads && r.lock == lock)
                .map(|r| r.cell.m.ops_per_sec())
        };
        let Some(central) = per("RwSpinLock") else {
            continue;
        };
        let ratio = |ops: f64| {
            if central > 0.0 {
                ops / central
            } else {
                f64::INFINITY
            }
        };
        if let (Some(dist), Some(opt)) = (per("DistRwLock"), per("Optimistic")) {
            println!(
                "{read_pct:>3}% reads  {threads:>3} threads  dist {:>6.2}x  opt {:>6.2}x",
                ratio(dist),
                ratio(opt)
            );
        }
    }
}

/// Hand-rolled JSON dump (no serde in the dependency closure): one object
/// per cell, flat fields only.
fn write_json(opts: &RunOpts, records: &[Record]) {
    let mut out = String::from("{\n  \"bench\": \"readscale\",\n");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    out.push_str(&format!(
        "  \"scale\": \"{}\",\n  \"seconds_per_cell\": {},\n  \"nproc\": {nproc},\n  \"latency_model\": \"off\",\n  \"cells\": [\n",
        if opts.full { "full" } else { "quick" },
        opts.seconds
    ));
    for (i, r) in records.iter().enumerate() {
        let sep = if i + 1 == records.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"read_pct\": {}, \"lock\": \"{}\", \"threads\": {}, \
             \"total_ops\": {}, \"ops_per_sec\": {:.0}, \
             \"read_fast_optimistic\": {}, \"read_validation_failures\": {}, \
             \"read_slow_paths\": {}}}{}\n",
            r.read_pct,
            r.lock,
            r.threads,
            r.cell.m.total_ops,
            r.cell.m.ops_per_sec(),
            r.cell.reads.fast_optimistic,
            r.cell.reads.validation_failures,
            r.cell.reads.slow_paths,
            sep
        ));
    }
    out.push_str("  ]\n}\n");
    let path = "BENCH_readscale.json";
    match std::fs::write(path, out) {
        Ok(()) => println!("# wrote {path}"),
        Err(e) => eprintln!("# could not write {path}: {e}"),
    }
}
