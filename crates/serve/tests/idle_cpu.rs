//! An idle server costs no CPU: every `serve-*` thread (acceptor,
//! connection threads, executors, drainers, control) blocks on an event
//! while there is nothing to do, instead of waking to poll.
//!
//! Its own test binary, so no other test's server threads share the
//! process while it measures. Reads `/proc/self/task/*/stat` only.

use std::net::TcpStream;
use std::time::Duration;

use prep_serve::{ServeConfig, Server};

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/task/*/stat`
/// (100 on every Linux ABI this workspace targets).
const TICKS_PER_SEC: u64 = 100;

/// Sums `utime + stime` (in ticks) over this process's threads whose name
/// starts with `serve-`; returns the sum and the number of such threads.
fn serve_thread_ticks() -> (u64, usize) {
    let mut ticks = 0;
    let mut threads = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("read /proc/self/task") {
        let path = task.expect("task entry").path().join("stat");
        // A thread may exit between the listing and the read.
        let Ok(stat) = std::fs::read_to_string(path) else {
            continue;
        };
        // `tid (comm) state ...`: comm may hold spaces, so split at the
        // last ')'. utime and stime are fields 14 and 15 of stat(5).
        let (head, rest) = stat.rsplit_once(')').expect("stat format");
        let comm = head.split_once('(').expect("stat format").1;
        if !comm.starts_with("serve-") {
            continue;
        }
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let utime: u64 = fields[11].parse().expect("utime");
        let stime: u64 = fields[12].parse().expect("stime");
        ticks += utime + stime;
        threads += 1;
    }
    (ticks, threads)
}

#[test]
fn idle_server_threads_use_no_cpu() {
    let server = Server::start(ServeConfig::default(), "127.0.0.1:0").expect("start server");
    // One open, silent connection, so a connection thread idles with a
    // socket in its poll set.
    let _idle_conn = TcpStream::connect(server.local_addr()).expect("connect");
    std::thread::sleep(Duration::from_millis(200));

    let (before, threads) = serve_thread_ticks();
    std::thread::sleep(Duration::from_secs(1));
    let (after, _) = serve_thread_ticks();
    let used_ms = (after - before) * 1000 / TICKS_PER_SEC;

    // acceptor + 2 conn + 2x2 executors + 2 drainers + control.
    assert_eq!(
        threads, 10,
        "expected the default config's 10 serve threads"
    );
    assert!(
        used_ms < 10,
        "{threads} idle serve threads used {used_ms} ms of CPU in 1 s"
    );
    server.shutdown();
}
