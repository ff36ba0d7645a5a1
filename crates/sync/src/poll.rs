//! Blocking readiness waits on sockets through `ppoll(2)`.
//!
//! The workspace vendors no `libc`, so this module binds the one symbol it
//! needs (std already links it) and is the workspace's single `ppoll`
//! call site. A thread that has nothing to do until a socket turns
//! readable or writable blocks here instead of polling the socket in a
//! sleep loop, and `ppoll` takes a nanosecond timeout: `SO_RCVTIMEO` and
//! `poll(2)`'s millisecond timeout both round sub-millisecond waits up.

use std::os::fd::AsRawFd;
use std::time::Duration;

/// Readable (or end of stream / pending error).
pub const POLLIN: i16 = 0x1;
/// Writable without blocking.
pub const POLLOUT: i16 = 0x4;

/// `struct pollfd` of `poll(2)`: one descriptor, the events asked for, and
/// the events that occurred.
#[repr(C)]
#[derive(Debug)]
pub struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Asks for `events` (e.g. [`POLLIN`]) on `fd`.
    pub fn new(fd: &impl AsRawFd, events: i16) -> PollFd {
        PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// True when the last [`poll`] reported any event on this descriptor,
    /// including `POLLERR`/`POLLHUP`: the next read or write will not
    /// block (it returns the data, the end of stream, or the error).
    pub fn ready(&self) -> bool {
        self.revents != 0
    }
}

/// `struct timespec` (64-bit Linux).
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Blocks until some descriptor in `fds` is ready or `timeout` has passed
/// (`None` waits without a deadline). Returns the number of ready
/// descriptors; a signal interrupting the wait reads as a timeout (0).
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> std::io::Result<usize> {
    for fd in fds.iter_mut() {
        fd.revents = 0;
    }
    let t = timeout.map(|d| Timespec {
        tv_sec: d.as_secs().min(i64::MAX as u64) as i64,
        tv_nsec: i64::from(d.subsec_nanos()),
    });
    let tp = t
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // pollfd records and `tp` is null or points at a live local; ppoll
    // reads `fds.len()` records and the timeout, writes only the records'
    // `revents`, and a null signal mask leaves the thread's mask unchanged.
    let ready = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, tp, std::ptr::null()) };
    if ready < 0 {
        let e = std::io::Error::last_os_error();
        return match e.kind() {
            std::io::ErrorKind::Interrupted => Ok(0),
            _ => Err(e),
        };
    }
    Ok(ready as usize)
}

/// Blocks until `fd` has data (or end of stream, or an error) to read, or
/// `timeout` has passed. Returns whether a `read` will not block.
pub fn wait_readable(fd: &impl AsRawFd, timeout: Duration) -> std::io::Result<bool> {
    let mut fds = [PollFd::new(fd, POLLIN)];
    Ok(poll(&mut fds, Some(timeout))? > 0 && fds[0].ready())
}

/// Blocks until `fd` accepts a write (or has an error to report). Returns
/// whether a `write` will not block.
pub fn wait_writable(fd: &impl AsRawFd) -> std::io::Result<bool> {
    let mut fds = [PollFd::new(fd, POLLOUT)];
    Ok(poll(&mut fds, None)? > 0 && fds[0].ready())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;

    #[test]
    fn readable_after_a_write_and_not_before() {
        let (mut a, b) = UnixStream::pair().unwrap();
        assert!(!wait_readable(&b, Duration::from_millis(1)).unwrap());
        a.write_all(&[7]).unwrap();
        assert!(wait_readable(&b, Duration::from_secs(5)).unwrap());
        assert!(wait_writable(&a).unwrap());
    }

    #[test]
    fn poll_reports_which_descriptor_is_ready() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let (_c, d) = UnixStream::pair().unwrap();
        a.write_all(&[1]).unwrap();
        let mut fds = [PollFd::new(&d, POLLIN), PollFd::new(&b, POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::from_secs(5))).unwrap(), 1);
        assert!(!fds[0].ready());
        assert!(fds[1].ready());
    }
}
