//! Readiness waiting for the reactor: a declaration of POSIX `poll(2)`.
//!
//! std can wait on one socket at a time but not on several, and the C
//! library every std binary links already provides `poll`. This module
//! holds the workspace's only `unsafe`: the foreign declaration and one
//! call through it.

use std::io;
use std::os::raw::{c_int, c_short};
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Data may be read without blocking (or the peer hung up).
pub(crate) const POLLIN: c_short = 0x001;
/// Data may be written without blocking.
pub(crate) const POLLOUT: c_short = 0x004;
/// Error condition; reported whatever was asked for.
pub(crate) const POLLERR: c_short = 0x008;
/// Hang-up; reported whatever was asked for.
pub(crate) const POLLHUP: c_short = 0x010;

#[cfg(target_os = "linux")]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::os::raw::c_uint;

/// One `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watch `fd` for `events`. `None` becomes `fd = -1`, which `poll`
    /// skips entirely, hang-ups included.
    pub(crate) fn new(fd: Option<RawFd>, events: c_short) -> PollFd {
        PollFd {
            fd: fd.unwrap_or(-1),
            events,
            revents: 0,
        }
    }

    /// Whether the last [`wait`] reported any of `mask` on this entry.
    pub(crate) fn ready(&self, mask: c_short) -> bool {
        self.revents & mask != 0
    }

    /// Report every requested event, for a caller that could not wait and
    /// will try each operation non-blockingly instead.
    pub(crate) fn assume_ready(&mut self) {
        self.revents = self.events;
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Block until at least one entry is ready or `timeout` elapses (`None`
/// waits indefinitely). Returns how many entries have events; a timeout
/// returns 0. A sub-millisecond timeout rounds up, so a short deadline
/// cannot turn into a busy loop of zero-length waits.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let millis = match timeout {
        None => -1,
        Some(d) => d.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int,
    };
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // `struct pollfd` values, valid for the whole call, and `nfds` is its
    // length; `poll` writes only the `revents` fields.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, millis) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn reports_readable_and_writable_entries() {
        let (a, mut b) = UnixStream::pair().unwrap();
        let mut fds = [
            PollFd::new(Some(a.as_raw_fd()), POLLIN),
            PollFd::new(Some(b.as_raw_fd()), POLLOUT),
        ];
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).unwrap(), 1);
        assert!(!fds[0].ready(POLLIN));
        assert!(fds[1].ready(POLLOUT));
        b.write_all(b"x").unwrap();
        let mut fds = [PollFd::new(Some(a.as_raw_fd()), POLLIN)];
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert!(fds[0].ready(POLLIN));
    }

    #[test]
    fn hung_up_socket_reports_unless_skipped() {
        let (a, b) = UnixStream::pair().unwrap();
        drop(b);
        // Asking for nothing still reports the hang-up, every time: a
        // loop that kept such an entry would never block.
        let mut fds = [PollFd::new(Some(a.as_raw_fd()), 0)];
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert!(fds[0].ready(POLLHUP));
        // Skipped, it stays silent and the (rounded-up) timeout expires.
        let mut fds = [PollFd::new(None, POLLIN)];
        let started = Instant::now();
        assert_eq!(
            wait(&mut fds, Some(Duration::from_micros(1500))).unwrap(),
            0
        );
        assert!(started.elapsed() >= Duration::from_millis(1));
        assert!(!fds[0].ready(POLLIN | POLLHUP | POLLERR));
    }
}
