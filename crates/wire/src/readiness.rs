//! Bounded readiness wait on [`crate::TcpTransport`]'s ack stream
//! (Linux).
//!
//! A blocking `read` with `SO_RCVTIMEO` is a poor ack poll: the kernel
//! rounds socket timeouts up to whole jiffies, so a "1 ms" timeout
//! waited 8 ms at the median (16 ms at most) on a 2-vCPU AMD EPYC VM,
//! and a read loop re-arms it on every trickle of bytes.
//! `epoll_wait` honours a 1 ms timeout to the millisecond, so the
//! transport registers its stream with the vendored poller and waits
//! on readiness instead. The syscalls stay inside `vendor/mio`;
//! this crate remains free of `unsafe`.

use crate::clock::Deadline;
use mio::{Events, Interest, Poll, Token};
use std::io;
use std::net::TcpStream;
use std::time::Duration;

const STREAM: Token = Token(0);

/// An epoll instance watching one registered ack stream at a time.
pub(crate) struct AckPoller {
    poll: Poll,
    events: Events,
}

impl AckPoller {
    pub(crate) fn new() -> io::Result<AckPoller> {
        Ok(AckPoller {
            poll: Poll::new()?,
            events: Events::with_capacity(1),
        })
    }

    /// Starts watching `stream` (a fresh connection) for readability.
    pub(crate) fn register(&self, stream: &TcpStream) -> io::Result<()> {
        self.poll.register(stream, STREAM, Interest::READABLE)
    }

    /// Stops watching `stream`; call before dropping it.
    pub(crate) fn deregister(&self, stream: &TcpStream) {
        // Closing the fd removes it from the epoll set anyway, so a
        // failure here has nothing left to clean up.
        let _ = self.poll.deregister(stream);
    }

    /// Waits at most `budget` for the stream to report any readiness:
    /// bytes to read, a hang-up or an error. Returns whether it did; a
    /// read then tells which (bytes, `Ok(0)` at EOF, or the error), so
    /// acks the peer wrote before closing are still read. A signal
    /// (`EINTR`) restarts the wait with what is left of the budget, so
    /// the total never exceeds it by more than the poller's millisecond
    /// rounding. A zero budget is a non-blocking check.
    pub(crate) fn wait(&mut self, budget: Duration) -> io::Result<bool> {
        let deadline = Deadline::after(budget);
        let mut timeout = budget;
        loop {
            match self.poll.poll(&mut self.events, Some(timeout)) {
                Ok(n) => return Ok(n > 0),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    timeout = deadline.remaining();
                }
                Err(e) => return Err(e),
            }
        }
    }
}
