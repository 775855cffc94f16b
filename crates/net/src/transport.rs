//! The [`Transport`] abstraction both sides of the wire protocol speak
//! through: a bidirectional byte stream with just enough socket surface
//! (clone, shutdown, non-blocking mode, raw fd) for the readiness-driven
//! server loop, the shared client reactor (which flips a dialed
//! transport non-blocking and parks its fd on the process-wide epoll)
//! and the fault relay's blocking pump threads to share one code path.
//!
//! Two implementations ship: [`TcpStream`] (the real network membrane)
//! and [`UnixStream`] (an in-process socketpair — real fds, so the
//! epoll loop serves it unmodified). The latter is what makes the
//! daemon testable without a listener and is the seam the fault-
//! simulation roadmap item injects through: a `Transport` wrapper can
//! delay, sever or corrupt the byte stream without touching the loop.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;

/// A connected byte stream the protocol runs over.
///
/// `Read`/`Write` carry the frames; the rest is the socket control
/// surface: the event loops flip streams non-blocking and register
/// their fd with epoll, the fault relay clones a half per pump thread
/// and injects shutdowns from other threads.
pub trait Transport: Read + Write + Send + Sync {
    /// A second handle to the same stream (shared kernel object, like
    /// [`TcpStream::try_clone`]).
    fn try_clone(&self) -> std::io::Result<Box<dyn Transport>>;

    /// Shut down both directions; concurrent reads unblock with EOF.
    fn shutdown(&self) -> std::io::Result<()>;

    /// Switch between blocking and readiness-driven I/O.
    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()>;

    /// The raw fd for readiness registration.
    fn raw_fd(&self) -> i32;
}

impl Transport for TcpStream {
    fn try_clone(&self) -> std::io::Result<Box<dyn Transport>> {
        Ok(Box::new(TcpStream::try_clone(self)?))
    }

    fn shutdown(&self) -> std::io::Result<()> {
        TcpStream::shutdown(self, std::net::Shutdown::Both)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        TcpStream::set_nonblocking(self, nonblocking)
    }

    fn raw_fd(&self) -> i32 {
        self.as_raw_fd()
    }
}

impl Transport for UnixStream {
    fn try_clone(&self) -> std::io::Result<Box<dyn Transport>> {
        Ok(Box::new(UnixStream::try_clone(self)?))
    }

    fn shutdown(&self) -> std::io::Result<()> {
        UnixStream::shutdown(self, std::net::Shutdown::Both)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> std::io::Result<()> {
        UnixStream::set_nonblocking(self, nonblocking)
    }

    fn raw_fd(&self) -> i32 {
        self.as_raw_fd()
    }
}

/// Dials a fresh [`Transport`] to the same endpoint — the client's
/// reconnect seam. [`RemoteBroker::connect`](crate::RemoteBroker::connect)
/// builds a TCP connector from an address string;
/// [`RemoteBroker::connect_with`](crate::RemoteBroker::connect_with)
/// accepts any other (an in-process socketpair, a fault-injecting
/// wrapper).
pub type Connector = Box<dyn Fn() -> std::io::Result<Box<dyn Transport>> + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unix_pair_roundtrips_through_the_trait() {
        let (a, b) = UnixStream::pair().unwrap();
        let (a, b): (Box<dyn Transport>, Box<dyn Transport>) = (Box::new(a), Box::new(b));
        let mut writer = a.try_clone().unwrap();
        writer.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        let mut reader = b;
        reader.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        assert!(a.raw_fd() >= 0);
        a.shutdown().unwrap();
        assert_eq!(reader.read(&mut buf).unwrap(), 0, "shutdown surfaces EOF");
    }
}
