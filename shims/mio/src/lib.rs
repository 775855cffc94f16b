//! Offline shim of `mio`: readiness-driven I/O event polling over raw
//! Linux `epoll(7)` syscalls. Only the API surface GinFlow's broker
//! daemon uses is provided — a [`Poll`] instance sockets register with
//! by raw fd, an [`Events`] buffer, and an `eventfd`-backed [`Waker`]
//! for cross-thread wakeups. The container this repo builds in has no
//! crates.io access, so the workspace patches in this implementation;
//! swapping back to the real crate is a one-line manifest change (plus
//! adapting the fd-based registration calls to mio's `Source` trait).
//!
//! Differences from real mio, chosen for simplicity:
//!
//! * Registration is **by raw fd** (`Poll::register(fd, token,
//!   interest)`) instead of through a `Source` trait — std's own
//!   `TcpListener`/`TcpStream`/`UnixStream` expose `AsRawFd`, which is
//!   all the daemon needs.
//! * Socket events are **level-triggered** (no `EPOLLET`): a readable
//!   socket keeps reporting readable until drained, so a consumer may
//!   stop early for fairness without risking a lost edge.
//! * The [`Waker`]'s eventfd is registered **edge-triggered** and never
//!   needs draining: each `wake()` writes the counter, which posts a
//!   fresh edge even when earlier wakes were not yet consumed.

#![cfg(target_os = "linux")]

use std::io;
use std::os::raw::{c_int, c_void};
use std::os::unix::io::RawFd;
use std::time::Duration;

// Raw syscall bindings: the platform libc is always linked by std, so
// declaring the symbols here avoids a dependency on the libc crate.
extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: u32, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;

const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

/// `struct epoll_event`. Packed on x86-64 (the kernel ABI there), the
/// natural C layout everywhere else.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// Opaque registration identifier echoed back in each [`Event`]; pick any
/// scheme (slab index, counter) that lets the loop route readiness to
/// the owning connection.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Token(pub usize);

/// What readiness a registration asks for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interest(u32);

impl Interest {
    /// Readable readiness (incoming data, incoming connections, EOF).
    pub const READABLE: Interest = Interest(EPOLLIN | EPOLLRDHUP);
    /// Writable readiness (send-buffer space available).
    pub const WRITABLE: Interest = Interest(EPOLLOUT);

    /// Both interests combined (the real crate's name, kept for API
    /// fidelity even though it shades `std::ops::Add::add`).
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }

    /// Does this interest include readable?
    pub fn is_readable(self) -> bool {
        self.0 & EPOLLIN != 0
    }

    /// Does this interest include writable?
    pub fn is_writable(self) -> bool {
        self.0 & EPOLLOUT != 0
    }
}

impl std::ops::BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        self.add(rhs)
    }
}

/// One readiness notification out of [`Poll::poll`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    token: usize,
    flags: u32,
}

impl Event {
    /// The token the fd was registered with.
    pub fn token(&self) -> Token {
        Token(self.token)
    }

    /// Data (or an incoming connection, or EOF) can be read.
    pub fn is_readable(&self) -> bool {
        self.flags & (EPOLLIN | EPOLLHUP | EPOLLERR) != 0
    }

    /// The socket can accept more outgoing bytes.
    pub fn is_writable(&self) -> bool {
        self.flags & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0
    }

    /// The peer closed (or half-closed) the connection, or the socket
    /// errored — the registration is dead either way.
    pub fn is_closed(&self) -> bool {
        self.flags & (EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0
    }
}

/// Buffer [`Poll::poll`] fills with readiness events.
pub struct Events {
    buf: Vec<EpollEvent>,
    len: usize,
}

impl Events {
    /// An event buffer returning at most `capacity` events per poll.
    pub fn with_capacity(capacity: usize) -> Events {
        Events {
            buf: vec![EpollEvent { events: 0, data: 0 }; capacity.max(1)],
            len: 0,
        }
    }

    /// Events delivered by the last [`Poll::poll`].
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.buf[..self.len].iter().map(|e| Event {
            token: e.data as usize,
            flags: e.events,
        })
    }

    /// Did the last poll deliver nothing (timeout)?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

fn last_os_error() -> io::Error {
    io::Error::last_os_error()
}

/// The readiness selector: an `epoll(7)` instance file descriptors
/// register with.
pub struct Poll {
    epfd: RawFd,
}

impl Poll {
    /// A fresh epoll instance.
    pub fn new() -> io::Result<Poll> {
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(last_os_error());
        }
        Ok(Poll { epfd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, flags: u32, token: usize) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: flags,
            data: token as u64,
        };
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(last_os_error());
        }
        Ok(())
    }

    /// Start watching `fd` (level-triggered) for `interest`, tagging
    /// its events with `token`.
    pub fn register(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest.0, token.0)
    }

    /// Change an existing registration's interest (or token).
    pub fn reregister(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest.0, token.0)
    }

    /// Stop watching `fd`. (Closing the fd deregisters implicitly; this
    /// is for keeping an fd open but silent.)
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block until at least one registered fd is ready, `timeout`
    /// expires (`Some`), or forever-until-ready (`None`). Fills
    /// `events`; an expired timeout leaves it empty. EINTR retries
    /// internally with the remaining time. A zero timeout never blocks;
    /// any other is rounded up to whole milliseconds.
    pub fn poll(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<()> {
        let deadline = timeout.map(|t| std::time::Instant::now() + t);
        events.len = 0;
        loop {
            let timeout_ms: c_int = match deadline {
                None => -1,
                // A zero timeout is a non-blocking check, not a 1 ms nap.
                Some(_) if timeout == Some(Duration::ZERO) => 0,
                Some(d) => {
                    let left = d.saturating_duration_since(std::time::Instant::now());
                    // Round up so a 100µs timeout doesn't busy-spin at 0.
                    left.as_millis().saturating_add(1).min(c_int::MAX as u128) as c_int
                }
            };
            let rc = unsafe {
                epoll_wait(
                    self.epfd,
                    events.buf.as_mut_ptr(),
                    events.buf.len() as c_int,
                    timeout_ms,
                )
            };
            if rc >= 0 {
                events.len = rc as usize;
                return Ok(());
            }
            let err = last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
                    return Ok(());
                }
                continue;
            }
            return Err(err);
        }
    }
}

impl Drop for Poll {
    fn drop(&mut self) {
        unsafe { close(self.epfd) };
    }
}

// The epoll fd is freely shareable across threads.
unsafe impl Send for Poll {}
unsafe impl Sync for Poll {}

/// Cross-thread wakeup for a thread blocked in [`Poll::poll`]: an
/// `eventfd` registered edge-triggered, so every [`Waker::wake`] posts
/// a fresh readiness event without the poller ever needing to drain the
/// counter.
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// Create and register the wakeup fd; its events carry `token`.
    pub fn new(poll: &Poll, token: Token) -> io::Result<Waker> {
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(last_os_error());
        }
        poll.ctl(EPOLL_CTL_ADD, fd, EPOLLIN | EPOLLET, token.0)?;
        Ok(Waker { fd })
    }

    /// Wake the polling thread. Cheap, non-blocking, callable from any
    /// thread and any signal-safe-ish context.
    pub fn wake(&self) -> io::Result<()> {
        let one: u64 = 1;
        let rc = unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
        if rc == 8 {
            return Ok(());
        }
        // Counter saturated (needs 2^64 - 1 un-consumed wakes): drain it
        // and retry once; the pending edge still reaches the poller.
        let mut drained: u64 = 0;
        unsafe { read(self.fd, (&mut drained as *mut u64).cast(), 8) };
        let rc = unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
        if rc == 8 {
            Ok(())
        } else {
            Err(last_os_error())
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::sync::Arc;
    use std::time::Instant;

    const LISTENER: Token = Token(0);
    const WAKER: Token = Token(1);
    const CONN: Token = Token(2);

    #[test]
    fn timeout_expires_empty() {
        let poll = Poll::new().unwrap();
        let mut events = Events::with_capacity(8);
        let t0 = Instant::now();
        poll.poll(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert!(events.is_empty());
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn a_zero_timeout_does_not_sleep() {
        // Rounded up like any other timeout, each call would nap 1 ms.
        let poll = Poll::new().unwrap();
        let mut events = Events::with_capacity(8);
        let t0 = Instant::now();
        for _ in 0..200 {
            poll.poll(&mut events, Some(Duration::ZERO)).unwrap();
            assert!(events.is_empty());
        }
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "200 zero-timeout polls took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn listener_becomes_readable_on_connect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let poll = Poll::new().unwrap();
        poll.register(listener.as_raw_fd(), LISTENER, Interest::READABLE)
            .unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev: Vec<Event> = events.iter().collect();
        assert!(ev.iter().any(|e| e.token() == LISTENER && e.is_readable()));
        assert!(listener.accept().is_ok());
    }

    #[test]
    fn stream_readable_is_level_triggered_until_drained() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let poll = Poll::new().unwrap();
        poll.register(server.as_raw_fd(), CONN, Interest::READABLE)
            .unwrap();
        client.write_all(b"hello").unwrap();
        let mut events = Events::with_capacity(8);
        // Two polls in a row both report readable: level-triggered.
        for _ in 0..2 {
            poll.poll(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(events.iter().any(|e| e.token() == CONN && e.is_readable()));
        }
        let mut buf = [0u8; 16];
        let mut server = server;
        assert_eq!(server.read(&mut buf).unwrap(), 5);
        poll.poll(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert!(
            !events.iter().any(|e| e.token() == CONN && e.is_readable()),
            "drained socket must stop reporting readable"
        );
    }

    #[test]
    fn writable_interest_reports_and_reregister_silences() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.set_nonblocking(true).unwrap();
        let poll = Poll::new().unwrap();
        poll.register(
            client.as_raw_fd(),
            CONN,
            Interest::READABLE | Interest::WRITABLE,
        )
        .unwrap();
        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token() == CONN && e.is_writable()));
        // Drop the writable interest: an idle socket goes silent.
        poll.reregister(client.as_raw_fd(), CONN, Interest::READABLE)
            .unwrap();
        poll.poll(&mut events, Some(Duration::from_millis(30)))
            .unwrap();
        assert!(!events.iter().any(|e| e.token() == CONN));
    }

    #[test]
    fn peer_close_reports_closed() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let poll = Poll::new().unwrap();
        poll.register(server.as_raw_fd(), CONN, Interest::READABLE)
            .unwrap();
        drop(client);
        let mut events = Events::with_capacity(8);
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev: Vec<Event> = events.iter().collect();
        assert!(ev.iter().any(|e| e.token() == CONN && e.is_closed()));
    }

    #[test]
    fn waker_wakes_a_blocked_poll_from_another_thread() {
        let poll = Arc::new(Poll::new().unwrap());
        let waker = Arc::new(Waker::new(&poll, WAKER).unwrap());
        let w = waker.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            w.wake().unwrap();
        });
        let mut events = Events::with_capacity(8);
        let t0 = Instant::now();
        poll.poll(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(t0.elapsed() < Duration::from_secs(5), "woke early");
        assert!(events.iter().any(|e| e.token() == WAKER));
        handle.join().unwrap();
        // Repeated wakes keep posting fresh edges without draining.
        waker.wake().unwrap();
        waker.wake().unwrap();
        poll.poll(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token() == WAKER));
    }
}
