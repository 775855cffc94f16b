//! The daemon's I/O: **one** event-loop thread serves every connection,
//! so the daemon's thread count is independent of its client count and
//! 10k+ idle connections cost only their fds. Connection bytes, the
//! doorbell and the deadline heap are the shared [`link`](crate::link)
//! core. The loop keeps the listener, accept, in-process injection,
//! epoll, the links, the doorbell, the dirty-set flush, the stall scan
//! and shutdown; every protocol decision is the [`DaemonCore`]'s, which
//! it feeds each frame, turn end, drain, drained buffer and timer.
//!
//! * **Tokens.** `0` = listener, `1` = the doorbell's eventfd, `2..` =
//!   connections, never reused: a token is the core's connection id.
//! * **One write per connection per turn.** Read turns and drains only
//!   *append* to a connection's out buffer and mark it dirty; after the
//!   doorbell's drains at the top of the next iteration every dirty
//!   connection is flushed once, so a publish's receipt and the EVENTS
//!   it caused leave in one `send`. Bytes appended before a hang-up
//!   request leave before the hang-up: the dirty set is flushed ahead of
//!   every `close_all`.

use crate::daemon::{DaemonCore, Wake};
use crate::link::{Deadlines, Doorbell, Link, READ_CHUNK};
use crate::metrics::daemon_metrics;
use crate::registry::RunRegistry;
use crate::transport::Transport;
use ginflow_mq::Broker;
use mio::{Events, Interest, Poll, Token};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
const FIRST_CONN: usize = 2;

/// What the loop can be asked to do from other threads.
enum LoopMsg {
    /// Subscription `.1` of connection `.0` has deliveries queued (and
    /// holds its schedule bit).
    Drain(usize, u64),
    /// Adopt an in-process socketpair half as a connection.
    Inject(Box<dyn Transport>),
    /// Sever every live connection (listener stays up); ack when done.
    DropConns(Sender<()>),
}

/// What the rest of the daemon holds of its loop thread.
pub(crate) struct LoopHandle {
    bell: Doorbell<LoopMsg>,
    shutdown: AtomicBool,
}

impl LoopHandle {
    /// Hand the loop one half of an in-process socketpair to serve as a
    /// regular connection; the returned half is the client's.
    pub(crate) fn connect_in_process(&self) -> std::io::Result<Box<dyn Transport>> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(std::io::Error::other("server stopped"));
        }
        let (client_end, server_end) = std::os::unix::net::UnixStream::pair()?;
        server_end.set_nonblocking(true)?;
        let _ = client_end.set_write_timeout(Some(Duration::from_secs(10)));
        self.bell.ring(LoopMsg::Inject(Box::new(server_end)));
        Ok(Box::new(client_end))
    }

    /// Sever every live connection (the listener stays up) and wait
    /// until the loop has done so.
    pub(crate) fn drop_connections(&self) {
        if self.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let (tx, rx) = std::sync::mpsc::channel();
        self.bell.ring(LoopMsg::DropConns(tx));
        let _ = rx.recv_timeout(Duration::from_secs(10));
    }

    /// Tell the loop to sever every connection and exit; the caller
    /// joins the thread [`spawn`] returned.
    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.bell.wake();
    }
}

/// One connection's bytes.
struct Conn {
    link: Link,
    /// Bytes were appended to `link.out` since the last flush; the
    /// token is in [`LoopState::dirty`] exactly while this is set.
    dirty: bool,
}

impl Conn {
    /// If `link.out` holds bytes, owe this connection (`token`) a flush
    /// at the top of the loop's next iteration.
    fn mark_dirty(&mut self, token: usize, dirty: &mut Vec<usize>) {
        if !self.dirty && self.link.out.pending() > 0 {
            self.dirty = true;
            dirty.push(token);
        }
    }
}

/// Bind `addr` and start the loop thread serving `broker`. Returns the
/// bound address, the loop's handle and the thread to join after
/// [`LoopHandle::request_shutdown`].
pub(crate) fn spawn(
    addr: &str,
    broker: Arc<dyn Broker>,
    registry: Arc<RunRegistry>,
    retention: Option<Duration>,
) -> std::io::Result<(SocketAddr, Arc<LoopHandle>, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let poll = Poll::new()?;
    poll.register(listener.as_raw_fd(), LISTENER, Interest::READABLE)?;
    let handle = Arc::new(LoopHandle {
        bell: Doorbell::new(&poll, WAKER)?,
        shutdown: AtomicBool::new(false),
    });
    let bell = handle.clone();
    let wake: Wake = Arc::new(move |conn, sub| bell.bell.ring(LoopMsg::Drain(conn, sub)));
    let state = LoopState {
        poll,
        listener,
        core: DaemonCore::new(broker, registry, retention, wake),
        handle: handle.clone(),
        conns: HashMap::new(),
        dirty: Vec::new(),
        next_token: FIRST_CONN,
        timers: Deadlines::new(),
    };
    let thread = std::thread::Builder::new()
        .name("gf-net-loop".into())
        .spawn(move || state.run())?;
    Ok((local, handle, thread))
}

/// Everything the loop thread owns.
struct LoopState {
    poll: Poll,
    listener: TcpListener,
    core: DaemonCore,
    handle: Arc<LoopHandle>,
    conns: HashMap<usize, Conn>,
    /// Connections owed a flush at the top of the next iteration.
    dirty: Vec<usize>,
    next_token: usize,
    /// The stall scan; the core keeps its own deadline.
    timers: Deadlines<()>,
}

impl LoopState {
    fn run(mut self) {
        let mut events = Events::with_capacity(1024);
        let mut scratch = vec![0u8; READ_CHUNK];
        loop {
            // 1. Cross-thread work first: drains, injections, commands.
            for msg in self.handle.bell.take() {
                match msg {
                    LoopMsg::Drain(token, sub) => {
                        if let Some(conn) = self.conns.get_mut(&token) {
                            self.core.drain(token, sub, &mut conn.link.out);
                            conn.mark_dirty(token, &mut self.dirty);
                        }
                    }
                    LoopMsg::Inject(transport) => self.adopt(transport),
                    LoopMsg::DropConns(ack) => {
                        // What was answered before the hang-up request
                        // leaves before the hang-up.
                        self.flush_dirty();
                        self.close_all();
                        let _ = ack.send(());
                    }
                }
            }
            // 2. The one write per connection: what the last read turns
            //    answered plus what the drains above pushed.
            self.flush_dirty();
            if self.handle.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // 3. Fire due timers.
            let now = Instant::now();
            let links = self.conns.iter().map(|(token, conn)| (*token, &conn.link));
            for token in self.timers.stall_scan(now, links) {
                daemon_metrics().stall_evictions.inc();
                self.close_conn(token);
            }
            let gc = self.core.on_timer(now).map(|at| at - now);
            // 4. Park until the next deadline, forever when there is
            //    none, not at all if drains queued up meanwhile.
            let timeout = self.timers.next_timeout(now).into_iter().chain(gc).min();
            if self
                .handle
                .bell
                .park(&self.poll, &mut events, timeout)
                .is_err()
            {
                continue;
            }
            // 5. Socket readiness.
            let now = Instant::now();
            for event in events.iter() {
                match event.token() {
                    LISTENER => self.accept_ready(),
                    WAKER => {} // queue handled at the top of the loop
                    Token(token) => {
                        if event.is_readable() || event.is_closed() {
                            self.read_ready(token, &mut scratch, now);
                        }
                        if event.is_writable() {
                            self.flush(token);
                        }
                    }
                }
            }
        }
        // Teardown: sever every connection so clients see EOF (the dirty
        // set was flushed just above the shutdown check).
        self.close_all();
    }

    /// Accept every connection currently queued on the listener.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.adopt(Box::new(stream));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break, // drained, or the listener is broken
            }
        }
    }

    /// Register `transport` (already non-blocking) as a connection.
    fn adopt(&mut self, transport: Box<dyn Transport>) {
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poll
            .register(transport.raw_fd(), Token(token), Interest::READABLE)
            .is_err()
        {
            let _ = transport.shutdown();
            return;
        }
        let m = daemon_metrics();
        m.accepts.inc();
        m.connections.add(1);
        let link = Link::new(transport, Instant::now());
        self.conns.insert(token, Conn { link, dirty: false });
        self.core.open(token);
    }

    fn close_conn(&mut self, token: usize) {
        if let Some(conn) = self.conns.remove(&token) {
            daemon_metrics().connections.sub(1);
            self.core.close(token);
            let _ = self.poll.deregister(conn.link.raw_fd());
            conn.link.shutdown();
        }
    }

    fn close_all(&mut self) {
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
    }

    /// Flush every connection written to since the last call, once.
    fn flush_dirty(&mut self) {
        let mut dirty = std::mem::take(&mut self.dirty);
        for token in dirty.drain(..) {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.dirty = false;
                self.flush(token);
            }
        }
        self.dirty = dirty; // keep the allocation
    }

    /// A connection is readable: hand the core the requests of one read
    /// turn; what they produced leaves with the turn's flush.
    fn read_ready(&mut self, token: usize, scratch: &mut [u8], now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let core = &mut self.core;
        let turn = conn
            .link
            .read_turn(scratch, |out, frame| core.on_frame(token, frame, out, now));
        daemon_metrics().frames.add(turn.frames);
        if !(core.end_turn(token, &mut conn.link.out) && turn.alive) {
            return self.close_conn(token);
        }
        conn.mark_dirty(token, &mut self.dirty);
    }

    /// Flush a connection's out buffer and act on what the link
    /// reports: a dead socket closes the connection, owed bytes keep
    /// the stall scan armed, a drained buffer goes to the core.
    fn flush(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let now = Instant::now();
        let owed = conn.link.out.pending();
        let alive = match conn.link.flush(now) {
            Ok(None) => true,
            Ok(Some(interest)) => self
                .poll
                .reregister(conn.link.raw_fd(), Token(token), interest)
                .is_ok(),
            Err(_) => false,
        };
        if conn.link.out.pending() < owed {
            daemon_metrics().flushes.inc();
        }
        if !alive {
            return self.close_conn(token);
        }
        if conn.link.out.pending() > 0 {
            self.timers.arm_stall_scan(now);
        } else {
            self.core.out_drained(token);
        }
    }
}
