//! The shared client reactor: **one** epoll thread per process owns the
//! socket of every [`RemoteBroker`](crate::RemoteBroker) — reads,
//! writes, and reconnect timers for N connections cost one thread.
//! Connection bytes, the doorbell and the deadline heap are the
//! [`link`](crate::link) core it shares with the daemon's
//! [`event_loop`](crate::event_loop). This module is I/O only: epoll,
//! links, dial helpers and the deadline heap. Every protocol decision —
//! what a frame means, what to send, when to redial — is the
//! connection's `ClientCore` ([`client`](crate::client)), which the
//! loop drives under the connection's one lock.
//!
//! * **Lazily spawned, refcounted, dropped at zero.** The first
//!   connection spawns the `gf-client-loop` thread; a process-global
//!   `Weak` hands the same loop to every later connection. When the
//!   last connection deregisters, the loop clears the global handle
//!   (under the same lock registration takes, so the two can never miss
//!   each other) and exits — a process that stops using remote brokers
//!   returns to zero extra threads.
//! * **Publishers never touch the socket.** They queue encoded frames
//!   in the core and ring the doorbell once per batch the loop has not
//!   taken yet; the loop moves the core's queue onto the connection's
//!   link. Every server frame goes to `ClientCore::on_frame`, and the
//!   delivery it yields is made after the lock is released, so a
//!   subscriber's waker never runs under it.
//! * **Reconnect rides the deadline heap.** A dead connection drops its
//!   link and tells the core (`on_lost`: in-flight requests fail, the
//!   loss ledger counts un-acked publishes, queued bytes go), then arms
//!   the redial the core asks for; a failed dial arms the core's next
//!   jittered backoff step (20 ms doubling to a hard cap, default 2 s
//!   via `GINFLOW_RECONNECT_CAP_MS`). Dial attempts run on a short-lived
//!   helper thread so a hanging TCP connect can never freeze the other
//!   connections. On success the core queues the re-subscribe batch
//!   *ahead* of any frame queued during the outage — replayed history
//!   never interleaves behind fresh publishes.

use crate::client::ClientInner;
use crate::link::{Deadlines, Doorbell, Link, READ_CHUNK};
use crate::transport::Transport;
use ginflow_mq::metrics::{self, Counter, Gauge, Histogram};
use ginflow_mq::wire::Frame;
use mio::{Events, Interest, Poll, Token};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

const WAKER: Token = Token(0);

/// Reactor observability, in the process-global registry (surfaces
/// through STATS and `/metrics` like every other family).
struct ReactorMetrics {
    wakeups: Arc<Counter>,
    frames_turn: Arc<Histogram>,
    reconnects: Arc<Counter>,
    connections: Arc<Gauge>,
}

fn reactor_metrics() -> &'static ReactorMetrics {
    static M: OnceLock<ReactorMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let g = metrics::global();
        ReactorMetrics {
            wakeups: g.counter(
                "gf_client_reactor_wakeups_total",
                "Client reactor loop wakeups (socket readiness, doorbell or timer)",
            ),
            frames_turn: g.histogram(
                "gf_client_reactor_frames_turn",
                "Server frames dispatched per connection readiness turn",
            ),
            reconnects: g.counter(
                "gf_client_reactor_reconnects_total",
                "Connections re-established by the client reactor",
            ),
            connections: g.gauge(
                "gf_client_reactor_connections",
                "Live connections owned by the client reactor",
            ),
        }
    })
}

/// What the loop can be asked to do from other threads.
enum RMsg {
    /// Adopt a freshly dialed connection.
    Register(u64, Box<dyn Transport>, Arc<ClientInner>),
    /// Tear a connection down; ack when its socket is closed.
    Deregister(u64, Sender<()>),
    /// The connection's core has frames queued.
    Kick(u64),
    /// A dial helper finished; `Ok` carries the fresh transport.
    Dialed(u64, std::io::Result<Box<dyn Transport>>),
}

/// What the connections hold of the loop thread.
struct ReactorHandle {
    bell: Doorbell<RMsg>,
    /// Registered [`ConnHandle`]s — the refcount the loop's exit
    /// decision reads. Bumped under the global registry lock on
    /// acquire, decremented on [`ConnHandle::close`].
    live: AtomicUsize,
}

/// The process-global reactor slot: a `Weak` (so the loop can retire
/// itself once every connection is gone) plus the loop thread's
/// `JoinHandle`, joined by whoever observes the retirement — the last
/// closer or the next spawner — so "dropped at zero connections" is a
/// deterministic fact, not an eventual one (`/proc/self` thread
/// counts in tests and benches depend on it).
#[derive(Default)]
struct ReactorSlot {
    weak: Weak<ReactorHandle>,
    thread: Option<std::thread::JoinHandle<()>>,
}

fn global_reactor() -> &'static Mutex<ReactorSlot> {
    static G: OnceLock<Mutex<ReactorSlot>> = OnceLock::new();
    G.get_or_init(|| Mutex::new(ReactorSlot::default()))
}

/// Connection ids double as epoll tokens; globally unique so a token
/// can never be confused across reactor generations.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// One connection's seat on the loop: its id and the loop's doorbell.
pub(crate) struct ConnHandle {
    id: u64,
    shared: Arc<ReactorHandle>,
}

impl ConnHandle {
    /// Join (or spawn) the process reactor and claim a connection slot.
    pub(crate) fn acquire() -> std::io::Result<ConnHandle> {
        let mut global = global_reactor().lock();
        let shared = match global.weak.upgrade() {
            Some(shared) => {
                shared.live.fetch_add(1, Ordering::SeqCst);
                shared
            }
            None => {
                // Reap the retired previous generation, if any (it is
                // past needing this lock, so the join cannot deadlock).
                if let Some(t) = global.thread.take() {
                    let _ = t.join();
                }
                let poll = Poll::new()?;
                let shared = Arc::new(ReactorHandle {
                    bell: Doorbell::new(&poll, WAKER)?,
                    live: AtomicUsize::new(1),
                });
                let state = Reactor {
                    poll,
                    shared: shared.clone(),
                    conns: HashMap::new(),
                    timers: Deadlines::new(),
                    scratch: vec![0u8; READ_CHUNK],
                };
                let thread = std::thread::Builder::new()
                    .name("gf-client-loop".into())
                    .spawn(move || state.run())
                    .inspect_err(|_| {
                        // Never spawned: the slot we claimed dies here.
                        shared.live.fetch_sub(1, Ordering::SeqCst);
                    })?;
                global.weak = Arc::downgrade(&shared);
                global.thread = Some(thread);
                shared
            }
        };
        Ok(ConnHandle {
            id: NEXT_ID.fetch_add(1, Ordering::SeqCst),
            shared,
        })
    }

    /// Hand the loop a freshly dialed transport to own.
    pub(crate) fn register(&self, transport: Box<dyn Transport>, inner: Arc<ClientInner>) {
        self.shared
            .bell
            .ring(RMsg::Register(self.id, transport, inner));
    }

    /// Ring the doorbell for frames queued in the core.
    pub(crate) fn kick(&self) {
        self.shared.bell.ring(RMsg::Kick(self.id));
    }

    /// Deregister from the loop and wait for the socket to close; if
    /// this was the last connection, also join the retiring loop
    /// thread (the ack is sent *after* the loop's exit decision, so
    /// observing it tells us which case we are in). Call once.
    pub(crate) fn close(&self) {
        self.shared.live.fetch_sub(1, Ordering::SeqCst);
        let (tx, rx) = std::sync::mpsc::channel();
        self.shared.bell.ring(RMsg::Deregister(self.id, tx));
        if rx.recv_timeout(Duration::from_secs(10)).is_err() {
            return; // loop wedged or gone; don't risk a hanging join
        }
        let retired = {
            let mut global = global_reactor().lock();
            if global.weak.upgrade().is_none() {
                global.thread.take()
            } else {
                None // loop lives on (other connections, or respawned)
            }
        };
        if let Some(t) = retired {
            let _ = t.join();
        }
    }
}

/// Loop-side per-connection state.
struct RConn {
    inner: Arc<ClientInner>,
    /// The live connection; `None` while disconnected (a reconnect
    /// timer or dial is pending).
    link: Option<Link>,
    /// A dial helper thread is in flight.
    dialing: bool,
}

/// Everything the reactor thread owns.
struct Reactor {
    poll: Poll,
    shared: Arc<ReactorHandle>,
    conns: HashMap<u64, RConn>,
    /// The loop's own deadlines are redials, keyed by connection id.
    timers: Deadlines<u64>,
    scratch: Vec<u8>,
}

impl Reactor {
    fn run(mut self) {
        let mut events = Events::with_capacity(256);
        let mut acks: Vec<Sender<()>> = Vec::new();
        loop {
            for msg in self.shared.bell.take() {
                self.handle_msg(msg, &mut acks);
            }
            let now = Instant::now();
            self.fire_timers(now);
            // Deregister acks go out only after the exit decision: a
            // closer that sees its ack can then read the global slot
            // and learn definitively whether the loop retired.
            let exiting = self.conns.is_empty()
                && self.shared.live.load(Ordering::SeqCst) == 0
                && self.try_exit();
            for ack in acks.drain(..) {
                let _ = ack.send(());
            }
            if exiting {
                return;
            }
            let timeout = self.timers.next_timeout(now);
            let parked = self.shared.bell.park(&self.poll, &mut events, timeout);
            reactor_metrics().wakeups.inc();
            if parked.is_err() {
                continue;
            }
            for event in events.iter() {
                match event.token() {
                    WAKER => {} // queue handled at the top of the loop
                    Token(token) => {
                        let id = token as u64;
                        if event.is_readable() || event.is_closed() {
                            self.read_ready(id);
                        }
                        if event.is_writable() {
                            self.flush(id);
                        }
                    }
                }
            }
        }
    }

    /// Retire the loop: under the registration lock (so an `acquire`
    /// serialized before us keeps the loop, and one after us spawns a
    /// fresh one), re-check the refcount and clear the global handle.
    fn try_exit(&self) -> bool {
        let mut global = global_reactor().lock();
        if self.shared.live.load(Ordering::SeqCst) != 0 {
            return false; // a registration raced in
        }
        global.weak = Weak::new();
        true
    }

    fn handle_msg(&mut self, msg: RMsg, acks: &mut Vec<Sender<()>>) {
        match msg {
            RMsg::Register(id, transport, inner) => {
                let conn = RConn {
                    inner,
                    link: None,
                    dialing: false,
                };
                self.conns.insert(id, conn);
                if self.adopt(id, transport) {
                    self.drain_outbound(id);
                } else {
                    // Registration failed: treat as an instant
                    // connection loss so the ordinary redial path
                    // takes over.
                    self.conn_lost(id);
                }
            }
            RMsg::Deregister(id, ack) => {
                self.drop_link(id);
                self.conns.remove(&id);
                acks.push(ack); // sent after the exit decision
            }
            RMsg::Kick(id) => self.drain_outbound(id),
            RMsg::Dialed(id, result) => self.dialed(id, result),
        }
    }

    /// Make `transport` connection `id`'s link and tell the core a link
    /// is up. `false`: the socket could not be registered and is closed.
    fn adopt(&mut self, id: u64, transport: Box<dyn Transport>) -> bool {
        let adopted = transport.set_nonblocking(true).is_ok()
            && self
                .poll
                .register(transport.raw_fd(), Token(id as usize), Interest::READABLE)
                .is_ok();
        if !adopted {
            let _ = transport.shutdown();
            return false;
        }
        reactor_metrics().connections.add(1);
        let conn = self.conns.get_mut(&id).expect("adopting a known conn");
        conn.link = Some(Link::new(transport, Instant::now()));
        conn.inner.core.lock().on_connected();
        true
    }

    /// Close connection `id`'s socket, if it has one. The link goes
    /// with it, buffers and all: a partial frame must never prefix the
    /// next connection's stream, in either direction.
    fn drop_link(&mut self, id: u64) {
        if let Some(link) = self.conns.get_mut(&id).and_then(|c| c.link.take()) {
            reactor_metrics().connections.sub(1);
            let _ = self.poll.deregister(link.raw_fd());
            link.shutdown();
        }
    }

    /// Move the core's queued frames onto the wire. While disconnected
    /// they stay in the core, behind the re-subscribe batch the next
    /// connect puts ahead of them.
    fn drain_outbound(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let Some(link) = conn.link.as_mut() else {
            return;
        };
        conn.inner.core.lock().move_outbound(&mut link.out);
        if link.out.pending() > 0 {
            self.flush(id);
        }
    }

    /// A connection is readable: feed the server frames of one read
    /// turn to the core, each under the lock, and make each frame's
    /// delivery after releasing it.
    fn read_ready(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let Some(link) = conn.link.as_mut() else {
            return;
        };
        let inner = &conn.inner;
        let turn = link.read_turn(&mut self.scratch, |out, frame| {
            let answers = !matches!(frame, Frame::Events { .. });
            let delivery = {
                let mut core = inner.core.lock();
                let delivery = core.on_frame(frame);
                core.move_outbound(out);
                delivery
            };
            if answers {
                inner.changed.notify_all();
            }
            if let Some(delivery) = delivery {
                let sub = delivery.sub;
                if !delivery.run() {
                    let mut core = inner.core.lock();
                    core.drop_sub(sub);
                    core.move_outbound(out);
                }
            }
            true
        });
        if turn.frames > 0 {
            reactor_metrics().frames_turn.observe(turn.frames);
        }
        if turn.alive {
            self.flush(id);
        } else {
            self.conn_lost(id);
        }
    }

    /// Flush a connection's link; owed bytes keep the stall scan armed,
    /// a dead socket is a lost connection.
    fn flush(&mut self, id: u64) {
        let Some(link) = self.conns.get_mut(&id).and_then(|c| c.link.as_mut()) else {
            return;
        };
        let now = Instant::now();
        let alive = match link.flush(now) {
            Ok(None) => true,
            Ok(Some(interest)) => self
                .poll
                .reregister(link.raw_fd(), Token(id as usize), interest)
                .is_ok(),
            Err(_) => false,
        };
        if !alive {
            self.conn_lost(id);
        } else if link.out.pending() > 0 {
            self.timers.arm_stall_scan(now);
        }
    }

    /// The socket died: drop the link with what it still owed, tell the
    /// core, and arm the redial it asks for.
    fn conn_lost(&mut self, id: u64) {
        self.drop_link(id);
        let Some(conn) = self.conns.get(&id) else {
            return;
        };
        let redial = conn.inner.core.lock().on_lost(Instant::now());
        conn.inner.changed.notify_all();
        if let Some(at) = redial {
            self.timers.arm(at, id);
        }
    }

    fn fire_timers(&mut self, now: Instant) {
        let links = self
            .conns
            .iter()
            .filter_map(|(id, conn)| Some((*id, conn.link.as_ref()?)));
        for id in self.timers.stall_scan(now, links) {
            self.conn_lost(id);
        }
        while let Some(id) = self.timers.pop_due(now) {
            self.dial(id);
        }
    }

    /// Launch a dial helper for a disconnected connection. The helper
    /// thread exists only for the duration of one `connector()` call —
    /// a hanging dial blocks nobody, and at steady state the process
    /// carries zero of them.
    fn dial(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.link.is_some() || conn.dialing || conn.inner.core.lock().is_closed() {
            return;
        }
        conn.dialing = true;
        let inner = conn.inner.clone();
        let shared = self.shared.clone();
        let spawned = std::thread::Builder::new()
            .name("gf-client-dial".into())
            .spawn(move || {
                let result = inner.dial();
                shared.bell.ring(RMsg::Dialed(id, result));
            })
            .is_ok();
        if !spawned {
            conn.dialing = false;
            let at = conn.inner.core.lock().next_redial(Instant::now());
            self.timers.arm(at, id);
        }
    }

    /// A dial helper reported back.
    fn dialed(&mut self, id: u64, result: std::io::Result<Box<dyn Transport>>) {
        let wanted = self.conns.get_mut(&id).is_some_and(|conn| {
            conn.dialing = false;
            conn.link.is_none() && !conn.inner.core.lock().is_closed()
        });
        if !wanted {
            if let Ok(t) = result {
                let _ = t.shutdown();
            }
            return;
        }
        if !result.is_ok_and(|stream| self.adopt(id, stream)) {
            let conn = self.conns.get(&id).expect("checked above");
            let at = conn.inner.core.lock().next_redial(Instant::now());
            self.timers.arm(at, id);
            return;
        }
        reactor_metrics().reconnects.inc();
        crate::client::note_reconnect();
        self.drain_outbound(id);
    }
}
