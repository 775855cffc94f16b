//! The shared client reactor: **one** epoll thread per process owns the
//! socket of every [`RemoteBroker`](crate::RemoteBroker) — reads,
//! writes, and reconnect timers for N connections cost one thread.
//! Connection bytes, the doorbell and the deadline heap are the
//! [`link`](crate::link) core it shares with the daemon's
//! [`event_loop`](crate::event_loop); this module is the client's side:
//!
//! * **Lazily spawned, refcounted, dropped at zero.** The first
//!   connection spawns the `gf-client-loop` thread; a process-global
//!   `Weak` hands the same loop to every later connection. When the
//!   last connection deregisters, the loop clears the global handle
//!   (under the same lock registration takes, so the two can never miss
//!   each other) and exits — a process that stops using remote brokers
//!   returns to zero extra threads.
//! * **Publishers never touch the socket.** Each connection owns a
//!   [`ConnHandle`]: callers append encoded frames to its outbound
//!   buffer and ring the doorbell on the false→true transition of its
//!   schedule bit; the loop moves the buffer onto the connection's
//!   link. One FIFO buffer per connection is the ordering contract, and
//!   every server frame goes to
//!   [`ClientInner::on_frame`](crate::client).
//! * **Reconnect rides the deadline heap.** A dead connection drops its
//!   link, fails its in-flight waiters (loss ledger and all) together
//!   with their unwritten frames, then arms a backoff timer (20 ms
//!   doubling to a hard cap, default 2 s via
//!   `GINFLOW_RECONNECT_CAP_MS`, with equal-jitter so storms
//!   de-synchronise). Dial attempts run on a short-lived helper thread
//!   so a hanging TCP connect can never freeze the other connections.
//!   On success the re-subscribe batch is queued *before* any frames
//!   published during the outage — replayed history never interleaves
//!   behind fresh publishes.

use crate::client::ClientInner;
use crate::link::{Deadlines, Doorbell, Link, READ_CHUNK};
use crate::transport::Transport;
use ginflow_mq::metrics::{self, Counter, Gauge, Histogram};
use mio::{Events, Interest, Poll, Token};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

const WAKER: Token = Token(0);

/// Reconnect backoff ladder start: the first redial is immediate, each
/// failure doubles the ladder up to [`reconnect_cap`].
const RECONNECT_BASE: Duration = Duration::from_millis(20);

/// The hard cap on reconnect backoff: the ladder never sleeps longer
/// than this between redials, jitter included. Defaults to 2 s;
/// override with `GINFLOW_RECONNECT_CAP_MS` (read once per process).
fn reconnect_cap() -> Duration {
    static CAP_MS: OnceLock<u64> = OnceLock::new();
    Duration::from_millis(*CAP_MS.get_or_init(|| {
        std::env::var("GINFLOW_RECONNECT_CAP_MS")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .filter(|ms| *ms > 0)
            .unwrap_or(2_000)
    }))
}

/// A per-ladder-instance jitter seed (hashmap `RandomState` is the
/// stdlib's per-process entropy — no clock involved).
fn jitter_seed() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    std::collections::hash_map::RandomState::new()
        .build_hasher()
        .finish()
        | 1
}

/// Equal-jitter backoff: sleep `ladder/2 + uniform(0..=ladder/2)`,
/// clamped to [`reconnect_cap`]. The spread de-synchronises reconnect
/// storms — N clients severed by one daemon restart redial spread over
/// half the ladder instead of in lockstep — while keeping the sleep
/// within 2× of the deterministic ladder. `state` is a caller-held
/// xorshift64 register (seed with [`jitter_seed`]).
fn jittered_backoff(ladder: Duration, state: &mut u64) -> Duration {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    let d = ladder.min(reconnect_cap());
    let half_us = d.as_micros() as u64 / 2;
    (d / 2 + Duration::from_micros(x % (half_us + 1))).min(reconnect_cap())
}

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
    Register(Arc<ConnHandle>, Box<dyn Transport>, Arc<ClientInner>),
    /// Tear a connection down; ack when its socket is closed.
    Deregister(u64, Sender<()>),
    /// The connection's outbound buffer has frames queued.
    Kick(u64),
    /// Write `bytes` only if the connection is currently up: dropped,
    /// not queued, while disconnected — a stale-id frame must never
    /// ride over to a fresh connection.
    BestEffort(u64, Vec<u8>),
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

/// One connection's seam between caller threads and the loop: the
/// outbound frame buffer plus the doorbell state.
pub(crate) struct ConnHandle {
    id: u64,
    shared: Arc<ReactorHandle>,
    /// Encoded frames awaiting the loop, appended whole under the lock
    /// — the single FIFO that preserves cross-thread frame ordering.
    outbound: Mutex<Vec<u8>>,
    /// false→true schedule bit: only the transition pushes a Kick, so
    /// a publish burst costs one message however many frames it queues.
    kicked: AtomicBool,
    closed: AtomicBool,
}

impl ConnHandle {
    /// Join (or spawn) the process reactor and claim a connection slot.
    pub(crate) fn acquire() -> std::io::Result<Arc<ConnHandle>> {
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
        Ok(Arc::new(ConnHandle {
            id: NEXT_ID.fetch_add(1, Ordering::SeqCst),
            shared,
            outbound: Mutex::new(Vec::new()),
            kicked: AtomicBool::new(false),
            closed: AtomicBool::new(false),
        }))
    }

    /// Hand the loop a freshly dialed transport to own.
    pub(crate) fn register(
        self: &Arc<ConnHandle>,
        transport: Box<dyn Transport>,
        inner: Arc<ClientInner>,
    ) {
        self.shared
            .bell
            .ring(RMsg::Register(self.clone(), transport, inner));
    }

    /// Queue encoded frame bytes; follow with [`ConnHandle::kick`].
    pub(crate) fn append(&self, frames: &[u8]) {
        self.outbound.lock().extend_from_slice(frames);
    }

    /// Ring the doorbell for frames queued by [`ConnHandle::append`].
    pub(crate) fn kick(&self) {
        if !self.kicked.swap(true, Ordering::SeqCst) {
            self.shared.bell.ring(RMsg::Kick(self.id));
        }
    }

    /// Drop every queued frame the loop has not taken yet — their
    /// waiters are being failed (see `ClientInner::fail_pending`).
    pub(crate) fn discard_outbound(&self) {
        self.outbound.lock().clear();
    }

    /// Send `buf` only if the connection is currently up; silently
    /// dropped otherwise (see [`RMsg::BestEffort`]).
    pub(crate) fn best_effort(&self, buf: Vec<u8>) {
        self.shared.bell.ring(RMsg::BestEffort(self.id, buf));
    }

    /// Deregister from the loop and wait for the socket to close; if
    /// this was the last connection, also join the retiring loop
    /// thread (the ack is sent *after* the loop's exit decision, so
    /// observing it tells us which case we are in). Idempotent.
    pub(crate) fn close(&self) {
        if self.closed.swap(true, Ordering::SeqCst) {
            return;
        }
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

    /// The loop takes everything queued, resetting the doorbell under
    /// the same lock appends take — a frame is either in the returned
    /// batch or guaranteed a fresh Kick.
    fn take_outbound(&self) -> Vec<u8> {
        let mut buf = self.outbound.lock();
        self.kicked.store(false, Ordering::SeqCst);
        std::mem::take(&mut *buf)
    }
}

/// Loop-side per-connection state.
struct RConn {
    inner: Arc<ClientInner>,
    handle: Arc<ConnHandle>,
    /// The live connection; `None` while disconnected (a reconnect
    /// timer or dial is pending).
    link: Option<Link>,
    /// Next redial delay after a failed attempt.
    backoff: Duration,
    /// xorshift64 state for backoff jitter (equal-jitter spread).
    jitter: u64,
    /// A dial helper thread is in flight.
    dialing: bool,
}

impl RConn {
    /// When to redial after a failed attempt: one jittered step of the
    /// backoff ladder, which then doubles up to the cap.
    fn next_redial(&mut self) -> Instant {
        let at = Instant::now() + jittered_backoff(self.backoff, &mut self.jitter);
        self.backoff = (self.backoff * 2).min(reconnect_cap());
        at
    }
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
            RMsg::Register(handle, transport, inner) => self.register(handle, transport, inner),
            RMsg::Deregister(id, ack) => {
                self.drop_link(id);
                self.conns.remove(&id);
                acks.push(ack); // sent after the exit decision
            }
            RMsg::Kick(id) => self.drain_outbound(id),
            RMsg::BestEffort(id, buf) => {
                if let Some(link) = self.conns.get_mut(&id).and_then(|c| c.link.as_mut()) {
                    link.out.push(&buf);
                    self.flush(id);
                }
            }
            RMsg::Dialed(id, result) => self.dialed(id, result),
        }
    }

    fn register(
        &mut self,
        handle: Arc<ConnHandle>,
        transport: Box<dyn Transport>,
        inner: Arc<ClientInner>,
    ) {
        let id = handle.id;
        let conn = RConn {
            inner,
            handle,
            link: None,
            backoff: RECONNECT_BASE,
            jitter: jitter_seed(),
            dialing: false,
        };
        self.conns.insert(id, conn);
        if self.adopt(id, transport) {
            self.drain_outbound(id);
        } else {
            // Registration failed: treat as an instant connection loss
            // so the ordinary redial path takes over.
            self.conn_lost(id);
        }
    }

    /// Make `transport` connection `id`'s link. `false`: the socket
    /// could not be registered and is closed.
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

    /// Move queued outbound frames onto the wire. While disconnected
    /// the frames stay in the handle's buffer — the reconnect path
    /// drains them *behind* the re-subscribe batch.
    fn drain_outbound(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let Some(link) = conn.link.as_mut() else {
            return;
        };
        link.out.push(&conn.handle.take_outbound());
        if link.out.pending() > 0 {
            self.flush(id);
        }
    }

    /// A connection is readable: dispatch the server frames of one read
    /// turn through `ClientInner::on_frame`.
    fn read_ready(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let Some(link) = conn.link.as_mut() else {
            return;
        };
        let turn = link.read_turn(&mut self.scratch, |_, frame| {
            conn.inner.on_frame(frame);
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

    /// The socket died: fail in-flight waiters (pipelined publishes
    /// latch on the loss ledger, re-subscriptions in flight move to
    /// the orphan list) and arm an immediate redial.
    fn conn_lost(&mut self, id: u64) {
        // A frame whose waiter fails just below must never reach the
        // next connection: what the link still owed goes with it here;
        // `fail_pending` drops what callers queued behind it.
        self.drop_link(id);
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        conn.inner.fail_pending();
        if conn.inner.is_shutdown() {
            return; // Deregister will reap the slot
        }
        conn.backoff = RECONNECT_BASE;
        self.timers.arm(Instant::now(), id);
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
        if conn.link.is_some() || conn.dialing || conn.inner.is_shutdown() {
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
            let at = conn.next_redial();
            self.timers.arm(at, id);
        }
    }

    /// A dial helper reported back.
    fn dialed(&mut self, id: u64, result: std::io::Result<Box<dyn Transport>>) {
        let wanted = self.conns.get_mut(&id).is_some_and(|conn| {
            conn.dialing = false;
            !conn.inner.is_shutdown() && conn.link.is_none()
        });
        if !wanted {
            if let Ok(t) = result {
                let _ = t.shutdown();
            }
            return;
        }
        let connected = result.is_ok_and(|stream| self.adopt(id, stream));
        let conn = self.conns.get_mut(&id).expect("checked above");
        if !connected {
            let at = conn.next_redial();
            self.timers.arm(at, id);
            return;
        }
        // Re-subscribes first: their frames go out ahead of anything
        // published during the outage, so replayed history cannot
        // interleave behind fresh publishes.
        let batch = conn.inner.resubscribe_batch();
        conn.link.as_mut().expect("just adopted").out.push(&batch);
        conn.backoff = RECONNECT_BASE;
        reactor_metrics().reconnects.inc();
        crate::client::note_reconnect();
        self.drain_outbound(id);
    }
}
