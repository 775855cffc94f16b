//! The shared client reactor: **one** epoll thread per process owns the
//! socket of every [`RemoteBroker`](crate::RemoteBroker) — reads,
//! writes, and reconnect timers for N connections cost one thread.
//!
//! ## Architecture
//!
//! The loop is the client-side mirror of the server's
//! [`event_loop`](crate::event_loop):
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
//!   buffer and ring the eventfd doorbell with the same false→true
//!   schedule-bit protocol the broker wakers use; the loop drains the
//!   buffer into the connection's non-blocking write path. One FIFO
//!   buffer per connection is the ordering contract.
//! * **Reads feed the frame dispatch.** Readable sockets are drained
//!   (bounded per turn for fairness), length-prefixed frames parsed and
//!   handed to [`ClientInner::on_frame`](crate::client) — RECEIPT/RECEIPTS
//!   expansion, EVENTS delivery, pipeline window release.
//! * **Reconnect rides the deadline heap.** A dead connection fails
//!   its in-flight waiters (loss ledger and all) together with their
//!   unwritten frames, then arms a backoff timer (20 ms doubling to a
//!   hard cap, default 2 s via `GINFLOW_RECONNECT_CAP_MS`, with
//!   equal-jitter so storms de-synchronise). Dial attempts run on a
//!   short-lived helper thread so a hanging TCP connect can never
//!   freeze the other connections; the result is posted back as a loop
//!   message. On success the re-subscribe batch is queued *before* any
//!   frames published during the outage — replayed history never
//!   interleaves behind fresh publishes.

use crate::client::ClientInner;
use crate::transport::Transport;
use crossbeam::channel::Sender;
use ginflow_mq::metrics::{self, Counter, Gauge, Histogram};
use ginflow_mq::wire::{Frame, MAX_FRAME};
use mio::{Events, Interest, Poll, Token, Waker};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::ErrorKind;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

const WAKER: Token = Token(0);

/// Timer-heap id that is never a connection: the write-stall scan.
const STALL_TOKEN: u64 = u64::MAX;

/// Bytes read per connection per readiness turn before yielding
/// (level-triggered epoll re-reports the remainder).
const READ_TURN_BYTES: usize = 1 << 20;

/// Scratch read chunk size.
const READ_CHUNK: usize = 64 * 1024;

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

/// A connection owing bytes that makes no write progress for this long
/// is dead — the non-blocking form of a socket write timeout, so a
/// blackholed daemon can never wedge the loop's memory behind one peer.
const WRITE_STALL: Duration = Duration::from_secs(10);

/// How often stalled-write candidates are scanned while any connection
/// owes bytes.
const STALL_SCAN: Duration = Duration::from_secs(2);

/// Reactor observability, in the process-global registry (surfaces
/// through STATS, `/metrics` and `RunReport` like every other family).
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

/// The loop's cross-thread doorbell (same sleeping-flag handshake as
/// the server's `LoopShared`): pushers enqueue, then kick the eventfd
/// only if the loop has declared itself parked; the loop declares
/// `sleeping` *before* its final queue check, so a push serialized
/// after that check always observes the flag and wakes.
struct ReactorShared {
    queue: Mutex<Vec<RMsg>>,
    sleeping: AtomicBool,
    waker: Waker,
    /// Registered [`ConnHandle`]s — the refcount the loop's exit
    /// decision reads. Bumped under the global registry lock on
    /// acquire, decremented on [`ConnHandle::close`].
    live: AtomicUsize,
}

impl ReactorShared {
    fn push(&self, msg: RMsg) {
        self.queue.lock().push(msg);
        if self.sleeping.load(Ordering::SeqCst) {
            let _ = self.waker.wake();
        }
    }
}

/// The process-global reactor slot: a `Weak` (so the loop can retire
/// itself once every connection is gone) plus the loop thread's
/// `JoinHandle`, joined by whoever observes the retirement — the last
/// closer or the next spawner — so "dropped at zero connections" is a
/// deterministic fact, not an eventual one (`/proc/self` thread
/// counts in tests and benches depend on it).
#[derive(Default)]
struct ReactorSlot {
    weak: Weak<ReactorShared>,
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
    shared: Arc<ReactorShared>,
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
                let waker = Waker::new(&poll, WAKER)?;
                let shared = Arc::new(ReactorShared {
                    queue: Mutex::new(Vec::new()),
                    sleeping: AtomicBool::new(false),
                    waker,
                    live: AtomicUsize::new(1),
                });
                let state = Reactor {
                    poll,
                    shared: shared.clone(),
                    conns: HashMap::new(),
                    timers: BinaryHeap::new(),
                    stall_scan_armed: false,
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
            .push(RMsg::Register(self.clone(), transport, inner));
    }

    /// Queue encoded frame bytes; follow with [`ConnHandle::kick`].
    pub(crate) fn append(&self, frames: &[u8]) {
        self.outbound.lock().extend_from_slice(frames);
    }

    /// Ring the doorbell for frames queued by [`ConnHandle::append`].
    pub(crate) fn kick(&self) {
        if !self.kicked.swap(true, Ordering::SeqCst) {
            self.shared.push(RMsg::Kick(self.id));
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
        self.shared.push(RMsg::BestEffort(self.id, buf));
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
        let (tx, rx) = crossbeam::channel::unbounded();
        self.shared.push(RMsg::Deregister(self.id, tx));
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

/// Loop-side per-connection state machine.
struct RConn {
    inner: Arc<ClientInner>,
    handle: Arc<ConnHandle>,
    /// `None` while disconnected (a reconnect timer or dial is
    /// pending).
    transport: Option<Box<dyn Transport>>,
    /// Received-but-unparsed bytes.
    in_buf: Vec<u8>,
    /// Encoded frames owed to the daemon, `out[out_pos..]` unsent.
    out: Vec<u8>,
    out_pos: usize,
    /// Whether the registration currently includes WRITABLE interest.
    want_write: bool,
    /// Last instant a flush made progress — the stall clock.
    last_progress: Instant,
    /// Next redial delay after a failed attempt.
    backoff: Duration,
    /// xorshift64 state for backoff jitter (equal-jitter spread).
    jitter: u64,
    /// A dial helper thread is in flight.
    dialing: bool,
}

impl RConn {
    fn out_pending(&self) -> usize {
        self.out.len() - self.out_pos
    }

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
    shared: Arc<ReactorShared>,
    conns: HashMap<u64, RConn>,
    /// Deadlines: `(when, conn id)`; [`STALL_TOKEN`] is the stall scan.
    timers: BinaryHeap<Reverse<(Instant, u64)>>,
    stall_scan_armed: bool,
    scratch: Vec<u8>,
}

impl Reactor {
    fn run(mut self) {
        let mut events = Events::with_capacity(256);
        let mut acks: Vec<Sender<()>> = Vec::new();
        loop {
            let msgs: Vec<RMsg> = std::mem::take(&mut *self.shared.queue.lock());
            for msg in msgs {
                self.handle_msg(msg, &mut acks);
            }
            self.fire_timers();
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
            self.shared.sleeping.store(true, Ordering::SeqCst);
            let timeout = if self.shared.queue.lock().is_empty() {
                self.next_timeout()
            } else {
                Some(Duration::ZERO)
            };
            let poll_result = self.poll.poll(&mut events, timeout);
            self.shared.sleeping.store(false, Ordering::SeqCst);
            reactor_metrics().wakeups.inc();
            if poll_result.is_err() {
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
                        if self.conns.contains_key(&id) && event.is_writable() {
                            self.write_ready(id);
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

    fn next_timeout(&self) -> Option<Duration> {
        self.timers
            .peek()
            .map(|Reverse((at, _))| at.saturating_duration_since(Instant::now()))
    }

    fn handle_msg(&mut self, msg: RMsg, acks: &mut Vec<Sender<()>>) {
        match msg {
            RMsg::Register(handle, transport, inner) => self.register(handle, transport, inner),
            RMsg::Deregister(id, ack) => {
                if let Some(conn) = self.conns.remove(&id) {
                    if let Some(t) = conn.transport {
                        reactor_metrics().connections.sub(1);
                        let _ = self.poll.deregister(t.raw_fd());
                        let _ = t.shutdown();
                    }
                }
                acks.push(ack); // sent after the exit decision
            }
            RMsg::Kick(id) => self.drain_outbound(id),
            RMsg::BestEffort(id, buf) => {
                if let Some(conn) = self.conns.get_mut(&id) {
                    if conn.transport.is_some() {
                        conn.out.extend_from_slice(&buf);
                        self.flush(id);
                    }
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
        let mut conn = RConn {
            inner,
            handle,
            transport: None,
            in_buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            want_write: false,
            last_progress: Instant::now(),
            backoff: RECONNECT_BASE,
            jitter: jitter_seed(),
            dialing: false,
        };
        let adopted = transport.set_nonblocking(true).is_ok()
            && self
                .poll
                .register(transport.raw_fd(), Token(id as usize), Interest::READABLE)
                .is_ok();
        if adopted {
            conn.transport = Some(transport);
            reactor_metrics().connections.add(1);
            self.conns.insert(id, conn);
            self.drain_outbound(id);
        } else {
            // Registration failed: treat as an instant connection loss
            // so the ordinary redial path takes over.
            let _ = transport.shutdown();
            self.conns.insert(id, conn);
            self.conn_lost(id);
        }
    }

    /// Move queued outbound frames onto the wire. While disconnected
    /// the frames stay in the handle's buffer — the reconnect path
    /// drains them *behind* the re-subscribe batch.
    fn drain_outbound(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.transport.is_none() {
            return;
        }
        let bytes = conn.handle.take_outbound();
        if !bytes.is_empty() {
            conn.out.extend_from_slice(&bytes);
        }
        if conn.out_pending() > 0 {
            self.flush(id);
        }
    }

    /// A connection is readable: pull bytes (bounded per turn), parse
    /// complete frames, dispatch through `ClientInner::on_frame`.
    fn read_ready(&mut self, id: u64) {
        let Some(mut conn) = self.conns.remove(&id) else {
            return;
        };
        let Some(transport) = conn.transport.as_mut() else {
            self.conns.insert(id, conn);
            return;
        };
        let mut alive = true;
        let mut turn = 0usize;
        while turn < READ_TURN_BYTES {
            match transport.read(&mut self.scratch) {
                Ok(0) => {
                    alive = false; // EOF
                    break;
                }
                Ok(n) => {
                    conn.in_buf.extend_from_slice(&self.scratch[..n]);
                    turn += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    alive = false;
                    break;
                }
            }
        }
        // Dispatch every complete frame read so far (even off a dying
        // socket: acks the daemon sent before the cut still release
        // their pipeline bytes).
        let mut frames = 0u64;
        let mut pos = 0usize;
        while conn.in_buf.len() - pos >= 4 {
            let len =
                u32::from_be_bytes(conn.in_buf[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            if len > MAX_FRAME {
                alive = false; // corrupt stream: drop and redial
                break;
            }
            if conn.in_buf.len() - pos - 4 < len {
                break; // frame incomplete; finish on a later turn
            }
            let body = &conn.in_buf[pos + 4..pos + 4 + len];
            let Ok(frame) = Frame::decode(body) else {
                alive = false;
                break;
            };
            pos += 4 + len;
            conn.inner.on_frame(frame);
            frames += 1;
        }
        if pos > 0 {
            conn.in_buf.drain(..pos);
        }
        if frames > 0 {
            reactor_metrics().frames_turn.observe(frames);
        }
        self.conns.insert(id, conn);
        if alive {
            self.flush(id);
        } else {
            self.conn_lost(id);
        }
    }

    fn write_ready(&mut self, id: u64) {
        self.flush(id);
    }

    /// Write as much owed output as the socket accepts; manage the
    /// WRITABLE interest and the stall clock.
    fn flush(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let Some(transport) = conn.transport.as_mut() else {
            return;
        };
        let mut dead = false;
        let mut progressed = false;
        while conn.out_pos < conn.out.len() {
            match transport.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        if dead {
            self.conn_lost(id);
            return;
        }
        if progressed {
            conn.last_progress = Instant::now();
        }
        if conn.out_pos == conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
        } else if conn.out_pos > READ_CHUNK {
            conn.out.drain(..conn.out_pos);
            conn.out_pos = 0;
        }
        let want_write = conn.out_pending() > 0;
        if want_write != conn.want_write {
            let interest = if want_write {
                Interest::READABLE | Interest::WRITABLE
            } else {
                Interest::READABLE
            };
            let fd = conn.transport.as_ref().expect("checked above").raw_fd();
            if self
                .poll
                .reregister(fd, Token(id as usize), interest)
                .is_err()
            {
                self.conn_lost(id);
                return;
            }
            self.conns.get_mut(&id).expect("conn present").want_write = want_write;
        }
        if want_write {
            self.arm_stall_scan();
        }
    }

    /// The socket died: fail in-flight waiters (pipelined publishes
    /// latch on the loss ledger, re-subscriptions in flight move to
    /// the orphan list) and arm an immediate redial.
    fn conn_lost(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if let Some(t) = conn.transport.take() {
            reactor_metrics().connections.sub(1);
            let _ = self.poll.deregister(t.raw_fd());
            let _ = t.shutdown();
        }
        // A partial frame must never prefix the fresh stream, and a
        // frame whose waiter fails just below must never reach it at
        // all: drop the whole out buffer here; `fail_pending` drops
        // what callers queued behind it.
        conn.in_buf.clear();
        conn.out.clear();
        conn.out_pos = 0;
        conn.want_write = false;
        conn.inner.fail_pending();
        if conn.inner.is_shutdown() {
            return; // Deregister will reap the slot
        }
        conn.backoff = RECONNECT_BASE;
        self.timers.push(Reverse((Instant::now(), id)));
    }

    fn fire_timers(&mut self) {
        let now = Instant::now();
        while let Some(Reverse((at, id))) = self.timers.peek().copied() {
            if at > now {
                break;
            }
            self.timers.pop();
            if id == STALL_TOKEN {
                self.stall_scan();
            } else {
                self.dial(id);
            }
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
        if conn.transport.is_some() || conn.dialing || conn.inner.is_shutdown() {
            return;
        }
        conn.dialing = true;
        let inner = conn.inner.clone();
        let shared = self.shared.clone();
        let spawned = std::thread::Builder::new()
            .name("gf-client-dial".into())
            .spawn(move || {
                let result = inner.dial();
                shared.push(RMsg::Dialed(id, result));
            })
            .is_ok();
        if !spawned {
            conn.dialing = false;
            let at = conn.next_redial();
            self.timers.push(Reverse((at, id)));
        }
    }

    /// A dial helper reported back.
    fn dialed(&mut self, id: u64, result: std::io::Result<Box<dyn Transport>>) {
        let Some(conn) = self.conns.get_mut(&id) else {
            if let Ok(t) = result {
                let _ = t.shutdown();
            }
            return;
        };
        conn.dialing = false;
        if conn.inner.is_shutdown() || conn.transport.is_some() {
            if let Ok(t) = result {
                let _ = t.shutdown();
            }
            return;
        }
        let stream = match result {
            Ok(stream) => stream,
            Err(_) => {
                let at = conn.next_redial();
                self.timers.push(Reverse((at, id)));
                return;
            }
        };
        let adopted = stream.set_nonblocking(true).is_ok()
            && self
                .poll
                .register(stream.raw_fd(), Token(id as usize), Interest::READABLE)
                .is_ok();
        if !adopted {
            let _ = stream.shutdown();
            let at = conn.next_redial();
            self.timers.push(Reverse((at, id)));
            return;
        }
        // Re-subscribes first: their frames go out ahead of anything
        // published during the outage, so replayed history cannot
        // interleave behind fresh publishes.
        let batch = conn.inner.resubscribe_batch();
        conn.out.extend_from_slice(&batch);
        conn.transport = Some(stream);
        conn.want_write = false;
        conn.last_progress = Instant::now();
        conn.backoff = RECONNECT_BASE;
        let m = reactor_metrics();
        m.connections.add(1);
        m.reconnects.inc();
        crate::client::note_reconnect();
        self.drain_outbound(id);
    }

    fn arm_stall_scan(&mut self) {
        if !self.stall_scan_armed {
            self.stall_scan_armed = true;
            self.timers
                .push(Reverse((Instant::now() + STALL_SCAN, STALL_TOKEN)));
        }
    }

    fn stall_scan(&mut self) {
        self.stall_scan_armed = false;
        let stalled: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.transport.is_some()
                    && c.out_pending() > 0
                    && c.last_progress.elapsed() >= WRITE_STALL
            })
            .map(|(id, _)| *id)
            .collect();
        for id in stalled {
            self.conn_lost(id);
        }
        if self
            .conns
            .values()
            .any(|c| c.transport.is_some() && c.out_pending() > 0)
        {
            self.arm_stall_scan();
        }
    }
}
