//! The readiness-driven daemon: **one** event-loop thread serves
//! every connection, however many there are — accept, request parsing,
//! reply batching and subscription fan-out all run on a single epoll
//! loop (the [`mio`] shim), so the daemon's thread count is independent
//! of its client count and 10k+ idle connections cost only their fds.
//!
//! ## Architecture
//!
//! * **Tokens.** `0` = listener, `1` = the cross-thread [`mio::Waker`],
//!   `2..` = connections (monotonically assigned, never reused).
//! * **Per-connection buffers.** Each connection owns an `in_buf`
//!   (bytes read, parsed frame-by-frame as length prefixes complete)
//!   and an `out` buffer with a write cursor. Replies and events are
//!   appended to `out` and flushed opportunistically; when the socket
//!   would block, the loop registers `WRITABLE` interest and resumes on
//!   readiness — no thread ever parks on a socket.
//! * **Wakeups.** Broker subscriptions route into the loop through the
//!   same false→true schedule-bit protocol as the in-process scheduler:
//!   the subscription waker enqueues a drain message and (only when the
//!   loop is parked in `epoll_wait`) kicks the eventfd waker.
//! * **Receipt-range acks.** Consecutive publish receipts whose seqs
//!   and offsets form arithmetic runs on one partition coalesce into a
//!   single `RECEIPTS` frame (the request-direction mirror of the
//!   EVENTS push batching) — a pipelined storm of N publishes is acked
//!   with one frame, not N.
//! * **Backpressure.** A connection whose `out` buffer passes
//!   [`OUT_HIGH_WATER`] parks its subscriptions (their schedule bit
//!   stays set, so wakers no-op) until the buffer drains below
//!   [`OUT_LOW_WATER`]; a connection making no write progress for
//!   [`WRITE_STALL`] is declared dead and closed.
//! * **Timer wheel.** A deadline heap drives the retention sweep and
//!   stall scans; `epoll_wait` sleeps exactly until the next deadline
//!   (or forever when there is none), so an idle daemon makes zero
//!   syscalls between deadlines.

use crate::metrics::{daemon_metrics, topic_shard, TopicMetrics};
use crate::registry::RunRegistry;
use crate::server::{error_frame, event_batch, stats_snapshot, EVENT_BATCH_BYTES};
use crate::transport::Transport;
use crossbeam::channel::Sender;
use ginflow_mq::wire::{Frame, MAX_FRAME, MAX_RECEIPT_RUN};
use ginflow_mq::{Broker, Message, Subscription};
use mio::{Events, Interest, Poll, Token, Waker};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const LISTENER: Token = Token(0);
const WAKER: Token = Token(1);
const FIRST_CONN: usize = 2;

/// Out-buffer high water (bytes): beyond this a connection's
/// subscriptions park instead of piling more events onto a peer that
/// isn't reading.
const OUT_HIGH_WATER: usize = 4 << 20;

/// Out-buffer low water: parked subscriptions resume once a flush gets
/// the buffer back under this.
const OUT_LOW_WATER: usize = 1 << 20;

/// A connection owing bytes that makes no write progress for this long
/// is dead (full receive buffer, frozen process) — the non-blocking
/// form of a socket write timeout.
const WRITE_STALL: Duration = Duration::from_secs(10);

/// How often stalled-write candidates are scanned while any connection
/// owes bytes. No connection owing bytes ⇒ no scan timer at all.
const STALL_SCAN: Duration = Duration::from_secs(2);

/// Bytes read per connection per readiness turn before yielding to the
/// other ready connections (level-triggered epoll re-reports the rest).
const READ_TURN_BYTES: usize = 1 << 20;

/// Scratch read chunk size.
const READ_CHUNK: usize = 64 * 1024;

/// What the loop can be asked to do from other threads. Pushed through
/// [`LoopShared::push`]; the eventfd waker interrupts `epoll_wait` only
/// when the loop is actually parked there.
enum LoopMsg {
    /// A subscription has deliveries queued (its schedule bit is set).
    Drain(Arc<ServerSub>),
    /// Adopt an in-process socketpair half as a connection.
    Inject(Box<dyn Transport>),
    /// Sever every live connection (listener stays up); ack when done.
    DropConns(Sender<()>),
}

/// The loop's cross-thread doorbell: a message queue plus the
/// sleeping-flag handshake that makes wakeups lost-free *and* free when
/// the loop is already awake. Pushers enqueue, then kick the eventfd
/// only if the loop has declared itself parked; the loop declares
/// `sleeping` *before* its final queue check, so a push serialized
/// after that check always observes the flag and wakes.
pub(crate) struct LoopShared {
    queue: Mutex<Vec<LoopMsg>>,
    sleeping: AtomicBool,
    waker: Waker,
    shutdown: AtomicBool,
}

impl LoopShared {
    fn push(&self, msg: LoopMsg) {
        self.queue.lock().push(msg);
        if self.sleeping.load(Ordering::SeqCst) {
            let _ = self.waker.wake();
        }
    }

    /// Hand the loop one half of an in-process socketpair to serve as a
    /// regular connection; the returned half is the client's.
    pub(crate) fn connect_in_process(&self) -> std::io::Result<Box<dyn Transport>> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(std::io::Error::other("server stopped"));
        }
        let (client_end, server_end) = std::os::unix::net::UnixStream::pair()?;
        server_end.set_nonblocking(true)?;
        let _ = client_end.set_write_timeout(Some(Duration::from_secs(10)));
        self.push(LoopMsg::Inject(Box::new(server_end)));
        Ok(Box::new(client_end))
    }

    /// Sever every live connection (the listener stays up) and wait
    /// until the loop has done so.
    pub(crate) fn drop_connections(&self) {
        if self.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let (tx, rx) = crossbeam::channel::unbounded();
        self.push(LoopMsg::DropConns(tx));
        let _ = rx.recv_timeout(Duration::from_secs(10));
    }

    /// Tell the loop to sever every connection and exit; the caller
    /// joins the thread [`spawn`] returned.
    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.waker.wake();
    }
}

/// One live subscription of one connection.
struct ServerSub {
    /// Token of the owning connection.
    conn: usize,
    /// The wire-visible subscription id (per-connection counter).
    id: u64,
    sub: Subscription,
    scheduled: AtomicBool,
}

/// A run of consecutive publish acks not yet encoded: seqs
/// `seq_first..seq_first+count` whose receipts landed on `partition` at
/// offsets `offset_first..offset_first+count`. Only *actual* arithmetic
/// runs coalesce — any other receipt, any interleaved request, or the
/// end of the read turn flushes the run — so expansion on the client is
/// exact whatever mix of topics the publishes hit.
struct ReceiptRun {
    seq_first: u64,
    count: u32,
    partition: u32,
    offset_first: u64,
}

/// Per-connection state machine.
struct Conn {
    transport: Box<dyn Transport>,
    /// Received-but-unparsed bytes; a frame is parsed out as soon as
    /// its length prefix completes.
    in_buf: Vec<u8>,
    /// Encoded frames owed to the peer, `out[out_pos..]` still unsent.
    out: Vec<u8>,
    out_pos: usize,
    /// Whether the registration currently includes WRITABLE interest.
    want_write: bool,
    /// Last instant a flush made progress — the stall clock.
    last_progress: Instant,
    subs: HashMap<u64, Arc<ServerSub>>,
    next_sub: u64,
    /// Subscriptions parked on backpressure, schedule bit still set.
    parked: Vec<Arc<ServerSub>>,
    /// Pending receipt-range coalescing (see [`ReceiptRun`]).
    run: Option<ReceiptRun>,
    /// Topics already reported to the run registry, with their cached
    /// metric handles — a repeat publish touches no registry or family
    /// lock.
    seen_topics: HashMap<String, TopicMetrics>,
}

impl Conn {
    fn new(transport: Box<dyn Transport>) -> Conn {
        Conn {
            transport,
            in_buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            want_write: false,
            last_progress: Instant::now(),
            subs: HashMap::new(),
            next_sub: 1,
            parked: Vec::new(),
            run: None,
            seen_topics: HashMap::new(),
        }
    }

    fn out_pending(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

/// First-touch accounting for `topic` on this connection: report it to
/// the run registry and resolve its metric handles; thereafter the
/// cached entry is returned without touching either.
/// Per-read-turn metric accumulator: frame and publish counts batch in
/// plain locals while a turn parses its buffered frames, then flush to
/// the registry in one `add` per counter — a pipelined storm pays a
/// handful of relaxed RMWs per socket read instead of five per
/// message. Consecutive publishes to one topic (the storm shape)
/// coalesce under `pub_topic`; a topic change flushes the pending run.
#[derive(Default)]
struct TurnCounts {
    frames: u64,
    pub_topic: Option<String>,
    pub_msgs: u64,
    pub_bytes: u64,
}

impl TurnCounts {
    /// Flush pending publish counts through the topic's cached handles
    /// (`conn.seen_topics` is populated before anything accumulates).
    fn flush_publishes(&mut self, conn: &Conn) {
        let Some(topic) = self.pub_topic.take() else {
            return;
        };
        let tm = &conn.seen_topics[&topic];
        let m = daemon_metrics();
        m.shard_publishes.shard(tm.shard).add(self.pub_msgs);
        m.shard_publish_bytes.shard(tm.shard).add(self.pub_bytes);
        if let Some((run_msgs, run_bytes)) = &tm.run_publish {
            run_msgs.add(self.pub_msgs);
            run_bytes.add(self.pub_bytes);
        }
        self.pub_msgs = 0;
        self.pub_bytes = 0;
    }

    fn flush(&mut self, conn: &Conn) {
        self.flush_publishes(conn);
        if self.frames > 0 {
            daemon_metrics().frames.add(self.frames);
            self.frames = 0;
        }
    }
}

fn observe_topic<'a>(registry: &RunRegistry, conn: &'a mut Conn, topic: &str) -> &'a TopicMetrics {
    if !conn.seen_topics.contains_key(topic) {
        registry.observe(topic);
        conn.seen_topics
            .insert(topic.to_owned(), TopicMetrics::resolve(topic));
    }
    &conn.seen_topics[topic]
}

/// Deadlines on the timer wheel.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum TimerKind {
    /// Reclaim completed runs older than the retention window.
    RetentionSweep,
    /// Check write-stalled connections.
    StallScan,
}

/// Bind `addr` and start the loop thread serving `broker`. Returns the
/// bound address, the loop's doorbell and the thread to join after
/// [`LoopShared::request_shutdown`].
pub(crate) fn spawn(
    addr: &str,
    broker: Arc<dyn Broker>,
    registry: Arc<RunRegistry>,
    retention: Option<Duration>,
) -> std::io::Result<(SocketAddr, Arc<LoopShared>, JoinHandle<()>)> {
    let listener = crate::listen::bind_reuse(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let poll = Poll::new()?;
    poll.register(listener.as_raw_fd(), LISTENER, Interest::READABLE)?;
    let waker = Waker::new(&poll, WAKER)?;
    let shared = Arc::new(LoopShared {
        queue: Mutex::new(Vec::new()),
        sleeping: AtomicBool::new(false),
        waker,
        shutdown: AtomicBool::new(false),
    });
    let state = LoopState {
        poll,
        listener,
        broker,
        registry,
        shared: shared.clone(),
        retention,
        conns: HashMap::new(),
        next_token: FIRST_CONN,
        timers: BinaryHeap::new(),
        stall_scan_armed: false,
        scratch: vec![0u8; READ_CHUNK],
    };
    let thread = std::thread::Builder::new()
        .name("gf-net-loop".into())
        .spawn(move || state.run())?;
    Ok((local, shared, thread))
}

/// Everything the loop thread owns.
struct LoopState {
    poll: Poll,
    listener: TcpListener,
    broker: Arc<dyn Broker>,
    registry: Arc<RunRegistry>,
    shared: Arc<LoopShared>,
    retention: Option<Duration>,
    conns: HashMap<usize, Conn>,
    next_token: usize,
    timers: BinaryHeap<Reverse<(Instant, TimerKind)>>,
    stall_scan_armed: bool,
    scratch: Vec<u8>,
}

impl LoopState {
    fn run(mut self) {
        let mut events = Events::with_capacity(1024);
        loop {
            // 1. Cross-thread work first: drains, injections, commands.
            let msgs: Vec<LoopMsg> = std::mem::take(&mut *self.shared.queue.lock());
            for msg in msgs {
                match msg {
                    LoopMsg::Drain(entry) => self.handle_drain(entry),
                    LoopMsg::Inject(transport) => self.adopt(transport),
                    LoopMsg::DropConns(ack) => {
                        let tokens: Vec<usize> = self.conns.keys().copied().collect();
                        for token in tokens {
                            self.close_conn(token);
                        }
                        let _ = ack.send(());
                    }
                }
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // 2. Fire due timers.
            self.fire_timers();
            // 3. Park — or poll at zero if drains queued up meanwhile.
            //    `sleeping` goes up before the final queue check, so a
            //    push serialized after that check sees it and wakes the
            //    eventfd; one serialized before is caught by the check.
            self.shared.sleeping.store(true, Ordering::SeqCst);
            let timeout = if self.shared.queue.lock().is_empty() {
                self.next_timeout()
            } else {
                Some(Duration::ZERO)
            };
            let poll_result = self.poll.poll(&mut events, timeout);
            self.shared.sleeping.store(false, Ordering::SeqCst);
            if poll_result.is_err() {
                continue;
            }
            // 4. Socket readiness.
            for event in events.iter() {
                match event.token() {
                    LISTENER => self.accept_ready(),
                    WAKER => {} // queue handled at the top of the loop
                    Token(token) => {
                        if event.is_readable() || event.is_closed() {
                            self.read_ready(token);
                        }
                        if self.conns.contains_key(&token) && event.is_writable() {
                            self.write_ready(token);
                        }
                    }
                }
            }
        }
        // Teardown: sever every connection so clients see EOF.
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
    }

    /// The next timer deadline as an `epoll_wait` timeout; `None` — an
    /// idle daemon — sleeps forever (zero syscalls until I/O or wake).
    fn next_timeout(&self) -> Option<Duration> {
        self.timers
            .peek()
            .map(|Reverse((at, _))| at.saturating_duration_since(Instant::now()))
    }

    fn arm_timer(&mut self, at: Instant, kind: TimerKind) {
        self.timers.push(Reverse((at, kind)));
    }

    fn fire_timers(&mut self) {
        let now = Instant::now();
        while let Some(Reverse((at, kind))) = self.timers.peek().copied() {
            if at > now {
                break;
            }
            self.timers.pop();
            match kind {
                TimerKind::RetentionSweep => {
                    if let Some(window) = self.retention {
                        self.registry.gc(window);
                        // Sleep exactly until the next completed run
                        // becomes eligible — nothing closed, no timer.
                        if let Some(next) = self.registry.next_gc_deadline(window) {
                            self.arm_timer(next.max(now), TimerKind::RetentionSweep);
                        }
                    }
                }
                TimerKind::StallScan => {
                    self.stall_scan_armed = false;
                    let stalled: Vec<usize> = self
                        .conns
                        .iter()
                        .filter(|(_, c)| {
                            c.out_pending() > 0 && c.last_progress.elapsed() >= WRITE_STALL
                        })
                        .map(|(t, _)| *t)
                        .collect();
                    for token in stalled {
                        daemon_metrics().stall_evictions.inc();
                        self.close_conn(token);
                    }
                    if self.conns.values().any(|c| c.out_pending() > 0) {
                        self.arm_stall_scan();
                    }
                }
            }
        }
    }

    fn arm_stall_scan(&mut self) {
        if !self.stall_scan_armed {
            self.stall_scan_armed = true;
            self.arm_timer(Instant::now() + STALL_SCAN, TimerKind::StallScan);
        }
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
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
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
        self.conns.insert(token, Conn::new(transport));
    }

    fn close_conn(&mut self, token: usize) {
        if let Some(conn) = self.conns.remove(&token) {
            daemon_metrics().connections.sub(1);
            let _ = self.poll.deregister(conn.transport.raw_fd());
            let _ = conn.transport.shutdown();
            // Dropping `conn` drops its subscriptions (parked ones
            // included): the broker prunes their handles, and any
            // drain message still queued no-ops on the missing token.
        }
    }

    /// A connection is readable: pull bytes, parse complete frames,
    /// dispatch, flush what the dispatches produced. Processing is
    /// capped per turn; level-triggered epoll re-reports the remainder
    /// so one firehose client cannot starve the rest.
    fn read_ready(&mut self, token: usize) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let mut alive = true;
        let mut turn = 0usize;
        while turn < READ_TURN_BYTES {
            match conn.transport.read(&mut self.scratch) {
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
        // Parse and dispatch every complete frame read so far (even
        // when the peer already hung up: pipelined publishes it sent
        // before closing are applied, matching the at-most-once-on-
        // outage contract the client documents).
        let mut counts = TurnCounts::default();
        let mut pos = 0usize;
        while conn.in_buf.len() - pos >= 4 {
            let len =
                u32::from_be_bytes(conn.in_buf[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            if len > MAX_FRAME {
                alive = false; // corrupt or hostile: hang up
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
            if !self.dispatch(token, &mut conn, frame, &mut counts) {
                alive = false;
                break;
            }
        }
        counts.flush(&conn);
        if pos > 0 {
            conn.in_buf.drain(..pos);
        }
        // End of turn: any receipt run still open goes out now — a
        // blocking publisher is waiting on it.
        if flush_receipt_run(&mut conn).is_err() {
            alive = false;
        }
        if alive {
            self.conns.insert(token, conn);
            self.flush(token);
        } else {
            self.conns.insert(token, conn);
            self.close_conn(token);
        }
    }

    /// Handle one request frame; `false` ends the connection.
    fn dispatch(
        &mut self,
        token: usize,
        conn: &mut Conn,
        frame: Frame,
        counts: &mut TurnCounts,
    ) -> bool {
        counts.frames += 1;
        match frame {
            Frame::Publish {
                seq,
                topic,
                key,
                payload,
            } => {
                let bytes = payload.len() as u64;
                observe_topic(&self.registry, conn, &topic);
                if counts.pub_topic.as_deref() != Some(topic.as_str()) {
                    counts.flush_publishes(conn);
                    counts.pub_topic = Some(topic.clone());
                }
                counts.pub_msgs += 1;
                counts.pub_bytes += bytes;
                match self.broker.publish(&topic, key, payload) {
                    Ok(receipt) => {
                        add_receipt(conn, seq, receipt.partition, receipt.offset).is_ok()
                    }
                    Err(e) => push_reply(conn, &error_frame(seq, e)).is_ok(),
                }
            }
            Frame::Subscribe { seq, topic, mode } => {
                let tm = observe_topic(&self.registry, conn, &topic);
                daemon_metrics().shard_subscribes.shard(tm.shard).inc();
                // Sample the resume watermark *before* attaching: a
                // message published after this point either replays on
                // resume (offset >= watermark) or arrives live — never
                // both dropped. Sampling after attach could count a
                // live-delivered message into the watermark and make
                // the client discard it as a replay duplicate. A single
                // offset cannot describe a multi-partition position
                // (retained() sums partitions), so those topics get the
                // no-watermark sentinel instead of a wrong number.
                let resume = if self.broker.persistent() && self.broker.partitions(&topic) <= 1 {
                    self.broker.retained(&topic)
                } else {
                    ginflow_mq::wire::NO_RESUME
                };
                match self.broker.subscribe(&topic, mode) {
                    Ok(sub) => {
                        // Fold this subscription's drop-oldest counter
                        // into its run's lag gauge at snapshot time.
                        self.registry.attach_lag_probe(&topic, sub.lag_probe());
                        let id = conn.next_sub;
                        conn.next_sub += 1;
                        let entry = Arc::new(ServerSub {
                            conn: token,
                            id,
                            sub,
                            scheduled: AtomicBool::new(false),
                        });
                        conn.subs.insert(id, entry.clone());
                        // The ack is appended to `out` before the waker
                        // is armed, and events travel through the same
                        // FIFO buffer — the client always learns the
                        // sub id before its first EVENT.
                        let ack = Frame::Subscribed {
                            seq,
                            sub: id,
                            resume,
                        };
                        if push_reply(conn, &ack).is_err() {
                            return false;
                        }
                        let weak: Weak<ServerSub> = Arc::downgrade(&entry);
                        let shared = self.shared.clone();
                        entry.sub.set_waker(move || {
                            if let Some(entry) = weak.upgrade() {
                                if !entry.scheduled.swap(true, Ordering::SeqCst) {
                                    shared.push(LoopMsg::Drain(entry));
                                }
                            }
                        });
                        true
                    }
                    Err(e) => push_reply(conn, &error_frame(seq, e)).is_ok(),
                }
            }
            Frame::Unsubscribe { sub, .. } => {
                conn.subs.remove(&sub);
                conn.parked.retain(|p| p.id != sub);
                true
            }
            Frame::Fetch {
                seq,
                topic,
                partition,
                from,
                max,
            } => {
                daemon_metrics()
                    .shard_fetches
                    .shard(topic_shard(&topic))
                    .inc();
                let reply = match self.broker.fetch(&topic, partition, from, max as usize) {
                    Ok(messages) => Frame::Messages { seq, messages },
                    Err(e) => error_frame(seq, e),
                };
                push_reply(conn, &reply).is_ok()
            }
            Frame::Info { seq, topic } => push_reply(
                conn,
                &Frame::InfoReply {
                    seq,
                    persistent: self.broker.persistent(),
                    partitions: self.broker.partitions(&topic),
                    retained: self.broker.retained(&topic),
                },
            )
            .is_ok(),
            Frame::RunList { seq } => push_reply(
                conn,
                &Frame::RunListReply {
                    seq,
                    runs: self.registry.list(),
                },
            )
            .is_ok(),
            Frame::RunClose { seq, run } => {
                let known = self.registry.close(&run);
                // A freshly closed run is what the retention sweep
                // waits on: arm its deadline on the timer wheel.
                if known {
                    if let Some(window) = self.retention {
                        self.arm_timer(Instant::now() + window, TimerKind::RetentionSweep);
                    }
                }
                push_reply(
                    conn,
                    &Frame::RunGcReply {
                        seq,
                        runs: u32::from(known),
                        topics: 0,
                    },
                )
                .is_ok()
            }
            Frame::RunGc { seq } => {
                let (runs, topics) = self.registry.gc(Duration::ZERO);
                push_reply(conn, &Frame::RunGcReply { seq, runs, topics }).is_ok()
            }
            Frame::Stats { seq } => push_reply(
                conn,
                &Frame::StatsReply {
                    seq,
                    stats: stats_snapshot(&self.registry),
                },
            )
            .is_ok(),
            // A client speaking server frames is broken: hang up.
            Frame::Receipt { .. }
            | Frame::Receipts { .. }
            | Frame::Subscribed { .. }
            | Frame::Messages { .. }
            | Frame::InfoReply { .. }
            | Frame::RunListReply { .. }
            | Frame::RunGcReply { .. }
            | Frame::StatsReply { .. }
            | Frame::Error { .. }
            | Frame::Event { .. }
            | Frame::Events { .. } => false,
        }
    }

    /// A subscription scheduled itself: coalesce its queued deliveries
    /// into one EVENT/EVENTS frame (the PR-5 batching, unchanged) and
    /// append it to the owning connection's out buffer — unless that
    /// buffer is over the high water, in which case the subscription
    /// parks with its schedule bit held until the buffer drains.
    fn handle_drain(&mut self, entry: Arc<ServerSub>) {
        let token = entry.conn;
        let Some(mut conn) = self.conns.remove(&token) else {
            return; // connection already closed
        };
        if !conn.subs.contains_key(&entry.id) {
            self.conns.insert(token, conn);
            return; // unsubscribed meanwhile
        }
        if conn.out_pending() > OUT_HIGH_WATER {
            daemon_metrics().backpressure_parks.inc();
            conn.parked.push(entry);
            self.conns.insert(token, conn);
            return;
        }
        drain_sub(&mut conn, &entry, &self.shared);
        self.conns.insert(token, conn);
        self.flush(token);
    }

    /// WRITABLE readiness: flush, and de-register the interest once the
    /// buffer is empty so an idle socket goes silent again.
    fn write_ready(&mut self, token: usize) {
        self.flush(token);
    }

    /// Write as much owed output as the socket accepts. Manages the
    /// WRITABLE interest, the stall clock, and parked-subscription
    /// resume; closes the connection on a dead socket.
    fn flush(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut dead = false;
        let mut progressed = false;
        while conn.out_pos < conn.out.len() {
            match conn.transport.write(&conn.out[conn.out_pos..]) {
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
            self.close_conn(token);
            return;
        }
        if progressed {
            conn.last_progress = Instant::now();
        }
        if conn.out_pos == conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
        } else if conn.out_pos > READ_CHUNK {
            // Reclaim the sent prefix so the buffer doesn't creep.
            conn.out.drain(..conn.out_pos);
            conn.out_pos = 0;
        }
        let pending = conn.out_pending();
        let want_write = pending > 0;
        if want_write != conn.want_write {
            let interest = if want_write {
                Interest::READABLE | Interest::WRITABLE
            } else {
                Interest::READABLE
            };
            if self
                .poll
                .reregister(conn.transport.raw_fd(), Token(token), interest)
                .is_err()
            {
                self.close_conn(token);
                return;
            }
            self.conns
                .get_mut(&token)
                .expect("conn still present")
                .want_write = want_write;
        }
        if want_write {
            self.arm_stall_scan();
        } else if pending < OUT_LOW_WATER {
            // Resume parked subscriptions: re-enter them through the
            // drain queue (their schedule bit is still set, so no
            // duplicate enqueues can race in).
            let conn = self.conns.get_mut(&token).expect("conn still present");
            for entry in std::mem::take(&mut conn.parked) {
                self.shared.queue.lock().push(LoopMsg::Drain(entry));
            }
        }
    }
}

/// Append one encoded frame to the out buffer, flushing any open
/// receipt run first so frames leave in dispatch order. `Err` = the
/// frame refuses to encode (oversized) — connection-fatal for replies.
fn push_reply(conn: &mut Conn, frame: &Frame) -> Result<(), ()> {
    flush_receipt_run(conn)?;
    daemon_metrics().replies.inc();
    append_frame(conn, frame)
}

fn append_frame(conn: &mut Conn, frame: &Frame) -> Result<(), ()> {
    let encoded = frame.encode().map_err(|_| ())?;
    daemon_metrics().reply_bytes.add(encoded.len() as u64);
    conn.out.extend_from_slice(&encoded);
    Ok(())
}

/// Fold one publish ack into the open receipt run, or flush and start a
/// new one. Coalescing requires an exact arithmetic continuation: next
/// consecutive seq, same partition, next consecutive offset, run under
/// the decode cap.
fn add_receipt(conn: &mut Conn, seq: u64, partition: u32, offset: u64) -> Result<(), ()> {
    if let Some(run) = &mut conn.run {
        if run.partition == partition
            && run.count < MAX_RECEIPT_RUN
            && seq == run.seq_first + run.count as u64
            && offset == run.offset_first + run.count as u64
        {
            run.count += 1;
            return Ok(());
        }
        flush_receipt_run(conn)?;
    }
    conn.run = Some(ReceiptRun {
        seq_first: seq,
        count: 1,
        partition,
        offset_first: offset,
    });
    Ok(())
}

/// Encode the open receipt run: a single ack stays a plain RECEIPT (the
/// smaller frame), a run becomes one RECEIPTS range ack.
fn flush_receipt_run(conn: &mut Conn) -> Result<(), ()> {
    let Some(run) = conn.run.take() else {
        return Ok(());
    };
    let frame = if run.count == 1 {
        Frame::Receipt {
            seq: run.seq_first,
            partition: run.partition,
            offset: run.offset_first,
        }
    } else {
        Frame::Receipts {
            seq_first: run.seq_first,
            count: run.count,
            partition: run.partition,
            offset_first: run.offset_first,
        }
    };
    daemon_metrics().replies.inc();
    append_frame(conn, &frame)
}

/// Coalesce everything queued on a scheduled subscription into one
/// EVENT/EVENTS frame appended to the connection's out buffer, then
/// run the clear-bit/recheck-backlog protocol.
fn drain_sub(conn: &mut Conn, entry: &Arc<ServerSub>, shared: &Arc<LoopShared>) {
    let m = daemon_metrics();
    let mut batch: Vec<Message> = Vec::new();
    let mut batch_bytes = 0usize;
    let mut drained = 0u64;
    let mut payload_bytes = 0u64;
    for _ in 0..event_batch() {
        match entry.sub.try_recv() {
            Ok(Some(message)) => {
                let msg_bytes = message.payload.len()
                    + message.topic.len()
                    + message.key.as_ref().map_or(0, |k| k.len())
                    + 32;
                if !batch.is_empty() && batch_bytes + msg_bytes > EVENT_BATCH_BYTES {
                    append_event_batch(conn, entry.id, &mut batch);
                    batch_bytes = 0;
                }
                batch_bytes += msg_bytes;
                payload_bytes += message.payload.len() as u64;
                drained += 1;
                batch.push(message);
            }
            Ok(None) | Err(_) => break,
        }
    }
    if !batch.is_empty() {
        append_event_batch(conn, entry.id, &mut batch);
    }
    if drained > 0 {
        m.fanout_messages.add(drained);
        m.fanout_bytes.add(payload_bytes);
        m.fanout_batch.observe(drained);
    }
    // Lost-wakeup-free re-check, same as the scheduler and the pump.
    entry.scheduled.store(false, Ordering::SeqCst);
    if entry.sub.backlog() > 0 && !entry.scheduled.swap(true, Ordering::SeqCst) {
        // Requeue through the shared queue (not recursion): the loop
        // interleaves other connections' work and re-checks the
        // backpressure gate before the next batch.
        shared.queue.lock().push(LoopMsg::Drain(entry.clone()));
    }
}

/// Append one pump batch as an EVENT (single message) or EVENTS frame.
/// A frame the codec refuses (an EVENT envelope past `MAX_FRAME`) is
/// dropped rather than allowed to kill the connection — the message is
/// still in the log for `fetch`.
fn append_event_batch(conn: &mut Conn, sub: u64, batch: &mut Vec<Message>) {
    let frame = if batch.len() == 1 {
        Frame::Event {
            sub,
            message: batch.pop().expect("len checked"),
        }
    } else {
        Frame::Events {
            sub,
            messages: std::mem::take(batch),
        }
    };
    batch.clear();
    let _ = append_frame(conn, &frame);
}
