//! The readiness-driven daemon: **one** event-loop thread serves
//! every connection, however many there are, so the daemon's thread
//! count is independent of its client count and 10k+ idle connections
//! cost only their fds. Connection bytes, the doorbell and the deadline
//! heap are the shared [`link`](crate::link) core; this module is the
//! daemon's side of the protocol:
//!
//! * **Tokens.** `0` = listener, `1` = the doorbell's eventfd,
//!   `2..` = connections (monotonically assigned, never reused).
//! * **Subscription wakeups.** A broker subscription's waker rings the
//!   doorbell with a drain message — once per false→true transition of
//!   its schedule bit, the protocol the in-process scheduler uses.
//! * **Receipt-range acks.** Consecutive publish receipts whose seqs
//!   and offsets form arithmetic runs on one partition coalesce into a
//!   single `RECEIPTS` frame (the request-direction mirror of the
//!   EVENTS push batching) — a pipelined storm of N publishes is acked
//!   with one frame, not N.
//! * **One write per connection per turn.** Dispatching a read turn
//!   and draining a subscription only *append* to the connection's out
//!   buffer and mark it dirty; after the doorbell's drains at the top
//!   of the next iteration every dirty connection is flushed once. A
//!   publish's RECEIPT and the EVENTs it caused on the same connection
//!   leave in one `send`, however many subscriptions it woke. The
//!   invariant that goes with deferring: bytes appended before a
//!   hang-up request leave before the hang-up — the dirty set is
//!   flushed ahead of every `close_all`.
//! * **Backpressure.** A connection whose out buffer passes
//!   [`OUT_HIGH_WATER`] parks its subscriptions (their schedule bit
//!   stays set, so wakers no-op) until the buffer has drained. The gate
//!   reads the buffer with the turn's unflushed bytes in it, so
//!   deferring the write can only park earlier, never later.
//! * **Per-run state ends with the run.** `RUN_CLOSE` drops the closing
//!   connection's subscriptions and topic cache for that run, and the
//!   GC of a run drops every connection's — a client that outlives its
//!   runs costs the daemon nothing per finished run.
//! * **Retention.** The sweep reclaiming completed runs is a deadline
//!   on the loop's heap, armed only while a closed run waits.

use crate::link::{Deadlines, Doorbell, Link, Outbox, READ_CHUNK};
use crate::metrics::{daemon_metrics, TopicMetrics};
use crate::registry::RunRegistry;
use crate::server::{error_frame, event_batch, stats_snapshot, EVENT_BATCH_BYTES};
use crate::transport::Transport;
use ginflow_mq::wire::{Frame, MAX_RECEIPT_RUN};
use ginflow_mq::{topic_shard, Broker, Message, Subscription};
use mio::{Events, Interest, Poll, Token};
use std::collections::HashMap;
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
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

/// What the loop can be asked to do from other threads.
enum LoopMsg {
    /// A subscription has deliveries queued (its schedule bit is set).
    Drain(Arc<ServerSub>),
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

/// One live subscription of one connection.
struct ServerSub {
    /// Token of the owning connection.
    conn: usize,
    /// The wire-visible subscription id (per-connection counter).
    id: u64,
    topic: String,
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

/// One connection: its bytes, and the daemon's protocol state on it.
struct Conn {
    link: Link,
    session: Session,
    /// Bytes were appended to `link.out` since the last flush; the
    /// token is in [`LoopState::dirty`] exactly while this is set.
    dirty: bool,
}

impl Conn {
    /// Bytes were appended to `link.out`: owe this connection (`token`)
    /// a flush at the top of the loop's next iteration.
    fn mark_dirty(&mut self, token: usize, dirty: &mut Vec<usize>) {
        if !self.dirty {
            self.dirty = true;
            dirty.push(token);
        }
    }
}

/// The daemon's per-connection protocol state.
#[derive(Default)]
struct Session {
    subs: HashMap<u64, Arc<ServerSub>>,
    /// The last wire-visible subscription id handed out (they start
    /// at 1).
    last_sub: u64,
    /// Subscriptions parked on backpressure, schedule bit still set.
    parked: Vec<Arc<ServerSub>>,
    /// Pending receipt-range coalescing (see [`ReceiptRun`]).
    run: Option<ReceiptRun>,
    /// Topics already reported to the run registry, with their cached
    /// metric handles — a repeat publish touches no registry or family
    /// lock.
    seen_topics: HashMap<String, TopicMetrics>,
}

impl Session {
    /// Drop what this connection holds for `run`: its subscriptions
    /// (parked ones included) and its cached topics.
    fn forget_run(&mut self, run: &str) {
        let of_run = |topic: &str| ginflow_mq::namespace::run_of(topic) == Some(run);
        let before = self.subs.len();
        self.subs.retain(|_, entry| !of_run(&entry.topic));
        daemon_metrics()
            .subscriptions
            .sub((before - self.subs.len()) as u64);
        self.parked.retain(|entry| !of_run(&entry.topic));
        self.seen_topics.retain(|topic, _| !of_run(topic));
    }
}

/// Per-read-turn publish accounting: counts batch in plain locals
/// while a turn dispatches its buffered frames, then flush to the
/// registry in one `add` per counter — a pipelined storm pays a handful
/// of relaxed RMWs per socket read instead of four per message.
/// Consecutive publishes to one topic (the storm shape) coalesce under
/// `pub_topic`; a topic change flushes the pending run.
#[derive(Default)]
struct TurnCounts {
    pub_topic: Option<String>,
    pub_msgs: u64,
    pub_bytes: u64,
}

impl TurnCounts {
    /// Flush pending publish counts through the topic's cached handles
    /// (`seen_topics` is populated before anything accumulates).
    fn flush_publishes(&mut self, session: &Session) {
        let Some(topic) = self.pub_topic.take() else {
            return;
        };
        let tm = &session.seen_topics[&topic];
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
}

/// First-touch accounting for `topic` on this connection: report it to
/// the run registry and resolve its metric handles; thereafter the
/// cached entry is returned without touching either.
fn observe_topic<'a>(
    registry: &RunRegistry,
    session: &'a mut Session,
    topic: &str,
) -> &'a TopicMetrics {
    if !session.seen_topics.contains_key(topic) {
        registry.observe(topic);
        session
            .seen_topics
            .insert(topic.to_owned(), TopicMetrics::resolve(topic));
    }
    &session.seen_topics[topic]
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
    let listener = crate::listen::bind_reuse(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let poll = Poll::new()?;
    poll.register(listener.as_raw_fd(), LISTENER, Interest::READABLE)?;
    let handle = Arc::new(LoopHandle {
        bell: Doorbell::new(&poll, WAKER)?,
        shutdown: AtomicBool::new(false),
    });
    let state = LoopState {
        poll,
        listener,
        broker,
        registry,
        handle: handle.clone(),
        retention,
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
    broker: Arc<dyn Broker>,
    registry: Arc<RunRegistry>,
    handle: Arc<LoopHandle>,
    retention: Option<Duration>,
    conns: HashMap<usize, Conn>,
    /// Connections owed a flush at the top of the next iteration.
    dirty: Vec<usize>,
    next_token: usize,
    /// The loop's own deadlines are all the same one: sweep completed
    /// runs older than the retention window.
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
                    LoopMsg::Drain(entry) => self.handle_drain(entry),
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
            self.fire_timers(now);
            // 4. Park until the next deadline, forever when there is
            //    none, not at all if drains queued up meanwhile.
            let timeout = self.timers.next_timeout(now);
            if self
                .handle
                .bell
                .park(&self.poll, &mut events, timeout)
                .is_err()
            {
                continue;
            }
            // 5. Socket readiness.
            for event in events.iter() {
                match event.token() {
                    LISTENER => self.accept_ready(),
                    WAKER => {} // queue handled at the top of the loop
                    Token(token) => {
                        if event.is_readable() || event.is_closed() {
                            self.read_ready(token, &mut scratch);
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

    fn fire_timers(&mut self, now: Instant) {
        let links = self.conns.iter().map(|(token, conn)| (*token, &conn.link));
        for token in self.timers.stall_scan(now, links) {
            daemon_metrics().stall_evictions.inc();
            self.close_conn(token);
        }
        while self.timers.pop_due(now).is_some() {
            if let Some(window) = self.retention {
                self.gc(window);
                // Sleep exactly until the next completed run becomes
                // eligible — nothing closed, no timer.
                if let Some(next) = self.registry.next_gc_deadline(window) {
                    self.timers.arm(next.max(now), ());
                }
            }
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
        let conn = Conn {
            link: Link::new(transport, Instant::now()),
            session: Session::default(),
            dirty: false,
        };
        self.conns.insert(token, conn);
    }

    fn close_conn(&mut self, token: usize) {
        if let Some(conn) = self.conns.remove(&token) {
            let m = daemon_metrics();
            m.connections.sub(1);
            m.subscriptions.sub(conn.session.subs.len() as u64);
            let _ = self.poll.deregister(conn.link.raw_fd());
            conn.link.shutdown();
            // Dropping `conn` drops its subscriptions (parked ones
            // included): the broker prunes their handles, and any
            // drain message still queued no-ops on the missing token.
        }
    }

    fn close_all(&mut self) {
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            self.close_conn(token);
        }
    }

    /// Reclaim every run completed at least `min_age` ago and drop what
    /// any connection still holds for it. Returns the reclaimed runs
    /// and the number of topics that went with them.
    fn gc(&mut self, min_age: Duration) -> (Vec<String>, u32) {
        let (runs, topics) = self.registry.gc(min_age);
        for run in &runs {
            for conn in self.conns.values_mut() {
                conn.session.forget_run(run);
            }
        }
        (runs, topics)
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

    /// A connection is readable: dispatch the requests of one read
    /// turn; what they produced leaves with the turn's flush.
    fn read_ready(&mut self, token: usize, scratch: &mut [u8]) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let Conn { link, session, .. } = &mut conn;
        let mut counts = TurnCounts::default();
        let turn = link.read_turn(scratch, |out, frame| {
            self.dispatch(token, session, out, frame, &mut counts)
        });
        counts.flush_publishes(session);
        daemon_metrics().frames.add(turn.frames);
        // End of turn: any receipt run still open goes out now — a
        // blocking publisher is waiting on it.
        let alive = flush_receipt_run(session, &mut link.out).is_ok() && turn.alive;
        if alive && conn.link.out.pending() > 0 {
            conn.mark_dirty(token, &mut self.dirty);
        }
        self.conns.insert(token, conn);
        if !alive {
            self.close_conn(token);
        }
    }

    /// Handle one request frame; `false` ends the connection.
    fn dispatch(
        &mut self,
        token: usize,
        session: &mut Session,
        out: &mut Outbox,
        frame: Frame,
        counts: &mut TurnCounts,
    ) -> bool {
        match frame {
            Frame::Publish {
                seq,
                topic,
                key,
                payload,
            } => {
                let bytes = payload.len() as u64;
                observe_topic(&self.registry, session, &topic);
                if counts.pub_topic.as_deref() != Some(topic.as_str()) {
                    counts.flush_publishes(session);
                    counts.pub_topic = Some(topic.clone());
                }
                counts.pub_msgs += 1;
                counts.pub_bytes += bytes;
                match self.broker.publish(&topic, key, payload) {
                    Ok(receipt) => {
                        add_receipt(session, out, seq, receipt.partition, receipt.offset).is_ok()
                    }
                    Err(e) => push_reply(session, out, &error_frame(seq, e)).is_ok(),
                }
            }
            Frame::Subscribe { seq, topic, mode } => {
                let tm = observe_topic(&self.registry, session, &topic);
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
                        session.last_sub += 1;
                        let id = session.last_sub;
                        let entry = Arc::new(ServerSub {
                            conn: token,
                            id,
                            topic,
                            sub,
                            scheduled: AtomicBool::new(false),
                        });
                        session.subs.insert(id, entry.clone());
                        daemon_metrics().subscriptions.add(1);
                        // The ack is appended to `out` before the waker
                        // is armed, and events travel through the same
                        // FIFO buffer — the client always learns the
                        // sub id before its first EVENT.
                        let ack = Frame::Subscribed {
                            seq,
                            sub: id,
                            resume,
                        };
                        if push_reply(session, out, &ack).is_err() {
                            return false;
                        }
                        let weak: Weak<ServerSub> = Arc::downgrade(&entry);
                        let handle = self.handle.clone();
                        entry.sub.set_waker(move || {
                            if let Some(entry) = weak.upgrade() {
                                if !entry.scheduled.swap(true, Ordering::SeqCst) {
                                    handle.bell.ring(LoopMsg::Drain(entry));
                                }
                            }
                        });
                        true
                    }
                    Err(e) => push_reply(session, out, &error_frame(seq, e)).is_ok(),
                }
            }
            Frame::Unsubscribe { sub, .. } => {
                if session.subs.remove(&sub).is_some() {
                    daemon_metrics().subscriptions.sub(1);
                }
                session.parked.retain(|p| p.id != sub);
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
                push_reply(session, out, &reply).is_ok()
            }
            Frame::Info { seq, topic } => push_reply(
                session,
                out,
                &Frame::InfoReply {
                    seq,
                    persistent: self.broker.persistent(),
                    partitions: self.broker.partitions(&topic),
                    retained: self.broker.retained(&topic),
                },
            )
            .is_ok(),
            Frame::RunList { seq } => push_reply(
                session,
                out,
                &Frame::RunListReply {
                    seq,
                    runs: self.registry.list(),
                },
            )
            .is_ok(),
            Frame::RunClose { seq, run } => {
                let known = self.registry.close(&run);
                // Whoever closes a run is done with it: what this
                // connection holds for it goes now, not at hang-up.
                session.forget_run(&run);
                // A freshly closed run is what the retention sweep
                // waits on: arm its deadline on the timer wheel.
                if known {
                    if let Some(window) = self.retention {
                        self.timers.arm(Instant::now() + window, ());
                    }
                }
                push_reply(
                    session,
                    out,
                    &Frame::RunGcReply {
                        seq,
                        runs: u32::from(known),
                        topics: 0,
                    },
                )
                .is_ok()
            }
            Frame::RunGc { seq } => {
                let (reclaimed, topics) = self.gc(Duration::ZERO);
                // The requester's session is out of `conns` for the
                // length of its read turn.
                for run in &reclaimed {
                    session.forget_run(run);
                }
                let runs = reclaimed.len() as u32;
                push_reply(session, out, &Frame::RunGcReply { seq, runs, topics }).is_ok()
            }
            Frame::Stats { seq } => push_reply(
                session,
                out,
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
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // connection already closed
        };
        if !conn.session.subs.contains_key(&entry.id) {
            return; // unsubscribed meanwhile
        }
        if conn.link.out.pending() > OUT_HIGH_WATER {
            daemon_metrics().backpressure_parks.inc();
            conn.session.parked.push(entry);
            return;
        }
        drain_sub(&mut conn.link.out, &entry, &self.handle.bell);
        conn.mark_dirty(token, &mut self.dirty);
    }

    /// Flush a connection's out buffer and act on what the link
    /// reports: a dead socket closes the connection, owed bytes keep
    /// the stall scan armed, a drained buffer resumes parked
    /// subscriptions.
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
            // Resume parked subscriptions: re-enter them through the
            // drain queue (their schedule bit is still set, so no
            // duplicate enqueues can race in).
            for entry in std::mem::take(&mut conn.session.parked) {
                self.handle.bell.ring(LoopMsg::Drain(entry));
            }
        }
    }
}

/// Append one encoded frame to the out buffer, flushing any open
/// receipt run first so frames leave in dispatch order. `Err` = the
/// frame refuses to encode (oversized) — connection-fatal for replies.
fn push_reply(session: &mut Session, out: &mut Outbox, frame: &Frame) -> Result<(), ()> {
    flush_receipt_run(session, out)?;
    daemon_metrics().replies.inc();
    append_frame(out, frame)
}

fn append_frame(out: &mut Outbox, frame: &Frame) -> Result<(), ()> {
    let encoded = frame.encode().map_err(|_| ())?;
    daemon_metrics().reply_bytes.add(encoded.len() as u64);
    out.push(&encoded);
    Ok(())
}

/// Fold one publish ack into the open receipt run, or flush and start a
/// new one. Coalescing requires an exact arithmetic continuation: next
/// consecutive seq, same partition, next consecutive offset, run under
/// the decode cap.
fn add_receipt(
    session: &mut Session,
    out: &mut Outbox,
    seq: u64,
    partition: u32,
    offset: u64,
) -> Result<(), ()> {
    if let Some(run) = &mut session.run {
        if run.partition == partition
            && run.count < MAX_RECEIPT_RUN
            && seq == run.seq_first + run.count as u64
            && offset == run.offset_first + run.count as u64
        {
            run.count += 1;
            return Ok(());
        }
        flush_receipt_run(session, out)?;
    }
    session.run = Some(ReceiptRun {
        seq_first: seq,
        count: 1,
        partition,
        offset_first: offset,
    });
    Ok(())
}

/// Encode the open receipt run: a single ack stays a plain RECEIPT (the
/// smaller frame), a run becomes one RECEIPTS range ack.
fn flush_receipt_run(session: &mut Session, out: &mut Outbox) -> Result<(), ()> {
    let Some(run) = session.run.take() else {
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
    append_frame(out, &frame)
}

/// Coalesce everything queued on a scheduled subscription into one
/// EVENT/EVENTS frame appended to the connection's out buffer, then
/// run the clear-bit/recheck-backlog protocol.
fn drain_sub(out: &mut Outbox, entry: &Arc<ServerSub>, bell: &Doorbell<LoopMsg>) {
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
                    append_event_batch(out, entry.id, &mut batch);
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
        append_event_batch(out, entry.id, &mut batch);
    }
    if drained > 0 {
        m.fanout_messages.add(drained);
        m.fanout_bytes.add(payload_bytes);
        m.fanout_batch.observe(drained);
    }
    // Lost-wakeup-free re-check, same as the scheduler and the pump.
    entry.scheduled.store(false, Ordering::SeqCst);
    if entry.sub.backlog() > 0 && !entry.scheduled.swap(true, Ordering::SeqCst) {
        // Requeue through the doorbell (not recursion): the loop
        // interleaves other connections' work and re-checks the
        // backpressure gate before the next batch.
        bell.ring(LoopMsg::Drain(entry.clone()));
    }
}

/// Append one pump batch as an EVENT (single message) or EVENTS frame.
/// A frame the codec refuses (an EVENT envelope past `MAX_FRAME`) is
/// dropped rather than allowed to kill the connection — the message is
/// still in the log for `fetch`.
fn append_event_batch(out: &mut Outbox, sub: u64, batch: &mut Vec<Message>) {
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
    let _ = append_frame(out, &frame);
}
